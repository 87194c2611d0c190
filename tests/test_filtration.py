"""Filtration laws, the density surrogate, and the builders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    conditional_expectation,
    is_band_projection,
    is_dense as is_dense_by_basis,
    order_law_sweep,
)
from lattice_lab import (
    DEFAULT_TOL,
    BlockOperator,
    Filtration,
    LatticeSpace,
    NormKind,
    PosOperator,
    apply,
    build_copy,
    build_dyadic,
    build_pairing,
    build_random_nested,
    build_truncation,
    classify,
    is_contractive_filtration,
    is_dense,
    operator_norm,
    terminal_sequence,
    validate,
    vector,
)
from lattice_lab import filtration
from lattice_lab.filtration import MAX_DYADIC_LEVELS
from lattice_lab.harness import random_filtration

BUILDERS = [
    ("truncation", lambda: build_truncation(8)),
    ("pairing", lambda: build_pairing(3)),
    ("dyadic", lambda: build_dyadic(3)),
    ("nested-l1", lambda: build_random_nested(10, 6, seed=5)),
    ("nested-sup", lambda: build_random_nested(10, 6, seed=5, norm_kind="sup")),
    ("copy", lambda: build_copy(8)),
]


def test_filtration_needs_operators():
    with pytest.raises(ValueError):
        Filtration(LatticeSpace(2), ())


def test_filtration_rejects_foreign_operators():
    with pytest.raises(ValueError):
        Filtration(LatticeSpace(2), (PosOperator(LatticeSpace(3), np.eye(3)),))


@pytest.mark.parametrize("name,make", BUILDERS)
def test_builders_pass_all_laws_contractive(name, make):
    report = validate(make(), require_contractive=True, tol=1e-9)
    assert report["passed"], report


def test_validate_reports_order_law_failure_with_witness():
    # Global averaging vs a coordinate mask: the products differ from E_1.
    space = LatticeSpace(4)
    avg = np.full((4, 4), 0.25)
    mask = np.diag([1.0, 0, 0, 0])
    assert np.max(np.abs(mask @ avg - avg)) > 0.1  # oracle: E2 E1 != E1
    filt = Filtration(space, (PosOperator(space, avg), PosOperator(space, mask)))
    report = validate(filt)
    by_law = {c["law"]: c for c in report["checks"]}
    assert not report["passed"]
    assert not by_law["commuting-order"]["passed"]
    assert by_law["commuting-order"]["witness"] in ((1, 2), (2, 1))
    assert by_law["positivity"]["passed"] and by_law["idempotence"]["passed"]


def test_validate_reports_idempotence_and_positivity_failures():
    space = LatticeSpace(3)
    doubled = PosOperator(space, 2 * np.eye(3))
    negative = PosOperator(space, np.diag([1.0, -0.5, 1.0]))
    report = validate(Filtration(space, (doubled, negative)))
    by_law = {c["law"]: c for c in report["checks"]}
    assert not by_law["idempotence"]["passed"] and by_law["idempotence"]["witness"] == (1,)
    assert not by_law["positivity"]["passed"] and by_law["positivity"]["witness"] == (2,)


def test_validate_contractivity_failure():
    space = LatticeSpace(2)
    report = validate(
        Filtration(space, (PosOperator(space, 1.5 * np.eye(2)),) * 2),
        require_contractive=True,
    )
    by_law = {c["law"]: c for c in report["checks"]}
    assert not by_law["contractivity"]["passed"]


def test_validate_fails_every_law_touched_by_nan():
    filt = build_truncation(3)
    poisoned = filt.op(1).matrix.copy()
    poisoned[0, 1] = np.nan
    ops = (PosOperator(filt.space, poisoned),) + filt.ops[1:]
    report = validate(Filtration(filt.space, ops), require_contractive=True)
    by_law = {c["law"]: c for c in report["checks"]}
    assert not report["passed"]
    for law in ("positivity", "idempotence", "commuting-order", "contractivity"):
        assert not by_law[law]["passed"] and np.isnan(by_law[law]["worst"])
    assert by_law["positivity"]["witness"] == (1,)
    assert by_law["commuting-order"]["witness"] == (1, 1)


def test_stage_norms_are_computed_once_per_filtration(monkeypatch):
    filt = build_random_nested(12, 12, 4)
    seq = terminal_sequence(filt, vector(filt.space, np.linspace(-1.0, 1.0, 12)))
    calls = []
    norm = filtration.operator_norm

    def counted(op):
        calls.append(op)
        return norm(op)

    monkeypatch.setattr(filtration, "operator_norm", counted)
    for _ in range(3):
        classify(seq, filt)
    assert is_contractive_filtration(filt)
    assert validate(filt, require_contractive=True)["passed"]
    assert calls == list(filt.ops)  # one call per stage, in order, however often it is read
    assert filt.norms == tuple(norm(e) for e in filt.ops)


def test_a_nan_stage_norm_is_not_contractive():
    filt = build_truncation(3)
    e = filt.op(2)
    poisoned = BlockOperator(filt.space, e.labels, e.mask, np.where(e.coef == 1.0, np.nan, 0.0))
    bad = Filtration(filt.space, (filt.op(1), poisoned, filt.op(3)))
    assert np.isnan(bad.norms[1])
    assert not is_contractive_filtration(bad)
    check = validate(bad, require_contractive=True)["checks"][-1]
    assert check["law"] == "contractivity"
    assert not check["passed"] and np.isnan(check["worst"]) and check["witness"] == (2,)


@pytest.mark.parametrize("seed", range(8))
def test_contractivity_law_reads_the_same_norms_as_a_stage_loop(seed):
    rng = np.random.default_rng(seed)
    filt = build_random_nested(9, 6, seed, list(NormKind)[seed % 2])
    ops = tuple(PosOperator(filt.space, rng.uniform(0.5, 1.5) * e.matrix) for e in filt.ops)
    scaled = Filtration(filt.space, ops)
    worst, witness = 0.0, None
    for n, e in enumerate(ops, start=1):
        v = operator_norm(e) - 1.0
        if v > worst:
            worst, witness = v, (n,)
    check = validate(scaled, require_contractive=True)["checks"][-1]
    assert check["law"] == "contractivity"
    assert (check["worst"], check["witness"]) == (worst, witness)
    assert is_contractive_filtration(scaled) == (worst <= DEFAULT_TOL)


def test_is_dense():
    assert is_dense(build_truncation(6))
    assert is_dense(build_dyadic(3))  # final level resolves every cell
    pairing = build_pairing(3)
    assert is_dense(pairing)
    truncated = Filtration(pairing.space, pairing.ops[:-1])
    assert not is_dense(truncated)  # last stage still averages a pair


def test_is_dense_measures_each_column_in_the_space_norm():
    # E_N e_1 - e_1 = (0, 1) has weighted-L1 norm 1, while row 2 of E_N - I
    # weighs only 1e-12: a row-wise reduction would call this dense.
    space = LatticeSpace(2, NormKind.WEIGHTED_L1, [1e-12, 1.0])
    filt = Filtration(space, (PosOperator(space, [[1.0, 0.0], [1.0, 1.0]]),))
    assert is_dense(filt) is is_dense_by_basis(filt, 1e-9) is False


def test_truncation_is_band_projection_chain():
    assert all(is_band_projection(e) for e in build_truncation(6).ops)


@pytest.mark.parametrize("make", [lambda: build_pairing(3), lambda: build_dyadic(3)])
def test_averaging_builders_are_not_band_projections(make):
    filt = make()
    eye = np.eye(filt.space.dim)
    for op in filt.ops:
        if not np.array_equal(op.matrix, eye):
            assert not is_band_projection(op)


def test_copy_keeps_a_head_and_repeats_its_last_coordinate():
    filt = build_copy(5)
    x = vector(filt.space, [1.0, -2.0, 3.0, -4.0, 5.0])
    assert apply(filt.op(2), x).coords.tolist() == [1.0, -2.0, -2.0, -2.0, -2.0]
    assert not any(is_band_projection(e) for e in filt.ops[:-1])
    assert np.array_equal(filt.op(5).matrix, np.eye(5))


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} used before the level cap was checked")


def test_dyadic_levels_are_capped_before_anything_is_allocated(monkeypatch):
    assert MAX_DYADIC_LEVELS == 12  # 13 levels would need a 6.9 GB dense stack
    monkeypatch.setattr(filtration, "np", _NoNumpy())
    for levels in (13, 30, 64):
        with pytest.raises(ValueError, match=r"levels must lie in 1\.\.12, got"):
            build_dyadic(levels)


def test_random_nested_seed_determinism():
    a = build_random_nested(12, 7, seed=42)
    b = build_random_nested(12, 7, seed=42)
    c = build_random_nested(12, 7, seed=43)
    assert all(np.array_equal(x.matrix, y.matrix) for x, y in zip(a.ops, b.ops))
    assert np.array_equal(a.space.weights, b.space.weights)
    assert any(not np.array_equal(x.matrix, y.matrix) for x, y in zip(a.ops, c.ops))


def test_random_nested_depth_bounds():
    with pytest.raises(ValueError):
        build_random_nested(4, 5, seed=0)
    with pytest.raises(ValueError):
        build_random_nested(4, 0, seed=0)


def test_random_nested_full_depth_ends_at_identity():
    filt = build_random_nested(9, 9, seed=3)
    assert is_dense(filt)
    assert np.allclose(filt.ops[-1].matrix, np.eye(9))
    assert not is_dense(build_random_nested(9, 4, seed=3))


def test_random_nested_weights_normalized():
    filt = build_random_nested(11, 5, seed=1)
    assert filt.space.norm_kind is NormKind.WEIGHTED_L1
    assert filt.space.weights.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name,make", BUILDERS)
def test_nested_ranges_property(name, make):
    filt = make()
    rng = np.random.default_rng(99)
    for _ in range(100):
        x = vector(filt.space, rng.normal(size=filt.space.dim))
        n, m = rng.integers(1, filt.horizon + 1, size=2)
        via_pair = apply(filt.op(int(n)), apply(filt.op(int(m)), x))
        direct = apply(filt.op(int(min(n, m))), x)
        assert np.max(np.abs(via_pair.coords - direct.coords)) <= 1e-9


def test_report_serialization_shape():
    report = validate(build_truncation(3), require_contractive=True)
    assert report["passed"] is True
    assert [c["law"] for c in report["checks"]] == [
        "positivity",
        "idempotence",
        "commuting-order",
        "contractivity",
    ]


def _assert_stages_are_conditional_expectations(filt: Filtration) -> None:
    for stage in filt.ops:  # bit for bit: each block weight summed afresh, in index order
        assert np.array_equal(stage.matrix, conditional_expectation(filt.space, stage.labels))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    dim=st.integers(1, 64),
    norm_kind=st.sampled_from(list(NormKind)),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_nested_stages_are_conditional_expectations(data, dim, norm_kind, seed):
    depth = data.draw(st.integers(1, dim), label="depth")
    _assert_stages_are_conditional_expectations(build_random_nested(dim, depth, seed, norm_kind))


@pytest.mark.parametrize("norm_kind", list(NormKind))
@pytest.mark.parametrize("dim,depth,seed", [(260, 6, 0), (300, 6, 1), (512, 4, 7)])
def test_random_nested_sums_blocks_past_the_pairwise_block(dim, depth, seed, norm_kind):
    # np.sum adds more than 128 terms in halves, and the first split of d >= 258
    # coordinates leaves a part of more than 128, so these sums check that order too,
    # and the laws must hold at that order
    filt = build_random_nested(dim, depth, seed, norm_kind)
    assert np.bincount(filt.ops[1].labels).max() > 128
    _assert_stages_are_conditional_expectations(filt)
    assert validate(filt, True)["passed"]


def _base_chain(kind: str, size: int, seed: int) -> Filtration:
    if kind == "random-filtration":
        return random_filtration(np.random.default_rng(seed))[0]
    if kind == "random-nested":
        norm_kind = list(NormKind)[seed % 2]
        return build_random_nested(size + 1, size, seed, norm_kind)
    if kind == "dyadic":
        return build_dyadic(1 + size % 5)  # d = 2**levels
    return {"truncation": build_truncation, "pairing": build_pairing}[kind](size)


def _perturbed(filt: Filtration, how: str, scale: float, seed: int) -> Filtration:
    """One stage of ``filt`` spoiled: entry noise, a swap with the next
    stage, a NaN entry, or its range tilted out of the next stage's range
    (E_k + (I - E_{k+1}) R E_k keeps E_k idempotent and E_k E_{k+1} = E_k,
    so only the pairs (m, n) with m > n can see it)."""
    rng = np.random.default_rng(seed)
    mats = [e.matrix.copy() for e in filt.ops]
    d, k = filt.space.dim, int(rng.integers(len(mats)))
    if how in ("swap", "tilt") and k == len(mats) - 1:
        k -= 1
    if k < 0 or how == "none":
        pass
    elif how == "noise":
        mats[k] += rng.uniform(0.0, scale, size=(d, d))
    elif how == "swap":
        mats[k], mats[k + 1] = mats[k + 1], mats[k]
    elif how == "nan":
        mats[k][tuple(rng.integers(d, size=2))] = np.nan
    else:
        tilt = (np.eye(d) - mats[k + 1]) @ rng.uniform(0.0, scale, size=(d, d))
        mats[k] += tilt @ mats[k]
    return Filtration(filt.space, tuple(PosOperator(filt.space, m) for m in mats))


def _same_value(a: float, b: float) -> bool:
    return a == b or (np.isnan(a) and np.isnan(b))


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["truncation", "pairing", "dyadic", "random-nested", "random-filtration"]),
    size=st.integers(1, 12),
    how=st.sampled_from(["none", "noise", "swap", "nan", "tilt"]),
    log_scale=st.floats(-6.0, -1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_adjacent_order_law_matches_the_full_sweep(kind, size, how, log_scale, seed):
    filt = _perturbed(_base_chain(kind, size, seed), how, 10.0**log_scale, seed)
    got, want = validate(filt, require_contractive=True), order_law_sweep(filt, True)
    assert got["passed"] == want["passed"]
    assert [c["law"] for c in got["checks"]] == [c["law"] for c in want["checks"]]
    for g, w in zip(got["checks"], want["checks"]):
        assert g["passed"] == w["passed"], (g, w)
        if g["law"] == "commuting-order":
            # the adjacent pairs are a subset of the sweep, each product computed alike
            assert g["worst"] <= w["worst"] or _same_value(g["worst"], w["worst"])
            assert g["witness"] is None or abs(g["witness"][0] - g["witness"][1]) <= 1
        else:
            assert g["witness"] == w["witness"] and _same_value(g["worst"], w["worst"]), (g, w)


def test_a_range_outside_the_next_range_fails_on_the_reversed_pair():
    # E_1 x = x_1 (e_1 + e_3).  Its kernel contains ker E_2, so E_1 E_2 = E_1,
    # but its range leaves range E_2 = span(e_1, e_2), so E_2 E_1 != E_1.
    space = LatticeSpace(3)
    e1 = PosOperator(space, [[1.0, 0, 0], [0, 0, 0], [1.0, 0, 0]])
    e2 = PosOperator(space, np.diag([1.0, 1.0, 0.0]))
    report = validate(Filtration(space, (e1, e2)))
    by_law = {c["law"]: c for c in report["checks"]}
    assert by_law["idempotence"]["passed"] and by_law["positivity"]["passed"]
    assert not by_law["commuting-order"]["passed"]
    assert by_law["commuting-order"]["witness"] == (2, 1)
    assert by_law["commuting-order"]["worst"] == 1.0
