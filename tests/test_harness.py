"""Theorem-evidence checks: expected statuses, reproducibility, bounds."""

import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import closure_fraction
from lattice_lab import (
    CheckStatus,
    ClassificationReport,
    Filtration,
    LatticeSpace,
    NonContractiveError,
    NormKind,
    PosOperator,
    VectorSequence,
    Verdict,
    abs_commutation_index,
    basis,
    build_copy,
    build_dyadic,
    build_pairing,
    build_random_nested,
    build_truncation,
    defect_profile,
    eventual_witness,
    harmonic_tail_example,
    is_abs_closed,
    null_sequence,
    run_all,
    run_check,
    seq_distance,
    tail_modify,
    terminal_sequence,
    vector,
    zero,
)
from lattice_lab import harness, martingales
from lattice_lab.harness import (
    CHECK_IDS,
    check_abs_alignment,
    check_abs_closure,
    check_band_projection_lattice,
    check_class_nesting,
    check_closed_under_limits,
    check_closed_under_limits_harmonic,
    check_eventual_not_closed,
    check_limit_defect,
    check_tail_modification,
    random_asymptotic_martingale,
    random_eventual_martingale,
    random_filtration,
    trial_rng,
)


def test_nesting_confirmed_on_mixed_instances():
    result = check_class_nesting(seed=1, trials=60)
    assert result["status"] is CheckStatus.CONFIRMED
    assert result["witness"]["checked"] == 60


def test_closed_under_limits_confirmed():
    for filt in (build_truncation(32), build_dyadic(5)):
        result = check_closed_under_limits(filt, seed=3)
        assert result["status"] is CheckStatus.CONFIRMED
        dist = result["witness"]["distances"]
        assert all(b <= a + 1e-12 for a, b in zip(dist, dist[1:]))


def test_closed_under_limits_harmonic_family():
    result = check_closed_under_limits_harmonic()
    assert result["status"] is CheckStatus.CONFIRMED
    assert result["witness"]["limit_verdict"] == "X_MARTINGALE"
    assert result["witness"]["distances"][0] == pytest.approx(1.0, abs=1e-12)


def test_limit_defect_terminal_and_null():
    filt = build_truncation(64)
    x = vector(filt.space, 1.0 / np.arange(1, 65))
    from lattice_lab import terminal_sequence

    r1 = check_limit_defect(terminal_sequence(filt, x), x, filt)
    assert r1["status"] is CheckStatus.CONFIRMED
    assert max(r1["witness"]["tail_sup_profile"]) == 0.0  # E_m x equals x_m exactly

    seq = null_sequence(basis(filt.space, 1), 64)
    r2 = check_limit_defect(seq, zero(filt.space), filt)
    assert r2["status"] is CheckStatus.CONFIRMED
    # e_n = max_{m >= n} ||x_m|| = 1/n for the null sequence
    prof = r2["witness"]["tail_sup_profile"]
    assert prof[0] == pytest.approx(1.0, abs=1e-12)
    assert prof[47] == pytest.approx(1.0 / 48, abs=1e-12)


@pytest.mark.parametrize(
    "check_id, check",
    [("limit-defect", check_limit_defect), ("tail-approx", check_tail_modification)],
    ids=["limit-defect", "tail-approx"],
)
def test_limit_defect_inapplicable_without_convergence(monkeypatch, check_id, check):
    # the constant last basis vector neither converges to 0 nor is asymptotic: the
    # claim says nothing there, and no one-step defect is computed
    monkeypatch.setattr(harness, "_steps", lambda *args: pytest.fail("_steps ran"))
    filt = build_truncation(16)
    seq = VectorSequence(filt.space, np.tile(basis(filt.space, 16).coords, (16, 1)))
    assert check(seq, zero(filt.space), filt) == {
        "id": check_id,
        "descriptor": {"horizon": 16, "dim": 16, "norm": "sup"},
        "status": CheckStatus.INCONCLUSIVE,
        "witness": {
            "premises": {"asymptotic": False, "convergent": False},
            "note": "claim inapplicable on this instance",
        },
        "seed": None,
    }


@pytest.mark.parametrize("where", ["head", "last", "limit"])
@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
def test_limit_checks_are_inconclusive_on_non_finite_inputs(monkeypatch, where, value):
    # Both checks confirm the null sequence (limit 0); one infinity or NaN in its head
    # term, its last term or the limit vector leaves eps NaN or a convergence row NaN,
    # so a premise fails before any distance or one-step defect is computed.
    monkeypatch.setattr(harness, "_steps", lambda *args: pytest.fail("_steps ran"))
    filt = build_truncation(64)
    coords = null_sequence(basis(filt.space, 1), 64).coords.copy()
    limit = zero(filt.space).coords.copy()
    if where == "limit":
        limit[0] = value
    else:
        coords[0 if where == "head" else -1, 0] = value
    seq, x = VectorSequence(filt.space, coords), vector(filt.space, limit)
    for check in (check_limit_defect, check_tail_modification):
        result = check(seq, x, filt)
        assert result["status"] is CheckStatus.INCONCLUSIVE
        assert not all(result["witness"]["premises"].values())


@pytest.mark.parametrize("instance", [0, 7, 12345, 3901, "harmonic-tail"])
def test_tail_approx_distances_are_the_limit_defect_profile(instance):
    # A^m agrees with A up to m and has rows E_n x after it, so ||A^m - A|| = e_{m+1}:
    # tail-approx's distances are limit-defect's tail_sup_profile from index 2, to the bit.
    if instance == "harmonic-tail":
        filt, seq, _ = harmonic_tail_example(64)
        x = zero(filt.space)
    else:
        filt, seq, x = harness._perturbed_nested_instance(32, instance)
    defect, approx = check_limit_defect(seq, x, filt), check_tail_modification(seq, x, filt)
    assert defect["status"] is approx["status"] is CheckStatus.CONFIRMED
    distances = np.array(approx["witness"]["distances"])
    assert distances.tobytes() == np.array(defect["witness"]["tail_sup_profile"][1:]).tobytes()


def test_tail_modification_on_harmonic():
    filt, base, _ = harmonic_tail_example(64)
    result = check_tail_modification(base, zero(filt.space), filt)
    assert result["status"] is CheckStatus.CONFIRMED
    dist = result["witness"]["distances"]
    assert dist[0] == pytest.approx(1.0 / 2, abs=1e-12)  # max tail norm beyond m=1
    assert all(b <= a for a, b in zip(dist, dist[1:]))  # a max over fewer of the same rows
    assert list(result["witness"]) == ["premises", "eps", "distances"]


def _first_late_member(seq, filt, rows):
    """Brute force: the first m in 1..N-2 whose A^m = (x_1..x_m, rows m+1..N) has no
    eventual witness or one past m + 1, as ``{"m", "witness"}``, else None."""
    for m in range(1, seq.horizon - 1):
        member = VectorSequence(seq.space, np.vstack((seq.coords[:m], rows[m:])))
        witness = eventual_witness(member, filt)
        if witness is None or witness > m + 1:
            return {"m": m, "witness": witness}
    return None


def _agrees_with_the_walk(result, seq, filt, rows):
    late = _first_late_member(seq, filt, rows)
    if late is None:
        assert result["status"] is not CheckStatus.INCONCLUSIVE
        assert "m" not in result["witness"]
    else:
        assert result["status"] is CheckStatus.VIOLATED
        assert result["witness"] == {**late, "problem": "tail modification not eventual"}
    return late


@pytest.mark.parametrize("seed", [0, 7, 12345, 3901])
def test_tail_approx_agrees_with_a_walk_of_tail_modify_members(monkeypatch, seed):
    # Each distance is that of tail_modify's A^m to A, and a brute-force walk of the
    # members finds no late witness, as the check's one read of E_n x's steps does.
    monkeypatch.setattr(harness, "_stacked", lambda *args: pytest.fail("an A^m family walked"))
    filt, seq, x = harness._perturbed_nested_instance(32, seed)
    result = check_tail_modification(seq, x, filt)
    assert result["status"] is CheckStatus.CONFIRMED
    want = [tail_modify(seq, filt, x, m) for m in range(1, filt.horizon)]
    assert result["witness"]["distances"] == [seq_distance(a, seq) for a in want]
    rows = tail_modify(seq, filt, x, 0).coords  # every term replaced: E_n x
    assert _agrees_with_the_walk(result, seq, filt, rows) is None


@pytest.mark.parametrize("norm_kind", ["sup", "l1"])
@pytest.mark.parametrize("size", [2, 3, 8, 32])
def test_tail_approx_late_witness_is_the_walks_on_perturbed_rows(monkeypatch, size, norm_kind):
    # E_n x with one row moved: the check's A^1 read must carry the m and witness of the
    # first late member found by walking every A^m (m = 1 with the witness, or none).
    filt = build_random_nested(size, size, 11, norm_kind)
    rng = trial_rng(11, 0)
    x = filt.op(max(1, size // 2)).matrix @ rng.uniform(-1.0, 1.0, size)
    seq = harness._plus_null(terminal_sequence(filt, vector(filt.space, x)),
                             vector(filt.space, rng.uniform(-1.0, 1.0, size)), 100)
    clean, bump = harness._applied(filt.ops, x), rng.uniform(-1.0, 1.0, size)
    lates = []
    for row in range(size):
        rows = clean.copy()
        rows[row] += bump
        monkeypatch.setattr(harness, "_applied", lambda ops, v: rows)
        result = check_tail_modification(seq, vector(filt.space, x), filt)
        lates.append(_agrees_with_the_walk(result, seq, filt, rows))
    if size > 2:  # a moved row past the first makes A^1 late; row 1 of each A^m is A's
        assert lates[0] is None and all(late["m"] == 1 for late in lates[1:])


def test_tail_modification_refuses_a_single_term():
    filt = build_truncation(1)
    x = basis(filt.space, 1)
    from lattice_lab import terminal_sequence

    with pytest.raises(ValueError, match="horizon of at least 2 terms"):
        check_tail_modification(terminal_sequence(filt, x), x, filt)


def test_limit_checks_refuse_a_single_term():
    # The tail window of one term is index 1 alone: a CONFIRMED there is vacuous.
    filt = build_truncation(1)
    x = basis(filt.space, 1)
    with pytest.raises(ValueError, match="limit defect needs a horizon of at least 2 terms"):
        check_limit_defect(terminal_sequence(filt, x), x, filt)
    with pytest.raises(ValueError, match="closed under limits needs a horizon of at least 2"):
        check_closed_under_limits(filt)


_DOUBLER_SPACE = LatticeSpace(2)
_DOUBLING = Filtration(
    _DOUBLER_SPACE, (PosOperator(_DOUBLER_SPACE, 2 * np.eye(2)),) * 2
)  # norm 2: not contractive


@pytest.mark.parametrize(
    "check",
    [
        lambda: check_closed_under_limits(_DOUBLING),
        lambda: check_limit_defect(
            VectorSequence(_DOUBLER_SPACE, np.ones((2, 2))), vector(_DOUBLER_SPACE, [1, 1]),
            _DOUBLING,
        ),
        lambda: check_tail_modification(
            VectorSequence(_DOUBLER_SPACE, np.ones((2, 2))), vector(_DOUBLER_SPACE, [1, 1]),
            _DOUBLING,
        ),
    ],
    ids=["closed-limits", "limit-defect", "tail-modification"],
)
def test_limit_checks_refuse_a_non_contractive_filtration(monkeypatch, check):
    # the defect notion rests on contractivity; the refusal comes before any defect
    for module in (harness, martingales):
        monkeypatch.setattr(module, "_profiles", lambda *args: pytest.fail("_profiles ran"))
    with pytest.raises(NonContractiveError, match="requires a contractive filtration"):
        check()


def test_eventual_not_closed():
    result = check_eventual_not_closed()
    assert result["status"] is CheckStatus.CONFIRMED
    assert result["witness"]["limit_verdict"] == "X_MARTINGALE"


def test_abs_closure_counterexamples_and_fractions():
    result = check_abs_closure(build_truncation(16))
    assert result["status"] is CheckStatus.CONFIRMED
    assert result["witness"]["pairing_first_abs_defect"] == pytest.approx(1.0, abs=1e-12)
    assert result["witness"]["haar_first_abs_defect"] == pytest.approx(0.5, abs=1e-12)
    runs = {r["filtration"]: r for r in result["witness"]["closure_runs"]}
    assert runs["given"]["closed"] is True  # band projections close
    assert runs["pairing-3"]["closed"] is False
    assert runs["haar-3"]["closed"] is False


def test_abs_closure_is_violated_when_a_counterexample_is_decided_closed(monkeypatch):
    monkeypatch.setattr(harness, "is_abs_closed", lambda filt: True)
    result = check_abs_closure(build_truncation(4))
    assert result["status"] is CheckStatus.VIOLATED
    assert [p["instance"] for p in result["witness"]["problems"]] == ["pairing-3", "haar-3"]


def test_band_projection_lattice_statuses():
    confirmed = check_band_projection_lattice(build_truncation(12), seed=4, trials=30)
    assert confirmed["status"] is CheckStatus.CONFIRMED
    # lattice homomorphisms that are not band projections meet the premise
    copies = check_band_projection_lattice(build_copy(8), seed=4, trials=30)
    assert copies["status"] is CheckStatus.CONFIRMED
    unmet = check_band_projection_lattice(build_dyadic(3), seed=4, trials=5)
    assert unmet["status"] is CheckStatus.INCONCLUSIVE


def test_abs_alignment_statuses_and_indices():
    confirmed = check_abs_alignment(build_truncation(12))
    assert confirmed["status"] is CheckStatus.CONFIRMED
    assert confirmed["witness"]["index"] == 1

    filt = build_pairing(3)
    pairing = check_abs_alignment(filt)
    assert pairing["status"] is CheckStatus.INCONCLUSIVE  # closure premise fails
    assert pairing["witness"]["premises"]["abs_closed"] is False
    # positive vectors always align immediately
    assert all(abs_commutation_index(filt, basis(filt.space, i)) == 1 for i in range(1, 7))


@pytest.mark.xfail(reason=(
    "vacuous check (ROADMAP item 19): abs-alignment's CONFIRMED follows from its two "
    "premises, and it never reads a vector's abs_commutation_index"))
def test_abs_alignment_fails_when_no_vector_aligns(monkeypatch):
    monkeypatch.setattr(harness, "abs_commutation_index", lambda filt, x: None)
    results = run_check("abs-alignment", 0, 1)
    assert any(r["status"] is CheckStatus.VIOLATED for r in results)


def _copy_chain(dim: int, depth: int, rng: np.random.Generator) -> Filtration:
    """E_n x_i = x_{min of i's block} on a random chain of nested partitions,
    level n having n blocks (one block split per level)."""
    labels = np.zeros(dim, dtype=int)
    mats = []
    for level in range(1, depth + 1):
        if level > 1:
            block = rng.choice(np.flatnonzero(np.bincount(labels) >= 2))
            members = rng.permutation(np.flatnonzero(labels == block))
            labels = labels.copy()
            labels[members[: rng.integers(1, members.size)]] = level - 1
        mats.append(np.eye(dim)[[np.flatnonzero(labels == b).min() for b in labels]])
    space = LatticeSpace(dim, NormKind.SUP)
    return Filtration(space, tuple(PosOperator(space, m) for m in mats))


def _closure_instance(kind: str, size: int, seed: int) -> Filtration:
    """A filtration of horizon >= 2 (at N = 1 no sequence has a witness)."""
    rng = np.random.default_rng(seed)
    if kind == "random-filtration":
        return random_filtration(rng)[0]
    if kind == "copy-chain":
        return _copy_chain(size + int(rng.integers(0, 4)), size, rng)
    if kind == "random-nested":
        return build_random_nested(size + 1, size, seed, list(NormKind)[seed % 2])
    if kind == "dyadic":
        return build_dyadic(2 + size % 4)
    builders = {"truncation": build_truncation, "pairing": build_pairing, "copy": build_copy}
    return builders[kind](size)


def _signs_flipped(filt: Filtration, seed: int) -> Filtration:
    """D E_n D for a random diagonal D of signs: still a filtration, but an
    off-diagonal entry joining coordinates of opposite sign turns negative."""
    s = np.random.default_rng(seed).choice([-1.0, 1.0], size=filt.space.dim)
    return Filtration(
        filt.space, tuple(PosOperator(filt.space, s[:, None] * e.matrix * s) for e in filt.ops)
    )


CLOSURE_KINDS = [
    "truncation",
    "pairing",
    "dyadic",
    "random-nested",
    "copy",
    "random-filtration",
    "copy-chain",
]


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(CLOSURE_KINDS),
    size=st.integers(2, 10),
    signed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_closure_premise_matches_the_sampled_closure(kind, size, signed, seed):
    filt = _closure_instance(kind, size, seed)
    if signed:
        filt = _signs_flipped(filt, seed)
    assert is_abs_closed(filt) == (closure_fraction(filt, seed, 30) == 1.0)
    index = check_abs_alignment(filt)["witness"]["index"]
    rng = np.random.default_rng(seed)
    for _ in range(5):
        got = abs_commutation_index(filt, vector(filt.space, rng.uniform(-1, 1, filt.space.dim)))
        assert index is None or (got is not None and got <= index)


def test_abs_commutation_indices_on_pairing():
    filt = build_pairing(3)
    kept_pair = vector(filt.space, [-1, 1, 0, 0, 0, 0])
    straddling = vector(filt.space, [0, 0, -1, 1, 0, 0])
    positive = vector(filt.space, [1, 2, 3, 4, 5, 6])
    # oracle: scan | E_n x | vs E_n |x| with raw matrices
    def brute(x):
        last_bad = 0
        for n in range(1, filt.horizon + 1):
            m = filt.op(n).matrix
            if np.max(np.abs(np.abs(m @ x.coords) - m @ np.abs(x.coords))) > 1e-9:
                last_bad = n
        return last_bad + 1 if last_bad < filt.horizon else None

    for x in (kept_pair, straddling, positive):
        assert abs_commutation_index(filt, x) == brute(x)
    assert abs_commutation_index(filt, kept_pair) == 1
    assert abs_commutation_index(filt, straddling) == 2
    assert abs_commutation_index(filt, positive) == 1
    # a NaN gap is never an equality: the first coordinate is kept at every stage
    nan_head = vector(filt.space, [np.nan, 0, 0, 0, 0, 0])
    assert abs_commutation_index(filt, nan_head) is None
    trunc = build_truncation(3)
    assert abs_commutation_index(trunc, vector(trunc.space, [np.nan, 0, 0])) is None


def test_abs_commutation_index_dyadic_positive_vector():
    filt = build_dyadic(3)
    x = vector(filt.space, np.linspace(0.5, 2.0, 8))
    assert abs_commutation_index(filt, x) == 1


def test_asymptotic_generator_respects_analytic_bound():
    for fbuild in (lambda: build_truncation(20), lambda: build_dyadic(4)):
        filt = fbuild()
        for trial in range(10):
            seq, z = random_asymptotic_martingale(filt, trial_rng(9, trial))
            profile = defect_profile(seq, filt)
            n_terms = filt.horizon
            for n in range(1, n_terms + 1):
                assert profile[n - 1] <= 2.0 / n + 1.0 / n_terms + 1e-9


def test_eventual_generator_has_witness_at_cut():
    filt = build_truncation(14)
    from lattice_lab import eventual_witness

    for trial in range(10):
        seq, cut = random_eventual_martingale(filt, trial_rng(8, trial))
        w = eventual_witness(seq, filt)
        assert w is not None and w <= cut


def test_eventual_generator_draws_the_term_by_term_stream():
    # The head is one (cut - 1, d) block drawn after x: the same numbers as
    # one draw per head term, so seeded results do not move.
    from _oracles import eventual_rows
    from lattice_lab.harness import random_filtration

    for trial in range(30):
        filt, _ = random_filtration(trial_rng(4, trial))
        seq, cut = random_eventual_martingale(filt, trial_rng(9, trial))
        rows, want_cut = eventual_rows(filt, trial_rng(9, trial))
        assert cut == want_cut
        assert np.array_equal(seq.coords, rows)


def test_random_filtration_builds_each_deterministic_draw_once():
    # Same RNG draws, descriptors and stages as building afresh on every draw;
    # the public builders stay uncached.
    harness._drawn_filtration.cache_clear()
    builders = {"truncation": build_truncation, "pairing": build_pairing, "dyadic": build_dyadic}
    sizes = {"truncation": (4, 25), "pairing": (2, 11), "dyadic": (2, 6)}
    seen = {}
    for trial in range(200):
        rng, fresh = trial_rng(6, trial), trial_rng(6, trial)
        filt, descriptor = random_filtration(rng)
        kind = str(fresh.choice(["truncation", "pairing", "dyadic", "random-nested"]))
        if kind == "random-nested":
            continue
        size = int(fresh.integers(*sizes[kind]))
        assert descriptor == {"builder": kind, "size": size}
        assert rng.bit_generator.state == fresh.bit_generator.state
        want = builders[kind](size)
        assert want.space == filt.space and len(want.ops) == len(filt.ops)
        assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(filt.ops, want.ops))
        assert seen.setdefault((kind, size), filt) is filt
    assert harness._drawn_filtration.cache_info().currsize == len(seen) > 20
    assert build_truncation(4) is not build_truncation(4)


def test_random_sequence_refuses_an_unknown_generator():
    filt = build_truncation(4)
    rng = trial_rng(0, 0)
    known = "terminal, scaled-head, null, eventual, asymptotic, constant, abs-of-terminal"
    with pytest.raises(ValueError, match=f"unknown generator 'no-such-generator'; known: {known}$"):
        harness.random_sequence(filt, "no-such-generator", rng)
    assert rng.random() == trial_rng(0, 0).random()  # nothing was drawn
    # the last name is named now, not the fall-through: it still draws one vector
    x = harness._random_vector(filt.space, trial_rng(0, 1))
    got = harness.random_sequence(filt, "abs-of-terminal", trial_rng(0, 1))
    assert np.array_equal(got.coords, np.abs(terminal_sequence(filt, x).coords))


def test_run_check_unknown_id():
    with pytest.raises(ValueError):
        run_check("no-such-check")


@pytest.mark.parametrize("check_id", ["nesting", "abs-closure", "eventual-not-closed"])
@pytest.mark.parametrize("trials", [0, -1])
def test_run_check_refuses_fewer_than_one_trial(check_id, trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_check(check_id, 0, trials)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_all(0, trials)


@pytest.mark.parametrize(
    "check",
    [
        lambda trials: check_class_nesting(0, trials),
        lambda trials: check_band_projection_lattice(build_truncation(4), 0, trials),
        lambda trials: check_band_projection_lattice(build_dyadic(3), 0, trials),  # premise unmet
    ],
    ids=["nesting", "band-lattice", "band-lattice-unmet"],
)
@pytest.mark.parametrize("trials", [0, -1])
def test_sampled_checks_refuse_fewer_than_one_trial(check, trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        check(trials)


def test_only_the_trial_ids_read_trials():
    for check_id in CHECK_IDS:
        one, two = (run_check(check_id, 3, t) for t in (1, 2))
        assert (one != two) == harness.CLAIMS[check_id][0], check_id


def test_run_all_statuses_and_reproducibility():
    first = run_all(seed=11, trials=25)
    second = run_all(seed=11, trials=25)
    assert first == second
    assert {r["id"] for r in first} == set(CHECK_IDS)
    assert not any(r["status"] is CheckStatus.VIOLATED for r in first)
    # every result is the wire shape: its keys in order, and equal to its JSON round trip
    for r in first:
        assert list(r) == ["id", "descriptor", "status", "witness", "seed"]
        assert json.loads(json.dumps(r)) == r


def test_run_all_builds_the_perturbed_instance_once():
    # limit-defect and tail-approx both check the 32-stage perturbed instance.
    harness._perturbed_nested_instance.cache_clear()
    with mock.patch.object(
        harness, "build_random_nested", wraps=harness.build_random_nested
    ) as build:
        run_all(seed=7, trials=2)
    assert [call.args for call in build.call_args_list].count((32, 32, 7)) == 1



def test_run_all_descriptors_are_pinned():
    # Key order is part of the JSON bytes, so descriptors compare as item lists.
    def filt(horizon, dim, norm="sup"):
        return [("horizon", horizon), ("dim", dim), ("norm", norm)]

    shrinking = [("family", "martingale-plus-shrinking-null"), ("members", 8)]
    harmonic = [("family", "harmonic-tail"), ("size", 64)]
    trunc = filt(64, 64) + [("builder", "truncation")]
    nested = filt(32, 32, "l1") + [("builder", "random-nested")]
    expected = [
        ("nesting", "CONFIRMED", 0, [("trials", 5)]),
        ("closed-limits", "CONFIRMED", 0, shrinking + filt(32, 32)),
        ("closed-limits", "CONFIRMED", 0, shrinking + filt(5, 32, "l1")),
        ("closed-limits", "CONFIRMED", None, harmonic + filt(64, 64)),
        ("limit-defect", "CONFIRMED", None, trunc + [("instance", "harmonic-head")]),
        ("limit-defect", "CONFIRMED", None, nested + [("instance", "perturbed-martingale")]),
        ("limit-defect", "CONFIRMED", None, trunc + [("instance", "null")]),
        ("limit-defect", "INCONCLUSIVE", None, trunc + [("instance", "constant-last-basis")]),
        ("tail-approx", "CONFIRMED", None, trunc + [("instance", "harmonic-tail")]),
        ("tail-approx", "CONFIRMED", None, nested + [("instance", "perturbed-martingale")]),
        ("eventual-not-closed", "CONFIRMED", None, [("size", 64)] + trunc),
        ("abs-closure", "CONFIRMED", None, filt(16, 16)),
        ("band-lattice", "CONFIRMED", 0, filt(16, 16)),
        ("band-lattice", "INCONCLUSIVE", 0, filt(3, 8, "l1")),
        ("band-lattice", "CONFIRMED", 0, filt(8, 8) + [("builder", "copy"), ("size", 8)]),
        ("abs-alignment", "CONFIRMED", None, filt(16, 16)),
        ("abs-alignment", "INCONCLUSIVE", None, filt(3, 6)),
        ("abs-alignment", "INCONCLUSIVE", None, filt(3, 8, "l1")),
    ]
    got = [
        (r["id"], r["status"].value, r["seed"], list(r["descriptor"].items()))
        for r in run_all(seed=0, trials=5)
    ]
    assert got == expected


def _alternating(filt: Filtration) -> VectorSequence:
    """x_n = (-1)^n 100 e_1: on a truncation every d_n < N is 200, so the
    sequence is NOT_X and breaks the analytic bound 2/n + 1/N at n = 1."""
    rows = np.zeros((filt.horizon, filt.space.dim))
    rows[:, 0] = 100.0 * (-1.0) ** np.arange(filt.horizon)
    return VectorSequence(filt.space, rows)


def test_band_lattice_names_the_first_failing_trial(monkeypatch):
    filt = build_truncation(64)  # two sequences a trial: 4 trials per stack
    draws = []

    def draw(f, rng):
        draws.append(rng)
        if len(draws) - 1 in (37, 38, 45):
            return _alternating(f), None
        return random_asymptotic_martingale(f, rng)

    monkeypatch.setattr(harness, "random_asymptotic_martingale", draw)
    result = check_band_projection_lattice(filt, seed=2, trials=100)
    assert result["status"] is CheckStatus.VIOLATED
    assert result["witness"] == {"trial": 37, "problem": "analytic defect bound failed", "n": 1}
    per = martingales._CHUNK_FLOATS // (2 * 64 * 64)
    assert len(draws) == (37 // per + 1) * per  # no trial drawn past the failing stack


def test_a_family_check_names_the_first_failing_member():
    filt, base, family = harmonic_tail_example(64)  # 8 members per stack
    members = list(family)
    for k in (5, 7, 12):
        members[k - 1] = _alternating(filt)
    result = harness._limit_family_check(filt, members, base, {}, None)
    assert result["status"] is CheckStatus.VIOLATED
    assert result["witness"] == {"member": 5, "problem": "family member classified NOT_X"}


@pytest.mark.parametrize(
    "check_id, trials", [(check_id, 100) for check_id in CHECK_IDS] + [("band-lattice", 1000)]
)
def test_each_check_stays_within_a_fixed_memory_budget(check_id, trials):
    # the pair tables of a family or of many trials are built a bounded stack at a time
    run_check(check_id, 0, trials)  # the cached instance and lazy imports
    tracemalloc.start()
    try:
        run_check(check_id, 0, trials)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6, peak


def _spy(mp, calls: dict, name: str, inject=None) -> None:
    """Count the calls to ``harness.<name>``; ``inject(n, out, *args)``, given the
    1-based call number and the real output, may return something else."""
    real = getattr(harness, name)

    def spy(*args, **kwargs):
        calls[name] = n = calls.get(name, 0) + 1
        out = real(*args, **kwargs)
        return out if inject is None else inject(n, out, *args)

    mp.setattr(harness, name, spy)


def _nesting_broken_chain(mp, calls):
    # Trial 3 reports a martingale whose eventual witness is 2, not 1.
    report = ClassificationReport(
        True, 2, (0.0,), Verdict.X_MARTINGALE, 1.0, 1e-9, 0.05, 0.25
    )
    _spy(mp, calls, "random_filtration")
    _spy(mp, calls, "classify", lambda n, out, *args: report if n == 4 else out)
    return check_class_nesting(seed=5, trials=10)


def _limits_member_not_x(mp, calls):
    filt, base, family = harmonic_tail_example(64)  # 8 members per stack
    members = list(family)
    for k in (13, 15, 20):
        members[k - 1] = _alternating(filt)
    _spy(mp, calls, "_profiles")
    _spy(mp, calls, "_tail_rule")
    return harness._limit_family_check(filt, members, base, {"n": 64}, 3)


def _limits_triangle(mp, calls):
    # Member 11 claims distance 0 to the limit, so the triangle bound cannot hold.
    _spy(mp, calls, "_profiles")
    _spy(mp, calls, "seq_distance", lambda n, out, *args: 0.0 if n == 11 else out)
    return check_closed_under_limits_harmonic()


def _limits_limit_not_x(mp, calls):
    filt, _, family = harmonic_tail_example(16)
    _spy(mp, calls, "_profiles")
    _spy(mp, calls, "_tail_rule")
    limit = _alternating(filt)
    return harness._limit_family_check(filt, family, limit, {"n": 16}, None)


def _tail_late_witness(mp, calls):
    # Step 41 of E_n x fails its one-step law, so A^1's witness is 42, past m + 1 = 2.
    def bump(n, out, *args):
        out[40] += 1.0
        return out

    filt, base, _ = harmonic_tail_example(64)
    _spy(mp, calls, "_steps", bump)
    _spy(mp, calls, "_step_witness")
    return check_tail_modification(base, zero(filt.space), filt)


def _tail_last_distance(mp, calls):
    # Every A^m keeps its witness, but eps = 0.01 lies below the last distance 1/64.
    filt, base, _ = harmonic_tail_example(64)
    _spy(mp, calls, "_convergent_asymptotic_premises", lambda n, out, *args: (0.01, *out[1:]))
    _spy(mp, calls, "_steps")
    _spy(mp, calls, "_step_witness")
    return check_tail_modification(base, zero(filt.space), filt)


def _band_witness_order(mp, calls):
    # |A| of trial 70 (the second stack of 64) loses its eventual witness.
    _spy(mp, calls, "random_eventual_martingale")
    _spy(mp, calls, "_steps")
    _spy(mp, calls, "_pair_table")
    _spy(mp, calls, "_step_witness", lambda n, out, *args: None if n == 2 * 70 + 2 else out)
    return check_band_projection_lattice(build_truncation(16), seed=3, trials=200)


def _band_analytic_bound(mp, calls):
    def draw(n, out, f, rng):
        return (_alternating(f), None) if n - 1 in (37, 38, 45) else out

    _spy(mp, calls, "random_asymptotic_martingale", draw)
    _spy(mp, calls, "_steps")
    _spy(mp, calls, "_pair_table")
    return check_band_projection_lattice(build_truncation(64), seed=2, trials=100)


def _band_abs_pair(mp, calls):
    def bump(n, out, *args):
        if n == 4:  # the second stack's |B| pair table: trial 64 + 6, pair (3, 6)
            out[6, 2, 3] += 1.0
        return out

    _spy(mp, calls, "random_eventual_martingale")
    _spy(mp, calls, "_steps")
    _spy(mp, calls, "_pair_table", bump)
    return check_band_projection_lattice(build_truncation(16), seed=3, trials=200)


def _not_closed_distance(mp, calls):
    # A^5 claims distance 0 to the limit: one problem, and every member is still checked.
    _spy(mp, calls, "_steps")
    _spy(mp, calls, "seq_distance", lambda n, out, *args: 0.0 if n == 5 else out)
    return check_eventual_not_closed()


#: Each VIOLATED exit of the scanning checks, reached by one injected failure.
VIOLATIONS = {
    "nesting": _nesting_broken_chain,
    "closed-limits-member-not-x": _limits_member_not_x,
    "closed-limits-triangle": _limits_triangle,
    "closed-limits-limit-not-x": _limits_limit_not_x,
    "tail-approx-late-witness": _tail_late_witness,
    "tail-approx-last-distance": _tail_last_distance,
    "band-lattice-witness-order": _band_witness_order,
    "band-lattice-analytic-bound": _band_analytic_bound,
    "band-lattice-abs-pair": _band_abs_pair,
    "eventual-not-closed-distance": _not_closed_distance,
}

PINNED_VIOLATIONS = Path(__file__).parent / "data" / "violated_witnesses.json"


@pytest.mark.parametrize("case", sorted(VIOLATIONS))
def test_each_violated_exit_keeps_its_bytes_and_stops_at_the_first_problem(monkeypatch, case):
    # The bytes pin the witness's key order; the call counts pin where the scan stops.
    calls: dict = {}
    result = VIOLATIONS[case](monkeypatch, calls)
    pinned = json.loads(PINNED_VIOLATIONS.read_text(encoding="utf-8"))[case]
    assert result["status"] is CheckStatus.VIOLATED
    assert json.dumps(result) == json.dumps(pinned["result"])
    assert calls == pinned["calls"]
