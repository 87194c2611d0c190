"""Block stages against the dense matrices the builders used to make, and
the memory they save."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import block_matrix, dense_stages
from lattice_lab import (
    BlockOperator,
    Filtration,
    LatticeSpace,
    NormKind,
    PosOperator,
    VectorSequence,
    apply_rows,
    build_copy,
    build_dyadic,
    build_pairing,
    build_random_nested,
    build_truncation,
    classify,
    is_lattice_homomorphism,
    operator_norm,
    terminal_sequence,
    validate,
    vector,
)
from lattice_lab.harness import random_filtration
from lattice_lab.jsonio import Instance, instance_text
from lattice_lab.martingales import _pair_table
from lattice_lab.spaces import row_norms

REL = 1e-15
PRODUCT_BLOCKS = 64  # apply_rows takes block sums by product below this many label slots


def _chain(kind: str, size: int, seed: int) -> tuple[Filtration, list[np.ndarray]]:
    """A builder's filtration and the same stages as dense reference matrices."""
    if kind == "random-filtration":
        filt, descriptor = random_filtration(np.random.default_rng(seed))
        params = dict(descriptor)
        return filt, dense_stages(params.pop("builder"), **params)
    if kind.endswith("random-nested"):
        # the wide kind is deeper than PRODUCT_BLOCKS: level n has n blocks, so
        # its block sums come by product before level 64 and by bincount from it
        depth = size if kind == "random-nested" else PRODUCT_BLOCKS + size
        dim = depth + 1 if kind == "random-nested" else depth + size
        norm_kind = list(NormKind)[seed % 2].value
        params = {"dim": dim, "depth": depth, "sub_seed": seed, "norm": norm_kind}
        filt = build_random_nested(dim, depth, seed, norm_kind)
        return filt, dense_stages("random-nested", **params)
    if kind == "random-blocks":
        return _random_blocks(size, seed)
    if kind == "wide-pairing":
        # stage k keeps 2k coordinates and has p + k blocks, p + 1 to 2p - 1;
        # with p pairs in 41..52 the first stages sum by product, the last by bincount
        kind, size = "pairing", 40 + size
    if kind == "dyadic":
        size = 1 + size % 5  # d = 2**levels
    build = {"truncation": build_truncation, "pairing": build_pairing,
             "dyadic": build_dyadic, "copy": build_copy}[kind]
    return build(size), dense_stages(kind, size=size)


def _random_blocks(size: int, seed: int) -> tuple[Filtration, list[np.ndarray]]:
    """``size`` stages of random labels, mask and coefs (zeros and negatives
    included), no filtration law implied: the stages builders never make,
    where a row is dropped from a block that keeps others."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 13))
    weights = rng.uniform(0.25, 1.75, d) if rng.random() < 0.5 else None
    space = LatticeSpace(d, NormKind.SUP if weights is None else NormKind.WEIGHTED_L1, weights)
    ops, mats = [], []
    for _ in range(size):
        labels = rng.integers(0, int(rng.integers(1, d + 3)), d) * int(rng.integers(1, 3))
        mask = rng.random(d) < 0.7
        coef = np.where(rng.random(d) < 0.3, 0.0, rng.uniform(-1.0, 1.0, d))
        ops.append(BlockOperator(space, labels, mask, coef))
        mats.append(block_matrix(labels, mask, coef))
    return Filtration(space, tuple(ops)), mats


def _within(got: np.ndarray, want: np.ndarray, scale: np.ndarray) -> bool:
    """|got - want| <= REL * scale, where scale is the same sum taken over
    absolute values: relative to the size of what was added."""
    return bool(np.all(np.abs(got - want) <= REL * scale))


def _check_against_dense(filt: Filtration, mats: list[np.ndarray], seed: int, norm_rel: float):
    """Every stage's matrix bit for bit; apply_rows and the pair table within
    REL of the sums they add; the norm within ``norm_rel``; the homomorphism
    predicate exactly."""
    space = filt.space
    assert len(filt.ops) == len(mats)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, size=(filt.horizon, space.dim))
    for e, m in zip(filt.ops, mats):
        assert isinstance(e, BlockOperator)
        assert np.array_equal(e.matrix, m)
        dense = PosOperator(space, m)
        for rows in (xs, xs[0]):  # a stack of rows and one vector
            assert _within(apply_rows(e, rows), rows @ m.T, np.abs(rows) @ np.abs(m).T)
        want = operator_norm(dense)
        assert abs(operator_norm(e) - want) <= norm_rel * want
        assert is_lattice_homomorphism(e) == is_lattice_homomorphism(dense)

    seq = VectorSequence(space, xs)
    dense_filt = Filtration(space, tuple(PosOperator(space, m) for m in mats))
    scale = np.zeros((filt.horizon, filt.horizon))
    for n, m in enumerate(mats):
        sums = np.abs(xs[n:]) @ np.abs(m).T + np.abs(xs[n])
        scale[n, : len(sums)] = row_norms(space, sums)
    assert _within(_pair_table(seq, filt), _pair_table(seq, dense_filt), scale)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(
        ["truncation", "pairing", "dyadic", "copy", "random-nested", "random-filtration",
         "random-blocks"]
    ),
    size=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_stages_match_the_dense_builders(kind, size, seed):
    _check_against_dense(*_chain(kind, size, seed), seed, REL)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["wide-random-nested", "wide-pairing"]),
    size=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_wide_block_stages_match_the_dense_builders(kind, size, seed):
    # Every chain has d > 64 and block-sum stages on both sides of the
    # PRODUCT_BLOCKS line, so both kernels of apply_rows run.  operator_norm
    # adds a block's row sum by bincount in index order where numpy adds a
    # dense row pairwise; over d terms the two orders part by at most d units
    # of roundoff, so the norm is held to that.
    filt, mats = _chain(kind, size, seed)
    slots = [e._slots for e in filt.ops if e._scale is None]  # the block-sum stages
    assert filt.space.dim > 64
    assert min(slots) < PRODUCT_BLOCKS <= max(slots)
    _check_against_dense(filt, mats, seed, filt.space.dim * np.finfo(float).eps / 2)


def test_block_matrix_is_built_on_each_access():
    e = build_random_nested(16, 16, 3).op(8)
    assert e.matrix is not e.matrix
    assert np.array_equal(e.matrix, e.matrix)
    assert not e.matrix.flags.writeable


def test_builders_at_256_classify_in_a_few_megabytes():
    # The dense stack alone was 256 * 256 * 256 floats, 134 MB.
    tracemalloc.start()
    try:
        filt = build_random_nested(256, 256, 11)
        x = vector(filt.space, np.random.default_rng(11).uniform(-1.0, 1.0, 256))
        report = classify(terminal_sequence(filt, x), filt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.is_martingale
    assert peak < 16 * 2**20, peak


def test_validate_and_the_writer_hold_one_pair_of_stage_matrices():
    # The dense stack would be 96 * 96 * 96 floats, 7 MB; a stage is 74 KB.
    filt = build_random_nested(96, 96, 5)
    tracemalloc.start()
    try:
        report = validate(filt, require_contractive=True)
        for _ in instance_text(Instance(filt.space, filt)):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 2 * 2**20, peak


def test_block_operator_normalizes_its_arrays():
    space = LatticeSpace(4)
    e = BlockOperator(space, np.array([7, 7, -3, 9]), [True, True, True, False], 0.5)
    assert e.labels.tolist() == [1, 1, 0, 2]  # renumbered: labels left 0..3
    assert e.coef.tolist() == [0.5, 0.5, 0.5, 0.0]  # block {4} keeps no row
    assert np.array_equal(
        e.matrix, [[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 0.5, 0], [0, 0, 0, 0]]
    )
    for arr in (e.labels, e.mask, e.coef):
        assert not arr.flags.writeable
    assert repr(e) == "BlockOperator(dim=4)"


@pytest.mark.parametrize(
    "labels, mask, coef",
    [
        ([0, 1, 2], True, 1.0),  # too few labels
        ([0.0, 1.0, 2.0, 3.0], True, 1.0),  # not integers
        ([0, 1, 2, 3], [True, False], 1.0),  # mask of the wrong length
        ([0, 1, 2, 3], True, [1.0, 1.0, 1.0]),  # coef of the wrong length
    ],
)
def test_block_operator_rejects_bad_shapes(labels, mask, coef):
    with pytest.raises(ValueError):
        BlockOperator(LatticeSpace(4), np.array(labels), mask, coef)


@pytest.mark.parametrize(
    "labels, coef",
    [
        ([0, 1, 2, 3], [1.0, -2.0, 0.5, 0.0]),  # diagonal
        ([0, 0, 1, 1], [0.0, 3.0, 0.0, 1.0]),  # one nonzero per block: a gather
        ([0, 0, 1, 1], [0.25, 0.75, 0.5, 0.5]),  # block sums
    ],
)
def test_each_kernel_applies_the_matrix(labels, coef):
    space = LatticeSpace(4)
    e = BlockOperator(space, np.array(labels), [True, False, True, True], coef)
    rows = np.arange(12.0).reshape(3, 4) - 5.0
    assert np.array_equal(apply_rows(e, rows), rows @ e.matrix.T)
    assert np.array_equal(apply_rows(e, rows[1]), e.matrix @ rows[1])


def _band_scale(space: LatticeSpace, mats: list[np.ndarray], xs: np.ndarray, band: int):
    """The pair table taken over absolute values: the size of what was added."""
    scale = np.zeros((len(xs), band))
    for n, m in enumerate(mats):
        sums = np.abs(xs[n : n + band]) @ np.abs(m).T + np.abs(xs[n])
        scale[n, : len(sums)] = row_norms(space, sums)
    return scale


def _stacked_case(kind, size, members, full, dense, seed):
    """A chain (block stages or their dense matrices), a (members, N, d)
    stack of random terms and the band: 2 or the whole horizon."""
    filt, mats = _chain(kind, size, seed)
    if dense:
        filt = Filtration(filt.space, tuple(PosOperator(filt.space, m) for m in mats))
    rng = np.random.default_rng(seed)
    stack = rng.uniform(-1.0, 1.0, size=(members, filt.horizon, filt.space.dim))
    return filt, mats, stack, filt.horizon if full else 2


STACKED = dict(
    kind=st.sampled_from(
        ["truncation", "pairing", "dyadic", "copy", "random-nested", "random-blocks",
         "wide-random-nested", "wide-pairing"]
    ),
    size=st.integers(1, 8),
    members=st.integers(1, 4),
    full=st.booleans(),
    dense=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=150, deadline=None)
@given(**STACKED)
def test_a_stacked_pair_table_matches_each_members_own(kind, size, members, full, dense, seed):
    filt, mats, stack, band = _stacked_case(kind, size, members, full, dense, seed)
    got = _pair_table(stack, filt, band)
    assert got.shape == (members, filt.horizon, band)
    for k, xs in enumerate(stack):
        own = _pair_table(VectorSequence(filt.space, xs), filt, band)
        assert _within(got[k], own, _band_scale(filt.space, mats, xs, band))


@settings(max_examples=150, deadline=None)
@given(**STACKED, bad=st.sampled_from([np.nan, np.inf, -np.inf]), where=st.integers(0, 2**16))
def test_a_non_finite_term_spoils_only_its_own_pairs(
    kind, size, members, full, dense, seed, bad, where
):
    filt, _, stack, band = _stacked_case(kind, size, members, full, dense, seed)
    clean = _pair_table(stack, filt, band)
    n_terms, d = filt.horizon, filt.space.dim
    k, m, c = where % members, where // members % n_terms, where % d
    stack[k, m, c] = bad
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf, as in a dense product
        got = _pair_table(stack, filt, band)
    # the pairs holding x_m: (n, m) for n in m - band + 1..m, and (m, m + j)
    n, j = np.indices((n_terms, band))
    holds = ((n + j == m) | (n == m)) & (n + j < n_terms)
    assert np.array_equal(~np.isfinite(got[k]), holds)
    assert np.isnan(got[k][n + j == m]).all()
    others = np.arange(members) != k
    assert np.array_equal(got[others], clean[others])
    assert np.array_equal(got[k][~holds], clean[k][~holds])


@pytest.mark.parametrize("kind", ["random-nested", "random-blocks", "wide-pairing"])
@pytest.mark.parametrize("band", [2, None])
@pytest.mark.parametrize("dense", [False, True])
def test_one_sequences_pair_table_is_its_rows_norms_bit_for_bit(kind, band, dense):
    filt, _, stack, _ = _stacked_case(kind, 6, 1, True, dense, 17)
    xs = stack[0]
    table = _pair_table(VectorSequence(filt.space, xs), filt, band)
    for n, e in enumerate(filt.ops):
        block = xs[n : n + (band or filt.horizon)]
        want = row_norms(filt.space, apply_rows(e, block) - xs[n])
        assert np.array_equal(table[n, : len(block)], want)
