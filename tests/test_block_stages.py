"""Block stages against the dense matrices the builders used to make, and
the memory they save."""

import tracemalloc
from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import block_matrix, dense_stages, kernel
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
# the block-sum kernels each wide chain runs: level n of the wide random-nested
# chain has n blocks over n + size coordinates, so at most size of them sum;
# pairing stage k averages the p - k pairs after its first 2k coordinates, so
# from 64 label slots on it takes bincount while 64 or more pairs are left, as
# only the wider chain's first stages (p = 64 + size) have
WIDE_KERNELS = {
    "wide-random-nested": {"product", "multi-block"},
    "wide-pairing": {"product", "multi-block"},
    "wider-pairing": {"bincount", "multi-block"},
}


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
        # with p pairs in 41..52 the first stages sum by product, the last by
        # the multi-block path
        kind, size = "pairing", 40 + size
    if kind == "wider-pairing":
        kind, size = "pairing", 64 + size
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
    kind=st.sampled_from(sorted(WIDE_KERNELS)),
    size=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_wide_block_stages_match_the_dense_builders(kind, size, seed):
    # Every chain has d > 64 and runs the block-sum kernels WIDE_KERNELS names.
    # operator_norm adds a block's row sum by bincount in index order where
    # numpy adds a dense row pairwise; over d terms the two orders part by at
    # most d units of roundoff, so the norm is held to that.
    filt, mats = _chain(kind, size, seed)
    kernels = {kernel(e) for e in filt.ops} - {"diagonal", "gather"}
    assert filt.space.dim > 64
    assert kernels == WIDE_KERNELS[kind]
    _check_against_dense(filt, mats, seed, filt.space.dim * np.finfo(float).eps / 2)


def test_the_smoke_demos_run_every_block_sum_kernel():
    # the kernel of each stage, in runs, of the demos the CLI smoke runs above
    # d = 64: haar at d = 256 sums 2 to 32 blocks by product and 64 and 128 by
    # bincount; pairing at d = 80 takes the product below 64 label slots and the
    # multi-block path above; pairing at d = 200 keeps 64 or more pairs to
    # average, so bincount, for its first 36 stages
    runs = {
        f.space.dim: [(k, len(list(run))) for k, run in groupby(kernel(e) for e in f.ops)]
        for f in (build_dyadic(8), build_pairing(40), build_pairing(100))
    }
    assert runs == {
        256: [("product", 5), ("bincount", 2), ("diagonal", 1)],
        80: [("product", 23), ("multi-block", 16), ("diagonal", 1)],
        200: [("bincount", 36), ("multi-block", 63), ("diagonal", 1)],
    }


def _multi_block_stage(
    pairs: int, scaled: int, units: int, zeros: int, seed: int
) -> BlockOperator:
    """A stage of at least 64 label slots in shuffled coordinates: ``pairs``
    blocks of two nonzero coefs (a third member may have coef 0) with a kept
    first row, ``scaled`` and ``units`` blocks of two to four coordinates
    with one nonzero coef, not 1 resp. 1, ``zeros`` blocks of zero coefs,
    and singletons of coef 1; any other row may be dropped.  The pairs and
    the scaled blocks are the blocks to sum."""
    rng = np.random.default_rng(seed)
    blocks = [(coef, True) for coef in (
        [*rng.uniform(0.1, 1.0, 2), *[0.0] * int(rng.integers(0, 2))] for _ in range(pairs))]
    blocks += [([one, *[0.0] * int(rng.integers(1, 4))], False)
               for one in [*rng.uniform(-1.0, 0.9, scaled), *[1.0] * units]]
    blocks += [([0.0] * int(rng.integers(1, 4)), False) for _ in range(zeros)]
    blocks += [([1.0], False) for _ in range(max(0, 64 - len(blocks)) + int(rng.integers(0, 4)))]
    labels = np.concatenate([[b] * len(c) for b, (c, _) in enumerate(blocks)])
    coef = np.concatenate([c for c, _ in blocks])
    first = np.concatenate([[keep] + [False] * (len(c) - 1) for c, keep in blocks])
    mask = first | (rng.random(len(labels)) < 0.8)
    order = rng.permutation(len(labels))
    space = LatticeSpace(len(labels), NormKind.SUP)
    return BlockOperator(space, rng.permutation(len(blocks))[labels[order]], mask[order],
                         coef[order])


def _sums_by_path(e: BlockOperator, shape: tuple[int, ...], seed: int) -> None:
    """apply_rows on random rows of ``shape`` within REL of the dense product."""
    rows = np.random.default_rng(seed).uniform(-1.0, 1.0, (*shape, e.space.dim))
    m = e.matrix
    got = apply_rows(e, rows)
    assert got.shape == rows.shape
    assert _within(got, rows @ m.T, np.abs(rows) @ np.abs(m).T)


@settings(max_examples=100, deadline=None)
@given(
    pairs=st.one_of(st.sampled_from([63, 64]), st.integers(0, 64)),
    scaled=st.integers(0, 3),
    units=st.integers(0, 3),
    zeros=st.integers(0, 3),
    shape=st.sampled_from([(), (3,), (8,), (2, 5)]),
    seed=st.integers(0, 2**32 - 1),
)
@example(pairs=63, scaled=0, units=2, zeros=1, shape=(2, 4), seed=0)
@example(pairs=64, scaled=0, units=2, zeros=1, shape=(2, 4), seed=0)
@example(pairs=62, scaled=1, units=1, zeros=1, shape=(), seed=1)
@example(pairs=63, scaled=1, units=1, zeros=1, shape=(8,), seed=1)
def test_multi_block_sums_match_the_dense_product(pairs, scaled, units, zeros, shape, seed):
    # with a pair, fewer than 64 blocks to sum take the multi-block path on 8
    # rows or more (fewer take bincount) and 64 or more take bincount; with no
    # pair, no row holds two nonzero coefs: a gather
    e = _multi_block_stage(pairs, scaled, units, zeros, seed)
    assert e._slots >= PRODUCT_BLOCKS
    if pairs:
        assert kernel(e) == ("multi-block" if pairs + scaled < 64 else "bincount")
    _sums_by_path(e, shape, seed)


@pytest.mark.parametrize("pairs, scaled", [(63, 0), (64, 0), (62, 1), (63, 1)])
def test_the_multi_block_path_ends_at_64_blocks_to_sum(pairs, scaled):
    # pairs of coef 0.5, scaled singletons of coef 2 and singletons of coef 1:
    # a singleton sums unless its coef is 1
    d = 2 * pairs + 70
    labels = np.concatenate([np.arange(2 * pairs) // 2, np.arange(pairs, d - pairs)])
    coef = np.where(labels < pairs, 0.5, 1.0)
    coef[2 * pairs : 2 * pairs + scaled] = 2.0
    e = BlockOperator(LatticeSpace(d), labels, True, coef)
    assert kernel(e) == ("multi-block" if pairs + scaled < 64 else "bincount")
    _sums_by_path(e, (2, 4), pairs)


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


def test_block_sum_indexes_are_built_on_first_use_and_stay_small():
    # a stage builds its multi-block index on its first apply to 8 rows or more;
    # its source and column indexes, in the narrowest integer types, hold fewer
    # bytes than one d-long intp index
    filt = build_random_nested(256, 256, 11)
    assert not any("_sums" in vars(e) for e in filt.ops)
    x = vector(filt.space, np.random.default_rng(11).uniform(-1.0, 1.0, 256))
    classify(terminal_sequence(filt, x), filt)
    multi = [e for e in filt.ops if "_sums" in vars(e) and kernel(e) == "multi-block"]
    assert len(multi) > 128
    for e in multi:
        src, cols, _ = e._sums
        assert src.nbytes + cols.nbytes < 256 * np.dtype(np.intp).itemsize


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
         "wide-random-nested", "wide-pairing", "wider-pairing"]
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
# terms met by multi-block stages in stacks of 8 rows or more (0-based): term 64
# of a wide random-nested chain of 67 levels (stage 63, on 2 x 4 rows), term 40
# of 66 pairs (stages 2 to 40, on 26 rows or more)
@example(kind="wide-random-nested", size=3, members=2, full=True, dense=False, seed=1,
         bad=np.inf, where=2 * 66 * 3 + 1)
@example(kind="wider-pairing", size=2, members=1, full=True, dense=False, seed=2,
         bad=np.nan, where=40)
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
