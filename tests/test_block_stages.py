"""Block stages against the dense matrices the builders used to make, and
the memory they save."""

import tracemalloc
from unittest import mock

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
    harmonic_tail_example,
    is_lattice_homomorphism,
    operator_norm,
    terminal_sequence,
    validate,
    vector,
)
from lattice_lab import martingales
from lattice_lab.harness import random_filtration
from lattice_lab.jsonio import Instance, instance_text
from lattice_lab.martingales import _pair_table
from lattice_lab.spaces import row_norms

REL = 1e-15
PRODUCT_BLOCKS = 64  # apply_rows takes block sums by product below this many label slots
# the block-sum kernels apply_rows runs on each wide chain: level n of the wide
# random-nested chain has n label slots, so its levels from 64 on take bincount;
# pairing stage k has p + k label slots, so the wide chain (p = 40 + size pairs)
# takes the product on its first stages and the wider one (p = 64 + size) never
WIDE_KERNELS = {
    "wide-random-nested": {"product", "bincount"},
    "wide-pairing": {"product", "bincount"},
    "wider-pairing": {"bincount"},
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
        # bincount
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


def test_the_smoke_demo_chains_have_plans_of_at_most_2d_columns():
    # the demos the CLI smoke runs above d = 64 read every stage off one plan:
    # haar at d = 256 holds 2d - 2 distinct blocks, pairing 3p - 1, and the
    # truncation chain of ``demo null`` its d coordinates, with no product
    for f, k, p in ((build_dyadic(8), 510, 254), (build_pairing(40), 119, 39),
                    (build_pairing(100), 299, 99), (build_truncation(256), 256, 0)):
        assert _columns(f) == (k, p)
        assert k <= 2 * f.space.dim
        assert f.plan[0].shape == (f.horizon, f.space.dim)


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
# terms met by wide planned stages (0-based): term 64 of a wide random-nested
# chain of 67 levels (stage 63, on 2 x 4 rows), term 40 of 66 pairs (stages 2
# to 40, on 26 rows or more)
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


# ---------------------------------------------------------------------------
# Block-column plans: every stage of a refining chain read off one source
# ---------------------------------------------------------------------------

def _refining_chain(size: int, seed: int, variant: str = ""):
    """``size`` block stages on d <= 12 coordinates, each refining the one
    before: blocks split at random, rows are dropped and coefs may be 0 or
    negative.  A block that keeps its members keeps its stored coefs, except
    that one such block with a kept row gets a new coef 2.0 (stored coefs lie
    in [-1, 1]): if ``variant`` holds "changed", one that was live at the stage
    before, if it holds "revived", one that was dead there.  With "suffix"
    every stage keeps a random prefix of its rows, possibly none, and with
    "gathers" a new block keeps only its first member's coef, so no block sums
    two.  Returns the chain and its dense matrices."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 13))
    weights = rng.uniform(0.25, 1.75, d) if rng.random() < 0.5 else None
    space = LatticeSpace(d, NormKind.SUP if weights is None else NormKind.WEIGHTED_L1, weights)
    labels = rng.integers(0, int(rng.integers(1, d + 1)), d)
    edit = "changed" if "changed" in variant else "revived" if "revived" in variant else None
    ops, mats, edited = [], [], False
    for _ in range(size):
        coef = np.where(rng.random(d) < 0.25, 0.0, rng.uniform(-1.0, 1.0, d))
        if "suffix" in variant:
            mask = np.arange(d) < rng.integers(0, d + 1)
        else:
            mask = rng.random(d) < 0.75
        if ops:
            prev = ops[-1]
            split = rng.integers(0, 3, d) * (rng.random(d) < 0.3)
            labels = np.unique(prev.labels * 3 + split, return_inverse=True)[1].reshape(d)
        if "gathers" in variant:  # a new block's coef sits on its first member
            first = np.zeros(d, dtype=bool)
            first[np.unique(labels, return_index=True)[1]] = True
            coef = np.where(first, coef, 0.0)
        if ops:
            kept = np.bincount(labels)[labels] == np.bincount(prev.labels)[prev.labels]
            coef = np.where(kept, prev.coef, coef)
            alive = kept & (np.bincount(labels, mask)[labels] > 0)
            was = np.bincount(prev.labels, prev.coef != 0.0)[prev.labels] > 0
            pick = alive & (was if edit == "changed" else ~was)
            if edit is not None and not edited and pick.any():
                at = rng.choice(np.flatnonzero(pick))
                if "gathers" in variant:  # the block's one nonzero coef moves to ``at``
                    coef[labels == labels[at]] = 0.0
                coef[at] = 2.0
                edited = True
        ops.append(BlockOperator(space, labels, mask, coef))
        mats.append(block_matrix(labels, mask, coef))
    return Filtration(space, tuple(ops)), mats


def _plan_oracle(filt: Filtration) -> dict:
    """A plan's counts by brute force over each stage's blocks.  A column is a
    maximal run of stages in which one (members, coefs) block is live (holds a
    nonzero coef); ``unit`` counts the columns whose one nonzero coef is 1,
    ``product`` the others.  ``ends[n]`` is one past stage n's last kept row
    in a live block, and ``changed`` whether a block live at two stages in a
    row changed its coefs there."""
    prev, unit, product, ends, changed = {}, 0, 0, [], False
    for e in filt.ops:
        live = {}
        for label in np.unique(e.labels):
            members = tuple(np.flatnonzero(e.labels == label).tolist())
            coefs = tuple(e.coef[list(members)].tolist())
            if not any(coefs):
                continue
            live[members] = coefs
            if members in prev:
                changed |= prev[members] != coefs
            elif [c for c in coefs if c] == [1.0]:
                unit += 1
            else:
                product += 1
        read = [i for i in range(filt.space.dim)
                if e.mask[i] and tuple(np.flatnonzero(e.labels == e.labels[i])) in live]
        ends.append(read[-1] + 1 if read else 0)
        prev = live
    return {"unit": unit, "product": product, "ends": ends, "changed": changed}


def _plan_case(kind: str, size: int, seed: int):
    """A chain, its dense matrices and whether it must get no plan: a builder,
    a random_filtration draw, random stages (None: they may refine by chance),
    or a random refining chain."""
    if kind.startswith("refining"):
        filt, mats = _refining_chain(size, seed, kind.partition("-")[2])
    else:
        filt, mats = _chain(kind, size, seed)
    if kind == "random-blocks":
        return filt, mats, None
    oracle = _plan_oracle(filt)
    too_many = oracle["unit"] + oracle["product"] >= 2 * filt.space.dim
    return filt, mats, oracle["changed"] or too_many


def _source(plan, d: int) -> np.ndarray:
    """The d x width matrix whose column r a row reading source row r applies:
    e_r for r < d, zero at d, then B's columns."""
    cols, (p, j, coef), width, ends = plan
    m = np.zeros((d, width))
    m[np.arange(d), np.arange(d)] = 1.0
    m[j, d + 1 + p] = coef
    return m


PLAN_KINDS = ["truncation", "pairing", "dyadic", "copy", "random-nested", "random-filtration",
              "random-blocks", "refining", "refining-changed", "refining-revived",
              "refining-suffix", "refining-gathers-suffix", "refining-gathers-revived",
              "refining-gathers-changed"]


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(PLAN_KINDS),
    size=st.integers(1, 8),
    members=st.sampled_from([0, 1, 3]),  # 0: one sequence, else a stack of that many
    band=st.sampled_from([1, 2, None]),
    bad=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    where=st.integers(0, 2**16),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_planned_pair_table_matches_the_table_of_its_stages(
    kind, size, members, band, bad, where, seed
):
    # every chain with a plan reads it here, so gather chains take the planned
    # path too.  On a sup space a chain of gathers (no block sums two coefs)
    # gives the per-stage table bit for bit: the rows past each stage's end
    # add one exact maximum.  Block sums add in another order than apply_rows.
    filt, mats, unplannable = _plan_case(kind, size, seed)
    if unplannable is not None:
        assert (filt.plan is None) == unplannable
    staged = Filtration(filt.space, filt.ops)
    vars(staged)["plan"] = None  # every stage by apply_rows
    stack = np.random.default_rng(seed).uniform(
        -1.0, 1.0, (max(members, 1), filt.horizon, filt.space.dim))
    if bad is not None:
        stack.flat[where % stack.size] = bad
    xs = stack if members else stack[0]
    band = filt.horizon if band is None else band
    with mock.patch.object(martingales, "_PLAN_ROWS", 0), np.errstate(invalid="ignore",
                                                                      over="ignore"):
        got, want = _pair_table(xs, filt, band), _pair_table(xs, staged, band)
        scale = np.stack([_band_scale(filt.space, mats, m, band) for m in stack])
    if filt.space.norm_kind is NormKind.SUP and all(e._scale is not None for e in filt.ops):
        assert np.array_equal(got, want, equal_nan=True)
        return
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(got)
    assert _within(got[finite], want[finite], scale.reshape(got.shape)[finite])


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from([k for k in PLAN_KINDS if k != "random-blocks"]),
    size=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_plan_holds_each_distinct_live_block_once(kind, size, seed):
    # the plan against the brute-force oracle: its product rows are the
    # columns that are not one coordinate with coef 1, every stage ends where
    # its kept rows in live blocks end, and row i of stage n reads its block's
    # coefs, or zeros where the stage drops the row or the block is dead
    filt, _, unplannable = _plan_case(kind, size, seed)
    if unplannable:
        return
    d, oracle = filt.space.dim, _plan_oracle(filt)
    cols, _, width, ends = filt.plan
    assert width - d - 1 == oracle["product"]
    assert ends.tolist() == oracle["ends"]
    source = _source(filt.plan, d)
    for n, e in enumerate(filt.ops):
        for i in range(d):
            block = e.labels == e.labels[i]
            read = e.mask[i] and e.coef[block].any()
            assert np.array_equal(source[:, cols[n, i]], np.where(block & read, e.coef, 0.0))


def test_a_stage_that_keeps_no_row_ends_at_zero():
    space = LatticeSpace(4)
    stages = [BlockOperator(space, np.array([0, 0, 1, 1]), False, 0.5),
              BlockOperator(space, np.array([0, 1, 2, 2]), [True, False, False, False], 0.5),
              BlockOperator(space, np.array([0, 1, 2, 3]), [True, True, True, False],
                            [0.5, 1.0, 1.0, 1.0])]
    filt = Filtration(space, tuple(stages))
    assert filt.plan[3].tolist() == [0, 1, 3] == _plan_oracle(filt)["ends"]
    xs = np.random.default_rng(0).uniform(-1.0, 1.0, (3, 4))
    staged = Filtration(space, filt.ops)
    vars(staged)["plan"] = None
    with mock.patch.object(martingales, "_PLAN_ROWS", 0):
        assert np.array_equal(_pair_table(xs, filt), _pair_table(xs, staged))


def _unplannable(name: str) -> Filtration:
    """A chain that gets no plan: two block stages of which neither refines
    the other ({1, 2} meets both pairs), or a dense stage."""
    space = LatticeSpace(4)
    pairs = BlockOperator(space, np.array([0, 0, 1, 1]), True, 0.5)
    middle = BlockOperator(space, np.array([0, 1, 1, 2]), True, [1.0, 0.5, 0.5, 1.0])
    dense = PosOperator(space, pairs.matrix)
    stages = {"pairs-then-middle": (pairs, middle), "middle-then-pairs": (middle, pairs),
              "dense-first": (dense, pairs), "dense-last": (pairs, dense)}[name]
    assert Filtration(space, (pairs, pairs)).plan is not None
    return Filtration(space, stages)


@pytest.mark.parametrize("name", ["pairs-then-middle", "middle-then-pairs", "dense-first",
                                  "dense-last"])
def test_a_chain_gets_no_plan(name):
    assert _unplannable(name).plan is None


@pytest.mark.parametrize("name", ["truncation", "copy"])
def test_a_chain_of_gathers_gets_a_plan_that_builds_no_product(name):
    # every column reads one coordinate with coef 1: K = d rows of the terms
    # and no B.T; truncation stage n ends after its n + 1 kept rows
    filt = {"truncation": build_truncation, "copy": build_copy}[name](6)
    cols, (p, j, coef), width, ends = filt.plan
    assert width == 6 + 1 and p.size == j.size == coef.size == 0
    assert np.unique(cols).tolist() == list(range(6 + (name == "truncation")))
    want = [1, 2, 3, 4, 5, 6] if name == "truncation" else [6] * 6
    assert ends.tolist() == want == _plan_oracle(filt)["ends"]


def _columns(filt: Filtration) -> tuple[int, int]:
    """K, the distinct source rows a plan reads (the zero row aside), and P, its rows of B.T x."""
    cols, _, width, _ = filt.plan
    d = filt.space.dim
    return int(np.count_nonzero(np.unique(cols) != d)), width - d - 1


@pytest.mark.parametrize(
    "build, k, p",
    [
        (lambda: build_random_nested(64, 64, 1), 2 * 64 - 1, 64 - 1),  # one block, two per split
        (lambda: build_random_nested(100, 40, 2, "sup"), 2 * 40 - 1, None),  # P: its singletons
        (lambda: build_pairing(3), 3 * 3 - 1, 3 - 1),  # 2p singletons and p - 1 pairs
        (lambda: build_pairing(64), 3 * 64 - 1, 64 - 1),
        (lambda: build_dyadic(2), 2 * 4 - 2, 4 - 2),  # 2 + 4 + ... + d blocks
        (lambda: build_dyadic(6), 2 * 64 - 2, 64 - 2),
        (lambda: build_truncation(40), 40, 0),  # every column one coordinate with coef 1
        (lambda: build_copy(40), 40, 0),
    ],
    ids=["random-nested-64", "random-nested-100-depth-40", "pairing-3", "pairing-64",
         "dyadic-2", "dyadic-6", "truncation-40", "copy-40"],
)
def test_a_builders_plan_has_its_count_of_columns(build, k, p):
    # a singleton's coef is 1, so it reads its coordinate and adds no product row
    filt = build()
    assert _columns(filt) == (k, _plan_oracle(filt)["product"] if p is None else p)
    assert k <= 2 * filt.space.dim


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_a_plan_is_built_on_first_use_in_narrow_integers(seed):
    # like Filtration.norms, built by the first table that needs it and kept;
    # its indexes take fewer bytes than 4 N d, half of one (N, d) float table
    filt = build_random_nested(256, 256, seed)
    assert "plan" not in vars(filt)
    x = vector(filt.space, np.random.default_rng(seed).uniform(-1.0, 1.0, 256))
    assert classify(terminal_sequence(filt, x), filt).is_martingale
    cols, entries, width, ends = vars(filt)["plan"]
    assert filt.plan is vars(filt)["plan"]
    assert _columns(filt) == (2 * 256 - 1, 256 - 1)
    assert cols.dtype == np.uint16
    assert not any(a.flags.writeable for a in (cols, *entries, ends))
    assert cols.nbytes + sum(a.nbytes for a in (*entries, ends)) < 4 * 256 * 256


def test_building_a_plan_holds_few_bytes_per_cell():
    # int32 block ids, coefs compared once, each intermediate freed after use:
    # at N = d = 256 the build peaks under 28 bytes per (stage, coordinate) cell
    filts = [build_random_nested(256, 256, 3), harmonic_tail_example(256)[0]]
    for filt in filts:
        tracemalloc.start()
        try:
            assert filt.plan is not None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 28 * 256 * 256, peak


def test_only_wide_tables_or_wide_summing_chains_read_a_plan():
    # the rule of _pair_table: a table of _PLAN_ROWS rows per stage (members
    # times band) reads its chain's plan, and so does a chain of d >= 32 with a
    # stage that sums; a table that does not never builds it
    xs = np.random.default_rng(0).uniform(-1.0, 1.0, (64, 64))
    gathers, sums, small = build_truncation(64), build_pairing(32), build_pairing(12)
    _pair_table(xs, gathers, band=2)
    _pair_table(xs[:32], sums, band=2)
    _pair_table(xs[:12, :24], small)
    assert "plan" not in vars(gathers) and "plan" in vars(sums) and "plan" not in vars(small)
    _pair_table(np.stack([xs] * 2), gathers)
    _pair_table(np.stack([xs[:12, :24]] * 11), small)
    assert "plan" in vars(gathers) and "plan" in vars(small)
