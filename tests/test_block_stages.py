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
from lattice_lab.martingales import _pair_table, _steps
from lattice_lab.spaces import row_norms

REL = 1e-15
# chains wider than the evidence checks' d <= 64, so only these tests apply
# their stages at that width
WIDE_KINDS = ["wide-pairing", "wide-random-nested", "wider-pairing"]


def _chain(kind: str, size: int, seed: int) -> tuple[Filtration, list[np.ndarray]]:
    """A builder's filtration and the same stages as dense reference matrices."""
    if kind == "random-filtration":
        filt, descriptor = random_filtration(np.random.default_rng(seed))
        params = dict(descriptor)
        return filt, dense_stages(params.pop("builder"), **params)
    if kind.endswith("random-nested"):
        # level n has n blocks; the wide kind runs past 64 levels
        depth = size if kind == "random-nested" else 64 + size
        dim = depth + 1 if kind == "random-nested" else depth + size
        norm_kind = list(NormKind)[seed % 2].value
        params = {"dim": dim, "depth": depth, "sub_seed": seed, "norm": norm_kind}
        filt = build_random_nested(dim, depth, seed, norm_kind)
        return filt, dense_stages("random-nested", **params)
    if kind == "random-blocks":
        return _random_blocks(size, seed)
    if kind == "wide-pairing":
        # stage k keeps 2k coordinates and has p + k blocks, p + 1 to 2p - 1
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
    kind=st.sampled_from(WIDE_KINDS),
    size=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_wide_block_stages_match_the_dense_builders(kind, size, seed):
    # Every chain has d > 64, and every summing stage reads bincount.
    # operator_norm adds a block's row sum by bincount in index order where
    # numpy adds a dense row pairwise; over d terms the two orders part by at
    # most d units of roundoff, so the norm is held to that.
    filt, mats = _chain(kind, size, seed)
    kernels = {kernel(e) for e in filt.ops} - {"diagonal", "gather"}
    assert filt.space.dim > 64
    assert kernels == {"bincount"}
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
    assert report["passed"]
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


def _band_scale(space: LatticeSpace, mats: list[np.ndarray], xs: np.ndarray):
    """The pair table taken over absolute values: the size of what was added."""
    scale = np.zeros((len(xs), len(xs)))
    for n, m in enumerate(mats):
        sums = np.abs(xs[n:]) @ np.abs(m).T + np.abs(xs[n])
        scale[n, : len(sums)] = row_norms(space, sums)
    return scale


def _stacked_case(kind, size, members, dense, seed):
    """A chain (block stages or their dense matrices) and a (members, N, d)
    stack of random terms."""
    filt, mats = _chain(kind, size, seed)
    if dense:
        filt = Filtration(filt.space, tuple(PosOperator(filt.space, m) for m in mats))
    rng = np.random.default_rng(seed)
    stack = rng.uniform(-1.0, 1.0, size=(members, filt.horizon, filt.space.dim))
    return filt, mats, stack


STACKED = dict(
    kind=st.sampled_from(
        ["truncation", "pairing", "dyadic", "copy", "random-nested", "random-blocks",
         "wide-random-nested", "wide-pairing", "wider-pairing"]
    ),
    size=st.integers(1, 8),
    members=st.integers(1, 4),
    dense=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=150, deadline=None)
@given(**STACKED)
def test_a_stacked_pair_table_matches_each_members_own(kind, size, members, dense, seed):
    filt, mats, stack = _stacked_case(kind, size, members, dense, seed)
    n_terms = filt.horizon
    got = _pair_table(stack, filt)
    assert got.shape == (members, n_terms, n_terms)
    for k, xs in enumerate(stack):
        own = _pair_table(VectorSequence(filt.space, xs), filt)
        assert _within(got[k], own, _band_scale(filt.space, mats, xs))


@settings(max_examples=150, deadline=None)
@given(**STACKED, bad=st.sampled_from([np.nan, np.inf, -np.inf]), where=st.integers(0, 2**16))
# terms met by wide planned stages (0-based): term 64 of a wide random-nested
# chain of 67 levels (stage 63, on 2 x 4 rows), term 40 of 66 pairs (stages 2
# to 40, on 26 rows or more)
@example(kind="wide-random-nested", size=3, members=2, dense=False, seed=1,
         bad=np.inf, where=2 * 66 * 3 + 1)
@example(kind="wider-pairing", size=2, members=1, dense=False, seed=2, bad=np.nan, where=40)
def test_a_non_finite_term_spoils_only_its_own_pairs(kind, size, members, dense, seed, bad, where):
    filt, _, stack = _stacked_case(kind, size, members, dense, seed)
    clean = _pair_table(stack, filt)
    n_terms, d = filt.horizon, filt.space.dim
    k, m, c = where % members, where // members % n_terms, where % d
    stack[k, m, c] = bad
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf, as in a dense product
        got = _pair_table(stack, filt)
    # the pairs holding x_m: (n, m) for n <= m, and (m, m + j)
    n, j = np.indices((n_terms, n_terms))
    holds = ((n + j == m) | (n == m)) & (n + j < n_terms)
    assert np.array_equal(~np.isfinite(got[k]), holds)
    assert np.isnan(got[k][n + j == m]).all()
    others = np.arange(members) != k
    assert np.array_equal(got[others], clean[others])
    assert np.array_equal(got[k][~holds], clean[k][~holds])


@pytest.mark.parametrize("kind", ["random-nested", "random-blocks", "wide-pairing"])
@pytest.mark.parametrize("terms", [2, None])  # 2: x_n and x_n+1 (the steps), None: x_n..x_N
@pytest.mark.parametrize("dense", [False, True])
def test_one_sequences_pair_table_is_its_rows_norms_bit_for_bit(kind, terms, dense):
    filt, _, stack = _stacked_case(kind, 6, 1, dense, 17)
    xs = stack[0]
    seq = VectorSequence(filt.space, xs)
    if terms == 2:  # each stage applied to the next term, then one row_norms
        nxt = np.array([apply_rows(e, x) for e, x in zip(filt.ops, xs[1:])])
        assert np.array_equal(_steps(seq, filt), row_norms(filt.space, nxt - xs[:-1]))
        return
    table = _pair_table(seq, filt)
    for n, e in enumerate(filt.ops):
        block = xs[n:]
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
    ``product`` the others, and ``changed`` is whether a block live at two
    stages in a row changed its coefs there."""
    prev, unit, product, changed = {}, 0, 0, False
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
        prev = live
    return {"unit": unit, "product": product, "changed": changed}


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
    cols, (p, j, coef), width = plan
    m = np.zeros((d, width))
    m[np.arange(d), np.arange(d)] = 1.0
    m[j, d + 1 + p] = coef
    return m


PLAN_KINDS = ["truncation", "pairing", "dyadic", "copy", "random-nested", "random-filtration",
              "random-blocks", "refining", "refining-changed", "refining-revived",
              "refining-suffix", "refining-gathers-suffix", "refining-gathers-revived",
              "refining-gathers-changed"]


def _planned_case(kind, size, lead, bad, where, seed):
    """A chain, a (*lead, N, d) stack of random terms with ``bad`` at flat
    index ``where`` (None: all finite) and the pair table over absolute
    values, one (N, N) table per member."""
    filt, mats, unplannable = _plan_case(kind, size, seed)
    if unplannable is not None:
        assert (filt.plan is None) == unplannable
    n_terms, d = filt.horizon, filt.space.dim
    xs = np.random.default_rng(seed).uniform(-1.0, 1.0, (*lead, n_terms, d))
    if bad is not None:
        xs.flat[where % xs.size] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        scale = [_band_scale(filt.space, mats, m) for m in xs.reshape(-1, n_terms, d)]
    return filt, xs, np.reshape(scale, (*lead, n_terms, n_terms))


def _sup_gathers(filt: Filtration) -> bool:
    """A sup chain of gathers: no block sums two coefs."""
    return filt.space.norm_kind is NormKind.SUP and all(e._scale is not None for e in filt.ops)


def _same_table(got: np.ndarray, want: np.ndarray, scale: np.ndarray, exact: bool):
    """Bit for bit when ``exact``, else NaN and inf in the same places and the
    finite entries within REL of scale."""
    if exact:
        assert np.array_equal(got, want, equal_nan=True)
        return
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(got)
    assert _within(got[finite], want[finite], scale[finite])


PLANNED = dict(
    kind=st.sampled_from(PLAN_KINDS),
    size=st.integers(1, 8),
    lead=st.sampled_from([(), (1,), (3,), (2, 3)]),  # (): one sequence, else a stack
    bad=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    where=st.integers(0, 2**16),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=400, deadline=None)
@given(**PLANNED)
# a builder's chain on a stack with two leading axes
@example(kind="pairing", size=8, lead=(2, 3), bad=None, where=0, seed=3)
def test_a_planned_pair_table_matches_the_table_of_its_stages(kind, size, lead, bad, where, seed):
    # every chain with a plan reads it here, so gather chains take the planned
    # path too.  On a sup space a chain of gathers (no block sums two coefs)
    # gives the per-stage table bit for bit: a dropped row reads the zero row,
    # |0 - x_n,i| = |x_n,i|.  Block sums add in another order than apply_rows.
    filt, xs, scale = _planned_case(kind, size, lead, bad, where, seed)
    staged = Filtration(filt.space, filt.ops)
    vars(staged)["plan"] = None  # every stage by apply_rows
    with mock.patch.object(martingales, "_PLAN_DIM", 0), np.errstate(invalid="ignore",
                                                                      over="ignore"):
        got, want = _pair_table(xs, filt), _pair_table(xs, staged)
    _same_table(got, want, scale, _sup_gathers(filt))


@settings(max_examples=300, deadline=None)
@given(**PLANNED)
# one stage that keeps no row: its chunk reads only the zero row
@example(kind="refining", size=1, lead=(), bad=None, where=0, seed=23)
# a weighted-L1 chain whose stages keep rows up to 1, 1, 9, 0 and 3 of 10: the
# dropped rows read the zero row
@example(kind="refining-suffix", size=5, lead=(2, 3), bad=np.inf, where=77, seed=10)
@example(kind="refining-suffix", size=5, lead=(), bad=np.nan, where=12, seed=10)
def test_a_planned_pair_table_is_the_same_whatever_its_chunks(kind, size, lead, bad, where, seed):
    # one stage per chunk (a bound of one float) against every stage in one
    # chunk (no bound): the one reduces into the table, the other reads each
    # stage's row off the diagonal of its chunk's result
    filt, xs, scale = _planned_case(kind, size, lead, bad, where, seed)
    if filt.plan is None:
        return
    tables = []
    for bound in (1, 2**62):
        with mock.patch.object(martingales, "_PLAN_DIM", 0), mock.patch.object(
            martingales, "_CHUNK_FLOATS", bound
        ), np.errstate(invalid="ignore", over="ignore"):
            tables.append(_pair_table(xs, filt))
    _same_table(*tables, scale, _sup_gathers(filt))


@settings(max_examples=1000, deadline=None)
@given(**{name: PLANNED[name] for name in ("kind", "size", "lead", "bad", "where", "seed")},
       form=st.sampled_from(["blocks", "dense", "unplanned"]),
       rule=st.sampled_from(["every plan", "as built"]), zeros=st.booleans(),
       chunk=st.sampled_from(["as built", "one stage"]))
# the same chain at d = 64 as the wide-chain test: planned by its summing stages
@example(kind="wide-pairing", size=1, lead=(), bad=None, where=0, seed=0, form="blocks",
         rule="as built", zeros=False, chunk="as built")
@example(kind="pairing", size=8, lead=(2, 3), bad=np.inf, where=500, seed=3, form="blocks",
         rule="every plan", zeros=True, chunk="as built")
# chains of gathers of few rows a stage: scanned as built, with 0, 1 and 2 leading axes
@example(kind="truncation", size=8, lead=(), bad=np.nan, where=29, seed=1, form="blocks",
         rule="as built", zeros=False, chunk="as built")
@example(kind="copy", size=8, lead=(), bad=-np.inf, where=40, seed=2, form="blocks",
         rule="as built", zeros=True, chunk="as built")
@example(kind="truncation", size=7, lead=(3,), bad=np.inf, where=100, seed=3, form="blocks",
         rule="as built", zeros=False, chunk="as built")
@example(kind="copy", size=6, lead=(1,), bad=np.nan, where=11, seed=4, form="blocks",
         rule="as built", zeros=False, chunk="as built")
@example(kind="truncation", size=5, lead=(2, 3), bad=-np.inf, where=77, seed=5, form="blocks",
         rule="as built", zeros=True, chunk="as built")
@example(kind="copy", size=8, lead=(2, 3), bad=np.inf, where=300, seed=6, form="blocks",
         rule="as built", zeros=False, chunk="as built")
# one stage per chunk, scanned and tabled alike
@example(kind="truncation", size=8, lead=(3,), bad=np.nan, where=50, seed=7, form="blocks",
         rule="as built", zeros=False, chunk="one stage")
@example(kind="pairing", size=8, lead=(2, 3), bad=np.inf, where=500, seed=3, form="blocks",
         rule="every plan", zeros=False, chunk="one stage")
# uint8 cols: the zero row, cols = 16, starts at flat row 16 * 16 = 256
@example(kind="truncation", size=16, lead=(), bad=None, where=0, seed=8, form="blocks",
         rule="as built", zeros=False, chunk="as built")
# uint16 cols: d + K = 256 at d = 128
@example(kind="truncation", size=128, lead=(), bad=np.nan, where=9000, seed=9, form="blocks",
         rule="as built", zeros=False, chunk="as built")
# a stacked summing chain on which B.T x laid out (width, N, members) and (width, members,
# N) rounds 1 ulp apart: the scan and the table must read one source
@example(kind="refining", size=3, lead=(2, 3), bad=None, where=0, seed=50486087, form="blocks",
         rule="every plan", zeros=False, chunk="as built")
def test_profiles_are_the_pair_tables_row_maxima_and_step_column(
    kind, size, lead, bad, where, seed, form, rule, zeros, chunk
):
    # a sup chain that reads its plan is scanned, not tabled, and must give the table's
    # profile and steps bit for bit, NaN and inf included; every other chain (weighted L1,
    # dense or unplanned stages, small summing chains as built) reduces its table.  Terms
    # set to -0.0 must not make a profile entry -0.0.
    filt, xs, _ = _planned_case(kind, size, lead, bad, where, seed)
    if zeros:
        xs[np.abs(xs) < 0.5] = -0.0
    if form == "dense":
        filt = Filtration(filt.space, tuple(PosOperator(filt.space, e.matrix) for e in filt.ops))
    elif form == "unplanned":
        filt = Filtration(filt.space, filt.ops)
        vars(filt)["plan"] = None
    n_terms = filt.horizon
    plan_dim = 0 if rule == "every plan" else martingales._PLAN_DIM
    bound = 1 if chunk == "one stage" else martingales._CHUNK_FLOATS
    with mock.patch.object(martingales, "_PLAN_DIM", plan_dim), mock.patch.object(
            martingales, "_CHUNK_FLOATS", bound), np.errstate(invalid="ignore", over="ignore"):
        with mock.patch.object(martingales, "_pair_table", wraps=_pair_table) as tabled:
            profile, steps = martingales._profiles(xs, filt)
        table = _pair_table(xs, filt)
        planned = martingales._plan_source(xs, filt)  # the one rule, the table's and the scan's
    if filt.plan is not None and _sup_gathers(filt):
        assert planned is not None  # a chain of gathers reads its plan at any size
    assert tabled.called != (filt.space.norm_kind is NormKind.SUP and planned is not None)
    assert np.array_equal(profile, table.max(-1), equal_nan=True)
    want = table[..., :-1, 1] if n_terms > 1 else np.empty((*lead, 0))
    assert np.array_equal(steps, want, equal_nan=True)
    assert not np.signbit(profile[~np.isnan(profile)]).any()


@settings(max_examples=300, deadline=None)
@given(**{name: PLANNED[name] for name in ("kind", "size", "lead", "bad", "where", "seed")},
       form=st.sampled_from(["blocks", "dense", "unplanned"]))
@example(kind="refining-suffix", size=5, lead=(2, 3), bad=np.inf, where=77, seed=10,
         form="blocks")
def test_steps_are_the_staged_tables_step_column(kind, size, lead, bad, where, seed, form):
    # each stage applied to the next term only: bit for bit the staged full table's
    # column T[n, 1] on a sup chain of block stages, within the scale of what was added
    # on weighted-L1 and dense chains; on block stages each member of a stack gets its
    # own steps bit for bit, whether or not the stack's table would read a plan
    filt, xs, scale = _planned_case(kind, size, lead, bad, where, seed)
    if form == "dense":
        filt = Filtration(filt.space, tuple(PosOperator(filt.space, e.matrix) for e in filt.ops))
    elif form == "unplanned":
        filt = Filtration(filt.space, filt.ops)
        vars(filt)["plan"] = None
    staged = Filtration(filt.space, filt.ops)
    vars(staged)["plan"] = None  # every stage by apply_rows
    n_terms, d = filt.horizon, filt.space.dim
    with np.errstate(invalid="ignore", over="ignore"):
        steps = _steps(xs, filt)
        table = _pair_table(xs, staged)
        own = [_steps(m, filt) for m in xs.reshape(-1, n_terms, d)]
    assert steps.shape == (*lead, n_terms - 1)
    want = table[..., :-1, 1] if n_terms > 1 else np.empty((*lead, 0))
    sup = filt.space.norm_kind is NormKind.SUP
    _same_table(steps, want, scale[..., :-1, 1:2].reshape(want.shape), sup and form != "dense")
    if form != "dense":
        shape = (len(own), n_terms - 1)
        assert np.array_equal(steps.reshape(shape), np.reshape(own, shape), equal_nan=True)


def test_a_scanned_profile_of_negative_zeros_is_plus_zero():
    # a dropped row reads the zero row: |+0 - (-0)| and |-0 - (+0)| are the two halves,
    # +0 and -0 before their |.|, and the maximum of the two keeps whichever comes last
    space = LatticeSpace(1)
    filt = Filtration(space, (BlockOperator(space, np.zeros(1, int), False, 1.0),) * 128)
    seq = VectorSequence(space, np.full((128, 1), -0.0))
    profile, steps = martingales._profiles(seq, filt)
    assert filt.plan is not None and not np.signbit(profile).any()
    assert not np.signbit(steps).any() and not np.signbit(classify(seq, filt).x_defects).any()


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from([k for k in PLAN_KINDS if k != "random-blocks"]),
    size=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_plan_holds_each_distinct_live_block_once(kind, size, seed):
    # the plan against the brute-force oracle: its product rows are the
    # columns that are not one coordinate with coef 1, and row i of stage n
    # reads its block's coefs, or zeros where the stage drops the row or the
    # block is dead
    filt, _, unplannable = _plan_case(kind, size, seed)
    if unplannable:
        return
    d, oracle = filt.space.dim, _plan_oracle(filt)
    cols, _, width = filt.plan
    assert width - d - 1 == oracle["product"]
    source = _source(filt.plan, d)
    for n, e in enumerate(filt.ops):
        for i in range(d):
            block = e.labels == e.labels[i]
            read = e.mask[i] and e.coef[block].any()
            assert np.array_equal(source[:, cols[n, i]], np.where(block & read, e.coef, 0.0))


def test_a_stage_that_keeps_no_row_reads_only_the_zero_row():
    space = LatticeSpace(4)
    stages = [BlockOperator(space, np.array([0, 0, 1, 1]), False, 0.5),
              BlockOperator(space, np.array([0, 1, 2, 2]), [True, False, False, False], 0.5),
              BlockOperator(space, np.array([0, 1, 2, 3]), [True, True, True, False],
                            [0.5, 1.0, 1.0, 1.0])]
    filt = Filtration(space, tuple(stages))
    assert filt.plan[0][0].tolist() == [4] * 4  # row d of the source, zeros
    xs = np.random.default_rng(0).uniform(-1.0, 1.0, (3, 4))
    staged = Filtration(space, filt.ops)
    vars(staged)["plan"] = None
    with mock.patch.object(martingales, "_PLAN_DIM", 0):
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
    # and no B.T; truncation stage n reads the zero row past its n + 1 kept rows
    filt = {"truncation": build_truncation, "copy": build_copy}[name](6)
    cols, (p, j, coef), width = filt.plan
    assert width == 6 + 1 and p.size == j.size == coef.size == 0
    assert np.unique(cols).tolist() == list(range(6 + (name == "truncation")))
    zeros = np.tri(6, k=-1, dtype=bool).T if name == "truncation" else np.zeros((6, 6), bool)
    assert np.array_equal(cols == 6, zeros)


def _columns(filt: Filtration) -> tuple[int, int]:
    """K, the distinct source rows a plan reads (the zero row aside), and P, its rows of B.T x."""
    cols, _, width = filt.plan
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
    cols, entries, width = vars(filt)["plan"]
    assert filt.plan is vars(filt)["plan"]
    assert _columns(filt) == (2 * 256 - 1, 256 - 1)
    assert cols.dtype == np.uint16
    assert not any(a.flags.writeable for a in (cols, *entries))
    assert cols.nbytes + sum(a.nbytes for a in entries) < 4 * 256 * 256


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_fresh_summing_draw_is_tabled_and_a_chain_of_gathers_is_scanned(seed):
    # the one plan rule: a summing sup chain below d = 32 builds no plan it would
    # read once, and a chain of gathers reads its plan at any size
    filt = build_random_nested(16, 8, seed, "sup")
    x = vector(filt.space, np.random.default_rng(seed).uniform(-1.0, 1.0, 16))
    classify(terminal_sequence(filt, x), filt)
    assert "plan" not in vars(filt)
    harmonic, seq, _ = harmonic_tail_example(64)
    with mock.patch.object(martingales, "_pair_table", side_effect=AssertionError("tabled")):
        classify(seq, harmonic)
    assert "plan" in vars(harmonic)


def test_a_chain_reads_its_plan_unless_a_stage_sums_below_the_plan_dim():
    # the one rule of _plan_source: a chain of gathers reads its plan from one
    # 2-term sequence, a summing chain from d = _PLAN_DIM = 32, and a summing chain
    # below that never builds its plan, whatever the number of rows
    xs = np.random.default_rng(0).uniform(-1.0, 1.0, (64, 64))
    gathers, sums, small = build_truncation(2), build_pairing(16), build_pairing(12)
    assert martingales._PLAN_DIM == 32
    _pair_table(xs[:2, :2], gathers)  # 2 rows
    _pair_table(xs[:16, :32], sums)  # 16
    _pair_table(np.stack([xs[:12, :24]] * 11), small)  # 11 x 12
    martingales._profiles(np.stack([xs[:12, :24]] * 11), small)
    assert "plan" in vars(gathers) and "plan" in vars(sums) and "plan" not in vars(small)


@pytest.mark.parametrize("build", [build_truncation, build_copy, build_dyadic, build_pairing])
def test_an_empty_stack_reads_no_plan(build):
    # no members: no source to build, and the per-stage table, scan and steps are empty
    # float arrays; every stage of the summing chains (dyadic at d = 8, pairing at d = 64)
    # adds its blocks by np.bincount, which counts in int64 on empty input even when given
    # weights
    filt = build({build_dyadic: 3, build_pairing: 32}.get(build, 8))
    n_terms, d = filt.horizon, filt.space.dim
    xs = np.zeros((0, n_terms, d))
    assert martingales._plan_source(xs, filt) is None
    assert apply_rows(filt.op(1), xs[:, 0]).dtype == np.float64
    got = [_pair_table(xs, filt), *martingales._profiles(xs, filt), _steps(xs, filt)]
    shapes = [(0, n_terms, n_terms), (0, n_terms), (0, n_terms - 1), (0, n_terms - 1)]
    assert [(a.shape, a.dtype) for a in got] == [(shape, np.float64) for shape in shapes]
