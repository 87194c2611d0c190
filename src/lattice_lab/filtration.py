"""Finite filtrations: nested families of positive projections.

A filtration here is a finite list E_1..E_N of operators on one space
satisfying, within tolerance, the laws

  * positivity          (entrywise nonnegative),
  * idempotence         (E_n^2 = E_n),
  * commuting-order law (E_n E_m = E_{min(n, m)}),
  * optionally contractivity (induced norm <= 1).

The commuting-order law is checked on the adjacent pairs (n, n+1) and
(n+1, n) and the diagonal, which imply it for every pair by induction
(see :func:`validate`); its reported witness is therefore one of those
pairs.

Construction of a :class:`Filtration` only checks structural
compatibility; the laws are *reported* by :func:`validate`, never thrown,
so defective candidates can be inspected.  The builders in this module
all produce filtrations that pass ``validate(require_contractive=True)``
exactly up to rounding.

A stage is either form of :mod:`lattice_lab.operators`: a dense
``PosOperator`` (files, hand-built matrices) or a ``BlockOperator``, which
every builder here emits, stored in O(d) as block labels, a row mask and
column coefficients.  A block stage's ``matrix`` is built on each access
and never stored, so :func:`validate` holds at most one adjacent pair of
matrices at a time.

Everything "for all n" in the underlying theory is rendered at a finite
horizon N; reports are therefore evidence consistent with the infinite
statements, not proofs of them.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .operators import BlockOperator, Operator, is_lattice_homomorphism, operator_norm
from .spaces import DEFAULT_TOL, LatticeSpace, NormKind, _Frozen, _frozen, row_norms


class Filtration(_Frozen):
    """Operators ``ops`` = E_1..E_N on a common ``space``; ``op(n)`` is 1-based access."""

    def __init__(self, space: LatticeSpace, ops: tuple[Operator, ...]) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "ops", ops)
        self.__post_init__()

    def __post_init__(self) -> None:
        ops = tuple(self.ops)
        if not ops:
            raise ValueError("a filtration needs at least one operator")
        for e in ops:
            if e.space != self.space:
                raise ValueError("all operators must act on the filtration's space")
        object.__setattr__(self, "ops", ops)

    @property
    def horizon(self) -> int:
        return len(self.ops)

    @cached_property
    def norms(self) -> tuple[float, ...]:
        """Each stage's ``operator_norm``, computed once on first use (stages are immutable)."""
        return tuple(operator_norm(e) for e in self.ops)

    @cached_property
    def plan(self) -> tuple | None:
        """How a pair table or a sup profile reads every stage of a chain of block stages, each
        refining the last, off one source; built on first use, or None.  ``(cols, entries,
        width)``: row i of stage n reads row ``cols[n, i]`` of a ``width``-row source,
        coordinate r of the terms for r < d, zeros at d (a dropped row, or a row of a dead
        block, one with no nonzero coef), then B.T x with c at each ``entries`` (p, j, c) of
        B.T.  Stage n's block l is n * d + l.  A live block starts a column unless its block
        before had its members and was live, and then keeps its coefs: the blocks nest, so
        K < 2d.  A column whose one nonzero coef is 1 reads its coordinate.  ``cols`` is narrow
        (``np.min_scalar_type``): widen it before arithmetic.  See :mod:`lattice_lab.martingales`.
        """
        ops, d = self.ops, self.space.dim
        if not all(isinstance(e, BlockOperator) for e in ops):
            return None
        size = len(ops) * d
        ids = np.int32 if size < 2**31 else np.intp
        block = np.concatenate([e.labels for e in ops], dtype=ids)
        grid = block.reshape(-1, d)
        grid += np.arange(0, size, d, dtype=ids)[:, None]
        up = np.arange(size, dtype=ids)  # each block's block in the stage before
        up[block[d:]] = block[:-d]
        if (up[block[d:]] != block[:-d]).any():
            return None
        kept = np.bincount(block, minlength=size).astype(ids)  # member counts, then whether
        kept = kept == kept[up]  # a block has the members of its block before
        coef = np.concatenate([e.coef for e in ops])
        live = np.zeros(size, dtype=bool)
        live[block[coef != 0.0]] = True
        kept &= live & live[up]
        kept[:d] = False
        new = live & ~kept
        n_cols = int(np.count_nonzero(new))  # K, at least 2d only if rows come and go
        if kept[block[d:][coef[d:] != coef[:-d]]].any() or n_cols >= 2 * d:
            return None
        narrow = np.min_scalar_type(d + n_cols)
        start = np.zeros(size, dtype=narrow)  # each new block's 1-based column, 0 for none
        start[new] = np.arange(1, n_cols + 1)
        start = start[block]
        firsts = np.flatnonzero((coef != 0.0) & (start > 0))  # B's entries, by cell
        k, j, coef = start[firsts], (firsts % d).astype(narrow), coef[firsts]
        unit = (np.bincount(k)[k] == 1) & (coef == 1.0)
        row = np.ones(n_cols + 1, dtype=narrow)  # each 1-based column's source row, 0: none
        row[k[unit]] = 0
        row = np.cumsum(row, dtype=narrow) + (d - 1)
        width = int(row[-1]) + 1
        row[k[unit]] = j[unit]
        read = np.concatenate([e.mask for e in ops]).reshape(-1, d) & live[grid]
        cols = row[np.where(read, np.maximum.accumulate(start.reshape(-1, d)), 0)]
        entries = row[k[~unit]] - (d + 1), j[~unit], coef[~unit]
        return _frozen(cols), tuple(map(_frozen, entries)), width

    def op(self, n: int) -> Operator:
        if not 1 <= n <= self.horizon:
            raise IndexError(f"operator index {n} out of range 1..{self.horizon}")
        return self.ops[n - 1]

    def __repr__(self) -> str:
        return f"Filtration(dim={self.space.dim}, horizon={self.horizon})"


def _law(law: str, values, tol: float) -> dict:
    """One law's report from its (witness, value) pairs: the first worst value in the given
    order, where the first NaN is worse than anything, so NaN fails the law."""
    worst, witness = 0.0, None
    for where, v in values:
        if v > worst or (math.isnan(v) and not math.isnan(worst)):
            worst, witness = v, where
    return {"law": law, "passed": worst <= tol, "worst": worst, "witness": witness}


def validate(
    filt: Filtration,
    require_contractive: bool = False,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Check every filtration law; failures are reported, not raised.

    Returns what ``validate --json`` prints, ``{"passed", "checks"}``: per law its
    ``law``, ``passed``, ``worst`` violation and 1-based ``witness`` index or pair, or None.

    The commuting-order law is checked on adjacent pairs only, scanning
    (n, n), (n, n+1), (n+1, n) for each n: 3N - 2 products instead of N^2.
    In exact arithmetic these imply E_n E_m = E_{min(n, m)} for all pairs,
    by induction on k = |m - n|.  For k = 0 it is the diagonal, which is
    also where idempotence is read off.  For m = n + k with k >= 1, using
    E_n = E_n E_{n+1} and the case k - 1 for E_{n+1} E_m = E_{n+1},

        E_n E_m = E_n E_{n+1} E_m = E_n E_{n+1} = E_n,

    and, using E_n = E_{n+1} E_n and E_m E_{n+1} = E_{n+1},

        E_m E_n = E_m E_{n+1} E_n = E_{n+1} E_n = E_n.

    In floating point each step of the chain adds its own rounding, so the
    law's ``worst`` and ``witness`` describe the adjacent pairs only; the
    full N^2 sweep is kept as a test oracle.
    """
    positivity, order = [], {}
    n_ops = filt.horizon
    nxt = filt.ops[0].matrix
    for n in range(1, n_ops + 1):  # E_n and E_{n+1} are the only matrices alive
        cur, nxt = nxt, (filt.ops[n].matrix if n < n_ops else None)
        positivity.append(((n,), float(-np.min(cur))))
        order[n, n] = float(np.max(np.abs(cur @ cur - cur)))
        if nxt is not None:
            order[n, n + 1] = float(np.max(np.abs(cur @ nxt - cur)))
            order[n + 1, n] = float(np.max(np.abs(nxt @ cur - cur)))
    idempotence = (((n,), order[n, n]) for n in range(1, n_ops + 1))
    checks = [
        _law("positivity", positivity, tol),
        _law("idempotence", idempotence, tol),
        _law("commuting-order", order.items(), tol),
    ]
    if require_contractive:
        norms = (((n,), v - 1.0) for n, v in enumerate(filt.norms, start=1))
        checks.append(_law("contractivity", norms, tol))
    return {"passed": all(c["passed"] for c in checks), "checks": checks}


def is_contractive_filtration(filt: Filtration, tol: float = DEFAULT_TOL) -> bool:
    return all(v <= 1.0 + tol for v in filt.norms)


def is_dense(filt: Filtration, tol: float = DEFAULT_TOL) -> bool:
    """Finite-horizon density surrogate: the last operator acts as the identity.

    The ranges of E_1..E_N are nested, so E_N fixing every basis vector is
    what "E_n x converges to x" looks like inside the model.  Column i of
    E_N - I is E_N e_i - e_i, so one column-norm reduction checks them all.
    """
    gaps = filt.ops[-1].matrix - np.eye(filt.space.dim)
    return bool(np.all(row_norms(filt.space, gaps.T) <= tol))


def is_abs_closed(filt: Filtration) -> bool:
    """Whether the eventual martingales on ``filt`` are closed under |.|.

    A witness must lie below N, so A is an eventual martingale exactly when
    E_{N-1} x_N = x_{N-1}, with x_N free.  Then |A| is one iff
    E_{N-1} |x_N| = |E_{N-1} x_N|, so the class is closed iff E_{N-1} is a
    lattice homomorphism.  At N = 1 the class is empty, hence closed.  This
    is the finite-horizon reading of the paper's condition for the
    E-martingales to form a vector lattice, not its infinite statement.
    """
    return filt.horizon < 2 or is_lattice_homomorphism(filt.ops[-2])


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_truncation(n: int) -> Filtration:
    """Coordinate truncations on a sup-norm space of dimension n.

    E_k keeps the first k coordinates and zeroes the rest; every operator
    is a band projection and E_n is the identity.
    """
    if n < 1:
        raise ValueError("horizon must be >= 1")
    space = LatticeSpace(n, NormKind.SUP)
    cells = np.arange(n)
    return Filtration(space, tuple(BlockOperator(space, cells, cells < k, 1.0) for k in cells + 1))


def build_pairing(pairs: int) -> Filtration:
    """Pair-averaging filtration on a sup-norm space of dimension 2*pairs.

    Stage n keeps the first 2n coordinates and averages each later
    coordinate pair (2k-1, 2k) with weights one-half.  Stages are
    stored 1-based, so the fully-averaging stage with no kept coordinates
    is omitted and the final operator is the identity.
    """
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    dim = 2 * pairs
    space = LatticeSpace(dim, NormKind.SUP)
    cells = np.arange(dim)
    ops = []
    for kept in range(2, dim + 1, 2):
        alone = cells < kept  # a kept coordinate is its own block; the pairs take the next labels
        labels = np.where(alone, cells, (cells + kept) // 2)
        ops.append(BlockOperator(space, labels, True, np.where(alone, 1.0, 0.5)))
    return Filtration(space, tuple(ops))


MAX_DYADIC_LEVELS = 12


def build_dyadic(levels: int) -> Filtration:
    """Block-averaging filtration modelling conditional expectations on [0, 1].

    The space has 2**levels equal cells under the weighted L1 norm
    (weights 2**-levels, summing to one).  E_n averages coordinates within
    each of the 2**n level-n blocks; E_levels is the identity.  A written
    instance holds levels * 4**levels matrix entries, 1.6 GB at 12 levels
    and 6.9 GB at 13, and each stage's ``matrix`` is 4**levels floats, so
    more than :data:`MAX_DYADIC_LEVELS` levels are refused before anything
    is allocated.
    """
    if not 1 <= levels <= MAX_DYADIC_LEVELS:
        raise ValueError(f"levels must lie in 1..{MAX_DYADIC_LEVELS}, got {levels}")
    dim = 2**levels
    space = LatticeSpace(dim, NormKind.WEIGHTED_L1, np.full(dim, 2.0**-levels))
    cells = np.arange(dim)
    sizes = (2 ** (levels - n) for n in range(1, levels + 1))
    return Filtration(space, tuple(BlockOperator(space, cells // b, True, 1.0 / b) for b in sizes))


def build_copy(n: int) -> Filtration:
    """Coordinate-copy chain on a sup-norm space of dimension n.

    E_k x = (x_1, ..., x_k, x_k, ..., x_k): each row holds a single 1, so
    every stage is a lattice homomorphism, yet no stage before the
    identity E_n is a band projection.
    """
    if n < 1:
        raise ValueError("horizon must be >= 1")
    space = LatticeSpace(n, NormKind.SUP)
    cells = np.arange(n)
    return Filtration(
        space, tuple(BlockOperator(space, np.minimum(cells, k), True, cells <= k) for k in cells)
    )


def build_random_nested(
    dim: int,
    depth: int,
    seed: int,
    norm_kind: NormKind | str = NormKind.WEIGHTED_L1,
) -> Filtration:
    """Random chain of nested partitions of {1..dim}, one split per level.

    Level n has exactly n blocks (level 1 averages everything; when
    depth == dim every final block is a singleton, so the last operator is
    the identity).  E_n is the conditional expectation onto level n's
    partition, weighted by the space's cell weights: coordinate j of block
    b gets w_j / W_b, with W_b the weight of b.  Deterministic per seed;
    weighted-L1 spaces get random weights normalized to sum to one.

    A running table holds each block's size and weight W_b.  A split
    changes only the block it cuts and the block it makes, so each level
    sums those two parts and every other block carries its weight over.
    Each part is summed as ``w[np.sort(part)].sum()``, in index order, the
    reduction ``w[labels == b].sum()`` performs, so every W_b is bit for
    bit the weight summed afresh from the level's labels.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not 1 <= depth <= dim:
        raise ValueError(f"depth must lie in 1..dim, got depth={depth}, dim={dim}")
    rng = np.random.default_rng(seed)
    kind = NormKind(norm_kind)
    if kind is NormKind.WEIGHTED_L1:
        w = rng.uniform(0.25, 1.75, size=dim)
        space = LatticeSpace(dim, kind, w / w.sum())
    else:
        space = LatticeSpace(dim, kind)
    w = space.weights if space.weights is not None else np.ones(dim)

    labels = np.zeros(dim, dtype=int)
    size, weight = np.zeros(depth, dtype=int), np.zeros(depth)  # by block label
    size[0], weight[0] = dim, w.sum()
    ops = [BlockOperator(space, labels, True, w / weight[labels])]
    for level in range(1, depth):  # level + 1 blocks after this split
        block = int(rng.choice(np.flatnonzero(size[:level] >= 2)))
        members = rng.permutation(np.flatnonzero(labels == block))
        cut = int(rng.integers(1, members.size))
        labels = labels.copy()
        labels[members[:cut]] = level
        for b, part in ((level, members[:cut]), (block, members[cut:])):
            size[b], weight[b] = part.size, w[np.sort(part)].sum()
        ops.append(BlockOperator(space, labels, True, w / weight[labels]))
    return Filtration(space, tuple(ops))


__all__ = [
    "Filtration",
    "validate",
    "is_contractive_filtration",
    "is_dense",
    "is_abs_closed",
    "build_truncation",
    "build_pairing",
    "build_dyadic",
    "build_copy",
    "build_random_nested",
]
