"""Linear operators on a lattice space, in two stage forms.

A :class:`PosOperator` holds an arbitrary dense d x d matrix; files and
hand-built operators use it.  A :class:`BlockOperator` holds a block stage
T_ij = mask_i * coef_j * [label_i == label_j] as three length-d arrays:
the weighted block averages and coordinate copies of conditional-
expectation type (Douglas, Pacific J. Math. 15, 1965) that every builder
in :mod:`lattice_lab.filtration` makes.  Both forms expose ``matrix``; on
a block stage it is built on each access and never stored, so no hot path
here reads it: :func:`apply_rows`, :func:`operator_norm` and
:func:`is_lattice_homomorphism` work on the block arrays.

:func:`apply_rows` has two paths on a block stage: a gather when no block
holds two nonzero coefs, else block sums by one ``bincount``, which adds
each block in index order.  A pair table or a sup profile reads every
stage of a refining chain off one source instead, by the rule
:func:`lattice_lab.martingales._plan_source` states; the one-step defects
(:func:`lattice_lab.martingales._steps`) apply each stage to one term.

Provides the induced norm (:func:`operator_norm`) and one structural
test, :func:`is_lattice_homomorphism`.  Positivity, idempotence and
contractivity are laws of a whole filtration, checked by
:func:`lattice_lab.filtration.validate`.

Operators are immutable and all functions are pure.
"""

from __future__ import annotations

import numpy as np

from .spaces import (
    DEFAULT_TOL,
    LatticeSpace,
    LatticeVector,
    NormKind,
    SpaceMismatchError,
    _Frozen,
    _readonly,
)


class PosOperator(_Frozen):
    """A dense square ``matrix`` acting on ``space``: (Tx)_i = sum_j T_ij x_j.

    "Positive" is never assumed: arbitrary real matrices are representable,
    and positivity and idempotence are laws that
    :func:`lattice_lab.filtration.validate` checks.
    """

    def __init__(self, space: LatticeSpace, matrix: np.ndarray) -> None:
        m = _readonly(matrix)
        d = space.dim
        if m.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix, got shape {m.shape}")
        self._set(space=space, matrix=m)

    def __repr__(self) -> str:
        return f"PosOperator(dim={self.space.dim})"


class BlockOperator(_Frozen):
    """A block stage: (Tx)_i = mask_i * sum over j in i's block of coef_j x_j.

    ``labels`` names each coordinate's block by an integer (labels outside
    0..d-1 are renumbered), ``mask`` keeps or zeroes each row and ``coef``
    weighs each column; ``mask`` and ``coef`` may be scalars.  The coef of
    a block with no kept row never enters the matrix and is stored as 0.

    Construction picks the kernel of :func:`apply_rows` in O(d): when no
    row holds two nonzero entries (truncations, copies, the identity), a
    gather and a product; else row i reads slot ``_src[i]`` of the d + 1
    block sums of coef_j x_j (slot d, zero, for dropped rows), summed by
    one ``bincount``.
    """

    def __init__(
        self, space: LatticeSpace, labels: np.ndarray, mask: np.ndarray, coef: np.ndarray
    ) -> None:
        d = space.dim
        labels = np.asarray(labels)
        if labels.shape != (d,) or labels.dtype.kind not in "iu":
            raise ValueError(f"expected {d} integer labels, got {labels.dtype} {labels.shape}")
        if labels.min() < 0 or labels.max() >= d:
            labels = np.unique(labels, return_inverse=True)[1].reshape(d)
        labels = labels.astype(np.intp)
        kept, weights = np.empty(d, dtype=bool), np.empty(d)
        kept[...], weights[...] = mask, coef
        mask, coef, full = kept, weights, kept.all()
        if not full:
            coef[np.bincount(labels[mask], minlength=d)[labels] == 0] = 0.0
        nonzero = coef != 0.0
        src = scale = None
        if np.bincount(labels[nonzero], minlength=d).max() > 1:
            src = labels if full else np.where(mask, labels, d)
        elif np.bincount(labels).max() == 1:  # all singletons: T is diagonal
            scale = coef
        else:
            head = np.empty(d, dtype=np.intp)  # a block's nonzero column, else any member
            head[labels] = np.arange(d)
            head[labels[nonzero]] = np.flatnonzero(nonzero)
            src = head[labels]
            scale = np.where(mask, coef[src], 0.0)
        for value in (labels, mask, coef, src, scale):
            if value is not None:
                value.setflags(write=False)
        self._set(space=space, labels=labels, mask=mask, coef=coef, _src=src, _scale=scale)

    @property
    def matrix(self) -> np.ndarray:
        """The dense d x d matrix, built on each access and never stored."""
        same = (self.labels[:, None] == self.labels) & self.mask[:, None]
        m = np.where(same, self.coef, 0.0)
        m.setflags(write=False)
        return m

    def __repr__(self) -> str:
        return f"BlockOperator(dim={self.space.dim})"


#: Either stage form; every function below accepts both.
Operator = PosOperator | BlockOperator


def apply_rows(op: Operator, rows: np.ndarray) -> np.ndarray:
    """``rows @ T.T``: the operator applied to each row of ``rows`` (shape
    (..., d)), or to ``rows`` itself when it is one vector; always a fresh,
    writable array that shares no memory with ``rows``."""
    if isinstance(op, PosOperator):
        return rows @ op.matrix.T
    if op._scale is not None:
        return (rows if op._src is None else rows[..., op._src]) * op._scale
    d = op.space.dim
    width = d + 1  # the last column stays zero for dropped rows
    flat = rows.reshape(-1, d)
    cells = (np.arange(0, len(flat) * width, width)[:, None] + op.labels).ravel()
    sums = np.bincount(cells, (flat * op.coef).ravel(), len(flat) * width)  # int64 for no rows
    return sums.reshape(-1, width)[:, op._src].reshape(rows.shape).astype(float, copy=False)


def apply(op: Operator, x: LatticeVector) -> LatticeVector:
    if op.space != x.space:
        raise SpaceMismatchError("operator and vector live in different spaces")
    return LatticeVector(x.space, apply_rows(op, x.coords))


def operator_norm(op: Operator) -> float:
    """Induced operator norm.

    Sup norm: max absolute row sum.  Weighted L1 with weights w:
    max over columns j of (sum_i w_i |T_ij|) / w_j.  Both formulas are
    exact (attained by a sign vector resp. a basis vector); the test
    suite validates them against a random-sampling lower bound.  On a
    block stage a row sum is its block's sum of |coef|, and column j's
    weighted sum is |coef_j| times the weight of the kept rows of its block.
    """
    if isinstance(op, BlockOperator):
        a = np.abs(op.coef)
        if op.space.norm_kind is NormKind.SUP:  # a dropped row is 0, or a kept row's twin
            return float(np.bincount(op.labels, a).max())
        w = op.space.weights
        kept = np.bincount(op.labels, np.where(op.mask, w, 0.0))
        return float(np.max(a * kept[op.labels] / w))
    a = np.abs(op.matrix)
    if op.space.norm_kind is NormKind.SUP:
        return float(np.max(a.sum(axis=1)))
    w = op.space.weights
    return float(np.max((w @ a) / w))


def is_lattice_homomorphism(op: Operator) -> bool:
    """True iff |Tx| = T|x| for every x: each row is nonnegative with at most
    one nonzero entry, within ``DEFAULT_TOL``; NaN never is.

    A negative t_ij breaks it at e_j, two positive entries t_ij, t_ik at
    e_j - e_k (Aliprantis and Burkinshaw, *Positive Operators*, 2006).  On
    a block stage a kept row holds its block's coefs, so each block may hold
    one nonzero coef (the coefs of blocks without kept rows are 0).
    """
    if isinstance(op, BlockOperator):
        c = op.coef
        big = np.bincount(op.labels, np.abs(c) > DEFAULT_TOL)
        return bool(np.all(c >= -DEFAULT_TOL) and np.all(big <= 1))
    m = op.matrix
    return bool(np.all(m >= -DEFAULT_TOL) and np.all((np.abs(m) > DEFAULT_TOL).sum(axis=1) <= 1))


def is_finite(op: Operator) -> bool:
    """Whether every matrix entry is finite, read off ``coef`` on a block stage."""
    return bool(np.isfinite(op.coef if isinstance(op, BlockOperator) else op.matrix).all())
