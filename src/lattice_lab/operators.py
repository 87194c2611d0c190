"""Dense linear operators on a lattice space.

Provides the checks a positive contractive projection must pass
(entrywise positivity, idempotence, induced norm at most one) and the
structural band-projection and lattice-homomorphism tests.  Under
coordinate order, bands are coordinate-subset subspaces, so a band
projection is exactly a 0/1 diagonal matrix; the tests here are
structural rather than behavioral.

Operators are immutable and all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import (
    DEFAULT_TOL,
    LatticeSpace,
    LatticeVector,
    NormKind,
    SpaceMismatchError,
    _readonly,
    absolute,
    meet,
    norm,
)


@dataclass(frozen=True, eq=False)
class PosOperator:
    """A dense square matrix acting on a space: (Tx)_i = sum_j T_ij x_j.

    "Positive" is a checked property (:func:`is_positive`), never an
    assumption; arbitrary real matrices are representable.
    """

    space: LatticeSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        d = self.space.dim
        if m.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix, got shape {m.shape}")
        object.__setattr__(self, "matrix", _readonly(m, (d, d)))

    def __repr__(self) -> str:
        return f"PosOperator(dim={self.space.dim})"


def identity(space: LatticeSpace) -> PosOperator:
    return PosOperator(space, np.eye(space.dim))


def apply(op: PosOperator, x: LatticeVector) -> LatticeVector:
    if op.space != x.space:
        raise SpaceMismatchError("operator and vector live in different spaces")
    return LatticeVector(x.space, op.matrix @ x.coords)


def compose(op: PosOperator, other: PosOperator) -> PosOperator:
    """Matrix product op @ other ("apply other first")."""
    if op.space != other.space:
        raise SpaceMismatchError("operators live in different spaces")
    return PosOperator(op.space, op.matrix @ other.matrix)


def is_positive(op: PosOperator, tol: float = DEFAULT_TOL) -> bool:
    """Entrywise nonnegativity; equivalent to cone preservation in coordinate order."""
    return bool(np.min(op.matrix) >= -tol)


def is_projection(op: PosOperator, tol: float = DEFAULT_TOL) -> bool:
    return bool(np.max(np.abs(op.matrix @ op.matrix - op.matrix)) <= tol)


def operator_norm(op: PosOperator) -> float:
    """Induced operator norm.

    Sup norm: max absolute row sum.  Weighted L1 with weights w:
    max over columns j of (sum_i w_i |T_ij|) / w_j.  Both formulas are
    exact (attained by a sign vector resp. a basis vector); the test
    suite validates them against a random-sampling lower bound.
    """
    a = np.abs(op.matrix)
    if op.space.norm_kind is NormKind.SUP:
        return float(np.max(a.sum(axis=1)))
    w = op.space.weights
    return float(np.max((w @ a) / w))


def is_contractive(op: PosOperator, tol: float = DEFAULT_TOL) -> bool:
    return operator_norm(op) <= 1.0 + tol


def is_band_projection(op: PosOperator, tol: float = DEFAULT_TOL) -> bool:
    """True iff the matrix is diagonal with entries in {0, 1} within tol; NaN never is."""
    d = np.diag(op.matrix)
    off = op.matrix - np.diag(d)
    return bool(
        np.all(np.abs(off) <= tol) and np.all(np.minimum(np.abs(d), np.abs(d - 1.0)) <= tol)
    )


def is_lattice_homomorphism(op: PosOperator) -> bool:
    """True iff |Tx| = T|x| for every x: each row is nonnegative with at most
    one nonzero entry, within ``DEFAULT_TOL``; NaN never is.

    A negative t_ij breaks it at e_j, two positive entries t_ij, t_ik at
    e_j - e_k (Aliprantis and Burkinshaw, *Positive Operators*, 2006).
    """
    m = op.matrix
    return bool(np.all(m >= -DEFAULT_TOL) and np.all((np.abs(m) > DEFAULT_TOL).sum(axis=1) <= 1))


def disjoint(x: LatticeVector, y: LatticeVector, tol: float = DEFAULT_TOL) -> bool:
    """True iff |x| and |y| have (numerically) no common support: || |x| ^ |y| || <= tol."""
    return norm(meet(absolute(x), absolute(y))) <= tol
