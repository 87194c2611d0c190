"""Finite-dimensional coordinate-ordered vector lattices.

A :class:`LatticeSpace` fixes a dimension and one of two norms: the sup
norm (sequence-space model) or a weighted L1 norm whose weights are the
measures of the coordinate cells (unit-interval model).  Vectors carry a
reference to their space; lattice operations are coordinate-wise numpy
operations on ``coords`` (``np.maximum``, ``np.minimum``, ``np.abs``).

All values are immutable after construction and every operation here is a
pure function, so spaces and vectors can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

#: Library-wide absolute tolerance for norm-valued equality checks.
DEFAULT_TOL = 1e-9


class NormKind(str, Enum):
    SUP = "sup"
    WEIGHTED_L1 = "l1"


class SpaceMismatchError(ValueError):
    """Raised when an operation mixes vectors/operators from different spaces."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, just built by the library, made read-only: :func:`_readonly` keeps it."""
    arr.setflags(write=False)
    return arr


def _readonly(values: Iterable[float]) -> np.ndarray:
    """``values`` as a read-only float array; callers check its shape.

    A read-only float array that owns its memory is kept; anything else, a
    caller's writable array or a view of one included, is copied."""
    if isinstance(values, np.ndarray) and values.dtype == float:
        if values.flags.owndata and not values.flags.writeable:
            return values
    return _frozen(np.array(values, dtype=float))


@dataclass(frozen=True, eq=False)
class LatticeSpace:
    """Coordinate model of a normed lattice: dimension, norm kind, cell weights.

    ``weights`` is required exactly when ``norm_kind`` is WEIGHTED_L1; every
    weight must be strictly positive (zero-measure cells are rejected).  Sup
    spaces ignore weights entirely.
    """

    dim: int
    norm_kind: NormKind = NormKind.SUP
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        kind = NormKind(self.norm_kind)
        object.__setattr__(self, "norm_kind", kind)
        if kind is NormKind.WEIGHTED_L1:
            if self.weights is None:
                raise ValueError("weighted-L1 space requires weights")
            w = _readonly(self.weights)
            if w.shape != (self.dim,):
                raise ValueError(f"expected {self.dim} weights, got shape {w.shape}")
            if not np.all(w > 0.0):
                raise ValueError("all weights must be strictly positive")
            object.__setattr__(self, "weights", w)
        else:
            object.__setattr__(self, "weights", None)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatticeSpace):
            return NotImplemented
        if self.dim != other.dim or self.norm_kind != other.norm_kind:
            return False
        if self.weights is None:
            return other.weights is None
        return other.weights is not None and np.array_equal(self.weights, other.weights)

    def __hash__(self) -> int:
        wbytes = b"" if self.weights is None else self.weights.tobytes()
        return hash((self.dim, self.norm_kind, wbytes))

    def __repr__(self) -> str:
        return f"LatticeSpace(dim={self.dim}, norm_kind={self.norm_kind.value!r})"


@dataclass(frozen=True, eq=False)
class LatticeVector:
    """An element of a :class:`LatticeSpace`, stored as float64 coordinates."""

    space: LatticeSpace
    coords: np.ndarray

    def __post_init__(self) -> None:
        arr = _readonly(self.coords)
        if arr.shape != (self.space.dim,):
            raise ValueError(
                f"expected {self.space.dim} coordinates, got shape {arr.shape}"
            )
        object.__setattr__(self, "coords", arr)

    # Linear structure; the lattice structure is coordinate-wise on ``coords``.
    def __add__(self, other: LatticeVector) -> LatticeVector:
        _require_same_space(self, other)
        return LatticeVector(self.space, self.coords + other.coords)

    def __sub__(self, other: LatticeVector) -> LatticeVector:
        _require_same_space(self, other)
        return LatticeVector(self.space, self.coords - other.coords)

    def __neg__(self) -> LatticeVector:
        return LatticeVector(self.space, -self.coords)

    def __mul__(self, scalar: float) -> LatticeVector:
        return LatticeVector(self.space, self.coords * float(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"LatticeVector({np.array2string(self.coords, max_line_width=70)})"


def _require_same_space(x: LatticeVector, y: LatticeVector) -> None:
    if x.space != y.space:
        raise SpaceMismatchError(f"vectors live in different spaces: {x.space} vs {y.space}")


def vector(space: LatticeSpace, coords: Sequence[float]) -> LatticeVector:
    return LatticeVector(space, np.asarray(coords, dtype=float))


def zero(space: LatticeSpace) -> LatticeVector:
    return LatticeVector(space, np.zeros(space.dim))


def basis(space: LatticeSpace, i: int) -> LatticeVector:
    """The i-th coordinate unit vector (1-based)."""
    if not 1 <= i <= space.dim:
        raise ValueError(f"basis index {i} out of range 1..{space.dim}")
    coords = np.zeros(space.dim)
    coords[i - 1] = 1.0
    return LatticeVector(space, coords)


def row_norms(space: LatticeSpace, rows: np.ndarray) -> np.ndarray:
    """Norm of each row of ``rows`` (shape (..., dim)): sup or weighted L1."""
    a = np.abs(rows)
    if space.norm_kind is NormKind.SUP:
        return a.max(axis=-1)
    return a @ space.weights


def norm(x: LatticeVector) -> float:
    """Sup norm (max |x_i|) or weighted L1 norm (sum of w_i |x_i|)."""
    return float(row_norms(x.space, x.coords))
