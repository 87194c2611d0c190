"""Finite-dimensional coordinate-ordered vector lattices.

A :class:`LatticeSpace` fixes a dimension and one of two norms: the sup
norm (sequence-space model) or a weighted L1 norm whose weights are the
measures of the coordinate cells (unit-interval model).  Vectors carry a
reference to their space; lattice operations are coordinate-wise numpy
operations on ``coords`` (``np.maximum``, ``np.minimum``, ``np.abs``).

All values are immutable after construction and every operation here is a
pure function, so spaces and vectors can be shared freely between threads.
The package's value classes derive from :class:`_Frozen`, plain classes
whose ``__init__`` is written out: no class here is generated at import.
"""

from __future__ import annotations

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


class _Frozen:
    """A value whose ``__init__`` sets each attribute once, by ``object.__setattr__``:
    assigning or deleting one afterwards raises ``AttributeError``.

    ``object.__setattr__`` keeps CPython's compact per-instance attribute
    storage; ``vars(self).update`` would build a full dict instead (248 against
    104 bytes for three attributes on CPython 3.11)."""

    def _set(self, **fields: object) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class _Record(_Frozen):
    """A report: equal to a report of its own class with equal fields, hashed and
    shown by them.  Its fields are the attributes ``__init__`` sets, in order."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(vars(self).values()) == tuple(vars(other).values())

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class LatticeSpace(_Frozen):
    """Coordinate model of a normed lattice: ``dim``, ``norm_kind`` and cell ``weights``.

    ``weights`` is required exactly when ``norm_kind`` is WEIGHTED_L1; every
    weight must be strictly positive (zero-measure cells are rejected).  Sup
    spaces ignore weights entirely.
    """

    def __init__(
        self, dim: int, norm_kind: NormKind = NormKind.SUP, weights: np.ndarray | None = None
    ) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        kind = NormKind(norm_kind)
        if kind is NormKind.WEIGHTED_L1:
            if weights is None:
                raise ValueError("weighted-L1 space requires weights")
            weights = _readonly(weights)
            if weights.shape != (dim,):
                raise ValueError(f"expected {dim} weights, got shape {weights.shape}")
            if not np.all(weights > 0.0):
                raise ValueError("all weights must be strictly positive")
        else:
            weights = None
        self._set(dim=dim, norm_kind=kind, weights=weights)

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


class LatticeVector(_Frozen):
    """An element of a :class:`LatticeSpace`, stored as float64 ``coords``."""

    def __init__(self, space: LatticeSpace, coords: np.ndarray) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coords", coords)
        self.__post_init__()

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


def _require_same_space(x: object, y: object, what: str = "vectors") -> None:
    if x.space != y.space:
        raise SpaceMismatchError(f"{what} live in different spaces: {x.space} vs {y.space}")


def _require_tolerance(name: str, value: float) -> None:
    """Every tolerance and eps is finite and >= 0: an infinite one passes every law."""
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


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
