"""JSON wire formats for spaces, operators, filtrations, sequences, instances.

Schemas:

  space      {"dim": n, "norm": "sup" | "l1", "weights": [..]}
             (weights present exactly for "l1")
  operator   {"matrix": [[..], ..]}            paired with a space
  filtration {"space": {..}, "operators": [{"matrix": ..}, ..]}
  sequence   {"vectors": [[..], ..]}
  instance   {"space": {..}, "filtration"?: {"operators": [..]},
              "sequence"?: {"vectors": [..]}}

An instance file parses iff ``dim`` is an integer, every weight, matrix
entry and vector coordinate is a finite number (not ``NaN`` or
``Infinity``, which ``json`` reads, and not ``true`` or ``false``), and
all dimensions are mutually consistent; anything else raises
:class:`InstanceFormatError`.

On disk an instance is exactly ``json.dumps(instance.to_dict(),
separators=(",", ":"))`` plus a newline: compact JSON, with no whitespace
between tokens.  The reader accepts any JSON layout, so files written with
``indent=2`` load to the same instance.  The writer lays the text out one
matrix at a time straight from the arrays, and it holds finite floats
only: a NaN or infinity raises ``ValueError`` before anything is written.
Floats round-trip exactly (they are written as ``float.__repr__``, the
shortest repr, as ``json`` writes them); each distinct bit pattern of a
matrix or of the sequence is formatted once.
"""

from __future__ import annotations

import json
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .filtration import Filtration
from .martingales import VectorSequence, sequence as make_sequence
from .operators import Operator, PosOperator, is_finite
from .spaces import LatticeSpace, NormKind


class InstanceFormatError(ValueError):
    """Raised when a JSON document does not parse into a consistent instance."""


#: False while :func:`load_instance` reads a text holding neither ``true``
#: nor ``false``: no JSON boolean can be in it, so no leaf scan is needed.
_bools_possible: ContextVar[bool] = ContextVar("bools_possible", default=True)


def space_to_dict(space: LatticeSpace) -> dict:
    d: dict = {"dim": space.dim, "norm": space.norm_kind.value}
    if space.norm_kind is NormKind.WEIGHTED_L1:
        d["weights"] = space.weights.tolist()
    return d


def space_from_dict(d: dict) -> LatticeSpace:
    if not isinstance(d, dict):
        raise InstanceFormatError("space descriptor must be an object")
    try:
        dim = d["dim"]
        kind = NormKind(d.get("norm", "sup"))
    except (KeyError, ValueError) as exc:
        raise InstanceFormatError(f"bad space descriptor: {exc}") from exc
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise InstanceFormatError(f"bad space descriptor: dim must be an integer, got {dim!r}")
    weights = d.get("weights")
    try:
        if kind is NormKind.WEIGHTED_L1:
            return LatticeSpace(dim, kind, _numbers(weights, "weights"))
        return LatticeSpace(dim, kind)
    except ValueError as exc:
        raise InstanceFormatError(f"bad space descriptor: {exc}") from exc


def _numbers(value, what: str) -> np.ndarray | None:
    """``value`` as a float array if it is (nested lists of) finite JSON numbers.

    None passes through.  Strings, booleans (also among numbers), objects,
    nulls (which ``np.asarray(.., dtype=float)`` would coerce), NaN and
    infinities are rejected; ragged nesting raises ``ValueError``.
    """
    if value is None:
        return None
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf" or (_bools_possible.get() and _has_bool_leaf(value, arr.ndim)):
        raise InstanceFormatError(f"{what} must hold numbers only")
    if not np.isfinite(arr).all():
        raise InstanceFormatError(f"{what} must be finite, not NaN or Infinity")
    return arr.astype(float, copy=False)


def _has_bool_leaf(value, depth: int) -> bool:
    """Whether ``value``, lists nested ``depth`` deep, holds a bool.

    ``np.asarray`` reads a bool among numbers as 0 or 1, so the leaves'
    types are collected instead, by ``map`` and ``chain`` in C.
    """
    leaves = value
    for _ in range(depth - 1):
        leaves = chain.from_iterable(leaves)
    return depth > 0 and bool in set(map(type, leaves))


def operator_to_dict(op: Operator) -> dict:
    return {"matrix": op.matrix.tolist()}


def operator_from_dict(space: LatticeSpace, d: dict) -> PosOperator:
    if not isinstance(d, dict) or "matrix" not in d:
        raise InstanceFormatError("operator must be an object with a 'matrix' field")
    try:
        return PosOperator(space, _numbers(d["matrix"], "operator matrix"))
    except ValueError as exc:
        raise InstanceFormatError(f"bad operator: {exc}") from exc


def filtration_from_dict(d: dict, space: LatticeSpace | None = None) -> Filtration:
    if not isinstance(d, dict):
        raise InstanceFormatError("filtration must be an object")
    if "space" in d:
        own = space_from_dict(d["space"])
        if space is not None and own != space:
            raise InstanceFormatError("filtration space disagrees with instance space")
        space = own
    if space is None:
        raise InstanceFormatError("filtration needs a space descriptor")
    ops = d.get("operators")
    if not isinstance(ops, list) or not ops:
        raise InstanceFormatError("filtration needs a nonempty 'operators' list")
    return Filtration(space, tuple(operator_from_dict(space, o) for o in ops))


def sequence_to_dict(seq: VectorSequence) -> dict:
    return {"vectors": seq.coords.tolist()}


def sequence_from_dict(space: LatticeSpace, d: dict) -> VectorSequence:
    if not isinstance(d, dict) or not isinstance(d.get("vectors"), list):
        raise InstanceFormatError("sequence must be an object with a 'vectors' list")
    try:
        return make_sequence(space, _numbers(d["vectors"], "sequence vectors"))
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"bad sequence: {exc}") from exc


@dataclass(frozen=True)
class Instance:
    """One space plus whatever a command needs: maybe operators, maybe terms."""

    space: LatticeSpace
    filtration: Filtration | None = None
    sequence: VectorSequence | None = None

    def to_dict(self) -> dict:
        d: dict = {"space": space_to_dict(self.space)}
        if self.filtration is not None:
            d["filtration"] = {
                "operators": [operator_to_dict(e) for e in self.filtration.ops]
            }
        if self.sequence is not None:
            d["sequence"] = sequence_to_dict(self.sequence)
        return d


def instance_from_dict(d: dict) -> Instance:
    if not isinstance(d, dict) or "space" not in d:
        raise InstanceFormatError("instance must be an object with a 'space' field")
    space = space_from_dict(d["space"])
    filt = None
    if "filtration" in d:
        filt = filtration_from_dict(d["filtration"], space)
    seq = None
    if "sequence" in d:
        seq = sequence_from_dict(space, d["sequence"])
    if filt is not None and seq is not None and filt.horizon != seq.horizon:
        raise InstanceFormatError(
            f"sequence has {seq.horizon} terms but filtration has "
            f"{filt.horizon} operators"
        )
    return Instance(space, filt, seq)


def load_instance(path: str | Path) -> Instance:
    """Read and check an instance file; exactly what :func:`instance_from_dict`
    accepts, with the boolean leaf scan skipped when the text holds neither
    ``true`` nor ``false``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON in {path}: {exc}") from exc
    bools_possible = "true" in text or "false" in text
    del text  # freed before the arrays are built, so the three are never alive together
    token = _bools_possible.set(bools_possible)
    try:
        return instance_from_dict(data)
    finally:
        _bools_possible.reset(token)


def _float_list(items: Iterable[str]) -> str:
    """Formatted floats as a compact JSON list."""
    return "[" + ",".join(items) + "]"


def _rows(rows: np.ndarray) -> str:
    """A nonempty 2-D array as a compact JSON list of rows.

    Each distinct value is formatted once.  Values are told apart by their
    bits, not by ``==``, so -0.0 keeps its own text.
    """
    bits, inverse = np.unique(rows.view(np.int64), return_inverse=True)
    texts = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
    return _float_list(map(_float_list, texts[inverse.reshape(rows.shape)].tolist()))


def _layout(instance: Instance) -> Iterator[str]:
    """The text pieces of an instance whose values are known to be finite."""
    space = instance.space
    yield f'{{"space":{{"dim":{space.dim},"norm":"{space.norm_kind.value}"'
    if space.weights is not None:
        yield ',"weights":' + _float_list(map(float.__repr__, space.weights.tolist()))
    yield "}"
    if instance.filtration is not None:
        yield ',"filtration":{"operators":['
        for k, e in enumerate(instance.filtration.ops):
            yield ("," if k else "") + '{"matrix":' + _rows(e.matrix) + "}"
        yield "]}"
    if instance.sequence is not None:
        yield ',"sequence":{"vectors":' + _rows(instance.sequence.coords) + "}"
    yield "}\n"


def _instance_text(instance: Instance) -> Iterator[str]:
    """The pieces of ``json.dumps(instance.to_dict(), separators=(",", ":")) + "\\n"``.

    They are built from the arrays one matrix at a time, without the nested
    lists of ``to_dict``, and a block stage's matrix is built only while it
    is written, so at most one stage matrix is alive.  Every value is
    checked first, so a non-finite one raises ``ValueError`` before any
    piece exists: JSON has no token for it.
    """
    space, filt, seq = instance.space, instance.filtration, instance.sequence
    if not (
        (space.weights is None or np.isfinite(space.weights).all())
        and (filt is None or all(is_finite(e) for e in filt.ops))
        and (seq is None or np.isfinite(seq.coords).all())
    ):
        raise ValueError("the instance holds a NaN or infinite value, which JSON cannot store")
    return _layout(instance)


def dump_instance(instance: Instance, path: str | Path) -> None:
    pieces = _instance_text(instance)
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(pieces)
