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
:class:`InstanceFormatError`.  An instance is returned and taken as the
triple ``(space, filtration, sequence)``, None for a part the file lacks.

One writer makes every instance file: :func:`instance_text` yields its
text and :func:`dump_instance` writes that text to a path.  The text is
compact JSON (no whitespace between tokens, keys in the order above) plus a
newline, byte for byte what ``json.dumps(doc, separators=(",", ":"))``
writes for the instance's document.  The reader accepts any JSON layout,
so files written with ``indent=2`` load to the same instance.  The writer
lays the text out one matrix at a time straight from the arrays, and it
holds finite floats only: a NaN or infinity raises ``ValueError`` before
anything is written.
Floats round-trip exactly (they are written as ``float.__repr__``, the
shortest repr, as ``json`` writes them).  Each distinct row is parsed once,
and formatted once while it repeats from one matrix to the next: a chain of
conditional expectations repeats its rows within a stage and from one stage
to the next (191 distinct of 9,217 rows in random-nested at 96).
"""

from __future__ import annotations

import json
import re
from itertools import chain
from pathlib import Path
from typing import Iterator

import numpy as np

from .filtration import Filtration
from .martingales import VectorSequence, sequence as make_sequence
from .operators import PosOperator, is_finite
from .spaces import LatticeSpace, NormKind, _frozen


class InstanceFormatError(ValueError):
    """Raised when a JSON document does not parse into a consistent instance."""


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
    """A new read-only float array of ``value`` if it holds finite JSON numbers.

    None passes through.  Strings, booleans (also among numbers), objects,
    nulls (which ``np.array(.., dtype=float)`` would coerce), NaN and
    infinities are rejected; ragged nesting raises ``ValueError``.
    """
    if value is None:
        return None
    rows = type(value) is list and all(type(row) is _Row for row in value)
    arr = np.array([row.array for row in value] if rows else value)  # rows stack their arrays
    if arr.dtype.kind not in "iuf" or _has_bool_leaf(value, arr.ndim):
        raise InstanceFormatError(f"{what} must hold numbers only")
    if not np.isfinite(arr).all():
        raise InstanceFormatError(f"{what} must be finite, not NaN or Infinity")
    return _frozen(arr.astype(float, copy=False))


def _has_bool_leaf(value, depth: int) -> bool:
    """Whether ``value``, lists nested ``depth`` deep, holds a bool.

    ``np.array`` reads a bool among numbers as 0 or 1, so the leaves' types
    are collected instead, by ``map`` and ``chain`` in C.  The rows that
    :func:`load_instance` reads are not entered: a row holds numbers only.
    """
    leaves = [value]
    for _ in range(depth):
        leaves = chain.from_iterable(v for v in leaves if not isinstance(v, _Row))
    return bool in set(map(type, leaves))


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


def sequence_from_dict(space: LatticeSpace, d: dict) -> VectorSequence:
    if not isinstance(d, dict) or not isinstance(d.get("vectors"), list):
        raise InstanceFormatError("sequence must be an object with a 'vectors' list")
    try:
        return make_sequence(space, _numbers(d["vectors"], "sequence vectors"))
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"bad sequence: {exc}") from exc


def instance_from_dict(d: dict) -> tuple:
    if not isinstance(d, dict) or "space" not in d:
        raise InstanceFormatError("instance must be an object with a 'space' field")
    space = space_from_dict(d["space"])
    filt = filtration_from_dict(d["filtration"], space) if "filtration" in d else None
    seq = sequence_from_dict(space, d["sequence"]) if "sequence" in d else None
    if filt is not None and seq is not None and filt.horizon != seq.horizon:
        raise InstanceFormatError(
            f"sequence has {seq.horizon} terms but filtration has "
            f"{filt.horizon} operators"
        )
    return space, filt, seq


#: A string token, escapes stepped over (an unterminated one runs to the end
#: of the text), or a row: a list of numbers, whose body is group 1.
_TOKEN = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|".*|\[([-+.,0-9eE \t\n\r]*)\]', re.DOTALL)


def _parse(text: str):
    """``json.loads(text)``, each distinct row parsed once: each row becomes a
    reference ``[k]`` in a skeleton of the document, its body keyed in a dict,
    and one ``json.loads`` parses the skeleton and one the distinct rows.  The
    text cannot forge a reference, as a list of one integer is a row.  A
    decode error is the one ``json.loads(text)`` raises."""
    bodies: dict[str, int] = {}

    def ref(match: re.Match) -> str:
        return match[0] if match[1] is None else f"[{bodies.setdefault(match[1], len(bodies))}]"

    try:
        skeleton = json.loads(_TOKEN.sub(ref, text))
        rows = "[[" + "],[".join(bodies) + "]]"
        bodies.clear()  # each body is held once, in ``rows``, while it is parsed
        rows = json.loads(rows)
    except json.JSONDecodeError:
        json.loads(text)  # raises the text's own error, with its line and column
        raise
    for k, row in enumerate(rows):  # in place: each list is freed once its row is made
        rows[k] = _Row(row)
    stack = [top := [skeleton]]
    while stack:
        node = stack.pop()
        for key, value in node.items() if type(node) is dict else enumerate(node):
            if type(value) is list and len(value) == 1 and type(value[0]) is int:
                node[key] = rows[value[0]]
            elif type(value) in (list, dict):
                stack.append(value)
    return top[0]


class _Row(list):
    """A row as ``json.loads`` reads it, with its values as one array."""

    def __init__(self, values: list) -> None:
        super().__init__(values)
        self.array = np.asarray(values)


def load_instance(path: str | Path) -> tuple:
    """Read and check an instance file: what ``instance_from_dict`` accepts of
    ``json.loads(text)``, each distinct row parsed once."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    try:
        data = _parse(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError as exc:  # the decoder recurses once per nested list or object
        raise InstanceFormatError(f"invalid JSON in {path}: nested too deeply") from exc
    del text  # freed before the arrays are built, so the two are never alive together
    return instance_from_dict(data)


def _layout(space: LatticeSpace, filt: Filtration | None,
            seq: VectorSequence | None) -> Iterator[str]:
    """The text pieces of an instance whose values are known to be finite.

    ``texts`` maps each row's bytes to its text for the matrix being laid
    out and ``last`` for the one before, so a row repeated within a matrix
    or from one to the next costs a lookup, and at most two matrices' texts
    are held; -0.0 keeps its own text apart from 0.0.
    """
    texts: dict[bytes, str] = {}
    last: dict[bytes, str] = {}

    def row(values: np.ndarray) -> str:
        key = values.tobytes()
        text = texts.get(key)
        if text is None:
            text = texts[key] = last.get(key) or (
                "[" + ",".join(map(float.__repr__, values.tolist())) + "]")
        return text

    def rows(table: np.ndarray) -> str:
        nonlocal texts, last
        last, texts = texts, {}
        return "[" + ",".join(map(row, table)) + "]"

    yield f'{{"space":{{"dim":{space.dim},"norm":"{space.norm_kind.value}"'
    if space.weights is not None:
        yield ',"weights":' + row(space.weights)
    yield "}"
    if filt is not None:
        yield ',"filtration":{"operators":['
        for k, e in enumerate(filt.ops):
            yield ("," if k else "") + '{"matrix":' + rows(e.matrix) + "}"
        yield "]}"
    if seq is not None:
        yield ',"sequence":{"vectors":' + rows(seq.coords) + "}"
    yield "}\n"


def instance_text(instance: tuple) -> Iterator[str]:
    """The pieces of the instance file: compact JSON plus a newline.

    They are built from the arrays one matrix at a time, without nested
    lists of Python floats, and a block stage's matrix is built only while
    it is written, so at most one stage matrix is alive.  Every value is
    checked first, so a non-finite one raises ``ValueError`` before any
    piece exists: JSON has no token for it.
    """
    space, filt, seq = instance
    if not (
        (space.weights is None or np.isfinite(space.weights).all())
        and (filt is None or all(is_finite(e) for e in filt.ops))
        and (seq is None or np.isfinite(seq.coords).all())
    ):
        raise ValueError("the instance holds a NaN or infinite value, which JSON cannot store")
    return _layout(space, filt, seq)


def dump_instance(instance: tuple, path: str | Path) -> None:
    pieces = instance_text(instance)
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(pieces)
