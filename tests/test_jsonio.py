"""Wire-format round trips, the instance writer, and rejection of bad documents."""

import argparse
import io
import json
import re
import tempfile
import time
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _oracles import dump_text, instance_doc, read_instance
from lattice_lab import (
    Filtration,
    LatticeSpace,
    NormKind,
    PosOperator,
    VectorSequence,
    basis,
    build_dyadic,
    build_pairing,
    build_random_nested,
    haar_example,
    terminal_sequence,
)
from lattice_lab import cli, jsonio
from lattice_lab.jsonio import (
    InstanceFormatError,
    dump_instance,
    filtration_from_dict,
    instance_from_dict,
    instance_text,
    load_instance,
    sequence_from_dict,
    space_from_dict,
)


def _round_trip(instance, tmp_path) -> tuple[tuple, str]:
    """``instance`` through ``dump_instance`` and ``load_instance``, and the file's text."""
    path = tmp_path / "instance.json"
    dump_instance(instance, path)
    return load_instance(path), path.read_text(encoding="utf-8")


def test_space_round_trip_sup(tmp_path):
    space = LatticeSpace(4)
    (again, filt, seq), text = _round_trip((space, None, None), tmp_path)
    assert again == space and again.weights is None
    assert filt is None and seq is None
    assert "weights" not in text


def test_space_round_trip_weighted(tmp_path):
    space = LatticeSpace(3, NormKind.WEIGHTED_L1, [0.2, 0.3, 5e-324])
    (again, _, _), _ = _round_trip((space, None, None), tmp_path)
    assert again == space
    assert np.array_equal(again.weights.view(np.int64), space.weights.view(np.int64))


def test_space_rejects_bad_documents():
    with pytest.raises(InstanceFormatError):
        space_from_dict([1, 2])
    with pytest.raises(InstanceFormatError):
        space_from_dict({"norm": "sup"})
    with pytest.raises(InstanceFormatError):
        space_from_dict({"dim": 2, "norm": "l1"})  # missing weights
    with pytest.raises(InstanceFormatError):
        space_from_dict({"dim": 2, "norm": "euclidean"})


def _filtration_doc(filt):
    """The standalone filtration document: a space and its operators."""
    doc = instance_doc((filt.space, filt, None))
    return {"space": doc["space"], **doc["filtration"]}


def test_filtration_round_trip_exact():
    filt = build_dyadic(3)
    doc = json.loads(json.dumps(_filtration_doc(filt)))
    again = filtration_from_dict(doc)
    assert again.space == filt.space
    for a, b in zip(again.ops, filt.ops):
        assert np.array_equal(a.matrix, b.matrix)  # bit-for-bit through JSON


def test_filtration_space_disagreement_rejected():
    filt = build_pairing(2)
    doc = _filtration_doc(filt)
    with pytest.raises(InstanceFormatError):
        filtration_from_dict(doc, LatticeSpace(3))


def test_filtration_needs_operator_list():
    with pytest.raises(InstanceFormatError):
        filtration_from_dict({"space": {"dim": 2, "norm": "sup"}, "operators": []})


def test_sequence_round_trip_and_errors(tmp_path):
    filt, seq = haar_example(2)
    rows = np.vstack((seq.coords, [-0.0, 5e-324, 1 / 3, -1e308]))
    seq = VectorSequence(filt.space, rows)
    (space, again_filt, again), _ = _round_trip((filt.space, None, seq), tmp_path)
    assert space == filt.space and again_filt is None
    assert np.array_equal(again.coords.view(np.int64), rows.view(np.int64))
    with pytest.raises(InstanceFormatError):
        sequence_from_dict(filt.space, {"vectors": [[1.0, 2.0]]})  # wrong width


def test_instance_round_trip(tmp_path):
    filt, seq = haar_example(3)
    path = tmp_path / "instance.json"
    dump_instance((filt.space, filt, seq), path)
    space, again_filt, again = load_instance(path)
    assert space == filt.space
    assert again_filt is not None and again is not None
    for a, b in zip(again.vectors, seq.vectors):
        assert np.array_equal(a.coords, b.coords)


def test_instance_horizon_mismatch_rejected():
    filt, seq = haar_example(3)
    doc = instance_doc((filt.space, filt, seq))
    doc["sequence"]["vectors"] = doc["sequence"]["vectors"][:2]
    with pytest.raises(InstanceFormatError):
        instance_from_dict(doc)


def test_instance_requires_space():
    with pytest.raises(InstanceFormatError):
        instance_from_dict({"sequence": {"vectors": [[1.0]]}})


def test_load_instance_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(InstanceFormatError):
        load_instance(path)


def test_load_instance_missing_file(tmp_path):
    with pytest.raises(InstanceFormatError):
        load_instance(tmp_path / "absent.json")


EDGE_FLOATS = (-0.0, 5e-324, 1e308, 2.0, 1 / 3)
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
POSITIVE = st.one_of(
    st.sampled_from([v for v in EDGE_FLOATS if v > 0]),
    st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False),
)


@st.composite
def instances(draw):
    """Filtration-only, sequence-only or full instances of any values, dims 1..12."""
    dim = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(list(NormKind)))
    weights = draw(arrays(float, dim, elements=POSITIVE)) if kind is NormKind.WEIGHTED_L1 else None
    space = LatticeSpace(dim, kind, weights)
    horizon = draw(st.integers(1, 3))
    parts = draw(st.sampled_from(["filtration", "sequence", "both"]))
    filt = seq = None
    if parts != "sequence":
        mats = draw(arrays(float, (horizon, dim, dim), elements=FINITE))
        filt = Filtration(space, tuple(PosOperator(space, m) for m in mats))
    if parts != "filtration":
        rows = draw(arrays(float, (horizon, dim), elements=FINITE))
        seq = VectorSequence(space, rows)
    return space, filt, seq


def gen_stdout(instance) -> str:
    """What ``gen`` prints for a builder that returns ``instance``."""
    out = io.StringIO()
    with mock.patch.object(cli, "_gen_instance", lambda args: instance), redirect_stdout(out):
        assert cli.main(["gen", "truncation"]) == 0
    return out.getvalue()


@settings(max_examples=120, deadline=None)
@given(instances())
def test_writers_match_the_stdlib_encoder_byte_for_byte(instance):
    want = dump_text(instance)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        dump_instance(instance, path)
        assert path.read_bytes() == want.encode("utf-8")
    assert gen_stdout(instance) == want


def _bits(instance) -> list:
    """Every float of an instance as ``int64`` views, so ``-0.0`` counts."""
    space, filt, seq = instance
    arrays = [space.weights if space.weights is not None else np.empty(0)]
    if filt is not None:
        arrays += [e.matrix for e in filt.ops]
    if seq is not None:
        arrays.append(seq.coords)
    return [a.view(np.int64).tolist() for a in arrays]


@settings(max_examples=120, deadline=None)
@given(instances())
def test_indented_and_compact_files_load_bit_identically(instance):
    # Every file written before the compact layout was indent=2 text.
    layouts = [json.dumps(instance_doc(instance), indent=2) + "\n", dump_text(instance)]
    loaded = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, text in enumerate(layouts):
            path = Path(tmp) / f"instance-{k}.json"
            path.write_text(text, encoding="utf-8")
            loaded.append(load_instance(path))
    indented, compact = loaded
    assert indented[0] == compact[0] == instance[0]
    assert (indented[1] is None) == (instance[1] is None)
    assert (indented[2] is None) == (instance[2] is None)
    assert _bits(indented) == _bits(compact) == _bits(instance)


def _builder_instances() -> list[tuple]:
    """Every ``gen`` builder at a small size, as ``gen`` builds it."""
    sizes = {"dyadic": 2, "haar": 2, "pairing": 2, "scale-head": 2}
    built = []
    for name, (_, build, _) in cli.BUILDERS.items():
        args = argparse.Namespace(seed=3)
        filt, seq = build(sizes.get(name, 5), args)
        built.append((filt.space, filt, seq))
    return built


BUILT = _builder_instances()
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
#: What a number of a valid file is replaced by: tokens the reader must
#: refuse or read as the stdlib decoder does.
NUMBER_REPLACEMENTS = (
    "true", "false", "null", "NaN", "Infinity", "-Infinity", '"1"', "01", "1.", "-0",
    "1e400", "{}", '{"a": 1}', "[]", "[1]", "[[1]]", "[true]", '["1"]',
    "100000000000000000000000000000", "18446744073709551615",
)
#: Members added to an object of a valid file: lists and brackets the schema
#: does not read, escaped quotes, and keys or values shaped like a row
#: reference (a list of one integer).
EXTRA_MEMBERS = (
    '"note": "[1,2]"',
    '"extra": [[1, 2], [3]]',
    '"\\u0000": [0]',
    '"\\u0000": 0',
    '"k[\\"]": "a]\\"[b\\\\"',
    '"deep": {"a": [[[0]]], "b": [{"c": [1]}]}',
    '"mixed": [0, [1], "[2]", {"[": "]"}]',
    '"refs": [[0], [1], []]',
)

#: An edit's pattern and what a match of it is replaced by.
TEXT_EDITS = {
    "number": (NUMBER.pattern, NUMBER_REPLACEMENTS),
    "member": (r"(?<=\{)", tuple(member + "," for member in EXTRA_MEMBERS)),
    "ragged": (r",\s*" + NUMBER.pattern, ("",)),
}


@st.composite
def instance_texts(draw):
    """Builder files and random instances, compact or indented, maybe with
    whole numbers written as integers (as by hand), and with up to three
    edits: a number replaced, a member added to an object, a number dropped
    from a row (ragged) or the text cut short."""
    instance = draw(st.one_of(st.sampled_from(BUILT), instances()))
    if draw(st.booleans()):
        text = dump_text(instance)
    else:
        text = json.dumps(instance_doc(instance), indent=2) + "\n"
    if draw(st.booleans()):
        text = re.sub(r"(?<=\d)\.0(?=[,\]\s])", "", text)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["number", "member", "ragged", "cut"]))
        if edit == "cut":
            text = text[: draw(st.integers(0, max(len(text) - 1, 0)))]
            continue
        pattern, replacements = TEXT_EDITS[edit]
        spans = [m.span() for m in re.finditer(pattern, text)]
        if spans:
            start, end = draw(st.sampled_from(spans))
            text = text[:start] + draw(st.sampled_from(replacements)) + text[end:]
    return text


def test_strings_are_stepped_over_in_linear_time_and_memory(tmp_path):
    # 20,000 escaped quotes after an opening one: scanning the string again
    # from each quote would take seconds.
    path = tmp_path / "open.json"
    path.write_text('{"note": "' + '\\"' * 20_000, encoding="utf-8")
    start = time.perf_counter()
    with pytest.raises(InstanceFormatError, match="invalid JSON"):
        load_instance(path)
    assert time.perf_counter() - start < 1.0
    # A 2 MB string: a scan that keeps a backtracking frame per character
    # would take about 280 MB.
    path = tmp_path / "note.json"
    path.write_text('{"note": "' + "x" * 2**21 + '", "space": {"dim": 1}}', encoding="utf-8")
    tracemalloc.start()
    try:
        assert load_instance(path)[0].dim == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak


def _read(read, path):
    """What ``read`` makes of the file: the instance's bits, or its error."""
    try:
        instance = read(path)
    except InstanceFormatError as exc:
        return "refused", str(exc)
    space, filt, seq = instance
    return "read", (space.dim, space.norm_kind, filt is None, seq is None, _bits(instance))


#: A dim-1 file of integer rows, each shaped like a row reference, after
#: ``{`` and ``PREFIX``.
ONE_BY_ONE = (
    '{PREFIX"space": {"dim": 1, "norm": "sup"}, "filtration": {"operators": '
    '[{"matrix": [[1]]}, {"matrix": [[0]]}]}, "sequence": {"vectors": [[0], [1]]}}'
)


@settings(max_examples=400, deadline=None)
@given(instance_texts())
@example(ONE_BY_ONE.replace("PREFIX", '"odd": "\\"[0]", '))  # an escaped quote, then brackets
@example(ONE_BY_ONE.replace("PREFIX", '"[\\"": [[1], "]"], "\\u0000": [0], '))
@example(ONE_BY_ONE.replace("PREFIX", '"k\\\\": "[0]", "n": [[0], [true]], '))
# lists of one constant, which are no rows and no references
@example(ONE_BY_ONE.replace("PREFIX", "").replace("[[1]]", "[[true]]"))
@example(ONE_BY_ONE.replace("PREFIX", "").replace("[[0], [1]]", "[[NaN], [1]]"))
def test_reader_matches_the_stdlib_reader(text):
    # The same texts accepted, the same bits read, the same message on refusal.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        path.write_text(text, encoding="utf-8")
        assert _read(load_instance, path) == _read(read_instance, path)


def test_edge_floats_are_written_as_json_writes_them(tmp_path):
    space = LatticeSpace(5, NormKind.WEIGHTED_L1, [v for v in EDGE_FLOATS if v > 0] + [7.5])
    row = np.array(EDGE_FLOATS)
    instance = (
        space,
        Filtration(space, (PosOperator(space, np.tile(row, (5, 1))),)),
        VectorSequence(space, row[None, :]),
    )
    dump_instance(instance, tmp_path / "edge.json")
    text = (tmp_path / "edge.json").read_text(encoding="utf-8")
    assert text == dump_text(instance)
    assert "-0.0," in text and "5e-324" in text and "1e+308" in text
    _, again, _ = load_instance(tmp_path / "edge.json")
    assert np.array_equal(again.ops[0].matrix, instance[1].ops[0].matrix)


def test_repeated_values_and_signed_zeros_keep_their_own_text(tmp_path):
    # The writer formats each distinct row once, keyed by its bytes: 0.0 ==
    # -0.0 but they are written differently, so rows that differ only in the
    # sign of a zero must not share a text.  The second stage repeats the
    # first one's rows and the third flips the sign of every zero.
    z, nz, tiny, third = 0.0, -0.0, 5e-324, 1 / 3
    matrix = np.array(
        [
            [z, nz, third, z],
            [nz, nz, tiny, third],
            [third, tiny, z, nz],
            [tiny, third, nz, z],
        ]
    )
    flipped = np.where(matrix == 0.0, -matrix, matrix)
    space = LatticeSpace(4)
    stages = (matrix, matrix[::-1], flipped)
    instance = (
        space,
        Filtration(space, tuple(PosOperator(space, m) for m in stages)),
        VectorSequence(space, np.vstack((matrix[:2], flipped[:1]))),
    )
    dump_instance(instance, tmp_path / "zeros.json")
    text = (tmp_path / "zeros.json").read_text(encoding="utf-8")
    assert text == dump_text(instance)
    assert gen_stdout(instance) == text
    # five -0.0 in each of the first two stages, four in the flipped one,
    # three plus two in the vectors
    assert text.count("-0.0") == 5 + 5 + 4 + 3 + 2


def test_the_writer_holds_the_row_texts_of_two_matrices_at_most():
    # No row repeats: a writer that kept every distinct row's text for the
    # whole dump would hold the file's 2.5 MB of text (4 MB traced).
    space = LatticeSpace(64)
    mats = np.random.default_rng(5).uniform(size=(32, 64, 64))
    filt = Filtration(space, tuple(PosOperator(space, m) for m in mats))
    tracemalloc.start()
    try:
        size = sum(map(len, instance_text((space, filt, None))))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size > 2 * 2**20 and peak < 2**20, (size, peak)


@pytest.mark.parametrize(
    "where, bad",
    [("weights", np.inf)]  # a space admits +inf weights, never NaN or negative ones
    + [(where, bad) for where in ("matrix", "vector") for bad in (np.nan, np.inf, -np.inf)],
)
def test_writer_refuses_non_finite_values(tmp_path, where, bad):
    weights, m, x = np.full(2, 0.5), np.eye(2), np.ones(2)
    {"weights": weights, "matrix": m, "vector": x}[where].flat[1] = bad
    space = LatticeSpace(2, NormKind.WEIGHTED_L1, weights)
    instance = (
        space,
        Filtration(space, (PosOperator(space, m),)),
        VectorSequence(space, x[None, :]),
    )
    path = tmp_path / "bad.json"
    with pytest.raises(ValueError, match="NaN or infinite"):
        dump_instance(instance, path)
    assert not path.exists()


@pytest.mark.parametrize("dim", [2.7, 2.0, True, "2", None])
def test_space_dim_must_be_an_integer(dim):
    with pytest.raises(InstanceFormatError, match="dim must be an integer"):
        space_from_dict({"dim": dim, "norm": "sup"})


@pytest.mark.parametrize(
    "matrix",
    [
        {"rows": [[1.0, 0.0], [0.0, 1.0]]},
        [["1.0", "0.0"], ["0.0", "1.0"]],
        [[1.0, "0.0"], [0.0, 1.0]],
        [[True, False], [False, True]],
        [[True, 0.5], [0.0, 1.0]],
        [[1, 0], [False, 1]],
        [[1.0, None], [0.0, 1.0]],
        [[1.0, 0.0], [0.0]],
        "identity",
    ],
)
def test_operator_matrix_must_be_numbers(matrix):
    doc = {"space": {"dim": 2, "norm": "sup"}, "operators": [{"matrix": matrix}]}
    with pytest.raises(InstanceFormatError):
        filtration_from_dict(doc)


def test_weights_and_vectors_must_be_numbers():
    with pytest.raises(InstanceFormatError):
        space_from_dict({"dim": 2, "norm": "l1", "weights": ["0.5", "0.5"]})
    with pytest.raises(InstanceFormatError):
        sequence_from_dict(LatticeSpace(2), {"vectors": [["1.0", "2.0"]]})
    with pytest.raises(InstanceFormatError):
        sequence_from_dict(LatticeSpace(2), {"vectors": [{"x": 1.0}]})
    with pytest.raises(InstanceFormatError, match="numbers only"):
        space_from_dict({"dim": 2, "norm": "l1", "weights": [True, 0.5]})
    with pytest.raises(InstanceFormatError, match="numbers only"):
        sequence_from_dict(LatticeSpace(2), {"vectors": [[True, 1.5]]})
    with pytest.raises(InstanceFormatError, match="numbers only"):
        sequence_from_dict(LatticeSpace(2), {"vectors": [[1.0, 2.0], [3, False]]})


def test_each_distinct_row_is_parsed_once_and_scanned_by_no_leaf(tmp_path):
    filt = build_random_nested(24, 24, 5)
    seq = terminal_sequence(filt, basis(filt.space, 1))
    path = tmp_path / "nested.json"
    dump_instance((filt.space, filt, seq), path)
    tables = [filt.space.weights[None, :], *(e.matrix for e in filt.ops), seq.coords]
    rows = [row.tobytes() for table in tables for row in table]
    with mock.patch.object(jsonio.json, "loads", wraps=json.loads) as loads, \
            mock.patch.object(jsonio, "_has_bool_leaf", wraps=jsonio._has_bool_leaf) as scan:
        loaded = load_instance(path)
    skeleton, distinct = (call.args[0] for call in loads.call_args_list)
    assert len(json.loads(distinct)) == len(set(rows)) < len(rows) / 4
    # The boolean scan gets the weights and each stage's rows as rows, which
    # it does not enter: a row of a file holds numbers only.
    assert scan.call_count == len(tables)
    for call in scan.call_args_list:
        value = call.args[0]
        assert isinstance(value, jsonio._Row) or all(isinstance(r, jsonio._Row) for r in value)
    assert _bits(loaded) == _bits((filt.space, filt, seq))
    with pytest.raises(InstanceFormatError, match="numbers only"):
        sequence_from_dict(LatticeSpace(2), {"vectors": [[True, 1.5]]})  # the dict path still scans


def _numbers_or_error(value):
    try:
        arr = jsonio._numbers(value, "operator matrix")
    except ValueError as exc:  # InstanceFormatError, or numpy's message on ragged rows
        return type(exc), str(exc)
    return arr.dtype, arr.shape, arr.tobytes()


@pytest.mark.parametrize("rows", [
    "[[1, 2], [1.5, -0.0]]", "[[1, 2], [3, 4]]", "[[1, 2], [3]]", "[[], [1]]", "[[], []]",
    "[[9223372036854775808], [-1]]", "[[100000000000000000000000000000], [1]]",
    "[[1e400], [1]]",
])
def test_a_matrix_of_rows_is_one_array_of_the_rows_arrays(rows):
    # Values, dtype and message as of the plain lists, ragged rows included,
    # and no ``__array__`` call per row.
    plain = json.loads(rows)
    read = [jsonio._Row(row) for row in plain]
    with mock.patch.object(jsonio._Row, "__array__", create=True,
                           side_effect=AssertionError("per row")):
        assert _numbers_or_error(read) == _numbers_or_error(plain)


@pytest.mark.parametrize(
    "extra",
    [{"true_to_form": 1}, {"note": "false alarm"}, {"flags": "trueish"}],
)
def test_true_or_false_in_a_key_or_string_still_loads(tmp_path, extra):
    doc = {"space": {"dim": 2, "norm": "sup"}, "sequence": {"vectors": [[1, 1.5]]}, **extra}
    path = tmp_path / "words.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_instance(path)[2].coords.tolist() == [[1.0, 1.5]]


@pytest.mark.parametrize("vectors", ["[[true, 1.5]]", "[[1.5, false]]"])
def test_boolean_among_numbers_in_a_file_is_refused(tmp_path, vectors):
    path = tmp_path / "bool.json"
    path.write_text(
        '{"space": {"dim": 2, "norm": "sup"}, "sequence": {"vectors": ' + vectors + "}}",
        encoding="utf-8",
    )
    with pytest.raises(InstanceFormatError, match="numbers only"):
        load_instance(path)


def test_flat_vectors_do_not_load():
    with pytest.raises(InstanceFormatError):
        sequence_from_dict(LatticeSpace(2), {"vectors": [1.0, 2.0]})
    with pytest.raises(InstanceFormatError):
        instance_from_dict(
            {"space": {"dim": 2, "norm": "sup"}, "sequence": {"vectors": [1.0, 2.0]}}
        )


def non_finite_document(where: str, value: float) -> dict:
    """A valid two-term weighted-L1 instance with one entry set to ``value``."""
    doc = {
        "space": {"dim": 2, "norm": "l1", "weights": [0.5, 0.5]},
        "filtration": {"operators": [{"matrix": [[1.0, 0.0], [0.0, 1.0]]} for _ in range(2)]},
        "sequence": {"vectors": [[1.0, 2.0], [1.0, 2.0]]},
    }
    if where == "weights":
        doc["space"]["weights"][1] = value
    elif where == "matrix":
        doc["filtration"]["operators"][1]["matrix"][0][1] = value
    else:
        doc["sequence"]["vectors"][1][0] = value
    return doc


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", ["weights", "matrix", "vector"])
def test_reader_refuses_non_finite_tokens(where, value):
    text = json.dumps(non_finite_document(where, value))
    assert any(token in text for token in ("NaN", "Infinity"))
    with pytest.raises(InstanceFormatError, match="finite"):
        instance_from_dict(json.loads(text))
