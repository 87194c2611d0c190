"""CLI behaviors: exit codes, JSON output, and the gen/classify round trip."""

import json
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from functools import cache, reduce
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import dump_text, instance_doc
from lattice_lab import build_copy, build_truncation, classify, haar_example
from lattice_lab import cli
from lattice_lab.cli import GEN_BUILDERS, _gen_instance, build_parser, main
from lattice_lab.jsonio import Instance, instance_text, load_instance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_passes_on_generated_dyadic(tmp_path, capsys):
    path = tmp_path / "dyadic.json"
    code, _, _ = run(capsys, "gen", "dyadic", "--size", "3", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "validate", str(path), "--contractive")
    assert code == 0
    assert "overall: pass" in out


def test_validate_fails_on_broken_filtration(tmp_path, capsys):
    filt = build_truncation(3)
    doc = instance_doc(Instance(filt.space, filt))
    doc["filtration"]["operators"][0]["matrix"][0][0] = 2.0  # breaks idempotence
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "FAIL" in out


def test_classify_harmonic_instance(tmp_path, capsys):
    path = tmp_path / "harmonic.json"
    run(capsys, "gen", "harmonic", "--size", "64", "--out", str(path))
    code, out, _ = run(capsys, "classify", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["e_witness"] is None
    assert doc["x_verdict"] == "X_MARTINGALE"


def test_gen_classify_round_trip_is_bit_exact(tmp_path, capsys):
    path = tmp_path / "haar.json"
    run(capsys, "gen", "haar", "--size", "3", "--out", str(path))
    code, out, _ = run(capsys, "classify", str(path), "--json")
    assert code == 0
    filt, seq = haar_example(3)
    assert json.loads(out) == classify(seq, filt).to_dict()


def test_gen_copy_round_trips_and_validates(tmp_path, capsys):
    path = tmp_path / "copy.json"
    code, _, _ = run(capsys, "gen", "copy", "--size", "8", "--out", str(path))
    assert code == 0
    loaded, built = load_instance(path), build_copy(8)
    assert loaded.sequence is None and loaded.space == built.space
    assert len(loaded.filtration.ops) == 8
    for a, b in zip(loaded.filtration.ops, built.ops):
        assert np.array_equal(a.matrix, b.matrix)
    code, out, _ = run(capsys, "validate", str(path), "--contractive", "--json")
    assert code == 0 and json.loads(out)["passed"] is True


def test_classify_requires_sequence(tmp_path, capsys):
    path = tmp_path / "filtr_only.json"
    run(capsys, "gen", "truncation", "--size", "4", "--out", str(path))
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2
    assert "needs both" in err


def test_classify_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2
    assert "invalid JSON" in err


# haar at d = 256 and pairing at d = 80 read their stages off a plan; at their default
# sizes (d = 8 and 6) they read none
@pytest.mark.parametrize("args", ["haar", "pairing", "harmonic", "null", "scale-head",
                                  "haar --size 8", "pairing --size 40"])
def test_demo_runs_and_emits_json(capsys, args):
    name = args.split()[0]
    code, out, _ = run(capsys, "demo", *args.split(), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["demo"] == name
    assert "report" in doc and "expected" in doc
    assert doc["report"]["base"]["is_martingale"] is (name in ("haar", "pairing"))


def test_demo_human_output_mentions_expectation(capsys):
    code, out, _ = run(capsys, "demo", "pairing")
    assert code == 0
    assert "alternating-pair" in out and "index note" in out


def test_verify_single_check_json(capsys):
    code, out, _ = run(
        capsys, "verify", "eventual-not-closed", "--seed", "1", "--trials", "5", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["status"] == "CONFIRMED"


def test_verify_all_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "all", "--seed", "3", "--trials", "10")
    assert code == 0
    assert "0 violated" in out


@pytest.mark.parametrize(
    "check_id, footer",
    [
        ("abs-closure", "(seed=0)"),
        ("band-lattice", "(seed=0, trials=3 for band-lattice)"),
        ("all", "(seed=0, trials=3 for nesting, band-lattice)"),
    ],
)
def test_verify_footer_names_trials_only_where_they_were_read(capsys, check_id, footer):
    code, out, _ = run(capsys, "verify", check_id, "--trials", "3")
    assert code == 0
    assert out.splitlines()[-1].endswith(" violated " + footer)


@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_verify_json_results_are_run_all(capsys, seed):
    from lattice_lab import run_all

    code, out, _ = run(capsys, "verify", "all", "--seed", str(seed), "--json")
    assert code == 0 and json.loads(out)["results"] == run_all(seed, 100)


def test_verify_exit_code_on_violation(capsys, monkeypatch):
    # exit-code mapping only; a real VIOLATED would mean a library bug
    from lattice_lab import harness

    fake = {"id": "nesting", "descriptor": {}, "status": harness.CheckStatus.VIOLATED,
            "witness": {}, "seed": 0}
    monkeypatch.setitem(harness.CLAIMS, "nesting", (True, lambda s, t: [(fake, {})]))
    code, _, _ = run(capsys, "verify", "nesting")
    assert code == 1


@pytest.mark.parametrize("fault", [
    RuntimeError("boom"), KeyError("missing"), ZeroDivisionError("a message\nover two lines"),
], ids=lambda fault: type(fault).__name__)
def test_an_internal_error_exits_three_with_one_line(capsys, monkeypatch, fault):
    # a fault of the program (not a ValueError, OSError or MemoryError) is neither a
    # violated check (1) nor bad input (2), and prints no traceback
    from lattice_lab import harness

    def crash(seed, trials):
        raise fault

    monkeypatch.setitem(harness.CLAIMS, "nesting", (True, crash))
    code, out, err = run(capsys, "verify", "nesting")
    message = " ".join(str(fault).split())
    assert (code, out) == (3, "")
    assert err == f"internal error: {type(fault).__name__}: {message}\n"


def test_gen_stdout_and_seeded_determinism(capsys):
    code, out1, _ = run(capsys, "gen", "random-nested", "--size", "8", "--seed", "9")
    assert code == 0
    _, out2, _ = run(capsys, "gen", "random-nested", "--size", "8", "--seed", "9")
    _, out3, _ = run(capsys, "gen", "random-nested", "--size", "8", "--seed", "10")
    assert out1 == out2 != out3


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "truncation", "--size", "0"),
        ("gen", "harmonic", "--size", "0"),
        ("demo", "haar", "--size", "0"),
    ],
    ids=" ".join,
)
def test_zero_size_is_rejected_not_defaulted(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_classify_pairing_instance(tmp_path, capsys):
    path = tmp_path / "pairing.json"
    run(capsys, "gen", "pairing", "--size", "3", "--out", str(path))
    code, out, _ = run(capsys, "classify", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["is_martingale"] is True and doc["e_witness"] == 1


def test_validate_json_output_is_json(tmp_path, capsys):
    path = tmp_path / "trunc.json"
    run(capsys, "gen", "truncation", "--size", "5", "--out", str(path))
    code, out, _ = run(capsys, "validate", str(path), "--contractive", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True


def one_line_error(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("builder", GEN_BUILDERS)
@pytest.mark.parametrize("size", [None, "2", "5"])
def test_gen_writes_what_the_stdlib_encoder_writes(tmp_path, capsys, builder, size):
    argv = ["gen", builder] + ([] if size is None else ["--size", size])
    want = dump_text(_gen_instance(build_parser().parse_args(argv)))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == want
    path = tmp_path / "instance.json"
    code, _, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0 and path.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("argv", [
    *((builder, "--size", "4") for builder in GEN_BUILDERS),
    ("random-nested", "--size", "64", "--seed", "1"),
], ids=" ".join)
def test_a_gen_file_validates_and_its_head_exits_two(tmp_path, capsys, argv):
    path = tmp_path / "instance.json"
    assert run(capsys, "gen", *argv, "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "validate", str(path), "--contractive", "--json")
    assert code == 0 and json.loads(out)["passed"] is True
    if "sequence" in json.loads(path.read_text(encoding="utf-8")):
        assert run(capsys, "classify", str(path), "--json")[0] == 0
    text = path.read_bytes()
    head = tmp_path / "head.json"
    head.write_bytes(text[: min(1000, len(text) // 2)])  # a file cut short, as by a full disk
    code, out, err = run(capsys, "validate", str(head))
    assert code == 2 and out == "" and one_line_error(err)


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "dyadic", "--size", "13"),
        ("gen", "dyadic", "--size", "64"),
        ("gen", "haar", "--size", "30"),
        ("demo", "haar", "--size", "30"),
    ],
    ids=" ".join,
)
def test_level_counts_beyond_the_cap_exit_two(capsys, argv):
    # --size counts levels here: the space has 2**size cells
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and one_line_error(err)
    assert "levels must lie in 1..12" in err


def test_running_out_of_memory_exits_two(capsys, monkeypatch):
    def exhausted(size, args):
        raise MemoryError("Unable to allocate 2.00 TiB for an array")

    monkeypatch.setitem(cli.BUILDERS, "truncation", (16, exhausted, None))
    code, out, err = run(capsys, "gen", "truncation")
    assert code == 2 and out == "" and one_line_error(err)


@pytest.mark.parametrize("target", ["missing/dir/out.json", "a-file/out.json"])
def test_gen_into_unwritable_path_exits_two(tmp_path, capsys, target):
    (tmp_path / "a-file").write_text("not a directory", encoding="utf-8")
    code, out, err = run(capsys, "gen", "haar", "--out", str(tmp_path / target))
    assert code == 2 and out == "" and one_line_error(err)


@pytest.mark.parametrize(
    "field, value",
    [
        ("dim", 2.7),
        ("dim", True),
        ("matrix", {"rows": [[1.0, 0.0], [0.0, 1.0]]}),
        ("matrix", [["1.0", "0.0"], ["0.0", "1.0"]]),
        ("matrix", [[True, 0.0], [0.0, 1.0]]),
        ("matrix", [[1, 0], [0, False]]),
    ],
)
@pytest.mark.parametrize("command", ["validate", "classify"])
def test_malformed_instance_exits_two(tmp_path, capsys, field, value, command):
    filt, seq = haar_example(1)
    doc = instance_doc(Instance(filt.space, filt, seq))
    if field == "dim":
        doc["space"]["dim"] = value
    else:
        doc["filtration"]["operators"][0]["matrix"] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == "" and one_line_error(err)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", ["weights", "matrix", "vector"])
@pytest.mark.parametrize("command", ["validate", "classify"])
def test_non_finite_tokens_in_a_file_exit_two(tmp_path, capsys, where, value, command):
    filt, seq = haar_example(1)
    doc = instance_doc(Instance(filt.space, filt, seq))
    if where == "weights":
        doc["space"]["weights"][0] = value
    elif where == "matrix":
        doc["filtration"]["operators"][0]["matrix"][0][1] = value
    else:
        doc["sequence"]["vectors"][0][0] = value
    path = tmp_path / "non-finite.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # writes NaN / Infinity tokens
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == "" and one_line_error(err)


@pytest.mark.parametrize(
    "text",
    [
        '{"space": ' + "[" * 200_000 + "]" * 200_000 + "}",
        '{"space": {"dim": 1, "norm": "sup"}, "sequence": {"vectors": '
        + "[" * 5_000 + "1" + "]" * 5_000 + "}}",
    ],
    ids=["space", "vectors"],
)
def test_deeply_nested_json_exits_two(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert err == f"error: invalid JSON in {path}: nested too deeply\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "{path}", "--window", "-3"),
        ("classify", "{path}", "--window", "0"),
        ("classify", "{path}", "--window", "1.5"),
        ("classify", "{path}", "--window", "nan"),
        ("classify", "{path}", "--window", "inf"),
        ("classify", "{path}", "--eps-x", "-1"),
        ("classify", "{path}", "--eps-x", "nan"),
        ("classify", "{path}", "--eps-x", "inf"),
        ("classify", "{path}", "--tol", "nan"),
        ("classify", "{path}", "--tol", "-1"),
        ("classify", "{path}", "--tol", "inf"),
        ("validate", "{path}", "--tol", "nan"),
        ("validate", "{path}", "--tol=-1e-9"),
        ("validate", "{path}", "--tol", "inf"),
        ("verify", "nesting", "--trials", "0"),
        ("verify", "abs-closure", "--trials", "-1"),
    ],
    ids=" ".join,
)
def test_out_of_range_arguments_exit_two(tmp_path, capsys, argv):
    path = tmp_path / "harmonic.json"
    run(capsys, "gen", "harmonic", "--size", "16", "--out", str(path))
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 2 and out == "" and one_line_error(err)


@pytest.mark.parametrize("name", ["haar", "pairing"])
def test_demo_takes_no_tol(capsys, name):
    # classification knobs live in ``classify``; ``demo`` runs it at the defaults
    with pytest.raises(SystemExit) as exc:
        main(["demo", name, "--tol", "1e-9"])
    _, err = capsys.readouterr()
    assert exc.value.code == 2
    assert err.splitlines()[-1].endswith("error: unrecognized arguments: --tol 1e-9")


@pytest.mark.parametrize("argv", [("random-nested", "--depth", "3"),
                                  ("scale-head", "--factor", "3")], ids=" ".join)
def test_gen_takes_no_depth_or_factor(capsys, argv):
    # random-nested builds depth = size and scale-head doubles the head
    with pytest.raises(SystemExit) as exc:
        main(["gen", *argv])
    _, err = capsys.readouterr()
    assert exc.value.code == 2
    assert err.splitlines()[-1].endswith(f"error: unrecognized arguments: {' '.join(argv[1:])}")


def test_gen_random_nested_is_size_levels_deep(tmp_path, capsys):
    path = tmp_path / "nested.json"
    assert run(capsys, "gen", "random-nested", "--size", "8", "--seed", "9", "--out", str(path))[0] == 0
    filt = load_instance(path).filtration
    assert filt.space.dim == 8 and len(filt.ops) == 8


def test_gen_scale_head_doubles_only_the_head(tmp_path, capsys):
    path = tmp_path / "scaled.json"
    assert run(capsys, "gen", "scale-head", "--size", "3", "--out", str(path))[0] == 0
    got = load_instance(path).sequence.coords
    base = haar_example(3)[1].coords
    assert np.array_equal(got[0], 2.0 * base[0]) and np.array_equal(got[1:], base[1:])


def test_range_edges_are_accepted(tmp_path, capsys):
    path = tmp_path / "harmonic.json"
    run(capsys, "gen", "harmonic", "--size", "16", "--out", str(path))
    code, out, _ = run(
        capsys, "classify", str(path), "--window", "1", "--tol", "0", "--eps-x", "0", "--json"
    )
    assert code == 0 and json.loads(out)["tolerances"]["window_fraction"] == 1.0
    code, _, _ = run(capsys, "verify", "eventual-not-closed", "--trials", "1")
    assert code == 0


def strict_json(text: str):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


# Finite entries near the largest double: the laws and the defect kernel overflow.
HUGE_OPERATOR = {
    "space": {"dim": 2, "norm": "sup"},
    "filtration": {"operators": [{"matrix": [[1e308, 1e308], [0.0, 1.0]]},
                                 {"matrix": [[1.0, 0.0], [0.0, 1.0]]}]},
    "sequence": {"vectors": [[1e308, -1e308], [1e308, 1.0]]},
}
HUGE_SEQUENCE = {
    "space": {"dim": 2, "norm": "sup"},
    "filtration": {"operators": [{"matrix": [[1.0, 0.0], [0.0, 0.0]]},
                                 {"matrix": [[1.0, 0.0], [0.0, 1.0]]}]},
    "sequence": {"vectors": [[1e308, -1e308], [-1e308, 1e308]]},
}


def run_quietly(capsys, tmp_path, doc, *argv):
    """``run`` on ``doc`` written to a file, with any warning raised as an error."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(capsys, argv[0], str(path), *argv[1:])


def test_overflowing_laws_fail_quietly_with_null_in_the_report(tmp_path, capsys):
    code, out, err = run_quietly(capsys, tmp_path, HUGE_OPERATOR, "validate", "--contractive",
                                 "--json")
    report = strict_json(out)
    assert code == 1 and err == "" and report["passed"] is False
    assert [c["worst"] for c in report["checks"] if not c["passed"]] == [None] * 3
    code, out, err = run_quietly(capsys, tmp_path, HUGE_OPERATOR, "validate", "--contractive")
    assert code == 1 and err == "" and "FAIL (worst inf at (1,))" in out


def test_overflowing_defects_classify_quietly_with_null_in_the_report(tmp_path, capsys):
    code, out, err = run_quietly(capsys, tmp_path, HUGE_SEQUENCE, "classify", "--json")
    report = strict_json(out)
    assert code == 0 and err == ""
    assert report["is_martingale"] is False and report["x_defects"] == [None, 0.0]
    code, out, err = run_quietly(capsys, tmp_path, HUGE_SEQUENCE, "classify")
    assert code == 0 and err == "" and "defects: head inf" in out
    code, out, err = run_quietly(capsys, tmp_path, HUGE_OPERATOR, "classify", "--json")
    assert code == 2 and out == "" and one_line_error(err)


INSTANCE_KEYS = ("space", "dim", "norm", "weights", "filtration", "operators", "matrix",
                 "sequence", "vectors")
NUMBERS = st.one_of(st.integers(-3, 3), st.floats(), st.sampled_from([1e308, -0.0, 0.5]))
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, st.sampled_from(["sup", "l1"]),
                    st.text(max_size=3))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(INSTANCE_KEYS) | st.text(max_size=3), inner, max_size=4),
    ),
    max_leaves=24,
)


@st.composite
def instance_like(draw):
    """Instance documents of consistent shape holding numbers of any size
    (identity or arbitrary matrices), with each part sometimes swapped for
    arbitrary JSON, so the checks past the shape tests are reached too."""
    dim, horizon = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def part(value):
        return draw(JSON_VALUES) if draw(st.integers(0, 5)) == 0 else value

    def rows(n):
        return draw(st.lists(st.lists(NUMBERS, min_size=dim, max_size=dim),
                             min_size=n, max_size=n))

    norm = draw(st.sampled_from(["sup", "l1"]))
    space = {"dim": part(dim), "norm": part(norm)}
    if norm == "l1":
        space["weights"] = part(draw(st.sampled_from([[1.0] * dim, rows(1)[0]])))
    identity = [[float(i == j) for j in range(dim)] for i in range(dim)]
    operators = [
        {"matrix": part(identity if draw(st.booleans()) else rows(dim))} for _ in range(horizon)
    ]
    doc = {"space": part(space), "filtration": part({"operators": part(operators)}),
           "sequence": part({"vectors": part(rows(horizon))})}
    return {k: v for k, v in doc.items() if k == "space" or draw(st.integers(0, 5))}


@settings(max_examples=300, deadline=None)
@given(doc=st.one_of(JSON_VALUES, instance_like()))
def test_any_json_document_exits_zero_one_or_two(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("classify", "validate"):
            with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
                assert main([command, str(path)]) in (0, 1, 2)


@cache
def gen_text(builder: str, size: int) -> str:
    """What ``gen <builder> --size <size>`` writes."""
    return "".join(instance_text(_gen_instance(build_parser().parse_args(
        ["gen", builder, "--size", str(size)]))))


def paths(value, path=()):
    """The path of every key and index below ``value``, in document order."""
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, inner in items:
        yield path + (key,)
        yield from paths(inner, path + (key,))


DEEP = "deeply nested here"
RETYPED = st.sampled_from(['null', 'true', '"1.0"', '"sup"', '[]', '{}', '2', '0.5', '[[1.0]]',
                           '{"matrix": []}']).map(json.loads)  # a fresh value each time


@st.composite
def mutated_gen_document(draw):
    """A document that ``gen`` writes (any builder, size 2 to 4: at most 20 KB) with up to
    three mutations: a key or element dropped, a value retyped or set to another number, a
    row made ragged, a number made non-finite, a wrong ``dim``, or a value nested a few
    thousand lists deep."""
    doc = json.loads(gen_text(draw(st.sampled_from(GEN_BUILDERS)), draw(st.integers(2, 4))))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["drop", "retype", "number", "ragged", "non-finite", "dim",
                                     "deep"]))
        found = list(paths(doc))
        if kind == "ragged":
            found = [p for p in found if isinstance(reduce(lambda v, k: v[k], p, doc), list)
                     and len(p) > 1 and isinstance(p[-1], int)]
        if kind == "dim" and isinstance(doc.get("space"), dict):
            dim = doc["space"].get("dim")
            wrong = [0, -1, 1.5, "2"] + ([dim - 1, dim + 1, 2 * dim] if type(dim) is int else [])
            doc["space"]["dim"] = draw(st.sampled_from(wrong))
            continue
        if not found:
            continue
        depth = draw(st.integers(1, max(len(p) for p in found)))  # shallow keys as often as deep
        *above, key = draw(st.sampled_from([p for p in found if len(p) == depth] or found))
        parent = reduce(lambda v, k: v[k], above, doc)
        if kind == "drop":
            del parent[key]
        elif kind == "retype":
            parent[key] = draw(RETYPED)
        elif kind == "number":
            parent[key] = draw(st.sampled_from([-1.0, 0.0, 0.5, 2.0, 1e308]))
        elif kind == "ragged" and isinstance(parent[key], list):
            parent[key] = parent[key][:-1] if draw(st.booleans()) else parent[key] + [0.0]
        elif kind == "non-finite":
            parent[key] = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
        elif kind == "deep":
            parent[key] = DEEP
    depth = draw(st.integers(1_000, 5_000))
    return json.dumps(doc).replace(json.dumps(DEEP), "[" * depth + "1" + "]" * depth)


NUMBER_ARGS = st.sampled_from(["0", "1e-9", "0.5", "1", "3", "-1", "nan", "inf", "1e400", "x",
                               ""])
FILE_OPTIONS = {"classify": ["--tol", "--eps-x", "--window", "--json"],
                "validate": ["--tol", "--contractive", "--json"],
                "gen": ["--size", "--seed"]}


@st.composite
def mutated_arguments(draw, path: str, out: str):
    """``classify`` or ``validate`` of ``path``, or ``gen`` of a builder into ``out``, with
    up to three options (some another command's, or unknown) taking any number or text,
    then perhaps one argument dropped or repeated."""
    command = draw(st.sampled_from(sorted(FILE_OPTIONS)))
    argv = [command] + (["--out", out, draw(st.sampled_from(GEN_BUILDERS)), "--size", "3"]
                        if command == "gen" else [path])
    known = [flag for flags in FILE_OPTIONS.values() for flag in flags] + ["--frob", "-h"]
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(FILE_OPTIONS[command] * 3 + known))
        if flag == "-h":
            continue  # help exits 0 by design; it is no mutation
        argv.append(flag)
        if flag not in ("--json", "--contractive", "--frob"):
            argv.append(draw(NUMBER_ARGS))
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(argv) - 1))
        argv[at:at + 1] = [] if draw(st.booleans()) else [argv[at]] * 2
    return argv


@settings(max_examples=300, deadline=None)
@given(text=mutated_gen_document(), data=st.data())
def test_mutated_gen_documents_and_arguments_exit_zero_one_or_two(text, data):
    # the exit-code contract: 0, 1 or 2, never 3 or a traceback; an error past argument
    # parsing is one ``error:`` line, and one that argparse itself rejects is its usage
    # (pinned in tests/data/cli_help.json), then one ``<prog>: error:`` line
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text, encoding="utf-8")
        argv = data.draw(mutated_arguments(str(path), str(Path(tmp) / "out.json")))
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code, parsed = main(argv), True
            except SystemExit as exit_:
                code, parsed = exit_.code, False
    assert code in (0, 1, 2), err.getvalue()
    if code == 2 and parsed:
        assert one_line_error(err.getvalue()) and out.getvalue() == ""
    elif code == 2:
        lines = err.getvalue().splitlines()
        assert lines[0].startswith("usage: ") and ": error: " in lines[-1]
        assert not any(": error: " in line for line in lines[:-1]) and out.getvalue() == ""
