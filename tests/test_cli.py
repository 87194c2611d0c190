"""CLI behaviors: exit codes, JSON output, and the gen/classify round trip."""

import json

import pytest

from _oracles import dump_text
from lattice_lab import build_truncation, classify, haar_example
from lattice_lab.cli import GEN_BUILDERS, _gen_instance, build_parser, main
from lattice_lab.jsonio import Instance


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
    doc = Instance(filt.space, filt).to_dict()
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


@pytest.mark.parametrize("name", ["haar", "pairing", "harmonic", "null", "scale-head"])
def test_demo_runs_and_emits_json(capsys, name):
    code, out, _ = run(capsys, "demo", name, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["demo"] == name
    assert "report" in doc and "expected" in doc


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


def test_verify_exit_code_on_violation(capsys, monkeypatch):
    # exit-code mapping only; a real VIOLATED would mean a library bug
    from lattice_lab import harness

    fake = harness.TheoremResult("nesting", {}, harness.CheckStatus.VIOLATED, {}, 0)
    monkeypatch.setitem(harness.CHECK_RUNNERS, "nesting", lambda s, t: [fake])
    code, _, _ = run(capsys, "verify", "nesting")
    assert code == 1


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
        ("gen", "random-nested", "--size", "8", "--depth", "0"),
        ("demo", "haar", "--size", "0"),
    ],
)
def test_zero_size_is_rejected_not_defaulted(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_env_var_overrides_default_tol(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("LATTICE_LAB_TOL", "0.5")
    path = tmp_path / "haar.json"
    run(capsys, "gen", "haar", "--out", str(path))
    code, out, _ = run(capsys, "classify", str(path), "--json")
    assert code == 0
    assert json.loads(out)["tolerances"]["tol"] == 0.5


def test_env_var_rejects_garbage(capsys, monkeypatch):
    monkeypatch.setenv("LATTICE_LAB_TOL", "lots")
    with pytest.raises(SystemExit) as exc:
        main(["demo", "haar"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("factor", ["nan", "inf", "-inf"])
def test_gen_refuses_non_finite_values(tmp_path, capsys, factor):
    code, out, err = run(capsys, "gen", "scale-head", f"--factor={factor}")
    assert code == 2 and out == "" and one_line_error(err)
    path = tmp_path / "scaled.json"
    code, out, err = run(capsys, "gen", "scale-head", f"--factor={factor}", "--out", str(path))
    assert code == 2 and one_line_error(err)
    assert not path.exists()


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
    ],
)
@pytest.mark.parametrize("command", ["validate", "classify"])
def test_malformed_instance_exits_two(tmp_path, capsys, field, value, command):
    filt, seq = haar_example(1)
    doc = Instance(filt.space, filt, seq).to_dict()
    if field == "dim":
        doc["space"]["dim"] = value
    else:
        doc["filtration"]["operators"][0]["matrix"] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == "" and one_line_error(err)
