"""What each CLI command imports, and the package surface that stays the same.

Each command runs in a fresh interpreter, since a module imported once
stays in ``sys.modules``: the harness is imported only by ``verify`` and
the file reader and writer only by ``gen``, ``validate`` and ``classify``.
No command imports ``dataclasses``: the value classes are plain classes,
so no import generates and compiles methods.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lattice_lab
from lattice_lab import cli

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).resolve().parent / "data"

#: Every public name of the package before the harness became lazy, less
#: ``join``, ``meet``, ``absolute``, ``ClosureReport``, ``LawCheck`` and
#: ``ValidationReport``, which were deleted.
PUBLIC = (
    "BlockOperator", "CHECK_IDS", "CheckStatus", "ClassificationReport", "DEFAULT_TOL",
    "Filtration", "LatticeSpace", "LatticeVector",
    "NonContractiveError", "NormKind", "PosOperator", "SpaceMismatchError", "TheoremResult",
    "VectorSequence", "Verdict", "abs_commutation_index", "abs_seq",
    "apply", "apply_rows", "basis", "build_copy", "build_dyadic", "build_pairing",
    "build_random_nested", "build_truncation", "check_lattice_closure", "classify",
    "defect_profile", "eventual_witness", "eventual_witness_pairwise", "haar_example",
    "harmonic_tail_example", "is_abs_closed", "is_contractive_filtration", "is_dense",
    "is_lattice_homomorphism", "is_martingale", "norm", "null_sequence", "one_step_defects",
    "operator_norm", "pairing_example", "run_all", "run_check", "scale_head", "seq_distance",
    "seq_norm", "sequence", "tail_modify", "tail_verdict", "terminal_sequence", "validate",
    "vector", "zero",
)

#: Runs ``cli.main(argv)`` (or only imports the CLI, for the one argument
#: ``cli``, or only the package, for no argv) and prints the ``lattice_lab``
#: modules then loaded, and ``dataclasses`` if loaded, as JSON on its last line.
PROBE = """
import json, sys
import lattice_lab
code = None
if sys.argv[1:]:
    from lattice_lab import cli
    if sys.argv[1:] != ["cli"]:
        code = cli.main(sys.argv[1:])
loaded = [m for m in sys.modules if m.startswith("lattice_lab") or m == "dataclasses"]
print(json.dumps([code, sorted(loaded)]))
"""


def _modules_after(*argv: str) -> set[str]:
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code in (None, 0), (argv, code, done.stderr)
    return set(modules)


@pytest.fixture(scope="module")
def haar_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "haar.json"
    assert cli.main(["gen", "haar", "--size", "3", "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("command,harness,jsonio", [
    ("gen", False, True),
    ("validate", False, True),
    ("classify", False, True),
    ("demo", False, False),
    ("verify", True, False),
    ("cli", False, False),  # only ``import lattice_lab.cli``
    (None, False, False),  # a bare ``import lattice_lab``
])
def test_each_command_imports_only_what_it_runs(haar_file, tmp_path, command, harness, jsonio):
    argv = {
        "gen": ("gen", "haar", "--size", "3", "--out", str(tmp_path / "out.json")),
        "validate": ("validate", haar_file, "--contractive"),
        "classify": ("classify", haar_file),
        "demo": ("demo", "haar"),
        "verify": ("verify", "abs-closure", "--trials", "1"),
        "cli": ("cli",),
        None: (),
    }[command]
    modules = _modules_after(*argv)
    assert "lattice_lab" in modules
    assert ("lattice_lab.harness" in modules) is harness
    assert ("lattice_lab.jsonio" in modules) is jsonio
    assert "dataclasses" not in modules


@pytest.mark.parametrize("name", PUBLIC)
def test_every_public_name_still_resolves(name):
    value = getattr(lattice_lab, name)
    scope = {}
    exec(f"from lattice_lab import {name}", scope)
    assert scope[name] is value
    assert name in lattice_lab.__all__ and name in dir(lattice_lab)


def test_the_package_lists_nothing_it_does_not_hold():
    assert set(lattice_lab.__all__) == set(PUBLIC)
    assert lattice_lab.harness.run_check is lattice_lab.run_check
    with pytest.raises(AttributeError, match="no attribute 'join'"):
        lattice_lab.join


def test_verify_choices_are_the_harness_check_ids():
    from lattice_lab import harness

    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    ids = next(a for a in sub.choices["verify"]._actions if a.dest == "id")
    assert tuple(ids.choices) == cli.CHECK_IDS + ("all",) == harness.CHECK_IDS + ("all",)


@pytest.mark.parametrize("case", json.loads((DATA / "cli_help.json").read_text())["cases"],
                         ids=lambda case: " ".join(case["argv"]))
def test_help_and_usage_errors_are_unchanged(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    with pytest.raises(SystemExit) as exit_:
        cli.main(case["argv"])
    out, err = capsys.readouterr()
    assert (out, err, exit_.value.code) == (case["stdout"], case["stderr"], case["code"])
