"""What each CLI command imports, and the package surface that stays the same.

Each command runs in a fresh interpreter, since a module imported once
stays in ``sys.modules``: the harness is imported only by ``verify`` and
the file reader and writer only by ``gen``, ``validate`` and ``classify``.
No command imports ``dataclasses``: the value classes are plain classes,
so no import generates and compiles methods.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lattice_lab
from lattice_lab import cli
from test_golden import HAND_MADE

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).resolve().parent / "data"

#: Every public name of the package before the harness became lazy, less
#: ``join``, ``meet``, ``absolute``, ``ClosureReport``, ``LawCheck``,
#: ``ValidationReport`` and ``TheoremResult``, which were deleted.
PUBLIC = (
    "BlockOperator", "CHECK_IDS", "CheckStatus", "ClassificationReport", "DEFAULT_TOL",
    "Filtration", "LatticeSpace", "LatticeVector",
    "NonContractiveError", "NormKind", "PosOperator", "SpaceMismatchError",
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


def _env() -> dict[str, str]:
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def _modules_after(*argv: str) -> set[str]:
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], env=_env(),
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


@pytest.mark.parametrize("command", ["gen", "validate", "classify", "demo", "verify"])
def test_python_m_lattice_lab_prints_what_main_prints(haar_file, tmp_path, capsys, command):
    # the goldens call cli.main in process; ``python -m lattice_lab`` also runs
    # __main__.py, which must hand main's exit code to the process
    broken = tmp_path / "broken.json"
    broken.write_text(HAND_MADE["dense"], encoding="utf-8")  # fails all four laws: exit 1
    argv = {
        "gen": ["gen", "haar", "--size", "3"],
        "validate": ["validate", str(broken), "--contractive", "--json"],
        "classify": ["classify", haar_file],
        "demo": ["demo", "pairing", "--json"],
        "verify": ["verify", "all", "--seed", "0"],
    }[command]
    code = cli.main(argv)
    done = subprocess.run([sys.executable, "-m", "lattice_lab", *argv], env=_env(),
                          capture_output=True, timeout=120)
    assert (done.stdout, done.returncode) == (capsys.readouterr().out.encode("utf-8"), code)


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


def test_verify_results_have_no_record_class():
    # a result is the dict ``verify --json`` prints
    assert not hasattr(lattice_lab.harness, "TheoremResult")
    with pytest.raises(AttributeError, match="no attribute 'TheoremResult'"):
        lattice_lab.TheoremResult
    with pytest.raises(ImportError):
        exec("from lattice_lab import TheoremResult", {})


#: Each public function's defaulted parameters (ROADMAP aim 2 counts them as it counts
#: lines): a new knob is a deliberate edit here.
PUBLIC_KNOBS = {
    "build_random_nested": ["norm_kind"],
    "validate": ["require_contractive", "tol"],
    "classify": ["tol", "eps", "window_fraction"],
    "run_all": ["seed", "trials"],
    "run_check": ["seed", "trials"],
}
#: Each subcommand's arguments, positionals by name and options by flag.
CLI_ARGUMENTS = {
    "validate": ["path", "--contractive", "--tol", "--json"],
    "classify": ["path", "--tol", "--eps-x", "--window", "--json"],
    "demo": ["name", "--size", "--json"],
    "verify": ["id", "--seed", "--trials", "--json"],
    "gen": ["builder", "--size", "--seed", "--out"],
}


def test_the_public_functions_take_the_pinned_knobs():
    knobs = {}
    for name in lattice_lab.__all__:
        value = getattr(lattice_lab, name)
        params = inspect.signature(value).parameters.values() if inspect.isfunction(value) else ()
        defaulted = [p.name for p in params if p.default is not p.empty]
        if defaulted:
            knobs[name] = defaulted
    assert knobs == PUBLIC_KNOBS
    assert sum(map(len, knobs.values())) == 10


def test_the_subcommands_take_the_pinned_arguments():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    arguments = {
        command: [(a.option_strings or [a.dest])[0] for a in parser._actions if a.dest != "help"]
        for command, parser in sub.choices.items()
    }
    assert arguments == CLI_ARGUMENTS
    assert sum(map(len, arguments.values())) == 20


def test_verify_choices_are_the_harness_check_ids():
    from lattice_lab import harness

    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    ids = next(a for a in sub.choices["verify"]._actions if a.dest == "id")
    assert tuple(ids.choices) == cli.CHECK_IDS + ("all",) == harness.CHECK_IDS + ("all",)


@pytest.mark.parametrize("case", json.loads((DATA / "cli_help.json").read_text())["cases"],
                         ids=lambda case: " ".join(case["argv"]))
def test_help_and_usage_errors_are_unchanged(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    if case["code"]:  # a refused argument is main's one ``error:`` line and exit code
        code = cli.main(case["argv"])
    else:  # help prints and exits 0
        with pytest.raises(SystemExit) as exit_:
            cli.main(case["argv"])
        code = exit_.value.code
    out, err = capsys.readouterr()
    assert (out, err, code) == (case["stdout"], case["stderr"], case["code"])
