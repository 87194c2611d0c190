"""Every lattice_lab name the benchmark harness reaches must exist.

``perfbench/tracing.py`` looks functions up by name with ``getattr`` and
``perfbench/workloads.py`` calls ``L.<name>`` on the package, so deleting a
name they still use breaks the benchmark only when it runs.  This test
loads ``tracing.py`` (definitions only, nothing is patched), reads
``workloads.py`` as text and resolves each name.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import lattice_lab

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # definitions only; install() is never called
    return module


def _perfbench_names() -> list[tuple[str, str]]:
    tracing = _tracing()
    spanned = [(module, name) for module, names in tracing.SPANNED.items() for name in names]
    # install() wraps these as counters, listed as ("module", "function") literals
    counted = re.findall(r'\("(\w+)", "(\w+)"\)', inspect.getsource(tracing.install))
    workloads = (PERFBENCH / "workloads.py").read_text(encoding="utf-8")
    package = [("", name) for name in sorted(set(re.findall(r"\bL\.(\w+)", workloads)))]
    return spanned + counted + package


def test_perfbench_reaches_names_in_each_source():
    names = _perfbench_names()
    modules = {module for module, _ in names}
    assert {"martingales", "operators", "spaces", "harness", ""} <= modules
    assert ("operators", "apply") in names and ("", "classify") in names


@pytest.mark.parametrize("module,name", _perfbench_names(),
                         ids=lambda v: v or "lattice_lab")
def test_perfbench_name_resolves(module, name):
    owner = importlib.import_module(f"lattice_lab.{module}") if module else lattice_lab
    assert callable(getattr(owner, name, None)), f"perfbench needs lattice_lab.{module}.{name}"


def test_perfbench_times_every_check_id():
    # tracing.py keeps its own copy of the ids, one `harness.<id>_s` metric each
    from lattice_lab import harness

    assert _tracing().CHECK_IDS == harness.CHECK_IDS


def test_perfbench_reads_what_classify_returns():
    # classify-ladder calls report.<method>() on what L.classify returns and hands the
    # dict to oracle.compare_classification, so a change to either fails here, not as
    # a failed op when the benchmark runs
    workloads = (PERFBENCH / "workloads.py").read_text(encoding="utf-8")
    oracle = (PERFBENCH / "oracle.py").read_text(encoding="utf-8")
    methods = set(re.findall(r"\breport\.(\w+)\(", workloads))
    compare = oracle[oracle.index("def compare_classification") :]
    compare = compare[: compare.index("\ndef ")]
    keys = set(re.findall(r"""got\[["'](\w+)["']\]""", compare))
    for listed in re.findall(r"for key in \(([^)]*)\)", compare):
        keys |= set(re.findall(r'"(\w+)"', listed))
    assert methods >= {"to_dict"}  # the parse still finds what it found when written
    assert keys >= {"is_martingale", "e_witness", "x_verdict", "x_defects", "seq_norm"}
    filt, seq = lattice_lab.harmonic_tail_example(8)[:2]
    report = lattice_lab.classify(seq, filt)
    for method in methods:
        assert callable(getattr(report, method, None)), f"perfbench calls report.{method}()"
    assert keys <= set(report.to_dict())
