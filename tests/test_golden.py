"""``verify all --seed 0 --json`` against the fixture written before the
evidence checks built their pair tables as stacks, five demos on planned
sup chains against the bytes they printed when their defect profiles were
the row maxima of a pair table, every demo at its default size, as text
and as JSON, against the bytes it printed when its closure report was a
record class, and ``demo haar --size 6`` against the bytes it printed when
planned tables and suffix scans read two source layouts."""

import copy
import json
from pathlib import Path

import pytest

from golden import FIXTURE, first_difference, main as compare
from lattice_lab.cli import main


def test_verify_all_seed0_matches_the_fixture(capsys, tmp_path):
    assert main(["verify", "all", "--seed", "0", "--json"]) == 0
    out = tmp_path / "verify.json"
    out.write_text(capsys.readouterr().out, encoding="utf-8")
    assert compare([str(out)]) == 0


@pytest.mark.parametrize("name, size", [("pairing", 100), ("null", 256), ("harmonic", 256),
                                        ("null", None), ("harmonic", None)])
def test_a_scanned_demo_prints_its_golden_bytes(capsys, name, size):
    # each profile comes from the suffix scan, bit for bit the table's row maxima; null
    # and harmonic are chains of gathers, which read their plans at any size
    size_args = [] if size is None else ["--size", str(size)]
    assert main(["demo", name, *size_args, "--json"]) == 0
    stem = f"demo_{name}" if size is None else f"demo_{name}_{size}"
    golden = Path(__file__).parent / "data" / f"{stem}.json"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_a_planned_weighted_l1_table_prints_its_golden_bytes(capsys):
    # the one CLI path into a planned weighted-L1 pair table: a dyadic chain at d = 64,
    # whose summing stages read their plan
    assert main(["demo", "haar", "--size", "6", "--json"]) == 0
    golden = Path(__file__).parent / "data" / "demo_haar_6.json"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


DEMOS = ["haar", "pairing", "harmonic", "null", "scale-head"]


# null and harmonic --json at their default size are pinned above
@pytest.mark.parametrize("name, as_json", [
    *((name, False) for name in DEMOS), ("haar", True), ("pairing", True), ("scale-head", True)])
def test_a_demo_at_its_default_size_prints_its_golden_bytes(capsys, name, as_json):
    assert main(["demo", name, *(["--json"] if as_json else [])]) == 0
    golden = Path(__file__).parent / "data" / f"demo_{name}.{'json' if as_json else 'txt'}"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_the_comparison_allows_rounding_and_nothing_else():
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    distances = want["results"][1]["witness"]["distances"]
    assert first_difference(copy.deepcopy(want), want) is None

    got = copy.deepcopy(want)
    got["results"][1]["witness"]["distances"][2] = distances[2] * (1 + 1e-13)
    assert first_difference(got, want) is None
    got["results"][1]["witness"]["distances"][2] = distances[2] * (1 + 1e-11)
    assert first_difference(got, want) == "$.results[1].witness.distances[2]: " + (
        f"{distances[2] * (1 + 1e-11)!r} != {distances[2]!r}"
    )

    changes = [
        ("status", "VIOLATED"),
        ("seed", 1),
        ("id", "nesting"),
    ]
    for key, value in changes:
        got = copy.deepcopy(want)
        got["results"][1][key] = value
        assert first_difference(got, want).startswith(f"$.results[1].{key}: "), key
    got = copy.deepcopy(want)
    got["results"][1]["descriptor"]["members"] = 8.0  # an integer must stay one
    assert first_difference(got, want) == "$.results[1].descriptor.members: float != int"
    got = copy.deepcopy(want)
    got["results"][15]["witness"]["premises"]["dense"] = 1  # a boolean must stay one
    assert first_difference(got, want) == "$.results[15].witness.premises.dense: int != bool"
    got = copy.deepcopy(want)
    del got["results"][-1]
    assert first_difference(got, want) == "$.results: length 17 != 18"
