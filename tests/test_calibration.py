"""How often each tail verdict is right, on families whose answer is known.

Terminal, eventual and random asymptotic martingales are asymptotic
martingales (the eventual class lies in X, and the asymptotic draws meet
d_n <= 2/n + 1/N), so none may be classified NOT_X; i.i.d. uniform rows are
not, so none may be classified X_MARTINGALE.  Each cell classifies 40 draws
on ``build_random_nested(N, N, t, norm)``, draw t of each family from its own
``trial_rng(7, t)``.  README's table under "What a verdict means" is
:func:`render` of this sweep.
"""

from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

from lattice_lab import VectorSequence, Verdict, build_random_nested, classify
from lattice_lab.harness import random_sequence, trial_rng

NORMS = ("sup", "l1")
HORIZONS = (2, 3, 4, 8, 16, 64, 256)
#: the families in README's column order, each with its ``random_sequence`` generator
#: (None for the i.i.d. uniform junk)
FAMILIES = {"asymptotic": "asymptotic", "eventual": "eventual", "terminal": "terminal",
            "i.i.d. junk": None}
DRAWS = 40
SHORT = {Verdict.X_MARTINGALE: "X", Verdict.INCONCLUSIVE: "INC", Verdict.NOT_X: "NOT_X"}
README = Path(__file__).resolve().parent.parent / "README.md"


@lru_cache(maxsize=None)
def sweep() -> dict:
    """(norm, N) -> family -> Counter of verdicts over the cell's draws."""
    counts = {}
    for norm in NORMS:
        for n in HORIZONS:
            cell = counts[norm, n] = {family: Counter() for family in FAMILIES}
            for t in range(DRAWS):
                filt = build_random_nested(n, n, t, norm)
                for family, gen in FAMILIES.items():
                    rng = trial_rng(7, t)
                    if gen is None:
                        seq = VectorSequence(filt.space, rng.uniform(-1.0, 1.0, (n, n)))
                    else:
                        seq = random_sequence(filt, gen, rng)
                    cell[family][classify(seq, filt)["x_verdict"]] += 1
    return counts


def render(counts: dict) -> str:
    """The sweep as a markdown table of verdict counts, X, INC or NOT_X per cell."""
    lines = ["| norm | N | " + " | ".join(FAMILIES) + " |", "|---" * (2 + len(FAMILIES)) + "|"]
    for (norm, n), cell in counts.items():
        texts = (", ".join(f"{c[v]} {short}" for v, short in SHORT.items() if c[v])
                 for c in cell.values())
        lines.append(f"| {norm} | {n} | " + " | ".join(texts) + " |")
    return "\n".join(lines) + "\n"


HORIZON_DEFECT = pytest.mark.xfail(strict=True, reason=(
    "horizon defect: below N = 4 the default tail window holds the index N alone, whose "
    "defect ||E_N x_N - x_N|| is 0 when E_N is the identity, so junk passes as X_MARTINGALE"))
CELLS = [
    pytest.param(norm, n, family, marks=HORIZON_DEFECT if FAMILIES[family] is None and n <= 3
                 else ())
    for norm in NORMS for n in HORIZONS for family in FAMILIES
]


@pytest.mark.parametrize("norm, n, family", CELLS)
def test_no_draw_of_a_known_family_gets_the_wrong_verdict(norm, n, family):
    counts = sweep()[norm, n][family]
    assert sum(counts.values()) == DRAWS
    wrong = Verdict.NOT_X if FAMILIES[family] is not None else Verdict.X_MARTINGALE
    assert counts[wrong] == 0, {v.value: k for v, k in counts.items()}


def test_readme_holds_the_table_the_sweep_renders():
    table = render(sweep())
    assert table.count("\n") == 2 + len(NORMS) * len(HORIZONS)
    assert table in README.read_text(encoding="utf-8")

