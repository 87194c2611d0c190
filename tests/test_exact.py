"""The defect kernels and ``classify`` against an exact oracle.

The oracle builds the pair table T[n, k] = ||E_n x_{n+k} - x_n|| in ``fractions.Fraction``
arithmetic from each stage's ``matrix``, and reads the profile (row maxima), the one-step
defects (column 1), the martingale flag and the tail verdict off it.  On the builders below
every coefficient and weight is a dyadic rational, and the terms are small integers or
their images under the stages, so every product and partial sum the kernels form is exact
in floating point: each kernel must equal the exact value bit for bit, whatever its order
of summation, on both plan routes.  No tolerance is needed, so none is given.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from lattice_lab import (
    VectorSequence,
    Verdict,
    build_copy,
    build_dyadic,
    build_pairing,
    build_truncation,
    classify,
    terminal_sequence,
    vector,
)
from lattice_lab import martingales
from lattice_lab.martingales import _pair_table, _plan_source, _profiles, _steps

BUILDERS = {
    "truncation": (build_truncation, range(2, 9)),
    "pairing": (build_pairing, range(1, 5)),
    "dyadic": (build_dyadic, range(1, 4)),
    "copy": (build_copy, range(2, 9)),
}
CASES = [(name, size) for name, (_, sizes) in BUILDERS.items() for size in sizes]
STACK = (2, 3)


def _filtration(name: str, size: int):
    return BUILDERS[name][0](size)


def exact_table(rows: np.ndarray, filt) -> list[list[Fraction]]:
    """T[n][k] = ||E_n x_{n+k} - x_n|| in exact arithmetic, zero past the horizon."""
    n_terms = len(rows)
    xs = [[Fraction(v) for v in row] for row in rows]
    w = filt.space.weights
    ws = None if w is None else [Fraction(v) for v in w]
    table = [[Fraction(0)] * n_terms for _ in range(n_terms)]
    for n, e in enumerate(filt.ops):
        entries = [[(j, Fraction(c)) for j, c in enumerate(r) if c] for r in e.matrix]
        for m in range(n, n_terms):
            diff = [abs(sum(c * xs[m][j] for j, c in r) - xs[n][i]) for i, r in enumerate(entries)]
            table[n][m - n] = max(diff) if ws is None else sum(map(Fraction.__mul__, ws, diff))
    return table


def exact_profiles(table: list[list[Fraction]]) -> tuple[list[Fraction], list[Fraction]]:
    """The defect profile (row maxima) and the one-step defects (column 1)."""
    return [max(row) for row in table], [row[1] for row in table[:-1]]


def exact_verdict(profile: list[Fraction], eps: float, window_fraction: float) -> Verdict:
    """The tail rule on exact defects, with the float eps and the float 10 * eps the
    code compares against."""
    n_terms = len(profile)
    start = min(n_terms, max(1, math.ceil((1 - Fraction(window_fraction)) * n_terms)))
    if max(profile[start - 1 :]) <= Fraction(eps):
        return Verdict.X_MARTINGALE
    strict = profile[start - 1 : n_terms - 1]
    if strict and min(strict) > Fraction(10.0 * eps):
        return Verdict.NOT_X
    return Verdict.INCONCLUSIVE


def assert_exact(got: np.ndarray, want) -> None:
    """Bit for bit: the same shape and values, and no -0.0 for an exact zero."""
    assert got.shape == want.shape and not np.signbit(got).any()
    assert [Fraction(v) for v in got.ravel()] == list(want.ravel())


def _sequences(filt, rng) -> list[np.ndarray]:
    """Integer terms in [-4, 4]; a terminal martingale of an integer vector; and that
    martingale with an integer head, an eventual martingale.  All exact dyadic rows."""
    n_terms, d = filt.horizon, filt.space.dim
    draws = [rng.integers(-4, 5, (n_terms, d)).astype(float) for _ in range(6)]
    terminal = terminal_sequence(filt, vector(filt.space, rng.integers(-4, 5, d))).coords
    head = terminal.copy()
    head[0] = rng.integers(-4, 5, d)
    return [*draws, terminal, head]


@pytest.fixture(params=["as-built", "plan-dim-0"])
def route(request, monkeypatch):
    """Both plan routes: ``_PLAN_DIM`` as built (a summing chain at d < 32 applies each
    stage), and 0, so that every chain with a plan reads it."""
    if request.param == "plan-dim-0":
        monkeypatch.setattr(martingales, "_PLAN_DIM", 0)
    return request.param


@pytest.mark.parametrize("name, size", CASES)
def test_the_kernels_equal_the_exact_defects(name, size, route):
    filt = _filtration(name, size)
    n_terms, d = filt.horizon, filt.space.dim
    rng = np.random.default_rng([size, n_terms, d])
    stack = rng.integers(-4, 5, (*STACK, n_terms, d)).astype(float)
    if route == "plan-dim-0":
        assert _plan_source(stack, filt) is not None
    for xs in [*_sequences(filt, rng), stack]:
        tables = [exact_table(rows, filt) for rows in xs.reshape(-1, n_terms, d)]
        profiles, steps = zip(*map(exact_profiles, tables))
        lead = xs.shape[:-2]
        table = np.array(tables, object).reshape(*lead, n_terms, n_terms)
        profile = np.array(profiles, object).reshape(*lead, n_terms)
        step = np.array(steps, object).reshape(*lead, n_terms - 1)
        assert_exact(_pair_table(xs, filt), table)
        got_profile, got_steps = _profiles(xs, filt)
        assert_exact(got_profile, profile)
        assert_exact(got_steps, step)
        assert_exact(_steps(xs, filt), step)


@pytest.mark.parametrize("name, size", [(n, s) for n, s in CASES if _filtration(n, s).horizon > 1])
def test_classify_reads_the_exact_defects(name, size):
    filt = _filtration(name, size)
    n_terms = filt.horizon
    for rows in _sequences(filt, np.random.default_rng([size, n_terms, 1])):
        report = classify(VectorSequence(filt.space, rows), filt)
        tols = report["tolerances"]
        profile, steps = exact_profiles(exact_table(rows, filt))
        assert [Fraction(v) for v in report["x_defects"]] == profile
        assert report["is_martingale"] == (max(profile) <= Fraction(tols["tol"]))
        flagged = [n for n, s in enumerate(steps, 1) if s > Fraction(tols["tol"])]
        last = flagged[-1] if flagged else 0
        assert report["e_witness"] == (last + 1 if last < n_terms - 1 else None)
        assert report["x_verdict"] is exact_verdict(profile, tols["eps_x"], tols["window_fraction"])
