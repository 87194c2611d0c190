"""Correctness oracles in raw numpy, independent of lattice_lab's code.

The pair-defect table T[n, m] = ||E_n x_m - x_n|| (m >= n) is computed with
one matrix product per row, and the three verdicts are re-derived from it
by the rules documented in ``lattice_lab.martingales``: the exact law
(max T <= tol), the minimal one-step witness, and the windowed tail verdict
on the row maxima.  The filtration laws are recomputed from the operator
matrices, the order law on adjacent pairs only (which implies it for all
pairs on a nested chain).
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-9              # lattice_lab's default exact-law tolerance
EPS_FRACTION = 0.05     # default tail eps = 0.05 * max(1, ||A||)
WINDOW_FRACTION = 0.25  # default tail window
DEFECT_RTOL = 1e-9
DEFECT_ATOL = 1e-12


def norms(cols: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    """Sup or weighted-L1 norm of each column."""
    a = np.abs(cols)
    return a.max(axis=0) if weights is None else weights @ a


def pair_table(ops, xs: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    """Upper-triangular T[n, m] for 0-based n <= m; NaN below the diagonal."""
    n_terms = xs.shape[0]
    table = np.full((n_terms, n_terms), np.nan)
    for n, e in enumerate(ops):
        diff = e @ xs[n:].T - xs[n][:, None]
        table[n, n:] = norms(diff, weights)
    return table


def classification(ops, xs: np.ndarray, weights: np.ndarray | None) -> dict:
    """Expected classify output for a sequence (rows of xs) against ops."""
    n_terms = xs.shape[0]
    table = pair_table(ops, xs, weights)
    profile = np.nanmax(table, axis=1)
    one_step = np.array([table[m, m + 1] for m in range(n_terms - 1)])
    bad = np.flatnonzero(one_step > TOL)
    witness = (int(bad[-1]) + 2) if bad.size else 1
    seq_norm = float(norms(xs.T, weights).max())
    eps = EPS_FRACTION * max(1.0, seq_norm)
    start = min(n_terms, max(1, math.ceil((1.0 - WINDOW_FRACTION) * n_terms)))
    window = profile[start - 1:]
    strict = profile[start - 1: n_terms - 1]
    if window.max() <= eps and np.all(window[1:] <= window[:-1] + eps):
        verdict = "X_MARTINGALE"
    elif strict.size and strict.min() > 10.0 * eps:
        verdict = "NOT_X"
    else:
        verdict = "INCONCLUSIVE"
    return {
        "is_martingale": bool(np.nanmax(table) <= TOL),
        "e_witness": witness if witness <= n_terms - 1 else None,
        "x_defects": profile,
        "x_verdict": verdict,
        "seq_norm": seq_norm,
        "one_step": one_step,
    }


def compare_classification(got: dict, want: dict) -> str | None:
    """First difference between a classify report (as a dict) and the oracle."""
    for key in ("is_martingale", "e_witness", "x_verdict"):
        if got[key] != want[key]:
            return f"{key}: got {got[key]!r}, oracle {want[key]!r}"
    defects = np.asarray(got["x_defects"], dtype=float)
    if defects.shape != want["x_defects"].shape or not np.allclose(
        defects, want["x_defects"], rtol=DEFECT_RTOL, atol=DEFECT_ATOL
    ):
        return "x_defects differ from the oracle's pair-defect table"
    if not math.isclose(got["seq_norm"], want["seq_norm"], rel_tol=DEFECT_RTOL):
        return f"seq_norm: got {got['seq_norm']!r}, oracle {want['seq_norm']!r}"
    return None


def check_expectation(want: dict, expect: dict) -> str | None:
    """Check the oracle's verdicts against what a construction guarantees."""
    for key in ("is_martingale", "e_witness", "x_verdict"):
        if key in expect and want[key] != expect[key]:
            return f"construction expects {key}={expect[key]!r}, oracle has {want[key]!r}"
    if "e_witness_at_most" in expect:
        w = want["e_witness"]
        if w is None or w > expect["e_witness_at_most"]:
            return f"construction expects a witness <= {expect['e_witness_at_most']}, oracle has {w!r}"
    if "one_step" in expect and not np.allclose(want["one_step"], expect["one_step"]):
        return f"construction expects every one-step defect to be {expect['one_step']}"
    if expect.get("profile_le_2_over_n"):
        n = np.arange(1, want["x_defects"].size + 1)
        if np.any(want["x_defects"] > 2.0 / n + TOL):
            return "construction expects defect profile d_n <= 2/n"
    return None


def operator_norms(ops, weights: np.ndarray | None) -> np.ndarray:
    """Induced norm of each operator: max row sum (sup) or max weighted column ratio (L1)."""
    out = []
    for e in ops:
        a = np.abs(e)
        out.append(a.sum(axis=1).max() if weights is None else ((weights @ a) / weights).max())
    return np.array(out)


def check_validation(report: dict, ops, weights: np.ndarray | None) -> str | None:
    """Compare a ``validate --contractive --json`` report with the recomputed laws."""
    laws = {c["law"]: c for c in report["checks"]}
    expected_laws = ["positivity", "idempotence", "commuting-order", "contractivity"]
    if list(laws) != expected_laws:
        return f"laws reported {list(laws)}, expected {expected_laws}"
    positivity = max(0.0, float(-min(e.min() for e in ops)))
    idempotence = float(max(np.abs(e @ e - e).max() for e in ops))
    contractivity = max(0.0, float(operator_norms(ops, weights).max()) - 1.0)
    adjacent = max(
        [0.0]
        + [float(np.abs(a @ b - a).max()) for a, b in zip(ops, ops[1:])]
        + [float(np.abs(b @ a - a).max()) for a, b in zip(ops, ops[1:])]
    )
    raw = {"positivity": positivity, "idempotence": idempotence, "contractivity": contractivity}
    for law, worst in raw.items():
        if not math.isclose(laws[law]["worst"], worst, rel_tol=1e-9, abs_tol=1e-12):
            return f"{law} worst: got {laws[law]['worst']!r}, oracle {worst!r}"
    passed = max(positivity, idempotence, contractivity, adjacent) <= TOL
    if report["passed"] != passed or laws["commuting-order"]["passed"] != (adjacent <= TOL):
        return f"passed: got {report['passed']}, oracle {passed}"
    return None
