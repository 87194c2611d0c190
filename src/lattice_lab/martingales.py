"""Martingale-like sequences and their classification.

A finite sequence x_1..x_N against a filtration E_1..E_N falls into three
nested classes, checked by three different rules:

  * martingale            -- E_n x_m = x_n for all m >= n (exact law,
                             tolerance ``tol``);
  * eventual martingale   -- the one-step law E_m x_{m+1} = x_m holds from
                             some index l onward (``eventual_witness``
                             returns the minimal such l);
  * asymptotic martingale -- the defect d_n = max_{m >= n} ||E_n x_m - x_n||
                             decays over the tail (``tail_verdict``).

The first two are algebraic and use the exact-law tolerance; the third is
a limit statement, so at a finite horizon it gets a windowed verdict with
an explicit INCONCLUSIVE outcome rather than a forced boolean.  Only
``classify`` takes these knobs (``tol``, ``eps``, ``window_fraction``); each
single-rule entry is its decision at the defaults.  Witnesses are required
strictly below the horizon: a witness at N would be vacuous.

Generators for the classic example sequences (dyadic mean-zero indicator
martingale, alternating-pair martingale, harmonic tail, null sequences)
live here too; each returns exact floating-point data, so the documented
classification outcomes hold to rounding error.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from enum import Enum

import numpy as np

from .filtration import (
    Filtration,
    build_dyadic,
    build_pairing,
    build_truncation,
    is_contractive_filtration,
)
from .operators import BlockOperator, Operator, apply_rows
from .spaces import (
    DEFAULT_TOL,
    LatticeSpace,
    LatticeVector,
    _Frozen,
    _frozen,
    _readonly,
    _require_same_space,
    _require_tolerance,
    row_norms,
)

DEFAULT_EPS_FRACTION = 0.05
DEFAULT_WINDOW_FRACTION = 0.25
_PLAN_DIM = 32  # d from which a chain with a summing stage reads its plan
_CHUNK_FLOATS = 2**15  # floats of one planned gather, and of terms in one stack of a check

REPORT_NOTES = (
    "defect entry n is the max over terms m = n..N; the final entry uses only the final term",
    "verdicts are finite-horizon evidence consistent with the limit statements, not proofs",
)


class NonContractiveError(ValueError):
    """Asymptotic classification requires a contractive filtration."""


class Verdict(str, Enum):
    X_MARTINGALE = "X_MARTINGALE"
    NOT_X = "NOT_X"
    INCONCLUSIVE = "INCONCLUSIVE"


class VectorSequence(_Frozen):
    """A nonempty finite sequence in one space, stored as one read-only
    (N, d) array: row n-1 of ``coords`` is x_n.

    ``coords`` must already be a 2-D table of N >= 1 rows of ``space.dim``
    numbers; nothing is reshaped, so a flat or ragged list is rejected.
    """

    def __init__(self, space: LatticeSpace, coords: np.ndarray) -> None:
        arr = _readonly(coords)
        if arr.ndim != 2 or arr.shape[1] != space.dim:
            raise ValueError(f"expected rows of {space.dim} coordinates, got shape {arr.shape}")
        if not len(arr):
            raise ValueError("a sequence needs at least one term")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coords", arr)

    @property
    def horizon(self) -> int:
        return len(self.coords)

    @property
    def vectors(self) -> tuple[LatticeVector, ...]:
        """The terms x_1..x_N as vectors, built from the rows on each call."""
        return tuple(LatticeVector(self.space, row) for row in self.coords)

    def term(self, n: int) -> LatticeVector:
        if not 1 <= n <= self.horizon:
            raise IndexError(f"term index {n} out of range 1..{self.horizon}")
        return LatticeVector(self.space, self.coords[n - 1])

    def __repr__(self) -> str:
        return f"VectorSequence(dim={self.space.dim}, horizon={self.horizon})"


def sequence(space: LatticeSpace, rows: Sequence[Sequence[float]]) -> VectorSequence:
    return VectorSequence(space, rows)


def seq_norm(seq: VectorSequence) -> float:
    """Sup over n of ||x_n||: the sequence-space norm."""
    return float(row_norms(seq.space, seq.coords).max())


def seq_distance(a: VectorSequence, b: VectorSequence) -> float:
    """Sup over n of ||a_n - b_n|| (both sequences must share space and horizon)."""
    _require_same_space(a, b, "sequences")
    if a.horizon != b.horizon:
        raise ValueError("sequences have different horizons")
    return float(row_norms(a.space, a.coords - b.coords).max())


def _require_matching(seq: VectorSequence, filt: Filtration) -> None:
    _require_same_space(seq, filt, "sequence and filtration")
    if seq.horizon != filt.horizon:
        raise ValueError(
            f"horizon mismatch: sequence has {seq.horizon} terms, "
            f"filtration has {filt.horizon} operators"
        )


def _require_horizon(what: str, horizon: int) -> None:
    """A horizon of one term leaves a tail window of one index: no evidence of decay."""
    if horizon < 2:
        raise ValueError(f"{what} needs a horizon of at least 2 terms")


@np.errstate(invalid="ignore")  # a non-finite term is NaN by the stated rule
def _pair_table(terms: VectorSequence | np.ndarray, filt: Filtration) -> np.ndarray:
    """The pair-defect table T[n, k] = ||E_n x_{n+k} - x_n||, zero past the horizon, of one
    sequence or a (..., N, d) stack, for the laws that read pairs (``band-lattice``).

    Each stage applies E_n to its (..., N - n, d) block of terms, subtracts x_n and takes |.|
    in place (on fresh memory), then reduces it.  A chain that reads its plan by the rule of
    :func:`_plan_source` takes each chunk of consecutive stages (``_CHUNK_FLOATS`` floats with
    one row more, or one stage) as one gather of their d rows, one subtraction, |.| and
    reduction, off whose diagonal each stage reads its row.  A dropped row reads the zero
    row, |x_n,i|, so on a sup space a chain of gathers gives the per-stage table bit for bit.

    A non-finite term x_m makes each pair (n, m) NaN, in its own member only, as ``0 * inf``
    does in a dense product: a block stage never reads the coordinates it drops, so such a
    term could otherwise pass a law.
    """
    xs = terms.coords if isinstance(terms, VectorSequence) else terms
    *lead, n_terms, d = xs.shape
    members = math.prod(lead)
    w = filt.space.weights  # None on a sup space: row_norms without its temporary
    planned = _plan_source(xs, filt)
    table = np.zeros((*lead, n_terms, n_terms))
    if planned is None:
        for n, e in enumerate(filt.ops):
            rows = apply_rows(e, xs[..., n:, :])  # (..., N - n, d)
            rows -= xs[..., n, None, :]
            np.abs(rows, out=rows)
            out = table[..., n, : n_terms - n]  # each reduction writes its slice of the table
            if w is None:
                rows.max(axis=-1, out=out, initial=0.0)
            else:
                np.matmul(rows, w, out=out)
    else:
        (cols, *_), src = planned
        xn = src[:d, :, None].swapaxes(0, 1)  # x_n: (N, d, 1, members)
        flat, lo = table.reshape(members, n_terms, n_terms), 0
        while lo < n_terms:  # stages lo..hi-1: stages, rows (one more), term columns, members
            b = n_terms - lo
            hi = lo + min(b, max(1, _CHUNK_FLOATS // ((d + 1) * members * b)))
            c = hi - lo
            rows = src[cols[lo:hi], lo:]  # (c, d, b, members)
            rows -= xn[lo:hi]
            np.abs(rows, out=rows)
            # stage lo + k's row starts at column k; one stage of one sequence is the whole result
            one = c * members == 1
            out = flat[:, lo:hi].swapaxes(1, 2) if one else np.zeros((c, c - 1 + b, members))
            if w is None:
                rows.max(axis=1, out=out[:, :b], initial=0.0)
            else:  # one product by BLAS, on stacks too
                lanes = rows.transpose(0, 2, 3, 1).reshape(c, -1, d)  # (c, b * members, d)
                np.matmul(lanes, w, out=out[:, :b].reshape(c, -1))
            if not one:
                s0, s1, s2 = out.strides
                flat[:, lo:hi, :b] = np.ndarray((members, c, b), float, out, 0, (s2, s0 + s1, s1))
            lo = hi
    for *member, m in np.argwhere(~np.isfinite(xs).all(axis=-1)):
        n = np.arange(m + 1)
        table[(*member, n, m - n)] = np.nan
    return table


@np.errstate(invalid="ignore")  # a non-finite term is NaN by the stated rule
def _steps(terms: VectorSequence | np.ndarray, filt: Filtration) -> np.ndarray:
    """The one-step defects ||E_n x_{n+1} - x_n||, n < N - 1, of one sequence or a
    (..., N, d) stack: each stage applied to the next term only, then one ``row_norms``.
    Step n is NaN when x_{n+1} is not finite, the rule of :func:`_pair_table`'s (n, n + 1)."""
    xs = terms.coords if isinstance(terms, VectorSequence) else terms
    diffs = np.empty(xs[..., 1:, :].shape)
    for n, e in enumerate(filt.ops[:-1]):
        diffs[..., n, :] = apply_rows(e, xs[..., n + 1, :])
    diffs -= xs[..., :-1, :]
    steps = row_norms(filt.space, diffs)
    steps[~np.isfinite(xs[..., 1:, :]).all(axis=-1)] = np.nan
    return steps


def _plan_source(xs: np.ndarray, filt: Filtration) -> tuple | None:
    """The plan a (..., N, d) stack of terms reads, or None, and its source by (width, N,
    members): the coordinates, a zero row and B.T x (B.T built on each call).

    The one rule of every planned read, the table's and the scan's: a nonempty stack on a
    chain with a plan reads it, unless a stage sums and d < ``_PLAN_DIM`` (a fresh
    random-nested draw, read about once: below that width its plan costs more than it saves)."""
    *_, n_terms, d = xs.shape
    sums = any(isinstance(e, BlockOperator) and e._scale is None for e in filt.ops)
    plan = None if sums and d < _PLAN_DIM else filt.plan
    if plan is None or not xs.size:
        return None
    _, (p, j, coef), width = plan
    members = xs.size // (n_terms * d)
    src, per = np.empty((width, n_terms, members)), max(1, _CHUNK_FLOATS // (d * members))
    for lo in range(0, n_terms, per):  # the (d, N, members) transpose, by runs kept in cache
        src[:d, lo : lo + per] = xs.reshape(members, n_terms, d).T[:, lo : lo + per]
    src[d] = 0.0
    if width > d + 1:
        bt = np.zeros((width - d - 1, d))
        bt[p, j] = coef
        np.matmul(bt, src[:d].reshape(d, -1), out=src[d + 1 :].reshape(len(bt), -1))
    return plan, src


@np.errstate(invalid="ignore")  # a non-finite term is NaN by the stated rule
def _profiles(terms: VectorSequence | np.ndarray, filt: Filtration) -> tuple[np.ndarray, ...]:
    """The defect profile d_n = max_k T[n, k] and the one-step defects T[n, 1], n < N - 1,
    of one sequence or a (..., N, d) stack, bit for bit those of the full :func:`_pair_table`.

    A sup chain that reads its plan (the rule of :func:`_plan_source`) scans the table's
    source instead: row i of E_n x_m is source row ``cols[n, i]`` at term m and rounding is
    monotone, so d_n = max_i max(|S+ - x_n,i|, |S- - x_n,i|) (the |.| moves no maximum, and
    keeps -0 out) for the maximum S+ and minimum S- of that row over m >= n: a suffix scan
    (Blelloch, CMU-CS-90-190, 1990).  Each chunk of stages gathers rows ``cols[n, i] * N + n``
    (+ 1 for the steps) by an i-major ``np.take``, a run of terms per source row.  Weighted L1
    does not split (a max over m of a sum over blocks): a table.
    """
    xs = terms.coords if isinstance(terms, VectorSequence) else terms
    *lead, n_terms, d = xs.shape
    members = math.prod(lead)
    planned = None if filt.space.weights is not None else _plan_source(xs, filt)
    if planned is None:
        table = _pair_table(xs, filt)
        return table.max(-1), table[..., :-1, 1:2].reshape(*lead, n_terms - 1)  # N = 1: empty
    (cols, *_), src = planned
    out = np.empty((3, members, n_terms))  # the steps, max |S+ - x| and max |S- - x|
    top, per = np.empty_like(src), max(1, _CHUNK_FLOATS // (d * members))
    lanes, tops = src.reshape(-1, members), top.reshape(-1, members)  # row c * N + m: c at m
    # S+ with the steps (lanes[1:] at m is term m + 1), then S-: one index per chunk and scan
    for scan, reads in ((np.maximum, ((lanes[1:], 0), (tops, 1))), (np.minimum, ((tops, 2),))):
        scan.accumulate(src[:, ::-1], axis=1, out=top[:, ::-1])
        for lo in range(0, n_terms, per):
            hi = min(lo + per, n_terms)
            at = np.multiply(cols[lo:hi].T, n_terms, dtype=np.intp, order="C")
            at += np.arange(lo, hi)
            for rows_of, k in reads:
                c = hi - lo if k else min(hi, n_terms - 1) - lo  # no step from the last term
                rows = rows_of.take(at[:, :c], axis=0)  # (d, c, members), by runs of terms
                np.abs(np.subtract(rows, src[:d, lo : lo + c], out=rows), out=rows)
                rows.max(axis=0, out=out[k, :, lo : lo + c].T)
    profile, steps = np.maximum(out[1], out[2]), out[0, :, :-1]
    bad = ~np.isfinite(xs).all(axis=-1).reshape(members, n_terms)
    profile[np.logical_or.accumulate(bad[:, ::-1], axis=-1)[:, ::-1]] = np.nan
    steps[bad[:, 1:]] = np.nan
    return profile.reshape(*lead, n_terms), steps.reshape(*lead, n_terms - 1)


def _require_contractive(filt: Filtration) -> None:
    if not is_contractive_filtration(filt):
        raise NonContractiveError("asymptotic classification requires a contractive filtration")


def _after_last(flagged: np.ndarray, cap: int) -> int | None:
    """One past the last (1-based) flagged index (1 if none), or None when that
    exceeds ``cap``.  Flag a defect with ``~(defect <= tol)`` so NaN is flagged."""
    last = int(np.flatnonzero(flagged)[-1]) + 1 if flagged.any() else 0
    return last + 1 if last < cap else None


def _step_witness(steps: np.ndarray, tol: float = DEFAULT_TOL) -> int | None:
    """The minimal eventual witness read off one sequence's one-step defects."""
    return _after_last(~(steps <= tol), len(steps))


def is_martingale(seq: VectorSequence, filt: Filtration) -> bool:
    """Two-index law: ||E_n x_m - x_n|| <= ``DEFAULT_TOL`` for every pair m >= n."""
    return bool(defect_profile(seq, filt).max() <= DEFAULT_TOL)


def eventual_witness(seq: VectorSequence, filt: Filtration) -> int | None:
    """Minimal l < N such that the one-step law holds at ``DEFAULT_TOL`` at every m in
    [l, N-1]; ``classify(seq, filt, tol)["e_witness"]`` is the witness at another tol.

    Returns None when no such l exists; a witness equal to N is vacuous
    (no step after it) and is never reported.
    """
    return _step_witness(one_step_defects(seq, filt))


def eventual_witness_pairwise(seq: VectorSequence, filt: Filtration) -> int | None:
    """Two-index variant: minimal l < N with E_n x_m = x_n for m >= n >= l, read off the
    defect profile at ``DEFAULT_TOL``, data independent of :func:`eventual_witness`'s
    one-step defects; that the two minimal witnesses agree is a tested property."""
    return _after_last(~(defect_profile(seq, filt) <= DEFAULT_TOL), seq.horizon - 1)


def one_step_defects(seq: VectorSequence, filt: Filtration) -> np.ndarray:
    """||E_m x_{m+1} - x_m|| for m = 1..N-1; the data behind :func:`eventual_witness`."""
    _require_matching(seq, filt)
    return _steps(seq, filt)


def defect_profile(seq: VectorSequence, filt: Filtration) -> np.ndarray:
    """d_n = max over m in [n, N] of ||E_n x_m - x_n||.

    The final entry reduces to ||E_N x_N - x_N||, which is zero whenever
    the last operator fixes the last term (in particular when E_N = I).
    """
    _require_matching(seq, filt)
    return _profiles(seq, filt)[0]


def default_eps(seq: VectorSequence, norm: float | None = None) -> float:
    """5% of max(1, norm), norm ||A|| by default; NaN (no verdict) for a norm not finite."""
    norm = seq_norm(seq) if norm is None else norm
    return DEFAULT_EPS_FRACTION * max(1.0, norm) if math.isfinite(norm) else math.nan


def tail_window_start(horizon: int, window_fraction: float = DEFAULT_WINDOW_FRACTION) -> int:
    """First index (1-based) n* = ceil((1 - window_fraction) * N) of the tail window, at
    least 1; a fraction outside (0, 1], NaN included, raises ``ValueError``."""
    if not 0.0 < window_fraction <= 1.0:
        raise ValueError(f"window_fraction must be in (0, 1], got {window_fraction}")
    return max(1, math.ceil((1.0 - window_fraction) * horizon))


def _tail_rule(d: np.ndarray, start: int, eps: float) -> Verdict:
    """The verdict on a defect profile ``d`` over its tail window from index ``start``
    (1-based), the one rule of :func:`classify` and :func:`tail_verdict`:

      * X_MARTINGALE  -- every windowed defect is <= eps (a NaN defect is not, and a NaN
        eps, :func:`default_eps` of a norm not finite, confirms nothing);
      * NOT_X         -- every windowed defect before the final entry
        exceeds 10 * eps (the final entry is excluded because it reflects
        only the single term m = N, a convention rather than evidence);
      * INCONCLUSIVE  -- anything in between; a finite window cannot
        confirm a limit, and the verdict says so rather than guessing."""
    if float(d[start - 1 :].max()) <= eps:
        return Verdict.X_MARTINGALE
    strict = d[start - 1 : len(d) - 1]
    if strict.size and float(strict.min()) > 10.0 * eps:
        return Verdict.NOT_X
    return Verdict.INCONCLUSIVE


def tail_verdict(seq: VectorSequence, filt: Filtration) -> Verdict:
    """Windowed verdict on the decay of the defect profile: :func:`_tail_rule` at the
    default window and eps; ``classify(...)["x_verdict"]`` reads another eps or window.  A
    horizon below 2 (a one-index window) raises ``ValueError``, and a non-contractive
    filtration, on which the defect notion rests, :class:`NonContractiveError`."""
    _require_matching(seq, filt)
    _require_horizon("tail verdict", seq.horizon)
    _require_contractive(filt)
    return _tail_rule(_profiles(seq, filt)[0], tail_window_start(seq.horizon), default_eps(seq))


class ClassificationReport(dict):
    """The dict :func:`classify` returns; ``to_dict()`` is the dict itself."""

    def to_dict(self) -> dict:
        return self


def classify(
    seq: VectorSequence,
    filt: Filtration,
    tol: float = DEFAULT_TOL,
    eps: float | None = None,
    window_fraction: float = DEFAULT_WINDOW_FRACTION,
) -> ClassificationReport:
    """Run all three classifications: the dict ``classify --json`` prints, whose
    ``x_verdict`` is a :class:`Verdict`, a ``str`` enum that JSON writes as its value.

    Horizons of at least two are required: with a single term every
    witness would be vacuous and the class nesting degenerates.  Each bad argument
    raises ``ValueError`` before any defect is computed.
    """
    _require_matching(seq, filt)
    _require_horizon("classification", seq.horizon)
    _require_tolerance("tol", tol)
    if eps is not None:
        _require_tolerance("eps", eps)
    start = tail_window_start(seq.horizon, window_fraction)  # each refusal before the profiles
    _require_contractive(filt)
    norm = seq_norm(seq)
    if eps is None:
        eps = default_eps(seq, norm)
    d, steps = _profiles(seq, filt)
    return ClassificationReport(
        is_martingale=bool(d.max() <= tol),
        e_witness=_step_witness(steps, tol),
        x_defects=d.tolist(),
        x_verdict=_tail_rule(d, start, eps),
        seq_norm=norm,
        tolerances={"tol": float(tol), "eps_x": float(eps),
                    "window_fraction": float(window_fraction)},
        notes=list(REPORT_NOTES),
    )


# ---------------------------------------------------------------------------
# Sequence constructions
# ---------------------------------------------------------------------------

@np.errstate(invalid="ignore")  # a non-finite x gives NaN rows, as in :func:`operators.apply`
def _applied(ops: Sequence[Operator], x: np.ndarray) -> np.ndarray:
    """The stack of E x over ``ops``, one row per operator."""
    return np.stack([apply_rows(e, x) for e in ops])


def abs_seq(seq: VectorSequence) -> VectorSequence:
    """(|x_n|), the coordinate-wise absolute value term by term."""
    return VectorSequence(seq.space, np.abs(seq.coords))


def terminal_sequence(filt: Filtration, x: LatticeVector) -> VectorSequence:
    """x_n = E_n x; a martingale by the commuting-order law."""
    _require_same_space(x, filt, "vector and filtration")
    return VectorSequence(filt.space, _frozen(_applied(filt.ops, x.coords)))


def scale_head(seq: VectorSequence, factor: float) -> VectorSequence:
    """Scale the first term only; the classic eventual-but-not-martingale tweak."""
    return VectorSequence(seq.space, np.vstack((seq.coords[:1] * factor, seq.coords[1:])))


def null_sequence(x: LatticeVector, n_terms: int) -> VectorSequence:
    """x_k = x / k: converges to zero, hence asymptotic for any contractive filtration."""
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    return VectorSequence(x.space, x.coords * (1.0 / np.arange(1, n_terms + 1))[:, None])


def tail_modify(
    seq: VectorSequence, filt: Filtration, x: LatticeVector, m: int
) -> VectorSequence:
    """Keep terms 1..m, replace the tail by E_n x.

    The result satisfies the one-step law from m+1 onward, so it is an
    eventual martingale with witness at most m+1.  With m >= N the
    sequence is returned unchanged; m = 0 replaces every term.
    """
    _require_matching(seq, filt)
    _require_same_space(x, seq, "replacement vector and sequence")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m >= seq.horizon:
        return seq
    tail = _applied(filt.ops[m:], x.coords)
    return VectorSequence(seq.space, _frozen(np.vstack((seq.coords[:m], tail))))


def check_lattice_closure(seq: VectorSequence, filt: Filtration) -> dict:
    """Classify A (``base``) and |A| (``abs``) at the default knobs and say whether |A|
    stays in each class: each ``abs_stays_*`` is None where A itself is not in that class."""
    base, abs_ = (classify(s, filt) for s in (seq, abs_seq(seq)))
    x = Verdict.X_MARTINGALE
    return {
        "base": base,
        "abs": abs_,
        "abs_stays_martingale": abs_["is_martingale"] if base["is_martingale"] else None,
        "abs_stays_eventual": None if base["e_witness"] is None else abs_["e_witness"] is not None,
        "abs_stays_asymptotic": abs_["x_verdict"] is x if base["x_verdict"] is x else None,
    }


# ---------------------------------------------------------------------------
# Named example instances
# ---------------------------------------------------------------------------

def haar_example(levels: int) -> tuple[Filtration, VectorSequence]:
    """Mean-zero scaled-indicator martingale on the dyadic model.

    x_n takes the value 2**n - 1 on the first 2**(levels-n) cells and -1
    elsewhere, for n = 1..levels.  It is a martingale, but |x_n| fails the
    one-step law at every step, so the absolute sequence is not an
    eventual martingale.
    """
    filt = build_dyadic(levels)
    n = np.arange(1, levels + 1)[:, None]
    cells = np.arange(filt.space.dim)
    rows = np.where(cells < 2 ** (levels - n), 2.0**n - 1.0, -1.0)
    return filt, sequence(filt.space, rows)


def pairing_example(pairs: int) -> tuple[Filtration, VectorSequence]:
    """Alternating-pair martingale on the pair-averaging filtration.

    x_n alternates -1, 1 on its first 2n coordinates and is zero after,
    for n = 1..pairs (the all-zero initial term of the raw construction is
    dropped, matching the omitted all-averaging stage of the filtration).
    A is a martingale; |A| is constant one on a growing block and fails
    the one-step law with sup-norm defect exactly one at every step.
    """
    filt = build_pairing(pairs)
    n = np.arange(1, pairs + 1)[:, None]
    cells = np.arange(filt.space.dim)
    rows = np.where(cells < 2 * n, np.tile([-1.0, 1.0], pairs), 0.0)
    return filt, sequence(filt.space, rows)


class _TailFamily(Sequence):
    """The tail modifications A^1..A^{N-1} of the rows ``head``: A^m keeps rows 1..m and
    takes ``tail(m)`` as its rows m+1..N.  Each member is built when it is read and never
    stored, so a family holds O(N d) floats, not the N x N x d of its members."""

    def __init__(self, space: LatticeSpace, head: np.ndarray, tail: Callable) -> None:
        self._space, self._head, self._tail = space, head, tail

    def __len__(self) -> int:
        return len(self._head) - 1

    def __getitem__(self, k: int | slice) -> VectorSequence | list[VectorSequence]:
        m = range(1, len(self._head))[k]  # negative indices, slices and IndexError
        if isinstance(m, range):
            return [self._member(i) for i in m]
        return self._member(m)

    def _member(self, m: int) -> VectorSequence:
        return sequence(self._space, _frozen(np.vstack((self._head[:m], self._tail(m)))))


def harmonic_tail_example(
    n_terms: int,
) -> tuple[Filtration, VectorSequence, Sequence[VectorSequence]]:
    """Harmonic-tail sequence and its eventual-martingale approximants.

    On the truncation filtration of dimension N, x_n = sum_{i=n..N} e_i / i
    is never an eventual martingale, yet the approximants A^m (terms 1..m
    kept, tail replaced by (sum_{i<=n} e_i / i) / m, the E_n x of
    :func:`tail_modify` for x = (sum_i e_i / i) / m) all are, and
    ||A^m - A|| = 1/m.  The family witnesses that the eventual class is
    not closed under the sequence-space norm while the asymptotic class is.

    ``family[m - 1]`` is A^m for m = 1..N-1, a :class:`_TailFamily`: each
    member is built on each access, so the example holds O(N d) floats.
    """
    if n_terms < 2:
        raise ValueError("n_terms must be >= 2")
    filt = build_truncation(n_terms)
    space = filt.space
    inv = np.tile(1.0 / np.arange(1, n_terms + 1), (n_terms, 1))
    x_tail, y_head = np.triu(inv), np.tril(inv)  # row n-1 is x_n resp. sum_{i<=n} e_i / i
    family = _TailFamily(space, x_tail, lambda m: y_head[m:] / m)
    return filt, sequence(space, _frozen(x_tail)), family
