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
an explicit INCONCLUSIVE outcome rather than a forced boolean.  Witnesses
are required strictly below the horizon: a witness at N would be vacuous
(there is nothing after it to check).

Generators for the classic example sequences (dyadic mean-zero indicator
martingale, alternating-pair martingale, harmonic tail, null sequences)
live here too; each returns exact floating-point data, so the documented
classification outcomes hold to rounding error.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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
    SpaceMismatchError,
    _Frozen,
    _Record,
    _frozen,
    _readonly,
    row_norms,
)

DEFAULT_EPS_FRACTION = 0.05
DEFAULT_WINDOW_FRACTION = 0.25
_PLAN_ROWS = 128  # rows per stage (members times band) from which a table reads a plan

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
    if a.space != b.space:
        raise SpaceMismatchError("sequences live in different spaces")
    if a.horizon != b.horizon:
        raise ValueError("sequences have different horizons")
    return float(row_norms(a.space, a.coords - b.coords).max())


def _require_matching(seq: VectorSequence, filt: Filtration) -> None:
    if seq.space != filt.space:
        raise ValueError("sequence and filtration live in different spaces")
    if seq.horizon != filt.horizon:
        raise ValueError(
            f"horizon mismatch: sequence has {seq.horizon} terms, "
            f"filtration has {filt.horizon} operators"
        )


def _pair_table(
    terms: VectorSequence | np.ndarray, filt: Filtration, band: int | None = None
) -> np.ndarray:
    """The pair-defect table every law here reduces.

    ``terms`` is one sequence or a (..., N, d) stack; the table is (..., N, band).
    Row n (0-based) holds T[n, k] = ||E_n x_{n+k} - x_n|| for k < band (default:
    the horizon); entries past the horizon are zero, which no reduction below
    mistakes for a defect.  Each stage gets E_n of the (..., band, d) block of
    terms, subtracts x_n and takes |.| in place (on fresh memory), then reduces
    it.  Stacks are bounded by ``harness.STACK_FLOATS``: whole families raised
    the peak RSS of ``verify``.

    A chain with a :attr:`Filtration.plan` reads every stage off one source: the
    terms' coordinates, a zero row and the rows of B.T x, one per block that sums.
    Row i of E_n x is mask_i times the sum over i's block at stage n, so it is
    source row ``cols[n, i]``.  Stage n gathers only its rows up to ``ends[n]``;
    each later row reads zero and adds |x_n,i| whatever m is, one norm per stage,
    joined to every pair after the loop (a maximum on a sup space, so the table
    is the per-stage one bit for bit when no block sums two coefs).  One rule
    picks the plan, from what its set-up costs (measured on a 2-core Xeon): a
    table of at least ``_PLAN_ROWS`` (128) rows per stage, members times band,
    reads it, and so does a chain with a summing stage from d = 32, whose one
    product replaces a block sum per stage.  Below that per-stage gathers cost
    less (a truncation table of one sequence at band < 32 took 1.1-1.7x as long
    through the plan, band-2 stacks of 8 at d = 64 1.4x), and a summing chain
    of d < 32 tabled once does not earn back its build (70-110 us at d <= 24).

    A NaN or infinite term x_m makes every pair it is in non-finite, in its
    own member only, and (n, m) NaN for each n, as ``0 * inf`` does in a
    dense product; a block stage never reads the coordinates it drops, so
    without this such a term could pass a law.
    """
    xs = terms.coords if isinstance(terms, VectorSequence) else terms
    n_terms, d = xs.shape[-2:]
    band = n_terms if band is None else band
    w = filt.space.weights  # None on a sup space: row_norms without its temporary
    sums = d >= 32 and any(isinstance(e, BlockOperator) and e._scale is None for e in filt.ops)
    plan = filt.plan if sums or math.prod(xs.shape[:-2]) * band >= _PLAN_ROWS else None
    tails = None
    if plan is not None:
        cols, (p, j, coef), width, ends = plan
        src = np.empty((width, *xs.shape[-2::-1]))  # (width, N, ...)
        src[:d], src[d] = xs.T, 0.0
        if width > d + 1:  # B.T, built on each call
            bt = np.zeros((width - d - 1, d))
            bt[p, j] = coef
            np.matmul(bt, src[:d].reshape(d, -1), out=src[d + 1 :].reshape(len(bt), -1))
            del bt
        if ends.min() < d:  # each stage's norm of |x_n| on its rows from ends[n] on
            tails = (np.maximum if w is None else np.add).reduce(
                np.abs(xs) if w is None else np.abs(xs) * w, axis=-1,
                where=np.arange(d) >= ends[:, None], initial=0.0)
        ends = ends.tolist()
    table = np.zeros((*xs.shape[:-2], n_terms, band))
    for n, e in enumerate(filt.ops):
        if plan is None:
            end, rows = d, apply_rows(e, xs[..., n : n + band, :])
        else:  # (..., band, end), as apply_rows lays rows out
            end = ends[n]
            rows = src[cols[n, :end], n : n + band].swapaxes(0, -1)
        rows -= xs[..., n, None, :end]
        np.abs(rows, out=rows)
        out = table[..., n, : rows.shape[-2]]  # each reduction writes its slice of the table
        if w is None:
            rows.max(axis=-1, out=out, initial=0.0)
        else:
            np.matmul(rows, w[:end], out=out)
    if tails is not None:  # the rows from ends[n] on, in every pair below the horizon
        within = np.tri(n_terms, band, dtype=bool)[::-1]
        (np.maximum if w is None else np.add)(table, tails[..., None], out=table, where=within)
    for *member, m in np.argwhere(~np.isfinite(xs).all(axis=-1)):
        n = np.arange(max(0, m - band + 1), m + 1)
        table[(*member, n, m - n)] = np.nan
    return table


def _require_contractive(filt: Filtration) -> None:
    if not is_contractive_filtration(filt):
        raise NonContractiveError("asymptotic classification requires a contractive filtration")


def _after_last(flagged: np.ndarray, cap: int) -> int | None:
    """One past the last (1-based) flagged index (1 if none), or None when that
    exceeds ``cap``.  Flag a defect with ``~(defect <= tol)`` so NaN is flagged."""
    last = int(np.flatnonzero(flagged)[-1]) + 1 if flagged.any() else 0
    return last + 1 if last < cap else None


def _step_witness(table: np.ndarray, tol: float = DEFAULT_TOL) -> int | None:
    """The minimal eventual witness read off one sequence's pair table of band >= 2."""
    return _after_last(~(table[:-1, 1] <= tol), len(table) - 1)


def is_martingale(seq: VectorSequence, filt: Filtration, tol: float = DEFAULT_TOL) -> bool:
    """Two-index law: ||E_n x_m - x_n|| <= tol for every pair m >= n."""
    _require_matching(seq, filt)
    return bool(_pair_table(seq, filt).max() <= tol)


def eventual_witness(
    seq: VectorSequence, filt: Filtration, tol: float = DEFAULT_TOL
) -> int | None:
    """Minimal l < N such that the one-step law holds at every m in [l, N-1].

    Returns None when no such l exists; a witness equal to N is vacuous
    (no step after it) and is never reported.
    """
    _require_matching(seq, filt)
    return _step_witness(_pair_table(seq, filt, band=2), tol)


def eventual_witness_pairwise(
    seq: VectorSequence, filt: Filtration, tol: float = DEFAULT_TOL
) -> int | None:
    """Two-index variant: minimal l < N with E_n x_m = x_n for m >= n >= l.

    Reads the row maxima of the full pair-defect table rather than the
    one-step differences, so it is independent data from
    :func:`eventual_witness`; agreement of the two minimal witnesses is a
    tested property.
    """
    _require_matching(seq, filt)
    return _after_last(~(_pair_table(seq, filt).max(axis=1) <= tol), seq.horizon - 1)


def one_step_defects(seq: VectorSequence, filt: Filtration) -> np.ndarray:
    """||E_m x_{m+1} - x_m|| for m = 1..N-1; the data behind :func:`eventual_witness`."""
    _require_matching(seq, filt)
    return _pair_table(seq, filt, band=2)[:-1, 1]


def defect_profile(seq: VectorSequence, filt: Filtration) -> np.ndarray:
    """d_n = max over m in [n, N] of ||E_n x_m - x_n||.

    The final entry reduces to ||E_N x_N - x_N||, which is zero whenever
    the last operator fixes the last term (in particular when E_N = I).
    """
    _require_matching(seq, filt)
    return _pair_table(seq, filt).max(axis=1)


def default_eps(seq: VectorSequence, norm: float | None = None) -> float:
    return DEFAULT_EPS_FRACTION * max(1.0, seq_norm(seq) if norm is None else norm)


def tail_window_start(horizon: int, window_fraction: float = DEFAULT_WINDOW_FRACTION) -> int:
    """First index (1-based) of the tail window used by :func:`tail_verdict`."""
    return min(horizon, max(1, math.ceil((1.0 - window_fraction) * horizon)))


def tail_verdict(
    seq: VectorSequence,
    filt: Filtration,
    eps: float | None = None,
    window_fraction: float = DEFAULT_WINDOW_FRACTION,
    profile: np.ndarray | None = None,
) -> Verdict:
    """Windowed finite-horizon verdict on the decay of the defect profile.

    Over the tail window starting at n* = ceil((1 - window_fraction) * N):

      * X_MARTINGALE  -- every windowed defect is <= eps and the profile is
        non-increasing across the window up to eps slack;
      * NOT_X         -- every windowed defect before the final entry
        exceeds 10 * eps (the final entry is excluded because it reflects
        only the single term m = N, a convention rather than evidence);
      * INCONCLUSIVE  -- anything in between; a finite window cannot
        confirm a limit, and the verdict says so rather than guessing.

    The defect notion presupposes a contractive filtration; a
    non-contractive one is rejected.
    """
    _require_matching(seq, filt)
    _require_contractive(filt)
    d = defect_profile(seq, filt) if profile is None else np.asarray(profile, dtype=float)
    if eps is None:
        eps = default_eps(seq)
    n_terms = seq.horizon
    start = tail_window_start(n_terms, window_fraction)
    window = d[start - 1 :]
    monotone = bool(np.all(window[1:] <= window[:-1] + eps))
    if float(window.max()) <= eps and monotone:
        return Verdict.X_MARTINGALE
    strict = d[start - 1 : n_terms - 1]
    if strict.size and float(strict.min()) > 10.0 * eps:
        return Verdict.NOT_X
    return Verdict.INCONCLUSIVE


class ClassificationReport(_Record):
    """Verdicts and defect data for one sequence against one filtration."""

    def __init__(
        self,
        is_martingale: bool,
        e_witness: int | None,
        x_defects: tuple[float, ...],
        x_verdict: Verdict,
        seq_norm: float,
        tol: float,
        eps_x: float,
        window_fraction: float,
        notes: tuple[str, ...] = REPORT_NOTES,
    ) -> None:
        self._set(
            is_martingale=is_martingale, e_witness=e_witness, x_defects=x_defects,
            x_verdict=x_verdict, seq_norm=seq_norm, tol=tol, eps_x=eps_x,
            window_fraction=window_fraction, notes=notes,
        )

    def to_dict(self) -> dict:
        return {
            "is_martingale": self.is_martingale,
            "e_witness": self.e_witness,
            "x_defects": [float(d) for d in self.x_defects],
            "x_verdict": self.x_verdict.value,
            "seq_norm": float(self.seq_norm),
            "tolerances": {
                "tol": float(self.tol),
                "eps_x": float(self.eps_x),
                "window_fraction": float(self.window_fraction),
            },
            "notes": list(self.notes),
        }


def classify(
    seq: VectorSequence,
    filt: Filtration,
    tol: float = DEFAULT_TOL,
    eps: float | None = None,
    window_fraction: float = DEFAULT_WINDOW_FRACTION,
) -> ClassificationReport:
    """Run all three classifications and bundle the evidence.

    Horizons of at least two are required: with a single term every
    witness would be vacuous and the class nesting degenerates.
    """
    _require_matching(seq, filt)
    if seq.horizon < 2:
        raise ValueError("classification needs a horizon of at least 2 terms")
    _require_contractive(filt)  # before the O(N^2 d) table, not after it
    norm = seq_norm(seq)
    if eps is None:
        eps = default_eps(seq, norm)
    table = _pair_table(seq, filt)
    d = table.max(axis=1)
    return ClassificationReport(
        is_martingale=bool(d.max() <= tol),
        e_witness=_step_witness(table, tol),
        x_defects=tuple(float(v) for v in d),
        x_verdict=tail_verdict(seq, filt, eps, window_fraction, profile=d),
        seq_norm=norm,
        tol=tol,
        eps_x=eps,
        window_fraction=window_fraction,
    )


# ---------------------------------------------------------------------------
# Sequence constructions
# ---------------------------------------------------------------------------

def _applied(ops: Sequence[Operator], x: np.ndarray) -> np.ndarray:
    """The stack of E x over ``ops``, one row per operator."""
    return np.stack([apply_rows(e, x) for e in ops])


def abs_seq(seq: VectorSequence) -> VectorSequence:
    """(|x_n|), the coordinate-wise absolute value term by term."""
    return VectorSequence(seq.space, np.abs(seq.coords))


def terminal_sequence(filt: Filtration, x: LatticeVector) -> VectorSequence:
    """x_n = E_n x; a martingale by the commuting-order law."""
    if x.space != filt.space:
        raise ValueError("vector and filtration live in different spaces")
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
    if x.space != seq.space:
        raise ValueError("replacement vector lives in a different space")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m >= seq.horizon:
        return seq
    tail = _applied(filt.ops[m:], x.coords)
    return VectorSequence(seq.space, _frozen(np.vstack((seq.coords[:m], tail))))


class ClosureReport(_Record):
    """Whether |A| stays in each class that A itself belongs to: ``base`` classifies
    A and ``abs`` classifies |A|."""

    def __init__(self, base: ClassificationReport, abs: ClassificationReport) -> None:
        self._set(base=base, abs=abs)

    @property
    def abs_stays_martingale(self) -> bool | None:
        return self.abs.is_martingale if self.base.is_martingale else None

    @property
    def abs_stays_eventual(self) -> bool | None:
        if self.base.e_witness is None:
            return None
        return self.abs.e_witness is not None

    @property
    def abs_stays_asymptotic(self) -> bool | None:
        if self.base.x_verdict is not Verdict.X_MARTINGALE:
            return None
        return self.abs.x_verdict is Verdict.X_MARTINGALE

    def to_dict(self) -> dict:
        return {
            "base": self.base.to_dict(),
            "abs": self.abs.to_dict(),
            "abs_stays_martingale": self.abs_stays_martingale,
            "abs_stays_eventual": self.abs_stays_eventual,
            "abs_stays_asymptotic": self.abs_stays_asymptotic,
        }


def check_lattice_closure(
    seq: VectorSequence, filt: Filtration, tol: float = DEFAULT_TOL
) -> ClosureReport:
    """Classify A and |A| and report whether taking absolute values leaves each class."""
    return ClosureReport(base=classify(seq, filt, tol), abs=classify(abs_seq(seq), filt, tol))


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


class _HarmonicFamily(Sequence):
    """The approximants A^1..A^{N-1} of the harmonic tail, each built from
    the two (N, d) row tables when it is read and never stored."""

    def __init__(self, space: LatticeSpace, x_tail: np.ndarray, y_head: np.ndarray) -> None:
        self._space, self._x_tail, self._y_head = space, x_tail, y_head

    def __len__(self) -> int:
        return len(self._x_tail) - 1

    def __getitem__(self, k: int | slice) -> VectorSequence | list[VectorSequence]:
        m = range(1, len(self._x_tail))[k]  # negative indices, slices and IndexError
        if isinstance(m, range):
            return [self._member(i) for i in m]
        return self._member(m)

    def _member(self, m: int) -> VectorSequence:
        return sequence(self._space, _frozen(np.vstack((self._x_tail[:m], self._y_head[m:] / m))))


def harmonic_tail_example(
    n_terms: int,
) -> tuple[Filtration, VectorSequence, Sequence[VectorSequence]]:
    """Harmonic-tail sequence and its eventual-martingale approximants.

    On the truncation filtration of dimension N, x_n = sum_{i=n..N} e_i / i
    is never an eventual martingale, yet the approximants A^m (terms 1..m
    kept, tail replaced by (sum_{i<=n} e_i / i) / m) all are, and
    ||A^m - A|| = 1/m.  The family witnesses that the eventual class is
    not closed under the sequence-space norm while the asymptotic class is.

    ``family[m - 1]`` is A^m for m = 1..N-1.  Each member is built on each
    access, so the example holds O(N d) floats, not the N x N x d of the
    whole family.
    """
    if n_terms < 2:
        raise ValueError("n_terms must be >= 2")
    filt = build_truncation(n_terms)
    space = filt.space
    inv = np.tile(1.0 / np.arange(1, n_terms + 1), (n_terms, 1))
    x_tail, y_head = np.triu(inv), np.tril(inv)  # row n-1 is x_n resp. sum_{i<=n} e_i / i
    return filt, sequence(space, _frozen(x_tail)), _HarmonicFamily(space, x_tail, y_head)
