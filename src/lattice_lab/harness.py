"""Executable evidence for the structural claims about martingale-like classes.

Each check exercises one claim on concrete and randomized instances and
returns a :class:`TheoremResult` with status

  * CONFIRMED    -- every instance satisfying the claim's premises showed
                    the claimed conclusion;
  * VIOLATED     -- a premise-satisfying instance contradicted the
                    conclusion.  The claims are proved facts, so a
                    violation means an implementation bug, and the result
                    carries a witness reproducible from (check id,
                    descriptor, seed);
  * INCONCLUSIVE -- the premises could not be established on the instance,
                    so the claim says nothing there (data may still be
                    recorded in the witness).

Checks confirm conclusions on instances; they are evidence, not proofs.
Only stated implications are asserted -- converses never are (an
asymptotic martingale is never required to be an eventual one).

Randomized trials draw one RNG stream per (seed, trial index), so trials
are order-independent and could run concurrently; all inputs are
immutable.  Every check that takes ``trials`` raises ``ValueError`` when
it is below 1.

The lattice premises are decided exactly: E_n commutes with |.| iff it is
a lattice homomorphism, and the eventual class is closed under |.| iff
E_{N-1} is one, so ``abs-closure`` and ``abs-alignment`` sample nothing.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np

from .filtration import (
    Filtration,
    build_copy,
    build_dyadic,
    build_pairing,
    build_random_nested,
    build_truncation,
    is_abs_closed,
    is_dense,
)
from .martingales import (
    DEFAULT_EPS_FRACTION,
    VectorSequence,
    Verdict,
    _after_last,
    _applied,
    _pair_table,
    _step_witness,
    abs_seq,
    classify,
    defect_profile,
    harmonic_tail_example,
    haar_example,
    is_martingale,
    null_sequence,
    one_step_defects,
    pairing_example,
    scale_head,
    seq_distance,
    seq_norm,
    tail_verdict,
    tail_window_start,
    terminal_sequence,
)
from .operators import apply, is_lattice_homomorphism
from .spaces import (
    DEFAULT_TOL,
    LatticeSpace,
    LatticeVector,
    NormKind,
    _Record,
    basis,
    norm,
    row_norms,
    vector,
    zero,
)

#: Slack added to analytically exact inequalities to absorb rounding.
FLOAT_SLACK = 1e-9

#: Floats of terms per stack in one ``_pair_table`` call (256 KB), so memory stays flat for
#: any ``trials``: stacking whole families raised ``verify closed-limits`` from 39 to 43 MB RSS.
STACK_FLOATS = 2**15


class CheckStatus(str, Enum):
    CONFIRMED = "CONFIRMED"
    VIOLATED = "VIOLATED"
    INCONCLUSIVE = "INCONCLUSIVE"


class TheoremResult(_Record):
    """Outcome of one claim check on one instance; ``witness`` defaults to a fresh ``{}``."""

    def __init__(self, check_id: str, descriptor: dict, status: CheckStatus,
                 witness: dict | None = None, seed: int | None = None) -> None:
        witness = {} if witness is None else witness
        self._set(check_id=check_id, descriptor=descriptor, status=status,
                  witness=witness, seed=seed)

    def to_dict(self) -> dict:
        return {
            "id": self.check_id,
            "descriptor": self.descriptor,
            "status": self.status.value,
            "witness": self.witness,
            "seed": self.seed,
        }


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent stream per (seed, trial); merging order never matters."""
    return np.random.default_rng((int(seed), int(trial)))


def _require_trials(trials: int) -> None:
    """A sampled check with no trial would report CONFIRMED having checked nothing."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def _require_horizon(what: str, horizon: int) -> None:
    """A horizon of one term leaves a tail window of one index: no evidence of decay."""
    if horizon < 2:
        raise ValueError(f"{what} needs a horizon of at least 2 terms")


def _stacks(count: int, filt: Filtration, sequences: int = 1) -> Iterator[range]:
    """Ranges of ``count`` items of ``sequences`` sequences: <= STACK_FLOATS floats, or 1 item."""
    per = max(1, STACK_FLOATS // (sequences * filt.horizon * filt.space.dim))
    return (range(lo, min(lo + per, count)) for lo in range(0, count, per))


def _filt_descriptor(filt: Filtration, builder: str | None = None, **params) -> dict:
    d = {"horizon": filt.horizon, "dim": filt.space.dim, "norm": filt.space.norm_kind.value}
    if builder is not None:
        d["builder"] = builder
        d.update(params)
    return d


# ---------------------------------------------------------------------------
# Randomized instance generators
# ---------------------------------------------------------------------------

def _random_vector(space: LatticeSpace, rng: np.random.Generator) -> LatticeVector:
    return vector(space, rng.uniform(-1.0, 1.0, size=space.dim))


def _unit_vector(space: LatticeSpace, rng: np.random.Generator) -> LatticeVector:
    v = _random_vector(space, rng)
    n = norm(v)
    return v * (1.0 / n) if n > 0 else basis(space, 1)


#: ``random_filtration``'s deterministic builders and the [low, high) range of their size draw.
_DRAWN_SIZES = {"truncation": (4, 25), "pairing": (2, 11), "dyadic": (2, 6)}


@lru_cache(maxsize=None)
def _drawn_filtration(kind: str, size: int) -> Filtration:
    """A deterministic draw of ``random_filtration``, built once per process (at most 34)."""
    builders = {"truncation": build_truncation, "pairing": build_pairing, "dyadic": build_dyadic}
    return builders[kind](size)


def random_filtration(rng: np.random.Generator) -> tuple[Filtration, dict]:
    """Draw one of the four builders with random small parameters."""
    kind = str(rng.choice(["truncation", "pairing", "dyadic", "random-nested"]))
    if kind in _DRAWN_SIZES:
        size = int(rng.integers(*_DRAWN_SIZES[kind]))
        return _drawn_filtration(kind, size), {"builder": kind, "size": size}
    dim = int(rng.integers(4, 25))
    depth = int(rng.integers(2, dim + 1))
    sub_seed = int(rng.integers(2**63))
    norm_kind = NormKind.WEIGHTED_L1 if rng.random() < 0.5 else NormKind.SUP
    filt = build_random_nested(dim, depth, sub_seed, norm_kind)
    return filt, {
        "builder": "random-nested",
        "dim": dim,
        "depth": depth,
        "sub_seed": sub_seed,
        "norm": norm_kind.value,
    }


def random_eventual_martingale(
    filt: Filtration, rng: np.random.Generator
) -> tuple[VectorSequence, int]:
    """Random junk head, terminal tail: one-step law holds from the cut on.

    Returns the sequence and the cut index (an upper bound for the minimal
    witness; with a random head it is almost surely exact).
    """
    n_terms = filt.horizon
    cut = int(rng.integers(1, n_terms)) if n_terms > 1 else 1
    x = _random_vector(filt.space, rng)
    head = rng.uniform(-1.0, 1.0, size=(cut - 1, filt.space.dim))
    tail = _applied(filt.ops[cut - 1 :], x.coords)
    return VectorSequence(filt.space, np.vstack((head, tail))), cut


def random_asymptotic_martingale(
    filt: Filtration, rng: np.random.Generator
) -> tuple[VectorSequence, LatticeVector]:
    """Martingale plus the null perturbation z/n with ||z|| = 1.

    The defect profile satisfies d_n <= 2/n + 1/N analytically; consumers
    assert that bound on the computed profile.
    """
    x = _random_vector(filt.space, rng)
    z = _unit_vector(filt.space, rng)
    return _plus_null(terminal_sequence(filt, x), z), z


def _plus_null(base: VectorSequence, z: LatticeVector, k: int = 1) -> VectorSequence:
    """x_n + z / (k n): ``base`` plus a null perturbation of norm ||z|| / k."""
    n = np.arange(1, base.horizon + 1)
    return VectorSequence(base.space, base.coords + z.coords * (1.0 / (k * n))[:, None])


def _asymptotic_bound_violation(profile: np.ndarray) -> int | None:
    """First index (1-based) where d_n exceeds 2/n + 1/N + slack, or None."""
    n = np.arange(1, profile.size + 1)
    bad = np.flatnonzero(profile > 2.0 / n + 1.0 / profile.size + FLOAT_SLACK)
    return int(bad[0]) + 1 if bad.size else None


# ---------------------------------------------------------------------------
# Claim checks
# ---------------------------------------------------------------------------

SEQUENCE_GENERATORS = (
    "terminal",
    "scaled-head",
    "null",
    "eventual",
    "asymptotic",
    "constant",
    "abs-of-terminal",
)


def random_sequence(
    filt: Filtration, gen: str, rng: np.random.Generator
) -> VectorSequence:
    """One sequence from the named generator of :data:`SEQUENCE_GENERATORS`."""
    if gen == "terminal":
        return terminal_sequence(filt, _random_vector(filt.space, rng))
    if gen == "scaled-head":
        return scale_head(
            terminal_sequence(filt, _random_vector(filt.space, rng)),
            float(rng.uniform(1.5, 3.0)),
        )
    if gen == "null":
        return null_sequence(_random_vector(filt.space, rng), filt.horizon)
    if gen == "eventual":
        return random_eventual_martingale(filt, rng)[0]
    if gen == "asymptotic":
        return random_asymptotic_martingale(filt, rng)[0]
    if gen == "constant":
        v = _random_vector(filt.space, rng)
        return VectorSequence(filt.space, np.tile(v.coords, (filt.horizon, 1)))
    if gen == "abs-of-terminal":
        return abs_seq(terminal_sequence(filt, _random_vector(filt.space, rng)))
    raise ValueError(f"unknown generator {gen!r}; known: {', '.join(SEQUENCE_GENERATORS)}")


def _nesting_problem(seed: int, trial: int) -> dict | None:
    """The evidence when the trial's classification report breaks the chain, else None."""
    rng = trial_rng(seed, trial)
    filt, f_desc = random_filtration(rng)
    gen = str(rng.choice(SEQUENCE_GENERATORS))
    report = classify(random_sequence(filt, gen, rng), filt)
    if (
        (not report.is_martingale or report.e_witness == 1)
        and (report.e_witness != 1 or report.x_verdict is Verdict.X_MARTINGALE)
        and (report.e_witness is None or report.x_verdict is not Verdict.NOT_X)
    ):
        return None
    return {"filtration": f_desc, "generator": gen, "report": report.to_dict()}


def check_class_nesting(seed: int = 0, trials: int = 100) -> TheoremResult:
    """Martingale => eventual witness 1 => asymptotic; never the converses.

    Each trial draws a filtration and a sequence from the full generator
    mix and asserts the implication chain on its classification report; an
    eventual martingale is additionally required not to classify NOT_X.
    """
    _require_trials(trials)
    status, witness = CheckStatus.CONFIRMED, {"checked": trials}
    for trial in range(trials):
        problem = _nesting_problem(seed, trial)
        if problem is not None:
            status, witness = CheckStatus.VIOLATED, {"trial": trial, **problem}
            break
    return TheoremResult("nesting", {"trials": trials}, status, witness, seed)


def _member_tables(
    filt: Filtration, members: Sequence[VectorSequence], band: int | None = None
) -> Iterator[tuple[VectorSequence, np.ndarray]]:
    """Each member with its pair table, the tables built one stack at a time."""
    for chunk in _stacks(len(members), filt):
        batch = members[chunk.start : chunk.stop]
        yield from zip(batch, _pair_table(np.stack([m.coords for m in batch]), filt, band=band))


def _member_problem(
    filt: Filtration, member: VectorSequence, profile: np.ndarray,
    limit: VectorSequence, limit_profile: np.ndarray, distances: list[float],
) -> dict | None:
    """The evidence when ``member`` is NOT_X or breaks the triangle bound, else None;
    a member that is not NOT_X appends its distance to the limit to ``distances``."""
    if tail_verdict(member, filt, profile=profile) is Verdict.NOT_X:
        return {"problem": "family member classified NOT_X"}
    dist = seq_distance(member, limit)
    distances.append(dist)
    slack = limit_profile - profile - 2.0 * dist
    if float(slack.max()) <= FLOAT_SLACK:
        return None
    n = int(slack.argmax())
    return {
        "problem": "triangle bound failed",
        "at_index": n + 1,
        "limit_defect": float(limit_profile[n]),
        "member_defect": float(profile[n]),
        "distance": dist,
    }


def _limit_family_check(
    check_id: str,
    filt: Filtration,
    members: Sequence[VectorSequence],
    limit: VectorSequence,
    descriptor: dict,
    seed: int | None,
) -> TheoremResult:
    """Shared core: members must not be NOT_X, nor the limit; replay the
    triangle bound d(limit)_n <= d(member)_n + 2 ||member - limit||."""
    limit_profile = defect_profile(limit, filt)
    distances: list[float] = []
    for k, (member, table) in enumerate(_member_tables(filt, members), 1):
        problem = _member_problem(filt, member, table.max(-1), limit, limit_profile, distances)
        if problem is not None:
            witness = {"member": k, **problem}
            break
    else:
        verdict = tail_verdict(limit, filt, profile=limit_profile)
        if verdict is not Verdict.NOT_X:
            witness = {"members": len(distances), "distances": distances,
                       "limit_verdict": verdict.value}
            return TheoremResult(check_id, descriptor, CheckStatus.CONFIRMED, witness, seed)
        witness = {"problem": "limit of asymptotic martingales classified NOT_X"}
    return TheoremResult(check_id, descriptor, CheckStatus.VIOLATED, witness, seed)


def check_closed_under_limits(filt: Filtration, seed: int = 0) -> TheoremResult:
    """A sequence-space limit of asymptotic martingales stays asymptotic.

    Builds A^k = A + z/(k n) around a random martingale A, so
    ||A^k - A|| = 1/k -> 0 over k = 1..8, and checks the limit plus the
    proof's triangle bound numerically.  A horizon below 2: ValueError.
    """
    _require_horizon("closed under limits", filt.horizon)
    rng = trial_rng(seed, 0)
    x = _random_vector(filt.space, rng)
    z = _unit_vector(filt.space, rng)
    limit = terminal_sequence(filt, x)
    family = [_plus_null(limit, z, k) for k in range(1, 9)]
    descriptor = {
        "family": "martingale-plus-shrinking-null",
        "members": len(family),
        **_filt_descriptor(filt),
    }
    return _limit_family_check("closed-limits", filt, family, limit, descriptor, seed)


def check_closed_under_limits_harmonic() -> TheoremResult:
    """Same claim on the 64-term harmonic-tail family, whose limit lies
    outside the eventual class yet must (and does) stay asymptotic."""
    filt, base, family = harmonic_tail_example(64)
    descriptor = {"family": "harmonic-tail", "size": filt.horizon, **_filt_descriptor(filt)}
    return _limit_family_check("closed-limits", filt, family, base, descriptor, None)


def _convergent_asymptotic_premises(
    check_id: str,
    seq: VectorSequence,
    limit_vec: LatticeVector,
    filt: Filtration,
) -> tuple[float, int, dict, TheoremResult | None]:
    """Shared premises of limit-defect and tail-approx: A is asymptotic and
    converges to ``limit_vec`` within eps = 5% of max(1, ||A||, ||x||) over
    the tail window.  ``early`` is the INCONCLUSIVE result to return when a
    premise fails, else None."""
    eps = DEFAULT_EPS_FRACTION * max(1.0, seq_norm(seq), norm(limit_vec))
    start = tail_window_start(seq.horizon)
    conv = row_norms(seq.space, seq.coords - limit_vec.coords)
    premises = {
        "asymptotic": tail_verdict(seq, filt) is Verdict.X_MARTINGALE,
        "convergent": bool(conv[start - 1 :].max() <= eps),
    }
    early = None
    if not all(premises.values()):
        early = TheoremResult(
            check_id,
            _filt_descriptor(filt),
            CheckStatus.INCONCLUSIVE,
            {"premises": premises, "note": "claim inapplicable on this instance"},
            None,
        )
    return eps, start, premises, early


def check_limit_defect(
    seq: VectorSequence, limit_vec: LatticeVector, filt: Filtration
) -> TheoremResult:
    """For a convergent asymptotic martingale, e_n = max_{m>=n} ||E_m x - x_m||
    must decay over the tail window (x the limit vector).  A horizon below 2:
    ValueError."""
    check_id = "limit-defect"
    _require_horizon("limit defect", seq.horizon)
    eps, start, premises, early = _convergent_asymptotic_premises(
        check_id, seq, limit_vec, filt
    )
    if early is not None:
        return early
    step = row_norms(filt.space, _applied(filt.ops, limit_vec.coords) - seq.coords)
    tail_sup = np.maximum.accumulate(step[::-1])[::-1]
    ok = bool(tail_sup[start - 1 :].max() <= eps)
    return TheoremResult(
        check_id,
        _filt_descriptor(filt),
        CheckStatus.CONFIRMED if ok else CheckStatus.VIOLATED,
        {
            "premises": premises,
            "eps": float(eps),
            "window_start": start,
            "tail_sup_profile": [float(v) for v in tail_sup],
        },
        None,
    )


def _late_witness(steps: np.ndarray, m: int) -> dict | None:
    """The evidence when A^m, given by its band-2 pair table, lacks an eventual
    witness <= m + 1, else None; m = N - 1 is skipped, as a witness at N is vacuous."""
    if m > len(steps) - 2:
        return None
    witness = _step_witness(steps)
    if witness is None or witness > m + 1:
        return {"m": m, "witness": witness}
    return None


def _tail_modifications(
    seq: VectorSequence, limit_vec: LatticeVector, filt: Filtration
) -> Iterator[tuple[np.ndarray, float]]:
    """For m = 1..N-1, the band-2 pair table of A^m, which keeps terms 1..m of A and
    takes E_n x after (as tail_modify builds it), and ||A^m - A||, one stack at a time."""
    tail = _applied(filt.ops, limit_vec.coords)
    for chunk in _stacks(seq.horizon - 1, filt):
        modified = np.stack([np.vstack((seq.coords[: k + 1], tail[k + 1 :])) for k in chunk])
        steps = _pair_table(modified, filt, band=2)
        yield from zip(steps, row_norms(filt.space, modified - seq.coords).max(axis=-1))


def check_tail_modification(
    seq: VectorSequence, limit_vec: LatticeVector, filt: Filtration
) -> TheoremResult:
    """Replacing the tail by E_n x yields eventual martingales converging
    back to the original sequence (witness <= m+1, distances non-increasing
    down to eps).  A horizon below 2 leaves no tail to replace: ValueError."""
    _require_horizon("tail modification", seq.horizon)
    eps, _, premises, early = _convergent_asymptotic_premises("tail-approx", seq, limit_vec, filt)
    if early is not None:
        return early
    distances: list[float] = []
    for m, (table, gap) in enumerate(_tail_modifications(seq, limit_vec, filt), 1):
        late = _late_witness(table, m)
        if late is not None:
            status = CheckStatus.VIOLATED
            witness = {**late, "problem": "tail modification not eventual"}
            break
        distances.append(float(gap))
    else:
        monotone = all(b <= a + FLOAT_SLACK for a, b in zip(distances, distances[1:]))
        ok = monotone and distances[-1] <= eps
        status = CheckStatus.CONFIRMED if ok else CheckStatus.VIOLATED
        witness = {"premises": premises, "eps": float(eps), "distances": distances,
                   "non_increasing": monotone}
    return TheoremResult("tail-approx", _filt_descriptor(filt), status, witness, None)


def check_eventual_not_closed() -> TheoremResult:
    """The 64-term harmonic-tail family: eventual martingales A^m with
    ||A^m - A|| = 1/m whose limit A has no eventual witness, while its
    defect profile d_n = 1/n certifies it asymptotic."""
    check_id = "eventual-not-closed"
    filt, base, family = harmonic_tail_example(64)
    descriptor = {"size": filt.horizon, **_filt_descriptor(filt, "truncation")}
    problems = []
    for m, (member, table) in enumerate(_member_tables(filt, family, band=2), 1):
        late = _late_witness(table, m)
        if late is not None:
            problems.append({**late, "problem": "missing witness"})
        dist = seq_distance(member, base)
        if abs(dist - 1.0 / m) > FLOAT_SLACK:
            problems.append({"m": m, "distance": dist, "problem": "distance != 1/m"})

    table = _pair_table(base, filt)
    if _step_witness(table) is not None:
        problems.append({"problem": "limit unexpectedly has an eventual witness"})
    profile = table.max(axis=1)
    for n in range(1, filt.horizon):
        if abs(profile[n - 1] - 1.0 / n) > FLOAT_SLACK:
            problems.append(
                {"n": n, "defect": float(profile[n - 1]), "problem": "defect != 1/n"}
            )
            break
    verdict = tail_verdict(base, filt, profile=profile)
    if verdict is not Verdict.X_MARTINGALE:
        problems.append({"verdict": verdict.value, "problem": "limit not asymptotic"})

    status = CheckStatus.CONFIRMED if not problems else CheckStatus.VIOLATED
    witness_data: dict = {"members": len(family), "limit_verdict": verdict.value}
    if problems:
        witness_data["problems"] = problems
    return TheoremResult(check_id, descriptor, status, witness_data, None)


def check_abs_closure(filt: Filtration) -> TheoremResult:
    """Closure of the eventual class under absolute value, two modes.

    Counterexample mode reproduces the two instances where |A| must fail
    (the alternating-pair martingale and the dyadic mean-zero indicator
    martingale); their failure shows the class need not be a lattice.
    Closure mode decides closure exactly with :func:`is_abs_closed` (E_{N-1}
    a lattice homomorphism, the finite-horizon reading of the paper's
    condition) on the given filtration and on both counterexample
    filtrations; a counterexample filtration decided closed is a violation.
    """
    problems = []
    witness: dict = {}
    closure_runs = [
        {"filtration": "given", **_filt_descriptor(filt), "closed": is_abs_closed(filt)}
    ]
    for name, (f, seq), first in (
        ("pairing", pairing_example(3), 1.0),
        ("haar", haar_example(3), 0.5),
    ):
        abs_steps = one_step_defects(abs_seq(seq), f)
        witness[f"{name}_first_abs_defect"] = float(abs_steps[0])
        if not is_martingale(seq, f):
            problems.append({"instance": name, "problem": "base not a martingale"})
        # Every step failing leaves |A| no eventual witness.
        if not (abs_steps > DEFAULT_TOL).all():
            problems.append({"instance": name, "problem": "|A| satisfied a one-step equality"})
        if abs(abs_steps[0] - first) > FLOAT_SLACK:
            problem = f"first one-step defect of |A| != {first}"
            problems.append({"instance": name, "problem": problem, "value": float(abs_steps[0])})
        closed = is_abs_closed(f)
        closure_runs.append({"filtration": f"{name}-3", **_filt_descriptor(f), "closed": closed})
        if closed:
            problems.append({"instance": f"{name}-3", "problem": "counterexample decided closed"})

    status = CheckStatus.CONFIRMED if not problems else CheckStatus.VIOLATED
    witness["closure_runs"] = closure_runs
    if problems:
        witness["problems"] = problems
    return TheoremResult("abs-closure", _filt_descriptor(filt), status, witness, None)


def _band_tables(filt: Filtration, seed: int, trials: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Per trial, the band-2 tables of an eventual martingale A and of |A|, then the
    pair tables of an asymptotic martingale B and of |B|; one RNG stream per trial,
    the tables built one stack at a time."""
    for chunk in _stacks(trials, filt, sequences=2):
        rngs = [trial_rng(seed, trial) for trial in chunk]
        eventual = np.stack([random_eventual_martingale(filt, rng)[0].coords for rng in rngs])
        asymptotic = np.stack([random_asymptotic_martingale(filt, rng)[0].coords for rng in rngs])
        steps, abs_steps = (_pair_table(s, filt, band=2) for s in (eventual, np.abs(eventual)))
        pairs, abs_pairs = (_pair_table(s, filt) for s in (asymptotic, np.abs(asymptotic)))
        yield from zip(steps, abs_steps, pairs, abs_pairs)


def _band_problem(
    step: np.ndarray, abs_step: np.ndarray, defects: np.ndarray, abs_defects: np.ndarray
) -> dict | None:
    """The evidence when one trial's tables break a claim, else None: |A| lacks a
    witness by A's, B breaks the analytic bound, or a pair of |B| exceeds B's."""
    w_base, w_abs = _step_witness(step), _step_witness(abs_step)
    if w_base is not None and (w_abs is None or w_abs > w_base):
        return {"witness_base": w_base, "witness_abs": w_abs}
    bad = _asymptotic_bound_violation(defects.max(axis=1))
    if bad is not None:
        return {"problem": "analytic defect bound failed", "n": bad}
    failing = np.argwhere(~(abs_defects <= defects + DEFAULT_TOL))  # row-major order
    if not failing.size:
        return None
    n, k = (int(i) for i in failing[0])
    return {
        "pair": [n + 1, n + k + 1],
        "abs_defect": float(abs_defects[n, k]),
        "defect": float(defects[n, k]),
    }


def check_band_projection_lattice(
    filt: Filtration, seed: int = 0, trials: int = 100
) -> TheoremResult:
    """When every stage is a lattice homomorphism (a band projection is one)
    the classes are lattices: |A| keeps an eventual witness no later than
    A's, and ||E_n |x_m| - |x_n||| <= ||E_n x_m - x_n|| pairwise.  Both need
    only ||a| - |b|| <= |a - b| and E_n |x| = |E_n x|."""
    _require_trials(trials)
    if all(is_lattice_homomorphism(e) for e in filt.ops):
        status, witness = CheckStatus.CONFIRMED, {"trials": trials}
        for trial, tables in enumerate(_band_tables(filt, seed, trials)):
            problem = _band_problem(*tables)
            if problem is not None:
                status, witness = CheckStatus.VIOLATED, {"trial": trial, **problem}
                break
    else:
        status = CheckStatus.INCONCLUSIVE
        witness = {"note": "premise unmet: some stage is not a lattice homomorphism"}
    return TheoremResult("band-lattice", _filt_descriptor(filt), status, witness, seed)


def abs_commutation_index(
    filt: Filtration, x: LatticeVector, tol: float = DEFAULT_TOL
) -> int | None:
    """Minimal l with | E_n x | = E_n |x| for every n >= l, or None; NaN never aligns."""
    if x.space != filt.space:
        raise ValueError("vector and filtration live in different spaces")
    gaps = np.abs(_applied(filt.ops, x.coords)) - _applied(filt.ops, np.abs(x.coords))
    return _after_last(~(row_norms(filt.space, gaps) <= tol), filt.horizon)


def check_abs_alignment(filt: Filtration) -> TheoremResult:
    """On a dense filtration whose eventual class is closed under absolute
    values, every vector has an index from which |E_n x| = E_n |x|.

    Both premises are decided exactly.  The index is one past the last
    stage that is not a lattice homomorphism, i.e. the maximum over x of
    :func:`abs_commutation_index`; when a premise fails the result is
    INCONCLUSIVE but the index is still reported as data.
    """
    premises = {"dense": is_dense(filt), "abs_closed": is_abs_closed(filt)}
    index = _after_last(np.array([not is_lattice_homomorphism(e) for e in filt.ops]), filt.horizon)
    witness: dict = {"premises": premises, "index": index}
    if all(premises.values()):
        status = CheckStatus.CONFIRMED if index is not None else CheckStatus.VIOLATED
    else:
        status, witness["note"] = CheckStatus.INCONCLUSIVE, "premises unmet; index is data only"
    return TheoremResult("abs-alignment", _filt_descriptor(filt), status, witness, None)


# ---------------------------------------------------------------------------
# Default instances per check id
# ---------------------------------------------------------------------------

def _run_nesting(seed: int, trials: int) -> list[TheoremResult]:
    return [check_class_nesting(seed, trials)]


def _run_closed_limits(seed: int, trials: int) -> list[TheoremResult]:
    return [
        check_closed_under_limits(build_truncation(32), seed),
        check_closed_under_limits(build_dyadic(5), seed),
        check_closed_under_limits_harmonic(),
    ]


def _harmonic_head_instance(n_terms: int) -> tuple[Filtration, VectorSequence, LatticeVector]:
    """Terminal sequence of the summable-coordinate vector sum e_i / i on the
    truncation filtration: converges to its terminal vector at speed 1/(n+1)."""
    filt = build_truncation(n_terms)
    x = vector(filt.space, 1.0 / np.arange(1, n_terms + 1))
    return filt, terminal_sequence(filt, x), x


@lru_cache(maxsize=1)
def _perturbed_nested_instance(
    dim: int, seed: int
) -> tuple[Filtration, VectorSequence, LatticeVector]:
    """Martingale of an early-resolved vector plus a z/n null perturbation on a
    dense random-nested filtration: an asymptotic martingale converging to the
    resolved vector.  ``limit-defect`` and ``tail-approx`` share the last one
    built: its parts are frozen and their arrays read-only."""
    filt = build_random_nested(dim, dim, seed)
    rng = trial_rng(seed, 2)
    x = apply(filt.op(max(1, dim // 2)), _random_vector(filt.space, rng))
    z = _unit_vector(filt.space, rng)
    return filt, _plus_null(terminal_sequence(filt, x), z), x


def _described(r: TheoremResult, descriptor: dict) -> TheoremResult:
    """``r`` with ``descriptor`` in place of its own."""
    return TheoremResult(r.check_id, descriptor, r.status, r.witness, r.seed)


def _run_convergent(
    check: Callable[[VectorSequence, LatticeVector, Filtration], TheoremResult],
    instances: list[tuple],
) -> list[TheoremResult]:
    """``check`` on each (instance, builder, filtration, sequence, limit),
    with the instance named in the result's descriptor."""
    return [
        _described(check(seq, x, filt), _filt_descriptor(filt, builder, instance=name))
        for name, builder, filt, seq, x in instances
    ]


def _run_limit_defect(seed: int, trials: int) -> list[TheoremResult]:
    trunc = build_truncation(64)
    origin = zero(trunc.space)
    # Does not converge: premises fail, so the claim must stay silent.
    const = VectorSequence(trunc.space, np.tile(basis(trunc.space, 64).coords, (64, 1)))
    instances = [
        ("harmonic-head", "truncation", *_harmonic_head_instance(64)),
        ("perturbed-martingale", "random-nested", *_perturbed_nested_instance(32, seed)),
        ("null", "truncation", trunc, null_sequence(basis(trunc.space, 1), 64), origin),
        ("constant-last-basis", "truncation", trunc, const, origin),
    ]
    return _run_convergent(check_limit_defect, instances)


def _run_tail_approx(seed: int, trials: int) -> list[TheoremResult]:
    filt, base, _ = harmonic_tail_example(64)
    instances = [
        ("harmonic-tail", "truncation", filt, base, zero(filt.space)),
        ("perturbed-martingale", "random-nested", *_perturbed_nested_instance(32, seed)),
    ]
    return _run_convergent(check_tail_modification, instances)


def _run_eventual_not_closed(seed: int, trials: int) -> list[TheoremResult]:
    return [check_eventual_not_closed()]


def _run_abs_closure(seed: int, trials: int) -> list[TheoremResult]:
    return [check_abs_closure(build_truncation(16))]


def _run_band_lattice(seed: int, trials: int) -> list[TheoremResult]:
    copy = build_copy(8)
    copy_descriptor = _filt_descriptor(copy, "copy", size=8)
    return [
        check_band_projection_lattice(build_truncation(16), seed, trials),
        # Premise unmet on purpose: averaging operators are not lattice homomorphisms.
        check_band_projection_lattice(build_dyadic(3), seed, trials),
        # Lattice homomorphisms that are not band projections.
        _described(check_band_projection_lattice(copy, seed, trials), copy_descriptor),
    ]


def _run_abs_alignment(seed: int, trials: int) -> list[TheoremResult]:
    return [
        check_abs_alignment(build_truncation(16)),
        check_abs_alignment(build_pairing(3)),
        check_abs_alignment(build_dyadic(3)),
    ]


CHECK_RUNNERS: dict[str, Callable[[int, int], list[TheoremResult]]] = {
    "nesting": _run_nesting,
    "closed-limits": _run_closed_limits,
    "limit-defect": _run_limit_defect,
    "tail-approx": _run_tail_approx,
    "eventual-not-closed": _run_eventual_not_closed,
    "abs-closure": _run_abs_closure,
    "band-lattice": _run_band_lattice,
    "abs-alignment": _run_abs_alignment,
}

CHECK_IDS = tuple(CHECK_RUNNERS)

#: The ids whose runners draw ``trials`` random instances; the others ignore it.
TRIAL_IDS = ("nesting", "band-lattice")


def run_check(check_id: str, seed: int = 0, trials: int = 100) -> list[TheoremResult]:
    """Run one check id on its default instances; ``trials`` must be >= 1."""
    try:
        runner = CHECK_RUNNERS[check_id]
    except KeyError:
        raise ValueError(f"unknown check id {check_id!r}; known: {', '.join(CHECK_IDS)}")
    _require_trials(trials)
    return runner(seed, trials)


def run_all(seed: int = 0, trials: int = 100) -> list[TheoremResult]:
    results = []
    for check_id in CHECK_IDS:
        results.extend(run_check(check_id, seed, trials))
    return results
