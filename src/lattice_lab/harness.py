"""Executable evidence for the structural claims about martingale-like classes.

Each check exercises one claim on concrete and randomized instances and
returns the dict that ``verify --json`` prints, keyed ``id``, ``descriptor``,
``status``, ``witness`` and ``seed`` in that order; the status is a
:class:`CheckStatus`, a ``str`` enum that JSON writes as its value:

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

from collections.abc import Iterable, Iterator, Sequence
from enum import Enum
from functools import lru_cache
from itertools import starmap
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
    _CHUNK_FLOATS,
    VectorSequence,
    Verdict,
    _after_last,
    _applied,
    _pair_table,
    _profiles,
    _require_contractive,
    _require_horizon,
    _step_witness,
    _steps,
    _tail_rule,
    abs_seq,
    classify,
    default_eps,
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
    _require_same_space,
    basis,
    norm,
    row_norms,
    vector,
    zero,
)

#: Slack added to analytically exact inequalities to absorb rounding.
FLOAT_SLACK = 1e-9


class CheckStatus(str, Enum):
    CONFIRMED = "CONFIRMED"
    VIOLATED = "VIOLATED"
    INCONCLUSIVE = "INCONCLUSIVE"


def _result(check_id: str, descriptor: dict, status: CheckStatus, witness: dict,
            seed: int | None) -> dict:
    """Outcome of one claim check on one instance, the dict ``verify --json`` prints."""
    return {"id": check_id, "descriptor": descriptor, "status": status, "witness": witness,
            "seed": seed}


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent stream per (seed, trial); merging order never matters."""
    return np.random.default_rng((int(seed), int(trial)))


def _require_trials(trials: int) -> None:
    """A sampled check with no trial would report CONFIRMED having checked nothing."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def _stacks(count: int, filt: Filtration, sequences: int = 1) -> Iterator[range]:
    """Ranges of ``count`` items of ``sequences`` sequences: <= _CHUNK_FLOATS floats, or 1 item
    (stacking whole families raised ``verify closed-limits`` from 39 to 43 MB)."""
    per = max(1, _CHUNK_FLOATS // (sequences * filt.horizon * filt.space.dim))
    return (range(lo, min(lo + per, count)) for lo in range(0, count, per))


def _filt_descriptor(filt: Filtration) -> dict:
    return {"horizon": filt.horizon, "dim": filt.space.dim, "norm": filt.space.norm_kind.value}


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

def _terminal(filt: Filtration, rng: np.random.Generator) -> VectorSequence:
    return terminal_sequence(filt, _random_vector(filt.space, rng))


#: The sequence generators by name, each ``(filt, rng) -> VectorSequence``; scaled-head
#: draws its terminal vector, then its factor.
_GENERATORS: dict[str, Callable[[Filtration, np.random.Generator], VectorSequence]] = {
    "terminal": _terminal,
    "scaled-head": lambda filt, rng: scale_head(_terminal(filt, rng), float(rng.uniform(1.5, 3.0))),
    "null": lambda filt, rng: null_sequence(_random_vector(filt.space, rng), filt.horizon),
    "eventual": lambda filt, rng: random_eventual_martingale(filt, rng)[0],
    "asymptotic": lambda filt, rng: random_asymptotic_martingale(filt, rng)[0],
    "constant": lambda filt, rng: VectorSequence(
        filt.space, np.tile(_random_vector(filt.space, rng).coords, (filt.horizon, 1))
    ),
    "abs-of-terminal": lambda filt, rng: abs_seq(_terminal(filt, rng)),
}
SEQUENCE_GENERATORS = tuple(_GENERATORS)


def random_sequence(filt: Filtration, gen: str, rng: np.random.Generator) -> VectorSequence:
    """One sequence from the named generator of :data:`SEQUENCE_GENERATORS`."""
    if gen not in _GENERATORS:
        raise ValueError(f"unknown generator {gen!r}; known: {', '.join(SEQUENCE_GENERATORS)}")
    return _GENERATORS[gen](filt, rng)


def _first(key: str, problems: Iterable[dict | None], start: int = 0) -> dict | None:
    """The first problem that is not None, as ``{key: its index, **problem}`` with indices
    from ``start``, else None; nothing past that problem is drawn from ``problems``."""
    return next(({key: k, **p} for k, p in enumerate(problems, start) if p is not None), None)


def _stacked(kernel: Callable, filt: Filtration, members: Sequence[VectorSequence]) -> Iterator:
    """Each member with its row of ``kernel(stack, filt)``, one :func:`_stacks` chunk at a time."""
    for chunk in _stacks(len(members), filt):
        batch = members[chunk.start : chunk.stop]
        yield from zip(batch, kernel(np.stack([m.coords for m in batch]), filt))


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


def check_class_nesting(seed: int = 0, trials: int = 100) -> dict:
    """Martingale => eventual witness 1 => asymptotic; never the converses.

    Each trial draws a filtration and a sequence from the full generator
    mix and asserts the implication chain on its classification report; an
    eventual martingale is additionally required not to classify NOT_X.
    """
    _require_trials(trials)
    problem = _first("trial", (_nesting_problem(seed, trial) for trial in range(trials)))
    status = CheckStatus.CONFIRMED if problem is None else CheckStatus.VIOLATED
    return _result("nesting", {"trials": trials}, status, problem or {"checked": trials}, seed)


def _member_problem(
    filt: Filtration, member: VectorSequence, profile: np.ndarray,
    limit: VectorSequence, limit_profile: np.ndarray, distances: list[float],
) -> dict | None:
    """The evidence when ``member`` is NOT_X or breaks the triangle bound, else None;
    a member that is not NOT_X appends its distance to the limit to ``distances``."""
    if _tail_rule(profile, tail_window_start(filt.horizon), default_eps(member)) is Verdict.NOT_X:
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
    filt: Filtration,
    members: Sequence[VectorSequence],
    limit: VectorSequence,
    descriptor: dict,
    seed: int | None,
) -> dict:
    """The closed-limits core: members must not be NOT_X, nor the limit; replay the
    triangle bound d(limit)_n <= d(member)_n + 2 ||member - limit||."""
    _require_contractive(filt)
    limit_profile = defect_profile(limit, filt)
    distances: list[float] = []
    profiles = _stacked(lambda terms, f: _profiles(terms, f)[0], filt, members)
    witness = _first("member", (
        _member_problem(filt, member, profile, limit, limit_profile, distances)
        for member, profile in profiles
    ), 1)
    if witness is None:
        verdict = _tail_rule(limit_profile, tail_window_start(filt.horizon), default_eps(limit))
        if verdict is not Verdict.NOT_X:
            witness = {"members": len(distances), "distances": distances,
                       "limit_verdict": verdict.value}
            return _result("closed-limits", descriptor, CheckStatus.CONFIRMED, witness, seed)
        witness = {"problem": "limit of asymptotic martingales classified NOT_X"}
    return _result("closed-limits", descriptor, CheckStatus.VIOLATED, witness, seed)


def check_closed_under_limits(filt: Filtration, seed: int = 0) -> dict:
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
    return _limit_family_check(filt, family, limit, descriptor, seed)


def check_closed_under_limits_harmonic() -> dict:
    """Same claim on the 64-term harmonic-tail family, whose limit lies
    outside the eventual class yet must (and does) stay asymptotic."""
    filt, base, family = harmonic_tail_example(64)
    descriptor = {"family": "harmonic-tail", "size": filt.horizon, **_filt_descriptor(filt)}
    return _limit_family_check(filt, family, base, descriptor, None)


def _convergent_asymptotic_premises(
    seq: VectorSequence, limit_vec: LatticeVector, filt: Filtration
) -> tuple[float, int, np.ndarray | None, np.ndarray | None, dict]:
    """Shared premises of limit-defect and tail-approx (A is asymptotic and converges to x =
    ``limit_vec`` within eps = 5% of max(1, ||A||, ||x||) over the tail window), eps, the window
    start and, when both hold, the rows E_n x and e_n = max_{m>=n} ||E_m x - x_m||, computed
    once: A^m agrees with A up to m and has rows E_n x after it, so ||A^m - A|| = e_{m+1}."""
    eps = default_eps(seq, max(seq_norm(seq), norm(limit_vec)))
    start = tail_window_start(seq.horizon)
    conv = row_norms(seq.space, seq.coords - limit_vec.coords)
    asymptotic = tail_verdict(seq, filt) is Verdict.X_MARTINGALE
    premises = {"asymptotic": asymptotic, "convergent": bool(conv[start - 1 :].max() <= eps)}
    if not all(premises.values()):
        return eps, start, None, None, premises  # the claim says nothing: E_n x is not needed
    rows = _applied(filt.ops, limit_vec.coords)
    tail_sup = np.maximum.accumulate(row_norms(filt.space, rows - seq.coords)[::-1])[::-1]
    return eps, start, rows, tail_sup, premises


def _inapplicable(check_id: str, filt: Filtration, premises: dict) -> dict:
    """The INCONCLUSIVE result of a limit check whose premises fail on the instance."""
    witness = {"premises": premises, "note": "claim inapplicable on this instance"}
    return _result(check_id, _filt_descriptor(filt), CheckStatus.INCONCLUSIVE, witness, None)


def check_limit_defect(
    seq: VectorSequence, limit_vec: LatticeVector, filt: Filtration
) -> dict:
    """For a convergent asymptotic martingale, e_n = max_{m>=n} ||E_m x - x_m||
    must decay over the tail window (x the limit vector).  A horizon below 2:
    ValueError."""
    check_id = "limit-defect"
    _require_horizon("limit defect", seq.horizon)
    eps, start, _, tail_sup, premises = _convergent_asymptotic_premises(seq, limit_vec, filt)
    if not all(premises.values()):
        return _inapplicable(check_id, filt, premises)
    status = CheckStatus.CONFIRMED if tail_sup[start - 1 :].max() <= eps else CheckStatus.VIOLATED
    witness = {"premises": premises, "eps": float(eps), "window_start": start,
               "tail_sup_profile": tail_sup.tolist()}
    return _result(check_id, _filt_descriptor(filt), status, witness, None)


def _late_witness(steps: np.ndarray, m: int) -> dict | None:
    """The evidence when A^m, given by one-step defects whose steps m + 1.. are its own (the
    earlier ones move no witness past m + 1), lacks an eventual witness <= m + 1, else None;
    m = N - 1 is never late, as a witness at N is vacuous."""
    witness = _step_witness(steps)
    if m < len(steps) and (witness is None or witness > m + 1):
        return {"m": m, "witness": witness}
    return None


def check_tail_modification(
    seq: VectorSequence, limit_vec: LatticeVector, filt: Filtration
) -> dict:
    """Replacing the tail by E_n x yields eventual martingales converging back to the
    original sequence (witness <= m+1, the last distance within eps); ||A^m - A|| is the
    premises' e_{m+1}, so the distances e_2..e_N cannot increase.  No A^m is built: A^m has
    rows E_n x after m, so it lacks a witness <= m + 1 iff E_n x's one-step law fails at some
    l >= m + 1.  The first such m is 1, and A^1's witness is read off the same floats as E_n
    x's one-step defects.  A horizon below 2 leaves no tail: ValueError."""
    _require_horizon("tail modification", seq.horizon)
    eps, _, rows, tail_sup, premises = _convergent_asymptotic_premises(seq, limit_vec, filt)
    if not all(premises.values()):
        return _inapplicable("tail-approx", filt, premises)
    late = _late_witness(_steps(rows, filt), 1)
    if late is not None:
        status = CheckStatus.VIOLATED
        witness = {**late, "problem": "tail modification not eventual"}
    else:
        status = CheckStatus.CONFIRMED if tail_sup[-1] <= eps else CheckStatus.VIOLATED
        witness = {"premises": premises, "eps": float(eps), "distances": tail_sup[1:].tolist()}
    return _result("tail-approx", _filt_descriptor(filt), status, witness, None)


def check_eventual_not_closed() -> dict:
    """The 64-term harmonic-tail family: eventual martingales A^m with
    ||A^m - A|| = 1/m whose limit A has no eventual witness, while its
    defect profile d_n = 1/n certifies it asymptotic."""
    check_id = "eventual-not-closed"
    filt, base, family = harmonic_tail_example(64)
    descriptor = {"size": filt.horizon, **_filt_descriptor(filt), "builder": "truncation"}
    problems = []
    for m, (member, step) in enumerate(_stacked(_steps, filt, family), 1):  # _profiles: 2x slower
        late = _late_witness(step, m)
        if late is not None:
            problems.append({**late, "problem": "missing witness"})
        dist = seq_distance(member, base)
        if abs(dist - 1.0 / m) > FLOAT_SLACK:
            problems.append({"m": m, "distance": dist, "problem": "distance != 1/m"})

    profile, steps = _profiles(base, filt)
    if _step_witness(steps) is not None:
        problems.append({"problem": "limit unexpectedly has an eventual witness"})
    for n in range(1, filt.horizon):
        if abs(profile[n - 1] - 1.0 / n) > FLOAT_SLACK:
            problems.append({"n": n, "defect": float(profile[n - 1]), "problem": "defect != 1/n"})
            break
    verdict = _tail_rule(profile, tail_window_start(filt.horizon), default_eps(base))
    if verdict is not Verdict.X_MARTINGALE:
        problems.append({"verdict": verdict.value, "problem": "limit not asymptotic"})

    status = CheckStatus.CONFIRMED if not problems else CheckStatus.VIOLATED
    witness_data: dict = {"members": len(family), "limit_verdict": verdict.value}
    if problems:
        witness_data["problems"] = problems
    return _result(check_id, descriptor, status, witness_data, None)


def check_abs_closure(filt: Filtration) -> dict:
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
    return _result("abs-closure", _filt_descriptor(filt), status, witness, None)


def _band_tables(filt: Filtration, seed: int, trials: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Per trial, the one-step defects of an eventual martingale A and of |A|, then the
    pair tables of an asymptotic martingale B and of |B|; one RNG stream per trial,
    the tables built one stack at a time."""
    for chunk in _stacks(trials, filt, sequences=2):
        rngs = [trial_rng(seed, trial) for trial in chunk]
        eventual = np.stack([random_eventual_martingale(filt, rng)[0].coords for rng in rngs])
        asymptotic = np.stack([random_asymptotic_martingale(filt, rng)[0].coords for rng in rngs])
        steps, abs_steps = (_steps(s, filt) for s in (eventual, np.abs(eventual)))
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
) -> dict:
    """When every stage is a lattice homomorphism (a band projection is one)
    the classes are lattices: |A| keeps an eventual witness no later than
    A's, and ||E_n |x_m| - |x_n||| <= ||E_n x_m - x_n|| pairwise.  Both need
    only ||a| - |b|| <= |a - b| and E_n |x| = |E_n x|."""
    _require_trials(trials)
    if all(is_lattice_homomorphism(e) for e in filt.ops):
        problem = _first("trial", starmap(_band_problem, _band_tables(filt, seed, trials)))
        status = CheckStatus.CONFIRMED if problem is None else CheckStatus.VIOLATED
        witness = problem or {"trials": trials}
    else:
        status = CheckStatus.INCONCLUSIVE
        witness = {"note": "premise unmet: some stage is not a lattice homomorphism"}
    return _result("band-lattice", _filt_descriptor(filt), status, witness, seed)


def abs_commutation_index(filt: Filtration, x: LatticeVector) -> int | None:
    """Minimal l with | E_n x | = E_n |x| for every n >= l, at ``DEFAULT_TOL``, or None;
    NaN never aligns."""
    _require_same_space(x, filt, "vector and filtration")
    gaps = np.abs(_applied(filt.ops, x.coords)) - _applied(filt.ops, np.abs(x.coords))
    return _after_last(~(row_norms(filt.space, gaps) <= DEFAULT_TOL), filt.horizon)


def check_abs_alignment(filt: Filtration) -> dict:
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
    return _result("abs-alignment", _filt_descriptor(filt), status, witness, None)


# ---------------------------------------------------------------------------
# Default instances per check id
# ---------------------------------------------------------------------------

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


_Instances = Iterable[tuple[dict, dict]]


def _limit_defect_instances(seed: int, trials: int) -> _Instances:
    trunc = build_truncation(64)
    origin = zero(trunc.space)
    # Does not converge: premises fail, so the claim must stay silent.
    const = VectorSequence(trunc.space, np.tile(basis(trunc.space, 64).coords, (64, 1)))
    for name, builder, (filt, seq, x) in (
        ("harmonic-head", "truncation", _harmonic_head_instance(64)),
        ("perturbed-martingale", "random-nested", _perturbed_nested_instance(32, seed)),
        ("null", "truncation", (trunc, null_sequence(basis(trunc.space, 1), 64), origin)),
        ("constant-last-basis", "truncation", (trunc, const, origin)),
    ):
        yield check_limit_defect(seq, x, filt), {"builder": builder, "instance": name}


def _tail_approx_instances(seed: int, trials: int) -> _Instances:
    harmonic, base, _ = harmonic_tail_example(64)
    for name, builder, (filt, seq, x) in (
        ("harmonic-tail", "truncation", (harmonic, base, zero(harmonic.space))),
        ("perturbed-martingale", "random-nested", _perturbed_nested_instance(32, seed)),
    ):
        yield check_tail_modification(seq, x, filt), {"builder": builder, "instance": name}


#: The one list of check ids.  Per id: whether its instances read ``trials``, and its
#: default instances at (seed, trials), each a result and the keys, in order, that
#: :func:`run_check` appends to the result's descriptor.
CLAIMS: dict[str, tuple[bool, Callable[[int, int], _Instances]]] = {
    "nesting": (True, lambda seed, trials: [(check_class_nesting(seed, trials), {})]),
    "closed-limits": (False, lambda seed, trials: [
        (check_closed_under_limits(build_truncation(32), seed), {}),
        (check_closed_under_limits(build_dyadic(5), seed), {}),
        (check_closed_under_limits_harmonic(), {}),
    ]),
    "limit-defect": (False, _limit_defect_instances),
    "tail-approx": (False, _tail_approx_instances),
    "eventual-not-closed": (False, lambda seed, trials: [(check_eventual_not_closed(), {})]),
    "abs-closure": (False, lambda seed, trials: [(check_abs_closure(build_truncation(16)), {})]),
    "band-lattice": (True, lambda seed, trials: [
        (check_band_projection_lattice(build_truncation(16), seed, trials), {}),
        # Premise unmet on purpose: averaging operators are not lattice homomorphisms.
        (check_band_projection_lattice(build_dyadic(3), seed, trials), {}),
        # Lattice homomorphisms that are not band projections.
        (check_band_projection_lattice(build_copy(8), seed, trials),
         {"builder": "copy", "size": 8}),
    ]),
    "abs-alignment": (False, lambda seed, trials: [
        (check_abs_alignment(build_truncation(16)), {}),
        (check_abs_alignment(build_pairing(3)), {}),
        (check_abs_alignment(build_dyadic(3)), {}),
    ]),
}

CHECK_IDS = tuple(CLAIMS)


def run_check(check_id: str, seed: int = 0, trials: int = 100) -> list[dict]:
    """Run one check id on its default instances; ``trials`` must be >= 1."""
    try:
        _, instances = CLAIMS[check_id]
    except KeyError:
        raise ValueError(f"unknown check id {check_id!r}; known: {', '.join(CHECK_IDS)}")
    _require_trials(trials)
    return [
        {**r, "descriptor": {**r["descriptor"], **keys}} for r, keys in instances(seed, trials)
    ]


def run_all(seed: int = 0, trials: int = 100) -> list[dict]:
    results = []
    for check_id in CHECK_IDS:
        results.extend(run_check(check_id, seed, trials))
    return results
