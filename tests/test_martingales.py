"""Classification rules, sequence constructions, and the named examples.

Expected values for the derived cases are computed by raw-numpy oracles in
the tests (brute-force double loops over index pairs), independent of the
library functions they check.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles as ref
from _oracles import pair_table
from lattice_lab import (
    BlockOperator,
    LatticeSpace,
    NonContractiveError,
    NormKind,
    PosOperator,
    Filtration,
    SpaceMismatchError,
    VectorSequence,
    Verdict,
    abs_seq,
    apply,
    basis,
    build_dyadic,
    build_random_nested,
    build_truncation,
    check_lattice_closure,
    classify,
    defect_profile,
    eventual_witness,
    eventual_witness_pairwise,
    haar_example,
    harmonic_tail_example,
    is_martingale,
    null_sequence,
    one_step_defects,
    pairing_example,
    scale_head,
    seq_distance,
    seq_norm,
    sequence,
    tail_modify,
    tail_verdict,
    terminal_sequence,
    validate,
    vector,
    zero,
)
from lattice_lab import cli, martingales
from lattice_lab.filtration import is_dense
from lattice_lab.harness import (
    SEQUENCE_GENERATORS,
    abs_commutation_index,
    check_limit_defect,
    check_tail_modification,
    random_filtration,
    random_sequence,
    trial_rng,
)


def brute_defects(seq, filt):
    """Oracle: d_n = max_{m >= n} ||E_n x_m - x_n|| by raw matrix algebra."""
    return list(np.nanmax(pair_table(seq, filt), axis=1))


# ---------------------------------------------------------------------------
# Norms and distances
# ---------------------------------------------------------------------------

def test_seq_norm_haar():
    _, seq = haar_example(3)
    assert seq_norm(seq) == pytest.approx(2 * (1 - 2.0**-3), abs=1e-12)  # = 1.75


def test_seq_norm_zero_and_pairing():
    space = LatticeSpace(4)
    zeros = VectorSequence(space, np.zeros((3, 4)))
    assert seq_norm(zeros) == 0.0
    _, pseq = pairing_example(3)
    assert seq_norm(pseq) == 1.0


def test_seq_distance_requires_equal_horizons():
    space = LatticeSpace(2)
    a = VectorSequence(space, np.zeros((2, 2)))
    b = VectorSequence(space, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        seq_distance(a, b)


# ---------------------------------------------------------------------------
# Array storage: one read-only (N, d) table per sequence
# ---------------------------------------------------------------------------

def test_sequence_coords_are_a_read_only_copy():
    rows = np.array([[1.0, 2.0], [3.0, 4.0]])
    seq = sequence(LatticeSpace(2), rows)
    rows[0, 0] = 9.0
    assert seq.coords.shape == (2, 2) and seq.coords[0, 0] == 1.0
    assert not seq.coords.flags.writeable
    with pytest.raises(ValueError):
        seq.coords[0, 0] = 5.0
    assert [v.coords.tolist() for v in seq.vectors] == [[1.0, 2.0], [3.0, 4.0]]
    assert seq.term(2).coords.tolist() == [3.0, 4.0]


def _peak_bytes(build):
    """The result of ``build()`` and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        result = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


TABLE_256 = 256 * 256 * 8  # one (256, 256) float table, 512 KB


def test_a_frozen_fresh_table_is_kept_and_a_callers_array_copied():
    fresh = np.zeros((256, 256))
    fresh.setflags(write=False)  # as the library hands over the arrays it builds
    seq, peak = _peak_bytes(lambda: sequence(LatticeSpace(256), fresh))
    assert seq.coords is fresh and peak < TABLE_256 // 2, peak
    # A writable array, or a read-only view of memory it does not own, is copied.
    writable = np.zeros((256, 256))
    for rows in (writable, fresh[:, :]):
        seq, peak = _peak_bytes(lambda: sequence(LatticeSpace(256), rows))
        assert not np.shares_memory(seq.coords, rows) and peak >= TABLE_256


def test_library_built_tables_are_not_copied_again():
    # Each result is one 512 KB table built from views and a row or two, so a
    # second copy of it would take the peak to 1 MB.
    filt, seq, family = harmonic_tail_example(256)
    x = basis(filt.space, 256)
    member, peak = _peak_bytes(lambda: family[-1])
    assert np.array_equal(member.coords, ref.harmonic_rows(256)[1][-1])
    assert peak < 1.5 * TABLE_256, peak
    modified, peak = _peak_bytes(lambda: tail_modify(seq, filt, x, 255))
    assert np.array_equal(modified.coords[-1], x.coords)
    assert peak < 1.5 * TABLE_256, peak


@pytest.mark.parametrize(
    "rows",
    [
        [[1.0, 2.0], [3.0]],  # ragged
        [1.0, 2.0],  # flat: one row's worth, but not a table
        [[1.0, 2.0, 3.0]],  # wrong width
        np.zeros((0, 2)),  # zero rows
        [],
    ],
)
def test_sequence_rejects_anything_but_a_table_of_rows(rows):
    with pytest.raises(ValueError):
        sequence(LatticeSpace(2), rows)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gen=st.sampled_from(SEQUENCE_GENERATORS))
def test_array_sequence_functions_match_term_by_term_references(seed, gen):
    # Filtrations from all four builders and both norms, sequences from the
    # nesting-check generator mix.  Tolerances are fixed up front: a sup norm
    # is a maximum, exact in any order; a weighted-L1 norm is a dot product
    # whose BLAS summation order differs between one row and a block of rows.
    rng = trial_rng(seed, 0)
    filt, _ = random_filtration(rng)
    seq = random_sequence(filt, gen, rng)
    x = vector(filt.space, rng.uniform(-1.0, 1.0, size=filt.space.dim))
    m = int(rng.integers(0, filt.horizon + 1))
    rel = 0.0 if filt.space.norm_kind is NormKind.SUP else 1e-15
    other = terminal_sequence(filt, x)

    assert np.array_equal(other.coords, ref.terminal_rows(filt, x))
    modified = tail_modify(seq, filt, x, m)
    assert np.array_equal(modified.coords, ref.tail_modify_rows(seq, filt, x, m))
    assert seq_norm(seq) == pytest.approx(ref.seq_norm(seq), rel=rel, abs=0.0)
    distance = seq_distance(seq, other)
    assert distance == pytest.approx(ref.seq_distance(seq, other), rel=rel, abs=0.0)
    for v in (x, seq.term(1), basis(filt.space, filt.space.dim)):
        assert abs_commutation_index(filt, v) == ref.abs_commutation_index(filt, v, 1e-9)
    assert is_dense(filt) == ref.is_dense(filt, 1e-9)


@pytest.mark.parametrize("n_terms", [2, 3, 7, 16, 64])
def test_harmonic_rows_match_the_row_builders(n_terms):
    _, base, family = harmonic_tail_example(n_terms)
    want_base, want_family = ref.harmonic_rows(n_terms)
    assert np.array_equal(base.coords, want_base)
    assert len(family) == len(want_family) == n_terms - 1
    for member, want in zip(family, want_family):
        assert np.array_equal(member.coords, want)
    for k in range(n_terms - 1):
        assert np.array_equal(family[k].coords, want_family[k])
    assert np.array_equal(family[-1].coords, want_family[-1])
    for member, want in zip(family[-2:], want_family[-2:], strict=True):
        assert np.array_equal(member.coords, want)
    with pytest.raises(IndexError):
        family[n_terms - 1]
    for again, first in zip(family, list(family)):
        assert np.array_equal(again.coords, first.coords)
    with pytest.raises(ValueError):
        family[0].coords[0, 0] = 1.0


@pytest.mark.parametrize("n_terms", [2, 16, 64])
def test_harmonic_members_are_tail_modify_bit_for_bit(n_terms):
    # A^m keeps terms 1..m and takes E_n x for x = (sum_i e_i / i) / m after.
    filt, base, family = harmonic_tail_example(n_terms)
    inv = 1.0 / np.arange(1, n_terms + 1)
    for m, member in enumerate(family, 1):
        modified = tail_modify(base, filt, vector(filt.space, inv / m), m)
        assert member.coords.tobytes() == modified.coords.tobytes()


def test_harmonic_family_is_built_on_access():
    # Holding all 255 approximants at once peaked at 137 MB traced.
    tracemalloc.start()
    try:
        _, base, family = harmonic_tail_example(256)
        assert seq_distance(family[-1], base) == 1.0 / 255
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(family) == 255
    assert peak < 16 * 2**20, peak


# ---------------------------------------------------------------------------
# Martingale law
# ---------------------------------------------------------------------------

def test_terminal_sequence_is_martingale_for_random_instances():
    rng = np.random.default_rng(21)
    for k in range(100):
        filt = build_random_nested(int(rng.integers(3, 12)), 3, seed=k)
        x = vector(filt.space, rng.normal(size=filt.space.dim))
        seq = terminal_sequence(filt, x)
        assert max(brute_defects(seq, filt)) <= 1e-12
        assert is_martingale(seq, filt)


def test_haar_is_martingale_and_scaled_head_is_not():
    filt, seq = haar_example(3)
    assert is_martingale(seq, filt)
    assert not is_martingale(scale_head(seq, 2.0), filt)


def test_pairing_is_martingale():
    filt, seq = pairing_example(3)
    assert is_martingale(seq, filt)


# ---------------------------------------------------------------------------
# Eventual witnesses
# ---------------------------------------------------------------------------

def test_scaled_head_witness_is_two():
    filt, seq = haar_example(3)
    assert eventual_witness(scale_head(seq, 2.0), filt) == 2


def test_martingale_witness_is_one():
    filt, seq = haar_example(3)
    assert eventual_witness(seq, filt) == 1


def test_harmonic_tail_has_no_witness():
    filt, base, _ = harmonic_tail_example(64)
    assert eventual_witness(base, filt) is None


def test_witness_skips_vacuous_final_index():
    # One-step law broken only at the last step: the would-be witness N is vacuous.
    filt = build_truncation(3)
    e1 = basis(filt.space, 1).coords
    seq = sequence(filt.space, [e1, e1, 2.0 * e1])
    assert eventual_witness(seq, filt) is None


def test_pairwise_witness_agrees_on_generated_instances():
    instances = []
    f, s = pairing_example(3)
    instances += [(f, s), (f, abs_seq(s))]
    f, s = haar_example(3)
    instances += [(f, s), (f, abs_seq(s)), (f, scale_head(s, 2.0))]
    f, base, family = harmonic_tail_example(16)
    instances += [(f, base)] + [(f, m) for m in family]
    trunc = build_truncation(12)
    instances.append((trunc, null_sequence(basis(trunc.space, 1), 12)))
    rng = np.random.default_rng(5)
    for k in range(20):
        filt = build_random_nested(10, 10, seed=k)
        x = vector(filt.space, rng.normal(size=10))
        instances.append((filt, terminal_sequence(filt, x)))
        instances.append((filt, scale_head(terminal_sequence(filt, x), 3.0)))
    for filt, seq in instances:
        assert eventual_witness(seq, filt) == eventual_witness_pairwise(seq, filt)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gen=st.sampled_from(SEQUENCE_GENERATORS))
def test_pair_defect_reductions_match_per_pair_oracle(seed, gen):
    # Filtrations from all four builders and both norms, sequences from the
    # nesting-check generator mix; every reduction is re-derived from the loop.
    rng = trial_rng(seed, 0)
    filt, _ = random_filtration(rng)
    seq = random_sequence(filt, gen, rng)
    table = pair_table(seq, filt)
    n_terms = seq.horizon
    rows = np.nanmax(table, axis=1)
    steps = np.array([table[m, m + 1] for m in range(n_terms - 1)])

    def witness(defects):
        bad = np.flatnonzero(defects > 1e-9)
        w = int(bad[-1]) + 2 if bad.size else 1
        return w if w <= n_terms - 1 else None

    np.testing.assert_allclose(defect_profile(seq, filt), rows, rtol=0, atol=1e-12)
    np.testing.assert_allclose(one_step_defects(seq, filt), steps, rtol=0, atol=1e-12)
    assert is_martingale(seq, filt) == bool(np.nanmax(table) <= 1e-9)
    assert eventual_witness(seq, filt) == witness(steps)
    assert eventual_witness_pairwise(seq, filt) == witness(rows)


# ---------------------------------------------------------------------------
# Defect profiles and tail verdicts
# ---------------------------------------------------------------------------

def test_defect_profile_of_martingale_is_negligible():
    filt, seq = haar_example(4)
    assert float(defect_profile(seq, filt).max()) <= 1e-12


def test_null_sequence_defects_on_truncation():
    n = 64
    filt = build_truncation(n)
    seq = null_sequence(basis(filt.space, 1), n)
    profile = defect_profile(seq, filt)
    assert np.allclose(profile, brute_defects(seq, filt), atol=0)
    for i in range(n - 1):
        assert profile[i] == pytest.approx(1.0 / (i + 1) - 1.0 / n, abs=1e-12)
    assert tail_verdict(seq, filt) is Verdict.X_MARTINGALE


def test_harmonic_tail_defects_are_reciprocal():
    n = 64
    filt, base, _ = harmonic_tail_example(n)
    profile = defect_profile(base, filt)
    for i in range(n - 1):
        assert profile[i] == pytest.approx(1.0 / (i + 1), abs=1e-12)
    assert profile[-1] == 0.0
    assert tail_verdict(base, filt) is Verdict.X_MARTINGALE


def test_constant_unreachable_sequence_is_not_x():
    filt = build_truncation(16)
    last = basis(filt.space, 16).coords
    seq = sequence(filt.space, [last] * 16)
    assert tail_verdict(seq, filt) is Verdict.NOT_X


def test_tail_verdict_rejects_non_contractive_filtration():
    space = LatticeSpace(2)
    doubler = PosOperator(space, 2 * np.eye(2))
    filt = Filtration(space, (doubler, doubler))
    seq = VectorSequence(space, np.zeros((2, 2)))
    with pytest.raises(NonContractiveError):
        tail_verdict(seq, filt)


def test_the_tail_verdict_refuses_a_horizon_below_two(monkeypatch):
    # a one-term window used to read X_MARTINGALE off the single index N, where
    # classify refuses the same input
    filt = build_truncation(1)
    seq = sequence(filt.space, [[5.0]])
    monkeypatch.setattr(martingales, "_profiles", lambda *args: pytest.fail("_profiles ran"))
    for entry in (tail_verdict, classify):
        with pytest.raises(ValueError, match="needs a horizon of at least 2 terms"):
            entry(seq, filt)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), trial=st.integers(0, 2**16))
def test_the_single_law_entries_are_classify_at_its_defaults(seed, trial):
    rng = trial_rng(seed, trial)
    filt, _ = random_filtration(rng)
    assert filt.horizon >= 2
    seq = random_sequence(filt, str(rng.choice(SEQUENCE_GENERATORS)), rng)
    report = classify(seq, filt)
    assert tail_verdict(seq, filt) is report["x_verdict"]
    assert eventual_witness(seq, filt) == report["e_witness"]
    assert is_martingale(seq, filt) == report["is_martingale"]


_REFUSALS = ("_require_matching", "tail_window_start", "is_contractive_filtration")


def _spied_calls(monkeypatch, names) -> dict:
    """The counts, filled as they run, of the calls to each ``martingales.<name>``."""
    calls = {}
    for name in names:
        def spy(*args, real=getattr(martingales, name), name=name, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(martingales, name, spy)
    return calls


def test_classify_runs_each_refusal_once_and_never_the_public_tail_verdict(monkeypatch):
    calls = _spied_calls(monkeypatch, _REFUSALS + ("tail_verdict",))
    filt, seq = pairing_example(3)
    assert classify(seq, filt)["x_verdict"] is Verdict.X_MARTINGALE
    assert calls == dict.fromkeys(_REFUSALS, 1)


def test_tail_verdict_runs_each_refusal_once(monkeypatch):
    # the profile is read past the refusals, not through defect_profile, which refuses again
    calls = _spied_calls(monkeypatch, _REFUSALS)
    filt, seq = pairing_example(3)
    assert tail_verdict(seq, filt) is Verdict.X_MARTINGALE
    assert calls == dict.fromkeys(_REFUSALS, 1)


def _random_rows_case() -> tuple[Filtration, VectorSequence]:
    """Eight random terms on the truncation chain of d = 8: NOT_X, eps 0.249."""
    filt = build_truncation(8)
    return filt, sequence(filt.space, np.random.default_rng(0).uniform(-5, 5, (8, 8)))


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_a_term_that_is_not_finite_leaves_the_tail_undecided(bad):
    # one infinite coordinate used to make eps infinite, so every tail passed as
    # X_MARTINGALE; a NaN one left eps at 0.05, since max(1.0, nan) is 1.0
    filt, seq = _random_rows_case()
    finite = classify(seq, filt)
    assert finite["x_verdict"] is Verdict.NOT_X
    assert finite["tolerances"]["eps_x"] == pytest.approx(0.249, abs=1e-3)
    rows = seq.coords.copy()
    rows[0, 0] = bad
    with np.errstate(invalid="ignore"):  # inf - inf in the pair defects
        report = classify(sequence(filt.space, rows), filt)
    assert math.isnan(report["tolerances"]["eps_x"]) and report["x_verdict"] is Verdict.INCONCLUSIVE
    assert cli._finite(report)["tolerances"]["eps_x"] is None  # --json writes null


def monotone_tail_rule(d: np.ndarray, eps: float, start: int) -> Verdict:
    """Reference: the tail rule that also asked the window to be non-increasing up to
    eps slack, a clause every defect profile (entries NaN or >= 0) meets once the
    window's maximum is <= eps.  Its sum overflows to inf near 1e308, which only loosens
    the clause, so the overflow warning is silenced."""
    window = d[start - 1 :]
    with np.errstate(over="ignore"):
        monotone = bool(np.all(window[1:] <= window[:-1] + eps))
    if float(window.max()) <= eps and monotone:
        return Verdict.X_MARTINGALE
    strict = d[start - 1 : len(d) - 1]
    if strict.size and float(strict.min()) > 10.0 * eps:
        return Verdict.NOT_X
    return Verdict.INCONCLUSIVE


_DEFECTS = st.one_of(
    st.floats(min_value=0.0, allow_nan=False), st.sampled_from([-0.0, math.inf, math.nan])
)


@settings(max_examples=300, deadline=None)
@given(
    profile=st.lists(_DEFECTS, min_size=1, max_size=12),
    eps=st.one_of(
        st.sampled_from([0.0, 5e-324, math.nan]),
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    ),
)
def test_the_tail_verdict_is_the_monotone_rule_on_every_defect_profile(profile, eps):
    d = np.array(profile)
    start = martingales.tail_window_start(len(d))
    assert martingales._tail_rule(d, start, eps) is monotone_tail_rule(d, eps, start)


def test_classify_refuses_a_non_contractive_filtration_before_the_pair_table(monkeypatch):
    # neither the table nor the profiles' suffix scan (nor the source it reads) may
    # be built first; the sup chain of pair sums at d = 32 would take the scan
    space, wide = LatticeSpace(2), LatticeSpace(32)
    pair_sums = BlockOperator(wide, np.arange(32) // 2, True, 1.0)  # norm 2
    summing = Filtration(wide, (pair_sums, BlockOperator(wide, np.arange(32), True, 1.0)))
    assert martingales._plan_source(np.ones((2, 32)), summing) is not None
    for name in ("_pair_table", "_profiles", "_plan_source"):
        def no_table(*args, name=name, **kwargs):
            raise AssertionError(f"{name} ran")

        monkeypatch.setattr(martingales, name, no_table)
    doubler = PosOperator(space, 2 * np.eye(2))
    seq = VectorSequence(space, np.ones((2, 2)))
    with pytest.raises(NonContractiveError, match="requires a contractive filtration"):
        classify(seq, Filtration(space, (doubler, doubler)))
    with pytest.raises(NonContractiveError, match="requires a contractive filtration"):
        classify(VectorSequence(wide, np.ones((2, 32))), summing)
    with pytest.raises(ValueError, match="horizon of at least 2"):  # the horizon check comes first
        classify(VectorSequence(space, np.ones((1, 2))), Filtration(space, (doubler,)))


_PAIRS, _PAIRING = pairing_example(3)
#: every public function's tol, eps or window parameter -> a call passing it the value
_BOUNDED_CALLS = {
    "classify tol": lambda v: classify(_PAIRING, _PAIRS, tol=v),
    "classify eps": lambda v: classify(_PAIRING, _PAIRS, eps=v),
    "validate tol": lambda v: validate(_PAIRS, True, v),
    "classify window_fraction": lambda v: classify(_PAIRING, _PAIRS, window_fraction=v),
    "tail_window_start window_fraction": lambda v: martingales.tail_window_start(16, v),
}


@pytest.mark.parametrize(
    "name, value",
    [
        (name, value)
        for name in _BOUNDED_CALLS
        for value in (
            (0.0, -1.0, 1.25, math.inf, math.nan) if name.endswith("window_fraction")
            else (-1.0, math.nan, math.inf)
        )
    ],
)
def test_each_function_refuses_an_out_of_range_tolerance_eps_or_window(monkeypatch, name, value):
    # the rule lives in the function that reads the value, so no caller can get past it,
    # and it refuses before any defect is computed
    for kernel in ("_pair_table", "_profiles", "_steps"):
        def no_kernel(*args, kernel=kernel, **kwargs):
            raise AssertionError(f"{kernel} ran")

        monkeypatch.setattr(martingales, kernel, no_kernel)
    param = name.split()[-1]
    rule = r"in \(0, 1\]" if param == "window_fraction" else "finite and >= 0"
    with pytest.raises(ValueError, match=rf"^{param} must be {rule}, got "):
        _BOUNDED_CALLS[name](value)


@pytest.mark.parametrize(
    "entry, knob",
    [
        (tail_verdict, "eps"),
        (tail_verdict, "window_fraction"),
        (tail_verdict, "profile"),
        (eventual_witness, "tol"),
        (eventual_witness_pairwise, "tol"),
        (lambda filt, seq, **knob: abs_commutation_index(filt, seq.term(1), **knob), "tol"),
        (lambda filt, seq, **knob: check_lattice_closure(seq, filt, **knob), "tol"),
    ],
    ids=[
        "tail_verdict eps", "tail_verdict window_fraction", "tail_verdict profile",
        "eventual_witness tol", "eventual_witness_pairwise tol", "abs_commutation_index tol",
        "check_lattice_closure tol",
    ],
)
def test_a_single_rule_entry_takes_no_knob(entry, knob):
    # classify is the one public home of tol, eps and the window; a knob passed to a
    # single-rule entry or to check_lattice_closure is refused, not silently read at its default
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{knob}'"):
        entry(_PAIRS, _PAIRING, **{knob: 0.5})


_HARMONIC_FILT, _HARMONIC, _ = harmonic_tail_example(64)


@pytest.mark.parametrize(
    "eps, window_fraction, want",
    [
        # d_n = 1/n for n < 64, ||A|| = 1, so default eps = 0.05; window from n* = ceil((1 - w) 64)
        (None, 0.25, Verdict.X_MARTINGALE),  # max over n >= 48 is 1/48 <= 0.05
        (0.01, 0.25, Verdict.INCONCLUSIVE),  # 1/48 > 0.01, and 1/63 <= 0.1
        (0.001, 0.25, Verdict.NOT_X),  # 1/63 > 0.01 over the whole strict window
        (0.05, 1.0, Verdict.INCONCLUSIVE),  # the window holds d_1 = 1
        (0.04, 0.5, Verdict.X_MARTINGALE),  # max over n >= 32 is 1/32 <= 0.04
        (0.02, 0.5, Verdict.INCONCLUSIVE),  # 1/32 > 0.02, and 1/63 <= 0.2
        (0.0015, 0.5, Verdict.NOT_X),  # 1/63 > 0.015
    ],
)
def test_classify_reads_the_harmonic_tail_at_any_eps_and_window(eps, window_fraction, want):
    report = classify(_HARMONIC, _HARMONIC_FILT, eps=eps, window_fraction=window_fraction)
    assert report["x_verdict"] is want
    if eps is None and window_fraction == 0.25:
        assert tail_verdict(_HARMONIC, _HARMONIC_FILT) is want


@pytest.mark.parametrize(
    "tol, want",
    [
        # the one-step defects of the harmonic tail are 1/m for m = 1..63
        (1e-9, None),  # the default: every step is flagged, up to m = N - 1
        (0.021, 48),  # 1/47 > 0.021 >= 1/48
        (0.105, 10),  # 1/9 > 0.105 >= 1/10
        (0.6, 2),  # only 1/1 exceeds it
        (1.5, 1),  # no step exceeds it
    ],
)
def test_classify_reads_the_harmonic_eventual_witness_at_any_tol(tol, want):
    assert classify(_HARMONIC, _HARMONIC_FILT, tol=tol)["e_witness"] == want
    if tol == 1e-9:
        assert eventual_witness(_HARMONIC, _HARMONIC_FILT) == want


def _exact_martingale():
    filt = build_truncation(16)
    return filt, terminal_sequence(filt, vector(filt.space, np.arange(1.0, 17.0)))


_IN_EVERY_CLASS = {"is_martingale": True, "e_witness": 1, "x_verdict": Verdict.X_MARTINGALE}


@pytest.mark.parametrize(
    "build, bad, want",
    [
        (_exact_martingale, {"eps": -1.0}, _IN_EVERY_CLASS),
        (lambda: pairing_example(3), {"tol": -1.0}, _IN_EVERY_CLASS),
        (
            lambda: harmonic_tail_example(16)[:2],
            {"window_fraction": -1.0},
            {"is_martingale": False, "e_witness": None, "x_verdict": Verdict.INCONCLUSIVE},
        ),
    ],
    ids=[
        "eps=-1 called an exact martingale NOT_X",
        "tol=-1 called the pairing martingale no martingale with no witness",
        "window_fraction=-1 called the harmonic tail X_MARTINGALE",
    ],
)
def test_regression_an_out_of_range_argument_broke_the_class_nesting(build, bad, want):
    filt, seq = build()
    report = classify(seq, filt)
    assert {key: report[key] for key in want} == want
    with pytest.raises(ValueError):
        classify(seq, filt, **bad)


@settings(max_examples=300, deadline=None)
@given(horizon=st.integers(1, 4096), fraction=st.floats(0.0, 1.0, exclude_min=True))
@example(horizon=4096, fraction=5e-324)
@example(horizon=4096, fraction=2.0**-53)
@example(horizon=1, fraction=1.0)
def test_the_tail_window_start_never_needed_its_clamp(horizon, fraction):
    # 1 - fraction rounds to at most 1, so the start never passed the horizon
    clamped = min(horizon, max(1, math.ceil((1.0 - fraction) * horizon)))
    assert martingales.tail_window_start(horizon, fraction) == clamped


@pytest.mark.parametrize(
    "site",
    [
        "apply", "seq_distance", "_require_matching", "terminal_sequence", "tail_modify",
        "abs_commutation_index", "Filtration",
    ],
)
def test_every_space_check_raises_space_mismatch(site):
    filt, seq = pairing_example(2)  # dimension 4, horizon 2
    x = basis(LatticeSpace(3), 1)
    other = VectorSequence(x.space, np.ones((2, 3)))
    calls = {
        "apply": lambda: apply(filt.op(1), x),
        "seq_distance": lambda: seq_distance(other, seq),
        "_require_matching": lambda: defect_profile(other, filt),
        "terminal_sequence": lambda: terminal_sequence(filt, x),
        "tail_modify": lambda: tail_modify(seq, filt, x, 1),
        "abs_commutation_index": lambda: abs_commutation_index(filt, x),
        "Filtration": lambda: Filtration(x.space, filt.ops),
    }
    with pytest.raises(SpaceMismatchError, match="live in different spaces"):
        calls[site]()


def test_classify_takes_the_sequence_norm_once(monkeypatch):
    filt, seq = pairing_example(4)
    want = classify(seq, filt)
    calls = []
    row_norms = martingales.row_norms

    def counted(space, rows):
        calls.append(rows is seq.coords)  # the pair table passes differences, never the terms
        return row_norms(space, rows)

    monkeypatch.setattr(martingales, "row_norms", counted)
    got = classify(seq, filt)
    assert sum(calls) == 1
    assert got == want and got["tolerances"]["eps_x"] == 0.05 and got["seq_norm"] == 1.0


def test_inconclusive_verdict_exists():
    # Defects collapse exactly at the window edge: too mixed to call either way.
    filt = build_truncation(8)
    e8 = basis(filt.space, 8).coords
    rows = [e8 if n <= 6 else zero(filt.space).coords for n in range(1, 9)]
    seq = sequence(filt.space, rows)
    assert tail_verdict(seq, filt) is Verdict.INCONCLUSIVE


def test_classify_report_invariants_and_shape():
    filt, seq = pairing_example(3)
    report = classify(seq, filt)
    assert report["is_martingale"] and report["e_witness"] == 1
    assert report["x_verdict"] is Verdict.X_MARTINGALE and report["x_verdict"] == "X_MARTINGALE"
    assert report["tolerances"]["window_fraction"] == 0.25
    assert len(report["x_defects"]) == 3


def test_classify_rejects_single_term_horizon():
    filt = build_truncation(1)
    seq = sequence(filt.space, [basis(filt.space, 1).coords])
    with pytest.raises(ValueError):
        classify(seq, filt)


def test_classify_rejects_horizon_mismatch():
    filt = build_truncation(4)
    seq = null_sequence(basis(filt.space, 1), 3)
    with pytest.raises(ValueError):
        classify(seq, filt)


# ---------------------------------------------------------------------------
# Absolute sequences and lattice closure
# ---------------------------------------------------------------------------

def test_abs_seq_preserves_seq_norm():
    rng = np.random.default_rng(31)
    space = LatticeSpace(5)
    seq = sequence(space, rng.normal(size=(4, 5)))
    assert seq_norm(abs_seq(seq)) == seq_norm(seq)


def test_pairing_closure_fails_for_abs():
    filt, seq = pairing_example(3)
    report = check_lattice_closure(seq, filt)
    assert report["base"]["is_martingale"]
    assert report["abs_stays_martingale"] is False
    assert report["abs_stays_eventual"] is False
    assert report["abs"]["e_witness"] is None
    assert one_step_defects(abs_seq(seq), filt)[0] == pytest.approx(1.0, abs=1e-12)


def _truncation_case() -> tuple[Filtration, VectorSequence]:
    filt = build_truncation(10)
    x = vector(filt.space, np.random.default_rng(17).normal(size=10))
    return filt, terminal_sequence(filt, x)


def _scaled(filt: Filtration, seq: VectorSequence) -> tuple[Filtration, VectorSequence]:
    return filt, scale_head(seq, 2.0)


@pytest.mark.parametrize("build, stays", [
    (lambda: pairing_example(4), (False, False, False)),
    (lambda: haar_example(3), (False, False, True)),
    (lambda: _scaled(*haar_example(3)), (None, False, True)),
    (lambda: _scaled(*_truncation_case()), (None, True, True)),
    (_truncation_case, (True, True, True)),
    (_random_rows_case, (None, None, None)),  # not eventual, and NOT_X
], ids=["pairing", "haar", "scale-head", "truncation-scale-head", "truncation", "random"])
def test_abs_stays_in_a_class_only_where_a_is_in_it(build, stays):
    filt, seq = build()
    report = check_lattice_closure(seq, filt)
    base, abs_ = classify(seq, filt), classify(abs_seq(seq), filt)
    assert (report["base"], report["abs"]) == (base, abs_)
    keys = ("abs_stays_martingale", "abs_stays_eventual", "abs_stays_asymptotic")
    assert list(report) == ["base", "abs", *keys]
    assert tuple(report[key] for key in keys) == stays
    in_class = (base["is_martingale"], base["e_witness"] is not None,
                base["x_verdict"] is Verdict.X_MARTINGALE)
    assert [value is None for value in stays] == [not member for member in in_class]


def test_haar_abs_fails_one_step_law_everywhere():
    filt, seq = haar_example(3)
    steps = one_step_defects(abs_seq(seq), filt)
    assert float(steps.min()) > 1e-9
    assert steps[0] == pytest.approx(0.5, abs=1e-12)


def test_haar_level_two_values_and_averaged_abs():
    filt, seq = haar_example(2)
    assert np.array_equal(seq.term(1).coords, [1, 1, -1, -1])
    assert np.array_equal(seq.term(2).coords, [3, -1, -1, -1])
    # oracle: block-average |x_2| by hand and compare on level-1 blocks
    averaged = filt.op(1).matrix @ np.abs(seq.term(2).coords)
    assert np.array_equal(averaged, [2, 2, 1, 1])


def test_band_projection_filtration_closure_holds():
    rng = np.random.default_rng(17)
    filt = build_truncation(10)
    for k in range(25):
        x = vector(filt.space, rng.normal(size=10))
        seq = scale_head(terminal_sequence(filt, x), 2.0)
        report = check_lattice_closure(seq, filt)
        assert report["abs_stays_eventual"] is True
        if report["base"]["is_martingale"]:
            assert report["abs_stays_martingale"] is True


def test_band_projection_defect_domination():
    # || E_n |x_m| - |x_n| || <= || E_n x_m - x_n || pairwise, mask filtrations.
    rng = np.random.default_rng(23)
    filt = build_truncation(12)
    for _ in range(25):
        x = vector(filt.space, rng.normal(size=12))
        z = vector(filt.space, rng.normal(size=12))
        rows = [
            (tv + z * (1.0 / n)).coords
            for n, tv in enumerate(terminal_sequence(filt, x).vectors, start=1)
        ]
        seq = sequence(filt.space, rows)
        aseq = abs_seq(seq)
        mats = [op.matrix for op in filt.ops]
        for n in range(12):
            for m in range(n, 12):
                lhs = np.max(np.abs(mats[n] @ aseq.term(m + 1).coords - aseq.term(n + 1).coords))
                rhs = np.max(np.abs(mats[n] @ seq.term(m + 1).coords - seq.term(n + 1).coords))
                assert lhs <= rhs + 1e-9


# ---------------------------------------------------------------------------
# Tail modification
# ---------------------------------------------------------------------------

def test_tail_modify_identity_when_cut_beyond_horizon():
    filt = build_truncation(5)
    seq = null_sequence(basis(filt.space, 1), 5)
    assert tail_modify(seq, filt, zero(filt.space), 5) is seq
    assert tail_modify(seq, filt, zero(filt.space), 9) is seq


def test_tail_modify_rejects_negative_cut_and_keeps_cut_zero():
    filt = build_truncation(4)
    seq = null_sequence(vector(filt.space, [1.0, -2.0, 3.0, -4.0]), 4)
    x = vector(filt.space, [5.0, 6.0, 7.0, 8.0])
    for m in (-1, -4, -9):
        with pytest.raises(ValueError, match="m must be >= 0"):
            tail_modify(seq, filt, x, m)
    every_term = tail_modify(seq, filt, x, 0)  # m = 0 replaces every term by E_n x
    assert np.array_equal(every_term.coords, ref.tail_modify_rows(seq, filt, x, 0))


def test_tail_modify_with_zero_vector_gets_witness():
    n = 12
    filt = build_truncation(n)
    seq = null_sequence(basis(filt.space, 1), n)
    for m in range(1, n - 1):
        modified = tail_modify(seq, filt, zero(filt.space), m)
        w = eventual_witness(modified, filt)
        assert w is not None and w <= m + 1


def test_tail_modify_distance_matches_tail_formula():
    n = 16
    filt = build_truncation(n)
    rng = np.random.default_rng(3)
    x = vector(filt.space, rng.normal(size=n))
    seq = null_sequence(vector(filt.space, rng.normal(size=n)), n)
    distances = []
    for m in range(1, n):
        modified = tail_modify(seq, filt, x, m)
        # oracle: distance is the largest tail gap max_{k > m} ||E_k x - x_k||
        expected = max(
            np.max(np.abs(filt.op(k).matrix @ x.coords - seq.term(k).coords))
            for k in range(m + 1, n + 1)
        )
        got = seq_distance(modified, seq)
        assert got == pytest.approx(expected, abs=1e-12)
        distances.append(got)
    assert all(b <= a + 1e-12 for a, b in zip(distances, distances[1:]))


# ---------------------------------------------------------------------------
# Named generators
# ---------------------------------------------------------------------------

def test_null_sequence_terms():
    space = LatticeSpace(3)
    x = vector(space, [3.0, -6.0, 0.0])
    seq = null_sequence(x, 4)
    for k in range(1, 5):
        assert np.array_equal(seq.term(k).coords, x.coords / k)


def test_harmonic_family_witnesses_and_distances():
    n = 64
    filt, base, family = harmonic_tail_example(n)
    assert len(family) == n - 1
    for m, member in enumerate(family, start=1):
        assert seq_distance(member, base) == pytest.approx(1.0 / m, abs=1e-12)
        if m <= n - 2:
            w = eventual_witness(member, filt)
            assert w is not None and w <= m + 1


def test_pairing_sequence_terms():
    _, seq = pairing_example(2)
    assert np.array_equal(seq.term(1).coords, [-1, 1, 0, 0])
    assert np.array_equal(seq.term(2).coords, [-1, 1, -1, 1])


_NON_FINITE_CHAINS = {
    "truncation": lambda: build_truncation(16),
    "dyadic": lambda: build_dyadic(4),
    "nested-l1-40": lambda: build_random_nested(40, 40, 3, NormKind.WEIGHTED_L1),
    "nested-l1-12": lambda: build_random_nested(12, 12, 3, NormKind.WEIGHTED_L1),
    "nested-sup-40": lambda: build_random_nested(40, 40, 3, NormKind.SUP),
    "nested-sup-12": lambda: build_random_nested(12, 12, 3, NormKind.SUP),
}
_NON_FINITE_CALLS = (
    lambda seq, x, filt: classify(seq, filt),
    lambda seq, x, filt: defect_profile(seq, filt),
    lambda seq, x, filt: one_step_defects(seq, filt),
    lambda seq, x, filt: tail_verdict(seq, filt),
    check_limit_defect,
    check_tail_modification,
)


@pytest.mark.parametrize("chain", sorted(_NON_FINITE_CHAINS))
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_a_non_finite_term_raises_no_warning(chain, bad):
    # The kernels write NaN for a non-finite term by their stated rule, so none may warn
    # (tier-1 turns warnings into errors) and each answer is the one given with every
    # floating-point warning silenced; covers the table, scan, B.T product and step reads.
    filt = _NON_FINITE_CHAINS[chain]()
    x = vector(filt.space, np.random.default_rng(0).uniform(-1.0, 1.0, filt.space.dim))
    for term in (0, filt.horizon - 1):
        for coord in (0, filt.space.dim - 1):
            rows = terminal_sequence(filt, x).coords.copy()
            rows[term, coord] = bad
            seq = sequence(filt.space, rows)
            for call in _NON_FINITE_CALLS:
                got = call(seq, x, filt)
                with np.errstate(all="ignore"):
                    assert repr(got) == repr(call(seq, x, filt))
            assert np.isnan(defect_profile(seq, filt)[: term + 1]).all()
            assert not np.isfinite(one_step_defects(seq, filt)[max(term - 1, 0)])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_a_vector_that_is_not_finite_applies_without_a_warning(bad):
    # 0 * inf is NaN with no warning (tier-1 turns warnings into errors): a block stage is
    # NaN only in the row it drops, a dense product in every row
    filt = build_truncation(4)
    x = vector(filt.space, [1.0, 2.0, 3.0, bad])
    np.testing.assert_array_equal(apply(filt.op(2), x).coords, [1.0, 2.0, 0.0, np.nan])
    assert np.isnan(apply(PosOperator(filt.space, filt.op(2).matrix), x).coords).all()
    want = np.tril(np.ones((4, 4))) * [1.0, 2.0, 3.0, 0.0]  # E_n x keeps coordinates 1..n
    want[:, 3] = [np.nan, np.nan, np.nan, bad]
    np.testing.assert_array_equal(terminal_sequence(filt, x).coords, want)
    head = null_sequence(basis(filt.space, 1), 4)
    np.testing.assert_array_equal(tail_modify(head, filt, x, 1).coords[1:], want[1:])


def test_scale_head_only_touches_first_term():
    filt, seq = haar_example(3)
    doubled = scale_head(seq, 2.0)
    assert np.array_equal(doubled.term(1).coords, 2.0 * seq.term(1).coords)
    for n in range(2, 4):
        assert np.array_equal(doubled.term(n).coords, seq.term(n).coords)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_term_fails_every_pair_it_is_in(bad):
    # E_2 of truncation(3) never reads coordinate 3, so only the rule that a
    # non-finite term poisons its pairs keeps x_3 from passing the one-step law.
    filt = build_truncation(3)
    rows = np.array([[1.0, 0.0, 0.0], [1.0, 2.0, 0.0], [1.0, 2.0, bad]])
    seq = sequence(filt.space, rows)
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf, as in a dense product
        assert eventual_witness(seq, filt) is None
        assert not is_martingale(seq, filt)
        assert np.isnan(one_step_defects(seq, filt)[-1])
        assert np.isnan(defect_profile(seq, filt)).all()
    finite = sequence(filt.space, np.where(np.isfinite(rows), rows, 3.0))
    assert eventual_witness(finite, filt) == 1
