"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion gets a PASS/FAIL line in the terminal summary (see
conftest).  Expected values are either closed forms evaluated inline or
frozen numbers computed beforehand with the raw-numpy oracles that also
appear in the unit tests.
"""

import numpy as np
import pytest

from lattice_lab import (
    CheckStatus,
    LatticeSpace,
    NormKind,
    PosOperator,
    Verdict,
    abs_commutation_index,
    abs_seq,
    apply,
    basis,
    build_pairing,
    build_truncation,
    classify,
    eventual_witness,
    eventual_witness_pairwise,
    haar_example,
    harmonic_tail_example,
    norm,
    null_sequence,
    one_step_defects,
    operator_norm,
    pairing_example,
    seq_distance,
    tail_verdict,
    vector,
)
from lattice_lab.harness import (
    check_class_nesting,
    random_asymptotic_martingale,
    random_eventual_martingale,
    trial_rng,
)


def brute_max_defect(seq, filt):
    """max over all pairs m >= n of ||E_n x_m - x_n||, by raw matrix algebra."""
    mats = [op.matrix for op in filt.ops]
    xs = [v.coords for v in seq.vectors]
    w = filt.space.weights

    def nrm(v):
        return float(w @ np.abs(v)) if w is not None else float(np.max(np.abs(v)))

    return max(
        nrm(mats[n] @ xs[m] - xs[n])
        for n in range(len(xs))
        for m in range(n, len(xs))
    )


def test_criterion_1_pairing_counterexample():
    filt, seq = pairing_example(3)
    assert brute_max_defect(seq, filt) <= 1e-12
    report = classify(seq, filt)
    assert report.is_martingale

    abs_report = classify(abs_seq(seq), filt)
    assert abs_report.e_witness is None
    first_step = one_step_defects(abs_seq(seq), filt)[0]  # sup norm space
    assert first_step == pytest.approx(1.0, abs=1e-9)


def test_criterion_2_haar_counterexample():
    filt, seq = haar_example(3)
    assert brute_max_defect(seq, filt) <= 1e-12
    assert classify(seq, filt).is_martingale

    gap = apply(filt.op(1), abs_seq(seq).term(2)) - abs_seq(seq).term(1)
    assert norm(gap) == pytest.approx(0.5, abs=1e-9)
    for n in range(1, 4):
        assert norm(seq.term(n)) == pytest.approx(2 * (1 - 2.0**-n), abs=1e-9)


def test_criterion_3_eventual_class_not_closed():
    n = 64
    filt, base, family = harmonic_tail_example(n)
    for m, member in enumerate(family, start=1):
        assert seq_distance(member, base) == pytest.approx(1.0 / m, abs=1e-9)
        # at m = N-1 the one-step law would start only at the horizon,
        # where witnesses are vacuous by convention
        if m <= n - 2:
            w = eventual_witness(member, filt)
            assert w is not None and w <= m + 1
    report = classify(base, filt)
    assert report.e_witness is None
    assert report.x_verdict is Verdict.X_MARTINGALE
    for i in range(n - 1):
        assert report.x_defects[i] == pytest.approx(1.0 / (i + 1), abs=1e-9)


def test_criterion_4_nesting_property_500_instances():
    result = check_class_nesting(seed=2026, trials=500)
    assert result["status"] is CheckStatus.CONFIRMED, result
    assert result["witness"]["checked"] == 500


def test_criterion_5_band_projection_propositions():
    seed = 515
    for horizon in (16, 9):
        filt = build_truncation(horizon)
        for trial in range(100):
            rng = trial_rng(seed + horizon, trial)

            eseq, _ = random_eventual_martingale(filt, rng)
            w_base = eventual_witness(eseq, filt)
            w_abs = eventual_witness(abs_seq(eseq), filt)
            assert w_base is not None
            assert w_abs is not None and w_abs <= w_base

            xseq, _ = random_asymptotic_martingale(filt, rng)
            aseq = abs_seq(xseq)
            for n in range(1, horizon + 1):
                en = filt.op(n)
                for m in range(n, horizon + 1):
                    lhs = norm(apply(en, aseq.term(m)) - aseq.term(n))
                    rhs = norm(apply(en, xseq.term(m)) - xseq.term(n))
                    assert lhs <= rhs + 1e-9
            if tail_verdict(xseq, filt) is Verdict.X_MARTINGALE:
                assert tail_verdict(aseq, filt) is Verdict.X_MARTINGALE


def _suite_instances():
    """The concrete sequences exercised by criteria 1-5."""
    instances = []
    p_filt, p_seq = pairing_example(3)
    instances += [(p_filt, p_seq), (p_filt, abs_seq(p_seq))]
    h_filt, h_seq = haar_example(3)
    instances += [(h_filt, h_seq), (h_filt, abs_seq(h_seq))]
    t_filt, t_base, t_family = harmonic_tail_example(64)
    instances += [(t_filt, t_base)] + [(t_filt, m) for m in t_family]
    n_filt = build_truncation(64)
    instances.append((n_filt, null_sequence(basis(n_filt.space, 1), 64)))
    for horizon in (16, 9):
        filt = build_truncation(horizon)
        for trial in range(25):
            rng = trial_rng(515 + horizon, trial)
            eseq, _ = random_eventual_martingale(filt, rng)
            xseq, _ = random_asymptotic_martingale(filt, rng)
            instances += [(filt, eseq), (filt, abs_seq(eseq)), (filt, xseq)]
    return instances


def test_criterion_6_one_step_and_pairwise_witnesses_agree():
    for filt, seq in _suite_instances():
        assert eventual_witness(seq, filt) == eventual_witness_pairwise(seq, filt)


def test_criterion_7_operator_norm_oracle():
    from _oracles import sampled_norm_lower_bound

    rng = np.random.default_rng(77)
    for case in range(100):
        dim = int(rng.integers(2, 13))
        if case % 2 == 0:
            space = LatticeSpace(dim, NormKind.SUP)
        else:
            space = LatticeSpace(dim, NormKind.WEIGHTED_L1, rng.uniform(0.05, 1.0, dim))
        op = PosOperator(space, rng.uniform(0.0, 2.0, (dim, dim)))
        formula = operator_norm(op)

        lower = sampled_norm_lower_bound(op, 10_000, rng)
        assert formula >= lower - 1e-12
        assert lower >= 0.98 * formula  # sampling oracle agrees within 2%

        # crafted extremal input attains the formula
        if space.norm_kind is NormKind.SUP:
            row = int(np.argmax(np.abs(op.matrix).sum(axis=1)))
            signs = np.sign(op.matrix[row])
            signs[signs == 0] = 1.0
            attained = norm(apply(op, vector(space, signs)))
        else:
            w = space.weights
            col = int(np.argmax((w @ np.abs(op.matrix)) / w))
            e = basis(space, col + 1)
            attained = norm(apply(op, e)) / norm(e)
        assert formula == pytest.approx(attained, abs=1e-9)


def test_criterion_8_abs_commutation_indices():
    trunc = build_truncation(16)
    for i in range(1, 17):
        assert abs_commutation_index(trunc, basis(trunc.space, i)) == 1

    pairing = build_pairing(3)
    head_pair = vector(pairing.space, [-1, 1, 0, 0, 0, 0])
    assert abs_commutation_index(pairing, head_pair) == 1
    straddling = vector(pairing.space, [0, 0, -1, 1, 0, 0])
    assert abs_commutation_index(pairing, straddling) == 2
