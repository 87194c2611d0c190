"""Metamorphic relations: a change of input whose effect on the verdicts the
theory fixes exactly, checked without an oracle at every drawn size.

Stage repetition: inserting a copy of (E_n, x_n) after index n, 1 <= n < N,
adds the pair (n, n) of the two-index law and nothing else, so the
martingale flag does not change.  The one-step law at the copy is
||E_n x_n - x_n||, which is within (||E_n|| + 1) times the step n defect of
zero, and every later step is the old step one index on: a witness l <= n
stays l, a witness l > n becomes l + 1, and None stays None.
"""

import numpy as np

from lattice_lab import Filtration, VectorSequence, eventual_witness, is_martingale
from lattice_lab.harness import (
    SEQUENCE_GENERATORS, random_filtration, random_sequence, trial_rng,
)

SEED = 12345


def repeat_stage(filt: Filtration, seq: VectorSequence, n: int):
    """The chain and sequence with (E_n, x_n) repeated after index n (1-based)."""
    ops = filt.ops[:n] + (filt.ops[n - 1],) + filt.ops[n:]
    coords = np.insert(seq.coords, n, seq.coords[n - 1], axis=0)
    return Filtration(filt.space, ops), VectorSequence(seq.space, coords)


def test_repeating_a_stage_keeps_the_flag_and_shifts_a_later_witness():
    for trial in range(300):
        rng = trial_rng(SEED, trial)
        filt, _ = random_filtration(rng)
        gen = SEQUENCE_GENERATORS[int(rng.integers(len(SEQUENCE_GENERATORS)))]
        seq = random_sequence(filt, gen, rng)
        n = int(rng.integers(1, filt.horizon))
        longer, repeated = repeat_stage(filt, seq, n)
        assert is_martingale(repeated, longer) == is_martingale(seq, filt), (trial, gen, n)
        witness = eventual_witness(seq, filt)
        want = None if witness is None else witness + (witness > n)
        assert eventual_witness(repeated, longer) == want, (trial, gen, n, witness)
