"""Martingale-like sequences on finite-dimensional normed lattices.

Coordinate-ordered spaces with sup or weighted-L1 norms, positive
projections and filtrations over them, three-way classification of
sequences (martingale / eventual / asymptotic), the classic
counterexample constructions, and a harness that checks the structural
claims about these classes on concrete and randomized instances.
"""

from .spaces import (
    DEFAULT_TOL,
    LatticeSpace,
    LatticeVector,
    NormKind,
    SpaceMismatchError,
    absolute,
    basis,
    join,
    meet,
    norm,
    vector,
    zero,
)
from .operators import (
    BlockOperator,
    PosOperator,
    apply,
    apply_rows,
    is_lattice_homomorphism,
    operator_norm,
)
from .filtration import (
    Filtration,
    LawCheck,
    ValidationReport,
    build_copy,
    build_dyadic,
    build_pairing,
    build_random_nested,
    build_truncation,
    is_abs_closed,
    is_contractive_filtration,
    is_dense,
    validate,
)
from .martingales import (
    ClassificationReport,
    ClosureReport,
    NonContractiveError,
    VectorSequence,
    Verdict,
    abs_seq,
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
)
from .harness import (
    CHECK_IDS,
    CheckStatus,
    TheoremResult,
    abs_commutation_index,
    run_all,
    run_check,
)

__version__ = "0.1.0"
