"""Martingale-like sequences on finite-dimensional normed lattices.

Coordinate-ordered spaces with sup or weighted-L1 norms, positive
projections and filtrations over them, three-way classification of
sequences (martingale / eventual / asymptotic), the classic
counterexample constructions, and a harness that checks the structural
claims about these classes on concrete and randomized instances.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .spaces import (
    DEFAULT_TOL,
    LatticeSpace,
    LatticeVector,
    NormKind,
    SpaceMismatchError,
    basis,
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

#: The evidence harness's names, imported on first use (PEP 562), so that
#: ``import lattice_lab`` and every CLI command but ``verify`` skip it.
_HARNESS_NAMES = (
    "CHECK_IDS", "CheckStatus", "TheoremResult", "abs_commutation_index", "run_all", "run_check",
)
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + list(_HARNESS_NAMES)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "harness" or name in _HARNESS_NAMES:
        harness = _import_module(".harness", __name__)
        return harness if name == "harness" else getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
