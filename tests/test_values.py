"""The value-class contract: the nine classes that carry the package's data.

Each is a plain class whose ``__init__`` is written out.  Construction takes
the same arguments, by position or keyword, with the same defaults; a built
value cannot be assigned to or deleted from; stages, filtrations, vectors
and sequences compare by identity, spaces by their own rules and reports
field by field.
"""

import inspect
import pickle
from functools import cached_property

import numpy as np
import pytest

from lattice_lab import (
    BlockOperator,
    ClassificationReport,
    CheckStatus,
    Filtration,
    LatticeSpace,
    LatticeVector,
    NormKind,
    PosOperator,
    TheoremResult,
    VectorSequence,
    Verdict,
    filtration,
)
from lattice_lab.jsonio import Instance
from lattice_lab.martingales import REPORT_NOTES

SPACE = LatticeSpace(3)
STAGE = BlockOperator(SPACE, np.array([0, 0, 1]), 1.0, 0.5)
REPORT = ClassificationReport(True, 1, (0.0, 0.0), Verdict.X_MARTINGALE, 1.0, 1e-9, 0.05, 0.25)

#: A fresh value of each class, built on each call.
BUILD = {
    LatticeSpace: lambda: LatticeSpace(3, NormKind.WEIGHTED_L1, [1.0, 2.0, 3.0]),
    LatticeVector: lambda: LatticeVector(SPACE, np.array([1.0, -2.0, 0.5])),
    PosOperator: lambda: PosOperator(SPACE, np.eye(3)),
    BlockOperator: lambda: BlockOperator(SPACE, np.array([0, 0, 1]), 1.0, 0.5),
    Filtration: lambda: Filtration(SPACE, (STAGE,)),
    VectorSequence: lambda: VectorSequence(SPACE, np.zeros((2, 3))),
    ClassificationReport: lambda: ClassificationReport(
        True, 1, (0.0, 0.0), Verdict.X_MARTINGALE, 1.0, 1e-9, 0.05, 0.25),
    Instance: lambda: Instance(SPACE),
    TheoremResult: lambda: TheoremResult("nesting", {"trials": 1}, CheckStatus.CONFIRMED),
}

#: Constructor parameters and defaults (``inspect.Parameter.empty`` for none).
EMPTY = inspect.Parameter.empty
SIGNATURES = {
    LatticeSpace: [("dim", EMPTY), ("norm_kind", NormKind.SUP), ("weights", None)],
    LatticeVector: [("space", EMPTY), ("coords", EMPTY)],
    PosOperator: [("space", EMPTY), ("matrix", EMPTY)],
    BlockOperator: [("space", EMPTY), ("labels", EMPTY), ("mask", EMPTY), ("coef", EMPTY)],
    Filtration: [("space", EMPTY), ("ops", EMPTY)],
    VectorSequence: [("space", EMPTY), ("coords", EMPTY)],
    ClassificationReport: [
        ("is_martingale", EMPTY), ("e_witness", EMPTY), ("x_defects", EMPTY),
        ("x_verdict", EMPTY), ("seq_norm", EMPTY), ("tol", EMPTY), ("eps_x", EMPTY),
        ("window_fraction", EMPTY)],
    Instance: [("space", EMPTY), ("filtration", None), ("sequence", None)],
    # ``witness`` was a dataclass default factory: None stands for a fresh {}
    TheoremResult: [("check_id", EMPTY), ("descriptor", EMPTY), ("status", EMPTY),
                    ("witness", None), ("seed", None)],
}
IDENTITY = (LatticeVector, PosOperator, BlockOperator, Filtration, VectorSequence)
RECORDS = (ClassificationReport, Instance, TheoremResult)
CLASSES = list(BUILD)


def test_the_contract_covers_every_value_class():
    assert len(CLASSES) == 9
    assert set(SIGNATURES) == set(BUILD) == {LatticeSpace, *IDENTITY, *RECORDS}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_constructor_parameters_and_defaults_are_unchanged(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[cls]


def test_defaults_by_position_and_keyword():
    for space in (LatticeSpace(4), LatticeSpace(dim=4)):
        assert (space.dim, space.norm_kind, space.weights) == (4, NormKind.SUP, None)
    weighted = LatticeSpace(dim=2, weights=[1.0, 2.0], norm_kind="l1")
    assert weighted.norm_kind is NormKind.WEIGHTED_L1
    assert weighted.weights.tolist() == [1.0, 2.0] and not weighted.weights.flags.writeable
    assert LatticeSpace(2, NormKind.SUP, [1.0, 2.0]).weights is None  # sup ignores weights

    first, second = BUILD[TheoremResult](), BUILD[TheoremResult]()
    assert first.witness == {} and first.seed is None
    assert first.witness is not second.witness
    given = {"checked": 3}
    kw = TheoremResult(check_id="x", descriptor={}, status=CheckStatus.VIOLATED, witness=given,
                       seed=7)
    assert (kw.witness, kw.seed) == (given, 7) and kw.witness is given

    instance = Instance(SPACE)
    assert (instance.space, instance.filtration, instance.sequence) == (SPACE, None, None)
    assert REPORT.to_dict()["notes"] == list(REPORT_NOTES)
    keyword = ClassificationReport(
        is_martingale=True, e_witness=1, x_defects=(0.0, 0.0), x_verdict=Verdict.X_MARTINGALE,
        seq_norm=1.0, tol=1e-9, eps_x=0.05, window_fraction=0.25)
    assert keyword == REPORT
    assert BlockOperator(space=SPACE, labels=np.array([0, 0, 1]), mask=1.0,
                         coef=0.5).matrix.tolist() == STAGE.matrix.tolist()


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_values_refuse_assignment_and_deletion(cls):
    value = BUILD[cls]()
    name = next(iter(vars(value)))
    before = getattr(value, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        value.extra = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    assert getattr(value, name) is before


@pytest.mark.parametrize("cls", IDENTITY, ids=lambda cls: cls.__name__)
def test_stages_vectors_sequences_and_filtrations_compare_by_identity(cls):
    a, b = BUILD[cls](), BUILD[cls]()
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)


def test_spaces_compare_by_dimension_kind_and_weights():
    assert LatticeSpace(3) == LatticeSpace(3, NormKind.SUP) == SPACE
    assert hash(LatticeSpace(3)) == hash(SPACE)
    weighted = BUILD[LatticeSpace]
    assert weighted() == weighted() and hash(weighted()) == hash(weighted())
    assert weighted() != LatticeSpace(3, "l1", [1.0, 2.0, 4.0])
    assert weighted() != SPACE and LatticeSpace(4) != SPACE
    assert SPACE.__eq__("sup") is NotImplemented
    assert repr(weighted()) == "LatticeSpace(dim=3, norm_kind='l1')"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_reports_compare_field_by_field(cls):
    a, b = BUILD[cls](), BUILD[cls]()
    assert a is not b and a == b and not a != b
    assert a.__eq__(object()) is NotImplemented
    if cls is TheoremResult:  # a dict field: unhashable, as a frozen dataclass was
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(vars(a).values()))
    assert pickle.loads(pickle.dumps(a)) == a


def test_reports_differ_in_any_field_and_show_every_field():
    assert TheoremResult("a", {}, CheckStatus.CONFIRMED) != TheoremResult(
        "a", {}, CheckStatus.CONFIRMED, seed=0)
    assert Instance(SPACE) != Instance(LatticeSpace(2))
    assert repr(BUILD[TheoremResult]()) == (
        "TheoremResult(check_id='nesting', descriptor={'trials': 1}, "
        "status=<CheckStatus.CONFIRMED: 'CONFIRMED'>, witness={}, seed=None)")


def test_filtration_norms_are_a_cached_property_computed_once(monkeypatch):
    assert isinstance(vars(Filtration)["norms"], cached_property)
    calls = []
    norm = filtration.operator_norm
    monkeypatch.setattr(filtration, "operator_norm", lambda op: calls.append(op) or norm(op))
    filt = Filtration(SPACE, (STAGE, STAGE))
    assert filt.norms is filt.norms == (1.0, 1.0)
    assert calls == [STAGE, STAGE]


@pytest.mark.parametrize("cls", (LatticeVector, Filtration), ids=lambda cls: cls.__name__)
def test_a_post_init_patched_onto_the_class_runs_on_construction(cls, monkeypatch):
    seen = []
    original = cls.__post_init__

    def counted(self):
        original(self)
        seen.append(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    value = BUILD[cls]()
    assert seen == [value]
