"""The value-class contract: the six classes that carry the package's data,
and the report contract of ``classify``.

Each value class is a plain class whose ``__init__`` is written out.
Construction takes the same arguments, by position or keyword, with the same
defaults; a built value cannot be assigned to or deleted from; stages,
filtrations, vectors and sequences compare by identity, and spaces by their
own rules.  A classification report is the dict ``classify --json``
prints.
"""

import inspect
from functools import cached_property

import numpy as np
import pytest

from lattice_lab import (
    BlockOperator,
    ClassificationReport,
    Filtration,
    LatticeSpace,
    LatticeVector,
    NormKind,
    PosOperator,
    VectorSequence,
    Verdict,
    classify,
    filtration,
    pairing_example,
)
from lattice_lab.martingales import REPORT_NOTES

SPACE = LatticeSpace(3)
STAGE = BlockOperator(SPACE, np.array([0, 0, 1]), 1.0, 0.5)

#: A fresh value of each class, built on each call.
BUILD = {
    LatticeSpace: lambda: LatticeSpace(3, NormKind.WEIGHTED_L1, [1.0, 2.0, 3.0]),
    LatticeVector: lambda: LatticeVector(SPACE, np.array([1.0, -2.0, 0.5])),
    PosOperator: lambda: PosOperator(SPACE, np.eye(3)),
    BlockOperator: lambda: BlockOperator(SPACE, np.array([0, 0, 1]), 1.0, 0.5),
    Filtration: lambda: Filtration(SPACE, (STAGE,)),
    VectorSequence: lambda: VectorSequence(SPACE, np.zeros((2, 3))),
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
}
IDENTITY = (LatticeVector, PosOperator, BlockOperator, Filtration, VectorSequence)
CLASSES = list(BUILD)


def test_the_contract_covers_every_value_class():
    assert len(CLASSES) == 6
    assert set(SIGNATURES) == set(BUILD) == {LatticeSpace, *IDENTITY}


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
def test_values_other_than_spaces_compare_by_identity(cls):
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


def test_classify_returns_the_dict_classify_json_prints():
    filt, seq = pairing_example(3)
    report = classify(seq, filt)
    assert isinstance(report, dict) and isinstance(report, ClassificationReport)
    assert list(report) == [
        "is_martingale", "e_witness", "x_defects", "x_verdict", "seq_norm", "tolerances", "notes"]
    assert list(report["tolerances"]) == ["tol", "eps_x", "window_fraction"]
    assert report.to_dict() is report
    assert report["x_verdict"] is Verdict.X_MARTINGALE and report["notes"] == list(REPORT_NOTES)
    assert report == dict(report) and repr(report) == repr(dict(report))
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)


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
