"""Operator checks and the induced-norm formulas against a sampling oracle."""

from unittest import mock

import numpy as np
import pytest

from _oracles import is_band_projection, kernel
from lattice_lab import (
    BlockOperator,
    LatticeSpace,
    NormKind,
    PosOperator,
    SpaceMismatchError,
    apply,
    apply_rows,
    basis,
    build_copy,
    build_dyadic,
    build_pairing,
    build_truncation,
    is_lattice_homomorphism,
    norm,
    operator_norm,
    vector,
    zero,
)

SUP4 = LatticeSpace(4, NormKind.SUP)
EYE4 = PosOperator(SUP4, np.eye(4))


def test_operator_requires_square_matching_matrix():
    with pytest.raises(ValueError):
        PosOperator(SUP4, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        PosOperator(SUP4, np.zeros((4, 3)))


def test_apply_identity_and_zero():
    x = vector(SUP4, [1.0, -2.0, 3.0, 0.5])
    assert np.array_equal(apply(EYE4, x).coords, x.coords)
    zero_op = PosOperator(SUP4, np.zeros((4, 4)))
    assert np.array_equal(apply(zero_op, x).coords, zero(SUP4).coords)


def test_apply_pairing_stage_averages_unresolved_pair():
    stage1 = build_pairing(2).op(1)  # keeps coords 1..2, averages the (3,4) pair
    out = apply(stage1, vector(stage1.space, [-1.0, 1.0, -1.0, 1.0]))
    assert np.array_equal(out.coords, [-1.0, 1.0, 0.0, 0.0])


def test_apply_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        apply(EYE4, vector(LatticeSpace(3), [1, 2, 3]))


def test_dyadic_averaging_entries_are_dyadic_and_positive():
    filt = build_dyadic(3)
    for n, op in enumerate(filt.ops, start=1):
        block = 2 ** (3 - n)
        assert set(np.unique(op.matrix)) <= {0.0, 1.0 / block}
        assert op.matrix.min() >= 0.0


def test_operator_norm_identity_both_kinds():
    assert operator_norm(EYE4) == 1.0
    wspace = LatticeSpace(4, NormKind.WEIGHTED_L1, [0.1, 0.2, 0.3, 0.4])
    assert operator_norm(PosOperator(wspace, np.eye(4))) == 1.0


def test_operator_norm_pairing_and_dyadic_are_one():
    for op in build_pairing(3).ops:
        assert np.allclose(op.matrix.sum(axis=1), 1.0)  # oracle: rows sum to one
        assert operator_norm(op) == pytest.approx(1.0, abs=1e-12)
    level1 = build_dyadic(2).op(1)  # 4 equal cells, level-1 conditional expectation
    w = level1.space.weights
    assert np.allclose(w @ np.abs(level1.matrix), w)  # oracle: weighted column sums
    assert operator_norm(level1) == pytest.approx(1.0, abs=1e-12)


def _extremal_value(op):
    """Value attained by the crafted extremal input for each norm kind."""
    if op.space.norm_kind is NormKind.SUP:
        row = int(np.argmax(np.abs(op.matrix).sum(axis=1)))
        signs = np.sign(op.matrix[row])
        signs[signs == 0] = 1.0
        return norm(apply(op, vector(op.space, signs)))
    w = op.space.weights
    col = int(np.argmax((w @ np.abs(op.matrix)) / w))
    e = basis(op.space, col + 1)
    return norm(apply(op, e)) / norm(e)


@pytest.mark.parametrize("kind", [NormKind.SUP, NormKind.WEIGHTED_L1])
def test_operator_norm_dominates_sampling_oracle(kind):
    from _oracles import sampled_norm_lower_bound

    rng = np.random.default_rng(2024)
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        if kind is NormKind.WEIGHTED_L1:
            space = LatticeSpace(dim, kind, rng.uniform(0.1, 1.0, dim))
        else:
            space = LatticeSpace(dim, kind)
        op = PosOperator(space, rng.uniform(0.0, 1.0, (dim, dim)))
        formula = operator_norm(op)
        lower = sampled_norm_lower_bound(op, 10_000, rng)
        assert formula >= lower - 1e-12
        assert lower >= 0.98 * formula  # the sampler reaches near-extremal inputs
        assert formula == pytest.approx(_extremal_value(op), abs=1e-9)


def test_is_lattice_homomorphism():
    assert is_lattice_homomorphism(EYE4)
    assert all(is_lattice_homomorphism(e) for e in build_truncation(5).ops)
    assert all(is_lattice_homomorphism(e) for e in build_copy(5).ops)
    zero_row = [[0.0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 3], [1, 0, 0, 0]]
    assert is_lattice_homomorphism(PosOperator(SUP4, zero_row))
    for filt in (build_pairing(3), build_dyadic(3)):
        assert not any(is_lattice_homomorphism(e) for e in filt.ops[:-1])
    two_positive = np.diag([1.0, 1, 1, 0])
    two_positive[3, :2] = 0.5
    assert not is_lattice_homomorphism(PosOperator(SUP4, two_positive))
    negative = np.eye(4)
    negative[2, 2] = -1.0
    assert not is_lattice_homomorphism(PosOperator(SUP4, negative))


@pytest.mark.parametrize("base", [np.eye(3), np.zeros((3, 3))], ids=["identity", "zero"])
@pytest.mark.parametrize("where", [(i, j) for i in range(3) for j in range(3)])
def test_nan_is_never_a_lattice_homomorphism(base, where):
    m = base.copy()
    m[where] = np.nan
    assert not is_lattice_homomorphism(PosOperator(LatticeSpace(3, NormKind.SUP), m))


def test_band_projection_commutes_with_abs():
    rng = np.random.default_rng(7)
    for _ in range(50):
        mask = np.diag(rng.integers(0, 2, size=4).astype(float))
        p = PosOperator(SUP4, mask)
        assert is_band_projection(p)
        x = vector(SUP4, rng.normal(size=4))
        assert np.array_equal(
            apply(p, vector(SUP4, np.abs(x.coords))).coords, np.abs(apply(p, x).coords)
        )


def _stage_paths() -> dict[str, object]:
    """One stage per path of apply_rows, named by the path it takes."""
    d = 130
    space = LatticeSpace(d, NormKind.SUP)
    labels = np.arange(d)
    stages = {
        "dense": PosOperator(space, np.random.default_rng(3).uniform(-1.0, 1.0, (d, d))),
        "diagonal": BlockOperator(space, labels, labels % 3 > 0, 1.0),
        "gather": BlockOperator(space, labels // 2, True, (labels % 2 == 0) * 1.0),
        "product": BlockOperator(space, labels // 5, True, 0.2),  # 26 label slots
        # 65 blocks of two, rows dropped, coefs zero and negative among them
        "bincount": BlockOperator(space, labels // 2, labels % 7 > 0, (labels % 5 - 2) / 4),
    }
    for name, stage in stages.items():
        assert kernel(stage) == name
    return stages


PATHS = ["dense", "diagonal", "gather", "product", "bincount"]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("shape", [(8,), (2, 4)], ids=["2d", "3d"])
def test_each_path_runs_where_named(path, shape):
    # only the bincount path calls np.bincount
    op = _stage_paths()[path]
    rows = np.random.default_rng(5).uniform(-1.0, 1.0, (*shape, op.space.dim))
    with mock.patch.object(np, "bincount", wraps=np.bincount) as counts:
        out = apply_rows(op, rows)
    assert counts.called == (path == "bincount")
    assert np.allclose(out, rows @ op.matrix.T, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("shape", [(), (8,), (2, 4)], ids=["1d", "2d", "3d"])
def test_apply_rows_returns_a_fresh_writable_array(path, shape):
    # _pair_table overwrites what apply_rows returns; that must never reach its input
    op = _stage_paths()[path]
    rows = np.random.default_rng(4).uniform(-1.0, 1.0, (*shape, op.space.dim))
    rows.setflags(write=False)
    out = apply_rows(op, rows)
    assert out.shape == rows.shape
    assert out.flags.writeable
    assert not np.shares_memory(out, rows)
    assert np.allclose(out, rows @ op.matrix.T, rtol=0.0, atol=1e-13)
