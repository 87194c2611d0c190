"""Spaces, vectors, norms, and the norm's lattice axioms."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lattice_lab import (
    LatticeSpace,
    NormKind,
    SpaceMismatchError,
    basis,
    norm,
    vector,
    zero,
)

SUP2 = LatticeSpace(2, NormKind.SUP)
SUP3 = LatticeSpace(3, NormKind.SUP)
SUP4 = LatticeSpace(4, NormKind.SUP)


def absolute(x):
    """|x|: the lattice operations are coordinate-wise on ``coords``."""
    return vector(x.space, np.abs(x.coords))


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_space_rejects_nonpositive_dim():
    with pytest.raises(ValueError):
        LatticeSpace(0)


def test_weighted_space_requires_weights():
    with pytest.raises(ValueError):
        LatticeSpace(3, NormKind.WEIGHTED_L1)


def test_weighted_space_rejects_zero_weight():
    with pytest.raises(ValueError):
        LatticeSpace(2, NormKind.WEIGHTED_L1, [0.5, 0.0])


def test_weighted_space_rejects_wrong_length():
    with pytest.raises(ValueError):
        LatticeSpace(3, NormKind.WEIGHTED_L1, [0.5, 0.5])


def test_sup_space_ignores_weights():
    space = LatticeSpace(2, NormKind.SUP, [0.5, 0.5])
    assert space.weights is None


def test_vector_checks_length():
    with pytest.raises(ValueError):
        vector(SUP2, [1.0, 2.0, 3.0])


def test_vector_coords_are_readonly():
    x = vector(SUP2, [1.0, 2.0])
    with pytest.raises(ValueError):
        x.coords[0] = 5.0


def test_mixed_spaces_rejected():
    with pytest.raises(SpaceMismatchError):
        vector(SUP2, [1, 2]) + vector(SUP3, [1, 2, 3])


def test_space_equality_by_contents():
    a = LatticeSpace(2, NormKind.WEIGHTED_L1, [0.5, 0.5])
    b = LatticeSpace(2, NormKind.WEIGHTED_L1, [0.5, 0.5])
    c = LatticeSpace(2, NormKind.WEIGHTED_L1, [0.25, 0.75])
    assert a == b and a != c and a != SUP2


# ---------------------------------------------------------------------------
# Pinned examples
# ---------------------------------------------------------------------------

def test_norm_examples():
    assert norm(vector(SUP4, [-1, 1, 0, 0])) == 1.0
    half = LatticeSpace(2, NormKind.WEIGHTED_L1, [0.5, 0.5])
    assert norm(vector(half, [1, -1])) == pytest.approx(0.5 * 1 + 0.5 * 1)


def test_norm_of_abs_matches_norm():
    rng = np.random.default_rng(12)
    wspace = LatticeSpace(5, NormKind.WEIGHTED_L1, rng.uniform(0.1, 1.0, 5))
    for _ in range(100):
        for space in (SUP4, wspace):
            x = vector(space, rng.normal(size=space.dim))
            assert norm(absolute(x)) == norm(x)


def test_basis_and_zero():
    e2 = basis(SUP3, 2)
    assert np.array_equal(e2.coords, [0, 1, 0])
    assert norm(zero(SUP3)) == 0.0
    with pytest.raises(ValueError):
        basis(SUP3, 4)


# ---------------------------------------------------------------------------
# Axioms on random data
# ---------------------------------------------------------------------------

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
nonneg = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@st.composite
def space_and_rows(draw, n_rows, elements=finite):
    dim = draw(st.integers(min_value=1, max_value=8))
    if draw(st.booleans()):
        weights = draw(
            st.lists(st.floats(0.1, 10.0), min_size=dim, max_size=dim)
        )
        space = LatticeSpace(dim, NormKind.WEIGHTED_L1, weights)
    else:
        space = LatticeSpace(dim, NormKind.SUP)
    rows = [
        draw(st.lists(elements, min_size=dim, max_size=dim)) for _ in range(n_rows)
    ]
    return space, [vector(space, r) for r in rows]


@given(space_and_rows(2, elements=nonneg))
def test_norm_monotone_on_ordered_pairs(data):
    _, (x, gap) = data
    y = x + gap  # 0 <= x <= y by construction
    assert np.all(x.coords <= y.coords)
    assert norm(x) <= norm(y) * (1 + 1e-12) + 1e-12


@given(space_and_rows(2))
def test_norm_lattice_estimates(data):
    _, (x, y) = data
    slack = 1e-12 * (1 + norm(x) + norm(y))
    assert norm(x + y) <= norm(x) + norm(y) + slack
    assert norm(absolute(x) - absolute(y)) <= norm(x - y) + slack


@given(space_and_rows(1))
def test_norm_abs_invariance(data):
    _, (x,) = data
    assert norm(absolute(x)) == norm(x)
