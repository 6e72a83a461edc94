"""RBF kernel unit and property tests."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rkhs_reach import InputError, RBFKernel


def double_loop_gram(points, sigma):
    m = points.shape[0]
    out = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            d = points[i] - points[j]
            out[i, j] = math.exp(-float(d @ d) / (2.0 * sigma * sigma))
    return out


def test_same_point_is_one():
    k = RBFKernel(0.1)
    v = np.array([0.3, -0.7])
    assert k(v, v) == 1.0
    x = v[None, :]
    assert k.cross(x, x)[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_known_distance_value():
    # |x-y|^2 = 0.01, sigma = 0.1 -> exp(-0.5)
    k = RBFKernel(0.1)
    a = np.array([[0.0, 0.0]])
    b = np.array([[0.1, 0.0]])
    assert k.cross(a, b)[0, 0] == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_high_dimension_identity():
    k = RBFKernel(1.0)
    x = np.zeros((1, 10000))
    assert k.cross(x, x)[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_gram_single_point():
    k = RBFKernel(0.5)
    g = k.gram(np.array([[1.0, 2.0]]))
    assert g.shape == (1, 1)
    assert g[0, 0] == 1.0


def test_gram_duplicate_points_eigenvalues():
    k = RBFKernel(0.5)
    g = k.gram(np.array([[1.0], [1.0]]))
    np.testing.assert_allclose(g, np.ones((2, 2)))
    eig = np.sort(np.linalg.eigvalsh(g))
    np.testing.assert_allclose(eig, [0.0, 2.0], atol=1e-12)


def test_gram_matches_double_loop():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(17, 3))
    k = RBFKernel(0.7)
    np.testing.assert_allclose(
        k.gram(pts), double_loop_gram(pts, 0.7), atol=1e-12
    )


def test_cross_matches_double_loop():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(9, 4))
    b = rng.normal(size=(5, 4))
    k = RBFKernel(0.3)
    expect = np.empty((9, 5))
    for i in range(9):
        for j in range(5):
            d = a[i] - b[j]
            expect[i, j] = math.exp(-float(d @ d) / (2 * 0.3 * 0.3))
    np.testing.assert_allclose(k.cross(a, b), expect, atol=1e-12)


def test_query_at_sample_point_is_one():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(8, 2))
    k = RBFKernel(0.2)
    col = k.cross(pts, pts[3:4])[:, 0]
    assert col[3] == pytest.approx(1.0, abs=1e-12)
    assert np.all(col <= 1.0 + 1e-12)


def test_vector_matches_cross_column():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(7, 3))
    q = rng.normal(size=3)
    k = RBFKernel(0.4)
    np.testing.assert_array_equal(k.vector(pts, q), k.cross(pts, q[None, :])[:, 0])


def test_far_query_is_negligible():
    # distance 10 at sigma 1 -> exp(-50)
    k = RBFKernel(1.0)
    a = np.array([[0.0]])
    b = np.array([[10.0]])
    assert k.cross(a, b)[0, 0] <= math.exp(-50.0) * (1 + 1e-12)


def test_bandwidth_validation():
    with pytest.raises(InputError):
        RBFKernel(0.0)
    with pytest.raises(InputError):
        RBFKernel(-1.0)
    with pytest.raises(InputError):
        RBFKernel(float("nan"))


def test_dimension_mismatch_rejected():
    k = RBFKernel(1.0)
    with pytest.raises(InputError):
        k.cross(np.zeros((2, 3)), np.zeros((2, 4)))


finite_points = arrays(
    np.float64,
    st.tuples(st.integers(2, 6), st.integers(1, 4)),
    elements=st.floats(-5, 5, allow_nan=False),
)


@settings(max_examples=50, deadline=None)
@given(finite_points, st.floats(0.05, 3.0))
def test_gram_symmetric_unit_diagonal(pts, sigma):
    g = RBFKernel(sigma).gram(pts)
    np.testing.assert_allclose(g, g.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(g), 1.0, atol=1e-12)
    assert np.all(g >= 0.0) and np.all(g <= 1.0 + 1e-12)


@settings(max_examples=50, deadline=None)
@given(finite_points, st.floats(0.05, 3.0))
def test_gram_positive_semidefinite(pts, sigma):
    g = RBFKernel(sigma).gram(pts)
    eig = np.linalg.eigvalsh(g)
    assert eig.min() >= -1e-10 * max(1.0, np.linalg.norm(g))


@settings(max_examples=50, deadline=None)
@given(
    arrays(np.float64, (4, 3), elements=st.floats(-5, 5, allow_nan=False)),
    arrays(np.float64, (1, 3), elements=st.floats(-2, 2, allow_nan=False)),
    st.floats(0.05, 3.0),
)
def test_shift_invariance(pts, shift, sigma):
    k = RBFKernel(sigma)
    np.testing.assert_allclose(k.gram(pts + shift), k.gram(pts), atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.1, 2.0), st.floats(0.0, 4.0), st.floats(0.1, 3.0))
def test_monotone_decay_in_distance(sigma, dist, extra):
    k = RBFKernel(sigma)
    a = np.array([[0.0]])
    near = k.cross(a, np.array([[dist]]))[0, 0]
    far = k.cross(a, np.array([[dist + extra]]))[0, 0]
    # strict decay is only observable while the nearer value is a normal
    # float64; past that both can underflow to 0.0
    assume(near >= np.finfo(np.float64).tiny)
    assert far < near


@settings(max_examples=30, deadline=None)
@given(finite_points, st.floats(0.05, 3.0))
def test_gram_consistent_with_cross(pts, sigma):
    k = RBFKernel(sigma)
    np.testing.assert_allclose(k.gram(pts), k.cross(pts, pts), atol=1e-12)
