"""RBF kernel unit and property tests."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rkhs_reach import InputError, RBFKernel, kernels


def double_loop_gram(points, sigma):
    m = points.shape[0]
    out = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            d = points[i] - points[j]
            out[i, j] = math.exp(-float(d @ d) / (2.0 * sigma * sigma))
    return out


def test_cross_values():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 0.0]])
    got = RBFKernel(1.0).cross(a, b)  # gamma = 1 / (2 sigma^2) = 0.5
    np.testing.assert_allclose(got[:, 0], [1.0, np.exp(-0.5)], rtol=1e-14)


def test_cross_deterministic():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(31, 5))
    b = rng.normal(size=(17, 5))
    k = RBFKernel(0.6)
    np.testing.assert_array_equal(k.cross(a, b), k.cross(a, b))


def direct_cross(a, b, gamma):
    # the definition: one difference per coordinate, no expansion
    d = a[:, None, :] - b[None, :, :]
    return np.exp(-gamma * np.einsum("ijk,ijk->ij", d, d))


def expanded_cross(a, b, gamma):
    # the earlier form |a|^2 + |b|^2 - 2ab, uncentered
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :]
    sq -= 2.0 * (a @ b.T)
    return np.exp(-gamma * np.maximum(sq, 0.0))


def test_cross_matches_direct_difference_reference():
    rng = np.random.default_rng(21)
    cases = [
        ("small d", rng.normal(size=(40, 3)), rng.normal(size=(30, 3)), 0.85),
        (
            "d = 1200",
            0.03 * rng.normal(size=(12, 1200)),
            0.03 * rng.normal(size=(9, 1200)),
            1.0,
        ),
    ]
    for name, a, b, sigma in cases:
        k = RBFKernel(sigma)
        np.testing.assert_allclose(
            k.cross(a, b), direct_cross(a, b, k.gamma), rtol=1e-13, atol=0.0,
            err_msg=name,
        )
        np.testing.assert_allclose(
            k.gram(a), direct_cross(a, a, k.gamma), rtol=1e-13, atol=0.0,
            err_msg=name + " gram",
        )


@pytest.mark.parametrize("sigma", [0.5, 0.1])
def test_cross_is_accurate_far_from_the_origin(sigma):
    # at an offset of 100 the uncentered expanded form cancels |a|^2 ~ 3e4
    # down to distances ~1; the tolerance sits well under its own error
    rng = np.random.default_rng(22)
    a = rng.uniform(-0.3, 0.3, size=(40, 3)) + 100.0
    b = rng.uniform(-0.3, 0.3, size=(30, 3)) + 100.0
    k = RBFKernel(sigma)
    want = direct_cross(a, b, k.gamma)
    tol = 1e-13
    assert np.abs(expanded_cross(a, b, k.gamma) - want).max() > 10 * tol
    np.testing.assert_allclose(k.cross(a, b), want, rtol=0.0, atol=tol)
    np.testing.assert_allclose(
        k.gram(a), direct_cross(a, a, k.gamma), rtol=0.0, atol=tol
    )


@pytest.mark.parametrize("offset", [0.0, 100.0])
def test_cross_of_coincident_points_is_at_most_one(offset):
    rng = np.random.default_rng(23)
    pts = rng.normal(size=(20, 3)) + offset
    c = RBFKernel(0.1).cross(pts, pts)
    assert np.all(c <= 1.0)
    np.testing.assert_allclose(np.diag(c), 1.0, rtol=0.0, atol=1e-12)


def test_far_pairs_underflow_to_exact_zero():
    # (5, 5) at sigma 0.1 is exp(-2500) from the origin: below the
    # smallest subnormal, so the value is 0.0, not a tiny negative or nan
    k = RBFKernel(0.1)
    a = np.array([[5.0, 5.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [0.05, -0.1], [5.0, 4.9]])
    got = k.cross(a, b)
    want = direct_cross(a, b, k.gamma)
    assert got[0, 0] == 0.0 and got[0, 1] == 0.0 and got[1, 2] == 0.0
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    # the rows sit about 3.5 from their mean, so the expansion cancels
    # gamma |a'|^2 ~ 600 down to the exponent: ~1e-13 relative
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_parts_give_the_bits_of_the_joined_points():
    rng = np.random.default_rng(24)
    a = rng.normal(size=(33, 4))
    b = rng.normal(size=(17, 4))
    k = RBFKernel(0.6)
    # a query side of another width than the sample side is refused
    with pytest.raises(InputError, match="mixed dimensions"):
        k.cross(a, b[:, :3])
    with pytest.raises(InputError, match="mixed dimensions"):
        k.cross(a[:, :3], b)
    # column parts side by side give the bits of the joined points, on
    # both sides; a part may be a broadcast view
    parts = (a[:, :3], a[:, 3:])
    np.testing.assert_array_equal(k.gram(*parts), k.gram(a))
    np.testing.assert_array_equal(k.cross(parts, b[:, :1], b[:, 1:]), k.cross(a, b))
    column = np.broadcast_to(b[:1, 3:], (17, 1))
    np.testing.assert_array_equal(
        k.cross(a, b[:, :3], column),
        k.cross(a, np.hstack([b[:, :3], column])),
    )
    with pytest.raises(InputError, match="mixed dimensions"):
        k.cross(a, b, b[:, :1])
    with pytest.raises(InputError, match="mixed dimensions"):
        k.cross(parts, b[:, :3])
    # a given matrix must have the cross's shape, as numpy's out, also
    # where the sample side takes several blocks that the extra rows of
    # a taller matrix would all fit (32 points of 4094 coordinates, 8
    # rows per block)
    for shape in ((34, 17), (32, 17), (33, 16)):
        with pytest.raises(ValueError):
            k.cross(a, b, out=np.empty(shape))
    wide, query = rng.normal(size=(32, 4094)), rng.normal(size=(3, 4094))
    assert kernels._GRAM_BLOCK // 4096 == 8
    for shape in ((40, 3), (33, 3), (32, 4)):
        with pytest.raises(ValueError):
            k.cross(wide, query, out=np.empty(shape))
    out = np.empty((32, 3))
    assert k.cross(wide, query, out=out) is out


def _lifted(x, center, gamma, left):
    # one lifted copy of the points, as the one-block path made it
    d = x.shape[1]
    out = np.empty((x.shape[0], d + 2))
    rows = out[:, :d]
    np.subtract(x, center, out=rows)
    norm, one = (d, d + 1) if left else (d + 1, d)
    np.einsum("ij,ij->i", rows, rows, out=out[:, norm])
    out[:, norm] *= -gamma
    out[:, one] = 1.0
    if left:
        rows *= 2.0 * gamma
    return out


def one_block_gram(points, gamma):
    # the joined points centered in one copy and multiplied at once
    a = points - points.mean(axis=0)
    g = a @ a.T
    sq = g.diagonal().copy()
    g = np.maximum(np.add.outer(sq, sq) + -2.0 * g, 0.0)
    return np.exp(g * -gamma)


def one_block_cross(a, b, gamma):
    # both sides lifted whole, one product
    c = a.mean(axis=0)
    e = _lifted(a, c, gamma, True) @ _lifted(b, c, gamma, False).T
    return np.exp(np.minimum(e, 0.0))


@pytest.mark.parametrize("m, widths", [(1024, (2, 1)), (300, (2, 1)), (64, (100, 1)),
                                       (33, (1,)), (40, (3, 0, 2))])
def test_points_in_one_block_give_the_bits_of_one_product(m, widths):
    # uniform controls: a lone column's mean summed pairwise would move
    # the center, and every entry with it, by an ulp
    rng = np.random.default_rng(m)
    parts = [rng.uniform(-1.0, 1.0, (m, w)) + 3.0 for w in widths]
    query = [rng.uniform(-1.0, 1.0, (37, w)) + 3.0 for w in widths]
    joined, joined_query = np.hstack(parts), np.hstack(query)
    d = joined.shape[1]
    assert m <= kernels._GRAM_BLOCK // (d + 2) and d <= kernels._GRAM_COLUMNS
    k = RBFKernel(0.1 * np.sqrt(d))
    assert k.gram(*parts).tobytes() == one_block_gram(joined, k.gamma).tobytes()
    want = one_block_cross(joined, joined_query, k.gamma)
    assert k.cross(tuple(parts), *query).tobytes() == want.tobytes()


def _exponent_bound(a, b, gamma, terms):
    # a sum of ``terms`` products moves by at most terms * eps times the
    # sum of their sizes when it is split another way (Higham, Accuracy
    # and Stability of Numerical Algorithms, 3.1); the exponent's sums
    # are at most 4 gamma r^2, for r the largest distance of a row of
    # ``a`` or ``b`` from the mean of ``a``
    c = a.mean(axis=0)
    r2 = max(((x - c) ** 2).sum(axis=1).max() for x in (a, b))
    return 4.0 * terms * np.finfo(float).eps * gamma * r2


def test_wide_points_in_blocks_agree_with_one_product_to_round_off():
    # 64 points of 10 001 coordinates: 1024 Gram columns per block, 5
    # sample rows (as many as the query side has) per lifted block; the
    # bandwidth keeps values near 1/2. The bound is 4.5e-12; the blocks
    # read 5.9e-16 (Gram) and 4.5e-16 (cross) relative
    m, n = 64, 10_000
    rng = np.random.default_rng(25)
    states = rng.uniform(-1.0, 1.0, (m, n))
    controls = rng.uniform(-1.0, 1.0, (m, 1))
    query = rng.uniform(-1.0, 1.0, (5, n)), rng.uniform(-1.0, 1.0, (5, 1))
    joined = np.hstack([states, controls])
    k = RBFKernel(np.sqrt(n / 3.0))
    bound = _exponent_bound(joined, np.hstack(query), k.gamma, n + 3)
    g = k.gram(states, controls)
    np.testing.assert_array_equal(g, g.T)
    np.testing.assert_array_equal(np.diag(g), 1.0)
    want = one_block_gram(joined, k.gamma)
    assert 0.05 < want.min() and not np.array_equal(g, want)
    np.testing.assert_allclose(g, want, rtol=bound, atol=0.0)
    got = k.cross((states, controls), *query)
    want = one_block_cross(joined, np.hstack(query), k.gamma)
    assert 0.05 < want.min()
    np.testing.assert_allclose(got, want, rtol=bound, atol=0.0)


def test_narrow_points_in_many_blocks_stay_symmetric_with_a_unit_diagonal(monkeypatch):
    # blocks of 20 Gram columns (as wide as the matrix is tall) and of 9
    # sample rows (as many as the query side has): 50 columns and 20
    # rows give a shorter last block each way
    monkeypatch.setattr(kernels, "_GRAM_COLUMNS", 2)
    monkeypatch.setattr(kernels, "_GRAM_BLOCK", 16)
    m, widths = 20, (30, 20)
    rng = np.random.default_rng(26)
    parts = [rng.uniform(-1.0, 1.0, (m, w)) + 100.0 for w in widths]
    joined = np.hstack(parts)
    query = rng.uniform(-1.0, 1.0, (9, 50)) + 100.0
    k = RBFKernel(4.0)
    bound = _exponent_bound(joined, query, k.gamma, 52)
    g = k.gram(*parts)
    np.testing.assert_array_equal(g, g.T)
    np.testing.assert_array_equal(np.diag(g), 1.0)
    want = one_block_gram(joined, k.gamma)
    assert 0.05 < want.min()
    np.testing.assert_allclose(g, want, rtol=bound, atol=0.0)
    want = one_block_cross(joined, query, k.gamma)
    assert 0.05 < want.min()
    np.testing.assert_allclose(
        k.cross(tuple(parts), query), want, rtol=bound, atol=0.0
    )
    np.testing.assert_allclose(
        g, direct_cross(joined, joined, k.gamma), rtol=1e-13, atol=0.0
    )


def test_same_point_is_one():
    k = RBFKernel(0.1)
    v = np.array([0.3, -0.7])
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


def test_gram_row_blocks_are_symmetric_to_the_bit():
    # more points than one norm-sum block holds, with a remainder block
    m = 300
    assert m % (kernels._GRAM_BLOCK // m)
    pts = np.random.default_rng(5).normal(size=(m, 3))
    k = RBFKernel(0.85)
    g = k.gram(pts)
    np.testing.assert_array_equal(g, g.T)
    np.testing.assert_array_equal(np.diag(g), 1.0)
    np.testing.assert_allclose(
        g, direct_cross(pts, pts, k.gamma), rtol=1e-13, atol=0.0
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
    # gamma = 1 / (2 sigma^2) and the lift's 2 gamma must be finite
    # floats: at 1e-200 sigma^2 underflows to 0, at 1e-160 gamma
    # overflows, at 7.45e-155 only 2 gamma does; Python and numpy floats
    for sigma in (1e-200, 1e-160, 7.45e-155, np.float64(1e-200), np.float64(1e-160)):
        with pytest.raises(InputError, match="too small"):
            RBFKernel(sigma)
    # just above the threshold the kernel of a point with itself is 1
    k = RBFKernel(7.46e-155)
    assert np.isfinite(k.gamma)
    assert k.cross(np.zeros((1, 2)), np.zeros((1, 2)))[0, 0] == 1.0


def test_dimension_mismatch_rejected():
    k = RBFKernel(1.0)
    with pytest.raises(InputError):
        k.cross(np.zeros((2, 3)), np.zeros((2, 4)))
    # point sets side by side need one row per point in each
    with pytest.raises(InputError, match="equal row counts"):
        k.gram(np.zeros((3, 2)), np.zeros((2, 1)))


finite_points = arrays(
    np.float64,
    st.tuples(st.integers(2, 6), st.integers(1, 4)),
    elements=st.floats(-5, 5, allow_nan=False),
)


@settings(max_examples=50, deadline=None)
@given(finite_points, st.floats(0.05, 3.0))
def test_gram_symmetric_unit_diagonal(pts, sigma):
    g = RBFKernel(sigma).gram(pts)
    np.testing.assert_array_equal(g, g.T)
    np.testing.assert_array_equal(np.diag(g), 1.0)
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
