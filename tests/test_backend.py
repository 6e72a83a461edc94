"""Hot numerical kernels against dense, closed-form and loop references."""

import numpy as np
import pytest

from rkhs_reach import _backend


def test_chain_apply_matches_dense_matrix():
    rng = np.random.default_rng(10)
    coeffs = np.array([1.0, 0.5, 0.125, 1.0 / 48])
    x = rng.normal(size=(7, 9))
    dense = np.zeros((9, 9))
    for j, c in enumerate(coeffs):
        dense += c * np.eye(9, k=j)
    np.testing.assert_allclose(
        _backend.chain_apply(coeffs, x), x @ dense.T, atol=1e-13
    )


def test_chain_apply_short_vector():
    # state shorter than the coefficient band
    coeffs = np.array([1.0, 0.5, 0.125, 1.0 / 48])
    x = np.array([[2.0, -1.0]])
    got = _backend.chain_apply(coeffs, x)
    np.testing.assert_allclose(got, [[2.0 - 0.5, -1.0]])


def _one_pass_chain_apply(coeffs, x, u=None, bt=None, w=None):
    # all rows in one pass, one diagonal at a time, then the control
    # product and the disturbance over the whole array
    out = np.zeros_like(x)
    n = x.shape[1]
    for j in range(min(len(coeffs), n)):
        out[:, : n - j] += coeffs[j] * x[:, j:]
    if u is not None:
        out += u @ bt
    if w is not None:
        out += w
    return out


def test_chain_apply_row_blocks_match_one_pass_bitwise():
    rng = np.random.default_rng(12)
    coeffs = rng.uniform(0.0, 1.0, size=12)
    budget = _backend._CHAIN_BLOCK_BYTES
    per_block = budget // (8 * 1000)
    shapes = {
        "remainder block": (2 * per_block + 5, 1000),
        "single row": (1, 1000),
        "n = 1": (9, 1),
        "n shorter than the band": (9, 7),
        "one row per block": (3, budget // 8 + 3),
    }
    for name, shape in shapes.items():
        x = rng.normal(size=shape)
        got = _backend.chain_apply(coeffs, x)
        assert got.tobytes() == _one_pass_chain_apply(coeffs, x).tobytes(), name
        # with the control product and the disturbance fused in
        u = rng.normal(size=(shape[0], 1))
        bt = rng.uniform(0.0, 1.0, size=(1, shape[1]))
        w = rng.normal(size=shape)
        for fused in ((u, bt, w), (u, bt, None), (None, None, w)):
            got = _backend.chain_apply(coeffs, x, *fused)
            want = _one_pass_chain_apply(coeffs, x, *fused)
            assert got.tobytes() == want.tobytes(), name


def _rule(n):
    return np.polynomial.legendre.leggauss(n)


def test_dp_backup_zero_outside_grid():
    values = np.ones((4, 4))
    glx, glw = _rule(7)
    # grid covers [0,3]x[0,3]; a faraway mean's window misses it entirely
    got = _backend.dp_backup(
        values,
        (0.0, 0.0),
        (1.0, 1.0),
        (0.1, 0.1),
        np.array([[10.0, 10.0], [1.5, 1.5]]),
        glx,
        glw,
    )
    np.testing.assert_allclose(got[0], 0.0)
    # interior mean on a constant field recovers the full probability mass
    np.testing.assert_allclose(got[1], 1.0, atol=1e-10)


def test_dp_backup_boundary_mass_not_renormalized():
    # mean on the grid edge: half the Gaussian mass lies outside and must
    # count as zero, not be scaled away
    values = np.ones((31, 31))
    glx, glw = _rule(25)
    got = _backend.dp_backup(
        values,
        (0.0, 0.0),
        (1.0, 1.0),
        (0.5, 0.5),
        np.array([[15.0, 0.0]]),
        glx,
        glw,
    )
    # one axis keeps full mass, the edge axis keeps half
    np.testing.assert_allclose(got, [0.5], atol=1e-6)


def test_dp_backup_small_sd_approaches_interpolation():
    # as sd shrinks the backup collapses to the bilinear field value;
    # f(x, y) = x + 2y is exact under bilinear interpolation
    ax = np.arange(4.0)
    vals = ax[:, None] + 2.0 * ax[None, :]
    glx, glw = _rule(25)
    got = _backend.dp_backup(
        vals,
        (0.0, 0.0),
        (1.0, 1.0),
        (1e-6, 1e-6),
        np.array([[1.25, 2.5]]),
        glx,
        glw,
    )
    np.testing.assert_allclose(got, [1.25 + 5.0], rtol=1e-9)


def test_dp_backup_matches_gaussian_closed_form():
    # linear field under Gaussian smoothing stays linear: E[f(m+w)] = f(m)
    # once the window stays inside the grid
    ax = np.linspace(0.0, 10.0, 41)
    vals = 0.3 * ax[:, None] + 0.1 * ax[None, :]
    glx, glw = _rule(25)
    got = _backend.dp_backup(
        vals,
        (0.0, 0.0),
        (0.25, 0.25),
        (0.4, 0.7),
        np.array([[5.0, 5.0], [4.1, 6.3]]),
        glx,
        glw,
    )
    np.testing.assert_allclose(got, [2.0, 0.3 * 4.1 + 0.63], rtol=1e-7)


def _brute_force_backup(values, origin, steps, sds, means, glx, glw):
    # per-node bilinear gathers over the same per-axis rules
    n1, n2 = values.shape
    (a1, a2), (h1, h2) = origin, steps
    t1, w1 = _backend._axis_rule(
        means[:, 0], sds[0], a1, a1 + h1 * (n1 - 1), glx, glw
    )
    t2, w2 = _backend._axis_rule(
        means[:, 1], sds[1], a2, a2 + h2 * (n2 - 1), glx, glw
    )
    f1 = (t1 - a1) / h1
    f2 = (t2 - a2) / h2
    i1 = np.clip(f1.astype(np.int64), 0, n1 - 2)
    i2 = np.clip(f2.astype(np.int64), 0, n2 - 2)
    r1 = f1 - i1
    r2 = f2 - i2
    out = np.zeros(means.shape[0])
    for j in range(t1.shape[1]):
        ja, jr = i1[:, j], r1[:, j]
        for k in range(t2.shape[1]):
            ka, kr = i2[:, k], r2[:, k]
            v = (
                (1.0 - jr) * (1.0 - kr) * values[ja, ka]
                + jr * (1.0 - kr) * values[ja + 1, ka]
                + (1.0 - jr) * kr * values[ja, ka + 1]
                + jr * kr * values[ja + 1, ka + 1]
            )
            out += w1[:, j] * w2[:, k] * v
    return out


@pytest.mark.parametrize("sds", [(0.3, 0.25), (0.04, 0.03)])
def test_dp_backup_matches_brute_force(sds):
    # non-square grid with unequal steps over [-1, 1] x [-0.72, 0.72];
    # the smaller sds lie inside one grid cell
    rng = np.random.default_rng(13)
    values = rng.uniform(size=(21, 19))
    origin, steps = (-1.0, -0.72), (0.1, 0.08)
    inside = rng.uniform([-0.5, -0.3], [0.5, 0.3], size=(600, 2))
    # windows that cross an edge, on one axis or both
    edge = rng.uniform(-1.3, 1.3, size=(600, 2))
    outside = np.array([[5.0, 0.0], [0.0, -4.0], [-3.0, 3.0]])
    means = np.concatenate([inside, edge, outside])
    # two full blocks plus a remainder, the rows above repeated cyclically
    means = np.resize(means, (2 * _backend._BACKUP_BLOCK + 37, 2))
    glx, glw = _rule(9)
    got = _backend.dp_backup(values, origin, steps, sds, means, glx, glw)
    want = _brute_force_backup(values, origin, steps, sds, means, glx, glw)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
    far = len(inside) + len(edge)
    np.testing.assert_array_equal(got[far : far + len(outside)], 0.0)
