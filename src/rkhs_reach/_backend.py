"""Numerical kernels of the hot paths, in numpy and the platform BLAS.

Two hot paths live here: the banded upper-triangular apply of the
integrator-chain state matrix, and the quadrature-plus-interpolation
sweep of the grid oracle, a blocked matrix contraction. The Gaussian
cross-kernel matrix is computed in ``RBFKernel.cross``. Threading is
left to the BLAS library, and both are deterministic: the same inputs
give the same bits.

The benchmark's tracer (``perfbench/tracing.py``) patches
``chain_apply`` and ``dp_backup`` by name and its worker records
``active_backend()``, so the three names stay in this module.
"""

import numpy as np

__all__ = [
    "active_backend",
    "chain_apply",
    "dp_backup",
]


def active_backend():
    """Name of the compute backend, always ``"numpy"``."""
    return "numpy"


def _as2d(arr):
    a = np.ascontiguousarray(arr, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a 2-D array")
    return a


def chain_apply(coeffs, x):
    """Apply the banded upper-triangular Toeplitz matrix given by ``coeffs``.

    ``out[r, i] = sum_j coeffs[j] * x[r, i + j]`` for ``i + j`` in range.
    Rows of ``x`` are independent state vectors.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
    x = _as2d(x)
    out = np.zeros_like(x)
    n = x.shape[1]
    for j in range(min(len(coeffs), n)):
        out[:, : n - j] += coeffs[j] * x[:, j:]
    return out


# integration window half-width in standard deviations
_QUAD_SPAN = 4.0
_INV_SQRT_2PI = 0.3989422804014327


def _axis_rule(m, sd, lo, hi, glx, glw):
    # per-query nodes and Gaussian-weighted weights on the window
    # [m - span*sd, m + span*sd] clipped to [lo, hi]; the field is zero
    # beyond the clip, so dropping that part of the window is exact.
    # Normalizing by the rule's own full-window mass makes an interior
    # constant field integrate to exactly 1 at any node count; clipped
    # queries keep only their in-window fraction.
    full_mass = _QUAD_SPAN * _INV_SQRT_2PI * float(
        glw @ np.exp(-0.5 * (_QUAD_SPAN * glx) ** 2)
    )
    a = np.maximum(m - _QUAD_SPAN * sd, lo)
    b = np.minimum(m + _QUAD_SPAN * sd, hi)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    live = half > 0.0
    t = mid[:, None] + half[:, None] * glx[None, :]
    z = (t - m[:, None]) / sd
    w = glw[None, :] * half[:, None] * (
        np.exp(-0.5 * z * z) * (_INV_SQRT_2PI / (sd * full_mass))
    )
    w[~live] = 0.0
    return t, w


def _cells(t, w, lo, h, n):
    # bilinear split of each weighted node: its cell index along the axis
    # (clipped to the grid) and the weights its cell's lower and upper
    # grid nodes receive
    f = (t - lo) / h
    i = np.clip(f.astype(np.int64), 0, n - 2)
    r = f - i
    return i, w * (1.0 - r), w * r


# queries per backup block; bounds the per-block rules, coefficient rows
# and their product with the field to a few MB at any query count
_BACKUP_BLOCK = 1024


def dp_backup(values, origin, steps, sds, means, glx, glw):
    """One Gaussian-quadrature backup of a 2-D grid field.

    For each row of ``means`` estimates ``E[field(mean + w)]`` for
    diagonal Gaussian ``w`` with per-axis standard deviations ``sds``,
    where ``field`` interpolates ``values`` bilinearly on the uniform
    grid given by ``origin``/``steps`` and vanishes outside it. Per axis
    the integral runs over the +-4 sd window clipped to the grid, which
    drops only the exactly-zero region, so the Gauss-Legendre rule
    (``glx``/``glw`` on [-1, 1]) never straddles the boundary jump.
    Weights are normalized by the fixed +-4 sd tail mass; mass falling
    beyond the grid counts as zero rather than being renormalized away.

    Bilinear interpolation is a sum of hat functions, so under the
    tensor rule each query's sum over node pairs factorises exactly as
    ``c1 @ values @ c2``, where ``c1[a]`` collects the first-axis weights
    times hat function ``a`` at the first-axis nodes and ``c2`` the same
    on the second axis. Queries are sorted by their first-axis mean and
    run in blocks of ``_BACKUP_BLOCK``. A block's ``c1`` rows are built
    with ``np.bincount`` over the band of grid rows the block touches and
    contracted with that band of ``values`` in one matrix product; the
    result is then read at each query's second-axis cells.

    Cost: the band is the +-4 sd window, ``8 * sd / step + 2`` grid rows
    at most ``n1``, plus the block's spread of means, so the product
    costs about that many times ``n2`` multiply-adds per query; the rest
    is ``O(quad_nodes)`` per query. At a fixed ``sd`` a finer grid makes
    each query dearer, in proportion to the number of grid nodes.
    """
    values = _as2d(values)
    means = _as2d(means)
    glx = np.ascontiguousarray(glx, dtype=np.float64)
    glw = np.ascontiguousarray(glw, dtype=np.float64)
    a1, a2 = float(origin[0]), float(origin[1])
    h1, h2 = float(steps[0]), float(steps[1])
    sd1, sd2 = float(sds[0]), float(sds[1])
    n1, n2 = values.shape
    b1, b2 = a1 + h1 * (n1 - 1), a2 + h2 * (n2 - 1)
    out = np.empty(means.shape[0])
    order = np.argsort(means[:, 0], kind="stable")
    for s in range(0, means.shape[0], _BACKUP_BLOCK):
        q = order[s : s + _BACKUP_BLOCK]
        rows = np.arange(q.shape[0])[:, None]
        t1, w1 = _axis_rule(means[q, 0], sd1, a1, b1, glx, glw)
        i1, lo1, hi1 = _cells(t1, w1, a1, h1, n1)
        first = int(i1.min())
        band = int(i1.max()) + 2 - first
        at = rows * band + (i1 - first)
        c1 = np.bincount(
            np.concatenate([at.ravel(), at.ravel() + 1]),
            weights=np.concatenate([lo1.ravel(), hi1.ravel()]),
            minlength=q.shape[0] * band,
        )
        u = (c1.reshape(-1, band) @ values[first : first + band]).ravel()
        t2, w2 = _axis_rule(means[q, 1], sd2, a2, b2, glx, glw)
        i2, lo2, hi2 = _cells(t2, w2, a2, h2, n2)
        at = rows * n2 + i2
        out[q] = np.einsum("pk,pk->p", u[at], lo2) + np.einsum(
            "pk,pk->p", u[at + 1], hi2
        )
    return out

