"""Positive-definite kernels over state and state-control vectors.

A point set comes in column parts side by side, such as a sample's
states and its controls. No other module joins them: the parts become
one row only in the kernel's block buffers, where they are centered,
and lifted for a cross.

A cross matrix is a BLAS product. Both point sets are first shifted
by one center ``c``, the mean of the ``a`` rows, which leaves the
kernel unchanged and keeps points far from the origin from cancelling
away their distance. The exponent ``-gamma |a' - b'|^2`` then
expands to the product of the lifted rows ``[2 gamma a', -gamma |a'|^2,
1]`` and ``[b', 1, -gamma |b'|^2]``. Clamping it at 0 (cancellation can
leave a small positive exponent for near-coincident points) and
exponentiating in place makes one matrix-sized array in two elementwise
passes. The query side is lifted whole and the ``a`` side, such as a
fitted sample, in row blocks of 256 KB (or of as many rows as the query
side, if more), each multiplied into its rows of the matrix. A Gram
matrix takes the half-cost symmetric product of the centered points
with themselves instead, summed over column blocks of 1024 columns (or
of M, if more). So neither makes a copy of the ``a`` points, and a fit
keeps only its sample's parts. Points that fit one block give the bits
of one product; in more blocks the sums are split, which moves the
values by round-off (at n = 10 000 and 64 points, 5.9e-16 relative in
the Gram matrix and 4.5e-16 in a cross).

A bandwidth that is tiny against the points' distance from their mean
is an open limit of the cross matrix: the lifted product rounds
``gamma |a'|^2`` (about 5e14 at sigma = 1e-8 for points in the unit
square) to within about 0.5, so ``RBFKernel(1e-8).cross(x, x)`` for
x = (0.3, 0.7), (0.1, 0.2), (0.5, -0.4) reads exp(-0.5) = 0.607 on its
first diagonal entry, where :meth:`RBFKernel.gram` reads 1.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = ["RBFKernel"]

# entries of a block of norm sums in RBFKernel.gram, and of lifted sample
# rows in RBFKernel.cross unless the query side is larger (256 KB)
_GRAM_BLOCK = 32768

# fewest columns of a block of centered points in RBFKernel.gram, which
# is also at least as wide as the matrix is tall: at M = 1024 and
# n = 10 000 blocks of 32, 256 and 1024 columns took 2.0, 0.40 and
# 0.23 s, one block 0.19 s; at M = 256, 128 and 1024 columns took 43
# and 23 ms, one block 18 ms (OpenBLAS, 2-vCPU x86 VM)
_GRAM_COLUMNS = 1024


def _point_set(a):
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    if a.ndim != 2:
        raise InputError("point sets must be 2-D arrays, one point per row")
    if a.shape[0] == 0:
        raise InputError("point sets must be non-empty")
    return a


def _parts(parts):
    """The checked point sets ``parts``, side by side, and their width."""
    parts = [_point_set(p) for p in parts]
    m = parts[0].shape[0]
    if any(p.shape[0] != m for p in parts):
        raise InputError("point sets side by side must have equal row counts")
    return parts, sum(p.shape[1] for p in parts)


def _mean(parts, d):
    """The mean of the rows of the checked ``parts``, ``d`` columns side by side.

    Both sides of a kernel matrix are centered on this mean of the ``a``
    rows. numpy sums each column of a wider array in row order but a
    lone column pairwise, so a one-column part beside others is summed
    as two: the mean has the bits of the mean of the joined rows.
    """
    m = parts[0].shape[0]
    means = [
        (np.broadcast_to(p, (m, 2)) if p.shape[1] == 1 < d else p).mean(axis=0)
        for p in parts
    ]
    return np.concatenate([c[: p.shape[1]] for c, p in zip(means, parts)])


def _shifted(parts, center, out, rows=slice(None), start=0):
    """Write the rows ``a' = a - center`` of the parts side by side to ``out``.

    Only the rows ``rows`` and the columns from ``start`` on, as many as
    ``out`` has, are written; returns ``out``.
    """
    stop = start + out.shape[1]
    j = 0
    for p in parts:
        lo, hi = max(start, j), min(stop, j + p.shape[1])
        if lo < hi:
            np.subtract(
                p[rows, lo - j : hi - j], center[lo:hi],
                out=out[:, lo - start : hi - start],
            )
        j += p.shape[1]
    return out


def _lift_in_place(out, gamma, left):
    """Lift the centered rows ``a'`` in the first columns of ``out`` in place.

    ``out`` has two columns more than the rows. Left rows become
    ``[2 gamma a', -gamma |a'|^2, 1]``, right rows
    ``[a', 1, -gamma |a'|^2]``.
    """
    d = out.shape[1] - 2
    rows = out[:, :d]
    norm, one = (d, d + 1) if left else (d + 1, d)
    np.einsum("ij,ij->i", rows, rows, out=out[:, norm])
    out[:, norm] *= -gamma
    out[:, one] = 1.0
    if left:
        rows *= 2.0 * gamma


@dataclass(frozen=True)
class RBFKernel:
    """Gaussian radial basis function kernel.

    ``K(a, b) = exp(-|a - b|^2 / (2 sigma^2))``

    Parameters
    ----------
    sigma : float
        Bandwidth in the units of the input vectors. Must be positive,
        and large enough that the exponent scale ``gamma = 1 / (2 sigma^2)``
        and the ``2 gamma`` of the lifted rows are finite floats (sigma
        above about 7.46e-155).
    """

    sigma: float

    def __post_init__(self):
        if not np.isfinite(self.sigma) or self.sigma <= 0.0:
            raise InputError(f"kernel bandwidth must be positive, got {self.sigma}")
        # 2 gamma by the operations of the property and the lift; a tiny
        # bandwidth overflows it to inf, or divides by an underflowed 0
        sigma = np.float64(self.sigma)
        with np.errstate(over="ignore", divide="ignore"):
            if not np.isfinite(2.0 * (1.0 / (2.0 * sigma * sigma))):
                raise InputError(
                    f"kernel bandwidth {self.sigma} is too small: "
                    "1/sigma^2 overflows"
                )

    @property
    def gamma(self):
        """Exponent scale ``1 / (2 sigma^2)``."""
        return 1.0 / (2.0 * self.sigma * self.sigma)

    def cross(self, a, b, *more, out=None):
        """Matrix of kernel values between the rows of ``a`` and of ``b``.

        ``a`` is a point set or a tuple of point sets side by side, such
        as a sample's states and controls, and the rows of the point sets
        in ``more`` go beside those of ``b``; either way gives the bits
        of the joined points. Both sides are centered on the mean of the
        ``a`` rows. The query side is lifted whole, the ``a`` side in
        blocks of at most ``_GRAM_BLOCK`` entries or as many rows as the
        query side has, whichever is more, each block's product written
        to its rows of the matrix, so no lifted copy of ``a`` is made. As
        with numpy's ``out``, the matrix is written to ``out`` when
        given, a float array of its shape, with the same bits.
        """
        left, d = _parts(a if isinstance(a, tuple) else (a,))
        right, width = _parts((b, *more))
        if width != d:
            raise InputError(f"point sets have mixed dimensions {d} and {width}")
        center = _mean(left, d)
        query = np.empty((right[0].shape[0], d + 2))
        _shifted(right, center, query[:, :d])
        _lift_in_place(query, self.gamma, left=False)
        m, p = left[0].shape[0], query.shape[0]
        if out is None:
            out = np.empty((m, p))
        elif out.shape != (m, p):
            # as numpy's out: the blocks alone would pass extra rows
            raise ValueError(f"out has shape {out.shape}, the cross has {(m, p)}")
        # a block of fewer rows than the query side re-reads its lifted
        # copy per block: at M = P = 1024 and n = 10 000, 3-row blocks
        # took 2.4 s and one block 0.37 s
        rows = max(_GRAM_BLOCK // (d + 2), p)
        block = np.empty((min(rows, m), d + 2))
        for s in range(0, m, rows):
            lifted = block[: m - s]
            _shifted(left, center, lifted[:, :d], rows=slice(s, s + rows))
            _lift_in_place(lifted, self.gamma, left=True)
            np.matmul(lifted, query.T, out=out[s : s + rows])
        np.minimum(out, 0.0, out=out)
        return np.exp(out, out=out)

    def gram(self, points, *more):
        """Symmetric PSD matrix of pairwise kernel values over the points.

        The points are the rows of ``points`` and of the point sets in
        ``more`` side by side, such as a sample's states and controls,
        which are never joined into a separate array. The rows are
        centered on their mean, ``a' = a - c``, and
        ``g = a' a'^T`` is summed over blocks of ``_GRAM_COLUMNS``
        columns, or of M if more, each block centered in one buffer and
        multiplied by itself in one symmetric product (a rank-k update
        in BLAS), so no centered copy of the points is made. Points that fit one block give the bits of one product.
        With ``|a'_i|^2 = g_ii`` from its diagonal, the distance
        ``(g_ii + g_jj) - 2 g_ij`` is symmetric to the bit and exactly 0
        on the diagonal, so the matrix is too, with a unit diagonal.
        """
        parts, d = _parts((points, *more))
        m, center = parts[0].shape[0], _mean(parts, d)
        width = max(_GRAM_COLUMNS, m)
        block = np.empty((m, min(width, d)))
        g = product = None
        # past the first block each product goes through one more M x M
        # matrix; blocks are at least M wide, so only points wider than M
        # need it
        for s in range(0, max(d, 1), width):
            a = _shifted(parts, center, block[:, : d - s], start=s)
            if g is None:
                g = a @ a.T
            else:
                product = np.matmul(a, a.T, out=product)
                g += product
        del block, product
        sq = g.diagonal().copy()
        g *= -2.0
        # the norm sums go in by row blocks: a full-size sum array, freed
        # after the result was allocated, left a heap hole that added its
        # size to the peak memory of the weight sweeps after the fit
        rows = max(1, _GRAM_BLOCK // m)
        sums = np.empty((min(rows, m), m))
        for s in range(0, m, rows):
            head = sq[s : s + rows]
            block = sums[: head.shape[0]]
            np.add.outer(head, sq, out=block)
            g[s : s + rows] += block
        # cancellation can leave a small negative distance
        np.maximum(g, 0.0, out=g)
        g *= -self.gamma
        np.exp(g, out=g)
        return g
