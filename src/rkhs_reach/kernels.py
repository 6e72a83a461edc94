"""Positive-definite kernels over state and state-control vectors.

A cross matrix is one BLAS product. Both point sets are first shifted
by the mean ``c`` of the ``a`` rows, which leaves the kernel unchanged
and keeps points far from the origin from cancelling away their
distance. The exponent ``-gamma |a' - b'|^2`` then expands to the
product of the lifted rows ``[2 gamma a', -gamma |a'|^2, 1]`` and
``[b', 1, -gamma |b'|^2]``. Clamping it at 0 (cancellation can leave a
small positive exponent for near-coincident points) and exponentiating
in place makes one matrix-sized array in two elementwise passes. A side
used in many crosses, such as a fitted sample, is lifted once with
:meth:`RBFKernel.lift`. A Gram matrix takes the half-cost symmetric
product of the centered points with themselves instead.

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

__all__ = ["RBFKernel", "LiftedRows"]

# entries of the norm-sum block in RBFKernel.gram (256 KB)
_GRAM_BLOCK = 32768


def _point_set(a):
    a = np.ascontiguousarray(np.atleast_2d(np.asarray(a, dtype=np.float64)))
    if a.ndim != 2:
        raise InputError("point sets must be 2-D arrays, one point per row")
    if a.shape[0] == 0:
        raise InputError("point sets must be non-empty")
    return a


def _lifted(a, center, gamma, left):
    """``[2 gamma a', -gamma |a'|^2, 1]`` (left) or ``[a', 1, -gamma |a'|^2]``.

    ``a' = a - center``: the kernel is translation-invariant, and
    centering both sides on one point keeps ``|a'|^2`` small, so an
    offset far from the origin does not cancel away the distance.
    """
    m, d = a.shape
    out = np.empty((m, d + 2))
    rows = out[:, :d]
    np.subtract(a, center, out=rows)
    norm, one = (d, d + 1) if left else (d + 1, d)
    np.einsum("ij,ij->i", rows, rows, out=out[:, norm])
    out[:, norm] *= -gamma
    out[:, one] = 1.0
    if left:
        rows *= 2.0 * gamma
    return out


@dataclass(frozen=True, eq=False)
class LiftedRows:
    """Left side of :meth:`RBFKernel.cross`, lifted once for many crosses.

    Made by :meth:`RBFKernel.lift`; ``rows`` is ``[2 gamma a', -gamma
    |a'|^2, 1]`` for the point set ``a`` centered on its mean,
    ``a' = a - center``.
    """

    rows: np.ndarray
    center: np.ndarray
    gamma: float


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

    def lift(self, points):
        """The rows of ``points`` lifted for use as ``a`` in :meth:`cross`."""
        points = _point_set(points)
        center = points.mean(axis=0)
        return LiftedRows(
            _lifted(points, center, self.gamma, left=True), center, self.gamma
        )

    def cross(self, a, b):
        """Matrix of kernel values between the rows of ``a`` and of ``b``.

        ``a`` is a point set or its :meth:`lift`; both give the same bits.
        """
        if not isinstance(a, LiftedRows):
            a = self.lift(a)
        elif a.gamma != self.gamma:
            raise InputError("lifted rows belong to a kernel of another bandwidth")
        b = _point_set(b)
        if a.center.shape[0] != b.shape[1]:
            raise InputError(
                f"point sets have mixed dimensions {a.center.shape[0]} and "
                f"{b.shape[1]}"
            )
        e = a.rows @ _lifted(b, a.center, self.gamma, left=False).T
        np.minimum(e, 0.0, out=e)
        return np.exp(e, out=e)

    def gram(self, points):
        """Symmetric PSD matrix of pairwise kernel values over ``points``.

        The rows are centered on their mean, ``a' = a - c``, and
        ``g = a' a'^T`` is one symmetric product (a rank-k update in
        BLAS). With ``|a'_i|^2 = g_ii`` from its diagonal, the distance
        ``(g_ii + g_jj) - 2 g_ij`` is symmetric to the bit and exactly 0
        on the diagonal, so the matrix is too, with a unit diagonal.
        """
        a = _point_set(points)
        a = a - a.mean(axis=0)
        g = a @ a.T
        sq = g.diagonal().copy()
        g *= -2.0
        # the norm sums go in by row blocks: a full-size sum array, freed
        # after the result was allocated, left a heap hole that added its
        # size to the peak memory of the weight sweeps after the fit
        m = sq.shape[0]
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
        return np.exp(g, out=g)
