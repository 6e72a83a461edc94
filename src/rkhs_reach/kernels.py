"""Positive-definite kernels over state and state-control vectors.

A point set comes in column parts side by side, such as a sample's
states and its controls. No other module joins them: the parts become
one row only in the buffer where they are centered and lifted, on the
sample side of a fit and on the query side of each cross alike.

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
product of the centered points with themselves instead, and a fit takes
both from one buffer of centered rows (:meth:`RBFKernel.gram` with
``lift``).

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
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    if a.ndim != 2:
        raise InputError("point sets must be 2-D arrays, one point per row")
    if a.shape[0] == 0:
        raise InputError("point sets must be non-empty")
    return a


def _centered(parts, center=None):
    """The rows of ``parts`` side by side, ``a``, centered on ``center``.

    They are written as ``a' = a - c`` into the first columns of a buffer
    with two more, which :func:`_lift_in_place` fills; returns the buffer
    and ``c``, by default the rows' mean. The kernel is
    translation-invariant, and centering both sides of a cross on one
    point keeps ``|a'|^2`` small, so an offset far from the origin does
    not cancel away the distance.
    """
    parts = [_point_set(p) for p in parts]
    m = parts[0].shape[0]
    if any(p.shape[0] != m for p in parts):
        raise InputError("point sets side by side must have equal row counts")
    d = sum(p.shape[1] for p in parts)
    if center is not None and center.shape[0] != d:
        raise InputError(
            f"point sets have mixed dimensions {center.shape[0]} and {d}"
        )
    out = np.empty((m, d + 2))
    rows = out[:, :d]
    np.concatenate(parts, axis=1, out=rows)
    if center is None:
        center = rows.mean(axis=0)
    rows -= center
    return out, center


def _lift_in_place(out, gamma, left):
    """Lift the centered rows ``a'`` of a :func:`_centered` buffer in place.

    Left rows become ``[2 gamma a', -gamma |a'|^2, 1]``, right rows
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

    def lift(self, points, *more):
        """The rows of ``points`` lifted for use as ``a`` in :meth:`cross`.

        The rows of the point sets in ``more`` go beside them, as in
        :meth:`gram`.
        """
        out, center = _centered((points, *more))
        _lift_in_place(out, self.gamma, left=True)
        return LiftedRows(out, center, self.gamma)

    def cross(self, a, b, *more, out=None):
        """Matrix of kernel values between the rows of ``a`` and of ``b``.

        ``a`` is a point set or its :meth:`lift`; both give the same bits.
        The rows of the point sets in ``more`` go beside those of ``b``,
        as in :meth:`gram`, and are centered and lifted with them. As
        with numpy's ``out``, the matrix is written to ``out`` when
        given, a float array of its shape, with the same bits.
        """
        if not isinstance(a, LiftedRows):
            a = self.lift(a)
        elif a.gamma != self.gamma:
            raise InputError("lifted rows belong to a kernel of another bandwidth")
        right, _ = _centered((b, *more), a.center)
        _lift_in_place(right, self.gamma, left=False)
        e = np.matmul(a.rows, right.T, out=out)
        np.minimum(e, 0.0, out=e)
        return np.exp(e, out=e)

    def gram(self, points, *more, lift=False):
        """Symmetric PSD matrix of pairwise kernel values over the points.

        The points are the rows of ``points`` and of the point sets in
        ``more`` side by side, such as a sample's states and controls,
        which are never joined into a separate array. The rows are
        centered on their mean, ``a' = a - c``, and ``g = a' a'^T`` is
        one symmetric product (a rank-k update in BLAS). With
        ``|a'_i|^2 = g_ii`` from its diagonal, the distance
        ``(g_ii + g_jj) - 2 g_ij`` is symmetric to the bit and exactly 0
        on the diagonal, so the matrix is too, with a unit diagonal.

        With ``lift``, returns ``(matrix, lifted)``, where ``lifted`` has
        the bits of :meth:`lift` of the same points: the centered rows
        are lifted in place once the product has read them, so a fit
        holds one copy of its sample's points, the lifted rows.
        """
        out, center = _centered((points, *more))
        a = out[:, : center.shape[0]]
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
        np.exp(g, out=g)
        if not lift:
            return g
        _lift_in_place(out, self.gamma, left=True)
        return g, LiftedRows(out, center, self.gamma)
