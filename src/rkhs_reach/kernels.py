"""Positive-definite kernels over state and state-control vectors."""

from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = ["RBFKernel"]


@dataclass(frozen=True)
class RBFKernel:
    """Gaussian radial basis function kernel.

    ``K(a, b) = exp(-|a - b|^2 / (2 sigma^2))``

    Parameters
    ----------
    sigma : float
        Bandwidth in the units of the input vectors. Must be positive.
    """

    sigma: float

    def __post_init__(self):
        if not np.isfinite(self.sigma) or self.sigma <= 0.0:
            raise InputError(f"kernel bandwidth must be positive, got {self.sigma}")

    @property
    def gamma(self):
        """Exponent scale ``1 / (2 sigma^2)``."""
        return 1.0 / (2.0 * self.sigma * self.sigma)

    def __call__(self, a, b):
        """Kernel value for a single pair of equal-length vectors."""
        a = np.atleast_1d(np.asarray(a, dtype=np.float64))
        b = np.atleast_1d(np.asarray(b, dtype=np.float64))
        if a.shape != b.shape or a.ndim != 1:
            raise InputError(
                f"kernel arguments must be equal-length vectors, got shapes "
                f"{a.shape} and {b.shape}"
            )
        d = a - b
        return float(np.exp(-self.gamma * (d @ d)))

    def cross(self, a, b):
        """Matrix of kernel values between the rows of ``a`` and of ``b``."""
        a = np.ascontiguousarray(np.atleast_2d(np.asarray(a, dtype=np.float64)))
        b = np.ascontiguousarray(np.atleast_2d(np.asarray(b, dtype=np.float64)))
        if a.ndim != 2 or b.ndim != 2:
            raise InputError("point sets must be 2-D arrays, one point per row")
        if a.shape[1] != b.shape[1]:
            raise InputError(
                f"point sets have mixed dimensions {a.shape[1]} and {b.shape[1]}"
            )
        if a.shape[0] == 0 or b.shape[0] == 0:
            raise InputError("point sets must be non-empty")
        # expanded form |a|^2 + |b|^2 - 2ab, one matrix product; cancellation
        # can leave small negative values, clamped before exp
        sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :]
        ab = a @ b.T
        ab *= 2.0  # in place: exact, and no third matrix-sized temporary
        sq -= ab
        np.maximum(sq, 0.0, out=sq)
        sq *= -self.gamma
        return np.exp(sq, out=sq)

    def gram(self, points):
        """Symmetric PSD matrix of pairwise kernel values over ``points``."""
        g = self.cross(points, points)
        # the expanded-form distance is symmetric only up to roundoff
        g += g.T
        g *= 0.5
        np.fill_diagonal(g, 1.0)
        return g

    def vector(self, points, query):
        """Kernel column: component i is ``K(points[i], query)``."""
        query = np.atleast_1d(np.asarray(query, dtype=np.float64))
        if query.ndim != 1:
            raise InputError("query must be a single vector")
        return self.cross(points, query[None, :])[:, 0]
