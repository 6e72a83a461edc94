"""Conditional distribution embeddings estimated from sampled transitions.

Given transitions ``(x_i, u_i) -> y_i`` drawn from a stochastic system,
the estimator solves a kernel ridge regression in closed form so that the
conditional expectation of any function ``f`` of the successor state is
approximated by a weighted sum of its sampled values:

    E[f(y) | x, u]  ~=  sum_i  w_i(x, u) * f(y_i)

The weight vector is ``w(x, u) = scale * (G + lam*M*I)^{-1} k(x, u)``,
where ``G`` is the Gram matrix over the joint sample points, ``k`` the
kernel column at the query, and ``M`` the sample count. ``scale`` is
either 1 (raw mode) or chosen per query so the weights sum to one
(normalized mode, the default). Raw weights shrink toward zero
as the ridge grows, which biases expectation estimates toward zero;
normalization removes that systematic shrinkage and is what makes the
estimates usable as probabilities.

Normalized mode also clips negative solve outputs to zero before
rescaling, so each weight vector is a convex combination of the sampled
values. That keeps every estimate inside the range of ``f`` and makes the
estimator monotone: raising ``f`` pointwise can never lower an estimate.
Monotonicity is what lets a larger candidate-control set only improve the
estimated safety values, up to the round-off of products computed in
blocks of another width (:func:`_invert`). Raw mode keeps the signed
solve output.

The Gaussian kernel factors as ``k_x(x, x') * k_u(u, u')``. If every
sampled control is ``u0``, the kernel column at ``(x, u)`` is the one at
``(x, u0)`` times ``k_u(u0, u)``, which normalization divides out. So
normalized mode on such a sample evaluates every query at ``u0``: its
weights are bitwise independent of the query control (also where
``k_u(u0, u)`` underflows and the joint column would be all zero), and
:attr:`Embedding.reads_controls` is false.

The fit inverts ``G + lam*M*I`` once, so a batch of queries costs one
kernel matrix and one matrix product with the inverse, not a solve per
query. The kernel takes states and controls as separate column parts
on both sides and is the one module that lays them side by side
(:mod:`rkhs_reach.kernels`). The fit keeps no copy of the points:
the kernel centers the sample side by column blocks for the Gram
matrix and lifts it by row blocks for each batch's cross
(:meth:`RBFKernel.cross`).
The fit adds the ridge onto the Gram matrix in place and inverts it
through the inverse of its Cholesky factor, formed by halves from
matrix products (:func:`_invert`), so the Gram product, the inverse,
the cross kernels and the weight products all run on numpy's BLAS and
its one thread pool. A fit keeps one M x M matrix (the inverse; 8 MB
at M = 1024). At its peak it holds two: the ridge, overwritten by the
factor's inverse, and the inverse (tracemalloc reads 2.01 matrices at
M = 1024, and the resident set rises by 2.41 during a fit at
M = 2048). The ridge keeps every eigenvalue at or above ``lam*M``, so
the condition number is at most ``1 + |G|_2 / (lam*M)``: 1.016 on the
1024-sample benchmark at ``lam = 1``. A ridge that round-off leaves not
positive definite, as a repeated sample point under ``lam*M`` near zero
can, stops the fit with :class:`NumericalError`. On that benchmark's
sample at 2048 query points, raw weights from the inverse agree with a
Cholesky solve per column to 1.6e-15 of the largest weight at
``lam = 1``, 2.9e-14 at ``lam = 1e-4`` and 1.0e-12 at ``lam = 1e-6``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError
from .kernels import RBFKernel

__all__ = ["TransitionSample", "Embedding"]


def _check_finite(ridge):
    """Raise :class:`NumericalError` unless every entry of ``ridge`` is finite.

    A Cholesky factor is NaN for a matrix with a NaN entry, and inverts
    an infinite diagonal entry to 0, without raising, so the fit checks
    first. The Gram matrix is not finite once squared
    distances overflow, for coordinates about 1e154 from the sample mean.
    """
    if not np.isfinite(ridge).all():
        raise NumericalError("kernel matrix is not finite")


# the largest block the recursion hands to LAPACK: 32 to 128 rows timed
# alike at M = 256 to 2048, 256 rows 5 % (M = 2048) to 130 % (M = 256)
# slower
_BASE_ROWS = 64


def _lower_inverse(a):
    """Overwrite ``a`` with ``X = L^-1`` for its lower Cholesky factor ``L``.

    With ``a = [[A11, A21'], [A21, A22]]``, ``X11`` goes over the
    leading block, ``L21 = A21 X11'`` and then ``X21 = -X22 L21 X11``
    over ``A21``, and the Schur complement ``A22 - L21 L21'`` and then
    its ``X22`` over ``A22`` (Gustavson, "Recursion leads to automatic
    variable blocking for dense linear-algebra algorithms", IBM J. Res.
    Dev. 1997). Every step but the base case is a matrix product, so
    the work runs at the BLAS product's rate, and none holds more than
    one quarter-size temporary besides ``a``. The base case of at most
    ``_BASE_ROWS`` rows is LAPACK's Cholesky and an inverse of its
    factor; a Schur complement that is not numerically positive
    definite raises ``LinAlgError`` there. The upper right quadrant of
    each level is zeroed.
    """
    m = a.shape[0]
    if m <= _BASE_ROWS:
        a[...] = np.linalg.inv(np.linalg.cholesky(a))
        return
    h = m // 2
    a11, a21, a22 = a[:h, :h], a[h:, :h], a[h:, h:]
    _lower_inverse(a11)
    a21[...] = a21 @ a11.T
    a22 -= a21 @ a21.T
    _lower_inverse(a22)
    np.matmul(a22, a21 @ a11, out=a21)
    np.negative(a21, out=a21)
    a[:h, h:] = 0.0


def _invert(ridge):
    """The inverse of the symmetric positive definite ``ridge``, in Fortran order.

    The inverse is ``X' X`` for ``X`` the inverse of the Cholesky factor
    (:func:`_lower_inverse`): about 2.2 M^3 flops, nearly all in matrix
    products, so it runs at the BLAS product's rate. ``X`` overwrites
    ``ridge``, so besides it the inversion holds the recursion's
    quarter-size blocks and then the result, one M x M matrix. Against
    a Cholesky solve of the identity, the largest entry error relative
    to the largest entry is 1.0e-15 at ``lam = 1``, 1.3e-14 at
    ``lam = 1e-4`` and 1.8e-12 at ``lam = 1e-6`` on benchmark samples
    of 1 to 1024 points (its stability: Du Croz & Higham, "Stability of
    methods for matrix inversion", IMA J. Numer. Anal. 1992).

    numpy runs ``X' X`` as a symmetric rank-k product, so the result is
    symmetric to the bit, and its transpose is a free view in Fortran
    order. That order is kept because the bits of a weight column
    depend on the inverse's layout: neither order makes them independent
    of the width of the point block they are computed in, since BLAS
    splits the product by its width (at M = 1024 with 1024 query
    columns, blocks of 341, 682, 818 and 1023 left 8 to 16 columns off
    a 1024-wide block's by up to 1.5e-15, and one-column blocks every
    column; OpenBLAS, 2-vCPU x86 VM; which widths differ depends on the
    CPU's kernel), but the C-ordered product moved max-mode values on a
    constant sample by an ulp against a single candidate's.

    A ridge that is not numerically positive definite, as a Gram matrix
    with a repeated point under a ridge near zero can be, raises
    :class:`NumericalError` rather than give a wrong inverse.
    """
    try:
        _lower_inverse(ridge)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"ridge system inversion failed: {exc}")
    return (ridge.T @ ridge).T


# perfbench/tracing.py times the fit's two steps under these names; the
# line goes once the tracer binds by the callers' names
cho_factor, cho_solve = _check_finite, _invert


def _as_matrix(name, arr, rows=None):
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise InputError(f"{name} must be a 2-D array, got ndim={a.ndim}")
    if rows is not None and a.shape[0] != rows:
        raise InputError(
            f"{name} has {a.shape[0]} rows, expected {rows} to match states"
        )
    # NaN propagates through min and max, and no mask is allocated
    if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise InputError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class TransitionSample:
    """A set of sampled one-step transitions.

    Fields
    ------
    states : (M, n) array
        Where each transition started.
    controls : (M, m) array
        Control applied at each start state; m may be 0 for uncontrolled
        sampling. A vector of length M is one control column, and an
        empty array gives m = 0.
    successors : (M, n) array
        Observed next states.
    metadata : dict
        Free-form record of how the sample was drawn (system name, seed,
        policy description).
    """

    states: np.ndarray
    controls: np.ndarray
    successors: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        states = _as_matrix("states", self.states)
        if states.shape[0] < 1:
            raise InputError("sample set must contain at least one transition")
        m_rows = states.shape[0]
        controls = np.asarray(self.controls, dtype=np.float64)
        if controls.size == 0:
            controls = controls.reshape(m_rows, 0)
        controls = _as_matrix("controls", controls, rows=m_rows)
        successors = _as_matrix("successors", self.successors, rows=m_rows)
        if successors.shape[1] != states.shape[1]:
            raise InputError(
                f"successors have dimension {successors.shape[1]}, "
                f"states have {states.shape[1]}"
            )
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "successors", successors)

    @property
    def count(self):
        return self.states.shape[0]

    @property
    def state_dim(self):
        return self.states.shape[1]

    @property
    def control_dim(self):
        return self.controls.shape[1]


class Embedding:
    """Fitted conditional-expectation estimator over a transition sample.

    Parameters
    ----------
    sample : TransitionSample
    kernel : RBFKernel
        Kernel on the joint state-control space.
    lam : float
        Ridge parameter; the regularizer added to the Gram matrix is
        ``lam * M * I``.
    normalize_weights : bool
        When true (default), negative weights are clipped to zero and each
        weight vector is rescaled to sum to 1 (a convex combination).
    """

    def __init__(self, sample, kernel, lam, normalize_weights=True):
        if not isinstance(sample, TransitionSample):
            raise InputError("sample must be a TransitionSample")
        if not isinstance(kernel, RBFKernel):
            raise InputError("kernel must be an RBFKernel")
        lam = float(lam)
        if not np.isfinite(lam) or lam <= 0.0:
            raise InputError(f"ridge parameter must be positive, got {lam}")
        self.sample = sample
        self.kernel = kernel
        self.lam = lam
        self.normalize_weights = bool(normalize_weights)
        controls = sample.controls
        # the one control every query is evaluated at (module docstring)
        same = self.normalize_weights and np.all(controls == controls[:1])
        self._fixed_control = controls[0] if same and controls.size else None
        # an overflow is reported by _check_finite, not by numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            ridge = kernel.gram(sample.states, sample.controls)
        m = sample.count
        ridge.flat[:: m + 1] += lam * m
        _check_finite(ridge)
        # well conditioned (module docstring), so the inverse replaces
        # two triangular solves per query with one matrix product
        self._inv = _invert(ridge)

    @property
    def reads_controls(self):
        """Whether the weights depend on the query controls.

        False without control columns, and on a normalized fit of a
        sample whose controls are all equal (module docstring).
        """
        return self.sample.control_dim > 0 and self._fixed_control is None

    def _query_parts(self, states, controls):
        """The checked query parts: ``(states,)`` or ``(states, controls)``."""
        states = _as_matrix("query states", np.atleast_2d(states))
        if states.shape[1] != self.sample.state_dim:
            raise InputError(
                f"query states have dimension {states.shape[1]}, "
                f"sample has {self.sample.state_dim}"
            )
        m = self.sample.control_dim
        if m == 0:
            if controls is not None and np.size(controls) != 0:
                raise InputError("sample has no control columns, got controls")
            return (states,)
        if controls is None:
            raise InputError(f"sample has {m} control columns, controls required")
        controls = _as_matrix("query controls", np.atleast_2d(controls))
        if controls.shape != (states.shape[0], m):
            raise InputError(
                f"controls must have shape {(states.shape[0], m)}, "
                f"got {controls.shape}"
            )
        if self._fixed_control is not None:
            controls = np.broadcast_to(self._fixed_control, controls.shape)
        return (states, controls)

    def weights(self, states, controls=None, out=None):
        """Weight vectors for a batch of queries, as an (M, P) matrix.

        Column p holds the weights for query p; an expectation estimate
        is the dot product of a column with the function's values at the
        sampled successors. ``out``, when given, is a pair of (M, P)
        float arrays: the weights are written to the first and returned,
        with the same bits, and the second holds the kernel matrix on
        the way, so a batch allocates no matrix of its own.
        """
        parts = self._query_parts(states, controls)
        w, k = (None, None) if out is None else out
        sample = self.sample
        cross = self.kernel.cross((sample.states, sample.controls), *parts, out=k)
        w = np.matmul(self._inv, cross, out=w)
        if self.normalize_weights:
            np.maximum(w, 0.0, out=w)
        colsum = w.sum(axis=0)
        # a NaN or an infinity reaches its column's sum, clipped or not
        if not np.all(np.isfinite(colsum)):
            raise NumericalError("weight computation produced non-finite values")
        if self.normalize_weights:
            colsum[colsum == 0.0] = 1.0  # an all-zero column stays zero
            w /= colsum
        return w

    def solve_residual(self, v):
        """Relative residual ``|(G + lam*M*I) x - v| / |v|`` of ``x = inverse @ v``.

        The fit does not keep ``G``; it is formed again here.
        """
        v = np.asarray(v, dtype=np.float64)
        x = self._inv @ v
        gram = self.kernel.gram(self.sample.states, self.sample.controls)
        r = gram @ x + (self.lam * self.sample.count) * x - v
        return float(np.linalg.norm(r) / np.linalg.norm(v))
