"""Benchmark dynamics, disturbance samplers, CWH feedback, and sample generation.

Two discrete-time linear systems ``x' = A x + B u + w`` ship with the
package, and share one ``step``: a chain of integrators of arbitrary
dimension, applied through its banded state matrix, and the in-plane
relative motion of a chaser spacecraft about a circular-orbit target
(Clohessy-Wiltshire dynamics), discretized under zero-order hold by the
matrix exponential.
"""

import math
import warnings

import numpy as np

from . import _backend
from .embedding import TransitionSample
from .errors import InputError, NumericalError
from .reach import AffinePolicy, BoxSet, PredicateSet

__all__ = [
    "IntegratorChain",
    "CWHSystem",
    "GaussianDisturbance",
    "BetaDisturbance",
    "ZeroDisturbance",
    "BoxSampler",
    "cwh_lqr_policy",
    "cwh_sets",
    "generate_transitions",
]

EARTH_MU = 3.986004418e14  # m^3 / s^2
EARTH_RADIUS = 6371.0e3  # m


class _LinearSystem:
    """Discrete-time ``x' = A x + B u + w``, one state per row.

    Subclasses set ``n``, ``m``, ``_b`` (n x m) and either ``_a`` (n x n)
    or their own ``_update``. A subclass that declares a
    per-axis ``control_bound`` gets a warning from :meth:`step` for
    controls beyond it.
    """

    control_bound = None
    # whether oracle.mc_reach may step rollouts on several threads: no
    # for ``states @ A.T``, whose OpenBLAS product serves one caller at
    # a time with its own thread pool, so threads make it slower
    threaded_rollouts = False

    def _update(self, states, controls, disturbances):
        # x A' + u B' + w row-wise, the terms added in that order;
        # controls and disturbances may be None
        out = states @ self._a.T
        if controls is not None:
            out += controls @ self._b.T
        if disturbances is not None:
            out += disturbances
        return out

    def step(self, states, controls, disturbances):
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        if states.ndim != 2:
            raise InputError(
                f"{self.name} states must be one per row, a 2-D array, "
                f"got shape {states.shape}"
            )
        if states.shape[1] != self.n:
            raise InputError(
                f"{self.name} states must have {self.n} components, "
                f"got {states.shape[1]}"
            )
        # None is the one way to give no control: an array with no
        # entries is checked like any other, so a policy's (P, 0) output
        # is an error, not a silently uncontrolled step
        if controls is not None:
            controls = np.atleast_2d(np.asarray(controls, dtype=np.float64))
            if controls.shape != (states.shape[0], self.m):
                raise InputError(
                    f"controls must have shape {(states.shape[0], self.m)}, "
                    f"got {controls.shape}"
                )
            bound = self.control_bound
            if bound is not None and np.any(np.abs(controls) > bound):
                warnings.warn(
                    f"controls exceed the declared bound {bound}", stacklevel=2
                )
        return self._update(states, controls, disturbances)


def _taylor_terms(n, t):
    """``t^j / j!`` for ``j = 0..n``, each correctly rounded.

    The term is the exact ratio of two integers (``t`` is a binary
    fraction ``p / q``), and Python's integer true division rounds that
    ratio once to the nearest float. Past the peak at ``j ~ t`` the terms
    only fall, so the first one there that rounds to zero ends the loop.
    A term beyond the float range raises ``OverflowError``.
    """
    terms = np.zeros(n + 1)
    p, q = t.as_integer_ratio()
    num = den = 1
    for j in range(n + 1):
        if j:
            num *= p
            den *= q * j
        terms[j] = num / den
        if j > t and not terms[j]:
            break
    return terms


def _expm(m):
    """``exp(m)`` by scaling and squaring a Taylor polynomial.

    ``m`` is halved ``s`` times until its 1-norm is below 1/2, the
    exponential of that is summed to the ``x^15 / 15!`` term (the rest is
    below 1e-17 of the sum) and squared back ``s`` times (Higham, "The
    scaling and squaring method for the matrix exponential revisited",
    SIAM J. Matrix Anal. Appl. 2005).
    """
    s = max(0, math.frexp(2.0 * np.abs(m).sum(axis=0).max())[1])
    x = m / 2.0**s
    term = out = np.eye(m.shape[0])
    for k in range(1, 16):
        term = term @ x / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


class IntegratorChain(_LinearSystem):
    """Discrete n-dimensional integrator chain with control on the last state.

    State component i is the sampled integral of component i+1, and the
    scalar control enters through the final component. The state matrix
    is upper-triangular Toeplitz with ``c_j = T^j / j!`` on the j-th
    superdiagonal and the input vector has ``c_(n-i)`` in row i
    (0-indexed). Each ``c_j`` is correctly rounded: it is computed in
    exact rational arithmetic and rounded once to float, so ``c_1`` is
    ``T`` itself.

    The band keeps the diagonals ``0..J``, where J is the last index
    whose tail ``sum_{i >= J} c_i`` exceeds ``2^-53`` times the row sum
    ``sum_{i < n} c_i``. What is dropped is then at most half an ulp of
    ``||A||_inf``, inside the round-off bound that any floating-point
    product with A carries (Higham, *Accuracy and Stability of Numerical
    Algorithms*, section 3.1). Once n is that long, the band is 12
    diagonals at T = 0.25, 5 at T = 1e-3 and 23 at T = 2; the apply
    never materializes A, so dimensions in the tens of thousands stay
    cheap. A sampling time whose Taylor terms or row sum overflow is
    rejected.
    """

    name = "integrator"
    # the band is applied in numpy's elementwise loops, not in BLAS
    threaded_rollouts = True

    def __init__(self, n, sampling_time=0.25):
        n = int(n)
        if n < 1:
            raise InputError(f"dimension must be >= 1, got {n}")
        sampling_time = float(sampling_time)
        if not np.isfinite(sampling_time) or sampling_time <= 0.0:
            raise InputError(f"sampling time must be positive, got {sampling_time}")
        self.n = n
        self.m = 1
        self.sampling_time = sampling_time
        overflow = InputError(
            f"sampling time {sampling_time} overflows the state or input "
            f"matrix of the {n}-dimensional integrator chain"
        )
        try:
            taylor = _taylor_terms(n, sampling_time)
        except OverflowError:
            raise overflow from None
        with np.errstate(over="ignore"):
            tail = np.cumsum(taylor[n - 1 :: -1])[::-1]  # sum of c_i, i >= j
        # every term is finite, but their row sum can still overflow
        if not np.isfinite(tail[0]):
            raise overflow
        band = np.count_nonzero(tail > 2.0**-53 * tail[0])
        self._coeffs = taylor[:band]
        self._b = taylor[n:0:-1, None].copy()  # row i: c_(n-i)

    @property
    def bandwidth(self):
        """Number of kept diagonals: the main one and those above it."""
        return self._coeffs.shape[0]

    def _update(self, states, controls, disturbances):
        # the banded apply with the control product and the disturbance
        # added in its row blocks
        return _backend.chain_apply(
            self._coeffs, states, controls, self._b.T, disturbances
        )

    def default_disturbance(self):
        """Gaussian noise of standard deviation 0.1 on every component."""
        return GaussianDisturbance(np.full(self.n, 0.1))


# how far from 1 the determinant of CWHSystem's state matrix may drift
_CWH_DET_TOL = 1e-4


class CWHSystem(_LinearSystem):
    """In-plane spacecraft relative motion, exactly discretized.

    State is ``(x, y, vx, vy)`` in meters and meters per second in the
    target's rotating frame; control is a force in newtons. The scenario
    is fixed: a 300 kg chaser (``mass``) about a target in a circular
    orbit 850 km above the Earth's surface, whose orbital rate
    ``w = sqrt(mu / a^3)`` is kept as ``orbital_rate``, with forces
    bounded per axis by ``control_bound`` = 0.1 N. Only the sampling time
    is a parameter. The continuous equations

        ax = 3 w^2 x + 2 w vy + Fx / mass
        ay = -2 w vx + Fy / mass

    are discretized under zero-order hold: ``[A B]`` is the top block row
    of ``expm([[Ac, Bc], [0, 0]] T)`` (Van Loan, IEEE TAC 1978), taken by
    :func:`_expm`. It agrees with ``scipy.linalg.expm`` to 2.2e-16
    relative in the 1-norm at T = 1 s, 5.4e-16 at 20 s and 5.9e-15 at
    300 s.
    The closed form in ``sin wT`` and ``cos wT`` differs from it at this
    orbit by up to 6e-13 relative in an entry at T = 20 s (3.2e-13
    absolute in B). A sampling time whose squared-back exponential
    overflows (from about 1e19 s) is rejected, and so is one where it is
    finite but wrong: ``trace(Ac) = 0``, so the exact ``A`` has
    determinant 1, and each of the ``s`` squarings can double the
    relative error of the Taylor sum, so the computed determinant drifts
    from 1 by about ``2^s`` ulps. It reads within 1e-15 of 1 at T = 20 s,
    8.7e-11 at 1e6 s and 6e-6 at 1e10 s; from about 1e16 s it is off by
    1 or more (-2.7e240 at 1e17 s). A determinant more than
    ``_CWH_DET_TOL`` (1e-4) from 1 is rejected, which starts between
    5e11 s (7.6e-5) and 1e12 s (1.5e-4).
    Controls beyond the bound draw a warning in ``step``; they are not
    clipped.
    """

    name = "cwh"
    n = 4
    m = 2
    mass = 300.0  # kg
    orbital_rate = math.sqrt(EARTH_MU / (EARTH_RADIUS + 850.0e3) ** 3)  # rad / s
    control_bound = 0.1  # N

    def __init__(self, sampling_time=20.0):
        # ``0 < x < inf`` is false for NaN too
        sampling_time = float(sampling_time)
        if not 0.0 < sampling_time < math.inf:
            raise InputError("sampling time must be positive and finite")
        self.sampling_time = sampling_time

        w = self.orbital_rate
        block = np.zeros((6, 6))  # [[Ac, Bc], [0, 0]]
        block[0, 2] = block[1, 3] = 1.0
        block[2, 0] = 3.0 * w * w
        block[2, 3] = 2.0 * w
        block[3, 2] = -2.0 * w
        block[2, 4] = block[3, 5] = 1.0 / self.mass
        # the squaring overflows long before the exponential itself would
        with np.errstate(over="ignore", invalid="ignore"):
            phi = _expm(block * sampling_time)
            det = np.linalg.det(phi[:4, :4])
        if not np.isfinite(phi).all():
            raise InputError(
                f"sampling time {sampling_time} overflows the state or input "
                f"matrix of the CWH system"
            )
        if not abs(det - 1.0) <= _CWH_DET_TOL:
            raise InputError(
                f"sampling time {sampling_time} is too long for an accurate "
                f"CWH state matrix: its determinant is off 1 by {abs(det - 1.0):.2g}"
            )
        self._a = phi[:4, :4].copy()
        self._b = phi[:4, 4:].copy()

    def default_disturbance(self):
        """Diagonal Gaussian acting on the discrete state update."""
        return GaussianDisturbance(np.sqrt([1e-4, 1e-4, 5e-8, 5e-8]))


# entries of the scale tile that GaussianDisturbance.draw multiplies by
_DRAW_TILE = 4096


class GaussianDisturbance:
    """Independent zero-mean Gaussian noise per state component."""

    kind = "gaussian"

    def __init__(self, sd):
        sd = np.atleast_1d(np.asarray(sd, dtype=np.float64))
        if sd.ndim != 1 or np.any(sd <= 0.0) or not np.all(np.isfinite(sd)):
            raise InputError("standard deviations must be positive and finite")
        self.sd = sd

    @property
    def dim(self):
        return self.sd.shape[0]

    def draw(self, rng, count):
        """``count`` rows of noise, the same stream as ``rng.normal(0, sd)``.

        ``Generator.normal(loc, scale)`` returns ``loc + scale * z`` from
        the standard normal stream, so scaling ``standard_normal`` in
        place gives the same bits (but for the sign of an exact zero,
        which ``0.0 +`` clears) without the broadcast over a vector of
        scales. The draws are scaled as one flat array against ``sd``
        repeated over whole rows to about ``_DRAW_TILE`` entries, so that
        numpy's inner loop runs over a tile, not over one short row.
        """
        draws = rng.standard_normal((count, self.dim))
        flat = draws.reshape(-1)
        tile = np.tile(self.sd, max(1, min(count, _DRAW_TILE // self.dim)))
        whole = flat.shape[0] - flat.shape[0] % tile.shape[0]
        body = flat[:whole].reshape(-1, tile.shape[0])
        body *= tile
        flat[whole:] *= tile[: flat.shape[0] - whole]
        return draws


class BetaDisturbance:
    """Independent Beta-distributed noise per component, support [0, 1].

    The raw Beta distribution has mean alpha / (alpha + beta), so the
    disturbance carries positive drift unless ``centered`` shifts the
    mean to zero.
    """

    kind = "beta"

    def __init__(self, alpha, beta, dim, centered=False):
        alpha = float(alpha)
        beta = float(beta)
        if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):
            raise InputError("Beta shape parameters must be positive and finite")
        self.alpha = alpha
        self.beta = beta
        self.dim = int(dim)
        if self.dim < 1:
            raise InputError("disturbance dimension must be >= 1")
        self.centered = bool(centered)

    def draw(self, rng, count):
        draws = rng.beta(self.alpha, self.beta, size=(count, self.dim))
        if self.centered:
            draws -= self.alpha / (self.alpha + self.beta)
        return draws


class ZeroDisturbance:
    """Degenerate noise-free disturbance, a testing hook."""

    kind = "none"

    def __init__(self, dim):
        self.dim = int(dim)

    def draw(self, rng, count):
        return np.zeros((count, self.dim))


class BoxSampler(BoxSet):
    """Uniform sampler over an axis-aligned box with finite bounds and widths."""

    def __init__(self, lower, upper):
        super().__init__(lower, upper)
        with np.errstate(over="ignore"):
            self.width = self.upper - self.lower
        if not np.all(np.isfinite(self.width)):
            raise InputError("box is too wide to sample: its width overflows")

    def draw(self, rng, count):
        """``count`` rows, the same stream and bits as ``rng.uniform``.

        ``Generator.uniform(low, high)`` returns ``low + (high - low) * u``
        from the ``random`` stream, which the in-place scale and shift
        repeat without the broadcast over the bound vectors.
        """
        draws = rng.random((count, self.dim))
        draws *= self.width
        draws += self.lower
        return draws


def _dare(a, b, q, r):
    """Stabilizing solution ``P`` of the discrete algebraic Riccati equation.

    ``P = A'PA - A'PB (R + B'PB)^-1 B'PA + Q``, by the structure-preserving
    doubling algorithm (Chu, Fan, Lin & Wang, Int. J. Control 2004). From
    ``A``, ``G = B R^-1 B'`` and ``H = Q``, each pass takes ``H`` from the
    Riccati recursion's cost at horizon ``2^k`` to the one at ``2^(k+1)``,
    so ``H`` converges quadratically; the loop ends at the first pass that
    leaves it unchanged (the ninth for CWH at T = 20 s). An equation whose
    iteration does not settle in 64 passes, or meets a singular system on
    the way (CWH at T = 2e10 s, say), raises :class:`NumericalError`.
    """
    n = a.shape[0]
    g = b @ np.linalg.solve(r, b.T)
    h = q
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(64):
            try:
                w = np.linalg.solve(np.eye(n) + g @ h, np.hstack([a, g]))
            except np.linalg.LinAlgError:
                break
            h_next = h + a.T @ h @ w[:, :n]
            g = g + a @ w[:, n:] @ a.T
            a = a @ w[:, :n]
            if np.array_equal(h_next, h):
                return h
            h = h_next
    raise NumericalError("the Riccati iteration for the LQR gain did not converge")


def cwh_lqr_policy(system):
    """Stabilizing feedback for the CWH system from a discrete Riccati solve.

    The weights penalize velocity error more strongly than position
    error, which produces gentle approaches that respect the small force
    bound. Controls saturate at the system's declared bound.
    """
    if not isinstance(system, CWHSystem):
        raise InputError("cwh_lqr_policy requires a CWHSystem")
    q = np.diag([1.0, 1.0, 1e3, 1e3])
    r = np.eye(2) * 1e4
    # _dare writes none of its arguments, so it takes the system's own
    a, b = system._a, system._b
    p = _dare(a, b, q, r)
    gain = np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
    bound = system.control_bound
    return AffinePolicy(gain, lower=-bound, upper=bound)


def cwh_sets():
    """Target and safe sets of the rendezvous benchmark.

    The target is a small docking box just below the origin with tight
    velocity bounds (strict inequalities on the approach axis); the safe
    set is the line-of-sight cone ``|x| < |y|`` with looser velocity
    bounds. Returned as ``(target, safe)``.
    """

    def in_target(z):
        return (
            (np.abs(z[:, 0]) <= 0.1)
            & (z[:, 1] > -0.1)
            & (z[:, 1] < 0.0)
            & (np.abs(z[:, 2]) <= 0.01)
            & (np.abs(z[:, 3]) <= 0.01)
        )

    def in_safe(z):
        return (
            (np.abs(z[:, 0]) < np.abs(z[:, 1]))
            & (np.abs(z[:, 2]) <= 0.05)
            & (np.abs(z[:, 3]) <= 0.05)
        )

    return PredicateSet(in_target, dim=4), PredicateSet(in_safe, dim=4)


def generate_transitions(system, policy, state_sampler, disturbance, count, seed):
    """Draw one-step transitions ``(x_i, u_i) -> y_i`` reproducibly.

    Start states come from ``state_sampler``, controls from the policy at
    step 0, and successors from one system step under the disturbance.
    The draw order (states first, then disturbances) is fixed, so equal
    arguments give bit-identical samples. The sample's metadata records
    the system, its sampling time, the seed, the policy and the
    disturbance.

    The disturbance is drawn and the states are stepped in row blocks of
    :func:`~rkhs_reach._backend.block_rows`, each block's successors
    written into the sample as it is done, so besides the states and the
    successors only a block's worth of noise is live (at n = 10 000 and
    256 samples, 40.5 MiB traced at the peak by ``tools/phase_peaks.py``,
    against 39.1 MiB of states and successors). A disturbance's
    ``draw(rng, k)`` must therefore give the same rows whether it is
    called once or in consecutive pieces, as numpy's generators do when
    they fill arrays in order; :func:`~rkhs_reach.oracle.mc_reach`'s
    chunks rely on the same.
    """
    count = int(count)
    if count < 1:
        raise InputError(f"sample count must be >= 1, got {count}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    if state_sampler.dim != system.n:
        raise InputError(
            f"state sampler dimension {state_sampler.dim} does not match "
            f"system dimension {system.n}"
        )
    if disturbance.dim != system.n:
        raise InputError(
            f"disturbance dimension {disturbance.dim} does not match "
            f"system dimension {system.n}"
        )
    rng = np.random.default_rng(seed)
    states = state_sampler.draw(rng, count)
    controls = policy(0, states)
    successors = np.empty((count, system.n))
    block = _backend.block_rows(system.n)
    for s in range(0, count, block):
        u = None if controls is None else controls[s : s + block]
        draws = disturbance.draw(rng, min(block, count - s))
        # a step that overflows leaves non-finite successors, which the
        # TransitionSample check below reports
        with np.errstate(over="ignore", invalid="ignore"):
            successors[s : s + block] = system.step(states[s : s + block], u, draws)
    meta = {
        "system": system.name,
        "dim": str(system.n),
        "seed": str(seed),
        "count": str(count),
        "policy": getattr(policy, "description", type(policy).__name__),
        "disturbance": disturbance.kind,
        "sampling_time": format(system.sampling_time, ".17g"),
    }
    return TransitionSample(
        states=states, controls=controls, successors=successors, metadata=meta
    )
