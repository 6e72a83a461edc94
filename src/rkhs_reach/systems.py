"""Benchmark dynamics, disturbance samplers, policies, and sample generation.

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
from scipy.linalg import expm, solve_discrete_are
from scipy.special import gammaln

from . import _backend
from .embedding import TransitionSample
from .errors import InputError
from .reach import BoxSet, PredicateSet

__all__ = [
    "IntegratorChain",
    "CWHSystem",
    "GaussianDisturbance",
    "BetaDisturbance",
    "ZeroDisturbance",
    "BoxSampler",
    "ZeroPolicy",
    "ConstantPolicy",
    "AffinePolicy",
    "cwh_lqr_policy",
    "cwh_sets",
    "generate_transitions",
]

EARTH_MU = 3.986004418e14  # m^3 / s^2
EARTH_RADIUS = 6371.0e3  # m


class _LinearSystem:
    """Discrete-time ``x' = A x + B u + w``, one state per row.

    Subclasses set ``n``, ``m``, ``_b`` (n x m) and either ``_a`` (n x n)
    or their own ``apply_a`` and ``dense_a``. A subclass that declares a
    per-axis ``control_bound`` gets a warning from :meth:`step` for
    controls beyond it.
    """

    control_bound = None

    def dense_a(self):
        return self._a.copy()

    def dense_b(self):
        return self._b.copy()

    def apply_a(self, states):
        """Row-wise product with the state matrix."""
        return states @ self._a.T

    def step(self, states, controls, disturbances):
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        if states.shape[1] != self.n:
            raise InputError(
                f"{self.name} states must have {self.n} components, "
                f"got {states.shape[1]}"
            )
        out = self.apply_a(states)
        if controls is not None and np.size(controls) > 0:
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
            out += controls @ self._b.T
        if disturbances is not None:
            out += disturbances
        return out


class IntegratorChain(_LinearSystem):
    """Discrete n-dimensional integrator chain with control on the last state.

    State component i is the sampled integral of component i+1, and the
    scalar control enters through the final component. The state matrix
    is upper-triangular Toeplitz with ``c_j = T^j / j!`` on the j-th
    superdiagonal and the input vector has ``c_(n-i)`` in row i
    (0-indexed).

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
        j = np.arange(n + 1)
        with np.errstate(under="ignore", over="ignore"):
            taylor = np.exp(j * math.log(sampling_time) - gammaln(j + 1.0))
            tail = np.cumsum(taylor[n - 1 :: -1])[::-1]  # sum of c_i, i >= j
        # the row sum bounds every c_i of A; B adds only c_n
        if not (np.isfinite(tail[0]) and np.isfinite(taylor[n])):
            raise InputError(
                f"sampling time {sampling_time} overflows the state or input "
                f"matrix of the {n}-dimensional integrator chain"
            )
        band = np.count_nonzero(tail > 2.0**-53 * tail[0])
        self._coeffs = taylor[:band]
        self._b = taylor[n:0:-1, None].copy()  # row i: c_(n-i)

    @property
    def bandwidth(self):
        """Number of kept diagonals: the main one and those above it."""
        return self._coeffs.shape[0]

    def dense_a(self):
        if self.n > 4096:
            raise InputError("dense state matrix is limited to n <= 4096")
        a = np.zeros((self.n, self.n))
        for j in range(min(self.bandwidth, self.n)):
            idx = np.arange(self.n - j)
            a[idx, idx + j] = self._coeffs[j]
        return a

    def apply_a(self, states):
        """Row-wise product with the state matrix, via the banded form."""
        return _backend.chain_apply(self._coeffs, states)


class CWHSystem(_LinearSystem):
    """In-plane spacecraft relative motion, exactly discretized.

    State is ``(x, y, vx, vy)`` in meters and meters per second in the
    target's rotating frame; control is a force in newtons, bounded per
    axis by ``control_bound``. The continuous equations

        ax = 3 w^2 x + 2 w vy + Fx / mass
        ay = -2 w vx + Fy / mass

    with the orbital rate ``w = sqrt(mu / a^3)`` of a circular orbit
    ``orbit_altitude`` above the Earth's surface (kept as
    ``orbital_rate``), are discretized under zero-order hold: ``[A B]``
    is the top block row of ``expm([[Ac, Bc], [0, 0]] T)`` (Van Loan,
    IEEE TAC 1978). Unlike the closed form in ``sin wT`` and ``cos wT``, this does not
    cancel as ``w`` goes to zero, so geostationary and lunar-distance
    orbits work too. Controls beyond the bound draw a warning in
    ``step``; they are not clipped.
    """

    name = "cwh"
    n = 4
    m = 2

    def __init__(
        self,
        sampling_time=20.0,
        mass=300.0,
        orbit_altitude=850.0e3,
        control_bound=0.1,
    ):
        # ``0 < x < inf`` is false for NaN too
        sampling_time = float(sampling_time)
        if not 0.0 < sampling_time < math.inf:
            raise InputError("sampling time must be positive and finite")
        mass = float(mass)
        if not 0.0 < mass < math.inf:
            raise InputError("mass must be positive and finite")
        semi_major = EARTH_RADIUS + float(orbit_altitude)
        if not 0.0 < semi_major < math.inf:
            raise InputError(
                "orbit altitude must give a positive, finite semi-major "
                f"axis, got {semi_major}"
            )
        try:
            orbital_rate = math.sqrt(EARTH_MU / semi_major**3)
        except OverflowError:
            raise InputError(
                f"orbit altitude {orbit_altitude} overflows the cubed semi-major axis"
            )
        control_bound = float(control_bound)
        if not control_bound > 0.0:
            raise InputError(f"control bound must be positive, got {control_bound}")
        self.sampling_time = sampling_time
        self.orbital_rate = orbital_rate
        self.mass = mass
        self.control_bound = control_bound

        w = orbital_rate
        block = np.zeros((6, 6))  # [[Ac, Bc], [0, 0]]
        block[0, 2] = block[1, 3] = 1.0
        block[2, 0] = 3.0 * w * w
        block[2, 3] = 2.0 * w
        block[3, 2] = -2.0 * w
        block[2, 4] = block[3, 5] = 1.0 / mass
        phi = expm(block * sampling_time)
        self._a = phi[:4, :4].copy()
        self._b = phi[:4, 4:].copy()

    def default_disturbance(self):
        """Diagonal Gaussian acting on the discrete state update."""
        return GaussianDisturbance.from_covariance_diagonal(
            [1e-4, 1e-4, 5e-8, 5e-8]
        )


class GaussianDisturbance:
    """Independent zero-mean Gaussian noise per state component."""

    kind = "gaussian"

    def __init__(self, sd):
        sd = np.atleast_1d(np.asarray(sd, dtype=np.float64))
        if sd.ndim != 1 or np.any(sd <= 0.0) or not np.all(np.isfinite(sd)):
            raise InputError("standard deviations must be positive and finite")
        self.sd = sd

    @classmethod
    def from_covariance_diagonal(cls, diag):
        diag = np.atleast_1d(np.asarray(diag, dtype=np.float64))
        if np.any(diag <= 0.0):
            raise InputError("covariance diagonal must be positive")
        return cls(np.sqrt(diag))

    @property
    def dim(self):
        return self.sd.shape[0]

    def draw(self, rng, count):
        return rng.normal(0.0, self.sd, size=(count, self.dim))


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
    """Uniform sampler over an axis-aligned box with finite bounds."""

    def draw(self, rng, count):
        return rng.uniform(self.lower, self.upper, size=(count, self.dim))


class ZeroPolicy:
    """Zero control at every state and step."""

    def __init__(self, control_dim):
        self.control_dim = int(control_dim)
        self.description = "zero"

    def __call__(self, k, states):
        return np.zeros((np.atleast_2d(states).shape[0], self.control_dim))


class ConstantPolicy:
    """The same control vector at every state and step."""

    def __init__(self, control):
        self.control = np.atleast_1d(np.asarray(control, dtype=np.float64))
        self.description = "constant:" + ",".join(
            format(v, ".17g") for v in self.control
        )

    def __call__(self, k, states):
        count = np.atleast_2d(states).shape[0]
        return np.tile(self.control, (count, 1))


class AffinePolicy:
    """Saturated linear state feedback ``u = clip(offset - gain @ x)``."""

    def __init__(self, gain, offset=None, lower=None, upper=None):
        self.gain = np.atleast_2d(np.asarray(gain, dtype=np.float64))
        m = self.gain.shape[0]
        self.offset = (
            np.zeros(m)
            if offset is None
            else np.atleast_1d(np.asarray(offset, dtype=np.float64))
        )
        if self.offset.shape != (m,):
            raise InputError("offset length must match gain rows")
        self.lower = lower
        self.upper = upper
        self.description = f"affine-feedback({m}x{self.gain.shape[1]})"

    def __call__(self, k, states):
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        u = self.offset - states @ self.gain.T
        if self.lower is not None or self.upper is not None:
            np.clip(u, self.lower, self.upper, out=u)
        return u


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
    a, b = system.dense_a(), system.dense_b()
    p = solve_discrete_are(a, b, q, r)
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
    draws = disturbance.draw(rng, count)
    successors = system.step(states, controls, draws)
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
