"""Finite-horizon reach-avoid value recursion over sampled transitions.

The quantity computed is the probability that a trajectory hits the
target set exactly at the final step while staying inside the safe set at
every earlier step (the initial state included). Its exact backward
recursion is

    V_N(x) = 1 if x is in the target set else 0
    V_k(x) = 1_safe(x) * E[ V_{k+1}(y) | x, u = policy_k(x) ]

and the policy-optimizing variant takes a sup over controls inside the
expectation. This module evaluates the recursion with the conditional
expectation replaced by a fitted :class:`~rkhs_reach.embedding.Embedding`
estimate: at each step the previous value estimates at the sampled
successor states act as the function being averaged. Estimates are
clamped to [0, 1], so every returned value is a valid probability, and
only states inside the safe set are estimated: the indicator makes
every other value 0 before the last step. The policies the recursion
queries, ``policy(k, states) -> controls``, are defined here too.
"""

from dataclasses import dataclass

import numpy as np

from .embedding import Embedding
from .errors import InputError

__all__ = [
    "ConstantPolicy",
    "ZeroPolicy",
    "AffinePolicy",
    "BoxSet",
    "PredicateSet",
    "ReachProblem",
    "ValueField",
    "value_recursion",
    "value_recursion_max",
    "checked_points",
]


def _state_rows(points, dim):
    """``points`` as float rows of length ``dim``, the argument of ``contains``."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[1] != dim:
        raise InputError(f"points have dimension {points.shape[1]}, set has {dim}")
    return points


# widest row that BoxSet.contains tests column-major; at 65 536 rows the
# column-major test is 8x faster at 2 columns and 2x slower at 16
# (numpy 2.4, 2-vCPU x86 VM)
_NARROW_ROW = 8


class BoxSet:
    """Axis-aligned box with inclusive faces: lower <= x <= upper."""

    def __init__(self, lower, upper):
        lower = np.atleast_1d(np.asarray(lower, dtype=np.float64))
        upper = np.atleast_1d(np.asarray(upper, dtype=np.float64))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise InputError("box bounds must be equal-length vectors")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise InputError("box bounds must be finite")
        if np.any(lower > upper):
            raise InputError("box has lower bound above upper bound")
        self.lower = lower
        self.upper = upper

    @property
    def dim(self):
        return self.lower.shape[0]

    def contains(self, points):
        points = _state_rows(points, self.dim)
        # the per-row AND runs along memory: column-major for narrow rows,
        # where reducing a few bytes per row costs more than the compares
        order = "F" if self.dim <= _NARROW_ROW else "C"
        inside = np.greater_equal(points, self.lower, order=order)
        inside &= np.less_equal(points, self.upper, order=order)
        return np.logical_and.reduce(inside, axis=1)


class PredicateSet:
    """Membership set defined by a vectorized predicate on state rows."""

    def __init__(self, fn, dim):
        self.fn = fn
        self.dim = dim

    def contains(self, points):
        points = _state_rows(points, self.dim)
        out = np.asarray(self.fn(points))
        if out.shape != (points.shape[0],):
            raise InputError("set predicate must return one boolean per row")
        return out.astype(bool)


@dataclass(frozen=True)
class ReachProblem:
    """Safe set, target set, and horizon of one reach-avoid instance."""

    safe: object
    target: object
    horizon: int

    def __post_init__(self):
        if int(self.horizon) != self.horizon or self.horizon < 1:
            raise InputError(f"horizon must be an integer >= 1, got {self.horizon}")
        object.__setattr__(self, "horizon", int(self.horizon))


@dataclass
class ValueField:
    """Values of every recursion step at a fixed evaluation-point set.

    ``values[k][p]`` is the probability estimate for starting at
    ``points[p]`` with ``horizon - k`` steps remaining; row ``horizon``
    is the exact target indicator. ``policy_choices[k][p]``, present for
    the maximizing recursion, is the index into the control grid chosen
    at step k.
    """

    points: np.ndarray
    values: np.ndarray
    policy_choices: np.ndarray = None

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[1] != self.points.shape[0]:
            raise InputError("values must have one column per evaluation point")

    @property
    def horizon(self):
        return self.values.shape[0] - 1


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


class ZeroPolicy(ConstantPolicy):
    """Zero control at every state and step."""

    def __init__(self, control_dim):
        super().__init__(np.zeros(int(control_dim)))
        self.description = "zero"


class AffinePolicy:
    """Saturated linear state feedback ``u = clip(-gain @ x)``."""

    def __init__(self, gain, lower=None, upper=None):
        self.gain = np.atleast_2d(np.asarray(gain, dtype=np.float64))
        self.lower = lower
        self.upper = upper
        self.description = (
            f"affine-feedback({self.gain.shape[0]}x{self.gain.shape[1]})"
        )

    def __call__(self, k, states):
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        # 0.0 - p, not -p: a zero control stays +0.0
        u = 0.0 - states @ self.gain.T
        if self.lower is not None or self.upper is not None:
            np.clip(u, self.lower, self.upper, out=u)
        return u


def checked_points(points, dim):
    """Evaluation points as a float (P, dim) array, P >= 1, every entry finite.

    The one check of the points (or start states) of all three
    estimators; raises :class:`InputError` otherwise.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.ndim != 2 or points.shape[0] == 0:
        raise InputError("evaluation points must be a non-empty 2-D array")
    if points.shape[1] != dim:
        raise InputError(
            f"evaluation points have dimension {points.shape[1]}, expected {dim}"
        )
    if not np.all(np.isfinite(points)):
        raise InputError("evaluation points must be finite")
    return points


def _clamped_step(weights, next_values):
    est = next_values @ weights
    np.clip(est, 0.0, 1.0, out=est)
    return est


def _update_weights(emb, policy, k, states, held):
    """Bring ``held = [controls, weights]`` to ``policy`` at step k.

    ``held`` is the candidate's pair from its last step (``[None, None]``
    before the first). The policy is queried at every step. Weights are
    solved again only when the embedding reads the controls
    (:attr:`Embedding.reads_controls`) and they differ from the held
    ones; otherwise the first solve serves every step. The controls are
    kept as an owned copy, so a policy that refills and returns one
    buffer cannot look like a repeat. Without control columns the policy
    is not queried.
    """
    controls = None
    if emb.sample.control_dim:
        controls = np.array(policy(k, states), dtype=np.float64)
    if held[1] is None or (
        emb.reads_controls and not np.array_equal(controls, held[0])
    ):
        held[1] = None  # free the old matrix before solving the new one
        held[:] = controls, emb.weights(states, controls)


# evaluation points per block of the points pass; bounds the one live
# point-weight matrix to M x _POINT_BLOCK (16 MB at M = 1024)
_POINT_BLOCK = 2048


def _recursion(emb, problem, points, policies):
    """Backward recursion maximizing over candidate policies.

    Returns the points, the value rows and the winning candidate per step
    and point. Only safe states are weighed, since every value is 0
    outside the safe set: an unsafe successor or evaluation point gets
    no kernel column, no weight column and no policy query, its value is
    +0.0 at every step k < N (row N stays the exact target indicator) and
    its choice is 0. Successor values (row k is step k) come first, over
    the safe successors, and only when some evaluation point is safe.
    Then the safe points are swept in blocks of ``_POINT_BLOCK``, each
    block's rows gathered on their own so the points are never copied
    whole, and within a block one candidate at a time through all steps,
    so one point-weight matrix of at most ``_POINT_BLOCK`` columns is
    alive at once. Each candidate is queried once per step (and block),
    and its weights are reused while its controls repeat (see
    :func:`_update_weights`). A strict ``>`` keeps the lowest index on
    ties, so when the weights do not read the controls
    (:attr:`Embedding.reads_controls`) only the first candidate is run.
    """
    if not isinstance(emb, Embedding):
        raise InputError("emb must be a fitted Embedding")
    if not emb.reads_controls:
        policies = policies[:1]
    points = checked_points(points, emb.sample.state_dim)
    successors = emb.sample.successors
    n_steps = problem.horizon
    safe_pts = np.flatnonzero(problem.safe.contains(points))
    safe_succ = np.flatnonzero(problem.safe.contains(successors))
    v_succ = np.zeros((n_steps + 1, successors.shape[0]))
    v_succ[n_steps] = problem.target.contains(successors)
    # successor values are read only at safe points
    if safe_pts.size and safe_succ.size:
        states = successors[safe_succ]
        held = [[None, None] for _ in policies]
        for k in range(n_steps - 1, 0, -1):
            best = np.full(safe_succ.size, -np.inf)
            for c, policy in enumerate(policies):
                _update_weights(emb, policy, k, states, held[c])
                np.maximum(best, _clamped_step(held[c][1], v_succ[k + 1]), out=best)
            v_succ[k, safe_succ] = best
        del held  # M x S per candidate; the points pass reads only v_succ
    values = np.zeros((n_steps + 1, points.shape[0]))
    values[n_steps] = problem.target.contains(points)
    choices = np.zeros((n_steps, points.shape[0]), dtype=np.int64)
    for start in range(0, safe_pts.size, _POINT_BLOCK):
        rows = safe_pts[start : start + _POINT_BLOCK]
        block = points[rows]
        best = np.full((n_steps, rows.size), -np.inf)
        pick = np.zeros((n_steps, rows.size), dtype=np.int64)
        for c, policy in enumerate(policies):
            last = [None, None]  # frees the previous candidate's matrix
            for k in range(n_steps - 1, -1, -1):
                _update_weights(emb, policy, k, block, last)
                est = _clamped_step(last[1], v_succ[k + 1])
                better = est > best[k]
                best[k, better] = est[better]
                pick[k, better] = c
        values[:n_steps, rows] = best
        choices[:, rows] = pick
    return points, values, choices


def value_recursion(emb, problem, points, policy):
    """Run the backward recursion under a fixed policy.

    Parameters
    ----------
    emb : Embedding
    problem : ReachProblem
    points : (P, n) array
        States at which values are reported.
    policy : callable
        ``policy(k, states) -> controls`` with one row per state. Ignored
        when the sample has no control columns. It is queried at safe
        states only: once per step for the safe sampled successors and
        once per step and block of safe evaluation points. Its weights
        are solved again only when the controls differ from the previous
        step's and the weights read them, so a policy whose controls do
        not depend on k costs one solve per block. Unsafe points read
        +0.0 before the last step.

    Returns
    -------
    ValueField
    """
    points, values, _ = _recursion(emb, problem, points, [policy])
    return ValueField(points=points, values=values)


def value_recursion_max(emb, problem, points, control_grid):
    """Run the backward recursion maximizing over a finite control grid.

    At every step and every state the clamped expectation estimate is
    computed for each control in the grid and the largest is kept; ties
    resolve to the lowest grid index. With a single-entry grid the result
    matches :func:`value_recursion` under the matching constant policy
    exactly. Only safe states are weighed; an unsafe evaluation point
    reads +0.0 before the last step and choice 0. The safe evaluation
    points are swept in blocks of at most 2048; within a block each
    control's weights are computed once and reused at every step, and
    one point-weight matrix (M x 2048 at most) is alive at a time,
    whatever the number of points. The successor pass before it keeps
    one M x S weight matrix per control alive, where S is the number of
    safe successors, so that memory grows with the grid size. A
    normalized fit of a sample whose controls are all equal gives every
    control the same weights (:attr:`Embedding.reads_controls`), so only
    the first is evaluated, with one M x S matrix, and every choice is 0.

    Returns
    -------
    ValueField
        With ``policy_choices`` filled with argmax indices.
    """
    control_grid = np.atleast_2d(np.asarray(control_grid, dtype=np.float64))
    if control_grid.shape[0] == 0:
        raise InputError("control grid is empty")
    m = emb.sample.control_dim
    if m == 0:
        raise InputError("sample has no control columns, cannot maximize")
    if control_grid.shape[1] != m:
        raise InputError(
            f"control grid entries have dimension {control_grid.shape[1]}, "
            f"sample controls have {m}"
        )
    policies = [ConstantPolicy(u) for u in control_grid]
    points, values, choices = _recursion(emb, problem, points, policies)
    return ValueField(points=points, values=values, policy_choices=choices)
