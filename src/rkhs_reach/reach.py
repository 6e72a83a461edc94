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
clamped to [0, 1] before the safe-set indicator is applied, so every
returned value is a valid probability.

The grid and Monte Carlo oracles implement the same recursion and event
definition independently; :func:`exact_terminal` and :func:`exact_step`
spell out the shared semantics in one place.
"""

from dataclasses import dataclass

import numpy as np

from .embedding import Embedding
from .errors import InputError

__all__ = [
    "BoxSet",
    "PredicateSet",
    "ReachProblem",
    "ValueField",
    "value_recursion",
    "value_recursion_max",
    "exact_terminal",
    "exact_step",
    "checked_points",
]


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
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self.dim:
            raise InputError(
                f"points have dimension {points.shape[1]}, box has {self.dim}"
            )
        return np.all((points >= self.lower) & (points <= self.upper), axis=1)


class PredicateSet:
    """Membership set defined by a vectorized predicate on state rows."""

    def __init__(self, fn, dim):
        self.fn = fn
        self.dim = dim

    def contains(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self.dim:
            raise InputError(
                f"points have dimension {points.shape[1]}, set expects {self.dim}"
            )
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


def exact_terminal(target_indicator):
    """Terminal condition of the exact recursion: the target indicator."""
    return np.asarray(target_indicator, dtype=np.float64)


def exact_step(safe_indicator, expected_next):
    """One exact backward step: safe indicator times expected next value."""
    return np.asarray(safe_indicator, dtype=np.float64) * np.asarray(
        expected_next, dtype=np.float64
    )


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


def _clamped_step(weights, next_values, safe_mask):
    est = next_values @ weights
    np.clip(est, 0.0, 1.0, out=est)
    est *= safe_mask
    return est


def _update_weights(emb, policy, k, states, held):
    """Bring ``held = [controls, weights]`` to ``policy`` at step k.

    ``held`` is the candidate's pair from its last step (``[None, None]``
    before the first). The policy is queried at every step, and weights
    are solved again only when its controls differ from the held ones.
    The controls are kept as an owned copy, so a policy that refills and
    returns one buffer cannot look like a repeat. Without control
    columns the policy is not queried and one solve serves every step.
    """
    controls = None
    if emb.sample.control_dim:
        controls = np.array(policy(k, states), dtype=np.float64)
    if held[1] is None or (
        controls is not None and not np.array_equal(controls, held[0])
    ):
        held[1] = None  # free the old matrix before solving the new one
        held[:] = controls, emb.weights(states, controls)


# evaluation points per block of the points pass; bounds the one live
# point-weight matrix to M x _POINT_BLOCK (16 MB at M = 1024)
_POINT_BLOCK = 2048


def _recursion(emb, problem, points, policies):
    """Backward recursion maximizing over candidate policies.

    Returns the points, the value rows and the winning candidate per step
    and point. Successor values (row k is step k) come first; then the
    points are swept in blocks of ``_POINT_BLOCK``, and within a block
    one candidate at a time through all steps, so one point-weight
    matrix of at most ``_POINT_BLOCK`` columns is alive at once. Each
    candidate is queried once per step (and block), and its weights are
    reused while its controls repeat (see :func:`_update_weights`). A
    strict ``>`` keeps the lowest index on ties.
    """
    if not isinstance(emb, Embedding):
        raise InputError("emb must be a fitted Embedding")
    points = checked_points(points, emb.sample.state_dim)
    successors = emb.sample.successors
    n_steps = problem.horizon
    mask_pts = problem.safe.contains(points).astype(np.float64)
    mask_succ = problem.safe.contains(successors).astype(np.float64)
    v_succ = np.full((n_steps + 1, successors.shape[0]), -np.inf)
    v_succ[n_steps] = exact_terminal(problem.target.contains(successors))
    held = [[None, None] for _ in policies]
    for k in range(n_steps - 1, 0, -1):
        for c, policy in enumerate(policies):
            _update_weights(emb, policy, k, successors, held[c])
            est = _clamped_step(held[c][1], v_succ[k + 1], mask_succ)
            np.maximum(v_succ[k], est, out=v_succ[k])
    del held  # M x M per candidate; the points pass reads only v_succ
    values = np.full((n_steps + 1, points.shape[0]), -np.inf)
    values[n_steps] = exact_terminal(problem.target.contains(points))
    choices = np.zeros((n_steps, points.shape[0]), dtype=np.int64)
    for start in range(0, points.shape[0], _POINT_BLOCK):
        block = slice(start, start + _POINT_BLOCK)
        for c, policy in enumerate(policies):
            last = [None, None]  # frees the previous candidate's matrix
            for k in range(n_steps - 1, -1, -1):
                _update_weights(emb, policy, k, points[block], last)
                est = _clamped_step(last[1], v_succ[k + 1], mask_pts[block])
                best = values[k, block]  # views: writes land in the rows
                better = est > best
                best[better] = est[better]
                choices[k, block][better] = c
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
        when the sample has no control columns. It is queried once per
        step for the successors and once per step and block of
        evaluation points; its weights are solved again only when the
        controls differ from the previous step's, so a policy whose
        controls do not depend on k costs one solve per block.

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
    exactly. The evaluation points are swept in blocks of at most 2048;
    within a block each control's weights are computed once and reused
    at every step, and one point-weight matrix (M x 2048 at most) is
    alive at a time, whatever the number of points. The successor pass
    before it keeps one M x M weight matrix per control alive, so that
    memory grows with the grid size.

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
    # not ConstantPolicy: systems imports this module
    policies = [
        lambda k, states, u=u: np.tile(u, (states.shape[0], 1))
        for u in control_grid
    ]
    points, values, choices = _recursion(emb, problem, points, policies)
    return ValueField(points=points, values=values, policy_choices=choices)
