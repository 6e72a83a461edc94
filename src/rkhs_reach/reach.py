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
    "grid_points",
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

# booleans per comparison in one block of wider rows: the two
# comparisons hold 256 KB, not two (P, n) masks (4.9 MiB for the
# successors at n = 10 000 and 256 samples)
_BOX_BLOCK = 131072


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
        if self.dim <= _NARROW_ROW:
            inside = np.greater_equal(points, self.lower, order="F")
            inside &= np.less_equal(points, self.upper, order="F")
            return np.logical_and.reduce(inside, axis=1)
        out = np.empty(points.shape[0], dtype=bool)
        rows = max(1, _BOX_BLOCK // self.dim)
        above, below = np.empty((2, min(rows, points.shape[0]), self.dim), dtype=bool)
        for s in range(0, points.shape[0], rows):
            block = points[s : s + rows]
            inside = np.greater_equal(block, self.lower, out=above[: len(block)])
            inside &= np.less_equal(block, self.upper, out=below[: len(block)])
            np.logical_and.reduce(inside, axis=1, out=out[s : s + rows])
        return out


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


def grid_points(shape, lower, upper):
    """The axes and the nodes of a 2-D grid over the box ``lower``..``upper``.

    Axis d holds ``shape[d]`` evenly spaced coordinates from ``lower[d]``
    to ``upper[d]``; the nodes are one per row, the second coordinate
    varying fastest. Returns ``(axes, points)``.
    """
    axes = [np.linspace(lower[d], upper[d], shape[d]) for d in range(2)]
    g1, g2 = np.meshgrid(*axes, indexing="ij")
    return axes, np.column_stack([g1.ravel(), g2.ravel()])


def _head(buffer, rows, cols):
    """The first ``rows * cols`` entries of a flat ``buffer`` as a C-ordered matrix."""
    return buffer[: rows * cols].reshape(rows, cols)


def _sweep(emb, policies, states, steps, v_succ, out, cols, buffers, choices=None):
    """Backward steps ``steps`` at ``states``, maximized over ``policies``.

    At step k each candidate estimates ``clip(v_succ[k + 1] @ W, 0, 1)``
    with its weights ``W``; the largest goes to ``out[k, cols]`` and its
    index, when ``choices`` is given, to ``choices[k, cols]``, ties to
    the lowest index. A candidate is queried at every step and holds its
    controls (an owned copy, so a refilled buffer is no repeat) and its
    weights, solved again only when the weights read the controls
    (:attr:`Embedding.reads_controls`) and these changed. Without
    control columns no policy is queried. ``buffers`` are flat float
    arrays of at least M times the number of states entries: the kernel
    matrix of every solve goes to the first, the weights of candidate c
    to buffer ``c + 1``.
    """
    m, p = emb.sample.count, states.shape[0]
    cross = _head(buffers[0], m, p)
    held = [[None, None] for _ in policies]
    for k in steps:
        best = np.full(p, -np.inf)
        pick = np.zeros(p, dtype=np.int64)
        for c, (policy, pair) in enumerate(zip(policies, held)):
            controls = None
            if emb.sample.control_dim:
                controls = np.array(policy(k, states), dtype=np.float64)
            if pair[1] is None or (
                emb.reads_controls and not np.array_equal(controls, pair[0])
            ):
                w = _head(buffers[c + 1], m, p)
                pair[:] = controls, emb.weights(states, controls, out=(w, cross))
            est = v_succ[k + 1] @ pair[1]
            np.clip(est, 0.0, 1.0, out=est)
            better = est > best
            best[better] = est[better]
            pick[better] = c
        out[k, cols] = best
        if choices is not None:
            choices[k, cols] = pick


# evaluation points per block of the points pass, shared by the
# candidates, and at most M: the kernel matrix and each candidate's
# weights go to buffers of M x min(_POINT_BLOCK, M) entries (8 MB at
# M = 1024), or of what the successor pass held if more
_POINT_BLOCK = 1024


def _recursion(emb, problem, points, policies, choose=False):
    """Backward recursion maximizing over candidate policies.

    Returns the points, the value rows and, with ``choose``, the
    winning candidate per step and point (else None). Only safe states
    are weighed, since every value is 0 outside the safe set: an unsafe
    successor or evaluation point gets no kernel column, no weight
    column and no policy query, its value is +0.0 at every step k < N
    (row N stays the exact target indicator) and its choice is 0. Both
    passes run through :func:`_sweep`: first the successor values (row
    k is step k) over the safe successors, only when some evaluation
    point is safe, each candidate solving an M x S weight matrix (S
    safe successors); then the safe points in blocks of ``B // C`` for
    C candidates and ``B = min(_POINT_BLOCK, M)``, but at least
    ``min(S, B)``, each gathered on its own. The kernel matrix and each
    candidate's weights are written to C + 1 buffers allocated once per
    call, each of M times the widest block, or S if more: at most two
    M x M matrices for one candidate, whatever the number of points.
    When the weights do not read the controls
    (:attr:`Embedding.reads_controls`) only the first candidate is run,
    since ties keep the lowest index.
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
    # successor values are read only at safe points
    n_succ = safe_succ.size if safe_pts.size else 0
    # a candidate's block is as wide as its successor matrix (up to one
    # block), which its buffer holds anyway, so no product re-reads the
    # M x M inverse for only a few columns (at M = 1024, 68-column
    # products took 1.8x the time of 2048-column ones; OpenBLAS, 2-vCPU
    # x86 VM)
    m = emb.sample.count
    widest = min(_POINT_BLOCK, m)
    block = max(1, widest // len(policies), min(n_succ, widest))
    width = max(min(block, safe_pts.size), n_succ)
    v_succ = np.zeros((n_steps + 1, successors.shape[0]))
    v_succ[n_steps] = problem.target.contains(successors)
    values = np.zeros((n_steps + 1, points.shape[0]))
    values[n_steps] = problem.target.contains(points)
    choices = None
    if choose:
        choices = np.zeros((n_steps, points.shape[0]), dtype=np.int64)
    buffers = [np.empty(m * width) for _ in range(len(policies) + 1)]
    if n_succ:
        _sweep(
            emb, policies, successors[safe_succ], range(n_steps - 1, 0, -1),
            v_succ, v_succ, safe_succ, buffers,
        )
    for start in range(0, safe_pts.size, block):
        rows = safe_pts[start : start + block]
        _sweep(
            emb, policies, points[rows], range(n_steps - 1, -1, -1),
            v_succ, values, rows, buffers, choices,
        )
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
    reads +0.0 before the last step and choice 0. Each step runs every
    control in turn. Each control holds one weight buffer of M x S
    entries or more, where S is the number of safe successors, so that
    memory grows with the grid size. The safe evaluation points are
    then swept in blocks shared by the controls, B // C points each for
    C controls and B = min(1024, M), but at least min(S, B), so
    together they hold at most M x max(B, C S) point weights, no more
    than the successor pass, whatever the number of points; within a
    block each control's weights are computed once and reused at every
    step. A weight column's bits can depend on its block's width
    (README, "Numerics"), so with several controls a normalized value
    can fall below that control's :func:`value_recursion` by round-off
    (at most 4.4e-15, at up to 24 of 30 603 cells per control, on the
    101 x 101 benchmark grid with 1024-sample uniform-control samples
    of seeds 0 to 2); raw
    weights can be negative, so raw mode has no such bound. A
    normalized fit of a sample whose controls are all equal gives
    every control the same weights (:attr:`Embedding.reads_controls`),
    so only the first is evaluated, with one M x S matrix, and every
    choice is 0.

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
    points, values, choices = _recursion(emb, problem, points, policies, choose=True)
    return ValueField(points=points, values=values, policy_choices=choices)
