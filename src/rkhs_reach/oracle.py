"""Independent ground-truth estimators for reach-avoid probabilities.

Two oracles with disjoint numerics serve as references for the kernel
estimator: a dense-grid backward recursion for 2-D linear systems under
Gaussian noise, and a Monte Carlo rollout estimator for anything the
package can simulate. Both implement the exact recursion semantics from
:mod:`rkhs_reach.reach` (target indicator at the final step, safe-set
indicator multiplying every earlier step).
"""

import numpy as np
from scipy.special import ndtr

from . import _backend
from .errors import InputError
from .reach import (
    BoxSet,
    ValueField,
    checked_points,
    exact_step,
    exact_terminal,
)
from .systems import GaussianDisturbance

__all__ = ["dp_reach", "mc_reach"]

# rollouts stepped at once per start state (1 MB of 2-D states)
_MC_CHUNK = 65536


def _box_hit_probability(means, box, sd):
    # closed-form E[1_box(mean + w)] for diagonal Gaussian w
    p = np.ones(means.shape[0])
    for d in range(2):
        p *= ndtr((box.upper[d] - means[:, d]) / sd[d]) - ndtr(
            (box.lower[d] - means[:, d]) / sd[d]
        )
    return p


def dp_reach(
    system, disturbance, problem, eval_points, policy, shape=(201, 201), quad_nodes=25
):
    """Backward recursion on a dense grid, for 2-D Gaussian problems.

    The grid spans the union of the safe and target boxes with
    ``shape`` nodes; the recursion treats the field as zero outside it,
    which is exact there because those states are unsafe. The first
    backward step integrates the target indicator in closed form
    (products of normal CDF differences), so the discontinuous terminal
    condition never meets the interpolator; the remaining steps use
    tensor Gauss-Legendre quadrature with ``quad_nodes`` nodes per axis
    and multilinear interpolation of the stored grid field. The field
    drops to zero at the safe-set boundary, which coincides with the
    grid edge, so each query's integration window is clipped to the grid
    per axis: the excluded region contributes exactly zero and the
    quadrature never integrates across the jump, keeping its fast
    convergence.

    Parameters
    ----------
    system : object with ``dense_a``/``dense_b`` and ``n == 2``
    disturbance : GaussianDisturbance
    problem : ReachProblem with 2-D box safe and target sets
    eval_points : (P, 2) array
        Where values are reported (independent of the computation grid).
    policy : callable as in :func:`rkhs_reach.reach.value_recursion`
    shape : (int, int)
        Grid nodes per axis, at least 2 each.
    quad_nodes : int
        Gauss-Legendre nodes per axis, at least 2.

    Returns
    -------
    ValueField
    """
    if getattr(system, "n", None) != 2:
        raise InputError("the grid oracle supports only 2-D systems")
    if not isinstance(disturbance, GaussianDisturbance):
        raise InputError(
            "the grid oracle supports only Gaussian disturbances; use the "
            "Monte Carlo oracle otherwise"
        )
    if disturbance.dim != 2:
        raise InputError("disturbance dimension must be 2")
    safe, target = problem.safe, problem.target
    if not isinstance(safe, BoxSet) or not isinstance(target, BoxSet):
        raise InputError("the grid oracle requires box safe and target sets")
    if safe.dim != 2 or target.dim != 2:
        raise InputError("the grid oracle requires 2-D safe and target boxes")
    shape = tuple(shape)
    if len(shape) != 2 or min(shape) < 2:
        raise InputError(f"grid needs 2 axes of at least 2 nodes, got {shape}")
    if quad_nodes < 2:
        raise InputError("quadrature needs at least 2 nodes per axis")
    lower = np.minimum(safe.lower, target.lower)
    upper = np.maximum(safe.upper, target.upper)
    if np.any(upper <= lower):
        raise InputError("the safe and target boxes span a degenerate grid box")

    eval_points = checked_points(eval_points, 2)
    a = system.dense_a()
    b = system.dense_b()
    m = b.shape[1]
    sd = disturbance.sd
    ax1, ax2 = (np.linspace(lower[d], upper[d], shape[d]) for d in range(2))
    g1, g2 = np.meshgrid(ax1, ax2, indexing="ij")
    grid_pts = np.column_stack([g1.ravel(), g2.ravel()])
    origin = (ax1[0], ax2[0])
    steps = (ax1[1] - ax1[0], ax2[1] - ax2[0])
    # Gauss-Legendre nodes and weights on [-1, 1]; the backup rescales
    # them per query onto the +-4 sd window clipped to the grid
    glx, glw = np.polynomial.legendre.leggauss(quad_nodes)

    def means_at(pts, k):
        mu = pts @ a.T
        if m > 0 and policy is not None:
            mu = mu + np.atleast_2d(policy(k, pts)) @ b.T
        return mu

    mask_grid = safe.contains(grid_pts).astype(np.float64)
    mask_eval = safe.contains(eval_points).astype(np.float64)
    n_steps = problem.horizon
    rows = np.empty((n_steps + 1, eval_points.shape[0]))
    rows[n_steps] = exact_terminal(target.contains(eval_points))

    def expectation(means, v2d):
        # E[v(mean + w)], clipped to [0, 1]: closed form against the
        # target box at the first backward step, quadrature against the
        # stored grid field after it
        if v2d is None:
            expected = _box_hit_probability(means, target, sd)
        else:
            expected = _backend.dp_backup(v2d, origin, steps, sd, means, glx, glw)
        return np.clip(expected, 0.0, 1.0)

    v2d = None
    for k in range(n_steps - 1, -1, -1):
        rows[k] = exact_step(mask_eval, expectation(means_at(eval_points, k), v2d))
        # the grid field feeds only the steps before k, so none at k == 0
        if k > 0:
            expected = expectation(means_at(grid_pts, k), v2d)
            v2d = exact_step(mask_grid, expected).reshape(shape)
    return ValueField(points=eval_points, values=rows)


def mc_reach(
    system,
    disturbance,
    problem,
    policy,
    x0s,
    rollouts,
    seed,
):
    """Monte Carlo estimate of the reach-avoid probability per start state.

    Simulates ``rollouts`` closed-loop trajectories from each row of
    ``x0s`` and counts those inside the safe set at steps 0 through N-1
    and inside the target at step N. Each start state gets its own
    deterministic random stream derived from ``seed`` and its row index,
    so appending more start states leaves earlier estimates unchanged.
    The rollouts run in chunks of ``_MC_CHUNK``, drawn in order from the
    start state's stream.

    Returns
    -------
    (values, halfwidths)
        Hit fractions and 95% binomial confidence half-widths, one per
        start state.
    """
    rollouts = int(rollouts)
    if rollouts < 1:
        raise InputError(f"rollouts must be >= 1, got {rollouts}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    x0s = checked_points(x0s, system.n)
    n_steps = problem.horizon
    m = getattr(system, "m", 0)
    streams = np.random.SeedSequence(seed).spawn(x0s.shape[0])
    values = np.empty(x0s.shape[0])
    halfwidths = np.empty(x0s.shape[0])
    for p, x0 in enumerate(x0s):
        rng = np.random.default_rng(streams[p])
        hits = 0
        done = 0
        while done < rollouts:
            count = min(_MC_CHUNK, rollouts - done)
            states = np.repeat(x0[None, :], count, axis=0)
            alive = np.ones(count, dtype=bool)
            for k in range(n_steps):
                alive &= problem.safe.contains(states)
                controls = policy(k, states) if (m > 0 and policy is not None) else None
                draws = disturbance.draw(rng, count)
                states = system.step(states, controls, draws)
            hits += int(np.count_nonzero(alive & problem.target.contains(states)))
            done += count
        frac = hits / rollouts
        values[p] = frac
        halfwidths[p] = 1.96 * np.sqrt(frac * (1.0 - frac) / rollouts)
    return values, halfwidths
