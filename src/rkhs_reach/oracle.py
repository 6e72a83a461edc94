"""Ground-truth estimators for reach-avoid probabilities.

Two oracles serve as references for the kernel estimator: a dense-grid
backward recursion for 2-D systems under additive Gaussian noise, and a
Monte Carlo rollout estimator for anything the package can simulate.
Both apply the model through its own ``system.step``, as the transition
sampler does, and differ in how they integrate over the noise: the grid
oracle in closed form and by quadrature on an interpolated grid field,
the Monte Carlo oracle by sampled rollouts. Both implement the exact
recursion semantics from :mod:`rkhs_reach.reach` (target indicator at
the final step, safe-set indicator multiplying every earlier step).
"""

import math
import os
import threading

import numpy as np

from . import _backend
from .errors import InputError
from .reach import BoxSet, ValueField, checked_points, grid_points
from .systems import GaussianDisturbance

__all__ = ["dp_reach", "mc_reach"]

# rollouts stepped at once per start state, at most _MC_CHUNK and at
# most as many as hold _MC_CHUNK_ENTRIES state entries (2 MiB of float64
# states): a thread's working set, its states, draws and stepped states,
# then stays under 8 MiB traced at any n
_MC_CHUNK = 65536
_MC_CHUNK_ENTRIES = 2**18
# smallest noise sd the grid oracle integrates, as a share of the largest
# |coordinate| of the grid on its axis: the quadrature window is placed
# with the rounding of its centre, about that magnitude's float spacing,
# and below the share it drifts (every value 0 at sd 1e-17 on [-1, 1]);
# at 1 to 5 times the share values were within 3e-8 of the noise-free
# answer on nine grids, from [-0.01, 0.01] to [-1000, 1000] and offset
# ones up to [1e6 - 10, 1e6 + 10]
_MIN_SD_SHARE = 1e-9


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _normal_cdf(z):
    """The standard normal CDF, ``erfc(-z / sqrt(2)) / 2`` per element."""
    arg = -np.asarray(z, dtype=np.float64) / math.sqrt(2.0)
    return 0.5 * _erfc(arg).astype(np.float64)


def _box_hit_probability(means, box, sd):
    # closed-form E[1_box(mean + w)] for diagonal Gaussian w; math.erfc
    # runs on both faces of each axis's distinct means, told apart by bit
    # pattern, then each query gathers: the grid oracle's means repeat
    p = np.ones(means.shape[0])
    for d in range(2):
        m, at = _backend.distinct(means[:, d])
        faces = np.array([[box.upper[d]], [box.lower[d]]])
        upper, lower = _normal_cdf((faces - m) / sd[d])
        p *= (upper - lower)[at]
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
    convergence. With two or more steps, a noise sd below
    ``_MIN_SD_SHARE`` (1e-9) of the grid's largest |coordinate| on its
    axis raises :class:`InputError`: so narrow a window is lost to the
    rounding of its position.

    Parameters
    ----------
    system : object with ``n == 2`` and ``step(states, controls, disturbances)``
        The means of each backward step are ``system.step(points,
        policy(k, points), None)``, the noise-free successors ``f(x, u)``
        that the disturbance is added to. The built-in systems' ``step``
        refuses non-empty controls of another shape than ``(P, m)`` with
        :class:`InputError`, in this oracle as in :func:`mc_reach`. Means
        of another shape than the ``(P, 2)`` points raise
        :class:`InputError`.
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
    sd = disturbance.sd
    # only the steps after the first integrate by quadrature
    magnitude = np.maximum(np.abs(lower), np.abs(upper))
    narrow = np.flatnonzero(sd < _MIN_SD_SHARE * magnitude)
    if problem.horizon >= 2 and narrow.size:
        d = narrow[0]
        raise InputError(
            f"noise sd {sd[d]:.3g} on axis {d + 1} is below {_MIN_SD_SHARE:g} "
            f"of the grid's largest |coordinate| {magnitude[d]:.3g}, too small "
            "for the grid oracle to integrate; use the Monte Carlo oracle "
            "(oracle-mc, mc_reach)"
        )

    eval_points = checked_points(eval_points, 2)
    axes, grid_pts = grid_points(shape, lower, upper)
    origin = tuple(ax[0] for ax in axes)
    steps = tuple(ax[1] - ax[0] for ax in axes)
    # Gauss-Legendre nodes and weights on [-1, 1]; the backup rescales
    # them per query onto the +-4 sd window clipped to the grid
    glx, glw = np.polynomial.legendre.leggauss(quad_nodes)

    def means_at(pts, k):
        # the noise-free successors f(x, u), the model's own step
        means = np.asarray(system.step(pts, policy(k, pts), None), dtype=np.float64)
        if means.shape != pts.shape:
            raise InputError(
                f"system.step returned means of shape {means.shape} "
                f"for points of shape {pts.shape}"
            )
        return means

    mask_grid = safe.contains(grid_pts).astype(np.float64)
    mask_eval = safe.contains(eval_points).astype(np.float64)
    n_steps = problem.horizon
    rows = np.empty((n_steps + 1, eval_points.shape[0]))
    rows[n_steps] = target.contains(eval_points)

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
        rows[k] = mask_eval * expectation(means_at(eval_points, k), v2d)
        # the grid field feeds only the steps before k, so none at k == 0
        if k > 0:
            expected = expectation(means_at(grid_pts, k), v2d)
            v2d = (mask_grid * expected).reshape(shape)
    return ValueField(points=eval_points, values=rows)


def _core_count():
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # sched_getaffinity is Linux only
        return os.cpu_count() or 1


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
    The rollouts run in chunks of at most ``_MC_CHUNK`` (65 536)
    rollouts and at most ``_MC_CHUNK_ENTRIES`` (2**18) state entries,
    that is ``min(65536, 2**18 // n)`` rollouts, drawn in order from the
    start state's stream. The chunk depends on n only. Up to n = 4 it
    holds 65 536 rollouts, as in earlier releases; from n = 5 on it
    holds fewer, so estimates there differ from earlier releases' in
    their bits only, as other draws from the same distribution. A start
    outside the safe set is answered 0, with half-width 0, without
    rollouts: each of them would fail at step 0.

    The safe starts are shared out over ``min(usable cores, safe
    starts)`` threads, the calling thread and one more per further
    core: with k threads, the i-th safe start goes to thread i mod k.
    Each start keeps its stream, its chunks and its arithmetic, so the
    results are bitwise the same at any thread count, while numpy runs
    the draws, box tests and steps outside the interpreter lock. The
    policy, the set predicates, ``system.step`` and ``disturbance.draw``
    may thus run on several threads at once, and must not share
    unlocked mutable state (the built-in ones do not). A single start
    runs on one thread and gains nothing. Each thread holds one chunk's
    working set, its states, draws and stepped states, about three times
    2 MiB at any n. Only a system whose ``threaded_rollouts`` is true gets
    more than one thread: a system whose every step is a BLAS
    product, such as :class:`~rkhs_reach.systems.CWHSystem`, runs
    slower on several, because each product waits for OpenBLAS's own
    thread pool. The integrator chain's step makes no BLAS call under
    any policy: its control product, like its band, is an elementwise
    multiply (:func:`rkhs_reach._backend.chain_apply`).

    When a start raises, the starts after it stop at their next chunk
    and those before it run on; once every thread has ended, the error
    of the first start that raised is re-raised, the one a single thread
    would meet. An interrupt or a ``SystemExit`` stops every start.

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
    streams = np.random.SeedSequence(seed).spawn(x0s.shape[0])
    values = np.zeros(x0s.shape[0])
    halfwidths = np.zeros(x0s.shape[0])
    safe = np.flatnonzero(problem.safe.contains(x0s))
    failed = {}  # start index -> what it raised
    # starts after this index stop at their next chunk
    cutoff = [x0s.shape[0]]
    lock = threading.Lock()
    chunk = max(1, min(_MC_CHUNK, _MC_CHUNK_ENTRIES // system.n))

    def stop_after(p):
        with lock:
            cutoff[0] = min(cutoff[0], p)

    def run(starts):
        for p in starts:
            try:
                rng = np.random.default_rng(streams[p])
                hits = 0
                done = 0
                while done < rollouts:
                    if p > cutoff[0]:
                        return
                    count = min(chunk, rollouts - done)
                    states = np.repeat(x0s[p : p + 1], count, axis=0)
                    alive = np.ones(count, dtype=bool)
                    for k in range(n_steps):
                        alive &= problem.safe.contains(states)
                        controls = policy(k, states)
                        draws = disturbance.draw(rng, count)
                        states = system.step(states, controls, draws)
                    hits += int(
                        np.count_nonzero(alive & problem.target.contains(states))
                    )
                    done += count
                frac = hits / rollouts
                values[p] = frac
                halfwidths[p] = 1.96 * np.sqrt(frac * (1.0 - frac) / rollouts)
            except BaseException as exc:
                failed[p] = exc
                stop_after(p if isinstance(exc, Exception) else -1)
                return

    threads = 1
    if getattr(system, "threaded_rollouts", False):
        threads = max(1, min(_core_count(), len(safe)))
    workers = [
        threading.Thread(target=run, args=(safe[i::threads],))
        for i in range(1, threads)
    ]
    try:
        for worker in workers:
            worker.start()
        run(safe[::threads])
        for worker in workers:
            worker.join()
    finally:
        # a no-op once all have ended; after a failed start or an
        # interrupt it ends the others before they are joined
        stop_after(-1)
        for worker in workers:
            if worker.is_alive():
                worker.join()
    if failed:
        raise failed[min(failed)]
    return values, halfwidths
