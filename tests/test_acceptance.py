"""End-to-end acceptance checks, one test per shipped guarantee.

Each test records a verdict line that the terminal summary prints, then
asserts it; tolerances and runtime ceilings are stated inline. The tests
run in definition order so the shared fixtures build once.
"""

import statistics
import time

import numpy as np

from rkhs_reach import (
    BetaDisturbance,
    BoxSampler,
    BoxSet,
    CWHSystem,
    Embedding,
    IntegratorChain,
    GaussianDisturbance,
    RBFKernel,
    ReachProblem,
    ZeroPolicy,
    cwh_lqr_policy,
    cwh_sets,
    generate_transitions,
    mc_reach,
    value_recursion,
    value_recursion_max,
)

from bench_setup import (
    BENCH_HORIZON,
    BENCH_LAMBDA,
    BENCH_NOISE_SD,
    BENCH_SIGMA,
    fit_bench,
    make_bench_sample,
)


def test_criterion_1_truth_match(
    acceptance,
    dp_truth,
    bench_sample,
    bench_problem,
    bench_policy,
    grid_points_101,
    interior_mask,
):
    dp_field, dp_seconds = dp_truth
    n_grid = grid_points_101.shape[0]
    t0 = time.perf_counter()
    emb = fit_bench(bench_sample)
    fit_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    field = value_recursion(emb, bench_problem, grid_points_101, bench_policy)
    recursion_seconds = time.perf_counter() - t0
    err = np.abs(field.values[0] - dp_field.values[0][:n_grid])
    interior_max = float(err[interior_mask].max())
    ok = interior_max <= 0.10 and recursion_seconds < 5.0 and dp_seconds < 120.0
    acceptance[1] = (
        ok,
        f"interior max error {interior_max:.4f} (tolerance 0.10); "
        f"fit {fit_seconds:.2f}s, recursion {recursion_seconds:.2f}s (limit 5s), "
        f"grid oracle {dp_seconds:.1f}s (limit 120s)",
    )
    assert recursion_seconds < 5.0
    assert dp_seconds < 120.0
    assert interior_max <= 0.10, (
        f"interior max error {interior_max:.4f} exceeds 0.10"
    )


def test_criterion_2_sample_size_convergence(
    acceptance,
    dp_truth,
    bench_problem,
    bench_policy,
    grid_points_101,
    interior_mask,
):
    t_start = time.perf_counter()
    dp_field, _ = dp_truth
    truth = dp_field.values[0][: grid_points_101.shape[0]]
    medians = {}
    for count in (64, 256, 1024):
        errors = []
        for seed in range(5):
            sample = make_bench_sample(count, seed)
            emb = fit_bench(sample)
            field = value_recursion(
                emb, bench_problem, grid_points_101, bench_policy
            )
            err = np.abs(field.values[0] - truth)
            errors.append(float(err[interior_mask].max()))
        medians[count] = statistics.median(errors)
    elapsed = time.perf_counter() - t_start
    decreasing = medians[64] > medians[256] > medians[1024]
    ok = decreasing and elapsed < 600.0
    acceptance[2] = (
        ok,
        f"median interior max error M=64: {medians[64]:.4f}, "
        f"M=256: {medians[256]:.4f}, M=1024: {medians[1024]:.4f}; "
        f"{elapsed:.0f}s (limit 600s)",
    )
    assert elapsed < 600.0
    assert decreasing, f"medians not strictly decreasing: {medians}"


def _timed_evaluation(n, repeats):
    """Median fit-plus-recursion seconds at one point, sample prep excluded."""
    system = IntegratorChain(n, sampling_time=0.25)
    disturbance = GaussianDisturbance(np.full(n, BENCH_NOISE_SD))
    sampler = BoxSampler(np.full(n, -1.1), np.full(n, 1.1))
    policy = ZeroPolicy(1)
    sample = generate_transitions(system, policy, sampler, disturbance, 1024, 0)
    box = BoxSet(np.full(n, -1.0), np.full(n, 1.0))
    problem = ReachProblem(safe=box, target=box, horizon=BENCH_HORIZON)
    x0 = np.zeros((1, n))
    times = []
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        emb = fit_bench(sample)
        field = value_recursion(emb, problem, x0, policy)
        times.append(time.perf_counter() - t0)
        value = field.values[0, 0]
    return statistics.median(times), value


def test_criterion_3_dimension_scaling(acceptance):
    t100, _ = _timed_evaluation(100, repeats=3)
    t1000, _ = _timed_evaluation(1000, repeats=3)
    ratio = t1000 / t100
    t0 = time.perf_counter()
    t10k, value_10k = _timed_evaluation(10000, repeats=1)
    total_10k = time.perf_counter() - t0
    ok = ratio <= 15.0 and total_10k < 300.0
    acceptance[3] = (
        ok,
        f"n=100: {t100:.2f}s, n=1000: {t1000:.2f}s (ratio {ratio:.1f}, "
        f"limit 15); n=10000 end to end {total_10k:.1f}s (limit 300s), "
        f"value {value_10k:.3f}",
    )
    assert ratio <= 15.0, f"n=1000 is {ratio:.1f}x n=100"
    assert total_10k < 300.0


def test_criterion_4_beta_disturbance(acceptance):
    t_start = time.perf_counter()
    system = IntegratorChain(2, sampling_time=0.25)
    disturbance = BetaDisturbance(0.5, 0.5, 2)
    sampler = BoxSampler([-1.1, -1.1], [1.1, 1.1])
    policy = ZeroPolicy(1)
    sample = generate_transitions(system, policy, sampler, disturbance, 1024, 0)
    box = BoxSet([-1.0, -1.0], [1.0, 1.0])
    problem = ReachProblem(safe=box, target=box, horizon=1)
    ax = np.linspace(-0.8, 0.8, 5)
    g1, g2 = np.meshgrid(ax, ax, indexing="ij")
    probes = np.column_stack([g1.ravel(), g2.ravel()])
    emb = fit_bench(sample)
    field = value_recursion(emb, problem, probes, policy)
    mc_values, _ = mc_reach(
        system, disturbance, problem, policy, probes, 100000, seed=11
    )
    gap = float(np.abs(field.values[0] - mc_values).max())
    elapsed = time.perf_counter() - t_start
    ok = gap <= 0.15 and elapsed < 120.0
    acceptance[4] = (
        ok,
        f"max gap to Monte Carlo over 25 probes {gap:.4f} (tolerance 0.15); "
        f"{elapsed:.0f}s (limit 120s)",
    )
    assert elapsed < 120.0
    assert gap <= 0.15


def test_criterion_5_structural_invariants(acceptance):
    t_start = time.perf_counter()
    rng = np.random.default_rng(42)
    system = IntegratorChain(2, sampling_time=0.25)
    disturbance = GaussianDisturbance([BENCH_NOISE_SD, BENCH_NOISE_SD])
    states = rng.uniform(-1.1, 1.1, size=(256, 2))
    controls = rng.uniform(-0.5, 0.5, size=(256, 1))
    successors = system.step(states, controls, disturbance.draw(rng, 256))
    from rkhs_reach import TransitionSample

    sample = TransitionSample(states, controls, successors)
    emb = fit_bench(sample)
    box = BoxSet([-1.0, -1.0], [1.0, 1.0])
    problem = ReachProblem(safe=box, target=box, horizon=3)
    points = np.vstack(
        [rng.uniform(-1.3, 1.3, size=(60, 2)), [[0.0, 0.0]], [[2.0, 2.0]]]
    )
    failures = []

    fixed = value_recursion(
        emb, problem, points, lambda k, x: np.full((x.shape[0], 1), 0.25)
    )
    target_row = problem.target.contains(points).astype(np.float64)
    if not np.array_equal(fixed.values[problem.horizon], target_row):
        failures.append("terminal row differs from the target indicator")
    outside = ~problem.safe.contains(points)
    if not np.all(fixed.values[: problem.horizon][:, outside] == 0.0):
        failures.append("nonzero value outside the safe set")
    if fixed.values.min() < 0.0 or fixed.values.max() > 1.0:
        failures.append("values leave [0, 1]")

    single = value_recursion_max(emb, problem, points, np.array([[0.25]]))
    if not np.array_equal(single.values, fixed.values):
        failures.append("singleton-grid max mode differs from fixed mode")
    if single.policy_choices is None or single.policy_choices.any():
        failures.append("singleton-grid choices are not all index 0")

    small = value_recursion_max(emb, problem, points, np.array([[0.0]]))
    grown = value_recursion_max(emb, problem, points, np.array([[0.0], [0.4]]))
    largest = value_recursion_max(
        emb, problem, points, np.array([[0.0], [0.4], [-0.4]])
    )
    if np.any(grown.values < small.values) or np.any(
        largest.values < grown.values
    ):
        failures.append("enlarging the control grid decreased a value")

    v = rng.normal(size=256)
    residual = emb.solve_residual(v)
    if residual > 1e-8:
        failures.append(f"solve residual {residual:.2e} above 1e-8")

    gram = emb.kernel.gram(emb.sample.joint())
    if not np.array_equal(gram, gram.T):
        failures.append("gram matrix not symmetric")
    eigs = np.linalg.eigvalsh(gram)
    if eigs.min() < -1e-10 * np.linalg.norm(gram):
        failures.append(f"gram matrix not PSD (min eigenvalue {eigs.min():.2e})")

    elapsed = time.perf_counter() - t_start
    ok = not failures and elapsed < 60.0
    detail = "; ".join(failures) if failures else (
        f"terminal row, safe-set zeroing, [0,1] range, singleton max "
        f"equality, grid monotonicity, residual {residual:.1e}, gram PSD"
    )
    acceptance[5] = (ok, f"{detail}; {elapsed:.0f}s (limit 60s)")
    assert elapsed < 60.0
    assert not failures, failures


def test_criterion_6_oracle_cross_validation(
    acceptance,
    dp_truth,
    bench_system,
    bench_disturbance,
    bench_problem,
    bench_policy,
    grid_points_101,
):
    t_start = time.perf_counter()
    dp_field, _ = dp_truth
    rng = np.random.default_rng(123)
    idx = rng.choice(grid_points_101.shape[0], size=20, replace=False)
    probes = grid_points_101[idx]
    mc_values, halfwidths = mc_reach(
        bench_system,
        bench_disturbance,
        bench_problem,
        bench_policy,
        probes,
        1_000_000,
        seed=77,
    )
    dp_values = dp_field.values[0][idx]
    gaps = np.abs(dp_values - mc_values)
    limits = np.maximum(0.01, 3.0 * halfwidths)
    worst = float((gaps - limits).max())
    elapsed = time.perf_counter() - t_start
    ok = bool(np.all(gaps <= limits)) and elapsed < 600.0
    acceptance[6] = (
        ok,
        f"20 points, max gap {gaps.max():.5f}, worst margin "
        f"{worst:+.5f} against max(0.01, 3*halfwidth); {elapsed:.0f}s "
        f"(limit 600s)",
    )
    assert elapsed < 600.0
    assert np.all(gaps <= limits), (
        f"gaps {gaps[gaps > limits]} exceed limits {limits[gaps > limits]}"
    )


def test_criterion_7_rendezvous_pipeline(acceptance):
    t_start = time.perf_counter()
    system = CWHSystem()
    policy = cwh_lqr_policy(system)
    target, safe = cwh_sets()
    problem = ReachProblem(safe=safe, target=target, horizon=5)
    disturbance = system.default_disturbance()
    sampler = BoxSampler(
        [-0.9, -1.0, -0.05, -0.05], [0.9, -0.1, 0.05, 0.05]
    )
    sample = generate_transitions(system, policy, sampler, disturbance, 900, 1)
    emb = fit_bench(sample)

    rng = np.random.default_rng(7)
    draws = rng.uniform(
        [-0.9, -1.0, -0.02, -0.02], [0.9, -0.1, 0.02, 0.02], size=(80, 4)
    )
    inside = safe.contains(draws)
    probes = draws[inside][:10]
    outside_probes = draws[~inside][:5]
    points = np.vstack([probes, outside_probes])

    field = value_recursion(emb, problem, points, policy)
    failures = []
    target_row = target.contains(points).astype(np.float64)
    if not np.array_equal(field.values[problem.horizon], target_row):
        failures.append("terminal row differs from the target indicator")
    if field.values.min() < 0.0 or field.values.max() > 1.0:
        failures.append("values leave [0, 1]")
    cone_out = slice(probes.shape[0], None)
    if not np.all(field.values[: problem.horizon][:, cone_out] == 0.0):
        failures.append("nonzero value outside the line-of-sight cone")

    mc_values, _ = mc_reach(
        system, disturbance, problem, policy, probes, 100000, seed=5
    )
    gap = float(np.abs(field.values[0][: probes.shape[0]] - mc_values).max())
    if gap > 0.15:
        failures.append(f"max gap to Monte Carlo {gap:.4f} above 0.15")

    elapsed = time.perf_counter() - t_start
    ok = not failures and elapsed < 300.0
    detail = "; ".join(failures) if failures else (
        f"invariants hold, cone zeroing holds, max gap to Monte Carlo "
        f"{gap:.4f} (tolerance 0.15)"
    )
    acceptance[7] = (ok, f"{detail}; {elapsed:.0f}s (limit 300s)")
    assert elapsed < 300.0
    assert not failures, failures


def test_criterion_8_error_accumulation(
    acceptance,
    dp_truth,
    bench_sample,
    bench_problem,
    bench_policy,
    grid_points_101,
    interior_mask,
):
    dp_field, _ = dp_truth
    n_grid = grid_points_101.shape[0]
    horizon = bench_problem.horizon
    emb = fit_bench(bench_sample)
    est = value_recursion(emb, bench_problem, grid_points_101, bench_policy)
    eps0 = float(
        np.abs(est.values[0] - dp_field.values[0][:n_grid])[interior_mask].max()
    )

    # single-step errors: one estimator step applied to the exact
    # continuation values at the sample successors
    mask = bench_problem.safe.contains(grid_points_101).astype(np.float64)
    weights = emb.weights(grid_points_101, np.zeros((n_grid, 1)))
    step_errors = []
    for k in range(horizon):
        exact_next = dp_field.values[k + 1][n_grid:]
        one_step = np.clip(exact_next @ weights, 0.0, 1.0) * mask
        err = np.abs(one_step - dp_field.values[k][:n_grid])
        step_errors.append(float(err[interior_mask].max()))
    bound = horizon * max(step_errors) + 0.02
    ok = eps0 <= bound
    acceptance[8] = (
        ok,
        f"eps0 {eps0:.4f} <= {horizon} * max single-step error "
        f"{max(step_errors):.4f} + 0.02 = {bound:.4f}",
    )
    assert eps0 <= bound
