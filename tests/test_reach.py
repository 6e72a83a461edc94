"""Backward recursion on the fitted estimator: semantics and invariants."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkhs_reach import reach as reach_module
from rkhs_reach import (
    AffinePolicy,
    BoxSampler,
    BoxSet,
    ConstantPolicy,
    Embedding,
    GaussianDisturbance,
    InputError,
    IntegratorChain,
    PredicateSet,
    RBFKernel,
    ReachProblem,
    TransitionSample,
    ValueField,
    ZeroPolicy,
    generate_transitions,
    value_recursion,
    value_recursion_max,
)

from bench_setup import (
    BENCH_HORIZON,
    BENCH_LAMBDA,
    BENCH_SAMPLES,
    BENCH_SIGMA,
    fit_bench,
    make_bench_sample,
)


@pytest.fixture(scope="module")
def controlled():
    """Sample with state-dependent controls, so control inputs matter."""
    system = IntegratorChain(2, sampling_time=0.25)
    sampler = BoxSampler([-1.1, -1.1], [1.1, 1.1])
    disturbance = GaussianDisturbance([0.1, 0.1])
    policy = AffinePolicy([[0.5, -0.3]])
    sample = generate_transitions(system, policy, sampler, disturbance, 400, 0)
    emb = Embedding(sample, RBFKernel(0.3), lam=0.1)
    box = BoxSet([-1.0, -1.0], [1.0, 1.0])
    problem = ReachProblem(safe=box, target=box, horizon=3)
    pts = np.random.default_rng(5).uniform(-1.2, 1.2, size=(40, 2))
    return emb, problem, pts


def test_terminal_row_is_the_exact_indicator(controlled):
    emb, problem, pts = controlled
    field = value_recursion(emb, problem, pts, ZeroPolicy(1))
    want = problem.target.contains(pts).astype(np.float64)
    np.testing.assert_array_equal(field.values[-1], want)


def test_unsafe_starts_are_exactly_zero(controlled):
    emb, problem, pts = controlled
    field = value_recursion(emb, problem, pts, ZeroPolicy(1))
    outside = ~problem.safe.contains(pts)
    assert outside.any()
    for k in range(problem.horizon):
        np.testing.assert_array_equal(field.values[k][outside], 0.0)


def test_values_stay_in_unit_interval(controlled):
    emb, problem, pts = controlled
    field = value_recursion(emb, problem, pts, ZeroPolicy(1))
    assert np.all(field.values >= 0.0) and np.all(field.values <= 1.0)
    fmax = value_recursion_max(emb, problem, pts, [[-0.5], [0.0], [0.5]])
    assert np.all(fmax.values >= 0.0) and np.all(fmax.values <= 1.0)


def test_single_control_grid_matches_constant_policy_bitwise(controlled):
    emb, problem, pts = controlled
    fixed = value_recursion(emb, problem, pts, ConstantPolicy([0.4]))
    maxed = value_recursion_max(emb, problem, pts, [[0.4]])
    np.testing.assert_array_equal(fixed.values, maxed.values)
    np.testing.assert_array_equal(maxed.policy_choices, 0)


def test_max_recursion_dominates_every_fixed_control(controlled):
    emb, problem, pts = controlled
    grid = [[-0.5], [0.0], [0.5]]
    maxed = value_recursion_max(emb, problem, pts, grid)
    for u in grid:
        fixed = value_recursion(emb, problem, pts, ConstantPolicy(u))
        assert np.all(maxed.values >= fixed.values)


def test_enlarging_the_control_grid_never_hurts(controlled):
    # the 27 safe points fit one block at either grid size, so weight
    # columns per control are bitwise identical across calls, and
    # normalized weights are nonnegative, so this inequality is exact
    emb, problem, pts = controlled
    small = value_recursion_max(emb, problem, pts, [[0.0]])
    big = value_recursion_max(emb, problem, pts, [[0.0], [0.6], [-0.6]])
    assert np.all(big.values >= small.values)


class _UniformControls:
    """Controls drawn from a seeded U[-0.6, 0.6] stream."""

    description = "uniform"

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def __call__(self, k, states):
        return self.rng.uniform(-0.6, 0.6, size=(len(states), 1))


def test_max_mode_dominates_up_to_round_off_across_blocks():
    # the 1078 safe points run in blocks of 811, the safe successors, per
    # control for three controls and of 1024 for one; a weight column's
    # bits can depend on its block's width, so max mode can read below a
    # fixed control or a smaller grid, by round-off only (up to 4.4e-16
    # at one or two cells with OpenBLAS on an x86 VM); normalized
    # weights are nonnegative, so nothing but round-off can lower a value
    system = IntegratorChain(2, sampling_time=0.25)
    sample = generate_transitions(
        system, _UniformControls(0), BoxSampler([-1.1, -1.1], [1.1, 1.1]),
        GaussianDisturbance([0.1, 0.1]), 1024, 0,
    )
    emb = Embedding(sample, RBFKernel(0.1), lam=1.0)
    box = BoxSet([-1.0, -1.0], [1.0, 1.0])
    problem = ReachProblem(safe=box, target=box, horizon=3)
    pts = np.random.default_rng(1).uniform(-1.1, 1.1, size=(1300, 2))
    assert reach_module._POINT_BLOCK < _safe_count(problem, pts) < 2048
    grid = [[-0.5], [0.0], [0.5]]
    maxed = value_recursion_max(emb, problem, pts, grid)
    for u in grid:
        fixed = value_recursion(emb, problem, pts, ConstantPolicy(u))
        assert np.all(maxed.values >= fixed.values - 1e-14)
    small = value_recursion_max(emb, problem, pts, [[0.0]])
    assert np.all(maxed.values >= small.values - 1e-14)


def test_duplicate_controls_tie_to_the_lowest_index(controlled):
    emb, problem, pts = controlled
    maxed = value_recursion_max(emb, problem, pts, [[0.3], [0.3]])
    np.testing.assert_array_equal(maxed.policy_choices, 0)


def test_one_step_recursion_unrolls_to_manual_weights(controlled):
    emb, problem, pts = controlled
    one = ReachProblem(problem.safe, problem.target, horizon=1)
    policy = ConstantPolicy([0.2])
    field = value_recursion(emb, one, pts, policy)
    safe = one.safe.contains(pts)
    w = emb.weights(pts[safe], policy(0, pts[safe]))
    term = one.target.contains(emb.sample.successors).astype(np.float64)
    want = np.zeros(pts.shape[0])
    want[safe] = np.clip(term @ w, 0.0, 1.0)
    np.testing.assert_array_equal(field.values[0], want)


def test_recursion_is_deterministic(controlled):
    emb, problem, pts = controlled
    a = value_recursion(emb, problem, pts, ZeroPolicy(1))
    b = value_recursion(emb, problem, pts, ZeroPolicy(1))
    np.testing.assert_array_equal(a.values, b.values)
    c = value_recursion_max(emb, problem, pts, [[0.0], [0.5]])
    d = value_recursion_max(emb, problem, pts, [[0.0], [0.5]])
    np.testing.assert_array_equal(c.values, d.values)
    np.testing.assert_array_equal(c.policy_choices, d.policy_choices)


class RecordingPolicy:
    """Time-varying policy that logs each ``(k, rows)`` query and keeps
    a copy of the queried states."""

    def __init__(self, control_dim):
        self.control_dim = control_dim
        self.calls = []
        self.states = []

    def __call__(self, k, states):
        states = np.atleast_2d(states)
        self.calls.append((k, states.shape[0]))
        self.states.append(states.copy())
        return np.full((states.shape[0], self.control_dim), 0.3 * k - 0.4)


class BufferPolicy(RecordingPolicy):
    """The same controls, refilled into one returned buffer per row count."""

    def __init__(self, control_dim):
        super().__init__(control_dim)
        self.buffers = {}

    def __call__(self, k, states):
        controls = super().__call__(k, states)
        buffer = self.buffers.setdefault(controls.shape, np.empty(controls.shape))
        buffer[...] = controls
        return buffer


def _record_solves(monkeypatch, emb, queried=None):
    """Wrap ``emb.weights`` to log the row count of every solve, and
    append a copy of its query states to ``queried`` when given."""
    solves = []
    original = emb.weights

    def weights(states, controls=None, out=None):
        solves.append(states.shape[0])
        if queried is not None:
            queried.append(np.array(states))
        return original(states, controls, out=out)

    monkeypatch.setattr(emb, "weights", weights)
    return solves


def _safe_count(problem, states):
    return int(np.count_nonzero(problem.safe.contains(states)))


def test_weights_are_reused_while_controls_repeat(controlled, monkeypatch):
    emb, problem, pts = controlled
    # only safe rows are weighed: 306 of the 400 successors, and the 27
    # safe points of the 40 in blocks of 16
    n_succ = _safe_count(problem, emb.sample.successors)
    assert (n_succ, _safe_count(problem, pts)) == (306, 27)
    monkeypatch.setattr(reach_module, "_POINT_BLOCK", 16)
    sizes = [16, 11]
    solves = _record_solves(monkeypatch, emb)

    # horizon 3: safe successors queried at k = 2, 1, then each block at
    # k = 2, 1, 0; a time-varying policy is solved at every query
    every_step = [(k, n_succ) for k in (2, 1)]
    every_step += [(k, b) for b in sizes for k in (2, 1, 0)]
    varying = RecordingPolicy(1)
    want = value_recursion(emb, problem, pts, varying)
    assert varying.calls == every_step
    assert solves == [rows for _, rows in every_step]

    # one buffer refilled per call holds new controls, not a repeat
    solves.clear()
    buffered = BufferPolicy(1)
    got = value_recursion(emb, problem, pts, buffered)
    assert buffered.calls == every_step
    assert solves == [rows for _, rows in every_step]
    np.testing.assert_array_equal(got.values, want.values)

    # a plain function with constant controls is queried at every step
    # and solved once for the successors and once per block
    steps = []

    def constant(k, states):
        steps.append(k)
        return np.full((states.shape[0], 1), 0.2)

    solves.clear()
    got = value_recursion(emb, problem, pts, constant)
    assert steps == [k for k, _ in every_step]
    assert solves == [n_succ] + sizes
    solves.clear()
    want = value_recursion(emb, problem, pts, ConstantPolicy([0.2]))
    assert solves == [n_succ] + sizes
    np.testing.assert_array_equal(got.values, want.values)

    # controls that repeat at k = 2, 1 and change at k = 0 are solved
    # again at k = 0 only
    solves.clear()
    value_recursion(
        emb, problem, pts, lambda k, s: np.full((s.shape[0], 1), 0.2 if k else -0.2)
    )
    assert solves == [n_succ] + [b for b in sizes for _ in range(2)]


def _reference_step(weigh, states, next_values, safe, full_columns):
    """``1_safe * clip(next_values @ W)`` at ``states``, with ``W`` from
    ``weigh(rows)``: the safe rows alone weighed and the unsafe ones
    left at 0, or, with ``full_columns``, every row weighed and the
    result multiplied by the safe mask."""
    if full_columns:
        return np.clip(next_values @ weigh(states), 0.0, 1.0) * safe
    out = np.zeros(states.shape[0])
    out[safe] = np.clip(next_values @ weigh(states[safe]), 0.0, 1.0)
    return out


def _reference_fixed(emb, problem, pts, policy, full_columns=False):
    """Reference fixed-policy recursion: step-outer, points and
    successors advanced together, weights solved at every step."""
    succ = emb.sample.successors
    m = emb.sample.control_dim

    def weigh(k):
        return lambda s: emb.weights(s, None if m == 0 else policy(k, s))

    safe_pts = problem.safe.contains(pts)
    safe_succ = problem.safe.contains(succ)
    n = problem.horizon
    values = np.empty((n + 1, pts.shape[0]))
    values[n] = problem.target.contains(pts)
    v_succ = problem.target.contains(succ).astype(np.float64)
    for k in range(n - 1, -1, -1):
        values[k] = _reference_step(weigh(k), pts, v_succ, safe_pts, full_columns)
        if k > 0:
            v_succ = _reference_step(
                weigh(k), succ, v_succ, safe_succ, full_columns
            )
    return values


def _reference_max(emb, problem, pts, control_grid, full_columns=False):
    """Reference max-mode recursion: step-outer, candidates stacked and
    reduced with max/argmax."""
    succ = emb.sample.successors
    grid = np.atleast_2d(np.asarray(control_grid, dtype=np.float64))
    weighs = [lambda s, u=u: emb.weights(s, np.tile(u, (len(s), 1))) for u in grid]
    safe_pts = problem.safe.contains(pts)
    safe_succ = problem.safe.contains(succ)
    n = problem.horizon
    values = np.empty((n + 1, pts.shape[0]))
    values[n] = problem.target.contains(pts)
    choices = np.empty((n, pts.shape[0]), dtype=np.int64)
    v_succ = problem.target.contains(succ).astype(np.float64)
    for k in range(n - 1, -1, -1):
        cand = np.stack(
            [_reference_step(w, pts, v_succ, safe_pts, full_columns) for w in weighs]
        )
        values[k] = cand.max(axis=0)
        choices[k] = cand.argmax(axis=0)
        if k > 0:
            v_succ = np.stack(
                [
                    _reference_step(w, succ, v_succ, safe_succ, full_columns)
                    for w in weighs
                ]
            ).max(axis=0)
    return values, choices


@pytest.mark.parametrize("horizon", [1, 2, 3, 4])
@pytest.mark.parametrize("normalize", [True, False])
def test_merged_recursion_matches_reference_loops_bitwise(
    controlled, horizon, normalize
):
    emb, problem, pts = controlled
    if not normalize:
        emb = Embedding(emb.sample, emb.kernel, emb.lam, normalize_weights=False)
    problem = ReachProblem(problem.safe, problem.target, horizon)
    for policy in (ZeroPolicy(1), RecordingPolicy(1)):
        field = value_recursion(emb, problem, pts, policy)
        want = _reference_fixed(emb, problem, pts, policy)
        np.testing.assert_array_equal(field.values, want)
        assert field.policy_choices is None
    for grid in ([[0.4]], [[-0.5], [0.0], [0.5]], [[0.3], [-0.3], [0.3]]):
        field = value_recursion_max(emb, problem, pts, grid)
        values, choices = _reference_max(emb, problem, pts, grid)
        np.testing.assert_array_equal(field.values, values)
        np.testing.assert_array_equal(field.policy_choices, choices)


def _dense_points():
    """1500 points on [-1.2, 1.2]^2, 1016 of them in the safe box."""
    return np.random.default_rng(5).uniform(-1.2, 1.2, size=(1500, 2))


def _inner_problem(problem):
    """``problem`` with the box [-0.5, 0.5]^2 as safe and target set: it
    holds 82 of the controlled sample's 400 successors and 274 of the
    dense points, few enough safe successors that candidates share a
    block of evaluation points."""
    box = BoxSet([-0.5, -0.5], [0.5, 0.5])
    return ReachProblem(safe=box, target=box, horizon=problem.horizon)


def _track_point_weights(monkeypatch, emb, problem, stats):
    """Wrap ``emb.weights`` to count successor calls in ``stats`` and to
    track the live point-weight columns, released in a
    ``weakref.finalize`` callback as the benchmark tracer does."""
    succ = emb.sample.successors[problem.safe.contains(emb.sample.successors)]
    original = emb.weights

    def release(cols):
        stats["live"] -= cols

    def weights(states, controls=None, out=None):
        w = original(states, controls, out=out)
        if states.shape == succ.shape and np.array_equal(states, succ):
            stats["succ_calls"] += 1
            return w
        stats["live"] += w.shape[1]
        stats["peak"] = max(stats["peak"], stats["live"])
        stats["widths"].append(w.shape[1])
        weakref.finalize(w, release, w.shape[1])
        return w

    monkeypatch.setattr(emb, "weights", weights)


def test_max_mode_keeps_one_point_weight_matrix_alive(controlled, monkeypatch):
    # the controls share one block of 250 points, 250 // 3 = 83 each,
    # so together they hold no more than one matrix would; ten controls
    # get the 82 safe successors' width each, no more than the
    # successor pass held
    emb, problem, _ = controlled
    problem = _inner_problem(problem)
    pts = _dense_points()
    n_succ = _safe_count(problem, emb.sample.successors)
    assert n_succ == 82 and _safe_count(problem, pts) > 250
    monkeypatch.setattr(reach_module, "_POINT_BLOCK", 250)
    stats = {"live": 0, "peak": 0, "succ_calls": 0, "widths": []}
    _track_point_weights(monkeypatch, emb, problem, stats)
    three = [[-0.5], [0.0], [0.5]]
    ten = np.linspace(-0.6, 0.6, 10)[:, None]
    for grid, bound in [(three, 250), (ten, 10 * n_succ)]:
        stats.update(peak=0, succ_calls=0)
        value_recursion_max(emb, problem, pts, grid)  # horizon 3
        assert 0 < stats["peak"] <= bound and stats["live"] == 0
        assert stats["succ_calls"] == len(grid)

    one = ReachProblem(problem.safe, problem.target, horizon=1)
    stats.update(peak=0, succ_calls=0)
    value_recursion_max(emb, one, pts, three)
    # a one-step recursion never reads successor values
    assert stats["succ_calls"] == 0 and 0 < stats["peak"] <= 250


@pytest.fixture(scope="module")
def constant_sample():
    """Benchmark sample drawn under the zero policy: every control is 0."""
    return make_bench_sample(256, 0)


def test_max_mode_on_a_constant_sample_runs_one_control(
    controlled, constant_sample, monkeypatch
):
    # normalized weights cannot tell the controls apart, so max mode runs
    # the first control only: one solve for the 201 safe successors of
    # the 256, one per block of the 27 safe points
    _, problem, pts = controlled
    emb = Embedding(constant_sample, RBFKernel(BENCH_SIGMA), BENCH_LAMBDA)
    assert not emb.reads_controls
    u0 = constant_sample.controls[0]
    want = value_recursion(emb, problem, pts, ConstantPolicy(u0))
    monkeypatch.setattr(reach_module, "_POINT_BLOCK", 16)
    solves = _record_solves(monkeypatch, emb)
    field = value_recursion_max(emb, problem, pts, [[-0.5], [0.0], [0.5]])
    assert solves == [_safe_count(problem, constant_sample.successors), 16, 11]
    np.testing.assert_array_equal(field.values, want.values)
    assert not np.any(field.policy_choices)


@pytest.mark.parametrize("horizon", [1, 3])
def test_raw_max_mode_on_a_constant_sample_keeps_every_control(
    controlled, constant_sample, horizon
):
    # raw weights scale with each control's kernel factor, so every
    # control is still evaluated, bit for bit as the reference loop
    _, problem, pts = controlled
    emb = Embedding(
        constant_sample, RBFKernel(BENCH_SIGMA), BENCH_LAMBDA,
        normalize_weights=False,
    )
    assert emb.reads_controls
    problem = ReachProblem(problem.safe, problem.target, horizon)
    grid = [[-0.5], [0.0], [0.5]]
    field = value_recursion_max(emb, problem, pts, grid)
    values, choices = _reference_max(emb, problem, pts, grid)
    np.testing.assert_array_equal(field.values, values)
    np.testing.assert_array_equal(field.policy_choices, choices)


@pytest.mark.parametrize("normalize", [True, False])
def test_point_blocks_match_one_block(controlled, monkeypatch, normalize):
    emb, problem, _ = controlled
    if not normalize:
        emb = Embedding(emb.sample, emb.kernel, emb.lam, normalize_weights=False)
    problem = _inner_problem(problem)
    pts = _dense_points()
    three = [[-0.5], [0.0], [0.5]]
    ten = np.linspace(-0.6, 0.6, 10)[:, None]
    n_pts, block = _safe_count(problem, pts), 250
    # one block of every safe point for a single candidate: at most M
    assert n_pts < min(reach_module._POINT_BLOCK, emb.sample.count)
    assert n_pts % block != 0
    n_succ = _safe_count(problem, emb.sample.successors)
    whole = [
        value_recursion(emb, problem, pts, ZeroPolicy(1)),
        value_recursion(emb, problem, pts, RecordingPolicy(1)),
        value_recursion_max(emb, problem, pts, three),
        value_recursion_max(emb, problem, pts, ten),
    ]

    monkeypatch.setattr(reach_module, "_POINT_BLOCK", block)
    stats = {"live": 0, "peak": 0, "succ_calls": 0, "widths": []}
    _track_point_weights(monkeypatch, emb, problem, stats)
    varying = RecordingPolicy(1)
    blocked = [
        value_recursion(emb, problem, pts, ZeroPolicy(1)),
        value_recursion(emb, problem, pts, varying),
        value_recursion_max(emb, problem, pts, three),
        value_recursion_max(emb, problem, pts, ten),
    ]
    for got, want in zip(blocked, whole):
        np.testing.assert_allclose(got.values, want.values, rtol=0, atol=1e-14)
    # the controlled sample's controls are distinct, so no choice is a tie
    for got, want in zip(blocked[2:], whole[2:]):
        np.testing.assert_array_equal(got.policy_choices, want.policy_choices)
    sizes = [250, 24]  # the 274 safe points
    # the same in blocks of 250 // 3 per control, and, for ten controls,
    # of the 82 safe successors rather than 250 // 10
    shared = [83, 83, 83, 25]
    widest = [82, 82, 82, 28]
    # live point-weight columns never exceed one block, or the ten
    # controls' successor matrices
    assert stats["peak"] == 10 * n_succ and stats["live"] == 0
    # zero policy: once per block; varying: per block and step (horizon
    # 3); max: per block and control
    thrice = [b for b in sizes for _ in range(3)]
    assert stats["widths"] == (
        sizes + thrice
        + [b for b in shared for _ in range(3)]
        + [b for b in widest for _ in range(10)]
    )
    want_calls = [(k, b) for k in (2, 1, 0) for b in sizes]
    assert sorted(varying.calls) == sorted(want_calls + [(2, n_succ), (1, n_succ)])


@pytest.mark.parametrize("m", [512, BENCH_SAMPLES])
def test_sweep_peak_memory_is_about_two_matrices(m):
    # a fixed policy on the 101 x 101 benchmark grid: the kernel matrix
    # and the weights of every block go to two buffers of M x min(1024,
    # M) entries; with the safe indices and the successor values they
    # read 2.09 M x M matrices at M = 512 and 2.03 at M = 1024, besides
    # the value rows returned (0.16 more at M = 512). Blocks of 2048
    # columns allocated afresh read 8.20 and 4.05.
    emb = fit_bench(make_bench_sample(m, 0))
    box = BoxSet([-1.0, -1.0], [1.0, 1.0])
    problem = ReachProblem(safe=box, target=box, horizon=BENCH_HORIZON)
    axis = np.linspace(-1.1, 1.1, 101)
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    tracemalloc.start()
    try:
        field = value_recursion(emb, problem, pts, ZeroPolicy(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sweep = peak - field.values.nbytes
    assert sweep <= 2.2 * m * m * 8, sweep / (m * m * 8)


def _assert_positive_zeros(values):
    assert np.all(values == 0.0) and not np.any(np.signbit(values))


def test_unsafe_rows_are_never_weighed_or_queried(controlled, monkeypatch):
    emb, problem, pts = controlled
    rows = np.vstack([pts, emb.sample.successors])
    safe_rows = rows[problem.safe.contains(rows)]
    assert safe_rows.shape[0] < rows.shape[0]
    queried = []
    _record_solves(monkeypatch, emb, queried)
    policy = RecordingPolicy(1)
    fixed = value_recursion(emb, problem, pts, policy)
    maxed = value_recursion_max(emb, problem, pts, [[-0.5], [0.0], [0.5]])
    # every safe row is weighed, and no unsafe row is weighed or queried
    np.testing.assert_array_equal(
        np.unique(np.vstack(queried), axis=0), np.unique(safe_rows, axis=0)
    )
    for states in policy.states:
        assert problem.safe.contains(states).all()
    unsafe = ~problem.safe.contains(pts)
    for field in (fixed, maxed):
        _assert_positive_zeros(field.values[:-1, unsafe])
    assert not maxed.policy_choices[:, unsafe].any()
    assert maxed.policy_choices[:, ~unsafe].any()


def test_no_safe_point_makes_no_call(controlled, monkeypatch):
    emb, problem, pts = controlled
    outside = pts[~problem.safe.contains(pts)]
    solves = _record_solves(monkeypatch, emb)
    policy = RecordingPolicy(1)
    fixed = value_recursion(emb, problem, outside, policy)
    maxed = value_recursion_max(emb, problem, outside, [[-0.5], [0.5]])
    assert solves == [] and policy.calls == []
    for field in (fixed, maxed):
        _assert_positive_zeros(field.values)  # the target is the safe box
    assert not maxed.policy_choices.any()


def test_no_safe_successor_makes_no_successor_call(controlled, monkeypatch):
    # a safe set of the evaluation points alone holds no successor, so
    # the successor pass makes no call and its values are +0.0
    emb, problem, pts = controlled

    def at_points(states):
        return (states[:, None, :] == pts).all(axis=2).any(axis=1)

    only_pts = ReachProblem(PredicateSet(at_points, 2), problem.target, 3)
    assert not only_pts.safe.contains(emb.sample.successors).any()
    solves = _record_solves(monkeypatch, emb)
    policy = RecordingPolicy(1)
    fixed = value_recursion(emb, only_pts, pts, policy)
    maxed = value_recursion_max(emb, only_pts, pts, [[-0.5], [0.5]])
    n_pts = pts.shape[0]
    assert policy.calls == [(k, n_pts) for k in (2, 1, 0)]
    assert solves == [n_pts] * 5  # 3 steps, then 2 controls
    for field in (fixed, maxed):
        # steps k < N - 1 read only the successor values
        _assert_positive_zeros(field.values[:-2])
        assert field.values[-2].any()  # step N - 1 reads the target
    assert not maxed.policy_choices[:-1].any()


@pytest.mark.parametrize("normalize", [True, False])
def test_safe_rows_agree_with_full_columns(controlled, normalize):
    # weighing the safe rows alone changes only the shape of each weight
    # product, so every value stays within round-off of the full-column
    # formula ``clip(v @ W) * mask``
    emb, problem, pts = controlled
    if not normalize:
        emb = Embedding(emb.sample, emb.kernel, emb.lam, normalize_weights=False)
    for policy in (ZeroPolicy(1), RecordingPolicy(1)):
        field = value_recursion(emb, problem, pts, policy)
        want = _reference_fixed(emb, problem, pts, policy, full_columns=True)
        np.testing.assert_allclose(field.values, want, rtol=0, atol=1e-14)
    grid = [[-0.5], [0.0], [0.5]]
    field = value_recursion_max(emb, problem, pts, grid)
    values, choices = _reference_max(emb, problem, pts, grid, full_columns=True)
    np.testing.assert_allclose(field.values, values, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(field.policy_choices, choices)


def test_weights_that_ignore_controls_are_solved_once_per_pass(
    controlled, monkeypatch
):
    # a normalized fit of a zero-policy sample does not read the controls,
    # so changing controls cost no second solve: one for the successors
    # and one for the points, with the bits of the zero policy
    _, problem, _ = controlled
    emb = Embedding(make_bench_sample(128, 0), RBFKernel(BENCH_SIGMA), BENCH_LAMBDA)
    assert not emb.reads_controls
    pts = np.linspace(-0.8, 0.8, 10).reshape(5, 2)
    want = value_recursion(emb, problem, pts, ZeroPolicy(1))
    solves = _record_solves(monkeypatch, emb)
    got = value_recursion(
        emb, problem, pts, lambda k, x: np.full((len(x), 1), 0.1 * k)
    )
    assert solves == [_safe_count(problem, emb.sample.successors), 5]
    np.testing.assert_array_equal(got.values, want.values)


def test_recursion_input_validation(controlled):
    emb, problem, pts = controlled
    with pytest.raises(InputError):
        value_recursion(object(), problem, pts, ZeroPolicy(1))
    with pytest.raises(InputError):
        value_recursion(emb, problem, np.empty((0, 2)), ZeroPolicy(1))
    with pytest.raises(InputError):
        value_recursion(emb, problem, np.zeros((3, 5)), ZeroPolicy(1))
    with pytest.raises(InputError, match="finite"):
        value_recursion(emb, problem, [[0.0, np.nan]], ZeroPolicy(1))
    with pytest.raises(InputError):
        value_recursion(emb, problem, pts, ZeroPolicy(2))  # wrong control dim
    with pytest.raises(InputError):
        value_recursion_max(emb, problem, pts, np.empty((0, 1)))
    with pytest.raises(InputError):
        value_recursion_max(emb, problem, pts, [[0.0, 1.0]])


def test_control_free_sample_rejects_maximization(monkeypatch):
    rng = np.random.default_rng(0)
    sample = TransitionSample(
        rng.uniform(-1, 1, (20, 2)),
        np.zeros((20, 0)),
        rng.uniform(-1, 1, (20, 2)),
    )
    emb = Embedding(sample, RBFKernel(0.5), lam=1.0)
    box = BoxSet([-1.0, -1.0], [1.0, 1.0])
    problem = ReachProblem(safe=box, target=box, horizon=2)
    with pytest.raises(InputError, match="control"):
        value_recursion_max(emb, problem, np.zeros((1, 2)), [[0.0]])
    # the fixed-policy recursion ignores the policy entirely and solves
    # once for the successors and once for the points
    solves = _record_solves(monkeypatch, emb)
    field = value_recursion(emb, ReachProblem(box, box, 3), np.zeros((1, 2)), None)
    assert 0.0 <= field.values[0][0] <= 1.0
    assert solves == [20, 1]


@pytest.mark.parametrize(
    "shape",
    [(1, 1), (65536, 2), (3, 4), (64, reach_module._NARROW_ROW),
     (64, reach_module._NARROW_ROW + 1), (256, 10000), (1, 10000), (0, 3),
     (0, 10000), (33, 9000)],
)
def test_box_contains_matches_the_row_wise_all(shape):
    rows, dim = shape
    rng = np.random.default_rng(dim)
    lower = rng.uniform(-1.0, 0.0, dim)
    upper = lower + rng.uniform(0.0, 2.0, dim)
    upper[0] = lower[0]  # a flat axis: only its face is inside
    box = BoxSet(lower, upper)
    pts = rng.uniform(-1.2, 2.2, shape)
    pts[::5] = np.clip(pts[::5], lower, upper)  # rows inside
    pts[1::7, :] = lower  # on the lower faces
    pts[2::7, :] = upper  # on the upper faces
    pts[3::11, dim // 2] = np.nextafter(upper[dim // 2], np.inf)
    pts[4::13, -1] = np.nan
    got = box.contains(pts)
    want = np.all((pts >= lower) & (pts <= upper), axis=1)
    assert got.dtype == bool and got.shape == (rows,)
    np.testing.assert_array_equal(got, want)
    if rows > 4:
        assert got[1] and not got[4]  # a face row is inside, a NaN row not


def test_box_contains_sweeps_wide_rows_in_blocks():
    # the successors of bench-dims at n = 10 000: 256 rows of 19.5 MiB;
    # the test may add the result and one block, not a (P, n) mask
    rows, dim = 256, 10_000
    box = BoxSet(-np.ones(dim), np.ones(dim))
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, (rows, dim))
    pts[::3, 7] = 1.5
    box.contains(pts[:2])
    tracemalloc.start()
    try:
        got = box.contains(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * reach_module._BOX_BLOCK + 2**16, peak
    np.testing.assert_array_equal(got, np.arange(rows) % 3 != 0)


def test_value_field_validation():
    with pytest.raises(InputError):
        ValueField(points=np.zeros((4, 2)), values=np.zeros((2, 3)))
    field = ValueField(points=np.zeros((3, 2)), values=np.zeros((2, 3)))
    assert field.horizon == 1


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 10**6),
    count=st.integers(2, 8),
    horizon=st.integers(1, 3),
    half=st.floats(0.3, 1.5),
)
def test_recursion_invariants_on_tiny_samples(seed, count, horizon, half):
    rng = np.random.default_rng(seed)
    states = rng.uniform(-1, 1, (count, 2))
    controls = rng.uniform(-1, 1, (count, 1))
    successors = states + 0.1 * rng.normal(size=(count, 2))
    emb = Embedding(
        TransitionSample(states, controls, successors), RBFKernel(0.5), lam=0.5
    )
    safe = BoxSet([-half, -half], [half, half])
    small = ReachProblem(
        safe, BoxSet([-half / 2, -half / 2], [half / 2, half / 2]), horizon
    )
    big = ReachProblem(safe, safe, horizon)
    pts = rng.uniform(-1.2, 1.2, (6, 2))
    policy = ConstantPolicy([0.0])
    f_small = value_recursion(emb, small, pts, policy)
    f_big = value_recursion(emb, big, pts, policy)
    for field, problem in ((f_small, small), (f_big, big)):
        assert np.all(field.values >= 0.0) and np.all(field.values <= 1.0)
        np.testing.assert_array_equal(
            field.values[-1], problem.target.contains(pts).astype(float)
        )
        unsafe = ~safe.contains(pts)
        assert np.all(field.values[:-1][:, unsafe] == 0.0)
    # growing the target can only raise values: weights are nonnegative
    assert np.all(f_small.values <= f_big.values + 1e-12)
