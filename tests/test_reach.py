"""Backward recursion on the fitted estimator: semantics and invariants."""

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
    RBFKernel,
    ReachProblem,
    TransitionSample,
    ValueField,
    ZeroPolicy,
    generate_transitions,
    value_recursion,
    value_recursion_max,
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
    # weight columns per control are bitwise identical across calls and
    # normalized weights are nonnegative, so this inequality is exact
    emb, problem, pts = controlled
    small = value_recursion_max(emb, problem, pts, [[0.0]])
    big = value_recursion_max(emb, problem, pts, [[0.0], [0.6], [-0.6]])
    assert np.all(big.values >= small.values)


def test_duplicate_controls_tie_to_the_lowest_index(controlled):
    emb, problem, pts = controlled
    maxed = value_recursion_max(emb, problem, pts, [[0.3], [0.3]])
    np.testing.assert_array_equal(maxed.policy_choices, 0)


def test_one_step_recursion_unrolls_to_manual_weights(controlled):
    emb, problem, pts = controlled
    one = ReachProblem(problem.safe, problem.target, horizon=1)
    policy = ConstantPolicy([0.2])
    field = value_recursion(emb, one, pts, policy)
    w = emb.weights(pts, policy(0, pts))
    term = one.target.contains(emb.sample.successors).astype(np.float64)
    est = np.clip(term @ w, 0.0, 1.0)
    want = one.safe.contains(pts).astype(np.float64) * est
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
    """Time-varying policy that logs each ``(k, rows)`` query."""

    def __init__(self, control_dim):
        self.control_dim = control_dim
        self.calls = []

    def __call__(self, k, states):
        states = np.atleast_2d(states)
        self.calls.append((k, states.shape[0]))
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


def _record_solves(monkeypatch, emb):
    """Wrap ``emb.weights`` to log the row count of every solve."""
    solves = []
    original = emb.weights

    def weights(states, controls=None):
        solves.append(states.shape[0])
        return original(states, controls)

    monkeypatch.setattr(emb, "weights", weights)
    return solves


def test_weights_are_reused_while_controls_repeat(controlled, monkeypatch):
    emb, problem, pts = controlled
    n_succ = emb.sample.successors.shape[0]
    monkeypatch.setattr(reach_module, "_POINT_BLOCK", 16)
    sizes = [16, 16, 8]  # blocks of the 40 points
    solves = _record_solves(monkeypatch, emb)

    # horizon 3: successors queried at k = 2, 1, then each block at
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


def _reference_step(weights, next_values, safe_mask):
    return np.clip(next_values @ weights, 0.0, 1.0) * safe_mask


def _reference_fixed(emb, problem, pts, policy):
    """Reference fixed-policy recursion: step-outer, points and
    successors advanced together, weights solved at every step."""
    succ = emb.sample.successors
    m = emb.sample.control_dim

    def weights(k, states):
        return emb.weights(states, None if m == 0 else policy(k, states))

    mask_pts = problem.safe.contains(pts).astype(np.float64)
    mask_succ = problem.safe.contains(succ).astype(np.float64)
    n = problem.horizon
    values = np.empty((n + 1, pts.shape[0]))
    values[n] = problem.target.contains(pts)
    v_succ = problem.target.contains(succ).astype(np.float64)
    for k in range(n - 1, -1, -1):
        values[k] = _reference_step(weights(k, pts), v_succ, mask_pts)
        if k > 0:
            v_succ = _reference_step(weights(k, succ), v_succ, mask_succ)
    return values


def _reference_max(emb, problem, pts, control_grid):
    """Reference max-mode recursion: step-outer, every control's weights
    alive at once, candidates stacked and reduced with max/argmax."""
    succ = emb.sample.successors
    grid = np.atleast_2d(np.asarray(control_grid, dtype=np.float64))
    w_pts = [emb.weights(pts, np.tile(u, (len(pts), 1))) for u in grid]
    w_succ = [emb.weights(succ, np.tile(u, (len(succ), 1))) for u in grid]
    mask_pts = problem.safe.contains(pts).astype(np.float64)
    mask_succ = problem.safe.contains(succ).astype(np.float64)
    n = problem.horizon
    values = np.empty((n + 1, pts.shape[0]))
    values[n] = problem.target.contains(pts)
    choices = np.empty((n, pts.shape[0]), dtype=np.int64)
    v_succ = problem.target.contains(succ).astype(np.float64)
    for k in range(n - 1, -1, -1):
        cand = np.stack([_reference_step(w, v_succ, mask_pts) for w in w_pts])
        values[k] = cand.max(axis=0)
        choices[k] = cand.argmax(axis=0)
        if k > 0:
            v_succ = np.stack(
                [_reference_step(w, v_succ, mask_succ) for w in w_succ]
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


def test_max_mode_keeps_one_point_weight_matrix_alive(controlled, monkeypatch):
    # wrap ``weights`` on the instance and release each point-weight
    # matrix in a ``weakref.finalize`` callback, as the benchmark tracer does
    emb, problem, pts = controlled
    n_pts = pts.shape[0]
    assert n_pts != emb.count
    stats = {"live": 0, "peak": 0, "succ_calls": 0}
    original = emb.weights

    def release():
        stats["live"] -= 1

    def weights(states, controls=None):
        w = original(states, controls)
        if w.shape[1] == n_pts:
            stats["live"] += 1
            stats["peak"] = max(stats["peak"], stats["live"])
            weakref.finalize(w, release)
        else:
            stats["succ_calls"] += 1
        return w

    monkeypatch.setattr(emb, "weights", weights)
    grid = [[-0.5], [0.0], [0.5]]
    value_recursion_max(emb, problem, pts, grid)  # horizon 3
    assert stats["peak"] == 1 and stats["live"] == 0
    assert stats["succ_calls"] == len(grid)

    one = ReachProblem(problem.safe, problem.target, horizon=1)
    stats.update(peak=0, succ_calls=0)
    value_recursion_max(emb, one, pts, grid)
    # a one-step recursion never reads successor values
    assert stats["succ_calls"] == 0 and stats["peak"] == 1


@pytest.mark.parametrize("normalize", [True, False])
def test_point_blocks_match_one_block(controlled, monkeypatch, normalize):
    emb, problem, pts = controlled
    if not normalize:
        emb = Embedding(emb.sample, emb.kernel, emb.lam, normalize_weights=False)
    grid = [[-0.5], [0.0], [0.5]]
    n_pts, block = pts.shape[0], 16
    assert n_pts < reach_module._POINT_BLOCK and n_pts % block != 0
    whole = [
        value_recursion(emb, problem, pts, ZeroPolicy(1)),
        value_recursion(emb, problem, pts, RecordingPolicy(1)),
        value_recursion_max(emb, problem, pts, grid),
    ]

    monkeypatch.setattr(reach_module, "_POINT_BLOCK", block)
    stats = {"live": 0, "peak": 0, "widths": []}
    original = emb.weights

    def release():
        stats["live"] -= 1

    def weights(states, controls=None):
        w = original(states, controls)
        if w.shape[1] != emb.count:
            stats["live"] += 1
            stats["peak"] = max(stats["peak"], stats["live"])
            stats["widths"].append(w.shape[1])
            weakref.finalize(w, release)
        return w

    monkeypatch.setattr(emb, "weights", weights)
    varying = RecordingPolicy(1)
    blocked = [
        value_recursion(emb, problem, pts, ZeroPolicy(1)),
        value_recursion(emb, problem, pts, varying),
        value_recursion_max(emb, problem, pts, grid),
    ]
    for got, want in zip(blocked, whole):
        np.testing.assert_allclose(got.values, want.values, rtol=0, atol=1e-14)
    # the controlled sample's controls are distinct, so no choice is a tie
    np.testing.assert_array_equal(
        blocked[2].policy_choices, whole[2].policy_choices
    )
    sizes = [16, 16, 8]
    assert stats["peak"] == 1 and stats["live"] == 0
    # zero policy: once per block; varying: per block and step (horizon
    # 3); max: per block and control (3)
    thrice = [b for b in sizes for _ in range(3)]
    assert stats["widths"] == sizes + thrice + thrice
    n_succ = emb.sample.successors.shape[0]
    want_calls = [(k, b) for k in (2, 1, 0) for b in sizes]
    assert sorted(varying.calls) == sorted(want_calls + [(2, n_succ), (1, n_succ)])


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
