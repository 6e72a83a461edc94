"""Grid-recursion and Monte Carlo reference oracles."""

import numpy as np
import pytest
from scipy.special import ndtr

from rkhs_reach import (
    BetaDisturbance,
    BoxSet,
    DPGrid,
    GaussianDisturbance,
    InputError,
    IntegratorChain,
    PredicateSet,
    ReachProblem,
    ZeroDisturbance,
    ZeroPolicy,
    default_dp_grid,
    dp_reach,
    mc_reach,
)


@pytest.fixture(scope="module")
def setup():
    system = IntegratorChain(2, sampling_time=0.25)
    disturbance = GaussianDisturbance([0.1, 0.1])
    box = BoxSet([-1.0, -1.0], [1.0, 1.0])
    problem = ReachProblem(safe=box, target=box, horizon=3)
    return system, disturbance, problem, ZeroPolicy(1)


class StepPolicy:
    """Control flips sign after the first step."""

    description = "step"

    def __call__(self, k, states):
        u = 0.3 if k == 0 else -0.3
        return np.full((np.atleast_2d(states).shape[0], 1), u)


# ------------------------------------------------------------------ dp grid


def test_default_grid_spans_safe_target_union():
    problem = ReachProblem(
        safe=BoxSet([-1.0, -1.0], [1.0, 1.0]),
        target=BoxSet([-0.5, -1.0], [0.75, 1.2]),
        horizon=2,
    )
    grid = default_dp_grid(problem)
    assert grid.lower == (-1.0, -1.0)
    assert grid.upper == (1.0, 1.2)
    assert grid.shape == (201, 201)
    assert grid.quad_nodes == 25
    axes = grid.axes()
    assert axes[0][0] == -1.0 and axes[0][-1] == 1.0
    assert axes[1][0] == -1.0 and axes[1][-1] == 1.2


def test_dpgrid_validation():
    with pytest.raises(InputError):
        DPGrid((0.0,), (1.0,))
    with pytest.raises(InputError):
        DPGrid((0.0, 0.0), (1.0, 1.0), shape=(1, 5))
    with pytest.raises(InputError):
        DPGrid((0.0, 0.0), (1.0, 1.0), quad_nodes=1)
    with pytest.raises(InputError):
        DPGrid((0.0, 0.0), (0.0, 1.0))


def test_dp_rejects_unsupported_problems(setup):
    system, disturbance, problem, policy = setup
    pts = np.zeros((1, 2))
    with pytest.raises(InputError, match="2-D"):
        dp_reach(IntegratorChain(3), disturbance, problem, pts, policy)
    with pytest.raises(InputError, match="Gaussian"):
        dp_reach(system, BetaDisturbance(2.0, 2.0, 2), problem, pts, policy)
    with pytest.raises(InputError, match="dimension"):
        dp_reach(system, GaussianDisturbance([0.1]), problem, pts, policy)
    cone = PredicateSet(lambda z: z[:, 0] > 0.0, dim=2)
    bad = ReachProblem(safe=cone, target=cone, horizon=2)
    with pytest.raises(InputError, match="box"):
        dp_reach(system, disturbance, bad, pts, policy)
    small = DPGrid((-0.5, -0.5), (1.0, 1.0))
    with pytest.raises(InputError, match="cover"):
        dp_reach(system, disturbance, problem, pts, policy, grid=small)
    with pytest.raises(InputError):
        dp_reach(system, disturbance, problem, np.zeros((2, 3)), policy)


# ------------------------------------------------------------ dp recursion


def test_dp_first_backup_is_the_normal_cdf_closed_form(setup):
    system, disturbance, problem, policy = setup
    one_step = ReachProblem(problem.safe, problem.target, horizon=1)
    pts = np.array([[0.0, 0.0], [0.7, 0.5], [-0.9, -0.9], [1.05, 0.0]])
    field = dp_reach(system, disturbance, one_step, pts, policy)
    mu = pts @ system.dense_a().T
    sd = disturbance.sd
    box = problem.target
    want = np.ones(len(pts))
    for d in range(2):
        want *= ndtr((box.upper[d] - mu[:, d]) / sd[d]) - ndtr(
            (box.lower[d] - mu[:, d]) / sd[d]
        )
    want *= problem.safe.contains(pts)
    np.testing.assert_array_equal(field.values[0], want)


def test_dp_terminal_row_and_shape(setup):
    system, disturbance, problem, policy = setup
    pts = np.array([[0.0, 0.0], [0.999, -1.0], [1.2, 0.0]])
    field = dp_reach(system, disturbance, problem, pts, policy)
    assert field.values.shape == (problem.horizon + 1, 3)
    assert field.horizon == problem.horizon
    np.testing.assert_array_equal(field.values[-1], [1.0, 1.0, 0.0])
    np.testing.assert_array_equal(field.points, pts)
    assert np.all(field.values >= 0.0) and np.all(field.values <= 1.0)


def test_dp_unsafe_start_is_exactly_zero(setup):
    system, disturbance, problem, policy = setup
    pts = np.array([[1.05, 0.0], [0.0, -1.3], [2.0, 2.0]])
    field = dp_reach(system, disturbance, problem, pts, policy)
    np.testing.assert_array_equal(field.values[0], np.zeros(3))


def test_dp_keeps_mass_far_from_boundaries():
    # safe box 40 noise-sd wide: staying probability from the center is ~1
    system = IntegratorChain(2, sampling_time=0.25)
    disturbance = GaussianDisturbance([0.05, 0.05])
    box = BoxSet([-2.0, -2.0], [2.0, 2.0])
    problem = ReachProblem(safe=box, target=box, horizon=3)
    field = dp_reach(
        system, disturbance, problem, np.zeros((1, 2)), ZeroPolicy(1)
    )
    assert 0.999 <= field.values[0][0] <= 1.0


def test_dp_zero_variance_limit_recovers_indicators():
    system = IntegratorChain(2, sampling_time=0.25)
    disturbance = GaussianDisturbance([1e-6, 1e-6])
    problem = ReachProblem(
        safe=BoxSet([-1.0, -1.0], [1.0, 1.0]),
        target=BoxSet([-0.5, -0.5], [0.5, 0.5]),
        horizon=1,
    )
    pts = np.array([[0.0, 0.0], [0.2, 0.3], [0.9, 0.0], [1.5, 0.0]])
    # noiseless successor A @ x: in / in / out of target / start unsafe
    field = dp_reach(system, disturbance, problem, pts, ZeroPolicy(1))
    np.testing.assert_allclose(field.values[0], [1.0, 1.0, 0.0, 0.0], atol=1e-9)


def test_dp_monotone_in_target(setup):
    system, disturbance, problem, policy = setup
    grid = default_dp_grid(problem)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.0, 1.0, size=(25, 2))
    small = ReachProblem(
        problem.safe, BoxSet([-0.4, -0.4], [0.4, 0.4]), problem.horizon
    )
    v_small = dp_reach(system, disturbance, small, pts, policy, grid=grid)
    v_big = dp_reach(system, disturbance, problem, pts, policy, grid=grid)
    assert np.all(v_small.values <= v_big.values + 1e-12)


def test_dp_quadrature_doubling_barely_moves_values(setup):
    system, disturbance, problem, policy = setup
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1.0, 1.0, size=(5, 2))
    lo = default_dp_grid(problem, quad_nodes=25)
    hi = default_dp_grid(problem, quad_nodes=50)
    v_lo = dp_reach(system, disturbance, problem, pts, policy, grid=lo)
    v_hi = dp_reach(system, disturbance, problem, pts, policy, grid=hi)
    assert np.abs(v_lo.values - v_hi.values).max() <= 0.005


def test_dp_time_varying_policy_agrees_with_monte_carlo(setup):
    system, disturbance, problem, _ = setup
    two_step = ReachProblem(problem.safe, problem.target, horizon=2)
    policy = StepPolicy()
    pts = np.array([[0.0, 0.0], [0.5, -0.4], [-0.7, 0.6]])
    field = dp_reach(system, disturbance, two_step, pts, policy)
    mc, hw = mc_reach(system, disturbance, two_step, policy, pts, 150000, 3)
    gaps = np.abs(field.values[0] - mc)
    assert np.all(gaps <= np.maximum(0.01, 3.0 * hw))


def test_dp_plain_function_matches_zero_policy_bitwise(setup):
    # the oracle queries every policy at every step, whatever its class
    system, disturbance, problem, _ = setup
    grid = default_dp_grid(problem, shape=(61, 61), quad_nodes=9)
    pts = np.array([[0.0, 0.0], [0.5, -0.4], [-0.7, 0.6]])
    steps = {"class": [], "function": []}

    class RecordingZero(ZeroPolicy):
        def __call__(self, k, states):
            steps["class"].append(k)
            return super().__call__(k, states)

    def zeros(k, states):
        steps["function"].append(k)
        return np.zeros((states.shape[0], 1))

    want = dp_reach(system, disturbance, problem, pts, RecordingZero(1), grid)
    got = dp_reach(system, disturbance, problem, pts, zeros, grid)
    np.testing.assert_array_equal(got.values, want.values)
    # evaluation points at k = 2, 1, 0; the grid at k = 2, 1
    assert sorted(steps["class"]) == sorted(steps["function"]) == [0, 1, 1, 2, 2]


def test_dp_fixed_policy_agrees_with_monte_carlo(setup):
    system, disturbance, problem, policy = setup
    pts = np.array([[0.0, 0.0], [0.5, 0.5], [-0.8, 0.2], [0.9, -0.9]])
    field = dp_reach(system, disturbance, problem, pts, policy)
    mc, hw = mc_reach(system, disturbance, problem, policy, pts, 100000, 21)
    gaps = np.abs(field.values[0] - mc)
    assert np.all(gaps <= np.maximum(0.012, 3.0 * hw))


# -------------------------------------------------------------- monte carlo


def test_mc_unsafe_start_is_exactly_zero(setup):
    system, disturbance, problem, policy = setup
    values, hw = mc_reach(
        system, disturbance, problem, policy, [[1.5, 0.0]], 10, 0
    )
    assert values[0] == 0.0 and hw[0] == 0.0


def test_mc_zero_disturbance_is_the_deterministic_indicator():
    system = IntegratorChain(2, sampling_time=0.25)
    problem = ReachProblem(
        safe=BoxSet([-1.0, -1.0], [1.0, 1.0]),
        target=BoxSet([-0.25, -0.25], [0.25, 0.25]),
        horizon=3,
    )
    x0s = [[0.0, 0.0], [0.5, 0.4], [-1.2, 0.0]]
    values, hw = mc_reach(
        system, ZeroDisturbance(2), problem, ZeroPolicy(1), x0s, 50, 0
    )
    np.testing.assert_array_equal(values, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(hw, [0.0, 0.0, 0.0])


def test_mc_halfwidth_formula(setup):
    system, disturbance, problem, policy = setup
    values, hw = mc_reach(
        system, disturbance, problem, policy, [[0.6, 0.6]], 400, 5
    )
    want = 1.96 * np.sqrt(values * (1.0 - values) / 400)
    np.testing.assert_array_equal(hw, want)


def test_mc_streams_are_prefix_stable(setup):
    # appending start states must not change earlier estimates at all
    system, disturbance, problem, policy = setup
    one, _ = mc_reach(system, disturbance, problem, policy, [[0.3, 0.2]], 2000, 7)
    both, _ = mc_reach(
        system, disturbance, problem, policy,
        [[0.3, 0.2], [0.8, -0.5]], 2000, 7,
    )
    assert one[0] == both[0]


def test_mc_seeds_agree_within_confidence(setup):
    system, disturbance, problem, policy = setup
    pts = [[0.6, 0.6]]
    v1, h1 = mc_reach(system, disturbance, problem, policy, pts, 20000, 1)
    v2, h2 = mc_reach(system, disturbance, problem, policy, pts, 20000, 2)
    assert 0.05 < v1[0] < 0.95  # the probe must be genuinely stochastic
    assert abs(v1[0] - v2[0]) <= 2.0 * (h1[0] + h2[0])


def test_mc_chunking_only_regroups_rollouts(setup):
    system, disturbance, problem, policy = setup
    pts = [[0.6, 0.6]]
    v1, h1 = mc_reach(system, disturbance, problem, policy, pts, 20000, 4)
    v2, h2 = mc_reach(
        system, disturbance, problem, policy, pts, 20000, 4, chunk_size=777
    )
    assert abs(v1[0] - v2[0]) <= 2.0 * (h1[0] + h2[0])


def test_mc_validates_inputs(setup):
    system, disturbance, problem, policy = setup
    with pytest.raises(InputError):
        mc_reach(system, disturbance, problem, policy, [[0.0, 0.0]], 0, 0)
    with pytest.raises(InputError):
        mc_reach(system, disturbance, problem, policy, [[0.0, 0.0, 0.0]], 10, 0)
