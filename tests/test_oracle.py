"""Grid-recursion and Monte Carlo reference oracles."""

import math
import os
import pathlib
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

import rkhs_reach
from rkhs_reach import _backend, oracle
from rkhs_reach import (
    BetaDisturbance,
    BoxSet,
    ConstantPolicy,
    CWHSystem,
    GaussianDisturbance,
    InputError,
    IntegratorChain,
    PredicateSet,
    ReachProblem,
    ZeroDisturbance,
    ZeroPolicy,
    cwh_lqr_policy,
    cwh_sets,
    dp_reach,
    mc_reach,
)
from rkhs_reach.reach import grid_points

from test_systems import dense_chain


@pytest.fixture(scope="module")
def setup():
    system = IntegratorChain(2, sampling_time=0.25)
    disturbance = GaussianDisturbance([0.1, 0.1])
    box = BoxSet([-1.0, -1.0], [1.0, 1.0])
    problem = ReachProblem(safe=box, target=box, horizon=3)
    return system, disturbance, problem, ZeroPolicy(1)


class RecordingDisturbance(GaussianDisturbance):
    """Gaussian noise that lists the row count of every draw."""

    def __init__(self, sd):
        super().__init__(sd)
        self.draws = []

    def draw(self, rng, count):
        self.draws.append(count)
        return super().draw(rng, count)


class StepPolicy:
    """Control flips sign after the first step."""

    description = "step"

    def __call__(self, k, states):
        u = 0.3 if k == 0 else -0.3
        return np.full((np.atleast_2d(states).shape[0], 1), u)


# ------------------------------------------------------------------ dp grid


def test_dp_grid_spans_safe_target_union(setup, monkeypatch):
    # the target pokes past the safe box on the second axis, so the grid
    # runs from the safe box's lower corner to the target's top edge
    system, disturbance, _, policy = setup
    problem = ReachProblem(
        safe=BoxSet([-1.0, -1.0], [1.0, 1.0]),
        target=BoxSet([-0.5, -1.0], [0.75, 1.2]),
        horizon=2,
    )
    seen = []
    backup = _backend.dp_backup

    def recording(v2d, origin, steps, sd, means, glx, glw):
        seen.append((v2d.shape, origin, steps, len(glx)))
        return backup(v2d, origin, steps, sd, means, glx, glw)

    monkeypatch.setattr(_backend, "dp_backup", recording)
    pts = np.zeros((1, 2))
    dp_reach(system, disturbance, problem, pts, policy)
    dp_reach(system, disturbance, problem, pts, policy, shape=(41, 57), quad_nodes=7)
    # one quadrature backup per call: horizon 2 has one step after the
    # closed-form first step
    assert [(s[0], s[3]) for s in seen] == [((201, 201), 25), ((41, 57), 7)]
    for shape, origin, steps, _ in seen:
        assert origin == (-1.0, -1.0)
        last = [origin[d] + steps[d] * (shape[d] - 1) for d in range(2)]
        np.testing.assert_allclose(last, [1.0, 1.2], rtol=0, atol=1e-12)


# BLAS settings that each load other OpenBLAS kernels or another pool
_BLAS_ENVIRONMENTS = [
    {"OPENBLAS_NUM_THREADS": "1"},
    {"OPENBLAS_NUM_THREADS": "2"},
    {"OPENBLAS_CORETYPE": "Prescott"},
]


def test_dp_bytes_hold_on_every_blas_kernel_and_thread_count(tmp_path):
    # the benchmark's grid oracle (201 x 201, 25 nodes, 101 x 101 points),
    # and the same on a 21 x 21 evaluation grid, take the backup's table
    # path at every step and so make no BLAS call: each output keeps its
    # bytes whatever OpenBLAS loads. With the band product, one thread
    # against two moved 7 cells of the 101 x 101 output and the Prescott
    # kernels 4 529; the three 21 x 21 outputs were three different files
    paths = [str(pathlib.Path(rkhs_reach.__file__).parent.parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    for side in (101, 21):
        outputs = []
        for i, blas in enumerate(_BLAS_ENVIRONMENTS):
            env = {
                k: v for k, v in os.environ.items()
                if k not in ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE")
            }
            env.update(blas, PYTHONPATH=os.pathsep.join(paths))
            out = tmp_path / f"dp_{side}_{i}.csv"
            subprocess.run(
                [
                    sys.executable, "-m", "rkhs_reach.cli", "oracle-dp",
                    "--sigma", "0.1", "--lambda", "1", "--horizon", "3",
                    "--grid", f"{side}x{side}:-1.1,1.1,-1.1,1.1",
                    "--dp-grid", "201x201", "--dp-quad", "25", "--out", str(out),
                ],
                env=env, capture_output=True, text=True, check=True, timeout=300,
            )
            outputs.append(out.read_bytes())
        assert outputs[0].count(b"\n") == side * side + 5
        for blas, got in zip(_BLAS_ENVIRONMENTS[1:], outputs[1:]):
            assert got == outputs[0], (side, blas)


def test_dp_values_at_its_own_grid_are_the_stored_field(setup, monkeypatch):
    # evaluated at its own computation grid, the same shape over the
    # safe and target boxes' union from the same builder, the oracle
    # reports at every step k >= 1 the grid field it stored, bit for bit
    system, disturbance, _, policy = setup
    problem = ReachProblem(
        safe=BoxSet([-1.0, -1.0], [1.0, 1.0]),
        target=BoxSet([-0.5, -1.0], [0.75, 1.2]),
        horizon=4,
    )
    fields = []
    backup = _backend.dp_backup

    def recording(v2d, *args):
        if not fields or fields[-1] is not v2d:
            fields.append(v2d)
        return backup(v2d, *args)

    monkeypatch.setattr(_backend, "dp_backup", recording)
    shape = (41, 57)
    _, pts = grid_points(shape, [-1.0, -1.0], [1.0, 1.2])
    field = dp_reach(
        system, disturbance, problem, pts, policy, shape=shape, quad_nodes=7
    )
    # the field stored at step k feeds the backups of step k - 1
    steps = range(problem.horizon - 1, 0, -1)
    assert len(fields) == len(steps)
    for k, v2d in zip(steps, fields):
        assert v2d.shape == shape and v2d.max() > 0.0
        assert field.values[k].tobytes() == v2d.ravel().tobytes()


def test_dp_validates_grid_and_quadrature(setup):
    system, disturbance, problem, policy = setup
    pts = np.zeros((1, 2))
    for shape in ((1, 5), (5, 1), (5,), (5, 5, 5)):
        with pytest.raises(InputError, match="grid needs"):
            dp_reach(system, disturbance, problem, pts, policy, shape=shape)
    with pytest.raises(InputError, match="quadrature"):
        dp_reach(system, disturbance, problem, pts, policy, quad_nodes=1)
    # the union of the safe and target boxes is flat on the first axis
    flat = BoxSet([0.0, 0.0], [0.0, 1.0])
    with pytest.raises(InputError, match="degenerate"):
        dp_reach(system, disturbance, ReachProblem(flat, flat, 2), pts, policy)
    cube = BoxSet([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
    with pytest.raises(InputError, match="2-D safe and target"):
        dp_reach(system, disturbance, ReachProblem(cube, cube, 2), pts, policy)


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
    with pytest.raises(InputError):
        dp_reach(system, disturbance, problem, np.zeros((2, 3)), policy)
    # NaN and infinite points are rejected, not answered with nan
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError, match="finite"):
            dp_reach(system, disturbance, problem, [[0.0, bad]], policy)
    with pytest.raises(InputError, match="non-empty"):
        dp_reach(system, disturbance, problem, np.empty((0, 2)), policy)


# ------------------------------------------------------------ dp recursion


def test_dp_first_backup_is_the_normal_cdf_closed_form(setup):
    system, disturbance, problem, policy = setup
    one_step = ReachProblem(problem.safe, problem.target, horizon=1)
    pts = np.array([[0.0, 0.0], [0.7, 0.5], [-0.9, -0.9], [1.05, 0.0]])
    field = dp_reach(system, disturbance, one_step, pts, policy)
    mu = pts @ dense_chain(system).T
    sd = disturbance.sd
    box = problem.target

    def cdf(z):
        return 0.5 * math.erfc(-z / math.sqrt(2))

    want = np.ones(len(pts))
    for d in range(2):
        want *= [
            cdf((box.upper[d] - m) / sd[d]) - cdf((box.lower[d] - m) / sd[d])
            for m in mu[:, d]
        ]
    want *= problem.safe.contains(pts)
    np.testing.assert_array_equal(field.values[0], want)


def test_normal_cdf_agrees_with_scipy_ndtr():
    # scipy serves the tests only, as an independent normal CDF
    z = np.linspace(-40.0, 40.0, 800001)
    got = oracle._normal_cdf(z)
    assert np.abs(got - ndtr(z)).max() <= np.finfo(np.float64).eps


_CDF_ARGS = np.array([0.0, -0.0, np.inf, -np.inf, 1.5, -2.25, 5e-324, 38.5])


@pytest.mark.parametrize(
    "z",
    [
        np.concatenate(
            [_CDF_ARGS, _CDF_ARGS[::-1], np.linspace(-3.0, 3.0, 7).repeat(3)]
        ),
        _CDF_ARGS,
    ],
    ids=["repeated", "distinct"],
)
def test_normal_cdf_is_the_per_element_erfc_bitwise(z):
    # signed zeros and infinities give what the per-element call gives
    got = oracle._normal_cdf(z)
    want = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z])
    assert got.tobytes() == want.tobytes()


def test_box_hit_probability_is_per_element_on_repeated_means():
    # erfc runs once per face and distinct mean of an axis; each query
    # gathers the bits its own per-element evaluation gives, signed
    # zeros and infinite means included
    axis = np.concatenate([_CDF_ARGS, np.linspace(-1.5, 1.5, 7)])
    rng = np.random.default_rng(18)
    means = np.column_stack([rng.choice(axis, 300), rng.choice(axis, 300)])
    box = BoxSet([-1.0, -0.5], [1.0, 0.25])
    sd = np.array([0.3, 0.2])

    def cdf(z):
        return 0.5 * math.erfc(-z / math.sqrt(2.0))

    want = np.ones(len(means))
    for d in range(2):
        want *= [
            cdf((box.upper[d] - m) / sd[d]) - cdf((box.lower[d] - m) / sd[d])
            for m in means[:, d]
        ]
    got = oracle._box_hit_probability(means, box, sd)
    assert got.tobytes() == want.tobytes()


def test_normal_cdf_takes_float32_as_float64():
    z = np.array([0.1, 0.1, -2.5, 0.0], dtype=np.float32)
    got = oracle._normal_cdf(z)
    assert got.tobytes() == oracle._normal_cdf(z.astype(np.float64)).tobytes()


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


@pytest.mark.parametrize("far", [1e20, 1e200])
def test_dp_far_unsafe_start_is_zero_without_a_warning(setup, far):
    # the start's means lie so far beyond the grid that their cell index
    # overflows an int64 and their squared distance a float
    system, disturbance, problem, policy = setup
    two_step = ReachProblem(problem.safe, problem.target, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field = dp_reach(
            system, disturbance, two_step, [[far, 0.0]], policy, shape=(21, 21)
        )
    assert field.values[0][0] == 0.0


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


@pytest.mark.parametrize("centre", [0.0, 1e6])
def test_dp_refuses_noise_too_small_to_integrate(centre):
    # below the bound the quadrature window is lost to rounding (every
    # value was 0 at sd 1e-17 on [-1, 1]); just above it the grid oracle
    # gives the noise-free answer, and one step needs no quadrature. The
    # rounding grows with the coordinates, not with the grid's extent:
    # on [1e6 - 1, 1e6 + 1] 1e-9 of the extent is 17 float spacings
    # there, against 4.5e6 at the bound
    system = IntegratorChain(2, sampling_time=0.25)
    box = BoxSet([centre - 1.0, -1.0], [centre + 1.0, 1.0])
    pts = np.array([[0.5, 0.3], [-0.7, 0.2], [0.1, -0.9]]) + [centre, 0.0]
    # the grid's largest |coordinate| on each axis
    bound = oracle._MIN_SD_SHARE * np.array([abs(centre) + 1.0, 1.0])
    problem = ReachProblem(safe=box, target=box, horizon=3)
    with pytest.raises(InputError, match="axis 1 .* Monte Carlo oracle"):
        dp_reach(
            system, GaussianDisturbance([0.99 * bound[0], 0.1]), problem, pts,
            ZeroPolicy(1),
        )
    with pytest.raises(InputError, match="axis 2 .* Monte Carlo oracle"):
        dp_reach(
            system, GaussianDisturbance([0.1, 0.99 * bound[1]]), problem, pts,
            ZeroPolicy(1),
        )
    above = GaussianDisturbance(1.01 * bound)
    field = dp_reach(system, above, problem, pts, ZeroPolicy(1))
    np.testing.assert_allclose(field.values[0], 1.0, rtol=0, atol=1e-7)
    one = ReachProblem(safe=box, target=box, horizon=1)
    tiny = GaussianDisturbance([1e-17, 1e-17])
    field = dp_reach(system, tiny, one, pts, ZeroPolicy(1))
    np.testing.assert_array_equal(field.values[0], 1.0)


def test_dp_monotone_in_target(setup):
    system, disturbance, problem, policy = setup
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.0, 1.0, size=(25, 2))
    # both targets lie in the safe box, so both problems get the grid
    # over the safe box
    small = ReachProblem(
        problem.safe, BoxSet([-0.4, -0.4], [0.4, 0.4]), problem.horizon
    )
    grid = {"shape": (201, 201), "quad_nodes": 25}
    v_small = dp_reach(system, disturbance, small, pts, policy, **grid)
    v_big = dp_reach(system, disturbance, problem, pts, policy, **grid)
    assert np.all(v_small.values <= v_big.values + 1e-12)


def test_dp_quadrature_doubling_barely_moves_values(setup):
    system, disturbance, problem, policy = setup
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1.0, 1.0, size=(5, 2))
    v_lo = dp_reach(system, disturbance, problem, pts, policy, quad_nodes=25)
    v_hi = dp_reach(system, disturbance, problem, pts, policy, quad_nodes=50)
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
    grid = {"shape": (61, 61), "quad_nodes": 9}
    pts = np.array([[0.0, 0.0], [0.5, -0.4], [-0.7, 0.6]])
    steps = {"class": [], "function": []}

    class RecordingZero(ZeroPolicy):
        def __call__(self, k, states):
            steps["class"].append(k)
            return super().__call__(k, states)

    def zeros(k, states):
        steps["function"].append(k)
        return np.zeros((states.shape[0], 1))

    want = dp_reach(system, disturbance, problem, pts, RecordingZero(1), **grid)
    got = dp_reach(system, disturbance, problem, pts, zeros, **grid)
    np.testing.assert_array_equal(got.values, want.values)
    # evaluation points at k = 2, 1, 0; the grid at k = 2, 1
    assert sorted(steps["class"]) == sorted(steps["function"]) == [0, 1, 1, 2, 2]


class DenseChain:
    """A 2-D system with only ``n`` and ``step``: the chain's dense ``x A' + u B'``."""

    n = 2

    def __init__(self, sampling_time):
        chain = IntegratorChain(2, sampling_time)
        self.a, self.b = dense_chain(chain), chain._b

    def step(self, states, controls, disturbances):
        assert disturbances is None  # the oracle integrates the noise itself
        return states @ self.a.T + controls @ self.b.T


@pytest.mark.parametrize(
    "policy", [ZeroPolicy(1), ConstantPolicy([0.3])], ids=["zero", "constant"]
)
@pytest.mark.parametrize("sampling_time, tol", [(0.25, 0.0), (0.1, 1e-14)])
def test_dp_needs_of_the_system_only_its_step(setup, policy, sampling_time, tol):
    # the grid oracle's means are system.step(points, controls, None), so
    # a stand-in with the dense product gives the chain's values: bit for
    # bit at T = 0.25, where the banded and the dense product round alike
    _, disturbance, problem, _ = setup
    axis = np.linspace(-1.1, 1.1, 41)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([g1.ravel(), g2.ravel()])
    chain = IntegratorChain(2, sampling_time)
    want = dp_reach(chain, disturbance, problem, pts, policy).values
    got = dp_reach(DenseChain(sampling_time), disturbance, problem, pts, policy).values
    assert want.shape == (4, 41 * 41) and 0.0 < want[0].max() <= 1.0
    assert np.abs(got - want).max() <= tol


class ReshapedChain(DenseChain):
    """The dense chain with its ``(P, 2)`` means passed through ``reshape``."""

    def __init__(self, reshape):
        super().__init__(0.25)
        self.reshape = reshape

    def step(self, states, controls, disturbances):
        return self.reshape(super().step(states, controls, disturbances))


@pytest.mark.parametrize("horizon", [1, 3], ids=["closed form", "quadrature"])
@pytest.mark.parametrize(
    "reshape", [lambda m: m[:, 0], lambda m: m[:, :, None]], ids=["P", "P-2-1"]
)
def test_dp_refuses_means_of_another_shape_than_the_points(setup, horizon, reshape):
    # a duck-typed step's means of shape (P,) or (P, 2, 1)
    _, disturbance, problem, policy = setup
    problem = ReachProblem(problem.safe, problem.target, horizon)
    pts = np.array([[0.0, 0.0], [0.5, -0.4], [0.2, 0.1]])
    with pytest.raises(InputError, match="system.step returned means of shape"):
        dp_reach(ReshapedChain(reshape), disturbance, problem, pts, policy)


def test_dp_takes_means_as_nested_lists(setup):
    _, disturbance, problem, policy = setup
    pts = np.array([[0.0, 0.0], [0.5, -0.4], [0.2, 0.1]])
    want = dp_reach(DenseChain(0.25), disturbance, problem, pts, policy).values
    listed = ReshapedChain(lambda m: m.tolist())
    got = dp_reach(listed, disturbance, problem, pts, policy).values
    assert got.tobytes() == want.tobytes()


def test_both_oracles_refuse_controls_of_another_width(setup):
    # two control columns for the 1-control integrator
    system, disturbance, problem, _ = setup

    def wide(k, states):
        return np.zeros((len(states), 2))

    pts = np.array([[0.0, 0.0], [0.5, -0.4]])
    message = r"controls must have shape \(\d+, 1\), got \(\d+, 2\)"
    with pytest.raises(InputError, match=message):
        dp_reach(system, disturbance, problem, pts, wide, shape=(11, 11))
    with pytest.raises(InputError, match=message):
        mc_reach(system, disturbance, problem, wide, pts, 100, 0)


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


def test_mc_chunking_only_regroups_rollouts(setup, monkeypatch):
    system, disturbance, problem, policy = setup
    pts = [[0.6, 0.6]]
    v1, h1 = mc_reach(system, disturbance, problem, policy, pts, 20000, 4)
    recording = RecordingDisturbance(disturbance.sd)
    monkeypatch.setattr(oracle, "_MC_CHUNK", 777)
    v2, h2 = mc_reach(system, recording, problem, policy, pts, 20000, 4)
    # 25 full chunks and a 575-rollout remainder, one draw per step each
    assert recording.draws == [777] * 3 * 25 + [575] * 3
    assert abs(v1[0] - v2[0]) <= 2.0 * (h1[0] + h2[0])


def frozen_mc_reach(system, disturbance, problem, policy, x0s, rollouts, seed):
    """The rollout loop before its fast paths, kept as a bitwise reference.

    Gaussian noise comes from ``rng.normal(0, sd)``, a box is tested with
    a row-wise ``np.all``, and a start outside the safe set is rolled out
    like any other.
    """

    def inside(box, states):
        if isinstance(box, BoxSet):
            return np.all((states >= box.lower) & (states <= box.upper), axis=1)
        return box.contains(states)

    def draw(rng, count):
        if isinstance(disturbance, GaussianDisturbance):
            return rng.normal(0.0, disturbance.sd, size=(count, disturbance.dim))
        return disturbance.draw(rng, count)

    x0s = np.atleast_2d(np.asarray(x0s, dtype=np.float64))
    streams = np.random.SeedSequence(seed).spawn(x0s.shape[0])
    values = np.empty(x0s.shape[0])
    halfwidths = np.empty(x0s.shape[0])
    for p, x0 in enumerate(x0s):
        rng = np.random.default_rng(streams[p])
        hits = 0
        done = 0
        while done < rollouts:
            count = min(oracle._MC_CHUNK, rollouts - done)
            states = np.repeat(x0[None, :], count, axis=0)
            alive = np.ones(count, dtype=bool)
            for k in range(problem.horizon):
                alive &= inside(problem.safe, states)
                controls = policy(k, states)
                states = system.step(states, controls, draw(rng, count))
            hits += int(np.count_nonzero(alive & inside(problem.target, states)))
            done += count
        frac = hits / rollouts
        values[p] = frac
        halfwidths[p] = 1.96 * np.sqrt(frac * (1.0 - frac) / rollouts)
    return values, halfwidths


def integrator_case(disturbance, policy):
    problem = ReachProblem(
        safe=BoxSet([-1.0, -1.0], [1.0, 1.0]),
        target=BoxSet([-0.5, -0.5], [0.5, 0.5]),
        horizon=3,
    )
    x0s = [[0.0, 0.0], [0.6, -0.3], [-0.9, 0.8]]
    return IntegratorChain(2, sampling_time=0.25), disturbance, problem, policy, x0s


def faces_case():
    # inside, on each face (inclusive), a corner, and just or far outside
    system, disturbance, problem, policy, _ = integrator_case(
        GaussianDisturbance([0.1, 0.2]), ZeroPolicy(1)
    )
    x0s = [
        [0.2, 0.1], [-1.0, 0.0], [1.0, 0.3], [0.4, -1.0], [0.0, 1.0],
        [1.0, 1.0], [np.nextafter(1.0, 2.0), 0.0], [0.0, -1.5], [3.0, 3.0],
    ]
    return system, disturbance, problem, policy, x0s


def cwh_case():
    system = CWHSystem()
    target, safe = cwh_sets()
    problem = ReachProblem(safe=safe, target=target, horizon=5)
    # two starts that dock with probability in (0, 1), one outside the cone
    x0s = [[0.0, -0.3, 0.0, 0.003], [0.01, -0.15, 0.0, 0.002], [0.6, -0.5, 0.0, 0.0]]
    return system, system.default_disturbance(), problem, cwh_lqr_policy(system), x0s


MC_CASES = {
    "integrator-zero": lambda: integrator_case(
        GaussianDisturbance([0.1, 0.2]), ZeroPolicy(1)
    ),
    "integrator-step": lambda: integrator_case(
        GaussianDisturbance([0.15, 0.1]), StepPolicy()
    ),
    "integrator-beta": lambda: integrator_case(
        BetaDisturbance(2.0, 3.0, 2, centered=True), ZeroPolicy(1)
    ),
    "cwh-lqr": cwh_case,
    "box-faces": faces_case,
}


def use_cores(monkeypatch, count):
    monkeypatch.setattr(oracle, "_core_count", lambda: count)


@pytest.mark.parametrize("chunk", [oracle._MC_CHUNK, 777])
@pytest.mark.parametrize("case", MC_CASES)
def test_mc_matches_the_frozen_loop_bitwise(case, chunk, monkeypatch):
    system, disturbance, problem, policy, x0s = MC_CASES[case]()
    monkeypatch.setattr(oracle, "_MC_CHUNK", chunk)
    want = frozen_mc_reach(system, disturbance, problem, policy, x0s, 2000, 3)
    # the CWH system threads its rollouts only when asked to
    monkeypatch.setattr(system, "threaded_rollouts", True, raising=False)
    # one thread, two, and more threads than safe starts, switching as
    # often as the interpreter allows so that the threads interleave
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for cores in (1, 2, 16):
            use_cores(monkeypatch, cores)
            got = mc_reach(system, disturbance, problem, policy, x0s, 2000, 3)
            np.testing.assert_array_equal(got[0], want[0], err_msg=f"{cores}")
            np.testing.assert_array_equal(got[1], want[1], err_msg=f"{cores}")
    finally:
        sys.setswitchinterval(interval)
    assert 0.0 < got[0].max() < 1.0  # the rollouts are genuinely random


def test_mc_integrator_zero_policy_makes_no_blas_product(setup, monkeypatch):
    # zero controls skip the chain's control product, on every thread,
    # and a nonzero control's product is a broadcast multiply, so no
    # rollout calls np.matmul and the bits are the frozen loop's
    system, disturbance, problem, policy = setup
    starts = [[0.1, 0.2], [0.3, 0.4], [-0.5, 0.0]]
    want = mc_reach(system, disturbance, problem, policy, starts, 3000, 5)
    constant = ConstantPolicy([0.5])
    frozen = frozen_mc_reach(system, disturbance, problem, constant, starts, 3000, 5)

    def refuse(*args, **kwargs):
        raise AssertionError("np.matmul was called")

    monkeypatch.setattr(_backend.np, "matmul", refuse)
    for cores in (1, 2):
        use_cores(monkeypatch, cores)
        got = mc_reach(system, disturbance, problem, policy, starts, 3000, 5)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        got = mc_reach(system, disturbance, problem, constant, starts, 3000, 5)
        np.testing.assert_array_equal(got[0], frozen[0], err_msg=f"{cores}")
        np.testing.assert_array_equal(got[1], frozen[1], err_msg=f"{cores}")
    assert 0.0 < frozen[0].max() < 1.0


class ThreadPolicy:
    """Zero control that records the threads calling it."""

    def __init__(self, controls=1):
        self.controls = controls
        self.threads = set()
        self.lock = threading.Lock()

    def __call__(self, k, states):
        with self.lock:
            self.threads.add(threading.get_ident())
        return np.zeros((np.atleast_2d(states).shape[0], self.controls))


class FailingPolicy:
    """Raises for the listed starts, found by their first coordinate.

    Start i is ``[0.1 * i, 0]``. A failing start waits ``delays[i]``
    seconds before it raises, so that later starts may fail first. With
    ``threads_before``, the main thread's first call returns only once
    the thread count is back to it, that is, every worker has ended. The
    main thread records how many chunks of each start it stepped.
    """

    def __init__(self, failing, delays=None, threads_before=None):
        self.failing = failing
        self.delays = delays or {}
        self.threads_before = threads_before
        self.main_chunks = {}

    def __call__(self, k, states):
        start = int(round(states[0, 0] / 0.1)) if k == 0 else None
        if start in self.failing:
            time.sleep(self.delays.get(start, 0.0))
            raise InputError(f"policy failed at start {start}")
        on_main = threading.current_thread() is threading.main_thread()
        if start is not None and on_main:
            if self.threads_before is not None and not self.main_chunks:
                deadline = time.monotonic() + 30.0
                while threading.active_count() > self.threads_before:
                    assert time.monotonic() < deadline, "a worker did not end"
                    time.sleep(0.001)
            self.main_chunks[start] = self.main_chunks.get(start, 0) + 1
        return np.zeros((np.atleast_2d(states).shape[0], 1))


STARTS = [[0.1 * i, 0.0] for i in range(6)]


def test_mc_runs_the_policy_on_several_threads(setup, monkeypatch):
    # the documented contract: a policy may be called from several threads
    system, disturbance, problem, _ = setup
    use_cores(monkeypatch, 2)
    policy = ThreadPolicy()
    mc_reach(system, disturbance, problem, policy, [[0.1, 0.2], [0.3, 0.4]], 100, 0)
    assert len(policy.threads) == 2


@pytest.mark.parametrize("cores", [2, 4])
def test_mc_worker_error_stops_every_thread(setup, monkeypatch, cores):
    system, disturbance, problem, _ = setup
    use_cores(monkeypatch, cores)
    monkeypatch.setattr(oracle, "_MC_CHUNK", 50)
    before = threading.active_count()
    # start 1 runs on a worker; the main thread's start 0 comes before it
    # and runs all its chunks, its later starts none
    policy = FailingPolicy({1}, threads_before=before)
    with pytest.raises(InputError, match="at start 1$"):
        mc_reach(system, disturbance, problem, policy, STARTS, 1000, 0)
    assert threading.active_count() == before
    assert policy.main_chunks == {0: 1000 // 50}


@pytest.mark.parametrize("cores", [1, 2, 3, 6])
def test_mc_raises_the_first_failing_start_whatever_the_timing(
    setup, monkeypatch, cores
):
    # the later starts fail at once, start 2 only after they have; a
    # single thread meets start 2 first, and so must every thread count
    system, disturbance, problem, _ = setup
    use_cores(monkeypatch, cores)
    policy = FailingPolicy({2, 3, 4, 5}, delays={2: 0.2})
    with pytest.raises(InputError, match="at start 2$"):
        mc_reach(system, disturbance, problem, policy, STARTS, 100, 0)


def chain_case(n):
    """The n-D integrator chain on the box [-1, 1]^n, 3 steps, zero policy."""
    problem = ReachProblem(
        safe=BoxSet([-1.0] * n, [1.0] * n),
        target=BoxSet([-0.5] * n, [0.5] * n),
        horizon=3,
    )
    return IntegratorChain(n), GaussianDisturbance([0.1] * n), problem, ZeroPolicy(1)


@pytest.mark.parametrize(
    "n, rollouts, want",
    [
        (2, 70_000, [65536] * 3 + [4464] * 3),
        (4, 70_000, [65536] * 3 + [4464] * 3),
        # 2**18 // 1000 = 262 rollouts a chunk
        (1000, 600, [262] * 6 + [76] * 3),
    ],
)
def test_mc_chunk_holds_at_most_2_18_state_entries(n, rollouts, want):
    recording = RecordingDisturbance([0.1] * n)
    system, _, problem, policy = chain_case(n)
    mc_reach(system, recording, problem, policy, np.zeros((1, n)), rollouts, 4)
    assert recording.draws == want


def test_mc_threads_are_the_cores_or_the_safe_starts(monkeypatch):
    # the thread count does not depend on n: at n = 100, four starts of
    # 40 000 rollouts run on four threads, as at n = 2
    system, disturbance, problem, _ = chain_case(100)
    use_cores(monkeypatch, 4)
    policy = ThreadPolicy()
    mc_reach(system, disturbance, problem, policy, np.zeros((4, 100)), 40_000, 0)
    assert len(policy.threads) == 4
    policy = ThreadPolicy()
    mc_reach(system, disturbance, problem, policy, np.zeros((2, 100)), 100, 0)
    assert len(policy.threads) == 2


def test_mc_traced_peak_does_not_grow_with_n(monkeypatch):
    # two threads at n = 400, each holding one chunk of 2**18 entries:
    # about 13 MiB in all, where a 65 536-row chunk took 184 MiB
    system, disturbance, problem, policy = chain_case(400)
    use_cores(monkeypatch, 2)
    tracemalloc.start()
    try:
        mc_reach(system, disturbance, problem, policy, np.zeros((2, 400)), 20_000, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak / 2**20


def test_mc_steps_a_blas_system_on_one_thread(monkeypatch):
    use_cores(monkeypatch, 4)
    system, disturbance, problem, _, x0s = cwh_case()
    assert not system.threaded_rollouts
    policy = ThreadPolicy(controls=2)
    mc_reach(system, disturbance, problem, policy, x0s[:2], 100, 0)
    assert policy.threads == {threading.get_ident()}


def test_mc_unsafe_start_draws_nothing(setup, monkeypatch):
    system, disturbance, problem, policy = setup
    recording = RecordingDisturbance(disturbance.sd)
    monkeypatch.setattr(oracle, "_MC_CHUNK", 777)
    values, hw = mc_reach(system, recording, problem, policy, [[1.5, 0.0]], 1000, 4)
    assert recording.draws == [] and values[0] == 0.0 and hw[0] == 0.0
    # only the safe start draws: one full chunk and a 223 remainder, 3 steps
    mc_reach(system, recording, problem, policy, [[1.5, 0.0], [0.6, 0.6]], 1000, 4)
    assert recording.draws == [777] * 3 + [223] * 3


def test_mc_validates_inputs(setup):
    system, disturbance, problem, policy = setup
    with pytest.raises(InputError):
        mc_reach(system, disturbance, problem, policy, [[0.0, 0.0]], 0, 0)
    with pytest.raises(InputError, match="seed must be non-negative"):
        mc_reach(system, disturbance, problem, policy, [[0.0, 0.0]], 10, -1)
    with pytest.raises(InputError):
        mc_reach(system, disturbance, problem, policy, [[0.0, 0.0, 0.0]], 10, 0)
    # a NaN start state is rejected, not answered with probability 0
    for bad in (np.nan, np.inf):
        with pytest.raises(InputError, match="finite"):
            mc_reach(system, disturbance, problem, policy, [[bad, 0.0]], 10, 0)
    with pytest.raises(InputError, match="non-empty"):
        mc_reach(system, disturbance, problem, policy, np.empty((0, 2)), 10, 0)
