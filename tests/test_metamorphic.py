"""Metamorphic identities of the estimator and of the grid oracle.

Each transformation below leaves the exact estimate unchanged, so under
any exact solver and any blocking the values agree; in floating point
they agree to round-off:

- every transition duplicated: the ridge ``lam * M`` doubles with M, so
  each copy gets half its weight and the estimate stays;
- the transitions permuted: the weights permute with them;
- states, successors, sets and evaluation points translated together:
  the Gaussian kernel reads only differences.

They catch defects that golden files show only as changed bits: a ridge
of ``lam`` instead of ``lam * M`` breaks duplication, a wrong centre
breaks translation, a buffer read in the wrong row order breaks
permutation. Each runs in fixed and max mode, normalized and raw, on the
seed-0 benchmark sample at a 21 x 21 grid of points. The bounds sit at
about 2.5 to 4 times the largest deviation measured over the three
identities and both modes (OpenBLAS, x86-64): 3.7e-15 normalized, where
values reach 1, and 2.6e-16 raw, where they reach 0.019.

Scaling states, controls, successors, sets, points, the control grid and
the kernel width by a power of two multiplies every difference by it
and leaves every ratio the kernel reads unrounded, so it keeps every
bit of the values and of max mode's choices. It runs on the benchmark
sample redrawn with U[-0.6, 0.6] controls, so that scaling them counts.

The grid oracle's identity is a translation along the integrator's
position axis: ``A c = c`` for ``c = (c1, 0)``, so under the zero policy
moving the boxes and the points by ``c`` moves the exact values with
them. The grid's nodes are rounded at their new place, so the values
agree to a round-off that grows with the coordinates' magnitude: at
most 4.4e-16 at c1 = 0.375, 1.8e-15 at 2 and 2.5e-15 at 4 (101 x 101
grid, 25 nodes, 21 x 21 points, OpenBLAS, x86-64), and 5.9e-12 to
9.1e-12 at 1024, which is not tested. The bound is 4 times the largest
of the tested ones.
"""

import numpy as np
import pytest

from bench_setup import (
    BENCH_HORIZON,
    BENCH_LAMBDA,
    BENCH_NOISE_SD,
    BENCH_SAMPLES,
    BENCH_SIGMA,
)
from rkhs_reach import (
    BoxSampler,
    BoxSet,
    Embedding,
    GaussianDisturbance,
    IntegratorChain,
    RBFKernel,
    ReachProblem,
    TransitionSample,
    ZeroPolicy,
    dp_reach,
    generate_transitions,
    value_recursion,
    value_recursion_max,
)

BOUND = {True: 1e-14, False: 1e-15}  # by normalize_weights
CONTROL_GRID = [[-0.5], [0.0], [0.5]]
# exact on the box corners, so the translated sets are the sets moved
SHIFT = np.array([0.375, -0.625])
# exponents k of the scale factors 2**k
SCALE_EXPONENTS = [-3, 5, 40]
ORACLE_BOUND = 1e-14


def _problem(shift, scale=1.0):
    lower = scale * np.array([-1.0, -1.0]) + shift
    box = BoxSet(lower, scale * np.array([1.0, 1.0]) + shift)
    return ReachProblem(safe=box, target=box, horizon=BENCH_HORIZON)


def _points():
    ax = np.linspace(-1.1, 1.1, 21)
    g1, g2 = np.meshgrid(ax, ax, indexing="ij")
    return np.column_stack([g1.ravel(), g2.ravel()])


def _values(sample, problem, points, normalize, scale=1.0):
    # fixed mode under the zero policy, and max mode over CONTROL_GRID,
    # with the kernel width and the control grid scaled by scale
    emb = Embedding(sample, RBFKernel(scale * BENCH_SIGMA), BENCH_LAMBDA, normalize)
    fixed = value_recursion(emb, problem, points, ZeroPolicy(1)).values
    grid = scale * np.array(CONTROL_GRID)
    best = value_recursion_max(emb, problem, points, grid)
    return {"fixed": fixed, "max": best.values, "choices": best.policy_choices}


def _duplicated(s):
    return TransitionSample(
        np.vstack([s.states, s.states]),
        np.vstack([s.controls, s.controls]),
        np.vstack([s.successors, s.successors]),
    )


def _permuted(s):
    order = np.random.default_rng(1).permutation(s.count)
    return TransitionSample(s.states[order], s.controls[order], s.successors[order])


def _translated(s):
    return TransitionSample(s.states + SHIFT, s.controls, s.successors + SHIFT)


# name -> (transformed sample, shift of the sets and points)
IDENTITIES = {
    "duplicated": lambda s: (_duplicated(s), np.zeros(2)),
    "permuted": lambda s: (_permuted(s), np.zeros(2)),
    "translated": lambda s: (_translated(s), SHIFT),
}


@pytest.fixture(scope="module", params=[True, False], ids=["normalized", "raw"])
def normalize(request):
    return request.param


@pytest.fixture(scope="module")
def base(normalize, bench_sample):
    return _values(bench_sample, _problem(np.zeros(2)), _points(), normalize)


@pytest.fixture(scope="module", params=list(IDENTITIES))
def moved(request, normalize, bench_sample):
    sample, shift = IDENTITIES[request.param](bench_sample)
    return _values(sample, _problem(shift), _points() + shift, normalize)


@pytest.mark.parametrize("mode", ["fixed", "max"])
def test_identity_holds_to_round_off(base, moved, normalize, mode):
    gap = np.abs(moved[mode] - base[mode]).max()
    assert gap <= BOUND[normalize], gap


def test_translation_keeps_every_point_on_its_side(bench_sample):
    # the identity needs the rounded translation to keep every point and
    # successor on its side of the sets' faces
    safe, moved_safe = _problem(np.zeros(2)).safe, _problem(SHIFT).safe
    for pts in (_points(), bench_sample.successors):
        assert np.array_equal(moved_safe.contains(pts + SHIFT), safe.contains(pts))


def _uniform_controls(seed):
    rng = np.random.default_rng(seed)
    return lambda k, states: rng.uniform(-0.6, 0.6, size=(len(states), 1))


@pytest.fixture(scope="module")
def controlled_sample():
    # the benchmark sample's draw with U[-0.6, 0.6] controls
    return generate_transitions(
        IntegratorChain(2, sampling_time=0.25),
        _uniform_controls(0),
        BoxSampler([-1.1, -1.1], [1.1, 1.1]),
        GaussianDisturbance([BENCH_NOISE_SD, BENCH_NOISE_SD]),
        BENCH_SAMPLES,
        0,
    )


@pytest.fixture(scope="module")
def controlled_base(normalize, controlled_sample):
    return _values(controlled_sample, _problem(np.zeros(2)), _points(), normalize)


@pytest.mark.parametrize("k", SCALE_EXPONENTS)
def test_scaling_by_a_power_of_two_keeps_every_bit(
    controlled_base, controlled_sample, normalize, k
):
    scale = 2.0**k
    s = controlled_sample
    sample = TransitionSample(
        s.states * scale, s.controls * scale, s.successors * scale
    )
    problem = _problem(np.zeros(2), scale)
    got = _values(sample, problem, _points() * scale, normalize, scale)
    assert controlled_base["choices"].any()
    for name, want in controlled_base.items():
        assert got[name].tobytes() == want.tobytes(), name


def _oracle_values(shift):
    system = IntegratorChain(2, sampling_time=0.25)
    noise = GaussianDisturbance([BENCH_NOISE_SD, BENCH_NOISE_SD])
    problem, points = _problem(shift), _points() + shift
    field = dp_reach(
        system, noise, problem, points, ZeroPolicy(1), shape=(101, 101), quad_nodes=25
    )
    return field.values


@pytest.fixture(scope="module")
def oracle_base():
    return _oracle_values(np.zeros(2))


@pytest.mark.parametrize("c1", [0.375, 2.0, 4.0])
def test_grid_oracle_translation_along_the_position_axis(oracle_base, c1):
    gap = np.abs(_oracle_values(np.array([c1, 0.0])) - oracle_base).max()
    assert 0.0 < oracle_base[0].max() <= 1.0
    assert gap <= ORACLE_BOUND, gap
