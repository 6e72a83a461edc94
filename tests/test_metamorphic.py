"""Metamorphic identities of the estimator.

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
"""

import numpy as np
import pytest

from bench_setup import BENCH_HORIZON, BENCH_LAMBDA, BENCH_SIGMA
from rkhs_reach import (
    BoxSet,
    Embedding,
    RBFKernel,
    ReachProblem,
    TransitionSample,
    ZeroPolicy,
    value_recursion,
    value_recursion_max,
)

BOUND = {True: 1e-14, False: 1e-15}  # by normalize_weights
CONTROL_GRID = [[-0.5], [0.0], [0.5]]
# exact on the box corners, so the translated sets are the sets moved
SHIFT = np.array([0.375, -0.625])


def _problem(shift):
    box = BoxSet(np.array([-1.0, -1.0]) + shift, np.array([1.0, 1.0]) + shift)
    return ReachProblem(safe=box, target=box, horizon=BENCH_HORIZON)


def _points():
    ax = np.linspace(-1.1, 1.1, 21)
    g1, g2 = np.meshgrid(ax, ax, indexing="ij")
    return np.column_stack([g1.ravel(), g2.ravel()])


def _values(sample, problem, points, normalize):
    # fixed mode under the zero policy, and max mode over CONTROL_GRID
    emb = Embedding(sample, RBFKernel(BENCH_SIGMA), BENCH_LAMBDA, normalize)
    fixed = value_recursion(emb, problem, points, ZeroPolicy(1)).values
    best = value_recursion_max(emb, problem, points, CONTROL_GRID).values
    return {"fixed": fixed, "max": best}


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
