"""Embedding estimator tests against closed forms and a dense-solve oracle."""

import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import rkhs_reach
from rkhs_reach import (
    BoxSampler,
    BoxSet,
    Embedding,
    GaussianDisturbance,
    InputError,
    IntegratorChain,
    NumericalError,
    RBFKernel,
    TransitionSample,
    ZeroPolicy,
    generate_transitions,
    mc_reach,
    ReachProblem,
)
from rkhs_reach.embedding import _BASE_ROWS, _invert

from bench_setup import BENCH_LAMBDA, BENCH_NOISE_SD, BENCH_SIGMA, make_bench_sample


def single_sample(lam, normalize=False):
    sample = TransitionSample(
        states=np.array([[0.5, -0.5]]),
        controls=np.array([[0.0]]),
        successors=np.array([[0.4, -0.4]]),
    )
    emb = Embedding(sample, RBFKernel(1.0), lam, normalize_weights=normalize)
    return sample, emb


def test_single_point_raw_weight_closed_form():
    # M=1: w = k / (1 + lam); at the sample point k = 1
    for lam in (0.1, 1.0, 7.5):
        _, emb = single_sample(lam)
        w = emb.weights(np.array([[0.5, -0.5]]), np.array([[0.0]]))
        assert w.shape == (1, 1)
        assert w[0, 0] == pytest.approx(1.0 / (1.0 + lam), rel=1e-12)


def test_single_point_normalized_weight_is_one():
    for lam in (0.1, 1.0, 7.5):
        _, emb = single_sample(lam, normalize=True)
        w = emb.weights(np.array([[0.7, 0.1]]), np.array([[0.2]]))
        assert w[0, 0] == pytest.approx(1.0, rel=1e-14)


def test_constant_function_single_point():
    _, emb = single_sample(3.0)
    est = np.ones(1) @ emb.weights(np.array([[0.5, -0.5]]), np.array([[0.0]]))
    assert est[0] == pytest.approx(1.0 / 4.0, rel=1e-12)


def cholesky_solve(a, b):
    return cho_solve(cho_factor(a, lower=True), b)


def dense_weights(emb, states, controls, solve=np.linalg.solve):
    # independent reimplementation with a per-column solve
    joint = np.hstack([states, controls])
    sample_joint = np.hstack([emb.sample.states, emb.sample.controls])
    g = emb.kernel.gram(sample_joint)
    m = emb.sample.count
    k = emb.kernel.cross(sample_joint, joint)
    w = solve(g + emb.lam * m * np.eye(m), k)
    if emb.normalize_weights:
        w = np.maximum(w, 0.0)
        s = w.sum(axis=0)
        w[:, s != 0] /= s[s != 0]
    return w


@pytest.mark.parametrize("m_count", [3, 16])
@pytest.mark.parametrize("normalize", [False, True])
def test_weights_match_dense_solve(m_count, normalize):
    rng = np.random.default_rng(m_count)
    sample = TransitionSample(
        states=rng.normal(size=(m_count, 2)),
        controls=rng.normal(size=(m_count, 1)),
        successors=rng.normal(size=(m_count, 2)),
    )
    assert (sample.count, sample.state_dim, sample.control_dim) == (m_count, 2, 1)
    emb = Embedding(sample, RBFKernel(0.8), 0.5, normalize_weights=normalize)
    states = rng.normal(size=(7, 2))
    controls = rng.normal(size=(7, 1))
    got = emb.weights(states, controls)
    want = dense_weights(emb, states, controls)
    np.testing.assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("lam", [1.0, 1e-2, 1e-4])
@pytest.mark.parametrize("normalize", [False, True])
def test_inverse_weights_match_cholesky_solve(lam, normalize):
    # one path: the once-formed inverse must stay within 1e-12 of two
    # triangular solves per column down to lam = 1e-4 (condition ~240)
    sample = make_bench_sample(256, 0)
    emb = Embedding(
        sample, RBFKernel(BENCH_SIGMA), lam, normalize_weights=normalize
    )
    rng = np.random.default_rng(8)
    states = rng.uniform(-1.1, 1.1, size=(300, 2))
    controls = np.zeros((300, 1))
    got = emb.weights(states, controls)
    want = dense_weights(emb, states, controls, solve=cholesky_solve)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


# the largest entry error that np.linalg.inv reaches over the sizes below,
# relative to the largest entry of the inverse, rounded up in the second
# digit: 1.0e-15 at lam = 1 (M = 1024), 1.68e-14 at 1e-4 (M = 300) and
# 1.77e-12 at 1e-6 (M = 1024, condition number 1.6e4)
_INVERSE_BOUNDS = {1.0: 1.1e-15, 1e-4: 1.7e-14, 1e-6: 1.8e-12}


@pytest.mark.parametrize("lam", sorted(_INVERSE_BOUNDS))
@pytest.mark.parametrize(
    "m", [1, _BASE_ROWS - 1, _BASE_ROWS, _BASE_ROWS + 1, 300, 1024]
)
def test_invert_matches_a_cholesky_inverse(m, lam):
    # sizes on either side of the recursion's base case, and two that
    # split into uneven halves (300) and into base cases only (1024)
    sample = make_bench_sample(m, 0)
    ridge = RBFKernel(BENCH_SIGMA).gram(sample.states, sample.controls)
    ridge.flat[:: m + 1] += lam * m
    want = cho_solve(cho_factor(ridge, lower=True), np.eye(m))
    got = _invert(ridge)
    assert got.flags.f_contiguous
    np.testing.assert_array_equal(got, got.T)
    err = np.abs(got - want).max() / np.abs(want).max()
    assert err <= _INVERSE_BOUNDS[lam], err


def _cross_on_raw_rows(emb, states, controls):
    # the weights by the joint-kernel formula, from the raw joint rows
    sample = emb.sample
    k = emb.kernel.cross(
        np.hstack([sample.states, sample.controls]), np.hstack([states, controls])
    )
    want = emb._inv @ k
    if emb.normalize_weights:
        want = np.maximum(want, 0.0)
        s = want.sum(axis=0)
        s[s == 0.0] = 1.0
        want /= s
    return want


@pytest.mark.parametrize("normalize", [False, True])
def test_weights_match_cross_on_raw_rows(normalize):
    # the fit lifts the sample rows once; that must give the same bits as
    # a cross kernel on the raw joint rows wherever the weights read the
    # query controls: in raw mode, and on a sample whose controls vary;
    # weights and kernel matrix written to given buffers keep the bits
    constant = make_bench_sample(256, 1)
    rng = np.random.default_rng(10)
    varying = TransitionSample(
        states=constant.states,
        controls=rng.uniform(-0.5, 0.5, size=(constant.count, 1)),
        successors=constant.successors,
    )
    samples = [varying] if normalize else [varying, constant]
    states = rng.uniform(-1.1, 1.1, size=(50, 2))
    controls = rng.uniform(-0.15, 0.15, size=(50, 1))
    for sample in samples:
        emb = Embedding(
            sample, RBFKernel(BENCH_SIGMA), 0.5, normalize_weights=normalize
        )
        assert emb.reads_controls
        want = _cross_on_raw_rows(emb, states, controls)
        np.testing.assert_array_equal(emb.weights(states, controls), want)
        w, k = np.full((2, sample.count, 50), np.nan)
        assert emb.weights(states, controls, out=(w, k)) is w
        np.testing.assert_array_equal(w, want)
        cross = emb.kernel.cross(emb._lifted, states, controls)
        np.testing.assert_array_equal(k, cross)


def test_normalized_weights_on_a_constant_sample_ignore_query_controls():
    # every sampled control is 0, so the control factor of the kernel is
    # one scalar per query, which normalization divides out: the weights
    # at any control are those at 0 to the bit, and the joint formula
    # to round-off
    sample = make_bench_sample(256, 1)
    emb = Embedding(sample, RBFKernel(BENCH_SIGMA), 0.5)
    assert not emb.reads_controls
    rng = np.random.default_rng(10)
    states = rng.uniform(-1.1, 1.1, size=(50, 2))
    controls = rng.uniform(-0.15, 0.15, size=(50, 1))
    got = emb.weights(states, controls)
    np.testing.assert_array_equal(got, emb.weights(states, np.zeros((50, 1))))
    want = _cross_on_raw_rows(emb, states, controls)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
    # the query controls are still validated
    with pytest.raises(InputError):
        emb.weights(states, np.full((50, 1), np.nan))


@pytest.mark.parametrize("normalize", [False, True])
def test_non_finite_inverse_raises(normalize):
    rng = np.random.default_rng(9)
    sample = TransitionSample(
        states=rng.normal(size=(10, 2)),
        controls=rng.normal(size=(10, 1)),
        successors=rng.normal(size=(10, 2)),
    )
    emb = Embedding(sample, RBFKernel(0.6), 0.7, normalize_weights=normalize)
    emb._inv[3, 5] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        emb.weights(rng.normal(size=(4, 2)), rng.normal(size=(4, 1)))


def test_overflowing_sample_raises_numerical_error():
    # |x|^2 overflows, so the Gram matrix is not finite: exit code 3, not
    # the NaN inverse that np.linalg.inv returns without raising
    rng = np.random.default_rng(12)
    states = rng.uniform(-1.0, 1.0, size=(16, 2))
    states[5] = [1e200, 0.0]
    sample = TransitionSample(
        states=states, controls=np.zeros((16, 1)), successors=0.9 * states
    )
    # no numpy warning leaks: the fit's finiteness check reports it
    with pytest.raises(NumericalError, match="not finite"):
        Embedding(sample, RBFKernel(0.1), 1.0)


def test_fit_keeps_one_matrix_with_the_bits_of_a_separate_solve():
    # the ridge is formed in the Gram matrix's own buffer and dropped once
    # inverted; the inverse must have the bits of inverting a separate sum
    m = 256
    sample = make_bench_sample(m, 4)
    emb = Embedding(sample, RBFKernel(BENCH_SIGMA), BENCH_LAMBDA)
    square = [
        name
        for name, value in vars(emb).items()
        if isinstance(value, np.ndarray) and value.shape == (m, m)
    ]
    assert square == ["_inv"]
    assert emb._inv.flags.f_contiguous
    gram = emb.kernel.gram(sample.states, sample.controls)
    want = _invert(gram + emb.lam * m * np.eye(m))
    np.testing.assert_array_equal(emb._inv.view(np.uint64), want.view(np.uint64))


def test_fit_traced_peak_is_about_two_matrices():
    # the Gram matrix becomes the ridge and then, in place, the inverse
    # Cholesky factor X; the inverse X'X is the second matrix, and the
    # recursion's quarter-size blocks are freed before it is allocated
    m = 1024
    sample = make_bench_sample(m, 0)
    kernel = RBFKernel(BENCH_SIGMA)
    Embedding(make_bench_sample(64, 1), kernel, BENCH_LAMBDA)
    tracemalloc.start()
    try:
        Embedding(sample, kernel, BENCH_LAMBDA)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * m * m * 8, peak / (m * m * 8)


def test_fit_of_a_wide_sample_holds_one_copy_of_its_points():
    # 64 samples of a 40 000-dimensional state: 20 MB per M x n array.
    # The fit may add the lifted rows and O(M^2) (the Gram matrix, the
    # inverse and their blocks, all under 1 MB here); joining states and
    # controls and centering a copy for the Gram matrix added two arrays
    m, n = 64, 40_000
    rng = np.random.default_rng(8)
    states = rng.uniform(-1.0, 1.0, size=(m, n))
    sample = TransitionSample(states, rng.uniform(-1.0, 1.0, (m, 1)), 0.9 * states)
    kernel = RBFKernel(0.1 * np.sqrt(n / 2))
    Embedding(make_bench_sample(64, 1), RBFKernel(BENCH_SIGMA), BENCH_LAMBDA)
    tracemalloc.start()
    try:
        emb = Embedding(sample, kernel, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lifted = m * (n + 1 + 2) * 8
    assert emb._lifted.rows.nbytes == lifted
    assert peak <= lifted + 2**20, (peak - lifted) / 2**20
    # the rows have the bits of lifting the same parts
    want = kernel.lift(sample.states, sample.controls)
    assert emb._lifted.rows.tobytes() == want.rows.tobytes()
    assert emb._lifted.center.tobytes() == want.center.tobytes()


# Runs in a fresh interpreter, so that the high-water mark of the resident
# set measures this fit alone; prints the rise in bytes.
_FIT_RSS_CHILD = """
import resource, sys
import numpy as np
from rkhs_reach import Embedding, RBFKernel, TransitionSample

def sample(m):
    x = np.random.default_rng(4).uniform(-1.1, 1.1, size=(m, 2))
    return TransitionSample(x, np.zeros((m, 1)), 0.9 * x)

kernel = RBFKernel(0.1)
Embedding(sample(256), kernel, 1.0)  # loads the libraries and their buffers
big = sample(int(sys.argv[1]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
Embedding(big, kernel, 1.0)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) * (1 if sys.platform == "darwin" else 1024))
"""


def test_fit_peak_memory_is_about_three_matrices():
    # the ridge, overwritten in place by the inverse Cholesky factor X,
    # the product X'X and the quarter-size blocks of the recursion: a
    # fit at M = 2048 raises the resident set by 2.41 M x M matrices
    # (3.32 when X and the Schur complements were arrays of their own),
    # against 3.4 to 4.1 for np.linalg.inv and its LAPACK work buffers.
    # How much of the freed heap stays resident varies between runs,
    # and by 0.8 matrices between periods of one machine's load, so the
    # bound keeps that margin; the traced peak above counts none of it.
    m = 2048
    paths = [str(pathlib.Path(rkhs_reach.__file__).parent.parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run(
        [sys.executable, "-c", _FIT_RSS_CHILD, str(m)],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    rise = int(out.stdout)
    assert rise <= 3.5 * m * m * 8, rise / (m * m * 8)


def test_far_query_raw_weights_negligible():
    rng = np.random.default_rng(2)
    sample = TransitionSample(
        states=rng.uniform(-1, 1, size=(32, 2)),
        controls=rng.uniform(-1, 1, size=(32, 1)),
        successors=rng.uniform(-1, 1, size=(32, 2)),
    )
    emb = Embedding(sample, RBFKernel(1.0), 1.0, normalize_weights=False)
    # joint distance >= 10 from every sample point -> kernel column <= e^-50
    far = emb.weights(np.array([[20.0, 20.0]]), np.array([[20.0]]))
    gram = emb.kernel.gram(emb.sample.states, emb.sample.controls)
    m = emb.sample.count
    reg = gram + emb.lam * m * np.eye(m)
    bound = np.exp(-50.0) * np.abs(np.linalg.inv(reg)).sum(axis=1).max()
    assert np.abs(far).max() <= bound


def test_expectation_linear_in_function():
    rng = np.random.default_rng(3)
    sample = TransitionSample(
        states=rng.normal(size=(20, 2)),
        controls=rng.normal(size=(20, 1)),
        successors=rng.normal(size=(20, 2)),
    )
    emb = Embedding(sample, RBFKernel(0.6), 0.7)
    states = rng.normal(size=(4, 2))
    controls = rng.normal(size=(4, 1))
    f = rng.normal(size=20)
    g = rng.normal(size=20)
    w = emb.weights(states, controls)
    lhs = (2.0 * f - 3.0 * g) @ w
    rhs = 2.0 * (f @ w) - 3.0 * (g @ w)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_zero_function_gives_zero():
    rng = np.random.default_rng(4)
    sample = TransitionSample(
        states=rng.normal(size=(10, 2)),
        controls=rng.normal(size=(10, 1)),
        successors=rng.normal(size=(10, 2)),
    )
    emb = Embedding(sample, RBFKernel(0.6), 0.7)
    est = np.zeros(10) @ emb.weights(
        rng.normal(size=(3, 2)), rng.normal(size=(3, 1))
    )
    np.testing.assert_array_equal(est, 0.0)


def test_solve_residual_small():
    sample = make_bench_sample(512, 3)
    emb = Embedding(sample, RBFKernel(BENCH_SIGMA), 1.0)
    v = np.sin(np.arange(512.0))
    assert emb.solve_residual(v) <= 1e-8


def test_single_step_tracks_monte_carlo():
    # smooth interior of the benchmark field; the estimator should land
    # within the binary-label regression noise at this density
    system = IntegratorChain(2, sampling_time=0.25)
    disturbance = GaussianDisturbance([BENCH_NOISE_SD, BENCH_NOISE_SD])
    box = BoxSet([-1.0, -1.0], [1.0, 1.0])
    problem = ReachProblem(safe=box, target=box, horizon=1)
    policy = ZeroPolicy(1)
    sample = make_bench_sample(1024, 0)
    emb = Embedding(sample, RBFKernel(BENCH_SIGMA), 1.0)
    probes = np.array(
        [[0.0, 0.0], [0.3, 0.2], [-0.4, -0.1], [0.5, -0.5], [-0.2, 0.4]]
    )
    labels = box.contains(sample.successors).astype(np.float64)
    est = np.clip(
        labels @ emb.weights(probes, np.zeros((5, 1))), 0.0, 1.0
    )
    mc, _ = mc_reach(
        system, disturbance, problem, policy, probes, 50000, seed=21
    )
    assert np.abs(est - mc).max() <= 0.15


def test_more_samples_reduce_error():
    # ridge schedule lam = M^(-1/4); median gap to Monte Carlo at a fixed
    # probe should drop from M=64 to M=2048
    system = IntegratorChain(2, sampling_time=0.25)
    disturbance = GaussianDisturbance([BENCH_NOISE_SD, BENCH_NOISE_SD])
    box = BoxSet([-1.0, -1.0], [1.0, 1.0])
    problem = ReachProblem(safe=box, target=box, horizon=1)
    policy = ZeroPolicy(1)
    # near the safe boundary, where the one-step value is far from 0 and 1
    probes = np.array([[0.9, 0.2], [-0.9, -0.3], [0.8, 0.5]])
    mc, _ = mc_reach(
        system, disturbance, problem, policy, probes, 50000, seed=22
    )
    gaps = {}
    for m_count in (64, 2048):
        errs = []
        for seed in range(5):
            sample = make_bench_sample(m_count, seed)
            emb = Embedding(
                sample, RBFKernel(BENCH_SIGMA), float(m_count) ** -0.25
            )
            labels = box.contains(sample.successors).astype(np.float64)
            est = np.clip(
                labels @ emb.weights(probes, np.zeros((3, 1))), 0.0, 1.0
            )
            errs.append(np.abs(est - mc).max())
        gaps[m_count] = float(np.median(errs))
    assert gaps[2048] < gaps[64]


def test_control_free_sample():
    rng = np.random.default_rng(6)
    sample = TransitionSample(
        states=rng.normal(size=(12, 2)),
        controls=np.zeros((12, 0)),
        successors=rng.normal(size=(12, 2)),
    )
    emb = Embedding(sample, RBFKernel(0.5), 1.0)
    w = emb.weights(rng.normal(size=(3, 2)))
    assert w.shape == (12, 3)
    np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)
    with pytest.raises(InputError):
        emb.weights(rng.normal(size=(3, 2)), np.zeros((3, 1)))
    with pytest.raises(InputError, match="non-finite"):
        emb.weights([[0.0, -np.inf]])


def test_validation_errors():
    rng = np.random.default_rng(7)
    sample = TransitionSample(
        states=rng.normal(size=(5, 2)),
        controls=rng.normal(size=(5, 1)),
        successors=rng.normal(size=(5, 2)),
    )
    kernel = RBFKernel(0.5)
    with pytest.raises(InputError):
        Embedding("nope", kernel, 1.0)
    with pytest.raises(InputError):
        Embedding(sample, "nope", 1.0)
    with pytest.raises(InputError):
        Embedding(sample, kernel, 0.0)
    with pytest.raises(InputError):
        Embedding(sample, kernel, -2.0)
    emb = Embedding(sample, kernel, 1.0)
    with pytest.raises(InputError):
        emb.weights(np.zeros((2, 3)), np.zeros((2, 1)))  # state dim
    with pytest.raises(InputError):
        emb.weights(np.zeros((2, 2)))  # controls required
    with pytest.raises(InputError):
        emb.weights(np.zeros((2, 2)), np.zeros((3, 1)))  # row mismatch
    with pytest.raises(InputError, match="non-finite"):
        emb.weights([[np.nan, 0.0]], [[0.0]])
    with pytest.raises(InputError, match="non-finite"):
        emb.weights([[0.0, 0.0]], [[np.inf]])


def test_transition_sample_validation():
    good = dict(
        states=np.zeros((3, 2)),
        controls=np.zeros((3, 1)),
        successors=np.zeros((3, 2)),
    )
    TransitionSample(**good)
    # a vector of M controls is one column, in order
    sample = TransitionSample(np.zeros((3, 2)), [1.0, 2.0, 3.0], np.zeros((3, 2)))
    np.testing.assert_array_equal(sample.controls, [[1.0], [2.0], [3.0]])
    # empty controls are zero columns
    for empty in (np.zeros(0), []):
        sample = TransitionSample(np.zeros((3, 2)), empty, np.zeros((3, 2)))
        assert sample.controls.shape == (3, 0)
    with pytest.raises(InputError):
        TransitionSample(np.zeros((0, 2)), np.zeros((0, 1)), np.zeros((0, 2)))
    with pytest.raises(InputError):
        TransitionSample(
            np.zeros((3, 2)), np.zeros((2, 1)), np.zeros((3, 2))
        )
    with pytest.raises(InputError):
        TransitionSample(
            np.zeros((3, 2)), np.zeros((3, 1)), np.zeros((3, 3))
        )
    bad = np.zeros((3, 2))
    bad[1, 1] = np.nan
    with pytest.raises(InputError):
        TransitionSample(bad, np.zeros((3, 1)), np.zeros((3, 2)))
