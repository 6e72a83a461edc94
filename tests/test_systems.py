"""Dynamics, disturbances, policies, and transition generation."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import linalg, stats

from rkhs_reach import _backend, systems
from rkhs_reach import (
    AffinePolicy,
    BetaDisturbance,
    BoxSampler,
    BoxSet,
    ConstantPolicy,
    CWHSystem,
    GaussianDisturbance,
    InputError,
    IntegratorChain,
    NumericalError,
    ReachProblem,
    ZeroDisturbance,
    ZeroPolicy,
    cwh_lqr_policy,
    cwh_sets,
    dp_reach,
    generate_transitions,
    mc_reach,
)


# ---------------------------------------------------------------- integrator


def dense_chain(system):
    # the chain's state matrix with its kept band written out in full
    a = np.zeros((system.n, system.n))
    for j in range(min(system.bandwidth, system.n)):
        idx = np.arange(system.n - j)
        a[idx, idx + j] = system._coeffs[j]
    return a


@pytest.mark.parametrize("n", [1, 2, 5, 100])
def test_integrator_matrices_match_taylor_factorials(n):
    t = 0.25
    system = IntegratorChain(n, sampling_time=t)
    a = dense_chain(system)
    b = system._b
    for i in range(n):
        for j in range(n):
            want = t ** (j - i) / math.factorial(j - i) if j >= i else 0.0
            assert a[i, j] == pytest.approx(want, rel=1e-15)
        assert b[i, 0] == pytest.approx(
            t ** (n - i) / math.factorial(n - i), rel=1e-15
        )


def test_integrator_double_integrator_step_by_hand():
    # x' = x + T v + T^2/2 u, v' = v + T u, with T = 0.25
    system = IntegratorChain(2, sampling_time=0.25)
    out = system.step([[1.0, 1.0]], [[0.0]], None)
    np.testing.assert_allclose(out, [[1.25, 1.0]], rtol=0, atol=0)
    out = system.step([[0.0, 0.0]], [[1.0]], None)
    np.testing.assert_allclose(out, [[0.03125, 0.25]], rtol=0, atol=0)


def test_integrator_banded_apply_matches_dense():
    rng = np.random.default_rng(3)
    for n in (2, 5, 64):
        system = IntegratorChain(n, sampling_time=0.25)
        states = rng.normal(size=(17, n))
        dense = states @ dense_chain(system).T
        np.testing.assert_allclose(system.step(states, None, None), dense, atol=1e-13)


def test_integrator_high_dimension_is_banded_and_cheap():
    system = IntegratorChain(10000, sampling_time=0.25)
    # the Taylor terms past the 12th sum to less than half an ulp of the
    # row sum, so the band stops there at any dimension
    assert system.bandwidth == 12
    states = np.zeros((3, 10000))
    states[:, -1] = [1.0, 2.0, -1.0]
    out = system.step(states, None, None)
    assert out.shape == (3, 10000)
    np.testing.assert_allclose(out[:, -1], [1.0, 2.0, -1.0])
    np.testing.assert_allclose(out[:, -2], [0.25, 0.5, -0.25])


def _taylor(n, t):
    # T^j / j! for j < n, each the exact rational rounded once to float,
    # every term down to underflow: the band before the round-off cut
    return np.array(
        [float(Fraction(t) ** j / math.factorial(j)) for j in range(n)]
    )


@pytest.mark.parametrize("t", [1e-3, 0.1, 0.25, 2.0, 5.0])
def test_integrator_first_coefficient_is_the_sampling_time(t):
    # c_1 = T / 1! is exact, and so is its rounding
    system = IntegratorChain(3, sampling_time=t)
    assert dense_chain(system)[0, 1] == t
    assert system._b[2, 0] == t


# sampling time -> band of the round-off cut at large n
CUT_BANDS = {1e-3: 5, 0.25: 12, 2.0: 23, 5.0: 33}


@pytest.mark.parametrize("t, band", CUT_BANDS.items())
def test_integrator_band_drops_at_most_half_an_ulp_of_the_row_sum(t, band):
    n = 400  # longer than the underflow band at every t here
    full = _taylor(n, t)
    a = dense_chain(IntegratorChain(n, sampling_time=t))
    np.testing.assert_array_equal(a[0, :band], full[:band])
    assert not a[0, band:].any()
    row_sum = math.fsum(full)
    assert math.fsum(full[band:]) <= 2.0**-53 * row_sum
    # and no shorter band would do
    assert math.fsum(full[band - 1 :]) > 2.0**-53 * row_sum


@pytest.mark.parametrize("t", CUT_BANDS)
def test_integrator_apply_is_within_the_gamma_bound_of_the_exact_product(t):
    # the states are signed powers of two, so every product c_j x_k is
    # exact and math.fsum rounds each row's exact sum once
    n = 300
    rng = np.random.default_rng(31)
    x = rng.choice([-1.0, 1.0], size=(4, n)) * 2.0 ** rng.integers(0, 4, (4, n))
    full = _taylor(n, t)
    exact = np.array(
        [[math.fsum(full[: n - i] * row[i:]) for i in range(n)] for row in x]
    )
    system = IntegratorChain(n, sampling_time=t)
    # gamma_k = k u / (1 - k u) covers the band's products and, through
    # one more u, the dropped tail (Higham, section 3.1)
    k, u = system.bandwidth + 1, 2.0**-53
    bound = k * u / (1.0 - k * u) * math.fsum(full) * np.abs(x).max()
    assert np.abs(system.step(x, None, None) - exact).max() <= bound
    # the apply of every term down to underflow meets the same bound
    assert np.abs(_backend.chain_apply(full, x) - exact).max() <= bound


@pytest.mark.parametrize("t", CUT_BANDS)
def test_integrator_step_keeps_its_bits_where_the_band_is_whole(t):
    # up to n = 12 (n = 5 at t = 1e-3) the cut keeps every diagonal, and
    # step gives the bits of the full-band apply
    rng = np.random.default_rng(32)
    for n in range(1, min(12, CUT_BANDS[t]) + 1):
        system = IntegratorChain(n, sampling_time=t)
        assert system.bandwidth == n
        x = rng.normal(size=(16, n))
        u = rng.normal(size=(16, 1))
        w = rng.normal(size=(16, n))
        want = _backend.chain_apply(_taylor(n, t), x)
        want += u @ _taylor(n + 1, t)[:0:-1, None].T
        want += w
        assert system.step(x, u, w).tobytes() == want.tobytes(), n


def test_integrator_step_adds_disturbance_rowwise():
    system = IntegratorChain(2, sampling_time=0.5)
    disturbances = np.array([[0.1, -0.2], [0.0, 0.3]])
    out = system.step([[0.0, 0.0], [0.0, 0.0]], None, disturbances)
    np.testing.assert_array_equal(out, disturbances)


def test_integrator_validates_inputs():
    with pytest.raises(InputError):
        IntegratorChain(0)
    with pytest.raises(InputError):
        IntegratorChain(2, sampling_time=0.0)
    with pytest.raises(InputError):
        IntegratorChain(2, sampling_time=float("nan"))
    # a sampling time whose Taylor terms, or their row sum, overflow
    for n, t in ((2000, 1000.0), (3, 1e200), (2000, 711.0)):
        with pytest.raises(InputError, match="sampling time .* overflows"):
            IntegratorChain(n, sampling_time=t)
    system = IntegratorChain(2)
    with pytest.raises(InputError):
        system.step([[0.0, 0.0]], [[1.0, 2.0]], None)  # control must be scalar
    # a state of the wrong width is rejected, with and without controls
    chain = IntegratorChain(3)
    with pytest.raises(InputError, match="3 components"):
        chain.step(np.zeros((2, 5)), None, None)
    with pytest.raises(InputError, match="3 components"):
        chain.step(np.zeros((2, 2)), np.zeros((2, 1)), None)


def test_step_refuses_a_control_array_with_no_entries():
    # None is the one way to give no control: a policy's (P, 0) output
    # for the 1-control integrator ran uncontrolled in all three callers
    def empty(k, states):
        return np.empty((len(states), 0))

    system = IntegratorChain(2)
    for controls in (np.empty((3, 0)), np.empty(0), [[]]):
        with pytest.raises(InputError, match="controls must have shape"):
            system.step(np.zeros((3, 2)), controls, None)
    problem = ReachProblem(
        BoxSet([-1.0, -1.0], [1.0, 1.0]), BoxSet([-0.5, -0.5], [0.5, 0.5]), 2
    )
    noise = GaussianDisturbance([0.1, 0.1])
    callers = {
        "dp_reach": lambda: dp_reach(
            system, noise, problem, [[0.5, 0.5]], empty, shape=(41, 41)
        ),
        "mc_reach": lambda: mc_reach(
            system, noise, problem, empty, np.array([[0.5, 0.5]]), 100, seed=0
        ),
        "generate_transitions": lambda: generate_transitions(
            system, empty, BoxSampler([-1.0, -1.0], [1.0, 1.0]), noise, 16, 0
        ),
    }
    for name, call in callers.items():
        with pytest.raises(InputError, match="controls must have shape"):
            call()
    # a batch of no states still steps, with no controls or with (0, m)
    for controls in (None, np.zeros((0, 1))):
        out = system.step(np.zeros((0, 2)), controls, np.zeros((0, 2)))
        assert out.shape == (0, 2)
    out = CWHSystem().step(np.zeros((0, 4)), np.zeros((0, 2)), None)
    assert out.shape == (0, 4)


@pytest.mark.parametrize(
    "system", [IntegratorChain(2), CWHSystem()], ids=["integrator", "cwh"]
)
def test_step_refuses_states_that_are_not_one_per_row(system):
    # a stack of state matrices, which a matrix product would broadcast
    states = np.zeros((3, system.n, system.n))
    with pytest.raises(InputError, match="states must be one per row"):
        system.step(states, None, None)


# ----------------------------------------------------------------------- cwh


def _cwh_closed_form(w, t, mass):
    # zero-order-hold solution of the CWH equations, written out by hand
    s, c = math.sin(w * t), math.cos(w * t)
    a = np.array(
        [
            [4.0 - 3.0 * c, 0.0, s / w, 2.0 * (1.0 - c) / w],
            [6.0 * (s - w * t), 1.0, -2.0 * (1.0 - c) / w, (4.0 * s - 3.0 * w * t) / w],
            [3.0 * w * s, 0.0, c, 2.0 * s],
            [-6.0 * w * (1.0 - c), 0.0, -2.0 * s, 4.0 * c - 3.0],
        ]
    )
    b = np.array(
        [
            [(1.0 - c) / w**2, 2.0 * (t - s / w) / w],
            [-2.0 * (t - s / w) / w, 4.0 * (1.0 - c) / w**2 - 1.5 * t**2],
            [s / w, 2.0 * (1.0 - c) / w],
            [-2.0 * (1.0 - c) / w, 4.0 * s / w - 3.0 * t],
        ]
    )
    return a, b / mass


def test_cwh_discretization_matches_matrix_exponential():
    # at the default orbit the hand-written closed form is accurate, and
    # the exponential must agree with it
    system = CWHSystem(sampling_time=20.0)
    a, b = _cwh_closed_form(system.orbital_rate, 20.0, system.mass)
    np.testing.assert_allclose(system._a, a, rtol=0, atol=1e-12)
    np.testing.assert_allclose(system._b, b, rtol=0, atol=1e-12)
    # the semigroup identities of the exact discretization:
    # A(2T) = A(T)^2 and B(2T) = A(T) B(T) + B(T)
    for t in (20.0, 300.0):
        one = CWHSystem(sampling_time=t)
        two = CWHSystem(sampling_time=2.0 * t)
        a, b = one._a, one._b
        for got, want in ((two._a, a @ a), (two._b, a @ b + b)):
            scale = np.abs(want).max()
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * scale)


@pytest.mark.parametrize("t", [1.0, 20.0, 300.0])
def test_cwh_discretization_agrees_with_scipy_expm(t):
    # scipy serves the tests only, as an independent exponential of the
    # same Van Loan block
    system = CWHSystem(sampling_time=t)
    w, mass = system.orbital_rate, system.mass
    block = np.zeros((6, 6))
    block[0, 2] = block[1, 3] = 1.0
    block[2, 0] = 3.0 * w * w
    block[2, 3] = 2.0 * w
    block[3, 2] = -2.0 * w
    block[2, 4] = block[3, 5] = 1.0 / mass
    want = linalg.expm(block * t)[:4]
    got = np.hstack([system._a, system._b])
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_cwh_zero_control_zero_noise_drifts():
    system = CWHSystem()
    start = np.array([[0.0, -0.8, 0.0, 0.0]])
    out = system.step(start, np.zeros((1, 2)), None)
    # pure y-offset is an equilibrium direction of the in-plane dynamics
    np.testing.assert_allclose(out, start, atol=1e-12)
    start = np.array([[0.1, -0.8, 0.0, 0.0]])
    out = system.step(start, None, None)
    assert not np.allclose(out, start)


def test_cwh_control_bound_warning():
    import warnings

    system = CWHSystem()
    states = np.zeros((1, 4))
    with pytest.warns(UserWarning, match="bound"):
        system.step(states, [[0.2, 0.0]], None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        system.step(states, [[0.05, 0.0]], None)


def test_cwh_validates_inputs():
    # NaN fails every comparison, so the sampling time is checked for
    # finiteness
    for bad in (-1.0, 0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(InputError):
            CWHSystem(sampling_time=bad)
    system = CWHSystem()
    with pytest.raises(InputError):
        system.step([[0.0, 0.0]], None, None)


def test_cwh_scenario_is_fixed():
    # one chaser in one orbit: only the sampling time is a parameter
    for key, value in (
        ("mass", 300.0), ("orbit_altitude", 850.0e3), ("control_bound", 0.1)
    ):
        with pytest.raises(TypeError):
            CWHSystem(**{key: value})
    assert CWHSystem.mass == 300.0
    assert CWHSystem.orbital_rate == 0.001028899296721892  # 850 km orbit
    assert CWHSystem.control_bound == 0.1


def test_cwh_sets_membership():
    target, safe = cwh_sets()
    z = np.array(
        [
            [0.0, -0.05, 0.0, 0.0],  # inside both
            [0.2, -0.1, 0.0, 0.0],  # |x| >= |y|: outside the cone
            [0.0, -0.1, 0.0, 0.0],  # y = -0.1 is strict: outside target
            [0.05, -0.5, 0.0, 0.0],  # cone only
            [0.0, -0.05, 0.04, 0.0],  # velocity too fast for docking
        ]
    )
    np.testing.assert_array_equal(
        target.contains(z), [True, False, False, False, False]
    )
    np.testing.assert_array_equal(
        safe.contains(z), [True, False, True, True, True]
    )


def test_cwh_lqr_policy_stabilizes():
    system = CWHSystem()
    policy = cwh_lqr_policy(system)
    a, b = system._a, system._b
    closed = a - b @ policy.gain
    assert np.abs(np.linalg.eigvals(closed)).max() < 1.0
    # saturation keeps controls within the declared force bound
    far = np.array([[50.0, -80.0, 0.5, 0.5]])
    u = policy(0, far)
    assert np.all(np.abs(u) <= system.control_bound + 1e-15)
    with pytest.raises(InputError):
        cwh_lqr_policy(IntegratorChain(2))


def _lqr_weights():
    return np.diag([1.0, 1.0, 1e3, 1e3]), np.eye(2) * 1e4


@pytest.mark.parametrize("t", [1.0, 20.0, 300.0])
def test_cwh_lqr_gain_solves_the_riccati_equation(t):
    system = CWHSystem(sampling_time=t)
    a, b = system._a, system._b
    q, r = _lqr_weights()
    gain = cwh_lqr_policy(system).gain
    # the gain's own Riccati solution, recovered from the doubling
    p = systems._dare(a, b, q, r)
    np.testing.assert_array_equal(
        gain, np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
    )
    residual = a.T @ p @ a - p - a.T @ p @ b @ gain + q
    assert np.linalg.norm(residual) <= 1e-14 * np.linalg.norm(p)
    assert np.abs(np.linalg.eigvals(a - b @ gain)).max() < 1.0


@pytest.mark.parametrize("t", [20.0, 300.0])
def test_cwh_lqr_gain_agrees_with_scipy_riccati(t):
    # at T = 1 s scipy's own residual is 3e-14 relative and the gains
    # differ by 2e-12; from 20 s on both solutions are tight
    system = CWHSystem(sampling_time=t)
    a, b = system._a, system._b
    q, r = _lqr_weights()
    p = linalg.solve_discrete_are(a, b, q, r)
    want = np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
    got = cwh_lqr_policy(system).gain
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_cwh_state_matrix_has_determinant_one_where_accepted():
    # trace(Ac) = 0, so det A = 1 exactly; the squaring drifts it by about
    # 2^s ulps, to 6e-6 at 1e10 s and past the 1e-4 tolerance from about
    # 1e12 s
    for t in (1.0, 20.0, 300.0, 5000.0, 1e6, 1e10):
        det = np.linalg.det(CWHSystem(sampling_time=t)._a)
        assert abs(det - 1.0) <= systems._CWH_DET_TOL, t
    for t in (1e13, 1e16, 1e17, 1e18):
        with pytest.raises(InputError, match="too long for an accurate"):
            CWHSystem(sampling_time=t)


def test_riccati_solve_that_meets_a_singular_system_is_a_numerical_error():
    # I + G H = 1 + 1 * (-1) = 0 on the first pass
    one = np.eye(1)
    with pytest.raises(NumericalError, match="did not converge"):
        systems._dare(one, one, -one, one)


def test_cwh_lqr_gain_without_a_solution_is_a_numerical_error():
    # at a sampling time of 1e-300 s the input matrix is about 1e-303,
    # so the Riccati iteration grows without settling
    with pytest.raises(NumericalError, match="did not converge"):
        cwh_lqr_policy(CWHSystem(sampling_time=1e-300))


# -------------------------------------------------------------- disturbances


def test_gaussian_disturbance_moments():
    dist = GaussianDisturbance([0.1, 0.2])
    draws = dist.draw(np.random.default_rng(0), 200000)
    assert draws.shape == (200000, 2)
    np.testing.assert_allclose(draws.mean(axis=0), [0.0, 0.0], atol=3e-3)
    np.testing.assert_allclose(draws.std(axis=0), [0.1, 0.2], rtol=0.02)
    corr = np.corrcoef(draws.T)[0, 1]
    assert abs(corr) < 0.01


# (dim, count) pairs; 10 000 x 65 537 would need 5 GB per array, so the
# wide case draws 1 and 65 rows; 3 x 1366 fills one scale tile of 1365
# rows and 1 row of the next
@pytest.mark.parametrize(
    "dim, count",
    [(1, 1), (1, 65537), (2, 1), (2, 65537), (3, 1366), (4, 1), (4, 65537),
     (10000, 1), (10000, 65)],
)
def test_gaussian_draw_is_the_normal_stream_bitwise(dim, count):
    sd = np.random.default_rng(dim).uniform(0.01, 3.0, dim)
    got = GaussianDisturbance(sd).draw(np.random.default_rng(11), count)
    want = np.random.default_rng(11).normal(0.0, sd, size=(count, dim))
    assert got.shape == (count, dim)
    assert got.tobytes() == want.tobytes()


def test_gaussian_rejects_nonpositive_sd():
    for sd in ([0.1, 0.0], [0.1, -1.0], [0.1, np.inf]):
        with pytest.raises(InputError):
            GaussianDisturbance(sd)
    with pytest.raises(InputError):
        GaussianDisturbance([np.inf])


def test_beta_disturbance_matches_distribution():
    dist = BetaDisturbance(0.5, 0.5, dim=1)
    draws = dist.draw(np.random.default_rng(1), 100000).ravel()
    assert draws.min() >= 0.0 and draws.max() <= 1.0
    assert abs(draws.mean() - 0.5) < 0.01
    ks = stats.kstest(draws, "beta", args=(0.5, 0.5)).statistic
    assert ks < 0.01


def test_beta_disturbance_centered_shifts_mean():
    dist = BetaDisturbance(2.0, 6.0, dim=2, centered=True)
    draws = dist.draw(np.random.default_rng(2), 100000)
    np.testing.assert_allclose(draws.mean(axis=0), [0.0, 0.0], atol=0.005)
    assert draws.min() >= -0.25 and draws.max() <= 0.75
    with pytest.raises(InputError):
        BetaDisturbance(0.0, 1.0, dim=1)
    with pytest.raises(InputError):
        BetaDisturbance(1.0, 1.0, dim=0)
    for bad in (np.nan, np.inf):
        with pytest.raises(InputError):
            BetaDisturbance(bad, 1.0, dim=1)
        with pytest.raises(InputError):
            BetaDisturbance(1.0, bad, dim=1)


def test_zero_disturbance_is_exactly_zero():
    draws = ZeroDisturbance(3).draw(np.random.default_rng(5), 7)
    np.testing.assert_array_equal(draws, np.zeros((7, 3)))


def test_box_sampler_uniform_in_box():
    sampler = BoxSampler([-1.0, 2.0], [1.0, 3.0])
    draws = sampler.draw(np.random.default_rng(4), 50000)
    assert draws[:, 0].min() >= -1.0 and draws[:, 0].max() <= 1.0
    assert draws[:, 1].min() >= 2.0 and draws[:, 1].max() <= 3.0
    np.testing.assert_allclose(draws.mean(axis=0), [0.0, 2.5], atol=0.02)
    with pytest.raises(InputError):
        BoxSampler([1.0], [0.0])
    with pytest.raises(InputError):
        BoxSampler([0.0, 0.0], [1.0])
    with pytest.raises(InputError):
        BoxSampler([0.0, 0.0], [1.0, np.inf])
    with pytest.raises(InputError):
        BoxSampler([np.nan, 0.0], [1.0, 1.0])


def test_box_sampler_draws_the_bits_of_rng_uniform():
    lower = [-1.1, 2.0, -0.0, -1e300, 0.0, 5e-324]
    upper = [1.1, 3.0, 0.0, 1e300, 0.1, 1.0]
    sampler = BoxSampler(lower, upper)
    got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
    for count in (0, 1, 1000):
        got = sampler.draw(got_rng, count)
        want = want_rng.uniform(lower, upper, size=(count, len(lower)))
        assert got.tobytes() == want.tobytes()
    # and leaves the stream where rng.uniform leaves it
    assert got_rng.random() == want_rng.random()


def test_box_sampler_rejects_a_width_that_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="too wide"):
            BoxSampler([-1e308, 0.0], [1e308, 1.0])
        BoxSampler([-8e307, 0.0], [8e307, 1.0])  # a width of 1.6e308 is fine


# ------------------------------------------------------------------ policies


def test_policies_shapes_and_values():
    states = np.arange(6.0).reshape(3, 2)
    np.testing.assert_array_equal(ZeroPolicy(2)(0, states), np.zeros((3, 2)))
    np.testing.assert_array_equal(
        ConstantPolicy([0.5, -1.0])(4, states), np.tile([0.5, -1.0], (3, 1))
    )
    policy = AffinePolicy([[1.0, 0.0]])
    u = policy(0, states)
    np.testing.assert_array_equal(u, [[0.0], [-2.0], [-4.0]])
    assert not np.signbit(u[0, 0])  # a zero control is +0.0
    clipped = AffinePolicy([[1.0, 0.0]], lower=-1.0, upper=1.0)
    np.testing.assert_array_equal(clipped(0, states), [[0.0], [-1.0], [-1.0]])


# ------------------------------------------------------- sample generation


def test_generate_transitions_reproducible_and_consistent():
    system = IntegratorChain(2, sampling_time=0.25)
    sampler = BoxSampler([-1.1, -1.1], [1.1, 1.1])
    dist = GaussianDisturbance([0.1, 0.1])
    one = generate_transitions(system, ZeroPolicy(1), sampler, dist, 256, 9)
    two = generate_transitions(system, ZeroPolicy(1), sampler, dist, 256, 9)
    np.testing.assert_array_equal(one.states, two.states)
    np.testing.assert_array_equal(one.successors, two.successors)
    other = generate_transitions(system, ZeroPolicy(1), sampler, dist, 256, 10)
    assert not np.array_equal(one.states, other.states)
    np.testing.assert_array_equal(one.controls, np.zeros((256, 1)))
    assert one.metadata["system"] == "integrator"
    assert one.metadata["seed"] == "9"
    assert one.metadata["disturbance"] == "gaussian"
    with pytest.raises(InputError, match="seed must be non-negative"):
        generate_transitions(system, ZeroPolicy(1), sampler, dist, 256, -1)


def test_generate_transitions_records_the_sampling_time():
    chain = IntegratorChain(2, sampling_time=0.1)
    sample = generate_transitions(
        chain,
        ZeroPolicy(1),
        BoxSampler([-1.0, -1.0], [1.0, 1.0]),
        GaussianDisturbance([0.1, 0.1]),
        8,
        0,
    )
    assert sample.metadata["sampling_time"] == "0.10000000000000001"
    cwh = CWHSystem(sampling_time=20.0)
    sample = generate_transitions(
        cwh,
        cwh_lqr_policy(cwh),
        BoxSampler([-0.5, -1.0, -0.01, -0.01], [0.5, -0.5, 0.01, 0.01]),
        cwh.default_disturbance(),
        8,
        0,
    )
    assert sample.metadata["sampling_time"] == "20"
    # appended after the other keys, where the CSV has always carried it
    assert list(sample.metadata)[-1] == "sampling_time"


def test_generate_transitions_successors_follow_dynamics():
    # zero disturbance: successors must equal the deterministic step exactly
    system = IntegratorChain(2, sampling_time=0.25)
    sampler = BoxSampler([-1.0, -1.0], [1.0, 1.0])
    policy = ConstantPolicy([0.3])
    sample = generate_transitions(
        system, policy, sampler, ZeroDisturbance(2), 64, 0
    )
    want = system.step(sample.states, sample.controls, None)
    np.testing.assert_array_equal(sample.successors, want)


def _generate_in_one_pass(system, policy, sampler, disturbance, count, seed):
    # every disturbance drawn at once, then one step of three whole-array
    # passes: the apply of A, the control product, the disturbance
    rng = np.random.default_rng(seed)
    states = sampler.draw(rng, count)
    controls = policy(0, states)
    draws = disturbance.draw(rng, count)
    successors = system.step(states, None, None)
    successors += controls @ system._b.T
    successors += draws
    return states, controls, successors


def _streamed_cases():
    # (system, policy, disturbance, count): one block, several blocks with
    # a remainder, and several rows per block against one block of many
    chain2, chain12, chain5000 = (IntegratorChain(n) for n in (2, 12, 5000))
    cases = []
    for chain, count in ((chain2, 1000), (chain12, 6000), (chain5000, 40)):
        n = chain.n
        for disturbance in (
            GaussianDisturbance(np.full(n, 0.1)),
            BetaDisturbance(0.5, 0.5, n, centered=True),
            ZeroDisturbance(n),
        ):
            cases.append((chain, ConstantPolicy([0.3]), disturbance, count))
    cwh = CWHSystem()
    for policy in (ZeroPolicy(2), cwh_lqr_policy(cwh)):
        cases.append((cwh, policy, cwh.default_disturbance(), 8192 + 100))
    return cases


@pytest.mark.parametrize("case", _streamed_cases())
def test_streamed_generate_has_the_bits_of_one_pass(case):
    system, policy, disturbance, count = case
    # the last block, or the only one, is short
    assert count % _backend.block_rows(system.n)
    sampler = BoxSampler(np.full(system.n, -0.5), np.full(system.n, 0.5))
    sample = generate_transitions(system, policy, sampler, disturbance, count, 17)
    want = _generate_in_one_pass(system, policy, sampler, disturbance, count, 17)
    for got, ref in zip((sample.states, sample.controls, sample.successors), want):
        assert got.tobytes() == ref.tobytes()


def test_generate_holds_the_states_and_successors_and_a_block():
    # 64 samples of a 40 000-dimensional chain: 20 MB per M x n array,
    # one row per block. Besides the states and successors the peak may
    # hold one block's noise, step output and scratch and 64 KiB of small
    # objects; drawing the noise whole and adding an n-wide control
    # product held four arrays, and a finiteness mask in the sample check
    # one byte per entry
    m, n = 64, 40_000
    chain = IntegratorChain(n)
    args = (
        chain,
        ZeroPolicy(1),
        BoxSampler(np.full(n, -1.0), np.full(n, 1.0)),
        chain.default_disturbance(),
        m,
        0,
    )
    size = m * n * 8
    block = _backend.block_rows(n) * n * 8
    generate_transitions(*args[:4], 2, 0)  # first-call allocations
    tracemalloc.start()
    try:
        generate_transitions(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * size + 3 * block + 2**16, (peak - 2 * size - 3 * block)


def test_generate_transitions_validates_dimensions():
    system = IntegratorChain(3)
    with pytest.raises(InputError):
        generate_transitions(
            system,
            ZeroPolicy(1),
            BoxSampler([-1.0] * 2, [1.0] * 2),
            GaussianDisturbance([0.1] * 3),
            16,
            0,
        )
    with pytest.raises(InputError):
        generate_transitions(
            system,
            ZeroPolicy(1),
            BoxSampler([-1.0] * 3, [1.0] * 3),
            GaussianDisturbance([0.1] * 2),
            16,
            0,
        )
    with pytest.raises(InputError):
        generate_transitions(
            system,
            ZeroPolicy(1),
            BoxSampler([-1.0] * 3, [1.0] * 3),
            GaussianDisturbance([0.1] * 3),
            0,
            0,
        )
