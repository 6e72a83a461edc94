"""Shared fixtures: the 2-D benchmark setup, its grid-oracle truth field,
and the acceptance-criteria result collector.

The expensive artifacts (1024-sample set, dense-grid reference values at
the evaluation grid plus the sample successors) are session-scoped and
shared between the acceptance tests and several unit tests.
"""

import time

import numpy as np
import pytest

from rkhs_reach import (
    BoxSampler,
    BoxSet,
    GaussianDisturbance,
    IntegratorChain,
    ReachProblem,
    ZeroPolicy,
    dp_reach,
)

from bench_setup import (
    BENCH_HORIZON,
    BENCH_NOISE_SD,
    BENCH_SAMPLES,
    make_bench_sample,
)


def pytest_configure(config):
    config._acceptance = {}


@pytest.fixture
def record_round_off(record_property):
    """Record a measured value and the round-off bound it is held to.

    ``record_round_off(label, measured, bound)`` adds a ``round-off``
    property, ``"LABEL MEASURED BOUND"``, to the test's JUnit XML entry,
    where ``tools/blas_matrix.py`` reads it. Call it before asserting, so
    that a failing run records its value too.
    """

    def record(label, measured, bound):
        record_property("round-off", f"{label} {float(measured)!r} {float(bound)!r}")

    return record


@pytest.fixture
def record_golden(record_property):
    """Record how a rerun golden file compares with the committed one.

    ``record_golden(name, state)`` adds a ``golden`` property, ``"NAME
    STATE"``, to the test's JUnit XML entry, where
    ``tools/blas_matrix.py`` reads it. ``state`` is ``same``, ``moved
    LARGEST`` or ``differs`` (``tests/test_golden.py`` says when). Call it
    before asserting, so that a failing run records its state too.
    """

    def record(name, state):
        record_property("golden", f"{name} {state}")

    return record


@pytest.fixture(scope="session")
def acceptance(request):
    """Mutable mapping: criterion number -> (passed, detail line)."""
    return request.config._acceptance


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = getattr(config, "_acceptance", None)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for k in range(1, 9):
        if k in results:
            passed, detail = results[k]
            word = "PASS" if passed else "FAIL"
            terminalreporter.write_line(f"CRITERION {k}: {word} - {detail}")
        else:
            terminalreporter.write_line(f"CRITERION {k}: NOT RUN")


@pytest.fixture(scope="session")
def bench_system():
    return IntegratorChain(2, sampling_time=0.25)


@pytest.fixture(scope="session")
def bench_disturbance():
    return GaussianDisturbance([BENCH_NOISE_SD, BENCH_NOISE_SD])


@pytest.fixture(scope="session")
def bench_problem():
    box = BoxSet([-1.0, -1.0], [1.0, 1.0])
    return ReachProblem(safe=box, target=box, horizon=BENCH_HORIZON)


@pytest.fixture(scope="session")
def bench_policy():
    return ZeroPolicy(1)


@pytest.fixture(scope="session")
def bench_sampler():
    return BoxSampler([-1.1, -1.1], [1.1, 1.1])


@pytest.fixture(scope="session")
def bench_sample():
    return make_bench_sample(BENCH_SAMPLES, seed=0)


@pytest.fixture(scope="session")
def grid_points_101():
    ax = np.linspace(-1.1, 1.1, 101)
    g1, g2 = np.meshgrid(ax, ax, indexing="ij")
    return np.column_stack([g1.ravel(), g2.ravel()])


@pytest.fixture(scope="session")
def interior_mask(grid_points_101):
    pts = grid_points_101
    return np.all((pts > -1.0) & (pts < 1.0), axis=1)


@pytest.fixture(scope="session")
def dp_truth(
    bench_system,
    bench_disturbance,
    bench_problem,
    bench_policy,
    bench_sample,
    grid_points_101,
):
    """Grid-oracle values at the evaluation grid and the sample successors.

    Returns ``(field, seconds)``; columns beyond the grid belong to the
    successors of ``bench_sample`` (used by the error-accumulation
    criterion). The wall-clock covers the full oracle run.
    """
    points = np.vstack([grid_points_101, bench_sample.successors])
    t0 = time.perf_counter()
    field = dp_reach(
        bench_system, bench_disturbance, bench_problem, points, bench_policy
    )
    seconds = time.perf_counter() - t0
    return field, seconds
