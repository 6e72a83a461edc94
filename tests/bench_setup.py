"""Constants and builders of the 2-D benchmark setup.

A plain module rather than part of ``conftest.py``, so that test modules
can import it by name whichever other ``conftest`` modules share the
session.
"""

from rkhs_reach import (
    BoxSampler,
    Embedding,
    GaussianDisturbance,
    IntegratorChain,
    RBFKernel,
    ZeroPolicy,
    generate_transitions,
)

BENCH_SIGMA = 0.1
BENCH_LAMBDA = 1.0
BENCH_NOISE_SD = 0.1
BENCH_HORIZON = 3
BENCH_SAMPLES = 1024


def make_bench_sample(count, seed):
    system = IntegratorChain(2, sampling_time=0.25)
    return generate_transitions(
        system,
        ZeroPolicy(1),
        BoxSampler([-1.1, -1.1], [1.1, 1.1]),
        GaussianDisturbance([BENCH_NOISE_SD, BENCH_NOISE_SD]),
        count,
        seed,
    )


def fit_bench(sample, lam=BENCH_LAMBDA, sigma=BENCH_SIGMA):
    return Embedding(sample, RBFKernel(sigma), lam)
