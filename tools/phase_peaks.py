"""Print the traced peak memory of each phase of one ``bench-dims`` dimension.

The phases are those of ``rkhs-reach bench-dims`` at one state
dimension n, at the configuration's defaults (sigma 0.1, lambda 1,
horizon 3, zero policy): ``generate`` draws the sample, ``read`` writes
it to a temporary directory, drops the drawn copy and reads the file
back, as ``rkhs-reach reach --sample-file`` does, ``fit`` fits the
estimator on the sample read and ``recursion`` runs the backward
recursion at the origin. A fifth phase, ``monte-carlo``, runs
``mc_reach`` from the origin with ``--rollouts`` rollouts, as
``rkhs-reach oracle-mc`` does. Each peak is tracemalloc's, in MiB, and
counts what the phase holds from earlier phases: the fit's includes its
sample, and so does the Monte Carlo phase's. The write's own peak is
counted in no phase. Run from the repository root:

    python tools/phase_peaks.py [--samples M] [--dim N] [--seed S]
                                [--rollouts R]

The defaults, 256 samples at n = 10 000 and 2000 rollouts, are the
sizes of the README's memory figures.
"""

import argparse
import pathlib
import sys
import tempfile
import tracemalloc

import numpy as np
# numpy imports numpy.random on its first use, and the modules it pulls
# in would stay traced in every phase's peak (0.3 sample arrays at
# 64 x 5000): they are imported here, before tracing starts
import numpy.random  # noqa: F401

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from rkhs_reach import (  # noqa: E402
    Embedding,
    RBFKernel,
    generate_transitions,
    mc_reach,
    value_recursion,
)
from rkhs_reach.config import (  # noqa: E402
    RunConfig,
    apply_overrides,
    build_disturbance,
    build_policy,
    build_problem,
    build_sampler,
    build_system,
    validate,
)
from rkhs_reach.io import read_transitions_csv, write_transitions_csv  # noqa: E402


def phase_peaks(samples, dim, seed=0, rollouts=2000):
    """The traced peak of each phase in bytes, as ``(name, peak)`` pairs."""
    overrides = {"samples": samples, "dim": dim, "seed": seed}
    cfg = validate(apply_overrides(RunConfig(), overrides))
    system = build_system(cfg)
    policy = build_policy(cfg, system)
    sampler = build_sampler(cfg, dim)
    disturbance = build_disturbance(cfg, system)
    problem = build_problem(cfg, dim)
    kernel = RBFKernel(cfg.sigma)
    peaks = []
    tracemalloc.start()
    try:
        sample = generate_transitions(
            system, policy, sampler, disturbance, cfg.samples, cfg.seed
        )
        peaks.append(("generate", tracemalloc.get_traced_memory()[1]))
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "sample.csv"
            write_transitions_csv(path, sample)
            del sample
            tracemalloc.reset_peak()
            sample = read_transitions_csv(path)
            peaks.append(("read", tracemalloc.get_traced_memory()[1]))
        tracemalloc.reset_peak()
        emb = Embedding(
            sample, kernel, cfg.lam, normalize_weights=cfg.normalize_weights
        )
        peaks.append(("fit", tracemalloc.get_traced_memory()[1]))
        tracemalloc.reset_peak()
        value_recursion(emb, problem, np.zeros((1, dim)), policy)
        peaks.append(("recursion", tracemalloc.get_traced_memory()[1]))
        tracemalloc.reset_peak()
        mc_reach(
            system, disturbance, problem, policy, np.zeros((1, dim)), rollouts,
            cfg.seed,
        )
        peaks.append(("monte-carlo", tracemalloc.get_traced_memory()[1]))
    finally:
        tracemalloc.stop()
    return peaks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=256)
    parser.add_argument("--dim", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rollouts", type=int, default=2000)
    args = parser.parse_args(argv)
    print(f"M={args.samples} n={args.dim} (one sample-wide array: "
          f"{args.samples * args.dim * 8 / 2**20:.1f} MiB)")
    peaks = phase_peaks(args.samples, args.dim, args.seed, args.rollouts)
    for name, peak in peaks:
        print(f"{name:11s} {peak / 2**20:7.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
