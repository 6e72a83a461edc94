"""The four benchmark workloads.

Each workload drives the public CLI in process. ``prepare`` writes the
inputs from the workload seed (part of set-up), ``operation`` is the list
of CLI invocations that make one timed operation, and ``check`` verifies
the files the operation wrote.

Why these four, and which layers each one stresses (S) or bypasses (B):

============  ==========================================================
reach-fixed   The paper's main path, the criterion-1 pipeline. S: the
              weight solve and normalisation, the query cross-kernel,
              CSV read/write. B: oracle, chain apply.
reach-max     Same sample and layers, used differently: 3x the solved
              columns with three weight matrices live at once. Shows a
              change that helps fixed mode but costs max mode or memory.
oracle        Grid oracle then Monte Carlo. S: the quadrature backup and
              the rollouts. B: kernels and embedding, so an
              estimator-side change must leave it unchanged.
highdim       bench-dims up to n=10 000 on 256 samples. S: the
              integrator-chain apply and 10 001-wide kernels. B: the
              oracles, large query sets.
============  ==========================================================
"""

import functools
import os
from dataclasses import dataclass

import numpy as np

import checks

CONTROL_GRID = "-0.5;0;0.5"
N_CONTROLS = 3
# estimator and problem settings pinned here, so a change of the CLI's
# defaults cannot silently change what the benchmark measures
ESTIMATOR = ["--sigma", "0.1", "--lambda", "1", "--horizon", "3"]


@dataclass(frozen=True)
class Sizes:
    samples: int
    grid: str
    dp_grid: str
    dp_quad: int
    mc_points: int
    rollouts: int
    dims: tuple
    # bench-dims at its default 1024 samples takes ~9 s per operation and
    # its run-to-run spread is too wide for three samples per run
    dims_samples: int


FULL = Sizes(
    samples=1024,
    grid="101x101:-1.1,1.1,-1.1,1.1",
    dp_grid="201x201",
    dp_quad=25,
    mc_points=20,
    rollouts=100_000,
    dims=(2, 10, 100, 1000, 10000),
    dims_samples=256,
)

# smoke-test sizes: every code path, a fraction of a second per operation
TINY = Sizes(
    samples=128,
    grid="21x21:-1.1,1.1,-1.1,1.1",
    dp_grid="41x41",
    dp_quad=9,
    mc_points=4,
    rollouts=4000,
    dims=(2, 10, 100),
    dims_samples=64,
)


def reference_command(sizes, out):
    """CLI arguments that write the grid-oracle reference table."""
    return [
        "oracle-dp", *ESTIMATOR, "--grid", sizes.grid,
        "--dp-grid", sizes.dp_grid, "--dp-quad", str(sizes.dp_quad),
        "--out", out,
    ]


class Run:
    """Paths and inputs shared by the processes of one benchmark run."""

    def __init__(self, work, seed, sizes, reference_path):
        self.work = work
        self.seed = seed
        self.sizes = sizes
        self.reference_path = reference_path

    @functools.cached_property
    def reference(self):
        return checks.Table.read(self.reference_path)

    def path(self, name):
        return os.path.join(self.work, name)


class Workload:
    name = ""
    # fresh processes that each set up and run the cold operation; the
    # last one goes on to the timed operations
    setups = 1

    def prepare(self, run, invoke):
        """Write the inputs; ``invoke(argv)`` runs a CLI command."""

    def operation(self, run):
        raise NotImplementedError

    def baseline(self, run, invoke):
        """Write, untimed and once per run, what ``check`` compares with."""

    def check(self, run):
        raise NotImplementedError

    def quality(self, run):
        """Accuracy figures of the last output, reported but not gated."""
        return {}


class ReachFixed(Workload):
    name = "reach-fixed"
    # set-up (import, inputs, cold operation) takes a few seconds, so it
    # is repeated in fresh processes and the median reported
    setups = 3

    def prepare(self, run, invoke):
        invoke([
            "generate", "--samples", str(run.sizes.samples),
            "--seed", str(run.seed), "--out", run.path("sample.csv"),
        ])

    def operation(self, run):
        return [[
            "reach", *ESTIMATOR, "--grid", run.sizes.grid,
            "--sample-file", run.path("sample.csv"), "--out", run.path("v.csv"),
        ]]

    def check(self, run):
        return checks.check_values(checks.Table.read(run.path("v.csv")), run.reference)

    def quality(self, run):
        table = checks.Table.read(run.path("v.csv"))
        return {"interior_max_err": checks.interior_max_err(table, run.reference)}


class ReachMax(ReachFixed):
    name = "reach-max"

    def operation(self, run):
        return [[
            "reach", *ESTIMATOR, "--grid", run.sizes.grid,
            "--sample-file", run.path("sample.csv"), "--out", run.path("vmax.csv"),
            "--mode", "max", f"--control-grid={CONTROL_GRID}",
        ]]

    def baseline(self, run, invoke):
        # fixed mode on the same sample is the lower bound for max mode
        if not os.path.exists(run.path("v.csv")):
            for argv in ReachFixed.operation(self, run):
                invoke(argv)

    def check(self, run):
        return checks.check_max(
            checks.Table.read(run.path("vmax.csv")),
            checks.Table.read(run.path("v.csv")),
            run.reference,
            N_CONTROLS,
        )

    def quality(self, run):
        return {}


class Oracle(Workload):
    name = "oracle"
    # the cold operation takes about as long as a warm one (~9 s), so
    # set-up runs once per benchmark run

    def _points(self, run):
        # start points are grid points of the reference table, so their
        # grid-oracle values can be looked up exactly
        rng = np.random.default_rng(run.seed)
        count = run.reference.data.shape[0]
        return np.sort(rng.choice(count, size=run.sizes.mc_points, replace=False))

    def prepare(self, run, invoke):
        points = run.reference.block("x")[self._points(run)]
        lines = ["x1,x2"] + [",".join(format(v, ".17g") for v in p) for p in points]
        with open(run.path("mc_points.csv"), "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")

    def operation(self, run):
        return [
            reference_command(run.sizes, run.path("dp.csv")),
            [
                "oracle-mc", *ESTIMATOR, "--points-file", run.path("mc_points.csv"),
                "--rollouts", str(run.sizes.rollouts), "--seed", str(run.seed),
                "--out", run.path("mc.csv"),
            ],
        ]

    def check(self, run):
        idx = self._points(run)
        return checks.check_dp(
            checks.Table.read(run.path("dp.csv")), run.reference
        ) + checks.check_mc(
            checks.Table.read(run.path("mc.csv")),
            run.reference.block("x")[idx],
            run.reference.column("v0")[idx],
        )


class HighDim(Workload):
    name = "highdim"
    setups = 3

    def operation(self, run):
        return [[
            "bench-dims", *ESTIMATOR, "--samples", str(run.sizes.dims_samples),
            "--dims", ",".join(map(str, run.sizes.dims)), "--repeats", "1",
            "--seed", str(run.seed), "--out", run.path("dims.csv"),
        ]]

    def check(self, run):
        return checks.check_dims(checks.Table.read(run.path("dims.csv")), run.sizes.dims)


WORKLOADS = {w.name: w for w in (ReachFixed(), ReachMax(), Oracle(), HighDim())}
