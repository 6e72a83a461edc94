"""Regenerate the golden recursion outputs, by default in this directory.

Run from the repository root after an intended change to the
recursion's output, and commit the diff with it:

    PYTHONPATH=src python tests/data/golden/regenerate.py [OUT_DIR]

Given ``OUT_DIR``, every file goes there instead, the committed
``points_4.csv`` input copied along, so a change can regenerate the
whole set elsewhere and compare it with the committed files
(``cmp``) without touching them.

Four 128-sample inputs are written first: an integrator ``generate``
file drawn under the zero policy, a library sample whose controls are
drawn uniformly from a seeded stream, the one input on which normalized
max mode really runs all three controls, the first with its last
transition replaced by its first, and the first with its first state
moved to (1e200, 0). Then ``reach`` runs on an 11x11
grid at horizon 3, fixed and max over ``-0.5;0;0.5``, in normalized and
in raw mode, with two more max runs on the uniform-control sample, the
second with a duplicated control so that ties decide choices.

The remaining subcommands follow, each on a small input: a CWH
``generate`` under the LQR policy, ``oracle-dp`` on the same 11x11 grid,
``oracle-mc`` at the four points of the committed ``points_4.csv``,
``compare`` of ``reach_fixed.csv`` against that ``oracle-dp`` file (its
table and its stdout line), and ``bench-dims`` at n = 2, 10 and 100,
whose ``seconds`` column is wall time and is not compared.

Last, one failing command per documented exit code, two for exit 3: a
configuration error (2), a ridge that the repeated point leaves not
positive definite at a tiny lambda (3), a Gram matrix that the far point
overflows (3, whatever the BLAS's round-off) and a file of the wrong
format (4). Each ``.txt``
file holds ``exit <code>`` and the command's stderr, with the input
directory left out of the paths it names.
``tests/test_golden.py`` reruns every case and compares, reading each
table with ``table_parts``, as ``tools/blas_matrix.py`` does.
"""

import contextlib
import io
import os
import shutil
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

ZERO_SAMPLE = "integrator_128.csv"
UNIFORM_SAMPLE = "uniform_controls_128.csv"
REPEATED_SAMPLE = "repeated_point_128.csv"
OVERFLOW_SAMPLE = "overflow_point_128.csv"
POINTS = "points_4.csv"
COMPARE_STDOUT = "compare_fixed_dp.txt"

# columns of wall time, which no rerun repeats
WALL_TIME = ("seconds",)

_COMMON = ["--grid", "11x11:-1.1,1.1,-1.1,1.1", "--horizon", "3"]
_MAX = ["--mode", "max", "--control-grid=-0.5;0;0.5"]
_RAW = ["--normalize-weights", "false"]

# output file -> (input sample, reach flags)
REACH_CASES = {
    "reach_fixed.csv": (ZERO_SAMPLE, []),
    "reach_max.csv": (ZERO_SAMPLE, _MAX),
    "reach_raw_fixed.csv": (ZERO_SAMPLE, _RAW),
    "reach_raw_max.csv": (ZERO_SAMPLE, _MAX + _RAW),
    "reach_max_uniform_controls.csv": (UNIFORM_SAMPLE, _MAX),
    # candidates 1 and 3 tie at every point, so every choice of either
    # is the lower index
    "reach_max_duplicate_control.csv": (
        UNIFORM_SAMPLE, ["--mode", "max", "--control-grid=-0.5;0;0.5;0"]
    ),
}


class UniformControls:
    """Controls drawn from U[-0.6, 0.6] by a stream of its own."""

    description = "uniform:-0.6,0.6"

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def __call__(self, k, states):
        return self.rng.uniform(-0.6, 0.6, size=(len(states), 1))


def cli_cases(inputs):
    """Output file -> CLI arguments before ``--out``, reading from ``inputs``."""
    return {
        "cwh_lqr_64.csv": [
            "generate", "--system", "cwh", "--policy", "lqr", "--samples", "64"
        ],
        "oracle_dp.csv": [
            "oracle-dp", *_COMMON, "--dp-grid", "41x41", "--dp-quad", "9"
        ],
        "oracle_mc.csv": [
            "oracle-mc", "--points-file", os.path.join(inputs, POINTS),
            "--rollouts", "4000",
        ],
        "compare_fixed_dp.csv": [
            "compare", os.path.join(inputs, "reach_fixed.csv"),
            os.path.join(inputs, "oracle_dp.csv"),
        ],
        "bench_dims.csv": [
            "bench-dims", "--dims", "2,10,100", "--samples", "64",
            "--repeats", "1",
        ],
    }


def error_cases(inputs):
    """Output file -> CLI arguments of a failing command, reading from ``inputs``."""
    return {
        "exit_2_configuration.txt": [
            "reach", "--sample-file", os.path.join(inputs, ZERO_SAMPLE),
            "--sigma", "0", "--point", "0,0",
        ],
        # exactly singular Gram matrix under a ridge of 128 * 1e-16
        "exit_3_numerical.txt": [
            "reach", "--sample-file", os.path.join(inputs, REPEATED_SAMPLE),
            "--sigma", "2", "--lambda", "1e-16", "--point", "0,0",
        ],
        # squared distances to the point at 1e200 overflow
        "exit_3_overflow.txt": [
            "reach", "--sample-file", os.path.join(inputs, OVERFLOW_SAMPLE),
            "--point", "0,0",
        ],
        "exit_4_file_format.txt": [
            "compare", os.path.join(inputs, "reach_fixed.csv"),
            os.path.join(inputs, POINTS),
        ],
    }


def table_parts(text):
    """Metadata lines, header and cells of a golden CSV text, without wall time."""
    lines = text.splitlines()
    meta = [line for line in lines if line.startswith("#")]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    keep = [i for i, name in enumerate(body[0]) if name not in WALL_TIME]
    cells = [[row[i] for i in keep] for row in body]
    return meta, cells[0], cells[1:]


def _run(argv):
    """Run the CLI on ``argv``; return its stdout, raising on a nonzero exit."""
    from rkhs_reach.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code:
        raise RuntimeError(f"{argv[0]} exited {code}")
    return out.getvalue()


def write_inputs(directory):
    """Write the four input samples into ``directory``."""
    from rkhs_reach import (
        BoxSampler,
        GaussianDisturbance,
        IntegratorChain,
        TransitionSample,
        generate_transitions,
    )
    from rkhs_reach.io import read_transitions_csv, write_transitions_csv

    _run(
        ["generate", "--samples", "128", "--seed", "0",
         "--out", os.path.join(directory, ZERO_SAMPLE)]
    )
    zero = read_transitions_csv(os.path.join(directory, ZERO_SAMPLE))
    rows = [np.vstack([a[:-1], a[:1]])
            for a in (zero.states, zero.controls, zero.successors)]
    write_transitions_csv(
        os.path.join(directory, REPEATED_SAMPLE),
        TransitionSample(*rows, zero.metadata),
    )
    states = zero.states.copy()
    states[0] = [1e200, 0.0]
    write_transitions_csv(
        os.path.join(directory, OVERFLOW_SAMPLE),
        TransitionSample(states, zero.controls, zero.successors, zero.metadata),
    )
    sample = generate_transitions(
        IntegratorChain(2, sampling_time=0.25),
        UniformControls(7),
        BoxSampler([-1.1, -1.1], [1.1, 1.1]),
        GaussianDisturbance([0.1, 0.1]),
        128,
        0,
    )
    write_transitions_csv(os.path.join(directory, UNIFORM_SAMPLE), sample)


def write_reach(name, sample_dir, out_dir):
    """Run reach case ``name`` on the input in ``sample_dir``; write to ``out_dir``."""
    sample, flags = REACH_CASES[name]
    _run(
        ["reach", "--sample-file", os.path.join(sample_dir, sample),
         *_COMMON, *flags, "--out", os.path.join(out_dir, name)]
    )


def write_cli(name, input_dir, out_dir):
    """Run CLI case ``name`` on the inputs in ``input_dir``; write to ``out_dir``.

    The ``compare`` case also writes its stdout line to ``COMPARE_STDOUT``.
    """
    argv = cli_cases(input_dir)[name]
    out = _run([*argv, "--out", os.path.join(out_dir, name)])
    if argv[0] == "compare":
        with open(os.path.join(out_dir, COMPARE_STDOUT), "w", encoding="utf-8") as f:
            f.write(out)


def write_error(name, input_dir, out_dir):
    """Run failing case ``name`` on the inputs in ``input_dir``; write to ``out_dir``."""
    from rkhs_reach.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(error_cases(input_dir)[name])
    if code == 0 or out.getvalue():
        raise RuntimeError(f"{name}: exit {code}, stdout {out.getvalue()!r}")
    text = err.getvalue().replace(os.path.join(input_dir, ""), "")
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
        f.write(f"exit {code}\n{text}")


def main(argv=None):
    """Write every golden file to ``argv[0]``, by default this directory."""
    argv = sys.argv[1:] if argv is None else argv
    out = os.path.abspath(argv[0]) if argv else HERE
    if out != HERE:
        shutil.copyfile(os.path.join(HERE, POINTS), os.path.join(out, POINTS))
    write_inputs(out)
    for name in REACH_CASES:
        write_reach(name, out, out)
    # in order: compare reads oracle_dp.csv
    for name in cli_cases(out):
        write_cli(name, out, out)
    for name in error_cases(out):
        write_error(name, out, out)
    count = 5 + len(REACH_CASES) + len(cli_cases(out)) + len(error_cases(out))
    print(f"wrote {count} files to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
