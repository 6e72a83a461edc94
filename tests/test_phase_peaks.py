"""``tools/phase_peaks.py`` prints the traced peak of each bench-dims phase."""

import importlib.util
import os
import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "phase_peaks.py"
PHASES = ["generate", "read", "fit", "recursion", "monte-carlo"]


def _load_tool():
    spec = importlib.util.spec_from_file_location("phase_peaks", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_phase_peaks_prints_one_line_per_phase(capsys):
    argv = ["--samples", "8", "--dim", "3", "--seed", "1", "--rollouts", "50"]
    assert _load_tool().main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("M=8 n=3 ")
    assert [line.split()[0] for line in lines[1:]] == PHASES
    for line in lines[1:]:
        _, peak, unit = line.split()
        assert float(peak) >= 0.0 and unit == "MiB"


def test_each_phase_peak_counts_the_sample():
    # 64 samples at n = 5000: the states and successors, 2.4 MiB each,
    # are live in every phase, and no estimator phase holds a third such
    # array; the Monte Carlo phase's rollouts hold the same 2**18 state
    # entries a chunk at n = 500 and n = 5000, about 7 MiB above the
    # sample at both, where 2000-row chunks took 24 and 230 MiB
    tool = _load_tool()
    array = 64 * 5000 * 8
    peaks = dict(tool.phase_peaks(64, 5000))
    assert list(peaks) == PHASES
    for name in ("generate", "fit", "recursion"):
        assert 2 * array <= peaks[name] <= 2.5 * array, (name, peaks[name] / array)
    # reading the file back holds the two arrays and numpy's growth of
    # them: 3.1 arrays measured, where a Python float per cell took 15.7
    assert 2 * array <= peaks["read"] <= 3.5 * array, peaks["read"] / array
    small = dict(tool.phase_peaks(64, 500))["monte-carlo"] - 2 * 64 * 500 * 8
    assert peaks["monte-carlo"] - 2 * array <= 1.1 * small


def test_no_module_is_imported_while_the_phases_are_traced():
    # in a fresh interpreter, where no other test has imported numpy's
    # lazily loaded modules: an import under tracing counts its objects
    # in the phases' peaks (2.58 sample arrays in generate, bound 2.5)
    script = (
        "import importlib.util, sys, tracemalloc\n"
        f"spec = importlib.util.spec_from_file_location('phase_peaks', {str(TOOL)!r})\n"
        "tool = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tool)\n"
        "start, seen = tracemalloc.start, []\n"
        "tracemalloc.start = lambda: (seen.append(set(sys.modules)), start())\n"
        "tool.phase_peaks(8, 3, rollouts=50)\n"
        "print(sorted(set(sys.modules) - seen[0]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(TOOL.parent.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        check=True,
    ).stdout
    assert out.strip() == "[]", out
