"""``tools/phase_peaks.py`` prints the traced peak of each bench-dims phase."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "phase_peaks.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("phase_peaks", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_phase_peaks_prints_one_line_per_phase(capsys):
    assert _load_tool().main(["--samples", "8", "--dim", "3", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("M=8 n=3 ")
    assert [line.split()[0] for line in lines[1:]] == ["generate", "fit", "recursion"]
    for line in lines[1:]:
        _, peak, unit = line.split()
        assert float(peak) >= 0.0 and unit == "MiB"


def test_each_phase_peak_counts_the_sample():
    # 64 samples at n = 5000: the states and successors, 2.4 MiB each,
    # are live in every phase, and no phase holds a third such array
    array = 64 * 5000 * 8
    peaks = dict(_load_tool().phase_peaks(64, 5000))
    assert list(peaks) == ["generate", "fit", "recursion"]
    for name, peak in peaks.items():
        assert 2 * array <= peak <= 2.5 * array, (name, peak / array)
