"""End-to-end command-line flows, run through main(): in process, and in
a fresh interpreter where the test is about what the commands import."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import rkhs_reach
from rkhs_reach import (
    ConstantPolicy,
    InputError,
    TransitionSample,
    ZeroPolicy,
    __version__,
    cli,
    oracle,
)
from rkhs_reach.cli import _build_parser, _load_config, main
from rkhs_reach.config import RunConfig
from rkhs_reach.io import (
    read_transitions_csv,
    read_value_table,
    read_values_csv,
    write_transitions_csv,
)
from rkhs_reach.reach import _POINT_BLOCK


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_version_flag(capsys):
    rc, out, _ = run(capsys, "--version")
    assert rc == 0
    assert out.strip() == f"rkhs-reach {__version__}"


def test_generate_writes_a_readable_sample(tmp_path, capsys):
    path = tmp_path / "sample.csv"
    rc, out, _ = run(
        capsys, "generate", "--samples", "64", "--seed", "3", "--out", str(path)
    )
    assert rc == 0
    assert "wrote 64 transitions" in out
    sample = read_transitions_csv(path)
    assert sample.count == 64
    assert sample.state_dim == 2 and sample.control_dim == 1
    assert sample.metadata["seed"] == "3"
    assert sample.metadata["sampling_time"] == "0.25"


def test_zero_policy_is_a_constant_policy_named_zero(tmp_path, capsys):
    # one constant-control implementation; the zero policy keeps its name
    assert isinstance(ZeroPolicy(1), ConstantPolicy)
    path = tmp_path / "sample.csv"
    assert run(capsys, "generate", "--samples", "4", "--out", str(path))[0] == 0
    assert "# policy=zero\n" in path.read_text()
    assert read_transitions_csv(path).metadata["policy"] == "zero"


def test_generate_is_byte_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "generate", "--samples", "32", "--out", str(a))[0] == 0
    assert run(capsys, "generate", "--samples", "32", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def sample_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "sample.csv"
    rc = main(["generate", "--samples", "128", "--seed", "1", "--out", str(path)])
    assert rc == 0
    return str(path)


def test_reach_fixed_policy_flow(tmp_path, capsys, sample_file):
    out_csv = tmp_path / "values.csv"
    rc, out, _ = run(
        capsys,
        "reach",
        "--sample-file", sample_file,
        "--grid", "5x5:-1.1,1.1,-1.1,1.1",
        "--out", str(out_csv),
        "--summary",
    )
    assert rc == 0
    assert "fit_seconds=" in out and "backend=" not in out
    assert "v0 min=" in out
    field, metadata = read_values_csv(out_csv)
    assert "backend" not in metadata
    assert field.values.shape == (4, 25)  # default horizon 3, 5x5 grid
    assert np.all(field.values >= 0.0) and np.all(field.values <= 1.0)
    assert metadata["samples"] == "128"
    assert metadata["mode"] == "fixed"
    assert field.policy_choices is None


def test_reach_is_byte_reproducible(tmp_path, capsys, sample_file):
    # one point; 47 x 47 = 2209 points, more than one point block; and
    # max mode on those blocks, whose choice columns hang on the last bit
    grid = ("--grid", "47x47:-1.1,1.1,-1.1,1.1")
    assert 47 * 47 > _POINT_BLOCK
    cases = [
        ("--point", "0.1,0.2"),
        grid,
        (*grid, "--mode", "max", "--control-grid", "0;0.5;-0.5"),
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for extra in cases:
        argv = ["reach", "--sample-file", sample_file, *extra]
        assert run(capsys, *argv, "--out", str(a))[0] == 0
        assert run(capsys, *argv, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes(), extra


def test_reach_max_mode_writes_choices(tmp_path, capsys, sample_file):
    out_csv = tmp_path / "values.csv"
    rc, _, _ = run(
        capsys,
        "reach",
        "--sample-file", sample_file,
        "--mode", "max",
        "--control-grid", "0;0.5;-0.5",
        "--point", "0.2,-0.1",
        "--out", str(out_csv),
    )
    assert rc == 0
    field, metadata = read_values_csv(out_csv)
    assert metadata["mode"] == "max"
    assert field.policy_choices.shape == (3, 1)
    assert set(field.policy_choices.ravel()) <= {0, 1, 2}

    rc, _, err = run(
        capsys,
        "reach",
        "--sample-file", sample_file,
        "--mode", "max",
        "--point", "0,0",
    )
    assert rc == 2
    assert "control_grid" in err


def test_reach_max_mode_says_a_constant_sample_cannot_choose(
    tmp_path, capsys, sample_file
):
    # the fixture is drawn under the zero policy, so every sampled control
    # is 0 and normalized weights are the same for every candidate
    out_csv = tmp_path / "values.csv"
    argv = [
        "reach", "--sample-file", sample_file, "--mode", "max",
        "--control-grid=0.5;0;-0.5", "--grid", "5x5:-1.1,1.1,-1.1,1.1",
    ]
    rc, _, err = run(capsys, *argv, "--out", str(out_csv))
    assert rc == 0
    assert err.count("\n") == 1
    assert "cannot tell the candidate controls apart" in err
    assert "every choice is index 0" in err
    field, _ = read_values_csv(out_csv)
    assert field.policy_choices.shape == (3, 25)
    assert not np.any(field.policy_choices)
    # raw weights do tell the controls apart: no line
    rc, _, err = run(capsys, *argv, "--normalize-weights", "false")
    assert rc == 0 and err == ""


def test_reach_rejects_control_grid_in_fixed_mode(tmp_path, capsys, sample_file):
    # the grid is searched only in max mode; fixed mode must not drop it
    out_csv = tmp_path / "values.csv"
    rc, out, err = run(
        capsys,
        "reach",
        "--sample-file", sample_file,
        "--point", "0,0",
        "--control-grid=-0.5;0;0.5",
        "--out", str(out_csv),
    )
    assert rc == 2 and out == ""
    assert "control_grid" in err and "mode=max" in err
    assert not out_csv.exists()


def test_reach_rejects_policy_in_max_mode(tmp_path, capsys, sample_file):
    # max mode searches the control grid; a named policy must not be dropped
    out_csv = tmp_path / "values.csv"
    rc, out, err = run(
        capsys,
        "reach",
        "--sample-file", sample_file,
        "--point", "0,0",
        "--mode", "max",
        "--control-grid=-0.5;0;0.5",
        "--policy", "constant:0.3",
        "--out", str(out_csv),
    )
    assert rc == 2 and out == ""
    assert "policy" in err and "max mode searches control_grid" in err
    assert not out_csv.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--mode", "max", "--control-grid=-0.5;;0.5"], "empty field"),
        (["--mode", "max", "--control-grid=0.1,0.2"], "control dimension is 1"),
        (["--policy", "constant:abc"], "comma-separated numbers"),
        (["--policy", "constant:0.1,0.2"], "control dimension is 1"),
        (["--policy", "lqr"], "only defined for the cwh system"),
    ],
)
def test_reach_checks_grid_and_policy_before_the_fit(
    monkeypatch, capsys, sample_file, flags, message
):
    fits = []
    monkeypatch.setattr(cli, "Embedding", lambda *a, **k: fits.append(a))
    rc, out, err = run(
        capsys, "reach", "--sample-file", sample_file, "--point", "0,0", *flags
    )
    assert rc == 2 and out == ""
    assert message in err
    assert fits == []


def test_reach_raw_weight_mode_runs(capsys, sample_file):
    rc, out, _ = run(
        capsys,
        "reach",
        "--sample-file", sample_file,
        "--normalize-weights", "false",
        "--point", "0,0",
        "--summary",
    )
    assert rc == 0
    assert "v0 min=" in out


def test_oracle_dp_reach_compare_pipeline(tmp_path, capsys, sample_file):
    grid = "7x7:-1.1,1.1,-1.1,1.1"
    est = tmp_path / "est.csv"
    ref = tmp_path / "dp.csv"
    errs = tmp_path / "errors.csv"
    rc, _, _ = run(
        capsys, "reach", "--sample-file", sample_file,
        "--grid", grid, "--out", str(est),
    )
    assert rc == 0
    rc, out, _ = run(
        capsys, "oracle-dp", "--grid", grid,
        "--dp-grid", "101x101", "--dp-quad", "15", "--out", str(ref),
        "--summary",
    )
    assert rc == 0 and "seconds=" in out and "backend=" not in out
    rc, out, _ = run(
        capsys, "compare", str(est), str(ref), "--out", str(errs)
    )
    assert rc == 0
    assert "max_error=" in out and "interior_max_error=" in out
    # the per-point table carries both inputs and their absolute gap
    header = errs.read_text().splitlines()[0]
    assert header == "x1,x2,value_a,value_b,abs_error"
    assert len(errs.read_text().splitlines()) == 1 + 49


def test_compare_rejects_mismatched_point_sets(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("x1,x2,value\n0.0,0.0,0.5\n")
    b.write_text("x1,x2,value\n1.0,0.0,0.5\n")
    rc, _, err = run(capsys, "compare", str(a), str(b))
    assert rc == 2
    assert "different point sets" in err


def test_oracle_mc_flow(tmp_path, capsys):
    out_csv = tmp_path / "mc.csv"
    rc, out, _ = run(
        capsys,
        "oracle-mc",
        "--point", "0,0",
        "--rollouts", "2000",
        "--seed", "1",
        "--out", str(out_csv),
        "--summary",
    )
    assert rc == 0
    assert "rollouts=2000" in out and "halfwidth mean=" in out
    pts, values, metadata = read_value_table(out_csv)
    np.testing.assert_array_equal(pts, [[0.0, 0.0]])
    assert 0.0 <= values[0] <= 1.0
    assert metadata["oracle"] == "mc"


def test_oracle_mc_accepts_points_file(tmp_path, capsys):
    pfile = tmp_path / "pts.csv"
    pfile.write_text("x1,x2,value\n0.0,0.0,0\n0.5,0.5,0\n")
    rc, _, _ = run(
        capsys,
        "oracle-mc",
        "--points-file", str(pfile),
        "--rollouts", "200",
        "--out", str(tmp_path / "mc.csv"),
    )
    assert rc == 0
    pts, _, _ = read_value_table(tmp_path / "mc.csv")
    assert pts.shape == (2, 2)


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--sample-box=-1e308,1e308", "error: box is too wide to sample"),
        # its width, and so the sampling box around it, is infinite
        ("--safe-box=-1e308,1e308", "error: box bounds must be finite"),
        # finite, but stepping its states overflows
        (
            "--sample-box=1e308,1.7e308",
            "error: successors contains non-finite entries",
        ),
    ],
)
def test_generate_rejects_a_box_too_wide_to_sample(tmp_path, capsys, flag, message):
    out_csv = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        rc, out, err = run(
            capsys, "generate", "--samples", "4", flag, "--out", str(out_csv)
        )
    assert rc == 2 and out == "" and not out_csv.exists()
    assert err.startswith(message)


def test_oracle_mc_worker_error_exits_2(tmp_path, capsys, monkeypatch):
    def policy(k, states):
        if threading.current_thread() is not threading.main_thread():
            raise InputError("policy failed on a worker thread")
        return np.zeros((states.shape[0], 1))

    monkeypatch.setattr(cli, "build_policy", lambda cfg, system: policy)
    monkeypatch.setattr(oracle, "_core_count", lambda: 2)
    pfile = tmp_path / "pts.csv"
    pfile.write_text("x1,x2\n0.0,0.0\n0.5,0.5\n")
    out_csv = tmp_path / "mc.csv"
    rc, out, err = run(
        capsys, "oracle-mc", "--points-file", str(pfile), "--rollouts", "200",
        "--out", str(out_csv),
    )
    assert rc == 2 and out == "" and not out_csv.exists()
    assert err == "error: policy failed on a worker thread\n"


@pytest.mark.parametrize("sd", ["1e-17", "1e-200"])
def test_oracle_dp_refuses_noise_too_small_to_integrate(capsys, sd):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        rc, out, err = run(
            capsys, "oracle-dp", "--point", "0.5,0.3", "--noise-sd", sd
        )
    assert rc == 2 and out == ""
    assert err.startswith(f"error: noise sd {float(sd):.3g} on axis 1 is below")
    assert "Monte Carlo oracle" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--system", "cwh", "--policy", "lqr", "--samples", "4"),
        ("reach", "--system", "cwh", "--point", "0,-0.5,0,0"),
        (
            "oracle-mc", "--system", "cwh", "--policy", "lqr",
            "--point", "0,-0.11,0,0", "--rollouts", "20",
        ),
    ],
)
@pytest.mark.parametrize("flag", ["--safe-box=-5,5", "--target-box=-0.1,0.1"])
def test_cwh_refuses_the_boxes_it_ignores(tmp_path, capsys, argv, flag):
    out_csv = tmp_path / "out.csv"
    cwh_sample = tmp_path / "cwh.csv"
    argv = list(argv) + ["--out", str(out_csv)]
    if argv[0] == "reach":
        argv += ["--sample-file", str(cwh_sample)]
    rc, out, err = run(capsys, *argv, flag)
    assert rc == 2 and out == "" and not out_csv.exists()
    name = flag[2:].split("=")[0].replace("-", "_")
    assert err == (
        f"error: {name} is set but the cwh system uses its fixed "
        "line-of-sight cone and docking box\n"
    )


@pytest.mark.parametrize(
    "exc, line",
    [
        (
            MemoryError("Unable to allocate 477. GiB for an array"),
            "out of memory: Unable to allocate 477. GiB for an array\n",
        ),
        (MemoryError(), "out of memory\n"),
    ],
)
def test_running_out_of_memory_exits_3(
    tmp_path, capsys, monkeypatch, sample_file, exc, line
):
    # as ``--horizon 1000000000`` does, without allocating anything
    def recursion(*args):
        raise exc

    monkeypatch.setattr(cli, "value_recursion", recursion)
    out_csv = tmp_path / "v.csv"
    rc, out, err = run(
        capsys, "reach", "--sample-file", sample_file, "--point", "0,0",
        "--out", str(out_csv),
    )
    assert (rc, out, err) == (3, "", line) and not out_csv.exists()


def test_a_size_numpy_refuses_exits_3(tmp_path, capsys, sample_file):
    # numpy refuses an array whose byte count overflows before it
    # allocates anything, so both fail at once
    huge = str(10**18)
    out_csv = tmp_path / "v.csv"
    for args in (
        ("generate", "--samples", huge, "--out", str(out_csv)),
        ("reach", "--sample-file", sample_file, "--horizon", huge, "--point", "0,0"),
    ):
        rc, out, err = run(capsys, *args)
        assert rc == 3 and out == "", args
        assert err.startswith("out of memory: array is too big"), args
    assert not out_csv.exists()


def test_a_ridge_that_is_not_positive_definite_exits_3(tmp_path, capsys):
    # a repeated sample point makes the Gram matrix singular, and a ridge
    # of 256 * 1e-16 does not lift it clear of round-off at sigma = 0.5:
    # the fit stops instead of returning an inverse whose relative solve
    # residual is 0.03 on a constant right-hand side
    path = tmp_path / "s.csv"
    rc, _, _ = run(capsys, "generate", "--samples", "256", "--out", str(path))
    assert rc == 0
    sample = read_transitions_csv(path)
    rows = [np.vstack([a[:-1], a[:1]]) for a in (
        sample.states, sample.controls, sample.successors
    )]
    write_transitions_csv(path, TransitionSample(*rows))
    out_csv = tmp_path / "v.csv"
    rc, out, err = run(
        capsys, "reach", "--sample-file", str(path), "--sigma", "0.5",
        "--lambda", "1e-16", "--point", "0,0", "--out", str(out_csv),
    )
    assert (rc, out) == (3, "") and not out_csv.exists()
    assert err == (
        "numerical error: ridge system inversion failed: "
        "Matrix is not positive definite\n"
    )


def test_other_value_errors_propagate(monkeypatch, sample_file):
    def recursion(*args):
        raise ValueError("not a size")

    monkeypatch.setattr(cli, "value_recursion", recursion)
    with pytest.raises(ValueError, match="not a size"):
        main(["reach", "--sample-file", sample_file, "--point", "0,0"])


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 64\nseed = 5\n")
    path = tmp_path / "sample.csv"
    rc, _, _ = run(
        capsys,
        "generate",
        "--config", str(cfg),
        "--samples", "32",  # flag beats file
        "--out", str(path),
    )
    assert rc == 0
    sample = read_transitions_csv(path)
    assert sample.count == 32
    assert sample.metadata["seed"] == "5"  # file beats default


def test_bench_dims_flow(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    rc, out, _ = run(
        capsys,
        "bench-dims",
        "--dims", "2,3",
        "--repeats", "1",
        "--samples", "64",
        "--out", str(out_csv),
    )
    assert rc == 0
    assert "n=2 " in out and "n=3 " in out and "backend=" not in out
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "n,seconds,value"
    assert lines[1].startswith("2,") and lines[2].startswith("3,")

    rc, _, err = run(capsys, "bench-dims", "--dims", "two")
    assert rc == 2 and "dims" in err
    rc, _, err = run(capsys, "bench-dims", "--dims", "2", "--system", "cwh")
    assert rc == 2 and "integrator" in err


def test_exit_codes_by_failure_class(tmp_path, capsys, sample_file):
    # argparse problems (unknown flags, missing subcommand) exit 2
    assert run(capsys, "reach", "--bogus-flag", "1")[0] == 2
    assert run(capsys)[0] == 2

    # configuration problems exit 2 with a diagnostic on stderr
    rc, _, err = run(
        capsys, "generate", "--sigma", "0", "--out", str(tmp_path / "x.csv")
    )
    assert rc == 2 and err.startswith("error:")
    rc, _, err = run(capsys, "oracle-dp", "--horizon", "2.0", "--point", "0,0")
    assert rc == 2 and "horizon expects an integer, got '2.0'" in err

    # an empty field in a list of numbers exits 2 naming the key; it is
    # not skipped
    max_mode = ("--mode", "max", "--point", "0,0")
    for args, key in (
        (("--point", "0,,0"), "point"),
        (("--safe-box=-1,,1", "--point", "0,0"), "safe_box"),
        (("--target-box=-1,1,", "--point", "0,0"), "target_box"),
        (("--control-grid=-0.5;;0.5", *max_mode), "control_grid"),
        (("--control-grid=-0.5;0.5;", *max_mode), "control_grid"),
    ):
        rc, out, err = run(capsys, "reach", "--sample-file", sample_file, *args)
        assert rc == 2 and out == "", args
        assert err.startswith(f"error: {key}: empty field"), args
    for dims in ("2,,3", "2,3,", ""):
        rc, out, err = run(
            capsys, "bench-dims", "--dims", dims, "--samples", "8",
            "--repeats", "1",
        )
        assert rc == 2 and out == "", dims
        assert err.startswith("error: --dims: empty field"), dims

    # eta is no longer a key, as a flag or in a config file
    rc, _, _ = run(
        capsys, "reach", "--sample-file", sample_file, "--eta", "2",
        "--point", "0,0",
    )
    assert rc == 2
    cfg_file = tmp_path / "eta.cfg"
    cfg_file.write_text("eta = 2\n")
    rc, _, err = run(
        capsys, "reach", "--sample-file", sample_file, "--config",
        str(cfg_file), "--point", "0,0",
    )
    assert rc == 2 and "unknown configuration key: eta" in err

    # unreadable and malformed input files exit 4
    rc, _, err = run(
        capsys, "reach", "--sample-file", str(tmp_path / "missing.csv"),
        "--point", "0,0",
    )
    assert rc == 4 and err.startswith("file error:")
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,u1,y1\n0.0,zap,0.0\n")
    rc, _, err = run(
        capsys, "reach", "--sample-file", str(bad), "--point", "0,0"
    )
    assert rc == 4 and "bad.csv:2" in err

    # a grid-oracle shape that is not n1xn2 with at least 2 per axis
    for shape in ("201", "1x5"):
        rc, _, err = run(
            capsys, "oracle-dp", "--dp-grid", shape, "--point", "0,0"
        )
        assert rc == 2 and "dp_grid" in err

    # an integer too large for a numpy index exits 2 naming the key; it
    # is tested at 2**63 only, since smaller ones from about 2**40 on
    # reach numpy's allocator
    big = str(2**63)
    out_csv = str(tmp_path / "big.csv")
    for args, key in (
        (("generate", "--dim", big, "--out", out_csv), "dim"),
        (("generate", "--samples", big, "--out", out_csv), "samples"),
        (("reach", "--sample-file", sample_file, "--horizon", big), "horizon"),
        (
            ("reach", "--sample-file", sample_file, "--grid", big + "x2:-1,1,-1,1"),
            "grid",
        ),
        (("oracle-dp", "--point", "0,0", "--dp-quad", big), "dp_quad"),
        (("oracle-dp", "--point", "0,0", "--dp-grid", big + "x2"), "dp_grid"),
        (("bench-dims", "--dims", big, "--samples", "8"), "--dims"),
        (("oracle-mc", "--point", "0,0", "--rollouts", big), "rollouts"),
        (
            ("bench-dims", "--dims", "2", "--samples", "8", "--repeats", big),
            "--repeats",
        ),
    ):
        rc, out, err = run(capsys, *args)
        assert rc == 2 and out == "", args
        assert err.startswith(f"error: {key} must be at most"), args
        assert "Traceback" not in err

    # the oracles and bench-dims evaluate the configured policy; a
    # max-mode request or a control grid exits 2 naming the key instead of
    # being dropped
    bench = ("bench-dims", "--dims", "2", "--samples", "16", "--repeats", "1")
    for command in (("oracle-dp",), ("oracle-mc", "--rollouts", "10"), bench):
        rc, out, err = run(capsys, *command, "--point", "0,0", "--mode", "max")
        assert rc == 2 and out == "" and "mode is max" in err, command
        rc, out, err = run(
            capsys, *command, "--point", "0,0", "--control-grid=-0.5;0;0.5"
        )
        assert rc == 2 and out == "" and "control_grid" in err, command
        rc, out, err = run(
            capsys, *command, "--point", "0,0", "--mode", "max",
            "--control-grid=-0.5;0;0.5",
        )
        assert rc == 2 and out == "" and "mode is max" in err, command

    # a points file is a configuration input: a table without x columns
    # exits 2, an unreadable or malformed one exits 4
    headless = tmp_path / "headless.csv"
    headless.write_text("a,b\n0.0,0.0\n")
    mc = ("oracle-mc", "--rollouts", "10", "--points-file")
    rc, _, err = run(capsys, *mc, str(headless))
    assert rc == 2 and "x1" in err
    rc, _, err = run(capsys, *mc, str(tmp_path / "missing.csv"))
    assert rc == 4 and err.startswith("file error:")
    rc, _, err = run(capsys, *mc, str(bad))
    assert rc == 4 and "bad.csv:2" in err

    # a NaN or infinite evaluation point is a configuration problem on
    # every subcommand that evaluates points
    rc, _, err = run(
        capsys, "reach", "--sample-file", sample_file, "--point", "nan,0"
    )
    assert rc == 2 and "finite" in err
    rc, _, err = run(capsys, "oracle-dp", "--point", "nan,0")
    assert rc == 2 and "finite" in err
    infinite = tmp_path / "infinite.csv"
    infinite.write_text("x1,x2\n0.0,0.0\ninf,0.0\n")
    rc, _, err = run(capsys, *mc, str(infinite))
    assert rc == 2 and "finite" in err

    # so is a NaN or infinite number inside a string-typed key
    rc, _, err = run(
        capsys, "oracle-mc", "--rollouts", "10", "--policy", "constant:nan",
        "--point", "0,0",
    )
    assert rc == 2 and "policy" in err and "finite" in err
    assert "Traceback" not in err
    rc, _, err = run(
        capsys, "oracle-dp", "--policy", "constant:inf", "--point", "0,0"
    )
    assert rc == 2 and "policy" in err and "finite" in err
    assert "Traceback" not in err

    # a NaN or infinite value in any float field is a configuration
    # problem, also in fields the subcommand does not read
    floats = [
        f.name for f in dataclasses.fields(RunConfig)
        if f.type in (float, float | None)
    ]
    assert len(floats) == 6
    point = ("oracle-mc", "--rollouts", "10", "--point", "0,0")
    for name in floats:
        flag = "--lambda" if name == "lam" else "--" + name.replace("_", "-")
        for value in ("nan", "inf", "-inf"):
            rc, _, err = run(capsys, *point, f"{flag}={value}")
            assert rc == 2 and "finite" in err, (flag, value)
    rc, _, err = run(
        capsys, "oracle-mc", "--system", "cwh", "--policy", "lqr",
        "--point", "0,-0.5,0,0", "--sampling-time", "nan",
    )
    assert rc == 2 and "sampling_time" in err
    rc, _, err = run(capsys, *point, "--noise-sd", "0")
    assert rc == 2 and "noise_sd" in err

    # a sampling time that overflows the integrator chain's matrices is
    # named, not reported as non-finite successors
    rc, _, err = run(
        capsys, "generate", "--dim", "3", "--sampling-time", "1e200",
        "--out", str(tmp_path / "overflow.csv"),
    )
    assert rc == 2 and "sampling time 1e+200 overflows" in err

    # a negative seed is a configuration problem on every seeded
    # subcommand, not a numpy traceback
    for argv in (
        ("generate", "--out", str(tmp_path / "seed.csv")),
        ("oracle-mc", "--rollouts", "10", "--point", "0,0"),
        ("bench-dims", "--dims", "2", "--samples", "16", "--repeats", "1"),
    ):
        rc, _, err = run(capsys, *argv, "--seed=-1")
        assert rc == 2 and "seed must be non-negative" in err, argv

    # a bandwidth whose exponent scale 1/(2 sigma^2) is not a finite
    # float: 1e-200 divides by an underflowed 0, 1e-160 overflows to inf
    for sigma in ("1e-200", "1e-160"):
        rc, _, err = run(
            capsys, "reach", "--sample-file", sample_file, "--point", "0,0",
            "--sigma", sigma,
        )
        assert rc == 2 and "bandwidth" in err and "Traceback" not in err, sigma

    # a value table with a NaN cell is a malformed file for compare
    good, nan = tmp_path / "good.csv", tmp_path / "nan.csv"
    good.write_text("x1,x2,v0\n0.0,0.0,0.5\n")
    nan.write_text("x1,x2,v0\n0.0,0.0,nan\n")
    rc, out, err = run(capsys, "compare", str(good), str(nan))
    assert rc == 4 and "nan.csv" in err and "finite" in err
    assert out == ""


def _traced_peak(capsys, *argv):
    tracemalloc.start()
    try:
        rc = main(list(argv))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0, capsys.readouterr().err
    return peak


@pytest.mark.parametrize("dims, repeats", [("2,N", "1"), ("N,N", "1"), ("N", "2")])
def test_bench_dims_holds_one_dimension_at_a_time(capsys, dims, repeats):
    # 64 samples at n = 20 000: 10 MB per M x n array. Each dimension's
    # sample, fit and field go before the next dimension is drawn, and
    # each fit before the next repeat's, so more dimensions or repeats
    # add no sample-sized array to the peak of one
    n = 20_000
    bench = ("bench-dims", "--samples", "64", "--seed", "3")
    _traced_peak(capsys, *bench, "--dims", "2", "--repeats", "1")
    one = _traced_peak(capsys, *bench, "--dims", str(n), "--repeats", "1")
    more = _traced_peak(
        capsys, *bench, "--dims", dims.replace("N", str(n)), "--repeats", repeats
    )
    assert more <= one + 2**20, (more - one) / 2**20
    assert one <= 2.5 * 64 * n * 8, one / (64 * n * 8)


def test_every_config_field_has_a_flag(tmp_path):
    # one non-default value per RunConfig field; valid together but for
    # the two boxes, which the cwh system refuses, and noise_sd, which the
    # beta disturbance refuses, so those three are loaded in a second,
    # integrator configuration with Gaussian noise
    texts = {
        "system": "cwh",
        "dim": "4",
        "sampling_time": "0.5",
        "disturbance": "beta",
        "noise_sd": "0.2",
        "beta_alpha": "2.0",
        "beta_beta": "3.0",
        "beta_centered": "true",
        "sigma": "0.3",
        "lam": "0.5",
        "normalize_weights": "false",
        "horizon": "5",
        "samples": "77",
        "seed": "9",
        "policy": "lqr",
        "sample_box": "0,2",
        "grid": "5x5:0,1,0,1",
        "point": "0.1,0.2,0,0",
        "points_file": "pts.csv",
        "mode": "max",
        "control_grid": "0,0;1,1",
        "safe_box": "-2,2",
        "target_box": "-0.5,0.5",
        "rollouts": "123",
        "dp_grid": "11x13",
        "dp_quad": "7",
    }
    fields = [f.name for f in dataclasses.fields(RunConfig)]
    assert list(texts) == fields
    keys = {name: "lambda" if name == "lam" else name for name in fields}

    def load(names):
        argv = ["generate", "--out", "x.csv"]
        for name in names:
            argv.append("--" + keys[name].replace("_", "-") + "=" + texts[name])
        from_flags = _load_config(_build_parser().parse_args(argv))
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "".join(f"{keys[name]} = {texts[name]}\n" for name in names)
        )
        argv = ["generate", "--out", "x.csv", "--config", str(cfg_file)]
        from_file = _load_config(_build_parser().parse_args(argv))
        assert from_flags == from_file
        return from_flags

    second = ["noise_sd", "safe_box", "target_box"]
    cwh = load([name for name in fields if name not in second])
    integrator = load(second)
    default = RunConfig()
    for name in fields:
        cfg = integrator if name in second else cwh
        assert getattr(cfg, name) != getattr(default, name), name


@pytest.mark.parametrize("policy", ["zero", "lqr"])
@pytest.mark.parametrize("sampling_time", ["1e20", "1e300"])
def test_cwh_rejects_a_sampling_time_that_overflows(
    tmp_path, capsys, policy, sampling_time
):
    # the exponential's squaring overflows; the sampling time is named up
    # front, as for the integrator chain, and numpy does not warn
    out_csv = tmp_path / "cwh.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(
            capsys, "generate", "--system", "cwh", "--policy", policy,
            "--sampling-time", sampling_time, "--out", str(out_csv),
        )
    assert (rc, out, caught) == (2, "", []) and not out_csv.exists()
    assert err == (
        f"error: sampling time {float(sampling_time)} overflows the state "
        f"or input matrix of the CWH system\n"
    )


@pytest.mark.parametrize("policy", ["zero", "lqr"])
@pytest.mark.parametrize("sampling_time", ["1e13", "1e17", "1e18"])
def test_cwh_rejects_a_sampling_time_whose_matrix_is_wrong(
    tmp_path, capsys, policy, sampling_time
):
    # the squared-back exponential is finite but its determinant is not 1
    # (at 1e17 s, -2.7e240): the zero policy wrote a sample from it and
    # the LQR solve died on a singular matrix
    out_csv = tmp_path / "cwh.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(
            capsys, "generate", "--system", "cwh", "--policy", policy,
            "--sampling-time", sampling_time, "--out", str(out_csv),
        )
    assert (rc, out, caught) == (2, "", []) and not out_csv.exists()
    assert err.startswith(
        f"error: sampling time {float(sampling_time)} is too long for an "
        f"accurate CWH state matrix: its determinant is off 1 by "
    )


def test_cwh_end_to_end_smoke(tmp_path, capsys):
    path = tmp_path / "cwh.csv"
    rc, _, _ = run(
        capsys,
        "generate",
        "--system", "cwh",
        "--policy", "lqr",
        "--samples", "64",
        "--out", str(path),
    )
    assert rc == 0
    sample = read_transitions_csv(path)
    assert sample.state_dim == 4 and sample.control_dim == 2
    rc, out, _ = run(
        capsys,
        "reach",
        "--system", "cwh",
        "--sample-file", str(path),
        "--point", "0,-0.5,0,0",
        "--sigma", "0.2",
        "--summary",
    )
    assert rc == 0 and "v0 min=" in out
    # the grid oracle cannot handle the rendezvous cone sets
    rc, _, err = run(capsys, "oracle-dp", "--system", "cwh", "--point", "0,-0.5,0,0")
    assert rc == 2 and "grid oracle" in err


# Runs every subcommand in a fresh interpreter and prints, as its last
# line, their exit codes and the scipy submodules they left loaded.
_NO_SCIPY_CHILD = """
import json, sys
from rkhs_reach.cli import main

out = sys.argv[1]
sample, cwh = out + "/sample.csv", out + "/cwh.csv"
commands = [
    ["generate", "--samples", "16", "--out", sample],
    ["reach", "--sample-file", sample, "--point", "0,0", "--out", out + "/v.csv"],
    ["reach", "--sample-file", sample, "--point", "0,0", "--mode", "max",
     "--control-grid=0;0.5"],
    ["bench-dims", "--dims", "2,3", "--samples", "16", "--repeats", "1"],
    ["oracle-dp", "--dp-grid", "11x11", "--dp-quad", "3", "--point", "0,0",
     "--out", out + "/dp.csv"],
    ["compare", out + "/v.csv", out + "/dp.csv"],
    ["generate", "--system", "cwh", "--policy", "lqr", "--samples", "4",
     "--out", cwh],
    ["reach", "--system", "cwh", "--sample-file", cwh, "--point", "0,-0.5,0,0"],
    ["oracle-mc", "--system", "cwh", "--policy", "lqr", "--rollouts", "100",
     "--point", "0,-0.5,0,0"],
]
codes = [main(argv) for argv in commands]
loaded = [m for m in ("scipy.linalg", "scipy.special") if m in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_no_command_loads_scipy(tmp_path):
    # the package runs on numpy alone; scipy is a test-only reference
    paths = [str(pathlib.Path(rkhs_reach.__file__).parent.parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_CHILD, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result == {"codes": [0] * 9, "loaded": []}
