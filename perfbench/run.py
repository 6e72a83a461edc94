"""Benchmark of the rkhs-reach pipeline, end to end and by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reach-fixed --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --make-reference

Workloads: reach-fixed, reach-max, oracle, highdim (see workloads.py for
why each exists). Each drives the public CLI in process, one operation at
a time, in fresh worker processes with BLAS limited to the usable cores.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (fresh process
until ready: import, inputs and the cold first operation; median over
the workload's set-up processes), ``solve_s`` (median warm operation) and
``peak_rss_mb``. ``--trace 1`` reports the per-layer metrics from spans
recorded around the package's public functions. Every operation's output
is checked; the last stdout line is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record, environment
included, goes to ``.perfbench-out/<workload>-seed<n>-trace<t>/result.json``.

``--make-reference`` regenerates ``perfbench/data/dp_reference.csv``, the
grid-oracle table that the oracle check and ``interior_max_err`` use.
``--tiny`` runs every path at toy sizes, for the smoke test.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import FULL, TINY, WORKLOADS, reference_command

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE = os.path.join(BENCH_DIR, "data", "dp_reference.csv")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
# every run must end within 180 s; workers share what is left of this
RUN_BUDGET_S = 170.0


def worker_env():
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def make_reference(sizes, out):
    env = worker_env()
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    subprocess.run(
        [sys.executable, "-m", "rkhs_reach.cli", *reference_command(sizes, out)],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=RUN_BUDGET_S,
    )


def run_worker(spec, timeout):
    spec = dict(spec, t_spawn=time.time())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"), json.dumps(spec)],
            env=worker_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"{spec['role']} process timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"{spec['role']} process exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(lines[-1]), None


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setups, measure):
    samples = measure["samples"]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    setup = [r["setup_s"] for r in setups]
    report = {
        "setup_s": metric(statistics.median(setup), "s"),
        "solve_s": metric(statistics.median(samples), "s"),
        "peak_rss_mb": metric(measure["peak_rss_mb"], "MB"),
    }
    lines = [
        f"setup_s      {report['setup_s']['value']:.4f} s   (median of "
        f"{len(setup)} fresh processes: {', '.join(f'{s:.3f}' for s in setup)})",
        f"solve_s      {report['solve_s']['value']:.4f} s   (median of "
        f"{len(samples)} warm operations; q1 {q1:.4f}, q3 {q3:.4f})",
        f"peak_rss_mb  {report['peak_rss_mb']['value']:.1f} MB",
    ]
    return report, lines


def per_layer(measure):
    untraced = statistics.median(measure["samples"])
    traced = statistics.median(measure["traced_samples"])
    cpu = statistics.median(measure["cpu_s"])
    threads = measure["env"]["blas_threads"]
    values = dict(measure["layers"])
    values.update({
        "embedding.fit_cold_s": measure["cold_layers"]["embedding.fit_s"],
        "embedding.factor_cold_s": measure["cold_layers"]["embedding.factor_s"],
        "proc.cpu_s": cpu,
        "proc.blas_threads": max(threads.values()) if threads else 0,
        "trace.traced_solve_s": traced,
        "trace.untraced_solve_s": untraced,
        "trace.overhead_s": traced - untraced,
    })
    report = {name: metric(value, unit_of(name)) for name, value in sorted(values.items())}
    lines = [
        f"{name:28s} {m['value']:.6g} {m['unit']}" for name, m in report.items()
    ]
    return report, lines


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes_max") or name.endswith("bytes_written"):
        return "bytes"
    if name == "proc.blas_threads":
        return "threads"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="toy sizes for the smoke test")
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rkhs_reach", "cli.py")):
        print(f"error: no rkhs_reach sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.make_reference:
        os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
        make_reference(FULL, REFERENCE)
        print(f"wrote {os.path.relpath(REFERENCE, ROOT)}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    work = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    reference = REFERENCE
    if args.tiny:
        reference = os.path.join(work, "reference.csv")
        make_reference(TINY, reference)
    elif not os.path.isfile(reference):
        print(f"error: missing {reference}; run with --make-reference", file=sys.stderr)
        return 2

    spec = {
        "root": ROOT, "work": work, "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "reference": reference,
    }
    # the traced run reports layers, not set-up time, so it sets up once
    n_proc = 1 if args.trace else workload.setups
    results, errors = [], []
    for i in range(n_proc):
        role = "measure" if i == n_proc - 1 else "setup"
        timeout = RUN_BUDGET_S - (time.perf_counter() - started)
        result, error = run_worker(dict(spec, role=role), timeout)
        if error:
            errors.append(error)
        else:
            results.append(result)
    measure = results[-1] if results and results[-1]["role"] == "measure" else None
    if measure is None:
        print("error: the measuring process produced no result", file=sys.stderr)
        for error in errors:
            print(error, file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results) + len(errors)
    failed = sum(r["failed"] for r in results) + len(errors)
    problems = errors + [p for r in results for p in r["problems"]]
    if args.trace:
        metrics, lines = per_layer(measure)
    else:
        metrics, lines = end_to_end(results, measure)
    for name, value in measure["quality"].items():
        lines.append(f"{name} {value:.6f}   (reported, not gated)")
    lines.append(f"failed_frac  {failed}/{attempted} = {failed / attempted:.3g}")
    lines.append("checks: " + ("all passed" if not problems else "; ".join(problems[:5])))

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "env": measure["env"],
        "metrics": metrics, "quality": measure["quality"],
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "problems": problems, "processes": results,
    }
    result_file = os.path.join(work, "result.json")
    with open(result_file, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    env = measure["env"]
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}; "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']} threads {env['blas_threads']}, backend {env['backend']}, "
          f"nproc {env['nproc']}, {env['cpu_model']}, commit {env['git_commit']}")
    for line in lines:
        print(line)
    print(f"record: {os.path.relpath(result_file, ROOT)}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
