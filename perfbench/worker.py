"""One benchmark process: set up, run the cold operation, then time.

Started by ``run.py`` with a JSON spec as its only argument; prints one
JSON result line. A ``setup`` process stops after the cold operation; a
``measure`` process goes on to run warm operations one at a time (a
closed loop with one client) until the time budget is spent.

With tracing on, the measure process alternates untraced and traced
operations, so the same process reports both timings and the tracing
overhead shows.
"""

import contextlib
import ctypes
import dataclasses
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy
import scipy

import tracing
from workloads import FULL, TINY, WORKLOADS, Run

# the heavy workloads take ~9 s per operation; fewer than three would
# leave the median at the mercy of one noisy reading
MIN_SAMPLES = 3


class OperationError(Exception):
    pass


def invoke(cli, argv):
    """Run one CLI command in process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OperationError(
            f"{argv[0]} exited with {code}: {err.getvalue().strip()}"
        )
    return out.getvalue()


def blas_threads():
    """Thread count of each OpenBLAS library loaded in this process."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = {line.split()[-1] for line in handle if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def git_commit(root):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(root, seed):
    import rkhs_reach

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "backend": rkhs_reach.active_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(root),
        "seed": seed,
    }


def median_layers(per_op):
    return {
        metric: statistics.median(totals[metric] for totals in per_op)
        for metric in tracing.LAYER_METRICS
    }


def main():
    spec = json.loads(sys.argv[1])
    root = spec["root"]
    sys.path.insert(0, os.path.join(root, "src"))
    import rkhs_reach.cli as cli

    workload = WORKLOADS[spec["workload"]]
    run = Run(spec["work"], spec["seed"], TINY if spec["tiny"] else FULL, spec["reference"])
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    attempted = failed = 0
    problems = []

    def operation(op, traced):
        nonlocal attempted
        attempted += 1
        if tracer is not None:
            tracer.begin_op(op, traced)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            for argv in workload.operation(run):
                invoke(cli, argv)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.enabled = False
        return seconds, cpu, error

    def check(error):
        nonlocal failed
        found = [error]
        if not error:
            try:
                found = workload.check(run)
            except Exception as exc:  # unreadable output fails the operation
                found = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if found:
            failed += 1
            problems.extend(found)

    workload.prepare(run, lambda argv: invoke(cli, argv))
    cold_s, _, error = operation(0, traced=True)
    setup_s = time.time() - spec["t_spawn"]
    workload.baseline(run, lambda argv: invoke(cli, argv))
    check(error)
    result = {"role": spec["role"], "setup_s": setup_s, "cold_s": cold_s}

    if spec["role"] == "measure":
        samples, cpus, traced_samples, traced_ops = [], [], [], []
        start = time.perf_counter()
        op = 1
        while time.perf_counter() - start < spec["seconds"] or op <= MIN_SAMPLES:
            traced = tracer is not None and op % 2 == 0
            seconds, cpu, error = operation(op, traced)
            check(error)
            if traced:
                traced_samples.append(seconds)
                traced_ops.append(op)
            else:
                samples.append(seconds)
                cpus.append(cpu)
            op += 1
        result.update(
            samples=samples,
            cpu_s=cpus,
            quality={} if problems else workload.quality(run),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            env=environment(root, spec["seed"]),
        )
        if tracer is not None:
            by_op = {}
            for span in tracer.spans:
                by_op.setdefault(span.op, []).append(span)
            totals = {
                op: tracing.layer_totals(by_op.get(op, []), tracer.peak_weight_bytes[op])
                for op in [0] + traced_ops
            }
            result.update(
                traced_samples=traced_samples,
                layers=median_layers([totals[op] for op in traced_ops]),
                cold_layers=totals[0],
            )
            with open(os.path.join(spec["work"], "spans.json"), "w", encoding="utf-8") as handle:
                json.dump([dataclasses.asdict(s) for s in tracer.spans], handle)

    result.update(attempted=attempted, failed=failed, problems=problems[:20])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
