"""In-memory span tracing around the package's public functions.

The tracer patches the package from outside: each wrapped callable
records a span (name, start, end, parent span, operation id) plus
counters derived from its arguments and result. Spans stay in a list
until the benchmark writes them out at the end of a run.

Counters whose value follows from array shapes (entries, flops, node
evaluations) are computed, not measured.
"""

import functools
import os
import sys
import time
import weakref
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    parent: int | None
    op: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Span recorder for one single-threaded benchmark process."""

    def __init__(self):
        self.enabled = False
        self.op = 0
        self.spans = []
        self._stack = []
        # bytes of weight matrices currently alive, and the peak per op
        self.live_weight_bytes = 0
        self.peak_weight_bytes = {}

    def begin_op(self, op, enabled):
        self.op = op
        self.enabled = enabled
        self.peak_weight_bytes[op] = self.live_weight_bytes

    def open(self, name):
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def track_weights(self, w):
        nbytes = w.nbytes
        self.live_weight_bytes += nbytes
        peak = self.peak_weight_bytes.get(self.op, 0)
        self.peak_weight_bytes[self.op] = max(peak, self.live_weight_bytes)
        weakref.finalize(w, self._release_weights, nbytes)

    def _release_weights(self, nbytes):
        self.live_weight_bytes -= nbytes


def _wrap(tracer, name, fn, count=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        span = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if count is not None:
            span.counts.update(count(tracer, args, out))
        return out

    return traced


def _chain_counts(tracer, args, out):
    coeffs, x = args[0], args[1]
    rows, n = x.shape
    band = min(len(coeffs), n)
    # one multiply and one add per retained diagonal entry
    entries = band * n - band * (band - 1) // 2
    return {"band": band, "flops": 2 * rows * entries}


def _cross_counts(tracer, args, out):
    return {"entries": int(out.size)}


def _weights_counts(tracer, args, out):
    tracer.track_weights(out)
    return {"cols": int(out.shape[1])}


def _dp_backup_counts(tracer, args, out):
    means, glx = args[4], args[5]
    return {"node_evals": int(means.shape[0]) * len(glx) ** 2}


def _mc_counts(tracer, args, out):
    problem, x0s, rollouts = args[2], args[4], args[5]
    return {"state_updates": len(x0s) * int(rollouts) * problem.horizon}


def _written_bytes(tracer, args, out):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, counter); every reference to the same
# function object inside the package is replaced, so names imported with
# ``from x import y`` are covered too. Three of these are the hot kernels
# the backend module implements: rbf_cross (under RBFKernel.cross),
# chain_apply and dp_backup.
_FUNCTIONS = [
    ("rkhs_reach.cli", "main", "cli", None),
    ("rkhs_reach.systems", "generate_transitions", "systems.generate", None),
    ("rkhs_reach._backend", "chain_apply", "systems.chain_apply", _chain_counts),
    ("rkhs_reach.embedding", "cho_factor", "embedding.factor", None),
    ("rkhs_reach.embedding", "cho_solve", "embedding.solve", None),
    ("rkhs_reach.reach", "value_recursion", "reach.recursion", None),
    ("rkhs_reach.reach", "value_recursion_max", "reach.recursion", None),
    ("rkhs_reach.oracle", "dp_reach", "oracle.dp", None),
    ("rkhs_reach._backend", "dp_backup", "oracle.dp_backup", _dp_backup_counts),
    ("rkhs_reach.oracle", "mc_reach", "oracle.mc", _mc_counts),
    ("rkhs_reach.io", "read_transitions_csv", "io.read", None),
    ("rkhs_reach.io", "read_values_csv", "io.read", None),
    ("rkhs_reach.io", "read_value_table", "io.read", None),
    ("rkhs_reach.io", "write_transitions_csv", "io.write", _written_bytes),
    ("rkhs_reach.io", "write_values_csv", "io.write", _written_bytes),
    ("rkhs_reach.io", "write_mc_csv", "io.write", _written_bytes),
    ("rkhs_reach.io", "write_table", "io.write", _written_bytes),
]

# (module, class, method, span name, counter)
_METHODS = [
    ("rkhs_reach.embedding", "Embedding", "__init__", "embedding.fit", None),
    ("rkhs_reach.embedding", "Embedding", "weights", "embedding.weights", _weights_counts),
    ("rkhs_reach.kernels", "RBFKernel", "cross", "kernels.cross", _cross_counts),
    ("rkhs_reach.kernels", "RBFKernel", "gram", "kernels.gram", None),
]


def install(tracer):
    """Patch the imported package so calls record spans on ``tracer``.

    ``rkhs_reach.cli`` must already be imported.
    """
    modules = [
        m for name, m in sys.modules.items()
        if name == "rkhs_reach" or name.startswith("rkhs_reach.")
    ]
    for mod_name, attr, span_name, count in _FUNCTIONS:
        original = getattr(sys.modules[mod_name], attr)
        traced = _wrap(tracer, span_name, original, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
    for mod_name, cls_name, attr, span_name, count in _METHODS:
        cls = getattr(sys.modules[mod_name], cls_name)
        setattr(cls, attr, _wrap(tracer, span_name, getattr(cls, attr), count))


def self_times(spans):
    """Map span id to its duration minus the time its children cover.

    Children are clipped to their parent's interval and their union is
    taken, so overlapping or out-of-bounds children are never counted
    twice.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.span_id, [])):
            start = max(start, cursor)
            end = min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.span_id] = (s.end - s.start) - covered
    return out


# layer metric -> span name whose total duration it reports
_DURATIONS = {
    "embedding.fit_s": "embedding.fit",
    "embedding.factor_s": "embedding.factor",
    "embedding.solve_s": "embedding.solve",
    "embedding.weights_s": "embedding.weights",
    "kernels.gram_s": "kernels.gram",
    "reach.recursion_s": "reach.recursion",
    "oracle.dp_s": "oracle.dp",
    "oracle.dp_backup_s": "oracle.dp_backup",
    "oracle.mc_s": "oracle.mc",
    "systems.generate_s": "systems.generate",
    "systems.chain_apply_s": "systems.chain_apply",
    "io.read_s": "io.read",
    "io.write_s": "io.write",
}

# layer metric -> span name whose self time it reports
_SELF = {
    "embedding.normalise_s": "embedding.weights",
    "reach.steps_s": "reach.recursion",
    "cli.self_s": "cli",
}

# layer metric -> (span name, counter key, reduction)
_COUNTS = {
    "embedding.weight_cols": ("embedding.weights", "cols", sum),
    "kernels.cross_entries": ("kernels.cross", "entries", sum),
    "oracle.dp_node_evals": ("oracle.dp_backup", "node_evals", sum),
    "oracle.mc_state_updates": ("oracle.mc", "state_updates", sum),
    "systems.chain_band": ("systems.chain_apply", "band", max),
    "systems.chain_flops": ("systems.chain_apply", "flops", sum),
    "io.bytes_written": ("io.write", "bytes", sum),
}

LAYER_METRICS = (
    sorted(_DURATIONS) + sorted(_SELF) + sorted(_COUNTS)
    + ["kernels.cross_s", "oracle.dp_backup_calls", "embedding.weight_bytes_max"]
)


def layer_totals(spans, peak_weight_bytes=0):
    """Per-layer times and counts over the spans of one operation.

    ``kernels.cross_s`` and ``kernels.cross_entries`` cover the query
    cross-kernels only: a cross call made inside ``RBFKernel.gram`` is
    part of ``kernels.gram_s``. A layer that did not run reads 0.
    """
    by_id = {s.span_id: s for s in spans}
    selfs = self_times(spans)
    out = {}
    for metric, name in _DURATIONS.items():
        out[metric] = sum(s.end - s.start for s in spans if s.name == name)
    for metric, name in _SELF.items():
        out[metric] = sum(selfs[s.span_id] for s in spans if s.name == name)
    query_cross = [
        s for s in spans
        if s.name == "kernels.cross"
        and (s.parent is None or by_id[s.parent].name != "kernels.gram")
    ]
    out["kernels.cross_s"] = sum(s.end - s.start for s in query_cross)
    for metric, (name, key, reduce) in _COUNTS.items():
        pool = query_cross if name == "kernels.cross" else [
            s for s in spans if s.name == name
        ]
        out[metric] = reduce([s.counts.get(key, 0) for s in pool] or [0])
    out["oracle.dp_backup_calls"] = sum(
        1 for s in spans if s.name == "oracle.dp_backup"
    )
    out["embedding.weight_bytes_max"] = peak_weight_bytes
    return out
