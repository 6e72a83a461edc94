"""Self-time and per-layer arithmetic on synthetic spans."""

import numpy as np
import pytest

import tracing
from tracing import Span


def span(span_id, name, start, end, parent=None, **counts):
    return Span(span_id, name, start, parent, op=1, end=end, counts=counts)


def test_self_time_subtracts_union_of_children():
    spans = [
        span(0, "cli", 0.0, 10.0),
        span(1, "reach.recursion", 1.0, 4.0, parent=0),
        span(2, "embedding.weights", 2.0, 3.0, parent=1),
        span(3, "io.write", 5.0, 9.0, parent=0),
        # overlaps its sibling and runs past the parent's end: only the
        # uncovered part inside the parent counts
        span(4, "io.read", 8.0, 10.5, parent=0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 5.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(2.5)


def test_layer_totals():
    spans = [
        span(0, "cli", 0.0, 10.0),
        span(1, "embedding.fit", 0.5, 2.0, parent=0),
        span(2, "kernels.gram", 0.5, 1.0, parent=1),
        span(3, "kernels.cross", 0.6, 0.9, parent=2, entries=100),
        span(4, "embedding.factor", 1.0, 2.0, parent=1),
        span(5, "reach.recursion", 2.0, 8.0, parent=0),
        span(6, "embedding.weights", 2.0, 5.0, parent=5, cols=7),
        span(7, "kernels.cross", 2.0, 3.0, parent=6, entries=70),
        span(8, "embedding.solve", 3.0, 4.5, parent=6),
        span(9, "embedding.weights", 5.0, 7.0, parent=5, cols=3),
        span(10, "kernels.cross", 5.0, 5.5, parent=9, entries=30),
        span(11, "embedding.solve", 5.5, 6.0, parent=9),
    ]
    out = tracing.layer_totals(spans, peak_weight_bytes=80)
    assert set(out) == set(tracing.LAYER_METRICS)
    assert out["embedding.fit_s"] == pytest.approx(1.5)
    assert out["kernels.gram_s"] == pytest.approx(0.5)
    # the cross call inside the Gram matrix belongs to kernels.gram_s
    assert out["kernels.cross_s"] == pytest.approx(1.5)
    assert out["kernels.cross_entries"] == 100
    assert out["embedding.solve_s"] == pytest.approx(2.0)
    assert out["embedding.weights_s"] == pytest.approx(5.0)
    assert out["embedding.normalise_s"] == pytest.approx(5.0 - 1.5 - 2.0)
    assert out["embedding.weight_cols"] == 10
    assert out["embedding.weight_bytes_max"] == 80
    assert out["reach.steps_s"] == pytest.approx(1.0)
    assert out["cli.self_s"] == pytest.approx(10.0 - 1.5 - 6.0)
    assert out["oracle.dp_s"] == 0.0
    assert out["oracle.dp_backup_calls"] == 0


def test_live_weight_bytes_peak():
    tracer = tracing.Tracer()
    tracer.begin_op(1, enabled=True)
    a = np.zeros((4, 8))
    tracer.track_weights(a)
    b = np.zeros((4, 8))
    tracer.track_weights(b)
    del a, b
    tracer.begin_op(2, enabled=True)
    c = np.zeros((4, 8))
    tracer.track_weights(c)
    assert tracer.peak_weight_bytes == {1: 512, 2: 256}
