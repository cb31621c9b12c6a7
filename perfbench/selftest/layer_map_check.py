"""Layer-map self-test: a slowed layer moves the metric the map predicts.

The README's layer map says ``serve.engine`` (``InferenceEngine.record``)
moves ``throughput_ops_s`` on ``classroom_ingest`` and stays flat on
``cohort_sweep``.  This test runs both workloads' operations in process
(the same envelopes and the same sweep as the benchmark, minus
transport), once as shipped and once with a fixed delay added to every
``InferenceEngine.record`` call, alternating the two arms.  Through the
benchmark's own gate (median worse by more than the metric's bound in
``BENCHMARK.json``) the slowed run must fail on ``classroom_ingest``
and pass on ``cohort_sweep``.  A traced run then shows the delay land in
the layer's own per-layer metric, ``engine.record_us``.

Run from the root of a checkout (not collected by the tier-1 suite)::

    python3 -m pytest -q perfbench/selftest/layer_map_check.py
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import fixture  # noqa: E402
import workloads  # noqa: E402

#: Added to every InferenceEngine.record call in the slowed arm.
RECORD_DELAY_S = 0.0003
PAIRS = 3
INGEST_SECONDS = 1.5


def _bound(name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(m for m in spec["end_to_end"] if m["name"] == name)


def regressed(parent, child, metric):
    """The gate: the child's median is worse than the parent's by more
    than the metric's bound (a share of the parent's median)."""
    before, after = statistics.median(parent), statistics.median(child)
    print(f"{metric['name']}: shipped {before:.1f}, slowed {after:.1f} "
          f"({after / before - 1:+.1%}; bound {metric['bound']:.0%})")
    if metric["better"] == "higher":
        return after < before * (1.0 - metric["bound"])
    return after > before * (1.0 + metric["bound"])


class _Ingest:
    """classroom_ingest's envelopes against an in-process Service."""

    def __init__(self):
        from repro.serve import Service
        self.fix = fixture.fixture("dkt", print)
        self.service = Service.from_checkpoint(
            self.fix.checkpoint,
            stream_cache_bytes=workloads.INGEST_CACHE_BYTES)
        self.service.execute_batch(fixture.history_records(self.fix.students))
        self.service.execute_batch(fixture.probe_queries(self.fix.students))
        self.stream = workloads.IngestStream(self.fix.students,
                                             np.random.default_rng(0))

    def throughput(self):
        done, started = 0, time.perf_counter()
        while time.perf_counter() - started < INGEST_SECONDS:
            self.service.execute_batch(self.stream.next())
            done += 1
        return done / (time.perf_counter() - started)


class _Sweep:
    """cohort_sweep's predict_dataset over the whole corpus."""

    def __init__(self):
        from repro.serve import Service
        fix = fixture.fixture("akt", print)
        self.model = Service.from_checkpoint(fix.checkpoint).engine().model
        self.corpus = fixture.load_corpus()

    def throughput(self):
        started = time.perf_counter()
        _, scores = self.model.predict_dataset(self.corpus, stride=1)
        return len(scores) / (time.perf_counter() - started)


def _delayed(record):
    def slow(self, *args, **kwargs):
        time.sleep(RECORD_DELAY_S)
        return record(self, *args, **kwargs)
    return slow


def _paired(run):
    """``run()`` alternately as shipped and with record() slowed."""
    from repro.serve import InferenceEngine
    record = InferenceEngine.record
    shipped, slowed = [], []
    try:
        for pair in range(PAIRS):
            for arm in ((shipped, slowed) if pair % 2 == 0
                        else (slowed, shipped)):
                InferenceEngine.record = record if arm is shipped \
                    else _delayed(record)
                arm.append(run())
    finally:
        InferenceEngine.record = record
    return shipped, slowed


def test_slowed_record_fails_the_gate_on_classroom_ingest():
    shipped, slowed = _paired(_Ingest().throughput)
    assert regressed(shipped, slowed, _bound("throughput_ops_s")), \
        (shipped, slowed)


def test_slowed_record_stays_inside_the_bound_on_cohort_sweep():
    shipped, slowed = _paired(_Sweep().throughput)
    assert not regressed(shipped, slowed, _bound("throughput_ops_s")), \
        (shipped, slowed)


def test_traced_record_layer_carries_the_delay():
    """The per-layer metric of the slowed layer reads the added delay."""
    import tracing
    from repro.serve import InferenceEngine
    recorder = tracing.Recorder()
    tracing.install(recorder)
    ingest = _Ingest()

    def record_mean_us():
        recorder.spans.clear()
        ingest.throughput()
        spans = [s for s in recorder.spans if s[0] == "engine.record"]
        return statistics.mean(s[2] - s[1] for s in spans) / 1e3

    traced_record = InferenceEngine.record
    shipped = record_mean_us()
    InferenceEngine.record = recorder.span(
        "engine.record", _delayed(traced_record.__wrapped__))
    try:
        slowed = record_mean_us()
    finally:
        InferenceEngine.record = traced_record
    assert slowed - shipped >= RECORD_DELAY_S * 1e6 * 0.9, (shipped, slowed)


if __name__ == "__main__":
    import pytest
    sys.exit(pytest.main([__file__, "-q"]))
