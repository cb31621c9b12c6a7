"""Per-layer metrics from a traced phase (``--trace 1``).

Inputs: the span files every traced process wrote (see
:mod:`tracing`), the ``GET /v1/metrics`` counters scraped before and
after the measured window, and the untraced phase of the same run for
the tracing overhead.  Spans outside the measured window (set-up
traffic) are ignored, except the boot-time ones (journal recovery,
supervisor start, cold-boot replay), which only exist in set-up.

A metric whose layer the workload never reaches reads 0 (cohort_sweep
has no HTTP layer, only classroom_ingest has a router, ...).
"""

from __future__ import annotations

import json
from collections import defaultdict

import numpy as np

import loadgen

MB = float(1 << 20)

#: name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "protocol.decode_us": "us",
    "protocol.encode_us": "us",
    "http_gateway.self_ms": "ms",
    "service.batch_ms": "ms",
    "service.self_ms": "ms",
    "service.admission_wait_ms": "ms",
    "service.queries_per_batch": "count",
    "engine.record_us": "us",
    "engine.forward_calls_per_op": "count",
    "history.assemble_us": "us",
    "forward_cache.hit_ratio": "ratio",
    "forward_cache.rebuilds": "count",
    "forward_cache.evictions": "count",
    "forward_cache.resident_mb": "MB",
    "forward_cache.build_ms": "ms",
    "forward_cache.extend_us": "us",
    "multi_target.context_ms": "ms",
    "multi_target.backward_ms": "ms",
    "multi_target.targets_per_call": "count",
    "encoders.forward_stream_ms": "ms",
    "encoders.backward_stream_ms": "ms",
    "tensor.sigmoid_array_ms": "ms",
    "tensor.sigmoid_array_mb": "MB",
    "recourse.search_ms": "ms",
    "recourse.worlds_per_forward_call": "ratio",
    "recourse.achieved_ratio": "ratio",
    "router.batch_ms": "ms",
    "router.fanout_ms": "ms",
    "router.fanout_skew": "ratio",
    "router.shard_unavailable": "count",
    "wal.append_us": "us",
    "wal.fsync_ms": "ms",
    "wal.fsyncs_per_envelope": "ratio",
    "journal.replayed_records": "count",
    "journal.recover_s": "s",
    "supervisor.healthy_s": "s",
    "bench.generator_lag_p99_ms": "ms",
    "bench.host_steal_pct": "%",
    "bench.trace_overhead_pct": "%",
    "bench.unattributed_pct": "%",
}

#: Root spans of the process that answers the client: the share of
#: client-seen time they do not cover is reported as unattributed.
ENTRY_ROLES = ("serve", "cluster", "sweep")
ENTRY_SPANS = ("http.request", "core.predict_dataset")
BOOT_SPANS = ("journal.recover", "supervisor.start",
              "supervisor.replay_all")


class Span:
    __slots__ = ("name", "start", "end", "id", "parent", "root", "child",
                 "extra", "process", "request")

    def __init__(self, row, process, request):
        (self.name, self.start, self.end, self.id, self.parent, self.root,
         self.child, self.extra) = row
        self.process = process
        self.request = request

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.end - self.start - self.child


def _port(argv):
    return int(argv[argv.index("--port") + 1]) if "--port" in argv else None


def _mean(values, scale=1.0):
    return float(np.mean(values)) * scale if len(values) else 0.0


class Trace:
    """Every traced process's spans, cut to the measured window."""

    def __init__(self, trace_dir, window):
        lo, hi = (int(t * 1e9) for t in window)
        self.spans = defaultdict(list)     # name -> measured spans
        self.boot = defaultdict(list)      # name -> boot-time spans
        self.by_id = {}
        self.leaves = defaultdict(lambda: [0, 0, 0])
        self.entry_ns = 0
        self.dropped = 0
        self.worker_ports = {}             # process index -> its port
        for index, path in enumerate(sorted(trace_dir.glob("spans-*.json"))):
            process = json.loads(path.read_text())
            self.dropped += process["dropped"]
            if process["role"] == "worker":
                self.worker_ports[index] = _port(process["argv"])
            requests = process["requests"]
            for row in process["spans"]:
                span = Span(row, index, requests.get(str(row[5])))
                self.by_id[(index, span.id)] = span
                if span.name in BOOT_SPANS:
                    self.boot[span.name].append(span)
                elif lo <= span.start <= hi:
                    self.spans[span.name].append(span)
                    if span.parent == 0 and span.name in ENTRY_SPANS \
                            and process["role"] in ENTRY_ROLES:
                        self.entry_ns += span.duration
            for name, buckets in process["leaves"].items():
                for bucket, calls, ns, nbytes in buckets:
                    if lo - 50_000_000 <= bucket <= hi:
                        entry = self.leaves[name]
                        entry[0] += calls
                        entry[1] += ns
                        entry[2] += nbytes

    def parent(self, span):
        return self.by_id.get((span.process, span.parent))

    def outer(self, name):
        """Spans of ``name`` not nested in another ``name`` span (a batch
        decode, or ``scores_for`` delegating to ``influences_for``)."""
        return [s for s in self.spans[name]
                if getattr(self.parent(s), "name", None) != name]

    def durations(self, name):
        return [s.duration for s in self.outer(name)]

    def self_times(self, name):
        return [s.self_time for s in self.spans[name]]

    def under(self, span, ancestor):
        span = self.parent(span)
        while span is not None:
            if span.name == ancestor:
                return True
            span = self.parent(span)
        return False

    def fanouts(self):
        """Shard round trips of each routed envelope, by request ID
        (they run on the router's pool threads, so the ID is the link)."""
        groups = defaultdict(list)
        for span in self.spans["router.fanout"]:
            if span.request is not None:
                groups[(span.process, span.request)].append(span)
        return groups

    def worker_requests(self):
        """(request ID, worker port) -> the worker's request span."""
        found = {}
        for span in self.spans["http.request"]:
            port = self.worker_ports.get(span.process)
            if port is not None and span.request is not None:
                found[(span.request, port)] = span
        return found


def per_layer(traced, plain, log):
    trace = Trace(traced.trace_dir, traced.window)
    if trace.dropped:
        log(f"  trace: {trace.dropped} spans dropped past the per-process "
            f"cap")
    spans = trace.spans
    ops = max(traced.attempted, 1)
    before = traced.metrics.get("before", {})
    after = traced.metrics.get("after", {})

    def counter(name):
        return loadgen.delta(after, before, name)

    hits = counter("stream_cache_hits_total")
    misses = counter("stream_cache_misses_total")
    fsync_count, fsync_sum = loadgen.histogram_delta(after, before,
                                                     "wal_fsync_seconds")
    searches = spans["recourse.search"]
    worlds = sum(s.extra[0] for s in searches)
    achieved = sum(s.extra[1] for s in searches)
    search_forwards = sum(1 for s in spans["encoders.forward_stream"]
                          if trace.under(s, "recourse.search"))
    fanouts = trace.fanouts()
    skews = [max(s.duration for s in group) / min(s.duration
                                                   for s in group)
             for group in fanouts.values() if len(group) > 1]
    batches = spans["service.execute_batch"]
    _, sigmoid_ns, sigmoid_bytes = trace.leaves["tensor.sigmoid_array"]
    lock_wait_ns = trace.leaves["engine.lock_wait"][1]
    plain_p50 = loadgen.latency_stats(plain.samples)["latency_p50_ms"]
    traced_p50 = loadgen.latency_stats(traced.samples)["latency_p50_ms"]
    values = {
        "protocol.decode_us": _mean(trace.durations("protocol.decode"),
                                    1e-3),
        "protocol.encode_us": _mean(trace.durations("protocol.encode"),
                                    1e-3),
        "http_gateway.self_ms": _mean(trace.self_times("http.request"),
                                      1e-6),
        "service.batch_ms": _mean(trace.durations("service.execute_batch"),
                                  1e-6),
        "service.self_ms": _mean(trace.self_times("service.execute_batch"),
                                 1e-6),
        "service.admission_wait_ms":
            lock_wait_ns / len(batches) * 1e-6 if batches else 0.0,
        "service.queries_per_batch": _mean([s.extra for s in batches]),
        "engine.record_us": _mean(trace.durations("engine.record"), 1e-3),
        "engine.forward_calls_per_op":
            counter("engine_forward_calls_total") / ops,
        "history.assemble_us": _mean(trace.self_times("history.assemble"),
                                     1e-3),
        "forward_cache.hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "forward_cache.rebuilds": counter("stream_cache_rebuilds_total"),
        "forward_cache.evictions": counter("stream_cache_evictions_total"),
        "forward_cache.resident_mb":
            after.get("stream_cache_resident_bytes", 0.0) / MB,
        "forward_cache.build_ms":
            _mean(trace.durations("forward_cache.build"), 1e-6),
        "forward_cache.extend_us":
            _mean(trace.durations("forward_cache.extend"), 1e-3),
        "multi_target.context_ms":
            _mean(trace.durations("multi_target.context"), 1e-6),
        "multi_target.backward_ms":
            _mean(trace.durations("multi_target.backward"), 1e-6),
        "multi_target.targets_per_call":
            _mean([s.extra for s in trace.outer("multi_target.backward")]),
        "encoders.forward_stream_ms":
            _mean(trace.durations("encoders.forward_stream"), 1e-6),
        "encoders.backward_stream_ms":
            _mean(trace.durations("encoders.backward_stream"), 1e-6),
        "tensor.sigmoid_array_ms": sigmoid_ns / ops * 1e-6,
        "tensor.sigmoid_array_mb": sigmoid_bytes / ops / MB,
        "recourse.search_ms": _mean(trace.durations("recourse.search"),
                                    1e-6),
        "recourse.worlds_per_forward_call":
            worlds / max(search_forwards, 1) if searches else 0.0,
        "recourse.achieved_ratio":
            achieved / len(searches) if searches else 0.0,
        "router.batch_ms": _mean(trace.durations("router.execute_batch"),
                                 1e-6),
        "router.fanout_ms": _mean([s.duration for group in fanouts.values()
                                   for s in group], 1e-6),
        "router.fanout_skew": _mean(skews),
        "router.shard_unavailable":
            counter("router_shard_unavailable_total"),
        "wal.append_us": _mean(trace.durations("wal.append"), 1e-3),
        "wal.fsync_ms": fsync_sum / fsync_count * 1e3 if fsync_count
        else 0.0,
        "wal.fsyncs_per_envelope": fsync_count / ops,
        "journal.replayed_records":
            sum(s.extra or 0 for s in trace.boot["supervisor.replay_all"]),
        "journal.recover_s":
            sum(s.duration for s in trace.boot["journal.recover"]) * 1e-9,
        "supervisor.healthy_s":
            sum(s.duration for s in trace.boot["supervisor.start"]) * 1e-9,
        "bench.generator_lag_p99_ms": max(plain.lag_p99_ms,
                                          traced.lag_p99_ms),
        "bench.host_steal_pct": max(plain.steal_pct, traced.steal_pct),
        "bench.trace_overhead_pct":
            100.0 * (traced_p50 - plain_p50) / plain_p50,
        "bench.unattributed_pct":
            100.0 * (traced.client_busy_s - trace.entry_ns * 1e-9)
            / traced.client_busy_s if traced.client_busy_s else 0.0,
    }
    _log_breakdown(trace, traced.client_busy_s, log)
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER.items()}


def _log_breakdown(trace, client_busy_s, log):
    """Self time per wrapped boundary as a share of client-seen time.

    A shard round trip's self time excludes the worker's own request
    span for it (matched by request ID and port), and the router's batch
    excludes the round trips it waited for on its pool, so a routed
    request is not counted twice; the two shards still overlap each
    other, so routed shares may sum past 100%.
    """
    if not client_busy_s:
        return
    totals = defaultdict(float)
    calls = defaultdict(int)
    workers = trace.worker_requests()
    waited = defaultdict(int)
    for (process, request), group in trace.fanouts().items():
        pooled = [s for s in group if trace.parent(s) is None]
        if pooled:
            waited[(process, request)] = max(s.duration for s in pooled)
    for name, group in trace.spans.items():
        for span in group:
            own = span.self_time
            if name == "router.fanout":
                worker = workers.get((span.request, span.extra))
                own -= worker.duration if worker is not None else 0
            elif name == "router.execute_batch":
                own -= waited.get((span.process, span.request), 0)
            totals[name] += own * 1e-9
            calls[name] += 1
    for name, (count, ns, _) in trace.leaves.items():
        if count:
            totals[name] += ns * 1e-9
            calls[name] += count
    log("  self time by boundary (share of client-seen time):")
    for name in sorted(totals, key=totals.get, reverse=True):
        log(f"    {name:28s} {100 * totals[name] / client_busy_s:6.1f}%  "
            f"({calls[name]} calls)")
