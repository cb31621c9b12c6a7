"""Span recording around the program's layer boundaries.

Nothing here edits the program: :func:`install` replaces public entry
points of each layer with timing wrappers, in the process that calls it
(the launcher does so in every server process of a traced run, before
it hands over to the stock CLI ``main``).  Spans stay in memory and are
written to one JSON file per process at exit.

A span is ``(name, start_ns, end_ns, span_id, parent_id, root_id,
child_ns, extra)``: ``child_ns`` is the time its direct wrapped children
covered (measured online, so a layer's *self time* is ``end - start -
child_ns``), ``extra`` a per-call count such as the queries in a batch (a
``[worlds, achieved]`` pair for recourse searches).
The request ID of a span is its root's, listed under ``"requests"``: the
envelope ``request_id`` the gateway mints (and the router propagates to
its workers) when the request carries one, else ``None``.

Kernel calls too hot for one span each (``sigmoid_array``), and waits
for the engine lock, are *leaf counters*: call count, time and computed
bytes per name and 50 ms bucket, still charged to the enclosing span's
``child_ns``.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

#: Stop appending spans past this many per process (memory bound); leaf
#: counters and child-time accounting keep going.
MAX_SPANS = 1_500_000
#: Leaf counters are kept per time bucket so analysis can cut them to
#: the measured window.
LEAF_BUCKET_NS = 50_000_000


class Recorder:
    def __init__(self):
        self.spans = []
        self.requests = {}            # root span id -> request id
        self.dropped = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._leaf_tables = []
        self._tables_lock = threading.Lock()

    # -- per-thread state ------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _leaves(self):
        table = getattr(self._local, "leaves", None)
        if table is None:
            table = self._local.leaves = {}
            with self._tables_lock:
                self._leaf_tables.append(table)
        return table

    # -- recording ---------------------------------------------------------
    def span(self, name, fn, extra=None, request_id=None):
        """``fn`` wrapped in a span.  ``extra(args, kwargs, result)``
        gives the span's count; ``request_id(args, kwargs)`` a request
        ID to attach to the enclosing root span."""
        recorder = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            span_id = next(recorder._ids)
            # frame: [span_id, parent_id, root_id, child_ns]
            frame = [span_id, parent[0] if parent else 0,
                     parent[2] if parent else span_id, 0]
            if request_id is not None:
                rid = request_id(args, kwargs)
                if rid is not None:
                    recorder.requests.setdefault(frame[2], rid)
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[3] += end - start
                count = 0
                if extra is not None:
                    try:
                        count = extra(args, kwargs, result)
                    except Exception:   # noqa: BLE001 - never break a call
                        count = 0
                if len(recorder.spans) < MAX_SPANS:
                    recorder.spans.append((name, start, end, frame[0],
                                           frame[1], frame[2], frame[3],
                                           count))
                else:
                    recorder.dropped += 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _count_leaf(self, name, start, elapsed, nbytes):
        stack = self._stack()
        if stack:
            stack[-1][3] += elapsed
        buckets = self._leaves().get(name)
        if buckets is None:
            buckets = self._leaves()[name] = {}
        bucket = start - start % LEAF_BUCKET_NS
        entry = buckets.get(bucket)
        if entry is None:
            entry = buckets[bucket] = [0, 0, 0]
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += nbytes

    def leaf(self, name, fn, nbytes=None):
        """``fn`` counted (calls, ns, computed bytes) without a span."""
        recorder = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            recorder._count_leaf(name, start, clock() - start,
                                 0 if nbytes is None
                                 else nbytes(args, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def add_wait(self, name, start, elapsed):
        """Charge a wait (lock acquisition) as a leaf of the open span."""
        self._count_leaf(name, start, elapsed, 0)

    def leaf_totals(self):
        """``{name: [[bucket_start_ns, calls, ns, bytes], ...]}``."""
        merged = {}
        with self._tables_lock:
            tables = list(self._leaf_tables)
        for table in tables:
            for name, buckets in list(table.items()):
                target = merged.setdefault(name, {})
                for bucket, (calls, ns, nbytes) in list(buckets.items()):
                    entry = target.setdefault(bucket, [0, 0, 0])
                    entry[0] += calls
                    entry[1] += ns
                    entry[2] += nbytes
        return {name: [[bucket, *entry] for bucket, entry
                       in sorted(buckets.items())]
                for name, buckets in merged.items()}

    def dump(self, path, role):
        payload = {"pid": os.getpid(), "role": role, "argv": sys.argv,
                   "spans": self.spans, "dropped": self.dropped,
                   "requests": {str(k): v for k, v in
                                self.requests.items()},
                   "leaves": self.leaf_totals()}
        tmp = Path(f"{path}.tmp")
        with open(tmp, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        os.replace(tmp, path)


class TimedLock:
    """A lock proxy that charges acquisition waits to the open span."""

    def __init__(self, lock, recorder, name):
        self._lock = lock
        self._recorder = recorder
        self._name = name

    def acquire(self, blocking=True, timeout=-1):
        start = time.perf_counter_ns()
        acquired = self._lock.acquire(blocking, timeout)
        self._recorder.add_wait(self._name, start,
                                time.perf_counter_ns() - start)
        return acquired

    def release(self):
        self._lock.release()

    def locked(self):
        return self._lock.locked()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()
        return False


def _rebind_everywhere(original, replacement, skip=()):
    """Point every ``repro`` module global bound to ``original`` at
    ``replacement`` (covers ``from x import f`` copies), except in the
    modules named in ``skip``."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None or name in skip:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_method(cls, attr, wrapper_factory):
    original = cls.__dict__[attr]
    setattr(cls, attr, wrapper_factory(original))


def _count_queries(args, kwargs, result):
    queries = args[1]
    queries = getattr(queries, "queries", queries)
    return len(queries)


def _envelope_request_id(args, kwargs):
    return getattr(args[1], "request_id", None)


def _rows(args, kwargs, result):
    return len(args[1])


def _sigmoid_bytes(args, result):
    # Computed from shapes: the input read once plus the output written.
    return args[0].nbytes + result.nbytes


def _recourse_extra(args, kwargs, result):
    return [int(getattr(result, "worlds_scored", 0)),
            int(bool(getattr(result, "achieved", False)))]


def _client_port(args, kwargs, result):
    return int(args[0].base_url.rsplit(":", 1)[1])


def _journal_total(args, kwargs, result):
    return args[0].total()


def install(recorder):
    """Wrap every layer boundary the benchmark attributes time to."""
    # Import every layer first so the rebinding below sees all copies.
    import repro.cluster.journal as journal_mod
    import repro.cluster.router as router_mod
    import repro.cluster.supervisor as supervisor_mod
    import repro.core.encoders as encoders_mod
    import repro.core.multi_target as multi_target_mod
    import repro.core.rckt as rckt_mod
    import repro.serve.engine as engine_mod
    import repro.serve.forward_cache as cache_mod
    import repro.serve.history as history_mod
    import repro.serve.http_gateway as gateway_mod
    import repro.serve.protocol as protocol_mod
    import repro.serve.recourse as recourse_mod
    import repro.serve.service as service_mod
    import repro.tensor.tensor as tensor_mod

    def span(name, **options):
        return lambda fn: recorder.span(name, fn, **options)

    # serve.protocol, as its callers see it: the protocol module keeps
    # its own references, so a batch decode (which recurses through the
    # module global) is one span, not one per nested query.
    for name, fn in (("protocol.decode", protocol_mod.query_from_wire),
                     ("protocol.encode", protocol_mod.to_wire)):
        _rebind_everywhere(fn, recorder.span(name, fn),
                           skip=(protocol_mod.__name__,))
    # serve.http_gateway (the router's handler subclasses it)
    _patch_method(gateway_mod._GatewayHandler, "do_POST",
                  span("http.request"))
    # serve.service
    _patch_method(service_mod.Service, "execute_batch",
                  span("service.execute_batch", extra=_count_queries,
                       request_id=_envelope_request_id))
    # serve.engine: record, plus the engine lock the scheduler admits
    # batches through
    _patch_method(engine_mod.InferenceEngine, "record",
                  span("engine.record"))
    engine_init = engine_mod.InferenceEngine.__init__

    def init_with_timed_lock(self, *args, **kwargs):
        engine_init(self, *args, **kwargs)
        self._lock = TimedLock(self._lock, recorder, "engine.lock_wait")

    engine_mod.InferenceEngine.__init__ = init_with_timed_lock
    # serve.history: batch-row assembly from histories (+ cached streams)
    _patch_method(engine_mod.InferenceEngine, "_assemble_rows",
                  span("history.assemble"))
    _rebind_everywhere(history_mod.assemble_padded,
                       recorder.span("history.assemble",
                                     history_mod.assemble_padded))
    # serve.forward_cache
    _rebind_everywhere(cache_mod.build_stream_caches,
                       recorder.span("forward_cache.build",
                                     cache_mod.build_stream_caches,
                                     extra=_rows))
    _patch_method(cache_mod.StudentStreamCache, "extend",
                  span("forward_cache.extend"))
    # core.multi_target
    _patch_method(multi_target_mod.MultiTargetContext, "__init__",
                  span("multi_target.context"))
    for attr in ("scores_for", "influences_for"):
        _patch_method(multi_target_mod.MultiTargetContext, attr,
                      span("multi_target.backward", extra=_rows))
    # core.encoders (patch each class that defines the method)
    for cls in (encoders_mod.BiDKTEncoder, encoders_mod.BiSAKTEncoder,
                encoders_mod.BiAKTEncoder):
        for attr, name in (("forward_stream", "encoders.forward_stream"),
                           ("forward_stream_with_capture",
                            "encoders.forward_stream"),
                           ("backward_stream", "encoders.backward_stream")):
            if attr in cls.__dict__:
                _patch_method(cls, attr, span(name))
    # tensor kernels: leaf counters
    _rebind_everywhere(tensor_mod.sigmoid_array,
                       recorder.leaf("tensor.sigmoid_array",
                                     tensor_mod.sigmoid_array,
                                     nbytes=_sigmoid_bytes))
    # offline sweep
    _patch_method(rckt_mod.RCKT, "predict_dataset",
                  span("core.predict_dataset"))
    # serve.recourse
    _patch_method(recourse_mod.RecourseSearch, "run",
                  span("recourse.search", extra=_recourse_extra))
    # cluster.router: the scatter-gather, and each shard round trip
    _patch_method(router_mod.ScatterGatherRouter, "execute_batch",
                  span("router.execute_batch", extra=_count_queries,
                       request_id=_envelope_request_id))
    _patch_method(gateway_mod.ServiceClient, "batch",
                  span("router.fanout", extra=_client_port,
                       request_id=_envelope_request_id))
    # cluster.journal / cluster.wal
    _patch_method(journal_mod.RecordJournal, "append", span("wal.append"))
    _patch_method(journal_mod.RecordJournal, "sync", span("wal.sync"))
    _patch_method(journal_mod.RecordJournal, "__init__",
                  span("journal.recover", extra=_journal_total))
    # cluster.supervisor
    _patch_method(supervisor_mod.Supervisor, "start",
                  span("supervisor.start"))
    _patch_method(supervisor_mod.Supervisor, "replay_all",
                  span("supervisor.replay_all",
                       extra=lambda args, kwargs, result: result))
