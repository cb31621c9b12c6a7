"""Load generation, timing samples and reply verification.

One generator process drives the system under test over one
connection in a closed loop: the next request goes out as soon as the
previous reply is in.  Every request yields a :class:`Sample`, timed
from its send.  ``lag`` is the generator's own lateness: how long
after the connection was free the request actually went out.
"""

from __future__ import annotations

import gc
import http.client
import sys
import time
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

#: A run whose generator lag p99 exceeds this is invalid: the harness,
#: not the system, would be setting the pace.
MAX_GENERATOR_LAG_MS = 20.0
GENERATOR_SWITCH_INTERVAL_S = 0.0002
#: Replies must equal the in-process reference to this absolute
#: tolerance on every float.
TOLERANCE = 1e-10


@dataclass
class Sample:
    op: object                  # the envelope sent (a list of queries)
    reply: object               # its list of typed replies, or None
    sent: float
    done: float
    lag: float

    @property
    def latency(self) -> float:
        return self.done - self.sent


def _exchange(client, envelope):
    """The replies to one batch envelope, or None when the transport
    failed (a failed op)."""
    try:
        return client.batch(envelope)
    except (OSError, ValueError, http.client.HTTPException):
        return None


def closed_loop(client, next_op: Callable[[], object],
                deadline) -> List[Sample]:
    """Send back to back until ``deadline`` (no think time).

    The generator's own pauses must not show up as system latency: while
    the loop runs, the interpreter's thread switch interval drops from
    5 ms to 0.2 ms (a reply is read promptly while a server log reader
    thread runs) and the cyclic garbage collector is off."""
    samples = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(GENERATOR_SWITCH_INTERVAL_S)
    gc.disable()
    try:
        free_at = time.perf_counter()
        # The deadline is checked before the next operation is drawn: a
        # stream's state (records appended so far) must cover only what
        # was sent.
        while time.perf_counter() < deadline:
            op = next_op()
            sent = time.perf_counter()
            reply = _exchange(client, op)
            done = time.perf_counter()
            samples.append(Sample(op, reply, sent, done, sent - free_at))
            free_at = done
    finally:
        gc.enable()
        sys.setswitchinterval(interval)
    return samples


def host_ticks():
    """(stolen, total) CPU ticks of the host so far, from /proc/stat:
    time the hypervisor ran someone else while this machine wanted to
    run, which shows up in every latency here."""
    with open("/proc/stat") as handle:
        fields = [int(x) for x in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


def steal_pct(before, after) -> float:
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total else 0.0


def percentile_ms(values, q) -> float:
    return float(np.percentile(np.asarray(values) * 1000.0, q))


def latency_stats(samples: List[Sample]) -> dict:
    latencies = [s.latency for s in samples]
    return {"latency_p50_ms": percentile_ms(latencies, 50),
            "latency_p99_ms": percentile_ms(latencies, 99),
            "samples": len(latencies),
            "beyond_p99": int(len(latencies) * 0.01)}


def lag_p99_ms(samples: List[Sample]) -> float:
    return percentile_ms([s.lag for s in samples], 99) if samples else 0.0


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------
def same_wire(a, b, tolerance=TOLERANCE) -> bool:
    """Structural equality of two wire payloads, floats to tolerance."""
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and abs(a - b) <= tolerance
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            same_wire(a[key], b[key], tolerance) for key in a)
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and all(
            same_wire(x, y, tolerance) for x, y in zip(a, b))
    return a == b


def reply_ok(reply, reference) -> bool:
    """A served reply is good when it is no error and equals the
    in-process reference reply."""
    from repro.serve import is_error, to_wire
    if reply is None or is_error(reply):
        return False
    return same_wire(to_wire(reply), to_wire(reference))


# ---------------------------------------------------------------------------
# /v1/metrics
# ---------------------------------------------------------------------------
def scrape(urls) -> dict:
    """Counters, gauges and histogram (count, sum) of every server in
    ``urls``, summed over servers and labels, keyed by metric name."""
    from repro.serve import ServiceClient
    totals = {}
    for url in urls:
        client = ServiceClient(url, timeout=30)
        try:
            snapshot = client.metrics()
        finally:
            client.close()
        for entry in snapshot.get("counters", []) + \
                snapshot.get("gauges", []):
            totals[entry["name"]] = totals.get(entry["name"], 0.0) \
                + entry["value"]
        for entry in snapshot.get("histograms", []):
            count, total = totals.get(entry["name"], (0, 0.0))
            totals[entry["name"]] = (count + entry["data"]["count"],
                                     total + entry["data"]["sum"])
    return totals


def delta(after: dict, before: dict, name: str) -> float:
    """Growth of a counter (or gauge) between two scrapes."""
    return after.get(name, 0.0) - before.get(name, 0.0)


def histogram_delta(after: dict, before: dict, name: str):
    """(observations, summed value) added to a histogram between two
    scrapes."""
    count, total = after.get(name, (0, 0.0))
    count0, total0 = before.get(name, (0, 0.0))
    return count - count0, total - total0
