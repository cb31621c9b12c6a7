"""The three workloads.  Each runs one *phase*: boot the stack (timed,
``setups`` times), drive it for ``seconds``, check every reply, stop.

Why these three (see README.md for the full layer map):

* ``cohort_sweep`` — the offline Table IV sweep (akt): kernels and the
  multi-target scorer with no transport at all.
* ``classroom_ingest`` — writes beside reads through the sharded router
  with a durable journal and a stream cache smaller than the population
  (closed loop, dkt).
* ``advisor_pages`` — recommend + recourse + explain envelopes (closed
  loop, akt), the only traffic that reaches ``serve.recourse``.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import fixture
import loadgen
import stack

# --- classroom_ingest ------------------------------------------------------
INGEST_SHARDS = 2
INGEST_ENVELOPE = 32
INGEST_SCORES_PER_ENVELOPE = 4          # 1/8 reads, 7/8 records
#: Per-worker stream-cache budget: about half of a shard's warm set-up
#: population (~85 students x ~13 KB at dim 16), so the cache misses
#: and evicts.
INGEST_CACHE_BYTES = 550_000

# --- advisor_pages ---------------------------------------------------------
#: Students in the class, one per history-length stratum.  With 32 the
#: figures depended on which students and candidates the seed drew
#: (page cost grows with the history and the recourse search's depth):
#: in process, ten seeds' p50 and p99 spread 0.29 and 0.33; with 96 of
#: the 171 students, 0.08 and 0.11.
ADVISOR_CLASS = 96
ADVISOR_CANDIDATES = 8
RECOURSE_CANDIDATES = 4
RECOURSE_MAX_EDITS = 2
RECOURSE_BEAM = 2

HISTORY_CHUNK = 512
PROBE_CHUNK = 32


class SetupError(RuntimeError):
    pass


@dataclass
class Phase:
    """What one phase measured and checked."""

    samples: List[loadgen.Sample]          # latency samples
    throughput: float
    setup_s: List[float]
    rss_mb: float
    auc: float
    attempted: int
    failed: int
    checks: Dict[str, bool]
    lag_p99_ms: float
    steal_pct: float = 0.0                 # host CPU steal while measuring
    window: tuple = (0.0, 0.0)             # measured phase, perf_counter
    client_busy_s: float = 0.0             # summed send->done time
    trace_dir: Optional[Path] = None
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


@dataclass
class Context:
    seed: int
    run_dir: Path
    log: object


def _chunks(items, size):
    return [items[i:i + size] for i in range(0, len(items), size)]


def _client(url):
    from repro.serve import ServiceClient
    return ServiceClient(url, timeout=120)


def _require_ok(replies, what):
    from repro.serve import is_error
    bad = [r for r in replies if is_error(r)]
    if bad:
        raise SetupError(f"{what} rejected: {bad[0]}")


def _load_and_warm(client, fix, records):
    """History load, then one probe score per student (cache warm-up)."""
    for chunk in _chunks(records, HISTORY_CHUNK):
        _require_ok(client.batch(chunk), "history load")
    probes = []
    for chunk in _chunks(fixture.probe_queries(fix.students), PROBE_CHUNK):
        probes.extend(client.batch(chunk))
    return probes


def _boot_many(boot, setups):
    """Boot ``setups`` times (each timed); keep the last stack up."""
    times = []
    for index in range(setups):
        proc, url, probes, seconds = boot(index)
        times.append(seconds)
        if index < setups - 1:
            proc.stop()
    return proc, url, probes, times


def _gateway_boot(ctx, fix, trace_dir):
    records = fixture.history_records(fix.students)

    def boot(index):
        proc = stack.gateway(fix.checkpoint,
                             ctx.run_dir / f"gateway-{index}.log",
                             trace_dir)
        try:
            url = proc.wait_ready().group(1)
            client = _client(url)
            probes = _load_and_warm(client, fix, records)
            seconds = time.perf_counter() - proc.started
            client.close()
        except BaseException:
            proc.stop()
            raise
        return proc, url, probes, seconds

    return boot


def _reference(fix):
    """In-process Service at the set-up state, plus its probe replies."""
    from repro.serve import Service
    service = Service.from_checkpoint(fix.checkpoint)
    _require_ok(service.execute_batch(fixture.history_records(fix.students)),
                "reference history load")
    probes = service.execute_batch(fixture.probe_queries(fix.students))
    return service, probes


def _probe_auc(fix, probes):
    from repro.serve import is_error
    if any(is_error(p) for p in probes):
        return 0.0            # the probe check fails the run as well
    return fixture.auc(fixture.probe_labels(fix.students),
                       [p.score for p in probes])


def _count_bad(served, reference):
    return sum(1 for s, r in zip(served, reference)
               if not loadgen.reply_ok(s, r))


def _sample_ok(sample, reference) -> bool:
    return isinstance(sample.reply, list) and \
        len(sample.reply) == len(reference) and \
        _count_bad(sample.reply, reference) == 0


def _phase_metrics(trace_dir, urls, before):
    if trace_dir is None:
        return {}
    return {"before": before, "after": loadgen.scrape(urls)}


# ---------------------------------------------------------------------------
# advisor_pages
# ---------------------------------------------------------------------------
def advisor_page_set(fix, seed):
    """The seed's class: one fixed page (an envelope) per student."""
    from repro.serve import (CandidateQuestion, ExplainQuery,
                             RecommendQuery, RecourseQuery)
    rng = np.random.default_rng([seed, 7])
    # One student per history-length stratum: page cost grows with the
    # history, so every seed's class has the same length profile.
    by_length = sorted(range(len(fix.students)),
                       key=lambda i: (len(fix.students[i].history), i))
    strata = np.array_split(np.array(by_length), ADVISOR_CLASS)
    pages = {}
    for stratum in strata:
        student = fix.students[int(rng.choice(stratum))]
        bank = rng.choice(len(fix.questions), ADVISOR_CANDIDATES,
                          replace=False)
        candidates = tuple(CandidateQuestion(fix.questions[q].question_id,
                                             fix.questions[q].concept_ids)
                           for q in bank)
        target = student.continuation(0)
        pages[student.student_id] = [
            RecommendQuery(student.student_id, candidates, top_k=3),
            RecourseQuery(student.student_id, target.question_id,
                          target.concept_ids,
                          threshold=fix.recourse_threshold,
                          max_edits=RECOURSE_MAX_EDITS,
                          beam_width=RECOURSE_BEAM,
                          candidates=candidates[:RECOURSE_CANDIDATES]),
            ExplainQuery(student.student_id),
        ]
    return pages, rng


def advisor_pages(ctx, seconds, setups, trace_dir=None) -> Phase:
    fix = fixture.fixture("akt", ctx.log)
    pages, rng = advisor_page_set(fix, ctx.seed)
    students = sorted(pages)
    order = []

    def next_page():
        if not order:
            order.extend(students[i] for i in rng.permutation(len(students)))
        return pages[order.pop(0)]

    proc, url, probes, setup_times = _boot_many(
        _gateway_boot(ctx, fix, trace_dir), setups)
    client = _client(url)
    try:
        client.health()
        before = loadgen.scrape([url]) if trace_dir else None
        ticks = loadgen.host_ticks()
        started = time.perf_counter()
        samples = loadgen.closed_loop(client, next_page, started + seconds)
        ended = samples[-1].done if samples else started
        steal = loadgen.steal_pct(ticks, loadgen.host_ticks())
        metrics = _phase_metrics(trace_dir, [url], before)
        rss = proc.rss_mb()
    finally:
        client.close()
        proc.stop()

    verify_started = time.perf_counter()
    reference, ref_probes = _reference(fix)
    try:
        expected = {sid: reference.execute_batch(pages[sid])
                    for sid in {s.op[0].student_id for s in samples}}
    finally:
        reference.close()
    failed = sum(1 for s in samples
                 if not _sample_ok(s, expected[s.op[0].student_id]))
    ctx.log(f"  verified in {time.perf_counter() - verify_started:.1f}s")
    return Phase(
        samples=samples,
        throughput=len(samples) / max(ended - started, 1e-9),
        setup_s=setup_times, rss_mb=rss, auc=_probe_auc(fix, probes),
        attempted=len(samples), failed=failed,
        checks={"probes_match_reference":
                _count_bad(probes, ref_probes) == 0},
        lag_p99_ms=loadgen.lag_p99_ms(samples), steal_pct=steal,
        window=(started, ended),
        client_busy_s=sum(s.done - s.sent for s in samples),
        trace_dir=trace_dir, metrics=metrics)


# ---------------------------------------------------------------------------
# classroom_ingest
# ---------------------------------------------------------------------------
def _write_journal(fix, directory):
    """The cluster's durable journal holding every history record, as
    the router would have written it (untimed set-up input)."""
    from repro.cluster.journal import RecordJournal
    from repro.cluster.ring import DEFAULT_REPLICAS, HashRing
    from repro.serve import RecordEvent, to_wire
    journal = RecordJournal(directory=directory, fsync="off")
    journal.bind_meta({"shards": INGEST_SHARDS,
                       "replicas": DEFAULT_REPLICAS})
    ring = HashRing(INGEST_SHARDS, replicas=DEFAULT_REPLICAS)
    for student in fix.students:
        shard = ring.shard_for(student.student_id)
        for length, item in enumerate(student.history, start=1):
            rejected = journal.append(
                shard, to_wire(RecordEvent(student.student_id,
                                           item.question_id, item.correct,
                                           item.concept_ids)),
                sequence=length)
            if rejected is not None:
                raise SetupError(f"journal append rejected: {rejected}")
    journal.close()


class IngestStream:
    """Envelopes of 28 records and 4 scores over the whole population."""

    def __init__(self, students, rng):
        self.students = students
        self.rng = rng
        self.recorded = {s.student_id: 0 for s in students}

    def next(self):
        from repro.serve import RecordEvent, ScoreQuery
        reads = set(self.rng.choice(INGEST_ENVELOPE,
                                    INGEST_SCORES_PER_ENVELOPE,
                                    replace=False).tolist())
        envelope = []
        for slot in range(INGEST_ENVELOPE):
            student = self.students[int(self.rng.integers(
                len(self.students)))]
            sid = student.student_id
            item = student.continuation(self.recorded[sid])
            if slot in reads:
                envelope.append(ScoreQuery(sid, item.question_id,
                                           item.concept_ids))
            else:
                self.recorded[sid] += 1
                envelope.append(RecordEvent(sid, item.question_id,
                                            item.correct, item.concept_ids))
        return envelope


def classroom_ingest(ctx, seconds, setups, trace_dir=None) -> Phase:
    from repro.serve import RecordEvent
    fix = fixture.fixture("dkt", ctx.log)
    base = ctx.run_dir / "journal-base"
    _write_journal(fix, base)
    extra = ("--shards", str(INGEST_SHARDS), "--fsync", "batch",
             "--snapshot-every", "0",
             "--stream-cache-bytes", str(INGEST_CACHE_BYTES))
    journals = []

    def boot(index):
        journal = ctx.run_dir / f"journal-{index}"
        shutil.copytree(base, journal)
        journals.append(journal)
        logs = ctx.run_dir / f"cluster-{index}"
        logs.mkdir()
        proc = stack.cluster(fix.checkpoint, logs / "router.log", journal,
                             logs, trace_dir, extra)
        try:
            url = proc.wait_ready().group(1)
            client = _client(url)
            probes = []
            for chunk in _chunks(fixture.probe_queries(fix.students),
                                 PROBE_CHUNK):
                probes.extend(client.batch(chunk))
            seconds_ = time.perf_counter() - proc.started
            client.close()
        except BaseException:
            proc.stop()
            raise
        return proc, url, probes, seconds_

    proc, url, probes, setup_times = _boot_many(boot, setups)
    stream = IngestStream(fix.students,
                          np.random.default_rng([ctx.seed, 3]))
    client = _client(url)
    try:
        health = client.health()
        shard_urls = [url] + [s["url"] for s in health.get("shards", [])]
        before = loadgen.scrape(shard_urls) if trace_dir else None
        ticks = loadgen.host_ticks()
        started = time.perf_counter()
        samples = loadgen.closed_loop(client, stream.next,
                                      started + seconds)
        ended = samples[-1].done if samples else started
        steal = loadgen.steal_pct(ticks, loadgen.host_ticks())
        metrics = _phase_metrics(trace_dir, shard_urls, before)
        rss = proc.rss_mb()
    finally:
        client.close()
        proc.stop()

    # Every reply against an in-process Service fed the same history
    # and the same envelopes in the same order.
    verify_started = time.perf_counter()
    reference, ref_probes = _reference(fix)
    try:
        expected = [reference.execute_batch(s.op) for s in samples]
    finally:
        reference.close()
    failed = sum(1 for s, r in zip(samples, expected)
                 if not _sample_ok(s, r))
    # The journal on disk must hold exactly the history plus every
    # acknowledged record, in each student's acknowledged order.
    acked = {}
    for student in fix.students:
        acked[student.student_id] = [(i.question_id, i.correct)
                                     for i in student.history]
    for sample in samples:
        for query, reply in zip(sample.op, sample.reply or []):
            if isinstance(query, RecordEvent) and getattr(reply, "ok",
                                                          False):
                acked[query.student_id].append((query.question_id,
                                                query.correct))
    from repro.cluster.journal import RecordJournal
    journal = RecordJournal(directory=journals[-1], fsync="off")
    try:
        replayed = journal.replay_records()
    finally:
        journal.close()
    on_disk = {}
    for record in replayed:
        on_disk.setdefault(record.student_id, []).append(
            (record.question_id, record.correct))
    ctx.log(f"  verified in {time.perf_counter() - verify_started:.1f}s")
    return Phase(
        samples=samples,
        throughput=len(samples) / max(ended - started, 1e-9),
        setup_s=setup_times, rss_mb=rss, auc=_probe_auc(fix, probes),
        attempted=len(samples), failed=failed,
        checks={"probes_match_reference":
                _count_bad(probes, ref_probes) == 0,
                "journal_count_matches_acks":
                len(replayed) == sum(len(v) for v in acked.values()),
                "journal_order_matches_acks": on_disk == acked},
        lag_p99_ms=loadgen.lag_p99_ms(samples), steal_pct=steal,
        window=(started, ended),
        client_busy_s=sum(s.done - s.sent for s in samples),
        trace_dir=trace_dir, metrics=metrics)


# ---------------------------------------------------------------------------
# cohort_sweep
# ---------------------------------------------------------------------------
def cohort_sweep(ctx, seconds, setups, trace_dir=None) -> Phase:
    fix = fixture.fixture("akt", ctx.log)
    setup_times = []
    out = ctx.run_dir / "sweep.json"
    for index in range(setups):
        last = index == setups - 1
        proc = stack.sweeper(fix.checkpoint, seconds if last else 0,
                             ctx.seed, out,
                             ctx.run_dir / f"sweep-{index}.log", trace_dir)
        try:
            proc.wait_ready()
            setup_times.append(time.perf_counter() - proc.started)
            ticks = loadgen.host_ticks()
            code = proc.popen.wait(timeout=seconds + 120)
            steal = loadgen.steal_pct(ticks, loadgen.host_ticks())
        finally:
            proc.stop()
        if code != 0:
            raise SetupError(f"sweep process exited with {code}; see "
                             f"{proc.log_path}")
    result = json.loads(out.read_text())
    sweeps = result["sweep_s"]
    samples = [loadgen.Sample(None, None, 0.0, s, 0.0) for s in sweeps]
    checks = {
        "sweeps_identical": result["identical_sweeps"],
        "legacy_matches": result["legacy_max_diff"] <= loadgen.TOLERANCE,
        "legacy_labels_match": result["legacy_labels_match"],
        "sample_in_sweep":
        result["sample_in_sweep_max_diff"] <= loadgen.TOLERANCE,
    }
    targets = result["targets"] * len(sweeps)
    return Phase(
        samples=samples,
        throughput=targets / sum(sweeps), setup_s=setup_times,
        rss_mb=result["rss_mb"], auc=result["auc"],
        attempted=targets, failed=0 if all(checks.values()) else targets,
        checks=checks, lag_p99_ms=0.0, steal_pct=steal,
        window=tuple(result["window"]),
        client_busy_s=sum(sweeps), trace_dir=trace_dir)


WORKLOADS = {
    "cohort_sweep": cohort_sweep,
    "classroom_ingest": classroom_ingest,
    "advisor_pages": advisor_pages,
}

