"""The serving engine: one model's compute core behind the typed facade.

The engine owns a checkpointed model plus everything that model's
serving state needs — per-student histories, incremental forward-stream
caches, window anchoring, a persistent worker pool — and exposes the
row-level scheduling primitives (:meth:`InferenceEngine._assemble_rows`,
:meth:`InferenceEngine._score_context`) the
:class:`repro.serve.Service` scheduler drives.  The classic convenience
methods below (``score``/``score_batch``/``influences``/``recommend``)
are thin deprecation shims over that facade: same scheduler, same
numbers, with structured error values translated back into the
``ValueError``s they historically raised.

Request lifecycle (legacy surface)
----------------------------------
1. ``record(student, question, correct, concepts)`` appends one response
   to the student's cached arrays (O(1) amortized — see
   :mod:`repro.serve.history`).
2. ``submit(ScoreRequest(...))`` enqueues a "how would this student do on
   question q next?" probe and returns a :class:`PendingScore` handle.
3. When ``max_batch`` requests are pending — or on an explicit
   ``flush()`` — the engine assembles **one** padded batch across all
   waiting students (histories of arbitrary, ragged lengths share the
   batch thanks to the truncated-mask fast path) and resolves every
   handle from a single stacked counterfactual pass.
4. ``score(...)`` / ``score_batch(...)`` are the synchronous conveniences
   built on the same path.

This replaces the seed's serving idiom (one collated single-row
``predict_scores`` call per probe, as in
:func:`repro.interpret.recommendation.question_value`) with
column-chunked stacked passes: identical scores, several times the
throughput — ``benchmarks/bench_inference.py`` tracks the exact factor.
"""

from __future__ import annotations

import functools
import threading
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import RCKT, RCKTConfig
from repro.core.masking import check_window, window_start
from repro.core.multi_target import (FORWARD_BASES, MultiTargetContext,
                                     column_banded_chunks, map_chunks)
from repro.data import PAD_ID, Batch, KTDataset
from repro.tensor import enable_grad, no_grad
from repro.utils import load_checkpoint, save_checkpoint

from .. import obs
from ..obs import names as metric_names
from .forward_cache import (DEFAULT_STREAM_CACHE_BYTES, StreamCacheStore,
                            base_contents, build_stream_caches,
                            question_vector_for)
from .history import (ArrayHistory, HistoryStore, HistoryWindow,
                      assemble_padded)
from .protocol import DEFAULT_MODEL


@dataclass(frozen=True)
class ScoreRequest:
    """Score P(correct) for ``student_id`` answering ``question_id`` next."""

    student_id: object
    question_id: int
    concept_ids: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "concept_ids", tuple(self.concept_ids))


@dataclass
class PendingScore:
    """Handle returned by ``submit``; resolved on the next flush."""

    request: ScoreRequest
    _value: Optional[float] = field(default=None, repr=False)

    @property
    def done(self) -> bool:
        return self._value is not None

    @property
    def value(self) -> float:
        if self._value is None:
            raise RuntimeError("request not flushed yet — call "
                               "InferenceEngine.flush()")
        return self._value


def _deprecated_shim(replacement: str):
    """The one adapter every legacy convenience method routes through.

    Emits a single :class:`DeprecationWarning` naming the typed-facade
    replacement and the documented removal schedule
    (``docs/API.md``, "Deprecation schedule"), then calls the original
    method unchanged — behavior stays bit-identical, which the existing
    shim tests pin.  Warnings point at the *caller* (``stacklevel=2``).
    """
    def decorate(method):
        @functools.wraps(method)
        def shim(self, *args, **kwargs):
            warnings.warn(
                f"InferenceEngine.{method.__name__}() is deprecated; use "
                f"{replacement} instead (removal schedule: docs/API.md, "
                f"'Deprecation schedule')",
                DeprecationWarning, stacklevel=2)
            return method(self, *args, **kwargs)
        shim.__deprecated_replacement__ = replacement
        shim.__wrapped_shim__ = method
        return shim
    return decorate


@dataclass
class _ContextRow:
    """One row of a shared scoring context (the scheduler's unit).

    ``history`` is any object with the read interface of
    :class:`~repro.serve.history.StudentHistory` — the stored history,
    or a detached :class:`~repro.serve.history.ArrayHistory` carrying a
    what-if edit.  ``start`` is the window anchor into it.  ``probe``
    appends a virtual next interaction (score/what-if rows); ``None``
    makes the row's *last recorded position* the target (explain rows).
    ``cache_key`` names the stream-cache slot that may serve this row
    (``None`` for detached/edited rows, which are always built
    transiently).
    """

    history: object
    start: int
    probe: Optional[Tuple[int, Tuple[int, ...]]]
    cache_key: object = None


class InferenceEngine:
    """Multi-student counterfactual scoring around one loaded RCKT model.

    Parameters
    ----------
    model:
        A (typically trained) :class:`repro.core.RCKT`.
    max_batch:
        Pending-request count that triggers an automatic flush.
    target_batch:
        Chunk size of the column-banded backward passes (see
        :func:`repro.core.multi_target.column_banded_chunks`).
    workers:
        Thread count for the independent column-banded score chunks
        (NumPy's kernels release the GIL; 1 disables pooling).
    stream_cache_bytes:
        LRU byte budget for the per-student incremental forward-stream
        caches (:mod:`repro.serve.forward_cache`).  With a warm cache,
        ``record`` extends the cached encoder state by one step and
        ``score`` skips the forward half of the encoder entirely; 0 or
        ``None`` disables caching and serves every request through the
        batch re-encoding path (the golden reference the parity suite
        compares against).
    window:
        Sliding-window context size: every score uses at most the
        student's last ``window`` recorded responses as history (the
        probe rides on top), so per-request compute and per-student
        cache memory stay bounded no matter how long a history grows.
        ``None`` (default) serves full histories — still unbounded in
        length (positional tables grow on demand) but with compute that
        scales with history length.  Windowed scores are exactly the
        scores a full recompute on the truncated window produces.
    window_hop:
        Re-anchoring stride of the window (default ``max(1,
        window // 8)``): the window start only advances in multiples of
        ``hop``, so the cached encoder state is rebuilt once per ``hop``
        records instead of on every append, at the cost of the context
        length breathing in ``(window - hop, window]``.  See
        :func:`repro.core.masking.window_start` — the anchored start is
        a pure function of the history length, so cached, uncached, and
        offline recompute paths all agree on the same window.

    Raises
    ------
    ValueError
        On non-positive ``max_batch``/``workers`` or an invalid
        ``(window, window_hop)`` pair.
    """

    def __init__(self, model: RCKT, max_batch: int = 64,
                 target_batch: int = 64, workers: int = 1,
                 stream_cache_bytes: Optional[int]
                 = DEFAULT_STREAM_CACHE_BYTES,
                 window: Optional[int] = None,
                 window_hop: Optional[int] = None,
                 name: str = DEFAULT_MODEL):
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if workers <= 0:
            raise ValueError("workers must be positive")
        if window is None:
            if window_hop is not None:
                raise ValueError("window_hop requires a window")
            window_hop = 1
        else:
            if window_hop is None:
                window_hop = max(1, window // 8)
            check_window(window, window_hop)
        self.window = window
        self.window_hop = window_hop
        self.model = model
        self.name = name
        self.max_batch = max_batch
        self.target_batch = target_batch
        self.workers = workers
        self.students = HistoryStore()
        self.stream_caches = StreamCacheStore(stream_cache_bytes)
        self._pending: List[PendingScore] = []
        self._lock = threading.Lock()
        self._service = None
        # One persistent pool per engine, reused across every scoring
        # call (spinning a ThreadPoolExecutor up per call costs more
        # than small serving batches do — the ROADMAP's small-batch
        # latency item).  Threads spawn lazily on first use.
        self._executor = None
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor
            self._executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="rckt-serve")
        embedder = model.generator.embedder
        self.num_questions = embedder.question_embedding.num_embeddings - 1
        self.num_concepts = embedder.concept_embedding.num_embeddings - 1
        registry = obs.get_registry()
        self._obs_forward_calls = registry.counter(
            metric_names.ENGINE_FORWARD_CALLS_TOTAL)
        self._obs_worker_tasks = registry.counter(
            metric_names.ENGINE_WORKER_TASKS_TOTAL)
        model.eval()

    @property
    def service(self):
        """The typed :class:`repro.serve.Service` facade over this engine.

        Built lazily (one single-model registry under this engine's
        ``name``); the legacy convenience methods below are thin shims
        over it, so in-process callers and wire callers share one code
        path, one scheduler, and one error taxonomy.
        """
        if self._service is None:
            from .service import Service
            self._service = Service(self)
        return self._service

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _window_start(self, history_length: int) -> int:
        """Anchored window start for a history of ``history_length`` steps."""
        return window_start(history_length, self.window, self.window_hop)

    def _error_context(self, student_id=None) -> str:
        if student_id is None:
            return f" (model '{self.name}')"
        return f" (model '{self.name}', student {student_id!r})"

    def _id_error(self, question_id: int, concept_ids: Sequence[int],
                  student_id=None) -> Optional[Tuple[str, str, dict]]:
        """First id-validation failure as ``(kind, message, details)``.

        ``kind`` is ``"question"`` / ``"concept"`` / ``"concept_empty"``;
        the message names the offending id, the valid range, and the
        model/student context so a gateway error payload is actionable
        on its own.  ``None`` when everything is in vocabulary.
        """
        context = self._error_context(student_id)
        if not isinstance(question_id, (int, np.integer)) \
                or isinstance(question_id, bool):
            # Wire payloads can carry any JSON type: reject before a
            # string reaches an ordered comparison, a JSON `true` turns
            # into question 1, or either reaches an embedding gather.
            return ("question",
                    f"question_id must be an integer, got "
                    f"{question_id!r}{context}",
                    {"question_id": question_id, "model": self.name})
        if not 1 <= question_id <= self.num_questions:
            return ("question",
                    f"question_id {question_id} outside the model's "
                    f"vocabulary [1, {self.num_questions}]{context}",
                    {"question_id": question_id,
                     "valid_range": (1, self.num_questions),
                     "model": self.name})
        if not concept_ids:
            # Empty concept sets would divide by a zero concept count
            # deep inside the embedder (Eq. 23 averages over concepts).
            return ("concept_empty",
                    f"concept_ids must be non-empty{context}",
                    {"model": self.name})
        for concept in concept_ids:
            if not isinstance(concept, (int, np.integer)) \
                    or isinstance(concept, bool):
                return ("concept",
                        f"concept id must be an integer, got "
                        f"{concept!r}{context}",
                        {"concept_id": concept, "model": self.name})
            if not 1 <= concept <= self.num_concepts:
                return ("concept",
                        f"concept id {concept} outside the model's "
                        f"vocabulary [1, {self.num_concepts}]{context}",
                        {"concept_id": int(concept),
                         "valid_range": (1, self.num_concepts),
                         "model": self.name})
        return None

    def _validate_ids(self, question_id: int, concept_ids: Sequence[int],
                      student_id=None) -> None:
        error = self._id_error(question_id, concept_ids, student_id)
        if error is not None:
            raise ValueError(error[1])

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist model weights plus the config/id-space metadata needed
        to rebuild the engine without the original constructor call."""
        with self._lock:
            # One capture: metadata and weights must describe the same
            # model even if a reload swaps self.model mid-save.
            model = self.model
        embedder = model.generator.embedder
        metadata = {
            "config": model.config.__dict__,
            # Embedding tables carry a +1 row for the padding id.
            "num_questions": embedder.question_embedding.weight.shape[0] - 1,
            "num_concepts": embedder.concept_embedding.weight.shape[0] - 1,
        }
        save_checkpoint(path, model.state_dict(), metadata)

    @classmethod
    def from_checkpoint(cls, path, max_batch: int = 64,
                        target_batch: int = 64, workers: int = 1,
                        stream_cache_bytes: Optional[int]
                        = DEFAULT_STREAM_CACHE_BYTES,
                        window: Optional[int] = None,
                        window_hop: Optional[int] = None
                        ) -> "InferenceEngine":
        """Rebuild an engine from :meth:`save` output.

        Raises ``ValueError`` when the checkpoint lacks the engine
        metadata (config and id-space sizes) that :meth:`save` embeds.
        """
        state, metadata = load_checkpoint(path)
        try:
            config = RCKTConfig(**metadata["config"])
            num_questions = int(metadata["num_questions"])
            num_concepts = int(metadata["num_concepts"])
        except KeyError as missing:
            raise ValueError(f"checkpoint at {path} lacks engine metadata "
                             f"({missing})") from None
        model = RCKT(num_questions, num_concepts, config)
        model.load_state_dict(state)
        return cls(model, max_batch=max_batch, target_batch=target_batch,
                   workers=workers, stream_cache_bytes=stream_cache_bytes,
                   window=window, window_hop=window_hop)

    def reload_checkpoint(self, path) -> None:
        """Swap in refreshed weights (e.g. a periodic retrain).

        Histories survive — they are ground-truth observations — but
        every cached forward-stream state is invalidated: those arrays
        are functions of the old weights, and serving them against the
        new ones would silently mix models.  The next score per student
        rebuilds the cache through the vectorized warm-up path.

        The swap is atomic: weights load into a *fresh* model object
        which replaces ``self.model`` under the lock, so a concurrent
        score that already captured the old model finishes consistently
        on the old weights instead of reading a half-updated (or mixed
        old/new) parameter set.
        """
        state, metadata = load_checkpoint(path)
        with self._lock:
            # The config is immutable across reloads (validated below),
            # so one captured reference serves both checks and the
            # fresh-model construction.
            current = self.model
        config = metadata.get("config")
        if config is not None:
            # The init seed is not architecture: a retrained checkpoint
            # may legitimately carry a different one.
            theirs = {k: v for k, v in
                      RCKTConfig(**config).__dict__.items() if k != "seed"}
            ours = {k: v for k, v in current.config.__dict__.items()
                    if k != "seed"}
            if theirs != ours:
                raise ValueError(f"checkpoint at {path} was trained with a "
                                 f"different model config; build a fresh "
                                 f"engine via from_checkpoint instead")
        for key in ("num_questions", "num_concepts"):
            if key in metadata and int(metadata[key]) != getattr(self, key):
                raise ValueError(f"checkpoint at {path} has a different "
                                 f"{key} ({metadata[key]} vs "
                                 f"{getattr(self, key)})")
        with enable_grad():
            # Parameter registration must see gradients enabled even if
            # a scoring thread's no_grad scope is ambient here.
            model = RCKT(self.num_questions, self.num_concepts,
                         current.config)
        model.load_state_dict(state)
        model.eval()
        with self._lock:
            self.model = model
            self.stream_caches.invalidate()

    # ------------------------------------------------------------------
    # History management
    # ------------------------------------------------------------------
    def record(self, student_id, question_id: int, correct: int,
               concept_ids: Sequence[int]) -> None:
        """Append one observed response to a student's cached history.

        Rejects ids outside the checkpoint vocabulary (and non-binary
        ``correct``) *before* touching any state — a bad event must
        never poison the cached history or the stream cache.  With a
        warm forward-stream cache, the append also advances the cached
        encoder state by exactly one step (the incremental fast path);
        histories are never length-bounded — beyond the serving window
        (or the initial positional-table size without one) the append
        stays O(1) and scoring windows or grows transparently.

        Raises
        ------
        ValueError
            If ``question_id``/``concept_ids`` fall outside the model's
            vocabulary or ``correct`` is not 0/1.
        """
        self._validate_ids(question_id, concept_ids, student_id)
        if correct not in (0, 1):
            raise ValueError(f"correct must be 0 or 1, got {correct}")
        with self._lock:
            history = self.students.record(student_id, question_id, correct,
                                           concept_ids)
            self._extend_stream_cache(student_id, history, question_id,
                                      correct, concept_ids)

    # invariant: holds-lock
    def _extend_stream_cache(self, student_id, history, question_id: int,
                             correct: int, concept_ids) -> None:
        """Advance a warm cache by the step just recorded (lock held)."""
        if not self.stream_caches.enabled:
            return
        entry = self.stream_caches.peek(student_id)
        if entry is None:
            return  # cold/evicted: next score warm-builds in one pass
        if self._window_start(history.length) != entry.anchor:
            # The serving window slid past the cached anchor: cached
            # states are functions of their window-relative positions,
            # so the entry cannot be extended — the next score rebuilds
            # it from the new window slice in one vectorized pass.
            self.stream_caches.discard(student_id)
            return
        if entry.length != history.length - 1 - entry.anchor:
            # Out of sync (e.g. a bulk load since the last score):
            # stale states must not be extended.
            self.stream_caches.discard(student_id)
            return
        generator = self.model.generator
        question_vector = question_vector_for(generator.embedder,
                                              question_id, concept_ids)
        categories = base_contents(np.asarray(correct),
                                   self.model.config.use_monotonicity)
        try:
            entry.extend(generator.encoder, question_vector, categories,
                         generator.embedder.response_embedding.weight.data)
        except ValueError:
            # Defensive: the cache must never make record() fail where
            # the uncached engine would have accepted the event.
            self.stream_caches.discard(student_id)
            return
        self.stream_caches.note_growth(student_id)

    def load_dataset(self, dataset: KTDataset) -> None:
        """Warm the history store with an offline log.

        Every interaction is validated against the checkpoint vocabulary
        up front (same errors as :meth:`score`) so a corrupt log cannot
        half-load.  Stream caches of touched students are invalidated:
        bulk history changes are cheaper to re-encode once at the next
        score than to replay step-by-step.
        """
        for sequence in dataset:
            for interaction in sequence:
                self._validate_ids(interaction.question_id,
                                   interaction.concept_ids,
                                   sequence.student_id)
        with self._lock:
            for sequence in dataset:
                self.students.load_sequence(sequence)
                self.stream_caches.discard(sequence.student_id)

    def history_length(self, student_id) -> int:
        """Number of responses recorded for ``student_id`` (0 if unknown).

        Always the *full* history: the serving window bounds what a
        score conditions on, never what is stored.
        """
        with self._lock:
            history = self.students.peek(student_id)
            return history.length if history is not None else 0

    def stream_cache_stats(self) -> dict:
        """Occupancy/hit/eviction counters of the forward-stream cache."""
        with self._lock:
            return self.stream_caches.stats()

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    @_deprecated_shim("Service.execute_batch (one BatchEnvelope per flush)")
    def submit(self, request: ScoreRequest) -> PendingScore:
        """Enqueue a request; auto-flushes when ``max_batch`` are waiting.

        Invalid requests are rejected here, synchronously — a bad id must
        never poison a batch other callers are waiting on.
        """
        self._validate_ids(request.question_id, request.concept_ids,
                           request.student_id)
        pending = PendingScore(request)
        with self._lock:
            self._pending.append(pending)
            ready = len(self._pending) >= self.max_batch
        if ready:
            self.flush()
        return pending

    @_deprecated_shim("Service.execute_batch (one BatchEnvelope per flush)")
    def flush(self) -> List[PendingScore]:
        """Resolve all pending requests in one micro-batched pass."""
        with self._lock:
            batch, self._pending = self._pending, []
        if not batch:
            return []
        try:
            scores = self.score_batch([p.request for p in batch])
        except Exception:
            # Don't strand the other callers' handles: put the batch
            # back so a later flush can retry it.
            with self._lock:
                self._pending = batch + self._pending
            raise
        for pending, score in zip(batch, scores):
            pending._value = float(score)
        return batch

    @_deprecated_shim("Service.execute_batch with ScoreQuery values")
    def score_batch(self, requests: Sequence[ScoreRequest]) -> np.ndarray:
        """Scores for many (student, next-question) probes at once.

        Deprecation shim: requests become typed
        :class:`~repro.serve.protocol.ScoreQuery` values executed by the
        :attr:`service` facade's scheduler — the same shared
        forward-stream batches, stream-cache reuse, and window anchoring
        as before, now also reachable over the wire.  Prefer
        ``engine.service.execute_batch`` in new code.

        Returns scores in request order; raises ``ValueError`` on the
        first structured error (e.g. ids outside the checkpoint
        vocabulary), mirroring the pre-facade behavior.
        """
        from .protocol import ScoreQuery, is_error
        if not requests:
            return np.array([])
        # Preserve the pre-facade contract: every id is validated (and
        # the first bad one raised) before any scoring work happens —
        # a permanently-bad request in a re-queued flush batch must not
        # make every retry score-and-discard its valid siblings.
        for request in requests:
            self._validate_ids(request.question_id, request.concept_ids,
                               request.student_id)
        replies = self.service.execute_batch(
            [ScoreQuery(r.student_id, r.question_id, r.concept_ids,
                        model=self.name) for r in requests])
        scores = np.empty(len(replies), dtype=np.float64)
        for index, reply in enumerate(replies):
            if is_error(reply):
                raise ValueError(reply.message)
            scores[index] = reply.score
        return scores

    # invariant: holds-lock
    def _assemble_rows(self, rows: Sequence[_ContextRow],
                       local_entries: Optional[Dict[int, object]] = None,
                       built_out: Optional[Dict[int, object]] = None
                       ) -> Tuple[MultiTargetContext, np.ndarray]:
        """One shared scoring context over heterogeneous rows (lock held).

        The scheduler's core: score probes, what-if replays (edited
        detached histories), and explain targets all become rows of a
        single :class:`MultiTargetContext`.  With stream caching enabled
        the forward half comes from the per-student caches — every
        missing row (cold students, edited histories, off-anchor explain
        targets) is warm-built in **one** stacked
        :func:`~repro.serve.forward_cache.build_stream_caches` pass —
        and only per-target backward streams remain; with caching
        disabled the rows are assembled as a raw batch and the context
        encodes the (up to three) base forward streams itself.  Either
        way a mixed flush issues one shared forward-stream batch.

        ``local_entries`` maps row index -> a caller-owned
        :class:`~repro.serve.forward_cache.StudentStreamCache` already
        covering that row's ``[start, history.length)`` slice — the
        recourse search and the recommend value worlds pass
        clone-extended per-world entries here so a batch of
        hypothetical timelines costs zero forward passes.
        ``built_out`` (when given) is filled with row index -> the
        entry that served the row, letting the caller keep
        warm-built timelines for the next generation.  Both are cache-
        path refinements; the raw path ignores them (worlds are
        re-encoded, still as one shared batch).

        Returns the context plus per-row target columns.  The assembled
        arrays are copies, so the backward passes run outside the lock.
        """
        if self.stream_caches.enabled:
            return self._assemble_rows_cached(rows, local_entries,
                                              built_out)
        return self._assemble_rows_raw(rows)

    # invariant: holds-lock
    def _assemble_rows_cached(self, rows: Sequence[_ContextRow],
                              local_entries: Optional[Dict[int, object]]
                              = None,
                              built_out: Optional[Dict[int, object]] = None
                              ) -> Tuple[MultiTargetContext, np.ndarray]:
        store = self.stream_caches
        # Windowed serving: each row's context is the anchored suffix of
        # its history; the cached entry (if any) must sit at the same
        # anchor — a stale anchor means the window slid since the entry
        # was built, so it is rebuilt from the current window slice.
        lengths = [row.history.length - row.start for row in rows]

        entries = {}
        missing = {}
        slot_of: List[object] = []
        for index, (row, length) in enumerate(zip(rows, lengths)):
            if length == 0:
                slot_of.append(None)
                continue
            if local_entries is not None and index in local_entries:
                # Caller-owned pre-built entry (a clone-extended recourse
                # world): private to this row, never touches the store.
                slot = ("local", index)
                slot_of.append(slot)
                entries[slot] = local_entries[index]
                continue
            # Rows with the same cache slot and anchor share one entry;
            # detached rows (edited histories) are always private.
            slot = ((row.cache_key, row.start)
                    if row.cache_key is not None else ("row", index))
            slot_of.append(slot)
            if slot in entries or slot in missing:
                continue
            # Only the canonical serving anchor may touch the store: an
            # explain row whose target-relative anchor trails the
            # serving anchor must neither evict nor overwrite the entry
            # the score path keeps extending.
            canonical = (row.cache_key is not None and row.start
                         == self._window_start(row.history.length))
            entry = store.get(row.cache_key) \
                if row.cache_key is not None else None
            if entry is not None and not entry.covers(
                    row.start, row.history.length):
                if canonical:
                    store.discard(row.cache_key)
                entry = None
            if entry is None:
                missing[slot] = (row.history.suffix(row.start) if row.start
                                 else row.history, row.start,
                                 row.cache_key if canonical else None)
            else:
                entries[slot] = entry
        if missing:
            built = build_stream_caches(
                self.model, [suffix for suffix, _, _ in missing.values()])
            for (slot, (_, start, cache_key)), entry in zip(missing.items(),
                                                            built):
                entry.anchor = start
                # Keep a batch-local reference: the store may evict the
                # entry immediately under a tiny byte budget, but this
                # request still needs it.
                entries[slot] = entry
                if cache_key is not None:
                    store.put(cache_key, entry)
        if built_out is not None:
            for index, slot in enumerate(slot_of):
                if slot is not None:
                    built_out[index] = entries[slot]

        count = len(rows)
        width = max(length + (1 if row.probe is not None else 0)
                    for row, length in zip(rows, lengths))
        dim = self.model.config.dim
        responses = np.zeros((count, width), dtype=np.int64)
        mask = np.zeros((count, width), dtype=bool)
        question_vectors = np.zeros((count, width, dim))
        # Under "-mono" all base streams coincide (single cached row):
        # alias one padded array instead of filling three copies.
        base_names = (FORWARD_BASES if self.model.config.use_monotonicity
                      else FORWARD_BASES[:1])
        streams = {name: np.zeros((count, width, dim))
                   for name in base_names}
        for name in FORWARD_BASES[len(base_names):]:
            streams[name] = streams[FORWARD_BASES[0]]
        cols = np.empty(count, dtype=np.int64)
        embedder = self.model.generator.embedder
        for index, (row, length) in enumerate(zip(rows, lengths)):
            if row.probe is not None:
                mask[index, :length + 1] = True
                question_vectors[index, length] = question_vector_for(
                    embedder, row.probe[0], row.probe[1])
                cols[index] = length
            else:
                # Explain row: the last recorded response is the target.
                mask[index, :length] = True
                cols[index] = length - 1
            if length == 0:
                continue
            responses[index, :length] = \
                row.history.view()[1][row.start:]
            entry = entries[slot_of[index]]
            question_vectors[index, :length] = \
                entry.question_vectors[:length]
            for name in base_names:
                streams[name][index, :length] = entry.stream_for(name)[:length]

        # Questions/concepts are never read once the fused question
        # vectors are injected; placeholder arrays keep the Batch shape.
        base = Batch(
            questions=np.zeros((count, width), dtype=np.int64),
            responses=responses,
            concepts=np.full((count, width, 1), PAD_ID, dtype=np.int64),
            concept_counts=np.ones((count, width), dtype=np.int64),
            mask=mask,
        )
        context = MultiTargetContext(self.model, base,
                                     question_vectors=question_vectors,
                                     forward_streams=streams)
        return context, cols

    # invariant: holds-lock
    def _assemble_rows_raw(self, rows: Sequence[_ContextRow]
                           ) -> Tuple[MultiTargetContext, np.ndarray]:
        """Cache-disabled fallback: raw batch, context-encoded streams.

        The golden-reference mode the parity suite drives against the
        cached path — forward streams are computed by the context from
        the real question/concept ids, still as one shared batch (the
        padding itself is the store-independent
        :func:`repro.serve.history.assemble_padded`).
        """
        histories = [HistoryWindow(row.history, row.start) if row.start
                     else row.history for row in rows]
        base, cols = assemble_padded(histories,
                                     [row.probe for row in rows])
        context = MultiTargetContext(self.model, base)
        return context, cols

    def _score_context(self, context: MultiTargetContext,
                       row_indices: np.ndarray,
                       cols: np.ndarray) -> np.ndarray:
        """Run the per-request backward passes, column-banded and
        optionally threaded on the persistent pool (chunks are
        independent)."""
        rows = np.asarray(row_indices, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        scores = np.empty(len(cols), dtype=np.float64)

        def score_chunk(chunk: np.ndarray) -> None:
            scores[chunk] = context.scores_for(rows[chunk], cols[chunk])

        chunks = column_banded_chunks(cols, self.target_batch)
        self._obs_forward_calls.inc()
        self._obs_worker_tasks.inc(len(chunks))
        map_chunks(score_chunk, chunks, self.workers,
                   executor=self._executor)
        return scores

    def _score_rows(self, rows: Sequence[_ContextRow],
                    local_entries: Optional[Dict[int, object]] = None
                    ) -> Tuple[np.ndarray, Dict[int, object]]:
        """Score heterogeneous rows as **one** shared batch.

        The building block of the recourse search, the recommend value
        worlds and the monotonicity report: assemble under the engine
        lock (one warm-build pass for whatever ``local_entries`` does
        not already cover), score every row's backward pass outside it.
        Returns the per-row scores plus the row index -> stream-cache
        entry map of the batch (empty with caching disabled, where
        worlds are raw re-encodes instead).
        """
        built: Dict[int, object] = {}
        with no_grad():
            with self._lock:
                context, cols = self._assemble_rows(
                    rows, local_entries=local_entries, built_out=built)
            scores = self._score_context(context, np.arange(len(rows)),
                                         cols)
        return scores, built

    @_deprecated_shim("Service.execute(ScoreQuery(...))")
    def score(self, student_id, question_id: int,
              concept_ids: Sequence[int]) -> float:
        """Synchronous single score (still served by the batched path).

        Returns P(correct) in (0, 1) for ``student_id`` answering
        ``question_id`` next; raises ``ValueError`` on out-of-vocabulary
        ids.  Unknown students score from an empty context (0.5).
        """
        return float(self.score_batch(
            [ScoreRequest(student_id, question_id, tuple(concept_ids))])[0])

    # ------------------------------------------------------------------
    # Interpretation endpoints
    # ------------------------------------------------------------------
    @_deprecated_shim("Service.execute(ExplainQuery(...))")
    def influences(self, student_id):
        """Response influences of the student's history on their latest
        response (the engine-side view of the paper's Fig. 3 readout).

        Deprecation shim over the facade: executes a typed
        :class:`~repro.serve.protocol.ExplainQuery` and returns the
        reply's full :class:`~repro.core.influence.InfluenceComputation`
        (new code should use ``engine.service.execute`` and consume the
        typed, wire-safe :class:`~repro.serve.protocol.ExplainReply`).
        With a serving window the influences cover the windowed context
        only — positions the window slid past no longer contribute, which
        mirrors exactly what a windowed :meth:`score` conditions on.

        Raises ``ValueError`` when fewer than two responses are recorded.
        """
        from .protocol import ExplainQuery, is_error
        reply = self.service.execute(ExplainQuery(student_id,
                                                  model=self.name))
        if is_error(reply):
            raise ValueError(reply.message)
        return reply.computation

    @_deprecated_shim("Service.execute(RecommendQuery(...))")
    def recommend(self, student_id, candidates: Sequence[ScoreRequest],
                  top_k: int = 5, target_success: float = 0.6,
                  value_weight: float = 1.0, horizon: int = 4):
        """Batched next-question recommendation.

        Deprecation shim over the facade: candidates become a typed
        :class:`~repro.serve.protocol.RecommendQuery` and the reply's
        items convert back to :class:`~repro.interpret.recommendation
        .QuestionRecommendation` objects, best first (at most
        ``top_k``).  Raises ``ValueError`` on invalid candidate ids or
        an empty history.
        """
        from repro.interpret.recommendation import QuestionRecommendation
        from .protocol import CandidateQuestion, RecommendQuery, is_error
        if not candidates:
            return []
        reply = self.service.execute(RecommendQuery(
            student_id,
            tuple(CandidateQuestion(c.question_id, tuple(c.concept_ids))
                  for c in candidates),
            top_k=top_k, target_success=target_success,
            value_weight=value_weight, horizon=horizon, model=self.name))
        if is_error(reply):
            raise ValueError(reply.message)
        return [QuestionRecommendation(
            question_id=item.question_id, concept_ids=item.concept_ids,
            success_probability=item.success_probability,
            value=item.value, score=item.score) for item in reply.items]

    def _snapshot_window(self, history) -> Tuple[np.ndarray, ...]:
        """Copied arrays of the student's anchored window (lock held).

        The recommendation scheduler scores assumed-answer worlds
        *after* the engine lock is released; the copies pin the exact
        context the coalesced success-probability probes were admitted
        against, so a concurrent ``record`` can never tear a
        recommendation across two history states.
        """
        start = self._window_start(history.length)
        return tuple(a[start:].copy() for a in history.view())

    def _warm_root(self, student_id, length: int):
        """Clone of the student's warm stream-cache entry, or ``None``.

        The shared root test of every hypothetical-world read (recourse
        practice worlds, recommend value worlds): the stored entry is
        usable only when it sits at the serving window anchor of a
        ``length``-long history and covers exactly that history — a
        window slide, an eviction, or a record landing after admission
        forfeits the warm start.  The clone is taken under the engine
        lock and is private to the caller.
        """
        start = self._window_start(length)
        with self._lock:
            entry = self.stream_caches.peek(student_id)
            if entry is not None and entry.covers(start, length):
                return entry.clone()
        return None

    def _recommend_values(self, snapshot: Tuple[np.ndarray, ...],
                          candidates, horizon: int,
                          root_entry=None) -> np.ndarray:
        """Counterfactual question values for candidates (Sec. V-C).

        The value half of the recommendation workload: for each
        candidate and each assumed answer (correct/incorrect), re-ask
        the ``horizon`` most recent questions of the snapshotted window
        and measure how far the two assumed worlds pull those re-asked
        scores apart.  The success probabilities are *not* computed
        here — the facade folds those probes into its shared mixed-type
        read batch.

        Each of the ``2 * len(candidates)`` worlds is the snapshot plus
        the candidate answered 1 or 0; its ``horizon`` probe rows share
        one entry that clone-extends ``root_entry`` (a warm entry
        covering exactly the snapshot, see :meth:`_warm_root`) by the
        candidate — every world in one batched encoder step
        (:meth:`~repro.serve.forward_cache.StudentStreamCache.fork`),
        zero forward passes.  Without a root the snapshot is warm-built
        once, never per row.  Every world row goes through
        :meth:`_score_rows` as one shared batch; with caching disabled
        that is the raw re-encoding path, the golden reference.
        """
        questions, responses, concepts, counts = snapshot
        n = len(questions)
        recent = range(max(0, n - horizon), n)
        if not recent or not candidates:
            return np.zeros(len(candidates))
        probes = [(int(questions[p]),
                   tuple(int(c) for c in concepts[p, :counts[p]]))
                  for p in recent]
        width = max([concepts.shape[1]]
                    + [len(c.concept_ids) for c in candidates])
        rows: List[_ContextRow] = []
        for candidate in candidates:
            ids = candidate.concept_ids
            for assumed in (1, 0):
                world_concepts = np.full((n + 1, width), PAD_ID,
                                         dtype=np.int64)
                world_concepts[:n, :concepts.shape[1]] = concepts
                world_concepts[n, :len(ids)] = ids
                world = ArrayHistory(
                    None, np.append(questions, candidate.question_id),
                    np.append(responses, assumed), world_concepts,
                    np.append(counts, len(ids)))
                rows.extend(_ContextRow(world, 0, probe) for probe in probes)
        with self._lock:
            model = self.model
            if root_entry is None and self.stream_caches.enabled:
                root_entry = build_stream_caches(
                    model, [ArrayHistory(None, *snapshot)])[0]
        local = None
        if root_entry is not None:
            generator = model.generator
            embedder = generator.embedder
            vectors = [question_vector_for(embedder, c.question_id,
                                           c.concept_ids)
                       for c in candidates]
            contents = [base_contents(np.asarray(assumed),
                                      model.config.use_monotonicity)
                        for assumed in (1, 0)]
            # World order matches the rows: candidate-major, then
            # assumed answer 1 before 0.
            worlds = root_entry.fork(
                generator.encoder,
                np.stack([v for v in vectors for _ in contents]),
                np.stack(contents * len(candidates)),
                embedder.response_embedding.weight.data)
            local = {index: worlds[index // len(probes)]
                     for index in range(len(rows))}
        scores, _ = self._score_rows(rows, local_entries=local)
        # (candidate, assumed answer, re-asked question)
        scores = scores.reshape(len(candidates), 2, len(probes))
        return np.abs(scores[:, 0] - scores[:, 1]).mean(axis=1)
