"""Vectorized multi-target inference: the fast path of ``predict_dataset``.

The legacy evaluation protocol materializes one re-collated prefix batch
per target position, so a sequence of length ``T`` costs O(T^2) collation
work and runs ``4T`` full encoder rows (4 counterfactual variants per
target).  This module restructures that work around three observations:

1. **Collate once.**  ``expand_targets`` semantics: a target at column
   ``c`` is a row of the sequence's single collated batch whose mask is
   truncated after ``c``.  The mask-aware encoders make a truncated row
   bit-compatible with the exact prefix batch (see
   :class:`repro.nn.LSTM` and the attention key masks).

2. **Forward streams are target-independent.**  Eq. 25's forward state at
   position ``j`` only reads inputs ``<= j``.  For every counterfactual
   variant the content below the target is a fixed transform of the
   factual row (factual for ``F+``/``F-``, correct-masked for ``CF-``,
   incorrect-masked for ``CF+``) — independent of *which* column is the
   target.  So one forward pass over each of the three base rows serves
   every target of the sequence, and the question/concept embeddings are
   computed once per sequence instead of once per variant row.

3. **Backward streams compute only what Eq. 12 reads.**  Eq. 12 sums
   ``F+ - CF-`` over the factual-correct history and ``CF+ - F-`` over
   the factual-incorrect history, so each (variant, target) *lane* is
   needed at about half its positions; the encoder's
   :meth:`~repro.core.encoders.BidirectionalEncoder.backward_at`
   returns backward states at exactly those (lane, position) pairs, and
   only they reach the head.  The attention encoders also share the
   first block across the targets of a row: a lane's query at ``p``
   attends keys ``[p, c-1]`` of its base row, the same for every target
   past ``p``, plus the one intervened key at ``c``.  Those keys are
   projected, scored and exponentiated once per (row, base) into
   online-softmax statistics (:func:`repro.nn.softmax_stats`), and each
   lane merges its own key in exactly
   (:func:`repro.nn.merge_softmax_stats`).  The LSTM (dkt) keeps one
   backward recurrence per lane.

Targets are processed in column-sorted chunks truncated to the chunk's
longest target, so a target at column ``c`` pays O(c) recurrence steps
(O(c^2) attention) like its exact prefix would, while sharing one stacked
generator pass with ``target_batch - 1`` neighbours.  The evaluation
sweep tiles each group's targets by rows as well as columns
(:func:`row_tiled_chunks`), so the rows of a chunk carry several
targets each and share their first-block prefix among them.

Long histories can additionally be scored over a sliding ``window``: a
target whose history exceeds the window is re-based onto its anchored
window slice (:func:`repro.core.masking.window_start`,
:func:`repro.data.expand_windowed_targets`) and scored exactly as if the
history had been truncated there — the chunks of windowed targets are
all near window-width, so the column banding respects window boundaries
by construction.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data import (Batch, KTDataset, collate, expand_targets,
                        expand_windowed_targets)
from repro import nn
from repro.tensor import Tensor, sigmoid_array

from .encoders import InterventionRows
from .influence import compute_influences
from .masking import (COUNTERFACTUAL_VARIANTS, MASKED, VariantSet,
                      window_starts)

# variant -> (forward-stream base row, intervention value at the target)
VARIANT_BASES: Dict[str, Tuple[str, int]] = {
    "f_plus": ("factual", 1),
    "cf_minus": ("correct_masked", 0),
    "f_minus": ("factual", 0),
    "cf_plus": ("incorrect_masked", 1),
}

FORWARD_BASES = ("factual", "correct_masked", "incorrect_masked")

# variant -> the Eq. 12 index set its probabilities are read on: Δ⁺ pairs
# F+ with CF- over the correct history, Δ⁻ pairs CF+ with F- over the
# incorrect history.
VARIANT_READS: Dict[str, str] = {
    "f_plus": "correct",
    "cf_minus": "correct",
    "f_minus": "incorrect",
    "cf_plus": "incorrect",
}


class MultiTargetContext:
    """Target-independent state for one collated group of sequences.

    Built once per group (inside the caller's ``eval``/``no_grad`` scope):
    the fused question/concept embeddings and the three shared forward
    encoder streams.  ``scores_for`` then prices any subset of
    (row, target-column) pairs against this cache.
    """

    def __init__(self, model, base: Batch,
                 question_vectors: np.ndarray = None,
                 forward_streams: Dict[str, np.ndarray] = None):
        """``question_vectors`` / ``forward_streams`` inject precomputed
        values (the serving layer's per-student incremental caches —
        :mod:`repro.serve.forward_cache`); both must cover ``base``'s
        full ``(B, L)`` grid.  Omitted, they are computed here.
        """
        self.base = base
        generator = model.generator
        self.normalization = model.config.score_normalization
        self.use_monotonicity = model.config.use_monotonicity
        if question_vectors is None:
            question_vectors = generator.embedder.question_vectors(base).data
        self.question_vectors = question_vectors
        real = base.mask
        responses = base.responses
        if self.use_monotonicity:
            self.base_responses = {
                "factual": responses,
                "correct_masked": np.where(real & (responses == 1),
                                           MASKED, responses),
                "incorrect_masked": np.where(real & (responses == 0),
                                             MASKED, responses),
            }
        else:
            # The "-mono" ablation keeps every non-intervened response
            # factual, so all variants share the factual forward stream.
            self.base_responses = {name: responses for name in FORWARD_BASES}
        if forward_streams is not None:
            missing = set(FORWARD_BASES) - set(forward_streams)
            if missing:
                raise KeyError(f"injected forward streams missing "
                               f"{sorted(missing)}")
            self.forward_streams = forward_streams
        else:
            self.forward_streams = {}
            encoded = {}
            for name in FORWARD_BASES:
                content = self.base_responses[name]
                token = id(content)  # all three alias one array in "-mono"
                if token not in encoded:
                    interactions = Tensor(self.question_vectors) \
                        + generator.embedder.response_embedding(content)
                    encoded[token] = generator.encoder.forward_stream(
                        interactions, mask=base.mask).data
                self.forward_streams[name] = encoded[token]
        self._generator = generator

    def scores_for(self, row_indices: np.ndarray,
                   target_cols: np.ndarray) -> np.ndarray:
        """Influence scores for each (row, target-column) pair.

        ``row_indices[k]`` picks a row of the context's base batch and
        ``target_cols[k]`` the column to score there (a real response,
        or the assembled probe column in serving).  Returns one score in
        (0, 1) per pair; raises ``ValueError`` when a target lands on a
        padded position.
        """
        return self.influences_for(row_indices, target_cols).scores

    def influences_for(self, row_indices: np.ndarray,
                       target_cols: np.ndarray):
        """Full per-position influence quantities for each target pair.

        Same shared-forward-stream pricing as :meth:`scores_for` but
        returns the :class:`~repro.core.influence.InfluenceComputation`
        itself — per-position Δ grids, Δ⁺/Δ⁻ totals, scores — which is
        what the serving layer's explanation queries itemize.  Grids are
        truncated to ``max(target_cols) + 1`` columns; row ``k`` of the
        result corresponds to pair ``k``.

        Only the probabilities Eq. 12 reads are computed: F⁺/CF⁻ at the
        factual-correct history positions, CF⁺/F⁻ at the
        factual-incorrect ones.  The variant grids are zero elsewhere,
        where the Δ grids are zero anyway.
        """
        rows = np.asarray(row_indices)
        cols = np.asarray(target_cols)
        if not self.base.mask[rows, cols].all():
            raise ValueError("every target position must be a real response")
        generator = self._generator
        count = len(rows)
        width = int(cols.max()) + 1
        columns = np.arange(width)[None, :]
        history = self.base.mask[rows, :width] & (columns < cols[:, None])
        responses = self.base.responses[rows, :width]
        index_sets = {"correct": history & (responses == 1),
                      "incorrect": history & (responses == 0)}

        # One interaction row per (row of the call, distinct base
        # content); the lanes' backward rows differ from these only at
        # their target column.
        call_rows, target_rows = np.unique(rows, return_inverse=True)
        questions = self.question_vectors[call_rows, :width]
        embedding = generator.embedder.response_embedding
        bases, slots = [], {}
        for name in FORWARD_BASES:
            content = self.base_responses[name]
            if id(content) not in slots:  # "-mono": one shared content
                slots[id(content)] = len(bases)
                bases.append(questions
                             + embedding(content[call_rows, :width]).data)
        base_of = {name: slots[id(self.base_responses[name])]
                   for name in FORWARD_BASES}
        inputs = InterventionRows(
            bases=np.stack(bases),
            mask=self.base.mask[call_rows, :width],
            rows=target_rows.reshape(-1), cols=cols,
            interventions=self.question_vectors[rows, cols][:, None, :]
            + embedding.weight.data[None, :2],
            variant_bases=np.array([base_of[VARIANT_BASES[name][0]]
                                    for name in COUNTERFACTUAL_VARIANTS]),
            variant_answers=np.array([VARIANT_BASES[name][1]
                                      for name in COUNTERFACTUAL_VARIANTS]))

        # Eq. 12 reads: one (lane, history position) pair per term.
        reads = [np.nonzero(index_sets[VARIANT_READS[name]])
                 for name in COUNTERFACTUAL_VARIANTS]
        targets = np.concatenate([t for t, _ in reads])
        positions = np.concatenate([i for _, i in reads])
        lanes = np.concatenate([v * count + t
                                for v, (t, _) in enumerate(reads)])
        future = generator.encoder.backward_at(inputs, lanes, positions + 1)
        past = np.concatenate([
            self.forward_streams[VARIANT_BASES[name][0]][
                rows[t], np.maximum(i - 1, 0)]
            for name, (t, i) in zip(COUNTERFACTUAL_VARIANTS, reads)])
        past[positions == 0] = 0.0  # h_0 has no forward part (Eq. 25)
        hidden = past + future
        logits = nn.in_row_blocks(
            lambda features: generator.head(Tensor(features)).data,
            np.concatenate([hidden,
                            self.question_vectors[rows[targets], positions]],
                           axis=-1))
        read_probabilities = sigmoid_array(logits[:, 0])

        per_variant = {}
        offset = 0
        for name, (t, i) in zip(COUNTERFACTUAL_VARIANTS, reads):
            grid = np.zeros((count, width))
            grid[t, i] = read_probabilities[offset:offset + len(t)]
            offset += len(t)
            per_variant[name] = Tensor(grid)
        # compute_influences reads only the index sets; no variant row
        # is ever materialized here.
        variants = VariantSet({}, cols, history, index_sets["correct"],
                              index_sets["incorrect"])
        return compute_influences(per_variant, variants,
                                  normalization=self.normalization)


def column_banded_chunks(cols: np.ndarray, target_batch: int
                         ) -> List[np.ndarray]:
    """Split request indices into column-banded chunks.

    Chunks grow over column-sorted requests until ``target_batch``
    members or until the next request's column would pad the whole chunk
    by more than ~25%, whichever comes first.  Ragged serving batches
    then pay for their own history lengths, not the longest request's.
    Chunks are mutually independent — the ``workers`` thread pools in
    :func:`score_batch_targets` / :func:`predict_dataset_fast` exploit
    exactly this.
    """
    order = np.argsort(cols, kind="stable")
    chunks: List[np.ndarray] = []
    start = 0
    while start < len(order):
        narrowest = int(cols[order[start]]) + 1
        end = start + 1
        while (end < len(order) and end - start < target_batch
               and cols[order[end]] < 1.25 * narrowest + 2):
            end += 1
        chunks.append(order[start:end])
        start = end
    return chunks


def row_tiled_chunks(indices: np.ndarray, rows: np.ndarray,
                     target_batch: int) -> List[np.ndarray]:
    """Split column-sorted targets of one group into row-by-column tiles.

    Rows are taken in blocks of ``isqrt(target_batch)``, and each
    block's targets are cut into ``target_batch`` pieces in column
    order, so a chunk holds several targets of each of its rows.  The
    attention encoders score every target of a row against one shared
    first-block prefix (:meth:`MultiTargetContext.influences_for`), so
    a row with many targets in a chunk pays for its prefix once.
    """
    blocks = rows[indices] // max(math.isqrt(target_batch), 1)
    chunks: List[np.ndarray] = []
    for block in np.unique(blocks):
        members = indices[blocks == block]
        chunks.extend(members[start:start + target_batch]
                      for start in range(0, len(members), target_batch))
    return chunks


def map_chunks(worker, chunks, workers: int, executor=None):
    """Run ``worker`` over every chunk, optionally on a thread pool.

    NumPy releases the GIL inside the hot gemm/reduction kernels, so
    chunk-level threads scale on multi-core boxes without any change to
    the numerics (each chunk's arithmetic is untouched, merely
    concurrent).  ``workers <= 1`` stays on the caller's thread.

    ``executor`` lends a *persistent* ``ThreadPoolExecutor`` (the
    serving engine keeps one alive across calls — pool spin-up costs
    more than a small serving batch does); without one, a transient
    pool is created and torn down here.  The executor is only borrowed:
    it is never shut down by this function, and sharing one across
    concurrent callers is safe.

    The grad flag is thread-local (see :func:`repro.tensor.no_grad`),
    so pool threads do not inherit the caller's inference scope — each
    worker enters its own ``no_grad`` (this path is inference-only).
    """
    if workers <= 1 or len(chunks) <= 1:
        for chunk in chunks:
            worker(chunk)
        return
    from repro.tensor import no_grad

    def run_no_grad(chunk):
        with no_grad():
            return worker(chunk)

    if executor is not None:
        # Materialize to surface the first worker exception, if any.
        list(executor.map(run_no_grad, chunks))
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
        list(pool.map(run_no_grad, chunks))


def score_batch_targets(model, base: Batch, target_cols,
                        target_batch: int = 64,
                        workers: int = 1,
                        window: Optional[int] = None,
                        window_hop: int = 1,
                        executor=None) -> np.ndarray:
    """Influence scores for one explicit target per row of ``base``.

    The serving-shaped entry point: each row is one student/request and
    ``target_cols[k]`` the column to score in row ``k``.  Unlike the
    per-length bucketing of the legacy path — which degenerates into
    near-singleton batches when every student sits at a different history
    length — requests are chunked by sorted target column with truncated
    masks, so arbitrary mixes of lengths share full-width stacked passes.

    Parameters
    ----------
    model:
        A :class:`repro.core.RCKT` in eval mode; the caller is also
        responsible for the ``no_grad`` scope.
    base:
        Collated batch with one row per request.
    target_cols:
        ``(B,)`` target column per row; must index a real response.
    target_batch:
        Cap on how many targets share one stacked generator pass.
    workers:
        ``> 1`` scores the (independent) chunks on that many threads —
        on ``executor`` when a persistent pool is lent (see
        :func:`map_chunks`), else on a per-call pool.
    window / window_hop:
        Enable sliding-window contexts: a target whose history exceeds
        ``window`` steps is scored over the re-based slice starting at
        :func:`repro.core.masking.window_start` of its history length —
        exactly as if the history had been truncated to that window and
        re-collated.  Windowed targets all land in near-``window``-wide
        chunks, so the column banding naturally respects window
        boundaries.  ``None`` (default) scores full histories.

    Returns
    -------
    np.ndarray
        Scores in row order.

    Raises
    ------
    ValueError
        On row/target count mismatch, targets at padded positions, or an
        invalid ``(window, window_hop)`` pair.
    """
    cols = np.asarray(target_cols, dtype=np.int64)
    if base.batch_size != len(cols):
        raise ValueError("one target column per row required")
    if len(cols) == 0:
        return np.array([])
    # History length at column c is c (positions 0..c-1); the target
    # itself rides on top of the window.  Chunking runs on the re-based
    # columns, so windowed targets band together at near-window widths
    # and the re-basing gather below stays per-chunk (rows whose history
    # fits the window are never copied twice).
    starts = window_starts(cols, window, window_hop) \
        if window is not None else None
    effective_cols = cols - starts if starts is not None else cols
    scores = np.empty(len(cols), dtype=np.float64)

    def score_chunk(chunk: np.ndarray) -> None:
        chunk_cols = effective_cols[chunk]
        width = int(chunk_cols.max()) + 1
        if starts is not None and starts[chunk].any():
            sub_base, sub_cols = expand_windowed_targets(
                base, chunk, cols[chunk], starts[chunk])
            sub_base = sub_base.truncated(width)
        else:
            sub_base = expand_targets(base.truncated(width), chunk,
                                      chunk_cols)
            sub_cols = chunk_cols
        context = MultiTargetContext(model, sub_base)
        scores[chunk] = context.scores_for(np.arange(len(chunk)), sub_cols)

    map_chunks(score_chunk,
               column_banded_chunks(effective_cols, target_batch),
               workers, executor=executor)
    return scores


def score_targets(model, sequences, target_cols, target_batch: int = 64,
                  window: Optional[int] = None, window_hop: int = 1
                  ) -> np.ndarray:
    """:func:`score_batch_targets` over a ragged list of sequences."""
    if len(sequences) != len(np.atleast_1d(target_cols)):
        raise ValueError("one target column per sequence required")
    if len(sequences) == 0:
        return np.array([])
    return score_batch_targets(model, collate(sequences), target_cols,
                               target_batch=target_batch, window=window,
                               window_hop=window_hop)


def predict_dataset_fast(model, dataset: KTDataset, batch_size: int = 32,
                         stride: int = 1, target_batch: int = 64,
                         workers: int = 1, window: Optional[int] = None,
                         window_hop: int = 1, executor=None
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """(labels, scores) over every evaluated target, collating each
    sequence exactly once.

    ``workers > 1`` spreads each group's target chunks over that many
    threads; chunks share the group's read-only
    :class:`MultiTargetContext` and write disjoint output slots, so the
    result is identical to the sequential sweep in value *and* order.

    ``window`` bounds every target's history to its last ``window`` steps
    (see :func:`repro.core.masking.window_start` for the ``window_hop``
    anchoring): targets whose history fits the window share the group's
    forward-stream context exactly as before, while longer-history
    targets are re-based onto their window slice and scored in dedicated
    near-``window``-wide chunks — identical to evaluating the truncated
    histories from scratch.

    The caller is responsible for ``eval`` mode and ``no_grad`` (see
    :meth:`repro.core.RCKT.predict_dataset`, which wraps this).
    """
    if target_batch <= 0:
        raise ValueError("target_batch must be positive")
    min_history = model.config.min_history
    # Sorting by length groups similar-length sequences into one padded
    # batch, bounding the padding waste of the shared collation.
    ordered = sorted((s for s in dataset if len(s) > min_history), key=len)
    labels: List[np.ndarray] = []
    scores: List[np.ndarray] = []
    for start in range(0, len(ordered), batch_size):
        group = ordered[start:start + batch_size]
        base = collate(group)
        rows_list: List[int] = []
        cols_list: List[int] = []
        for row, sequence in enumerate(group):
            for col in range(min_history, len(sequence), stride):
                rows_list.append(row)
                cols_list.append(col)
        rows = np.asarray(rows_list, dtype=np.int64)
        cols = np.asarray(cols_list, dtype=np.int64)
        # Column-sorted chunks can be truncated to the chunk's longest
        # target, so short-history targets never pay full-length encoding.
        order = np.argsort(cols, kind="stable")
        rows, cols = rows[order], cols[order]
        labels.append(base.responses[rows, cols].astype(np.float64))
        starts = window_starts(cols, window, window_hop)
        near = np.flatnonzero(starts == 0)
        far = np.flatnonzero(starts > 0)
        # The group-wide context encodes full-length forward streams;
        # skip it when the window pushes every target off of it.
        context = MultiTargetContext(model, base) if len(near) else None
        group_scores = np.empty(len(rows), dtype=np.float64)

        def score_chunk(indices: np.ndarray, context=context, base=base,
                        rows=rows, cols=cols, starts=starts,
                        out=group_scores) -> None:
            if starts[indices[0]] == 0:
                out[indices] = context.scores_for(rows[indices],
                                                  cols[indices])
                return
            sub_base, sub_cols = expand_windowed_targets(
                base, rows[indices], cols[indices], starts[indices])
            sub_context = MultiTargetContext(model, sub_base)
            out[indices] = sub_context.scores_for(
                np.arange(len(indices)), sub_cols)

        chunks = row_tiled_chunks(near, rows, target_batch) + [
            far[chunk:chunk + target_batch]
            for chunk in range(0, len(far), target_batch)]
        map_chunks(score_chunk, chunks, workers, executor=executor)
        scores.append(group_scores)
    if not labels:
        return np.array([]), np.array([])
    return np.concatenate(labels), np.concatenate(scores)
