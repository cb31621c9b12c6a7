"""Bidirectional knowledge-state encoders (Eq. 25, Sec. V-A4).

The response influence approximation requires the encoder to see both past
and future context while *strictly excluding the position being predicted*:

    h_i = fwdEnc(A_{1:i-1}) + bwdEnc(A_{i+1:t+1})                  (Eq. 25)

Multi-layer subtlety: naively stacking a bidirectional layer leaks the
excluded position — the layer-1 state at ``i-1`` would already contain
backward information flowing through position ``i``.  We therefore keep two
*independent directional streams* through every layer (forward layers only
ever read forward-stream states, backward layers only backward-stream
states, as in ELMo's bidirectional LM) and combine them with a one-step
shift only at the very end.  A perturbation test in the suite verifies that
``h_i`` is exactly invariant to the input at position ``i``.

Three adapters mirror the paper's Sec. V-A4:

* ``BiDKTEncoder``  — stacked LSTMs (BiLSTM).
* ``BiSAKTEncoder`` — transformer blocks with directional masks, responses
  as queries.
* ``BiAKTEncoder``  — the same with AKT's monotonic (distance-decay)
  attention, "bi-directional due to the duality of distance".
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import nn
from repro.tensor import Tensor, concat

# Initial capacity of the transformer encoders' sinusoidal positional
# tables.  This is *not* a sequence-length cap: the tables grow
# geometrically on demand (:class:`repro.nn.PositionalEncoding.ensure`),
# so arbitrarily long histories encode exactly — growth only re-derives
# the deterministic sinusoid table, never changes existing rows.  Compute
# still scales with length (quadratically for attention); long-history
# *serving* bounds it with the sliding-window mode instead
# (:func:`repro.core.masking.window_start`, ``InferenceEngine(window=...)``).
MAX_ENCODED_LENGTH = 128


class ForwardStreamState(abc.ABC):
    """Opaque per-row forward-encoder state, extensible one step at a time.

    The forward stream of Eq. 25 is strictly causal, so the state after
    position ``j`` fully determines how positions ``> j`` will encode —
    this is what the serving layer caches per student so ``record()``
    appends a step instead of re-encoding the history
    (:mod:`repro.serve.forward_cache`).  Concrete layouts: LSTM carry
    ``(h, c)`` per layer; attention projected key/value prefixes per
    layer (:class:`repro.nn.KVCache`).
    """

    length: int

    @property
    @abc.abstractmethod
    def nbytes(self) -> int:
        """Approximate resident bytes (drives the serving LRU budget)."""

    @abc.abstractmethod
    def take(self, rows: np.ndarray) -> "ForwardStreamState":
        """Independent copy of the given rows, in order (a row may
        repeat) — extending the copy (or the original) never touches
        the other.  Taking every row is a deep copy; tiling a student's
        base rows once per hypothetical timeline lets one batched
        :meth:`extend_forward_state` step fork the state into many
        timelines instead of re-encoding the shared prefix per
        timeline."""


class LSTMStreamState(ForwardStreamState):
    """Per-layer carry states of a stacked forward LSTM."""

    __slots__ = ("h", "c", "length")

    def __init__(self, h: List[np.ndarray], c: List[np.ndarray],
                 length: int = 0):
        self.h = h
        self.c = c
        self.length = length

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.h) + sum(a.nbytes for a in self.c)

    def take(self, rows: np.ndarray) -> "LSTMStreamState":
        return LSTMStreamState([a[rows] for a in self.h],
                               [a[rows] for a in self.c], self.length)


class AttentionStreamState(ForwardStreamState):
    """Per-layer projected key/value prefixes of a directional stack."""

    __slots__ = ("caches", "length")

    def __init__(self, caches: List[nn.KVCache], length: int = 0):
        self.caches = caches
        self.length = length

    @property
    def nbytes(self) -> int:
        return sum(cache.nbytes for cache in self.caches)

    def take(self, rows: np.ndarray) -> "AttentionStreamState":
        return AttentionStreamState(
            [cache.take(rows) for cache in self.caches], self.length)


@dataclass
class InterventionRows:
    """Backward-stream inputs of one multi-target call, unstacked.

    A *lane* is one (variant, target) backward row: lane ``v * T + t`` is
    row ``rows[t]`` of base content ``variant_bases[v]`` with the
    intervened interaction ``interventions[t, variant_answers[v]]``
    written at column ``cols[t]``, and its mask is ``mask[rows[t]]``
    truncated after that column.  Only the ``T`` targets' two intervened
    vectors differ between lanes of a row, which is what lets the
    attention encoders share the first layer's work across them.
    """

    bases: np.ndarray            # (nb, R, W, D) raw interaction rows
    mask: np.ndarray             # (R, W) real positions
    rows: np.ndarray             # (T,) row of each target
    cols: np.ndarray             # (T,) target column
    interventions: np.ndarray    # (T, 2, D) target interaction, answer 0/1
    variant_bases: np.ndarray    # (V,) base content of each variant
    variant_answers: np.ndarray  # (V,) intervened answer of each variant

    def lane_mask(self) -> np.ndarray:
        """``(V * T, W)`` mask of every lane."""
        width = self.mask.shape[1]
        mask = self.mask[self.rows] & (np.arange(width) <= self.cols[:, None])
        return np.tile(mask, (len(self.variant_bases), 1))

    def lane_inputs(self) -> np.ndarray:
        """``(V * T, W, D)`` stacked interaction rows of every lane."""
        count = len(self.cols)
        lanes = self.bases[self.variant_bases[:, None],
                           self.rows[None, :]].reshape(
            (-1,) + self.bases.shape[2:])
        targets = np.tile(np.arange(count), len(self.variant_bases))
        lanes[np.arange(len(lanes)), self.cols[targets]] = \
            self.interventions[targets,
                               np.repeat(self.variant_answers, count)]
        return lanes


def shift_and_combine(forward_stream: Tensor, backward_stream: Tensor) -> Tensor:
    """``h_i = forward[i-1] + backward[i+1]`` with zeros past the edges.

    The zero contribution at the boundary realizes the paper's rule that
    the first response "directly uses" the backward encoder output (adding
    a zero forward part is the same thing), and symmetrically for the last.
    """
    batch, length, dim = forward_stream.shape
    zeros = Tensor(np.zeros((batch, 1, dim)))
    past = concat([zeros, forward_stream[:, :length - 1, :]], axis=1)
    future = concat([backward_stream[:, 1:, :], zeros], axis=1)
    return past + future


class BidirectionalEncoder(nn.Module, abc.ABC):
    """Maps interaction embeddings ``(B, L, d)`` to hidden states ``h_i``.

    The two directional streams are exposed separately because the
    multi-target fast path exploits an asymmetry of Eq. 25: the *forward*
    stream at position ``j`` only reads inputs ``<= j``, which for every
    counterfactual variant are independent of the target column, so one
    forward pass per sequence serves all of its targets.  Only the
    *backward* stream consumes the intervened target; :meth:`backward_at`
    prices it at just the positions the influence sums read.
    """

    @abc.abstractmethod
    def forward_stream(self, interactions: Tensor,
                       mask: Optional[np.ndarray] = None) -> Tensor:
        """Directional states summarizing inputs ``<= j`` at position ``j``."""

    @abc.abstractmethod
    def backward_stream(self, interactions: Tensor,
                        mask: Optional[np.ndarray] = None) -> Tensor:
        """Directional states summarizing inputs ``>= j`` at position ``j``."""

    def forward(self, interactions: Tensor,
                mask: Optional[np.ndarray] = None) -> Tensor:
        """``mask`` is ``(B, L)`` with True at real positions."""
        return shift_and_combine(self.forward_stream(interactions, mask),
                                 self.backward_stream(interactions, mask))

    @abc.abstractmethod
    def backward_at(self, inputs: InterventionRows, lanes: np.ndarray,
                    positions: np.ndarray) -> np.ndarray:
        """No-grad, eval-mode backward-stream states ``(N, D)`` of lane
        ``lanes[n]`` at position ``positions[n]`` (``1 <= position <=``
        the lane's target column): what :meth:`backward_stream` over
        :meth:`InterventionRows.lane_inputs` would emit there.
        """

    # ------------------------------------------------------------------
    # Incremental forward-stream serving API (no-grad, eval mode)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def new_forward_state(self, rows: int) -> ForwardStreamState:
        """Empty per-row state for incremental forward-stream encoding."""

    @abc.abstractmethod
    def extend_forward_state(self, state: ForwardStreamState,
                             x: np.ndarray) -> np.ndarray:
        """Advance ``state`` by one appended position.

        ``x`` is the ``(rows, dim)`` raw interaction embedding of the new
        position; returns the final-layer forward-stream output at that
        position, exactly what :meth:`forward_stream` would emit there
        (to roundoff) had the whole sequence been re-encoded.
        """

    @abc.abstractmethod
    def forward_stream_with_capture(self, interactions: Tensor,
                                    mask: Optional[np.ndarray] = None
                                    ) -> Tuple[np.ndarray, object]:
        """Batched :meth:`forward_stream` that also captures per-layer
        internals (``capture``), from which :meth:`state_from_capture`
        cuts per-row extensible states — the warm-up path that builds a
        cold student's cache in one vectorized pass.
        """

    @abc.abstractmethod
    def state_from_capture(self, capture: object, row_indices,
                           length: int) -> ForwardStreamState:
        """Extract the state of ``row_indices`` (all of real length
        ``length``) from a :meth:`forward_stream_with_capture` capture.
        Copies: the returned state outlives the batch arrays.
        """


class BiDKTEncoder(BidirectionalEncoder):
    """Stacked bidirectional LSTM (the RCKT-DKT backbone)."""

    def __init__(self, dim: int, layers: int, rng: np.random.Generator,
                 dropout: float = 0.0):
        super().__init__()
        self.forward_layers = nn.ModuleList(
            [nn.LSTM(dim, dim, rng) for _ in range(layers)])
        self.backward_layers = nn.ModuleList(
            [nn.LSTM(dim, dim, rng, reverse=True) for _ in range(layers)])
        self.dropout = nn.Dropout(dropout, rng) if dropout > 0 else None

    def _run_stack(self, layers: nn.ModuleList, x: Tensor,
                   mask: Optional[np.ndarray] = None) -> Tensor:
        # Only thread the mask through the recurrence when it actually
        # truncates rows: an all-True mask is a no-op, and skipping it keeps
        # the exact-length bucket paths free of per-step select overhead.
        if mask is not None and mask.all():
            mask = None
        for i, layer in enumerate(layers):
            x = layer(x, mask=mask)
            if self.dropout is not None and i + 1 < len(layers):
                x = self.dropout(x)
        return x

    def forward_stream(self, interactions: Tensor,
                       mask: Optional[np.ndarray] = None) -> Tensor:
        return self._run_stack(self.forward_layers, interactions, mask=mask)

    def backward_stream(self, interactions: Tensor,
                        mask: Optional[np.ndarray] = None) -> Tensor:
        return self._run_stack(self.backward_layers, interactions, mask=mask)

    def backward_at(self, inputs: InterventionRows, lanes: np.ndarray,
                    positions: np.ndarray) -> np.ndarray:
        """The recurrence runs over every lane; only the gather is
        restricted."""
        stream = self.backward_stream(Tensor(inputs.lane_inputs()),
                                      mask=inputs.lane_mask()).data
        return stream[lanes, positions]

    # ------------------------------------------------------------------
    # Incremental forward-stream serving API
    # ------------------------------------------------------------------
    def new_forward_state(self, rows: int) -> LSTMStreamState:
        h = [np.zeros((rows, layer.hidden_dim))
             for layer in self.forward_layers]
        c = [np.zeros((rows, layer.hidden_dim))
             for layer in self.forward_layers]
        return LSTMStreamState(h, c)

    def extend_forward_state(self, state: LSTMStreamState,
                             x: np.ndarray) -> np.ndarray:
        for index, layer in enumerate(self.forward_layers):
            h, c = layer.step_inference(x, state.h[index], state.c[index])
            state.h[index] = h
            state.c[index] = c
            x = h
        state.length += 1
        return x

    def forward_stream_with_capture(self, interactions: Tensor,
                                    mask: Optional[np.ndarray] = None
                                    ) -> Tuple[np.ndarray, object]:
        x = interactions.data
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.all():
                mask = None
        finals = []
        for layer in self.forward_layers:
            x, h, c = layer.forward_inference_with_state(x, mask)
            finals.append((h, c))
        return x, finals

    def state_from_capture(self, capture, row_indices,
                           length: int) -> LSTMStreamState:
        rows = np.asarray(row_indices)
        h = [layer_h[rows].copy() for layer_h, _ in capture]
        c = [layer_c[rows].copy() for _, layer_c in capture]
        return LSTMStreamState(h, c, length)


def _with_ones(values: np.ndarray) -> np.ndarray:
    """``[values | 1]`` along the last axis (softmax denominator column)."""
    out = np.empty(values.shape[:-1] + (values.shape[-1] + 1,))
    out[..., :-1] = values
    out[..., -1] = 1.0
    return out


class _DirectionalTransformer(nn.Module):
    """A stack of transformer blocks restricted to one direction.

    The mask is *non-strict* within the stream (a position may attend to
    itself): stream state at ``j`` summarizes inputs ``<= j`` (forward) or
    ``>= j`` (backward), and the final one-step shift in
    :func:`shift_and_combine` provides the strict exclusion of Eq. 25.
    """

    def __init__(self, dim: int, heads: int, layers: int,
                 rng: np.random.Generator, dropout: float,
                 monotonic: bool, reverse: bool):
        super().__init__()
        self.reverse = reverse
        self.positions = nn.PositionalEncoding(MAX_ENCODED_LENGTH, dim)
        self.blocks = nn.ModuleList([
            nn.TransformerBlock(dim, heads, rng, dropout=dropout,
                                monotonic=monotonic)
            for _ in range(layers)
        ])

    def forward(self, x: Tensor, mask: Optional[np.ndarray]) -> Tensor:
        length = x.shape[1]
        if self.reverse:
            direction = nn.anti_causal_mask(length, strict=False)
        else:
            direction = nn.causal_mask(length, strict=False)
        allowed = direction[None, None]
        if mask is not None:
            allowed = allowed & mask[:, None, None, :]
        x = self.positions(x)
        for block in self.blocks:
            x = block(x, mask=allowed)
        return x

    def backward_at(self, inputs: InterventionRows, lanes: np.ndarray,
                    positions: np.ndarray) -> np.ndarray:
        """:meth:`BidirectionalEncoder.backward_at` for a backward stack.

        The first block's keys and values over positions ``[p, c-1]``
        belong to the lane's base row, whatever its target: they are
        projected, scored and exponentiated once per (row, base) and
        summed into online-softmax statistics, and each lane's query at
        ``p`` merges those with its own intervened key at ``c``
        (:meth:`_first_block_at`).  With one block that is the whole
        stream.  Deeper stacks scatter the first block's outputs into
        full-width lanes for the middle blocks and run the last block's
        queries only at the requested positions.
        """
        blocks = list(self.blocks)
        if len(blocks) == 1:
            return self._first_block_at(blocks[0], inputs, lanes, positions)
        lane_mask = inputs.lane_mask()
        every_lane, every_position = np.nonzero(lane_mask)
        first = every_position >= 1
        every_lane, every_position = every_lane[first], every_position[first]
        width = lane_mask.shape[1]
        x = np.zeros((len(lane_mask), width, inputs.bases.shape[3]))
        x[every_lane, every_position] = self._first_block_at(
            blocks[0], inputs, every_lane, every_position)
        allowed = nn.anti_causal_mask(width, strict=False)[None] \
            & lane_mask[:, None, :]
        for block in blocks[1:-1]:
            x = block.forward_np(x, allowed[:, None])
        return self._last_block_at(blocks[-1], x, allowed, lanes, positions)

    def _first_block_at(self, block, inputs: InterventionRows,
                        lanes: np.ndarray, positions: np.ndarray
                        ) -> np.ndarray:
        """First-block outputs of the given (lane, position) pairs.

        A lane of target ``t`` at query ``p`` attends keys ``[p, c]``:
        ``[p, c - 1]`` from its base row's online-softmax statistics as
        they stand at column ``c``, and the intervened key ``c``.  The
        statistics carry their own max and the merge rescales to the max
        over the lane's allowed keys, so logits spanning thousands stay
        finite and a score does not depend on what else shares the call.
        """
        attention = block.attention
        heads, head_dim = attention.heads, attention.head_dim
        count_bases, count_rows, width, dim = inputs.bases.shape
        rows, cols = inputs.rows, inputs.cols
        count = len(cols)
        table = self.positions.ensure(width)
        x = inputs.bases + table[:width]
        intervened = inputs.interventions + table[cols][:, None, :]

        # Per (row, base): projections, decayed logits (nb, R, H, W, W)
        # and values with a ones column for the softmax denominator.
        shape = (count_bases, count_rows, width, heads, head_dim)
        q = attention.query_proj.forward_np(x).reshape(-1, heads, head_dim)
        k = attention.key_proj.forward_np(x).reshape(shape).swapaxes(2, 3)
        v = _with_ones(attention.value_proj.forward_np(x).reshape(shape)
                       ).swapaxes(2, 3)
        x = x.reshape(-1, dim)
        keys = np.arange(width)
        logits = attention.scale_logits(
            q.reshape(shape).swapaxes(2, 3) @ k.swapaxes(-1, -2),
            np.abs(keys[:, None] - keys))

        # Keys [p, c - 1] come from the lane's base row.  One masked
        # product covers [p, c0 - 1], c0 being the row's first target
        # column; rows with later targets then fold in keys c0, c0 + 1,
        # ... one online-softmax step at a time, and each target reads
        # the statistics as they stand at its own column.
        everyone = np.arange(count_rows)[:, None]
        first_col = np.full(count_rows, width)
        np.minimum.at(first_col, rows, cols)
        span = int((cols - first_col[rows]).max())
        step_keys = first_col[:, None] + np.arange(span)  # (R, span)
        step_open = step_keys < width
        step_keys = np.minimum(step_keys, width - 1)
        step_open &= inputs.mask[everyone, step_keys]
        # Gathered before the first product overwrites the logits.
        step_logits = logits.transpose(1, 4, 0, 3, 2)[everyone, step_keys]
        step_values = v[:, everyone, :, step_keys]  # (R, span, nb, H, ·)
        first = (keys >= keys[:, None]) \
            & ((keys < first_col[:, None]) & inputs.mask)[:, None, :]
        top, weighted = (np.ascontiguousarray(part.swapaxes(2, 3)) for part
                         in nn.softmax_stats(logits, first[None, :, None], v))

        targets = lanes % count
        variants = lanes // count
        base = inputs.variant_bases[variants]
        at = (base * count_rows + rows[targets]) * width + positions
        steps = (cols - first_col[rows])[targets]
        order = np.argsort(steps, kind="stable")
        bounds = np.searchsorted(steps[order], np.arange(span + 2))
        prefix_top = np.empty((len(lanes), heads, 1))
        prefix_weighted = np.empty((len(lanes), heads, head_dim + 1))
        for step in range(span + 1):
            chosen = order[bounds[step]:bounds[step + 1]]
            prefix_top[chosen] = top.reshape(-1, heads, 1)[at[chosen]]
            prefix_weighted[chosen] = weighted.reshape(
                -1, heads, head_dim + 1)[at[chosen]]
            if step < span:
                allowed = (keys <= step_keys[:, step, None]) \
                    & step_open[:, step, None]
                top, weighted = nn.extend_softmax_stats(
                    top, weighted,
                    np.where(allowed[None, :, :, None, None],
                             step_logits[:, step].swapaxes(0, 1)[..., None],
                             -np.inf),
                    step_values[:, step].swapaxes(0, 1)[:, :, None])

        # The intervened key and value of each (target, answer).
        own = intervened.reshape(-1, dim)
        own_k = attention.key_proj.forward_np(own).reshape(-1, heads,
                                                           head_dim)
        own_v = _with_ones(attention.value_proj.forward_np(own).reshape(
            -1, heads, head_dim))
        target_own = targets * 2 + inputs.variant_answers[variants]
        own_logit = attention.scale_logits(
            np.einsum("nhd,nhd->nh", q[at], own_k[target_own])[..., None,
                                                               None],
            (cols[targets] - positions)[:, None, None, None])[..., 0]
        parts = [(prefix_top, prefix_weighted),
                 (own_logit, own_v[target_own])]
        context = nn.merge_softmax_stats(parts).reshape(len(lanes), dim)
        block_input = x[at]
        at_target = positions == cols[targets]
        block_input[at_target] = own[target_own[at_target]]
        return nn.in_row_blocks(
            lambda x, context: block._residual_ffn_np(
                x, attention.out_proj.forward_np(context)),
            block_input, context)

    @staticmethod
    def _last_block_at(block, x: np.ndarray, allowed: np.ndarray,
                       lanes: np.ndarray, positions: np.ndarray
                       ) -> np.ndarray:
        """Last-block outputs at the given (lane, position) pairs only:
        each lane's requested queries are packed into one padded row
        and attend over the lane's full-width block input ``x``."""
        count = len(x)
        order = np.argsort(lanes, kind="stable")
        per_lane = np.bincount(lanes, minlength=count)
        slot = np.empty(len(lanes), dtype=np.int64)
        slot[order] = np.arange(len(lanes)) \
            - np.repeat(np.cumsum(per_lane) - per_lane, per_lane)
        packed = np.zeros((count, max(int(per_lane.max(initial=0)), 1)),
                          dtype=np.int64)
        packed[lanes, slot] = positions
        query_allowed = allowed[np.arange(count)[:, None], packed]
        context = block.attention.context_np(
            x[np.arange(count)[:, None], packed], x, x,
            query_allowed[:, None], query_positions=packed)
        return nn.in_row_blocks(
            lambda x, context: block._residual_ffn_np(
                x, block.attention.out_proj.forward_np(context)),
            x[lanes, positions], context[lanes, slot])

    def forward_capture(self, x: Tensor, mask: Optional[np.ndarray]
                        ) -> Tuple[np.ndarray, List]:
        """:meth:`forward` that also returns each block's projected
        key/value arrays (forward direction only — the capture feeds the
        serving cache, and only causal streams are extensible)."""
        if self.reverse:
            raise ValueError("key/value capture only applies to the "
                             "forward (causal) stream")
        attentions = [block.attention for block in self.blocks]
        for attention in attentions:
            attention.capture_kv = True
        try:
            out = self.forward(x, mask)
        finally:
            for attention in attentions:
                attention.capture_kv = False
        captured = [attention.last_kv for attention in attentions]
        for attention in attentions:
            attention.last_kv = None
        return out.data, captured


class BiSAKTEncoder(BidirectionalEncoder):
    """Directional transformer pair (the RCKT-SAKT backbone).

    Per Sec. V-A4 the queries are the *responses* (interaction embeddings)
    rather than target questions, i.e. plain directional self-attention
    over the interaction stream.
    """

    monotonic = False

    def __init__(self, dim: int, layers: int, rng: np.random.Generator,
                 heads: int = 2, dropout: float = 0.0):
        super().__init__()
        self.forward_stack = _DirectionalTransformer(
            dim, heads, layers, rng, dropout, self.monotonic, reverse=False)
        self.backward_stack = _DirectionalTransformer(
            dim, heads, layers, rng, dropout, self.monotonic, reverse=True)

    def forward_stream(self, interactions: Tensor,
                       mask: Optional[np.ndarray] = None) -> Tensor:
        return self.forward_stack(interactions, mask)

    def backward_stream(self, interactions: Tensor,
                        mask: Optional[np.ndarray] = None) -> Tensor:
        return self.backward_stack(interactions, mask)

    def backward_at(self, inputs: InterventionRows, lanes: np.ndarray,
                    positions: np.ndarray) -> np.ndarray:
        return self.backward_stack.backward_at(inputs, lanes, positions)

    # ------------------------------------------------------------------
    # Incremental forward-stream serving API
    # ------------------------------------------------------------------
    def new_forward_state(self, rows: int) -> AttentionStreamState:
        """Empty per-row attention state (one K/V prefix per block)."""
        stack = self.forward_stack
        return AttentionStreamState(
            [nn.KVCache(rows, stack.positions.dim) for _ in stack.blocks])

    def extend_forward_state(self, state: AttentionStreamState,
                             x: np.ndarray) -> np.ndarray:
        """Advance the K/V prefixes by one appended position.

        The positional table grows on demand, so extension is never
        length-bounded; the serving layer bounds *memory* instead by
        re-anchoring its window (which rebuilds the state from the
        window slice rather than extending past it).
        """
        position = state.length
        stack = self.forward_stack
        table = stack.positions.ensure(position + 1)
        x = x + table[position]
        for block, cache in zip(stack.blocks, state.caches):
            x = block.step_inference(x, cache)
        state.length += 1
        return x

    def forward_stream_with_capture(self, interactions: Tensor,
                                    mask: Optional[np.ndarray] = None
                                    ) -> Tuple[np.ndarray, object]:
        return self.forward_stack.forward_capture(interactions, mask)

    def state_from_capture(self, capture, row_indices,
                           length: int) -> AttentionStreamState:
        rows = np.asarray(row_indices)
        dim = self.forward_stack.positions.dim
        caches = [
            nn.KVCache(len(rows), dim,
                       keys=keys[rows, :length],
                       values=values[rows, :length])
            for keys, values in capture
        ]
        return AttentionStreamState(caches, length)


class BiAKTEncoder(BiSAKTEncoder):
    """Monotonic-attention variant (the RCKT-AKT backbone).

    The exponential decay acts on ``|i - j|``, which is symmetric, so the
    same mechanism serves both directions — the "duality of distance" the
    paper invokes.
    """

    monotonic = True


def build_encoder(name: str, dim: int, layers: int, rng: np.random.Generator,
                  heads: int = 2, dropout: float = 0.0) -> BidirectionalEncoder:
    """Factory keyed by the paper's encoder names (dkt | sakt | akt)."""
    if name == "dkt":
        return BiDKTEncoder(dim, layers, rng, dropout=dropout)
    if name == "sakt":
        return BiSAKTEncoder(dim, layers, rng, heads=heads, dropout=dropout)
    if name == "akt":
        return BiAKTEncoder(dim, layers, rng, heads=heads, dropout=dropout)
    raise ValueError(f"unknown encoder '{name}' (expected dkt|sakt|akt)")
