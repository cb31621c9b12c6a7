"""Attention layers: scaled dot-product, multi-head, and AKT-style
monotonic (distance-decaying) attention.

SAKT (Pandey & Karypis, 2019) uses standard multi-head attention; AKT
(Ghosh et al., 2020) multiplies attention logits by an exponential decay in
the distance between the query and key positions so older interactions
matter less.  The paper's RCKT-AKT notes that "monotonic attention can also
be made bi-directional due to the duality of distance": we implement the
decay on ``|i - j|`` so the same layer serves both directions.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.tensor import (Tensor, init, is_grad_enabled, masked_softmax,
                          masked_softmax_array)

from .layers import Dropout, Linear
from .module import Module
from .rnn import inference_kernel_enabled


def takes_inference_kernel(module: Module) -> bool:
    """Whether ``module.forward`` should run its raw-array ``forward_np``
    twin: the :func:`repro.nn.inference_kernel` switch is on, no graph
    is being recorded, and the module is in eval mode (dropout off)."""
    return (inference_kernel_enabled() and not is_grad_enabled()
            and not module.training)


def _softplus(x: Tensor) -> Tensor:
    """Numerically adequate softplus for small-magnitude decay parameters."""
    return (x.clip(-30.0, 30.0).exp() + 1.0).log()


def _softplus_array(x: np.ndarray) -> np.ndarray:
    """Raw-NumPy twin of :func:`_softplus` (same ops, same roundoff)."""
    return np.log(np.exp(np.clip(x, -30.0, 30.0)) + 1.0)


class KVCache:
    """Growable projected key/value prefix for one attention layer.

    Serving keeps one of these per (student, encoder layer): the causal
    forward stream only ever *appends* positions, so the projected keys
    and values of the prefix can be reused verbatim while each new step
    attends over them (:meth:`MultiHeadAttention.attend_step`).  Arrays
    grow geometrically like :class:`repro.serve.history.StudentHistory`.
    """

    __slots__ = ("keys", "values", "length")

    INITIAL_CAPACITY = 8

    def __init__(self, rows: int, dim: int,
                 keys: Optional[np.ndarray] = None,
                 values: Optional[np.ndarray] = None):
        if keys is not None:
            self.length = keys.shape[1]
            capacity = max(self.length, self.INITIAL_CAPACITY)
            self.keys = np.empty((rows, capacity, dim))
            self.values = np.empty((rows, capacity, dim))
            self.keys[:, :self.length] = keys
            self.values[:, :self.length] = values
        else:
            self.length = 0
            self.keys = np.empty((rows, self.INITIAL_CAPACITY, dim))
            self.values = np.empty((rows, self.INITIAL_CAPACITY, dim))

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        """Add one position: ``k``/``v`` are ``(rows, dim)``."""
        capacity = self.keys.shape[1]
        if self.length == capacity:
            rows, _, dim = self.keys.shape
            grown_k = np.empty((rows, 2 * capacity, dim))
            grown_v = np.empty((rows, 2 * capacity, dim))
            grown_k[:, :capacity] = self.keys
            grown_v[:, :capacity] = self.values
            self.keys, self.values = grown_k, grown_v
        self.keys[:, self.length] = k
        self.values[:, self.length] = v
        self.length += 1

    def view(self) -> Tuple[np.ndarray, np.ndarray]:
        """Live ``(keys, values)`` views over the filled prefix."""
        return self.keys[:, :self.length], self.values[:, :self.length]

    def take(self, rows: np.ndarray) -> "KVCache":
        """Independent copy of the given rows' filled prefixes, in
        order (the constructor copies into fresh capacity arrays)."""
        keys, values = self.view()
        return KVCache(len(rows), self.keys.shape[2],
                       keys=keys[rows], values=values[rows])

    @property
    def nbytes(self) -> int:
        return self.keys.nbytes + self.values.nbytes


class MultiHeadAttention(Module):
    """Multi-head attention with an optional monotonic distance decay.

    Parameters
    ----------
    dim:
        Model dimension; must be divisible by ``heads``.
    monotonic:
        When True, a learnable per-head decay rate ``theta_h >= 0`` is
        applied as ``logits -= theta_h * |i - j|`` (AKT's exponential decay
        in its multiplicative form on the pre-softmax logits).
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator,
                 dropout: float = 0.0, monotonic: bool = False):
        super().__init__()
        if dim % heads != 0:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.monotonic = monotonic
        self.query_proj = Linear(dim, dim, rng)
        self.key_proj = Linear(dim, dim, rng)
        self.value_proj = Linear(dim, dim, rng)
        self.out_proj = Linear(dim, dim, rng)
        self.dropout = Dropout(dropout, rng) if dropout > 0 else None
        if monotonic:
            # softplus(0.54) ~= 1.0; start with a mild decay.
            self.decay = init.normal((heads,), 0.1, rng)
        self.last_weights: Optional[np.ndarray] = None
        self.capture_kv: bool = False
        self.last_kv: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _split(self, x, batch: int, length: int):
        """(B, L, D) -> (B, H, L, Dh), for a ``Tensor`` or a raw array."""
        return x.reshape(batch, length, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, query: Tensor, key: Tensor, value: Tensor,
                mask: Optional[np.ndarray] = None) -> Tensor:
        """Attend ``query`` over ``key``/``value``.

        ``mask`` is a boolean array broadcastable to ``(B, H, Lq, Lk)`` with
        True marking *allowed* positions.  Rows with no allowed key yield a
        zero context vector (see :func:`repro.tensor.masked_softmax`).

        When :attr:`capture_kv` is set (serving warm-up), the pre-split
        projected keys/values of this pass are stashed on
        :attr:`last_kv` as plain ``(B, Lk, D)`` arrays.

        Under ``no_grad`` in eval mode this runs :meth:`forward_np`.
        """
        if takes_inference_kernel(self):
            return Tensor(self.forward_np(query.data, key.data, value.data,
                                          mask))
        batch, q_len, _ = query.shape
        k_len = key.shape[1]
        projected_k = self.key_proj(key)
        projected_v = self.value_proj(value)
        if self.capture_kv:
            self.last_kv = (projected_k.data, projected_v.data)
        q = self._split(self.query_proj(query), batch, q_len)
        k = self._split(projected_k, batch, k_len)
        v = self._split(projected_v, batch, k_len)

        logits = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(self.head_dim))
        if self.monotonic:
            positions_q = np.arange(q_len)[:, None]
            positions_k = np.arange(k_len)[None, :]
            distance = np.abs(positions_q - positions_k).astype(np.float64)
            theta = _softplus(self.decay).reshape(1, self.heads, 1, 1)
            logits = logits - theta * Tensor(distance)

        if mask is None:
            mask = np.ones((1, 1, q_len, k_len), dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
            while mask.ndim < 4:
                mask = mask[None]
        weights = masked_softmax(logits, mask, axis=-1)
        # The softmax output is never written after this point (dropout
        # and the context matmul allocate), so a reference is enough.
        self.last_weights = weights.data
        if self.dropout is not None:
            weights = self.dropout(weights)
        context = weights @ v
        context = context.transpose(0, 2, 1, 3).reshape(batch, q_len, self.dim)
        return self.out_proj(context)

    def _theta(self) -> np.ndarray:
        """Per-head decay rates ``softplus(decay)`` as ``(1, H, 1, 1)``."""
        return _softplus_array(self.decay.data).reshape(1, self.heads, 1, 1)

    def scale_logits(self, logits: np.ndarray,
                     distance) -> np.ndarray:
        """Scale raw ``q·k`` logits ``(..., H, Lq, Lk)`` by ``1/sqrt(dh)``
        and, for monotonic attention, subtract the decay at key distance
        ``distance`` (broadcastable to ``logits`` without the head
        axis), in place; returns ``logits``.  The op order of every
        no-grad attention kernel, so they all round alike."""
        logits *= 1.0 / np.sqrt(self.head_dim)
        if self.monotonic:
            logits -= self._theta() * distance
        return logits

    def context_np(self, query: np.ndarray, key: np.ndarray,
                   value: np.ndarray, mask: Optional[np.ndarray] = None,
                   query_positions: Optional[np.ndarray] = None
                   ) -> np.ndarray:
        """:meth:`forward_np` up to (not including) the output
        projection: the ``(B, Lq, D)`` attention context.

        ``query_positions`` (``(B, Lq)``) places the queries for the
        monotonic decay when they are a gathered subset of positions
        rather than ``0..Lq-1``; keys always sit at ``0..Lk-1``.
        """
        batch, q_len, _ = query.shape
        k_len = key.shape[1]
        projected_k = self.key_proj.forward_np(key)
        projected_v = self.value_proj.forward_np(value)
        if self.capture_kv:
            self.last_kv = (projected_k, projected_v)
        q = self._split(self.query_proj.forward_np(query), batch, q_len)
        k = self._split(projected_k, batch, k_len)
        v = self._split(projected_v, batch, k_len)

        logits = q @ k.swapaxes(-1, -2)
        if query_positions is None:
            distance = np.abs(np.arange(q_len)[:, None]
                              - np.arange(k_len)[None, :]).astype(np.float64)
        else:
            distance = np.abs(query_positions[:, None, :, None]
                              - np.arange(k_len)).astype(np.float64)
        self.scale_logits(logits, distance)
        weights = masked_softmax_array(logits, mask)
        self.last_weights = weights
        context = weights @ v
        return context.transpose(0, 2, 1, 3).reshape(batch, q_len, self.dim)

    def forward_np(self, query: np.ndarray, key: np.ndarray,
                   value: np.ndarray,
                   mask: Optional[np.ndarray] = None) -> np.ndarray:
        """No-grad, eval-mode twin of :meth:`forward` on raw arrays.

        Same ops in the same order as the graph path, so the output is
        bit-identical to it; scale, decay, mask fill and softmax all run
        in place on the one ``(B, H, Lq, Lk)`` logits buffer
        (:func:`repro.tensor.masked_softmax_array`).  Sets
        :attr:`last_weights` and, under :attr:`capture_kv`,
        :attr:`last_kv` exactly as :meth:`forward` does.
        """
        return self.out_proj.forward_np(
            self.context_np(query, key, value, mask))

    # ------------------------------------------------------------------
    # No-grad incremental inference (forward-stream serving cache)
    # ------------------------------------------------------------------
    def project_kv_step(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Projected key/value for one new position; ``x`` is ``(B, D)``.

        Matches the batch path's ``key_proj``/``value_proj`` outputs
        before the head split, so the results can be appended to a
        :class:`KVCache` holding batch-computed prefixes.
        """
        return self.key_proj.forward_np(x), self.value_proj.forward_np(x)

    def attend_step(self, x: np.ndarray, keys: np.ndarray,
                    values: np.ndarray, position: int) -> np.ndarray:
        """Causal attention for the single query at ``position``.

        ``x`` is the ``(B, D)`` layer input at the new position;
        ``keys``/``values`` are the ``(B, n, D)`` projected prefix with
        ``n == position + 1`` (the new position's own key/value already
        appended — the non-strict causal mask lets a position attend to
        itself).  All prefix positions are real by construction, so no
        mask is needed; the softmax is the shared
        :func:`repro.tensor.masked_softmax_array`.
        """
        batch, dim = x.shape
        n = keys.shape[1]
        if n != position + 1:
            raise ValueError(f"key/value prefix of length {n} does not "
                             f"cover query position {position}")
        q = self.query_proj.forward_np(x)
        q = q.reshape(batch, self.heads, 1, self.head_dim)
        k = keys.reshape(batch, n, self.heads, self.head_dim)
        k = k.transpose(0, 2, 1, 3)
        v = values.reshape(batch, n, self.heads, self.head_dim)
        v = v.transpose(0, 2, 1, 3)
        logits = q @ k.swapaxes(-1, -2)
        distance = (position - np.arange(n)).astype(np.float64)
        self.scale_logits(logits, distance)
        weights = masked_softmax_array(logits)
        context = (weights @ v).transpose(0, 2, 1, 3).reshape(batch, dim)
        return self.out_proj.forward_np(context)


def softmax_stats(logits: np.ndarray, allowed: np.ndarray,
                  values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Online-softmax statistics of attention over a subset of keys.

    Returns ``(top, weighted)``: ``top`` ``(..., Lq, 1)`` is each query's
    max logit over its ``allowed`` keys (``-inf`` where it has none) and
    ``weighted = exp(logits - top) @ values`` over those keys.  Pass
    ``values`` as ``[V | 1]`` and the last column of ``weighted`` is the
    softmax denominator.  ``logits`` is overwritten.  Statistics over
    disjoint key sets combine exactly with :func:`merge_softmax_stats`
    (Milakov & Gimelshein, *Online normalizer calculation for softmax*).
    """
    np.copyto(logits, -np.inf, where=~allowed)
    top = logits.max(axis=-1, keepdims=True)
    np.subtract(logits, np.where(np.isneginf(top), 0.0, top), out=logits)
    np.exp(logits, out=logits)
    return top, logits @ values


def extend_softmax_stats(top: np.ndarray, weighted: np.ndarray,
                         logits: np.ndarray, values: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Fold one more key into :func:`softmax_stats` statistics.

    ``logits`` ``(..., Lq, 1)`` is the key's logit for each query
    (``-inf`` where the key is not allowed) and ``values`` its
    ``[v | 1]`` row, broadcastable to ``weighted``.  Returns the new
    ``(top, weighted)``, rescaled to the new max: one step of the online
    softmax.
    """
    new_top = np.maximum(top, logits)
    safe = np.where(np.isneginf(new_top), 0.0, new_top)
    return new_top, (weighted * np.exp(top - safe)
                     + np.exp(logits - safe) * values)


def merge_softmax_stats(parts) -> np.ndarray:
    """Normalized attention context from :func:`softmax_stats` parts over
    disjoint key sets, each ``(top, weighted)`` with ``[V | 1]`` values.

    Every part is rescaled to the max over all of them, so the result is
    the softmax over the union with each query's own max as stabilizer,
    as :func:`repro.tensor.masked_softmax_array` takes it; at least one
    part must have a finite ``top`` for every query.
    """
    top = parts[0][0]
    for part_top, _ in parts[1:]:
        top = np.maximum(top, part_top)
    total = None
    for part_top, weighted in parts:
        scaled = weighted * np.exp(part_top - top)
        total = scaled if total is None else np.add(total, scaled,
                                                    out=total)
    return total[..., :-1] / total[..., -1:]


def causal_mask(length: int, strict: bool = True) -> np.ndarray:
    """Lower-triangular attention mask.

    ``strict=True`` excludes the diagonal (a position cannot attend to
    itself), which is what the RCKT bidirectional encoders need so that the
    prediction for response ``i`` never sees response ``i``.
    """
    offset = -1 if strict else 0
    return np.tril(np.ones((length, length), dtype=bool), k=offset)


def anti_causal_mask(length: int, strict: bool = True) -> np.ndarray:
    """Upper-triangular mask: position ``i`` attends only to ``j > i``."""
    offset = 1 if strict else 0
    return np.triu(np.ones((length, length), dtype=bool), k=offset)
