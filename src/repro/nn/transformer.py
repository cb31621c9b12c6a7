"""Transformer encoder blocks and positional encodings.

Used by the SAKT and AKT baselines and by the bidirectional RCKT encoders
(RCKT-SAKT, RCKT-AKT), which stack these blocks "in a multi-layer style"
(Sec. IV-D1).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.tensor import Tensor

from .attention import MultiHeadAttention, takes_inference_kernel
from .layers import Dropout, LayerNorm, Linear
from .module import Module, ModuleList


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Classic fixed sinusoidal positional table, shape ``(length, dim)``."""
    positions = np.arange(length)[:, None].astype(np.float64)
    dims = np.arange(dim)[None, :].astype(np.float64)
    angle_rates = 1.0 / np.power(10000.0, (2 * (dims // 2)) / dim)
    table = positions * angle_rates
    table[:, 0::2] = np.sin(table[:, 0::2])
    table[:, 1::2] = np.cos(table[:, 1::2])
    return table


class PositionalEncoding(Module):
    """Adds fixed sinusoidal position information to a (B, L, D) tensor.

    The table starts at ``initial_length`` rows and grows geometrically on
    demand: sinusoidal positions are a pure function of the index, so a
    grown table's prefix is bit-identical to the original and any sequence
    length encodes exactly as it would have with a bigger initial table.
    Growth replaces the whole array atomically (readers that captured the
    old reference keep a consistent — merely shorter — table), which keeps
    concurrent inference threads safe without a lock: racing growers
    compute identical tables.
    """

    def __init__(self, initial_length: int, dim: int):
        super().__init__()
        self.dim = dim
        self._table = sinusoidal_positions(initial_length, dim)

    def ensure(self, length: int) -> np.ndarray:
        """Return a table covering at least ``length`` positions.

        Use the *returned* reference rather than re-reading the attribute:
        the attribute may be swapped again by a concurrent caller.
        """
        table = self._table
        if length <= table.shape[0]:
            return table
        grown = max(length, 2 * table.shape[0])
        table = sinusoidal_positions(grown, self.dim)
        self._table = table
        return table

    def forward(self, x: Tensor) -> Tensor:
        length = x.shape[1]
        table = self.ensure(length)
        return x + Tensor(table[:length])


class FeedForward(Module):
    """Position-wise two-layer FFN with ReLU."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator,
                 dropout: float = 0.0):
        super().__init__()
        self.fc1 = Linear(dim, hidden, rng)
        self.fc2 = Linear(hidden, dim, rng)
        self.dropout = Dropout(dropout, rng) if dropout > 0 else None

    def forward(self, x: Tensor) -> Tensor:
        hidden = self.fc1(x).relu()
        if self.dropout is not None:
            hidden = self.dropout(hidden)
        return self.fc2(hidden)

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        """No-grad NumPy twin (eval mode: dropout is identity)."""
        hidden = self.fc1.forward_np(x)
        hidden = hidden * (hidden > 0)  # Tensor.relu's exact formulation
        return self.fc2.forward_np(hidden)


class TransformerBlock(Module):
    """Post-LN transformer encoder block (attention + FFN, residuals)."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator,
                 ffn_hidden: Optional[int] = None, dropout: float = 0.0,
                 monotonic: bool = False):
        super().__init__()
        self.attention = MultiHeadAttention(dim, heads, rng, dropout=dropout,
                                            monotonic=monotonic)
        self.ffn = FeedForward(dim, ffn_hidden or 2 * dim, rng, dropout=dropout)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.dropout = Dropout(dropout, rng) if dropout > 0 else None

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None,
                context: Optional[Tensor] = None) -> Tensor:
        """Self-attention when ``context`` is None, else cross-attention.

        Under ``no_grad`` in eval mode this runs :meth:`forward_np`.
        """
        if takes_inference_kernel(self):
            return Tensor(self.forward_np(
                x.data, mask, None if context is None else context.data))
        source = context if context is not None else x
        attended = self.attention(x, source, source, mask=mask)
        if self.dropout is not None:
            attended = self.dropout(attended)
        x = self.norm1(x + attended)
        ffn_out = self.ffn(x)
        if self.dropout is not None:
            ffn_out = self.dropout(ffn_out)
        return self.norm2(x + ffn_out)

    def forward_np(self, x: np.ndarray, mask: Optional[np.ndarray] = None,
                   context: Optional[np.ndarray] = None) -> np.ndarray:
        """No-grad, eval-mode twin of :meth:`forward` on raw arrays,
        bit-identical to it (attention via
        :meth:`~repro.nn.MultiHeadAttention.forward_np`, then the
        ``LayerNorm``/``FeedForward`` twins)."""
        source = context if context is not None else x
        attended = self.attention.forward_np(x, source, source, mask)
        return self._residual_ffn_np(x, attended)

    def _residual_ffn_np(self, x: np.ndarray,
                         attended: np.ndarray) -> np.ndarray:
        """The block after attention (residual, norm, FFN, residual,
        norm) on raw arrays; shared by both no-grad paths."""
        x = self.norm1.forward_np(x + attended)
        return self.norm2.forward_np(x + self.ffn.forward_np(x))

    def step_inference(self, x: np.ndarray, kv_cache) -> np.ndarray:
        """Self-attention step for one appended position (no-grad, eval).

        ``x`` is the ``(B, D)`` block input at the new position;
        ``kv_cache`` is the block's :class:`~repro.nn.attention.KVCache`
        holding the projected prefix, which this call extends in place
        before attending (non-strict causal: the position sees itself).
        Returns the block output at the new position.
        """
        k, v = self.attention.project_kv_step(x)
        kv_cache.append(k, v)
        keys, values = kv_cache.view()
        attended = self.attention.attend_step(x, keys, values,
                                              kv_cache.length - 1)
        return self._residual_ffn_np(x, attended)


class TransformerEncoder(Module):
    """Stack of :class:`TransformerBlock` sharing one attention mask."""

    def __init__(self, dim: int, heads: int, layers: int,
                 rng: np.random.Generator, dropout: float = 0.0,
                 monotonic: bool = False):
        super().__init__()
        self.blocks = ModuleList([
            TransformerBlock(dim, heads, rng, dropout=dropout,
                             monotonic=monotonic)
            for _ in range(layers)
        ])

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        for block in self.blocks:
            x = block(x, mask=mask)
        return x

    @property
    def last_attention_weights(self) -> Optional[np.ndarray]:
        """Attention weights of the final block's last forward pass."""
        return self.blocks[len(self.blocks) - 1].attention.last_weights
