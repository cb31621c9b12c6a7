"""Core feed-forward layers: Linear, Embedding, Dropout, LayerNorm, MLP."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.tensor import Tensor, init, ops

from .module import Module


class Linear(Module):
    """Affine map ``y = x W + b`` over the trailing dimension."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = init.xavier_uniform((in_features, out_features), rng)
        self.bias = init.zeros((out_features,)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        """No-grad NumPy twin of :meth:`forward` (serving step kernels)."""
        out = x @ self.weight.data
        if self.bias is not None:
            out += self.bias.data  # the matmul result is a fresh array
        return out


class Embedding(Module):
    """ID-to-vector lookup table.

    Index 0 is conventionally the padding ID in this repository; callers
    mask padded positions explicitly, so no special handling is needed here.
    """

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator,
                 std: float = 0.02):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = init.normal((num_embeddings, dim), std, rng)

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices)
        if indices.max(initial=0) >= self.num_embeddings or indices.min(initial=0) < 0:
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings})")
        return ops.embedding(self.weight, indices)


class Dropout(Module):
    """Inverted dropout; inactive in eval mode."""

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        self.rate = rate
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return ops.dropout(x, self.rate, self._rng, training=self.training)


class LayerNorm(Module):
    """Layer normalization over the trailing dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = init.ones((dim,))
        self.beta = init.zeros((dim,))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / (variance + self.eps).sqrt()
        return normed * self.gamma + self.beta

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        """No-grad NumPy twin of :meth:`forward`, op-for-op.

        Means are a sum times ``1/dim`` as in :meth:`Tensor.mean` (not
        ``np.mean``'s divide), so the twin is bit-identical for any dim.
        """
        inverse = 1.0 / x.shape[-1]
        mean = x.sum(axis=-1, keepdims=True) * inverse
        normed = x - mean
        variance = (normed * normed).sum(axis=-1, keepdims=True) * inverse
        normed /= np.sqrt(variance + self.eps)
        normed *= self.gamma.data
        normed += self.beta.data
        return normed


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class MLP(Module):
    """Stack of Linear layers with ReLU activations and optional dropout.

    The paper's prediction head (Eq. 26) is the two-layer instance
    ``MLP([2d, d, 1])`` followed by a sigmoid applied by the caller.
    """

    def __init__(self, sizes: Sequence[int], rng: np.random.Generator,
                 dropout: float = 0.0,
                 dropout_rng: Optional[np.random.Generator] = None):
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP needs at least an input and output size")
        from .module import ModuleList
        self.layers = ModuleList([
            Linear(a, b, rng) for a, b in zip(sizes[:-1], sizes[1:])
        ])
        self.dropout = (Dropout(dropout, dropout_rng or rng)
                        if dropout > 0 else None)

    def forward(self, x: Tensor) -> Tensor:
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i != last:
                x = x.relu()
                if self.dropout is not None:
                    x = self.dropout(x)
        return x
