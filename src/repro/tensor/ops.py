"""Functional operations on :class:`~repro.tensor.Tensor` objects.

These cover the compound operations the KT models need beyond the method
operators on ``Tensor``: concatenation, stacking, embedding lookup,
(masked) softmax, dropout and conditional selection.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .tensor import Tensor, unbroadcast


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (gradient splits back)."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(index)])

    return Tensor.make(data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack equal-shaped tensors along a new axis."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slabs = np.moveaxis(grad, axis, 0)
        for tensor, slab in zip(tensors, slabs):
            if tensor.requires_grad:
                tensor._accumulate(slab)

    return Tensor.make(data, tensors, backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Select from ``a`` where ``condition`` else ``b``.

    ``condition`` is a boolean NumPy array (no gradient flows through it).
    """
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    condition = np.asarray(condition, dtype=bool)
    data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(unbroadcast(grad * condition, a.data.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(grad * ~condition, b.data.shape))

    return Tensor.make(data, (a, b), backward)


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``weight[indices]`` with scatter-add gradient.

    ``indices`` is an integer array of any shape; the result has shape
    ``indices.shape + (embedding_dim,)``.
    """
    indices = np.asarray(indices)
    if not np.issubdtype(indices.dtype, np.integer):
        raise TypeError("embedding indices must be integers")
    data = weight.data[indices]

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            full = np.zeros_like(weight.data)
            np.add.at(full, indices.reshape(-1),
                      grad.reshape(-1, weight.data.shape[-1]))
            weight._accumulate(full)

    return Tensor.make(data, (weight,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            dot = (grad * out).sum(axis=axis, keepdims=True)
            x._accumulate(out * (grad - dot))

    return Tensor.make(out, (x,), backward)


def masked_softmax_array(logits: np.ndarray,
                         mask: Optional[np.ndarray] = None,
                         axis: int = -1) -> np.ndarray:
    """Masked softmax computed in place on ``logits``; returns it.

    The one copy of the masked-softmax math, shared by
    :func:`masked_softmax` (autograd), the no-grad attention kernel
    (:meth:`repro.nn.MultiHeadAttention.forward_np`) and the serving
    step (:meth:`repro.nn.MultiHeadAttention.attend_step`), so all
    three agree bit for bit.  ``mask`` (broadcastable to ``logits``,
    True = allowed) is filled with ``-inf`` first; ``None`` allows
    every position.  Rows with no allowed position come out all zero
    instead of NaN: ``exp(-inf) == +0.0`` zeroes masked entries without
    a second select, and an all-zero row's sum is replaced by 1.
    """
    if mask is not None:
        np.copyto(logits, -np.inf, where=~np.asarray(mask, dtype=bool))
    row_max = logits.max(axis=axis, keepdims=True)
    # A fully masked row would give exp(-inf - -inf) = nan; guard with 0.
    row_max[np.isneginf(row_max)] = 0.0
    np.subtract(logits, row_max, out=logits)
    np.exp(logits, out=logits)
    denom = logits.sum(axis=axis, keepdims=True)
    denom[denom == 0.0] = 1.0
    return np.divide(logits, denom, out=logits)


def masked_softmax(x: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax over positions where ``mask`` is True.

    Rows with no valid position produce an all-zero distribution instead of
    NaN.  This is how the bidirectional encoders handle boundary positions
    that have no context on one side (Eq. 25 in the paper: the first
    response uses only the backward direction).  The forward math is
    :func:`masked_softmax_array`, run on the masked copy of ``x``.
    """
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.data.shape)
    out = masked_softmax_array(np.where(mask, x.data, -np.inf), axis=axis)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            dot = (grad * out).sum(axis=axis, keepdims=True)
            x._accumulate(out * (grad - dot))

    return Tensor.make(out, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_sum

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            softmax_vals = np.exp(out)
            x._accumulate(grad - softmax_vals * grad.sum(axis=axis, keepdims=True))

    return Tensor.make(out, (x,), backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout: scales kept activations by ``1 / (1 - rate)``."""
    if not training or rate <= 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    data = x.data * keep

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * keep)

    return Tensor.make(data, (x,), backward)


def binary_cross_entropy(probs: Tensor, targets: np.ndarray,
                         weights: Optional[np.ndarray] = None,
                         eps: float = 1e-7) -> Tensor:
    """Mean binary cross-entropy between probabilities and 0/1 targets.

    ``weights`` (same shape) can zero out padded positions; the mean is
    taken over the total weight so padding does not dilute the loss.
    """
    targets = np.asarray(targets, dtype=np.float64)
    clipped = probs.clip(eps, 1.0 - eps)
    losses = -(Tensor(targets) * clipped.log()
               + Tensor(1.0 - targets) * (1.0 - clipped).log())
    if weights is None:
        return losses.mean()
    weights = np.asarray(weights, dtype=np.float64)
    total = max(weights.sum(), 1.0)
    return (losses * Tensor(weights)).sum() * (1.0 / total)
