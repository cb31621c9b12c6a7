"""Recurrent layers: LSTM cell, unidirectional LSTM, bidirectional LSTM.

DKT (Piech et al., 2015) uses an LSTM; RCKT-DKT extends it bidirectionally
(BiLSTM, Sec. V-A4 of the paper).  The bidirectional variant here exposes
the *shifted* outputs the RCKT encoder needs: the forward state at position
``i`` summarizes inputs ``1..i`` and the backward state summarizes inputs
``i..L``, so Eq. 25's strict exclusion of position ``i`` is implemented by
the caller indexing ``forward[i-1]`` and ``backward[i+1]``.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Optional, Tuple

import numpy as np

from repro.tensor import Tensor, init, is_grad_enabled, stack, where

from .module import Module


_INFERENCE_KERNEL = True


def inference_kernel_enabled() -> bool:
    """Whether no-grad forwards may take the raw-array kernels."""
    return _INFERENCE_KERNEL


@contextlib.contextmanager
def inference_kernel(enabled: bool):
    """Toggle the no-grad inference kernels (default on).

    Covers both encoder families: the LSTM recurrence
    (:meth:`LSTM.forward_inference_with_state`, one-tanh gate step) and
    the attention blocks (:meth:`repro.nn.TransformerBlock.forward_np`,
    :meth:`repro.nn.MultiHeadAttention.forward_np`).  Under ``no_grad``
    (and, for the transformer blocks, eval mode) the module ``forward``
    dispatches to them.  ``inference_kernel(False)`` runs the original
    autograd ops even under ``no_grad`` — a debugging aid for comparing
    the kernel and graph paths directly (see ``tests/nn/test_rnn.py``,
    ``tests/nn/test_attention.py``).  Note the inference benchmarks do
    *not* use this: both arms of ``benchmarks/bench_inference.py`` share
    the kernels, so the reported speedups are purely structural
    (batching/stream sharing), not kernel-vs-no-kernel.
    """
    global _INFERENCE_KERNEL
    previous = _INFERENCE_KERNEL
    _INFERENCE_KERNEL = enabled
    try:
        yield
    finally:
        _INFERENCE_KERNEL = previous


@functools.lru_cache(maxsize=16)
def _gate_constants(hidden: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-column ``(scale, shift)`` over the fused ``i, f, g, o`` gates.

    ``0.5/0.5`` on the sigmoid gates turns ``s*tanh(s*z) + shift`` into
    :func:`repro.tensor.sigmoid_array`'s tanh form; ``1/0`` on ``g``
    leaves a plain ``tanh`` (multiplying by 1 and adding 0 are exact).
    """
    scale = np.full(4 * hidden, 0.5)
    scale[2 * hidden:3 * hidden] = 1.0
    shift = np.full(4 * hidden, 0.5)
    shift[2 * hidden:3 * hidden] = 0.0
    scale.flags.writeable = False
    shift.flags.writeable = False
    return scale, shift


def _lstm_gate_step(projected_t: np.ndarray, h: np.ndarray, c: np.ndarray,
                    weight_h: np.ndarray, bias: np.ndarray,
                    hidden: int) -> Tuple[np.ndarray, np.ndarray]:
    """One fused-gate LSTM step on pre-projected inputs (no-grad NumPy).

    Shared by the batched inference kernel and the serving single-step
    extension path so the two stay numerically aligned op-for-op.  All
    four gates come from one ``tanh`` over the ``(B, 4H)`` pre-activation
    with per-column constants (:func:`_gate_constants`): element for
    element this is :func:`repro.tensor.sigmoid_array` on ``i, f, o`` and
    ``np.tanh`` on ``g``, so it matches :class:`LSTMCell` bit for bit.
    The inputs ``h``/``c`` are never written (callers keep them for the
    padding select); the returned arrays are fresh.
    """
    scale, shift = _gate_constants(hidden)
    z = h @ weight_h
    z += projected_t
    z += bias
    z *= scale
    np.tanh(z, out=z)
    z *= scale
    z += shift
    i_gate = z[:, :hidden]
    g_gate = z[:, 2 * hidden:3 * hidden]
    c_new = z[:, hidden:2 * hidden] * c
    i_gate *= g_gate
    c_new += i_gate
    h_new = np.tanh(c_new)
    h_new *= z[:, 3 * hidden:]
    return h_new, c_new


class LSTMCell(Module):
    """Single LSTM step with fused gate weights (order: i, f, g, o)."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.weight_x = init.xavier_uniform((input_dim, 4 * hidden_dim), rng)
        self.weight_h = init.xavier_uniform((hidden_dim, 4 * hidden_dim), rng)
        bias = np.zeros(4 * hidden_dim)
        # Standard trick: initialize the forget-gate bias to 1 so early
        # training does not wash out the cell state.
        bias[hidden_dim:2 * hidden_dim] = 1.0
        self.bias = Tensor(bias, requires_grad=True)

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        h_prev, c_prev = state
        z = x @ self.weight_x + h_prev @ self.weight_h + self.bias
        hidden = self.hidden_dim
        i_gate = z[:, 0 * hidden:1 * hidden].sigmoid()
        f_gate = z[:, 1 * hidden:2 * hidden].sigmoid()
        g_gate = z[:, 2 * hidden:3 * hidden].tanh()
        o_gate = z[:, 3 * hidden:4 * hidden].sigmoid()
        c_new = f_gate * c_prev + i_gate * g_gate
        h_new = o_gate * c_new.tanh()
        return h_new, c_new

    def initial_state(self, batch: int) -> Tuple[Tensor, Tensor]:
        zeros = Tensor(np.zeros((batch, self.hidden_dim)))
        return zeros, zeros


class LSTM(Module):
    """Unidirectional LSTM over a ``(batch, length, dim)`` sequence."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator,
                 reverse: bool = False):
        super().__init__()
        self.cell = LSTMCell(input_dim, hidden_dim, rng)
        self.hidden_dim = hidden_dim
        self.reverse = reverse

    def forward(self, x: Tensor,
                state: Optional[Tuple[Tensor, Tensor]] = None,
                mask: Optional[np.ndarray] = None) -> Tensor:
        """Return the hidden state after each step, shape ``(B, L, H)``.

        With ``reverse=True`` the sequence is consumed right-to-left but the
        outputs are returned in the original order: position ``i`` then
        holds the state after consuming inputs ``i..L``.

        ``mask`` (``(B, L)`` bool, True at real steps) makes the recurrence
        skip padded steps entirely: state carries through unchanged and the
        carried state is emitted.  A reversed LSTM whose row is padded after
        position ``t`` therefore reaches ``t`` with its initial (zero)
        state, exactly as if the sequence ended there — this is what lets
        one full-length padded batch reproduce exact-length prefix batches
        bit-for-bit (the multi-target fast path relies on it).
        """
        batch, length, _ = x.shape
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
        if state is None:
            if _INFERENCE_KERNEL and not is_grad_enabled():
                return Tensor(self._forward_inference(x.data, mask))
            state = self.cell.initial_state(batch)
        steps = range(length - 1, -1, -1) if self.reverse else range(length)
        outputs: list = [None] * length
        h, c = state
        for t in steps:
            h_new, c_new = self.cell(x[:, t, :], (h, c))
            if mask is not None:
                step = mask[:, t][:, None]
                h_new = where(step, h_new, h)
                c_new = where(step, c_new, c)
            h, c = h_new, c_new
            outputs[t] = h
        return stack(outputs, axis=1)

    def _forward_inference(self, x: np.ndarray,
                           mask: Optional[np.ndarray]) -> np.ndarray:
        """No-grad kernel; see :meth:`forward_inference_with_state`."""
        outputs, _, _ = self.forward_inference_with_state(x, mask)
        return outputs

    def forward_inference_with_state(
            self, x: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """No-grad kernel returning ``(outputs, h, c)``.

        Raw-NumPy recurrence with the input projection hoisted into one
        ``(B*L, D) @ (D, 4H)`` gemm instead of one small gemm per step.
        The per-element gate math matches the autograd cell bit for bit
        (:func:`_lstm_gate_step`).

        The returned ``(h, c)`` is each row's carry state after its last
        *real* step (the mask freezes state through trailing padding), so
        a caller can keep extending the recurrence one step at a time via
        :meth:`step_inference` — the serving forward-stream cache.
        """
        cell = self.cell
        batch, length, _ = x.shape
        hidden = cell.hidden_dim
        projected = (x.reshape(batch * length, -1) @ cell.weight_x.data)
        projected = projected.reshape(batch, length, 4 * hidden)
        # Step-major layout keeps each step's slab contiguous in cache.
        projected = np.ascontiguousarray(projected.swapaxes(0, 1))
        weight_h = cell.weight_h.data
        bias = cell.bias.data
        h = np.zeros((batch, hidden))
        c = np.zeros((batch, hidden))
        outputs = np.empty((batch, length, hidden))
        steps = range(length - 1, -1, -1) if self.reverse else range(length)
        for t in steps:
            h_new, c_new = _lstm_gate_step(projected[t], h, c, weight_h,
                                           bias, hidden)
            if mask is not None:
                step = mask[:, t]
                # Column-sorted target chunks make most steps all-active;
                # the select is only paid where rows actually diverge.
                if not step.all():
                    step = step[:, None]
                    h_new = np.where(step, h_new, h)
                    c_new = np.where(step, c_new, c)
            h, c = h_new, c_new
            outputs[:, t, :] = h
        return outputs, h, c

    def step_inference(self, x: np.ndarray, h: np.ndarray,
                       c: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One no-grad recurrence step: ``(B, D)`` input, carried state in,
        new ``(h, c)`` out.  Shares the gate math with the batch kernel so
        incrementally extended streams track re-encoded ones to roundoff.
        Meaningless for ``reverse=True`` layers (anti-causal state cannot
        be extended on the right); callers only cache forward streams.
        """
        cell = self.cell
        projected = x @ cell.weight_x.data
        return _lstm_gate_step(projected, h, c, cell.weight_h.data,
                               cell.bias.data, cell.hidden_dim)


class BiLSTM(Module):
    """Forward + backward LSTM pair returning both directions separately.

    Unlike the usual concatenating BiLSTM, the two streams are kept apart
    because RCKT sums *shifted* views of them (Eq. 25).
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.forward_lstm = LSTM(input_dim, hidden_dim, rng)
        self.backward_lstm = LSTM(input_dim, hidden_dim, rng, reverse=True)
        self.hidden_dim = hidden_dim

    def forward(self, x: Tensor) -> Tuple[Tensor, Tensor]:
        return self.forward_lstm(x), self.backward_lstm(x)
