"""Neural-network layers built on the :mod:`repro.tensor` substrate."""

from .attention import (KVCache, MultiHeadAttention, anti_causal_mask,
                        causal_mask, extend_softmax_stats,
                        merge_softmax_stats, softmax_stats)
from .layers import (MLP, Dropout, Embedding, LayerNorm, Linear, ReLU,
                     Sigmoid, Tanh, in_row_blocks)
from .module import Module, ModuleList
from .rnn import LSTM, BiLSTM, LSTMCell, inference_kernel
from .transformer import (FeedForward, PositionalEncoding, TransformerBlock,
                          TransformerEncoder, sinusoidal_positions)

__all__ = [
    "Module", "ModuleList",
    "Linear", "Embedding", "Dropout", "LayerNorm", "MLP",
    "ReLU", "Tanh", "Sigmoid", "in_row_blocks",
    "LSTMCell", "LSTM", "BiLSTM", "inference_kernel",
    "MultiHeadAttention", "KVCache", "causal_mask", "anti_causal_mask",
    "softmax_stats", "extend_softmax_stats", "merge_softmax_stats",
    "TransformerBlock", "TransformerEncoder", "FeedForward",
    "PositionalEncoding", "sinusoidal_positions",
]
