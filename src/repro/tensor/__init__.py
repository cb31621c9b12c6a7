"""NumPy reverse-mode autodiff substrate (PyTorch substitute).

Public surface::

    from repro.tensor import Tensor, no_grad, ops, init
"""

from . import init, ops
from .ops import (binary_cross_entropy, concat, dropout, embedding,
                  log_softmax, masked_softmax, masked_softmax_array,
                  softmax, stack, where)
from .tensor import (Tensor, enable_grad, is_grad_enabled, no_grad,
                     sigmoid_array,
                     unbroadcast)

__all__ = [
    "Tensor",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "sigmoid_array",
    "unbroadcast",
    "concat",
    "stack",
    "where",
    "embedding",
    "softmax",
    "masked_softmax",
    "masked_softmax_array",
    "log_softmax",
    "dropout",
    "binary_cross_entropy",
    "ops",
    "init",
]
