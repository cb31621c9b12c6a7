"""The numerics contract of :func:`repro.tensor.sigmoid_array`.

The tanh form ``0.5*tanh(0.5*x) + 0.5`` is not bit-equal to the textbook
two-branch logistic; its docstring promises instead: within 2.3e-16
absolute of the two-branch form, exact at 0 and at the infinities, NaN
propagating, and a monotone output inside [0, 1].
"""

import numpy as np
import pytest

from repro.tensor import Tensor, sigmoid_array

TOLERANCE = 2.3e-16


def two_branch(x: np.ndarray) -> np.ndarray:
    """``1/(1+exp(-x))`` for ``x >= 0``, ``exp(x)/(1+exp(x))`` otherwise."""
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    e = np.exp(x[~positive])
    out[~positive] = e / (1.0 + e)
    return out


GRID = np.linspace(-800.0, 800.0, 400_001)


def test_close_to_two_branch_form_over_the_grid():
    assert np.abs(sigmoid_array(GRID) - two_branch(GRID)).max() <= TOLERANCE


def test_close_to_two_branch_form_on_random_draws():
    x = np.random.default_rng(0).normal(0.0, 2.0, 200_000)
    assert np.abs(sigmoid_array(x) - two_branch(x)).max() <= TOLERANCE


def test_monotone_and_inside_unit_interval():
    out = sigmoid_array(GRID)
    assert out.min() >= 0.0 and out.max() <= 1.0
    assert np.all(np.diff(out) >= 0.0)


def test_special_values():
    out = sigmoid_array(np.array([0.0, -0.0, -np.inf, np.inf, np.nan]))
    assert out[0] == 0.5 and out[1] == 0.5
    assert out[2] == 0.0 and out[3] == 1.0
    assert np.isnan(out[4])


def test_input_untouched_and_scalars_supported():
    x = np.array([-3.0, 0.25, 7.0])
    before = x.copy()
    sigmoid_array(x)
    assert np.array_equal(x, before)
    zero_d = sigmoid_array(np.array(0.0))
    assert zero_d.shape == () and zero_d == 0.5


@pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 8)])
def test_tensor_sigmoid_is_the_shared_kernel(shape):
    x = np.random.default_rng(1).normal(size=shape)
    assert np.array_equal(Tensor(x).sigmoid().data, sigmoid_array(x))
