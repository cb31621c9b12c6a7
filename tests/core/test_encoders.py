"""Bidirectional encoder correctness — above all, NO self-leakage.

Eq. 25 requires h_i to exclude position i's own input entirely.  The
perturbation tests here change the input at one position and assert the
encoder output at that position is bit-identical, including through
multiple layers (the subtle case: naive bidirectional stacking leaks).
"""

import numpy as np
import pytest

from repro.core import (BiAKTEncoder, BiDKTEncoder, BiSAKTEncoder,
                        build_encoder, shift_and_combine)
from repro.tensor import Tensor

RNG = np.random.default_rng(31)
DIM = 8
LENGTH = 7


def encoder_factory(name, layers):
    return build_encoder(name, DIM, layers, np.random.default_rng(5), heads=2)


@pytest.mark.parametrize("name", ["dkt", "sakt", "akt"])
@pytest.mark.parametrize("layers", [1, 2])
class TestNoSelfLeakage:
    def test_output_invariant_to_own_input(self, name, layers):
        encoder = encoder_factory(name, layers)
        encoder.eval()
        x = RNG.normal(size=(2, LENGTH, DIM))
        mask = np.ones((2, LENGTH), dtype=bool)
        base = encoder(Tensor(x), mask=mask).data.copy()
        for position in range(LENGTH):
            perturbed = x.copy()
            perturbed[:, position, :] += 13.0
            out = encoder(Tensor(perturbed), mask=mask).data
            assert np.allclose(out[:, position], base[:, position]), \
                f"{name}/{layers}L leaked input {position} into h_{position}"

    def test_other_positions_do_change(self, name, layers):
        """Sanity: the perturbation is visible elsewhere (not a dead net)."""
        encoder = encoder_factory(name, layers)
        encoder.eval()
        x = RNG.normal(size=(1, LENGTH, DIM))
        mask = np.ones((1, LENGTH), dtype=bool)
        base = encoder(Tensor(x), mask=mask).data.copy()
        perturbed = x.copy()
        perturbed[:, 3, :] += 13.0
        out = encoder(Tensor(perturbed), mask=mask).data
        others = [p for p in range(LENGTH) if p != 3]
        assert not np.allclose(out[:, others], base[:, others])


class TestShiftAndCombine:
    def test_boundaries_use_single_direction(self):
        fwd = Tensor(np.arange(12.0).reshape(1, 4, 3))
        bwd = Tensor(100.0 + np.arange(12.0).reshape(1, 4, 3))
        out = shift_and_combine(fwd, bwd).data
        # h_0 = bwd[1] only; h_3 = fwd[2] only.
        assert np.allclose(out[0, 0], bwd.data[0, 1])
        assert np.allclose(out[0, 3], fwd.data[0, 2])

    def test_interior_sums_both(self):
        fwd = Tensor(np.ones((1, 3, 2)))
        bwd = Tensor(2.0 * np.ones((1, 3, 2)))
        out = shift_and_combine(fwd, bwd).data
        assert np.allclose(out[0, 1], 3.0)


class TestDirections:
    def test_bidkt_first_position_sees_future_only(self):
        encoder = BiDKTEncoder(DIM, 1, np.random.default_rng(0))
        encoder.eval()
        x = RNG.normal(size=(1, 5, DIM))
        base = encoder(Tensor(x)).data.copy()
        # Changing the LAST position must affect h_0 (backward path).
        perturbed = x.copy()
        perturbed[0, 4] += 5.0
        assert not np.allclose(encoder(Tensor(perturbed)).data[0, 0],
                               base[0, 0])

    def test_bidkt_last_position_sees_past_only(self):
        encoder = BiDKTEncoder(DIM, 1, np.random.default_rng(0))
        encoder.eval()
        x = RNG.normal(size=(1, 5, DIM))
        base = encoder(Tensor(x)).data.copy()
        perturbed = x.copy()
        perturbed[0, 0] += 5.0
        assert not np.allclose(encoder(Tensor(perturbed)).data[0, 4],
                               base[0, 4])

    def test_attention_mask_respects_padding(self):
        encoder = BiSAKTEncoder(DIM, 1, np.random.default_rng(0), heads=2)
        encoder.eval()
        x = RNG.normal(size=(1, 6, DIM))
        mask = np.array([[True, True, True, True, False, False]])
        base = encoder(Tensor(x), mask=mask).data.copy()
        perturbed = x.copy()
        perturbed[0, 5] += 50.0  # padding position
        out = encoder(Tensor(perturbed), mask=mask).data
        assert np.allclose(out[0, :4], base[0, :4])


class TestFactory:
    def test_builds_each_kind(self):
        assert isinstance(encoder_factory("dkt", 1), BiDKTEncoder)
        assert isinstance(encoder_factory("sakt", 1), BiSAKTEncoder)
        assert isinstance(encoder_factory("akt", 1), BiAKTEncoder)

    def test_akt_is_monotonic_sakt(self):
        akt = encoder_factory("akt", 1)
        assert akt.forward_stack.blocks[0].attention.monotonic

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            build_encoder("gru", DIM, 1, np.random.default_rng(0))

    def test_gradients_flow(self):
        encoder = encoder_factory("dkt", 2)
        x = Tensor(RNG.normal(size=(2, 4, DIM)), requires_grad=True)
        (encoder(x) ** 2).sum().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in encoder.parameters())


@pytest.mark.parametrize("name", ["dkt", "sakt", "akt"])
@pytest.mark.parametrize("layers", [1, 2])
class TestIncrementalForwardStream:
    """The serving step APIs must reproduce the batch forward stream.

    ``new_forward_state`` + ``extend_forward_state`` is the from-scratch
    incremental path; ``forward_stream_with_capture`` +
    ``state_from_capture`` is the vectorized warm-up that resumes it
    mid-sequence.  Both must track ``forward_stream`` to roundoff.
    """

    ATOL = 1e-12

    def test_stepwise_matches_batch(self, name, layers):
        from repro.tensor import no_grad
        encoder = encoder_factory(name, layers)
        encoder.eval()
        x = RNG.normal(size=(3, LENGTH, DIM))
        with no_grad():
            reference = encoder.forward_stream(Tensor(x)).data
            state = encoder.new_forward_state(3)
            stepped = np.stack(
                [encoder.extend_forward_state(state, x[:, t])
                 for t in range(LENGTH)], axis=1)
        np.testing.assert_allclose(stepped, reference, rtol=0,
                                   atol=self.ATOL)
        assert state.length == LENGTH
        assert state.nbytes > 0

    def test_capture_resumes_incrementally(self, name, layers):
        from repro.tensor import no_grad
        encoder = encoder_factory(name, layers)
        encoder.eval()
        x = RNG.normal(size=(2, LENGTH + 1, DIM))
        with no_grad():
            _, capture = encoder.forward_stream_with_capture(
                Tensor(x[:, :LENGTH]))
            state = encoder.state_from_capture(capture, [0, 1], LENGTH)
            extended = encoder.extend_forward_state(state, x[:, LENGTH])
            reference = encoder.forward_stream(Tensor(x)).data
        np.testing.assert_allclose(extended, reference[:, LENGTH],
                                   rtol=0, atol=self.ATOL)


@pytest.mark.parametrize("name", ["dkt", "sakt", "akt"])
@pytest.mark.parametrize("layers", [1, 2])
class TestKernelGraphParity:
    """The no-grad kernels against ``inference_kernel(False)``.

    The LSTM gate step and the attention ``forward_np`` blocks run the
    autograd path's element math op for op, so both streams must come
    out bit-identical — with ragged padding and with rows whose queries
    have no allowed key (all-padding rows).
    """

    LENGTHS = (LENGTH, 4, 1, 0)

    def _inputs(self):
        x = RNG.normal(size=(len(self.LENGTHS), LENGTH, DIM))
        mask = np.arange(LENGTH)[None, :] < np.asarray(self.LENGTHS)[:, None]
        return x, mask

    def _both(self, fn):
        from repro import nn
        from repro.tensor import no_grad
        with no_grad():
            kernel = fn()
            with nn.inference_kernel(False):
                graph = fn()
        return kernel, graph

    def test_streams_bit_identical(self, name, layers):
        encoder = encoder_factory(name, layers)
        encoder.eval()
        x, mask = self._inputs()
        for stream in (encoder.forward_stream, encoder.backward_stream):
            kernel, graph = self._both(
                lambda: stream(Tensor(x), mask).data)
            assert np.array_equal(kernel, graph), stream.__name__
            assert not np.isnan(kernel).any()

    def test_captured_state_bit_identical(self, name, layers):
        encoder = encoder_factory(name, layers)
        encoder.eval()
        x, mask = self._inputs()
        (k_out, k_capture), (g_out, g_capture) = self._both(
            lambda: encoder.forward_stream_with_capture(Tensor(x), mask))
        assert np.array_equal(k_out, g_out)
        for k_layer, g_layer in zip(k_capture, g_capture):
            for k_part, g_part in zip(k_layer, g_layer):
                assert np.array_equal(k_part, g_part)
