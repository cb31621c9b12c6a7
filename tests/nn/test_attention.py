"""Attention: masking semantics, monotonic decay, masks helpers."""

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor, masked_softmax

RNG = np.random.default_rng(5)


class TestMasks:
    def test_causal_strict_excludes_diagonal(self):
        m = nn.causal_mask(4, strict=True)
        assert not m[0].any()
        assert m[3, :3].all() and not m[3, 3]

    def test_causal_nonstrict_includes_diagonal(self):
        m = nn.causal_mask(3, strict=False)
        assert m[0, 0] and m[2, 2]

    def test_anti_causal_mirror(self):
        a = nn.anti_causal_mask(5, strict=True)
        c = nn.causal_mask(5, strict=True)
        assert np.array_equal(a, c.T)

    def test_strict_masks_partition(self):
        """strict causal + strict anti-causal + diagonal covers everything."""
        n = 6
        total = nn.causal_mask(n) | nn.anti_causal_mask(n) | np.eye(n, dtype=bool)
        assert total.all()


class TestMultiHeadAttention:
    def test_output_shape(self):
        att = nn.MultiHeadAttention(8, 2, RNG)
        x = Tensor(RNG.normal(size=(3, 5, 8)))
        assert att(x, x, x).shape == (3, 5, 8)

    def test_dim_not_divisible_raises(self):
        with pytest.raises(ValueError):
            nn.MultiHeadAttention(7, 2, RNG)

    def test_causal_mask_blocks_future(self):
        att = nn.MultiHeadAttention(4, 1, RNG)
        x = RNG.normal(size=(1, 6, 4))
        mask = nn.causal_mask(6, strict=True)
        base = att(Tensor(x), Tensor(x), Tensor(x), mask=mask).data.copy()
        perturbed = x.copy()
        perturbed[0, 5] += 10.0
        out = att(Tensor(perturbed), Tensor(perturbed), Tensor(perturbed),
                  mask=mask).data
        # Output at positions < 5 never attends to position 5.
        assert np.allclose(out[0, :5], base[0, :5])

    def test_fully_masked_row_gives_projected_zero(self):
        att = nn.MultiHeadAttention(4, 2, RNG)
        x = Tensor(RNG.normal(size=(1, 3, 4)))
        mask = nn.causal_mask(3, strict=True)  # row 0 has no allowed keys
        out = att(x, x, x, mask=mask).data
        # Zero context through the output projection = its bias.
        assert np.allclose(out[0, 0], att.out_proj.bias.data)

    def test_attention_weights_recorded(self):
        att = nn.MultiHeadAttention(4, 2, RNG)
        x = Tensor(RNG.normal(size=(2, 5, 4)))
        att(x, x, x)
        assert att.last_weights.shape == (2, 2, 5, 5)
        assert np.allclose(att.last_weights.sum(axis=-1), 1.0)

    def test_monotonic_decay_prefers_near_keys(self):
        """With a large decay, attention should concentrate near the query."""
        att = nn.MultiHeadAttention(4, 1, RNG, monotonic=True)
        att.decay.data[...] = 10.0  # softplus(10) ~ 10: strong decay
        # Make content uninformative so distance dominates.
        x = Tensor(np.ones((1, 8, 4)))
        att(x, x, x, mask=nn.causal_mask(8, strict=True))
        weights = att.last_weights[0, 0]
        # For the last query, the nearest allowed key (6) should dominate.
        assert weights[7].argmax() == 6
        assert weights[7, 6] > 0.99

    def test_monotonic_decay_trainable(self):
        att = nn.MultiHeadAttention(4, 2, RNG, monotonic=True)
        x = Tensor(RNG.normal(size=(1, 4, 4)))
        (att(x, x, x) ** 2).sum().backward()
        assert att.decay.grad is not None


class TestTransformer:
    def test_encoder_shapes(self):
        enc = nn.TransformerEncoder(8, 2, 3, RNG)
        x = Tensor(RNG.normal(size=(2, 5, 8)))
        assert enc(x).shape == (2, 5, 8)

    def test_positional_encoding_added(self):
        pe = nn.PositionalEncoding(10, 8)
        x = Tensor(np.zeros((1, 5, 8)))
        out = pe(x).data
        assert np.allclose(out[0], nn.sinusoidal_positions(5, 8))

    def test_positional_encoding_grows_past_initial_length(self):
        # The table is no longer a hard cap: longer inputs grow it on
        # demand, and the grown table is bit-identical to a fresh
        # sinusoid of the larger size (growth never perturbs encoding).
        pe = nn.PositionalEncoding(4, 8)
        out = pe(Tensor(np.zeros((1, 5, 8)))).data
        assert np.array_equal(out[0], nn.sinusoidal_positions(5, 8))
        assert pe._table.shape[0] >= 8  # geometric growth

    def test_positional_encoding_growth_is_prefix_exact(self):
        pe = nn.PositionalEncoding(4, 8)
        before = pe(Tensor(np.zeros((1, 4, 8)))).data.copy()
        pe.ensure(1000)
        after = pe(Tensor(np.zeros((1, 4, 8)))).data
        assert np.array_equal(before, after)
        assert np.array_equal(pe._table, nn.sinusoidal_positions(
            pe._table.shape[0], 8))

    def test_last_attention_weights_exposed(self):
        enc = nn.TransformerEncoder(8, 2, 2, RNG)
        x = Tensor(RNG.normal(size=(1, 4, 8)))
        enc(x)
        assert enc.last_attention_weights.shape == (1, 2, 4, 4)

    def test_gradients_flow_through_stack(self):
        enc = nn.TransformerEncoder(8, 2, 2, RNG)
        x = Tensor(RNG.normal(size=(2, 4, 8)), requires_grad=True)
        (enc(x) ** 2).sum().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in enc.parameters())


def _ragged_mask(length, lengths, strict=False):
    """Causal mask with per-row padding after ``lengths[b]``."""
    mask = nn.causal_mask(length, strict=strict)[None, None]
    real = np.arange(length)[None, :] < np.asarray(lengths)[:, None]
    return mask & real[:, None, None, :]


@pytest.mark.parametrize("monotonic", [False, True])
class TestAttentionKernelParity:
    """``forward_np`` (the no-grad kernel) against the autograd graph.

    Both run the same ops in the same order, so they must agree bit for
    bit — including ragged padding and rows with no allowed key.
    """

    def _pair(self, att, query, key, mask):
        from repro.tensor import no_grad
        att.eval()
        with no_grad():
            kernel = att(Tensor(query), Tensor(key), Tensor(key), mask=mask)
            kernel_weights = att.last_weights
            with nn.inference_kernel(False):
                graph = att(Tensor(query), Tensor(key), Tensor(key),
                            mask=mask)
            graph_weights = att.last_weights
        return kernel.data, graph.data, kernel_weights, graph_weights

    def test_ragged_masks_bit_identical(self, monotonic):
        att = nn.MultiHeadAttention(8, 2, np.random.default_rng(3),
                                    monotonic=monotonic)
        x = RNG.normal(size=(3, 6, 8))
        mask = _ragged_mask(6, [6, 4, 1])
        kernel, graph, kw, gw = self._pair(att, x, x, mask)
        assert np.array_equal(kernel, graph)
        assert np.array_equal(kw, gw)

    def test_rows_without_allowed_key(self, monotonic):
        att = nn.MultiHeadAttention(8, 2, np.random.default_rng(4),
                                    monotonic=monotonic)
        x = RNG.normal(size=(2, 5, 8))
        # Strict causal: query 0 sees nothing; row 1 is all padding.
        mask = _ragged_mask(5, [5, 0], strict=True)
        kernel, graph, weights, _ = self._pair(att, x, x, mask)
        assert np.array_equal(kernel, graph)
        assert not np.isnan(kernel).any()
        assert np.array_equal(weights[0, :, 0], np.zeros((2, 5)))
        assert np.array_equal(weights[1], np.zeros((2, 5, 5)))
        # Zero context through the output projection is its bias.
        assert np.array_equal(kernel[1], np.broadcast_to(
            att.out_proj.bias.data, (5, 8)))

    def test_cross_attention_and_no_mask(self, monotonic):
        att = nn.MultiHeadAttention(8, 4, np.random.default_rng(5),
                                    monotonic=monotonic)
        query = RNG.normal(size=(2, 3, 8))
        key = RNG.normal(size=(2, 7, 8))
        kernel, graph, kw, gw = self._pair(att, query, key, None)
        assert np.array_equal(kernel, graph)
        assert np.array_equal(kw, gw)

    def test_kernel_needs_eval_mode(self, monotonic):
        from repro.tensor import no_grad
        att = nn.MultiHeadAttention(8, 2, np.random.default_rng(6),
                                    dropout=0.5, monotonic=monotonic)
        x = Tensor(RNG.normal(size=(1, 4, 8)))
        with no_grad():
            first = att(x, x, x).data
            second = att(x, x, x).data
        # Training mode keeps the graph path, whose dropout draws masks.
        assert not np.array_equal(first, second)

    def test_attend_step_matches_last_row(self, monotonic):
        att = nn.MultiHeadAttention(8, 2, np.random.default_rng(7),
                                    monotonic=monotonic)
        att.eval()
        x = RNG.normal(size=(3, 6, 8))
        full = att.forward_np(x, x, x, nn.causal_mask(6, strict=False))
        keys, values = att.project_kv_step(x.reshape(18, 8))
        step = att.attend_step(x[:, -1], keys.reshape(3, 6, 8),
                               values.reshape(3, 6, 8), position=5)
        np.testing.assert_allclose(step, full[:, -1], rtol=0, atol=1e-12)


def test_last_weights_is_the_softmax_output_not_a_copy(monkeypatch):
    """The graph path keeps a reference to the weights it attended with."""
    import repro.nn.attention as attention_module
    seen = []

    def spy(*args, **kwargs):
        out = masked_softmax(*args, **kwargs)
        seen.append(out.data)
        return out

    monkeypatch.setattr(attention_module, "masked_softmax", spy)
    att = nn.MultiHeadAttention(4, 2, np.random.default_rng(8))
    x = Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True)
    att(x, x, x).sum().backward()
    assert att.last_weights is seen[0]
    assert np.allclose(att.last_weights.sum(axis=-1), 1.0)
