import numpy as np
import pytest

from conftest import param
from icmixer.attention import MultiHeadSelfAttention
from icmixer.encoder import EncoderConfig
from icmixer.mixers import (
    CapacityError,
    ConcatAttention,
    MixerKind,
    add_static_channel_embedding,
    same_channel_mask,
)
from icmixer.tensor import Tensor, draw_normal


def make_concat(d_model=16, n_heads=2, seed=0, u1=0.0, u2=0.0):
    bias = (param("channel_bias.u1", (), lambda shape, dtype: np.full(shape, u1, dtype)),
            param("channel_bias.u2", (), lambda shape, dtype: np.full(shape, u2, dtype)))
    layer = ConcatAttention(EncoderConfig(d_model=d_model, n_heads=n_heads),
                            np.random.default_rng(seed), "attn", param, bias)
    return layer, bias


def concat_attention_oracle(x, layer, u1, u2):
    """Numpy transcription of ConcatAttention for one batch item x [m, n, d]."""
    m, n, d = x.shape
    h, d_k = layer.config.n_heads, d // layer.config.n_heads
    tokens = x.reshape(m * n, d)

    def heads(w):
        return (tokens @ w.data).reshape(m * n, h, d_k).swapaxes(0, 1)

    q, k, v = heads(layer.wq), heads(layer.wk), heads(layer.wv)
    channel_of = np.repeat(np.arange(m), n)
    bias = np.where(channel_of[:, None] == channel_of[None, :], u1, u2)
    scores = q @ k.swapaxes(-1, -2) / np.sqrt(d_k) + bias
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att = (e / e.sum(axis=-1, keepdims=True)) @ v
    return (att.swapaxes(0, 1).reshape(m * n, d) @ layer.wo.data).reshape(m, n, d)


class TestConcatScores:
    def test_matches_numpy_oracle(self):
        layer, _ = make_concat(u1=0.8, u2=-0.5, seed=1)
        x = np.random.default_rng(2).standard_normal((2, 3, 4, 16))
        got = layer(Tensor(x)).data
        for i in range(2):
            np.testing.assert_allclose(got[i], concat_attention_oracle(x[i], layer, 0.8, -0.5),
                                       atol=1e-12)

    def test_zero_bias_equals_attention_over_flattened_tokens(self):
        layer, _ = make_concat(seed=1)
        vanilla = MultiHeadSelfAttention(layer.config, np.random.default_rng(0), "attn", param)
        for name in ("wq", "wk", "wv", "wo"):
            getattr(vanilla, name).data = getattr(layer, name).data.copy()
        x = np.random.default_rng(3).standard_normal((2, 3, 4, 16))
        expected = vanilla(Tensor(x.reshape(2, 12, 16))).data.reshape(x.shape)
        np.testing.assert_allclose(layer(Tensor(x)).data, expected, atol=1e-12)

    def test_equal_biases_cancel_in_softmax(self):
        x = np.random.default_rng(3).standard_normal((1, 2, 4, 16))
        layer0, _ = make_concat(u1=0.0, u2=0.0)
        layerc, _ = make_concat(u1=1.7, u2=1.7)
        np.testing.assert_allclose(layerc(Tensor(x)).data, layer0(Tensor(x)).data, atol=1e-12)

    def test_channel_permutation_equivariance(self):
        layer, _ = make_concat(u1=0.4, u2=-0.3, seed=4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 4, 3, 16))
        perm = rng.permutation(4)
        out = layer(Tensor(x)).data
        out_perm = layer(Tensor(x[:, perm])).data
        np.testing.assert_allclose(out_perm, out[:, perm], atol=1e-10)


class TestSameChannelMask:
    def test_block_structure(self):
        mask = same_channel_mask(2, 2)
        expected = np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]], dtype=float)
        np.testing.assert_array_equal(mask, expected)


class TestStaticChannelEmbedding:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.table = param("channel_embed.table", (4, 8), lambda shape, dtype: draw_normal(
            rng, shape, dtype, lambda z: z * 0.02))

    def test_zero_table_is_identity(self):
        self.table.data = np.zeros((4, 8))
        x = np.random.default_rng(1).standard_normal((2, 3, 5, 8))
        np.testing.assert_array_equal(
            add_static_channel_embedding(Tensor(x), self.table).data, x)

    def test_zero_input_exposes_rows(self):
        out = add_static_channel_embedding(Tensor(np.zeros((1, 2, 3, 8))), self.table).data
        for c in range(2):
            for t in range(3):
                np.testing.assert_array_equal(out[0, c, t], self.table.data[c])

    def test_shape_preserved(self):
        x = np.random.default_rng(2).standard_normal((2, 4, 5, 8))
        assert add_static_channel_embedding(Tensor(x), self.table).shape == x.shape

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            add_static_channel_embedding(Tensor(np.zeros((1, 5, 3, 8))), self.table)


class TestMixerKind:
    def test_values(self):
        assert {k.value for k in MixerKind} == {"independent", "concat", "icm", "icm-static"}

    def test_from_string(self):
        assert MixerKind("icm-static") is MixerKind.ICM_STATIC
