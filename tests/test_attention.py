import math
import re

import numpy as np
import pytest

from conftest import param, traced_peak
from icmixer.attention import (
    ConfigError,
    ICMAttention,
    MultiHeadSelfAttention,
    _sigma,
    accumulate_memory,
    dot_attention,
    gate_combine,
    icm_attention_reference,
    retrieve_memory,
)
from icmixer.encoder import EncoderConfig
from icmixer.tensor import DimensionError, Tensor
from icmixer.training import mse


def elu1(x):
    return np.where(x >= 0, x + 1.0, np.exp(x))


def merged(a):
    """[..., h, n, d_k] -> [..., n, h*d_k], the model's layout of Q, K, V and attention outputs."""
    *lead, h, n, d_k = a.shape
    return a.swapaxes(-3, -2).reshape(*lead, n, h * d_k)


def linear_attention_oracle(q_all, k_all, v_all, eps):
    """Brute-force linear attention over all channels' tokens concatenated.

    q_all etc: [m, h, n, d_k] numpy arrays. Returns [m, h, n, d_k].
    """
    m, h, n, d_k = q_all.shape
    out = np.zeros_like(q_all)
    for head in range(h):
        keys = np.concatenate([elu1(k_all[i, head]) for i in range(m)], axis=0)
        vals = np.concatenate([v_all[i, head] for i in range(m)], axis=0)
        mem = keys.T @ vals
        zsum = keys.sum(axis=0)
        for i in range(m):
            sq = elu1(q_all[i, head])
            out[i, head] = (sq @ mem) / (sq @ zsum[:, None] + eps)
    return out


class TestConfig:
    def test_indivisible_raises(self):
        with pytest.raises(ConfigError):
            EncoderConfig(d_model=10, n_heads=3)

    def test_nonpositive_epsilon_raises(self):
        with pytest.raises(ConfigError):
            EncoderConfig(d_model=8, n_heads=2, epsilon=0.0)


class TestSigma:
    def test_zero(self):
        assert _sigma(np.float64(0.0)) == 1.0

    def test_one(self):
        assert _sigma(np.float64(1.0)) == 2.0

    def test_large_negative(self):
        assert _sigma(np.float64(-20.0)) == pytest.approx(math.exp(-20.0), rel=1e-12)

    def test_strictly_positive(self):
        rng = np.random.default_rng(0)
        assert (_sigma(rng.standard_normal(100) * 5) > 0).all()


class TestMemory:
    def test_initial_state_is_zero(self):
        # A memory built from no channels holds nothing.
        mem = accumulate_memory(Tensor(np.ones((0, 5, 6))), Tensor(np.ones((0, 5, 6))), 2)
        assert mem.shape == (1, 2, 3, 4)
        assert not mem.data.any()

    def test_single_outer_product(self):
        # One channel, one head, one token: k is chosen so sigma(k) is [1, ~0].
        k = np.array([[[0.0, -745.0]]])  # sigma -> [1.0, ~5e-324]
        v = np.array([[[2.0, 3.0]]])
        mem = accumulate_memory(Tensor(k), Tensor(v), 1)  # [M | z]
        np.testing.assert_allclose(mem.data[0, 0], [[2.0, 3.0, 1.0], [0.0, 0.0, 0.0]], atol=1e-300)

    def test_accumulation_commutes_over_channels(self):
        # [M | z] is invariant to any permutation of the channel axis.
        rng = np.random.default_rng(1)
        k, v = merged(rng.standard_normal((5, 2, 4, 3))), merged(rng.standard_normal((5, 2, 4, 3)))
        perm = rng.permutation(5)
        mem = accumulate_memory(Tensor(k), Tensor(v), 2)
        mem_p = accumulate_memory(Tensor(k[perm]), Tensor(v[perm]), 2)
        np.testing.assert_allclose(mem_p.data, mem.data, rtol=0, atol=1e-13)

    def test_z_strictly_positive_after_accumulation(self):
        rng = np.random.default_rng(2)
        mem = accumulate_memory(Tensor(merged(rng.standard_normal((3, 2, 6, 4)))),
                                Tensor(merged(rng.standard_normal((3, 2, 6, 4)))), 2)
        assert mem.data[..., -1].min() > 0

    def test_build_makes_no_per_channel_product(self):
        """M is one GEMM over all channel-tokens, never a stack of per-channel products.

        That stack would be [b, m, h, d_k, d_k]: 524 KB in float64 here.
        """
        b, m, h, n, d_k = 4, 8, 2, 4, 32
        rng = np.random.default_rng(3)
        # [b, m, n, h, d_k] drawn and merged to the model's [b, m, n, h*d_k].
        k, v = (rng.standard_normal((b, m, n, h, d_k)).reshape(b, m, n, h * d_k) for _ in range(2))
        peak, mem = traced_peak(lambda: accumulate_memory(Tensor(k), Tensor(v), h).data)
        assert peak < b * m * h * d_k * d_k * 8
        k, v = (a.reshape(b, m, n, h, d_k).swapaxes(-3, -2) for a in (k, v))
        sk = elu1(k)
        np.testing.assert_allclose(mem[:, 0, ..., :-1], np.einsum("bmhnd,bmhne->bhde", sk, v),
                                   rtol=1e-12)
        np.testing.assert_allclose(mem[:, 0, ..., -1], sk.sum(axis=(1, 3)), rtol=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            accumulate_memory(Tensor(np.ones((1, 5, 6))), Tensor(np.ones((1, 5, 8))), 2)


class TestRetrieve:
    def test_one_row_product(self):
        k = np.array([[[0.0, -745.0]]])
        v = np.array([[[2.0, 3.0]]])
        mem = accumulate_memory(Tensor(k), Tensor(v), 1)
        q = Tensor(np.array([[[0.0, -745.0]]]))  # sigma(q) ~ [1, 0]
        out = retrieve_memory(q, mem, epsilon=1e-6)
        np.testing.assert_allclose(out.data[0, 0], np.array([2.0, 3.0]) / (1 + 1e-6), rtol=1e-12)

    def test_epsilon_floor(self):
        mem = accumulate_memory(Tensor(np.ones((1, 3, 2))), Tensor(np.ones((1, 3, 2))), 1)
        q = Tensor(np.full((1, 2, 2), -600.0))  # sigma(q) ~ 0 everywhere
        out = retrieve_memory(q, mem, epsilon=1e-6)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-250)

    def test_bad_epsilon_raises(self):
        mem = accumulate_memory(Tensor(np.ones((1, 2, 2))), Tensor(np.ones((1, 2, 2))), 1)
        for epsilon in (-1.0, 0.0, math.nan, math.inf, True):
            with pytest.raises(ConfigError):
                retrieve_memory(Tensor(np.ones((1, 2, 2))), mem, epsilon=epsilon)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_concatenated_token_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 9))
        d_k = int(rng.integers(1, 5))
        h = int(rng.integers(1, 3))
        q = rng.uniform(-2, 2, (m, h, n, d_k))
        k = rng.uniform(-2, 2, (m, h, n, d_k))
        v = rng.uniform(-2, 2, (m, h, n, d_k))
        eps = 1e-6
        mem = accumulate_memory(Tensor(merged(k)), Tensor(merged(v)), h)
        got = retrieve_memory(Tensor(merged(q)), mem, eps).data
        expected = linear_attention_oracle(q, k, v, eps)
        np.testing.assert_allclose(got, merged(expected), atol=1e-10)


class TestDotAttention:
    def test_single_token_returns_value(self):
        rng = np.random.default_rng(3)
        q, k, v = (Tensor(merged(rng.standard_normal((2, 1, 4)))) for _ in range(3))  # 2 heads
        np.testing.assert_allclose(dot_attention(q, k, v, 2).data, v.data, atol=1e-14)

    def test_identical_keys_give_uniform_weights(self):
        rng = np.random.default_rng(4)
        q = Tensor(rng.standard_normal((1, 3, 2)))
        k = Tensor(np.tile(rng.standard_normal((1, 1, 2)), (1, 5, 1)))
        v = Tensor(rng.standard_normal((1, 5, 2)))
        np.testing.assert_allclose(
            dot_attention(q, Tensor(k.data[:, :3]), Tensor(v.data[:, :3]), 1).data,
            np.tile(v.data[:, :3].mean(axis=1, keepdims=True), (1, 3, 1)), atol=1e-12)

    def test_matches_explicit_softmax_oracle(self):
        rng = np.random.default_rng(5)
        q, k, v = (rng.standard_normal((2, 4, 3)) for _ in range(3))  # [h, n, d_k]
        scores = q @ k.swapaxes(-1, -2) / math.sqrt(3)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        expected = (e / e.sum(axis=-1, keepdims=True)) @ v
        got = dot_attention(Tensor(merged(q)), Tensor(merged(k)), Tensor(merged(v)), 2).data
        np.testing.assert_allclose(got, merged(expected), atol=1e-12)


class TestGate:
    def setup_method(self):
        rng = np.random.default_rng(6)
        self.a_mem = Tensor(merged(rng.standard_normal((2, 3, 4))))  # 2 heads of width 4
        self.a_dot = Tensor(merged(rng.standard_normal((2, 3, 4))))

    def test_balanced_at_zero(self):
        out = gate_combine(self.a_mem, self.a_dot, Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, 0.5 * (self.a_mem.data + self.a_dot.data), atol=1e-15)

    def test_saturates_to_local(self):
        out = gate_combine(self.a_mem, self.a_dot, Tensor(np.full(2, -40.0)))
        np.testing.assert_allclose(out.data, self.a_dot.data, atol=1e-15)

    def test_saturates_to_memory(self):
        out = gate_combine(self.a_mem, self.a_dot, Tensor(np.full(2, 40.0)))
        np.testing.assert_allclose(out.data, self.a_mem.data, atol=1e-15)


class TestShapeErrors:
    """A kernel given mismatched widths or gates raises DimensionError naming the shapes."""

    def test_dot_attention_widths_differ(self):
        q, kv = Tensor(np.ones((3, 4))), Tensor(np.ones((3, 5)))
        with pytest.raises(DimensionError, match=r"\(3, 4\).*\(3, 5\)"):
            dot_attention(q, kv, kv, 1)

    @pytest.mark.parametrize("bias_shape", [(1, 3, 4), (2, 1, 3, 4), (2, 2, 3, 4), (3, 1), (4,),
                                            (), (4, 3)],
                             ids=["leading-1", "per-item", "per-item-and-head", "column", "row",
                                  "scalar", "transposed"])
    def test_dot_attention_bias_of_another_shape(self, bias_shape):
        """The bias is one [n_q, n_k] matrix: a broadcasting or per-item one is refused."""
        q, k = Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 4, 4)))
        with pytest.raises(DimensionError, match=re.escape(
                f"attention bias must be [n_q, n_k] = (3, 4), got {bias_shape}")):
            dot_attention(q, k, k, 2, Tensor(np.zeros(bias_shape)))

    @pytest.mark.parametrize("kernel", ["dot_attention", "accumulate_memory"])
    def test_width_not_divisible_by_heads(self, kernel):
        x = Tensor(np.ones((2, 3, 6)))
        with pytest.raises(DimensionError, match=r"\(2, 3, 6\)"):
            if kernel == "dot_attention":
                dot_attention(x, x, x, 4)
            else:
                accumulate_memory(x, x, 4)

    def test_retrieve_query_width_differs_from_memory(self):
        mem = accumulate_memory(Tensor(np.ones((1, 3, 4))), Tensor(np.ones((1, 3, 4))), 2)
        with pytest.raises(DimensionError, match=r"\(1, 3, 6\).*\(1, 2, 2, 3\)"):
            retrieve_memory(Tensor(np.ones((1, 3, 6))), mem, 1e-6)

    def test_gate_count_differs_from_heads(self):
        a = Tensor(np.ones((3, 4)))  # 2 heads of width 2
        with pytest.raises(DimensionError, match=r"\(3, 4\).*\(3,\)"):
            gate_combine(a, a, Tensor(np.zeros(3)))


def make_layers(d_model=16, n_heads=2, seed=0):
    cfg = EncoderConfig(d_model=d_model, n_heads=n_heads)
    icm = ICMAttention(cfg, np.random.default_rng(seed), "attn", param)
    vanilla = MultiHeadSelfAttention(cfg, np.random.default_rng(seed), "attn", param)
    for name in ("wq", "wk", "wv", "wo"):
        getattr(vanilla, name).data = getattr(icm, name).data.copy()
    return icm, vanilla


def registered_parameters(layer_cls):
    """{name: Parameter} of every weight a layer makes through its ``param`` factory."""
    params = {}

    def registering(name, shape, init):
        params[name] = param(name, shape, init)
        return params[name]

    layer_cls(EncoderConfig(d_model=16, n_heads=2), np.random.default_rng(0), "attn", registering)
    return params


class TestICMLayer:
    def test_projection_identity_weights(self):
        cfg = EncoderConfig(d_model=4, n_heads=2)
        layer = MultiHeadSelfAttention(cfg, np.random.default_rng(0), "a", param)
        layer.wq.data = np.eye(4)
        x = Tensor(np.arange(8.0).reshape(1, 2, 4))
        q, _, _ = layer.project_qkv(x)
        np.testing.assert_array_equal(q.data, x.data)

    def test_projection_zero_weights(self):
        cfg = EncoderConfig(d_model=4, n_heads=2)
        layer = MultiHeadSelfAttention(cfg, np.random.default_rng(0), "a", param)
        for p in (layer.wq, layer.wk, layer.wv):
            p.data = np.zeros((4, 4))
        q, k, v = layer.project_qkv(Tensor(np.ones((1, 3, 4))))
        assert not q.data.any() and not k.data.any() and not v.data.any()

    def test_projection_matches_matmul_oracle(self):
        cfg = EncoderConfig(d_model=6, n_heads=2)
        layer = MultiHeadSelfAttention(cfg, np.random.default_rng(1), "a", param)
        x = np.random.default_rng(2).standard_normal((2, 5, 6))
        q, _, _ = layer.project_qkv(Tensor(x))
        np.testing.assert_allclose(q.data, x @ layer.wq.data, atol=1e-12)

    def test_gate_closed_equals_vanilla(self):
        icm, vanilla = make_layers()
        icm.beta.data = np.full(2, -40.0)
        x = np.random.default_rng(7).standard_normal((1, 1, 6, 16))
        out_icm = icm(Tensor(x)).data
        out_vanilla = vanilla(Tensor(x)).data
        np.testing.assert_allclose(out_icm, out_vanilla, atol=1e-10)

    def test_channel_permutation_equivariance(self):
        icm, _ = make_layers(seed=3)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 4, 6, 16))
        perm = rng.permutation(4)
        out = icm(Tensor(x)).data
        out_perm = icm(Tensor(x[:, perm])).data
        np.testing.assert_allclose(out_perm, out[:, perm], atol=1e-10)

    def test_matches_reference_transcription(self):
        icm, _ = make_layers(seed=4)
        icm.beta.data = np.random.default_rng(9).standard_normal(2)
        x = np.random.default_rng(10).standard_normal((2, 6, 16))
        got = icm(Tensor(x[None])).data[0]
        expected = icm_attention_reference(Tensor(x), icm).data
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_matches_reference_transcription_per_batch_item(self):
        icm, _ = make_layers(seed=4)
        icm.beta.data = np.random.default_rng(9).standard_normal(2)
        x = np.random.default_rng(12).standard_normal((3, 4, 6, 16))
        got = icm(Tensor(x)).data
        for i in range(3):
            expected = icm_attention_reference(Tensor(x[i]), icm).data
            np.testing.assert_allclose(got[i], expected, atol=1e-10)

    def test_batch_items_never_share_memory(self):
        icm, _ = make_layers(seed=6)
        icm.beta.data = np.full(2, 2.0)  # lean on the memory path
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 3, 6, 16))
        out = icm(Tensor(x)).data
        x[1] = rng.standard_normal((3, 6, 16)) * 10.0
        out_changed = icm(Tensor(x)).data
        np.testing.assert_array_equal(out_changed[0], out[0])
        assert not np.allclose(out_changed[1], out[1])

    def test_zero_channels_raises(self):
        icm, _ = make_layers()
        with pytest.raises(DimensionError):
            icm(Tensor(np.zeros((1, 0, 4, 16))))

    def test_beta_gradient_flows_and_matches_fd(self):
        icm, _ = make_layers(seed=5)
        x = np.random.default_rng(11).standard_normal((1, 2, 4, 16))
        out = icm(Tensor(x))
        mse(out, np.zeros(out.shape)).backward()
        grad = icm.beta.grad.copy()
        assert np.abs(grad).min() > 0

        h = 1e-5
        for i in range(2):
            fd_vals = []
            for delta in (h, -h):
                icm.beta.data[i] += delta
                o = icm(Tensor(x))
                fd_vals.append((o.data * o.data).mean())
                icm.beta.data[i] -= delta
            fd = (fd_vals[0] - fd_vals[1]) / (2 * h)
            assert abs(fd - grad[i]) / max(abs(fd), abs(grad[i])) < 1e-4

    def test_parameter_count_delta_is_heads(self):
        icm = registered_parameters(ICMAttention)
        vanilla = registered_parameters(MultiHeadSelfAttention)
        assert sorted(set(icm) - set(vanilla)) == ["attn.beta"]
        extra = sum(p.size for p in icm.values()) - sum(p.size for p in vanilla.values())
        assert extra == 2  # one gate scalar per head
