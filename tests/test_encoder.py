import hashlib
import json
import math
import os
import struct
import time

import numpy as np
import pytest

from composite_chains import norm_affine_chain
from conftest import graph_nodes, traced_peak, traced_retained
from icmixer.attention import ConfigError
from icmixer.encoder import (
    EncoderConfig,
    ForecastEncoder,
    denormalize,
    instance_normalize,
    load_checkpoint,
    patchify,
    save_checkpoint,
    sinusoidal_positions,
)
from icmixer.mixers import MixerKind
from icmixer.tensor import (FORWARD_BLOCK_BYTES, PARAM_CHUNK, DimensionError, Parameter, Tensor,
                            linear, no_grad)
from icmixer.training import mse, shrunken_config


def tiny_config(mixer=MixerKind.ICM, **overrides):
    base = dict(n_blocks=1, d_model=16, n_heads=2, d_ff=32, patch_len=8,
                lookback=32, mixer=mixer, horizons=(8, 16), max_channels=8)
    base.update(overrides)
    return EncoderConfig(**base)


class TestConfig:
    def test_defaults_match_tiny_backbone(self):
        cfg = EncoderConfig()
        assert (cfg.n_blocks, cfg.d_model, cfg.n_heads, cfg.d_ff) == (4, 256, 4, 1024)
        assert cfg.lookback == 256 and cfg.n_patches == 32

    def test_indivisible_lookback_raises(self):
        with pytest.raises(ConfigError):
            EncoderConfig(lookback=100, patch_len=8)

    def test_roundtrip_dict(self):
        cfg = tiny_config(MixerKind.CONCAT)
        assert EncoderConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    @pytest.mark.parametrize("field,value", [
        ("n_blocks", 0), ("d_model", 0), ("n_heads", -2), ("d_ff", 0), ("patch_len", 0),
        ("lookback", -32), ("max_channels", 0), ("horizons", (8, 0)), ("horizons", ()),
        ("horizons", (8, 16, 8)),
    ])
    def test_non_positive_sizes_raise(self, field, value):
        with pytest.raises(ConfigError, match=field):
            tiny_config(**{field: value})

    def test_many_horizons_validate_in_linear_time(self):
        """A header or a --config file may list any number of horizons."""
        start = time.perf_counter()
        assert tiny_config(horizons=list(range(1, 20001))).horizons[-1] == 20000
        assert time.perf_counter() - start < 0.5
        with pytest.raises(ConfigError, match=r"horizons\[20000\] repeats horizon 7"):
            tiny_config(horizons=[*range(1, 20001), 7, 7])

    @pytest.mark.parametrize("field,value", [
        ("d_model", 16.9), ("n_heads", True), ("lookback", "32"), ("patch_len", 8.0),
        ("horizons", (8, 96.5)), ("horizons", (False,)),
    ])
    def test_non_integer_sizes_raise(self, field, value):
        with pytest.raises(ConfigError, match=rf"{field}(\[\d\])? must be an integer >= 1"):
            tiny_config(**{field: value})


class TestInstanceNormalize:
    def test_constant_channel(self):
        x_norm, (mean, std) = instance_normalize(np.full((2, 10), 3.0))
        np.testing.assert_allclose(x_norm.data, 0.0, atol=1e-12)
        np.testing.assert_allclose(mean, 3.0)
        np.testing.assert_allclose(std, 0.0)

    def test_standardized_input_nearly_unchanged(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 1000))
        x = (x - x.mean(axis=-1, keepdims=True)) / x.std(axis=-1, keepdims=True)
        x_norm, _ = instance_normalize(x)
        np.testing.assert_allclose(x_norm.data, x, atol=1e-4)

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 64)) * 7 + 3
        x_norm, stats = instance_normalize(x)
        np.testing.assert_allclose(denormalize(x_norm, stats).data, x, atol=1e-10)


class TestPatchify:
    def test_patch_count(self):
        out = patchify(Tensor(np.zeros((2, 256))), 8)
        assert out.shape == (2, 32, 8)

    def test_single_patch(self):
        x = np.arange(16.0)
        out = patchify(Tensor(x[None]), 16)
        np.testing.assert_array_equal(out.data[0, 0], x)

    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 32))
        out = patchify(Tensor(x), 8)
        np.testing.assert_array_equal(out.data.reshape(3, 32), x)

    def test_indivisible_raises(self):
        with pytest.raises(ConfigError):
            patchify(Tensor(np.zeros((2, 30))), 8)


class TestPositions:
    def test_shape_and_first_row(self):
        table = sinusoidal_positions(10, 8)
        assert table.shape == (10, 8)
        np.testing.assert_allclose(table[0], [0, 1, 0, 1, 0, 1, 0, 1])

    def test_rows_distinct(self):
        table = sinusoidal_positions(32, 16)
        assert len({tuple(np.round(r, 9)) for r in table}) == 32


def encode(model, x):
    """[b, m, lookback] -> [b, m, n_patches, d_model]: the encoder output the head reads."""
    return model._encode_normalized(instance_normalize(x)[0])


class TestEncode:
    def test_output_shape_defaults(self):
        model = ForecastEncoder(EncoderConfig(n_blocks=1), seed=0)
        out = encode(model, np.random.default_rng(0).standard_normal((2, 3, 256)))
        assert out.shape == (2, 3, 32, 256)

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_shape_contract_over_channels(self, m):
        model = ForecastEncoder(tiny_config(), seed=0)
        out = encode(model, np.random.default_rng(m).standard_normal((1, m, 32)))
        assert out.shape == (1, m, 4, 16)

    def test_channel_independent_matches_split_framing(self):
        model = ForecastEncoder(tiny_config(MixerKind.INDEPENDENT), seed=1)
        x = np.random.default_rng(3).standard_normal((1, 2, 32))
        joint = encode(model, x).data
        solo0 = encode(model, x[:, :1]).data
        solo1 = encode(model, x[:, 1:]).data
        np.testing.assert_allclose(joint[:, 0], solo0[:, 0], atol=1e-10)
        np.testing.assert_allclose(joint[:, 1], solo1[:, 0], atol=1e-10)

    def test_channel_independence_cross_jacobian_zero(self):
        model = ForecastEncoder(tiny_config(MixerKind.INDEPENDENT), seed=1)
        x = np.random.default_rng(4).standard_normal((1, 2, 32))
        base = encode(model, x).data
        x2 = x.copy()
        x2[:, 1] = 0.0
        perturbed = encode(model, x2).data
        np.testing.assert_array_equal(base[:, 0], perturbed[:, 0])

    def test_icm_gate_closed_equals_independent(self):
        x = np.random.default_rng(5).standard_normal((2, 4, 32))
        m_icm = ForecastEncoder(tiny_config(MixerKind.ICM), seed=2)
        m_ind = ForecastEncoder(tiny_config(MixerKind.INDEPENDENT), seed=2)
        for block in m_icm.blocks:
            block.attn.beta.data[:] = -40.0
        np.testing.assert_allclose(encode(m_icm, x).data, encode(m_ind, x).data, atol=1e-8)

    def test_icm_static_with_zero_table_equals_icm(self):
        x = np.random.default_rng(6).standard_normal((1, 3, 32))
        m_static = ForecastEncoder(tiny_config(MixerKind.ICM_STATIC), seed=3)
        m_icm = ForecastEncoder(tiny_config(MixerKind.ICM), seed=4)
        m_static.channel_embed.data[:] = 0.0
        for dst, src in zip(m_icm.parameters().values(),
                            (p for n, p in m_static.parameters().items()
                             if not n.startswith("channel_embed"))):
            dst.data = src.data.copy()
        np.testing.assert_array_equal(encode(m_static, x).data, encode(m_icm, x).data)

    def test_wrong_lookback_raises(self):
        model = ForecastEncoder(tiny_config(), seed=0)
        with pytest.raises(DimensionError):
            model.forecast(np.zeros((1, 2, 40)), 8)


class TestPrecision:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mixer", list(MixerKind))
    def test_model_computes_in_its_dtype(self, mixer, dtype):
        model = ForecastEncoder(tiny_config(mixer, n_blocks=2, horizons=(8,)), seed=0, dtype=dtype)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 32))
        y = rng.standard_normal((2, 3, 8)).astype(dtype)
        pred = model.forecast(x, 8)
        assert pred.dtype == dtype
        loss = mse(pred, y)
        assert {node.dtype for node in graph_nodes(loss)} == {np.dtype(dtype)}
        loss.backward()
        grads = [p.grad for p in model.parameters().values()]
        assert all(g is not None and g.dtype == dtype for g in grads)

    @pytest.mark.parametrize("dtype", [np.float16, np.longdouble])
    def test_other_dtypes_are_refused_at_construction(self, dtype):
        with pytest.raises(ConfigError, match=r"fits no precision in \['f32', 'f64'\]"):
            ForecastEncoder(tiny_config(), dtype=dtype)


class TestActivationMemory:
    def test_loss_graph_keeps_one_ffn_hidden_array(self):
        """The backward closures of a 1-block f32 ICM model capture one d_ff-wide array.

        It is the post-ReLU hidden that feed_forward saves; weights and biases
        are not counted, and views count with the array they view.
        """
        d_ff = 48  # no other array of this config is 48 wide
        model = ForecastEncoder(tiny_config(d_ff=d_ff, horizons=(8,)), seed=0, dtype=np.float32)
        rng = np.random.default_rng(0)
        loss = mse(model.forecast(rng.standard_normal((2, 3, 32)), 8),
                   rng.standard_normal((2, 3, 8)).astype(np.float32))

        def root(a):
            while isinstance(a.base, np.ndarray):
                a = a.base
            return a

        arrays = [c.cell_contents for node in graph_nodes(loss)
                  for c in getattr(node._backward, "__closure__", None) or ()
                  if isinstance(c.cell_contents, np.ndarray)]
        weights = {id(root(p.data)) for p in model.parameters().values()}
        hidden = {id(root(a)) for a in arrays if a.ndim and a.shape[-1] == d_ff} - weights
        assert len(hidden) == 1

    # MB a loss graph held before its backward when every graph node kept its
    # value: default backbone, 2 windows of 7 channels, float32.
    VALUE_GRAPH_MB = {MixerKind.INDEPENDENT: 32.2, MixerKind.CONCAT: 41.7, MixerKind.ICM: 40.1,
                      MixerKind.ICM_STATIC: 40.6}

    @pytest.mark.parametrize("mixer", list(MixerKind))
    def test_backbone_graph_keeps_only_what_backward_reads(self, mixer):
        """The loss graph of the default backbone holds at most 0.85x the bytes it
        held when nodes kept values: residual sums, sublayer outputs and sigma(K),
        sigma(Q) are no longer saved."""
        model = ForecastEncoder(EncoderConfig(mixer=mixer, horizons=(96,)), seed=0,
                                dtype=np.float32)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 7, 256)).astype(np.float32)
        y = rng.standard_normal((2, 7, 96)).astype(np.float32)

        def loss():
            pred, stats = model.forecast_normalized(x, 96)
            return mse(pred, Tensor(instance_normalize(y, stats)[0].data))

        loss().backward()  # first-call allocations stay out of the count
        held, graph = traced_retained(loss)
        assert held <= 0.85 * self.VALUE_GRAPH_MB[mixer] * 1e6, held
        graph.backward()


    # MB the graph of a 4-window block held after its forward before layer norms
    # folded their affine into the next linear layer and ICM kept one
    # memory-path array: default f32 ICM backbone, 7 channels.
    UNFOLDED_BLOCK_GRAPH_MB = 60.0

    def test_backbone_block_graph_keeps_no_layer_norm_output(self):
        """The graph of one 4-window train block of the default ICM backbone holds at most
        0.85x its former bytes: no layer-norm output, retrieval or gate input is saved."""
        model = ForecastEncoder(EncoderConfig(horizons=(96,)), seed=0, dtype=np.float32)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 7, 256)).astype(np.float32)
        y = rng.standard_normal((4, 7, 96)).astype(np.float32)

        def loss():
            pred, stats = model.forecast_normalized(x, 96)
            return mse(pred, Tensor(instance_normalize(y, stats)[0].data))

        loss().backward()  # first-call allocations stay out of the count
        held, graph = traced_retained(loss)
        assert held <= 0.85 * self.UNFOLDED_BLOCK_GRAPH_MB * 1e6, held
        graph.backward()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("m", [4, 7])
@pytest.mark.parametrize("mixer", list(MixerKind))
def test_a_windows_forecast_does_not_depend_on_its_batch(mixer, m, dtype):
    """Each window's forecast in a batch of 9 is bitwise its forecast in batches of 2, 3, 5.

    The model has a real model's row lengths: instance norm over 256 steps,
    layer norms over 64, attention over 32 patches (concat: all channels'
    tokens). One case is left out, as BLAS-specific: a one-window batch of 4
    channels. Its head GEMM has 4 rows, and OpenBLAS sums a GEMM of 1-5 rows
    of this [2048, 96] head in another order than one of 6 or more (of the
    default backbone's [8192, 96] head, a 1-row GEMM only). GEMM rows are not
    padded for it.
    """
    config = EncoderConfig(n_blocks=2, d_model=64, n_heads=4, d_ff=128, patch_len=8,
                           lookback=256, mixer=mixer, horizons=(96,))
    model = ForecastEncoder(config, seed=0, dtype=dtype)
    x = np.random.default_rng(m).standard_normal((9, m, 256)) * 2 + 1
    with no_grad():
        nine = model.forecast(x, 96).data
        for b in (2, 3, 5):
            assert model.forecast(x[:b], 96).data.tobytes() == nine[:b].tobytes(), b


class TestForecast:
    def test_tensor_input_runs_in_the_model_dtype(self):
        model = ForecastEncoder(tiny_config(), seed=0, dtype=np.float32)
        x = np.random.default_rng(8).standard_normal((2, 3, 32))
        from_array, from_tensor = model.forecast(x, 8), model.forecast(Tensor(x), 8)
        assert from_array.dtype == from_tensor.dtype == np.float32
        assert from_tensor.data.tobytes() == from_array.data.tobytes()

    def test_output_shapes(self):
        model = ForecastEncoder(tiny_config(), seed=0)
        x = np.random.default_rng(7).standard_normal((2, 3, 32))
        assert model.forecast(x, 8).shape == (2, 3, 8)
        assert model.forecast(x, 16).shape == (2, 3, 16)

    def test_unknown_horizon_raises(self):
        model = ForecastEncoder(tiny_config(), seed=0)
        with pytest.raises(ConfigError):
            model.forecast(np.zeros((1, 2, 32)), 99)

    def test_zero_head_forecasts_input_mean(self):
        model = ForecastEncoder(tiny_config(), seed=0)
        w, b = model.heads[8]
        w.data[:] = 0.0
        b.data[:] = 0.0
        x = np.random.default_rng(8).standard_normal((1, 2, 32)) * 5 + 2
        pred = model.forecast(x, 8).data
        np.testing.assert_allclose(pred, np.tile(x.mean(axis=-1, keepdims=True), (1, 1, 8)),
                                    atol=1e-10)

    def test_head_gradients_match_finite_differences(self):
        from icmixer.training import mse
        model = ForecastEncoder(tiny_config(), seed=1)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 2, 32))
        y = rng.standard_normal((1, 2, 8))
        loss = mse(model.forecast(x, 8), y)
        model.zero_grad()
        loss.backward()
        w, _ = model.heads[8]
        h = 1e-5
        for i, j in [(0, 0), (5, 3), (63, 7)]:
            orig = w.data[i, j]
            w.data[i, j] = orig + h
            fp = mse(model.forecast(x, 8), y).item()
            w.data[i, j] = orig - h
            fm = mse(model.forecast(x, 8), y).item()
            w.data[i, j] = orig
            fd = (fp - fm) / (2 * h)
            assert abs(fd - w.grad[i, j]) / max(abs(fd), abs(w.grad[i, j]), 1e-8) < 1e-4


class TestForwardBlocks:
    """Under no_grad a forecast runs its batch in near-equal blocks of whole windows."""

    M = 4  # channels

    @staticmethod
    def model(dtype):
        # 16 patches of width 64: a window of 4 channels is 16 KiB in f32 and
        # 32 KiB in f64, so a block holds 128 or 64 windows.
        config = tiny_config(d_model=64, d_ff=64, lookback=128, horizons=(8,))
        return ForecastEncoder(config, seed=3, dtype=dtype)

    @classmethod
    def block_windows(cls, model):
        window_bytes = cls.M * model.config.n_patches * model.config.d_model * model.dtype.itemsize
        return FORWARD_BLOCK_BYTES // window_bytes

    @staticmethod
    def single_pass(model, x):
        """The forecast of one encoder pass over the whole batch, then the head as
        the unfolded chain: the final norm's affine, then the linear layer."""
        x_norm, stats = instance_normalize(Tensor(x, dtype=model.dtype))
        enc = norm_affine_chain(model._encode_normalized(x_norm), *model.final_ln.affine)
        b, m, n_patches, d = enc.shape
        w, bias = model.heads[8]
        return denormalize(linear(enc.reshape(b, m, n_patches * d), w, bias), stats)

    @staticmethod
    def record_blocks(model, monkeypatch):
        """The batch size of each encoder pass the model makes."""
        sizes, encode = [], model._encode_normalized

        def recording_encode(x_norm):
            sizes.append(x_norm.shape[0])
            return encode(x_norm)

        monkeypatch.setattr(model, "_encode_normalized", recording_encode)
        return sizes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_equal_the_single_pass(self, dtype, monkeypatch):
        """Every step is per window, so blocks give the one-pass forecast.

        Tolerance set before measuring: 16 eps of the dtype relative to the
        largest forecast, for blocks that change the GEMM row counts. Every
        run observed was bitwise equal, so that is what is asserted.
        """
        model = self.model(dtype)
        block = self.block_windows(model)
        assert block == {np.float32: 128, np.float64: 64}[dtype]
        b = 2 * block + block // 2 + 1  # three blocks that cannot all be equal
        x = np.random.default_rng(4).standard_normal((b, self.M, 128)) * 3 + 1
        with no_grad():
            expected = self.single_pass(model, x).data
            sizes = self.record_blocks(model, monkeypatch)
            pred = model.forecast(x, 8).data
        assert len(sizes) == 3 and sum(sizes) == b and max(sizes) - min(sizes) <= 1
        assert pred.dtype == dtype and pred.shape == (b, self.M, 8)
        np.testing.assert_allclose(pred, expected, rtol=0,
                                   atol=16 * np.finfo(dtype).eps * np.abs(expected).max())
        assert pred.tobytes() == expected.tobytes()

    def test_one_block_batches_run_in_one_pass(self, monkeypatch):
        model = self.model(np.float32)
        sizes = self.record_blocks(model, monkeypatch)
        x = np.random.default_rng(5).standard_normal((self.block_windows(model), self.M, 128))
        with no_grad():
            model.forecast(x, 8)
            model.forecast(x[:1], 8)
            assert model.forecast(x[:0], 8).shape == (0, self.M, 8)
        assert sizes == [self.block_windows(model), 1, 0]

    def test_peak_memory_does_not_grow_with_the_batch(self):
        """The traced peak of a 4-block batch stays within 1.5x that of one block.

        One pass over the batch would hold 4x the activations.
        """
        model = self.model(np.float64)
        block = self.block_windows(model)
        x = np.random.default_rng(6).standard_normal((4 * block, self.M, 128))
        peaks = []
        with no_grad():
            model.forecast(x[:1], 8)  # first-call allocations stay out of the peaks
            for batch in (x[:block], x):
                peaks.append(traced_peak(lambda: model.forecast(batch, 8))[0])
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_a_graph_keeps_the_single_pass(self, monkeypatch):
        """With a graph the batch runs in one pass: same values and gradients as one pass."""
        model = self.model(np.float32)
        b = 2 * self.block_windows(model) + 1
        rng = np.random.default_rng(7)
        x = rng.standard_normal((b, self.M, 128))
        y = rng.standard_normal((b, self.M, 8)).astype(np.float32)
        sizes = self.record_blocks(model, monkeypatch)
        pred = model.forecast(x, 8)
        assert sizes == [b]
        loss = mse(pred, y)
        model.zero_grad()
        loss.backward()
        grads = {name: p.grad.copy() for name, p in model.parameters().items()}
        monkeypatch.undo()
        expected = self.single_pass(model, x)
        assert pred.data.tobytes() == expected.data.tobytes()
        loss = mse(expected, y)
        model.zero_grad()
        loss.backward()
        for name, p in model.parameters().items():
            assert grads[name].tobytes() == p.grad.tobytes(), name


def reachable_parameters(obj, seen):
    """Every Parameter reachable from ``obj`` through package objects' attributes,
    lists, tuples and dicts, each once."""
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, Parameter):
        return [obj]
    if isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (list, tuple)):
        children = obj
    elif type(obj).__module__.startswith("icmixer.") and hasattr(obj, "__dict__"):
        children = vars(obj).values()
    else:
        return []
    return [p for child in children for p in reachable_parameters(child, seen)]


class TestParameters:
    @pytest.mark.parametrize("mixer", list(MixerKind))
    def test_every_reachable_parameter_is_registered_in_the_model_dtype(self, mixer):
        """A layer that built a Parameter itself, not through the model's factory, fails here."""
        model = ForecastEncoder(tiny_config(mixer, n_blocks=2), seed=0, dtype=np.float32)
        params = model.parameters()
        # Walk the layers, not the registry itself.
        seen = {id(params)}
        reachable = reachable_parameters(model, seen)
        assert sorted(p.name for p in reachable) == sorted(params)
        for p in reachable:
            assert params[p.name] is p and p.dtype == np.float32, p.name

    @pytest.mark.parametrize("mixer, extra, attn", [
        (MixerKind.CONCAT, ["channel_bias.u1", "channel_bias.u2"], ["wq", "wk", "wv", "wo"]),
        (MixerKind.ICM_STATIC, ["channel_embed.table"], ["wq", "wk", "wv", "wo", "beta"]),
    ], ids=["concat", "icm-static"])
    def test_name_order_is_pinned(self, mixer, extra, attn):
        """The order is the checkpoint layout and gradcheck's coordinate-draw order."""
        model = ForecastEncoder(tiny_config(mixer), seed=0)
        assert list(model.parameters()) == [
            "embed.w", "embed.b", *extra,
            "block.0.ln1.gain", "block.0.ln1.bias", *(f"block.0.attn.{w}" for w in attn),
            "block.0.ln2.gain", "block.0.ln2.bias",
            "block.0.ffn.w1", "block.0.ffn.b1", "block.0.ffn.w2", "block.0.ffn.b2",
            "final_ln.gain", "final_ln.bias", "head.8.w", "head.8.b", "head.16.w", "head.16.b"]

    def test_registry_unique_and_complete(self):
        model = ForecastEncoder(tiny_config(MixerKind.ICM_STATIC), seed=0)
        params = model.parameters()
        assert len(params) == len({id(p) for p in params.values()})
        assert all(name == p.name for name, p in params.items())

    def test_icm_adds_blocks_times_heads_scalars(self):
        for n_blocks, n_heads in [(1, 2), (2, 4)]:
            kwargs = dict(n_blocks=n_blocks, n_heads=n_heads)
            icm = ForecastEncoder(tiny_config(MixerKind.ICM, **kwargs), seed=0)
            ind = ForecastEncoder(tiny_config(MixerKind.INDEPENDENT, **kwargs), seed=0)
            assert icm.parameter_count() - ind.parameter_count() == n_blocks * n_heads

    def test_tiny_config_adds_sixteen(self):
        icm = ForecastEncoder(EncoderConfig(mixer=MixerKind.ICM), seed=0)
        ind = ForecastEncoder(EncoderConfig(mixer=MixerKind.INDEPENDENT), seed=0)
        assert icm.parameter_count() - ind.parameter_count() == 16


def swap_entries(arrays: dict, x, y) -> dict:
    """``arrays`` with the entries named ``x`` and ``y`` in each other's places."""
    other = {x: y, y: x}
    return {other.get(k, k): arrays[other.get(k, k)] for k in arrays}


def rebind_all(model, dtype):
    for p in model.parameters().values():
        p.data = p.data.astype(dtype)


def one_shot_init(model, seed):
    """(name, array) of each parameter of a fresh ``model`` built at ``seed``, in its order.

    The init formulas transcribed with one float64 draw of each weight's
    whole shape from ``default_rng(seed)``, cast to the model dtype: fan-in
    weights divide by sqrt(fan_in), attention projections multiply by
    1/sqrt(d_model), the static channel table multiplies by 0.02, layer-norm
    gains are ones and every other parameter zeros.
    """
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(model.config.d_model)
    for name, p in model.parameters().items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("wq", "wk", "wv", "wo"):
            value = rng.standard_normal(p.shape) * scale
        elif leaf == "table":
            value = rng.standard_normal(p.shape) * 0.02
        elif leaf in ("w", "w1", "w2"):
            value = rng.standard_normal(p.shape) / np.sqrt(p.shape[0])
        elif leaf == "gain":
            value = np.ones(p.shape)
        else:
            value = np.zeros(p.shape)
        yield name, value.astype(p.dtype)


class TestInit:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mixer", list(MixerKind))
    def test_chunked_draws_equal_one_shot_draws(self, mixer, dtype):
        """The default backbone's weights span many draw chunks (its 384-step head
        ~96), and every parameter is bitwise the one-shot transcription's."""
        model = ForecastEncoder(EncoderConfig(mixer=mixer), seed=3, dtype=dtype)
        assert model.heads[384][0].size > 90 * PARAM_CHUNK
        params = model.parameters()
        for name, expected in one_shot_init(model, 3):
            got = params[name].data
            assert got.dtype == expected.dtype and got.shape == expected.shape, name
            assert got.tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize("horizons", [(96,), EncoderConfig().horizons], ids=["h96", "default"])
    def test_construction_holds_one_copy_of_the_weights(self, horizons):
        """An f32 backbone draws each weight into its own array a chunk at a time,
        so building it holds no float64 copy of its largest weight."""
        ForecastEncoder(tiny_config())  # the first default_rng imports numpy.random: not traced
        peak, model = traced_peak(
            lambda: ForecastEncoder(EncoderConfig(horizons=horizons), seed=0, dtype=np.float32))
        weight_bytes = sum(p.data.nbytes for p in model.parameters().values())
        assert peak <= 1.05 * weight_bytes, (peak, weight_bytes)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        model = ForecastEncoder(tiny_config(MixerKind.ICM_STATIC), seed=0)
        path = tmp_path / "model.icm"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config.to_dict() == model.config.to_dict()
        for name, p in model.parameters().items():
            np.testing.assert_array_equal(loaded.parameters()[name].data, p.data)

    def test_forecasts_survive_roundtrip(self, tmp_path):
        model = ForecastEncoder(tiny_config(), seed=1)
        path = tmp_path / "model.icm"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        x = np.random.default_rng(0).standard_normal((1, 2, 32))
        np.testing.assert_array_equal(loaded.forecast(x, 8).data, model.forecast(x, 8).data)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "junk.icm"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ConfigError, match="magic"):
            load_checkpoint(path)

    def test_save_over_an_existing_checkpoint(self, tmp_path):
        path = tmp_path / "model.icm"
        save_checkpoint(ForecastEncoder(tiny_config(d_model=32), seed=0), path)
        second = ForecastEncoder(tiny_config(), seed=1)
        save_checkpoint(second, path)
        loaded = load_checkpoint(path)
        assert loaded.config.to_dict() == second.config.to_dict()
        for name, p in second.parameters().items():
            np.testing.assert_array_equal(loaded.parameters()[name].data, p.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mixer", list(MixerKind))
    def test_load_draws_no_random_init(self, tmp_path, monkeypatch, mixer, dtype):
        model = ForecastEncoder(tiny_config(mixer, n_blocks=2), seed=3, dtype=dtype)
        rng = np.random.default_rng(4)
        for p in model.parameters().values():  # no parameter left at its zero init
            p.data = (p.data + rng.standard_normal(p.shape)).astype(dtype)
        path = tmp_path / "model.icm"
        save_checkpoint(model, path)

        def no_generator(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a random init")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        loaded = load_checkpoint(path)
        assert loaded.parameters().keys() == model.parameters().keys()
        for name, p in model.parameters().items():
            assert loaded.parameters()[name].dtype == dtype
            np.testing.assert_array_equal(loaded.parameters()[name].data, p.data, strict=True)
        x = np.linspace(-2.0, 3.0, 3 * 2 * 32).reshape(3, 2, 32)
        np.testing.assert_array_equal(loaded.forecast(x, 16).data, model.forecast(x, 16).data,
                                      strict=True)

    def test_f32_checkpoint_preserves_dtype(self, tmp_path):
        model = ForecastEncoder(tiny_config(), seed=0, dtype=np.float32)
        path = tmp_path / "model.icm"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.embed_w.dtype == np.float32

    def test_save_and_load_hold_one_copy_of_the_weights(self, tmp_path):
        """Default f32 backbone: a load reads each buffer into its own parameter's
        array, and a save writes each parameter's array without copying it."""
        model = ForecastEncoder(EncoderConfig(horizons=(96,)), seed=0, dtype=np.float32)
        weight_bytes = sum(p.data.nbytes for p in model.parameters().values())
        path = tmp_path / "model.icm"
        peaks = {name: traced_peak(call)[0]
                 for name, call in [("save", lambda: save_checkpoint(model, path)),
                                    ("load", lambda: load_checkpoint(path))]}
        assert peaks["save"] <= 2**20, peaks
        assert peaks["load"] <= 1.05 * weight_bytes, (peaks, weight_bytes)

    @staticmethod
    def write_arrays(path, config, arrays):
        """A checkpoint of ``config`` whose header lists ``arrays`` (name -> array) in their
        order, each labelled with its own dtype, over their bytes laid end to end."""
        entries, offset = [], 0
        for name, a in arrays.items():
            entries.append({"name": name, "shape": list(a.shape), "dtype": a.dtype.str,
                            "offset": offset})
            offset += a.nbytes
        header = json.dumps({"config": config.to_dict(), "params": entries}).encode()
        path.write_bytes(b"ICM1" + struct.pack("<I", len(header)) + header
                         + b"".join(a.tobytes() for a in arrays.values()))

    @pytest.mark.parametrize("relabelled, label", [
        (None, ">f4"), (None, ">f8"), (None, "<f2"), (None, np.dtype(np.longdouble).str),
        ("block.0.ffn.w1", "<f8"),
    ], ids=["big-endian-f32", "big-endian-f64", "f16", "longdouble", "mixed"])
    def test_unwritten_dtype_is_refused(self, tmp_path, relabelled, label):
        """Save labels every entry "<f4" or "<f8" alike. Each file here is consistent,
        its bytes in the labelled dtype, and is still refused (None: every entry)."""
        model = ForecastEncoder(tiny_config(), seed=0, dtype=np.float32)
        arrays = {name: p.data.astype(label) if relabelled in (None, name) else p.data
                  for name, p in model.parameters().items()}
        path = tmp_path / "model.icm"
        self.write_arrays(path, model.config, arrays)
        with pytest.raises(ConfigError, match=f"'{relabelled or 'embed.w'}' has dtype '{label}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda a: swap_entries(a, "block.0.attn.wq", "block.0.attn.wk"),
         "the model declares 'block.0.attn.wq' where the header lists 'block.0.attn.wk'"),
        (lambda a: dict(list(a.items())[:-1]), r"\(missing: \['head.16.b'\]\)"),
        (lambda a: {**a, "extra": np.zeros(2, np.float32)},
         r"do not match the model \(unknown: \['extra'\]\)"),
    ], ids=["permuted", "missing", "unknown"])
    def test_header_lists_the_declarations_in_order(self, tmp_path, edit, message):
        """The header order is the declaration order. Offsets and body follow each edited
        list, so only the list itself is at fault: two same-shape entries swapped, the last
        one dropped, or one added."""
        model = ForecastEncoder(tiny_config(), seed=0, dtype=np.float32)
        path = tmp_path / "model.icm"
        self.write_arrays(path, model.config,
                          edit({name: p.data for name, p in model.parameters().items()}))
        with pytest.raises(ConfigError, match=message):
            load_checkpoint(path)

    def test_big_endian_parameter_is_labelled_with_the_bytes_written(self, tmp_path):
        """A >f4 parameter is written little-endian, so its entry must say <f4."""
        model = ForecastEncoder(tiny_config(), seed=0, dtype=np.float32)
        expected = model.embed_w.data.copy()
        model.embed_w.data = expected.astype(">f4")
        path = tmp_path / "model.icm"
        save_checkpoint(model, path)
        np.testing.assert_array_equal(load_checkpoint(path).embed_w.data, expected, strict=True)

    def test_file_shrinking_after_its_size_was_read_raises(self, tmp_path, monkeypatch):
        """A short read is caught, as if the file lost its last byte after ``fstat``."""
        path = tmp_path / "model.icm"
        save_checkpoint(ForecastEncoder(tiny_config(), seed=0), path)
        path.write_bytes(path.read_bytes()[:-1])
        real_fstat = os.fstat

        def fstat_before_the_cut(fd):
            stat = list(real_fstat(fd))
            stat[6] += 1  # st_size
            return os.stat_result(stat)

        monkeypatch.setattr(os, "fstat", fstat_before_the_cut)
        with pytest.raises(ConfigError, match="ended inside parameter 'head.16.b'"):
            load_checkpoint(path)

    @staticmethod
    def edit_entries(path, edit, tail=b""):
        """Apply ``edit`` to the header's entry list of the file at ``path``; append ``tail``."""
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[4:8])
        header = json.loads(raw[8:8 + hlen])
        edit(header["params"])
        new_header = json.dumps(header).encode()
        path.write_bytes(raw[:4] + struct.pack("<I", len(new_header)) + new_header
                         + raw[8 + hlen:] + tail)

    @pytest.mark.parametrize("key, value, message", [
        ("offset", False, "corrupt checkpoint header"),
        ("shape", [8.0, 16], r"'embed.w' shape \[8.0, 16\] != model shape \[8, 16\]"),
    ], ids=["bool-offset", "float-size"])
    def test_entry_numbers_must_be_integers(self, tmp_path, key, value, message):
        """JSON ``false`` equals 0 and ``8.0`` equals 8 in Python; neither is an integer."""
        path = tmp_path / "model.icm"
        save_checkpoint(ForecastEncoder(tiny_config(), seed=0), path)
        self.edit_entries(path, lambda entries: entries[0].__setitem__(key, value))
        with pytest.raises(ConfigError, match=message):
            load_checkpoint(path)

    @staticmethod
    def alias_wk_to_wq(entries):
        by_name = {e["name"]: e for e in entries}
        by_name["block.0.attn.wk"]["offset"] = by_name["block.0.attn.wq"]["offset"]

    @pytest.mark.parametrize("edit, tail, message", [
        (alias_wk_to_wq, b"junk", r"'block.0.attn.wk' at offset (\d+), expected (?!\1)\d+"),
        (lambda entries: None, b"\0" * 4, "4 bytes after the last checkpoint parameter"),
        (lambda entries: entries.insert(0, entries.pop(1)), b"",
         "the model declares 'embed.w' where the header lists 'embed.b'"),
    ], ids=["aliased-offset-and-trailing-bytes", "trailing-bytes", "entries-out-of-order"])
    def test_buffers_must_fill_the_body_in_header_order(self, tmp_path, edit, tail, message):
        """Offsets are the running sum of the sizes before them, in declaration order, and
        the body holds no more."""
        path = tmp_path / "model.icm"
        save_checkpoint(ForecastEncoder(tiny_config(), seed=0), path)
        self.edit_entries(path, edit, tail)
        with pytest.raises(ConfigError, match=message):
            load_checkpoint(path)

    @staticmethod
    def poke(path, name, value):
        """Overwrite the first element of parameter ``name`` in the file at ``path``."""
        raw = bytearray(path.read_bytes())
        (hlen,) = struct.unpack("<I", raw[4:8])
        entry = next(e for e in json.loads(raw[8:8 + hlen])["params"] if e["name"] == name)
        start = 8 + hlen + entry["offset"]
        element = np.array(value, dtype=entry["dtype"]).tobytes()
        raw[start:start + len(element)] = element
        path.write_bytes(bytes(raw))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_are_malformed(self, tmp_path, value):
        path = tmp_path / "model.icm"
        save_checkpoint(ForecastEncoder(tiny_config(), seed=0), path)
        self.poke(path, "head.8.w", value)
        self.poke(path, "block.0.ffn.w1", value)
        with pytest.raises(ConfigError, match="'block.0.ffn.w1' holds a non-finite value"):
            load_checkpoint(path)

    @pytest.mark.parametrize("spoil, message", [
        (lambda model: model.blocks[0].ffn.b1.data.__setitem__(3, np.nan),
         "'block.0.ffn.b1' holds a non-finite value"),
        (lambda model: setattr(model.embed_b, "data", model.embed_b.data.astype(np.float32)),
         "must share one float dtype"),
        (lambda model: rebind_all(model, np.float16), r"<f4 or <f8, got \['<f2'\]"),
        (lambda model: rebind_all(model, np.longdouble), "must share one float dtype, <f4 or <f8"),
    ], ids=["non-finite", "mixed-dtypes", "all-f16", "all-longdouble"])
    def test_save_refuses_what_load_rejects_and_keeps_the_old_file(self, tmp_path, spoil,
                                                                    message):
        path = tmp_path / "model.icm"
        save_checkpoint(ForecastEncoder(tiny_config(), seed=0), path)
        old = path.read_bytes()
        model = ForecastEncoder(tiny_config(), seed=1)
        spoil(model)
        with pytest.raises(ConfigError, match=message):
            save_checkpoint(model, path)
        assert path.read_bytes() == old

    # sha256 over each parameter's name and little-endian bytes, in registry
    # order, of tiny_config(mixer, n_blocks=2) at seed 5.
    SEEDED_INIT_DIGESTS = {
        ("independent", "float32"): "279de53c3e92df21",
        ("independent", "float64"): "4c333771563a92c2",
        ("concat", "float32"): "f07eff8a2e3fc0e5",
        ("concat", "float64"): "12cf008318cbc7c6",
        ("icm", "float32"): "f369173db53d39ac",
        ("icm", "float64"): "63312e4d00d25cac",
        ("icm-static", "float32"): "31d85993240ca544",
        ("icm-static", "float64"): "0e5dfb23979125a4",
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mixer", list(MixerKind))
    def test_seeded_init_is_pinned(self, mixer, dtype):
        """A seeded init draws each parameter from ``init(shape, dtype)`` in declaration order.

        ``load_checkpoint`` declares the same parameters without calling ``init``;
        these digests pin that a fresh model's values do not move.
        """
        model = ForecastEncoder(tiny_config(mixer, n_blocks=2), seed=5, dtype=dtype)
        digest = hashlib.sha256()
        for name, p in model.parameters().items():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(p.data, dtype=p.dtype.newbyteorder("<")).tobytes())
        key = (mixer.value, np.dtype(dtype).name)
        assert digest.hexdigest()[:16] == self.SEEDED_INIT_DIGESTS[key]


class TestEndToEndGradcheck:
    @pytest.mark.parametrize("mixer", list(MixerKind))
    def test_all_mixers_pass(self, mixer):
        from icmixer.training import gradcheck
        report = gradcheck(shrunken_config(mixer), tolerance=1e-4)
        assert report.passed, report.summary()
