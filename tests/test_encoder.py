import numpy as np
import pytest

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
from icmixer.tensor import DimensionError, Tensor
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
    ])
    def test_non_positive_sizes_raise(self, field, value):
        with pytest.raises(ConfigError, match=field):
            tiny_config(**{field: value})

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


class TestEncode:
    def test_output_shape_defaults(self):
        model = ForecastEncoder(EncoderConfig(n_blocks=1), seed=0)
        out = model.encode(np.random.default_rng(0).standard_normal((2, 3, 256)))
        assert out.shape == (2, 3, 32, 256)

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_shape_contract_over_channels(self, m):
        model = ForecastEncoder(tiny_config(), seed=0)
        out = model.encode(np.random.default_rng(m).standard_normal((1, m, 32)))
        assert out.shape == (1, m, 4, 16)

    def test_channel_independent_matches_split_framing(self):
        model = ForecastEncoder(tiny_config(MixerKind.INDEPENDENT), seed=1)
        x = np.random.default_rng(3).standard_normal((1, 2, 32))
        joint = model.encode(x).data
        solo0 = model.encode(x[:, :1]).data
        solo1 = model.encode(x[:, 1:]).data
        np.testing.assert_allclose(joint[:, 0], solo0[:, 0], atol=1e-10)
        np.testing.assert_allclose(joint[:, 1], solo1[:, 0], atol=1e-10)

    def test_channel_independence_cross_jacobian_zero(self):
        model = ForecastEncoder(tiny_config(MixerKind.INDEPENDENT), seed=1)
        x = np.random.default_rng(4).standard_normal((1, 2, 32))
        base = model.encode(x).data
        x2 = x.copy()
        x2[:, 1] = 0.0
        perturbed = model.encode(x2).data
        np.testing.assert_array_equal(base[:, 0], perturbed[:, 0])

    def test_icm_gate_closed_equals_independent(self):
        x = np.random.default_rng(5).standard_normal((2, 4, 32))
        m_icm = ForecastEncoder(tiny_config(MixerKind.ICM), seed=2)
        m_ind = ForecastEncoder(tiny_config(MixerKind.INDEPENDENT), seed=2)
        for block in m_icm.blocks:
            block.attn.beta.data[:] = -40.0
        np.testing.assert_allclose(m_icm.encode(x).data, m_ind.encode(x).data, atol=1e-8)

    def test_icm_static_with_zero_table_equals_icm(self):
        x = np.random.default_rng(6).standard_normal((1, 3, 32))
        m_static = ForecastEncoder(tiny_config(MixerKind.ICM_STATIC), seed=3)
        m_icm = ForecastEncoder(tiny_config(MixerKind.ICM), seed=4)
        m_static.channel_embed.table.data[:] = 0.0
        for dst, src in zip(m_icm.parameters().values(),
                            (p for n, p in m_static.parameters().items()
                             if not n.startswith("channel_embed"))):
            dst.data = src.data.copy()
        np.testing.assert_array_equal(m_static.encode(x).data, m_icm.encode(x).data)

    def test_wrong_lookback_raises(self):
        model = ForecastEncoder(tiny_config(), seed=0)
        with pytest.raises(DimensionError):
            model.encode(np.zeros((1, 2, 40)))


class TestPrecision:
    @staticmethod
    def graph_dtypes(loss: Tensor) -> set:
        seen, stack, dtypes = set(), [loss], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                dtypes.add(node.dtype)
                stack.extend(node._parents)
        return dtypes

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
        assert self.graph_dtypes(loss) == {np.dtype(dtype)}
        loss.backward()
        grads = [p.grad for p in model.parameters().values()]
        assert all(g is not None and g.dtype == dtype for g in grads)


class TestForecast:
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


class TestParameters:
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
        loaded = load_checkpoint(path).parameters()
        assert loaded.keys() == model.parameters().keys()
        for name, p in model.parameters().items():
            assert loaded[name].dtype == dtype
            np.testing.assert_array_equal(loaded[name].data, p.data, strict=True)

    def test_f32_checkpoint_preserves_dtype(self, tmp_path):
        model = ForecastEncoder(tiny_config(), seed=0, dtype=np.float32)
        path = tmp_path / "model.icm"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.embed_w.dtype == np.float32


class TestEndToEndGradcheck:
    @pytest.mark.parametrize("mixer", list(MixerKind))
    def test_all_mixers_pass(self, mixer):
        from icmixer.training import gradcheck
        report = gradcheck(shrunken_config(mixer), tolerance=1e-4)
        assert report.passed, report.summary()
