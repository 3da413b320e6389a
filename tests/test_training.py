import numpy as np
import pytest

from icmixer.attention import ConfigError
from icmixer.data import generate_lagged_copy, generate_linear_trend, standardized
from icmixer.encoder import EncoderConfig, ForecastEncoder
from icmixer.mixers import MixerKind
from icmixer.tensor import DimensionError
from icmixer.training import (
    Adam,
    MetricReport,
    TrainConfig,
    TrainingDiverged,
    beta_and_head_mask,
    evaluate,
    finetune_beta_and_head,
    gradcheck,
    mae,
    mse,
    shrunken_config,
    train_supervised,
)


def small_config(mixer=MixerKind.ICM):
    return EncoderConfig(n_blocks=1, d_model=16, n_heads=2, d_ff=32, patch_len=8,
                         lookback=32, mixer=mixer, horizons=(8,), max_channels=8)


def small_train_config(**overrides):
    base = dict(epochs=3, batch_size=32, learning_rate=1e-3, seed=0, precision="f64")
    base.update(overrides)
    return TrainConfig(**base)


class TestMetrics:
    def test_mse_identical_is_zero(self):
        assert mse([1.0, 2.0], [1.0, 2.0]).item() == 0.0

    def test_mse_single(self):
        assert mse([0.0], [2.0]).item() == 4.0

    def test_mae(self):
        assert mae([0.0, 2.0], [1.0, 1.0]).item() == 1.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            mse(np.zeros(3), np.zeros(4))


class TestMetricReport:
    def test_average_is_arithmetic_mean(self):
        report = MetricReport()
        report.add("ds", 96, 0.3, 0.4)
        report.add("ds", 192, 0.6, 0.5)
        report.add("ds", 384, 0.9, 0.6)
        avg = report.average("ds")
        assert avg["mse"] == pytest.approx((0.3 + 0.6 + 0.9) / 3)
        assert avg["mae"] == pytest.approx(0.5)

    def test_records_include_average_row(self):
        report = MetricReport()
        report.add("ds", 96, 0.3, 0.4)
        recs = report.to_records()
        assert recs[-1]["horizon"] == "avg"


class TestAdam:
    def test_minimizes_quadratic(self):
        from icmixer.tensor import Parameter
        p = Parameter(np.array([5.0, -3.0]), "p")
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            loss = (p * p).sum()
            loss.backward()
            opt.step()
        assert np.abs(p.data).max() < 1e-3

    def test_bad_lr_raises(self):
        with pytest.raises(ConfigError):
            Adam([], lr=0.0)


class TestTrainSupervised:
    def test_loss_decreases_on_linear_trend(self):
        series = standardized(generate_linear_trend(600))
        model = ForecastEncoder(small_config(MixerKind.INDEPENDENT), seed=0)
        _, _, curve = train_supervised(model, series, small_train_config(epochs=5), horizon=8)
        # smoothed: late average clearly below early average
        assert np.mean(curve[-2:]) < np.mean(curve[:2])

    def test_identical_seeds_identical_metrics(self):
        series = standardized(generate_lagged_copy(m=2, T=800, lag=4, noise_std=0.1, seed=0))

        def run():
            model = ForecastEncoder(small_config(), seed=1)
            _, report, curve = train_supervised(
                model, series, small_train_config(epochs=2), horizon=8)
            return report.entries, curve

        e1, c1 = run()
        e2, c2 = run()
        assert e1 == e2 and c1 == c2

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_aborts_with_diagnostic(self):
        series = standardized(generate_lagged_copy(m=2, T=800, lag=4, noise_std=0.1, seed=0))
        model = ForecastEncoder(small_config(), seed=0)
        model.heads[8][0].data[:] = 1e200  # squared error overflows to inf
        with pytest.raises(TrainingDiverged, match="non-finite"):
            train_supervised(model, series, small_train_config(), horizon=8)

    def test_empty_trainable_set_raises(self):
        series = standardized(generate_lagged_copy(m=2, T=800, lag=4, noise_std=0.1, seed=0))
        model = ForecastEncoder(small_config(), seed=0)
        cfg = small_train_config(freeze_mask=lambda name: False)
        with pytest.raises(ConfigError, match="no trainable"):
            train_supervised(model, series, cfg, horizon=8)


class TestTelemetry:
    def run(self, mixer, log, monkeypatch):
        """(loss curve, report entries, final parameters, validation MSEs) of a 2-epoch run."""
        series = standardized(generate_lagged_copy(m=2, T=800, lag=4, noise_std=0.1, seed=0))
        val_mses = []

        def recording_evaluate(*args, **kwargs):
            result = evaluate(*args, **kwargs)
            val_mses.append(result)
            return result

        monkeypatch.setattr("icmixer.training.evaluate", recording_evaluate)
        model = ForecastEncoder(small_config(mixer), seed=1)
        _, report, curve = train_supervised(
            model, series, small_train_config(epochs=2), horizon=8, log=log)
        params = {name: p.data for name, p in model.parameters().items()}
        return curve, report.entries, params, val_mses

    @pytest.mark.parametrize("mixer", [MixerKind.ICM, MixerKind.ICM_STATIC, MixerKind.CONCAT])
    def test_epoch_records_carry_throughput_and_gates(self, mixer, monkeypatch):
        records = []
        self.run(mixer, records.append, monkeypatch)
        assert [r["epoch"] for r in records] == [0, 1]
        for record in records:
            assert record["seconds"] > 0 and record["windows_per_s"] > 0
            if mixer is MixerKind.CONCAT:
                assert "gate" not in record
            else:
                gate = np.array(record["gate"])
                assert gate.shape == (1, 2)  # blocks x heads
                assert np.all((gate > 0) & (gate < 1))

    def test_logging_does_not_perturb_training(self, monkeypatch):
        records = []
        curve_on, report_on, params_on, val_on = self.run(MixerKind.ICM, records.append, monkeypatch)
        curve_off, report_off, params_off, val_off = self.run(MixerKind.ICM, None, monkeypatch)
        assert curve_on == curve_off and report_on == report_off and val_on == val_off
        assert [r["val_mse"] for r in records] == [v[0] for v in val_on[:2]]
        for name, value in params_on.items():
            np.testing.assert_array_equal(value, params_off[name])


class TestFinetune:
    def setup_method(self):
        self.series = standardized(
            generate_lagged_copy(m=2, T=900, lag=8, noise_std=0.05, seed=0))

    def test_mask_selects_beta_and_head(self):
        assert beta_and_head_mask("head.96.w")
        assert beta_and_head_mask("block.2.attn.beta")
        assert not beta_and_head_mask("block.0.ffn.w1")

    def test_head_only_keeps_beta_fixed(self):
        model = ForecastEncoder(small_config(), seed=0)
        before = {n: p.data.copy() for n, p in model.parameters().items()}
        finetune_beta_and_head(model, self.series, small_train_config(epochs=1),
                               horizon=8, tune_beta=False)
        for block in model.blocks:
            np.testing.assert_array_equal(block.attn.beta.data,
                                          before[block.attn.beta.name])

    def test_beta_changes_when_admitted(self):
        model = ForecastEncoder(small_config(), seed=0)
        before = model.blocks[0].attn.beta.data.copy()
        finetune_beta_and_head(model, self.series, small_train_config(epochs=1),
                               horizon=8, tune_beta=True)
        assert not np.array_equal(model.blocks[0].attn.beta.data, before)

    def test_frozen_backbone_bitwise_unchanged(self):
        model = ForecastEncoder(small_config(), seed=0)
        before = {n: p.data.copy() for n, p in model.parameters().items()}
        finetune_beta_and_head(model, self.series, small_train_config(epochs=2),
                               horizon=8, tune_beta=True)
        for name, p in model.parameters().items():
            if not beta_and_head_mask(name):
                assert np.array_equal(p.data, before[name]), name


class TestGradcheck:
    @pytest.mark.parametrize("mixer", list(MixerKind))
    def test_all_mixer_kinds_pass(self, mixer):
        report = gradcheck(shrunken_config(mixer), tolerance=1e-4)
        assert report.passed, report.summary()

    def test_concat_covers_bias_scalars(self):
        report = gradcheck(shrunken_config(MixerKind.CONCAT))
        assert "channel_bias.u1" in report.max_rel_err
        assert "channel_bias.u2" in report.max_rel_err

    def test_icm_covers_beta(self):
        report = gradcheck(shrunken_config(MixerKind.ICM))
        assert "block.0.attn.beta" in report.max_rel_err

    def test_static_covers_channel_embedding(self):
        report = gradcheck(shrunken_config(MixerKind.ICM_STATIC))
        assert "channel_embed.table" in report.max_rel_err

    def test_failure_reported_for_impossible_tolerance(self):
        report = gradcheck(shrunken_config(MixerKind.ICM), tolerance=1e-16)
        assert not report.passed
        assert "FAIL" in report.summary()


class TestTrainConfig:
    def test_bad_learning_rate(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)

    def test_bad_precision(self):
        with pytest.raises(ConfigError):
            TrainConfig(precision="f16")

    def test_dtype_mapping(self):
        assert TrainConfig(precision="f32").dtype == np.float32
        assert TrainConfig(precision="f64").dtype == np.float64
