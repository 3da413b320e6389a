import resource

import numpy as np
import pytest

from icmixer import training
from icmixer.attention import ConfigError
from icmixer.data import (
    DEFAULT_SPLIT,
    MultivariateSeries,
    generate_lagged_copy,
    make_windows,
    standardized,
)
from icmixer.encoder import EncoderConfig, ForecastEncoder
from icmixer.mixers import MixerKind
from icmixer.tensor import DimensionError, no_grad
from icmixer.training import (
    Adam,
    MetricReport,
    TrainConfig,
    TrainingDiverged,
    beta_and_head_mask,
    evaluate,
    finetune_beta_and_head,
    gradcheck,
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


def generate_linear_trend(T: int) -> MultivariateSeries:
    """Single-channel y_t = t, standardizable sanity-check series."""
    train_end = int(T * DEFAULT_SPLIT[0])
    val_end = train_end + int(T * DEFAULT_SPLIT[1])
    return MultivariateSeries(name="linear", values=np.arange(float(T))[:, None],
                              channel_names=["y"], split_bounds=(train_end, val_end))


class TestMetrics:
    def test_mse_identical_is_zero(self):
        assert mse([1.0, 2.0], [1.0, 2.0]).item() == 0.0

    def test_mse_single(self):
        assert mse([0.0], [2.0]).item() == 4.0

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


def window_list(series, lookback, horizon, stride=1, split="train"):
    """Oracle: one (input, target) pair per window start, by a loop over rows."""
    lo, hi = series.region(split)
    return [(series.values[s:s + lookback].T,
             series.values[s + lookback:s + lookback + horizon].T)
            for s in range(lo, hi - lookback - horizon + 1, stride)]


def stack_batch(windows, idx):
    return (np.stack([windows[i][0] for i in idx]),
            np.stack([windows[i][1] for i in idx]))


def evaluate_oracle(model, windows, horizon, batch_size):
    """(MSE, MAE) over a window_list, batch by batch as evaluate sums them."""
    sq_sum = abs_sum = count = 0.0
    with no_grad():
        for start in range(0, len(windows), batch_size):
            x, y = stack_batch(windows, range(start, min(start + batch_size, len(windows))))
            err = model.forecast(x, horizon).data.astype(np.float64) - y
            sq_sum += float((err * err).sum())
            abs_sum += float(np.abs(err).sum())
            count += err.size
    return sq_sum / count, abs_sum / count


class TestWindowOracle:
    """Training and evaluation on the window array see what a per-window loop gives."""

    def setup_method(self):
        self.series = standardized(
            generate_lagged_copy(m=3, T=800, lag=4, noise_std=0.1, seed=0))

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_train_supervised_batches_and_metrics_match(self, precision, monkeypatch):
        config = small_train_config(epochs=2, batch_size=16, train_stride=3,
                                    max_train_windows=40, precision=precision)
        model = ForecastEncoder(small_config(), seed=1, dtype=config.dtype)
        trained = []
        forecast_normalized = ForecastEncoder.forecast_normalized
        instance_normalize = training.instance_normalize

        def recording_forecast(self, x, horizon):
            trained.append([x])
            return forecast_normalized(self, x, horizon)

        def recording_normalize(y, stats):  # called by the training step only
            trained[-1].append(y)
            return instance_normalize(y, stats)

        monkeypatch.setattr(ForecastEncoder, "forecast_normalized", recording_forecast)
        monkeypatch.setattr(training, "instance_normalize", recording_normalize)
        _, report, _ = train_supervised(model, self.series, config, horizon=8)
        monkeypatch.undo()

        windows = window_list(self.series, 32, 8, stride=3)
        rng = np.random.default_rng(config.seed)
        keep = np.sort(rng.choice(len(windows), 40, replace=False))
        windows = [windows[i] for i in keep]
        expected = []
        for _ in range(config.epochs):
            order = rng.permutation(len(windows))
            for start in range(0, len(order), 16):
                x, y = stack_batch(windows, order[start:start + 16])
                expected.append((x.astype(config.dtype), y))
        steps = [batch for batch in trained if len(batch) == 2]
        assert len(steps) == len(expected) == 2 * 3
        for (x, y), (x_expected, y_expected) in zip(steps, expected):
            np.testing.assert_array_equal(x, x_expected, strict=True)
            np.testing.assert_array_equal(y, y_expected, strict=True)
        test_windows = window_list(self.series, 32, 8, split="test")
        assert report.entries[(self.series.name, 8)] == dict(
            zip(("mse", "mae"), evaluate_oracle(model, test_windows, 8, 16)))

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("mixer", list(MixerKind))
    def test_evaluate_matches(self, mixer, precision):
        model = ForecastEncoder(small_config(mixer), seed=2,
                                dtype=np.float32 if precision == "f32" else np.float64)
        for split in ("val", "test"):
            assert evaluate(model, make_windows(self.series, 32, 8, split=split), 8, 16) == \
                evaluate_oracle(model, window_list(self.series, 32, 8, split=split), 8, 16)


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
        records, step_norms, epoch_of_step = [], [], []
        adam_step = Adam.step

        def recording_step(optimizer):
            step_norms.append(np.sqrt(sum(np.sum(p.grad.astype(np.float64) ** 2)
                                          for p in optimizer.params)))
            epoch_of_step.append(len(records))
            adam_step(optimizer)

        monkeypatch.setattr(Adam, "step", recording_step)
        self.run(mixer, records.append, monkeypatch)
        assert [r["epoch"] for r in records] == [0, 1]
        for epoch, record in enumerate(records):
            assert record["seconds"] > 0 and record["windows_per_s"] > 0
            largest = max(n for n, e in zip(step_norms, epoch_of_step) if e == epoch)
            assert record["grad_norm"] == pytest.approx(largest, rel=1e-12)
            assert 1.0 < record["peak_rss_mb"] <= resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            if mixer is MixerKind.CONCAT:
                assert "gate" not in record
            else:
                gate = np.array(record["gate"])
                assert gate.shape == (1, 2)  # blocks x heads
                assert np.all((gate > 0) & (gate < 1))
        assert records[0]["peak_rss_mb"] <= records[1]["peak_rss_mb"]  # a running peak

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

    def test_beta_changes_when_admitted(self):
        model = ForecastEncoder(small_config(), seed=0)
        before = model.blocks[0].attn.beta.data.copy()
        finetune_beta_and_head(model, self.series, small_train_config(epochs=1),
                               horizon=8)
        assert not np.array_equal(model.blocks[0].attn.beta.data, before)

    def test_frozen_backbone_bitwise_unchanged(self):
        model = ForecastEncoder(small_config(), seed=0)
        before = {n: p.data.copy() for n, p in model.parameters().items()}
        finetune_beta_and_head(model, self.series, small_train_config(epochs=2),
                               horizon=8)
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

    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("batch_size", 0), ("train_stride", 0), ("patience", 0),
        ("max_train_windows", 0), ("max_train_windows", -3), ("max_train_windows", "many"),
        ("epochs", 2.0), ("batch_size", True),
    ])
    def test_non_positive_or_non_integer_counts_raise(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer >= 1"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("seed", -1, "seed must be an integer >= 0"), ("seed", 1.5, "seed must be an integer"),
        ("seed", "3", "seed must be an integer"),
        ("learning_rate", "1e-3", "learning rate must be positive"),
        ("learning_rate", float("nan"), "learning rate must be positive"),
        ("learning_rate", True, "learning rate must be positive"),
    ])
    def test_bad_seed_or_learning_rate_raises(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            TrainConfig(**{field: value})

    def test_counts_accept_numpy_integers_and_no_window_cap(self):
        cfg = TrainConfig(epochs=np.int64(2), max_train_windows=None)
        assert cfg.epochs == 2 and cfg.max_train_windows is None

    def test_dtype_mapping(self):
        assert TrainConfig(precision="f32").dtype == np.float32
        assert TrainConfig(precision="f64").dtype == np.float64
