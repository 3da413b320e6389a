import re
import resource

import numpy as np
import pytest

from composite_chains import reduce_sum
from conftest import traced_peak
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
from icmixer.tensor import DimensionError, Parameter, Tensor, no_grad
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
        report.add(96, 0.3, 0.4)
        report.add(192, 0.6, 0.5)
        report.add(384, 0.9, 0.6)
        avg = report.average()
        assert avg["mse"] == pytest.approx((0.3 + 0.6 + 0.9) / 3)
        assert avg["mae"] == pytest.approx(0.5)

    def test_records_include_average_row(self):
        report = MetricReport()
        report.add(96, 0.3, 0.4)
        recs = report.to_records("ds")
        assert recs == [{"dataset": "ds", "horizon": 96, "mse": 0.3, "mae": 0.4},
                        {"dataset": "ds", "horizon": "avg", "mse": 0.3, "mae": 0.4}]


class TestAdam:
    def test_minimizes_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]), "p")
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            loss = reduce_sum(p * p)
            loss.backward()
            opt.step()
        assert np.abs(p.data).max() < 1e-3

    def test_bad_lr_raises(self):
        with pytest.raises(ConfigError):
            Adam([], lr=0.0)

    @pytest.mark.parametrize("lr", [-1e-3, float("nan"), float("inf"), True, "1e-3"])
    def test_lr_outside_the_finite_positive_numbers_raises(self, lr):
        # A NaN rate would turn every weight into NaN on the first step.
        with pytest.raises(ConfigError, match="lr must be a finite number > 0"):
            Adam([Parameter(np.ones(3), "p")], lr=lr)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_step_equals_out_of_place_formula_bitwise(self, dtype):
        rng = np.random.default_rng(4)
        params = [Parameter(rng.standard_normal(shape), f"p{i}", dtype=dtype)
                  for i, shape in enumerate([(7, 5), (13,), ()])]
        opt = Adam(params, lr=3e-3)
        (b1, b2), eps = opt.betas, opt.eps
        want = [p.data.copy() for p in params]
        m, v = [np.zeros_like(w) for w in want], [np.zeros_like(w) for w in want]
        for t in range(1, 6):
            for i, p in enumerate(params):
                p.grad = g = np.asarray(
                    rng.standard_normal(p.shape) * 10.0 ** rng.uniform(-6, 2), dtype)
                m[i] = m[i] * b1 + (1 - b1) * g
                v[i] = v[i] * b2 + (1 - b2) * g * g
                m_hat, v_hat = m[i] / (1 - b1 ** t), v[i] / (1 - b2 ** t)
                want[i] = want[i] - 3e-3 * m_hat / (np.sqrt(v_hat) + eps)
            opt.step()
            for p, w in zip(params, want):
                assert p.data.dtype == dtype and p.data.tobytes() == np.asarray(w).tobytes()


    @staticmethod
    def unchunked_step(params, m, v, t, lr, betas, eps):
        """The in-place Adam step over each whole parameter at once."""
        b1, b2 = betas
        for p, m_p, v_p in zip(params, m, v):
            g = p.grad
            m_p *= b1
            m_p += g * (1 - b1)
            v_p *= b2
            v_p += (g * (1 - b2)) * g
            update = m_p / (1 - b1 ** t) * lr
            update /= np.sqrt(v_p / (1 - b2 ** t)) + eps
            p.data -= update

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunked_step_equals_one_pass_bitwise(self, dtype):
        """Parameters of 2.3 chunks, of rows that straddle chunk ends (one of them
        transposed, so not C-contiguous) and of three elements step bitwise as
        one pass over each parameter would."""
        rng = np.random.default_rng(5)
        shapes = [(Adam.CHUNK * 2 + Adam.CHUNK // 3,), (300, 250), (250, 300), (3,)]
        params = [Parameter(rng.standard_normal(shape), f"p{i}", dtype=dtype)
                  for i, shape in enumerate(shapes)]
        params[2] = Parameter(rng.standard_normal((300, 250)).T, "p2", dtype=dtype)
        assert not params[2].data.flags.c_contiguous
        want = [Parameter(p.data.copy(), p.name) for p in params]
        opt = Adam(params, lr=3e-3)
        m, v = ([np.zeros(p.shape, dtype) for p in params] for _ in range(2))
        for t in range(1, 5):
            for p, w in zip(params, want):
                p.grad = w.grad = np.asarray(
                    rng.standard_normal(p.shape) * 10.0 ** rng.uniform(-6, 2), dtype)
            opt.step()
            self.unchunked_step(want, m, v, t, opt.lr, opt.betas, opt.eps)
            for p, w in zip(params, want):
                assert p.data.dtype == dtype and p.data.tobytes() == w.data.tobytes(), p.name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scratch_is_two_chunks(self, dtype):
        """The default backbone's largest parameter, its head weight, is 24 chunks;
        the scratch stays two chunks per dtype."""
        model = ForecastEncoder(EncoderConfig(horizons=(96,)), seed=0, dtype=dtype)
        opt = Adam(model.parameters().values())
        assert max(p.size for p in opt.params) == 24 * Adam.CHUNK
        assert Adam.CHUNK == 2 ** 15
        nbytes = sum(s.nbytes for s in opt._scratch.values())
        assert nbytes <= 2 * Adam.CHUNK * np.dtype(dtype).itemsize


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
        for p in model.parameters().values():
            p.requires_grad = False
        with pytest.raises(ConfigError, match="no trainable"):
            train_supervised(model, series, small_train_config(), horizon=8)

    def test_final_parameters_are_the_best_epochs(self):
        """The one snapshot, overwritten at each improving epoch, restores the best epoch."""
        series = standardized(generate_lagged_copy(m=2, T=800, lag=4, noise_std=0.1, seed=0))
        model = ForecastEncoder(small_config(), seed=1)
        val, states = [], []

        def log(record):  # called after the epoch's validation, before its snapshot
            val.append(record["val_mse"])
            states.append({name: p.data.copy() for name, p in model.parameters().items()})

        train_supervised(model, series, small_train_config(epochs=6, learning_rate=3e-2,
                                                           patience=6), horizon=8, log=log)
        best = int(np.argmin(val))
        improving = [i for i, v in enumerate(val) if v < min(val[:i], default=np.inf)]
        assert len(improving) >= 2 and best < len(val) - 1, val  # both branches, then a restore
        for name, p in model.parameters().items():
            np.testing.assert_array_equal(p.data, states[best][name], strict=True)


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
        assert report.entries[8] == dict(
            zip(("mse", "mae"), evaluate_oracle(model, test_windows, 8, 16)))

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("mixer", list(MixerKind))
    def test_evaluate_matches(self, mixer, precision):
        model = ForecastEncoder(small_config(mixer), seed=2,
                                dtype=np.float32 if precision == "f32" else np.float64)
        for split in ("val", "test"):
            assert evaluate(model, make_windows(self.series, 32, 8, split=split), 8, 16) == \
                evaluate_oracle(model, window_list(self.series, 32, 8, split=split), 8, 16)

    @pytest.mark.parametrize("window_horizon, horizon", [(1, 8), (8, 1), (16, 8)])
    def test_evaluate_rejects_windows_of_another_length(self, window_horizon, horizon):
        """Windows built for one horizon and scored at another would broadcast or fail in numpy."""
        config = EncoderConfig(**{**small_config().to_dict(), "horizons": (1, 8)})
        model = ForecastEncoder(config, seed=2)
        windows = make_windows(self.series, 32, window_horizon, split="test")
        expected = (f"lookback 32 + horizon {horizon} = {32 + horizon}], "
                    f"got shape {windows.shape}")
        with pytest.raises(DimensionError, match=re.escape(expected)):
            evaluate(model, windows, horizon, 16)

    def test_evaluate_rejects_windows_without_a_channel_axis(self):
        model = ForecastEncoder(small_config(), seed=2)
        windows = make_windows(self.series, 32, 8, split="test")[:, 0]
        with pytest.raises(DimensionError, match="must be \\[n, channels, lookback 32"):
            evaluate(model, windows, 8, 16)

    @pytest.mark.parametrize("batch_size", [0, -1, 2.5])
    def test_evaluate_rejects_a_bad_batch_size(self, batch_size):
        model = ForecastEncoder(small_config(), seed=2)
        with pytest.raises(ConfigError, match="batch_size must be an integer >= 1"):
            evaluate(model, make_windows(self.series, 32, 8, split="test"), 8, batch_size)


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
        # Steps of 32 windows in blocks of at most 5, one gradient per step.
        monkeypatch.setattr(training, "TRAIN_BLOCK_BYTES",
                            5 * small_config(mixer).graph_window_bytes(2, np.float64))
        self.run(mixer, records.append, monkeypatch)
        assert [r["epoch"] for r in records] == [0, 1]
        for epoch, record in enumerate(records):
            assert record["seconds"] > 0 and record["windows_per_s"] > 0
            assert record["windows_per_block"] == 5
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

    def test_a_nan_gradient_norm_reaches_the_record(self, monkeypatch):
        """A step whose gradient norm is NaN makes the epoch's grad_norm NaN.

        The first step's ``block.0.ffn.w1`` gradient is set to NaN and no step
        updates a weight, so the NaN never reaches the loss; the record
        alone must show it.
        """
        series = standardized(generate_lagged_copy(m=2, T=800, lag=4, noise_std=0.1, seed=0))
        model = ForecastEncoder(small_config(), seed=1)
        w1 = model.parameters()["block.0.ffn.w1"]
        backward, steps, records = Tensor.backward, [], []

        def backward_with_a_nan_first_step(loss):
            backward(loss)
            if not steps:
                w1.grad[0, 0] = np.nan
            steps.append(len(records))

        monkeypatch.setattr(Tensor, "backward", backward_with_a_nan_first_step)
        monkeypatch.setattr(Adam, "step", lambda optimizer: None)
        train_supervised(model, series, small_train_config(epochs=2), horizon=8,
                         log=records.append)
        assert steps.count(0) > 1  # epoch 0 has finite steps after the NaN one
        assert [r["epoch"] for r in records] == [0, 1]
        assert np.isnan(records[0]["grad_norm"])
        assert np.isfinite(records[1]["grad_norm"]) and records[1]["grad_norm"] > 0

    def test_logging_does_not_perturb_training(self, monkeypatch):
        records = []
        curve_on, report_on, params_on, val_on = self.run(MixerKind.ICM, records.append, monkeypatch)
        curve_off, report_off, params_off, val_off = self.run(MixerKind.ICM, None, monkeypatch)
        assert curve_on == curve_off and report_on == report_off and val_on == val_off
        assert [r["val_mse"] for r in records] == [v[0] for v in val_on[:2]]
        for name, value in params_on.items():
            np.testing.assert_array_equal(value, params_off[name])


DESK_MODEL = dict(n_blocks=1, d_model=32, n_heads=4, d_ff=64, patch_len=8, lookback=256)
BACKBONE_MODEL = dict(n_blocks=4, d_model=256, n_heads=4, d_ff=1024, patch_len=8, lookback=256)


class TestTrainBlocks:
    """A train step runs in blocks of whole windows (``batch_gradients``)."""

    @staticmethod
    def model(mixer, dtype=np.float32, shape=DESK_MODEL):
        return ForecastEncoder(EncoderConfig(**shape, mixer=mixer, horizons=(96,),
                                             max_channels=16), seed=0, dtype=dtype)

    @staticmethod
    def batch(b, m):
        rng = np.random.default_rng(0)
        return rng.standard_normal((b, m, 256)), rng.standard_normal((b, m, 96))

    @staticmethod
    def blocks_of(monkeypatch, model, m, windows):
        """Size the train-step budget to ``windows`` windows of ``m`` channels a block."""
        monkeypatch.setattr(training, "TRAIN_BLOCK_BYTES",
                            windows * model.config.graph_window_bytes(m, model.dtype))

    @staticmethod
    def gradients(model, x, y):
        loss, bad = training.batch_gradients(model, x, y, 96)
        assert bad is None
        return loss, {name: p.grad.copy() for name, p in model.parameters().items()}

    @pytest.mark.parametrize("dtype, m", [(np.float32, 4), (np.float64, 4), (np.float64, 3)])
    @pytest.mark.parametrize("mixer", list(MixerKind))
    def test_blocked_gradients_equal_one_pass(self, mixer, dtype, m, monkeypatch):
        """Blocks of 2 and of 1 window give the one-pass loss and gradients.

        Tolerance set before measuring: every gradient within 256 eps of the
        dtype relative to its largest magnitude, for the sums that the blocks
        reorder. With 4 channels a block's forward is bitwise that of one
        pass. With 3, BLAS may round a window's instance statistics
        differently in another block (its GEMV sums the rows of an odd row
        count in another order), and a ReLU input within that rounding of 0
        switches side, which moves a whole term of a feed-forward gradient:
        up to 1.6e-3 relative in float32 on the default backbone, against
        4e-14 in float64 there. So 3 channels run in float64 only.
        """
        model = self.model(mixer, dtype)
        x, y = self.batch(6, m)
        self.blocks_of(monkeypatch, model, m, 6)
        loss, expected = self.gradients(model, x, y)
        tol = 256 * np.finfo(dtype).eps
        for windows in (2, 1):
            self.blocks_of(monkeypatch, model, m, windows)
            assert len(training.train_blocks(model, 6, m)) == 6 // windows
            blocked_loss, grads = self.gradients(model, x, y)
            assert blocked_loss == pytest.approx(loss, rel=tol)
            for name, grad in grads.items():
                assert grad.dtype == dtype
                np.testing.assert_allclose(grad, expected[name], rtol=0,
                                           atol=tol * np.abs(expected[name]).max(), err_msg=name)

    def test_step_peak_stays_near_one_block(self, monkeypatch):
        """A step over four blocks' worth of windows peaks within 1.5x of a one-block step.

        One pass over the 16 windows would keep four blocks' graphs alive at
        once: 3.3x the one-block peak (1.02x in blocks).
        """
        model = self.model(MixerKind.ICM)
        x, y = self.batch(16, 4)
        self.blocks_of(monkeypatch, model, 4, 4)
        self.gradients(model, x[:4], y[:4])  # first-call allocations stay out of the peaks
        peaks = [traced_peak(lambda: training.batch_gradients(model, x[:b], y[:b], 96))[0]
                 for b in (4, 16)]
        assert peaks[1] <= 1.5 * peaks[0], peaks

    @pytest.mark.parametrize("mixer, shape, m, k", [
        *((mixer, DESK_MODEL, 4, 8) for mixer in MixerKind),
        *((mixer, BACKBONE_MODEL, 7, 2) for mixer in MixerKind),
        (MixerKind.CONCAT, DESK_MODEL, 16, 2),  # the mixer whose graph grows with m^2
    ], ids=[*(f"desk-{mixer.value}" for mixer in MixerKind),
            *(f"backbone-{mixer.value}" for mixer in MixerKind), "desk-concat-16-channels"])
    def test_graph_estimate_is_within_its_band(self, mixer, shape, m, k, monkeypatch):
        """``graph_window_bytes`` lands within 0.7-1.5x of the traced graph of a window.

        The traced graph per window is the difference of the peaks of
        one-pass f32 steps over 2k and k windows, divided by k.
        """
        model = self.model(mixer, np.float32, shape)
        x, y = self.batch(2 * k, m)
        monkeypatch.setattr(training, "TRAIN_BLOCK_BYTES", 2**40)
        self.gradients(model, x[:1], y[:1])
        one, two = (traced_peak(lambda: self.gradients(model, x[:b], y[:b]))[0]
                    for b in (k, 2 * k))
        traced = (two - one) / k
        assert 0.7 <= model.config.graph_window_bytes(m, np.float32) / traced <= 1.5, traced

    @pytest.mark.parametrize("mixer", list(MixerKind))
    def test_backbone_batch_of_8_runs_as_two_blocks_of_4(self, mixer):
        """The benchmark's step (default f32 backbone, 8 windows of 7 channels) keeps
        two blocks of 4: one pass would hold twice the graph."""
        model = self.model(mixer, np.float32, BACKBONE_MODEL)
        assert training.train_blocks(model, 8, 7) == [slice(0, 4), slice(4, 8)]

    @pytest.mark.parametrize("mixer", list(MixerKind))
    def test_criterion_6_config_trains_in_one_pass(self, mixer):
        """The desk config at batch 32 and 4 channels is one block, so it runs as one pass."""
        for dtype in (np.float32, np.float64):
            assert training.train_blocks(self.model(mixer, dtype), 32, 4) == [slice(0, 32)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_non_finite_block_stops_the_step_before_its_backward(self, monkeypatch):
        """A NaN window in the second block of the second batch: no backward for
        that block, no Adam step for that batch, and the error names the block."""
        series = standardized(generate_lagged_copy(m=2, T=800, lag=4, noise_std=0.1, seed=0))
        model = ForecastEncoder(small_config(), seed=1)
        self.blocks_of(monkeypatch, model, 2, 2)
        batches, backwards, steps = [], [], []
        gather, backward, adam_step = training._batch, Tensor.backward, Adam.step

        def gather_with_a_nan(windows, idx, lookback):
            x, y = gather(windows, idx, lookback)
            batches.append(len(idx))
            if len(batches) == 2:
                x[3, 0, 0] = np.nan
            return x, y

        monkeypatch.setattr(training, "_batch", gather_with_a_nan)
        monkeypatch.setattr(Tensor, "backward", lambda t: (backwards.append(1), backward(t)))
        monkeypatch.setattr(Adam, "step", lambda opt: (steps.append(1), adam_step(opt)))
        with pytest.raises(TrainingDiverged, match=re.escape(
                "training loss at epoch 0, batch offset 8, block offset 10 ")):
            train_supervised(model, series, small_train_config(batch_size=8), horizon=8)
        assert batches == [8, 8] and len(backwards) == 4 + 1 and len(steps) == 1


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
            assert p.requires_grad, name  # restored after the run
            if not beta_and_head_mask(name):
                assert np.array_equal(p.data, before[name]), name
                assert p.grad is None, name  # never computed


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

    @pytest.mark.parametrize("kwargs", [
        dict(seed=-1), dict(seed=1.5), dict(tolerance=float("nan")), dict(tolerance=float("inf")),
        dict(tolerance=0.0), dict(tolerance=-1e-4), dict(tolerance=True),
        dict(h=float("nan")), dict(h=float("inf")), dict(h=0.0), dict(h=-1e-5),
    ], ids=["negative-seed", "float-seed", "nan", "inf", "zero", "negative", "bool",
            "nan-step", "inf-step", "zero-step", "negative-step"])
    def test_bad_arguments_raise_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            gradcheck(shrunken_config(MixerKind.ICM), **kwargs)

    def test_nan_gradient_fails(self, monkeypatch):
        """A parameter whose autodiff gradient is NaN fails with a NaN error."""
        models = []

        def recording_model(*args, **kwargs):
            models.append(ForecastEncoder(*args, **kwargs))
            return models[-1]

        backward = Tensor.backward

        def backward_with_nan_w1(loss):
            backward(loss)
            models[-1].parameters()["block.0.ffn.w1"].grad[...] = np.nan

        monkeypatch.setattr(training, "ForecastEncoder", recording_model)
        monkeypatch.setattr(Tensor, "backward", backward_with_nan_w1)
        report = gradcheck(shrunken_config(MixerKind.ICM), tolerance=1e-4)
        assert report.failures == ["block.0.ffn.w1"]
        assert np.isnan(report.max_rel_err["block.0.ffn.w1"])
        summary = report.summary()
        assert summary.startswith("[FAIL]") and "worst rel err nan" in summary
        assert "exceeded: block.0.ffn.w1 (nan)" in summary

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
        ("learning_rate", "1e-3", "learning_rate must be a finite number > 0"),
        ("learning_rate", float("nan"), "learning_rate must be a finite number > 0"),
        ("learning_rate", True, "learning_rate must be a finite number > 0"),
        ("learning_rate", float("inf"), "learning_rate must be a finite number > 0, got inf"),
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
