import csv
import io
import os
import re

import numpy as np
import pytest

from icmixer.attention import ConfigError
from icmixer.data import (
    ParseError,
    cap_channels,
    generate_lagged_copy,
    load_csv,
    make_windows,
    partition_channels,
    save_csv,
    standardize_stats,
    standardized,
)


def write_csv(path, rows, header="date,a,b"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


class TestLoadCsv:
    def test_small_file(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", ["2020-01-01,1.0,2.0",
                                              "2020-01-02,3.0,4.0",
                                              "2020-01-03,5.0,6.0"])
        series = load_csv(path)
        assert series.values.shape == (3, 2)
        assert series.channel_names == ["a", "b"]
        np.testing.assert_array_equal(series.values[1], [3.0, 4.0])

    def test_header_only_raises(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", [])
        with pytest.raises(ParseError, match="header only"):
            load_csv(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            load_csv(path)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", ["2020-01-01,1.0,2.0",
                                              "2020-01-02,oops,4.0"])
        with pytest.raises(ParseError, match="row 3, column 2"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        path = write_csv(tmp_path / "x.csv", ["2020-01-01,1.0,2.0",
                                              "",
                                              f"2020-01-02,3.0,{cell}"])
        with pytest.raises(ParseError, match=r"non-finite value .* at row 4, column 3 \('b'\)"):
            load_csv(path)

    def test_ett_split_convention(self, tmp_path):
        rows = [f"t{i},{i}.0,{i}.5" for i in range(100)]
        path = write_csv(tmp_path / "ETTh1.csv", rows)
        series = load_csv(path)
        assert series.split_bounds == (60, 80)

    def test_default_split_convention(self, tmp_path):
        rows = [f"t{i},{i}.0,{i}.5" for i in range(100)]
        path = write_csv(tmp_path / "weather.csv", rows)
        assert load_csv(path).split_bounds == (70, 80)

    def test_public_etth1_dimensions(self):
        path = os.environ.get("ICMIXER_ETTH1", "data/ETTh1.csv")
        if not os.path.exists(path):
            pytest.skip("public ETTh1.csv not available")
        series = load_csv(path)
        assert series.values.shape == (17420, 7)

    def test_save_load_roundtrip(self, tmp_path):
        series = generate_lagged_copy(m=3, T=200, lag=4, noise_std=0.1, seed=0)
        series.values[:4] = [[-0.0, 5e-324, 1e300],
                             [3.0, -7.0, 0.0],
                             [1e16, -2.5e-310, 123456789.0],
                             [0.1, -1e-300, 2.0 ** 60]]
        series.channel_names = ["a", "b,c", 'd"e']
        path = tmp_path / "synth.csv"
        save_csv(generate_lagged_copy(m=4, T=300, lag=4, noise_std=0.1, seed=1), path)
        save_csv(series, path)  # over a longer file: nothing of it may remain

        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["date"] + series.channel_names)
        for t, row in enumerate(series.values):
            writer.writerow([t] + [repr(float(v)) for v in row])
        assert path.read_bytes() == expected.getvalue().encode()

        loaded = load_csv(path)
        assert loaded.channel_names == series.channel_names
        np.testing.assert_array_equal(loaded.values, series.values, strict=True)
        np.testing.assert_array_equal(np.signbit(loaded.values), np.signbit(series.values))


class TestMakeWindows:
    def setup_method(self):
        self.series = generate_lagged_copy(m=2, T=4000, lag=4, noise_std=0.0, seed=1)

    def test_window_count_formula(self):
        series = generate_lagged_copy(m=2, T=1000, lag=4, noise_std=0.0, seed=0)
        series.split_bounds = (1000, 1000)  # whole series as train region
        windows = make_windows(series, lookback=256, horizon=96, split="train")
        assert len(windows) == 1000 - 256 - 96 + 1

    def test_single_window_region(self):
        series = generate_lagged_copy(m=2, T=352, lag=4, noise_std=0.0, seed=0)
        series.split_bounds = (352, 352)
        assert len(make_windows(series, 256, 96, split="train")) == 1

    def test_window_content_matches_offsets(self):
        windows = make_windows(self.series, lookback=256, horizon=96, split="train")
        np.testing.assert_array_equal(windows[17, :, :256], self.series.values[17:273].T)
        np.testing.assert_array_equal(windows[17, :, 256:], self.series.values[273:369].T)

    def test_windows_are_read_only(self):
        windows = make_windows(self.series, lookback=256, horizon=96, split="train")
        with pytest.raises(ValueError, match="read-only"):
            windows[0, 0, 0] = 1.0

    def test_too_short_region_warns_and_returns_empty(self):
        series = generate_lagged_copy(m=2, T=300, lag=4, noise_std=0.0, seed=0)
        with pytest.warns(UserWarning, match="too short"):
            out = make_windows(series, lookback=256, horizon=96, split="val")
        assert out.shape == (0, 2, 256 + 96)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_non_positive_stride_raises(self, stride):
        with pytest.raises(ConfigError, match="stride must be an integer >= 1"):
            make_windows(self.series, 256, 96, stride=stride)

    def test_val_windows_start_after_train(self):
        train_end, _ = self.series.split_bounds
        values = self.series.values
        windows = make_windows(self.series, 256, 96, split="val")
        assert len(windows) > 0
        for i, w in enumerate(windows):
            np.testing.assert_array_equal(w, values[train_end + i:train_end + i + 352].T)

    def test_no_split_leakage(self):
        """Each split's first window starts at its first row, its last ends inside it."""
        train_end, val_end = self.series.split_bounds
        values = self.series.values
        for split, lo, hi in [("train", 0, train_end), ("val", train_end, val_end),
                              ("test", val_end, len(self.series))]:
            for stride in (1, 7):
                windows = make_windows(self.series, 256, 96, stride=stride, split=split)
                last = lo + (hi - lo - 352) // stride * stride
                assert len(windows) == (last - lo) // stride + 1
                assert last + 352 <= hi and (stride > 1 or last + 352 == hi)
                np.testing.assert_array_equal(windows[0], values[lo:lo + 352].T)
                np.testing.assert_array_equal(windows[-1], values[last:last + 352].T)


class TestCapChannels:
    def test_under_cap_identity(self):
        np.testing.assert_array_equal(cap_channels(7, cap=8, seed=0), np.arange(7))
        np.testing.assert_array_equal(cap_channels(8, cap=8, seed=0), np.arange(8))

    def test_over_cap_samples_distinct(self):
        pick = cap_channels(16, cap=8, seed=0)
        assert len(pick) == 8 and len(set(pick.tolist())) == 8
        assert np.all(np.diff(pick) > 0) and 0 <= pick[0] and pick[-1] < 16

    def test_deterministic_under_seed(self):
        np.testing.assert_array_equal(cap_channels(16, cap=8, seed=5),
                                      cap_channels(16, cap=8, seed=5))
        expected = np.sort(np.random.default_rng(5).choice(16, size=8, replace=False))
        np.testing.assert_array_equal(cap_channels(16, cap=8, seed=5), expected)

    def test_bad_cap_raises(self):
        with pytest.raises(ConfigError):
            cap_channels(4, cap=0)


class TestPartitionChannels:
    def test_twelve_channels_two_groups_with_oversampling(self):
        groups = partition_channels(12, cap=8, seed=0)
        assert len(groups) == 2
        assert all(len(g) == 8 for g in groups)
        assert sorted(groups[0] + groups[1][:4]) == list(range(12)) or \
            sorted(set(groups[0] + groups[1])) == list(range(12))
        # the second group's fill channels were already used in the first
        fill = set(groups[1]) - (set(range(12)) - set(groups[0]))
        assert fill <= set(groups[0])

    def test_exact_multiple_no_oversampling(self):
        groups = partition_channels(16, cap=8, seed=1)
        assert sorted(sum(groups, [])) == list(range(16))

    def test_deterministic(self):
        assert partition_channels(20, 8, seed=3) == partition_channels(20, 8, seed=3)


class TestLaggedCopy:
    def test_exact_shift_identity_without_noise(self):
        series = generate_lagged_copy(m=3, T=500, lag=4, noise_std=0.0, seed=0)
        v = series.values
        np.testing.assert_allclose(v[4:, 1], v[:-4, 0], atol=1e-12)
        np.testing.assert_allclose(v[8:, 2], v[:-8, 0], atol=1e-12)

    def test_determinism(self):
        a = generate_lagged_copy(m=4, T=300, lag=8, noise_std=0.1, seed=7)
        b = generate_lagged_copy(m=4, T=300, lag=8, noise_std=0.1, seed=7)
        np.testing.assert_array_equal(a.values, b.values)

    def test_too_short_raises(self):
        with pytest.raises(ConfigError):
            generate_lagged_copy(m=4, T=60, lag=16, noise_std=0.0)

    def test_too_few_channels_raises(self):
        with pytest.raises(ConfigError):
            generate_lagged_copy(m=1, T=1000, lag=4, noise_std=0.0)

    @pytest.mark.parametrize("m, T", [(4, 2**62), (4, 2**70), (2**62, 10), (np.int64(2**60), 10)])
    def test_a_series_no_array_can_hold_is_refused_before_allocating(self, m, T):
        """Each count of float64s exceeds what numpy can index, computed without overflow;
        nothing is allocated, so the refusal asks the host for no memory."""
        with pytest.raises(ConfigError, match=f"a series of {T} rows x {m} channels is too large"):
            generate_lagged_copy(m=m, T=T, lag=0, noise_std=0.0)

    def test_noise_that_overflows_is_refused(self):
        with pytest.raises(ConfigError, match=r"noise_std 1e\+308 overflows float64"):
            generate_lagged_copy(m=2, T=300, lag=4, noise_std=1e308, seed=0)

    def test_cross_channel_oracle_regression_beats_own_history(self):
        # Predicting channel 1 one lag ahead: channel 0's present gives it
        # exactly; channel 1's own value requires predicting driver innovations.
        series = generate_lagged_copy(m=2, T=5000, lag=16, noise_std=0.0, seed=2)
        v = series.values
        lag = 16
        t = np.arange(lag, len(v) - lag)
        target = v[t + lag, 1]          # channel 1, `lag` steps ahead
        cross = v[t, 0]                 # channel 0 now = future of channel 1
        cross_mse = np.mean((target - cross) ** 2)
        assert cross_mse < 1e-20
        # best linear predictor from channel 1's own current value
        own = v[t, 1]
        coef = np.dot(own, target) / np.dot(own, own)
        own_mse = np.mean((target - coef * own) ** 2)
        # bounded below by accumulated innovation variance of the AR(1) driver
        phi, innov_std = 0.9, 0.3
        floor = innov_std ** 2 * sum(phi ** (2 * k) for k in range(lag))
        assert own_mse > 0.5 * floor
        assert own_mse > 100 * cross_mse + 1e-12


LAGGED = dict(m=2, T=1000, lag=4, noise_std=0.1, seed=0)


@pytest.mark.parametrize("call, message", [
    (lambda: generate_lagged_copy(**{**LAGGED, "m": 2.5}), "m must be an integer >= 2, got 2.5"),
    (lambda: generate_lagged_copy(**{**LAGGED, "T": 1000.0}),
     "T must be an integer >= 1, got 1000.0"),
    (lambda: generate_lagged_copy(**{**LAGGED, "lag": 1.5}),
     "lag must be an integer >= 0, got 1.5"),
    (lambda: generate_lagged_copy(**{**LAGGED, "seed": 1.5}),
     "seed must be an integer >= 0, got 1.5"),
    (lambda: generate_lagged_copy(**{**LAGGED, "noise_std": True}),
     "noise_std must be finite and >= 0, got True"),
    (lambda: make_windows(generate_lagged_copy(**LAGGED), 32, 8, stride=1.5),
     "window stride must be an integer >= 1, got 1.5"),
    (lambda: make_windows(generate_lagged_copy(**LAGGED), 0, 8),
     "lookback must be an integer >= 1, got 0"),
    (lambda: make_windows(generate_lagged_copy(**LAGGED), -5, 8),
     "lookback must be an integer >= 1, got -5"),
    (lambda: cap_channels(10, cap=2.5), "channel cap must be an integer >= 1, got 2.5"),
    (lambda: partition_channels(10, cap=2.5), "channel cap must be an integer >= 1, got 2.5"),
    (lambda: cap_channels(2.5), "m must be an integer >= 1, got 2.5"),
    (lambda: cap_channels(-3), "m must be an integer >= 1, got -3"),
    (lambda: partition_channels(2.5), "m must be an integer >= 1, got 2.5"),
], ids=["m-float", "T-float", "lag-float", "seed-float", "noise-bool", "stride-float",
        "lookback-zero", "lookback-negative", "cap-float", "partition-cap-float",
        "cap-m-float", "cap-m-negative", "partition-m-float"])
def test_bad_argument_is_config_error(call, message):
    """A non-integer count or size is a ConfigError naming it, not a numpy TypeError."""
    with pytest.raises(ConfigError) as err:
        call()
    assert str(err.value) == message


class TestStandardize:
    def test_stats_use_train_split_only(self):
        series = generate_lagged_copy(m=2, T=1000, lag=4, noise_std=0.1, seed=0)
        mean, std = standardize_stats(series)
        lo, hi = series.region("train")
        np.testing.assert_allclose(mean, series.values[lo:hi].mean(axis=0))

    def test_standardized_train_split_is_unit_scale(self):
        series = standardized(generate_lagged_copy(m=2, T=1000, lag=4, noise_std=0.1, seed=0))
        lo, hi = series.region("train")
        np.testing.assert_allclose(series.values[lo:hi].mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(series.values[lo:hi].std(axis=0), 1.0, atol=1e-6)

    @pytest.mark.filterwarnings("error")  # and no numpy overflow warning beside the error
    def test_statistics_that_overflow_are_refused(self):
        """A channel beyond ~1e154 squares to inf: std = inf would standardize it to zeros."""
        series = generate_lagged_copy(m=2, T=700, lag=4, noise_std=1e155)
        with pytest.raises(ConfigError, match=re.escape(
                "lagged(m=2,lag=4,noise=1e+155): channel 1 ('copy_lag4') has train-split "
                "mean ")):
            standardize_stats(series)

    def test_finite_statistics_are_unchanged(self):
        series = generate_lagged_copy(m=3, T=700, lag=4, noise_std=1e150)
        lo, hi = series.region("train")
        mean, std = standardize_stats(series)
        train = series.values[lo:hi]
        assert mean.tobytes() == train.mean(axis=0).tobytes()
        assert std.tobytes() == (train.std(axis=0) + 1e-8).tobytes()

    def test_an_empty_train_split_is_refused(self):
        series = generate_lagged_copy(m=2, T=100, lag=4, noise_std=0.1)
        series.split_bounds = (0, 50)
        with pytest.raises(ConfigError, match="the train split has no rows"):
            standardize_stats(series)
