import csv
import io
import os

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
        with pytest.raises(ConfigError, match="stride must be >= 1"):
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
