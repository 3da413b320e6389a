"""Dataset ingestion, sliding windows, synthetic generators.

CSV layout follows the public long-horizon forecasting benchmarks: a header
row, a timestamp in the first column, and one numeric column per channel.
Row-wise splits default to 60/20/20 for the ETT files and 70/10/20 otherwise.
"""

from __future__ import annotations

import csv
import numbers
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .attention import ConfigError, check_integer


class ParseError(ValueError):
    """Raised when an input file cannot be ingested."""


@dataclass
class MultivariateSeries:
    name: str
    values: np.ndarray  # [T, m]
    channel_names: list
    split_bounds: tuple  # (train_end, val_end) row indices

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return self.values.shape[0]

    def region(self, split: str) -> tuple:
        """Half-open row range [lo, hi) of a split ('train' | 'val' | 'test')."""
        train_end, val_end = self.split_bounds
        if split == "train":
            return 0, train_end
        if split == "val":
            return train_end, val_end
        if split == "test":
            return val_end, len(self)
        raise ConfigError(f"unknown split {split!r}")


ETT_SPLIT = (0.6, 0.2, 0.2)
DEFAULT_SPLIT = (0.7, 0.1, 0.2)


def load_csv(path) -> MultivariateSeries:
    """Parse a benchmark CSV: UTF-8 text, header row, timestamp column, numeric channels.

    The series is named after the file's stem, which picks its split.
    """
    path = Path(path)
    try:
        return _read_csv(path)
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text (byte 0x{err.object[err.start]:02x}: "
                         f"{err.reason})") from None
    except csv.Error as err:  # e.g. a field over the csv module's size limit
        raise ParseError(f"{path}: malformed CSV ({err})") from None


def _read_csv(path: Path) -> MultivariateSeries:
    name = path.stem
    split_fracs = ETT_SPLIT if name.upper().startswith("ETT") else DEFAULT_SPLIT
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        channel_names = header[1:]
        if not channel_names:
            raise ParseError(f"{path}: no channel columns in header")
        rows, row_numbers = [], []
        for row_idx, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: row {row_idx} has {len(row)} fields, header has {len(header)}")
            try:
                rows.append([float(cell) for cell in row[1:]])
            except ValueError:
                bad = next(i for i, cell in enumerate(row[1:], start=2)
                           if not _is_float(cell))
                raise ParseError(
                    f"{path}: non-numeric value at row {row_idx}, column {bad}") from None
            row_numbers.append(row_idx)
    if not rows:
        raise ParseError(f"{path}: header only, no data rows")
    values = np.asarray(rows, dtype=np.float64)
    nonfinite = np.argwhere(~np.isfinite(values))
    if len(nonfinite):
        i, j = nonfinite[0]
        raise ParseError(f"{path}: non-finite value {values[i, j]} at row {row_numbers[i]}, "
                         f"column {j + 2} ({channel_names[j]!r})")
    n = len(values)
    train_end = int(n * split_fracs[0])
    val_end = train_end + int(n * split_fracs[1])
    return MultivariateSeries(name=name, values=values, channel_names=channel_names,
                              split_bounds=(train_end, val_end))


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def save_csv(series: MultivariateSeries, path):
    """Write the same layout load_csv reads (timestamp column is the row index)."""
    # Only the header can need quoting; a float's repr never holds a comma,
    # quote or line break, so the rows are written as csv.writer would write
    # them, without building a numpy scalar for every cell.
    rows = np.asarray(series.values, dtype=np.float64).tolist()
    # A new file, not the old one truncated: see save_checkpoint.
    Path(path).unlink(missing_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerow(["date"] + list(series.channel_names))
        f.writelines(f"{t},{','.join(map(repr, row))}\r\n" for t, row in enumerate(rows))


def standardize_stats(series: MultivariateSeries) -> tuple:
    """Per-channel mean/std computed on the train split only.

    ConfigError for an empty train split, and for a channel whose statistics
    overflow float64 (values beyond ~1e154 square to inf), which would
    otherwise standardize to all zeros or NaN.
    """
    lo, hi = series.region("train")
    if hi <= lo:
        raise ConfigError(f"{series.name}: the train split has no rows to standardize with")
    train = series.values[lo:hi]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        mean, std = train.mean(axis=0), train.std(axis=0) + 1e-8
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if len(bad):
        j = bad[0]
        raise ConfigError(f"{series.name}: channel {j} ({series.channel_names[j]!r}) has "
                          f"train-split mean {mean[j]:g} and std {std[j]:g}; its values are "
                          f"too large to standardize in float64")
    return mean, std


def standardized(series: MultivariateSeries) -> MultivariateSeries:
    mean, std = standardize_stats(series)
    return MultivariateSeries(name=series.name, values=(series.values - mean) / std,
                              channel_names=series.channel_names,
                              split_bounds=series.split_bounds)


def make_windows(series: MultivariateSeries, lookback: int, horizon: int, stride: int = 1,
                 split: str = "train") -> np.ndarray:
    """All windows fully inside the split region, as one read-only array.

    Returns ``[N, m, lookback + horizon]``: window ``i`` holds the rows from
    ``lo + i * stride`` on, channel-major, input first and then target. It is
    a strided view of one channel-major copy of the region, so no window is
    copied; index it with an array to gather a batch.
    """
    check_integer("lookback", lookback)
    check_integer("horizon", horizon)
    check_integer("window stride", stride)
    lo, hi = series.region(split)
    window = lookback + horizon
    if hi - lo < window:
        warnings.warn(
            f"{series.name}/{split}: region of {hi - lo} rows too short for "
            f"lookback {lookback} + horizon {horizon}; no windows produced")
        return np.empty((0, series.n_channels, window), dtype=series.values.dtype)
    # Channel-major, so each gathered window row is contiguous in time.
    region = np.ascontiguousarray(series.values[lo:hi].T)
    return sliding_window_view(region, window, axis=1)[:, ::stride].swapaxes(0, 1)


def generate_lagged_copy(m: int, T: int, lag: int, noise_std: float,
                         seed: int = 0) -> MultivariateSeries:
    """Synthetic series whose cross-channel structure is provably predictive.

    Channel 0 is an AR(1)-plus-sinusoid driver. Channel j > 0 repeats the
    driver delayed by j*lag steps plus Gaussian noise, so the next j*lag
    values of channel j are readable, noise-free, from channel 0's past.
    """
    check_integer("m", m, minimum=2)
    check_integer("T", T)
    check_integer("lag", lag, minimum=0)
    check_integer("seed", seed, minimum=0)
    if (isinstance(noise_std, bool) or not isinstance(noise_std, numbers.Real)
            or not 0 <= noise_std < np.inf):
        raise ConfigError(f"noise_std must be finite and >= 0, got {noise_std}")
    if T <= m * lag:
        raise ConfigError(f"series length {T} too short for {m} channels at lag {lag}")
    # Python ints: no overflow. The T x m float64 values outsize the driver's T + (m - 1) * lag.
    if int(T) * int(m) * 8 > np.iinfo(np.intp).max:
        raise ConfigError(f"a series of {T} rows x {m} channels is too large for an array")
    rng = np.random.default_rng(seed)
    warmup = (m - 1) * lag
    total = T + warmup
    driver = np.zeros(total)
    phi, innov_std = 0.9, 0.3
    innovations = rng.standard_normal(total) * innov_std
    for t in range(1, total):
        driver[t] = phi * driver[t - 1] + innovations[t]
    t_axis = np.arange(total)
    driver = driver + np.sin(2 * np.pi * t_axis / 64.0)

    values = np.empty((T, m))
    values[:, 0] = driver[warmup:]
    with np.errstate(over="ignore"):  # an overflow is refused below
        for j in range(1, m):
            shifted = driver[warmup - j * lag:total - j * lag]
            values[:, j] = shifted + rng.standard_normal(T) * noise_std
    if not np.isfinite(values).all():
        raise ConfigError(f"noise_std {noise_std} overflows float64 in the generated series")
    train_end = int(T * DEFAULT_SPLIT[0])
    val_end = train_end + int(T * DEFAULT_SPLIT[1])
    return MultivariateSeries(
        name=f"lagged(m={m},lag={lag},noise={noise_std})",
        values=values,
        channel_names=["driver"] + [f"copy_lag{j * lag}" for j in range(1, m)],
        split_bounds=(train_end, val_end))
