"""Supervised training loop, gate/head fine-tuning, metrics, gradient checks.

Training minimizes MSE in instance-normalized space; reported metrics are
computed on dataset-standardized values (the benchmark convention). Runs are
deterministic for a fixed seed under single-threaded execution.
"""

from __future__ import annotations

import math
import numbers
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from .attention import ConfigError, check_integer
from .data import MultivariateSeries, make_windows
from .encoder import EncoderConfig, ForecastEncoder, instance_normalize
from .mixers import MixerKind
from .tensor import DimensionError, Tensor, no_grad


class TrainingDiverged(RuntimeError):
    pass


# -- metrics ------------------------------------------------------------------

def _paired(pred, target):
    pred = pred if isinstance(pred, Tensor) else Tensor(pred)
    target = target if isinstance(target, Tensor) else Tensor(target)
    if pred.shape != target.shape:
        raise DimensionError(f"metric shape mismatch: {pred.shape} vs {target.shape}")
    return pred, target


def mse(pred, target) -> Tensor:
    pred, target = _paired(pred, target)
    diff = pred - target
    return (diff * diff).mean()


@dataclass
class MetricReport:
    """Test metrics per (dataset, horizon), with arithmetic horizon averages."""

    entries: dict = field(default_factory=dict)

    def add(self, dataset: str, horizon: int, mse_value: float, mae_value: float):
        self.entries[(dataset, horizon)] = {"mse": float(mse_value), "mae": float(mae_value)}

    def merge(self, other: "MetricReport"):
        self.entries.update(other.entries)

    def datasets(self):
        return sorted({ds for ds, _ in self.entries})

    def average(self, dataset: str) -> dict:
        rows = [v for (ds, _), v in self.entries.items() if ds == dataset]
        if not rows:
            raise KeyError(dataset)
        return {key: sum(r[key] for r in rows) / len(rows) for key in ("mse", "mae")}

    def to_records(self) -> list:
        recs = [{"dataset": ds, "horizon": h, **v}
                for (ds, h), v in sorted(self.entries.items())]
        for ds in self.datasets():
            recs.append({"dataset": ds, "horizon": "avg", **self.average(ds)})
        return recs


# -- optimizer ----------------------------------------------------------------

class Adam:
    """Adaptive-moment estimation with bias correction."""

    def __init__(self, params, lr=1e-4, betas=(0.9, 0.999), eps=1e-8):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr, self.betas, self.eps = lr, betas, eps
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self):
        self.t += 1
        b1, b2 = self.betas
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 64
    learning_rate: float = 1e-4
    seed: int = 0
    precision: str = "f32"
    patience: int = 3
    freeze_mask: object = None      # predicate over parameter name paths, or None
    train_stride: int = 1
    max_train_windows: int | None = None  # seeded subsample cap, for desk-scale runs

    def __post_init__(self):
        counts = ["epochs", "batch_size", "train_stride", "patience"]
        if self.max_train_windows is not None:
            counts.append("max_train_windows")
        for name in counts:
            check_integer(name, getattr(self, name))
        check_integer("seed", self.seed, minimum=0)
        lr = self.learning_rate
        if isinstance(lr, bool) or not isinstance(lr, numbers.Real) or not lr > 0:
            raise ConfigError(f"learning rate must be positive, got {lr!r}")
        if self.precision not in ("f32", "f64"):
            raise ConfigError(f"precision must be f32 or f64, got {self.precision!r}")

    @property
    def dtype(self):
        return np.float32 if self.precision == "f32" else np.float64


def _batch(windows: np.ndarray, idx, lookback: int):
    """Gather windows ``idx`` of a make_windows array; returns (input, target)."""
    batch = windows[idx]
    return batch[..., :lookback], batch[..., lookback:]


def evaluate(model: ForecastEncoder, windows, horizon: int, batch_size: int = 64):
    """(MSE, MAE) of denormalized forecasts over a make_windows array."""
    if not len(windows):
        raise ConfigError("no evaluation windows")
    sq_sum = abs_sum = count = 0.0
    with no_grad():
        for start in range(0, len(windows), batch_size):
            x, y = _batch(windows, np.arange(start, min(start + batch_size, len(windows))),
                          model.config.lookback)
            pred = model.forecast(x, horizon).data
            err = pred.astype(np.float64) - y
            sq_sum += float((err * err).sum())
            abs_sum += float(np.abs(err).sum())
            count += err.size
    return sq_sum / count, abs_sum / count


def _diverged(what: str, model: ForecastEncoder, config: TrainConfig,
              horizon: int) -> TrainingDiverged:
    """The error for a non-finite ``what``, naming the first non-finite parameter."""
    bad = next((name for name, p in model.parameters().items()
                if not np.isfinite(p.data).all()), None)
    state = f"first non-finite parameter: {bad}" if bad else "all parameters are finite"
    return TrainingDiverged(
        f"non-finite {what} (lr={config.learning_rate}, horizon={horizon}); {state}")


def train_supervised(model: ForecastEncoder, series: MultivariateSeries,
                     config: TrainConfig, horizon: int, log=None):
    """Train on MSE, select by validation MSE, report test metrics.

    Returns (model, MetricReport, loss_curve) where loss_curve is the list of
    per-epoch mean training losses. `series` should already be standardized.
    Each epoch's ``log`` record also carries the wall time of its training
    steps (``seconds``), the windows trained per second, the largest global
    L2 norm of the trainable gradients over the epoch's steps (``grad_norm``,
    computed only when ``log`` is given), the process's peak resident set so
    far (``peak_rss_mb``), and for ICM mixers the per-block, per-head gate
    openness ``gate``.
    """
    lookback = model.config.lookback
    train_windows = make_windows(series, lookback, horizon, stride=config.train_stride,
                                 split="train")
    val_windows = make_windows(series, lookback, horizon, split="val")
    test_windows = make_windows(series, lookback, horizon, split="test")
    if not len(train_windows):
        raise ConfigError(f"{series.name}: no training windows for horizon {horizon}")

    # The subsample is an index array, so the window set is never copied.
    rng = np.random.default_rng(config.seed)
    keep = np.arange(len(train_windows))
    if config.max_train_windows is not None and len(keep) > config.max_train_windows:
        keep = np.sort(rng.choice(len(keep), config.max_train_windows, replace=False))

    trainable = [p for p in model.parameters().values()
                 if config.freeze_mask is None or config.freeze_mask(p.name)]
    if not trainable:
        raise ConfigError("freeze mask admits no trainable parameters")
    optimizer = Adam(trainable, lr=config.learning_rate)

    best_val = np.inf
    best_state = None
    patience_left = config.patience
    loss_curve = []
    for epoch in range(config.epochs):
        order = keep[rng.permutation(len(keep))]
        epoch_losses, grad_norm = [], 0.0
        epoch_start = time.perf_counter()
        # A diverging step overflows; the finite-loss and finite-validation
        # checks report it, so numpy's floating-point warnings would only
        # repeat it.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for start in range(0, len(order), config.batch_size):
                x, y = _batch(train_windows, order[start:start + config.batch_size], lookback)
                pred_norm, stats = model.forecast_normalized(x.astype(model.dtype), horizon)
                y_norm, _ = instance_normalize(y, stats)
                loss = mse(pred_norm, Tensor(y_norm.data.astype(model.dtype)))
                if not np.isfinite(loss.item()):
                    raise _diverged(f"training loss at epoch {epoch}, batch offset {start}",
                                    model, config, horizon)
                optimizer.zero_grad()
                loss.backward()
                if log is not None:
                    grad_norm = max(grad_norm, math.sqrt(sum(
                        float(np.vdot(p.grad, p.grad)) for p in trainable if p.grad is not None)))
                optimizer.step()
                epoch_losses.append(loss.item())
            seconds = time.perf_counter() - epoch_start
            loss_curve.append(float(np.mean(epoch_losses)))

            if len(val_windows):
                val_mse, _ = evaluate(model, val_windows, horizon, config.batch_size)
            else:
                val_mse = loss_curve[-1]
        if not np.isfinite(val_mse):
            raise _diverged(f"validation MSE at epoch {epoch}", model, config, horizon)
        if log is not None:
            record = {"dataset": series.name, "horizon": horizon, "epoch": epoch,
                      "train_loss": loss_curve[-1], "val_mse": val_mse,
                      "seconds": seconds, "windows_per_s": len(order) / seconds,
                      "grad_norm": grad_norm,
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            gates = model.gates()
            if gates:
                record["gate"] = gates
            log(record)
        if val_mse < best_val:
            best_val = val_mse
            best_state = {p.name: p.data.copy() for p in trainable}
            patience_left = config.patience
        else:
            patience_left -= 1
            if patience_left <= 0:
                break

    if best_state is not None:
        for p in trainable:
            p.data = best_state[p.name]

    report = MetricReport()
    if len(test_windows):
        test_mse, test_mae = evaluate(model, test_windows, horizon, config.batch_size)
        report.add(series.name, horizon, test_mse, test_mae)
    return model, report, loss_curve


def beta_and_head_mask(name: str) -> bool:
    """Freeze mask admitting only forecasting heads and the memory gate scalars."""
    return name.startswith("head.") or name.endswith(".beta")


def finetune_beta_and_head(model: ForecastEncoder, series: MultivariateSeries,
                           config: TrainConfig, horizon: int, log=None):
    """Fine-tune the forecasting heads and the gate scalars only."""
    cfg = TrainConfig(**{**config.__dict__, "freeze_mask": beta_and_head_mask})
    return train_supervised(model, series, cfg, horizon, log=log)


# -- gradient verification ----------------------------------------------------

def shrunken_config(mixer: MixerKind) -> EncoderConfig:
    """Small double-precision-friendly configuration for finite differences."""
    return EncoderConfig(n_blocks=1, d_model=16, n_heads=2, d_ff=32, patch_len=8,
                         lookback=32, mixer=mixer, horizons=(8,), max_channels=4)


@dataclass
class GradcheckReport:
    mixer: str
    tolerance: float
    max_rel_err: dict        # parameter name -> worst relative error
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        worst = max(self.max_rel_err.values())
        status = "PASS" if self.passed else "FAIL"
        lines = [f"[{status}] mixer={self.mixer} worst rel err {worst:.3e} (tol {self.tolerance:g})"]
        lines += [f"  exceeded: {name} ({err:.3e})"
                  for name, err in sorted(self.max_rel_err.items()) if name in self.failures]
        return "\n".join(lines)


def gradcheck(config: EncoderConfig | None = None, tolerance: float = 1e-4,
              seed: int = 0, h: float = 1e-5, max_coords: int = 24,
              n_channels: int = 2) -> GradcheckReport:
    """Compare autodiff gradients of the MSE loss against central differences.

    Every parameter tensor is checked; within large tensors a seeded sample of
    at most `max_coords` coordinates is probed (exhaustive for small tensors).
    """
    if config is None:
        config = shrunken_config(MixerKind.ICM)
    model = ForecastEncoder(config, seed=seed, dtype=np.float64)
    horizon = config.horizons[0]
    rng = np.random.default_rng(seed + 1)
    x = rng.uniform(-2, 2, (1, n_channels, config.lookback))
    y = rng.uniform(-2, 2, (1, n_channels, horizon))

    def loss_value() -> float:
        with no_grad():
            return mse(model.forecast(x, horizon), y).item()

    loss = mse(model.forecast(x, horizon), y)
    model.zero_grad()
    loss.backward()

    coord_rng = np.random.default_rng(seed + 2)
    max_rel_err, failures = {}, []
    for name, p in model.parameters().items():
        flat = p.data.reshape(-1)
        grad = p.grad.reshape(-1) if p.grad is not None else np.zeros_like(flat)
        if flat.size <= max_coords:
            coords = range(flat.size)
        else:
            coords = coord_rng.choice(flat.size, size=max_coords, replace=False)
        worst = 0.0
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            fp = loss_value()
            flat[i] = orig - h
            fm = loss_value()
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            denom = max(abs(fd), abs(grad[i]), 1e-6)
            worst = max(worst, abs(fd - grad[i]) / denom)
        max_rel_err[name] = worst
        if worst >= tolerance:
            failures.append(name)
    return GradcheckReport(mixer=config.mixer.value, tolerance=tolerance,
                           max_rel_err=max_rel_err, failures=failures)
