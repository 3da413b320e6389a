"""Supervised training loop, gate/head fine-tuning, metrics, gradient checks.

Training minimizes MSE in instance-normalized space; reported metrics are
computed on dataset-standardized values (the benchmark convention). Runs are
deterministic for a fixed seed under single-threaded execution.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from .attention import ConfigError, check_integer, check_positive
from .data import MultivariateSeries, make_windows
from .encoder import PRECISIONS, ConfigFields, EncoderConfig, ForecastEncoder, instance_normalize
from .mixers import MixerKind
from .tensor import TRAIN_BLOCK_BYTES, DimensionError, Tensor, blocks, no_grad


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
    """Mean squared error as one node; the target is data, so its only parent is ``pred``.

    With ``d = pred - target`` the gradient ``2 d / size`` is formed as
    ``s d + s d``, ``s = 1 / size``: bitwise what autodiff of ``mean(d * d)`` gives.
    """
    pred, target = _paired(pred, target)
    d = pred.data - target.data
    scale = np.asarray(1.0 / d.size, d.dtype)
    node = pred._node

    def bwd(g):
        grad = d * (g * scale)
        grad += grad
        node._accumulate(grad, fresh=True)

    return Tensor._make((d * d).sum() * scale, (node,), bwd)


@dataclass
class MetricReport:
    """Test metrics of one series per horizon, with their arithmetic average."""

    entries: dict = field(default_factory=dict)

    def add(self, horizon: int, mse_value: float, mae_value: float):
        self.entries[horizon] = {"mse": float(mse_value), "mae": float(mae_value)}

    def average(self) -> dict:
        rows = self.entries.values()
        return {key: sum(r[key] for r in rows) / len(rows) for key in ("mse", "mae")}

    def to_records(self, dataset: str) -> list:
        recs = [{"dataset": dataset, "horizon": h, **v} for h, v in sorted(self.entries.items())]
        if recs:
            recs.append({"dataset": dataset, "horizon": "avg", **self.average()})
        return recs


# -- optimizer ----------------------------------------------------------------

class Adam:
    """Adam with bias correction, in place: a step allocates no array.

    Each parameter is updated in chunks of ``CHUNK`` elements, computed in
    two chunk-sized scratch buffers per dtype, so the scratch does not grow
    with the largest parameter (the default backbone's head weight is 24x a
    chunk). Every element's update is the same arithmetic in the same order
    as one pass over the whole parameter, so chunking changes no bit.
    """

    CHUNK = 2 ** 15
    BETAS = (0.9, 0.999)
    EPS = 1e-8

    def __init__(self, params, lr):
        check_positive("lr", lr)
        self.params, self.lr = list(params), lr
        self.m = [np.zeros(p.shape, p.dtype) for p in self.params]
        self.v = [np.zeros(p.shape, p.dtype) for p in self.params]
        size = min(max((p.size for p in self.params), default=0), self.CHUNK)
        self._scratch = {dt: np.empty((2, size), dt) for dt in {p.dtype for p in self.params}}
        self.t = 0

    def step(self):
        self.t += 1
        b1, b2 = self.BETAS
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            if not p.data.flags.c_contiguous:  # so that its flat form is a view, not a copy
                p.data = np.ascontiguousarray(p.data)
            p_flat, g_flat, m_flat, v_flat = (a.reshape(-1) for a in (p.data, p.grad, m, v))
            for lo in range(0, p.size, self.CHUNK):
                hi = min(lo + self.CHUNK, p.size)
                g, m_c, v_c = g_flat[lo:hi], m_flat[lo:hi], v_flat[lo:hi]
                s1, s2 = (s[:hi - lo] for s in self._scratch[p.dtype])
                # p -= lr * m_hat / (sqrt(v_hat) + eps), in that order, bitwise.
                m_c *= b1
                m_c += np.multiply(g, 1 - b1, out=s1)
                v_c *= b2
                np.multiply(g, 1 - b2, out=s1)
                s1 *= g
                v_c += s1
                np.divide(m_c, c1, out=s1)
                s1 *= self.lr
                np.divide(v_c, c2, out=s2)
                np.sqrt(s2, out=s2)
                s2 += self.EPS
                s1 /= s2
                p_flat[lo:hi] -= s1

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


@dataclass
class TrainConfig(ConfigFields):
    section = "train"

    epochs: int = 10
    batch_size: int = 64
    learning_rate: float = 1e-4
    seed: int = 0
    precision: str = "f32"
    patience: int = 3
    train_stride: int = 1
    max_train_windows: int | None = None  # seeded subsample cap, for desk-scale runs
    finetune_beta: bool = False  # then a head+gate stage (finetune_beta_and_head)

    def __post_init__(self):
        counts = ["epochs", "batch_size", "train_stride", "patience"]
        if self.max_train_windows is not None:
            counts.append("max_train_windows")
        for name in counts:
            check_integer(name, getattr(self, name))
        check_integer("seed", self.seed, minimum=0)
        check_positive("learning_rate", self.learning_rate)
        if self.precision not in list(PRECISIONS):  # a list: an unhashable value is no key
            raise ConfigError(f"precision must be in {list(PRECISIONS)}, got {self.precision!r}")
        if not isinstance(self.finetune_beta, bool):
            raise ConfigError(f"finetune_beta must be true or false, got {self.finetune_beta!r}")

    @property
    def dtype(self):
        return PRECISIONS[self.precision]


def _batch(windows: np.ndarray, idx, lookback: int):
    """Windows ``idx`` (indices gather, a slice is a view) of make_windows; (input, target)."""
    batch = windows[idx]
    return batch[..., :lookback], batch[..., lookback:]


def evaluate(model: ForecastEncoder, windows, horizon: int, batch_size: int = 64):
    """(MSE, MAE) of denormalized forecasts over a make_windows array.

    ``windows`` is ``[n, m, lookback + horizon]``. The forecasts run under
    ``no_grad``, so each batch streams through the encoder in blocks of
    windows (``ForecastEncoder.forecast_normalized``) and the activations
    alive at once do not grow with ``batch_size``.
    """
    check_integer("batch_size", batch_size)
    lookback = model.config.lookback
    if np.ndim(windows) != 3 or np.shape(windows)[-1] != lookback + horizon:
        raise DimensionError(
            f"evaluation windows must be [n, channels, lookback {lookback} + horizon {horizon} "
            f"= {lookback + horizon}], got shape {np.shape(windows)}")
    if not len(windows):
        raise ConfigError("no evaluation windows")
    sq_sum = abs_sum = count = 0.0
    with no_grad():
        for start in range(0, len(windows), batch_size):
            x, y = _batch(windows, slice(start, start + batch_size), lookback)
            err = model.forecast(x, horizon).data.astype(np.float64) - y
            sq_sum += float((err * err).sum())
            abs_sum += float(np.abs(err).sum())
            count += err.size
    return sq_sum / count, abs_sum / count


def train_blocks(model: ForecastEncoder, b: int, m: int) -> list:
    """The blocks of a train step over ``b`` windows of ``m`` channels (``blocks``)."""
    return blocks(b, model.config.graph_window_bytes(m, model.dtype), TRAIN_BLOCK_BYTES)


def batch_gradients(model: ForecastEncoder, x, y, horizon: int):
    """Zero the gradients, then accumulate those of the batch's MSE in normalized space.

    ``x`` is [b, m, lookback] and ``y`` [b, m, horizon]. The batch runs as
    ``train_blocks``: the fewest near-equal blocks of whole windows whose
    graph fits ``TRAIN_BLOCK_BYTES``. Each block builds its graph, weights its
    MSE by its share of the batch and runs its backward, so only one block's
    graph is alive at a time and ``.grad`` sums to the batch's gradient. A
    batch that fits one block runs as one pass, with no weight. The old
    gradients are dropped just before the first backward, as a one-pass step
    always did: dropped before the first forward, their pages went back to
    the system and were faulted in again within the step.

    Returns ``(loss, None)``, the loss being the sum of the weighted block
    losses; or, at the first block whose loss is not finite, ``(that loss,
    the offset of the block's first window)``, before that block's backward.
    """
    b, m, _ = x.shape
    parts = train_blocks(model, b, m)
    total = 0.0
    for part in parts:
        pred_norm, stats = model.forecast_normalized(x[part], horizon)
        y_norm, _ = instance_normalize(y[part], stats)
        loss = mse(pred_norm, y_norm.data.astype(model.dtype, copy=False))
        if len(parts) > 1:
            loss = loss * ((part.stop - part.start) / b)
        if not np.isfinite(loss.item()):
            return loss.item(), part.start
        if part is parts[0]:
            model.zero_grad()
        loss.backward()
        total += loss.item()
    return total, None


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
    """Train the parameters that require grad on MSE, select by validation MSE.

    The given model is the first candidate: with validation windows it is
    scored before epoch 0, and an epoch replaces it only by scoring lower.
    Returns (model, MetricReport, loss_curve) where loss_curve is the list of
    per-epoch mean training losses. `series` should already be standardized.
    Each epoch's ``log`` record also carries the wall time of its training
    steps (``seconds``), the windows trained per second, the largest global
    L2 norm of the trainable gradients over the epoch's steps (``grad_norm``,
    NaN if one step's is; computed only when ``log`` is given), the process's
    peak resident set so far (``peak_rss_mb``), the most windows one block of
    a train step holds (``windows_per_block``, see ``batch_gradients``), and
    for ICM mixers the per-block, per-head gate openness ``gate``.

    The returned model holds its parameters only: every parameter's ``grad``
    is dropped once the last step has run, before the best epoch is restored,
    and also when ``TrainingDiverged`` is raised. ``batch_gradients`` is the
    way to get a batch's gradients.
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

    trainable = [p for p in model.parameters().values() if p.requires_grad]
    if not trainable:
        raise ConfigError("no trainable parameters: none requires grad")
    optimizer = Adam(trainable, lr=config.learning_rate)
    windows_per_block = max(part.stop - part.start for part in train_blocks(
        model, min(config.batch_size, len(keep)), train_windows.shape[1]))

    best_val, best_state = np.inf, None
    if len(val_windows):  # an epoch must beat the given model to replace it
        best_val, _ = evaluate(model, val_windows, horizon, config.batch_size)
        best_state = {p.name: p.data.copy() for p in trainable}
    patience_left, loss_curve = config.patience, []
    try:
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
                    loss, bad = batch_gradients(model, x, y, horizon)
                    if bad is not None:
                        raise _diverged(f"training loss at epoch {epoch}, batch offset {start}, "
                                        f"block offset {start + bad}", model, config, horizon)
                    if log is not None:  # np.maximum keeps a NaN norm; max would drop it
                        grad_norm = float(np.maximum(grad_norm, math.sqrt(sum(
                            float(np.vdot(p.grad, p.grad))
                            for p in trainable if p.grad is not None))))
                    optimizer.step()
                    epoch_losses.append(loss)
                seconds = time.perf_counter() - epoch_start
                loss_curve.append(float(np.mean(epoch_losses)))

                val_mse = (evaluate(model, val_windows, horizon, config.batch_size)[0]
                           if len(val_windows) else loss_curve[-1])
            if not np.isfinite(val_mse):
                raise _diverged(f"validation MSE at epoch {epoch}", model, config, horizon)
            if log is not None:
                record = {"dataset": series.name, "mixer": model.config.mixer.value,
                          "horizon": horizon, "epoch": epoch,
                          "train_loss": loss_curve[-1], "val_mse": val_mse,
                          "seconds": seconds, "windows_per_s": len(order) / seconds,
                          "grad_norm": grad_norm, "windows_per_block": windows_per_block,
                          "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
                if gates := model.gates():
                    record["gate"] = gates
                log(record)
            if val_mse < best_val:
                best_val = val_mse
                if best_state is None:  # one snapshot, overwritten in place after this
                    best_state = {p.name: p.data.copy() for p in trainable}
                else:
                    for p in trainable:
                        np.copyto(best_state[p.name], p.data)
                patience_left = config.patience
            else:
                patience_left -= 1
                if patience_left <= 0:
                    break
    finally:  # the last step's gradients have no reader left, diverged or not
        model.zero_grad()

    if best_state is not None:
        for p in trainable:
            p.data = best_state[p.name]

    report = MetricReport()
    if len(test_windows):
        test_mse, test_mae = evaluate(model, test_windows, horizon, config.batch_size)
        report.add(horizon, test_mse, test_mae)
    return model, report, loss_curve


def beta_and_head_mask(name: str) -> bool:
    """True for the parameters a fine-tune trains: forecasting heads and memory gates."""
    return name.startswith("head.") or name.endswith(".beta")


def finetune_beta_and_head(model: ForecastEncoder, series: MultivariateSeries,
                           config: TrainConfig, horizon: int, log=None):
    """Fine-tune heads and gates only: no other parameter requires grad during the run."""
    frozen = [p for name, p in model.parameters().items()
              if p.requires_grad and not beta_and_head_mask(name)]
    for p in frozen:
        p.requires_grad = False
    try:
        return train_supervised(model, series, config, horizon, log=log)
    finally:
        for p in frozen:
            p.requires_grad = True


# -- gradient verification ----------------------------------------------------
# gradcheck's central-difference step, coordinates probed per parameter and input channels.
GRADCHECK_STEP, GRADCHECK_COORDS, GRADCHECK_CHANNELS = 1e-5, 24, 2


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
        worst = float(np.max(list(self.max_rel_err.values())))
        status = "PASS" if self.passed else "FAIL"
        lines = [f"[{status}] mixer={self.mixer} worst rel err {worst:.3e} (tol {self.tolerance:g})"]
        lines += [f"  exceeded: {name} ({err:.3e})"
                  for name, err in sorted(self.max_rel_err.items()) if name in self.failures]
        return "\n".join(lines)


def gradcheck(config: EncoderConfig, tolerance: float = 1e-4, seed: int = 0) -> GradcheckReport:
    """Compare autodiff gradients of the MSE loss against central differences.

    Every parameter tensor is checked; within large tensors a seeded sample of
    at most ``GRADCHECK_COORDS`` coordinates is probed (exhaustive for small
    tensors). ``tolerance`` must be finite and > 0: a NaN or infinite
    tolerance passes anything. A non-finite error fails its parameter.
    """
    check_integer("seed", seed, minimum=0)
    check_positive("tolerance", tolerance)
    model = ForecastEncoder(config, seed=seed, dtype=np.float64)
    horizon = config.horizons[0]
    rng = np.random.default_rng(seed + 1)
    x = rng.uniform(-2, 2, (1, GRADCHECK_CHANNELS, config.lookback))
    y = rng.uniform(-2, 2, (1, GRADCHECK_CHANNELS, horizon))

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
        coords = (range(flat.size) if flat.size <= GRADCHECK_COORDS
                  else coord_rng.choice(flat.size, size=GRADCHECK_COORDS, replace=False))
        errs = []
        for i in coords:
            orig = flat[i]
            flat[i] = orig + GRADCHECK_STEP
            fp = loss_value()
            flat[i] = orig - GRADCHECK_STEP
            fm = loss_value()
            flat[i] = orig
            fd = (fp - fm) / (2 * GRADCHECK_STEP)
            denom = max(abs(fd), abs(grad[i]), 1e-6)
            errs.append(abs(fd - grad[i]) / denom)
        # np.max, unlike max, propagates a NaN error, and a NaN is not < tolerance.
        max_rel_err[name] = worst = float(np.max(errs))
        if not worst < tolerance:
            failures.append(name)
    return GradcheckReport(mixer=config.mixer.value, tolerance=tolerance,
                           max_rel_err=max_rel_err, failures=failures)
