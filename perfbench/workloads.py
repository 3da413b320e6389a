"""The benchmark's three workloads, written against icmixer's public API.

Every workload builds its inputs from the workload seed and hands the package
only the generated series; model and training seeds are fixed. Package
functions are always called through their module (``training.evaluate``, not
a name imported here), so the hooks in ``hooks.py`` see every call.

* ``desk-compare`` -- the criterion-6 desk config trained for every mixer in
  turn (the ``icmixer compare`` traffic). Tensors are tiny, so per-node
  Python/autodiff overhead, Adam and window handling dominate, and it is the
  only workload that runs the ``mixers`` module.
* ``backbone-train`` -- training the default backbone with the ICM mixer.
  Bound by BLAS and memory; the matmul weight-gradient temporaries and the
  float64 promotion cost most here. The series leaves no validation windows
  and a 9-window test split, so almost all of the time is training steps.
* ``backbone-eval`` -- forward-only test-split evaluation of a default
  backbone restored from a checkpoint and a CSV (the ``icmixer eval`` path).
  It builds no graph, so a change that only speeds up backward must read
  "no change" here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from icmixer import attention, data, encoder, tensor, training

LAG, NOISE = 16, 0.05
MIXERS = ("independent", "concat", "icm", "icm-static")
DESK_MODEL = dict(n_blocks=1, d_model=32, n_heads=4, d_ff=64, patch_len=8, lookback=256)
BACKBONE_MODEL = dict(n_blocks=4, d_model=256, n_heads=4, d_ff=1024, patch_len=8, lookback=256)
TINY_MODEL = dict(n_blocks=1, d_model=8, n_heads=2, d_ff=16, patch_len=8, lookback=32)

# Per workload: full size, and a tiny size used only by the smoke test.
SIZES = {
    "desk-compare": {
        False: dict(model=DESK_MODEL, horizon=96, m=4, T=3600,
                    train=dict(epochs=2, batch_size=32, learning_rate=3e-3,
                               max_train_windows=256, patience=2)),
        True: dict(model=TINY_MODEL, horizon=8, m=4, T=600,
                   train=dict(epochs=2, batch_size=8, learning_rate=3e-3,
                              max_train_windows=16, patience=2)),
    },
    "backbone-train": {
        False: dict(model=BACKBONE_MODEL, horizon=96, m=7, T=1800,
                    train=dict(epochs=1, batch_size=8, learning_rate=1e-4,
                               max_train_windows=80, patience=1)),
        True: dict(model=TINY_MODEL, horizon=8, m=7, T=300,
                   train=dict(epochs=1, batch_size=4, learning_rate=1e-4,
                              max_train_windows=8, patience=1)),
    },
    # T = 2392 leaves exactly two eval batches of 64 in the test split.
    "backbone-eval": {
        False: dict(model=BACKBONE_MODEL, horizon=96, m=7, T=2392, batch_size=64),
        True: dict(model=TINY_MODEL, horizon=8, m=7, T=233, batch_size=4),
    },
}


@dataclass
class UnitResult:
    """What one unit of timed work did; times are perf_counter seconds."""

    seconds: float = 0.0      # wall time of the timed package calls
    train_s: float = 0.0      # train phase: steps plus validation passes
    eval_s: float = 0.0       # test-split passes
    trained: int = 0
    validated: int = 0
    tested: int = 0
    test_batches: list = field(default_factory=list)   # (start, end)
    test_mse: list = field(default_factory=list)
    train_loss: list = field(default_factory=list)


def model_config(sizes, mixer="icm") -> encoder.EncoderConfig:
    return encoder.EncoderConfig(**sizes["model"], mixer=mixer, horizons=(sizes["horizon"],))


def lagged_series(sizes, seed):
    return data.generate_lagged_copy(m=sizes["m"], T=sizes["T"], lag=LAG,
                                     noise_std=NOISE, seed=seed)


def check_icm(model, series) -> str | None:
    """Compare block 0's ICM layer with the channel-at-a-time reference.

    The input is one batch item of the workload's own series, taken through
    instance norm and the patch embedding. Tolerance: the largest absolute
    difference must stay within 1000 machine epsilons of the model dtype,
    relative to the largest reference value.
    """
    layer = model.blocks[0].attn
    if not isinstance(layer, attention.ICMAttention):
        return f"block 0 attention is {type(layer).__name__}, not ICMAttention"
    x = series.values[:model.config.lookback].T[None].astype(model.dtype)
    with tensor.no_grad():
        x_norm, _ = encoder.instance_normalize(tensor.Tensor(x))
        h = model.embed(x_norm)
        fast = layer(h).data[0]
        ref = attention.icm_attention_reference(tensor.Tensor(h.data[0]), layer).data
    tol = 1000 * np.finfo(model.dtype).eps
    err = float(np.abs(fast - ref).max() / np.abs(ref).max())
    if not err <= tol:
        return f"ICMAttention differs from icm_attention_reference: rel err {err:.3e} > {tol:.3e}"
    return None


def train_call(call, train_cfg, log, result: UnitResult):
    """Time one train_supervised ``call``; its last evaluate pass is the test split."""
    evals_before, steps_before = len(log.evals), log.n_steps
    start = perf_counter()
    _, report, curve = call()
    seconds = perf_counter() - start
    *vals, test = log.evals[evals_before:]
    expected = train_cfg.epochs * train_cfg.max_train_windows // train_cfg.batch_size
    if log.n_steps - steps_before != expected:
        raise RuntimeError(f"train_supervised ran {log.n_steps - steps_before} steps, "
                           f"budget is {expected}; the budget no longer fits the series")
    test_s = test["end"] - test["start"]
    result.seconds += seconds
    result.train_s += seconds - test_s
    result.eval_s += test_s
    result.trained += train_cfg.epochs * train_cfg.max_train_windows
    result.validated += sum(e["windows"] for e in vals)
    result.tested += test["windows"]
    result.test_batches += test["batches"]
    result.test_mse += [entry["mse"] for entry in report.entries.values()]
    result.train_loss.append(curve[-1])


class DeskCompare:
    name, primary = "desk-compare", "train"

    def __init__(self, seed, tiny, workdir):
        self.seed, self.sizes = seed, SIZES[self.name][tiny]
        self.train_cfg = training.TrainConfig(**self.sizes["train"], seed=0, precision="f32")

    def _models(self):
        return {mixer: encoder.ForecastEncoder(model_config(self.sizes, mixer), seed=0,
                                               dtype=np.float32) for mixer in MIXERS}

    def setup(self):
        series = data.standardized(lagged_series(self.sizes, self.seed))
        return {"series": series, "models": self._models()}

    def checks(self, state):
        return {f"icm_reference[{mixer}]": check_icm(state["models"][mixer], state["series"])
                for mixer in ("icm", "icm-static")}

    def unit(self, state, log) -> UnitResult:
        result = UnitResult()
        for model in self._models().values():
            train_call(lambda: training.train_supervised(model, state["series"], self.train_cfg,
                                                         self.sizes["horizon"]),
                       self.train_cfg, log, result)
        return result


class BackboneTrain:
    name, primary = "backbone-train", "train"

    def __init__(self, seed, tiny, workdir):
        self.seed, self.sizes = seed, SIZES[self.name][tiny]
        self.train_cfg = training.TrainConfig(**self.sizes["train"], seed=0, precision="f32")

    def _model(self):
        return encoder.ForecastEncoder(model_config(self.sizes), seed=0, dtype=np.float32)

    def setup(self):
        series = data.standardized(lagged_series(self.sizes, self.seed))
        return {"series": series, "model": self._model()}

    def checks(self, state):
        return {"icm_reference": check_icm(state["model"], state["series"])}

    def _train(self, model, series, train_cfg):
        with warnings.catch_warnings():
            # The series is sized to leave no validation windows on purpose.
            warnings.filterwarnings("ignore", message=r".*/val: region of")
            return training.train_supervised(model, series, train_cfg, self.sizes["horizon"])

    def warm_up(self, state):
        """One untimed train step: the first steps of a process grow the heap, a one-off cost."""
        one_step = dict(self.sizes["train"], max_train_windows=self.sizes["train"]["batch_size"])
        self._train(state["model"], state["series"],
                    training.TrainConfig(**one_step, seed=0, precision="f32"))

    def unit(self, state, log) -> UnitResult:
        result, model = UnitResult(), self._model()
        train_call(lambda: self._train(model, state["series"], self.train_cfg),
                   self.train_cfg, log, result)
        return result


class BackboneEval:
    name, primary = "backbone-eval", "eval"

    def __init__(self, seed, tiny, workdir):
        self.seed, self.sizes, self.workdir = seed, SIZES[self.name][tiny], workdir

    def setup(self):
        raw = lagged_series(self.sizes, self.seed)
        csv_path = self.workdir / "series.csv"
        data.save_csv(raw, csv_path)
        ingested = data.load_csv(csv_path)
        series = data.standardized(ingested)
        windows = data.make_windows(series, self.sizes["model"]["lookback"],
                                    self.sizes["horizon"], split="test")
        saved = encoder.ForecastEncoder(model_config(self.sizes), seed=0, dtype=np.float32)
        ckpt_path = self.workdir / "model.icm"
        encoder.save_checkpoint(saved, ckpt_path)
        model = encoder.load_checkpoint(ckpt_path)
        return {"raw": raw, "ingested": ingested, "series": series, "windows": windows,
                "saved": saved, "model": model, "checkpoint_mb": ckpt_path.stat().st_size / 1e6}

    def checks(self, state):
        raw, ingested = state["raw"], state["ingested"]
        csv_ok = raw.values.shape == ingested.values.shape and \
            np.array_equal(raw.values, ingested.values)
        saved, loaded = state["saved"].parameters(), state["model"].parameters()
        ckpt_ok = saved.keys() == loaded.keys() and all(
            np.array_equal(saved[k].data, loaded[k].data) and saved[k].dtype == loaded[k].dtype
            for k in saved)
        return {"csv_roundtrip": None if csv_ok else "load_csv did not return the saved values",
                "checkpoint_roundtrip": None if ckpt_ok else
                "load_checkpoint did not return the saved parameters",
                "icm_reference": check_icm(state["model"], state["series"])}

    def unit(self, state, log) -> UnitResult:
        start = perf_counter()
        test_mse, _ = training.evaluate(state["model"], state["windows"], self.sizes["horizon"],
                                        self.sizes["batch_size"])
        seconds = perf_counter() - start
        test = log.evals[-1]
        return UnitResult(seconds=seconds, eval_s=test["end"] - test["start"],
                          tested=test["windows"], test_batches=list(test["batches"]),
                          test_mse=[test_mse])


WORKLOADS = {w.name: w for w in (DeskCompare, BackboneTrain, BackboneEval)}
