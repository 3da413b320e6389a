"""Hooks the benchmark installs on the icmixer package from outside it.

Nothing under ``src/`` is edited: every hook replaces a public function or
method on its module or class for the duration of a ``with`` block and puts
the original back on exit.

* ``Probe`` is the untraced hook set. It takes one timestamp where
  ``Adam.step`` returns (the train-step boundary) and one where each
  ``ForecastEncoder.forecast`` inside ``evaluate`` returns (the eval-batch
  boundary), and checks each forecast is finite. End-to-end numbers come
  from runs with only the probe installed.
* ``Tracer`` is the traced hook set. It opens a span around each layer's
  public entry point, times each listed ``Tensor`` op, wraps the backward
  closure of every node such an op returns (tagged with the innermost
  layer span open when the node was made), and counts the loss graph
  before each backward. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute path, span name). A missing target is skipped and
# reported, so a refactor that renames one of them costs its span, not the run.
SPAN_TARGETS = [
    ("icmixer.training", "train_supervised", "training.train"),
    ("icmixer.training", "evaluate", "training.evaluate"),
    ("icmixer.training", "mse", "training.loss"),
    ("icmixer.training", "Adam.step", "training.adam"),
    ("icmixer.training", "Adam.zero_grad", "training.adam"),
    ("icmixer.tensor", "Tensor.backward", "training.backward"),
    # The head is computed inline in forecast_normalized, so that span's self
    # time (input check plus the head projection) is reported as the head.
    ("icmixer.encoder", "ForecastEncoder.forecast_normalized", "encoder.head"),
    ("icmixer.encoder", "ForecastEncoder.embed", "encoder.embed"),
    ("icmixer.encoder", "instance_normalize", "encoder.instance_norm"),
    ("icmixer.encoder", "denormalize", "encoder.instance_norm"),
    ("icmixer.encoder", "EncoderBlock.__call__", "encoder.block"),
    ("icmixer.encoder", "LayerNorm.__call__", "encoder.layernorm"),
    ("icmixer.encoder", "FeedForward.__call__", "encoder.ffn"),
    ("icmixer.encoder", "save_checkpoint", "encoder.save_checkpoint"),
    ("icmixer.encoder", "load_checkpoint", "encoder.load_checkpoint"),
    ("icmixer.attention", "ICMAttention.__call__", "attention.icm"),
    ("icmixer.attention", "MultiHeadSelfAttention.__call__", "attention.mhsa"),
    ("icmixer.attention", "MultiHeadSelfAttention.project_qkv", "attention.project_qkv"),
    ("icmixer.attention", "dot_attention", "attention.dot_attention"),
    ("icmixer.attention", "sigma", "attention.sigma"),
    ("icmixer.mixers", "ConcatAttention.__call__", "mixers.concat"),
    ("icmixer.mixers", "same_channel_mask", "mixers.same_channel_mask"),
    ("icmixer.mixers", "add_static_channel_embedding", "mixers.static_embed"),
    ("icmixer.data", "generate_lagged_copy", "data.generate"),
    ("icmixer.data", "load_csv", "data.load_csv"),
    ("icmixer.data", "make_windows", "data.make_windows"),
]

# Tensor op name -> the methods that implement it. Reflected operators are
# separate class attributes, so both spellings are wrapped.
TENSOR_OPS = {
    "matmul": ("__matmul__",),
    "add": ("__add__", "__radd__"),
    "mul": ("__mul__", "__rmul__"),
    "truediv": ("__truediv__",),
    "neg": ("__neg__",),
    "sum": ("sum",),
    "reshape": ("reshape",),
    "swapaxes": ("swapaxes",),
    "getitem": ("__getitem__",),
    "softmax": ("softmax",),
    "elu": ("elu",),
    "sigmoid": ("sigmoid",),
    "relu": ("relu",),
    "sqrt": ("sqrt",),
}

PHASE_SPANS = ("training.train", "training.evaluate")


def _resolve(module_name: str, path: str):
    """(owner, attribute) for ``path`` in ``module_name``, or None if absent."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        return (owner, attr) if attr in vars(owner) else None
    return (owner, attr) if hasattr(owner, attr) else None


class Patcher:
    """Replaces attributes and restores them, last replaced first restored."""

    def __init__(self):
        self._undo = []
        self.missing = []

    def wrap(self, module_name: str, path: str, make_wrapper):
        target = _resolve(module_name, path)
        if target is None:
            self.missing.append(f"{module_name}.{path}")
            return
        owner, attr = target
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        owners = [owner]
        if not isinstance(owner, type):
            # A module-level function is also bound by name in every package
            # module that imported it; callers there must see the wrapper too.
            owners = [mod for name, mod in list(sys.modules.items())
                      if (name == "icmixer" or name.startswith("icmixer."))
                      and vars(mod).get(attr) is original]
        for o in owners:
            self._undo.append((o, attr, original))
            setattr(o, attr, wrapper)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class UnitLog:
    """Operation boundaries and counts seen by the probe during one unit of work."""

    def __init__(self):
        self.steps = []         # (start, end) of each train step
        self.n_steps = 0        # Adam.step calls, including each epoch's first
        self.evals = []         # per evaluate call: dict(start, end, windows, batches)
        self.nonfinite = 0      # eval batches whose forecast was not finite


class Probe:
    """Timestamp-only hooks for the step and eval-batch boundaries."""

    def __init__(self):
        self.log = UnitLog()
        self._last_step = None
        self._batch_start = None
        self._batches = None

    def new_unit(self) -> UnitLog:
        self.log, self._last_step = UnitLog(), None
        return self.log

    @contextlib.contextmanager
    def installed(self):
        patcher = Patcher()
        patcher.wrap("icmixer.training", "Adam.step", self._wrap_step)
        patcher.wrap("icmixer.training", "evaluate", self._wrap_evaluate)
        patcher.wrap("icmixer.encoder", "ForecastEncoder.forecast", self._wrap_forecast)
        try:
            yield self
        finally:
            patcher.restore()

    def _wrap_step(self, step):
        def timed_step(optimizer):
            step(optimizer)
            now = perf_counter()
            self.log.n_steps += 1
            if self._last_step is not None:
                self.log.steps.append((self._last_step, now))
            self._last_step = now
        return timed_step

    def _wrap_evaluate(self, evaluate):
        def timed_evaluate(*args, **kwargs):
            # A step interval must not span an evaluation pass.
            self._last_step = None
            start = self._batch_start = perf_counter()
            self._batches = []
            try:
                result = evaluate(*args, **kwargs)
            finally:
                self._batch_start = None
            windows = args[1] if len(args) > 1 else kwargs["windows"]
            self.log.evals.append({"start": start, "end": perf_counter(),
                                   "windows": len(windows), "batches": self._batches})
            return result
        return timed_evaluate

    def _wrap_forecast(self, forecast):
        def timed_forecast(model, x, horizon):
            out = forecast(model, x, horizon)
            if self._batch_start is not None:
                now = perf_counter()
                self._batches.append((self._batch_start, now))
                self._batch_start = now
                if not np.isfinite(out.data).all():
                    self.log.nonfinite += 1
            return out
        return timed_forecast


class Tracer:
    """Layer spans, per-op forward/backward times and the loss-graph census."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index, child seconds]
        self._open = []       # indices of spans not yet closed
        self.ops = defaultdict(lambda: [0, 0.0, 0.0])   # op -> [calls, fwd s, bwd s]
        self.layer_bwd = defaultdict(float)              # layer -> backward closure s
        self.census = []      # per backward: (op nodes, float64 op nodes, bytes)
        self.window_counts = []                          # windows per make_windows call
        self._in_op = False
        self.missing = []

    @contextlib.contextmanager
    def installed(self):
        patcher = Patcher()
        for module_name, path, name in SPAN_TARGETS:
            patcher.wrap(module_name, path, lambda fn, name=name: self._span_wrapper(fn, name))
        for op, methods in TENSOR_OPS.items():
            for method in methods:
                patcher.wrap("icmixer.tensor", f"Tensor.{method}",
                             lambda fn, op=op: self._op_wrapper(fn, op))
        self.missing = patcher.missing
        try:
            yield self
        finally:
            patcher.restore()

    def _span_wrapper(self, fn, name):
        spans, stack = self.spans, self._open
        census = name == "training.backward"
        windows = name == "data.make_windows"

        def span(*args, **kwargs):
            if census:
                self._count_graph(args[0])
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append([name, 0.0, 0.0, parent, 0.0])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                record = spans[index]
                record[1], record[2] = start, end
                if parent >= 0:
                    spans[parent][4] += end - start
            if windows:
                self.window_counts.append(len(result))
            return result
        return span

    def _op_wrapper(self, fn, op):
        stat, layer_bwd = self.ops[op], self.layer_bwd

        def traced_op(*args, **kwargs):
            if self._in_op:
                return fn(*args, **kwargs)
            self._in_op = True
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._in_op = False
            stat[1] += perf_counter() - start
            stat[0] += 1
            backward = getattr(out, "_backward", None)
            if backward is not None:
                layer = self.spans[self._open[-1]][0] if self._open else "none"

                def timed_backward(grad):
                    t0 = perf_counter()
                    backward(grad)
                    dt = perf_counter() - t0
                    stat[2] += dt
                    layer_bwd[layer] += dt
                out._backward = timed_backward
            return out
        return traced_op

    def _count_graph(self, loss):
        """Count the op nodes (tensors with a backward closure) reachable from the loss."""
        seen, stack = set(), [loss]
        nodes = f64 = nbytes = 0
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if getattr(node, "_backward", None) is not None:
                nodes += 1
                f64 += node.data.dtype == np.float64
                nbytes += node.data.nbytes
            stack.extend(getattr(node, "_parents", ()))
        self.census.append((nodes, int(f64), nbytes))

    # -- aggregation ----------------------------------------------------------

    def self_seconds(self) -> dict:
        """Span name -> total self time (duration minus time covered by child spans)."""
        out = defaultdict(float)
        for name, start, end, _, child in self.spans:
            out[name] += end - start - child
        return out

    def calls(self) -> dict:
        out = defaultdict(int)
        for record in self.spans:
            out[record[0]] += 1
        return out

    def phase_children(self):
        """(name, start, end) of the layer spans directly under a train or evaluate span."""
        spans = self.spans
        return [(s[0], s[1], s[2]) for s in spans
                if s[0] not in PHASE_SPANS and s[3] >= 0 and spans[s[3]][0] in PHASE_SPANS]

    def dump(self) -> dict:
        return {"spans": [[n, round(s, 7), round(e, 7), p] for n, s, e, p, _ in self.spans],
                "ops": dict(self.ops),
                "layer_bwd_s": dict(self.layer_bwd),
                "census": self.census,
                "missing": self.missing}


def overlap(intervals, spans) -> dict:
    """Seconds of each span name that fall inside the union of ``intervals``.

    Both lists hold closed-open time ranges; ``intervals`` do not overlap
    each other, and neither do ``spans``.
    """
    intervals = sorted(intervals)
    spans = sorted(spans, key=lambda s: s[1])
    out = defaultdict(float)
    i = 0
    for name, start, end in spans:
        while i < len(intervals) and intervals[i][1] <= start:
            i += 1
        j = i
        while j < len(intervals) and intervals[j][0] < end:
            lo, hi = max(start, intervals[j][0]), min(end, intervals[j][1])
            if hi > lo:
                out[name] += hi - lo
            j += 1
    return out
