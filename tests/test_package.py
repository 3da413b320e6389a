import inspect
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

import icmixer
from conftest import graph_nodes
from icmixer import attention, mixers, tensor
from icmixer.data import generate_lagged_copy, make_windows, standardized
from icmixer.encoder import EncoderConfig, ForecastEncoder
from icmixer.mixers import MixerKind
from icmixer.training import TrainConfig, evaluate, train_supervised


def test_every_exported_name_resolves():
    missing = [name for name in icmixer.__all__ if not hasattr(icmixer, name)]
    assert not missing, missing


def test_import_loads_numpy_only():
    """The package and its CLI import no third-party module but numpy.

    A fresh interpreter without site start-up hooks (``-S``, which keep
    their own modules loaded) lists every top-level module it holds after
    the import.
    """
    paths = [str(Path(module.__file__).resolve().parents[1]) for module in (icmixer, np)]
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import icmixer, icmixer.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} "
            "- set(sys.stdlib_module_names) - {'__main__', 'icmixer'}))")
    out = subprocess.run([sys.executable, "-S", "-c", code, *paths], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "['numpy']"


# Public members of the engine and the model that no model computation has to
# reach: the shape properties are read, not called, and the repr is for people.
# So is the parameter count, which only ``icmixer inspect`` prints.
ENGINE_EXEMPT = {"shape", "ndim", "size", "dtype", "__repr__", "parameter_count"}


def engine_ops():
    """{function: [(owner, name), ...]} of every public Tensor and ForecastEncoder
    method and every public function of the engine and of the layer modules built on it.

    Aliases such as ``__radd__ = __add__`` are one function under two names.
    """
    ops = {}
    for cls in (tensor.Tensor, ForecastEncoder):
        for name, attr in vars(cls).items():
            public = not name.startswith("_") or (name.startswith("__") and name.endswith("__"))
            if public and name not in ENGINE_EXEMPT and inspect.isfunction(attr):
                ops.setdefault(attr, []).append((cls, name))
    for owner in (tensor, attention, mixers):
        for name, attr in vars(owner).items():
            if (not name.startswith("_") and inspect.isfunction(attr)
                    and attr.__module__ == owner.__name__):
                # Every package module that imported the function binds it too.
                ops[attr] = [(module, name) for module_name, module in sys.modules.items()
                             if module_name.split(".")[0] == "icmixer"
                             and vars(module).get(name) is attr]
    return ops


def test_engine_ops_are_all_reached(monkeypatch):
    """Each op of the engine, the layers and the model is called by training, evaluation
    or the reference.

    One logged f32 train step and one ``evaluate`` per mixer, plus the
    channel-at-a-time ``icm_attention_reference``, must reach every public
    member of ``icmixer.tensor``, every public method of ``ForecastEncoder``
    and every public function of ``icmixer.attention`` and ``icmixer.mixers``:
    an op that nothing reaches belongs beside the test oracles, not in the package.
    """
    ops, calls = engine_ops(), {}
    for fn, bindings in ops.items():
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn] = calls.get(_fn, 0) + 1
            return _fn(*args, **kwargs)
        for owner, name in bindings:
            monkeypatch.setattr(owner, name, counted)

    series = standardized(generate_lagged_copy(m=3, T=400, lag=4, noise_std=0.1, seed=0))
    train_cfg = TrainConfig(epochs=1, batch_size=8, max_train_windows=8, learning_rate=1e-3,
                            precision="f32")
    for kind in MixerKind:
        cfg = EncoderConfig(n_blocks=1, d_model=16, n_heads=2, d_ff=32, patch_len=8,
                            lookback=32, mixer=kind, horizons=(8,))
        model = ForecastEncoder(cfg, seed=0, dtype=np.float32)
        train_supervised(model, series, train_cfg, horizon=8, log=lambda record: None)
        evaluate(model, make_windows(series, 32, 8, split="test"), 8)
        if kind is MixerKind.ICM:
            x = np.random.default_rng(0).standard_normal((3, 4, 16)).astype(np.float32)
            attention.icm_attention_reference(tensor.Tensor(x), model.blocks[0].attn)

    assert not sorted(fn.__qualname__ for fn in ops if fn not in calls)


# Graph nodes with a backward closure in one f32 train step on criterion 6's
# model config. The attention kernels take merged heads and the loss is one
# node, so no layout or loss plumbing is recorded.
GRAPH_NODES_PER_STEP = {MixerKind.INDEPENDENT: 16, MixerKind.CONCAT: 21, MixerKind.ICM: 19,
                        MixerKind.ICM_STATIC: 22}


def desk_train_steps(monkeypatch, measure) -> dict:
    """One f32 train step (m=4, batch 16) per mixer on criterion 6's model config.

    Each backward runs as ``measure(loss, backward)``, which must call
    ``backward(loss)``; returns {mixer: [what measure returned, per backward]}.
    """
    results, backward = [], tensor.Tensor.backward
    monkeypatch.setattr(tensor.Tensor, "backward",
                        lambda loss: results.append(measure(loss, backward)))
    series = standardized(generate_lagged_copy(m=4, T=4000, lag=16, noise_std=0.05, seed=0))
    train_cfg = TrainConfig(epochs=1, batch_size=16, max_train_windows=16, precision="f32")
    got = {}
    for kind in MixerKind:
        cfg = EncoderConfig(n_blocks=1, d_model=32, n_heads=4, d_ff=64, patch_len=8,
                            lookback=256, mixer=kind, horizons=(96,))
        train_supervised(ForecastEncoder(cfg, seed=0, dtype=np.float32), series, train_cfg, 96)
        got[kind], results[:] = list(results), []
    return got


def test_train_step_graph_size_is_pinned(monkeypatch):
    """Counts the op nodes of the loss graph of one train step per mixer."""
    def count_op_nodes(loss, backward):
        n = sum(node._backward is not None for node in graph_nodes(loss))
        backward(loss)
        return n

    got = desk_train_steps(monkeypatch, count_op_nodes)
    assert got == {kind: [n] for kind, n in GRAPH_NODES_PER_STEP.items()}


def test_backward_closures_capture_no_tensor(monkeypatch):
    """A closure captures graph nodes and arrays, never a Tensor, so it keeps
    alive only the arrays its backward reads."""
    def captured_tensors(loss, backward):
        found = []
        for node in graph_nodes(loss):
            for cell in getattr(node._backward, "__closure__", None) or ():
                value = cell.cell_contents
                items = value if isinstance(value, (tuple, list)) else (value,)
                found += [type(v).__name__ for v in items if isinstance(v, tensor.Tensor)]
        backward(loss)
        return found

    assert desk_train_steps(monkeypatch, captured_tensors) == {kind: [[]] for kind in MixerKind}


# First gradient contributions that one such step copies rather than adopts:
# each ``+`` hands one gradient to both operands and ``reshape`` a view of its
# own, and concat's two 0-d channel-bias weights get numpy scalars, not arrays.
# Counted from the graph: the embedding's ``+ positions`` (1), the two
# residual ``+`` (4) and the head's ``reshape`` (1) make 6. Concat adds its
# two token ``reshape`` nodes, the ``+`` of its score bias (2) and its two
# scalars; icm-static adds its channel-embedding ``+`` (2) and ``reshape``.
# A layer-norm gain and bias get fresh products from the linear that folds
# them in, which are adopted.
COPIED_FIRST_GRADIENTS = {MixerKind.INDEPENDENT: 6, MixerKind.CONCAT: 12, MixerKind.ICM: 6,
                          MixerKind.ICM_STATIC: 9}


def test_fresh_gradients_are_adopted_not_copied(monkeypatch):
    """Counts the first contributions to a gradient slot that are copied in one
    train step per mixer; every other one is adopted as it came."""
    copies, accumulate = [], tensor.Node._accumulate

    def counting_accumulate(node, grad, fresh=False):
        first = node.grad is None
        accumulate(node, grad, fresh)
        copies.append(first and node.grad is not grad)

    monkeypatch.setattr(tensor.Node, "_accumulate", counting_accumulate)

    def count_copies(loss, backward):
        copies.clear()
        backward(loss)
        return sum(copies)

    got = desk_train_steps(monkeypatch, count_copies)
    assert got == {kind: [n] for kind, n in COPIED_FIRST_GRADIENTS.items()}


def test_readme_lists_the_config_keys_of_each_dataclass():
    """The README's --config key list is each config dataclass's fields, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for section, cls in (("model", EncoderConfig), ("train", TrainConfig)):
        line = re.search(rf"^- `{section}` \(`{cls.__name__}`\): (.*)$", readme, re.M)
        assert line, f"README lists no {section} keys"
        assert re.findall(r"`(\w+)`", line.group(1)) == [f.name for f in fields(cls)]
