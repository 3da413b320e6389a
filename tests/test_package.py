import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np

import icmixer
from icmixer import tensor
from icmixer.attention import icm_attention_reference
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


# Public members of the engine that no model computation has to reach: the
# shape properties are read, not called, and the repr is for people.
ENGINE_EXEMPT = {"shape", "ndim", "size", "dtype", "__repr__"}


def engine_ops():
    """{function: [(owner, name), ...]} of every public Tensor method and tensor function.

    Aliases such as ``__radd__ = __add__`` are one function under two names.
    """
    ops = {}
    for name, attr in vars(tensor.Tensor).items():
        public = not name.startswith("_") or (name.startswith("__") and name.endswith("__"))
        if public and name not in ENGINE_EXEMPT and inspect.isfunction(attr):
            ops.setdefault(attr, []).append((tensor.Tensor, name))
    for name, attr in vars(tensor).items():
        if (not name.startswith("_") and inspect.isfunction(attr)
                and attr.__module__ == tensor.__name__):
            # Every package module that imported the function binds it too.
            ops[attr] = [(module, name) for module_name, module in sys.modules.items()
                         if module_name.split(".")[0] == "icmixer"
                         and vars(module).get(name) is attr]
    return ops


def test_engine_ops_are_all_reached(monkeypatch):
    """Each op of the autodiff engine is called by training, evaluation or the reference.

    One f32 train step and one ``evaluate`` per mixer, plus the
    channel-at-a-time ``icm_attention_reference``, must reach every public
    member of ``icmixer.tensor``: an op that nothing reaches belongs beside
    the test oracles, not in the package.
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
        train_supervised(model, series, train_cfg, horizon=8)
        evaluate(model, make_windows(series, 32, 8, split="test"), 8)
        if kind is MixerKind.ICM:
            x = np.random.default_rng(0).standard_normal((3, 4, 16)).astype(np.float32)
            icm_attention_reference(tensor.Tensor(x), model.blocks[0].attn)

    assert not sorted(fn.__qualname__ for fn in ops if fn not in calls)
