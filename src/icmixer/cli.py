"""Command-line interface: train, compare, eval, inspect, gradcheck, synth.

A run writes into ``<out>/<name>/``: the resolved ``config.json``, one
checkpoint per horizon, line-delimited ``metrics.jsonl`` records, and a plain
``summary.txt`` table. Flag values override config-file values, which
override built-in defaults. Input data files are never modified.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .attention import ConfigError
from .data import (
    ParseError,
    generate_lagged_copy,
    load_csv,
    make_windows,
    save_csv,
    standardized,
)
from .encoder import EncoderConfig, ForecastEncoder, load_checkpoint, save_checkpoint
from .mixers import MixerKind
from .training import (
    MetricReport,
    TrainConfig,
    TrainingDiverged,
    evaluate,
    finetune_beta_and_head,
    gradcheck,
    shrunken_config,
    train_supervised,
)

MIXER_CHOICES = [k.value for k in MixerKind]


def parse_synthetic_spec(spec: str):
    """'lagged:m=4,lag=16,noise=0.05[,T=20000][,seed=0]' -> MultivariateSeries."""
    kind, _, argstr = spec.partition(":")
    if kind != "lagged":
        raise ConfigError(f"unknown synthetic kind {kind!r} (expected 'lagged')")
    args = {"m": 4, "lag": 16, "noise": 0.05, "T": 20000, "seed": 0}
    for part in filter(None, argstr.split(",")):
        key, _, value = part.partition("=")
        if key not in args:
            raise ConfigError(f"unknown synthetic parameter {key!r}")
        convert = float if key == "noise" else int
        try:
            args[key] = convert(value)
        except ValueError:
            raise ConfigError(f"synthetic parameter {key!r}: {value!r} is not a valid "
                              f"{convert.__name__}") from None
    return generate_lagged_copy(m=args["m"], T=args["T"], lag=args["lag"],
                                noise_std=args["noise"], seed=args["seed"])


def _load_series(ns):
    if ns.synthetic:
        return standardized(parse_synthetic_spec(ns.synthetic))
    if not ns.data:
        raise ConfigError("either --data or --synthetic is required")
    path = Path(ns.data)
    if not path.exists():
        raise FileNotFoundError(f"data file not found: {path}")
    return standardized(load_csv(path))


# The keys a --config file may set, per section.
_CONFIG_FILE_KEYS = {
    "model": ("mixer", "lookback", "horizons", "n_blocks", "d_model", "n_heads", "d_ff",
              "patch_len", "max_channels"),
    "train": ("epochs", "batch_size", "learning_rate", "seed", "precision", "train_stride",
              "max_train_windows"),
}


def _read_config_file(path) -> dict:
    """Parse a --config file; ConfigError on invalid JSON or an unknown section or key."""
    with open(path) as f:
        try:
            file_cfg = json.load(f)
        except ValueError as err:
            raise ConfigError(f"{path}: invalid JSON ({err})") from err
    if not isinstance(file_cfg, dict):
        raise ConfigError(f"{path}: expected a JSON object with 'model' and 'train' sections")
    unknown = sorted(set(file_cfg) - set(_CONFIG_FILE_KEYS))
    if unknown:
        raise ConfigError(f"{path}: unknown config section(s): {', '.join(unknown)}")
    for section, keys in _CONFIG_FILE_KEYS.items():
        entries = file_cfg.get(section, {})
        if not isinstance(entries, dict):
            raise ConfigError(f"{path}: section {section!r} must be a JSON object")
        unknown = sorted(set(entries) - set(keys))
        if unknown:
            raise ConfigError(f"{path}: unknown {section} config key(s): {', '.join(unknown)}")
    return file_cfg


def _build_configs(ns):
    """EncoderConfig and TrainConfig from the keys a flag or the config file sets.

    A flag wins over the file; a key neither sets keeps its dataclass default.
    """
    file_cfg = _read_config_file(ns.config) if getattr(ns, "config", None) else {}
    sections = {}
    for section, keys in _CONFIG_FILE_KEYS.items():
        values = dict(file_cfg.get(section, {}))
        values.update({key: getattr(ns, key) for key in keys
                       if getattr(ns, key, None) is not None})
        sections[section] = values
    try:
        model_cfg = EncoderConfig(**sections["model"])
        train_cfg = TrainConfig(**sections["train"])
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid config value: {err}") from err
    return model_cfg, train_cfg, file_cfg


def _parse_horizons(text):
    return tuple(int(h) for h in text.split(","))


def _run_dir(ns, default_name: str) -> Path:
    out = Path(ns.out or "runs") / (ns.name or default_name)
    out.mkdir(parents=True, exist_ok=True)
    return out


class _MetricsWriter:
    def __init__(self, path: Path):
        self.path = path
        self.path.write_text("")

    def __call__(self, record: dict):
        with open(self.path, "a") as f:
            f.write(json.dumps(record) + "\n")


def _train_one(model_cfg, train_cfg, series, horizon, log, finetune_beta=False):
    model = ForecastEncoder(model_cfg, seed=train_cfg.seed, dtype=train_cfg.dtype)
    model, report, curve = train_supervised(model, series, train_cfg, horizon, log=log)
    if finetune_beta:
        model, report, _ = finetune_beta_and_head(model, series, train_cfg, horizon, log=log)
    return model, report, curve


def cmd_train(ns) -> int:
    model_cfg, train_cfg, _ = _build_configs(ns)
    series = _load_series(ns)
    run_dir = _run_dir(ns, f"train-{model_cfg.mixer.value}")
    log = _MetricsWriter(run_dir / "metrics.jsonl")
    (run_dir / "config.json").write_text(json.dumps(
        {"command": "train", "model": model_cfg.to_dict(), "train": train_cfg.__dict__ | {"freeze_mask": None},
         "data": ns.data, "synthetic": ns.synthetic}, indent=2, default=str))

    report = MetricReport()
    for horizon in model_cfg.horizons:
        model, part, _ = _train_one(model_cfg, train_cfg, series, horizon, log,
                                    finetune_beta=ns.finetune_beta == "true")
        report.merge(part)
        save_checkpoint(model, run_dir / f"checkpoint_h{horizon}.icm")
    _write_summary(run_dir, report)
    return 0


def _write_summary(run_dir: Path, report: MetricReport):
    lines = [f"{'dataset':<40}{'horizon':>8}{'mse':>12}{'mae':>12}"]
    for rec in report.to_records():
        lines.append(f"{rec['dataset']:<40}{str(rec['horizon']):>8}"
                     f"{rec['mse']:>12.4f}{rec['mae']:>12.4f}")
    text = "\n".join(lines) + "\n"
    (run_dir / "summary.txt").write_text(text)
    print(text, end="")


def cmd_compare(ns) -> int:
    model_cfg, train_cfg, _ = _build_configs(ns)
    mixers = [MixerKind(m) for m in (ns.mixers or "").split(",") if m]
    if not mixers:
        raise ConfigError("--mixers requires a non-empty comma-separated list")
    series = _load_series(ns)
    run_dir = _run_dir(ns, "compare")
    log = _MetricsWriter(run_dir / "metrics.jsonl")

    averages = {}
    for kind in mixers:
        cfg = EncoderConfig(**{**model_cfg.to_dict(), "mixer": kind.value})
        report = MetricReport()
        for horizon in cfg.horizons:
            _, part, _ = _train_one(cfg, train_cfg, series, horizon, log)
            report.merge(part)
        averages[kind.value] = report.average(series.name)["mse"]

    width = max(len(k) for k in averages) + 2
    lines = [f"{'variant':<{width}}{series.name:>24}"]
    lines += [f"{kind:<{width}}{avg:>24.4f}" for kind, avg in averages.items()]
    text = "\n".join(lines) + "\n"
    (run_dir / "summary.txt").write_text(text)
    print(text, end="")
    return 0


def cmd_eval(ns) -> int:
    model = load_checkpoint(ns.checkpoint)
    series = _load_series(ns)
    report = MetricReport()
    for horizon in model.config.horizons:
        windows = make_windows(series, model.config.lookback, horizon, split="test")
        m, a = evaluate(model, windows, horizon)
        report.add(series.name, horizon, m, a)
    for rec in report.to_records():
        print(json.dumps(rec))
    return 0


def cmd_inspect(ns) -> int:
    model = load_checkpoint(ns.checkpoint)
    print(f"config: {json.dumps(model.config.to_dict())}")
    print(f"dtype: {model.dtype.name}")
    per_module = {}
    for name, p in model.parameters().items():
        module = name.rsplit(".", 1)[0]
        per_module[module] = per_module.get(module, 0) + p.size
    print(f"parameters: {model.parameter_count()}")
    width = max(len(module) for module in per_module) + 2
    for module, count in per_module.items():
        print(f"  {module:<{width}}{count:>10}")
    for i, gate in enumerate(model.gates()):
        print(f"gate sigmoid(beta) block {i}: " + " ".join(f"{g:.4f}" for g in gate))
    return 0


def cmd_gradcheck(ns) -> int:
    mixers = [MixerKind(ns.mixer)] if ns.mixer else list(MixerKind)
    ok = True
    for kind in mixers:
        report = gradcheck(shrunken_config(kind), tolerance=ns.tolerance, seed=ns.seed or 0)
        print(report.summary())
        ok = ok and report.passed
    return 0 if ok else 1


def cmd_synth(ns) -> int:
    series = parse_synthetic_spec(ns.spec)
    save_csv(series, ns.path)
    print(f"wrote {len(series)} rows x {series.n_channels} channels to {ns.path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="icmixer",
                                     description="Channel-mixing time-series encoder toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_model=True):
        p.add_argument("--config", help="JSON config file (flags take precedence)")
        p.add_argument("--data", help="CSV dataset path")
        p.add_argument("--synthetic", help="synthetic spec, e.g. lagged:m=4,lag=16,noise=0.05")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output root directory (default: runs)")
        p.add_argument("--name", help="run name under the output root")
        if with_model:
            p.add_argument("--lookback", type=int)
            p.add_argument("--horizons", type=_parse_horizons)
            p.add_argument("--n-blocks", dest="n_blocks", type=int)
            p.add_argument("--d-model", dest="d_model", type=int)
            p.add_argument("--n-heads", dest="n_heads", type=int)
            p.add_argument("--d-ff", dest="d_ff", type=int)
            p.add_argument("--precision", choices=["f32", "f64"])
            p.add_argument("--epochs", type=int)
            p.add_argument("--batch-size", dest="batch_size", type=int)
            p.add_argument("--learning-rate", dest="learning_rate", type=float)
            p.add_argument("--train-stride", dest="train_stride", type=int)
            p.add_argument("--max-train-windows", dest="max_train_windows", type=int)

    p_train = sub.add_parser("train", help="supervised training per horizon")
    add_common(p_train)
    p_train.add_argument("--mixer", choices=MIXER_CHOICES)
    p_train.add_argument("--finetune-beta", choices=["true", "false"], default="false",
                         help="run a head+gate fine-tuning stage after training")
    p_train.set_defaults(func=cmd_train)

    p_cmp = sub.add_parser("compare", help="train several mixer variants side by side")
    add_common(p_cmp)
    p_cmp.add_argument("--mixers", required=True,
                       help=f"comma-separated subset of {MIXER_CHOICES}")
    p_cmp.set_defaults(func=cmd_compare)

    p_eval = sub.add_parser("eval", help="test-split metrics for a checkpoint")
    add_common(p_eval, with_model=False)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_inspect = sub.add_parser("inspect", help="config, parameter counts and gates of a checkpoint")
    p_inspect.add_argument("checkpoint")
    p_inspect.set_defaults(func=cmd_inspect)

    p_gc = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_gc.add_argument("--mixer", choices=MIXER_CHOICES)
    p_gc.add_argument("--tolerance", type=float, default=1e-4)
    p_gc.add_argument("--seed", type=int)
    p_gc.set_defaults(func=cmd_gradcheck)

    p_synth = sub.add_parser("synth", help="write a synthetic series as CSV")
    p_synth.add_argument("--spec", required=True)
    p_synth.add_argument("--path", required=True)
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (ConfigError, ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except TrainingDiverged as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
