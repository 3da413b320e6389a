"""Command-line interface: train, compare, eval, inspect, gradcheck, synth.

A run of ``train`` or ``compare`` writes into ``<out>/<name>/``: the resolved
``config.json``, line-delimited ``metrics.jsonl`` records, a plain
``summary.txt`` table and, for ``train``, one single-horizon checkpoint per
horizon. Flag values override config-file values, which override built-in
defaults. Input data files are never modified.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
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
from .encoder import PRECISIONS, EncoderConfig, ForecastEncoder, load_checkpoint, save_checkpoint
from .mixers import MixerKind, check_capacity
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


def _load_series(ns, config: EncoderConfig, splits=("test",)):
    """The standardized series of --data or --synthetic; ConfigError unless each of its
    ``splits`` holds a window for each of ``config``'s horizons."""
    if ns.synthetic:
        series = standardized(parse_synthetic_spec(ns.synthetic))
    elif not ns.data:
        raise ConfigError("either --data or --synthetic is required")
    elif not Path(ns.data).exists():
        raise FileNotFoundError(f"data file not found: {ns.data}")
    else:
        series = standardized(load_csv(ns.data))
    window = config.lookback + max(config.horizons)
    for split in splits:
        lo, hi = series.region(split)
        if hi - lo < window:
            raise ConfigError(f"{series.name}: the {split} split has {hi - lo} rows, fewer than "
                              f"lookback {config.lookback} + horizon {max(config.horizons)} = "
                              f"{window}")
    return series


def _build_configs(ns):
    """EncoderConfig and TrainConfig from the --config file and the flags named like fields.

    A flag wins over the file; a key neither sets keeps its dataclass default.
    """
    file_cfg = {}
    if ns.config:
        with open(ns.config) as f:
            try:
                file_cfg = json.load(f)
            except (ValueError, RecursionError) as err:  # RecursionError: nesting too deep
                raise ConfigError(f"{ns.config}: invalid JSON ({err})") from err
    classes = (EncoderConfig, TrainConfig)
    if not (isinstance(file_cfg, dict) and set(file_cfg) <= {cls.section for cls in classes}
            and all(isinstance(section, dict) for section in file_cfg.values())):
        raise ConfigError(f"{ns.config}: expected a JSON object with at most a 'model' and "
                          f"a 'train' section, each a JSON object")
    configs = []
    for cls in classes:
        flags = {f.name: getattr(ns, f.name) for f in fields(cls)
                 if getattr(ns, f.name, None) is not None}
        configs.append(cls.from_dict({**file_cfg.get(cls.section, {}), **flags}))
    return tuple(configs)


def _parse_horizons(text):
    try:
        return tuple(int(h) for h in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _parse_bool(text):
    if text not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")
    return text == "true"


# The config fields whose flag is not typed from the field's default.
CONFIG_FLAGS = {"horizons": {"type": _parse_horizons}, "precision": {"choices": list(PRECISIONS)},
                "max_train_windows": {"type": int},
                "finetune_beta": {"type": _parse_bool, "metavar": "{true,false}",
                                  "help": "run a head+gate fine-tuning stage after training"}}


def _run(ns, model_cfg, train_cfg, mixers, run_name, save_checkpoints=False) -> tuple:
    """Train one single-horizon model per (mixer, horizon): the loop of train and compare.

    Each model holds only the head it trains, so its init does not depend on
    the other horizons. A ``finetune_beta`` stage's records carry ``"stage": "head+gate"``.
    Returns the series, the run directory and one MetricReport per mixer.
    """
    # Each distinct mixer's configs are built, so checked, before the repeat check and any I/O.
    configs = [replace(model_cfg, mixer=kind, horizons=(horizon,))
               for kind in dict.fromkeys(mixers) for horizon in model_cfg.horizons]
    repeated = next((name for i, name in enumerate(mixers) if name in mixers[:i]), None)
    if repeated is not None:  # found by the fifth name: at most four are distinct mixers
        raise ConfigError(f"--mixers repeats mixer {repeated!r}")
    series = _load_series(ns, model_cfg, splits=("test", "val"))
    if any(cfg.mixer is MixerKind.ICM_STATIC for cfg in configs):
        check_capacity(series.n_channels, model_cfg.max_channels)
    run_dir = Path(ns.out or "runs") / (ns.name or run_name)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.json").write_text(json.dumps(
        {"command": ns.command, "mixers": mixers,
         "model": {k: v for k, v in model_cfg.to_dict().items() if k != "mixer"},
         "train": train_cfg.to_dict(), "data": ns.data, "synthetic": ns.synthetic},
        indent=2))
    with open(run_dir / "metrics.jsonl", "w") as metrics:
        def log(record):
            print(json.dumps(record), file=metrics, flush=True)

        reports = {kind: MetricReport() for kind in mixers}
        for cfg in configs:
            horizon = cfg.horizons[0]
            model = ForecastEncoder(cfg, seed=train_cfg.seed, dtype=train_cfg.dtype)
            model, part, _ = train_supervised(model, series, train_cfg, horizon, log=log)
            if train_cfg.finetune_beta:
                model, part, _ = finetune_beta_and_head(
                    model, series, train_cfg, horizon,
                    log=lambda record: log({**record, "stage": "head+gate"}))
            reports[cfg.mixer.value].entries.update(part.entries)
            if save_checkpoints:
                save_checkpoint(model, run_dir / f"checkpoint_h{horizon}.icm")
    return series, run_dir, reports


def cmd_train(ns) -> int:
    model_cfg, train_cfg = _build_configs(ns)
    kind = model_cfg.mixer.value
    series, run_dir, reports = _run(ns, model_cfg, train_cfg, [kind], f"train-{kind}",
                                    save_checkpoints=True)
    lines = [f"{'dataset':<40}{'horizon':>8}{'mse':>12}{'mae':>12}"]
    for rec in reports[kind].to_records(series.name):
        lines.append(f"{rec['dataset']:<40}{str(rec['horizon']):>8}"
                     f"{rec['mse']:>12.4f}{rec['mae']:>12.4f}")
    _write_summary(run_dir, lines)
    return 0


def _write_summary(run_dir: Path, lines: list):
    text = "\n".join(lines) + "\n"
    (run_dir / "summary.txt").write_text(text)
    print(text, end="")


def cmd_compare(ns) -> int:
    model_cfg, train_cfg = _build_configs(ns)
    mixers = [m for m in (ns.mixers or "").split(",") if m]
    if not mixers:
        raise ConfigError("--mixers requires a non-empty comma-separated list")
    series, run_dir, reports = _run(ns, model_cfg, train_cfg, mixers, "compare")
    width = max(len(k) for k in mixers) + 2
    lines = [f"{'variant':<{width}}{series.name:>24}"]
    lines += [f"{kind:<{width}}{report.average()['mse']:>24.4f}"
              for kind, report in reports.items()]
    _write_summary(run_dir, lines)
    return 0


def cmd_eval(ns) -> int:
    model = load_checkpoint(ns.checkpoint)
    series = _load_series(ns, model.config)
    report = MetricReport()
    for horizon in model.config.horizons:
        windows = make_windows(series, model.config.lookback, horizon, split="test")
        m, a = evaluate(model, windows, horizon)
        report.add(horizon, m, a)
    for rec in report.to_records(series.name):
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
    given = {k: v for k, v in vars(ns).items() if k in ("tolerance", "seed") and v is not None}
    ok = True
    for kind in mixers:
        report = gradcheck(shrunken_config(kind), **given)
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

    def add_data(p):
        p.add_argument("--data", help="CSV dataset path")
        p.add_argument("--synthetic", help="synthetic spec, e.g. lagged:m=4,lag=16,noise=0.05")

    def add_common(p):
        add_data(p)
        p.add_argument("--config", help="JSON config file (flags take precedence)")
        p.add_argument("--out", help="output root directory (default: runs)")
        p.add_argument("--name", help="run name under the output root")
        for f in (*fields(EncoderConfig), *fields(TrainConfig)):
            if f.name != "mixer":  # --mixer or --mixers, added by the command
                p.add_argument("--" + f.name.replace("_", "-"),
                               **CONFIG_FLAGS.get(f.name, {"type": type(f.default)}))

    p_train = sub.add_parser("train", help="supervised training per horizon")
    add_common(p_train)
    p_train.add_argument("--mixer", choices=MIXER_CHOICES)
    p_train.set_defaults(func=cmd_train)

    p_cmp = sub.add_parser("compare", help="train several mixer variants side by side")
    add_common(p_cmp)
    p_cmp.add_argument("--mixers", required=True,
                       help=f"comma-separated subset of {MIXER_CHOICES}")
    p_cmp.set_defaults(func=cmd_compare)

    p_eval = sub.add_parser("eval", help="test-split metrics for a checkpoint")
    add_data(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_inspect = sub.add_parser("inspect", help="config, parameter counts and gates of a checkpoint")
    p_inspect.add_argument("checkpoint")
    p_inspect.set_defaults(func=cmd_inspect)

    p_gc = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_gc.add_argument("--mixer", choices=MIXER_CHOICES)
    p_gc.add_argument("--tolerance", type=float)
    p_gc.add_argument("--seed", type=int)
    p_gc.set_defaults(func=cmd_gradcheck)

    p_synth = sub.add_parser("synth", help="write a synthetic series as CSV")
    p_synth.add_argument("--spec", required=True)
    p_synth.add_argument("--path", required=True)
    p_synth.set_defaults(func=cmd_synth)

    for p in (parser, *sub.choices.values()):
        p.allow_abbrev = False  # exact flags: a new flag cannot make a prefix ambiguous
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (ConfigError, ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as err:  # a missing file, an array too large for memory, ...
        print(f"error: {err}", file=sys.stderr)
        return 1
    except TrainingDiverged as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
