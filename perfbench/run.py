"""icmixer benchmark: train/eval throughput on three workloads, plus a per-layer trace.

Usage, from the repository root:

    python3 perfbench/run.py                      # every workload, each in a fresh process
    python3 perfbench/run.py --workload desk-compare --seed 1 --seconds 30 --trace 0

A run is one process and a closed loop: the next step or eval batch starts
only after the previous one returned. It sets up the workload several times
(``setup_s`` is the import time plus the median set-up), checks the
program's outputs, then repeats whole units of work (a round of train calls,
or a test-split evaluation) until ``--seconds`` is used up.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced units and prints the per-layer metrics; the difference
between the two kinds of unit is ``trace.overhead_frac``. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. A failed output check prints the failure and a
result without metrics, and exits with code 1.
"""

from __future__ import annotations

import os
import sys
import time

PROCESS_START = time.perf_counter()

# BLAS must be pinned before numpy is imported: runs are deterministic only
# single-threaded, and the machine's cores are shared.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("desk-compare", "backbone-train", "backbone-eval")
SETUP_REPEATS = 5
TAIL_MIN_BEYOND = 10

# Gated on every workload. Tails, test MSE and train loss are printed below
# them but not gated: a tail needs 20 samples, which the backbone workloads
# do not reach in one run, and the MSEs follow the seeded data, not the code.
END_TO_END = {
    "setup_s": "s",
    "windows_per_s": "1/s",
    "op_ms.p50": "ms",
    "peak_rss_mb": "MB",
}

TENSOR_OP_NAMES = ("matmul", "add", "mul", "truediv", "neg", "sum", "reshape", "swapaxes",
                   "getitem", "softmax", "elu", "sigmoid", "relu", "sqrt")
FWD_BWD_SPANS = ("attention.icm", "attention.mhsa", "attention.project_qkv",
                 "attention.dot_attention", "attention.sigma", "mixers.concat",
                 "mixers.static_embed", "encoder.instance_norm", "encoder.embed",
                 "encoder.layernorm", "encoder.ffn", "encoder.head")


def per_layer_units() -> dict:
    units = {"tensor.graph_nodes": "count/step", "tensor.graph_f64_frac": "frac",
             "tensor.graph_mb": "MB/step"}
    for op in TENSOR_OP_NAMES:
        units.update({f"tensor.{op}.calls": "count/op", f"tensor.{op}.fwd_ms": "ms/op",
                      f"tensor.{op}.bwd_ms": "ms/op"})
    units["tensor.backward_ms"] = "ms/op"
    for span in FWD_BWD_SPANS:
        units.update({f"{span}.fwd_ms": "ms/op", f"{span}.bwd_ms": "ms/op"})
    # Instance norm acts on the input data, which needs no gradient: no backward.
    del units["encoder.instance_norm.bwd_ms"]
    units.update({
        "mixers.same_channel_mask.calls": "count/op", "mixers.same_channel_mask.ms": "ms/op",
        "encoder.save_checkpoint_ms": "ms/call", "encoder.load_checkpoint_ms": "ms/call",
        "encoder.checkpoint_mb": "MB",
        "data.generate_ms": "ms/call", "data.load_csv_ms": "ms/call",
        "data.make_windows_ms": "ms/call", "data.windows": "count/call",
        "training.forward_ms": "ms/step", "training.backward_ms": "ms/step",
        "training.adam_ms": "ms/step", "training.step_other_ms": "ms/step",
        "training.evaluate_ms": "ms/batch", "training.steps": "count/unit",
        "trace.overhead_frac": "frac", "trace.coverage_frac": "frac",
    })
    return units


PER_LAYER = per_layer_units()


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes; the numbers are not comparable to full runs")
    return p.parse_args(argv)


# -- statistics ---------------------------------------------------------------

def percentile(values, q):
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values):
    """(percentile, value): the highest of a fixed ladder with >= 10 samples beyond it.

    None when there are fewer than 20 samples and no percentile qualifies.
    """
    n = len(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - q / 100) >= TAIL_MIN_BEYOND:
            return q, percentile(values, q)
    return None


def durations_ms(intervals):
    return [(end - start) * 1e3 for start, end in intervals]


# -- environment --------------------------------------------------------------

def blas_info():
    """(library name, threads the library reports, or the pinned setting)."""
    import ctypes

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{blas.get('name')} {blas.get('version')}"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, fn()
    return name, int(BLAS_THREADS)


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy as np
    import scipy
    blas, threads = blas_info()
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": threads, "nproc": len(os.sched_getaffinity(0)),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny}


# -- one workload, in this process -------------------------------------------

class CheckFailed(RuntimeError):
    pass


def run_workload(args, workdir: Path, counts: dict):
    """Set up, check and measure one workload; ``counts`` is updated in place."""
    sys.path.insert(0, str(SRC))
    import hooks
    import workloads

    import_s = time.perf_counter() - PROCESS_START
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    setup_tracer = hooks.Tracer() if args.trace else None
    setup_times = []
    with setup_tracer.installed() if setup_tracer else nullcontext():
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            state = wl.setup()
            setup_times.append(time.perf_counter() - start)

    checks = wl.checks(state)
    counts["attempted"] += len(checks)
    errors = {name: err for name, err in checks.items() if err is not None}
    counts["failed"] += len(errors)
    if errors:
        raise CheckFailed("; ".join(f"{k}: {v}" for k, v in errors.items()))
    if hasattr(wl, "warm_up"):
        wl.warm_up(state)

    probe, tracer = hooks.Probe(), hooks.Tracer() if args.trace else None
    units = []          # (traced, UnitResult, UnitLog)
    loop_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(units) % 2 == 1
        with tracer.installed() if traced else nullcontext(), probe.installed():
            log = probe.new_unit()
            try:
                result = wl.unit(state, log)
            except Exception:
                counts["attempted"] += 1
                counts["failed"] += 1
                raise
        units.append((traced, result, log))
        ops = log.n_steps + sum(len(e["batches"]) for e in log.evals)
        counts["attempted"] += ops
        counts["failed"] += log.nonfinite
        bad = [v for v in result.test_mse + result.train_loss if not math.isfinite(v)]
        if log.nonfinite or bad:
            counts["failed"] += len(bad)
            raise CheckFailed(f"non-finite output: {log.nonfinite} forecast batches, "
                              f"losses/MSEs {bad}")
        elapsed = time.perf_counter() - loop_start
        per_unit = elapsed / len(units)
        enough = len(units) >= (2 if args.trace else 1)
        if enough and elapsed + per_unit > args.seconds:
            break

    info = {"import_s": import_s, "setup_times": setup_times, "units": len(units),
            "loop_s": time.perf_counter() - loop_start}
    if args.trace:
        metrics, detail = per_layer_metrics(wl, state, units, tracer, setup_tracer)
        write_trace(args, tracer, setup_tracer)
        info["missing_hooks"] = sorted(set(tracer.missing + setup_tracer.missing))
    else:
        metrics, detail = end_to_end_metrics(wl, units, import_s, setup_times)
    return metrics, detail, info


def primary_ops(wl, units):
    """Durations (ms) of the workload's primary operation: train step or eval batch."""
    out = []
    for _, result, log in units:
        out += durations_ms(log.steps if wl.primary == "train" else result.test_batches)
    return out


def end_to_end_metrics(wl, units, import_s, setup_times):
    results = [r for _, r, _ in units]
    ops = primary_ops(wl, units)
    seconds = sum(r.train_s + r.eval_s for r in results)
    windows = sum(r.trained + r.validated + r.tested for r in results)
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "windows_per_s": windows / seconds,
        "op_ms.p50": statistics.median(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    op_name = "train step" if wl.primary == "train" else "eval batch"
    detail = {
        "setup_s": f"import {import_s:.3f} s + median of {len(setup_times)} set-ups",
        "windows_per_s": f"{windows} windows (trained+validated+tested) in {seconds:.2f} s",
        "op_ms.p50": f"{op_name}, n={len(ops)}",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    # The per-phase breakdown, for the workloads that have each phase.
    extra = {}

    def timing(prefix, durations):
        extra[f"{prefix}.p50"] = (statistics.median(durations), "ms", f"n={len(durations)}")
        q = tail(durations)
        if q is not None:
            extra[f"{prefix}.tail"] = (q[1], "ms", f"p{q[0]:g}, n={len(durations)}")
        else:
            extra[f"{prefix}.tail"] = (math.nan, "ms", f"no percentile has 10 samples "
                                                       f"beyond it, n={len(durations)}")

    steps = [d for _, _, log in units for d in durations_ms(log.steps)]
    batches = [d for r in results for d in durations_ms(r.test_batches)]
    first = results[0]
    if steps:
        extra["train_windows_per_s"] = (sum(r.trained + r.validated for r in results)
                                        / sum(r.train_s for r in results), "1/s",
                                        "trained + validated windows per train-phase s")
        timing("train_step_ms", steps)
        extra["train_loss"] = (statistics.fmean(first.train_loss), "mse",
                               "last-epoch mean, first unit")
    if batches:
        extra["eval_windows_per_s"] = (sum(r.tested for r in results)
                                       / sum(r.eval_s for r in results), "1/s", "test split")
        timing("eval_batch_ms", batches)
    extra["test_mse"] = (statistics.fmean(first.test_mse), "mse",
                         f"mean over {len(first.test_mse)} model(s), first unit")
    repeat = len({tuple(r.test_mse) for r in results}) == 1
    extra["units_identical"] = (float(repeat), "bool",
                                f"test MSEs of all {len(results)} units repeat exactly")
    return metrics, {"detail": detail, "extra": extra}


def per_layer_metrics(wl, state, units, tracer, setup_tracer):
    from hooks import overlap

    traced = [(r, log) for t, r, log in units if t]
    untraced = [(r, log) for t, r, log in units if not t]
    n_ops = sum(log.n_steps + sum(len(e["batches"]) for e in log.evals) for _, log in traced)
    n_steps = sum(log.n_steps for _, log in traced)
    step_intervals = [iv for _, log in traced for iv in log.steps]
    batch_intervals = [b for _, log in traced for e in log.evals for b in e["batches"]]
    n_batches = len(batch_intervals)
    per_op = 1e3 / n_ops
    self_s = tracer.self_seconds()
    m = {}

    census = tracer.census
    nodes = sum(c[0] for c in census)
    m["tensor.graph_nodes"] = nodes / len(census) if census else 0.0
    m["tensor.graph_f64_frac"] = sum(c[1] for c in census) / nodes if nodes else 0.0
    m["tensor.graph_mb"] = sum(c[2] for c in census) / len(census) / 1e6 if census else 0.0
    for op in TENSOR_OP_NAMES:
        calls, fwd, bwd = tracer.ops.get(op, (0, 0.0, 0.0))
        m[f"tensor.{op}.calls"] = calls / n_ops
        m[f"tensor.{op}.fwd_ms"] = fwd * per_op
        m[f"tensor.{op}.bwd_ms"] = bwd * per_op
    backward_s = sum(s[2] - s[1] for s in tracer.spans if s[0] == "training.backward")
    closures_s = sum(v[2] for v in tracer.ops.values())
    m["tensor.backward_ms"] = (backward_s - closures_s) * per_op
    for span in FWD_BWD_SPANS:
        m[f"{span}.fwd_ms"] = self_s.get(span, 0.0) * per_op
        m[f"{span}.bwd_ms"] = tracer.layer_bwd.get(span, 0.0) * per_op
    del m["encoder.instance_norm.bwd_ms"]
    calls = tracer.calls()
    m["mixers.same_channel_mask.calls"] = calls.get("mixers.same_channel_mask", 0) / n_ops
    m["mixers.same_channel_mask.ms"] = self_s.get("mixers.same_channel_mask", 0.0) * per_op

    def per_call_ms(name):
        durations = [s[2] - s[1] for t in (setup_tracer, tracer) for s in t.spans if s[0] == name]
        return statistics.fmean(durations) * 1e3 if durations else 0.0

    m["encoder.save_checkpoint_ms"] = per_call_ms("encoder.save_checkpoint")
    m["encoder.load_checkpoint_ms"] = per_call_ms("encoder.load_checkpoint")
    m["encoder.checkpoint_mb"] = state.get("checkpoint_mb", 0.0)
    m["data.generate_ms"] = per_call_ms("data.generate")
    m["data.load_csv_ms"] = per_call_ms("data.load_csv")
    m["data.make_windows_ms"] = per_call_ms("data.make_windows")
    sizes = setup_tracer.window_counts + tracer.window_counts
    m["data.windows"] = statistics.fmean(sizes) if sizes else 0.0

    phase_children = tracer.phase_children()
    in_steps = overlap(step_intervals, phase_children)
    step_s = sum(end - start for start, end in step_intervals)
    fwd = in_steps.get("encoder.head", 0.0) + in_steps.get("training.loss", 0.0)
    bwd = in_steps.get("training.backward", 0.0)
    adam = in_steps.get("training.adam", 0.0)
    n_intervals = len(step_intervals)
    m["training.forward_ms"] = fwd * 1e3 / n_intervals if n_intervals else 0.0
    m["training.backward_ms"] = bwd * 1e3 / n_intervals if n_intervals else 0.0
    m["training.adam_ms"] = adam * 1e3 / n_intervals if n_intervals else 0.0
    m["training.step_other_ms"] = ((step_s - fwd - bwd - adam) * 1e3 / n_intervals
                                   if n_intervals else 0.0)
    evaluate_s = sum(s[2] - s[1] for s in tracer.spans if s[0] == "training.evaluate")
    m["training.evaluate_ms"] = evaluate_s * 1e3 / n_batches if n_batches else 0.0
    m["training.steps"] = n_steps / len(traced)

    def p50(pairs):
        return statistics.median(primary_ops(wl, [(False, r, log) for r, log in pairs]))

    m["trace.overhead_frac"] = p50(traced) / p50(untraced) - 1
    op_intervals = step_intervals + batch_intervals
    covered = sum(overlap(op_intervals, phase_children).values())
    m["trace.coverage_frac"] = covered / sum(end - start for start, end in op_intervals)

    total_s = sum(r.seconds for r, _ in traced)
    spans = sorted(((name, calls[name], s) for name, s in self_s.items()), key=lambda x: -x[2])
    span_table = [(name, n, s * per_op, s / total_s) for name, n, s in spans]
    detail = {"n_ops": n_ops, "n_steps": n_steps, "step_intervals": n_intervals,
              "eval_batches": n_batches, "traced_units": len(traced),
              "untraced_units": len(untraced), "spans": span_table}
    return m, detail


def write_trace(args, tracer, setup_tracer):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"setup": setup_tracer.dump(), "timed": tracer.dump()}))


# -- output -------------------------------------------------------------------

def print_report(args, env, metrics, detail, counts, info):
    print(f"== {args.workload}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
    env = dict(env, units=info["units"], loop_s=round(info["loop_s"], 3),
               setup_repeats=len(info["setup_times"]))
    if args.trace:
        env["samples"] = {k: detail[k] for k in ("n_ops", "n_steps", "step_intervals",
                                                 "eval_batches", "traced_units",
                                                 "untraced_units")}
        env["missing_hooks"] = info["missing_hooks"]
    else:
        notes = dict(detail["detail"], **{k: note for k, (_, _, note) in detail["extra"].items()})
        env["samples"] = {k: note for k, note in notes.items() if "n=" in note}
    print("env " + json.dumps(env))
    attempted = max(counts["attempted"], 1)
    print(f"{'metric':<34}{'value':>16}  {'unit':<11}note")
    if args.trace:
        for name, unit in PER_LAYER.items():
            print(f"{name:<34}{metrics[name]:>16.6g}  {unit:<11}")
        print(f"{'span (self time)':<34}{'calls':>8}{'ms/op':>12}{'share':>9}")
        for name, calls, ms, share in detail["spans"]:
            print(f"  {name:<32}{calls:>8}{ms:>12.4f}{share:>9.1%}")
    else:
        for name, unit in END_TO_END.items():
            print(f"{name:<34}{metrics[name]:>16.6g}  {unit:<11}{detail['detail'][name]}")
        for name, (value, unit, note) in detail["extra"].items():
            print(f"  {name:<32}{value:>16.6g}  {unit:<11}{note}")
    print(f"  {'failed_frac':<32}{counts['failed'] / attempted:>16.6g}  {'frac':<11}"
          f"{counts['failed']} of {counts['attempted']} operations")


def main_one(args) -> int:
    sys.dont_write_bytecode = True
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    counts = {"attempted": 0, "failed": 0}
    try:
        metrics, detail, info = run_workload(args, workdir, counts)
    except Exception as err:
        traceback.print_exc()
        print(f"FAILED {args.workload}: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(counts["attempted"], 1),
                          "failed": max(counts["failed"], 1), "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    print_report(args, environment(args), metrics, detail, counts, info)
    print(json.dumps({"correct": counts["failed"] == 0, "attempted": counts["attempted"],
                      "failed": counts["failed"],
                      "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}))
    return 0 if counts["failed"] == 0 else 1


def main_all(args) -> int:
    """Run every workload in its own process and summarise their result lines."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
        status = status or proc.returncode
    units = PER_LAYER if args.trace else END_TO_END
    print(f"== summary  seed={args.seed}  trace={args.trace}")
    print(f"{'metric':<34}" + "".join(f"{n:>16}" for n in WORKLOAD_NAMES) + "  unit")
    for metric, unit in units.items():
        cells = "".join(f"{results[n]['metrics'].get(metric, {}).get('value', float('nan')):>16.6g}"
                        for n in WORKLOAD_NAMES)
        print(f"{metric:<34}{cells}  {unit}")
    print(json.dumps({"correct": all(r["correct"] for r in results.values()) and status == 0,
                      "attempted": sum(r.get("attempted", 0) for r in results.values()),
                      "failed": sum(r.get("failed", 0) for r in results.values()),
                      "metrics": {f"{n}/{k}": v for n, r in results.items()
                                  for k, v in r["metrics"].items()}}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "icmixer" / "__init__.py").is_file():
        print(f"perfbench: icmixer sources not found under {SRC}", file=sys.stderr)
        return 2
    return main_all(args) if args.workload == "all" else main_one(args)


if __name__ == "__main__":
    sys.exit(main())
