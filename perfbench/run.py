"""survcare benchmark: one workload per process, a closed loop with one caller.

    python3 perfbench/run.py --workload care_n800 --seed 1 --seconds 35 --trace 0

Set-up imports survcare from ``src/`` of this checkout, generates the
workload's inputs from the seed and runs one warm-up op at tiny size.  It is
repeated in SETUP_REPEATS - 1 fresh interpreters (``--setup-only``), spread
between the ops of the timed phase, and the median of all SETUP_REPEATS
counts.  Ops run back to back until their summed time reaches --seconds and
at least the workload's window of ``min_ops`` ops has run.  Every op's output
is checked.

The last line on stdout is one JSON object with the keys "correct",
"attempted", "failed" and "metrics": every end-to-end metric with --trace 0,
every per-layer metric of a traced run with --trace 1.  The line before it
holds the provenance.  A readable table goes to stderr, and the run record
(plus the spans of a traced run) to perfbench/out/.

    python3 perfbench/run.py --write-spec   # regenerate BENCHMARK.json
    python3 perfbench/run.py --smoke ...    # the same code paths at n=30

Exit codes: 0 after a run (failed ops are counted, not fatal), 2 when
survcare cannot be imported from this checkout or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
RUN_SECONDS = 35
SETUP_REPEATS = 7
COMMAND = ["python3", "perfbench/run.py"]


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


# Quality numbers (converged_frac, l2_error, valid_loss_gain) and the per-layer
# counts average the window of the first min_ops ops, so they depend only on
# the seed and the code, not on how many ops fit in the run.
END_TO_END = (
    # median over SETUP_REPEATS of imports, input generation and a warm-up op
    EndToEnd("setup_s", "s", "lower", 0.25),
    # median wall time of one op over every op of the run
    EndToEnd("op_s", "s", "lower", 0.25),
    # ops that neither raised nor failed a check, over ops attempted
    EndToEnd("ok_frac", "share", "higher", 0.05),
    # converged gamma-level fits over gamma-level fits in the window
    EndToEnd("converged_frac", "share", "higher", 0.1),
    # mean Monte-Carlo L2 error of the selected estimator against f0
    EndToEnd("l2_error", "rmse", "lower", 0.25),
    # mean validation NLPL of the zero predictor minus that at the selected
    # (gamma, theta); survcare's NLPL itself is negative, this gain is positive
    EndToEnd("valid_loss_gain", "nlpl", "higher", 0.25),
    # the process's peak resident set size
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1),
)


def _time(key):
    return lambda every, window: statistics.fmean(r[key] for r in every)


def _count(key):
    return lambda every, window: statistics.fmean(r[key] for r in window)


def _ratio(num, den):
    def ratio(every, window):
        total = sum(r[den] for r in window)
        return sum(r[num] for r in window) / total if total else 0.0
    return ratio


def _outside_care(every, window):
    return statistics.fmean(r["bench.op_s"] - r["model_selection.care_s"] for r in every)


def _coverage(every, window):
    return 1.0 - sum(r["bench.op_self_s"] for r in every) / sum(r["bench.op_s"] for r in every)


# Per-layer metrics of a traced run, per op.  Times average every op, counts
# the window.  "<span>_s" is inclusive time, "_self_s" excludes child spans.
PER_LAYER = (
    ("partial_likelihood.context_self_s", "s", _time("partial_likelihood.context_self_s")),
    ("partial_likelihood.basis_s", "s", _time("partial_likelihood.basis_s")),
    ("partial_likelihood.basis_size", "count", _count("partial_likelihood.basis_size")),
    ("kernels.gram_s", "s", _time("kernels.gram_s")),
    ("kernels.cross_s", "s", _time("kernels.cross_s")),
    ("kernels.cross_calls", "count", _count("kernels.cross_calls")),
    ("optimizer.bfgs_self_s", "s", _time("optimizer.bfgs_self_s")),
    ("optimizer.runs", "count", _count("optimizer.bfgs_calls")),
    ("optimizer.iterations", "count", _count("optimizer.iterations")),
    # BFGS runs that ended unconverged: the stall tail that op_s's median hides
    ("optimizer.unconverged_runs", "count", _count("optimizer.unconverged_runs")),
    ("optimizer.evals_per_iteration", "ratio",
     _ratio("partial_likelihood.objective_calls", "optimizer.iterations")),
    ("estimators.fit_s", "s", _time("estimators.fit_s")),
    ("estimators.fits", "count", _count("estimators.fit_calls")),
    ("estimators.bfgs_runs_per_fit", "ratio", _ratio("optimizer.bfgs_calls", "estimators.fit_calls")),
    ("estimators.predict_s", "s", _time("estimators.predict_s")),
    ("partial_likelihood.objective_self_s", "s", _time("partial_likelihood.objective_self_s")),
    ("partial_likelihood.gradient_self_s", "s", _time("partial_likelihood.gradient_self_s")),
    ("partial_likelihood.loss_calls", "count", _count("partial_likelihood.loss_calls")),
    ("partial_likelihood.loss_s", "s", _time("partial_likelihood.loss_s")),
    ("partial_likelihood.grad_weight_calls", "count", _count("partial_likelihood.grad_weight_calls")),
    ("partial_likelihood.grad_weight_s", "s", _time("partial_likelihood.grad_weight_s")),
    ("model_selection.care_self_s", "s", _time("model_selection.care_self_s")),
    ("model_selection.valid_loss_calls", "count", _count("model_selection.valid_loss_calls")),
    ("model_selection.valid_loss_s", "s", _time("model_selection.valid_loss_s")),
    ("evaluation.l2_calls", "count", _count("evaluation.l2_calls")),
    # op time outside the CARE fit: simulation, splitting, Monte-Carlo L2 and
    # CSV output in a study op, only call glue in a CARE op.  One aggregate,
    # because per-layer times of those layers would read 0 on CARE workloads.
    ("bench.outside_care_s", "s", _outside_care),
    # median traced op wall time; over the untraced op_s it is the tracing overhead
    ("trace.op_s", "s", lambda every, window: statistics.median(r["bench.op_s"] for r in every)),
    ("trace.self_coverage", "share", _coverage),
)


def spec(workloads) -> dict:
    return {
        "command": COMMAND,
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        # less time and fewer calls are better; a larger share of op time
        # covered by layer spans means the trace explains more of the op
        "per_layer": [
            {"name": name, "unit": unit,
             "better": "higher" if name == "trace.self_coverage" else "lower"}
            for name, unit, _ in PER_LAYER
        ],
    }


def _import_survcare():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import survcare

    if not Path(survcare.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"survcare resolved to {survcare.__file__}, not this checkout")
    import tracing
    import workloads

    return workloads, tracing


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30, check=True)
        top, commit = proc.stdout.split()
    except (OSError, subprocess.SubprocessError, ValueError):
        return "unknown"
    # a checkout without .git inside some other repository is not that commit
    return commit if Path(top).resolve() == ROOT else "unknown"


def _blas() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = int(getattr(handle, symbol)())
                break
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS") if k in os.environ}
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads, "thread_env": env}


def provenance(args, pool) -> dict:
    import numpy as np

    return {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "workload": args.workload,
        "seed": args.seed,
        "op_seeds": [inp.seed for inp in pool],
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def _setup_in_child(args) -> float:
    """Time one more set-up in a fresh interpreter, which imports survcare again."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def measure(wl, pool, seconds: float, call, op_record, after_op=lambda elapsed: None):
    """Run ops back to back; returns (op times, OpRecords).

    ``after_op`` gets the summed op time after each op's check, outside the timing.
    """
    times, records = [], []
    while len(times) < wl.min_ops or sum(times) < seconds:
        inp = pool[len(times) % len(pool)].fresh()
        error = None
        t = perf_counter()
        try:
            outcome = call(wl.op, inp)
        except Exception:  # a raising op is a failed op, not a crashed run
            error = f"op raised {traceback.format_exc()}"
        times.append(perf_counter() - t)
        if error is None:
            try:
                records.append(wl.check(inp, outcome))
            except Exception:  # so is an output the checks cannot read
                records.append(op_record(failures=[f"check raised {traceback.format_exc()}"]))
        else:
            records.append(op_record(failures=[error]))
        after_op(sum(times))
    return times, records


def _finite_mean(values) -> float:
    kept = [v for v in values if v == v]
    return statistics.fmean(kept) if kept else 0.0


def end_to_end(setup_s, times, records, window) -> dict:
    levels = sum(r.levels for r in window)
    return {
        "setup_s": setup_s,
        "op_s": statistics.median(times),
        "ok_frac": sum(not r.failures for r in records) / len(records),
        "converged_frac": sum(r.converged_levels for r in window) / levels if levels else 0.0,
        "l2_error": _finite_mean(r.l2_error for r in window),
        "valid_loss_gain": _finite_mean(r.valid_loss_gain for r in window),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same code paths")
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time and exit; run.py times set-up this way")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from the tables in this file")
    args = parser.parse_args(argv)

    t0 = perf_counter()
    try:
        workloads, tracing = _import_survcare()
    except ImportError as exc:
        print(f"error: cannot import survcare from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    if args.write_spec:
        with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as fh:
            json.dump(spec(workloads.WORKLOADS), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    wl = workloads.WORKLOADS[args.workload]
    if args.smoke:
        wl = wl.smoke()
    warm = wl.smoke()
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        pool = wl.inputs(args.seed, wl.min_ops, workdir)
        warm.op(warm.inputs(args.seed, 1, workdir)[0])
        setup_times = [perf_counter() - t0]
        if args.setup_only:
            print(repr(setup_times[0]))
            return 0

        def setup_again(elapsed):
            # The other set-ups run between ops, spread over the timed phase:
            # the host's speed drifts over seconds, and their median then
            # samples the whole run rather than one moment of it.
            due = args.seconds * (len(setup_times) - 1) / (SETUP_REPEATS - 1)
            if len(setup_times) < SETUP_REPEATS and elapsed >= due:
                setup_times.append(_setup_in_child(args))

        tracer = tracing.Tracer() if args.trace else None
        with wl.capturing():
            if tracer is None:
                times, records = measure(wl, pool, args.seconds, lambda fn, inp: fn(inp),
                                         workloads.OpRecord, setup_again)
            else:
                with tracer.installed(tracing.layer_targets(workloads.survcare)):
                    times, records = measure(wl, pool, args.seconds, tracer.run_op,
                                             workloads.OpRecord, setup_again)
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(_setup_in_child(args))
        setup_s = statistics.median(setup_times)

    window = records[:wl.min_ops]
    failed = sum(bool(r.failures) for r in records)
    if tracer is None:
        values = end_to_end(setup_s, times, records, window)
        units = {m.name: m.unit for m in END_TO_END}
    else:
        rows = tracer.per_op()
        values = {name: float(fn(rows, rows[:wl.min_ops])) for name, _, fn in PER_LAYER}
        units = {name: unit for name, unit, _ in PER_LAYER}

    prov = provenance(args, pool)
    tag = f"{wl.name}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.save(OUT / f"{tag}-spans.npz")
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "metrics": values, "op_s": times, "setup_s": setup_times,
                   "ops": [vars(r) for r in records]}, fh, indent=1)
        fh.write("\n")

    print(f"{wl.name}: {len(times)} ops in {sum(times):.2f}s "
          f"({len(times) / sum(times):.4f} ops/s, slowest {max(times):.3f}s), "
          f"{failed} failed", file=sys.stderr)
    for r in records:
        for failure in r.failures:
            print(f"  failed: {failure}", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
