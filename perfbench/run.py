"""fundsol benchmark: one workload as a closed loop from a single client thread.

    python3 perfbench/run.py --workload scatter-eval --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; fundsol is imported from ``src/``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics of a run
whose odd ops are traced (see tracer.py) and whose even ops are not, which
gives the tracing overhead.  The line before it records the environment,
sample counts and any traced name the package no longer has.  Scratch files
go to ``.perfbench/`` in the checkout and are removed, except the spans of a
traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRATCH = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_threads() -> int:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def environment(nproc: int, seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
    }


def measure(wl, seconds: float, tracer=None) -> dict:
    """Closed loop of timed ops for `seconds`, each checked outside its timing."""
    plain, traced = [], []
    attempted = failed = 0
    peaks: dict[str, list[float]] = {}  # table -> [max deviation, max oracle magnitude]
    start = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - start < seconds:
        inp = wl.inputs(i)
        trace_this = tracer is not None and i % 2 == 1
        if trace_this:
            tracer.install()
        t0 = time.perf_counter()
        try:
            if trace_this:
                with tracer.span("op"):
                    out = wl.op(inp)
            else:
                out = wl.op(inp)
        except Exception:  # a failed op is counted, not fatal
            out = None
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
        if trace_this:
            tracer.uninstall()
        (traced if trace_this else plain).append(elapsed)
        passed, devs = False, {}
        if out is not None:
            try:
                passed, devs = wl.check(i, inp, out)
            except Exception:  # an output the check cannot read is a failure
                traceback.print_exc()
        attempted += 1
        failed += not passed
        for key, (diff, size) in devs.items():
            peak = peaks.setdefault(key, [0.0, 0.0])
            peak[0], peak[1] = max(peak[0], diff), max(peak[1], size)
        i += 1
    worst = max((d / s for d, s in peaks.values() if s > 0), default=1.0)
    return {"plain": plain, "traced": traced, "attempted": attempted, "failed": failed,
            "worst": worst}


def end_to_end(wl, run: dict, setups: list[float]) -> dict[str, float]:
    """End-to-end metrics of the untraced ops.

    Latency is reported as its 90th percentile; the detail line also gives
    p10 and p50.  On shared 2-core machines, interference comes in
    regimes: for seconds at a time, every op runs up to 1.6 times slower, and
    most of the time some of it is present.  Over ten 30 s runs, p10 and the
    median moved with how much of a run was quiet (spread up to 0.2 and 0.3),
    while p90 (the latency under the usual interference) spread 0.03-0.11.
    """
    import numpy as np

    lat = np.asarray(run["plain"])
    p90 = float(np.percentile(lat, 90))
    return {
        "setup_s": statistics.median(setups),
        "op_ms_p90": p90 * 1e3,
        "items_per_s": wl.items / p90,
        "max_rel_err": run["worst"],
        "pass_frac": (run["attempted"] - run["failed"]) / run["attempted"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(wl, run: dict, tracer) -> dict[str, float]:
    import numpy as np
    from tracer import SPAN_NAMES

    n = len(run["traced"])
    selfs = tracer.self_seconds()
    counts = tracer.counts
    out = {f"{name}.self_s": selfs.get(name, 0.0) / n for name in SPAN_NAMES}
    out.update({key: value / n for key, value in counts.items()})
    derive = "expansion.derive_coefficients"
    steps = counts.get(f"{derive}.steps", 0.0)
    out[f"{derive}.ms_per_step"] = selfs.get(derive, 0.0) / steps * 1e3 if steps else 0.0
    out[f"{derive}.cold_ms"] = tracer.first_s.get(derive, 0.0) * 1e3
    points = counts.get("evaluator.evaluate_batch.points", 0.0)
    dirs = counts.get("evaluator.regular_part_at.dirs", 0.0)
    out["evaluator.unique_ratio"] = dirs / points if points else 0.0
    traced_p50 = float(np.median(run["traced"]))
    out["trace.op_ms_p50"] = traced_p50 * 1e3
    out["trace.overhead_frac"] = traced_p50 / float(np.median(run["plain"])) - 1.0
    layers = sum(v for name, v in selfs.items() if name != "op")
    out["trace.accounted_frac"] = layers / sum(run["traced"])
    out.update(wl.reference_metrics())
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    nproc = limit_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import fundsol
    except ImportError as exc:
        print(f"error: cannot import fundsol from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(fundsol.__file__).resolve().parent != ROOT / "src" / "fundsol":
        print(f"error: fundsol imported from {fundsol.__file__}, not the checkout", file=sys.stderr)
        return 2
    import numpy as np
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=SCRATCH, prefix="work-")
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        tracer = Tracer() if args.trace else None
        if tracer is None:
            setups = [wl.setup() for _ in range(wl.setup_repeats)]
            wl.warm_up()
        else:
            # set-up and warm-up are traced only for the first-call durations
            tracer.install()
            setups = [wl.setup()]
            wl.warm_up()
            tracer.uninstall()
            tracer.reset()
        run = measure(wl, args.seconds, tracer)
        values = per_layer(wl, run, tracer) if tracer else end_to_end(wl, run, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        spans = SCRATCH / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}),
                         encoding="utf-8")
    detail = {
        "env": environment(nproc, args.seed),
        "workload": args.workload,
        "trace": args.trace,
        "op_samples": len(run["plain"]),
        "op_ms_p10_p50_p90": np.round(np.percentile(run["plain"], [10, 50, 90]) * 1e3, 3).tolist(),
        "traced_samples": len(run["traced"]),
        "setup_samples_s": setups,
        "op_ms": [round(t * 1e3, 3) for t in run["plain"]],
        "absent_spans": sorted(tracer.absent) if tracer else [],
    }
    print(json.dumps(detail))
    metrics = {}
    for m in declared:
        # a per-layer metric of a layer this workload never reaches reads 0
        value = values.get(m["name"], 0.0) if args.trace else values[m["name"]]
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
