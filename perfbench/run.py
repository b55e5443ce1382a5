"""vpfuse benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke        # every workload, a few steps, all checks

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A fuller record
(environment, checks, errors, layer shares) goes to ``perfbench/out/``, and a
traced run also writes its spans there.  See perfbench/README.md.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the matrices are small enough that a second thread only
# adds contention, and a fixed thread count keeps the float64 results
# bitwise reproducible.  Must be set before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracer as tr  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 3      # set-up is timed this often; setup_s takes the medians
MIN_OPS = 100          # batch_ms_p90 needs at least 10 operations beyond it
LOOP_LIMIT_S = 120.0   # stop a run whose operations keep failing instantly


def environment() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu,
        "git_rev": git_rev(),
    }


def git_rev() -> str:
    """HEAD's commit id read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def startup() -> None:
    """A fresh interpreter starts and imports vpfuse.  (No timeout: waiting
    with one polls, which rounds the time up to 50 ms steps.)"""
    subprocess.run([sys.executable, "-c", "import vpfuse.ablations, vpfuse.checkpoint"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)


def timed_scaled(fn) -> tuple[float, float]:
    """Seconds ``fn`` took, raw and scaled by the reference kernel timed
    right after it."""
    t0 = time.perf_counter()
    fn()
    raw = time.perf_counter() - t0
    return raw, raw * speed.factor([speed.kernel_ms() for _ in range(speed.WINDOW)])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_loop(workload, run, seconds, min_ops, min_reps, tracer):
    """Run whole reps until the time, operation and rep minimums are all met.

    Unless the run collects after every operation, each rep starts with a
    full collection outside the timing.  The program's allocations are
    deterministic, so its automatic collections then fall at the same steps
    in every rep of a stream, and the peak memory does not depend on how
    many reps ran before.  The process's peak memory is read after the
    first rep, which runs the reference stream: up to then the run does the
    same work whatever the seed.
    """
    t0 = time.perf_counter()
    reps = 0
    while True:
        elapsed = time.perf_counter() - t0
        done = elapsed >= seconds and len(run.op_ms) >= min_ops and reps >= min_reps
        if done or elapsed > LOOP_LIMIT_S:
            return elapsed
        if not run.collect_each_op:
            with run.harness():
                gc.collect()
        workload.rep(reps, run, tracer)
        if reps == 0:
            run.reference_peak_mb = peak_rss_mb()
        reps += 1


def throughput(samples, wall, op_ms, kernel_ms, harness_s):
    """Samples per second of the loop's own work, scaled to the reference
    machine speed: each operation by the kernel readings around it, and the
    rest of the loop (checkpoint hand-overs, evaluate's bookkeeping) by the
    loop's median reading.  The benchmark's own work in the loop (checks,
    digests, the reference kernel, forced collections) is left out."""
    if not op_ms:
        return 0.0
    other_s = wall - sum(op_ms) / 1e3 - harness_s
    busy_s = sum(speed.scaled(op_ms, kernel_ms)) / 1e3 + other_s * speed.factor(kernel_ms)
    return samples / busy_s


def percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def measure(args) -> dict:
    if not (SRC / "vpfuse" / "__init__.py").is_file():
        raise SystemExit(f"error: no vpfuse sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vpfuse
    if Path(vpfuse.__file__).resolve().parent != SRC / "vpfuse":
        raise SystemExit(f"error: imported vpfuse from {vpfuse.__file__}, not {SRC}")
    import workloads as wl

    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = wl.make_workload(args.workload, args.seed, scratch, args.smoke)
        repeats = 1 if args.smoke else SETUP_REPEATS
        startups = [timed_scaled(startup) for _ in range(repeats)]
        setups = [timed_scaled(workload.setup) for _ in range(repeats)]
        if args.trace:
            # Set-up objects never become garbage; freezing them keeps the
            # per-operation collections short.
            gc.collect()
            gc.freeze()

        run = wl.Run(collect_each_op=bool(args.trace))
        min_ops = 0 if args.smoke else MIN_OPS
        result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "smoke": args.smoke, "seconds": args.seconds, "env": environment()}
        if args.trace:
            # Half the time untraced, half traced, over the same reps: the
            # difference in throughput is the tracing overhead.
            half = args.seconds / 2
            wall = timed_loop(workload, run, half, 0, 1, tr.NullTracer())
            untraced_sps = throughput(run.samples, wall, run.op_ms, run.kernel_ms,
                                      run.harness_s)
            samples, ops, harness_s = run.samples, len(run.op_ms), run.harness_s
            tracer = tr.Tracer()
            with tr.instrument(tracer):
                workload.setup(tracer)
                wall = timed_loop(workload, run, half, 0, 1, tracer)
            traced_sps = throughput(run.samples - samples, wall, run.op_ms[ops:],
                                    run.kernel_ms[ops:], run.harness_s - harness_s)
            workload.finish(run)
            metrics, shares = tr.summarize(tracer)
            metrics["trace.overhead_pct"] = (100.0 * (untraced_sps / traced_sps - 1.0)
                                             if traced_sps else 0.0)
            result["shares"] = shares
            result["untraced_samples_per_s"] = untraced_sps
            result["traced_samples_per_s"] = traced_sps
            spans_path = OUT / f"{args.workload}-s{args.seed}-spans.json"
            spans_path.write_text(json.dumps({"op_kinds": tracer.op_kinds,
                                              "spans": tracer.spans}))
        else:
            wall = timed_loop(workload, run, args.seconds, min_ops, workload.min_reps,
                              tr.NullTracer())
            loss = workload.finish(run)
            op_ms = speed.scaled(run.op_ms, run.kernel_ms)
            raw_setup_s, setup_s = (
                statistics.median(t[k] for t in startups) + statistics.median(t[k] for t in setups)
                for k in (0, 1))
            metrics = {
                "setup_s": setup_s,
                "samples_per_s": throughput(run.samples, wall, run.op_ms, run.kernel_ms,
                                            run.harness_s),
                "batch_ms_p50": percentile(op_ms, 50),
                "batch_ms_p90": percentile(op_ms, 90),
                "loss": loss,
                "peak_rss_mb": run.reference_peak_mb,
            }
            result["timed_ops"] = len(run.op_ms)
            result["raw"] = {
                "setup_s": raw_setup_s, "startup_runs_s": startups,
                "setup_runs_s": setups,
                "loop_s": wall, "harness_s": run.harness_s, "run_peak_rss_mb": peak_rss_mb(),
                "samples_per_s": run.samples / (wall - run.harness_s),
                "batch_ms_p50": percentile(run.op_ms, 50),
                "batch_ms_p90": percentile(run.op_ms, 90),
                "kernel_ms_median": statistics.median(run.kernel_ms or [0.0]),
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result.update(checks=run.checks, errors=run.errors[:20])
    result["summary"] = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in args.units.items()},
    }
    return result


def smoke(workloads) -> int:
    """Every workload in its own process at a few steps, with all checks,
    plus a comparison of the benchmark's train loop with ``training.train``."""
    ok = True
    for name in workloads:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name,
                 "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            summary = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            passed = bool(summary and summary["correct"])
            ok &= passed
            print(f"{name} trace={trace}: {'PASS' if passed else 'FAIL'}"
                  + ("" if passed else f"\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"))
    ok &= loop_matches_train()
    print("smoke:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def loop_matches_train() -> bool:
    """The benchmark's step loop must reproduce ``training.train`` bitwise."""
    sys.path.insert(0, str(SRC))
    import workloads as wl
    from vpfuse import FusionModel, default_config, tasks
    from vpfuse.training import TrainConfig, train
    cfg = default_config().replace(train__seed=3)
    model = FusionModel(cfg, 3)
    expected = train(model, tasks.batch_stream(cfg, "pretrain", 3),
                     TrainConfig(stage="pretrain", steps=4, batch_size=cfg["train.batch"],
                                 lr=cfg["train.lr"], seed=3))
    got: list[float] = []
    wl.train_stage(FusionModel(cfg, 3), cfg, "pretrain", 4, wl.NullTracer(), wl.Run(), got, None)
    same = got == [loss for _, loss in expected.loss_curve]
    print(f"step loop matches training.train: {'PASS' if same else 'FAIL'}")
    return same


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few steps per workload; without --workload, run them all")
    args = parser.parse_args(argv)
    if args.smoke and args.workload is None:
        return smoke([w["name"] for w in spec["workloads"]])
    if args.workload is None:
        parser.error("--workload is required")
    args.units = {m["name"]: m["unit"]
                  for m in spec["per_layer" if args.trace else "end_to_end"]}

    result = measure(args)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1))
    summary = result["summary"]
    print("env " + json.dumps(result["env"]))
    for name, m in summary["metrics"].items():
        print(f"{name:32s} {m['value']:14.4f} {m['unit']}")
    for error in result["errors"]:
        print("error:", error)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
