"""ccrlab benchmark: four seeded workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload {suite,exact,mc,nelson} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; ccrlab is imported from its ``src``.  A run
is a closed loop with one client: it starts one fresh interpreter after
another (perfbench/one_pass.py), each doing one pass of the workload with no
warm-up, until S seconds have passed.  Users pay the cold cost on every
``ccrlab`` call, and no cache may carry hits over from an earlier pass.  BLAS
keeps its default thread count.  Every pass of a run uses the same inputs.

``--trace 0`` prints the end-to-end metrics, medians over the passes.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics: span statistics from the traced passes, Monte Carlo latencies and
criterion times from the untraced ones, and the tracing overhead between
them.  Metric names and units are those of BENCHMARK.json.

Each operation has its own gate; a failed gate or an exception is counted
and the run goes on.  The digests of all passes must agree (the same seed
gives bit-identical outputs, traced or not); that is one more check.  The
line before the result holds the environment stamp, the digest and the
failures, and perfbench/results/<workload>-seed<N>-trace<T>/ keeps the full
report and, for traced runs, the spans.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("suite", "exact", "mc", "nelson")
DEFAULT_SEED = 987654321
RUN_LIMIT_S = 170.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def run_pass(args, traced: bool, work_dir: str, timeout: float) -> dict:
    command = [sys.executable, os.path.join(HERE, "one_pass.py"), args.workload, str(args.seed)]
    command += ["1" if traced else "0", "1" if args.tiny else "0", work_dir]
    spawned = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["first"] - spawned
    return result


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment_stamp(seed: int) -> dict:
    import numpy as np

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_var = next((v for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if os.environ.get(v)), None)
    nproc = len(os.sched_getaffinity(0))
    sources = hashlib.sha256()
    package = os.path.join(SRC, "ccrlab")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                sources.update(name.encode() + b"\0" + handle.read())
    return {
        "nproc": nproc,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": int(os.environ[thread_var]) if thread_var else nproc,
        "blas_threads_from": thread_var or "default (one per CPU)",
        "git_commit": _git_commit(),
        "source_sha256": sources.hexdigest(),
        "seed": seed,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)] if ordered else 0.0


def end_to_end(passes, attempted, failed) -> dict:
    return {
        "setup_s": _median([p["setup_s"] for p in passes]),
        "wall_s": _median([p["wall_s"] for p in passes]),
        "pass_rate": (attempted - failed) / attempted,
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in passes]),
    }


def per_layer(untraced, traced) -> dict:
    out = {}
    for name in set().union(*(p["layers"] for p in traced)):
        out[name] = _median([p["layers"].get(name, 0.0) for p in traced])
    for name in set().union(*(p["extra"] for p in untraced)):
        out[name] = _median([p["extra"][name] for p in untraced])
    bulk_samples = sum(p["samples"].get("bulk", 0) for p in untraced)
    bulk_seconds = sum(sum(p["latencies"].get("bulk", [])) for p in untraced)
    burst = [x for p in untraced for x in p["latencies"].get("burst", [])]
    out["mc_samples_per_s"] = bulk_samples / bulk_seconds if bulk_seconds else 0.0
    out["mc_call_p50_ms"] = 1e3 * _percentile(burst, 0.50)
    out["mc_call_p95_ms"] = 1e3 * _percentile(burst, 0.95)
    out["trace_overhead_s"] = _median([p["wall_s"] for p in traced]) - _median([p["wall_s"] for p in untraced])
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ccrlab", "__init__.py")):
        print(f"no ccrlab sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if not all(compileall.compile_dir(d, quiet=1) for d in (os.path.join(SRC, "ccrlab"), HERE)):
        print("the sources do not compile", file=sys.stderr)
        return 2
    work_dir = os.path.join(HERE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(work_dir, exist_ok=True)

    started = time.perf_counter()
    passes = []
    while True:
        pass_started = time.perf_counter()
        traced = bool(args.trace) and len(passes) % 2 == 1
        try:
            passes.append(run_pass(args, traced, work_dir, RUN_LIMIT_S - (pass_started - started)))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
            print(f"{args.workload} pass {len(passes)} failed to run: {err}", file=sys.stderr)
            return 1
        elapsed, last = time.perf_counter() - started, time.perf_counter() - pass_started
        enough = elapsed >= args.seconds and (not args.trace or len(passes) >= 2)
        if enough or elapsed + last > RUN_LIMIT_S:
            break

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = sorted({f for p in passes for f in p["failures"]})
    digests = sorted({p["digest"] for p in passes})
    if len(passes) > 1:
        attempted += 1
        if len(digests) > 1:
            failed += 1
            failures.append("outputs differ between passes of the same seed")

    values = end_to_end(untraced, attempted, failed) if not args.trace else per_layer(untraced, traced)
    declared = spec["end_to_end" if not args.trace else "per_layer"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "seconds": args.seconds,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "digest": digests[0] if len(digests) == 1 else digests,
        "failures": failures,
        "stamp": environment_stamp(args.seed),
        "metrics": metrics,
        "pass_values": {k: [p[k] for p in passes] for k in ("setup_s", "wall_s", "peak_rss_mb", "traced")},
    }
    with open(os.path.join(work_dir, "report.json"), "w") as handle:
        json.dump(report, handle, indent=2)
    print(json.dumps({k: v for k, v in report.items() if k != "metrics"}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
