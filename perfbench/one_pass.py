"""One pass of a workload in a fresh interpreter, with no warm-up.

    python3 perfbench/one_pass.py WORKLOAD SEED TRACED TINY WORK_DIR

Imports ccrlab from the checkout's ``src``, builds the workload's inputs,
then runs its operations one after another, gating each and going on when
one fails.  Prints one JSON line: the perf_counter time of the first timed
operation (so the caller can measure set-up from process start), wall time,
peak RSS, the gate counts, a digest of the outputs, Monte Carlo latencies
and, when TRACED is 1, the per-layer statistics.  Spans of a traced pass go
to WORK_DIR/spans.npz.
"""

from __future__ import annotations

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)


def main() -> int:
    workload, seed, traced, tiny, work_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4] == "1", sys.argv[5]

    import hashlib
    import json
    import resource

    import ccrlab

    if os.path.dirname(os.path.abspath(ccrlab.__file__)) != os.path.join(SRC, "ccrlab"):
        print(f"ccrlab imported from {ccrlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import workloads

    ops = workloads.WORKLOADS[workload](seed, tiny, work_dir)
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer().install()

    attempted = failed = 0
    failures, records, extra = [], [], {}
    latencies: dict[str, list[float]] = {}
    samples: dict[str, int] = {}
    first = time.perf_counter()
    for op in ops:
        attempted += op.n_checks
        try:
            start = time.perf_counter()
            out = op.call()
            latency = time.perf_counter() - start
            bad = op.check(out)
            records.append([op.name, op.digest(out)])
            if op.extra is not None:
                extra.update(op.extra(out))
        except Exception as err:  # a failing operation is counted and the pass goes on
            failed += op.n_checks
            failures.append(f"{op.name}: {type(err).__name__}: {err}")
            records.append([op.name, None])
            continue
        failed += len(bad)
        failures += [f"{op.name}: {name}" for name in bad]
        if op.group:
            latencies.setdefault(op.group, []).append(latency)
            samples[op.group] = samples.get(op.group, 0) + op.samples
    wall = time.perf_counter() - first

    result = {
        "first": first,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digest": hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()[:16],
        "latencies": latencies,
        "samples": samples,
        "extra": extra,
        "traced": traced,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.dump(os.path.join(work_dir, "spans.npz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
