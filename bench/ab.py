"""Paired timing of one benchmark workload: a base revision against the working tree.

    python3 bench/ab.py --workload nelson [--base HEAD] [--pairs 10] [--seed N]

Run from anywhere inside a checkout.  The base revision is exported with
``git archive`` into a temporary directory; the working tree is used as it
stands, uncommitted edits included.  Each pair runs
``perfbench/run.py --workload W --seconds 0`` (one untraced pass in a fresh
interpreter, at the workload seed ``--seed``, perfbench's default unless given)
once on each side, the base first in even pairs and the working tree first in
odd ones, so a drift in machine speed falls on both sides alike.  A claim made
at the default seed can be checked again at a seed not used while writing the
change.

Per run it records the pass's ``wall_s``, ``setup_s``, ``peak_rss_mb``, digest
and ``source_sha256`` (the hash of the ccrlab sources that run imported, from
run.py's own stamp), and the CPU seconds of the child processes (``getrusage``
of the waited-for children, before and after; the summary prints each side's
median, where a BLAS thread that spins after its call shows).  One JSON record holds every
run, each side's median and quartiles and source hashes, the median ratio of
paired ``wall_s`` (working tree over base)
with a 95% bootstrap interval (pairs resampled with a fixed seed, so the
interval is reproducible from the runs in the file), the ``wall_s`` wins of
the working tree, both digests, each side's run-time BLAS kernel (the core numpy's bundled
OpenBLAS picked, such as ``SkylakeX``, or null without one: perfbench's stamp
holds only the build string, and equal digests hold for one kernel), the host
part of perfbench's environment stamp, and
whether a gain may be claimed.  Each of ``wall_s``, ``setup_s`` and
``peak_rss_mb`` gets its own verdict: wins in at least nine tenths of the pairs
and a median gap larger than the base's interquartile range.  A gain may be
claimed when it holds on at least one of them (the record and the summary
name which), every working-tree run passes all its gates and fails no more
operations than the base runs (the ``attempted`` and ``failed`` counts of
perfbench's result line are kept per run), each side has one source hash
(runs of a side that imported different sources, as after an edit in
mid-run, time no single revision), and every bounded metric lies within its
bound (below); the file and the printed summary say why a gain is refused,
naming each rule it misses.  For ``wall_s``,
``setup_s`` and ``peak_rss_mb`` it records, and prints, the ratio of the
medians (working tree over base) and whether it lies within the bound that
``BENCHMARK.json`` fixes for that metric, which the script only reads.  Every
record, a gain's or a neutrality check's, goes to
``perfbench/results/ab-<workload>.json``, gitignored run output, so no run
overwrites a committed ``BENCH_<workload>.json``; to claim a gain, copy the
record there.  The summary prints the path.  The script changes no machine
setting and writes nothing but that record and perfbench's own gitignored
results.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.run import DEFAULT_SEED, WORKLOADS, environment_stamp  # noqa: E402

METRICS = ("wall_s", "setup_s", "peak_rss_mb", "cpu_s")
BOUNDED_METRICS = ("wall_s", "setup_s", "peak_rss_mb")
RUN_TIMEOUT_S = 600.0
BOOTSTRAP_RESAMPLES = 10_000
BOOTSTRAP_SEED = 20131104
BLAS_CORE_PROBE = """
import ctypes, glob, os, numpy
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*"))
corename = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_", None) if libs else None
if corename is not None:
    corename.restype = ctypes.c_char_p
    print(corename().decode())
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"workload seed (default {DEFAULT_SEED})")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two runs a side")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def export_revision(revision: str, target: str) -> str:
    """Write the tree of a git revision into target and return its full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{revision}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = os.path.join(target, "tree.tar")
    subprocess.run(["git", "archive", "--output", archive, commit], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(os.path.join(target, "tree"), filter="data")
    os.remove(archive)
    return commit


def run_once(root: str, workload: str, seed: int) -> dict:
    """One pass of the workload in the checkout at root."""
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--seconds", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} in {root} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    summary, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    values = summary["pass_values"]
    return {
        "wall_s": values["wall_s"][0],
        "setup_s": values["setup_s"][0],
        "peak_rss_mb": values["peak_rss_mb"][0],
        "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        "digest": summary["digest"],
        "source_sha256": summary["stamp"]["source_sha256"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def blas_core(root: str) -> str | None:
    """The kernel numpy's bundled OpenBLAS picks at run time for a run in root, or None without one."""
    proc = subprocess.run(
        [sys.executable, "-c", BLAS_CORE_PROBE], cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    return proc.stdout.strip() or None


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def bootstrap_median_ci(ratios: list[float], level: float = 0.95) -> list[float]:
    """Percentile bootstrap interval of the median of ratios, from a fixed seed."""
    rng = random.Random(BOOTSTRAP_SEED)
    medians = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(BOOTSTRAP_RESAMPLES)
    )
    tail = (1.0 - level) / 2.0
    return [medians[int(tail * BOOTSTRAP_RESAMPLES)], medians[math.ceil((1.0 - tail) * BOOTSTRAP_RESAMPLES) - 1]]


def declared_metrics() -> dict:
    """BENCHMARK.json's end-to-end metrics by name: unit, which way is better, and bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric for metric in json.load(handle)["end_to_end"]}


def bound_checks(sides: dict, declared: dict) -> dict:
    """Median ratio (change over base) of each bounded metric against its BENCHMARK.json bound."""
    checks = {}
    for name in BOUNDED_METRICS:
        metric = declared[name]
        ratio = sides["change"][name]["median"] / sides["base"][name]["median"]
        if metric["better"] == "lower":
            within = ratio <= 1.0 + metric["bound"]
        else:
            within = ratio >= 1.0 - metric["bound"]
        checks[name] = {
            "ratio_median": ratio, "bound": metric["bound"], "better": metric["better"], "within": within,
        }
    return checks


def gain_verdict(pairs: list[dict], sides: dict, metric: dict) -> dict:
    """Whether the change gains on one metric: nine tenths of the pairs won, and a median gap
    (in the better direction) larger than the base's interquartile range.
    """
    name, unit = metric["name"], metric["unit"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (pair["base"][name] - pair["change"][name]) > 0 for pair in pairs)
    base = sides["base"][name]
    gap = sign * (base["median"] - sides["change"][name]["median"])
    iqr = base["q3"] - base["q1"]
    needed = math.ceil(0.9 * len(pairs))
    misses = []
    if wins < needed:
        misses.append(f"the change won {wins} of {len(pairs)} pairs, fewer than {needed}")
    if gap <= iqr:
        misses.append(
            f"the median gap of {gap:.4f} {unit} is not larger than the base's interquartile range {iqr:.4f} {unit}"
        )
    verdict = {"wins": wins, "median_gap": gap, "base_iqr": iqr, "unit": unit, "holds": not misses}
    if misses:
        verdict["refused"] = "; ".join(misses)
    return verdict


def summarize(pairs: list[dict]) -> dict:
    sides = {}
    for side in ("base", "change"):
        runs = [pair[side] for pair in pairs]
        sides[side] = {metric: spread([run[metric] for run in runs]) for metric in METRICS}
        sides[side]["digests"] = sorted({run["digest"] for run in runs})
        sides[side]["source_sha256"] = sorted({run["source_sha256"] for run in runs})
        sides[side]["all_correct"] = all(run["correct"] for run in runs)
        sides[side]["attempted"] = sum(run["attempted"] for run in runs)
        sides[side]["failed"] = sum(run["failed"] for run in runs)
    ratios = [pair["change"]["wall_s"] / pair["base"]["wall_s"] for pair in pairs]
    declared = declared_metrics()
    verdicts = {name: gain_verdict(pairs, sides, declared[name]) for name in BOUNDED_METRICS}
    gains = [name for name, verdict in verdicts.items() if verdict["holds"]]
    mixed = [side for side in ("base", "change") if len(sides[side]["source_sha256"]) > 1]
    change = sides["change"]
    gates_hold = change["all_correct"] and change["failed"] <= sides["base"]["failed"]
    bounds = bound_checks(sides, declared)
    broken = [name for name, check in bounds.items() if not check["within"]]
    gain_rule = {
        "wins_needed": math.ceil(0.9 * len(pairs)),
        "median_gap_s": verdicts["wall_s"]["median_gap"],
        "base_iqr_s": verdicts["wall_s"]["base_iqr"],
        "metrics": verdicts,
        "gains": gains,
        "mixed_sources": mixed,
        "change_gates_hold": gates_hold,
        "broken_bounds": broken,
    }
    refusals = []
    if not gains:
        refusals.append(
            "no bounded metric gained: "
            + "; ".join(f"{name}: {verdict['refused']}" for name, verdict in verdicts.items())
        )
    if mixed:
        refusals.append(
            f"the {' and '.join(mixed)} runs imported more than one source_sha256 "
            "(sources changed in mid-run), so they time no single revision"
        )
    if not gates_hold:
        refusals.append(
            f"the change runs failed {change['failed']} of {change['attempted']} operations "
            f"(base {sides['base']['failed']}), so their time is not the time of working code"
        )
    for name in broken:
        check = bounds[name]
        refusals.append(
            f"{name} moved by a median ratio of {check['ratio_median']:.3f}, beyond its BENCHMARK.json "
            f"bound of {check['bound']} ({check['better']} is better)"
        )
    gain_rule["holds"] = not refusals
    if refusals:
        gain_rule["refused"] = "; ".join(refusals)
    return {
        "sides": sides,
        "wall_s_ratio_median": statistics.median(ratios),
        "wall_s_ratio_ci95": bootstrap_median_ci(ratios),
        "bootstrap": {"resamples": BOOTSTRAP_RESAMPLES, "seed": BOOTSTRAP_SEED, "method": "percentile, pairs resampled"},
        "wins": verdicts["wall_s"]["wins"],
        "pairs": len(pairs),
        "digests_equal": sides["base"]["digests"] == sides["change"]["digests"],
        "bounds": bounds,
        "gain_rule": gain_rule,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab-base-") as workdir:
        try:
            base_commit = export_revision(args.base, workdir)
        except subprocess.CalledProcessError as err:
            print(f"cannot export revision {args.base!r}: {err}", file=sys.stderr)
            return 2
        roots = {"base": os.path.join(workdir, "tree"), "change": ROOT}
        cores = {side: blas_core(root) for side, root in roots.items()}
        pairs = []
        for index in range(args.pairs):
            order = ("base", "change") if index % 2 == 0 else ("change", "base")
            try:
                pair = {side: run_once(roots[side], args.workload, args.seed) for side in order}
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
                print(f"pair {index} failed: {err}", file=sys.stderr)
                return 1
            pair["first"] = order[0]
            pairs.append(pair)
            print(
                f"pair {index}: base {pair['base']['wall_s']:.3f} s, change {pair['change']['wall_s']:.3f} s",
                file=sys.stderr,
            )
    # the sources of each side are in its runs; this stamp describes only the host
    host = {k: v for k, v in environment_stamp(args.seed).items() if k not in ("git_commit", "source_sha256")}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "base": {"revision": args.base, "commit": base_commit},
        "change": "working tree",
        "host": host,
        **summarize(pairs),
        "runs": pairs,
    }
    for side, core in cores.items():
        report["sides"][side]["blas_core"] = core
    rule = report["gain_rule"]
    out = os.path.join(ROOT, "perfbench", "results", f"ab-{args.workload}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(
        json.dumps(
            {
                "workload": args.workload,
                "wall_s_base": report["sides"]["base"]["wall_s"],
                "wall_s_change": report["sides"]["change"]["wall_s"],
                "cpu_s_base": report["sides"]["base"]["cpu_s"]["median"],
                "cpu_s_change": report["sides"]["change"]["cpu_s"]["median"],
                "ratio_median": report["wall_s_ratio_median"],
                "ratio_ci95": report["wall_s_ratio_ci95"],
                "wins": f"{report['wins']}/{report['pairs']}",
                "digests_equal": report["digests_equal"],
                "blas_core": cores,
                "gain_rule_holds": rule["holds"],
                "gains": rule["gains"],
                "gain_rule_refused": rule.get("refused"),
                "bounds": report["bounds"],
                "out": out,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
