"""bench/ab.py's summary of paired runs, on made-up pairs (no subprocess)."""

import importlib.util
import json
import pathlib
import statistics

import pytest
from test_montecarlo import _dynamic_arch_openblas

_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(wall_s, source="a" * 64, failed=0):
    return {
        "wall_s": wall_s,
        "setup_s": 0.2,
        "peak_rss_mb": 80.0,
        "cpu_s": wall_s,
        "digest": "0123456789abcdef",
        "source_sha256": source,
        "correct": failed == 0,
        "attempted": 40,
        "failed": failed,
    }


def pairs(change_sources):
    # the change side is 30% faster in every pair, far beyond the base's spread
    return [
        {"base": run(1.0 + 0.01 * i, "b" * 64), "change": run(0.7 + 0.01 * i, source), "first": "base"}
        for i, source in enumerate(change_sources)
    ]


def test_gain_holds_for_one_source_a_side(ab):
    rule = ab.summarize(pairs(["c" * 64] * 10))["gain_rule"]
    assert rule["holds"] is True
    assert rule["mixed_sources"] == [] and "refused" not in rule


def test_gain_refused_for_mixed_sources(ab):
    summary = ab.summarize(pairs(["c" * 64] * 5 + ["d" * 64] * 5))
    rule = summary["gain_rule"]
    assert summary["wins"] == 10 and rule["median_gap_s"] > rule["base_iqr_s"]
    assert rule["holds"] is False
    assert rule["mixed_sources"] == ["change"]
    assert "more than one source_sha256" in rule["refused"]
    assert summary["sides"]["change"]["source_sha256"] == ["c" * 64, "d" * 64]


def test_gain_refused_when_change_runs_fail_gates(ab):
    # as fast as the holding gain, but one change run fails an operation
    made_up = pairs(["c" * 64] * 10)
    made_up[3]["change"] = run(0.73, "c" * 64, failed=1)
    summary = ab.summarize(made_up)
    rule = summary["gain_rule"]
    assert summary["wins"] == 10 and rule["median_gap_s"] > rule["base_iqr_s"]
    assert rule["holds"] is False and rule["change_gates_hold"] is False
    assert "failed 1 of 400 operations" in rule["refused"]
    assert summary["sides"]["change"]["all_correct"] is False


def test_gain_refused_when_change_breaks_a_bound(ab):
    # as fast as the holding gain, but peak RSS grows 80 -> 90 MB, past the 10% bound
    made_up = pairs(["c" * 64] * 10)
    for pair in made_up:
        pair["change"]["peak_rss_mb"] = 90.0
    summary = ab.summarize(made_up)
    rule = summary["gain_rule"]
    assert summary["wins"] == 10 and rule["median_gap_s"] > rule["base_iqr_s"] and rule["change_gates_hold"]
    assert summary["bounds"]["peak_rss_mb"]["within"] is False and summary["bounds"]["wall_s"]["within"] is True
    assert rule["holds"] is False and rule["broken_bounds"] == ["peak_rss_mb"]
    assert "peak_rss_mb moved by a median ratio of 1.125" in rule["refused"]


def test_gain_holds_on_peak_rss_alone_and_is_named(ab):
    # equal wall and setup times; peak RSS falls 55 -> 48.4 MB in every pair, far beyond the base's spread
    made_up = [{"base": run(1.0), "change": run(1.0), "first": "base"} for _ in range(10)]
    for i, pair in enumerate(made_up):
        pair["base"]["peak_rss_mb"] = 55.0 + 0.01 * i
        pair["change"]["peak_rss_mb"] = 48.4 + 0.01 * i
    summary = ab.summarize(made_up)
    rule = summary["gain_rule"]
    assert summary["wins"] == 0 and rule["metrics"]["wall_s"]["holds"] is False
    assert rule["metrics"]["setup_s"]["holds"] is False
    assert rule["metrics"]["peak_rss_mb"]["holds"] is True and rule["metrics"]["peak_rss_mb"]["wins"] == 10
    assert rule["holds"] is True and rule["gains"] == ["peak_rss_mb"] and "refused" not in rule


@pytest.mark.parametrize("gain", [True, False])
def test_every_run_writes_the_run_output_not_the_claim_file(ab, monkeypatch, tmp_path, capsys, gain):
    # main on made-up runs in a scratch checkout: a gain that holds and a neutrality
    # check both write perfbench/results/ab-suite.json and leave BENCH_suite.json alone
    made_up = pairs(["c" * 64] * 10) if gain else [{"base": run(1.0), "change": run(1.0)} for _ in range(10)]
    runs = {side: iter([pair[side] for pair in made_up]) for side in ("base", "change")}
    declared = ab.declared_metrics()
    claim = tmp_path / "BENCH_suite.json"
    claim.write_text("committed\n")
    monkeypatch.setattr(ab, "ROOT", str(tmp_path))
    monkeypatch.setattr(ab, "declared_metrics", lambda: declared)
    monkeypatch.setattr(ab, "export_revision", lambda revision, target: "0" * 40)
    monkeypatch.setattr(ab, "blas_core", lambda root: None)
    monkeypatch.setattr(ab, "environment_stamp", lambda seed: {})
    monkeypatch.setattr(ab, "run_once", lambda root, workload, seed: next(runs["change" if root == ab.ROOT else "base"]))
    assert ab.main(["--workload", "suite"]) == 0
    out = tmp_path / "perfbench" / "results" / "ab-suite.json"
    printed = json.loads(capsys.readouterr().out)
    assert printed["out"] == str(out)
    # the children's CPU seconds, where a spinning BLAS thread shows: each side's median
    for side in ("base", "change"):
        assert printed[f"cpu_s_{side}"] == statistics.median(pair[side]["cpu_s"] for pair in made_up)
    assert gain or printed["cpu_s_base"] == printed["cpu_s_change"] == 1.0
    rule = json.loads(out.read_text())["gain_rule"]
    assert rule["holds"] is gain
    assert gain or ("won 0 of 10 pairs" in rule["refused"] and "interquartile" in rule["refused"])
    assert claim.read_text() == "committed\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["BENCH_suite.json", "perfbench"]


@pytest.mark.skipif(not _dynamic_arch_openblas(), reason="needs numpy on a DYNAMIC_ARCH OpenBLAS")
def test_blas_core_reads_the_run_time_kernel(ab, monkeypatch):
    assert ab.blas_core(ab.ROOT)  # the kernel picked for this CPU, such as SkylakeX
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")  # the child inherits this environment
    assert ab.blas_core(ab.ROOT) == "Haswell"


def test_blas_core_is_null_when_the_probe_finds_none(ab, monkeypatch):
    monkeypatch.setattr(ab, "BLAS_CORE_PROBE", "import sys; sys.exit(1)")
    assert ab.blas_core(ab.ROOT) is None
