"""bench/ab.py's summary of paired runs, on made-up pairs, and the trees each side runs from;
under CCRLAB_LONG=1, an A/A run of the harness on real passes."""

import importlib.util
import json
import os
import pathlib
import statistics
import subprocess

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
    roots = set()

    def run_once(root, workload, seed):
        roots.add(pathlib.Path(root))
        return next(runs[pathlib.Path(root).parent.name])

    monkeypatch.setattr(ab, "export_revision", lambda revision, target: "0" * 40)
    monkeypatch.setattr(ab, "export_working_tree", lambda target: None)
    monkeypatch.setattr(ab, "blas_core", lambda root: None)
    monkeypatch.setattr(ab, "environment_stamp", lambda seed: {})
    monkeypatch.setattr(ab, "run_once", run_once)
    assert ab.main(["--workload", "suite"]) == 0
    # both sides run from sibling trees of one temporary directory, at the same depth
    [workdir] = {root.parent.parent for root in roots}
    assert roots == {workdir / "base" / "tree", workdir / "change" / "tree"}
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


def test_the_change_tree_holds_the_listed_files_with_the_working_trees_bytes(ab, monkeypatch, tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "src" / "__pycache__").mkdir(parents=True)
    git = ["git", "-c", "user.name=ab", "-c", "user.email=ab@example.invalid", "-C", str(checkout)]
    subprocess.run([*git, "init", "-q"], check=True)
    (checkout / ".gitignore").write_text("__pycache__/\nresults/\n")
    (checkout / "src" / "kept.py").write_text("committed\n")
    (checkout / "src" / "edited.py").write_text("committed\n")
    (checkout / "gone.py").write_text("committed\n")
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "base"], check=True)
    (checkout / "src" / "edited.py").write_text("edited, not committed\n")
    (checkout / "gone.py").unlink()
    (checkout / "src" / "new.py").write_text("untracked\n")
    (checkout / "src" / "__pycache__" / "kept.cpython.pyc").write_bytes(b"stale")
    (checkout / "results").mkdir()
    (checkout / "results" / "run.json").write_text("{}\n")
    monkeypatch.setattr(ab, "ROOT", str(checkout))
    ab.export_working_tree(str(tmp_path / "change"))
    tree = tmp_path / "change" / "tree"
    copied = sorted(str(path.relative_to(tree)) for path in tree.rglob("*") if not path.is_dir())
    assert copied == [".gitignore", "src/edited.py", "src/kept.py", "src/new.py"]
    assert all((tree / name).read_bytes() == (checkout / name).read_bytes() for name in copied)
    assert not (tree / "src" / "__pycache__").exists()


@pytest.mark.skipif(not _dynamic_arch_openblas(), reason="needs numpy on a DYNAMIC_ARCH OpenBLAS")
def test_blas_core_reads_the_run_time_kernel(ab, monkeypatch):
    assert ab.blas_core(ab.ROOT)  # the kernel picked for this CPU, such as SkylakeX
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")  # the child inherits this environment
    assert ab.blas_core(ab.ROOT) == "Haswell"


def test_blas_core_is_null_when_the_probe_finds_none(ab, monkeypatch):
    monkeypatch.setattr(ab, "BLAS_CORE_PROBE", "import sys; sys.exit(1)")
    assert ab.blas_core(ab.ROOT) is None


@pytest.mark.skipif(not os.environ.get("CCRLAB_LONG"), reason="CI-long mode (set CCRLAB_LONG=1)")
def test_an_a_a_run_reads_no_gap(ab, tmp_path):
    # HEAD exported twice, so a dirty working tree cannot turn this into an A/B, and six
    # alternating pairs of the exact workload (about 0.7 s a run) through ab's own run_once
    # and summary; nothing is written to perfbench/results.
    #
    # False failures: under A/A each wall ratio falls below 1 with probability 1/2, and
    # the percentile interval of the median misses 1 whenever all six fall on one side
    # (2/64, about 3.1%).  With one ratio alone on its side (12/64) it misses 1 when that
    # ratio lies nearer 1 than the others: about 0.15 of such draws for iid half-normal
    # distances from 1 (400 draws through ab.bootstrap_median_ci).  The rate is then about
    # 3.1% + 18.8% x 0.15, near 6%.
    results = pathlib.Path(ab.ROOT) / "perfbench" / "results"
    before = sorted(results.iterdir()) if results.exists() else None
    roots = {}
    for side in ("base", "change"):
        ab.export_revision("HEAD", str(tmp_path / side))
        roots[side] = str(tmp_path / side / "tree")
    made = []
    for index in range(6):
        order = ("base", "change") if index % 2 == 0 else ("change", "base")
        made.append({side: ab.run_once(roots[side], "exact", ab.DEFAULT_SEED) for side in order})
    summary = ab.summarize(made)
    low, high = summary["wall_s_ratio_ci95"]
    assert low <= 1.0 <= high, summary["wall_s_ratio_ci95"]
    sides = summary["sides"]
    assert len(sides["base"]["source_sha256"]) == 1 and sides["base"]["source_sha256"] == sides["change"]["source_sha256"]
    assert summary["digests_equal"] and len(sides["base"]["digests"]) == 1
    assert sides["base"]["failed"] == sides["change"]["failed"] == 0
    assert (sorted(results.iterdir()) if results.exists() else None) == before
