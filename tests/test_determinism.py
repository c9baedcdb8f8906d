"""The determinism contract for whole benchmark workloads: digests do not follow the BLAS thread count.

Each workload that BENCHMARK.json declares runs one untraced perfbench pass
(perfbench/one_pass.py) in a child process under OPENBLAS_NUM_THREADS=1 and 2;
the digests of its outputs must be equal and every operation must pass.  Long
mode only (set CCRLAB_LONG=1): eight fresh interpreters, several seconds.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = [workload["name"] for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
SEED = 424242


def digest(workload: str, threads: str, work_dir: pathlib.Path) -> str:
    """The digest of one pass of workload under `threads` BLAS threads, after checking that it failed nothing."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    command = [sys.executable, str(ROOT / "perfbench" / "one_pass.py"), workload, str(SEED), "0", "0", str(work_dir)]
    child = subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    return result["digest"]


@pytest.mark.skipif(not os.environ.get("CCRLAB_LONG"), reason="CI-long mode (set CCRLAB_LONG=1)")
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_digest_does_not_depend_on_the_blas_thread_count(workload, tmp_path):
    assert digest(workload, "1", tmp_path) == digest(workload, "2", tmp_path)
