"""The determinism contract for whole benchmark workloads: digests follow neither the BLAS thread count nor the CPU count.

Each workload that BENCHMARK.json declares runs one untraced perfbench pass
(perfbench/one_pass.py) in a child process under OPENBLAS_NUM_THREADS=1 and 2;
the digests of its outputs must be equal and every operation must pass.  The
Monte Carlo workloads, mc and suite, also run in a child pinned to one CPU
(os.sched_setaffinity, in that child only), where the sampler starts no pool
thread, and must give the unpinned child's digest.  Long mode only (set
CCRLAB_LONG=1): twelve fresh interpreters, several seconds.
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
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def digest(workload: str, threads: str, work_dir: pathlib.Path, one_cpu: bool = False) -> str:
    """The digest of one pass of workload under `threads` BLAS threads, after checking that it failed nothing.

    With one_cpu the child runs pinned to the first CPU this process may use.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    command = [sys.executable, str(ROOT / "perfbench" / "one_pass.py"), workload, str(SEED), "0", "0", str(work_dir)]
    pin = (lambda: os.sched_setaffinity(0, CPUS[:1])) if one_cpu else None
    child = subprocess.run(command, env=env, capture_output=True, text=True, timeout=300, preexec_fn=pin)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    return result["digest"]


@pytest.mark.skipif(not os.environ.get("CCRLAB_LONG"), reason="CI-long mode (set CCRLAB_LONG=1)")
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_digest_does_not_depend_on_the_blas_thread_count(workload, tmp_path):
    assert digest(workload, "1", tmp_path) == digest(workload, "2", tmp_path)


@pytest.mark.skipif(not os.environ.get("CCRLAB_LONG"), reason="CI-long mode (set CCRLAB_LONG=1)")
@pytest.mark.skipif(len(CPUS) < 2, reason="one CPU: the unpinned child already runs one sampler worker")
@pytest.mark.parametrize("workload", ["mc", "suite"])
def test_workload_digest_does_not_depend_on_the_cpu_count(workload, tmp_path):
    assert digest(workload, "1", tmp_path, one_cpu=True) == digest(workload, "1", tmp_path)
