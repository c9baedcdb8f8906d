"""Acceptance matrix at full standard tolerances, one pass/fail line per criterion.

Monte Carlo criteria run at 10^6 samples with the fixed default seed, so the
whole module is deterministic.  Run with ``-s`` to see the per-criterion
lines; the CLI equivalent is ``ccrlab suite``.
"""

import json
import os

import pytest
from test_montecarlo import _dynamic_arch_openblas, outputs_under_kernels

from ccrlab import acceptance


def _run(number: int) -> acceptance.CriterionResult:
    result = acceptance.CRITERIA[number]()
    print(result.line())
    assert result.passed, json.dumps(result.checks, indent=2, default=str)
    return result


def test_criterion_01_exact_qp_moments():
    _run(1)


def test_criterion_02_wick_vs_normal_order_500_words():
    _run(2)


def test_criterion_03_structure_identities():
    _run(3)


def test_criterion_04_faithfulness_witness():
    _run(4)


def test_criterion_05_weyl_series():
    _run(5)


def test_criterion_06_weyl_schwinger_mc():
    _run(6)


def test_criterion_07_indefinite_functional_integral():
    _run(7)


def test_criterion_08_energy_positivity():
    _run(8)


def test_criterion_09_nelson_signature():
    _run(9)


def test_criterion_10_os_failure_and_rank():
    _run(10)


def test_criterion_11_krein_metric():
    _run(11)


def test_criterion_12_markov_projections():
    _run(12)


IDLE_SCRIPT = """
import time
from ccrlab import acceptance
start = time.perf_counter()
while time.perf_counter() - start < 0.3:  # OpenBLAS's threads spin for a while after the library starts
    acceptance.criterion_12(quick=False)
time.sleep(0.3)
acceptance.criterion_12(quick=False)
cpu = time.process_time()
time.sleep(0.4)
print(time.process_time() - cpu)
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs a second CPU for a second BLAS thread")
def test_criterion_12_leaves_no_blas_thread_spinning():
    # a product above OpenBLAS's threading threshold wakes a second thread, which then
    # spins for about 0.12 s of CPU after the call returns: a CPU taken from the sampler
    (output,) = outputs_under_kernels(IDLE_SCRIPT, [{"OPENBLAS_NUM_THREADS": "2"}])
    assert float(output) < 0.02


def test_criterion_13_gaussian_markov_property():
    _run(13)


def test_criterion_14_krein_mc():
    _run(14)


def test_criterion_15_determinism():
    _run(15)


def test_registry_declares_each_criterion_once():
    assert sorted(acceptance.CRITERIA) == list(range(1, 16))
    results = {number: criterion(quick=True) for number, criterion in acceptance.CRITERIA.items()}
    assert all(result.number == number for number, result in results.items())
    assert len({result.name for result in results.values()}) == len(results)


@pytest.mark.skipif(
    not os.environ.get("CCRLAB_LONG"), reason="CI-long binomial mode (set CCRLAB_LONG=1)"
)
def test_criterion_07_binomial_pass_rate():
    result = acceptance.criterion_07_binomial()
    print(result.line())
    assert result.passed, json.dumps(result.checks, indent=2, default=str)


# the criteria whose values go through BLAS or LAPACK: the exact determinant's
# eigen-signature (4), and the Nelson, OS, Krein and Markov Grams (9-12)
BLAS_CRITERIA = [4, 9, 10, 11, 12]
KERNEL_SCRIPT = f"""
import json
from ccrlab import acceptance
results = acceptance.run_all(quick=True, only={BLAS_CRITERIA})
print(json.dumps([[r.number, r.passed, r.checks] for r in results], default=str))
"""


def _assert_agree(a, b, where):
    """Equal structure and strings; numbers within 1e-12 max(1, |a|)."""
    if isinstance(a, (int, float)) and not isinstance(a, bool):
        assert isinstance(b, (int, float)) and not isinstance(b, bool), where
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), (where, a, b)
    elif isinstance(a, (dict, list)):
        assert type(a) is type(b) and len(a) == len(b), where
        for key in a if isinstance(a, dict) else range(len(a)):
            _assert_agree(a[key], b[key], (*where, key))
    else:
        assert a == b, (where, a, b)


@pytest.mark.skipif(not _dynamic_arch_openblas(), reason="needs numpy on a DYNAMIC_ARCH OpenBLAS")
def test_blas_criteria_hold_to_the_tested_bound_under_two_kernels():
    runs = [json.loads(output) for output in outputs_under_kernels(KERNEL_SCRIPT)]
    for results in runs:
        assert [number for number, _passed, _checks in results] == BLAS_CRITERIA
        assert all(passed for _number, passed, _checks in results), results
    _assert_agree(runs[0], runs[1], ())
