"""Acceptance matrix at full standard tolerances, one pass/fail line per criterion.

Monte Carlo criteria run at 10^6 samples with the fixed default seed, so the
whole module is deterministic.  Run with ``-s`` to see the per-criterion
lines; the CLI equivalent is ``ccrlab suite``.
"""

import json
import os

import pytest

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
