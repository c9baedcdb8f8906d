"""Expression mini-language: grammar coverage and error positions."""

from fractions import Fraction

import pytest

from ccrlab import expr
from ccrlab.exactcomplex import I, ComplexRational
from ccrlab.expr import ExprError, parse_element
from ccrlab.heisenberg import AlgebraElement, CovarianceTable, P, P_PRIME, Q, Q_PRIME, UNIT, omega


def test_juxtaposition_is_product():
    assert parse_element("q p") == Q * P
    assert parse_element("q p q p") == Q * P * Q * P
    assert parse_element("q*p") == Q * P


def test_primed_generators_and_i():
    assert parse_element("q' p'") == Q_PRIME * P_PRIME
    assert parse_element("i q") == I * Q
    assert parse_element("i i") == -UNIT


def test_rationals_and_signs():
    assert parse_element("3/2 q") == Q * Fraction(3, 2)
    assert parse_element("-q") == -Q
    assert parse_element("q - p") == Q - P
    assert parse_element("1/2 - 1/2") == UNIT * 0
    assert parse_element("2 - -3") == UNIT * 5


def test_parentheses_and_powers():
    assert parse_element("(q + i p) (q - i p)") == (Q + I * P) * (Q - I * P)
    assert parse_element("q^3") == Q * Q * Q
    assert parse_element("(q p)^2") == (Q * P) * (Q * P)


def test_omega_of_parsed_expressions():
    table = CovarianceTable()
    assert omega(parse_element("q p q p"), table) == ComplexRational(0)
    assert omega(parse_element("q p"), table) == ComplexRational(0, Fraction(1, 2))
    assert omega(parse_element("q q"), CovarianceTable(Fraction(1))) == ComplexRational(1)


def test_unsupported_token_position():
    with pytest.raises(ExprError) as err:
        parse_element("q x p")
    assert err.value.position == 2


def test_error_cases():
    too_long = "9" * 5000  # past the interpreter's digit limit for int()
    powers = ("q^99999999999999999999", "q^10001", "(q p)^5001", "2^10001", "q^10000^2", "q^" + too_long)
    for bad in ("", "(q", "q +", "q ^ 1/2", "q ^ q", ")", "1/0 q", too_long) + powers:
        with pytest.raises(ExprError):
            parse_element(bad)


def test_power_limit_counts_degrees(monkeypatch):
    monkeypatch.setattr(expr, "POWER_LIMIT", 12)
    assert parse_element("q^12") == Q**12
    assert parse_element("(q^3)^4") == Q**12
    assert parse_element("(q p)^6") == (Q * P) ** 6
    assert parse_element("2^12 (q p)^0") == UNIT * 4096
    for bad in ("q^13", "(q^3)^5", "(q p)^7", "2^13", "q^123"):
        with pytest.raises(ExprError, match="power above degree 12"):
            parse_element(bad)


def test_canonicalization_through_parser():
    # p q parses as the product p*q, whose canonical form is qp - i
    assert parse_element("p q") == Q * P - I * UNIT


def test_print_parse_round_trip():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    part = st.fractions(max_denominator=1000)
    keys = st.tuples(*[st.integers(0, 3)] * 4)
    elements = st.dictionaries(keys, st.builds(ComplexRational, part, part), max_size=6)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(elements.map(AlgebraElement))
    def check(e):
        assert parse_element(str(e)) == e

    check()
