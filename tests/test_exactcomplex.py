import copy
import operator
import pickle
import re
from fractions import Fraction

import pytest

from ccrlab.exactcomplex import I, ONE, ZERO, ComplexRational, _format


def parse_complex_rational(text: str) -> ComplexRational:
    """Read a printed value back: "a/b", "c/d i" or "a/b+c/d i", with a unit imaginary part as "i"."""
    if not text.endswith("i"):
        return ComplexRational(Fraction(text))
    real, sign, imag = re.fullmatch(r"(.*?)([+-]?)([\d/]*) ?i", text).groups()
    return ComplexRational(Fraction(real or 0), Fraction(sign + (imag or "1")))


def test_basic_arithmetic():
    a = ComplexRational(Fraction(1, 2), Fraction(3, 4))
    b = ComplexRational(2, -1)
    assert a + b == ComplexRational(Fraction(5, 2), Fraction(-1, 4))
    assert a - b == ComplexRational(Fraction(-3, 2), Fraction(7, 4))
    assert a * b == ComplexRational(Fraction(7, 4), 1)
    assert (a * b) / b == a
    assert -a == ComplexRational(Fraction(-1, 2), Fraction(-3, 4))


def test_i_squares_to_minus_one():
    assert I * I == -ONE
    assert I**4 == ONE
    assert I.conjugate() == -I


def test_mixed_scalar_coercion():
    assert 2 + I == ComplexRational(2, 1)
    assert Fraction(1, 3) * I == ComplexRational(0, Fraction(1, 3))
    assert 1 - I == ComplexRational(1, -1)
    assert (1 + I) / 2 == ComplexRational(Fraction(1, 2), Fraction(1, 2))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_hash_and_equality():
    assert hash(ComplexRational(1, 2)) == hash(ComplexRational(1, 2))
    assert ComplexRational(1) == 1
    assert ComplexRational(Fraction(2, 4)) == ComplexRational(Fraction(1, 2))
    assert bool(ZERO) is False and bool(I) is True


@pytest.mark.parametrize(
    "value",
    [
        ZERO,
        ONE,
        I,
        -I,
        ComplexRational(Fraction(1, 2), Fraction(3, 4)),
        ComplexRational(Fraction(-7, 3), Fraction(-1, 2)),
        ComplexRational(5, 0),
        ComplexRational(0, Fraction(-2, 9)),
    ],
)
def test_serialization_round_trip(value):
    assert parse_complex_rational(str(value)) == value


def test_serialization_format():
    assert str(ComplexRational(Fraction(1, 2), Fraction(3, 4))) == "1/2+3/4 i"
    assert str(ComplexRational(0, Fraction(1, 2))) == "1/2 i"
    assert str(ComplexRational(Fraction(1, 2))) == "1/2"
    assert str(I) == "i"
    assert str(-I) == "-i"
    assert str(ZERO) == "0"


def test_to_complex():
    assert ComplexRational(Fraction(1, 2), Fraction(-1, 4)).to_complex() == 0.5 - 0.25j


def test_immutability():
    with pytest.raises(AttributeError):
        I.re = Fraction(1)


@pytest.mark.parametrize(
    "duplicate", [copy.copy, copy.deepcopy, lambda z: pickle.loads(pickle.dumps(z))], ids=["copy", "deepcopy", "pickle"]
)
def test_copies_and_pickles_rebuild_the_value(duplicate):
    z = ComplexRational(1, 2)
    twin = duplicate(z)
    assert twin == z and hash(twin) == hash(z) and str(twin) == str(z)
    with pytest.raises(AttributeError):
        twin._x = 0


def test_constructor_takes_what_fraction_takes():
    z = ComplexRational(Fraction(6, 4), "-2/6")
    assert (z.re, z.im) == (Fraction(3, 2), Fraction(-1, 3))
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert ComplexRational(0.5, 0.25) == ComplexRational(Fraction(1, 2), Fraction(1, 4))


# -- properties against a reference pair of Fractions ------------------------------


def _pairs():
    """(re, im) Fraction pairs, integral ones included."""
    st = pytest.importorskip("hypothesis.strategies")
    parts = st.fractions(max_denominator=10**6) | st.integers(-(10**9), 10**9).map(Fraction)
    return st.tuples(parts, parts)


def _from(pair) -> ComplexRational:
    return ComplexRational(*pair)


def _ref_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _ref_str(re: Fraction, im: Fraction) -> str:
    """The serialization of the two-Fraction representation, kept as the reference."""
    if im == 0:
        return str(re)
    imag = f"{abs(im)} i" if abs(im) != 1 else "i"
    if re == 0:
        return imag if im > 0 else "-" + imag
    sign = "+" if im > 0 else "-"
    return f"{re}{sign}{imag}"


def test_field_axioms_match_reference():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.given(_pairs(), _pairs(), _pairs())
    def check(a, b, c):
        x, y, z = _from(a), _from(b), _from(c)
        assert x + y == _from((a[0] + b[0], a[1] + b[1])) == y + x
        assert x - y == _from((a[0] - b[0], a[1] - b[1]))
        assert x * y == _from(_ref_mul(a, b)) == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + ZERO == x and x * ONE == x and x + (-x) == ZERO
        assert (x.re, x.im) == a
        if x:
            assert x * (ONE / x) == ONE

    check()


def test_division_matches_reference():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.given(_pairs(), _pairs())
    def check(a, b):
        hypothesis.assume(b != (0, 0))
        x, y = _from(a), _from(b)
        norm = b[0] * b[0] + b[1] * b[1]
        expected = ((a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm)
        assert x / y == _from(expected)
        assert (x / y) * y == x

    check()


def test_str_matches_reference_and_round_trips():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.given(_pairs())
    def check(a):
        x = _from(a)
        assert str(x) == _ref_str(*a)
        assert parse_complex_rational(str(x)) == x
        assert repr(x) == f"ComplexRational('{x}')"

    check()


def test_str_matches_reference_on_unit_zero_and_long_parts():
    # zero and unit parts, negative parts and parts past 30 digits, also printed from numerators
    # that share a factor with the denominator, as an algebra element prints its terms
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    long_ints = st.builds(operator.mul, st.sampled_from((1, -1)), st.integers(10**30, 10**45))
    parts = (
        st.sampled_from((0, 1, -1))
        | long_ints
        | st.builds(Fraction, long_ints, st.integers(1, 10**40))
        | st.fractions(max_denominator=10**6)
    ).map(Fraction)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.tuples(parts, parts), st.integers(1, 10**12))
    def check(a, factor):
        x = _from(a)
        assert str(x) == _ref_str(*a)
        assert _format(x._x * factor, x._y * factor, x._d * factor) == str(x)

    check()


def test_eq_and_hash_consistent():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.given(_pairs(), _pairs())
    def check(a, b):
        x, y = _from(a), _from(b)
        assert (x == y) == (a == b)
        twin = ComplexRational(Fraction(a[0].numerator * 3, a[0].denominator * 3), a[1])
        assert twin == x and hash(twin) == hash(x)
        real = ComplexRational(a[0])
        assert real == a[0] and hash(real) == hash(a[0])
        integral = ComplexRational(a[0].numerator)
        assert integral == a[0].numerator and hash(integral) == hash(a[0].numerator)
        assert (x == a[0]) == (a[1] == 0)

    check()
