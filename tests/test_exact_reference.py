"""The int-pair exact layer against a per-term ComplexRational reference written out here.

``AlgebraElement`` keeps Gaussian-integer numerators over one denominator and
``CovarianceTable`` keeps its values and moments as numerators over powers of
D = lcm(2, den c).  The reference below keeps one reduced ``ComplexRational``
per term and per pair value, the layout the exact layer had before, so any
slip in the shared denominators (a lost factor, a missed reduction, a wrong
power of D) shows as a difference in the boundary values.

Three more routes the layer once took are kept here as references: a word
normal-ordered as one left-to-right product of its generators (the layer
orders each commuting pair alone), the moment closed form in exact rationals
(the layer keeps c D as an int), and printing through one reduced
ComplexRational per term and its Fraction parts (the layer prints from the
numerators).
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from test_exactcomplex import _ref_str

from ccrlab.exactcomplex import I, ONE, ZERO, ComplexRational
from ccrlab.heisenberg import (
    DEFAULT_WORD_LIMIT,
    AlgebraElement,
    CovarianceTable,
    Generator,
    adjoint,
    evolve,
    normal_order,
    omega,
    product,
    wick_value,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
C_VALUES = (Fraction(0), Fraction(2, 7))

_parts = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_coefficients = st.builds(ComplexRational, _parts, _parts)
_keys = st.tuples(*[st.integers(0, 3)] * 4)
_term_dicts = st.dictionaries(_keys, _coefficients, max_size=4)


# -- reference: one reduced ComplexRational per term ----------------------------------


def _ref_reorder(k: int, j: int, sign_im: int) -> list[tuple[int, ComplexRational]]:
    """p^k q^j = sum_s C(k,s) C(j,s) s! (sign_im i)^s q^(j-s) p^(k-s)."""
    unit = ComplexRational(0, sign_im)
    return [(s, math.comb(k, s) * math.comb(j, s) * math.factorial(s) * unit**s) for s in range(min(j, k) + 1)]


def _ref_add(terms: dict, key, coeff: ComplexRational) -> None:
    total = terms.get(key, ZERO) + coeff
    if total:
        terms[key] = total
    else:
        terms.pop(key, None)


def _ref_product(a: dict, b: dict) -> dict:
    out = {}
    for (j1, k1, l1, m1), ca in a.items():
        for (j2, k2, l2, m2), cb in b.items():
            for s, cs in _ref_reorder(k1, j2, -1):
                for t, ct in _ref_reorder(m1, l2, +1):
                    key = (j1 + j2 - s, k1 + k2 - s, l1 + l2 - t, m1 + m2 - t)
                    _ref_add(out, key, ca * cb * cs * ct)
    return out


def _ref_sum(*dicts: dict) -> dict:
    out = {}
    for terms in dicts:
        for key, coeff in terms.items():
            _ref_add(out, key, coeff)
    return out


def _ref_power(base: dict, n: int) -> dict:
    out = {(0, 0, 0, 0): ONE}
    for _ in range(n):
        out = _ref_product(out, base)
    return out


def _ref_adjoint(terms: dict) -> dict:
    # (q^j p^k q'^l p'^m)* = p'^m q'^l p^k q^j = (p^k p'^m)(q^j q'^l)
    parts = [_ref_product({(0, k, 0, m): c.conjugate()}, {(j, 0, l, 0): ONE}) for (j, k, l, m), c in terms.items()]
    return _ref_sum(*parts)


def _ref_evolve(terms: dict, t: Fraction) -> dict:
    t = ComplexRational(t)
    img_q = {(1, 0, 0, 0): ONE, (0, 1, 0, 0): t}
    img_qp = {(0, 0, 1, 0): ONE, (0, 0, 0, 1): -t}
    parts = []
    for (j, k, l, m), c in terms.items():
        image = {(0, 0, 0, 0): c}
        for factor, power in ((img_q, j), ({(0, 1, 0, 0): ONE}, k), (img_qp, l), ({(0, 0, 0, 1): ONE}, m)):
            image = _ref_product(image, _ref_power(factor, power))
        parts.append(image)
    return _ref_sum(*parts)


def _ref_table(c: Fraction) -> list[list[ComplexRational]]:
    c, half, ihalf = ComplexRational(c), ComplexRational(Fraction(1, 2)), ComplexRational(0, Fraction(1, 2))
    return [[c, ihalf, ZERO, half], [-ihalf, ZERO, half, ZERO], [ZERO, half, c, -ihalf], [half, ZERO, ihalf, ZERO]]


def _ref_wick(word: tuple, table, memo=None) -> ComplexRational:
    """Sum over the perfect matchings of the ordered pair values, memoized on the rest of the word."""
    memo = {} if memo is None else memo
    if not word:
        return ONE
    if word not in memo:
        first, rest = word[0], word[1:]
        total = ZERO
        for pos, later in enumerate(rest):
            total += table[first][later] * _ref_wick(rest[:pos] + rest[pos + 1 :], table, memo)
        memo[word] = total
    return memo[word]


def _ref_moment(key, table) -> ComplexRational:
    """The state on q^j p^k q'^l p'^m is the Wick sum of that ordered word."""
    return _ref_wick(tuple(g for g, count in enumerate(key) for _ in range(count)), table)


def _ref_closed_form(c: Fraction, key) -> ComplexRational:
    """<q^j p^k q'^l p'^m> = (-i)^m (1/2)^(k+m) c^((j+l-k-m)/2) sum_u C(k+m, u) i^u j!/(j-u)! l!/r! (j-u-1)!! (r-1)!!.

    In exact rationals, term by term, over the u with j - u and r = l - (k+m-u) even and >= 0.
    """
    j, k, l, m = key
    n = k + m
    if sum(key) % 2 or n > j + l:
        return ZERO
    total = ZERO
    for u in range(min(j, n) + 1):
        r = l - (n - u)
        if r >= 0 and (j - u) % 2 == 0 and r % 2 == 0:
            ways = math.comb(n, u) * math.perm(j, u) * math.perm(l, n - u)
            total += I**u * ways * math.prod(range(j - u - 1, 0, -2)) * math.prod(range(r - 1, 0, -2))
    return (-I) ** m * ComplexRational(Fraction(1, 2)) ** n * ComplexRational(c) ** ((j + l - n) // 2) * total


def _ref_normal_order(word) -> AlgebraElement:
    """One left-to-right product of the word's generators, both pairs together."""
    return product(AlgebraElement.monomial(tuple(int(i == g) for i in range(4))) for g in map(Generator, word))


def _ref_element_str(e: AlgebraElement) -> str:
    """The terms by degree, then exponents, each a reduced ComplexRational printed through its Fraction parts."""
    parts = []
    for key, coeff in sorted(e.terms.items(), key=lambda item: (sum(item[0]), item[0])):
        mono = " ".join(s if n == 1 else f"{s}^{n}" for s, n in zip(("q", "p", "q'", "p'"), key) if n)
        text = _ref_str(coeff.re, coeff.im)
        if not mono:
            parts.append(f"({text})")
        elif coeff == ONE:
            parts.append(mono)
        else:
            parts.append(f"({text}) {mono}")
    return " + ".join(parts) or "0"


def _without_zeros(terms: dict) -> dict:
    return {key: c for key, c in terms.items() if c}


# -- checks ---------------------------------------------------------------------------


def test_products_sums_and_powers_match_the_reference():
    @SETTINGS
    @hypothesis.given(_term_dicts, _term_dicts, st.integers(0, 3))
    def check(a, b, n):
        a, b = _without_zeros(a), _without_zeros(b)
        ea, eb = AlgebraElement(a), AlgebraElement(b)
        assert ea.terms == a and eb.terms == b
        assert (ea * eb).terms == _ref_product(a, b)
        assert (ea + eb).terms == _ref_sum(a, b)
        assert (ea - eb).terms == _ref_sum(a, {k: -c for k, c in b.items()})
        assert (ea**n).terms == _ref_power(a, n)
        # equal elements share one representation: lowest terms over one denominator
        assert ea * eb == AlgebraElement(_ref_product(a, b))
        assert str(ea * eb) == str(AlgebraElement(_ref_product(a, b)))

    check()


def test_scalar_multiples_match_the_reference():
    @SETTINGS
    @hypothesis.given(_term_dicts, _coefficients)
    def check(a, scalar):
        a = _without_zeros(a)
        assert (AlgebraElement(a) * scalar).terms == _without_zeros({k: c * scalar for k, c in a.items()})

    check()


def test_adjoint_and_evolve_match_the_reference():
    times = st.fractions(min_value=-3, max_value=3, max_denominator=5)

    @SETTINGS
    @hypothesis.given(st.dictionaries(_keys, _coefficients, max_size=3), times)
    def check(a, t):
        a = _without_zeros(a)
        e = AlgebraElement(a)
        assert adjoint(e).terms == _ref_adjoint(a)
        assert evolve(e, t).terms == _ref_evolve(a, t)
        assert evolve(e, t) == AlgebraElement(_ref_evolve(a, t))

    check()


@pytest.mark.parametrize("c", C_VALUES, ids=str)
def test_moments_and_omega_match_the_reference(c):
    ref_table = _ref_table(c)

    @SETTINGS
    @hypothesis.given(_term_dicts)
    def check(a):
        a = _without_zeros(a)
        table = CovarianceTable(c)
        for key in a:
            assert table.moment(key) == _ref_moment(key, ref_table), key
        assert omega(AlgebraElement(a), table) == sum((coeff * _ref_moment(key, ref_table) for key, coeff in a.items()), ZERO)

    check()


@pytest.mark.parametrize("c", C_VALUES, ids=str)
def test_wick_value_matches_the_reference(c):
    ref_table = _ref_table(c)
    table = CovarianceTable(c)

    @SETTINGS
    @hypothesis.given(st.lists(st.integers(0, 3), max_size=14))
    def check(word):
        assert wick_value(word, table) == _ref_wick(tuple(word), ref_table)

    check()


def test_normal_order_matches_the_one_product_route():
    # words of every length up to the bound: over all four letters, and over one pair's letters only
    rng = np.random.default_rng(41)
    for length in range(DEFAULT_WORD_LIMIT + 1):
        for low, high in ((0, 4), (0, 2), (2, 4)):
            word = rng.integers(low, high, length).tolist()
            got, expected = normal_order(word), _ref_normal_order(word)
            assert got == expected and got.terms == expected.terms and str(got) == str(expected), word


def test_printed_elements_match_the_reference():
    @SETTINGS
    @hypothesis.given(_term_dicts, _term_dicts)
    def check(a, b):
        ea, eb = AlgebraElement(_without_zeros(a)), AlgebraElement(_without_zeros(b))
        for e in (ea, ea * eb):
            assert str(e) == _ref_element_str(e)

    check()
    # the normal form that `ccrlab moments` prints for (- q - i p + 2 q' + 2 p')^8
    form = AlgebraElement({(1, 0, 0, 0): -1, (0, 1, 0, 0): -I, (0, 0, 1, 0): 2, (0, 0, 0, 1): 2}) ** 8
    assert len(form.terms) == 295
    assert str(form) == _ref_element_str(form)


@pytest.mark.parametrize("c", (Fraction(0), Fraction(1, 3), Fraction(-5, 7), Fraction(2), Fraction(1, 2)), ids=str)
def test_moments_match_the_closed_form_in_exact_rationals(c):
    table, ref_table = CovarianceTable(c), _ref_table(c)
    for key in itertools.product(range(11), repeat=4):
        if sum(key) <= 10:
            assert table.moment(key) == _ref_closed_form(c, key), key
            if sum(key) <= 6:
                assert table.moment(key) == _ref_moment(key, ref_table), key
