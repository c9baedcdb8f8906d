"""Symbolic Heisenberg algebra extended by its commutant.

Generators ``q, p`` satisfy ``[q, p] = i``; the commutant generators
``q', p'`` satisfy the pseudo-canonical relation ``[q', p'] = -i`` and commute
with the unprimed pair.  Elements are kept in the canonical normal-ordered
monomial basis ``q^j p^k q'^l p'^m`` with exact complex-rational coefficients,
so every identity in this module is exact.  Inside the module a coefficient is
a Gaussian-integer numerator over a denominator shared by the whole element or
table; values leave it as :class:`ComplexRational`.

The indefinite ground state is encoded by a :class:`CovarianceTable` of
ordered two-point values; all higher moments follow from the Gaussian
pair-partition rule (truncated correlations vanish), in closed form on
normal-ordered monomials and by :func:`pair_partition_sum` on raw words.
That engine walks a word once, left to right, over states that count the
open (not yet paired) items of each distinct item, and drops a state whose
open items outnumber the items left.  Its cost is polynomial in the length
for a fixed number of distinct items (a word has at most four), and 2^n for
n distinct items.  It asks that ``pair`` be pure and treats items equal
under ``==`` as interchangeable (0.0 and -0.0 merge).
A GNS vector ``A |0>`` is named by its label ``A``, so the GNS inner product
and the modular maps take and return algebra elements; on the unprimed
subalgebra, where the modular maps act, the state is faithful (criterion 4's
witness), so there the label is unique.  On top of the state sit the
adjoint map ``A |0> -> A* |0>``, the modular phases, diagonal on canonical
monomials, and the metric conjugation ``q <-> p'``, ``p <-> q'``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exactcomplex import I, ONE, ZERO, ComplexRational, _coerce, _format, _reduced
from .gram import GramMatrix, gram_signature

DEFAULT_WORD_LIMIT = 32


class WordLengthError(ValueError):
    """Raised when a generator word exceeds the configured length bound."""


class UnsupportedDomainError(ValueError):
    """Raised when an operation is applied outside its label domain."""


class Generator(IntEnum):
    Q = 0
    P = 1
    Q_PRIME = 2
    P_PRIME = 3


# Monomial key: exponents (j, k, l, m) of q^j p^k q'^l p'^m.
MonomialKey = tuple[int, int, int, int]

_UNIT_KEY: MonomialKey = (0, 0, 0, 0)


# Exact coefficients are Gaussian integers x + y i over one positive denominator
# per element (the one-denominator layout of FLINT's fmpq_poly): an element holds
# {key: (x, y)} and a denominator, in lowest terms, so a product costs one gcd
# and not one per term.  Reordering introduces no denominator.  ComplexRational
# is the boundary type: `terms`, `omega`, `moment`, `wick_value` and printing
# convert to it, and the maps off the hot path (`evolve`, `scale_transform`,
# the modular phases, `_exact_det`) compute in it.

# Most terms one product may build, counted before like terms merge: each pair of
# factor terms builds one term per reordering term of its monomials, and a power
# or a `product` of many factors counts as one.  Past it the product raises
# ProductSizeError.
TERM_LIMIT = 100_000

# Powers of i as (re, im).
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


class ProductSizeError(ValueError):
    """Raised when a product would build more than TERM_LIMIT terms."""


# Bounded caches: one pass of the exact benchmark workload fills 67 entries of
# this one and 3263 of _mul_keys, and `ccrlab suite` 61 and 1645.
@lru_cache(maxsize=1024)
def _reorder_coeffs(k: int, j: int, sign_im: int) -> tuple[tuple[int, int, int], ...]:
    """Coefficients of p^k q^j = sum_s C(k,s) C(j,s) s! (sign_im*i)^s q^(j-s) p^(k-s).

    ``sign_im=-1`` reorders the unprimed pair ([q,p]=i), ``sign_im=+1`` the
    primed pair ([q',p']=-i).  Returns ((s, x, y), ...) for the Gaussian
    integer coefficients x + y i.
    """
    out = []
    for s in range(min(j, k) + 1):
        size = math.comb(k, s) * math.comb(j, s) * math.factorial(s)
        re, im = _I_POWERS[s % 4]
        out.append((s, size * re, size * im * sign_im**s))
    return tuple(out)


@lru_cache(maxsize=8192)
def _mul_keys(a: MonomialKey, b: MonomialKey) -> tuple[tuple[MonomialKey, int, int], ...]:
    """Product of canonical monomials, reduced to canonical form: the one reordering rule.

    Returns ((key, x, y), ...) for the Gaussian integer coefficients x + y i.
    """
    j1, k1, l1, m1 = a
    j2, k2, l2, m2 = b
    out = []
    for s, xs, ys in _reorder_coeffs(k1, j2, -1):
        for t, xt, yt in _reorder_coeffs(m1, l2, +1):
            key = (j1 + j2 - s, k1 + k2 - s, l1 + l2 - t, m1 + m2 - t)
            out.append((key, xs * xt - ys * yt, xs * yt + ys * xt))
    return tuple(out)


def _monomial_key(key) -> MonomialKey:
    """``key`` as a tuple; ValueError unless it is four nonnegative ints."""
    key = tuple(key)
    if len(key) != 4 or not all(type(e) is int and e >= 0 for e in key):
        raise ValueError(f"a monomial key is four nonnegative ints, got {key!r}")
    return key


class AlgebraElement:
    """Exact linear combination of canonical monomials q^j p^k q'^l p'^m."""

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: dict[MonomialKey, ComplexRational] | None = None):
        parts = {}
        for key, coeff in (terms or {}).items():
            key, c = _monomial_key(key), _coerce(coeff)
            if c is NotImplemented:
                raise TypeError(f"bad coefficient {coeff!r}")
            if c:
                parts[key] = c
        # reduced coefficients over their lcm are already in lowest terms
        den = math.lcm(*(c._d for c in parts.values()))
        numerators = {key: (c._x * (den // c._d), c._y * (den // c._d)) for key, c in parts.items()}
        object.__setattr__(self, "_terms", numerators)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    @classmethod
    def monomial(cls, key: MonomialKey, coeff=ONE) -> "AlgebraElement":
        return cls({tuple(key): coeff})

    # -- inspection -----------------------------------------------------------

    @property
    def terms(self) -> dict[MonomialKey, ComplexRational]:
        den = self._den
        return {key: _reduced(x, y, den) for key, (x, y) in self._terms.items()}

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(key) for key in self._terms)

    # -- algebra --------------------------------------------------------------

    def __add__(self, other):
        other = _coerce_element(other)
        if other is NotImplemented:
            return NotImplemented
        den = math.lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        terms = {key: (x * fa, y * fa) for key, (x, y) in self._terms.items()}
        for key, (x, y) in other._terms.items():
            old = terms.get(key)
            terms[key] = (x * fb, y * fb) if old is None else (old[0] + x * fb, old[1] + y * fb)
        return _element(terms, den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_element(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_element(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return _make_element({key: (-x, -y) for key, (x, y) in self._terms.items()}, self._den)

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            scalar = _coerce(other)
            if scalar is NotImplemented:
                return NotImplemented
            sx, sy = scalar._x, scalar._y
            terms = {key: (x * sx - y * sy, x * sy + y * sx) for key, (x, y) in self._terms.items()}
            return _element(terms, self._den * scalar._d)
        return self._times(other, TERM_LIMIT)[0]

    __rmul__ = __mul__  # reached only for a scalar on the left, and scalars commute

    def _times(self, other: "AlgebraElement", budget: int) -> tuple["AlgebraElement", int]:
        """The product and the number of terms it built, refused past ``budget`` built terms."""
        right = other._terms.items()
        # each pair of terms builds at least one
        if len(self._terms) * len(right) > budget:
            raise ProductSizeError(f"product building more than {TERM_LIMIT} terms")
        pairs = (
            (xa * xb - ya * yb, xa * yb + ya * xb, ka, kb)
            for ka, (xa, ya) in self._terms.items()
            for kb, (xb, yb) in right
        )
        return _reordered(pairs, self._den * other._den, budget)

    def __pow__(self, n: int) -> "AlgebraElement":
        """Left-to-right product of n copies; n must be a nonnegative int."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        return product(itertools.repeat(self, n))

    def __eq__(self, other):
        other = _coerce_element(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __str__(self):
        if not self._terms:
            return "0"
        den, parts = self._den, []
        for key in sorted(self._terms, key=lambda k: (sum(k), k)):
            x, y = self._terms[key]
            mono = _format_monomial(key)
            if not mono:
                parts.append(f"({_format(x, y, den)})")
            elif x == den and y == 0:
                parts.append(mono)
            else:
                parts.append(f"({_format(x, y, den)}) {mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"AlgebraElement({self})"


_set_terms = AlgebraElement._terms.__set__
_set_den = AlgebraElement._den.__set__


def _make_element(terms: dict, den: int) -> AlgebraElement:
    """Element from nonzero numerators {key: (x, y)} over ``den``, already in lowest terms."""
    e = object.__new__(AlgebraElement)
    _set_terms(e, terms)
    _set_den(e, den)
    return e


def _element(terms: dict, den: int) -> AlgebraElement:
    """Element from numerators {key: (x, y)} over ``den`` > 0: zero terms dropped, lowest terms by one gcd."""
    terms = {key: pair for key, pair in terms.items() if pair[0] or pair[1]}
    if not terms:
        den = 1
    elif den != 1:
        g = math.gcd(den, *itertools.chain.from_iterable(terms.values()))
        if g != 1:
            den //= g
            terms = {key: (x // g, y // g) for key, (x, y) in terms.items()}
    return _make_element(terms, den)


def _coerce_element(value):
    if isinstance(value, AlgebraElement):
        return value
    scalar = _coerce(value)
    if scalar is NotImplemented:
        return NotImplemented
    return AlgebraElement({_UNIT_KEY: scalar})


_LETTERS = ("q", "p", "q'", "p'")


def _format_monomial(key: MonomialKey) -> str:
    """The letters of a monomial, as ``q^2 p q'``; the unit has none."""
    return " ".join(letter if exp == 1 else f"{letter}^{exp}" for letter, exp in zip(_LETTERS, key) if exp)


Q = AlgebraElement.monomial((1, 0, 0, 0))
P = AlgebraElement.monomial((0, 1, 0, 0))
Q_PRIME = AlgebraElement.monomial((0, 0, 1, 0))
P_PRIME = AlgebraElement.monomial((0, 0, 0, 1))
UNIT = AlgebraElement.monomial(_UNIT_KEY)
_GENERATOR_ELEMENTS = (Q, P, Q_PRIME, P_PRIME)


def product(factors) -> AlgebraElement:
    """Left-to-right product of ``factors`` (UNIT for none), its multiplications sharing one TERM_LIMIT budget."""
    factors = iter(factors)
    result = next(factors, UNIT)
    budget = TERM_LIMIT
    for factor in factors:
        result, built = result._times(factor, budget)
        budget -= built
    return result


def normal_order(word) -> AlgebraElement:
    """Reduce a generator word (left to right product) of at most DEFAULT_WORD_LIMIT letters to canonical form.

    The q, p pair commutes with the q', p' pair, so the word is the product of
    its q, p letters in their order times its q', p' letters in theirs: each
    pair is ordered alone, and the two results multiply once.  Each of these
    three products has a TERM_LIMIT budget of its own, so a word's
    multiplications do not share one; a single-pair product of at most
    DEFAULT_WORD_LIMIT letters builds a few hundred terms, far below it.
    """
    word = list(word)
    if len(word) > DEFAULT_WORD_LIMIT:
        raise WordLengthError(f"word of length {len(word)} exceeds bound {DEFAULT_WORD_LIMIT}")
    word = [Generator(g) for g in word]
    unprimed = product(_GENERATOR_ELEMENTS[g] for g in word if g < Generator.Q_PRIME)
    return unprimed * product(_GENERATOR_ELEMENTS[g] for g in word if g >= Generator.Q_PRIME)


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return a * b - b * a


def _reordered(products, den: int, budget: float = math.inf) -> tuple[AlgebraElement, int]:
    """Sum over (x, y, a, b) of (x + y i)/den times the canonical form of the product a b.

    Returns the sum and the number of terms it built; past ``budget`` built
    terms it raises ProductSizeError.
    """
    terms: dict[MonomialKey, tuple[int, int]] = {}
    get = terms.get
    built = 0
    for x, y, a, b in products:
        reduced = _mul_keys(a, b)
        built += len(reduced)
        if built > budget:
            raise ProductSizeError(f"product building more than {TERM_LIMIT} terms")
        for key, rx, ry in reduced:
            old = get(key)
            if old is None:
                terms[key] = (x * rx - y * ry, x * ry + y * rx)
            else:
                terms[key] = (old[0] + x * rx - y * ry, old[1] + x * ry + y * rx)
    return _element(terms, den), built


def adjoint(e: AlgebraElement) -> AlgebraElement:
    """Antilinear *-operation: conjugate coefficients, reverse each monomial."""
    # the reversed word p'^m q'^l p^k q^j is the product (p^k p'^m)(q^j q'^l)
    return _reordered(
        ((x, -y, (0, k, 0, m), (j, 0, l, 0)) for (j, k, l, m), (x, y) in e._terms.items()), e._den
    )[0]


def evolve(e: AlgebraElement, t) -> AlgebraElement:
    """Free time evolution: q -> q + t p, p -> p, q' -> q' - t p', p' -> p'."""
    t = Fraction(t)
    if t == 0:
        return e
    img_q = Q + P * t
    img_qp = Q_PRIME - P_PRIME * t
    images = (img_q**j * P**k * img_qp**l * P_PRIME**m * c for (j, k, l, m), c in e.terms.items())
    return sum(images, AlgebraElement())


def metric_conjugate(e: AlgebraElement) -> AlgebraElement:
    """Krein-metric conjugation: the involutive automorphism q <-> p', p <-> q'."""
    # the image word p'^j q'^k p^l q^m is the product (p^l p'^j)(q^m q'^k)
    return _reordered(
        ((x, y, (0, l, 0, j), (m, 0, k, 0)) for (j, k, l, m), (x, y) in e._terms.items()), e._den
    )[0]


def scale_transform(e: AlgebraElement, lam) -> AlgebraElement:
    """Scale automorphism q -> lam q, p -> lam^-1 p (and mirrored on primes)."""
    lam = Fraction(lam)
    if lam == 0:
        raise ValueError("scale parameter must be nonzero")
    return AlgebraElement({(j, k, l, m): c * lam ** (j - k + l - m) for (j, k, l, m), c in e.terms.items()})


# -- state ---------------------------------------------------------------------


@dataclass(frozen=True)
class CovarianceTable:
    """Ordered two-point values of the invariant Gaussian functional.

    The unprimed block is (q^2 -> c, p^2 -> 0, qp -> i/2, pq -> -i/2) and the
    primed block mirrors it with the opposite commutator sign.  The cross
    block is fixed by the annihilation relations (q + i q')|0> = 0 and
    (p - i p')|0> = 0, which are solvable jointly with hermiticity and
    vanishing mixed commutators only for c = 0; the resulting cross values
    (qq' -> 0, qp' -> 1/2, pq' -> 1/2, pp' -> 0) are kept for every c so the
    table stays a consistent functional on the extended algebra.

    The values are kept as Gaussian-integer numerators (x, y) over the one
    denominator D = lcm(2, den c), zero entries as the int 0, so a moment of
    degree 2n is a Gaussian integer over D^n; the int c D, the numerator of
    q^2, is kept too.

    Moments of normal-ordered monomials q^j p^k q'^l p'^m have a closed form.
    Each pair takes the value of its (earlier, later) generators.  Momentum
    pairs (p p, p p', p' p') and q q' are 0, so every p and p' pairs with a q
    or a q', worth D/2 times i (q p), 1 (p q'), 1 (q p') or -i (q' p').  Let a
    of the k p's and b of the m p''s pair with a q, u = a + b; the Vandermonde
    sum of C(k,a) C(m,b) i^(a+3(m-b)) over a + b = u is (-i)^m i^u C(k+m, u).
    The u momenta take distinct q's, j!/(j-u)! ways, the other k+m-u distinct
    q''s, l!/r! ways with r = l-(k+m-u), and the j-u q's and r q''s left over
    match among themselves, (j-u-1)!! (r-1)!! ways of cD a pair:

        D^n <q^j p^k q'^l p'^m> = (-i)^m (D/2)^(k+m) (cD)^((j+l-k-m)/2)
            * sum_u C(k+m, u) i^u j!/(j-u)! l!/r! (j-u-1)!! (r-1)!!,

    over the u with j-u and r even and >= 0.  No memo: the sum has at most
    min(j, k+m)/2 + 1 terms, each the one before times i^2 and the exact
    ratio (k+m-u)(k+m-u-1)(j-u) / ((u+1)(u+2)(r+2)) of small ints.
    """

    c: Fraction = Fraction(0)
    _den: int = field(init=False, repr=False, compare=False)
    _cd: int = field(init=False, repr=False, compare=False)
    _table: tuple = field(init=False, repr=False, compare=False)
    _size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = Fraction(self.c)
        object.__setattr__(self, "c", c)
        den = math.lcm(2, c.denominator)
        cd = c.numerator * (den // c.denominator)
        num_c = (cd, 0) if cd else 0
        half = (den // 2, 0)
        table = (
            (num_c, (0, den // 2), 0, half),
            ((0, -den // 2), 0, half, 0),
            (0, half, num_c, (0, -den // 2)),
            (half, 0, (0, den // 2), 0),
        )
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_cd", cd)
        object.__setattr__(self, "_table", table)
        # the largest |x| + |y| of a value: wick_value's digit width grows with it
        object.__setattr__(self, "_size", max(abs(x) + abs(y) for row in table for x, y in filter(None, row)))

    def moment(self, key: MonomialKey) -> ComplexRational:
        """State value on the normal-ordered monomial q^j p^k q'^l p'^m of ``key``."""
        key = _monomial_key(key)
        if sum(key) % 2:
            return ZERO
        return _reduced(*self._numerator(key), self._den ** (sum(key) // 2))

    def _numerator(self, key: MonomialKey) -> tuple[int, int]:
        """The moment of ``key``, of even degree 2n, times D^n: the closed form above."""
        j, k, l, m = key
        n = k + m
        if n > j + l:  # some momentum finds no q or q'
            return 0, 0
        low = max(0, n - l)
        first = low + (j - low) % 2
        if first > min(j, n):
            return 0, 0
        weight = math.comb(n, first) * math.perm(j, first) * math.perm(l, n - first)
        weight *= _matchings(j - first) * _matchings(l - n + first)
        total = 0  # sum of the weights with sign i^(u - first)
        for u in range(first, min(j, n) + 1, 2):
            total += weight if (u - first) % 4 == 0 else -weight
            weight = weight * (n - u) * (n - u - 1) * (j - u) // ((u + 1) * (u + 2) * (l - n + u + 2))
        re, im = _I_POWERS[(first + 3 * m) % 4]
        scale = (self._den // 2) ** n * self._cd ** ((j + l - n) // 2)
        return total * re * scale, total * im * scale


def _matchings(count: int) -> int:
    """(count - 1)!!, the number of perfect matchings of an even ``count`` of items."""
    half = count // 2
    return math.factorial(count) // (math.factorial(half) << half)


def pair_partition_sum(items, pair):
    """Sum over the perfect matchings of ``items`` of the products of pair values.

    Each pair contributes ``pair(earlier, later)``; pairs whose value is zero
    are skipped and an odd number of items gives 0.  ``pair`` must be pure,
    and items equal under ``==`` are interchangeable: they share one label,
    and ``pair`` sees the first of them (so 0.0 and -0.0 merge).

    One left-to-right pass over a state that counts the open (not yet paired)
    items of each label.  An item either opens, or closes one of the count_t
    open items of a label t, which multiplies by count_t * pair(t, item): the
    open items of one label are interchangeable.  A state is an int, a mixed
    radix over the label multiplicities (a bitmask when every item is
    distinct) above a lowest digit that holds the total open count, so the
    pruning reads one digit: a state with as many open items as items left
    cannot open another.  The sum is the weight of the all-closed state.
    There are at most prod(m_t + 1) states for multiplicities m_t: polynomial
    in the length for a fixed number of labels, 2^n subsets for n distinct
    items.  The sum starts from the ints 0 and 1, so it takes the type of the
    pair values (an int when no matching contributes).
    """
    items = tuple(items)
    n = len(items)
    if n % 2:
        return 0
    spans = {}  # label -> [first position, last position, multiplicity], in order of first appearance
    for pos, x in enumerate(items):
        span = spans.get(x)
        if span is None:
            spans[x] = [pos, pos, 1]
        else:
            span[1] = pos
            span[2] += 1
    counted = n // 2 + 1  # radix of the open-count digit
    digits = []  # (label, first position, last position, place value, radix), one digit per label
    place = counted
    for x, (first, last, multiplicity) in spans.items():
        digits.append((x, first, last, place, multiplicity + 1))
        place *= multiplicity + 1
    moves = {}  # label -> (key step to open one, [(place, radix, key step, pair value)] of the labels it closes)
    for x, _, last, place, _ in digits:
        closes = [
            (at, radix, at + 1, value) for y, first, _, at, radix in digits if first < last and (value := pair(y, x))
        ]
        moves[x] = (place + 1, closes)
    states = {0: 1}
    left = n
    for x in items:
        left -= 1
        opening, closes = moves[x]
        after = {}
        for key, weight in states.items():
            still_open = key % counted
            if still_open:
                for at, radix, step, value in closes:
                    count = key // at % radix
                    if count:
                        target = key - step
                        after[target] = after.get(target, 0) + weight * count * value
            if still_open < left:
                target = key + opening
                after[target] = after.get(target, 0) + weight
        states = after
    return states.get(0, 0)


def wick_value(word, table: CovarianceTable) -> ComplexRational:
    """Evaluate the state on an ordered generator word by pair partitions.

    Sums over perfect matchings of the word, each pair contributing the
    ordered two-point value of its (earlier, later) generators; odd words
    vanish.
    """
    items = tuple(g if type(g) is Generator else Generator(g) for g in word)
    half = len(items) // 2
    if len(items) % 2:
        return ZERO
    # Kronecker substitution: the numerator x + y i of each pair value over D
    # becomes the int x + y 2^bits, so the engine sums plain ints.  The sum is
    # the polynomial sum_k a_k X^k, whose value at X = i is the Wick sum,
    # evaluated at X = 2^bits instead.  Each |a_k| is at most
    # (n-1)!! max(|x| + |y|)^(n/2) < 2^(bits-1), so the signed base-2^bits
    # digits of the sum are the a_k, and i^k folds them back into x + y i.
    bits = (math.prod(range(len(items) - 1, 0, -2)) * table._size**half).bit_length() + 1
    encoded = [[v and v[0] + (v[1] << bits) for v in row] for row in table._table]
    total = pair_partition_sum(items, lambda a, b: encoded[a][b])
    x = y = 0
    for k in range(half + 1):
        digit = total & ((1 << bits) - 1)
        if digit >> (bits - 1):
            digit -= 1 << bits
        total = (total - digit) >> bits
        re, im = _I_POWERS[k % 4]
        x += digit * re
        y += digit * im
    return _reduced(x, y, table._den**half)


def omega(e: AlgebraElement, table: CovarianceTable) -> ComplexRational:
    """State value on an algebra element: linear over the table's monomial moments.

    Each moment of degree 2n is a numerator over D^n, so the sum is taken over
    D^h for the largest such h, times the element's denominator.
    """
    even = [(key, pair, sum(key) // 2) for key, pair in e._terms.items() if sum(key) % 2 == 0]
    if not even:
        return ZERO
    top = max(half for _, _, half in even)
    x = y = 0
    for key, (cx, cy), half in even:
        mx, my = table._numerator(key)
        scale = table._den ** (top - half)
        x += (cx * mx - cy * my) * scale
        y += (cx * my + cy * mx) * scale
    return _reduced(x, y, e._den * table._den**top)


def gns_inner(u: AlgebraElement, v: AlgebraElement, table: CovarianceTable) -> ComplexRational:
    """Indefinite inner product <A|0>, B|0>> = omega(A* B) of the GNS vectors labelled A and B."""
    return omega(adjoint(u) * v, table)


# -- modular structure (c = 0) ---------------------------------------------------


def _modular_phases(e: AlgebraElement, sign: int) -> AlgebraElement:
    """Phase (sign i)^a (-sign i)^b of each p^a q^b.  It is (sign i)^k (-sign i)^j on every
    term of q^j p^k = sum_s C(j,s) C(k,s) s! i^s p^(k-s) q^(j-s), since i (-i) = 1."""
    terms = {}
    for (j, k, l, m), c in e.terms.items():
        if l or m:
            raise UnsupportedDomainError("modular maps are defined on the unprimed subalgebra")
        terms[(j, k, l, m)] = c * (I * sign) ** k * (I * -sign) ** j
    return AlgebraElement(terms)


def modular_sqrt(e: AlgebraElement) -> AlgebraElement:
    """Square root of the modular operator: p^k q^j |0> -> i^k (-i)^j p^k q^j |0>."""
    return _modular_phases(e, +1)


def modular_inv_sqrt(e: AlgebraElement) -> AlgebraElement:
    """Inverse square root: the i <-> -i swapped phases."""
    return _modular_phases(e, -1)


def modular_conjugation(e: AlgebraElement) -> AlgebraElement:
    """Antiunitary conjugation J, the adjoint map composed after inverse sqrt."""
    return adjoint(modular_inv_sqrt(e))


# -- distinguished elements -------------------------------------------------------


def hamiltonian() -> AlgebraElement:
    """Free Hamiltonian (p^2 + p'^2)/2 annihilating the ground state."""
    return (P * P + P_PRIME * P_PRIME) * Fraction(1, 2)


def fock_a() -> AlgebraElement:
    """Annihilator of the Fock factor: a = (q + i p + i q' + p')/2, a|0> = 0."""
    return (Q + I * P + I * Q_PRIME + P_PRIME) * Fraction(1, 2)


def fock_b() -> AlgebraElement:
    """Anti-Fock partner: b = (q + i p - i q' - p')/2 with b*|0> = 0."""
    return (Q + I * P - I * Q_PRIME - P_PRIME) * Fraction(1, 2)


def commutant_pair_plus() -> tuple[AlgebraElement, AlgebraElement]:
    """Canonical pair (q + p', p + q'), scaled by sqrt(2) to stay rational."""
    return Q + P_PRIME, P + Q_PRIME


def commutant_pair_minus() -> tuple[AlgebraElement, AlgebraElement]:
    """Pseudo-canonical pair (q - p', -p + q'), scaled by sqrt(2)."""
    return Q - P_PRIME, -P + Q_PRIME


# -- desk-scale witnesses ----------------------------------------------------------


def _qp_basis_keys(max_degree: int) -> list[MonomialKey]:
    keys = []
    for d in range(max_degree + 1):
        for j in range(d, -1, -1):
            keys.append((j, d - j, 0, 0))
    return keys


def _exact_det(rows: list[list[ComplexRational]]) -> ComplexRational:
    """Determinant by Gaussian elimination in ComplexRational arithmetic: the pivot is the first
    nonzero entry at or below the diagonal, a swap negates the determinant, and a zero under the
    pivot or in the pivot row (most entries of a sparse moment matrix) spares its row or column."""
    matrix = [list(row) for row in rows]
    n = len(matrix)
    det = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if matrix[r][col]), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
            det = -det
        top = matrix[col]
        det = det * top[col]
        for row in matrix[col + 1 :]:
            if row[col]:
                factor = row[col] / top[col]
                for c in range(col + 1, n):
                    if top[c]:
                        row[c] = row[c] - factor * top[c]
    return det


def moment_matrix(max_degree: int, table: CovarianceTable) -> GramMatrix:
    """Gram matrix of the monomial labels q^j p^k, j+k <= max_degree.

    The determinant is computed exactly (faithfulness witness); the
    eigen-signature is a floating-point diagnostic.
    """
    if max_degree > 6:
        raise ValueError("moment_matrix is a desk-scale witness; max_degree <= 6")
    keys = _qp_basis_keys(max_degree)
    basis = [AlgebraElement.monomial(k) for k in keys]
    adjoints = [adjoint(b) for b in basis]
    exact = [[omega(adjoints[i] * basis[j], table) for j in range(len(basis))] for i in range(len(basis))]
    entries = np.array([[v.to_complex() for v in row] for row in exact])
    signature, eigenvalues = gram_signature(entries)
    return GramMatrix(
        entries=entries,
        signature=signature,
        eigenvalues=eigenvalues,
        det_exact=_exact_det(exact),
    )


def weyl_moment_partial_sum(alpha, beta, order: int, c=Fraction(0)) -> complex:
    """Partial sum of the double exponential series for <e^{i alpha q} e^{i beta p}>.

    Sums (i alpha)^n (i beta)^m / (n! m!) <q^n p^m> for n, m <= order with
    exact moment values, floating each term only on accumulation; at c = 0 the
    sum telescopes to sum_n (-i alpha beta / 2)^n / n! -> e^{-i alpha beta/2}.
    """
    if order > 64:
        raise ValueError("partial-sum order is capped at 64")
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    table = CovarianceTable(c)

    total = 0j
    ia = ComplexRational(0, alpha)
    ib = ComplexRational(0, beta)
    for n in range(order + 1):
        for m in range(order + 1):
            moment = table.moment((n, m, 0, 0))
            if not moment:
                continue
            term = ia**n * ib**m * moment / ComplexRational(math.factorial(n) * math.factorial(m))
            total += term.to_complex()
    return total
