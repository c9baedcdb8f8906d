"""Exact complex numbers with rational real and imaginary parts.

All identities of the symbolic algebra layer are rational in the end, so the
coefficient field is Q + iQ rather than floating point.  A value
``(x + y i) / d`` is stored as three ints with ``d > 0`` and
``gcd(x, y, d) = 1``, so each operation takes one gcd (the integer-rational
technique of Knuth, TAOCP vol. 2, section 4.5.1) and no ``Fraction`` is built
on the arithmetic or printing path.  Values are immutable and hashable, and
print as ``a/b+c/d i``, straight from the three ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class ComplexRational:
    """Immutable complex number ``re + im*i`` with exact rational parts."""

    __slots__ = ("_x", "_y", "_d")

    def __new__(cls, re=0, im=0):
        if type(re) is int and type(im) is int:
            return _make(re, im, 1)
        re = Fraction(re)
        im = Fraction(im)
        return _reduced(re.numerator * im.denominator, im.numerator * re.denominator, re.denominator * im.denominator)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    def __reduce__(self):
        return _make, (self._x, self._y, self._d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._x, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._y, self._d)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._x + other._x, self._y + other._y, d1)
        return _reduced(self._x * d2 + other._x * d1, self._y * d2 + other._y * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + -self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        x1, y1, x2, y2 = self._x, self._y, other._x, other._y
        return _reduced(x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        x1, y1, x2, y2 = self._x, self._y, other._x, other._y
        norm = x2 * x2 + y2 * y2
        if norm == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        d2 = other._d
        return _reduced((x1 * x2 + y1 * y2) * d2, (y1 * x2 - x1 * y2) * d2, self._d * norm)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _make(-self._x, -self._y, self._d)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "ComplexRational":
        return _make(self._x, -self._y, self._d)

    # -- comparisons / conversions ------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._x == other._x and self._y == other._y and self._d == other._d

    def __hash__(self):
        # a real value hashes as its Fraction, so hashes agree with int and Fraction
        return hash(self.re) if self._y == 0 else hash((self.re, self.im))

    def __bool__(self):
        return self._x != 0 or self._y != 0

    def to_complex(self) -> complex:
        # int true division rounds correctly, as Fraction.__float__ does
        return complex(self._x / self._d, self._y / self._d)

    def __complex__(self):
        return self.to_complex()

    def __str__(self):
        return _format(self._x, self._y, self._d)

    def __repr__(self):
        return f"ComplexRational('{self}')"


_new = object.__new__
_set_x = ComplexRational._x.__set__
_set_y = ComplexRational._y.__set__
_set_d = ComplexRational._d.__set__


def _make(x: int, y: int, d: int) -> ComplexRational:
    """(x + y i)/d from parts already in lowest terms, d > 0."""
    z = _new(ComplexRational)
    _set_x(z, x)
    _set_y(z, y)
    _set_d(z, d)
    return z


def _reduced(x: int, y: int, d: int) -> ComplexRational:
    """(x + y i)/d brought to lowest terms by one gcd; d must be positive."""
    g = gcd(x, y, d)
    if g != 1:
        x, y, d = x // g, y // g, d // g
    return _make(x, y, d)


def _ratio(n: int, d: int) -> str:
    """n/d in lowest terms as Fraction prints it: ``n`` when d divides n, else ``n/d``."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _format(x: int, y: int, d: int) -> str:
    """(x + y i)/d, d > 0, as ``a/b+c/d i``: one gcd per nonzero part, whether or not x, y, d share a factor."""
    if y == 0:
        return _ratio(x, d)
    imag = "i" if abs(y) == d else _ratio(abs(y), d) + " i"
    if x == 0:
        return imag if y > 0 else "-" + imag
    return _ratio(x, d) + ("+" if y > 0 else "-") + imag


def _coerce(value):
    """``value`` as a ComplexRational, built from an int's or a Fraction's own parts (no gcd); NotImplemented for any other type."""
    if isinstance(value, ComplexRational):
        return value
    if isinstance(value, int):
        return _make(int(value), 0, 1)
    if isinstance(value, Fraction):
        return _make(value.numerator, 0, value.denominator)
    return NotImplemented


ZERO = ComplexRational(0)
ONE = ComplexRational(1)
I = ComplexRational(0, 1)
