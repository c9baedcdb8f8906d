"""Exact complex numbers with rational real and imaginary parts.

All identities of the symbolic algebra layer are rational in the end, so the
coefficient field is Q + iQ rather than floating point.  Values are immutable
and hashable; they serialize as ``a/b+c/d i`` and round-trip through
:func:`parse_complex_rational`.
"""

from __future__ import annotations

from fractions import Fraction

_RAT_TYPES = (int, Fraction)


class ComplexRational:
    """Immutable complex number ``re + im*i`` with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexRational(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return ComplexRational(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

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
        return ComplexRational(self.re, -self.im)

    # -- comparisons / conversions ------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __complex__(self):
        return self.to_complex()

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        imag = f"{abs(self.im)} i" if abs(self.im) != 1 else "i"
        if self.re == 0:
            return imag if self.im > 0 else "-" + imag
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{imag}"

    def __repr__(self):
        return f"ComplexRational('{self}')"


def _coerce(value):
    if isinstance(value, ComplexRational):
        return value
    if isinstance(value, _RAT_TYPES):
        return ComplexRational(value)
    return NotImplemented


def parse_complex_rational(text: str) -> ComplexRational:
    """Parse the ``a/b+c/d i`` serialization (either part may be absent)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex-rational literal")
    if not s.endswith("i"):
        return ComplexRational(Fraction(s))
    body = s[:-1]
    # split real and imaginary at the last top-level +/- (skip a leading sign)
    split = None
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "+-/":
            split = pos
            break
    if split is None:
        imag = body if body not in ("", "+", "-") else body + "1"
        return ComplexRational(0, Fraction(imag))
    real, imag = body[:split], body[split:]
    if imag in ("+", "-"):
        imag += "1"
    return ComplexRational(Fraction(real), Fraction(imag))


ZERO = ComplexRational(0)
ONE = ComplexRational(1)
I = ComplexRational(0, 1)
