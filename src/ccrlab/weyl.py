"""Symbolic Weyl algebra with the non-regular translation-invariant state.

Weyl symbols W(a, b) multiply through the symplectic phase
``W(a,b) W(g,d) = exp(i(bg - ad)/2) W(a+g, b+d)``; the ground state sends
W(a, b) to 0 unless a = 0 and to 1 otherwise.  Labels are exact rationals so
the charge-conservation test ``sum(a_i) = 0`` in the n-point formulas is
exact; float entry points are rounded to rationals with denominator at most
10**9.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

LABEL_DENOMINATOR_LIMIT = 10**9

Label = tuple[Fraction, Fraction]


def to_label_fraction(x) -> Fraction:
    """Exact labels for int/Fraction/str; floats rounded (denominator <= 1e9)."""
    if isinstance(x, (int, Fraction, str)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(LABEL_DENOMINATOR_LIMIT)
    raise TypeError(f"cannot use {x!r} as a Weyl label")


def symplectic_phase(u: Label, v: Label) -> Fraction:
    """Exact phase angle (b g - a d)/2 of W(a,b) W(g,d)."""
    (a, b), (g, d) = u, v
    return (b * g - a * d) / 2


class WeylElement:
    """Finite complex linear combination of Weyl symbols."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Label, complex] | None = None):
        clean: dict[Label, complex] = {}
        if terms:
            for label, coeff in terms.items():
                if coeff != 0:
                    clean[label] = complex(coeff)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("WeylElement is immutable")

    @property
    def terms(self) -> dict[Label, complex]:
        return dict(self._terms)

    def __add__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        terms = dict(self._terms)
        for label, coeff in other._terms.items():
            terms[label] = terms.get(label, 0j) + coeff
        return WeylElement(terms)

    def __sub__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, WeylElement):
            return weyl_product(self, other)
        if isinstance(other, (int, float, complex)):
            return WeylElement({l: c * other for l, c in self._terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def star(self) -> "WeylElement":
        return weyl_star(self)

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self._terms == other._terms

    def __str__(self):
        if not self._terms:
            return "0"
        parts = [
            f"({coeff:.12g}) W({float(a):g},{float(b):g})"
            for (a, b), coeff in sorted(self._terms.items())
        ]
        return " + ".join(parts)

    __repr__ = __str__


def weyl_symbol(alpha, beta, coeff: complex = 1.0) -> WeylElement:
    return WeylElement({(to_label_fraction(alpha), to_label_fraction(beta)): coeff})


WEYL_UNIT = weyl_symbol(0, 0)


def weyl_product(u: WeylElement, v: WeylElement) -> WeylElement:
    terms: dict[Label, complex] = {}
    for lu, cu in u.terms.items():
        for lv, cv in v.terms.items():
            label = (lu[0] + lv[0], lu[1] + lv[1])
            phase = cmath.exp(1j * float(symplectic_phase(lu, lv)))
            terms[label] = terms.get(label, 0j) + cu * cv * phase
    return WeylElement(terms)


def weyl_star(u: WeylElement) -> WeylElement:
    """Adjoint: conjugate coefficients, W(a,b) -> W(-a,-b)."""
    return WeylElement({(-a, -b): coeff.conjugate() for (a, b), coeff in u.terms.items()})


def omega_expectation(u: WeylElement) -> complex:
    """Ground state value: keeps exactly the charge-zero symbols."""
    return sum((c for (a, _b), c in u.terms.items() if a == 0), 0j)


def evolve_weyl(u: WeylElement, t) -> WeylElement:
    """Free evolution W(a, b) -> W(a, b + a t); phase-free on the symbols."""
    t = to_label_fraction(t)
    return WeylElement({(a, b + a * t): c for (a, b), c in u.terms.items()})


def _neutral_labels(alphas, points, name: str) -> list[Fraction] | None:
    """The labels of an n-point function as exact rationals, or None when their sum is not 0.

    Refuses labels and points of different lengths, and no points at all; a
    nonzero label sum (the charge) makes the n-point function vanish.
    """
    labels = [to_label_fraction(a) for a in alphas]
    if len(labels) != len(points):
        raise ValueError(f"alphas and {name} must have equal length")
    if not labels:
        raise ValueError("need at least one point")
    return labels if sum(labels) == 0 else None


def wightman_npoint(alphas, times) -> complex:
    """Ground state n-point function of the evolved exponentials of position.

    Vanishes unless the labels sum to zero (exact test); otherwise the value
    is exp(i sum_{i>=2} (t_i - t_{i-1}) (sum_{k>=i} a_k)^2 / 2).  Times may be
    complex, which realizes the analytic continuation to euclidean points.
    """
    times = list(times)
    alphas = _neutral_labels(alphas, times, "times")
    if alphas is None:
        return 0j
    exponent = 0j
    suffix = Fraction(0)
    for i in range(len(alphas) - 1, 0, -1):
        suffix += alphas[i]
        exponent += (complex(times[i]) - complex(times[i - 1])) * float(suffix * suffix)
    return cmath.exp(0.5j * exponent)


def schwinger_npoint(alphas, taus) -> float:
    """Euclidean n-point function, extended by symmetry to all time orders."""
    taus = [float(t) for t in taus]
    alphas = _neutral_labels(alphas, taus, "taus")
    if alphas is None:
        return 0.0
    order = sorted(range(len(taus)), key=lambda i: taus[i])
    exponent = 0.0
    suffix = Fraction(0)
    for pos in range(len(order) - 1, 0, -1):
        suffix += alphas[order[pos]]
        exponent += (taus[order[pos]] - taus[order[pos - 1]]) * float(suffix * suffix)
    return math.exp(-0.5 * exponent)


def spectral_support(alpha, beta, gamma, delta) -> list[tuple[float, complex]]:
    """Frequency content of t -> <W(alpha,beta) evolved W(gamma,delta)>.

    The expectation is a single oscillation exp(i nu t) when gamma = -alpha
    and vanishes identically otherwise; every returned frequency is
    nonnegative (energy positivity of the non-regular ground state).
    """
    a = to_label_fraction(alpha)
    b = to_label_fraction(beta)
    g = to_label_fraction(gamma)
    d = to_label_fraction(delta)
    if a + g != 0:
        return []
    frequency = float(a * a / 2)
    coeff = cmath.exp(-1j * float(a) * float(b + d) / 2)
    return [(frequency, coeff)]


def os_positivity_matrix(pairs) -> np.ndarray:
    """Matrix of euclidean two-point values for reflected pairs.

    For a family {(a_i, tau_i >= 0)} the entry (i, j) is the two-point
    Schwinger value of the reflected-and-conjugated i-th symbol against the
    j-th one; reflection positivity makes the matrix positive semidefinite.
    """
    entries = np.zeros((len(pairs), len(pairs)), dtype=complex)
    for i, (ai, ti) in enumerate(pairs):
        if float(ti) < 0:
            raise ValueError("reflection positivity needs nonnegative times")
        for j, (aj, tj) in enumerate(pairs):
            entries[i, j] = schwinger_npoint([-ai, aj], [-float(ti), float(tj)])
    return entries
