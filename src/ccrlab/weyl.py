"""The Weyl algebra on labels, with the non-regular translation-invariant state.

A Weyl symbol is its label (a, b).  Symbols multiply through the exact
symplectic phase, ``W(u) W(v) = exp(i sigma(u, v)) W(u + v)``; free evolution
moves the label, ``W(a, b) -> W(a, b + a t)``; the ground state sends W(a, b)
to 1 when the charge a is 0 and to 0 otherwise.  Labels are exact rationals so
the charge test, ``sum(a_i) = 0`` in the n-point formulas, is exact; float
entry points are rounded to rationals with denominator at most 10**9.
"""

from __future__ import annotations

import cmath
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


def evolve_weyl(label: Label, t) -> Label:
    """Free evolution W(a, b) -> W(a, b + a t), exact on the label."""
    a, b = label
    return a, b + a * to_label_fraction(t)


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
    """Euclidean n-point function, extended by symmetry to all time orders.

    The Wightman function at the imaginary times t_k = i tau_k, in ascending
    tau: the phases e^{i H t} between the symbols become the decaying
    e^{-(tau_k - tau_{k-1}) H}, so the value is real.
    """
    taus = [float(t) for t in taus]
    alphas = _neutral_labels(alphas, taus, "taus")
    if alphas is None:
        return 0.0
    order = sorted(range(len(taus)), key=lambda i: taus[i])
    return wightman_npoint([alphas[i] for i in order], [1j * taus[i] for i in order]).real


def spectral_support(alpha, beta, gamma, delta) -> list[tuple[float, complex]]:
    """Frequency content of t -> <W(alpha,beta) evolved W(gamma,delta)>.

    The product is exp(i sigma(u, v_t)) W(u + v_t), and the state keeps only
    charge 0: the expectation vanishes identically unless gamma = -alpha, and
    is otherwise the single oscillation exp(i sigma(u, v)) exp(i nu t), since
    sigma(u, v_t) is affine in t.  Every returned frequency is nonnegative
    (energy positivity of the non-regular ground state).
    """
    u = (to_label_fraction(alpha), to_label_fraction(beta))
    v = (to_label_fraction(gamma), to_label_fraction(delta))
    if u[0] + v[0] != 0:
        return []
    phase = symplectic_phase(u, v)
    frequency = symplectic_phase(u, evolve_weyl(v, 1)) - phase
    return [(float(frequency), cmath.exp(1j * float(phase)))]


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
