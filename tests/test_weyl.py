"""Weyl product phases, the non-regular state, and the closed n-point forms, on labels."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from ccrlab.weyl import (
    evolve_weyl,
    os_positivity_matrix,
    schwinger_npoint,
    spectral_support,
    symplectic_phase,
    to_label_fraction,
    wightman_npoint,
)


def random_labels(rng, count):
    return [
        (Fraction(int(rng.integers(-5, 6)), 2), Fraction(int(rng.integers(-5, 6)), 2))
        for _ in range(count)
    ]


def add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def star(u):
    # W(a, b)* = W(-a, -b)
    return (-u[0], -u[1])


# -- product --------------------------------------------------------------------


def test_product_uv_phase():
    # U(a) V(b) = e^{-i a b / 2} W(a, b)
    assert symplectic_phase((1, 0), (0, 1)) == Fraction(-1, 2)


def test_product_inverse_collapses_to_unit():
    # W(u) W(-u) = e^{i 0} W(0, 0)
    u = (Fraction(3, 2), Fraction(-2))
    assert add(u, star(u)) == (0, 0)
    assert symplectic_phase(u, star(u)) == 0


def test_product_associativity_exact_phase_angles():
    # the accumulated symplectic angles agree exactly as rationals
    rng = np.random.default_rng(5)
    for la, lb, lc in zip(random_labels(rng, 100), random_labels(rng, 100), random_labels(rng, 100)):
        left = symplectic_phase(la, lb) + symplectic_phase(add(la, lb), lc)
        right = symplectic_phase(lb, lc) + symplectic_phase(la, add(lb, lc))
        assert left == right


def test_star_is_antihomomorphism():
    # (W(u) W(v))* = e^{-i sigma(u, v)} W(-u - v) and W(v)* W(u)* = e^{i sigma(-v, -u)} W(-v - u)
    rng = np.random.default_rng(7)
    for la, lb in zip(random_labels(rng, 50), random_labels(rng, 50)):
        assert star(add(la, lb)) == add(star(lb), star(la))
        assert symplectic_phase(star(lb), star(la)) == -symplectic_phase(la, lb)
        assert star(star(la)) == la


# -- state -----------------------------------------------------------------------


def test_state_examples():
    # the state keeps exactly the charge-zero products; at t = 0 the coefficient is their value
    assert spectral_support(1, 7.3, 0, 0) == []
    assert spectral_support(0, 5, 0, 0) == [(0.0, 1.0 + 0j)]
    [(_nu, coeff)] = spectral_support(1, 0, -1, 0)
    assert coeff == 1.0 + 0j


def test_state_nonregularity_indicator():
    # alpha -> <W(alpha, 0)> is the indicator of {0}: discontinuous at 0
    for alpha in (1, Fraction(1, 10**6), -Fraction(1, 10**9)):
        assert spectral_support(alpha, 0, 0, 0) == []
    assert spectral_support(0, 0, 0, 0) == [(0.0, 1.0 + 0j)]


# -- evolution ----------------------------------------------------------------------


def test_evolution_examples():
    assert evolve_weyl((Fraction(1), Fraction(0)), 2) == (1, 2)
    assert evolve_weyl((Fraction(0), Fraction(3)), 11) == (0, 3)
    assert evolve_weyl((Fraction(3, 2), Fraction(1)), Fraction(-1, 3)) == (Fraction(3, 2), Fraction(1, 2))


def test_evolution_is_automorphism():
    # the labels move linearly and the symplectic phase is invariant, exactly
    rng = np.random.default_rng(11)
    t = Fraction(7, 4)
    for la, lb in zip(random_labels(rng, 40), random_labels(rng, 40)):
        assert evolve_weyl(add(la, lb), t) == add(evolve_weyl(la, t), evolve_weyl(lb, t))
        assert symplectic_phase(evolve_weyl(la, t), evolve_weyl(lb, t)) == symplectic_phase(la, lb)


def test_two_point_closed_form():
    # <W(a,b) evolved W(-a,d)> = e^{i sigma((a,b), (-a, d - a t))} = e^{-i a (d + b)/2} e^{i a^2 t / 2}
    rng = np.random.default_rng(13)
    for _ in range(25):
        a, b, d, t = rng.uniform(-2, 2, 4)
        a, b, d, t = (to_label_fraction(float(x)) for x in (a, b, d, t))
        value = cmath.exp(1j * float(symplectic_phase((a, b), evolve_weyl((-a, d), t))))
        expected = cmath.exp(-1j * float(a) * float(d + b) / 2) * cmath.exp(
            1j * float(a) ** 2 * float(t) / 2
        )
        assert value == pytest.approx(expected, abs=1e-12)


# -- n-point functions ------------------------------------------------------------------


def test_wightman_examples():
    assert wightman_npoint([1, -1], [0, 1]) == pytest.approx(cmath.exp(0.5j))
    assert wightman_npoint([1, 1], [0, 1]) == 0
    assert wightman_npoint([1, 1, -2], [0, 1, 2]) == pytest.approx(cmath.exp(2.5j))


def test_wightman_validation():
    with pytest.raises(ValueError):
        wightman_npoint([1, -1], [0])
    with pytest.raises(ValueError):
        wightman_npoint([], [])


def test_schwinger_examples():
    assert schwinger_npoint([1, -1], [0, 1]) == pytest.approx(math.exp(-0.5))
    assert schwinger_npoint([1, 1], [0, 1]) == 0.0
    assert schwinger_npoint([1, -1], [1, 0]) == pytest.approx(math.exp(-0.5))


def test_schwinger_permutation_symmetry():
    rng = np.random.default_rng(17)
    alphas = [2, -1, -3, 1, 1]
    taus = [-1.5, -0.2, 0.4, 1.1, 2.7]
    base = schwinger_npoint(alphas, taus)
    assert 0 < base <= 1
    for _ in range(10):
        perm = rng.permutation(5)
        assert schwinger_npoint([alphas[i] for i in perm], [taus[i] for i in perm]) == pytest.approx(base)


def test_schwinger_range():
    rng = np.random.default_rng(19)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        alphas = [int(a) for a in rng.integers(-3, 4, n)]
        alphas[-1] = -sum(alphas[:-1])
        taus = rng.uniform(-3, 3, n)
        value = schwinger_npoint(alphas, taus)
        assert 0 < value <= 1


def euclidean_reference(alphas, taus):
    """exp(-1/2 sum (tau_(i) - tau_(i-1)) S_i^2) over the ascending taus, S_i the label sum from the i-th on."""
    alphas = [Fraction(a) for a in alphas]
    taus = [float(t) for t in taus]
    if sum(alphas) != 0:
        return 0.0
    order = sorted(range(len(taus)), key=lambda i: taus[i])
    exponent, suffix = 0.0, Fraction(0)
    for pos in range(len(order) - 1, 0, -1):
        suffix += alphas[order[pos]]
        exponent += (taus[order[pos]] - taus[order[pos - 1]]) * float(suffix * suffix)
    return math.exp(-0.5 * exponent)


def test_schwinger_is_the_euclidean_closed_form_bit_for_bit():
    # schwinger_npoint is the Wightman function at t_k = i tau_k: in exact arithmetic the phase
    # exp(i/2 sum (t_i - t_(i-1)) S_i^2) is the decay above, and in floats the real parts of the
    # imaginary times stay 0, so the sum and the exponential round as the real formula does; the
    # Monte Carlo targets rest on it.  Charge zero and not, ties, and signed zeros.
    rng = np.random.default_rng(44)
    specials = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e-300, 7.25]
    for trial in range(2000):
        n = int(rng.integers(1, 7))
        alphas = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(n)]
        if trial % 3:
            alphas[-1] = -sum(alphas[:-1], Fraction(0))
        if trial % 4 == 0:
            taus = [specials[i] for i in rng.integers(0, len(specials), n)]
        elif trial % 4 == 1:
            taus = [float(t) for t in rng.integers(-3, 4, n)]
        else:
            taus = [float(t) for t in rng.uniform(-40, 40, n)]
        value, reference = schwinger_npoint(alphas, taus), euclidean_reference(alphas, taus)
        assert math.copysign(1.0, value) == math.copysign(1.0, reference)
        assert value == reference, (alphas, taus)


def test_wightman_continues_to_schwinger():
    # euclidean points sit at t_k = i tau_k for ascending tau: the phases
    # e^{i H t} between the symbols become the decaying e^{-(tau_i - tau_{i-1}) H}
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        alphas = [int(a) for a in rng.integers(-3, 4, n)]
        alphas[-1] = -sum(alphas[:-1])
        taus = np.sort(rng.uniform(-2, 2, n))
        continued = wightman_npoint(alphas, [1j * t for t in taus])
        assert continued == pytest.approx(schwinger_npoint(alphas, taus), abs=1e-12)


# -- energy spectrum ------------------------------------------------------------------------


def test_spectral_support_examples():
    assert spectral_support(1, 0, -1, 0) == [(0.5, pytest.approx(1.0 + 0j))]
    assert spectral_support(1, 0, 1, 0) == []
    frequencies = spectral_support(0, 2, 0, 3)
    assert frequencies == [(0.0, pytest.approx(1.0 + 0j))]


def test_spectral_support_sweep_nonnegative():
    rng = np.random.default_rng(29)
    seen = 0
    for index in range(100):
        alpha, beta, delta = (Fraction(int(x), 2) for x in rng.integers(-6, 7, 3))
        gamma = -alpha if index % 2 else Fraction(int(rng.integers(-6, 7)), 2)
        for frequency, coeff in spectral_support(alpha, beta, gamma, delta):
            seen += 1
            assert frequency >= 0.0
            assert abs(coeff) == pytest.approx(1.0)
    assert seen > 0


def test_spectral_matches_direct_expectation():
    a, b, g, d = Fraction(3, 2), Fraction(1, 2), Fraction(-3, 2), Fraction(2)
    [(nu, coeff)] = spectral_support(a, b, g, d)
    assert nu == float(a) ** 2 / 2
    for t in (0.0, 0.3, 1.7):
        direct = cmath.exp(-1j * float(a) * float(b + d) / 2) * cmath.exp(1j * float(a) ** 2 * t / 2)
        assert direct == pytest.approx(coeff * cmath.exp(1j * nu * t), abs=1e-12)


# -- OS positivity ----------------------------------------------------------------------------


def test_os_positivity_random_families():
    rng = np.random.default_rng(31)
    for _ in range(10):
        size = int(rng.integers(2, 9))
        pairs = [
            (float(rng.integers(-3, 4)), float(rng.uniform(0, 3))) for _ in range(size)
        ]
        matrix = os_positivity_matrix(pairs)
        assert np.abs(matrix - matrix.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh((matrix + matrix.conj().T) / 2).min() >= -1e-10


def test_os_positivity_rejects_negative_times():
    with pytest.raises(ValueError):
        os_positivity_matrix([(1.0, -0.5)])
