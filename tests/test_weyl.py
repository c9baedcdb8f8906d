"""Weyl product phases, the non-regular state, and the closed n-point forms."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from ccrlab.weyl import (
    evolve_weyl,
    omega_expectation,
    os_positivity_matrix,
    schwinger_npoint,
    spectral_support,
    symplectic_phase,
    to_label_fraction,
    weyl_product,
    weyl_star,
    weyl_symbol,
    wightman_npoint,
)


def random_labels(rng, count):
    return [
        (Fraction(int(rng.integers(-5, 6)), 2), Fraction(int(rng.integers(-5, 6)), 2))
        for _ in range(count)
    ]


# -- product --------------------------------------------------------------------


def test_product_uv_phase():
    # U(a) V(b) = e^{-i a b / 2} W(a, b)
    product = weyl_product(weyl_symbol(1, 0), weyl_symbol(0, 1))
    assert set(product.terms) == {(Fraction(1), Fraction(1))}
    assert product.terms[(Fraction(1), Fraction(1))] == pytest.approx(cmath.exp(-0.5j))


def test_product_inverse_collapses_to_unit():
    product = weyl_product(weyl_symbol(1.5, -2), weyl_symbol(-1.5, 2))
    assert product == weyl_symbol(0, 0)


def test_product_associativity_floats():
    rng = np.random.default_rng(3)
    for la, lb, lc in zip(random_labels(rng, 100), random_labels(rng, 100), random_labels(rng, 100)):
        a, b, c = (weyl_symbol(*l) for l in (la, lb, lc))
        left = weyl_product(weyl_product(a, b), c)
        right = weyl_product(a, weyl_product(b, c))
        assert set(left.terms) == set(right.terms)
        for label in left.terms:
            assert left.terms[label] == pytest.approx(right.terms[label], abs=1e-12)


def test_product_associativity_exact_phase_angles():
    # the accumulated symplectic angles agree exactly as rationals
    rng = np.random.default_rng(5)
    for la, lb, lc in zip(random_labels(rng, 100), random_labels(rng, 100), random_labels(rng, 100)):
        lab = (la[0] + lb[0], la[1] + lb[1])
        lbc = (lb[0] + lc[0], lb[1] + lc[1])
        left = symplectic_phase(la, lb) + symplectic_phase(lab, lc)
        right = symplectic_phase(lb, lc) + symplectic_phase(la, lbc)
        assert left == right


def test_star_is_antihomomorphism():
    rng = np.random.default_rng(7)
    for la, lb in zip(random_labels(rng, 50), random_labels(rng, 50)):
        a = weyl_symbol(*la, coeff=complex(*rng.standard_normal(2)))
        b = weyl_symbol(*lb)
        left = weyl_star(weyl_product(a, b))
        right = weyl_product(weyl_star(b), weyl_star(a))
        assert set(left.terms) == set(right.terms)
        for label in left.terms:
            assert left.terms[label] == pytest.approx(right.terms[label], abs=1e-12)
        assert weyl_star(weyl_star(a)) == a


def test_linear_combinations():
    u = weyl_symbol(1, 0, 2.0) + weyl_symbol(0, 1, -1j)
    assert u.terms[(Fraction(1), Fraction(0))] == 2.0
    v = 0.5 * u
    assert v.terms[(Fraction(0), Fraction(1))] == -0.5j
    assert (u - u) == (u * 0)


# -- state -----------------------------------------------------------------------


def test_state_examples():
    assert omega_expectation(weyl_symbol(1, 7.3)) == 0
    assert omega_expectation(weyl_symbol(0, 5)) == 1
    assert omega_expectation(weyl_product(weyl_symbol(1, 0), weyl_symbol(-1, 0))) == 1


def test_state_nonregularity_indicator():
    # alpha -> <W(alpha, 0)> is the indicator of {0}: discontinuous at 0
    for alpha in (1, Fraction(1, 10**6), -Fraction(1, 10**9)):
        assert omega_expectation(weyl_symbol(alpha, 0)) == 0
    assert omega_expectation(weyl_symbol(0, 0)) == 1


# -- evolution ----------------------------------------------------------------------


def test_evolution_examples():
    evolved = evolve_weyl(weyl_symbol(1, 0), 2)
    assert set(evolved.terms) == {(Fraction(1), Fraction(2))}
    assert evolve_weyl(weyl_symbol(0, 3), 11) == weyl_symbol(0, 3)


def test_evolution_is_automorphism():
    rng = np.random.default_rng(11)
    t = Fraction(7, 4)
    for la, lb in zip(random_labels(rng, 40), random_labels(rng, 40)):
        a, b = weyl_symbol(*la), weyl_symbol(*lb)
        left = evolve_weyl(weyl_product(a, b), t)
        right = weyl_product(evolve_weyl(a, t), evolve_weyl(b, t))
        assert set(left.terms) == set(right.terms)
        for label in left.terms:
            assert left.terms[label] == pytest.approx(right.terms[label], abs=1e-12)


def test_two_point_closed_form():
    # <W(a,b) evolved W(-a,d)> = e^{-i a (d + b)/2} e^{i a^2 t / 2}
    rng = np.random.default_rng(13)
    for _ in range(25):
        a, b, d, t = rng.uniform(-2, 2, 4)
        a, b, d, t = (to_label_fraction(float(x)) for x in (a, b, d, t))
        value = omega_expectation(
            weyl_product(weyl_symbol(a, b), evolve_weyl(weyl_symbol(-a, d), t))
        )
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
    for t in (0.0, 0.3, 1.7):
        direct = omega_expectation(weyl_product(weyl_symbol(a, b), evolve_weyl(weyl_symbol(g, d), t)))
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
