"""Exact checks of the symbolic algebra, the indefinite state, and its modular maps."""

import cmath
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ccrlab import heisenberg
from ccrlab.exactcomplex import I, ONE, ZERO, ComplexRational
from ccrlab.heisenberg import (
    AlgebraElement,
    CovarianceTable,
    Generator,
    GnsVector,
    P,
    P_PRIME,
    ProductSizeError,
    Q,
    Q_PRIME,
    UNIT,
    UnsupportedDomainError,
    WordLengthError,
    adjoint,
    commutator,
    commutant_pair_minus,
    commutant_pair_plus,
    evolve,
    fock_a,
    fock_b,
    gns_inner,
    hamiltonian,
    metric_conjugate,
    modular_apply,
    modular_conjugation,
    modular_inv_sqrt,
    modular_sqrt,
    moment_matrix,
    normal_order,
    omega,
    product,
    scale_transform,
    weyl_moment_partial_sum,
    wick_value,
)

TABLE = CovarianceTable()
GENS = list(Generator)


def random_monomial(rng, max_degree=4, primed=True):
    width = 4 if primed else 2
    key = [0, 0, 0, 0]
    for _ in range(int(rng.integers(0, max_degree + 1))):
        key[int(rng.integers(0, width))] += 1
    return AlgebraElement.monomial(tuple(key))


def random_element(rng, terms=3, max_degree=4, primed=True):
    out = AlgebraElement.zero()
    for _ in range(terms):
        coeff = ComplexRational(
            Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))),
            Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))),
        )
        out = out + random_monomial(rng, max_degree, primed) * coeff
    return out


# -- normal ordering ------------------------------------------------------------


def test_normal_order_ordered_word():
    assert normal_order([Generator.Q, Generator.P]) == AlgebraElement.monomial((1, 1, 0, 0))


def test_normal_order_swap():
    # pq = qp - i, forced by [q, p] = i
    assert normal_order([Generator.P, Generator.Q]) == Q * P - I * UNIT


def test_normal_order_mixed_primed():
    # p p' q = q p p' - i p' (primed factors commute with unprimed)
    expected = AlgebraElement.monomial((1, 1, 0, 1)) - I * P_PRIME
    assert normal_order([Generator.P, Generator.P_PRIME, Generator.Q]) == expected


def test_normal_order_length_bound(monkeypatch):
    with pytest.raises(WordLengthError):
        normal_order([Generator.Q] * 33)
    monkeypatch.setattr(heisenberg, "DEFAULT_WORD_LIMIT", 64)
    assert normal_order([Generator.Q] * 33) == AlgebraElement.monomial((33, 0, 0, 0))


def test_commutation_relations():
    assert commutator(Q, P) == I * UNIT
    assert commutator(Q_PRIME, P_PRIME) == -I * UNIT
    for x in (Q, P):
        for y in (Q_PRIME, P_PRIME):
            assert commutator(x, y).is_zero


def test_product_associativity_random():
    rng = np.random.default_rng(101)
    for _ in range(100):
        a, b, c = (random_monomial(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_power_is_left_to_right_product():
    x = Q + I * P_PRIME + Q * P * Fraction(1, 2)
    assert x**0 == UNIT
    assert x**1 == x
    assert x**3 == x * x * x
    for bad in (-1, 2.0):
        with pytest.raises(ValueError):
            x**bad


def test_term_limit_bounds_products_and_powers(monkeypatch):
    # q^n builds one term per multiplication, n - 1 of them; (q + p)(q + p) builds 5:
    # q q, q p, p p and the two of p q = q p - i
    monkeypatch.setattr(heisenberg, "TERM_LIMIT", 5)
    assert Q**6 == product([Q] * 6) == AlgebraElement.monomial((6, 0, 0, 0))
    assert (Q + P) * (Q + P) == Q * Q + Q * P * 2 + P * P - I * UNIT
    for too_many in (lambda: Q**7, lambda: product([Q] * 7)):  # the multiplications share one budget
        with pytest.raises(ProductSizeError, match="more than 5 terms"):
            too_many()
    monkeypatch.setattr(heisenberg, "TERM_LIMIT", 4)
    with pytest.raises(ProductSizeError):
        (Q + P) * (Q + P)


def test_term_limit_refuses_before_building(monkeypatch):
    # 2 x 2 pairs of terms build at least 4 terms, so a limit of 3 refuses before any reordering
    calls = []
    monkeypatch.setattr(heisenberg, "TERM_LIMIT", 3)
    monkeypatch.setattr(heisenberg, "_mul_keys", lambda a, b: calls.append((a, b)))
    with pytest.raises(ProductSizeError):
        (Q + P) * (Q_PRIME + P_PRIME)
    assert calls == []


# -- adjoint ---------------------------------------------------------------------


def test_adjoint_examples():
    assert adjoint(Q) == Q
    assert adjoint(Q + I * P) == Q - I * P
    # (i qp)* = -i pq = -i qp - 1
    assert adjoint(I * (Q * P)) == -I * (Q * P) - UNIT


def test_adjoint_involution_and_antihomomorphism():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = random_element(rng)
        b = random_element(rng)
        assert adjoint(adjoint(a)) == a
        assert adjoint(a * b) == adjoint(b) * adjoint(a)


def test_adjoint_reverses_products_and_conjugates_the_state():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    parts = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    terms = st.tuples(st.builds(ComplexRational, parts, parts), st.lists(st.sampled_from(GENS), max_size=3))
    elements = st.lists(terms, min_size=1, max_size=3).map(
        lambda pairs: sum((normal_order(word) * coeff for coeff, word in pairs), AlgebraElement.zero())
    )
    tables = [CovarianceTable(Fraction(0)), CovarianceTable(Fraction(2, 7))]

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(elements, min_size=1, max_size=3))
    def check(factors):
        product = math.prod(factors, start=AlgebraElement.one())
        reversed_adjoints = math.prod(map(adjoint, reversed(factors)), start=AlgebraElement.one())
        assert adjoint(product) == reversed_adjoints
        for table in tables:
            assert omega(adjoint(product), table) == omega(product, table).conjugate()

    check()


# -- evolution ---------------------------------------------------------------------


def test_evolve_generators():
    t = Fraction(5, 3)
    assert evolve(Q, t) == Q + P * ComplexRational(t)
    assert evolve(P, t) == P
    assert evolve(Q_PRIME, t) == Q_PRIME - P_PRIME * ComplexRational(t)
    assert evolve(P_PRIME, t) == P_PRIME


def test_evolve_group_law():
    rng = np.random.default_rng(13)
    for _ in range(20):
        e = random_element(rng, terms=2, max_degree=3)
        s = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
        t = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
        assert evolve(e, 0) == e
        assert evolve(evolve(e, s), t) == evolve(e, s + t)


def test_evolve_is_star_automorphism():
    rng = np.random.default_rng(17)
    t = Fraction(1, 2)
    for _ in range(20):
        a = random_element(rng, terms=2, max_degree=3)
        b = random_element(rng, terms=2, max_degree=3)
        assert evolve(a * b, t) == evolve(a, t) * evolve(b, t)
        assert evolve(adjoint(a), t) == adjoint(evolve(a, t))


def test_evolve_generated_by_hamiltonian():
    # the flow is affine in t on generators, so the derivative at 0 is
    # evolve(x, 1) - x; it must equal i [H, x]
    h = hamiltonian()
    for x in (Q, P, Q_PRIME, P_PRIME):
        assert evolve(x, 1) - x == I * commutator(h, x)


def test_omega_time_invariance_polynomial():
    # omega(evolve(A, t)) is a polynomial in t of degree <= 6 here; equality at
    # eight distinct rational points makes it the constant polynomial omega(A)
    rng = np.random.default_rng(19)
    for _ in range(10):
        e = random_element(rng, terms=3, max_degree=3)
        base = omega(e, TABLE)
        for t in range(8):
            assert omega(evolve(e, Fraction(t, 3)), TABLE) == base


# -- covariance table and Wick evaluation ----------------------------------------------


def test_table_values():
    half = ComplexRational(Fraction(1, 2))
    ihalf = ComplexRational(0, Fraction(1, 2))
    t = CovarianceTable(Fraction(2, 7))
    c = ComplexRational(Fraction(2, 7))
    expected = {
        (Generator.Q, Generator.Q): c,
        (Generator.Q, Generator.P): ihalf,
        (Generator.P, Generator.Q): -ihalf,
        (Generator.P, Generator.P): ZERO,
        (Generator.Q_PRIME, Generator.Q_PRIME): c,
        (Generator.Q_PRIME, Generator.P_PRIME): -ihalf,
        (Generator.P_PRIME, Generator.Q_PRIME): ihalf,
        (Generator.P_PRIME, Generator.P_PRIME): ZERO,
        (Generator.Q, Generator.P_PRIME): half,
        (Generator.P, Generator.Q_PRIME): half,
        (Generator.Q, Generator.Q_PRIME): ZERO,
        (Generator.P, Generator.P_PRIME): ZERO,
    }
    for (x, y), value in expected.items():
        assert t.value(x, y) == value


@pytest.mark.parametrize("c", [Fraction(0), Fraction(1), Fraction(-2, 3)])
def test_table_hermitian_and_commutator_consistent(c):
    t = CovarianceTable(c)
    comm = {
        (Generator.Q, Generator.P): I,
        (Generator.Q_PRIME, Generator.P_PRIME): -I,
    }
    for x in GENS:
        for y in GENS:
            assert t.value(y, x) == t.value(x, y).conjugate()
            expected = comm.get((x, y), -comm.get((y, x), ZERO) if (y, x) in comm else ZERO)
            assert t.value(x, y) - t.value(y, x) == expected


def test_annihilation_relations_fix_cross_terms():
    # the defining relations of the derived table at c = 0, in both orders
    killer_right = [Q + I * Q_PRIME, P - I * P_PRIME]
    for x in (Q, P, Q_PRIME, P_PRIME):
        for k in killer_right:
            assert omega(x * k, TABLE) == ZERO
            assert omega(adjoint(k) * x, TABLE) == ZERO


def test_omega_examples():
    assert omega(Q * P, TABLE) == ComplexRational(0, Fraction(1, 2))
    assert omega(Q * Q * P * P, TABLE) == ComplexRational(Fraction(-1, 2))
    assert omega(Q * Q * Q, CovarianceTable(Fraction(3))) == ZERO


def test_omega_qpqp_normal_order_oracle():
    # independent route: q p q p = q^2 p^2 - i q p, so the value is
    # -1/2 - i (i/2) = 0
    word = [Generator.Q, Generator.P, Generator.Q, Generator.P]
    assert normal_order(word) == Q * Q * P * P - I * (Q * P)
    assert omega(normal_order(word), TABLE) == ZERO
    assert wick_value(word, TABLE) == ZERO


@pytest.mark.parametrize("c", [Fraction(0), Fraction(1, 2)])
def test_wick_vs_normal_order_random_words(c):
    table = CovarianceTable(c)
    rng = np.random.default_rng(23)
    for _ in range(150):
        length = int(rng.integers(1, 9))
        word = [Generator(int(g)) for g in rng.integers(0, 4, length)]
        assert wick_value(word, table) == omega(normal_order(word), table)


def test_wick_value_letters_and_encoded_tables(monkeypatch):
    # ints are read as generators and anything else is refused, as before letters
    # that are already generators skipped the conversion
    word = [Generator.Q, Generator.P, Generator.Q_PRIME, Generator.P_PRIME]
    assert wick_value([0, 1, 2, 3], TABLE) == wick_value(word, TABLE)
    for bad in ([0, 4], [Generator.Q, "q"], [Generator.P, -1]):
        with pytest.raises(ValueError):
            wick_value(bad, TABLE)
    # one encoded table per digit width, built once and kept in a bounded store
    table = CovarianceTable(Fraction(1, 3))
    for length in (2, 4, 4, 6):
        wick_value([Generator.Q] * length, table)
    assert len(table._encodings) == 3
    encoded = table._encodings[max(table._encodings)]
    assert wick_value([Generator.Q] * 6, table) == omega(Q**6, table) and table._encodings[max(table._encodings)] is encoded
    monkeypatch.setattr(heisenberg, "ENCODED_WIDTHS", 4)
    for length in range(8, 20, 2):
        word = [Generator.Q, Generator.P] * (length // 2)
        assert wick_value(word, table) == omega(normal_order(word), table)
        assert len(table._encodings) <= 4


@pytest.mark.parametrize("c", [Fraction(0), Fraction(2, 7)])
def test_moment_engine_matches_wick_value(c):
    table = CovarianceTable(c)
    for key in itertools.product(range(5), repeat=4):
        if sum(key) <= 10:
            word = [g for g, exp in zip(Generator, key) for _ in range(exp)]
            assert table.moment(key) == wick_value(word, table), key
    # the derived fields stay out of equality, hashing and repr
    assert table == CovarianceTable(c) and hash(table) == hash(CovarianceTable(c))
    assert repr(table) == repr(CovarianceTable(c))


def test_deep_moment_keeps_no_per_state_memo():
    # the bound rules out a memo on exponent 4-tuples: it would hold about 24000 entries here (near 5 MB)
    table = CovarianceTable(1)
    tracemalloc.start()
    try:
        value = table.moment((300, 300, 10, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value and peak < 1_000_000, peak


@pytest.mark.parametrize("key", [(-1, 1, 0, 0), (1.5, 0.5, 0, 0), (2, -2, 0, 0), (1, 1, 0)])
def test_malformed_monomial_keys_are_refused(key):
    for build in (AlgebraElement.monomial, lambda k: AlgebraElement({k: ONE}), CovarianceTable(1).moment):
        with pytest.raises(ValueError, match="four nonnegative ints"):
            build(key)


def test_moments_diagonal_closed_form():
    # <q^n p^m> = delta_{nm} (i/2)^n n!
    for n in range(7):
        for m in range(7):
            value = omega(AlgebraElement.monomial((n, m, 0, 0)), TABLE)
            if n == m:
                assert value == ComplexRational(0, Fraction(1, 2)) ** n * math.factorial(n)
            else:
                assert value == ZERO


# -- GNS inner product -----------------------------------------------------------------


def test_gns_examples():
    assert gns_inner(Q, Q, TABLE) == ZERO
    v = Q + I * Q_PRIME
    assert gns_inner(v, v, TABLE) == ZERO
    assert gns_inner(UNIT, UNIT, TABLE) == ONE


def test_gns_hermitian():
    rng = np.random.default_rng(29)
    for _ in range(30):
        a = random_element(rng, terms=2, max_degree=3)
        b = random_element(rng, terms=2, max_degree=3)
        assert gns_inner(a, b, TABLE) == gns_inner(b, a, TABLE).conjugate()


def test_gns_accepts_gns_vectors():
    assert gns_inner(GnsVector(Q), GnsVector(Q), TABLE) == ZERO


# -- modular structure ---------------------------------------------------------------


def test_modular_sqrt_phases():
    assert modular_sqrt(GnsVector(P)).label == I * P
    assert modular_sqrt(GnsVector(P * Q)).label == P * Q
    assert modular_sqrt(GnsVector(UNIT)).label == UNIT
    assert modular_sqrt(GnsVector(Q)).label == -I * Q
    # p^k q^j takes i^k (-i)^j; the inverse takes the swapped phases
    for k, j in itertools.product(range(5), repeat=2):
        e = P**k * Q**j
        assert modular_sqrt(GnsVector(e)).label == I**k * (-I) ** j * e, (k, j)
        assert modular_inv_sqrt(GnsVector(e)).label == (-I) ** k * I**j * e, (k, j)


def test_modular_inverse_pair():
    rng = np.random.default_rng(31)
    for _ in range(30):
        e = random_element(rng, terms=3, max_degree=4, primed=False)
        v = GnsVector(e)
        assert modular_sqrt(modular_inv_sqrt(v)).label == e
        assert modular_inv_sqrt(modular_sqrt(v)).label == e


def test_modular_rejects_primed():
    with pytest.raises(UnsupportedDomainError):
        modular_sqrt(GnsVector(Q_PRIME))


def test_modular_apply_dispatch():
    assert modular_apply("delta_half", GnsVector(P)).label == I * P
    assert modular_apply("delta_inv_half", GnsVector(P)).label == -I * P
    assert modular_apply("J", GnsVector(UNIT)).label == UNIT
    with pytest.raises(ValueError):
        modular_apply("delta", GnsVector(P))


def test_conjugation_antiunitary():
    # <J u, J v> = <v, u> on monomial labels of degree <= 4
    monomials = [AlgebraElement.monomial((j, k, 0, 0)) for j in range(5) for k in range(5 - j)]
    for u in monomials:
        for v in monomials:
            ju = modular_conjugation(GnsVector(u)).label
            jv = modular_conjugation(GnsVector(v)).label
            assert gns_inner(ju, jv, TABLE) == gns_inner(v, u, TABLE)


def test_conjugation_involution():
    rng = np.random.default_rng(37)
    for _ in range(20):
        e = random_element(rng, terms=2, max_degree=4, primed=False)
        assert modular_conjugation(modular_conjugation(GnsVector(e))).label == e


def test_commutant_generators_from_conjugation():
    # consistency of the primed generators with the conjugation route:
    # q' A|0> = i A q|0> and p' A|0> = -i A p|0> in every inner product
    probes = [
        AlgebraElement.monomial((j, k, l, m))
        for j in range(3)
        for k in range(3)
        for l in range(2)
        for m in range(2)
        if j + k + l + m <= 3
    ]
    for a in [AlgebraElement.monomial((j, k, 0, 0)) for j in range(3) for k in range(3 - j)]:
        for b in probes:
            bstar = adjoint(b)
            assert omega(bstar * (Q_PRIME * a), TABLE) == omega(bstar * (I * a * Q), TABLE)
            assert omega(bstar * (P_PRIME * a), TABLE) == omega(bstar * (-I * a * P), TABLE)


# -- metric conjugation ----------------------------------------------------------------


def test_metric_conjugate_generators():
    assert metric_conjugate(Q) == P_PRIME
    assert metric_conjugate(P) == Q_PRIME
    assert metric_conjugate(Q_PRIME) == P
    assert metric_conjugate(P_PRIME) == Q


def test_metric_conjugate_multiplicative():
    # eta(qp) = p' q' = q' p' + i
    assert metric_conjugate(Q * P) == Q_PRIME * P_PRIME + I * UNIT
    rng = np.random.default_rng(41)
    for _ in range(30):
        a = random_element(rng, terms=2, max_degree=3)
        b = random_element(rng, terms=2, max_degree=3)
        assert metric_conjugate(a * b) == metric_conjugate(a) * metric_conjugate(b)
        assert metric_conjugate(metric_conjugate(a)) == a


def test_metric_positivity_sample():
    b = fock_b()
    assert omega(adjoint(b) * metric_conjugate(b), TABLE) == ONE


# -- scale transformation ----------------------------------------------------------------


def test_scale_examples():
    assert scale_transform(Q, 2) == Q * 2
    assert scale_transform(Q * P, Fraction(22, 7)) == Q * P
    with pytest.raises(ValueError):
        scale_transform(Q, 0)


def test_scale_preserves_commutator():
    lam = Fraction(3, 5)
    assert commutator(scale_transform(Q, lam), scale_transform(P, lam)) == I * UNIT


def test_scale_invariance_of_state():
    rng = np.random.default_rng(43)
    for _ in range(100):
        e = random_element(rng, terms=3, max_degree=4, primed=False)
        lam = Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        assert omega(scale_transform(e, lam), TABLE) == omega(e, TABLE)


# -- structure identities ------------------------------------------------------------------


def test_canonical_pairs():
    q_plus, p_plus = commutant_pair_plus()
    q_minus, p_minus = commutant_pair_minus()
    half = Fraction(1, 2)
    assert commutator(q_plus, p_plus) * half == I * UNIT
    assert commutator(q_minus, p_minus) * half == -I * UNIT
    assert commutator(q_plus, p_minus).is_zero
    assert commutator(q_minus, p_plus).is_zero


def test_ladder_relations():
    a, b = fock_a(), fock_b()
    assert commutator(a, adjoint(a)) == UNIT
    assert commutator(b, adjoint(b)) == UNIT
    assert commutator(a, b).is_zero
    assert commutator(a, adjoint(b)).is_zero


def test_vacuum_conditions_against_monomials():
    a, b = fock_a(), fock_b()
    b_star = adjoint(b)
    h = hamiltonian()
    for mono in [AlgebraElement.monomial((j, k, 0, 0)) for j in range(5) for k in range(5 - j)]:
        assert gns_inner(mono, a, TABLE) == ZERO
        assert gns_inner(mono, b_star, TABLE) == ZERO
        assert gns_inner(mono, h, TABLE) == ZERO


def test_moment_matrix_small():
    gram0 = moment_matrix(0, TABLE)
    assert gram0.det_exact == ONE
    gram1 = moment_matrix(1, TABLE)
    assert gram1.det_exact == ComplexRational(Fraction(-1, 4))
    assert gram1.signature == (2, 1, 0)


def leibniz_det(rows):
    """The determinant as the signed sum over permutations, in ComplexRational arithmetic."""
    total = ZERO
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        term = ONE
        for row, col in enumerate(perm):
            term = term * rows[row][col]
        total = total - term if inversions % 2 else total + term
    return total


def test_exact_det_matches_the_permutation_sum():
    rng = np.random.default_rng(41)

    def entry():
        if rng.random() < 0.35:
            return ZERO
        parts = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 13))) for _ in range(2)]
        return ComplexRational(parts[0], parts[1] if rng.random() < 0.5 else 0)

    for size in (1, 2, 3, 4, 5):
        for trial in range(40):
            rows = [[entry() for _ in range(size)] for _ in range(size)]
            if size > 1 and trial % 5 == 0:
                rows[-1] = list(rows[0])  # singular
            if size > 2 and trial % 7 == 0:
                rows[0][0] = rows[1][0] = ZERO  # a zero pivot to swap past
            assert heisenberg._exact_det(rows) == leibniz_det(rows), rows
    assert heisenberg._exact_det([]) == ONE


def test_moment_matrix_faithfulness_witness():
    gram = moment_matrix(4, TABLE)
    assert gram.det_exact != ZERO
    assert gram.det_exact.im == 0
    assert gram.signature[1] > 0  # indefinite
    with pytest.raises(ValueError):
        moment_matrix(7, TABLE)


# -- partial sums ------------------------------------------------------------------------------


def test_partial_sum_converges():
    value = weyl_moment_partial_sum(1, 1, 20)
    assert abs(value - cmath.exp(-0.5j)) < 1e-10


def test_partial_sum_alpha_zero():
    for order in (0, 3, 11):
        assert weyl_moment_partial_sum(0, Fraction(7, 2), order) == 1.0


def test_partial_sum_telescopes():
    # at c = 0 the double sum collapses to sum_n (-i a b / 2)^n / n!
    alpha, beta = Fraction(3, 2), Fraction(1, 3)
    for order in (1, 4, 9):
        direct = weyl_moment_partial_sum(alpha, beta, order)
        folded = sum(
            (-0.5j * float(alpha) * float(beta)) ** n / math.factorial(n) for n in range(order + 1)
        )
        assert abs(direct - folded) < 1e-12


def test_partial_sum_general_c_matches_state():
    # dual route: the internal moment recursion against the Wick evaluator
    c = Fraction(2, 3)
    table = CovarianceTable(c)
    alpha, beta, order = Fraction(1, 2), Fraction(1, 3), 4
    direct = 0j
    for n in range(order + 1):
        for m in range(order + 1):
            moment = omega(AlgebraElement.monomial((n, m, 0, 0)), table)
            if moment == ZERO:
                continue
            term = (
                (I * ComplexRational(alpha)) ** n
                * (I * ComplexRational(beta)) ** m
                * moment
                / ComplexRational(math.factorial(n) * math.factorial(m))
            )
            direct += term.to_complex()
    assert weyl_moment_partial_sum(alpha, beta, order, c) == pytest.approx(direct, abs=1e-12)


def test_partial_sum_order_cap():
    with pytest.raises(ValueError):
        weyl_moment_partial_sum(1, 1, 65)
