"""Fault matrix: a wrong program must fail the criteria that claim to see its fault.

Each fault is injected by monkeypatch only, with no hook in the sources, and
names the criteria that must each fail under it, run at full size and the
default seed.  A fault inside a function's body is that function's source with
one edit, compiled into a copy of its module's namespace.
"""

import inspect

import pytest

from ccrlab import acceptance, heisenberg, montecarlo, nelson, weyl


def _halve_the_singular_part(monkeypatch):
    # the (d0, w) pairing of every Nelson product: the indefinite Gram (criterion 9),
    # the OS Gram (10), the Krein metric (11) and the Markov projections (12)
    singular_part = nelson._singular_part
    monkeypatch.setattr(nelson, "_singular_part", lambda left, right: singular_part(left, right) / 2.0)


def _drop_w_from_the_markov_bases(monkeypatch):
    # the past and future bases without the ergodic-velocity element: E0 is then read at
    # the index pair of d0 and the last point mass, and E+ E- = E0 fails (criterion 12)
    side_basis = nelson._side_basis
    monkeypatch.setattr(nelson, "_side_basis", lambda grid, side, n_per_side: side_basis(grid, side, n_per_side)[:-1])


def _stretch_the_brownian_gaps(monkeypatch):
    # every gap root 2% long: the path variance 4% high, so the sampled Weyl value (criterion 6),
    # the indefinite moments (7) and the Krein diagonal at tau 1 (14) drift from their targets
    brownian_gaps = montecarlo.brownian_gaps
    monkeypatch.setattr(montecarlo, "brownian_gaps", lambda taus: ((1.02 * sq, last) for sq, last in brownian_gaps(taus)))


def _stretch_z(monkeypatch):
    # z1 and z2 2% long inside the sampler: the singular part of the indefinite kernel (criterion 7)
    # and the Krein rank-one correction (14) drift; the Weyl sampler draws no z
    estimate = montecarlo._estimate

    def stretched(taus, cfg, integrand, *args, **kwargs):
        return estimate(
            taus, cfg, lambda rows, paths, *z: integrand(rows, paths, *(1.02 * row for row in z)), *args, **kwargs
        )

    monkeypatch.setattr(montecarlo, "_estimate", stretched)


def _mutate(monkeypatch, module, name, old, new):
    """Bind module.name to its source with the one occurrence of old replaced by new."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    monkeypatch.setattr(module, name, namespace[name])


def _drop_zbar_from_the_indefinite_product(monkeypatch):
    # the imaginary factor (1 + |tau|) z2 read as (1 - |tau|) z2, so each factor samples z - |tau| z
    # for z - |tau| zbar: E[z z] = 0 removes the singular part, and the indefinite moments (criterion 7)
    # drift to the Brownian ones
    _mutate(monkeypatch, montecarlo, "mc_moment_components", "(1.0 + abs_taus)", "(1.0 - abs_taus)")


def _swap_alpha_in_the_nelson_krein_direction(monkeypatch):
    # the overlap with kappa read as <d0 / alpha + alpha w, u>: the metric is no longer an
    # involution and [d_tau, d_sigma]_alpha leaves the closed kernel (criterion 11)
    _mutate(
        monkeypatch,
        nelson,
        "_krein_pairing",
        "alpha * content_b + (1.0 / alpha) * content_a",
        "(1.0 / alpha) * content_b + alpha * content_a",
    )


def _swap_alpha_in_the_krein_kernel(monkeypatch):
    # the closed Krein kernel with alpha^-2 and alpha^2 exchanged: the Nelson Krein product no
    # longer matches it (criterion 11), and the sampler at tau 0 and alpha 2 leaves its target (14)
    _mutate(monkeypatch, montecarlo, "krein_kernel", "alpha**-2 + alpha**2 * ", "alpha**2 + alpha**-2 * ")


def _swap_alpha_in_the_krein_sampler(monkeypatch):
    # the sampler's real variables read as (z1 + z2) alpha and -(z1 - z2)/alpha: the Krein measure at
    # 1/alpha, the same at alpha = 1 and at |tau sigma| = 1, so only the diagonal at tau 0 and alpha 2,
    # 1/8 against 2, sees it (criterion 14)
    _mutate(monkeypatch, montecarlo, "mc_krein_moment", "    abs_taus = ", "    alpha = 1.0 / alpha\n    abs_taus = ")


def _drop_the_count_factor_from_the_pair_partitions(monkeypatch):
    # closing one of several open items of a label counts once, not count times: words with a
    # repeated generator lose matchings and wick_value leaves the normal-ordering oracle (criterion 2);
    # the Monte Carlo targets, which import the engine by name, take the mutant too, but none holds a
    # tau more than twice, so every count there is 1
    _mutate(monkeypatch, heisenberg, "pair_partition_sum", "weight * count * value", "weight * value")
    monkeypatch.setattr(montecarlo, "pair_partition_sum", heisenberg.pair_partition_sum)


def _narrow_the_wick_digits_by_one_bit(monkeypatch):
    # the Kronecker digits of wick_value one bit short: a coefficient past half the base reads as a
    # negative digit and carries into the next power of i, so the Wick sum leaves the
    # normal-ordering oracle (criterion 2)
    _mutate(monkeypatch, heisenberg, "wick_value", ".bit_length() + 1", ".bit_length()")


def _reverse_the_primed_letters_in_normal_order(monkeypatch):
    # the q', p' letters of a word multiplied last to first: q' and p' do not commute, so a word
    # with both leaves the Wick sum (criterion 2); no other criterion orders a word
    _mutate(
        monkeypatch,
        heisenberg,
        "normal_order",
        "for g in word if g >= Generator.Q_PRIME",
        "for g in word[::-1] if g >= Generator.Q_PRIME",
    )


def _shift_q_squared_in_the_covariance_table(monkeypatch):
    # <q^2> and <q'^2> read as c + 1/3: <q^2> leaves the ordered-moment closed form (criterion 1), the
    # annihilators no longer kill the vacuum (3) and the Weyl series leaves e^{-i/2} (5)
    _mutate(monkeypatch, heisenberg, "CovarianceTable", "c = Fraction(self.c)", "c = Fraction(self.c) + Fraction(1, 3)")


def _reverse_the_free_evolution(monkeypatch):
    # W(a, b) evolved to W(a, b - a t): the symplectic phase of <W(u) W(v_t)> then falls at the rate
    # a^2/2, so every oscillation with a != 0 has a negative frequency and energy positivity fails (criterion 8)
    _mutate(monkeypatch, weyl, "evolve_weyl", "b + a * ", "b - a * ")


def _double_the_symplectic_phase(monkeypatch):
    # sigma(u, v) read as (b g - a d) * 2: every frequency becomes 2 a^2, still nonnegative, so only
    # the exact check of each frequency against a^2/2 sees it (criterion 8)
    _mutate(monkeypatch, weyl, "symplectic_phase", "/ 2", "* 2")


def _divide_by_t_in_the_free_evolution(monkeypatch):
    # W(a, b) evolved to W(a, b + a / t): the same label at t = 1, the only time spectral_support
    # evolves by, so only the affine law of the phase at t = 3/2 sees it (criterion 8)
    _mutate(monkeypatch, weyl, "evolve_weyl", "a * to_label_fraction(t)", "a / to_label_fraction(t)")


def _flip_the_determinant_sign(monkeypatch):
    # every pivot of the exact elimination negated: the degree-4 moment matrix has 15 pivots, so its
    # determinant keeps its size and changes sign, against (-1)^n- from the signature (criterion 4)
    _mutate(monkeypatch, heisenberg, "_exact_det", "det * top[col]", "det * -top[col]")


# name -> (injection, the criteria that must each fail under it)
FAULTS = {
    "nelson singular part halved": (_halve_the_singular_part, (10, 11)),
    "Markov bases without w": (_drop_w_from_the_markov_bases, (12,)),
    "Brownian gaps 2% long": (_stretch_the_brownian_gaps, (6, 7, 14)),
    "z 2% long": (_stretch_z, (7, 14)),
    "zbar read as z in the indefinite product": (_drop_zbar_from_the_indefinite_product, (7,)),
    "alpha and 1/alpha swapped in the Nelson Krein direction": (_swap_alpha_in_the_nelson_krein_direction, (11,)),
    "alpha and 1/alpha swapped in the Krein kernel": (_swap_alpha_in_the_krein_kernel, (11, 14)),
    "alpha and 1/alpha swapped in the Krein sampler": (_swap_alpha_in_the_krein_sampler, (14,)),
    "pair partitions without the count factor": (_drop_the_count_factor_from_the_pair_partitions, (2,)),
    "Wick digits one bit short": (_narrow_the_wick_digits_by_one_bit, (2,)),
    "primed letters reversed in normal_order": (_reverse_the_primed_letters_in_normal_order, (2,)),
    "<q^2> shifted by 1/3 in the covariance table": (_shift_q_squared_in_the_covariance_table, (1, 3, 5)),
    "free evolution reversed in evolve_weyl": (_reverse_the_free_evolution, (8,)),
    "symplectic phase doubled": (_double_the_symplectic_phase, (8,)),
    "free evolution divides by t": (_divide_by_t_in_the_free_evolution, (8,)),
    "determinant sign flipped": (_flip_the_determinant_sign, (4,)),
}


@pytest.mark.parametrize("name", FAULTS)
def test_each_listed_criterion_catches_the_fault(monkeypatch, name):
    inject, catchers = FAULTS[name]
    inject(monkeypatch)
    results = acceptance.run_all(only=list(catchers))
    assert [r.number for r in results if not r.passed] == list(catchers)
