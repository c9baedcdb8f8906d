"""Fault matrix: a wrong program must fail the criteria that claim to see its fault.

Each fault is injected by monkeypatch only, with no hook in the sources, and
names the criteria that must each fail under it, run at full size and the
default seed.
"""

import pytest

from ccrlab import acceptance, montecarlo, nelson


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
        return estimate(taus, cfg, lambda paths, *z: integrand(paths, *(1.02 * row for row in z)), *args, **kwargs)

    monkeypatch.setattr(montecarlo, "_estimate", stretched)


# name -> (injection, the criteria that must each fail under it)
FAULTS = {
    "nelson singular part halved": (_halve_the_singular_part, (10, 11)),
    "Markov bases without w": (_drop_w_from_the_markov_bases, (12,)),
    "Brownian gaps 2% long": (_stretch_the_brownian_gaps, (6, 7, 14)),
    "z 2% long": (_stretch_z, (7, 14)),
}


@pytest.mark.parametrize("name", FAULTS)
def test_each_listed_criterion_catches_the_fault(monkeypatch, name):
    inject, catchers = FAULTS[name]
    inject(monkeypatch)
    results = acceptance.run_all(only=list(catchers))
    assert [r.number for r in results if not r.passed] == list(catchers)
