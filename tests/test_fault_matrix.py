"""Fault matrix: a wrong program must fail the criteria that claim to see its fault.

Each fault is injected by monkeypatch only, with no hook in the sources, and
names the criteria that must each fail under it, run at full size and the
default seed.
"""

import pytest

from ccrlab import acceptance, nelson


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


# name -> (injection, the criteria that must each fail under it)
FAULTS = {
    "nelson singular part halved": (_halve_the_singular_part, (10, 11)),
    "Markov bases without w": (_drop_w_from_the_markov_bases, (12,)),
}


@pytest.mark.parametrize("name", FAULTS)
def test_each_listed_criterion_catches_the_fault(monkeypatch, name):
    inject, catchers = FAULTS[name]
    inject(monkeypatch)
    results = acceptance.run_all(only=list(catchers))
    assert [r.number for r in results if not r.passed] == list(catchers)
