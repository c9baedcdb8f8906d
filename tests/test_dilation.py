"""Dilation: the same Nelson space in another unit of time gives the same verdicts.

Every time scaled by lambda = 4^k, with a family's grid values unchanged, multiplies
each indefinite product by lambda^3: h^2 |t - s| is cubic in lambda.  The step, the
times and the square roots of the Brownian gaps (2^k) all scale by powers of two, so
every rounded operation is the unscaled one times a power of two, and the Gram
scales bit for bit.  A grid judges its points in steps, so its point tests give the
same verdicts in every unit.  A dilation scales the Markov bases' Gram by a diagonal
congruence (point masses and d0 by sqrt(lambda), w by 1/sqrt(lambda)), so by
Sylvester's law of inertia their signature is unit-free in exact arithmetic.
"""

import numpy as np
import pytest

from ccrlab import nelson
from ccrlab.nelson import ExtendedVector, Grid, family, signature_of

POWERS = [-4, -2, 2, 4, 6]
# spec -> FACTOR_BLOCK_BYTES: -10:10:0.01 is summed over blocks of 128 columns of W
GRIDS = {"-5:5:0.1": None, "0:5:0.05": None, "-3:-1:0.25": None, "-10:10:0.01": 15 * 8 * 128}


def dilated(grid, lam):
    return Grid.make(lam * grid.start, lam * grid.stop, lam * grid.step)


@pytest.mark.parametrize("spec", GRIDS)
def test_dilation_scales_the_gram_by_lambda_cubed_bit_for_bit(monkeypatch, spec):
    if GRIDS[spec] is not None:
        monkeypatch.setattr(nelson, "FACTOR_BLOCK_BYTES", GRIDS[spec])
    grid = Grid.parse(spec)
    values = [v.values for v in family("meanzero:12", grid, seed=5) + family("bumps:3", grid, seed=6)]
    blocked = sum(ends.size for _, ends in grid.gap_tails) > nelson._block_columns(len(values), float)
    assert blocked == (GRIDS[spec] is not None)
    gram = signature_of([ExtendedVector(grid, f) for f in values])
    assert gram.signature[1] >= 1  # the bumps bring the indefinite direction
    for k in POWERS:
        lam = 4.0**k
        big = dilated(grid, lam)
        assert big.n == grid.n and big.step == lam * grid.step
        scaled = signature_of([ExtendedVector(big, f) for f in values])
        assert np.array_equal(scaled.entries, lam**3 * gram.entries), (spec, k)
        assert scaled.signature == gram.signature, (spec, k)


def point_verdicts(grid, lam):
    """make, index_of and is_symmetric on the grid dilated by lam, for times a fraction of a step off."""
    h = grid.step
    offsets = (0.0, 1e-9, -1e-9, 1e-3, 1.0 / 3.0, -1.0 / 3.0)
    makes = []
    for f in offsets:
        try:
            makes.append(Grid.make(lam * grid.start, lam * (grid.stop + f * h), lam * h).n)
        except ValueError:
            makes.append(None)
    big = dilated(grid, lam)
    taus = [t + f * h for t in grid.points[:: max(1, grid.n // 7)] for f in offsets]
    return makes, [big.index_of(lam * float(t)) for t in taus], big.is_symmetric()


@pytest.mark.parametrize("spec", GRIDS)
def test_point_verdicts_do_not_depend_on_the_unit_of_time(spec):
    grid = Grid.parse(spec)
    want = point_verdicts(grid, 1.0)
    makes, indices, _ = want
    assert None in makes and grid.n in makes and None in indices and 0 in indices
    for k in POWERS:
        assert point_verdicts(grid, 4.0**k) == want, (spec, k)


def markov_verdicts(grid):
    """The signatures of criterion 12's Markov bases, 25 points a side, and whether the diagnostics refuse them."""
    signatures = [signature_of(nelson._side_basis(grid, side, 25)).signature for side in (+1, -1)]
    try:
        nelson.markov_diagnostics(grid, 25)
    except nelson.DegenerateGramError:
        return signatures, "refused"
    return signatures, "accepted"


# at 10^4 the w direction's eigenvalue (2e-5) falls under SIGNATURE_TOL_FACTOR times the
# spectral radius (2.3e5), so the signature reads (25, 1, 1): the tolerance is not unit-free
UNIT_FREE_SIGNATURE = pytest.mark.xfail(strict=True, raises=AssertionError, reason="radius-relative zero tolerance")


@pytest.mark.parametrize("k", [-4, -2, 2, pytest.param(4, marks=UNIT_FREE_SIGNATURE)])
def test_markov_bases_give_the_same_verdicts_in_every_unit(k):
    grid = Grid.parse("-5:5:0.2")  # criterion 12's grid
    want = markov_verdicts(grid)
    assert want == ([(26, 1, 0)] * 2, "accepted")
    assert markov_verdicts(dilated(grid, 10.0**k)) == want, k


def test_markov_diagnostics_accept_a_large_unit_of_time():
    # the points of -5:5:1 in a unit 1e8 times larger: its raw Gram reads cond 1.7e17
    diagnostics = nelson.markov_diagnostics(Grid.parse("-5e8:5e8:1e8"), 2)
    assert diagnostics["markov_residual"] < 1e-13 and diagnostics["idempotence_residual"] < 1e-13
    assert diagnostics["v_fixed_residual"] < 1e-13
