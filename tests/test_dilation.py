"""Dilation: the same Nelson space in another unit of time gives the same verdicts.

Every time scaled by lambda = 4^k, with a family's grid values unchanged, multiplies
each indefinite product by lambda^3: h^2 |t - s| is cubic in lambda.  The step, the
times and the square roots of the Brownian gaps (2^k) all scale by powers of two, so
every rounded operation is the unscaled one times a power of two, and the Gram
scales bit for bit.  A grid judges its points in steps, so its point tests give the
same verdicts in every unit.
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
