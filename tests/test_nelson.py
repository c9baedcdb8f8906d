"""Discretized indefinite euclidean space: products, metrics, projections."""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from test_montecarlo import outputs_under_kernels

from ccrlab import nelson
from ccrlab.cli import main
from ccrlab.gram import real_or_complex
from ccrlab.montecarlo import brownian_gaps, krein_kernel
from ccrlab.nelson import (
    PROJECTION_CONDITION_LIMIT,
    DegenerateGramError,
    ExtendedVector,
    Grid,
    GridMismatchError,
    SupportError,
    conditional_independence_residual,
    delta_zero,
    family,
    indefinite_inner,
    krein_inner,
    krein_metric_apply,
    markov_diagnostics,
    metric_matrix,
    os_inner_routes,
    os_rank,
    point_mass,
    project_onto,
    signature_of,
    w_vector,
)

GRID = Grid.parse("-5:5:0.1")


def unit_bump(grid, center, width=0.05):
    values = np.exp(-0.5 * ((grid.points - center) / width) ** 2)
    values /= values.sum() * grid.step
    return values


def row_set(grid, rows):
    """The kernel's row set of a stack of coordinate rows (values, a, b), its grid parts as a list of rows."""
    return nelson._Rows(grid, list(rows[:, :-2]), rows[:, -2:])


def product(grid, left, right):
    """<u_i, v_j> of two stacks of coordinate rows by the one kernel, each stack walked on its own."""
    return nelson._products(row_set(grid, left), row_set(grid, right))


def krein_norms(grid, rows, alpha):
    """Krein norms of a stack of coordinate rows by the one norm rule: coefficients I on their own Gram."""
    rows = row_set(grid, rows)
    gram, overlaps = nelson._products(rows, rows), nelson._krein_pairing(rows.content, alpha)
    return nelson._coefficient_norms(gram, overlaps, np.eye(len(rows)))


def factors(grid, rows):
    """(W, A, B) of a stack of coordinate rows: W whole, the one block a product sees when it fits one."""
    rows = row_set(grid, rows)
    (whole,) = rows.blocks(grid.n)
    return (whole, *rows.content)


# -- reference operations that no criterion or command needs ---------------------------


def from_values(grid, values):
    return ExtendedVector(grid, np.asarray(values, dtype=complex))


def decompose(u):
    """Split off the d0 and w content: u = a d0 + b w + h with h orthogonal to both.

    The coefficients a = -2<w, u> and b = -2<d0, u> are the total mass and the
    |tau|-weighted mass of the grid part (plus any explicit coordinates);
    idempotent by construction.
    """
    # -2 <w, u> and -2 <d0, u> from the content (A, B), op for op as on the product
    # route, whose zero signs they keep
    a, b = -2.0 * (0.0 - np.concatenate(nelson._Rows.of([u]).content) / 2.0)
    rest = ExtendedVector(u.grid, u.values.copy(), a=u.a - a, b=u.b - b)
    return complex(a), complex(b), rest


def krein_direction(grid, alpha):
    """The negative-normalized direction alpha d0 + w/alpha (self-product -1)."""
    return ExtendedVector(grid, np.zeros(grid.n), a=alpha, b=1.0 / alpha)


def reflect_values(grid, values):
    """Time reflection theta f(tau) = f(-tau); needs a symmetric grid."""
    assert grid.is_symmetric()
    return np.asarray(values)[::-1].copy()


def second_difference_operator(grid, values):
    """D g = -g'' by the central second difference (zero at the boundary rows)."""
    g = real_or_complex(values)
    out = np.zeros_like(g)
    out[1:-1] = -(g[2:] - 2.0 * g[1:-1] + g[:-2]) / grid.step**2
    return out


def duality_residual(grid, f, g):
    """|<f, D g> - (f, g)_L2| for the duality operator D = -d^2/dtau^2."""
    lhs = indefinite_inner(ExtendedVector(grid, f), ExtendedVector(grid, second_difference_operator(grid, g)))
    return abs(lhs - grid.step * (np.conj(np.asarray(f)) * np.asarray(g)).sum())


# -- grids ------------------------------------------------------------------------


def test_grid_parse_and_points():
    grid = Grid.parse("-1:1:0.5")
    assert grid.n == 5
    assert np.allclose(grid.points, [-1, -0.5, 0, 0.5, 1])
    assert grid.is_symmetric()
    assert grid.index_of(0.5) == 3
    assert grid.index_of(0.31) is None


def test_grid_parse_errors():
    with pytest.raises(ValueError):
        Grid.parse("0:1")
    with pytest.raises(ValueError):
        Grid.parse("0:1:0.3")
    with pytest.raises(ValueError):
        Grid.parse("0:1:-0.5")


def test_grid_points_are_judged_in_steps():
    # a third of a step from every point is off the grid, whatever the unit of time
    fine = Grid.parse("-1e-8:1e-8:1e-10")
    assert fine.index_of(3.3e-11) is None and fine.index_of(1e-10) == 101
    with pytest.raises(ValueError):
        Grid.parse("0:1e-9:3e-10")  # the stop is a third of a step past the last point
    # a point a step from 0 is off it: each Markov side keeps all its points
    assert [len(nelson._side_basis(fine, side, 200)) - 2 for side in (+1, -1)] == [100, 100]
    tiny = Grid.parse("-1e-12:1e-12:1e-12")
    assert tiny.is_symmetric() and [len(nelson._side_basis(tiny, side, 2)) for side in (+1, -1)] == [3, 3]
    # points below 0 are negative time: a possupport function is zero there, and the OS sector refuses one that is not
    (positive,) = family("possupport:1", fine, seed=3)
    assert not positive.values[fine.points < 0].any()
    leaked = positive.values.copy()
    leaked[fine.index_of(-5e-10)] = leaked.max()
    with pytest.raises(SupportError):
        os_rank(fine, [leaked])


def test_grid_mismatch_rejected():
    other = Grid.parse("-5:5:0.2")
    with pytest.raises(GridMismatchError):
        indefinite_inner(ExtendedVector(GRID, np.zeros(GRID.n)), ExtendedVector(other, np.zeros(other.n)))


# -- singular-sector products -----------------------------------------------------


def test_v_sector_products():
    d0, w = delta_zero(GRID), w_vector(GRID)
    assert indefinite_inner(d0, w) == -0.5
    assert indefinite_inner(w, d0) == -0.5
    assert indefinite_inner(d0, d0) == 0.0
    assert indefinite_inner(w, w) == 0.0


def test_point_mass_products():
    assert indefinite_inner(point_mass(GRID, 1.0), point_mass(GRID, -1.0)) == pytest.approx(-1.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        tau = float(rng.choice(GRID.points))
        sigma = float(rng.choice(GRID.points))
        value = indefinite_inner(point_mass(GRID, tau), point_mass(GRID, sigma))
        assert value == pytest.approx(-abs(tau - sigma) / 2, abs=1e-12)
    # the grid spike at 0 and the abstract coordinate are the same element
    spike = point_mass(GRID, 0.0)
    for probe in (point_mass(GRID, 2.5), w_vector(GRID), delta_zero(GRID)):
        assert indefinite_inner(spike, probe) == pytest.approx(
            indefinite_inner(delta_zero(GRID), probe), abs=1e-12
        )


def test_singular_function_products():
    values = unit_bump(GRID, 1.5)
    f = from_values(GRID, values)
    mass = values.sum() * GRID.step
    weighted = (np.abs(GRID.points) * values).sum() * GRID.step
    assert indefinite_inner(delta_zero(GRID), f) == pytest.approx(-weighted / 2)
    assert indefinite_inner(w_vector(GRID), f) == pytest.approx(-mass / 2)


# -- decomposition -------------------------------------------------------------------


def test_decompose_bump():
    f = from_values(GRID, unit_bump(GRID, 1.5))
    a, b, h = decompose(f)
    assert a == pytest.approx(1.0, abs=1e-12)
    assert b == pytest.approx(1.5, abs=5e-3)
    assert abs(indefinite_inner(h, delta_zero(GRID))) < 1e-10
    assert abs(indefinite_inner(h, w_vector(GRID))) < 1e-10
    a2, b2, h2 = decompose(h)
    assert abs(a2) < 1e-12 and abs(b2) < 1e-12
    assert np.allclose(h2.coords(), h.coords())


def test_decompose_doubly_mean_zero_is_untouched():
    # zero mass and zero |tau|-moment: subtract the best combination of two
    # fixed directions, solved exactly
    rng = np.random.default_rng(5)
    raw = rng.standard_normal(GRID.n)
    ones = np.ones(GRID.n)
    taus = np.abs(GRID.points)
    basis = np.stack([ones, taus])
    moments = np.array([raw.sum(), (taus * raw).sum()])
    coeffs = np.linalg.solve(basis @ basis.T, moments)
    values = raw - coeffs[0] * ones - coeffs[1] * taus
    a, b, h = decompose(from_values(GRID, values))
    assert abs(a) < 1e-12 and abs(b) < 1e-12
    assert np.allclose(h.values, values)


def test_decompose_regular_part_orthogonal_to_singular_span():
    # the split is S_00-part against span{d0, w}; inside the span the pair is
    # null-coupled (<d0, w> = -1/2), so only h-against-V orthogonality can hold
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = ExtendedVector(
            GRID,
            rng.standard_normal(GRID.n),
            a=complex(*rng.standard_normal(2)),
            b=complex(*rng.standard_normal(2)),
        )
        a, b, h = decompose(u)
        singular = a * delta_zero(GRID) + b * w_vector(GRID)
        back = singular + h
        assert np.allclose(back.coords(), u.coords())
        for part in (a * delta_zero(GRID), b * w_vector(GRID), singular):
            assert abs(indefinite_inner(h, part)) < 1e-10
            assert abs(indefinite_inner(part, h)) < 1e-10
        cross = indefinite_inner(a * delta_zero(GRID), b * w_vector(GRID))
        assert cross == pytest.approx(-np.conj(a) * b / 2)


# -- OS product ------------------------------------------------------------------------


def test_os_routes_agree_and_fail_positivity():
    grid = Grid.parse("0:5:0.01")
    values = unit_bump(grid, 1.0, width=0.08)
    reflected, closed, v_sector = os_inner_routes(grid, values, values)
    assert abs(reflected - closed) < 1e-8
    assert abs(reflected - v_sector) < 1e-8
    mass = values.sum() * grid.step
    first = (grid.points * values).sum() * grid.step
    assert reflected.real == pytest.approx(-(first * mass), abs=1e-10)
    assert reflected.real < 0  # reflection positivity fails


def test_os_zero_moment_function_is_null():
    grid = Grid.parse("0:5:0.01")
    f = unit_bump(grid, 1.0) - unit_bump(grid, 2.0)  # zero mass
    taus = grid.points
    # also remove the first moment with a third bump
    g = unit_bump(grid, 3.0)
    correction = (taus * f).sum() / (taus * g).sum()
    f = f - correction * g + correction * unit_bump(grid, 0.5) * 0  # keep mass zero
    f -= f.sum() / g.sum() * 0
    mass = f.sum() * grid.step
    first = (taus * f).sum() * grid.step
    if abs(mass) > 1e-12 or abs(first) > 1e-12:
        # solve exactly with two bumps
        b1, b2 = unit_bump(grid, 1.5), unit_bump(grid, 3.5)
        m = np.array(
            [
                [b1.sum() * grid.step, b2.sum() * grid.step],
                [(taus * b1).sum() * grid.step, (taus * b2).sum() * grid.step],
            ]
        )
        coeff = np.linalg.solve(m, [mass, first])
        f = f - coeff[0] * b1 - coeff[1] * b2
    for other in (unit_bump(grid, 2.5), f):
        assert abs(os_inner_routes(grid, f, other)[0]) < 1e-10


def test_os_c_term():
    grid = Grid.parse("0:4:0.01")
    f = unit_bump(grid, 0.7)
    g = unit_bump(grid, 2.1)
    base = os_inner_routes(grid, f, g)[0]
    shifted = os_inner_routes(grid, f, g, c=0.9)[0]
    mass_f = f.sum() * grid.step
    mass_g = g.sum() * grid.step
    assert shifted - base == pytest.approx(0.9 * mass_f * mass_g, abs=1e-10)


def test_os_support_enforced():
    values = unit_bump(GRID, -2.0)
    with pytest.raises(SupportError):
        os_inner_routes(GRID, values, values)


def test_os_gram_rank_two(monkeypatch):
    grid = Grid.parse("0:5:0.05")
    funcs = [v.values for v in family("possupport:10", grid, seed=11)]
    svd, seen = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: (seen.append(a.dtype), svd(a, **kw))[1])
    rank, singular = os_rank(grid, funcs)
    assert rank == 2
    assert singular[2] / singular[0] < 1e-8
    # real input keeps float64 up to the SVD; its complex cast gives the same rank, and
    # singular values within the roundoff of the two routes' products: entrywise at most
    # gamma_2n h^2 |F| |K| |F|^T each, K = -(|tau| + |sigma|)/2 the reflected kernel,
    # which moves a singular value by at most its Frobenius norm (Weyl), plus each SVD's
    # backward error
    cast_rank, cast_singular = os_rank(grid, [f.astype(complex) for f in funcs])
    assert seen == [np.float64, np.complex128] and cast_rank == rank
    rows, eps = np.array(funcs), np.finfo(float).eps
    abs_kernel = np.add.outer(grid.abs_points, grid.abs_points) / 2.0
    sizes = grid.step**2 * (np.abs(rows) @ abs_kernel @ np.abs(rows).T)
    bound = 2 * (2 * grid.n * eps) * np.linalg.norm(sizes) + 2 * len(funcs) * eps * singular[0]
    assert np.all(np.abs(singular - cast_singular) <= bound)


def reflected_kernel(grid, c):
    """The reflected kernel c - (|tau| + |sigma|)/2 on the grid as a dense n x n array: the OS sector's reference."""
    return c - np.add.outer(grid.abs_points, grid.abs_points) / 2.0


def gamma(m):
    """Higham's gamma_m = m u / (1 - m u) at u = eps, twice the unit roundoff, so that it also
    bounds complex products (sqrt(2) gamma_2 each) op for op."""
    u = np.finfo(float).eps
    return m * u / (1 - m * u)


# -1e-10:5:0.05 starts within GRID_POINT_TOL steps below 0, a point of the support weighted by |tau|
@pytest.mark.parametrize("spec", ["0:5:0.05", "0:5:0.01", "-1e-10:5:0.05", "-2:3:0.1", "0.5:2.5:0.02"])
def test_os_sector_matches_the_dense_reflected_kernel(spec):
    grid = Grid.parse(spec)
    assert spec != "-1e-10:5:0.05" or -nelson.GRID_POINT_TOL * grid.step < grid.points[0] < 0
    h, eps = grid.step, np.finfo(float).eps
    real = [v.values for v in family("possupport:10", grid, seed=31)]
    phases = np.exp(2j * np.pi * np.random.default_rng(31).uniform(size=(len(real), grid.n)))
    for funcs in (real, list(real * phases)):
        rows = np.array(funcs)
        for c in (0.0, 0.9):
            dense = h * h * (rows.conj() @ reflected_kernel(grid, c) @ rows.T)
            # summation error: the dense route takes 2n + 3 rounded ops a term, the content
            # route n + 5 (n + 1 for a sum, its weight, h and the pairing), each term at most
            # h^2 |f| (|c| + (|tau| + |sigma|)/2) |g| in size
            sizes = h * h * (np.abs(rows) @ (abs(c) - reflected_kernel(grid, 0.0)) @ np.abs(rows).T)
            bound = gamma(3 * grid.n + 8) * sizes
            reflected = np.array([[os_inner_routes(grid, f, g, c)[0] for g in funcs] for f in funcs])
            assert np.all(np.abs(reflected - dense) <= bound), (spec, c)
            if c == 0.0:
                # os_rank's Gram: its singular values move by at most the Frobenius norm of
                # the entries' error (Weyl), plus each SVD's backward error
                reference = np.linalg.svd(dense, compute_uv=False)
                drift = np.linalg.norm(bound) + 2 * len(funcs) * eps * reference[0]
                assert np.all(np.abs(os_rank(grid, funcs)[1] - reference) <= drift), spec


def test_os_sector_holds_no_dense_kernel():
    # each content call reads k rows: a chunk of them and its |tau|-weighted product
    # (2 k n 8 bytes, real), one ufunc buffer of that product, the support mask (n bytes)
    # and a few k x k Grams; a dense kernel would take 8 n^2 bytes, 32 MB here
    grid = Grid.parse("0:20:0.01")
    funcs = [v.values for v in family("possupport:10", grid, seed=5)]
    assert len(funcs) * grid.n * 8 <= nelson.FACTOR_BLOCK_BYTES  # one chunk
    os_rank(grid, funcs)  # fill the grid's caches, which outlive the call
    for k, call in ((len(funcs), lambda: os_rank(grid, funcs)), (1, lambda: os_inner_routes(grid, funcs[0], funcs[1], 0.9))):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * k * grid.n * 8 + 8 * np.getbufsize() + grid.n + 8 * k * k * 8


THREADS_SCRIPT = """
from ccrlab import nelson as ne
grid = ne.Grid.parse("0:5:0.01")
for seed in (1, 5, 11):
    rank, singular = ne.os_rank(grid, [v.values for v in ne.family("possupport:10", grid, seed)])
    print(rank, [float(s).hex() for s in singular])
for spec, per_side in (("-5:5:0.1", 40), ("-5:5:0.05", 50)):
    for seed in (1, 5, 11):
        residuals = ne.markov_diagnostics(ne.Grid.parse(spec), per_side, seed=seed)
        print(spec, [value.hex() for value in residuals.values()])
"""


def test_os_rank_does_not_depend_on_the_blas_thread_count():
    # the nelson workload's OS input: a dense kernel product splits its sums by thread,
    # which moves the trailing singular values, at roundoff size, with the count; and
    # its Markov grids (101 and 201 points), whose products and solves must not either
    threads = ({"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"})
    outputs = outputs_under_kernels(THREADS_SCRIPT, threads)
    assert outputs[0].count("0x") == 30 + 2 * 3 * 3
    assert outputs[0] == outputs[1]


def test_os_rank_empty_family_and_support():
    grid = Grid.parse("0:5:0.1")
    rank, singular = os_rank(grid, [])
    assert rank == 0 and singular.size == 0
    funcs = [v.values for v in family("possupport:2", GRID, seed=12)]
    with pytest.raises(SupportError):
        os_rank(GRID, funcs + [unit_bump(GRID, -2.0)])
    # a function of another length is refused, not broadcast over the grid
    with pytest.raises(ValueError):
        os_rank(grid, [np.ones(1)])
    with pytest.raises(ValueError):
        os_inner_routes(grid, np.ones(grid.n), np.ones(1))


# -- signature ---------------------------------------------------------------------------


def test_signature_mean_zero_positive():
    gram = signature_of(family("meanzero:20", GRID, seed=21))
    assert gram.signature[1] == 0


def test_signature_one_negative_with_bump():
    vectors = family("meanzero:20", GRID, seed=21) + family("bumps:1", GRID, seed=22)
    gram = signature_of(vectors)
    assert gram.signature[1] == 1


def test_signature_of_holds_blocks_not_the_family_factors():
    # transient bound: at most four column blocks at once (the block a product reads,
    # the next block's running sums, its scaled tails, and one more for ufunc
    # buffers and the carried column) plus four k x k arrays (the running sum and a
    # block's product, or the entries and the singular part's or gram_signature's
    # temporaries); the unblocked factoring held about three k x n copies, 9.8 MB here
    grid = Grid.parse("-10:10:0.01")
    vectors = family(f"meanzero:{nelson.FAMILY_LIMIT}", grid, seed=23)
    k = len(vectors)
    assert k * grid.n * 8 > 4 * nelson.FACTOR_BLOCK_BYTES
    signature_of(vectors)  # fill the grid's caches, which outlive the call
    tracemalloc.start()
    try:
        signature_of(vectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * nelson.FACTOR_BLOCK_BYTES + 4 * k * k * 8


def test_signature_empty_family():
    gram = signature_of([])
    assert gram.signature == (0, 0, 0)
    assert gram.entries.shape[0] == 0
    assert gram.eigenvalues.shape == (0,)


def test_signature_family_cap():
    with pytest.raises(ValueError):
        signature_of([ExtendedVector(GRID, np.zeros(GRID.n))] * 201)


def test_family_specs():
    for kind in ("meanzero", "bumps", "possupport"):
        vectors = family(f"{kind}:3", GRID, seed=1)
        assert len(vectors) == 3
    assert family("bumps:0", GRID, seed=1) == []
    with pytest.raises(ValueError):
        family("meanzero", GRID, seed=1)
    with pytest.raises(ValueError):
        family("fancy:3", GRID, seed=1)


# -- Krein structure ----------------------------------------------------------------------


def test_krein_direction_is_negative_eigenvector():
    for alpha in (0.5, 1.0, 2.0):
        u = krein_direction(GRID, alpha)
        assert indefinite_inner(u, u) == pytest.approx(-1.0)
        assert np.abs((krein_metric_apply(u, alpha) + u).coords()).max() < 1e-12


def test_krein_metric_fixes_orthogonal_part():
    f = from_values(GRID, unit_bump(GRID, 1.5))
    _a, _b, h = decompose(f)
    assert np.abs((krein_metric_apply(h, 1.3) - h).coords()).max() < 1e-10


def test_krein_metric_involution_and_positivity():
    rng = np.random.default_rng(23)
    for _ in range(100):
        u = ExtendedVector(
            GRID,
            rng.standard_normal(GRID.n),
            a=complex(*rng.standard_normal(2)),
            b=complex(*rng.standard_normal(2)),
        )
        u = u * (1.0 / np.abs(u.coords()).max())
        alpha = float(rng.uniform(0.3, 3.0))
        assert np.abs((krein_metric_apply(krein_metric_apply(u, alpha), alpha) - u).coords()).max() < 1e-10
        assert krein_inner(u, u, alpha).real >= -1e-10


def test_krein_inner_reproduces_closed_kernel():
    rng = np.random.default_rng(29)
    for _ in range(20):
        tau = float(rng.choice(GRID.points))
        sigma = float(rng.choice(GRID.points))
        alpha = float(rng.uniform(0.5, 2.0))
        value = krein_inner(point_mass(GRID, tau), point_mass(GRID, sigma), alpha)
        assert value.real == pytest.approx(krein_kernel(tau, sigma, alpha), abs=1e-10)
        assert abs(value.imag) < 1e-12


def test_krein_rank_one_correction_and_scale_dependence():
    f = from_values(GRID, unit_bump(GRID, 0.8))
    base = indefinite_inner(f, f)
    seen = set()
    for alpha in (0.5, 1.0, 2.0):
        overlap = indefinite_inner(krein_direction(GRID, alpha), f)
        expected = base + 2.0 * abs(overlap) ** 2
        value = krein_inner(f, f, alpha)
        assert value.real == pytest.approx(expected.real, abs=1e-10)
        seen.add(round(value.real, 6))
    # the indefinite product is alpha-free, the Krein one is not
    assert len(seen) == 3


@pytest.mark.parametrize("spec", ["-5:5:0.1", "-5:5:0.01", "0.3:2.3:0.2", "-3:-1:0.25"])
def test_krein_inner_is_indefinite_inner_plus_the_krein_term_bit_for_bit(spec):
    # one route for both products: [u, v]_alpha = <u, v> + 2 conj(<kappa, u>) <kappa, v>
    grid = Grid.parse(spec)
    rng = np.random.default_rng(47)

    def draw(kind):
        if kind == 0:
            return ExtendedVector(grid, rng.standard_normal(grid.n))
        if kind == 1:
            return ExtendedVector(grid, rng.standard_normal(grid.n), a=rng.standard_normal(), b=rng.standard_normal())
        return ExtendedVector(
            grid,
            rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n),
            a=complex(*rng.standard_normal(2)),
            b=complex(*rng.standard_normal(2)),
        )

    for _ in range(75):
        u, v = draw(rng.integers(3)), draw(rng.integers(3))
        alpha = float(rng.uniform(0.4, 2.5))
        kappa = krein_direction(grid, alpha)
        for left, right in ((u, v), (u, u)):
            overlap_left, overlap_right = indefinite_inner(kappa, left), indefinite_inner(kappa, right)
            want = indefinite_inner(left, right) + 2.0 * overlap_left.conjugate() * overlap_right
            assert bits(krein_inner(left, right, alpha)) == bits(want)


# -- projections -----------------------------------------------------------------------------


def test_project_delta_onto_singular_pair():
    basis = [delta_zero(GRID), w_vector(GRID)]
    projected = project_onto(basis, point_mass(GRID, 2.0))
    assert projected.a == pytest.approx(1.0)
    assert projected.b == pytest.approx(2.0)
    assert np.abs(projected.values).max() == 0.0


def test_project_basis_member_is_fixed():
    basis = [delta_zero(GRID), w_vector(GRID), point_mass(GRID, 1.0)]
    for member in basis:
        projected = project_onto(basis, member)
        assert np.abs((projected - member).coords()).max() < 1e-10


def test_project_hermitean_and_idempotent():
    rng = np.random.default_rng(31)
    basis = [point_mass(GRID, t) for t in (-2.0, 0.5, 3.0)] + [w_vector(GRID)]
    u = ExtendedVector(GRID, rng.standard_normal(GRID.n), a=0.3, b=-1.1)
    v = ExtendedVector(GRID, rng.standard_normal(GRID.n), a=-0.2, b=0.9)
    pu, pv = project_onto(basis, u), project_onto(basis, v)
    assert abs(indefinite_inner(pu, v) - indefinite_inner(u, pv)) < 1e-8
    again = project_onto(basis, pu)
    assert np.abs((again - pu).coords()).max() < 1e-8


def test_project_neutral_direction_errors():
    with pytest.raises(DegenerateGramError):
        project_onto([delta_zero(GRID)], point_mass(GRID, 1.0))
    with pytest.raises(DegenerateGramError):
        project_onto([], point_mass(GRID, 1.0))


# -- factored once: the per-call route as the bit-for-bit reference ----------------------------


def per_call_factors(grid, rows):
    """factors as they were before the grid kept its gaps: brownian_gaps on every call."""
    h = grid.step
    pts = grid.points
    values = rows[:, :-2]
    tails = []
    for sq, last in brownian_gaps(pts):
        on = np.flatnonzero(last >= 0)
        ends = on[np.argsort(last[on])]
        tails.append(h * sq * np.cumsum(values[:, ends[::-1]], axis=1)[:, ::-1])
    a = rows[:, -2] + h * values.sum(axis=1)
    b = rows[:, -1] + h * (np.abs(pts) * values).sum(axis=1)
    return np.concatenate(tails, axis=1), a, b


def per_call_project(basis, u):
    """Restack the basis, factor the basis and u, check the Gram's cond, solve: every call.

    The basis stack keeps its dtype and u's row is cast to complex; each row-set
    pair takes its own matrix product, as on project_onto's route.
    """
    coords = np.stack([v.coords() for v in basis])
    w_left, a_left, b_left = per_call_factors(u.grid, coords)
    w_u, a_u, b_u = per_call_factors(u.grid, u.coords()[None].astype(complex))
    a_right, b_right = np.concatenate((a_left, a_u)), np.concatenate((b_left, b_u))
    singular = np.outer(a_left.conj(), b_right) + np.outer(b_left.conj(), a_right)
    products = np.hstack((w_left.conj() @ w_left.T, w_left.conj() @ w_u.T)) - singular / 2.0
    gram, moments = products[:, :-1], products[:, -1]
    cond = np.linalg.cond(gram)
    assert np.isfinite(cond) and cond <= PROJECTION_CONDITION_LIMIT
    return np.linalg.solve(gram, moments) @ coords


@pytest.mark.parametrize("spec, per_side", [("-5:5:0.2", 25), ("-5:5:0.05", 50)])
def test_projector_matches_per_call_route_bit_for_bit(spec, per_side):
    grid = Grid.parse(spec)
    bases = [
        nelson._side_basis(grid, +1, per_side),
        nelson._side_basis(grid, -1, per_side),
        [delta_zero(grid), w_vector(grid)],
    ]
    probes = nelson._probe_set(grid, 11)
    for basis in bases:
        for u in probes:
            assert np.array_equal(project_onto(basis, u).coords(), per_call_project(basis, u))


@pytest.mark.parametrize("spec", ["-3:-1:0.25", "-5:-0.5:0.1", "1:3:0.5", "0.3:2.3:0.2", "-1.05:2.95:0.1", "-5:5:0.1"])
def test_cached_gaps_give_the_per_call_factors_bit_for_bit(spec):
    grid = Grid.parse(spec)
    rng = np.random.default_rng(17)
    rows = rng.standard_normal((6, grid.n + 2)) + 1j * rng.standard_normal((6, grid.n + 2))
    for _ in range(2):  # the second call reads the filled cache
        for got, want in zip(factors(grid, rows), per_call_factors(grid, rows)):
            assert np.array_equal(got, want), spec


@pytest.mark.parametrize("spec", ["-3:-1:0.25", "1:3:0.5", "-1.05:2.95:0.1", "-5:5:0.1"])
@pytest.mark.parametrize("columns", [1, 2, 3])
def test_column_blocks_join_to_the_unblocked_factors_bit_for_bit(spec, columns):
    # each side's blocks come far to near; read back near to far, they are the one block
    grid = Grid.parse(spec)
    rng = np.random.default_rng(19)
    for rows in (rng.standard_normal((5, grid.n + 2)), rng.standard_normal((5, grid.n + 2)) * (1 - 2j)):
        whole = factors(grid, rows)[0]
        blocks = list(nelson._tail_blocks(grid, list(rows[:, :-2]), rows.dtype, columns))
        sides = []
        for _, ends in grid.gap_tails:
            count = -(-ends.size // columns)
            sides += blocks[:count][::-1]
            blocks = blocks[count:]
        assert not blocks
        assert np.array_equal(np.concatenate(sides, axis=1), whole), spec


def test_projector_checks_the_grid():
    other = Grid.parse("-1:1:0.5")
    with pytest.raises(GridMismatchError):
        project_onto([delta_zero(GRID), w_vector(GRID)], point_mass(other, 0.5))
    with pytest.raises(GridMismatchError):
        project_onto([delta_zero(GRID), w_vector(other)], point_mass(GRID, 0.5))


def test_cached_gaps_are_read_only_and_outside_eq_and_hash():
    filled, empty = Grid.parse("-2:2:0.5"), Grid.parse("-2:2:0.5")
    for scaled, ends in filled.gap_tails:
        with pytest.raises(ValueError):
            scaled[0] = 1.0
        with pytest.raises(ValueError):
            ends[0] = 0
    assert "gap_tails" in vars(filled) and "gap_tails" not in vars(empty)
    assert filled == empty and hash(filled) == hash(empty) and repr(filled) == repr(empty)


def test_cached_points_are_read_only_and_outside_eq_and_hash():
    filled, empty = Grid.parse("-2:2:0.5"), Grid.parse("-2:2:0.5")
    assert filled.points is filled.points and filled.abs_points is filled.abs_points
    assert np.array_equal(filled.points, [-2, -1.5, -1, -0.5, 0, 0.5, 1, 1.5, 2])
    assert np.array_equal(filled.abs_points, np.abs(filled.points))
    for cached in (filled.points, filled.abs_points):
        with pytest.raises(ValueError):
            cached[0] = 1.0
    assert "points" in vars(filled) and "abs_points" in vars(filled)
    assert "points" not in vars(empty) and "abs_points" not in vars(empty)
    assert filled == empty and hash(filled) == hash(empty) and repr(filled) == repr(empty)


def test_markov_diagnostics_builds_gaps_and_bases_once(monkeypatch):
    # one walk per row set (the two bases and the probes), each read from the vectors'
    # own arrays: no stage is stacked, and a projection held as coefficients needs no walk
    counts = {"brownian_gaps": 0, "_tail_blocks": 0}

    def counted(name):
        original = getattr(nelson, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        return wrapper

    for name in counts:
        monkeypatch.setattr(nelson, name, counted(name))
    markov_diagnostics(Grid.parse("-5:5:0.2"), 25)
    assert counts == {"brownian_gaps": 1, "_tail_blocks": 3}


def bits(values):
    return np.atleast_1d(np.asarray(values, dtype=complex)).view(np.uint64).tolist()


@pytest.mark.parametrize("spec", ["-5:5:0.1", "-5:5:0.01", "0:5:0.05", "0.3:2.3:0.2", "-3:-1:0.25", "-1.05:2.95:0.1"])
def test_krein_overlap_in_closed_form_matches_the_full_product_bit_for_bit(spec):
    grid = Grid.parse(spec)
    rng = np.random.default_rng(29)
    vectors = [delta_zero(grid), w_vector(grid), point_mass(grid, grid.start), from_values(grid, np.zeros(grid.n))]
    for _ in range(40):
        real = ExtendedVector(grid, rng.standard_normal(grid.n))
        vectors += [real, real * (1.0 / 3.0) + 1j * from_values(grid, rng.standard_normal(grid.n))]
        vectors.append(
            ExtendedVector(
                grid,
                rng.standard_normal(grid.n),
                a=complex(*rng.standard_normal(2)),
                b=complex(*rng.standard_normal(2)),
            )
        )
    pair = np.stack([w_vector(grid).coords(), delta_zero(grid).coords()])
    for u in vectors:
        alpha = float(rng.uniform(0.4, 2.5))
        direction = krein_direction(grid, alpha)
        overlap = indefinite_inner(direction, u)
        closed = nelson._krein_pairing(row_set(grid, u.coords()[None]).content, alpha)[0]
        assert bits(closed) == bits(overlap)
        assert bits(krein_metric_apply(u, alpha).coords()) == bits((u + (2.0 * overlap) * direction).coords())
        a, b, _ = decompose(u)
        assert bits([a, b]) == bits(-2.0 * product(grid, pair, u.coords()[None])[:, 0])


def per_probe_markov(grid, n_per_side, alpha, seed):
    """markov_diagnostics as a loop over probes: every projection on the per-call route."""

    def norm(u):
        direction = krein_direction(grid, alpha)
        eta_u = u + (2.0 * indefinite_inner(direction, u)) * direction
        return math.sqrt(max(indefinite_inner(u, eta_u).real, 0.0))

    def project(basis, u):
        out = per_call_project(basis, u)
        return ExtendedVector(grid, out[:-2], out[-2], out[-1])

    plus_basis = nelson._side_basis(grid, +1, n_per_side)
    minus_basis = nelson._side_basis(grid, -1, n_per_side)
    v_basis = [delta_zero(grid), w_vector(grid)]
    markov = idempotence = fixed_v = 0.0
    for u in nelson._probe_set(grid, seed):
        norm_u = norm(u)
        minus_u = project(minus_basis, u)
        markov = max(markov, norm(project(plus_basis, minus_u) - project(v_basis, u)) / norm_u)
        for basis, pu in ((plus_basis, project(plus_basis, u)), (minus_basis, minus_u)):
            idempotence = max(idempotence, norm(project(basis, pu) - pu) / norm_u)
    for v in v_basis:
        for basis in (plus_basis, minus_basis):
            fixed_v = max(fixed_v, norm(project(basis, v) - v))
    return {"markov_residual": markov, "idempotence_residual": idempotence, "v_fixed_residual": fixed_v}


@pytest.mark.parametrize(
    "spec, per_side, alpha, seed", [("-5:5:0.2", 25, 1.0, 7), ("-4:4:0.2", 10, 0.7, 3), ("-2:2:0.1", 6, 1.9, 11)]
)
def test_markov_diagnostics_matches_the_per_probe_loop(spec, per_side, alpha, seed):
    grid = Grid.parse(spec)
    got = markov_diagnostics(grid, per_side, alpha=alpha, seed=seed)
    want = per_probe_markov(grid, per_side, alpha, seed)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == pytest.approx(want[key], rel=0, abs=1e-13), key


# -- Krein norms against an exact oracle ---------------------------------------------------------


def exact_krein_square(grid, coords, alpha):
    """[u, u]_alpha in rationals: the dense kernel over Fraction(float) grid points and values.

    With u = x + i y and a real symmetric metric M, <u, u> = x M x + y M y and
    <kappa, u> = kappa M x + i kappa M y, kappa = (0, ..., 0, alpha, 1/alpha).
    """
    n, h = grid.n, Fraction(grid.step)
    pts = [Fraction(t) for t in grid.points]
    metric = [[-h * h * abs(s - t) / 2 for t in pts] + [-h * abs(s) / 2, -h / 2] for s in pts]
    metric += [[-h * abs(s) / 2 for s in pts] + [0, Fraction(-1, 2)], [-h / 2] * n + [Fraction(-1, 2), 0]]

    def product(x, y):
        return sum(xi * sum(m * yj for m, yj in zip(row, y) if yj) for xi, row in zip(x, metric) if xi)

    kappa = [Fraction(0)] * n + [Fraction(alpha), Fraction(1.0 / alpha)]
    square = Fraction(0)
    for part in (coords.real, coords.imag):
        x = [Fraction(float(c)) for c in part]
        square += product(x, x) + 2 * product(kappa, x) ** 2
    return square


def krein_scale(grid, rows, alpha):
    """Per row, the terms of [u, u]_alpha in absolute value: the scale of its roundoff."""
    metric = np.abs(metric_matrix(grid))
    kappa = np.abs(krein_direction(grid, alpha).coords())
    sizes = np.abs(rows)
    return np.einsum("ij,jk,ik->i", sizes, metric, sizes) + 2.0 * (sizes @ metric @ kappa) ** 2


@pytest.mark.parametrize("spec", ["-1:1:0.25", "0:2:0.2", "-3:-1:0.5", "-0.7:1.1:0.3"])
@pytest.mark.parametrize("alpha", [0.4, 1.0, 2.3])
def test_krein_norms_match_the_exact_oracle(spec, alpha):
    grid = Grid.parse(spec)
    rng = np.random.default_rng(31)
    real = [delta_zero(grid), w_vector(grid), krein_direction(grid, alpha), point_mass(grid, grid.stop)]
    complex_ab = []
    for _ in range(4):
        real.append(ExtendedVector(grid, rng.standard_normal(grid.n), a=rng.standard_normal(), b=rng.standard_normal()))
        complex_ab.append(
            ExtendedVector(
                grid,
                rng.standard_normal(grid.n),
                a=complex(*rng.standard_normal(2)),
                b=complex(*rng.standard_normal(2)),
            )
        )
    for vectors in (real, real + complex_ab):
        rows = np.stack([v.coords() for v in vectors])
        assert rows.dtype == (float if vectors is real else complex)
        norms, scales = krein_norms(grid, rows, alpha), krein_scale(grid, rows, alpha)
        for u, row, norm, scale in zip(vectors, rows, norms, scales):
            exact = float(exact_krein_square(grid, row, alpha))
            assert abs(norm**2 - exact) <= 1e-13 * scale, (spec, alpha, row)
            value = krein_inner(u, u, alpha)
            assert abs(value.real - exact) <= 1e-13 * scale and abs(value.imag) <= 1e-13 * scale, (spec, alpha, row)


def test_real_rows_agree_with_their_complex_cast():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=50, deadline=None)
    @hypothesis.given(
        n=st.integers(2, 60),
        start=st.floats(-3.0, 3.0),
        step=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(0.2, 5.0),
    )
    def check(n, start, step, seed, alpha):
        grid = Grid(start=start, step=step, n=n)
        rows = np.random.default_rng(seed).standard_normal((5, n + 2))
        cast = rows.astype(complex)
        real_product, cast_product = product(grid, rows, rows), product(grid, cast, cast)
        assert real_product.dtype == float and cast_product.dtype == complex
        sizes = np.abs(rows)
        assert np.abs(real_product - cast_product).max() <= 1e-13 * (sizes @ np.abs(metric_matrix(grid)) @ sizes.T).max()
        real_norms = krein_norms(grid, rows, alpha)
        cast_norms = krein_norms(grid, cast, alpha)
        assert np.all(np.abs(real_norms**2 - cast_norms**2) <= 1e-13 * krein_scale(grid, rows, alpha))

    check()


def test_families_of_real_vectors_take_real_arithmetic():
    grid = Grid.parse("-2:2:0.1")
    real = family("meanzero:6", grid, 3)
    assert nelson._Rows.of(real).dtype == float
    assert signature_of(real).entries.dtype == float
    mixed = real + [ExtendedVector(grid, np.zeros(grid.n), a=1j)]
    assert nelson._Rows.of(mixed).dtype == complex
    assert signature_of(mixed).entries.dtype == complex
    # the boundary type stores real input as float64 and anything else as complex128
    assert all(v.values.nbytes == grid.n * 8 for v in real)
    n = grid.n
    for values in (np.arange(n) % 2 == 0, np.arange(n), list(range(n)), np.ones(n), np.ones(n, dtype=np.float32)):
        assert ExtendedVector(grid, values).values.dtype == np.float64
    fractions = [Fraction(k, 3) for k in range(n)]
    for values in (np.ones(n) * 1j, [1.0] * (n - 1) + [1j], fractions):
        assert ExtendedVector(grid, values).values.dtype == np.complex128
    assert np.array_equal(ExtendedVector(grid, fractions).values, np.asarray(fractions, dtype=complex))
    assert from_values(grid, np.ones(n)).values.dtype == np.complex128
    # projection takes a complex row whatever the vector stores: a real probe projects
    # to the same values as its complex cast
    basis = nelson._side_basis(grid, +1, 6)
    cast = project_onto(basis, from_values(grid, real[0].values)).coords()
    assert np.array_equal(project_onto(basis, real[0]).coords(), cast)


# -- Markov identity ----------------------------------------------------------------------------


def test_markov_projection_residuals():
    grid = Grid.parse("-5:5:0.2")
    diagnostics = markov_diagnostics(grid, 25)
    assert diagnostics["markov_residual"] < 1e-6
    assert diagnostics["idempotence_residual"] < 1e-8
    assert diagnostics["v_fixed_residual"] < 1e-8


def test_markov_refusal_does_not_depend_on_the_unit_of_time():
    # the same points in units 1e4 apart: the raw Gram of the first reads cond 1.7e9, its
    # equilibrated Gram 3.6e4; both are accepted and solved to roundoff
    for spec in ("-5e4:5e4:1e4", "-5:5:1"):
        diagnostics = markov_diagnostics(Grid.parse(spec), 2)
        assert diagnostics["markov_residual"] < 1e-13 and diagnostics["idempotence_residual"] < 1e-13, spec
    # near 0 the point masses are nearly d0: a genuine degeneracy that scaling leaves in place
    with pytest.raises(DegenerateGramError):
        markov_diagnostics(Grid.parse("-1e-6:1e-6:1e-8"), 50)


def test_markov_needs_symmetric_grid():
    with pytest.raises(ValueError):
        markov_diagnostics(Grid.parse("0:5:0.5"), 4)
    with pytest.raises(ValueError):
        markov_diagnostics(Grid.parse("-5:5:0.5"), 1)


# -- Gaussian Markov property ----------------------------------------------------------------------


def test_conditional_independence_given_x_and_v():
    assert conditional_independence_residual([-2, -1, 0, 1, 2], 1.0) < 1e-8


def test_conditional_dependence_without_v():
    assert conditional_independence_residual([-2, -1, 0, 1, 2], 1.0, condition_on_v=False) > 0.1


def test_conditional_independence_single_sided_vacuous():
    assert conditional_independence_residual([0, 1, 2], 1.0) == 0.0
    with pytest.raises(ValueError):
        conditional_independence_residual([1, 2], 1.0)


# -- duality and reflection ---------------------------------------------------------------------------


def test_duality_for_compact_bumps():
    grid = Grid.parse("-6:6:0.02")
    f = np.exp(-0.5 * ((grid.points - 0.5) / 0.5) ** 2)
    g = np.exp(-0.5 * ((grid.points + 0.3) / 0.4) ** 2)
    assert duality_residual(grid, f, g) < grid.step**2
    assert abs(grid.step * (f * g).sum()) > 0.1


def test_duality_linear_function_out_of_domain():
    grid = Grid.parse("-6:6:0.02")
    f = np.exp(-0.5 * (grid.points / 0.5) ** 2)
    linear = 0.3 * grid.points + 1.0
    assert np.abs(second_difference_operator(grid, linear)).max() < 1e-9
    assert abs(indefinite_inner(from_values(grid, f), from_values(grid, second_difference_operator(grid, linear)))) < 1e-9
    assert abs(grid.step * (f * linear).sum()) > 0.1  # duality does not apply here


def test_duality_commutes_with_reflection():
    grid = Grid.parse("-6:6:0.02")
    rng = np.random.default_rng(37)
    g = np.exp(-0.5 * ((grid.points - 1.0) / 0.7) ** 2) * (1 + 0.1 * rng.standard_normal(grid.n))
    d_then_theta = reflect_values(grid, second_difference_operator(grid, g))
    theta_then_d = second_difference_operator(grid, reflect_values(grid, g))
    assert np.abs(d_then_theta - theta_then_d).max() < 1e-12
    f = np.exp(-0.5 * ((grid.points + 0.4) / 0.5) ** 2)
    r1 = duality_residual(grid, f, g)
    r2 = duality_residual(grid, reflect_values(grid, f), reflect_values(grid, g))
    assert abs(r1 - r2) < 1e-12


def test_duality_preserves_positive_support():
    grid = Grid.parse("-6:6:0.1")
    g = np.where(grid.points >= 1.0, np.exp(-((grid.points - 2.0) ** 2)), 0.0)
    dg = second_difference_operator(grid, g)
    interior = grid.points < 0.5
    assert np.abs(dg[interior]).max() == 0.0


def test_reflection_invariance_of_product():
    grid = Grid.parse("-6:6:0.05")
    rng = np.random.default_rng(41)
    for _ in range(10):
        f = rng.standard_normal(grid.n)
        g = rng.standard_normal(grid.n)
        direct = indefinite_inner(from_values(grid, f), from_values(grid, g))
        reflected = indefinite_inner(
            from_values(grid, reflect_values(grid, f)), from_values(grid, reflect_values(grid, g))
        )
        assert abs(direct - reflected) < 1e-12 * max(1.0, abs(direct))


# -- weak limits and one-sided positivity ------------------------------------------------------------


def test_weak_limit_of_far_translates():
    # f_n = f(. - n)/n converges weakly to w: <f_n, g> -> -g~(0)/2
    grid = Grid.parse("-2:52:0.02")
    n = 50
    f = np.exp(-0.5 * ((grid.points - n) / 0.4) ** 2)
    f /= f.sum() * grid.step * n  # mass 1/n
    g = np.exp(-0.5 * ((grid.points - 0.3) / 0.5) ** 2)
    mass_g = g.sum() * grid.step
    value = indefinite_inner(from_values(grid, f), from_values(grid, g))
    target = -mass_g / 2
    assert abs(value - target) / abs(target) < 0.05


def test_delta_approximants_converge_to_point_products():
    # narrow bumps reproduce <d_sigma, d_rho> = -|sigma - rho|/2
    grid = Grid.parse("-5:5:0.01")
    for width in (0.05,):
        b1 = unit_bump(grid, 1.0, width)
        b2 = unit_bump(grid, -0.5, width)
        value = indefinite_inner(from_values(grid, b1), from_values(grid, b2))
        assert value.real == pytest.approx(-0.75, abs=5e-3)


def test_one_sided_second_derivatives_positive():
    # f = F'' with F supported on one side: <f, f> = ||F'||^2 >= 0
    grid = Grid.parse("-6:6:0.01")
    base = np.where(
        grid.points > 0.5, np.exp(-0.5 * ((grid.points - 2.5) / 0.4) ** 2), 0.0
    )
    second = np.zeros_like(base)
    second[1:-1] = (base[2:] - 2 * base[1:-1] + base[:-2]) / grid.step**2
    value = indefinite_inner(from_values(grid, second), from_values(grid, second)).real
    first = np.zeros_like(base)
    first[1:-1] = (base[2:] - base[:-2]) / (2 * grid.step)
    l2 = (first**2).sum() * grid.step
    assert value >= 0.0
    assert value == pytest.approx(l2, rel=1e-3)


def test_factored_product_matches_dense_metric():
    rng = np.random.default_rng(43)
    for spec in ("-5:5:0.1", "0:5:0.01", "1:3:0.5", "-3:-1:0.25", "-10:10:0.01"):
        grid = Grid.parse(spec)
        vectors = [
            ExtendedVector(
                grid,
                rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n),
                a=complex(*rng.uniform(0.5, 1.5, 2)),
                b=complex(*rng.uniform(0.5, 1.5, 2)),
            )
            for _ in range(12)
        ]
        metric = metric_matrix(grid)
        assert np.abs(metric - metric.T).max() == 0.0
        coords = np.stack([v.coords() for v in vectors])
        dense = coords.conj() @ metric @ coords.T
        entries = signature_of(vectors).entries
        assert np.abs(entries - dense).max() <= 1e-13 * np.abs(dense).max(), spec


def test_column_blocks_keep_the_dense_metric_bounds(monkeypatch):
    # the checks of test_factored_product_matches_dense_metric with blocks of
    # max(1, n // 100) columns over 12 complex rows (krein_inner's 2 rows take six
    # times that), so the products, Krein norms and projections sum up to a hundred
    # blocks a side; a projection whose bordered W is one block is checked too
    rng = np.random.default_rng(43)
    walks, tail_blocks = [], nelson._tail_blocks
    monkeypatch.setattr(
        nelson, "_tail_blocks", lambda grid, values, dtype, columns: (walks.append(columns), tail_blocks(grid, values, dtype, columns))[1]
    )
    for spec in ("-5:5:0.1", "0:5:0.01", "1:3:0.5", "-3:-1:0.25", "-10:10:0.01"):
        grid = Grid.parse(spec)
        monkeypatch.setattr(nelson, "FACTOR_BLOCK_BYTES", 12 * 16 * max(1, grid.n // 100))
        complex_rows = [
            ExtendedVector(
                grid,
                rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n),
                a=complex(*rng.uniform(0.5, 1.5, 2)),
                b=complex(*rng.uniform(0.5, 1.5, 2)),
            )
            for _ in range(6)
        ]
        real_rows = [ExtendedVector(grid, rng.standard_normal(grid.n), a=rng.uniform(0.5, 1.5)) for _ in range(6)]
        metric = metric_matrix(grid)
        for vectors in (complex_rows, real_rows, complex_rows + real_rows):
            coords = np.stack([v.coords() for v in vectors])
            dense = coords.conj() @ metric @ coords.T
            for factored in (signature_of(vectors).entries, product(grid, coords, coords)):
                assert factored.dtype == coords.dtype
                assert np.abs(factored - dense).max() <= 1e-13 * np.abs(dense).max(), spec
            # the Krein bounds of test_krein_norms_match_the_exact_oracle: 1e-13 of the terms' sizes
            sizes, sized_metric = np.abs(coords), np.abs(coords) @ np.abs(metric)
            for alpha in (0.4, 2.3):
                kappa = krein_direction(grid, alpha).coords()
                krein = dense + 2.0 * np.outer(coords.conj() @ metric @ kappa, kappa @ metric @ coords.T)
                scales = (sized_metric * sizes).sum(axis=1) + 2.0 * (sized_metric @ np.abs(kappa)) ** 2
                norms = krein_norms(grid, coords, alpha)
                assert np.all(np.abs(norms**2 - krein.diagonal().real) <= 1e-13 * scales), spec
                value = krein_inner(vectors[0], vectors[-1], alpha)
                assert abs(value - krein[0, -1]) <= 1e-13 * np.abs(krein).max(), spec
        # projection: the products hold to tol each, so the coefficients c' solve
        # (G + dG) c' = r + dr with |dG|_2 <= k tol and |dr|_2 <= sqrt(k) tol, and
        # |c' - c|_2 <= |G^-1|_2 tol (sqrt(k) + k |c'|_2)
        basis = complex_rows[:2] + real_rows[:2]
        k = len(basis)
        basis_coords = np.stack([v.coords() for v in basis]).astype(complex)
        sized = basis_coords.conj() @ metric
        gram = sized @ basis_coords.T
        inverse_norm, row_norm = np.linalg.norm(np.linalg.inv(gram), 2), np.linalg.norm(basis_coords, axis=1).max()
        probes = complex_rows[2:] + real_rows[2:]
        projected = []
        # blocked, then with the k basis rows and the probe's complex row in one block of W
        for block_bytes in (nelson.FACTOR_BLOCK_BYTES, (k + 1) * 16 * sum(ends.size for _, ends in grid.gap_tails)):
            monkeypatch.setattr(nelson, "FACTOR_BLOCK_BYTES", block_bytes)
            walks.clear()
            projected.append([project_onto(basis, u) for u in probes])
            assert walks and all((columns is None) == (len(projected) == 2) for columns in walks), spec
        for u, *outs in zip(probes, *projected):
            moments = sized @ u.coords()
            want = np.linalg.solve(gram, moments) @ basis_coords
            tol = 1e-13 * max(np.abs(gram).max(), np.abs(moments).max())
            for out in outs:
                got = out.coords()
                solved = np.linalg.lstsq(basis_coords.T, got, rcond=None)[0]
                drift = inverse_norm * tol * (math.sqrt(k) + k * np.linalg.norm(solved))
                assert np.abs(got - want).max() <= drift * row_norm, spec


def test_factored_product_matches_dense_metric_on_random_grids():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coefficient = st.builds(
        lambda modulus, phase: modulus * complex(math.cos(phase), math.sin(phase)),
        st.floats(0.0, 3.0),
        st.floats(0.0, 2 * math.pi),
    )

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        n=st.integers(2, 60),
        start=st.floats(-10.0, 10.0),
        step=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32 - 1),
        a=st.one_of(st.just(0j), coefficient),
        b=st.one_of(st.just(0j), coefficient),
    )
    def check(n, start, step, seed, a, b):
        grid = Grid(start=start, step=step, n=n)
        rng = np.random.default_rng(seed)
        coords = np.stack(
            [
                ExtendedVector(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n), a=a, b=b).coords(),
                ExtendedVector(grid, rng.standard_normal(n), a=b, b=a).coords(),
            ]
        )
        dense = coords.conj() @ metric_matrix(grid) @ coords.T
        factored = product(grid, coords, coords)
        # the Brownian and |t| parts are of size |start| + span and cancel down to
        # the span's size, so the factored form keeps 1e-12 only relative to them
        span = step * (n - 1)
        cancellation = (abs(start) + span) / span
        assert np.abs(factored - dense).max() <= 1e-12 * cancellation * np.abs(dense).max()

    check()


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="the factored product cancels on grids far from 0 against their span"
)
def test_factored_product_keeps_relative_accuracy_far_from_zero():
    grid = Grid(start=10.0, step=0.001, n=2)
    coords = ExtendedVector(grid, np.ones(2)).coords()[None, :]
    dense = coords @ metric_matrix(grid) @ coords.T
    factored = product(grid, coords, coords)
    assert np.abs(factored - dense).max() <= 1e-12 * np.abs(dense).max()


def test_gram_cli_on_a_large_grid(capsys):
    # 100001 points: a dense metric would need 80 GB
    code = main(["gram", "--kind", "nelson", "--family", "meanzero:20", "--grid", "-5e4:5e4:1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["results"][0]["value"] == [20, 0, 0]
