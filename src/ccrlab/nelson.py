"""Discretized indefinite euclidean (Nelson) space with singular elements.

Grid functions are treated as exact linear combinations of point evaluations
under the kernel ``-|tau - sigma|/2``, so the inner products below are the
restriction of the continuum indefinite product to a finite-dimensional
subspace rather than an approximation: identities that hold there hold here
to roundoff.  Two extra coordinates extend the grid part: the evaluation at
time zero (coefficient ``a``) and the ergodic-velocity element w (coefficient
``b``), with the closed products

    <d0, d0> = <w, w> = 0,   <d0, w> = -1/2,
    <d0, f> = -1/2 int |s| f(s) ds,   <w, f> = -1/2 int f.

Inner products are conjugate-linear in the first argument.  The metric
operator at scale alpha > 0 flips the sign of ``alpha d0 + w/alpha`` and
fixes its orthogonal complement, making the product positive (Krein
structure); projections onto past/future/time-zero spans realize the Markov
identity E+ E- = E0 without positivity of the underlying product.
Real data keep real arithmetic throughout, by gram.real_or_complex.

Every product goes through one kernel, _products, in the factored form
W_u^H W_v - (A_u^* B_v + B_u^* A_v)/2: a Gram, a cross product, or a basis
bordered by the vectors it projects, over row sets (_Rows) that hold the
vectors' own grid arrays, (a, b) rows and their content (A, B).  W is summed
over column blocks of at most FACTOR_BLOCK_BYTES, so a product holds
O(k block + k^2) bytes besides its inputs; a W of one block is one matrix
product, with the bits of the unblocked one, and its row set keeps it.  indefinite_inner and krein_inner take the same
cross product, so they differ by the Krein term alone.  The Osterwalder-Schrader
kernel c - (|tau| + |sigma|)/2 on positive times has rank two: its products are
c A_f^* A_g minus the singular part, from the content alone, O(n) per function.
The Markov diagnostics hold a projection x as its coefficients c in its basis e:
<x, x> = c^H G c and <kappa, x> = sum_j c_j <kappa, e_j>, so each residual and
Krein norm comes from k x k Grams and solves, with no grid-length row.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .gram import GramMatrix, gram_signature, numerical_rank, real_or_complex
from .montecarlo import brownian_gaps, krein_kernel

FAMILY_LIMIT = 200
PROJECTION_CONDITION_LIMIT = 1e8
# A time within this fraction of a grid's step of a grid point is that point, in any unit of time.
GRID_POINT_TOL = 1e-6
# Bare times, which carry no step, within this of 0 are 0.
ZERO_TIME_TOL = 1e-9
# Most bytes of one column block of the tail sums W that every factored product sums over.
FACTOR_BLOCK_BYTES = 2**19


class GridMismatchError(ValueError):
    """Raised when vectors on different grids are combined."""


class SupportError(ValueError):
    """Raised when a function violates a support precondition."""


class DegenerateGramError(ValueError):
    """Raised when a projection basis has a (numerically) degenerate Gram."""


class MarkovSetupError(ValueError):
    """Raised when a grid or per-side count cannot carry the Markov projections."""


@dataclass(frozen=True)
class Grid:
    """Uniform time grid ``start + i*step`` for i < n."""

    start: float
    step: float
    n: int

    @classmethod
    def make(cls, start: float, stop: float, step: float) -> "Grid":
        if not step > 0:
            raise ValueError("step must be positive")
        if not math.isfinite((stop - start) / step):
            raise ValueError(f"grid {start}:{stop}:{step} has no finite point count")
        count = int(round((stop - start) / step)) + 1
        if count < 2 or abs(start + (count - 1) * step - stop) > GRID_POINT_TOL * step:
            raise ValueError(f"stop {stop} is not reachable from {start} by step {step}")
        return cls(start=float(start), step=float(step), n=count)

    @classmethod
    def parse(cls, spec: str) -> "Grid":
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec {spec!r} is not of the form start:stop:step")
        start, stop, step = (float(p) for p in parts)
        return cls.make(start, stop, step)

    @cached_property
    def points(self) -> np.ndarray:
        """start + i*step for i < n (read-only).

        Computed once per grid, as are abs_points and gap_tails; none is a field,
        so eq, hash and repr ignore them.
        """
        return _read_only(self.start + self.step * np.arange(self.n))

    @cached_property
    def abs_points(self) -> np.ndarray:
        """|points| (read-only): the weights of the w content, in the Nelson products and the OS sector."""
        return _read_only(np.abs(self.points))

    @property
    def stop(self) -> float:
        return self.start + (self.n - 1) * self.step

    def is_symmetric(self) -> bool:
        return abs(self.start + self.stop) <= GRID_POINT_TOL * self.step and self.index_of(0.0) is not None

    def index_of(self, tau: float) -> int | None:
        idx = int(round((tau - self.start) / self.step))
        if 0 <= idx < self.n and abs(self.start + idx * self.step - tau) <= GRID_POINT_TOL * self.step:
            return idx
        return None

    @cached_property
    def gap_tails(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per side of 0: h times the square roots of the Brownian gaps, and the
        indices of the grid points that end them in reverse gap order (read-only).

        Computed once per grid; not a field, so eq, hash and repr ignore it.
        """
        sides = []
        for sq, last in brownian_gaps(self.points):
            on = np.flatnonzero(last >= 0)
            ends = on[np.argsort(last[on])][::-1].copy()  # grid points are distinct: one ends each gap
            sides.append((_read_only(self.step * sq), _read_only(ends)))
        return tuple(sides)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def metric_matrix(grid: Grid) -> np.ndarray:
    """Dense coordinate metric over (grid values, a, b): the reference for the factored product."""
    pts = grid.points
    n = grid.n
    h = grid.step
    m = np.zeros((n + 2, n + 2))
    m[:n, :n] = -0.5 * h * h * np.abs(pts[:, None] - pts[None, :])
    m[:n, n] = m[n, :n] = -0.5 * h * grid.abs_points
    m[:n, n + 1] = m[n + 1, :n] = -0.5 * h
    m[n, n + 1] = m[n + 1, n] = -0.5
    return m


class _Rows:
    """Rows of vectors on one grid as the product kernel reads them.

    ``values`` is the list of the vectors' own grid arrays, gathered row by row
    (no family is stacked).  Products run in the dtype of the (a, b) rows; the
    content (A, B) is computed once.  W is walked in each product's column
    blocks, except that a W that fits one block (at most FACTOR_BLOCK_BYTES) is
    kept after its first walk and read again by every later product whose
    blocks are one.
    """

    def __init__(self, grid: Grid, values, coefficients: np.ndarray):
        self.grid, self.values, self.dtype = grid, values, coefficients.dtype
        self.content = _contents(grid, values, coefficients)
        self._whole = None

    @classmethod
    def of(cls, vectors: list[ExtendedVector]) -> _Rows:
        """The rows of vectors on one grid, in the dtype their stack would take, without the stack."""
        pairs = np.array([(v.a, v.b) for v in vectors])
        dtype = np.result_type(pairs, *{v.values.dtype for v in vectors})
        return cls(vectors[0].grid, [v.values for v in vectors], pairs.astype(dtype, copy=False))

    def __len__(self) -> int:
        return len(self.values)

    def blocks(self, columns: int):
        """W in blocks of at most `columns` columns, or whole when it fits one (see _tail_blocks)."""
        if sum(ends.size for _, ends in self.grid.gap_tails) > columns:
            return _tail_blocks(self.grid, self.values, self.dtype, columns)
        if self._whole is None:
            (self._whole,) = _tail_blocks(self.grid, self.values, self.dtype, None)
        return (self._whole,)


def _products(left: _Rows, *right: _Rows) -> np.ndarray:
    """Products <u_i, v_j>, u in left and v in right's row sets in turn: the one product kernel.

    -|t - s|/2 is the Brownian covariance minus (|t| + |s|)/2, so <u, v> =
    W_u^H W_v - (A_u^* B_v + B_u^* A_v)/2: W holds the grid part's tail sums over
    the Brownian gaps, A = a + h sum f and B = b + h sum |t| f the d0 and w content.
    A product is a Gram (rows, rows), a cross product (u, v), or a basis bordered
    by the vectors it projects (basis, basis, probes).  W_u^H W_v is summed over
    the column blocks that the row sets share; a row set on both sides is walked once.
    Each right row set takes its own matrix product, written into its columns, so a
    real pair stays in real BLAS (a Gram in syrk) and no product joins the sets'
    blocks into one wider one; a single right set's product is returned as it is.
    """
    sets = list(dict.fromkeys((left, *right)))
    dtype = np.result_type(*(rows.dtype for rows in sets))
    columns = _block_columns(sum(map(len, sets)), dtype)
    ends = np.cumsum(list(map(len, right))).tolist()

    def term(*w):  # one block of each row set; map, unlike zip, holds no block past its term
        conj = w[0].conj()  # a real block's conj is itself
        if len(right) == 1:
            return conj @ w[sets.index(right[0])].T
        out = np.empty((len(left), ends[-1]), dtype)
        for rows, start, stop in zip(right, [0, *ends], ends):
            out[:, start:stop] = conj @ w[sets.index(rows)].T
        return out

    # the per-block terms added in place; a single block's term is returned as it is
    products = reduce(operator.iadd, map(term, *(rows.blocks(columns) for rows in sets)))
    return products - _singular_part(left.content, [_joined([rows.content[i] for rows in right]) for i in (0, 1)])


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """The parts stacked along their first axis; a single part as it is (a real Gram stays one syrk)."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _singular_part(left, right) -> np.ndarray:
    """(A_u^* B_v + B_u^* A_v)/2 from left and right (A, B)."""
    (a_left, b_left), (a_right, b_right) = left, right
    return (np.outer(a_left.conj(), b_right) + np.outer(b_left.conj(), a_right)) / 2.0


def _block_columns(rows: int, dtype) -> int:
    """Columns of one block of W over `rows` rows: at most FACTOR_BLOCK_BYTES of them, at least one."""
    return max(1, FACTOR_BLOCK_BYTES // (rows * np.dtype(dtype).itemsize))


def _tail_blocks(grid: Grid, values, dtype, columns: int | None):
    """W, the tail sums of grid parts over the Brownian gaps, in blocks of at most `columns` columns.

    Each side of 0 is walked from its far end; a block's cumsum starts from the
    running sum of the blocks before it, put in front as a first column, and
    cumsum is sequential, so the blocks hold the bits of one cumsum over the side.
    With columns None the one block is both sides joined, near to far: the whole
    W, with the bits of an unblocked factoring.
    """
    sides = grid.gap_tails
    if columns is None:
        yield np.concatenate([_side_tails(values, dtype, side, 0, side[1].size, None)[0] for side in sides], axis=1)
        return
    for side in sides:
        carry = None
        for start in range(0, side[1].size, columns):
            block, carry = _side_tails(values, dtype, side, start, min(start + columns, side[1].size), carry)
            yield block


def _side_tails(values, dtype, side, start: int, stop: int, carry):
    """One side's tails at positions start:stop of its far-to-near order, near to far, and the sum to carry.

    The tails come out column-major, the layout of a stack's values[:, index] gather,
    which row sums and the matrix product see.  The carry is None at the side's end.
    """
    scaled, ends = side
    index = ends[start:stop]
    lead = 0 if carry is None else 1
    sums = np.empty((len(values), lead + index.size), dtype)
    if lead:
        sums[:, :1] = carry
    for i, row in enumerate(values):
        sums[i, lead:] = row[index]
    np.add.accumulate(sums, axis=1, out=sums)  # a cumsum in place, with the bits of one into a new array
    count = ends.size
    tails = np.multiply(scaled[count - stop : count - start], sums[:, lead:][:, ::-1], order="F")
    return tails, (sums[:, -1:].copy() if stop < count else None)


def _contents(grid: Grid, values, coefficients: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The d0 and w content A = a + h sum f and B = b + h sum |t| f in the dtype of the (a, b) rows.

    The sums run over chunks of rows of at most FACTOR_BLOCK_BYTES, with the bits of
    whole row sums but no k x n |t| f temporary.
    """
    h = grid.step
    dtype = coefficients.dtype
    step = max(1, FACTOR_BLOCK_BYTES // (grid.n * dtype.itemsize))
    sums = np.empty((2, len(coefficients)), dtype)
    for start in range(0, len(coefficients), step):
        chunk = np.asarray(values[start : start + step], dtype)
        np.add.reduce(chunk, axis=1, out=sums[0, start : start + step])
        np.add.reduce(grid.abs_points * chunk, axis=1, out=sums[1, start : start + step])
    content_a, content_b = coefficients.T + h * sums
    return content_a, content_b


def _checked(family: list[ExtendedVector]) -> list[ExtendedVector]:
    """A family on one grid, at most FAMILY_LIMIT of them."""
    if len(family) > FAMILY_LIMIT:
        raise ValueError(f"family size limited to {FAMILY_LIMIT}")
    for v in family:
        family[0]._check(v)
    return family


@dataclass
class ExtendedVector:
    """Grid function plus coefficients of the singular elements d0 and w.

    Values are stored by gram.real_or_complex: bool, int and float values as
    float64, anything else (complex values, objects such as Fractions) as
    complex128.  Rows and products follow what the vectors store.
    """

    grid: Grid
    values: np.ndarray
    a: complex = 0.0
    b: complex = 0.0

    def __post_init__(self):
        values = real_or_complex(self.values)
        if values.shape != (self.grid.n,):
            raise GridMismatchError(f"expected {self.grid.n} values, got {values.shape}")
        self.values = values

    def coords(self) -> np.ndarray:
        return np.concatenate((self.values, [self.a, self.b]))

    def _check(self, other: "ExtendedVector"):
        if self.grid != other.grid:
            raise GridMismatchError("vectors live on different grids")

    def __add__(self, other):
        self._check(other)
        return ExtendedVector(self.grid, self.values + other.values, self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        self._check(other)
        return ExtendedVector(self.grid, self.values - other.values, self.a - other.a, self.b - other.b)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float, complex)):
            return NotImplemented
        return ExtendedVector(self.grid, self.values * scalar, self.a * scalar, self.b * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1)


def delta_zero(grid: Grid) -> ExtendedVector:
    return ExtendedVector(grid, np.zeros(grid.n), a=1.0)


def w_vector(grid: Grid) -> ExtendedVector:
    return ExtendedVector(grid, np.zeros(grid.n), b=1.0)


def point_mass(grid: Grid, tau: float) -> ExtendedVector:
    """The evaluation at an on-grid time, represented as a grid spike."""
    idx = grid.index_of(tau)
    if idx is None:
        raise ValueError(f"{tau} is not a grid point")
    values = np.zeros(grid.n)
    values[idx] = 1.0 / grid.step
    return ExtendedVector(grid, values)


def indefinite_inner(u: ExtendedVector, v: ExtendedVector) -> complex:
    """Indefinite product; conjugate-linear in the first argument."""
    u._check(v)
    return complex(_products(_Rows.of([u]), _Rows.of([v]))[0, 0])


def krein_metric_apply(u: ExtendedVector, alpha: float) -> ExtendedVector:
    """Metric operator at scale alpha: involution flipping the Krein direction.

    u + 2 <kappa, u> kappa, formed op for op as that sum of vectors would form it:
    kappa's zero grid part is added too, as it sets the dtype and the zeros' signs.
    """
    scale = 2.0 * complex(_krein_pairing(_Rows.of([u]).content, alpha)[0])
    values = u.values + np.zeros(u.grid.n) * scale
    return ExtendedVector(u.grid, values, u.a + alpha * scale, u.b + (1.0 / alpha) * scale)


def _krein_pairing(content, alpha: float) -> np.ndarray:
    """<kappa, u> from the content (A, B) of u, kappa = alpha d0 + w/alpha, in O(1) per row.

    kappa has no grid part and content (alpha, 1/alpha), so only the singular
    pairing of a product is left, op for op: no cumsum and no matrix product.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    content_a, content_b = content
    return 0.0 - (alpha * content_b + (1.0 / alpha) * content_a) / 2.0


def krein_inner(u: ExtendedVector, v: ExtendedVector, alpha: float) -> complex:
    """Positive product [u, v]_alpha = <u, eta_alpha v> = <u, v> + 2 <u, kappa><kappa, v>.

    <u, v> takes indefinite_inner's route, so the two differ by the Krein term alone.
    """
    u._check(v)
    left, right = _Rows.of([u]), _Rows.of([v])
    overlap_u, overlap_v = (complex(_krein_pairing(rows.content, alpha)[0]) for rows in (left, right))
    return complex(_products(left, right)[0, 0]) + 2.0 * overlap_u.conjugate() * overlap_v


def _coefficient_norms(gram: np.ndarray, overlaps: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Krein norms sqrt([x, x]_alpha) of x = sum_j c_j e_j, one per column c of coefficients: the one norm rule.

    [x, x]_alpha = Re c^H G c + 2 |<kappa, x>|^2, with G the Gram of the e_j and
    <kappa, x> = sum_j c_j <kappa, e_j> from their overlaps, so no x is formed on
    the grid.  A family's own norms take c = I.
    """
    overlaps = overlaps @ coefficients
    squares = (coefficients.conj() * (gram @ coefficients)).sum(axis=0) + 2.0 * overlaps.conj() * overlaps
    return np.sqrt(np.maximum(squares.real, 0.0))


def signature_of(family: list[ExtendedVector]) -> GramMatrix:
    """Gram matrix and eigen-signature of a finite family."""
    if family:
        rows = _Rows.of(_checked(family))
        entries = _products(rows, rows)
    else:
        entries = np.zeros((0, 0), dtype=complex)
    signature, eigenvalues = gram_signature(entries)
    return GramMatrix(entries=entries, signature=signature, eigenvalues=eigenvalues)


def project_onto(basis: list[ExtendedVector], u: ExtendedVector) -> ExtendedVector:
    """Indefinite-orthogonal projection onto the span of a nondegenerate basis.

    One product, the basis bordered by u, and one solve: solve sees the bits of the
    unfactored route.  u's row is cast to complex whatever it stores, so a vector
    projects to the same values as its complex cast.
    """
    if not basis:
        raise DegenerateGramError("empty projection basis")
    rows = _Rows.of(_checked(basis))
    basis[0]._check(u)
    products = _products(rows, rows, _Rows(u.grid, [u.values], np.array([(u.a, u.b)], dtype=complex)))
    k = len(rows)
    _nondegenerate(products[:, :k])
    out = np.linalg.solve(products[:, :k], products[:, k:]).T @ np.stack([v.coords() for v in basis])
    return ExtendedVector(u.grid, out[0, :-2], out[0, -2], out[0, -1])


def _nondegenerate(*grams: np.ndarray):
    """Refuse projection Grams whose largest condition number is not finite or passes PROJECTION_CONDITION_LIMIT.

    Each Gram G is judged equilibrated, as D G D with D = diag(1/sqrt(max_j |G_ij|)), near the
    best diagonal scaling (van der Sluis, Numer. Math. 14, 1969), so a change of time unit moves
    the verdict far less than it moves the raw condition number.
    """
    conds = []
    for gram in grams:
        peak = np.abs(gram).max(axis=1)
        d = 1.0 / np.sqrt(np.where(peak > 0, peak, 1.0))  # a zero row stays zero: refused
        conds.append(np.linalg.cond(d[:, None] * gram * d))
    cond = np.max(conds)
    if not cond <= PROJECTION_CONDITION_LIMIT:
        raise DegenerateGramError(f"projection Gram is degenerate (cond {cond:.3e})")


# -- Osterwalder-Schrader sector ---------------------------------------------------


def _os_moments(grid: Grid, values: np.ndarray) -> tuple[complex, complex]:
    """(f~(0), f~'(0)) with the e^{-i w tau} transform: f~'(0) = -i int tau f."""
    h = grid.step
    f0 = h * values.sum()
    f1 = -1j * h * (grid.points * values).sum()
    return complex(f0), complex(f1)


def _require_positive_support(grid: Grid, values: np.ndarray):
    neg = grid.points < -GRID_POINT_TOL * grid.step
    if not np.any(neg):
        return
    scale = float(np.abs(values).max()) or 1.0
    if float(np.abs(values[neg]).max()) > 1e-12 * scale:
        raise SupportError("function must be supported in tau >= 0")


def _os_content(grid: Grid, family) -> tuple[np.ndarray, np.ndarray]:
    """The content (A, B) = (h sum f, h sum |t| f) of positive-support functions, read from their own arrays."""
    rows = [real_or_complex(f) for f in family]
    for f in rows:
        if f.shape != (grid.n,):
            raise GridMismatchError(f"expected {grid.n} values, got {f.shape}")
        _require_positive_support(grid, f)
    return _contents(grid, rows, np.zeros((len(rows), 2), np.result_type(float, *rows)))


def _os_gram(left, right, c: float) -> np.ndarray:
    """The reflected products c A_f^* A_g - (A_f^* B_g + B_f^* A_g)/2 from left and right content (A, B)."""
    return c * np.outer(left[0].conj(), right[0]) - _singular_part(left, right)


def os_inner_routes(grid: Grid, f, g, c: float = 0.0) -> tuple[complex, complex, complex]:
    """The reflected product by three routes: content, closed form, V-sector.

    The content route pairs |t|-weighted sums, the closed form tau-weighted
    moments; all three are equal sums on positive support, so the spread checks roundoff.
    """
    f, g = real_or_complex(f), real_or_complex(g)
    reflected = complex(_os_gram(_os_content(grid, [f]), _os_content(grid, [g]), c)[0, 0])

    f0, f1 = _os_moments(grid, f)
    g0, g1 = _os_moments(grid, g)
    closed = 0.5j * (np.conj(f1) * g0 - np.conj(f0) * g1) + c * np.conj(f0) * g0

    v_metric = np.array([[c, -0.5], [-0.5, 0.0]], dtype=complex)
    fv = np.array([f0, 1j * f1])
    gv = np.array([g0, 1j * g1])
    v_sector = complex(fv.conj() @ v_metric @ gv)
    return reflected, complex(closed), v_sector


def os_rank(grid: Grid, family: list[np.ndarray]) -> tuple[int, np.ndarray]:
    """Numerical rank of the OS Gram of positive-support functions (codim-two law); real rows stay real."""
    content = _os_content(grid, family)
    return numerical_rank(_os_gram(content, content, 0.0))


# -- Markov projections --------------------------------------------------------------


def _side_basis(grid: Grid, side: int, n_per_side: int) -> list[ExtendedVector]:
    pts = grid.points
    chosen = pts[pts * side > GRID_POINT_TOL * grid.step]  # a symmetric grid has a point a step from 0
    if n_per_side < chosen.size:
        picks = np.linspace(0, chosen.size - 1, n_per_side).round().astype(int)  # nondecreasing
        picks = picks[np.diff(picks, prepend=-1) > 0]  # distinct, as np.unique, without importing numpy.ma
        chosen = chosen[picks]
    if chosen.size + 2 > FAMILY_LIMIT:
        raise MarkovSetupError(f"family size limited to {FAMILY_LIMIT}")
    return [delta_zero(grid)] + [point_mass(grid, float(t)) for t in chosen] + [w_vector(grid)]


def _probe_set(grid: Grid, seed: int) -> list[ExtendedVector]:
    rng = np.random.default_rng(seed)
    probes = []
    for _ in range(8):
        probes.append(ExtendedVector(grid, rng.standard_normal(grid.n)))
    for _ in range(4):
        probes.append(
            ExtendedVector(
                grid,
                rng.standard_normal(grid.n),
                a=complex(*rng.standard_normal(2)),
                b=complex(*rng.standard_normal(2)),
            )
        )
    pts = grid.points
    for tau in (pts[1], pts[-2], pts[grid.n // 3]):
        probes.append(point_mass(grid, float(tau)))
    return probes


def markov_diagnostics(grid: Grid, n_per_side: int, alpha: float = 1.0, seed: int = 7) -> dict:
    """Residuals of the Markov projection identity E+ E- = E0.

    Builds the past/future/time-zero projections from point masses plus the
    singular pair and probes them with seeded vectors; all norms are taken in
    the positive product at scale alpha.  Each projection is held as its
    coefficients in its basis (see the module docstring).  Each side's basis
    opens with d0 and closes with w, so E0 is the generic projection onto the
    (d0, w) pair: the [0, k - 1] sub-block of G+ and the pair's moments.
    """
    if n_per_side < 2:
        raise MarkovSetupError("need at least two points per side")
    if not grid.is_symmetric():
        raise MarkovSetupError("Markov projections need a symmetric grid containing 0")
    plus, minus = (_Rows.of(_side_basis(grid, side, n_per_side)) for side in (+1, -1))
    probes = _Rows.of(_probe_set(grid, seed))
    k, m = len(plus), len(probes)
    gram_minus, moments_minus = np.split(_products(minus, minus, probes), [len(minus)], axis=1)
    gram_plus, cross, moments_plus = np.split(_products(plus, plus, minus, probes), [k, k + len(minus)], axis=1)
    pair = [0, -1]  # d0 and w
    gram_pair = gram_plus[np.ix_(pair, pair)]
    _nondegenerate(*(gram.real for gram in (gram_plus, gram_minus, gram_pair)))  # real bases: a real SVD

    def fixed(gram, c):  # E x - x for the x in the span of coefficients c, then for d0 and w
        c = np.hstack((c, np.eye(len(gram))[:, pair]))
        return np.linalg.solve(gram, gram @ c) - c

    minus_u = np.linalg.solve(gram_minus, moments_minus)
    markov = np.linalg.solve(gram_plus, cross @ minus_u)  # E+ E- u, less E0 u below
    markov[pair] -= np.linalg.solve(gram_pair, moments_plus[pair])
    plus_norms, minus_norms, norm_u = (
        _coefficient_norms(gram, _krein_pairing(rows.content, alpha), columns)
        for gram, rows, columns in (
            (gram_plus, plus, np.hstack((markov, fixed(gram_plus, np.linalg.solve(gram_plus, moments_plus))))),
            (gram_minus, minus, fixed(gram_minus, minus_u)),
            (_products(probes, probes), probes, np.eye(m)),
        )
    )
    live = norm_u != 0.0
    return {
        "markov_residual": _worst(plus_norms[:m][live] / norm_u[live]),
        "idempotence_residual": _worst(np.maximum(plus_norms[m : 2 * m], minus_norms[:m])[live] / norm_u[live]),
        "v_fixed_residual": _worst(np.concatenate((plus_norms[2 * m :], minus_norms[m:]))),
    }


def _worst(residuals: np.ndarray) -> float:
    return float(np.max(residuals, initial=0.0))


def conditional_independence_residual(
    points, alpha: float, condition_on_v: bool = True
) -> float:
    """Max conditional cross-covariance of past vs future given x(0) (and v).

    The Gaussian vector is (x(tau) for tau in points, v) under the Krein
    measure at scale alpha; the Markov property holds in the pair (x, v), so
    dropping v from the conditioning set leaves a finite residual.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    pts = np.asarray(points, dtype=float)
    if not np.any(np.abs(pts) <= ZERO_TIME_TOL):
        raise ValueError("points must contain 0 (the conditioning time)")
    past = np.where(pts < -ZERO_TIME_TOL)[0]
    future = np.where(pts > ZERO_TIME_TOL)[0]
    if past.size == 0 or future.size == 0:
        return 0.0
    zero = int(np.where(np.abs(pts) <= ZERO_TIME_TOL)[0][0])

    cov = np.empty((pts.size + 1, pts.size + 1))
    cov[:-1, :-1] = krein_kernel(pts[:, None], pts[None, :], alpha)
    cov[:-1, -1] = cov[-1, :-1] = np.abs(pts) * alpha**2 / 2.0
    cov[-1, -1] = alpha**2 / 2.0

    cond = [zero, pts.size] if condition_on_v else [zero]
    c_block = cov[np.ix_(cond, cond)]
    if abs(np.linalg.det(c_block)) < 1e-300:
        raise ValueError("conditioning block is singular")
    cross = cov[np.ix_(past, future)]
    correction = cov[np.ix_(past, cond)] @ np.linalg.solve(c_block, cov[np.ix_(cond, future)])
    return float(np.abs(cross - correction).max())


# -- seeded vector families -------------------------------------------------------------


def _bump(points: np.ndarray, center: float, width: float) -> np.ndarray:
    return np.exp(-0.5 * ((points - center) / width) ** 2)


def family(spec: str, grid: Grid, seed: int) -> list[ExtendedVector]:
    """Seeded generator families: meanzero:N, bumps:N, possupport:N, with N <= FAMILY_LIMIT."""
    try:
        kind, count_text = spec.split(":")
        count = int(count_text)
    except ValueError:
        raise ValueError(f"family spec {spec!r} is not of the form kind:N") from None
    if count < 0:
        raise ValueError("family size must be nonnegative")
    if count > FAMILY_LIMIT:
        raise ValueError(f"family size limited to {FAMILY_LIMIT}")
    rng = np.random.default_rng(seed)
    pts = grid.points
    span = grid.stop - grid.start
    out: list[ExtendedVector] = []
    for _ in range(count):
        if kind == "meanzero":
            values = rng.standard_normal(grid.n)
            values -= values.mean()
        elif kind == "bumps":
            center = grid.start + span * rng.uniform(0.2, 0.8)
            values = _bump(pts, center, span * rng.uniform(0.03, 0.1))
        elif kind == "possupport":
            top = grid.stop
            center = top * rng.uniform(0.2, 0.8)
            values = _bump(pts, center, top * rng.uniform(0.05, 0.15))
            values[pts < -GRID_POINT_TOL * grid.step] = 0.0
        else:
            raise ValueError(f"unknown family kind {kind!r}")
        out.append(ExtendedVector(grid, values))
    return out
