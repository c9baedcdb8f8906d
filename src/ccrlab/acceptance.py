"""Verification matrix: every acceptance criterion with its pinned tolerance.

Each criterion is declared once, by ``@_criterion(number, name, provenance)``
on a body that takes (seed, quick) and returns its checks, each carrying
(value, target, tolerance, pass).  The decorator registers the criterion in
``CRITERIA``, times it, and wraps the checks in a :class:`CriterionResult`
that passes when every check does; the provenance names the source of its
numbers: exact-symbolic, mc or analytic.  ``quick`` mode divides Monte Carlo
sample counts by 100 and widens the sigma gate from 3 to 5 (``_mc_budget``).
The default seed makes every numeric in the matrix reproducible bit-for-bit.
"""

from __future__ import annotations

import cmath
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import heisenberg as hb
from . import montecarlo as mc
from . import nelson as ne
from . import weyl as wy
from .exactcomplex import ComplexRational, ZERO

DEFAULT_SEED = 987654321
MC_SAMPLES = 1_000_000


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    seconds: float
    checks: list[dict] = field(default_factory=list)
    provenance: str = "analytic"

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  #{self.number:02d} {self.name} ({self.seconds:.2f}s, {len(self.checks)} checks)"


def _check(name: str, value, target, tolerance, ok: bool | None = None) -> dict:
    if ok is None:
        ok = abs(value - target) <= tolerance
    return {
        "name": name,
        "value": _plain(value),
        "target": _plain(target),
        "tolerance": _plain(tolerance),
        "pass": bool(ok),
    }


def _plain(x):
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (np.floating, np.integer)):
        return float(x)
    if isinstance(x, (ComplexRational, Fraction)):
        return str(x)
    return x


def _sigma_check(name: str, estimate: mc.McEstimate, target: float, n_sigma: float) -> dict:
    return {
        "name": name,
        "value": _plain(estimate.mean),
        "stderr": estimate.stderr,
        "samples": estimate.samples,
        "target": _plain(target),
        "tolerance": n_sigma * estimate.stderr,
        "pass": estimate.within(target, n_sigma),
    }


def _mc_seed(seed: int, offset: int) -> int:
    """Seed ``seed + offset`` wrapped into McConfig's range [0, 2**64), so every valid seed derives valid ones."""
    return (seed + offset) % 2**64


def _mc_budget(quick: bool) -> tuple[int, float]:
    """Monte Carlo samples and sigma gate: quick mode samples 1/100 and gates at 5 sigma."""
    return (MC_SAMPLES // 100, 5.0) if quick else (MC_SAMPLES, 3.0)


CRITERIA: dict[int, Callable[..., CriterionResult]] = {}


def _criterion(number: int, name: str, provenance: str = "analytic"):
    """Declare criterion ``number``: register it in CRITERIA, time it, and wrap its checks."""

    def register(body: Callable[[int, bool], list[dict]]) -> Callable[..., CriterionResult]:
        def criterion(seed: int = DEFAULT_SEED, quick: bool = False) -> CriterionResult:
            started = time.perf_counter()
            checks = body(seed, quick)
            passed = all(c["pass"] for c in checks)
            return CriterionResult(number, name, passed, time.perf_counter() - started, checks, provenance)

        criterion.__name__ = criterion.__qualname__ = body.__name__
        criterion.__doc__ = body.__doc__
        CRITERIA[number] = criterion
        return criterion

    return register


# -- criteria ---------------------------------------------------------------------


@_criterion(1, "exact qp moments", "exact-symbolic")
def criterion_01(seed: int, quick: bool) -> list[dict]:
    """Ordered moments <q^n p^m> = delta_{n,m} (i/2)^n n! for n, m <= 8, exact."""
    table = hb.CovarianceTable()
    checks = []
    worst = None
    for n in range(9):
        for m in range(9):
            value = hb.omega(hb.AlgebraElement.monomial((n, m, 0, 0)), table)
            expected = (
                ComplexRational(0, Fraction(1, 2)) ** n * ComplexRational(math.factorial(n))
                if n == m
                else ZERO
            )
            if value != expected and worst is None:
                worst = (n, m)
    checks.append(
        _check("qp-moments-exact", f"mismatch at {worst}" if worst else "all equal", "all equal", 0, ok=worst is None)
    )
    return checks


@_criterion(2, "Wick vs normal-ordering oracle", "exact-symbolic")
def criterion_02(seed: int, quick: bool) -> list[dict]:
    """Dual-route state evaluation on 500 random words, exact agreement."""
    rng = np.random.default_rng(seed)
    table = hb.CovarianceTable()
    bad = 0
    for _ in range(500):
        length = int(rng.integers(1, 9))
        word = [hb.Generator(int(g)) for g in rng.integers(0, 4, length)]
        direct = hb.wick_value(word, table)
        termwise = hb.omega(hb.normal_order(word), table)
        if direct != termwise:
            bad += 1
    checks = [_check("wick-vs-normal-order", bad, 0, 0, ok=bad == 0)]
    return checks


@_criterion(3, "structure identities", "exact-symbolic")
def criterion_03(seed: int, quick: bool) -> list[dict]:
    """Commutant, Fock/anti-Fock, and Hamiltonian identities, exact."""
    table = hb.CovarianceTable()
    i_unit = ComplexRational(0, 1)
    checks = []

    q_plus, p_plus = hb.commutant_pair_plus()
    q_minus, p_minus = hb.commutant_pair_minus()
    half = Fraction(1, 2)
    checks.append(
        _check(
            "[Q+,P+] = i and [Q-,P-] = -i",
            str(hb.commutator(q_plus, p_plus) * half) + " ; " + str(hb.commutator(q_minus, p_minus) * half),
            "(i) ; (-i)",
            0,
            ok=(
                hb.commutator(q_plus, p_plus) * half == hb.UNIT * i_unit
                and hb.commutator(q_minus, p_minus) * half == hb.UNIT * (-i_unit)
            ),
        )
    )
    checks.append(
        _check(
            "[Q-,P+] = [Q+,P-] = 0",
            "computed",
            "0",
            0,
            ok=(
                hb.commutator(q_minus, p_plus).is_zero
                and hb.commutator(q_plus, p_minus).is_zero
            ),
        )
    )
    a = hb.fock_a()
    b = hb.fock_b()
    checks.append(
        _check(
            "[a,a*] = [b,b*] = 1, [a,b] = [a,b*] = 0",
            "computed",
            "exact",
            0,
            ok=(
                hb.commutator(a, hb.adjoint(a)) == hb.UNIT
                and hb.commutator(b, hb.adjoint(b)) == hb.UNIT
                and hb.commutator(a, b).is_zero
                and hb.commutator(a, hb.adjoint(b)).is_zero
            ),
        )
    )
    hamiltonian = hb.hamiltonian()
    b_star = hb.adjoint(b)
    bad = 0
    for mono in _extended_monomials(6):
        if hb.gns_inner(mono, a, table) != ZERO:
            bad += 1
        if hb.gns_inner(mono, b_star, table) != ZERO:
            bad += 1
        if hb.gns_inner(mono, hamiltonian, table) != ZERO:
            bad += 1
    checks.append(_check("a|0> = b*|0> = H|0> = 0 against degree <= 6", bad, 0, 0, ok=bad == 0))
    return checks


def _extended_monomials(max_degree: int) -> list[hb.AlgebraElement]:
    out = []
    for j in range(max_degree + 1):
        for k in range(max_degree + 1 - j):
            for l in range(max_degree + 1 - j - k):
                for m in range(max_degree + 1 - j - k - l):
                    out.append(hb.AlgebraElement.monomial((j, k, l, m)))
    return out


@_criterion(4, "faithfulness witness", "exact-symbolic")
def criterion_04(seed: int, quick: bool) -> list[dict]:
    """Faithfulness witness: exact determinant of the degree-4 moment matrix, its sign and size.

    The Gram is Hermitian, so its determinant is real and the product of its eigenvalues.  det != 0
    leaves no zero eigenvalue (n0 = 0), so by Sylvester's law of inertia sign(det) = (-1)^(n-) for
    the signature the float eigenvalues give: (9, 6, 0) here, with det = 729/2^24.  The exact
    log|det|, from the ints of det's numerator and denominator, meets slogdet of the float entries
    within a relative 1e-10: the entries are rounded once, LU with partial pivoting is backward
    stable, and d log|det| = tr(G^-1 dG), so the float route is off by about n^2 u cond(G) =
    15^2 * 1.1e-16 * 57 = 1.4e-12, against a gate of 1e-9 on log|det| = -10.04.
    """
    gram = hb.moment_matrix(4, hb.CovarianceTable())
    det = gram.det_exact
    checks = [_check("det(moment matrix, N=4) != 0", str(det), "nonzero", 0, ok=det != ZERO)]
    _, n_minus, n_zero = gram.signature
    sign = (det.re > 0) - (det.re < 0)
    ok = det == det.re and n_zero == 0 and sign == (-1) ** n_minus
    checks.append(_check("sign det = (-1)^n- (Sylvester)", sign, (-1) ** n_minus, 0, ok=ok))
    log_det = math.log(abs(det.re.numerator)) - math.log(det.re.denominator) if det.re else -math.inf
    log_float = float(np.linalg.slogdet(gram.entries)[1])
    checks.append(_check("log|det| vs slogdet, relative", log_det, log_float, 1e-10 * abs(log_float)))
    return checks


@_criterion(5, "Weyl series")
def criterion_05(seed: int, quick: bool) -> list[dict]:
    """Weyl series partial sum converges to e^{-i/2} at order 20."""
    value = hb.weyl_moment_partial_sum(1, 1, 20)
    err = abs(value - cmath.exp(-0.5j))
    checks = [_check("partial-sum error", err, 0.0, 1e-10)]
    return checks


@_criterion(6, "Weyl Schwinger MC", "mc")
def criterion_06(seed: int, quick: bool) -> list[dict]:
    """Sampled euclidean Weyl two-point value and the exact charge-zero rule."""
    samples, sigma = _mc_budget(quick)
    cfg = mc.McConfig(samples=samples, seed=seed)
    est = mc.mc_weyl_schwinger([1, -1], [0, 1], cfg)
    checks = [_sigma_check("weyl mc (1,-1)@(0,1)", est, wy.schwinger_npoint([1, -1], [0, 1]), sigma)]
    zero = mc.mc_weyl_schwinger([1, 1], [0, 1], cfg)
    checks.append(
        _check("charge != 0 is exact 0", zero.mean, 0.0, 0, ok=zero.mean == 0.0 and zero.stderr == 0.0)
    )
    return checks


@_criterion(7, "indefinite functional integral", "mc")
def criterion_07(seed: int, quick: bool) -> list[dict]:
    """Indefinite functional integral reproduces the Wick oracle."""
    samples, sigma = _mc_budget(quick)
    checks = []
    for number, taus in enumerate(([1, -1], [1, 1], [-1, -0.5, 0.5, 1])):
        cfg = mc.McConfig(samples=samples, seed=_mc_seed(seed, number))
        est = mc.mc_moment(taus, cfg)
        target = mc.wick_moment(taus)
        checks.append(_sigma_check(f"indefinite mc {taus}", est, target, sigma))
    return checks


@_criterion(8, "energy positivity")
def criterion_08(seed: int, quick: bool) -> list[dict]:
    """Energy positivity: every oscillation frequency is nonnegative, and is the exact a^2/2.

    For a charge-zero pair u = (a, b), v = (-a, d) the evolved label is v_t = (-a, d - a t), so
    sigma(u, v_t) = (-a b - a d + a^2 t)/2 = sigma(u, v) + nu t with nu = a^2/2 >= 0.  Each pair
    checks the frequency against a^2/2 (a doubled phase gives 2 a^2, still nonnegative) and the
    phase at t = 3/2 against the affine law with the nu read at t = 1 (an evolution that divides
    by t agrees with it at t = 1 only), both exactly.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    produced = 0
    off_rate = not_affine = 0
    t = Fraction(3, 2)
    for index in range(100):
        alpha = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
        beta = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
        delta = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
        gamma = -alpha if index % 2 == 0 else Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
        for frequency, _coeff in wy.spectral_support(alpha, beta, gamma, delta):
            produced += 1
            worst = min(worst, frequency)
            u, v = (alpha, beta), (gamma, delta)
            phase = wy.symplectic_phase(u, v)
            nu = wy.symplectic_phase(u, wy.evolve_weyl(v, 1)) - phase
            off_rate += frequency != float(alpha * alpha / 2)
            not_affine += wy.symplectic_phase(u, wy.evolve_weyl(v, t)) != phase + nu * t
    checks = [
        _check("min frequency over sweep", worst, 0.0, 0, ok=worst >= 0.0),
        _check("sweep produced oscillations", produced, "> 0", 0, ok=produced > 0),
        _check("frequency = a^2/2, pairs off", off_rate, 0, 0, ok=off_rate == 0),
        _check("sigma(u, v_3/2) = sigma(u, v) + 3/2 nu, pairs off", not_affine, 0, 0, ok=not_affine == 0),
    ]
    return checks


@_criterion(9, "pre-Pontryagin signature")
def criterion_09(seed: int, quick: bool) -> list[dict]:
    """Signature of the euclidean product: mean zero positive, one bump negative."""
    grid = ne.Grid.parse("-5:5:0.1")
    mean_zero = ne.family("meanzero:20", grid, seed)
    sig0 = ne.signature_of(mean_zero).signature
    sig1 = ne.signature_of(mean_zero + ne.family("bumps:1", grid, seed + 1)).signature
    checks = [
        _check("mean-zero family n-", sig0[1], 0, 0, ok=sig0[1] == 0),
        _check("plus one bump n-", sig1[1], 1, 0, ok=sig1[1] == 1),
    ]
    return checks


@_criterion(10, "OS failure and rank")
def criterion_10(seed: int, quick: bool) -> list[dict]:
    """OS positivity failure, three-way product agreement, and Gram rank two."""
    grid = ne.Grid.parse("0:5:0.01")
    values = np.exp(-0.5 * ((grid.points - 1.0) / 0.08) ** 2)
    values /= values.sum() * grid.step
    mass = values.sum() * grid.step
    first_moment = (grid.points * values).sum() * grid.step
    reflected, closed, v_sector = ne.os_inner_routes(grid, values, values)
    spread = max(abs(reflected - closed), abs(reflected - v_sector))
    checks = [
        _check("three-way agreement", spread, 0.0, 1e-8),
        _check("os value < 0", reflected.real, "-1", 0, ok=reflected.real < 0),
        _check(
            "closed formula -(int tau f)(int f)",
            reflected.real,
            -(first_moment * mass).real,
            1e-10,
        ),
    ]
    rank_grid = ne.Grid.parse("0:5:0.05")
    fam = ne.family("possupport:10", rank_grid, seed)
    rank, singular = ne.os_rank(rank_grid, [v.values for v in fam])
    ratio = float(singular[2] / singular[0])
    checks.append(_check("OS Gram rank", rank, 2, 0, ok=rank == 2))
    checks.append(_check("sigma3/sigma1", ratio, 0.0, 1e-8))
    return checks


@_criterion(11, "Krein metric")
def criterion_11(seed: int, quick: bool) -> list[dict]:
    """Krein metric: involution, positivity, and the closed kernel match."""
    grid = ne.Grid.parse("-5:5:0.1")
    rng = np.random.default_rng(seed)
    worst_involution = 0.0
    min_positive = math.inf
    for _ in range(100):
        vec = ne.ExtendedVector(
            grid,
            rng.standard_normal(grid.n),
            a=complex(*rng.standard_normal(2)),
            b=complex(*rng.standard_normal(2)),
        )
        scale = float(np.abs(vec.coords()).max())
        vec = vec * (1.0 / scale)
        alpha = float(rng.uniform(0.4, 2.5))
        back = ne.krein_metric_apply(ne.krein_metric_apply(vec, alpha), alpha)
        worst_involution = max(worst_involution, float(np.abs((back - vec).coords()).max()))
        min_positive = min(min_positive, ne.krein_inner(vec, vec, alpha).real)
    worst_kernel = 0.0
    for _ in range(20):
        tau = float(rng.choice(grid.points))
        sig = float(rng.choice(grid.points))
        alpha = float(rng.uniform(0.5, 2.0))
        metric_value = ne.krein_inner(ne.point_mass(grid, tau), ne.point_mass(grid, sig), alpha).real
        worst_kernel = max(worst_kernel, abs(metric_value - mc.krein_kernel(tau, sig, alpha)))
    checks = [
        _check("eta_alpha^2 = 1", worst_involution, 0.0, 1e-10),
        _check("[f,f]_alpha >= 0", min_positive, 0.0, 0, ok=min_positive >= -1e-10),
        _check("[d_tau, d_sigma]_alpha vs closed kernel", worst_kernel, 0.0, 1e-10),
    ]
    return checks


@_criterion(12, "Markov projections")
def criterion_12(seed: int, quick: bool) -> list[dict]:
    """Markov projection identity E+ E- = E0 on the reference grid."""
    diag = ne.markov_diagnostics(ne.Grid.parse("-5:5:0.2"), 25, seed=seed)
    checks = [
        _check("||E+E- - E0|| relative", diag["markov_residual"], 0.0, 1e-6),
        _check("idempotence", diag["idempotence_residual"], 0.0, 1e-8),
        _check("E+- fix the singular pair", diag["v_fixed_residual"], 0.0, 1e-8),
    ]
    return checks


@_criterion(13, "Gaussian Markov property")
def criterion_13(seed: int, quick: bool) -> list[dict]:
    """Gaussian Markov property in (x, v); fails when v is dropped."""
    points = [-2, -1, 0, 1, 2]
    with_v = ne.conditional_independence_residual(points, 1.0)
    without_v = ne.conditional_independence_residual(points, 1.0, condition_on_v=False)
    checks = [
        _check("cross-covariance given (x(0), v)", with_v, 0.0, 1e-8),
        _check("residual without v", without_v, "> 0.1", 0, ok=without_v > 0.1),
    ]
    return checks


@_criterion(14, "Krein MC", "mc")
def criterion_14(seed: int, quick: bool) -> list[dict]:
    """Krein-measure sampler reproduces its diagonal kernel values.

    At alpha = 1, and wherever |tau sigma| = 1, the kernel is the same under alpha <-> 1/alpha;
    at taus (0, 0) and alpha = 2 it reads 1/8 against 2 at alpha = 1/2.
    """
    samples, sigma = _mc_budget(quick)
    est0 = mc.mc_krein_moment([0, 0], 1.0, mc.McConfig(samples=samples, seed=seed))
    est1 = mc.mc_krein_moment([1, 1], 1.0, mc.McConfig(samples=samples, seed=_mc_seed(seed, 1)))
    est2 = mc.mc_krein_moment([0, 0], 2.0, mc.McConfig(samples=samples, seed=_mc_seed(seed, 2)))
    checks = [
        _sigma_check("krein mc (0,0)", est0, mc.krein_pair_moment([0, 0], 1.0), sigma),
        _sigma_check("krein mc (1,1)", est1, mc.krein_pair_moment([1, 1], 1.0), sigma),
        _sigma_check("krein mc (0,0) at alpha 2", est2, mc.krein_pair_moment([0, 0], 2.0), sigma),
    ]
    return checks


@_criterion(15, "determinism", "mc")
def criterion_15(seed: int, quick: bool) -> list[dict]:
    """Determinism: the same seed gives the same bits."""
    samples, _ = _mc_budget(quick)
    cfg = mc.McConfig(samples=samples, seed=seed)
    first = mc.mc_moment([1, -1], cfg)
    second = mc.mc_moment([1, -1], cfg)
    checks = [
        _check(
            "same seed bit-identical",
            [first.mean, first.stderr],
            [second.mean, second.stderr],
            0,
            ok=first.mean == second.mean and first.stderr == second.stderr,
        ),
    ]
    return checks


def run_all(
    quick: bool = False, seed: int = DEFAULT_SEED, only: list[int] | None = None
) -> list[CriterionResult]:
    numbers = sorted(set(only or CRITERIA))
    unknown = [n for n in numbers if n not in CRITERIA]
    if unknown:
        raise ValueError(f"unknown criteria {unknown}")
    return [CRITERIA[n](seed=seed, quick=quick) for n in numbers]
