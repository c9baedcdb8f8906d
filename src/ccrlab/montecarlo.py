"""Analytic Wick oracle and functional-integral Monte Carlo checks.

The euclidean position kernel is ``S(tau, sigma) = c - |tau - sigma|/2``.
Its moments are indefinite, so no probability measure reproduces them; the
sampled representation (of the c = 0 kernel: c is an argument of the
analytic oracle only) combines a two-sided Brownian path with a centered
complex Gaussian variable z = z1 + i z2 of component variance 1/4:

    x(tau)  ~  xi(tau) + z - |tau| zbar.

Every estimator runs one core on (xi, z1, z2) and differs only in its
integrand.  Replacing (z, zbar) by the real variables (z1 + z2)/alpha and
-alpha (z1 - z2) turns the same construction into a genuine Gaussian measure
whose kernel carries a rank-one positive correction (the Krein variant).

Sampling is deterministic: sample i is produced by the counter-based
substream keyed (seed, i // BLOCK), so the estimate depends only on the seed
and sample count.  The chunk size of :class:`McConfig` only batches the
reduction, which is compensated; regrouping changes results at roundoff
level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .heisenberg import pair_partition_sum
from .weyl import to_label_fraction

BLOCK = 16384
PAIR_MOMENT_LIMIT = 20


@dataclass(frozen=True)
class McConfig:
    """Seeded Monte Carlo run description."""

    samples: int
    seed: int
    step: float = 0.1
    chunk: int = 65536

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be in [0, 2**64)")
        if not 0 < self.step < math.inf:
            raise ValueError("step must be positive and finite")
        if self.chunk < 1:
            raise ValueError("chunk must be >= 1")


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate; stderr is sample standard deviation / sqrt(n).

    ``samples == 0`` marks a value that was produced exactly without
    sampling (the charge-conservation zeros).
    """

    mean: float | complex
    stderr: float
    samples: int


# -- kernels and the pair-partition oracle ---------------------------------------


def kernel_value(tau: float, sigma: float, c: float = 0.0) -> float:
    """Euclidean two-point kernel c - |tau - sigma|/2."""
    return c - abs(tau - sigma) / 2.0


def bm_covariance(tau: float, sigma: float) -> float:
    """Two-sided Brownian covariance (|tau| + |sigma| - |tau - sigma|)/2."""
    return (abs(tau) + abs(sigma) - abs(tau - sigma)) / 2.0


def singular_covariance(tau: float, sigma: float) -> float:
    """Covariance of the complex-variable parts: E[(z-|tau|zb)(z-|sigma|zb)]."""
    return -(abs(tau) + abs(sigma)) / 2.0


def krein_kernel(tau: float, sigma: float, alpha: float) -> float:
    """Kernel of the real-variable (Krein) measure at scale alpha."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return (
        -abs(tau - sigma) / 2.0
        + (abs(tau) + abs(sigma) + alpha**-2 + alpha**2 * abs(tau) * abs(sigma)) / 2.0
    )


def pair_moment(taus, kernel) -> float:
    """Gaussian moment by pair partitions of an arbitrary two-point kernel."""
    taus = tuple(float(t) for t in taus)
    if len(taus) > PAIR_MOMENT_LIMIT:
        raise ValueError(f"pair-partition moment limited to n <= {PAIR_MOMENT_LIMIT}")
    return pair_partition_sum(taus, kernel, 0.0, 1.0)


def wick_moment(taus, c: float = 0.0) -> float:
    """Moment <x(tau_1) ... x(tau_n)> of the indefinite Gaussian functional."""
    return pair_moment(taus, lambda t, s: kernel_value(t, s, c))


def krein_pair_moment(taus, alpha: float) -> float:
    """Moment of the Krein measure at scale alpha."""
    return pair_moment(taus, lambda t, s: krein_kernel(t, s, alpha))


def characteristic_target(taus, weights, step: float, c: float = 0.0) -> float:
    """Quadrature value exp(-<f,f>/2) for f given by (taus, weights)."""
    taus = np.asarray(taus, dtype=float)
    w = np.asarray(weights, dtype=float) * step
    quad = c - np.abs(taus[:, None] - taus[None, :]) / 2.0
    return math.exp(-0.5 * float(w @ quad @ w))


# -- deterministic substreams ------------------------------------------------------


def substream(seed: int, block: int) -> np.random.Generator:
    """Counter-based generator for one block; parallel-safe and reproducible."""
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def brownian_gaps(taus):
    """The two-sided Brownian gap construction at taus.

    Yields, for the positive side of 0 and then the negative side, the square
    roots of the gaps between consecutive distinct |tau| (counted from 0) and,
    for each tau, the index of its last gap, or -1 if tau is not on that side.
    """
    taus = np.asarray(taus, dtype=float)
    for side in (taus, -taus):
        edges = np.unique(side[side > 0])
        last = np.where(side > 0, np.searchsorted(edges, side), -1)
        yield np.sqrt(np.diff(edges, prepend=0.0)), last


def _split_gaps(taus) -> np.ndarray:
    """Lower-triangular map from unit normals (one per gap) to Brownian values at taus."""
    blocks = [np.where(np.arange(sq.size) <= last[:, None], sq, 0.0) for sq, last in brownian_gaps(taus)]
    return np.hstack(blocks)


# -- the estimator core --------------------------------------------------------------


class _NeumaierSum:
    """Vector Kahan-Neumaier accumulator (order-stable to roundoff)."""

    def __init__(self, width: int):
        self._sum = np.zeros(width)
        self._comp = np.zeros(width)

    def add(self, x: np.ndarray):
        t = self._sum + x
        big = np.abs(self._sum) >= np.abs(x)
        self._comp += np.where(big, (self._sum - t) + x, (x - t) + self._sum)
        self._sum = t

    def total(self) -> np.ndarray:
        return self._sum + self._comp


def _estimate(taus, cfg: McConfig, integrand) -> tuple[McEstimate, McEstimate]:
    """Real and imaginary estimates of E[integrand(paths, z1, z2)].

    Each block of samples draws (n_bm + 2, BLOCK) normals from its substream:
    the path rows give ``paths`` (one row per tau, one column per sample) and
    the last two rows give z1 and z2.  The integrand returns one real or
    complex value per sample; sums of the values and their squares are
    reduced in chunks of cfg.chunk samples into a compensated accumulator.
    """
    transform = _split_gaps(taus)
    n_bm = transform.shape[1]
    acc = _NeumaierSum(4)
    partial = np.zeros(4)
    for start in range(0, cfg.samples, BLOCK):
        take = min(BLOCK, cfg.samples - start)
        normals = substream(cfg.seed, start // BLOCK).standard_normal((n_bm + 2, BLOCK))[:, :take]
        values = integrand(transform @ normals[:n_bm], 0.5 * normals[n_bm], 0.5 * normals[n_bm + 1])
        stats = np.stack([values.real, values.imag, values.real**2, values.imag**2])
        # segments end where the global sample index reaches a multiple of cfg.chunk
        i = 0
        while i < take:
            end = min(take, i + cfg.chunk - (start + i) % cfg.chunk)
            partial += stats[:, i:end].sum(axis=1)
            i = end
            if (start + i) % cfg.chunk == 0:
                acc.add(partial)
                partial = np.zeros(4)
    if np.any(partial):
        acc.add(partial)
    n = cfg.samples
    s_re, s_im, s_re2, s_im2 = acc.total()

    def one(s, s2) -> McEstimate:
        var = max((s2 - s * s / n) / (n - 1), 0.0) if n > 1 else 0.0
        return McEstimate(mean=float(s / n), stderr=math.sqrt(var / n), samples=n)

    return one(s_re, s_re2), one(s_im, s_im2)


# -- estimators ----------------------------------------------------------------------


def mc_moment_components(taus, cfg: McConfig) -> tuple[McEstimate, McEstimate]:
    """Real and imaginary estimates of <prod_k (xi(tau_k) + z - |tau_k| zbar)>."""
    abs_taus = np.abs(np.asarray(taus, dtype=float))

    def integrand(paths, z1, z2):
        z = z1 + 1j * z2
        zbar = z1 - 1j * z2
        prod = np.ones(z1.size, dtype=complex)
        for k, abs_tau in enumerate(abs_taus):
            prod *= paths[k] + z - abs_tau * zbar
        return prod

    return _estimate(taus, cfg, integrand)


def mc_moment(taus, cfg: McConfig) -> McEstimate:
    """Sampled moment of the indefinite functional (real part reported)."""
    real, _imag = mc_moment_components(taus, cfg)
    return real


def mc_characteristic(taus, weights, cfg: McConfig) -> McEstimate:
    """Sampled characteristic functional <exp(i x(f))> for a grid function f.

    f is carried as point values ``weights`` at ``taus`` with quadrature step
    cfg.step; the estimate converges to exp(-<f,f>/2), whose modulus exceeds 1
    for mean-nonzero f (indefiniteness witness).
    """
    w = np.asarray(weights, dtype=float) * cfg.step
    a = float(w.sum())
    b = float((np.abs(np.asarray(taus, dtype=float)) * w).sum())

    def integrand(paths, z1, z2):
        # i(x(f)) with x(f) = xi(f) + a z - b zbar
        return np.exp(1j * (w @ paths + (a - b) * z1) - (a + b) * z2)

    real, imag = _estimate(taus, cfg, integrand)
    return McEstimate(
        mean=complex(real.mean, imag.mean),
        stderr=math.hypot(real.stderr, imag.stderr),
        samples=cfg.samples,
    )


def mc_weyl_schwinger(alphas, taus, cfg: McConfig) -> McEstimate:
    """Sampled euclidean expectation of exp(i sum_k alpha_k x(tau_k)).

    The ergodic mean over the almost-periodic part contributes exactly the
    charge-conservation delta, so label sums away from zero return an exact 0
    without sampling (samples == 0 marks the exact value); otherwise the mean
    over two-sided Brownian paths converges to the closed-form Schwinger
    value.
    """
    fractions = [to_label_fraction(a) for a in alphas]
    if sum(fractions) != 0:
        return McEstimate(mean=0.0, stderr=0.0, samples=0)
    coeffs = np.array([float(a) for a in fractions])
    real, _imag = _estimate(taus, cfg, lambda paths, z1, z2: np.exp(1j * (coeffs @ paths)))
    return real


def mc_krein_moment(taus, alpha: float, cfg: McConfig) -> McEstimate:
    """Sampled moment of the Krein measure: z, zbar replaced by real variables."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    abs_taus = np.abs(np.asarray(taus, dtype=float))

    def integrand(paths, z1, z2):
        x = (z1 + z2) / alpha
        v = -alpha * (z1 - z2)
        prod = np.ones(z1.size)
        for k, abs_tau in enumerate(abs_taus):
            prod *= paths[k] + x - abs_tau * v
        return prod

    real, _imag = _estimate(taus, cfg, integrand)
    return real
