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

Sampling is deterministic: sample i is produced by the SFC64 stream seeded
by ``SeedSequence(seed, spawn_key=(i // BLOCK,))`` (numpy's "Parallel Random
Number Generation" guide), so the estimate depends only on the seed and
sample count.  A block draws, row after row, z1 and z2 and then one row per
Brownian gap, each as wide as its sample count.  Blocks run on up to one
worker per CPU (the calling thread and a pool thread for each other CPU),
each with a scratch buffer of nine rows whatever the taus, from which a
block takes every row it draws, walks and computes in.  The calling
thread makes every substream, in block order, and allocates every scratch
buffer; it puts each block on one queue that holds a block per pool thread,
and works the block itself when the queue is full.  Each block's (count,
mean, M2) statistics go into its place in a list of results, which the
caller merges in block order, so the estimate does not depend on the number
of CPUs or workers; a failing block stops the hand-out and raises its
exception (the lowest failing block's, as in a serial loop) in the caller.
A block streams its paths to one integrand call, as a running sum down each
side of 0 kept in one row, in gap order; no step of sampling calls BLAS, so
the bits do not depend on the BLAS kernel.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .heisenberg import pair_partition_sum
from .weyl import _neutral_labels

BLOCK = 16384
PAIR_MOMENT_LIMIT = 20  # n distinct taus give the pair-partition engine 2^n states


@dataclass(frozen=True)
class McConfig:
    """Seeded Monte Carlo run description."""

    samples: int
    seed: int
    step: float = 0.1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be in [0, 2**64)")
        if not 0 < self.step < math.inf:
            raise ValueError("step must be positive and finite")


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate; stderr is sample standard deviation / sqrt(n).

    ``samples == 0`` marks a value that was produced exactly without
    sampling (the charge-conservation zeros).
    """

    mean: float | complex
    stderr: float
    samples: int

    def within(self, target: float | complex, n_sigma: float) -> bool:
        """The sigma gate: |mean - target| <= n_sigma stderr (an exact hit when stderr is 0)."""
        return bool(abs(self.mean - target) <= n_sigma * self.stderr)

    def sigma_distance(self, target: float | complex) -> float | None:
        """|mean - target| in standard errors: 0 for an exact hit, None for a miss with stderr 0."""
        deviation = abs(self.mean - target)
        if deviation == 0:
            return 0.0
        return deviation / self.stderr if self.stderr > 0 else None


# -- kernels and the pair-partition oracle ---------------------------------------


def kernel_value(tau: float, sigma: float, c: float = 0.0) -> float:
    """Euclidean two-point kernel c - |tau - sigma|/2."""
    return c - abs(tau - sigma) / 2.0


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
    return float(pair_partition_sum(taus, kernel))


def wick_moment(taus, c: float = 0.0) -> float:
    """Moment <x(tau_1) ... x(tau_n)> of the indefinite Gaussian functional."""
    return pair_moment(taus, lambda t, s: kernel_value(t, s, c))


def krein_pair_moment(taus, alpha: float) -> float:
    """Moment of the Krein measure at scale alpha."""
    return pair_moment(taus, lambda t, s: krein_kernel(t, s, alpha))


def characteristic_target(taus, weights, step: float) -> float:
    """Quadrature value exp(-<f,f>/2) for f given by (taus, weights), at c = 0 as sampled.

    With the taus sorted, <f,f> = -sum_j w_j (tau_j W_j - T_j), W and T the prefix sums of w and w tau.
    """
    taus = np.asarray(taus, dtype=float)
    order = np.argsort(taus, kind="stable")
    t, w = taus[order], np.asarray(weights, dtype=float)[order] * step
    return math.exp(0.5 * float((w * (t * np.cumsum(w) - np.cumsum(w * t))).sum()))


# -- deterministic substreams ------------------------------------------------------


def substream(seed: int, block: int) -> np.random.Generator:
    """SFC64 stream for one block, seeded by ``SeedSequence(seed, spawn_key=(block,))``.

    Keyed by (seed, block) alone, so it is reproducible and independent of
    which worker draws it: the per-block seeding of numpy's "Parallel Random
    Number Generation" guide (spawn keys hash into distinct, well-mixed
    states; Salmon et al., SC11, for keyed substreams).
    """
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(block,))))


def brownian_gaps(taus):
    """The two-sided Brownian gap construction at taus.

    Yields, for the positive side of 0 and then the negative side, the square
    roots of the gaps between consecutive distinct |tau| (counted from 0) and,
    for each tau, the index of its last gap, or -1 if tau is not on that side.
    """
    taus = np.asarray(taus, dtype=float)
    for side in (taus, -taus):
        edges = np.sort(side[side > 0])
        edges = edges[np.diff(edges, prepend=0.0) > 0]  # distinct, as np.unique, without importing numpy.ma
        last = np.where(side > 0, np.searchsorted(edges, side), -1)
        yield np.sqrt(np.diff(edges, prepend=0.0)), last


# -- the estimator core --------------------------------------------------------------


def _merge(a, b):
    """Statistics (count, mean, M2) of the samples of a followed by those of b.

    The pairwise update of Chan, Golub and LeVeque (1983); M2 is the sum of
    squared deviations from the mean.
    """
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * n_b / n, m2_a + m2_b + delta * delta * n_a * n_b / n


def _cpu_count() -> int:
    """CPUs this process may run on; the sampler starts at most one worker per CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_blocks(blocks: int, seed: int, work, size: int) -> list:
    """Return [work(block, substream(seed, block), buffer) for each block], in block order.

    work runs on up to one worker per CPU: the calling thread and a pool of
    plain threads for the others, each worker with its own scratch buffer of
    ``size`` floats, reused by every block it works, with no more workers
    than blocks.  The calling thread allocates every buffer and makes every
    substream, in block order.  It puts each block on one queue that holds a
    block per pool thread, so at most two blocks per thread are unfinished,
    and works the block itself when the queue is full.  The threads run under
    the caller's numpy error state.  Each result or exception goes into its
    block's place in the list.  A failing block stops the hand-out, and blocks
    above it are skipped; once every thread has finished, the lowest failing
    block's exception is raised, as in a serial loop.  If the caller raises
    outside work, the blocks still queued are dropped unworked.
    """
    workers = min(_cpu_count(), blocks)
    own, *buffers = (np.empty(size) for _ in range(workers))
    if not buffers:
        return [work(block, substream(seed, block), own) for block in range(blocks)]
    import queue  # here, so that importing ccrlab loads no _queue or _heapq: about 0.13 MB

    results, failed = [None] * blocks, blocks  # failed: the lowest failing block seen so far
    tasks = queue.Queue(maxsize=len(buffers))
    errstate, errcall = np.geterr(), np.geterrcall()

    def run(block, generator, buffer):
        nonlocal failed
        if block < failed:
            try:
                results[block] = work(block, generator, buffer)
            except BaseException as err:
                results[block] = err
                failed = min(failed, block)

    def serve(buffer):
        np.seterr(**errstate)
        np.seterrcall(errcall)
        while (task := tasks.get()) is not None:
            run(*task, buffer)

    threads = []
    try:
        for buffer in buffers:
            thread = threading.Thread(target=serve, args=(buffer,), daemon=True)
            thread.start()
            threads.append(thread)  # only started threads are told to stop and joined
        for block in range(blocks):
            if failed < blocks:
                break
            task = (block, substream(seed, block))
            try:
                tasks.put_nowait(task)
            except queue.Full:  # the pool is busy: work the block here
                run(*task, own)
    except BaseException:
        failed = -1  # drop the blocks still queued
        raise
    finally:
        for _ in threads:
            tasks.put(None)
        for thread in threads:
            thread.join()
    for result in results:  # two threads may race on failed, so read the lowest failure here
        if isinstance(result, BaseException):
            raise result
    return results


def _estimate(taus, cfg: McConfig, integrand, uses_z: bool = True) -> tuple[McEstimate, McEstimate]:
    """Real and imaginary estimates of E[integrand(paths, z1, z2)].

    Block b holds samples [b BLOCK, (b + 1) BLOCK) and draws from substream
    (seed, b), row after row, ``take`` normals a row (its sample count): z1 and
    z2, halved in place, then one row per gap of brownian_gaps, the positive
    side and then the negative side, each in gap order.  The block calls
    integrand(rows, paths, z1, z2) once, or integrand(rows, paths) with
    ``uses_z=False``, which draws no z rows.  ``paths`` is an iterator of (k,
    path of tau_k) pairs in gap order: the taus at 0 first, with a zero row,
    then at each gap the taus whose last gap it is.  A side's path is the
    running sum walk + gap_i normal_i (no BLAS), kept in one row that the
    next pair overwrites: the integrand uses each row before it asks for the
    next, and leaves paths and z unchanged.  ``rows`` are five rows of the
    block's width: the integrand writes one value per sample into rows[0]
    (the real part) and, for a complex integrand, rows[1] (the imaginary
    part), may use the others as work space, and returns how many value rows
    it wrote; a real integrand's imaginary estimate is an exact 0.

    Blocks run on up to one worker per CPU (_run_blocks, fed by one bounded
    queue), each with a buffer of nine rows whatever the taus: z1, z2, the
    drawn row, the walk and the integrand's five.  A block reduces each of its
    value rows to (count, mean, M2), in place; _run_blocks returns the blocks'
    statistics as a list in block order, and the calling thread merges them in
    that order (_merge): the estimate does not depend on the number of
    workers, and a large mean hides no small spread.  No step allocates a
    block-wide array.
    """
    steps, on_a_side = [], np.zeros(len(taus), dtype=bool)
    for sq, last in brownian_gaps(taus):
        on_a_side |= last >= 0
        # (gap root, whether it starts its side, the taus whose last gap it is)
        steps += [(root, i == 0, np.flatnonzero(last == i).tolist()) for i, root in enumerate(sq.tolist())]
    at_zero = np.flatnonzero(~on_a_side).tolist()

    def block_stats(block, generator, buffer):
        take = min(BLOCK, cfg.samples - block * BLOCK)
        rows = buffer.reshape(9, BLOCK)[:, :take]
        drawn, walk = rows[2], rows[3]
        z = generator.standard_normal(out=buffer[: 2 * take if uses_z else 0])  # z1 then z2, in rows 0 and 1
        z = np.multiply(0.5, z, out=z).reshape(-1, take)

        def paths():
            if at_zero:
                walk.fill(0.0)
            for k in at_zero:
                yield k, walk
            for root, starts_side, ends in steps:
                generator.standard_normal(out=drawn)
                if starts_side:
                    np.multiply(root, drawn, out=walk)
                else:
                    np.add(walk, np.multiply(root, drawn, out=drawn), out=walk)
                for k in ends:
                    yield k, walk

        parts = integrand(rows[4:], paths(), *z)
        values = rows[4 : 4 + parts]
        mean = values.sum(axis=1) / take
        np.subtract(values, mean[:, None], out=values)
        m2 = np.square(values, out=values).sum(axis=1)
        # a real integrand's imaginary part is an exact zero: (take, 0.0, 0.0)
        return [(take, float(mean[row]), float(m2[row])) for row in range(parts)] + [(take, 0.0, 0.0)] * (2 - parts)

    totals = [(0, 0.0, 0.0)] * 2
    for stats in _run_blocks(-(-cfg.samples // BLOCK), cfg.seed, block_stats, 9 * BLOCK):
        totals = [_merge(total, part) for total, part in zip(totals, stats)]

    def one(n, mean, m2) -> McEstimate:
        return McEstimate(mean=mean, stderr=math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0, samples=n)

    return one(*totals[0]), one(*totals[1])


# -- estimators ----------------------------------------------------------------------


def _weighted_sum(weights, paths, total, term):
    """Write sum_k weights[k] path_k over the (k, path_k) pairs into the row total, added in their order (no BLAS)."""
    total.fill(0.0)
    for k, path in paths:
        total += np.multiply(weights[k], path, out=term)


def mc_moment_components(taus, cfg: McConfig) -> tuple[McEstimate, McEstimate]:
    """Real and imaginary estimates of <prod_k (xi(tau_k) + z - |tau_k| zbar)>.

    With z = z1 + i z2 a factor is (xi(tau_k) + (1 - |tau_k|) z1) + i (1 + |tau_k|) z2;
    the product runs in real (re, im) rows, factor by factor in the paths' order.
    """
    abs_taus = np.abs(np.asarray(taus, dtype=float))
    scales = list(zip((1.0 - abs_taus).tolist(), (1.0 + abs_taus).tolist()))

    def integrand(rows, paths, z1, z2):
        re, im, factor_re, factor_im, im_factor_im = rows
        re.fill(1.0)
        im.fill(0.0)
        for k, path in paths:
            scale_re, scale_im = scales[k]
            np.add(path, np.multiply(scale_re, z1, out=factor_re), out=factor_re)
            np.multiply(scale_im, z2, out=factor_im)
            # (re + i im)(factor_re + i factor_im), the old im used before it is overwritten
            np.multiply(im, factor_im, out=im_factor_im)
            im *= factor_re
            im += np.multiply(re, factor_im, out=factor_im)
            re *= factor_re
            re -= im_factor_im
        return 2

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

    def integrand(rows, paths, z1, z2):
        # exp(i x(f)) with x(f) = xi(f) + a z - b zbar: modulus exp(-(a + b) z2), phase xi(f) + (a - b) z1
        re, im, phase, modulus = rows[:4]
        _weighted_sum(w, paths, phase, modulus)
        phase += np.multiply(a - b, z1, out=modulus)
        np.exp(np.multiply(-(a + b), z2, out=modulus), out=modulus)
        np.multiply(np.cos(phase, out=re), modulus, out=re)
        np.multiply(np.sin(phase, out=im), modulus, out=im)
        return 2

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
    value.  Labels and taus of different lengths, or none, raise ValueError,
    as in :func:`ccrlab.weyl.schwinger_npoint`.
    """
    labels = _neutral_labels(alphas, taus, "taus")
    if labels is None:
        return McEstimate(mean=0.0, stderr=0.0, samples=0)
    coeffs = [float(a) for a in labels]

    def integrand(rows, paths):  # the real part of exp(i theta)
        _weighted_sum(coeffs, paths, rows[0], rows[1])
        np.cos(rows[0], out=rows[0])
        return 1

    real, _imag = _estimate(taus, cfg, integrand, uses_z=False)
    return real


def mc_krein_moment(taus, alpha: float, cfg: McConfig) -> McEstimate:
    """Sampled moment of the Krein measure: z, zbar replaced by real variables."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")

    abs_taus = np.abs(np.asarray(taus, dtype=float))

    def integrand(rows, paths, z1, z2):  # prod_k (path_k + x - |tau_k| v), in the paths' order
        prod, x, v, term, scaled = rows
        np.divide(np.add(z1, z2, out=x), alpha, out=x)  # x = (z1 + z2)/alpha, v = -alpha (z1 - z2)
        np.multiply(-alpha, np.subtract(z1, z2, out=v), out=v)
        prod.fill(1.0)
        for k, path in paths:
            np.add(path, x, out=term)
            prod *= np.subtract(term, np.multiply(abs_taus[k], v, out=scaled), out=term)
        return 1

    real, _imag = _estimate(taus, cfg, integrand)
    return real
