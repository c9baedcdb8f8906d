"""Wick oracle, kernels, and the sampled functional integrals.

Sample counts here are reduced but every comparison still uses the stated
3-sigma gates with fixed seeds, so the file is deterministic.
"""

import math
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from ccrlab import montecarlo
from ccrlab.montecarlo import (
    BLOCK,
    McConfig,
    McEstimate,
    characteristic_target,
    kernel_value,
    krein_kernel,
    krein_pair_moment,
    mc_characteristic,
    mc_krein_moment,
    mc_moment,
    mc_moment_components,
    mc_weyl_schwinger,
    pair_moment,
    substream,
    wick_moment,
)
from ccrlab.weyl import schwinger_npoint

SAMPLES = 200_000


def within(estimate: McEstimate, target: float, n_sigma: float = 3.0) -> bool:
    return abs(estimate.mean - target) <= n_sigma * estimate.stderr


# -- kernels -----------------------------------------------------------------------


def test_kernel_examples():
    assert kernel_value(1, 1) == 0.0
    assert kernel_value(1, -1) == -1.0
    assert kernel_value(0, 2, c=1.0) == 0.0
    assert kernel_value(0.25, -0.5) == kernel_value(-0.5, 0.25)


def test_kernel_splits_into_path_and_singular_parts():
    # the split behind the sampler: Brownian covariance (|tau| + |sigma| - |tau - sigma|)/2
    # plus E[(z - |tau| zbar)(z - |sigma| zbar)] = -(|tau| + |sigma|)/2
    rng = np.random.default_rng(1)
    for tau, sigma in rng.uniform(-3, 3, (20, 2)):
        brownian = (abs(tau) + abs(sigma) - abs(tau - sigma)) / 2
        singular = -(abs(tau) + abs(sigma)) / 2
        assert kernel_value(tau, sigma) == pytest.approx(brownian + singular, abs=1e-14)


def test_krein_kernel_values():
    assert krein_kernel(0, 0, 1.0) == 0.5
    assert krein_kernel(1, 1, 1.0) == 2.0
    with pytest.raises(ValueError):
        krein_kernel(0, 0, 0.0)


def test_krein_kernel_rank_one_link():
    rng = np.random.default_rng(2)
    for _ in range(50):
        tau, sigma = rng.uniform(-4, 4, 2)
        alpha = rng.uniform(0.3, 3.0)
        correction = 2.0 * (alpha * abs(tau) / 2 + 1 / (2 * alpha)) * (
            alpha * abs(sigma) / 2 + 1 / (2 * alpha)
        )
        assert krein_kernel(tau, sigma, alpha) == pytest.approx(
            kernel_value(tau, sigma) + correction, abs=1e-12
        )
    diag = [krein_kernel(t, t, a) for t in np.linspace(-3, 3, 13) for a in (0.5, 1.0, 2.0)]
    assert min(diag) >= 0.0


# -- pair-partition oracle -----------------------------------------------------------


def test_wick_moment_examples():
    assert wick_moment([1, -1]) == -1.0
    assert wick_moment([1, 2, 3]) == 0.0
    assert wick_moment([1, -1, 1, -1]) == 2.0


def test_wick_moment_permutation_symmetric():
    rng = np.random.default_rng(3)
    taus = list(rng.uniform(-2, 2, 6))
    base = wick_moment(taus)
    for _ in range(10):
        perm = rng.permutation(6)
        assert wick_moment([taus[i] for i in perm]) == pytest.approx(base, rel=1e-12)


def test_wick_moment_general_c():
    # two points: single pairing equals the kernel itself
    assert wick_moment([2, -1], c=0.7) == kernel_value(2, -1, c=0.7)


def test_pair_moment_size_cap():
    with pytest.raises(ValueError):
        pair_moment([0.0] * 22, lambda t, s: 1.0)


def test_pair_moment_counts_pairings():
    # constant kernel 1 counts the (2n-1)!! perfect matchings
    assert pair_moment([0.0] * 6, lambda t, s: 1.0) == 15.0


# -- indefinite moments ---------------------------------------------------------------------


def test_mc_moment_two_point():
    est = mc_moment([1, -1], McConfig(samples=SAMPLES, seed=42))
    assert within(est, -1.0)
    est_zero = mc_moment([1, 1], McConfig(samples=SAMPLES, seed=43))
    assert within(est_zero, 0.0)


def test_mc_moment_coincident_cancellation():
    # E[xi(t)^2] = |t| cancels against the singular part for every t
    for seed, tau in ((44, 0.5), (45, 2.0)):
        est = mc_moment([tau, tau], McConfig(samples=SAMPLES, seed=seed))
        assert within(est, 0.0)


def test_mc_moment_four_point_matches_oracle():
    taus = [-1, -0.5, 0.5, 1]
    est = mc_moment(taus, McConfig(samples=SAMPLES, seed=46))
    assert within(est, wick_moment(taus))


def test_mc_moment_imaginary_part_vanishes():
    _real, imag = mc_moment_components([1, -1, 2, -2], McConfig(samples=SAMPLES, seed=47))
    assert within(imag, 0.0)


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(samples=0, seed=1)
    with pytest.raises(ValueError):
        McConfig(samples=10, seed=1, step=0.0)
    with pytest.raises(ValueError):
        McConfig(samples=10, seed=1, step=math.inf)
    with pytest.raises(ValueError):
        McConfig(samples=10, seed=1, step=math.nan)
    with pytest.raises(ValueError):
        McConfig(samples=10, seed=-1)
    with pytest.raises(ValueError):
        McConfig(samples=10, seed=2**64)
    assert McConfig(samples=10, seed=2**64 - 1).seed == 2**64 - 1


# -- characteristic functional -----------------------------------------------------------------


def test_characteristic_zero_function_is_exactly_one():
    est = mc_characteristic([1.0], [0.0], McConfig(samples=1000, seed=48, step=1.0))
    assert est.mean == 1.0 + 0j
    assert est.stderr == 0.0


def test_characteristic_mean_zero_target():
    taus, weights = [-1.0, 1.0], [-1.0, 1.0]
    target = characteristic_target(taus, weights, 1.0)
    assert target == pytest.approx(math.exp(-1.0))
    est = mc_characteristic(taus, weights, McConfig(samples=SAMPLES, seed=49, step=1.0))
    assert abs(est.mean - target) <= 3 * est.stderr


def test_characteristic_indefinite_modulus_exceeds_one():
    taus, weights = [-1.0, 1.0], [1.0, 1.0]
    target = characteristic_target(taus, weights, 1.0)
    assert target == pytest.approx(math.exp(1.0))
    est = mc_characteristic(taus, weights, McConfig(samples=2 * SAMPLES, seed=50, step=1.0))
    assert abs(est.mean - target) <= 3 * est.stderr
    assert abs(est.mean) > 1.0


def test_characteristic_target_matches_the_dense_quadratic_form():
    def dense(taus, weights, step):
        t, w = np.asarray(taus, dtype=float), np.asarray(weights, dtype=float) * step
        return math.exp(-0.5 * float(w @ (-np.abs(t[:, None] - t[None, :]) / 2.0) @ w))

    rng = np.random.default_rng(73)
    cases = [([0.7], [1.3], 0.1), ([], [], 0.1), ([0.5, 0.5, -0.5, 0.5], [1.0, -2.0, 0.5, 0.25], 0.3)]
    for n in (2, 3, 10, 200, 1000):
        taus = rng.choice(np.round(rng.uniform(-3, 3, n), 1), n)  # repeated taus among them
        cases.append((taus, rng.normal(0, 0.5, n), float(rng.uniform(0.001, 0.05))))
    for taus, weights, step in cases:
        assert characteristic_target(taus, weights, step) == pytest.approx(dense(taus, weights, step), rel=1e-13, abs=0)


# -- euclidean Weyl expectations ------------------------------------------------------------------


def test_weyl_schwinger_two_point():
    est = mc_weyl_schwinger([1, -1], [0, 1], McConfig(samples=SAMPLES, seed=51))
    assert within(est, math.exp(-0.5))


def test_weyl_schwinger_charge_rule_exact():
    est = mc_weyl_schwinger([1, 1], [0, 1], McConfig(samples=10, seed=52))
    assert est == McEstimate(mean=0.0, stderr=0.0, samples=0)
    # near-miss charges are not zero: the test is exact on rational labels
    live = mc_weyl_schwinger([0.5, -0.5], [0, 1], McConfig(samples=1000, seed=53))
    assert live.samples == 1000


@pytest.mark.parametrize("alphas, taus", [([1, -1], [0, 1, 2]), ([1, -1, 0], [0, 1]), ([], [])])
def test_weyl_schwinger_refuses_what_the_closed_form_refuses(alphas, taus):
    # one charge rule: labels and taus of different lengths, or none, are refused before any sampling
    for value in (schwinger_npoint, lambda a, t: mc_weyl_schwinger(a, t, McConfig(samples=10, seed=55))):
        with pytest.raises(ValueError):
            value(alphas, taus)


def test_weyl_schwinger_three_point():
    alphas, taus = [1, -2, 1], [-1, 0, 1]
    est = mc_weyl_schwinger(alphas, taus, McConfig(samples=SAMPLES, seed=54))
    assert within(est, schwinger_npoint(alphas, taus))


# -- Krein moments ----------------------------------------------------------------------------------


def test_krein_moment_diagonal():
    est0 = mc_krein_moment([0, 0], 1.0, McConfig(samples=SAMPLES, seed=55))
    assert within(est0, 0.5)
    est1 = mc_krein_moment([1, 1], 1.0, McConfig(samples=SAMPLES, seed=56))
    assert within(est1, 2.0)


def test_krein_moment_off_diagonal_other_alpha():
    taus, alpha = [1.0, -0.5], 1.7
    est = mc_krein_moment(taus, alpha, McConfig(samples=SAMPLES, seed=57))
    assert within(est, krein_pair_moment(taus, alpha))
    with pytest.raises(ValueError):
        mc_krein_moment([1], -1.0, McConfig(samples=10, seed=1))


# -- determinism contracts -----------------------------------------------------------------------------


def test_seed_determinism_bit_identical():
    cfg = McConfig(samples=SAMPLES, seed=58)
    first = mc_moment([1, -1], cfg)
    second = mc_moment([1, -1], cfg)
    assert first.mean == second.mean
    assert first.stderr == second.stderr


def test_weyl_stderr_scales_as_alpha_squared():
    # Re cos(alpha (x(0) - x(1))) has spread ~ alpha^2 around a mean ~ 1: the
    # stderr must follow alpha^2 down, not stall at the mean's roundoff.
    cfg = McConfig(samples=10_000, seed=70)
    big = mc_weyl_schwinger([1e-3, -1e-3], [0.0, 1.0], cfg).stderr
    small = mc_weyl_schwinger([1e-5, -1e-5], [0.0, 1.0], cfg).stderr
    assert small == pytest.approx((1e-5 / 1e-3) ** 2 * big, rel=0.01)


def _dynamic_arch_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS that picks its kernel at run time."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


KERNEL_SCRIPT = """
import math
import numpy as np
from ccrlab import montecarlo as mc
cfg = mc.McConfig(samples=2 * mc.BLOCK + 5, seed=71)
wide = [float(t) for t in np.linspace(-2, 2, 21)]
taus = [-1.5, -1.0, -0.25, 0.0, 0.5, 1.0, 1.25, 2.0]
print(repr(mc.mc_characteristic(wide, [0.3 * math.cos(t) for t in wide], cfg)))
print(repr(mc.mc_moment_components(taus, cfg)))
print(repr(mc.mc_weyl_schwinger([0.5, -0.5] * 4, taus, cfg)))
print(repr(mc.mc_krein_moment(taus, 1.3, cfg)))
"""


# child environments that pick the Prescott and then the Haswell OpenBLAS kernel
KERNELS = ({"OPENBLAS_CORETYPE": "Prescott"}, {"OPENBLAS_CORETYPE": "Haswell"})


def outputs_under_kernels(script: str, environments=KERNELS) -> list[str]:
    """Standard output of script run in a child process under each of environments in turn.

    Each is a set of variables added to this process's environment; the child takes
    them (a BLAS kernel or thread count, say) and this process keeps its own.
    """
    src = str(pathlib.Path(montecarlo.__file__).resolve().parents[1])
    outputs = []
    for variables in environments:
        env = dict(os.environ, **variables)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        child = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert child.returncode == 0, child.stderr
        outputs.append(child.stdout)
    return outputs


@pytest.mark.skipif(not _dynamic_arch_openblas(), reason="needs numpy on a DYNAMIC_ARCH OpenBLAS")
def test_estimates_do_not_depend_on_the_blas_kernel():
    outputs = outputs_under_kernels(KERNEL_SCRIPT)
    assert outputs[0].count("McEstimate") == 5
    assert outputs[0] == outputs[1]


def test_timed_paths_do_not_import_numpy_ma():
    # np.unique imports numpy.ma on first use: about 18 ms and 1.6 MB a process
    script = """
import sys
from ccrlab import montecarlo as mc, nelson as ne
mc.mc_moment([-1.0, 0.0, 0.5, 0.5], mc.McConfig(samples=2000, seed=3))
ne.markov_diagnostics(ne.Grid.parse("-2:2:0.1"), 6)
print("numpy.ma" in sys.modules)
"""
    src = str(pathlib.Path(montecarlo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "False"


def test_sampler_pool_does_not_import_concurrent_futures():
    # concurrent.futures brings logging, traceback and string: about 10 ms and 0.8 MB a process
    script = """
import sys
from ccrlab import montecarlo as mc
mc._cpu_count = lambda: 2
mc.mc_moment([1.0, -0.5], mc.McConfig(samples=3 * mc.BLOCK, seed=3))
print(sorted(name for name in ("concurrent.futures", "logging") if name in sys.modules))
"""
    (output,) = outputs_under_kernels(script, [{}])
    assert output.strip() == "[]"


@pytest.mark.parametrize("taus", [[1.0, 0.5, 1.0, -0.5, -0.5, 0.0, 2.0], [-3.0, -3.0], [0.0], [0.25, 0.25, 0.75]])
def test_brownian_gaps_match_the_unique_construction(taus):
    for side, (sq, last) in zip((np.array(taus), -np.array(taus)), montecarlo.brownian_gaps(taus)):
        edges = np.unique(side[side > 0])
        assert np.array_equal(sq, np.sqrt(np.diff(edges, prepend=0.0)))
        assert np.array_equal(last, np.where(side > 0, np.searchsorted(edges, side), -1))


def test_sample_count_not_multiple_of_block(monkeypatch):
    values = []

    def capturing(integrand):
        def captured(rows, *args):
            written = integrand(rows, *args)
            values.append(rows[:written].copy())
            return written

        return captured

    _wrap_integrands(monkeypatch, capturing)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 1)  # one worker: blocks are captured in order
    est = mc_moment([1, -1], McConfig(samples=BLOCK + 123, seed=60))
    assert est.samples == BLOCK + 123
    short = np.concatenate(values, axis=1)
    values.clear()
    # the full block agrees with a longer run, bit for bit (its values depend only on the index);
    # the partial block draws rows as wide as its samples (the serial-loop tests check it)
    longer = mc_moment([1, -1], McConfig(samples=2 * BLOCK, seed=60))
    assert longer.samples == 2 * BLOCK
    assert short.shape == (2, BLOCK + 123)
    assert np.concatenate(values, axis=1)[:, :BLOCK].tobytes() == short[:, :BLOCK].tobytes()


def test_substreams_differ_between_blocks():
    a = substream(7, 0).standard_normal(4)
    b = substream(7, 1).standard_normal(4)
    c = substream(7, 0).standard_normal(4)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


# -- parallel blocks against the serial loop -----------------------------------------------------


def _serial_estimate(taus, cfg, integrand, uses_z=True):
    """The sampler as a serial loop: each block draws its z1 and z2 rows (none
    without uses_z), then one (gaps, take) array of normals per side of 0, whose
    paths are the cumulative sum of its gap-scaled rows; the integrand gets the
    (k, path) pairs in gap order, the taus at 0 first with a zero row, and five
    fresh rows, and writes its values into the first one or two; the blocks'
    (count, mean, M2) are merged in order by Chan, Golub and LeVeque's update."""
    sides = list(montecarlo.brownian_gaps(taus))
    n, mean, m2 = 0, [0.0, 0.0], [0.0, 0.0]
    for start in range(0, cfg.samples, BLOCK):
        take = min(BLOCK, cfg.samples - start)
        generator = substream(cfg.seed, start // BLOCK)
        z = tuple(0.5 * generator.standard_normal(take) for _ in range(2 if uses_z else 0))
        pairs = [(k, np.zeros(take)) for k, tau in enumerate(taus) if tau == 0]
        for sq, last in sides:
            walk = np.cumsum(sq[:, None] * generator.standard_normal((sq.size, take)), axis=0)
            pairs += [(k, walk[gap]) for gap in range(sq.size) for k in np.flatnonzero(last == gap)]
        values = np.empty((5, take))
        rows = np.zeros((2, take))  # a real integrand's imaginary row stays 0
        written = integrand(values, iter(pairs), *z)
        rows[:written] = values[:written]
        mean_b = rows.sum(axis=1) / take
        m2_b = ((rows - mean_b[:, None]) ** 2).sum(axis=1)
        for row in range(2):
            delta = float(mean_b[row]) - mean[row]
            mean[row] += delta * take / (n + take)
            m2[row] = m2[row] + float(m2_b[row]) + delta * delta * n * take / (n + take)
        n += take

    def one(row) -> McEstimate:
        stderr = math.sqrt(m2[row] / (n - 1) / n) if n > 1 else 0.0
        return McEstimate(mean=mean[row], stderr=stderr, samples=n)

    return one(0), one(1)


def _neutral_labels(count):
    return [0.5 * (-1) ** k for k in range(count - count % 2)] + [0.0] * (count % 2)


ESTIMATORS = {
    "indefinite": lambda taus, cfg: mc_moment_components(taus, cfg),
    "krein": lambda taus, cfg: mc_krein_moment(taus, 1.3, cfg),
    "weyl": lambda taus, cfg: mc_weyl_schwinger(_neutral_labels(len(taus)), taus, cfg),
    "characteristic": lambda taus, cfg: mc_characteristic(taus, [0.3 * math.cos(t) for t in taus], cfg),
}
TAUS_SETS = {
    "empty": [],
    "all zero": [0.0, 0.0, 0.0],  # no path rows: weyl draws nothing at all
    "repeated": [1.0, -0.5, 1.0, -0.5],
    "one-sided": [0.25, 1.5, 0.5],
    "linspace": [float(t) for t in np.linspace(-2, 2, 21)],  # 20 gaps, tau 0 among them
}


def _assert_matches_serial(monkeypatch, taus, cfg, worker_counts=(1, 2, 3)):
    for name, run in ESTIMATORS.items():
        if name == "weyl" and not taus:  # no labels: refused, as the closed form refuses them
            with pytest.raises(ValueError):
                run(taus, cfg)
            continue
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_estimate", _serial_estimate)
            expected = repr(run(taus, cfg))
        for workers in worker_counts:
            monkeypatch.setattr(montecarlo, "_cpu_count", lambda workers=workers: workers)
            assert repr(run(taus, cfg)) == expected, (name, workers)


@pytest.mark.parametrize("samples", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 10000, 3 * BLOCK + 7])
def test_estimates_match_serial_loop(monkeypatch, samples):
    cfg = McConfig(samples=samples, seed=61)
    _assert_matches_serial(monkeypatch, TAUS_SETS["repeated"], cfg)


@pytest.mark.parametrize("taus", TAUS_SETS.values(), ids=TAUS_SETS.keys())
def test_estimates_match_serial_loop_for_any_taus(monkeypatch, taus):
    _assert_matches_serial(monkeypatch, taus, McConfig(samples=3 * BLOCK + 7, seed=62))


def _wrap_integrands(monkeypatch, wrap):
    """Route every estimator's integrand through wrap(integrand) inside the real _estimate."""
    estimate = montecarlo._estimate

    def wrapped(taus, cfg, integrand, uses_z=True):
        return estimate(taus, cfg, wrap(integrand), uses_z)

    monkeypatch.setattr(montecarlo, "_estimate", wrapped)


@pytest.mark.parametrize(
    "taus",
    [[1.0, -1.0], [-1.0, -0.5, 0.5, 1.0], TAUS_SETS["linspace"]],
    ids=["2-taus", "4-taus", "21-taus"],
)
def test_integrand_runs_once_per_block(monkeypatch, taus):
    calls = []

    def counting(integrand):
        def counted(rows, *args):
            written = integrand(rows, *args)
            calls.append(rows[:written].shape[1])
            return written

        return counted

    _wrap_integrands(monkeypatch, counting)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)
    cfg = McConfig(samples=3 * BLOCK + 7, seed=68)
    for name, run in ESTIMATORS.items():
        calls.clear()
        run(taus, cfg)
        assert sorted(calls) == [7, BLOCK, BLOCK, BLOCK], name


def test_integrands_leave_their_arguments_unchanged(monkeypatch):
    def checked_paths(paths):
        for k, path in paths:
            copy = path.copy()
            yield k, path
            assert np.array_equal(path, copy)  # asked for the next pair: done with this one

    def checking(integrand):
        def checked(rows, paths, *z):
            before = [row.copy() for row in z]
            written = integrand(rows, checked_paths(paths), *z)
            for row, copy in zip(z, before):
                assert np.array_equal(row, copy)
            return written

        return checked

    _wrap_integrands(monkeypatch, checking)
    cfg = McConfig(samples=BLOCK + 5, seed=69)
    for taus in (TAUS_SETS["repeated"], TAUS_SETS["linspace"]):
        for run in ESTIMATORS.values():
            run(taus, cfg)


def test_blocks_draw_only_the_prefix_they_read(monkeypatch):
    # every row is as wide as the block's sample count: a partial block draws rows x take normals
    drawn = {}

    class Recorder:
        def __init__(self, seed, block):
            self.generator, self.block = substream(seed, block), block
            drawn[block] = 0

        def standard_normal(self, out):
            drawn[self.block] += out.size
            return self.generator.standard_normal(out=out)

    monkeypatch.setattr(montecarlo, "substream", Recorder)
    cfg = McConfig(samples=BLOCK + 3, seed=66)
    cases = [
        (lambda: mc_moment([1.0], cfg), 3),  # z1, z2, then a path row
        (lambda: mc_weyl_schwinger([1, -1], [1.0, -1.0], cfg), 2),  # no z rows
        (lambda: mc_weyl_schwinger([1, -1], [0.0, 0.0], cfg), 0),  # no rows at all
    ]
    for run, rows in cases:
        drawn.clear()
        run()
        assert drawn == {0: rows * BLOCK, 1: rows * 3}


def _product_plus_z1(rows, paths, z1, z2):
    """prod_k path_k + z1 into rows[0], each path used before the next is asked for."""
    product = rows[0]
    product.fill(1.0)
    for _k, path in paths:
        product *= path
    product += z1
    return 1


def test_many_workers_with_rapid_switching(monkeypatch):
    # more workers than CPUs, switching every microsecond: a lost block would change the bits
    cfg = McConfig(samples=12 * BLOCK, seed=63)
    expected = repr(_serial_estimate([0.5, -1.0], cfg, _product_plus_z1))
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 8)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = repr(montecarlo._estimate([0.5, -1.0], cfg, _product_plus_z1))
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
    assert threading.active_count() == before


def test_worker_buffer_does_not_depend_on_the_taus(monkeypatch):
    sizes = []
    run_blocks = montecarlo._run_blocks

    def recording(blocks, seed, work, size):
        sizes.append(size)
        return run_blocks(blocks, seed, work, size)

    monkeypatch.setattr(montecarlo, "_run_blocks", recording)
    cfg = McConfig(samples=100, seed=67)
    for taus in ([1.0, -1.0], [float(t) for t in np.linspace(-2, 2, 1000)]):
        for run in ESTIMATORS.values():
            with np.errstate(all="ignore"):  # products of 1000 factors overflow; only the sizes count here
                run(taus, cfg)
    assert sizes == [9 * BLOCK] * 2 * len(ESTIMATORS)


@pytest.mark.parametrize("name", ESTIMATORS)
def test_blocks_allocate_no_block_wide_array_beyond_the_worker_buffer(monkeypatch, name):
    # one worker, three blocks: the heap peaks at the scratch buffer plus small objects, under
    # half a row (64 KiB); a work array allocated per block would add at least a whole row
    sizes = []
    run_blocks = montecarlo._run_blocks

    def recording(blocks, seed, work, size):
        sizes.append(size)
        return run_blocks(blocks, seed, work, size)

    monkeypatch.setattr(montecarlo, "_run_blocks", recording)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 1)
    run, cfg = ESTIMATORS[name], McConfig(samples=3 * BLOCK, seed=72)
    run(TAUS_SETS["repeated"], cfg)  # first-call caches stay out of the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(TAUS_SETS["repeated"], cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 8 * sizes[-1] + BLOCK * 8 // 2


def test_calling_thread_makes_the_substreams_and_works_blocks_while_the_pool_is_full(monkeypatch):
    # the pool thread holds its blocks until the caller has worked one: an idle caller times out here
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)
    caller, caller_worked = threading.get_ident(), threading.Event()
    makers, waits = set(), []

    def made_here(seed, block):
        makers.add(threading.get_ident())
        return substream(seed, block)

    def integrand(rows, paths, z1, z2):
        if threading.get_ident() == caller:
            caller_worked.set()
        else:
            waits.append(caller_worked.wait(timeout=5))
        return _product_plus_z1(rows, paths, z1, z2)

    monkeypatch.setattr(montecarlo, "substream", made_here)
    cfg = McConfig(samples=6 * BLOCK, seed=70)
    expected = repr(_serial_estimate([1.0], cfg, integrand))
    caller_worked.clear()
    waits.clear()
    assert repr(montecarlo._estimate([1.0], cfg, integrand)) == expected
    assert makers == {caller}
    assert waits and all(waits)


def _block_marker(seed, block):
    """z1 of the first sample of a full block: its first normal, halved."""
    return 0.5 * substream(seed, block).standard_normal()


@pytest.mark.parametrize("workers", [2, 3])
def test_worker_exception_reaches_the_caller(monkeypatch, workers):
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: workers)
    made = []

    def counted(seed, block):
        made.append(block)
        return substream(seed, block)

    monkeypatch.setattr(montecarlo, "substream", counted)
    cfg = McConfig(samples=200 * BLOCK, seed=64)
    before = threading.active_count()
    # the lowest failing block's exception, as a serial loop would raise it
    for failing, message in (((1,), "block 1"), ((2, 1), "block 1"), ((2,), "block 2")):
        markers = {_block_marker(cfg.seed, block): f"block {block}" for block in failing}

        def integrand(rows, paths, z1, z2):
            if z1[0] in markers:
                raise ValueError(markers[z1[0]])
            return _product_plus_z1(rows, paths, z1, z2)

        made.clear()
        with pytest.raises(ValueError, match=message):
            montecarlo._estimate([1.0], cfg, integrand)
        assert threading.active_count() == before
        # hand-out stops soon after a failure; how soon depends on scheduling
        assert len(made) < 100


@pytest.mark.parametrize("workers", [2, 3])
def test_caller_exception_drops_the_queued_blocks_and_joins_the_pool(monkeypatch, workers):
    # substream runs in the caller, outside work: its exception reaches the caller once every
    # pool thread has finished, and neither the failing block nor any later one is worked
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: workers)

    def failing_at_five(seed, block):
        if block == 5:
            raise RuntimeError("no substream for block 5")
        return substream(seed, block)

    cfg = McConfig(samples=10 * BLOCK, seed=66)
    blocks = {_block_marker(cfg.seed, block): block for block in range(10)}
    worked = []

    def integrand(rows, paths, z1, z2):
        worked.append(blocks[z1[0]])
        return _product_plus_z1(rows, paths, z1, z2)

    monkeypatch.setattr(montecarlo, "substream", failing_at_five)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="block 5"):
        montecarlo._estimate([1.0], cfg, integrand)
    assert threading.active_count() == before
    assert all(block < 5 for block in worked)


def test_workers_run_under_the_callers_error_state(monkeypatch):
    # threads start with numpy's default state, which would warn here
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 3)
    cfg = McConfig(samples=6 * BLOCK, seed=65)

    def overflowing(rows, paths, z1, z2):
        np.exp(1e3 + next(paths)[1] ** 2, out=rows[0])
        return 1

    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("error")
        real, _imag = montecarlo._estimate([1.0], cfg, overflowing)
    assert not math.isfinite(real.mean)
