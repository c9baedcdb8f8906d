"""The four benchmark workloads: seeded inputs, operations and their gates.

Each workload function turns a seed into a list of operations; making the
list is set-up, running the operations is the timed part.  Each operation
calls the program through the public functions of its modules, looked up at
call time so that traced passes see the wrappers, and its gate compares the
output with a target reached another way: a closed form, a second route
through the program, or the analytic oracle of a Monte Carlo estimate.

``tiny`` shrinks every size so the self-test can run each workload in about
a second; the timed runs always use the full sizes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from ccrlab import acceptance, cli, heisenberg as hb, montecarlo as mc, nelson as ne, weyl as wy

MC_SIGMA_GATE = 5.0


@dataclass
class Op:
    """One timed call into the program with its own correctness gate.

    ``check`` returns the names of the failed checks (empty when the output
    is correct); ``n_checks`` is how many checks the gate makes.  ``digest``
    maps the output to JSON data that must be bit-identical for a seed.
    ``group`` and ``samples`` feed the Monte Carlo throughput and latency
    figures.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    digest: Callable[[object], object]
    n_checks: int = 1
    group: str = ""
    samples: int = 0
    extra: Callable[[object], dict[str, float]] | None = None


def _gate(**checks: bool) -> list[str]:
    return [name for name, ok in checks.items() if not ok]


# -- suite --------------------------------------------------------------------------


def suite(seed: int, tiny: bool, work_dir: str) -> list[Op]:
    """``ccrlab suite`` in standard mode (``--quick`` when tiny), in-process."""
    path = os.path.join(work_dir, "suite.json")
    argv = ["suite", "--seed", str(seed), "--output", path] + (["--quick"] if tiny else [])

    def call():
        status = cli.main(argv)
        with open(path) as handle:
            return status, json.load(handle)

    def check(out):
        status, report = out
        failed = [row["name"] for row in report["results"] if not row["pass"]]
        return failed + ([] if status == 0 else ["exit status"])

    def digest(out):
        status, report = out
        return [status, [{k: v for k, v in row.items() if k != "seconds"} for row in report["results"]]]

    def extra(out):
        return {f"acceptance.{row['name']}.s": row["seconds"] for row in out[1]["results"]}

    return [Op("suite", call, check, digest, n_checks=len(acceptance.CRITERIA) + 1, extra=extra)]


# -- exact ----------------------------------------------------------------------------

_HALF = Fraction(1, 2)
# Ordered two-point values <g h> of the Gaussian state at c = 0 as (re, im),
# rows and columns in the order q, p, q', p'.
_COVARIANCE = (
    ((0, 0), (0, _HALF), (0, 0), (_HALF, 0)),
    ((0, -_HALF), (0, 0), (_HALF, 0), (0, 0)),
    ((0, 0), (_HALF, 0), (0, 0), (0, -_HALF)),
    ((_HALF, 0), (0, 0), (0, _HALF), (0, 0)),
)
_SYMBOLS = ("q", "p", "q'", "p'")


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _linear_power_moment(coeffs, power: int) -> tuple[Fraction, Fraction]:
    """<L^power> for L = sum_g c_g g: every pairing of a Gaussian state gives <L L>.

    So the moment is (power - 1)!! <L L>^(power/2) for even powers and 0 for
    odd ones.
    """
    if power % 2:
        return Fraction(0), Fraction(0)
    pair = (Fraction(0), Fraction(0))
    for g, cg in enumerate(coeffs):
        for h, ch in enumerate(coeffs):
            term = _cmul(_cmul(cg, ch), _COVARIANCE[g][h])
            pair = (pair[0] + term[0], pair[1] + term[1])
    value = (Fraction(math.prod(range(power - 1, 0, -2))), Fraction(0))
    for _ in range(power // 2):
        value = _cmul(value, pair)
    return value


def _linear_form_text(coeffs) -> str:
    parts = []
    for (re, im), symbol in zip(coeffs, _SYMBOLS):
        size = abs(re or im)
        factor = ("" if size == 1 else f"{size} ") + ("i " if im else "")
        parts.append(("- " if (re or im) < 0 else "+ ") + factor + symbol)
    return " ".join(parts).removeprefix("+ ")


def _moment_matrix_det(max_degree: int) -> Fraction:
    """Closed-form determinant of the moment matrix of q^j p^k, j + k <= max_degree.

    Entry ((j,k), (a,b)) is <p^k q^(j+a) p^b> = n! (-i/2)^k (i/2)^b when
    n = j + a = k + b, and 0 otherwise.  The phases split off as diagonal
    factors diag((-i)^k) on the left and diag(i^b) on the right whose
    determinants multiply to 1, so the determinant equals that of the real
    matrix n!/2^n, taken here by exact elimination.
    """
    keys = [(j, d - j) for d in range(max_degree + 1) for j in range(d, -1, -1)]
    rows = [
        [Fraction(math.factorial(j + a), 2 ** (j + a)) if j + a == k + b else Fraction(0) for a, b in keys]
        for j, k in keys
    ]
    det = Fraction(1)
    size = len(rows)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] / rows[col][col]
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


def exact(seed: int, tiny: bool, work_dir: str) -> list[Op]:
    """Random words by two routes, the degree-6 moment matrix, and CLI moments."""
    rng = np.random.default_rng(seed)
    table = hb.CovarianceTable()
    ops = []
    for length, count in ((6, 10), (8, 5)) if tiny else ((12, 100), (14, 40), (16, 20)):
        for index in range(count):
            word = [hb.Generator(int(g)) for g in rng.integers(0, 4, length)]

            def call(word=word):
                return hb.wick_value(word, table), hb.omega(hb.normal_order(word), table)

            ops.append(
                Op(
                    f"word{length}[{index}]",
                    call,
                    lambda out: _gate(dual_route=out[0] == out[1]),
                    lambda out: str(out[0]),
                )
            )

    degree = 3 if tiny else 6

    def check_matrix(gram):
        det = gram.det_exact
        return _gate(closed_form_det=det.re == _moment_matrix_det(degree) and det.im == 0)

    ops.append(
        Op(
            f"moment_matrix({degree})",
            lambda: hb.moment_matrix(degree, table),
            check_matrix,
            lambda gram: [str(gram.det_exact), list(gram.signature)],
        )
    )

    path = os.path.join(work_dir, "moments.json")
    power = 4 if tiny else 8
    for index in range(3):
        coeffs = []
        for _ in _SYMBOLS:
            size = int(rng.choice((-2, -1, 1, 2)))
            coeffs.append((0, size) if rng.random() < 0.5 else (size, 0))
        text = f"({_linear_form_text(coeffs)})^{power}"
        target = [float(x) for x in _linear_power_moment(coeffs, power)]

        def call(text=text):
            status = cli.main(["moments", "--expr", text, "--output", path])
            with open(path) as handle:
                return status, json.load(handle)["results"][0]

        def check(out, target=target):
            status, omega = out
            return _gate(exit_status=status == 0, closed_form=omega["value_float"] == target)

        ops.append(Op(f"moments[{text}]", call, check, lambda out: out[1]["value"]))
    return ops


# -- mc -------------------------------------------------------------------------------


def _mc_op(name: str, run, target, group: str, samples: int) -> Op:
    """An estimate timed alone; its analytic oracle runs in the gate."""

    def check(estimate):
        miss = abs(estimate.mean - target())
        ok = miss <= MC_SIGMA_GATE * estimate.stderr if estimate.stderr > 0 else miss == 0
        return _gate(within_5_sigma=bool(ok))

    def digest(estimate):
        mean = complex(estimate.mean)
        return [mean.real, mean.imag, estimate.stderr, estimate.samples]

    return Op(name, run, check, digest, group=group, samples=samples)


def montecarlo(seed: int, tiny: bool, work_dir: str) -> list[Op]:
    """Bulk estimates in all four modes, then a burst of small calls."""
    rng = np.random.default_rng(seed)
    bulk, small, burst = (10_000, 1_000, 20) if tiny else (1_000_000, 10_000, 200)
    quarter_grid = np.arange(-8, 9) / 4.0

    def taus(count):
        return [float(t) for t in rng.choice(quarter_grid, count)]

    def neutral_labels(count):
        half = rng.integers(1, 9, count // 2) / 4.0
        return [float(a) for a in rng.permutation(np.concatenate((half, -half)))]

    def make(mode, count, samples, cfg_seed, group):
        cfg = mc.McConfig(samples=samples, seed=cfg_seed, step=0.2)
        name = f"{group}:{mode}{count}"
        if mode == "indefinite":
            t = taus(count)
            return _mc_op(name, lambda: mc.mc_moment(t, cfg), lambda: mc.wick_moment(t), group, samples)
        if mode == "krein":
            t, alpha = taus(count), float(rng.uniform(0.5, 2.0))
            return _mc_op(
                name,
                lambda: mc.mc_krein_moment(t, alpha, cfg),
                lambda: mc.krein_pair_moment(t, alpha),
                group,
                samples,
            )
        if mode == "weyl":
            labels, t = neutral_labels(count), taus(count)
            return _mc_op(
                name,
                lambda: mc.mc_weyl_schwinger(labels, t, cfg),
                lambda: wy.schwinger_npoint(labels, t),
                group,
                samples,
            )
        t = [float(x) for x in np.linspace(-2.0, 2.0, count)]
        weights = [float(w) for w in 0.3 * rng.standard_normal(count)]
        return _mc_op(
            name,
            lambda: mc.mc_characteristic(t, weights, cfg),
            lambda: mc.characteristic_target(t, weights, cfg.step),
            group,
            samples,
        )

    plan = [("indefinite", 2), ("indefinite", 4), ("indefinite", 8), ("krein", 2), ("krein", 4)]
    plan += [("weyl", 2), ("weyl", 4), ("characteristic", 21)]
    ops = [make(mode, count, bulk, seed + index, "bulk") for index, (mode, count) in enumerate(plan)]
    modes = ("indefinite", "krein", "weyl", "characteristic")
    ops += [make(modes[i % 4], 2, small, seed + 100 + i, "burst") for i in range(burst)]
    return ops


# -- nelson ---------------------------------------------------------------------------


def nelson(seed: int, tiny: bool, work_dir: str) -> list[Op]:
    """Markov diagnostics, OS rank, signatures and Krein checks on fine grids."""
    rng = np.random.default_rng(seed)

    def seed_draw():
        return int(rng.integers(2**31))

    ops = []
    for spec, per_side in (("-2:2:0.2", 4), ("-2:2:0.1", 6)) if tiny else (("-5:5:0.1", 40), ("-5:5:0.05", 50)):
        grid, probe_seed = ne.Grid.parse(spec), seed_draw()
        ops.append(
            Op(
                f"markov_diagnostics[{grid.n}]",
                lambda grid=grid, per_side=per_side, probe_seed=probe_seed: ne.markov_diagnostics(
                    grid, per_side, seed=probe_seed
                ),
                lambda d: _gate(
                    markov=d["markov_residual"] <= 1e-6,
                    idempotence=d["idempotence_residual"] <= 1e-8,
                    fixed_pair=d["v_fixed_residual"] <= 1e-8,
                ),
                lambda d: d,
            )
        )

    rank_grid = ne.Grid.parse("0:5:0.1" if tiny else "0:5:0.01")
    positive = [v.values for v in ne.family("possupport:10", rank_grid, seed_draw())]
    ops.append(
        Op(
            f"os_rank[{rank_grid.n}]",
            lambda: ne.os_rank(rank_grid, positive),
            lambda out: _gate(rank_two=out[0] == 2),
            lambda out: [out[0], [float(s) for s in out[1]]],
        )
    )

    sig_grid = ne.Grid.parse("-2:2:0.1" if tiny else "-10:10:0.01")
    mean_zero = ne.family(f"meanzero:{20 if tiny else ne.FAMILY_LIMIT}", sig_grid, seed_draw())
    with_bump = mean_zero[:-1] + ne.family("bumps:1", sig_grid, seed_draw())
    for label, vectors, negatives in (("meanzero", mean_zero, 0), ("one-bump", with_bump, 1)):
        ops.append(
            Op(
                f"signature_of[{label}]",
                lambda vectors=vectors: ne.signature_of(vectors),
                lambda gram, negatives=negatives: _gate(n_minus=gram.signature[1] == negatives),
                lambda gram: [list(gram.signature), [float(x) for x in gram.eigenvalues]],
            )
        )

    krein_grid = ne.Grid.parse("-2:2:0.1" if tiny else "-5:5:0.01")
    for index in range(10 if tiny else 100):
        vec = ne.ExtendedVector(
            krein_grid,
            rng.standard_normal(krein_grid.n),
            a=complex(*rng.standard_normal(2)),
            b=complex(*rng.standard_normal(2)),
        )
        vec = vec * (1.0 / float(np.abs(vec.coords()).max()))
        alpha = float(rng.uniform(0.4, 2.5))

        def call(vec=vec, alpha=alpha):
            back = ne.krein_metric_apply(ne.krein_metric_apply(vec, alpha), alpha)
            involution = float(np.abs((back - vec).coords()).max())
            return involution, ne.krein_inner(vec, vec, alpha).real

        ops.append(
            Op(
                f"krein[{index}]",
                call,
                lambda out: _gate(involution=out[0] <= 1e-10, positivity=out[1] >= -1e-10),
                lambda out: list(out),
            )
        )
    return ops


WORKLOADS = {"suite": suite, "exact": exact, "mc": montecarlo, "nelson": nelson}
