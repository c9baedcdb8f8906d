"""Batch driver: moments, Monte Carlo, Gram diagnostics, and the full suite.

Exit codes: 0 all checks passed, 1 numeric failure or degenerate input,
2 usage error.  All randomness is seeded (default seed 987654321) so reports
are reproducible bit-for-bit; only the wall-clock field varies between runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from fractions import Fraction
from functools import partial

import numpy as np

from . import acceptance, heisenberg as hb, montecarlo as mc, nelson as ne, weyl as wy
from .acceptance import DEFAULT_SEED
from .expr import ExprError, parse_element

SCHEMA_VERSION = "ccrlab.report.v1"

MC_MODES = ("indefinite", "krein", "weyl", "characteristic")
# Most bytes of complex coordinate rows (rows x points x 16) `gram --kind nelson`, `--kind os`
# and `--kind markov` take; real rows hold half that.  Peaks at the bound are in README (about
# 1x: nelson's products hold column blocks of W, os reads only the content (A, B), and markov
# holds its projections as coefficients in its bases).
NELSON_FAMILY_BYTES = 2**27
# Most `mc --taus` takes.  It bounds time, not memory: each sampling worker holds nine
# BLOCK-wide rows whatever the taus, but every sample draws one normal per Brownian gap.
MC_TAUS_LIMIT = 1000


class UsageError(ValueError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Argument errors become one-line usage errors (exit 2) instead of argparse's usage text."""

    def error(self, message):
        raise UsageError(message)


def _float_list(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise UsageError(f"expected a comma-separated number list, got {text!r}") from None
    if not all(math.isfinite(x) for x in values):
        raise UsageError(f"expected finite numbers, got {text!r}")
    return values


def _report(command: str, inputs: dict, results: list[dict], passed: bool, started: float) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "pass": bool(passed),
        "wall_clock_s": time.perf_counter() - started,
    }


def _emit(report: dict, fmt: str, output: str | None):
    if fmt == "json":
        text = json.dumps(report, indent=2, default=str, allow_nan=False)
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["command", "name", "value", "stderr", "target", "tolerance", "provenance", "pass"])

        def emit_row(name, row):
            writer.writerow(
                [
                    report["command"],
                    name,
                    row.get("value", ""),
                    row.get("stderr", ""),
                    row.get("target", ""),
                    row.get("tolerance", ""),
                    row.get("provenance", ""),
                    row.get("pass", ""),
                ]
            )

        for row in report["results"]:
            if "checks" in row:  # suite criteria flatten to one row per check
                for check in row["checks"]:
                    emit_row(f"{row.get('name', '')}/{check.get('name', '')}", check)
            else:
                emit_row(row.get("name", ""), row)
        text = buffer.getvalue().rstrip("\n")
    if output:
        with open(output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


# -- subcommands -----------------------------------------------------------------


def _run_moments(args) -> tuple[dict, bool]:
    started = time.perf_counter()
    try:
        element = parse_element(args.expr)
    except (ExprError, hb.ProductSizeError) as err:
        raise UsageError(str(err)) from None
    try:
        c = Fraction(args.c)
    except ValueError:
        raise UsageError(f"--c must be rational, got {args.c!r}") from None
    except ZeroDivisionError:
        raise UsageError(f"--c has a zero denominator: {args.c!r}") from None
    value = hb.omega(element, hb.CovarianceTable(c))
    try:
        value_float = [float(value.re), float(value.im)]
    except OverflowError:  # past the float range only the exact value is reported
        value_float = None
    try:
        value_text, element_text = str(value), str(element)
    except ValueError:  # str(int) refuses past the interpreter's digit limit
        raise UsageError(
            f"the exact value or a coefficient has more than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's limit for printing an integer"
        ) from None
    results = [
        {
            "name": "omega",
            "value": value_text,
            "value_float": value_float,
            "provenance": "exact-symbolic",
        },
        {"name": "normal_ordered", "value": element_text, "provenance": "exact-symbolic"},
    ]
    return _report("moments", {"expr": args.expr, "c": str(c)}, results, True, started), True


def _run_mc(args) -> tuple[dict, bool]:
    started = time.perf_counter()
    try:
        cfg = mc.McConfig(samples=args.samples, seed=args.seed, step=args.step)
    except ValueError as err:
        raise UsageError(str(err)) from None
    taus = _float_list(args.taus) if args.taus else []
    if len(taus) > MC_TAUS_LIMIT:
        raise UsageError(f"--taus takes at most {MC_TAUS_LIMIT} points, got {len(taus)}")
    if args.mode in ("indefinite", "krein") and len(taus) > mc.PAIR_MOMENT_LIMIT:
        raise UsageError(
            f"mode={args.mode} takes at most {mc.PAIR_MOMENT_LIMIT} --taus points "
            f"(its target sums pair partitions), got {len(taus)}"
        )
    if not taus and args.mode != "characteristic":
        raise UsageError(f"--taus is required for mode={args.mode}")
    inputs = {"mode": args.mode, "taus": taus, "samples": args.samples, "seed": args.seed}

    if args.mode == "indefinite":
        target = partial(mc.wick_moment, taus)
        sample = partial(mc.mc_moment, taus, cfg)
    elif args.mode == "krein":
        if args.alpha is None:
            raise UsageError("mode=krein needs --alpha")
        inputs["alpha"] = args.alpha
        target = partial(mc.krein_pair_moment, taus, args.alpha)
        sample = partial(mc.mc_krein_moment, taus, args.alpha, cfg)
    elif args.mode == "weyl":
        if args.alphas is None:
            raise UsageError("mode=weyl needs --alphas")
        alphas = _float_list(args.alphas)
        inputs["alphas"] = alphas
        target = partial(wy.schwinger_npoint, alphas, taus)
        sample = partial(mc.mc_weyl_schwinger, alphas, taus, cfg)
    else:  # characteristic
        if args.weights is None:
            raise UsageError("mode=characteristic needs --weights")
        weights = _float_list(args.weights)
        inputs["weights"] = weights
        inputs["step"] = args.step
        target = partial(mc.characteristic_target, taus, weights, cfg.step)
        sample = partial(mc.mc_characteristic, taus, weights, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        try:  # the target comes first, so inputs it refuses or an overflowing one are refused before sampling
            analytic = target()
        except OverflowError:
            analytic = math.inf
        except ValueError as err:
            raise UsageError(str(err)) from None
        if not np.isfinite(analytic):
            raise UsageError(f"the analytic target of mode={args.mode} overflows for these inputs")
        estimate = sample()
    if not all(np.isfinite([estimate.mean, estimate.stderr])):
        raise UsageError(f"mode={args.mode} gives a non-finite estimate for these inputs")

    mean = estimate.mean
    passed = estimate.within(analytic, 3.0)
    results = [
        {
            "name": "estimate",
            "value": [mean.real, mean.imag] if isinstance(mean, complex) else mean,
            "stderr": estimate.stderr,
            "samples": estimate.samples,
            "provenance": "mc" if estimate.samples else "analytic",
            "pass": passed,
        },
        {
            "name": "analytic",
            "value": [analytic.real, analytic.imag] if isinstance(analytic, complex) else analytic,
            "provenance": "analytic",
        },
        {"name": "sigma_distance", "value": estimate.sigma_distance(analytic), "provenance": "mc"},
    ]
    return _report("mc", inputs, results, passed, started), passed


def _run_gram(args) -> tuple[dict, bool]:
    started = time.perf_counter()
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    inputs = {"kind": args.kind, "family": args.family, "grid": args.grid, "seed": args.seed}
    try:
        with np.errstate(over="raise", invalid="raise"):
            results = _gram_results(args)
    except FloatingPointError as err:
        raise UsageError(f"the grid or family leaves the float range ({err})") from None
    return _report("gram", inputs, results, True, started), True


def _gram_results(args) -> list[dict]:
    try:
        grid = ne.Grid.parse(args.grid)
        if args.kind == "markov":
            # family carries the per-side point count: probes:N
            kind_name, _, count_text = args.family.partition(":")
            if kind_name != "probes" or not count_text.isdigit():
                raise ValueError(f"kind=markov expects --family probes:N, got {args.family!r}")
            n_per_side = int(count_text)
            _check_row_bytes(args.kind, 2 * (n_per_side + 2) + 15, grid)  # 2 bases, 15 probes
        else:
            _check_row_bytes(args.kind, args.family.partition(":")[2], grid)
            vectors = ne.family(args.family, grid, args.seed)
    except ValueError as err:
        raise UsageError(str(err)) from None
    if args.kind == "markov":
        try:
            diagnostics = ne.markov_diagnostics(grid, n_per_side, seed=args.seed)
        except ne.MarkovSetupError as err:
            raise UsageError(str(err)) from None
        return [
            {"name": name, "value": value, "provenance": "analytic"}
            for name, value in diagnostics.items()
        ]
    if args.kind == "nelson":
        gram = ne.signature_of(vectors)
        n_pos, n_neg, n_zero = gram.signature
        return [
            {"name": "signature", "value": [n_pos, n_neg, n_zero], "provenance": "analytic"},
            {
                "name": "spectrum",
                "value": [float(x) for x in gram.eigenvalues],
                "provenance": "analytic",
            },
        ]
    rank, singular = ne.os_rank(grid, [v.values for v in vectors])
    return [
        {"name": "rank", "value": rank, "provenance": "analytic"},
        {"name": "singular_values", "value": [float(s) for s in singular], "provenance": "analytic"},
    ]


def _check_row_bytes(kind: str, rows: int | str, grid: ne.Grid):
    """Refuse a run over NELSON_FAMILY_BYTES of coordinate rows before any of them is built."""
    try:
        rows = int(rows)
    except ValueError:
        return  # a family spec's malformed count text, which ne.family names
    if rows * grid.n * 16 > NELSON_FAMILY_BYTES:
        raise ValueError(f"kind={kind} takes at most {NELSON_FAMILY_BYTES} bytes of rows, got {rows} x {grid.n} x 16")


def _run_suite(args) -> tuple[dict, bool]:
    started = time.perf_counter()
    if not 0 <= args.seed < 2**64:
        raise UsageError("seed must be in [0, 2**64)")
    try:
        only = [int(x) for x in args.criteria.split(",")] if args.criteria else None
        outcomes = acceptance.run_all(quick=args.quick, seed=args.seed, only=only)
    except ValueError as err:
        raise UsageError(str(err)) from None
    if not args.json:
        for outcome in outcomes:
            print(outcome.line())
    passed = all(o.passed for o in outcomes)
    results = [
        {
            "name": f"criterion_{o.number:02d}",
            "value": o.name,
            "pass": o.passed,
            "seconds": o.seconds,
            "checks": o.checks,
            "provenance": o.provenance,
        }
        for o in outcomes
    ]
    inputs = {"quick": args.quick, "seed": args.seed, "criteria": [o.number for o in outcomes] if only else "all"}
    return _report("suite", inputs, results, passed, started), passed


# -- argument plumbing --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ccrlab",
        description="Exact and sampled verification of the free-evolution CCR ground states.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = _ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--output", default=None, help="write the report to a file")
    common.add_argument("--config", default=None, help="JSON file overriding flags")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)

    moments = sub.add_parser("moments", parents=[common], help="exact state moments")
    moments.add_argument("--expr", required=True, help="expression in the q/p/q'/p' language")
    moments.add_argument("--c", default="0", help="rational value of <q^2>")
    moments.set_defaults(handler=_run_moments)

    monte = sub.add_parser("mc", parents=[common], help="Monte Carlo estimates vs analytic targets")
    monte.add_argument("--mode", required=True, choices=MC_MODES)
    monte.add_argument("--taus", default=None)
    monte.add_argument("--alphas", default=None)
    monte.add_argument("--weights", default=None)
    monte.add_argument("--alpha", type=float, default=None, help="Krein scale")
    monte.add_argument("--samples", type=int, default=100_000)
    monte.add_argument("--step", type=float, default=1.0)
    monte.set_defaults(handler=_run_mc)

    gram = sub.add_parser("gram", parents=[common], help="signature / rank / residual diagnostics")
    gram.add_argument("--kind", required=True, choices=("nelson", "os", "markov"))
    gram.add_argument(
        "--family", required=True, help="meanzero:N | bumps:N | possupport:N | probes:N (markov)"
    )
    gram.add_argument("--grid", required=True, help="start:stop:step")
    gram.set_defaults(handler=_run_gram)

    suite = sub.add_parser("suite", parents=[common], help="run the acceptance matrix")
    suite.add_argument("--quick", action="store_true", help="samples/100, 5-sigma gates")
    suite.add_argument("--json", action="store_true", help="suppress per-criterion lines")
    suite.add_argument("--criteria", default=None, help="comma-separated criterion numbers")
    suite.set_defaults(handler=_run_suite)
    return parser


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser):
    if not args.config:
        return
    try:
        with open(args.config) as handle:
            overrides = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        raise UsageError(f"cannot read config file: {err}") from None
    if not isinstance(overrides, dict):
        raise UsageError("config file must hold a JSON object")
    actions = {a.dest: a for a in _subcommands(parser)[args.subcommand]._actions}
    for key, value in overrides.items():
        action = actions.get(key)
        if action is None or key in ("help", "config"):
            raise UsageError(f"unknown config key {key!r}")
        kinds = (bool,) if action.nargs == 0 else _CONFIG_TYPES[action.type]
        if type(value) not in kinds or (action.choices is not None and value not in action.choices):
            raise UsageError(f"config key {key!r} has invalid value {value!r}")
        setattr(args, key, value)


# JSON types a config value may take, by the type its flag parses; flags
# without a value (nargs 0, store_true) take a JSON boolean.
_CONFIG_TYPES = {int: (int,), float: (int, float), None: (str,)}


def _merge_leading_dash_values(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Let every flag that takes one value take arguments like -5:5:0.2 or -inf without = syntax.

    A flag followed by another flag is left alone, so argparse reports the missing value.
    """
    actions = [action for subparser in _subcommands(parser).values() for action in subparser._actions]
    flags = {flag for action in actions for flag in action.option_strings}
    value_flags = {flag for action in actions if action.nargs is None for flag in action.option_strings}
    merged = []
    for arg in argv:
        if merged and merged[-1] in value_flags and arg.startswith("-") and arg not in flags:
            merged[-1] = f"{merged[-1]}={arg}"
        else:
            merged.append(arg)
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_leading_dash_values(list(argv), parser)
    try:
        args = parser.parse_args(argv)
        _apply_config(args, parser)
        report, passed = args.handler(args)
        _emit(report, args.format, args.output)
    except SystemExit:  # only --help exits, after printing its text
        return 0
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
