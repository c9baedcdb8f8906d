"""CLI contract: subcommands, report schema, exit codes, determinism."""

import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ccrlab import acceptance, cli, heisenberg, nelson
from ccrlab.acceptance import CriterionResult
from ccrlab.cli import main

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden" / "mc_report_keys.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_line_usage_error(capsys, *argv) -> str:
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("usage error:") and err.count("\n") == 1, err
    return err


def last_json(stdout: str) -> dict:
    start = stdout.index("{")
    return json.loads(stdout[start:])


# -- moments ---------------------------------------------------------------------


def test_moments_qpqp(capsys):
    code, out, _ = run_cli(capsys, "moments", "--expr", "q p q p", "--c", "0")
    assert code == 0
    report = last_json(out)
    omega_row = report["results"][0]
    assert omega_row["value"] == "0"
    assert omega_row["provenance"] == "exact-symbolic"


def test_moments_qp_value(capsys):
    code, out, _ = run_cli(capsys, "moments", "--expr", "q p")
    assert code == 0
    assert last_json(out)["results"][0]["value"] == "1/2 i"


def test_moments_with_c(capsys):
    code, out, _ = run_cli(capsys, "moments", "--expr", "q q", "--c", "1")
    assert code == 0
    assert last_json(out)["results"][0]["value"] == "1"
    # a value with a leading dash, which argparse takes for a flag unless it is merged as --c=-1/2
    code, out, _ = run_cli(capsys, "moments", "--expr", "q^2", "--c", "-1/2")
    assert code == 0
    assert last_json(out)["results"][0]["value"] == "-1/2"


def test_moments_parse_error_is_usage(capsys):
    code, _, err = run_cli(capsys, "moments", "--expr", "q x")
    assert code == 2
    assert "position" in err


def test_moments_high_degree_is_exact(capsys):
    code, out, _ = run_cli(capsys, "moments", "--expr", "q^2000", "--c", "1")
    assert code == 0
    row = last_json(out)["results"][0]
    assert int(row["value"]) == math.prod(range(1, 2000, 2))  # 1999!!
    assert row["value_float"] is None  # past the float range


def test_moments_past_the_digit_limit_is_usage_error(capsys):
    err = one_line_usage_error(capsys, "moments", "--expr", "q^3000", "--c", "1")  # 2999!! has 4455 digits
    assert str(sys.get_int_max_str_digits()) in err


def test_moments_deep_mixed_key_reaches_the_digit_limit_quickly(capsys):
    # the closed-form sum has 2001 terms of over 4300 digits; each steps from the last by small ints
    err = one_line_usage_error(capsys, "moments", "--expr", "q^4000 p^2000 q'^4000 p'^2000", "--c", "1")
    assert str(sys.get_int_max_str_digits()) in err


def test_moments_coefficient_past_the_digit_limit_is_usage_error(capsys):
    # omega(q) = 0 prints, but the normal form's coefficient 10^4400 has 4401 digits
    err = one_line_usage_error(capsys, "moments", "--expr", "10^4400 q")
    assert str(sys.get_int_max_str_digits()) in err


def test_moments_past_the_term_limit_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(heisenberg, "TERM_LIMIT", 10)
    code, out, _ = run_cli(capsys, "moments", "--expr", "q^10", "--c", "1")
    assert code == 0 and last_json(out)["results"][0]["value"] == "945"  # 9!!
    for expr in ("q^12", "q " * 12, "(q + p + q' + p') (q + p + q' + p')"):
        assert "more than 10 terms" in one_line_usage_error(capsys, "moments", "--expr", expr)


def test_moments_huge_power_is_usage_error(capsys):
    for expr in ("q^99999999999999999999", "q^10000000", "(q p)^5001"):
        assert "power above degree" in one_line_usage_error(capsys, "moments", "--expr", expr)


def test_moments_zero_denominator_is_usage_error(capsys):
    one_line_usage_error(capsys, "moments", "--expr", "1/0")
    one_line_usage_error(capsys, "moments", "--expr", "q", "--c", "1/0")


def test_moments_deep_nesting_is_usage_error(capsys):
    one_line_usage_error(capsys, "moments", "--expr", "(" * 1200 + "q" + ")" * 1200)
    one_line_usage_error(capsys, "moments", "--expr=" + "-" * 1200 + "q")


# -- mc -------------------------------------------------------------------------------


def test_mc_indefinite_report(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--mode", "indefinite", "--taus", "1,-1", "--samples", "100000", "--seed", "42"
    )
    assert code == 0
    report = last_json(out)
    assert report["schema"] == GOLDEN["schema"]
    assert sorted(report) == GOLDEN["top_level"]
    estimate = report["results"][0]
    assert sorted(estimate) == GOLDEN["estimate_entry"]
    analytic = report["results"][1]
    assert analytic["value"] == -1.0
    assert abs(estimate["value"] + 1.0) <= 3 * estimate["stderr"]


def test_mc_weyl_and_exact_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        "mc", "--mode", "weyl", "--alphas", "1,-1", "--taus", "0,1",
        "--samples", "100000", "--seed", "11",
    )
    assert code == 0
    report = last_json(out)
    assert report["results"][1]["value"] == pytest.approx(math.exp(-0.5))
    code, out, _ = run_cli(
        capsys, "mc", "--mode", "weyl", "--alphas", "1,1", "--taus", "0,1", "--samples", "10"
    )
    assert code == 0
    report = last_json(out)
    assert report["results"][0]["value"] == 0.0
    assert report["results"][0]["provenance"] == "analytic"


def test_mc_krein(capsys):
    code, out, _ = run_cli(
        capsys,
        "mc", "--mode", "krein", "--taus", "1,1", "--alpha", "1",
        "--samples", "100000", "--seed", "5",
    )
    assert code == 0
    report = last_json(out)
    assert report["results"][1]["value"] == pytest.approx(2.0)
    assert report["pass"] is True


def test_mc_deterministic_numerics(capsys):
    argv = ["mc", "--mode", "indefinite", "--taus", "1,-1", "--samples", "50000", "--seed", "7"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    r1, r2 = last_json(out1), last_json(out2)
    r1.pop("wall_clock_s"), r2.pop("wall_clock_s")
    assert r1 == r2


def test_mc_tiny_spread_keeps_its_stderr(capsys):
    # Tiny alphas give values that differ from 1 by ~1e-14, tens of ulps: the
    # stderr must resolve that spread, not cancel to 0 against the mean.
    code, out, err = run_cli(
        capsys, "mc", "--mode", "weyl", "--taus", "0,1", "--alphas", "1e-7,-1e-7", "--samples", "1000"
    )
    assert code == 0 and err == ""
    estimate, _analytic, distance = last_json(out)["results"]
    assert estimate["stderr"] > 0.0
    assert math.isfinite(distance["value"]) and distance["value"] <= 3.0


def test_mc_zero_stderr_miss_is_a_gate_failure(capsys, monkeypatch):
    # an estimate with stderr 0 that misses its target (exp(-1/2)) is a valid, failing report
    miss = cli.mc.McEstimate(mean=0.5, stderr=0.0, samples=1000)
    monkeypatch.setattr(cli.mc, "mc_weyl_schwinger", lambda alphas, taus, cfg: miss)
    code, out, err = run_cli(
        capsys, "mc", "--mode", "weyl", "--taus", "0,1", "--alphas", "1,-1", "--samples", "1000"
    )
    assert code == 1 and err == ""
    report = last_json(out)
    estimate, analytic, distance = report["results"]
    assert estimate["stderr"] == 0.0 and estimate["value"] != analytic["value"]
    assert distance["value"] is None
    assert estimate["pass"] is False and report["pass"] is False


def test_mc_usage_errors(capsys):
    assert run_cli(capsys, "mc", "--mode", "bogus", "--taus", "1")[0] == 2
    assert run_cli(capsys, "mc", "--mode", "indefinite", "--taus", "1,-1", "--c", "1")[0] == 2
    assert run_cli(capsys, "mc", "--mode", "krein", "--taus", "1")[0] == 2
    assert run_cli(capsys, "mc", "--mode", "weyl", "--alphas", "1,-1", "--taus", "1")[0] == 2
    assert run_cli(capsys, "mc", "--mode", "indefinite", "--taus", "x,y")[0] == 2
    assert run_cli(capsys, "mc", "--mode", "indefinite", "--taus", "1,-1", "--samples", "0")[0] == 2
    one_line_usage_error(capsys, "mc", "--mode", "indefinite", "--taus", "nan,1")
    one_line_usage_error(capsys, "mc", "--mode", "krein", "--taus", "inf,1", "--alpha", "1")
    one_line_usage_error(capsys, "mc", "--mode", "krein", "--taus", "1,1", "--alpha", "nan")
    for alpha in ("-inf", "-1e3"):  # argparse takes neither for a negative number
        err = one_line_usage_error(capsys, "mc", "--mode", "krein", "--taus", "0,0", "--alpha", alpha)
        assert "alpha must be positive and finite" in err
    one_line_usage_error(capsys, "mc", "--mode", "weyl", "--alphas", "1,-inf", "--taus", "0,1")
    one_line_usage_error(capsys, "mc", "--mode", "characteristic", "--taus", "0,1", "--weights", "1,nan")
    one_line_usage_error(
        capsys, "mc", "--mode", "characteristic", "--taus", "0,1", "--weights", "1,1", "--step", "1e10"
    )
    one_line_usage_error(
        capsys, "mc", "--mode", "characteristic", "--taus", "0,1", "--weights", "1,1", "--step", "inf"
    )
    one_line_usage_error(capsys, "mc", "--mode", "indefinite", "--taus", "1,-1", "--seed", "-1")
    one_line_usage_error(capsys, "mc", "--mode", "indefinite", "--taus", "1,-1", "--seed", str(2**64))
    err = one_line_usage_error(capsys, "mc", "--mode", "indefinite", "--taus", "1,-1", "--samples", "1")
    assert "the standard error needs two samples" in err


def test_mc_weyl_refuses_empty_taus_before_the_target(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a target or sampled for empty --taus")

    monkeypatch.setattr(cli.wy, "schwinger_npoint", refuse)
    monkeypatch.setattr(cli.mc, "mc_weyl_schwinger", refuse)
    err = one_line_usage_error(capsys, "mc", "--mode", "weyl", "--taus=", "--alphas=")
    assert "--taus is required for mode=weyl" in err


def test_mc_non_finite_estimate_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(cli.mc, "_cpu_count", lambda: 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for samples in ("100", "40000"):  # one block, and three on worker threads
            one_line_usage_error(
                capsys, "mc", "--mode", "indefinite", "--taus", "1e300,1e300,1e300,1e300",
                "--samples", samples,
            )

        # a non-finite target is refused before any sampling; pytest's capture keeps a
        # numpy RuntimeWarning out of capsys, so only an error here shows one
        def refuse(*args, **kwargs):
            raise AssertionError("sampled for a non-finite target")

        monkeypatch.setattr(cli.mc, "_estimate", refuse)
        err = one_line_usage_error(capsys, "mc", "--mode", "characteristic", "--taus", "0,1", "--weights", "1e200,1e200")
    assert "analytic target of mode=characteristic overflows" in err


@pytest.mark.parametrize(
    "mode_args",
    [["indefinite"], ["krein", "--alpha", "1"], ["weyl", "--alphas"], ["characteristic", "--weights"]],
    ids=lambda args: args[0],
)
def test_mc_refuses_too_many_taus_before_sampling(capsys, monkeypatch, mode_args):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled or built a target past the taus limit")

    for name in ("_estimate", "wick_moment", "krein_pair_moment", "characteristic_target"):
        monkeypatch.setattr(cli.mc, name, refuse)
    monkeypatch.setattr(cli.wy, "schwinger_npoint", refuse)
    points = ",".join(["0"] * (cli.MC_TAUS_LIMIT + 1))
    argv = ["mc", "--mode", mode_args[0], "--taus", points, *mode_args[1:]]
    if argv[-1].startswith("--"):
        argv.append(points)
    err = one_line_usage_error(capsys, *argv)
    assert f"at most {cli.MC_TAUS_LIMIT} points" in err


@pytest.mark.parametrize("mode_args", [["indefinite"], ["krein", "--alpha", "1"]], ids=lambda args: args[0])
def test_mc_refuses_taus_past_the_pair_moment_limit_before_sampling(capsys, monkeypatch, mode_args):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled or built a target past the pair-moment limit")

    with monkeypatch.context() as patch:
        for name in ("_estimate", "wick_moment", "krein_pair_moment"):
            patch.setattr(cli.mc, name, refuse)
        points = ",".join(["0.5"] * (cli.mc.PAIR_MOMENT_LIMIT + 2))
        err = one_line_usage_error(capsys, "mc", "--mode", mode_args[0], "--taus", points, *mode_args[1:])
    assert f"at most {cli.mc.PAIR_MOMENT_LIMIT} --taus points" in err
    # the limit itself still samples
    points = ",".join(["0.5", "-0.5"] * (cli.mc.PAIR_MOMENT_LIMIT // 2))
    code, out, _ = run_cli(capsys, "mc", "--mode", mode_args[0], "--taus", points, *mode_args[1:], "--samples", "100")
    assert code in (0, 1) and last_json(out)["results"][0]["samples"] == 100


def test_non_finite_report_value_is_an_error(capsys, monkeypatch):
    def handler(args):
        return cli._report("mc", {}, [{"name": "estimate", "value": math.inf}], True, 0.0), True

    monkeypatch.setattr(cli, "_run_mc", handler)
    code, out, err = run_cli(capsys, "mc", "--mode", "indefinite", "--taus", "1,-1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_mc_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "mc", "--mode", "indefinite", "--taus", "1,-1", "--samples", "20000",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("command,name,value")
    assert any(line.startswith("mc,estimate") for line in lines)


# -- gram ----------------------------------------------------------------------------------


def test_gram_nelson_meanzero(capsys):
    code, out, _ = run_cli(
        capsys, "gram", "--kind", "nelson", "--family", "meanzero:20", "--grid", "-5:5:0.1"
    )
    assert code == 0
    signature = last_json(out)["results"][0]["value"]
    assert signature[1] == 0


def test_gram_nelson_single_bump(capsys):
    code, out, _ = run_cli(
        capsys, "gram", "--kind", "nelson", "--family", "bumps:1", "--grid", "-5:5:0.1"
    )
    assert code == 0
    assert last_json(out)["results"][0]["value"][1] == 1


@pytest.mark.parametrize("family", ["meanzero:0", "bumps:0"])
def test_gram_nelson_empty_family(capsys, family):
    code, out, err = run_cli(capsys, "gram", "--kind", "nelson", "--family", family, "--grid", "-1:1:0.5")
    assert (code, err) == (0, "")
    results = {row["name"]: row["value"] for row in last_json(out)["results"]}
    assert results == {"signature": [0, 0, 0], "spectrum": []}


def test_gram_os_rank_two(capsys):
    code, out, _ = run_cli(
        capsys, "gram", "--kind", "os", "--family", "possupport:10", "--grid", "0:5:0.1"
    )
    assert code == 0
    assert last_json(out)["results"][0]["value"] == 2


def test_gram_markov_residuals(capsys):
    code, out, _ = run_cli(
        capsys, "gram", "--kind", "markov", "--family", "probes:25", "--grid", "-5:5:0.2"
    )
    assert code == 0
    results = {row["name"]: row["value"] for row in last_json(out)["results"]}
    assert results["markov_residual"] < 1e-6
    assert results["idempotence_residual"] < 1e-8
    code, _, _ = run_cli(
        capsys, "gram", "--kind", "markov", "--family", "bumps:3", "--grid", "-5:5:0.2"
    )
    assert code == 2


@pytest.mark.parametrize(
    "family, grid, message",
    [
        ("probes:1", "-1:1:0.5", "at least two points per side"),
        ("probes:2", "0:1:0.5", "symmetric grid containing 0"),
        ("probes:2", "-1:2:0.5", "symmetric grid containing 0"),
        ("probes:500", "-1:1:0.001", "family size limited to 200"),
    ],
)
def test_gram_markov_bad_arguments_are_usage_errors(capsys, family, grid, message):
    err = one_line_usage_error(capsys, "gram", "--kind", "markov", "--family", family, "--grid", grid)
    assert message in err


def test_gram_markov_degenerate_projection_exits_one(capsys):
    # near 0 the point masses are nearly d0: cond 8.6e8 with or without equilibration
    code, out, err = run_cli(
        capsys, "gram", "--kind", "markov", "--family", "probes:50", "--grid", "-1e-6:1e-6:1e-8"
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: projection Gram is degenerate") and err.count("\n") == 1


@pytest.mark.parametrize(
    "failure",
    [np.linalg.LinAlgError("SVD did not converge"), nelson.GridMismatchError("vectors live on different grids")],
)
def test_gram_markov_numeric_failures_exit_one(capsys, monkeypatch, failure):
    def fail(*args, **kwargs):
        raise failure

    monkeypatch.setattr(nelson, "markov_diagnostics", fail)
    code, out, err = run_cli(
        capsys, "gram", "--kind", "markov", "--family", "probes:2", "--grid", "-1:1:0.5"
    )
    assert (code, out) == (1, "")
    assert err == f"error: {failure}\n"


def test_suite_csv_flattens_checks(capsys):
    code, out, _ = run_cli(
        capsys, "suite", "--quick", "--criteria", "13", "--json", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert any("criterion_13/" in line for line in lines[1:])


def test_gram_usage_errors(capsys):
    assert run_cli(capsys, "gram", "--kind", "bogus", "--family", "bumps:1", "--grid", "-1:1:0.5")[0] == 2
    assert run_cli(capsys, "gram", "--kind", "nelson", "--family", "bumps:1", "--grid", "-1:1:0.3")[0] == 2
    assert run_cli(capsys, "gram", "--kind", "nelson", "--family", "nope:1", "--grid", "-1:1:0.5")[0] == 2
    for kind, spec in (("nelson", "bumps:1"), ("os", "possupport:1"), ("markov", "probes:3")):
        one_line_usage_error(capsys, "gram", "--kind", kind, "--family", spec, "--grid", "-1:1:0.5", "--seed", "-1")


@pytest.mark.parametrize("kind, spec, grid", [("nelson", "meanzero:201", "-1:1:0.5"), ("os", "possupport:201", "0:1:0.5")])
def test_gram_family_limit_is_usage_error(capsys, monkeypatch, kind, spec, grid):
    def unbuilt(*args, **kwargs):
        raise AssertionError("the family was built")

    monkeypatch.setattr(nelson, "ExtendedVector", unbuilt)
    err = one_line_usage_error(capsys, "gram", "--kind", kind, "--family", spec, "--grid", grid)
    assert "family size limited to 200" in err


# a kind, a family of 20 and a grid of 101 points it takes, and what that family reports
BUDGET_RUNS = {
    "nelson": ("meanzero:20", "-5:5:0.1", [20, 0, 0]),
    "os": ("possupport:20", "0:10:0.1", 2),
}


@pytest.mark.parametrize("kind", BUDGET_RUNS)
def test_gram_refuses_a_family_over_the_byte_budget_before_building_it(capsys, monkeypatch, kind):
    # 20 vectors x 101 points x 16 bytes
    spec, grid, value = BUDGET_RUNS[kind]
    monkeypatch.setattr(cli, "NELSON_FAMILY_BYTES", 20 * 101 * 16)
    code, out, _ = run_cli(capsys, "gram", "--kind", kind, "--family", spec, "--grid", grid)
    assert code == 0 and json.loads(out)["results"][0]["value"] == value

    def unbuilt(*args, **kwargs):
        raise AssertionError("the family was built")

    monkeypatch.setattr(cli, "NELSON_FAMILY_BYTES", 20 * 101 * 16 - 1)
    monkeypatch.setattr(nelson, "ExtendedVector", unbuilt)
    for spec in ("meanzero:20", "bumps:+20", "possupport: 21"):
        err = one_line_usage_error(capsys, "gram", "--kind", kind, "--family", spec, "--grid", grid)
        assert f"kind={kind}" in err and "bytes" in err and "x 101" in err
    # the spec's own errors still name the spec
    assert "not of the form" in one_line_usage_error(capsys, "gram", "--kind", kind, "--family", "meanzero:x", "--grid", grid)


def test_gram_markov_refuses_rows_over_the_byte_budget_before_building_a_basis(capsys, monkeypatch):
    # probes:2 on -1:1:0.5 holds 2 x (2 + 2) basis rows and 15 probes of 5 points: 23 rows
    monkeypatch.setattr(cli, "NELSON_FAMILY_BYTES", 23 * 5 * 16)
    code, _, _ = run_cli(capsys, "gram", "--kind", "markov", "--family", "probes:2", "--grid", "-1:1:0.5")
    assert code == 0

    def unbuilt(*args, **kwargs):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(cli, "NELSON_FAMILY_BYTES", 23 * 5 * 16 - 1)
    monkeypatch.setattr(nelson, "ExtendedVector", unbuilt)
    err = one_line_usage_error(capsys, "gram", "--kind", "markov", "--family", "probes:2", "--grid", "-1:1:0.5")
    assert "kind=markov" in err and "bytes" in err and "23 x 5" in err


PEAK_SCRIPT = """
import os, resource, sys
from ccrlab.cli import main
code = main(sys.argv[1:] + ["--output", os.devnull])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)
"""


def peak_bytes(*argv: str) -> int:
    """Peak RSS, in bytes, of `ccrlab ARGV` run in a fresh interpreter."""
    src = str(pathlib.Path(nelson.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", PEAK_SCRIPT, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    code, peak = child.stdout.split()
    assert code == "0"
    return int(peak)


@pytest.mark.parametrize("kind", [*BUDGET_RUNS, "markov"])
def test_gram_at_the_byte_budget_holds_about_the_family(kind):
    # 20 vectors on the most points the budget lets them take.  From the code, over the
    # interpreter's base (the same run on a 5-point grid) the run holds the family's
    # real values, k n 8 bytes, and at most ten n-point arrays of the grid: points,
    # |points|, the transients of drawing a vector, and for nelson the kept gap tails and
    # the transients of building them, for os one support mask, one |f| and the content's
    # row and its |t|-weighted copy (one row is more than FACTOR_BLOCK_BYTES).  nelson
    # adds four column blocks of W: (1 + 10/k) times the family bytes plus the blocks.
    # The unblocked factoring held about three more copies of the family.
    #
    # markov: probes:2 counts k = 2 (N + 2) + 15 = 23 rows; on the most points they may
    # take (odd, for a grid symmetric about 0; step 0.01 keeps the bases' Grams well
    # conditioned) the run holds their real values (the two bases and the probes; the
    # time-zero pair is read from the bases), the same ten n-point arrays as nelson
    # (the gap tails and their transients, or the content's complex row and its
    # |t|-weighted copy) and four column blocks of W.  Its
    # projections are coefficients in the bases, not grid-length rows; with the stage
    # stacks they replace, the run peaked near nine times the bound.
    if kind == "markov":
        spec, k = "probes:2", 2 * (2 + 2) + 15
        n = cli.NELSON_FAMILY_BYTES // (k * 16)
        half = (n - 1) // 2 / 100
        base_grid, grid = "-1:1:0.5", f"{-half:.2f}:{half:.2f}:0.01"
    else:
        spec, k = BUDGET_RUNS[kind][0], 20
        n = cli.NELSON_FAMILY_BYTES // (k * 16)
        start = 0 if kind == "os" else -(n // 2)
        base_grid, grid = "0:2:0.5", f"{start}:{start + n - 1}:1"
    family_bytes = k * n * 8
    base = peak_bytes("gram", "--kind", kind, "--family", spec, "--grid", base_grid)
    peak = peak_bytes("gram", "--kind", kind, "--family", spec, "--grid", grid)
    assert peak - base <= (1 + 10 / k) * family_bytes + 4 * nelson.FACTOR_BLOCK_BYTES


def mc_peak_bytes(mode: str, count: int) -> int:
    """Peak RSS, in bytes, of `mc --mode MODE` at count taus on [-2, 2], over two sample blocks."""
    taus = [-2 + 4 * i / (count - 1) for i in range(count)]
    if mode == "weyl":  # neutral labels: the target is a finite Schwinger value
        extra = ["--alphas", ",".join(repr(0.5 * (-1) ** k) for k in range(count))]
    else:  # a smooth f at quadrature step 4/(count - 1): the target is a moderate exp(-<f,f>/2)
        extra = ["--weights", ",".join(repr(0.3 * math.cos(t)) for t in taus), "--step", repr(4 / (count - 1))]
    taus_text = ",".join(map(repr, taus))
    return peak_bytes("mc", "--mode", mode, "--taus", taus_text, "--samples", str(2 * cli.mc.BLOCK), *extra)


@pytest.mark.parametrize("mode", ["weyl", "characteristic"])
def test_mc_at_the_taus_limit_holds_no_row_per_tau(mode):
    # From the code, a tau adds to the run only scalars: its text in the arguments and
    # the report, its parsed floats and label fraction, its gap step and index lists,
    # some dozens of Python objects under 2 KiB together (one BLOCK-wide row is 128 KiB).
    # characteristic_target sorts the taus and takes prefix sums, a few rows of n floats.
    # Each sampler worker keeps nine rows whatever the taus; with a row per Brownian gap
    # in each worker these 1000-tau runs peaked near 165 MB (290 MB at 200000 samples).
    count = cli.MC_TAUS_LIMIT
    allowance = count * 2048
    assert mc_peak_bytes(mode, count) <= mc_peak_bytes(mode, 2) + allowance


def test_gram_refuses_what_it_cannot_compute(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = one_line_usage_error(capsys, "gram", "--kind", "nelson", "--family", "bumps:2", "--grid", "0:1e300:1e299")
        assert "float range" in err
        err = one_line_usage_error(capsys, "gram", "--kind", "os", "--family", "possupport:3", "--grid", "0:1e7:1")
        assert "kind=os takes at most" in err and "bytes" in err


# -- suite ----------------------------------------------------------------------------------


def test_suite_subset_quick(capsys):
    code, out, _ = run_cli(capsys, "suite", "--quick", "--criteria", "1,5,13", "--json")
    assert code == 0
    report = last_json(out)
    names = [row["name"] for row in report["results"]]
    assert names == ["criterion_01", "criterion_05", "criterion_13"]
    assert report["pass"] is True


def test_suite_runs_each_criterion_once_in_order(capsys):
    code, out, _ = run_cli(capsys, "suite", "--quick", "--criteria", "13,5,5,05", "--json")
    assert code == 0
    report = last_json(out)
    assert [row["name"] for row in report["results"]] == ["criterion_05", "criterion_13"]
    assert report["inputs"]["criteria"] == [5, 13]


def test_suite_at_the_largest_seed_derives_valid_seeds(capsys):
    # criteria 7 and 14 sample at seed + offset, which wraps into [0, 2**64)
    code, out, err = run_cli(capsys, "suite", "--quick", "--seed", str(2**64 - 1), "--criteria", "7,14", "--json")
    assert code in (0, 1), err
    report = last_json(out)
    assert report["inputs"]["seed"] == 2**64 - 1
    assert [row["name"] for row in report["results"]] == ["criterion_07", "criterion_14"]
    assert all(check["tolerance"] > 0 for row in report["results"] for check in row["checks"])


@pytest.mark.parametrize("seed, criteria", [("-1", "1"), (str(2**64), "8")])
def test_suite_refuses_a_seed_out_of_range_whatever_the_criteria(capsys, seed, criteria):
    err = one_line_usage_error(capsys, "suite", "--quick", "--seed", seed, "--criteria", criteria)
    assert "seed must be in [0, 2**64)" in err


def test_suite_prints_criterion_lines(capsys):
    code, out, _ = run_cli(capsys, "suite", "--quick", "--criteria", "5")
    assert code == 0
    assert any(line.startswith("PASS") and "#05" in line for line in out.splitlines())


def test_suite_unknown_criterion_is_usage_error(capsys):
    assert run_cli(capsys, "suite", "--criteria", "99")[0] == 2


def test_suite_failure_maps_to_exit_one(capsys, monkeypatch):
    def failing(seed=0, quick=False):
        return CriterionResult(number=1, name="forced failure", passed=False, seconds=0.0, checks=[])

    monkeypatch.setitem(acceptance.CRITERIA, 1, failing)
    code, out, _ = run_cli(capsys, "suite", "--criteria", "1")
    assert code == 1
    assert any(line.startswith("FAIL") for line in out.splitlines())


# -- config file ------------------------------------------------------------------------------


def test_config_overrides_flags(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": 9, "samples": 30000}))
    code, out, _ = run_cli(
        capsys,
        "mc", "--mode", "indefinite", "--taus", "1,-1", "--samples", "10",
        "--config", str(config),
    )
    assert code == 0
    report = last_json(out)
    assert report["inputs"]["samples"] == 30000
    assert report["inputs"]["seed"] == 9


def test_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"samples": 10, "bogus_knob": 1}))
    code, _, err = run_cli(
        capsys, "mc", "--mode", "indefinite", "--taus", "1,-1", "--config", str(config)
    )
    assert code == 2
    assert "bogus_knob" in err


def test_mc_refuses_the_removed_chunk_option(tmp_path, capsys):
    # each block reduces its samples once: there is no reduction segment to size
    err = one_line_usage_error(capsys, "mc", "--mode", "indefinite", "--taus", "1,-1", "--chunk", "5")
    assert "--chunk" in err
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"chunk": 5}))
    err = one_line_usage_error(capsys, "mc", "--mode", "indefinite", "--taus", "1,-1", "--config", str(config))
    assert "'chunk'" in err


def test_config_rejects_mistyped_values(tmp_path, capsys):
    config = tmp_path / "run.json"
    for value in ("abc", 1.5):
        config.write_text(json.dumps({"samples": value}))
        err = one_line_usage_error(
            capsys, "mc", "--mode", "indefinite", "--taus", "1,-1", "--config", str(config)
        )
        assert "'samples'" in err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "moments", "--expr", "q p", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["results"][0]["value"] == "1/2 i"


def test_bad_flags_exit_two(capsys):
    one_line_usage_error(capsys, "unknown-subcommand")
    one_line_usage_error(capsys, "mc")  # --mode required
    one_line_usage_error(capsys, "mc", "--mode", "indefinite", "--samples", "x")
    # a flag followed by another flag is missing its value, not given one
    assert "expected one argument" in one_line_usage_error(capsys, "moments", "--expr", "--c", "1")


def test_help_exits_zero(capsys):
    code, out, err = run_cli(capsys, "gram", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: ccrlab gram")
