"""Fuzzed argv and --config for every subcommand, all through cli.main.

Each run must end in a report (exit 0, or exit 1 with a failed check), a
one-line ``error:`` (exit 1) or a one-line ``usage error:`` (exit 2); no
exception or warning may escape, and a JSON report holds no NaN or Infinity.
Sizes stay small (at most 10^4 samples, grids of at most 10^3 points, "^2" as
the only exponent), and the sampler is pinned to one CPU, so no thread starts.
Examples are derandomized, so every run checks the same inputs.
"""

import json
import threading
import warnings

import pytest

from ccrlab import montecarlo
from ccrlab.cli import MC_MODES, main

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)


def mostly(valid, bad):
    """valid, and bad about one draw in eight."""
    return st.integers(0, 7).flatmap(lambda i: bad if i == 3 else valid)


GARBAGE = st.sampled_from(["", "x", "nan", "inf", "-inf", "1e400", "1/0", ",", "::", "-"])
NUMBER = mostly(st.one_of(st.integers(-3, 3), st.floats(-4, 4, width=32)), st.sampled_from([1e-300, 1e300, -1e300]))
NUMBER_TEXT = mostly(NUMBER.map(repr), GARBAGE)
NUMBER_LIST = mostly(st.lists(NUMBER, min_size=1, max_size=5).map(lambda xs: ",".join(map(repr, xs))), GARBAGE)
SEED = mostly(st.integers(0, 2**64 - 1), st.sampled_from([-1, 2**64]))

EXPR_TOKEN = st.sampled_from(["q", "p", "q'", "p'", "i", "3", "1/2", "0", "1/0", "+", "-", "*", "(", ")", "^2", "^", "x"])
EXPR = st.lists(EXPR_TOKEN, min_size=1, max_size=12).map(" ".join)
RATIONAL = mostly(st.fractions(max_denominator=50).map(str), GARBAGE)

# malformed specs, and well-formed ones of few points that float arithmetic cannot carry
MALFORMED_GRID = st.sampled_from(
    ["", "x", "1:2", "1:2:3:4", "a:b:c", "0:1:0", "0:1:-0.5", "1:0:0.5", "0:1:0.3", "0:inf:1", "0:1:nan",
     "nan:1:0.5", "0:1e300:1e-300", "-1e400:0:1", "0:1e300:1e299", "-1e308:1e308:1e308"]
)


@st.composite
def grid_spec(draw):
    """start:stop:step of at most 10^3 points (stop may miss the step by roundoff), or a malformed spec."""
    if draw(st.integers(0, 3)) == 0:
        return draw(MALFORMED_GRID)
    step = draw(st.sampled_from([1e-3, 0.01, 0.1, 0.25, 0.3, 0.5, 1.0, 3.0]))
    count = draw(st.integers(0, 1000))
    if draw(st.booleans()):  # symmetric about 0, as kind=markov needs
        start = -step * (count // 2)
    else:
        start = float(draw(st.integers(-20, 20)))
    return f"{start!r}:{start + step * (count - 1)!r}:{step!r}"


def flag(name, values, required=False):
    """[name, value] from values; an optional flag is absent half the time."""
    present = values.map(lambda v: [name, v])
    return present if required else st.one_of(present, st.just([]))


def flags(*specs):
    return st.tuples(*(flag(*spec) for spec in specs)).map(lambda parts: sum(parts, []))


COMMON = (("--format", mostly(st.sampled_from(["json", "csv"]), st.just("xml"))), ("--seed", SEED.map(str)))
FAMILY = mostly(
    st.tuples(st.sampled_from(["meanzero", "bumps", "possupport", "probes", "nope"]), st.integers(-1, 210)).map(
        lambda kc: f"{kc[0]}:{kc[1]}"
    ),
    GARBAGE,
)
SAMPLES = mostly(st.integers(2, 10**4), st.integers(-1, 1))
CHUNK = mostly(st.integers(1, 10**5), st.integers(-1, 0))
# at least one criterion: an empty list would run all fifteen
CRITERIA = mostly(st.lists(st.integers(0, 16).map(str), min_size=1, max_size=2).map(",".join), GARBAGE.filter(bool))

ARGV = {
    "moments": flags(("--expr", EXPR, True), ("--c", RATIONAL), *COMMON),
    "mc": flags(
        ("--mode", mostly(st.sampled_from(MC_MODES), st.just("bogus")), True),
        ("--taus", NUMBER_LIST, True),
        ("--alphas", NUMBER_LIST),
        ("--weights", NUMBER_LIST),
        ("--alpha", mostly(st.floats(0.1, 4).map(repr), NUMBER_TEXT)),
        ("--samples", SAMPLES.map(str), True),  # its default is 10^5
        ("--chunk", CHUNK.map(str)),
        ("--step", mostly(st.floats(0.01, 2).map(repr), NUMBER_TEXT)),
        *COMMON,
    ),
    "gram": flags(
        ("--kind", mostly(st.sampled_from(["nelson", "os", "markov"]), st.just("bogus")), True),
        ("--family", FAMILY, True),
        ("--grid", grid_spec(), True),
        *COMMON,
    ),
    "suite": flags(("--criteria", CRITERIA, True), ("--json", st.just(None)), *COMMON).map(
        lambda argv: ["--quick", *(a for a in argv if a is not None)]
    ),
}

# --config keys of each command with values of the flag's JSON type and sizes, or of any JSON type
JSON_VALUE = st.one_of(st.none(), st.booleans(), st.integers(-2, 5), st.floats(), st.text(max_size=5))
CONFIG_KEYS = {
    "moments": {"expr": EXPR, "c": RATIONAL},
    "mc": {
        "mode": st.sampled_from(MC_MODES),
        "taus": NUMBER_LIST,
        "alphas": NUMBER_LIST,
        "weights": NUMBER_LIST,
        "alpha": NUMBER,
        "samples": SAMPLES,
        "chunk": CHUNK,
        "step": NUMBER,
    },
    "gram": {"kind": st.sampled_from(["nelson", "os", "markov"]), "family": FAMILY, "grid": grid_spec()},
    "suite": {"criteria": CRITERIA, "json": st.booleans()},
}


def config(command):
    """A --config file's text: mostly an object of the command's keys, sometimes not one."""
    values = {"seed": SEED, "format": st.sampled_from(["json", "csv"]), **CONFIG_KEYS[command]}
    known = st.fixed_dictionaries({}, optional={key: mostly(v, JSON_VALUE) for key, v in values.items()})
    unknown = st.dictionaries(st.sampled_from(["bogus", "config", "help", "output"]), JSON_VALUE, max_size=1)
    objects = st.tuples(known, mostly(st.just({}), unknown)).map(lambda d: json.dumps({**d[0], **d[1]}))
    return mostly(objects, st.sampled_from(["[]", "{", '"x"', "", "null"]))


def reject_constant(name):
    raise AssertionError(f"bare {name} in a JSON report")


def check_run(capsys, argv, fmt):
    threads = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    assert threading.active_count() == threads
    assert code in (0, 1, 2), (argv, code)
    if err:
        prefix = "usage error: " if code == 2 else "error: "
        assert code != 0 and err.startswith(prefix) and err.count("\n") == 1, (argv, code, err)
        assert out == "", (argv, out)
        return
    assert code != 2, argv
    if fmt == "json":
        report = json.loads(out[out.index("{\n") :], parse_constant=reject_constant)
        assert report["pass"] == (code == 0), (argv, code)
    return code


@pytest.mark.parametrize("command", sorted(ARGV))
def test_fuzzed_argv_and_config(command, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 1)
    path = tmp_path / "run.json"
    reports = []

    @SETTINGS
    @hypothesis.given(ARGV[command], st.one_of(st.none(), config(command)))
    def run(argv, text):
        argv = [command, *argv]
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
        if text is not None:
            path.write_text(text)
            argv += ["--config", str(path)]
            overrides = json.loads(text) if text.startswith("{\"") else {}
            fmt = overrides.get("format", fmt)
        reports.append(check_run(capsys, argv, fmt))

    run()
    assert any(code == 0 for code in reports), "no fuzzed run gave a passing report"
