"""Every function and method of ccrlab is checked by a criterion, run by a command, or listed.

Code that only tests call belongs in the tests.  The guard takes every def in the nine
modules' source, nested defs and dunders included (a lambda or a comprehension is part
of the def around it, and the methods a dataclass generates have no code in the file),
and runs under a profiler that follows the sampler's threads:

1. the quick suite, ``acceptance.run_all(quick=True)``;
2. every ``ccrlab`` line of README's ``sh`` blocks, each of which must exit 0, and one
   argparse usage error and one program usage error per subcommand, each exiting 2.

Each name falls in one tier: reached by a criterion; reached by a command alone; or
listed in ALLOWED with its reason, and then reached by neither.  A criterion reaches
nothing of the command layer (``cli`` and ``expr``); outside it, the command-only tier
is pinned as COMMAND_ONLY, which README prints, since a fault there passes the suite.
perfbench/tracing.py looks its TRACED names up, so each must exist; one that nothing
here reaches is listed with that reason.
"""

import importlib.util
import inspect
import pathlib
import re
import os
import shlex
import subprocess
import sys
import threading

from ccrlab import acceptance, cli, exactcomplex, expr, gram, heisenberg, montecarlo, nelson, weyl

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
MODULES = (acceptance, cli, exactcomplex, expr, gram, heisenberg, montecarlo, nelson, weyl)
COMMAND_LAYER = ("cli", "expr")
# One argparse usage error and one program usage error per subcommand.
USAGE_ERRORS = [
    ["moments"],
    ["moments", "--expr", "q +"],
    ["mc", "--mode", "bogus"],
    ["mc", "--mode", "krein", "--taus", "1", "--alpha", "0"],
    ["gram", "--kind", "os"],
    ["gram", "--kind", "markov", "--family", "probes:x", "--grid", "-2:2:0.1"],
    ["suite", "--unknown"],
    ["suite", "--criteria", "16"],
]
# Reached by a command and by no criterion, outside the command layer: a fault here
# passes `ccrlab suite`.  README lists these names.
COMMAND_ONLY = {
    "acceptance.CriterionResult.line",
    "exactcomplex.ComplexRational.re",
    "exactcomplex.ComplexRational.im",
    "heisenberg.AlgebraElement.degree",
    "heisenberg.AlgebraElement.__pow__",
    "montecarlo.McEstimate.sigma_distance",
    "montecarlo.characteristic_target",
    "montecarlo._grid_function",
    "montecarlo._run_blocks.<locals>.run",
    "montecarlo._run_blocks.<locals>.serve",
    "montecarlo.mc_characteristic",
    "montecarlo.mc_characteristic.<locals>.integrand",
}
VALUE_TYPE = "value-type protocol"
IMPORT_TIME = "import-time constructor"
REFERENCE = "a test's reference route"
ABSTRACT = "an abstract claim that no criterion checks yet"
TRACED_ONLY = "perfbench/tracing.py looks it up and no op reaches it; it moves into the tests"
ALLOWED = {
    "acceptance._criterion": IMPORT_TIME,
    "acceptance._criterion.<locals>.register": IMPORT_TIME,
    "exactcomplex.ComplexRational.__setattr__": VALUE_TYPE,
    "exactcomplex.ComplexRational.__reduce__": VALUE_TYPE,
    "exactcomplex.ComplexRational.__add__": VALUE_TYPE,
    "exactcomplex.ComplexRational.__sub__": VALUE_TYPE,
    "exactcomplex.ComplexRational.__rsub__": VALUE_TYPE,
    "exactcomplex.ComplexRational.__rtruediv__": VALUE_TYPE,
    "exactcomplex.ComplexRational.conjugate": VALUE_TYPE,
    "exactcomplex.ComplexRational.__hash__": VALUE_TYPE,
    "exactcomplex.ComplexRational.__complex__": VALUE_TYPE,
    "exactcomplex.ComplexRational.__repr__": VALUE_TYPE,
    "heisenberg.AlgebraElement.__setattr__": VALUE_TYPE,
    "heisenberg.AlgebraElement.terms": VALUE_TYPE,
    "heisenberg.AlgebraElement.__rsub__": VALUE_TYPE,
    "heisenberg.AlgebraElement.__repr__": VALUE_TYPE,
    # time and scale invariance, the Krein metric's conjugation and the Tomita-Takesaki maps
    "heisenberg.evolve": ABSTRACT,
    "heisenberg.scale_transform": ABSTRACT,
    "heisenberg.metric_conjugate": ABSTRACT,
    "heisenberg._modular_phases": ABSTRACT,
    "heisenberg.modular_sqrt": ABSTRACT,
    "heisenberg.modular_inv_sqrt": ABSTRACT,
    "heisenberg.modular_conjugation": ABSTRACT,
    "nelson.ExtendedVector.__add__": REFERENCE,
    "nelson.metric_matrix": TRACED_ONLY,
    "nelson.indefinite_inner": TRACED_ONLY,
    "nelson.project_onto": TRACED_ONLY,
    "weyl.WeylElement.__init__": VALUE_TYPE,
    "weyl.WeylElement.__setattr__": VALUE_TYPE,
    "weyl.WeylElement.terms": VALUE_TYPE,
    "weyl.WeylElement.__add__": VALUE_TYPE,
    "weyl.WeylElement.__sub__": VALUE_TYPE,
    "weyl.WeylElement.__mul__": VALUE_TYPE,
    "weyl.WeylElement.__rmul__": VALUE_TYPE,
    "weyl.WeylElement.__eq__": VALUE_TYPE,
    "weyl.WeylElement.__str__": VALUE_TYPE,
    # the positive non-regular (Weyl) state: its algebra, evolution, n-point functions and OS positivity
    "weyl.weyl_symbol": ABSTRACT,
    "weyl.symplectic_phase": ABSTRACT,
    "weyl.weyl_product": ABSTRACT,
    "weyl.weyl_star": ABSTRACT,
    "weyl.omega_expectation": ABSTRACT,
    "weyl.evolve_weyl": ABSTRACT,
    "weyl.wightman_npoint": ABSTRACT,
    "weyl.os_positivity_matrix": ABSTRACT,
}


def defined_functions(module) -> dict:
    """(file, first line, name) -> 'module.qualname' of every def in the module's source."""

    def defs(code):
        for const in code.co_consts:
            if inspect.iscode(const):
                # class bodies keep no new locals; lambdas and comprehensions are named <...>
                if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                    yield const
                yield from defs(const)

    path = module.__file__
    short = module.__name__.rpartition(".")[2]
    top = compile(pathlib.Path(path).read_text(), path, "exec")
    return {(c.co_filename, c.co_firstlineno, c.co_name): f"{short}.{c.co_qualname}" for c in defs(top)}


NAMES = {key: name for module in MODULES for key, name in defined_functions(module).items()}
FILES = {module.__file__ for module in MODULES}


def reached_by(run) -> set[str]:
    """The names whose code runs during run(), in the calling thread or any thread it starts."""
    reached = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename in FILES:
            reached.add((code.co_filename, code.co_firstlineno, code.co_name))

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return {NAMES[key] for key in reached if key in NAMES}


def readme_commands() -> list[list[str]]:
    """Every ``ccrlab`` line of README's sh blocks, as arguments after the program name."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README, re.S | re.M)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("ccrlab ")]
    return [shlex.split(line, comments=True)[1:] for line in lines]


def traced_names() -> set[str]:
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {f"{m.__name__.rpartition('.')[2]}.{name}" for m, names in tracing.TRACED.items() for name in names}


def test_every_function_is_reached_or_listed(capsys, monkeypatch):
    cpu_count = montecarlo._cpu_count
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: max(2, cpu_count()))  # the sampler pool on any machine
    for module in MODULES:  # a warm cache would hide the calls behind it
        for f in vars(module).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"moments", "mc", "gram", "suite"}
    criterion = reached_by(lambda: acceptance.run_all(quick=True))
    codes = []
    command = reached_by(lambda: codes.extend(cli.main(argv) for argv in commands + USAGE_ERRORS))
    capsys.readouterr()
    assert dict(zip(map(" ".join, commands), codes)) == {" ".join(argv): 0 for argv in commands}
    assert codes[len(commands) :] == [2] * len(USAGE_ERRORS)

    names = set(NAMES.values())
    assert sorted(names - criterion - command - ALLOWED.keys()) == []
    assert sorted(ALLOWED.keys() & (criterion | command)) == []
    assert ALLOWED.keys() <= names
    assert sorted(n for n in criterion if n.partition(".")[0] in COMMAND_LAYER) == []
    assert {n for n in command - criterion if n.partition(".")[0] not in COMMAND_LAYER} == COMMAND_ONLY
    assert sorted(n for n in COMMAND_ONLY if f"`{n}`" not in README) == []
    traced = traced_names()
    assert sorted(traced - names) == []
    assert {n for n, reason in ALLOWED.items() if reason == TRACED_ONLY} <= traced


def test_the_package_binds_only_its_modules():
    """Names are imported from their modules: ``import ccrlab`` loads no submodule and re-exports no name."""
    probe = (
        "import sys, types, ccrlab\n"
        "print(sorted(name for name in sys.modules if name.startswith('ccrlab.')))\n"
        "print(sorted(n for n, v in vars(ccrlab).items() if not n.startswith('_') and not isinstance(v, types.ModuleType)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == ["[]", "[]"]
