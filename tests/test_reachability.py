"""Every public function of ccrlab's computing modules is reached by a criterion or a command.

Code that only tests call belongs in the tests.  This guard runs the quick suite, the
three gram kinds and one moments command under a profiler and names each public
function nothing reached that perfbench/tracing.py does not look up by name and that
is not on the allowlist below.
"""

import importlib.util
import inspect
import pathlib
import sys

from ccrlab import acceptance, cli, exactcomplex, expr, gram, heisenberg, montecarlo, nelson, weyl

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (nelson, heisenberg, weyl, montecarlo, gram, expr, exactcomplex)
COMMANDS = (
    ["gram", "--kind", "nelson", "--family", "meanzero:4", "--grid", "-2:2:0.1"],
    ["gram", "--kind", "os", "--family", "possupport:4", "--grid", "0:2:0.1"],
    ["gram", "--kind", "markov", "--family", "probes:4", "--grid", "-2:2:0.1"],
    ["moments", "--expr", "q p q p", "--c", "1/3"],
)
# The abstract's claims that only tier-1 checks so far: time and scale invariance, the
# Tomita-Takesaki maps with the Krein metric, and the positive non-regular (Weyl) state.
# Each name leaves this list when a criterion reaches it.
NOT_YET_REACHED = {
    heisenberg: (
        "evolve",
        "scale_transform",
        "metric_conjugate",
        "modular_sqrt",
        "modular_inv_sqrt",
        "modular_conjugation",
    ),
    weyl: (
        "weyl_symbol",
        "symplectic_phase",
        "weyl_product",
        "weyl_star",
        "omega_expectation",
        "evolve_weyl",
        "wightman_npoint",
        "os_positivity_matrix",
    ),
}


def traced_names() -> dict:
    spec = importlib.util.spec_from_file_location("tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {m: set(module.TRACED.get(m, ())) for m in MODULES}


def test_every_public_function_is_reached_traced_or_listed(capsys):
    public = {
        f.__code__: (module, name)
        for module in MODULES
        for name, f in vars(module).items()
        if inspect.isfunction(f) and f.__module__ == module.__name__ and not name.startswith("_")
    }
    reached = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in public:
            reached.add(public[frame.f_code])

    sys.setprofile(profile)
    try:
        acceptance.run_all(quick=True)
        codes = [cli.main(command) for command in COMMANDS]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(COMMANDS)
    traced = traced_names()
    left = {
        module.__name__: sorted(
            name
            for m, name in set(public.values()) - reached
            if m is module and name not in traced[module] and name not in NOT_YET_REACHED.get(module, ())
        )
        for module in MODULES
    }
    assert left == {module.__name__: [] for module in MODULES}
    # the list names public functions only, and a name that a criterion or command now reaches leaves it
    assert {(m, name) for m, names in NOT_YET_REACHED.items() for name in names} <= set(public.values())
    listed_and_reached = sorted(f"{m.__name__}.{name}" for m, name in reached if name in NOT_YET_REACHED.get(m, ()))
    assert listed_and_reached == []
