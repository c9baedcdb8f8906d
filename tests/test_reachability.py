"""Every public function of ccrlab.nelson is reached by a criterion or a command, or is a benchmark hook.

Code that only tests call belongs in the tests.  This guard runs the quick suite and
the three gram kinds under a profiler and names each public function nothing reached
that perfbench/tracing.py does not look up by name.
"""

import importlib.util
import inspect
import pathlib
import sys

from ccrlab import acceptance, cli, nelson

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
GRAMS = (("nelson", "meanzero:4", "-2:2:0.1"), ("os", "possupport:4", "0:2:0.1"), ("markov", "probes:4", "-2:2:0.1"))


def traced_names() -> set[str]:
    spec = importlib.util.spec_from_file_location("tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return set(module.TRACED[nelson])


def test_every_public_nelson_function_is_reached_or_traced(capsys):
    public = {
        f.__code__: name
        for name, f in vars(nelson).items()
        if inspect.isfunction(f) and f.__module__ == nelson.__name__ and not name.startswith("_")
    }
    reached = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in public:
            reached.add(public[frame.f_code])

    sys.setprofile(profile)
    try:
        acceptance.run_all(quick=True)
        codes = [cli.main(["gram", "--kind", kind, "--family", family, "--grid", grid]) for kind, family, grid in GRAMS]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0, 0, 0]
    assert sorted(set(public.values()) - reached - traced_names()) == []
