"""The names the benchmark's tracer hooks into exist, so a rename fails here, not in a benchmark run."""

import importlib.util
import inspect
import pathlib

import pytest

from ccrlab import acceptance

_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(tracing):
    missing = [
        f"{module.__name__}.{name}"
        for module, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(module, name, None))
    ]
    assert missing == []


def test_every_criterion_takes_seed_and_quick():
    for criterion in acceptance.CRITERIA.values():
        inspect.signature(criterion).bind(seed=1, quick=True)
