"""Traced passes: timing wrappers installed where each caller looks a name up.

The wrappers replace the public functions of the ccrlab modules in every
namespace that holds them (module attributes, names imported directly such
as ``nelson.gram_signature``, the package re-exports) and the entries of
``acceptance.CRITERIA``, so calls made inside the program are traced too.
Spans stay in memory as (name, start, end, parent) columns and are written
out when the pass ends.  A span's self time is its duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

import numpy as np

import ccrlab
from ccrlab import acceptance, cli, expr, gram, heisenberg, montecarlo, nelson, weyl

TRACED = {
    heisenberg: (
        "wick_value",
        "omega",
        "normal_order",
        "adjoint",
        "commutator",
        "gns_inner",
        "moment_matrix",
        "weyl_moment_partial_sum",
    ),
    montecarlo: (
        "mc_moment",
        "mc_krein_moment",
        "mc_weyl_schwinger",
        "mc_characteristic",
        "substream",
        "wick_moment",
        "krein_pair_moment",
        "characteristic_target",
        "krein_kernel",
    ),
    weyl: ("schwinger_npoint", "spectral_support"),
    nelson: (
        "metric_matrix",
        "indefinite_inner",
        "project_onto",
        "signature_of",
        "krein_metric_apply",
        "os_inner_routes",
        "markov_diagnostics",
        "os_rank",
    ),
    gram: ("gram_signature", "numerical_rank"),
    expr: ("parse_element",),
    cli: ("main",),
}
NAMESPACES = (ccrlab, acceptance, cli, expr, gram, heisenberg, montecarlo, nelson, weyl)
MC_ESTIMATORS = ("mc_moment", "mc_krein_moment", "mc_weyl_schwinger", "mc_characteristic")
# Spans of these functions are named by grid size, e.g. nelson.os_rank.n501.
BY_GRID_SIZE = ("nelson.markov_diagnostics", "nelson.os_rank")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.samples: dict[str, int] = defaultdict(int)
        self.words: set = set()
        # Bases are kept alive so that their ids stay distinct for the pass.
        self.bases: dict[int, list] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, note=None):
        fixed = None if name in BY_GRID_SIZE else self._id(name)
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(self._id(f"{name}.n{args[0].n}") if fixed is None else fixed)
            self.parent.append(self._open[-1] if self._open else -1)
            self.end.append(0.0)
            self._open.append(index)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self._open.pop()
            if note is not None:
                note(name, args, result)
            return result

        return functools.wraps(fn)(traced)

    def _note_samples(self, name, args, estimate):
        self.samples[name] += estimate.samples

    def _note_word(self, name, args, value):
        self.words.add((tuple(args[0]), args[1]))

    def _note_basis(self, name, args, value):
        self.bases[id(args[0])] = args[0]

    def install(self) -> "Tracer":
        notes = {f"montecarlo.{fn}": self._note_samples for fn in MC_ESTIMATORS}
        notes["heisenberg.wick_value"] = self._note_word
        notes["nelson.project_onto"] = self._note_basis
        wrappers = {}
        for module, attrs in TRACED.items():
            layer = module.__name__.rsplit(".", 1)[1]
            for attr in attrs:
                original = getattr(module, attr)
                name = f"{layer}.{attr}"
                wrappers[id(original)] = (original, self.wrap(name, original, notes.get(name)))
        for namespace in NAMESPACES:
            for attr, value in list(vars(namespace).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(namespace, attr, hit[1])
        for number, criterion in acceptance.CRITERIA.items():
            acceptance.CRITERIA[number] = self.wrap(f"acceptance.criterion_{number:02d}", criterion)
        return self

    def metrics(self) -> dict[str, float]:
        """Per span name: calls, self_s and inclusive seconds (s), plus derived ratios."""
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        duration = np.array(self.end) - np.array(self.start)
        covered = np.zeros(duration.size)
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        size = len(self.names)
        calls = np.bincount(name, minlength=size)
        self_s = np.bincount(name, weights=duration - covered, minlength=size)
        total_s = np.bincount(name, weights=duration, minlength=size)
        out: dict[str, float] = {}
        for index, span in enumerate(self.names):
            out[f"{span}.calls"] = int(calls[index])
            out[f"{span}.self_s"] = float(self_s[index])
            out[f"{span}.s"] = float(total_s[index])

        def ratio(count, span, per):
            base = out.get(f"{span}.{per}", 0)
            return count / base if base else 0.0

        omega = "heisenberg.omega"
        out[f"{omega}.calls_per_s"] = ratio(out.get(f"{omega}.calls", 0), omega, "s")
        out["heisenberg.wick_value.distinct_ratio"] = ratio(len(self.words), "heisenberg.wick_value", "calls")
        out["nelson.project_onto.distinct_basis_ratio"] = ratio(len(self.bases), "nelson.project_onto", "calls")
        for fn in MC_ESTIMATORS:
            span = f"montecarlo.{fn}"
            out[f"{span}.samples_per_s"] = ratio(self.samples[span], span, "s")
        return out

    def dump(self, path: str):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
        )
