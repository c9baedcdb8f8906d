"""Frozen exact strings: Wick values, normal forms, table moments, a determinant and CLI moments.

``tests/golden/exact_strings.json`` holds the inputs and the printed exact
outputs; the test recomputes every output from the stored inputs and asks
for equality, so any change to an exact digest shows in tier-1 without a
benchmark run.  Regenerate the file (only on a declared change of exact
values) with

    PYTHONPATH=src python tests/test_exact_golden.py --freeze
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

import numpy as np

from ccrlab import cli, heisenberg as hb

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "exact_strings.json"
WORD_SEED = 20240611
WORD_COUNT = 50
C_VALUES = ("0", "2/7")
KEY_SEED = 20261018
KEY_DRAWS = 80
# Deep keys, far past the exponents of the random draws (at most 12).
DEEP_KEYS = (
    (300, 300, 0, 0),
    (300, 300, 10, 0),
    (120, 60, 0, 60),
    (60, 40, 50, 30),
    (200, 0, 0, 200),
    (0, 150, 150, 0),
    (40, 30, 30, 40),
)
# The three `ccrlab moments` expressions of the `exact` benchmark workload at
# its default seed 987654321.
EXPRESSIONS = (
    "(- q - i p + 2 q' + 2 p')^8",
    "(- 2 q - 2 p + i q' + i p')^8",
    "(q + 2 p - q' + 2 i p')^8",
)


def seeded_inputs() -> dict:
    rng = np.random.default_rng(WORD_SEED)
    # even lengths 2-16, as digit strings of Generator values
    words = ["".join(map(str, rng.integers(0, 4, 2 * int(rng.integers(1, 9))))) for _ in range(WORD_COUNT)]
    # monomial keys with exponents 0-12, the odd-degree draws (moment 0) dropped
    draws = np.random.default_rng(KEY_SEED).integers(0, 13, (KEY_DRAWS, 4)).tolist()
    keys = [key for key in draws if sum(key) % 2 == 0] + [list(key) for key in DEEP_KEYS]
    return {
        "words": words,
        "c_values": list(C_VALUES),
        "expressions": list(EXPRESSIONS),
        "max_degree": 6,
        "table_keys": keys,
    }


def outputs(inputs: dict) -> dict:
    """Every frozen string, computed from ``inputs`` by the current sources."""
    tables = {c: hb.CovarianceTable(c) for c in inputs["c_values"]}
    words = [[hb.Generator(int(g)) for g in word] for word in inputs["words"]]
    out = {
        "normal_order": [str(hb.normal_order(word)) for word in words],
        "wick_value": {c: [str(hb.wick_value(word, table)) for word in words] for c, table in tables.items()},
        "table_moments": {c: [str(table.moment(key)) for key in inputs["table_keys"]] for c, table in tables.items()},
        "det_exact": str(hb.moment_matrix(inputs["max_degree"], tables["0"]).det_exact),
        "moments": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "moments.json"
        for c in inputs["c_values"]:
            rows = []
            for text in inputs["expressions"]:
                assert cli.main(["moments", "--expr", text, "--c", c, "--output", str(path)]) == 0
                results = {row["name"]: row["value"] for row in json.loads(path.read_text())["results"]}
                rows.append({"value": results["omega"], "normal_ordered": results["normal_ordered"]})
            out["moments"][c] = rows
    return out


def test_exact_strings_match_the_frozen_file():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["inputs"] == seeded_inputs()
    fresh = outputs(golden["inputs"])
    for name, frozen in golden["outputs"].items():
        assert fresh[name] == frozen, name
    assert fresh.keys() == golden["outputs"].keys()


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit(__doc__)
    inputs = seeded_inputs()
    GOLDEN_PATH.write_text(json.dumps({"inputs": inputs, "outputs": outputs(inputs)}, indent=1) + "\n")
