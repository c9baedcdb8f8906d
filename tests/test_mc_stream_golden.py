"""Frozen Monte Carlo stream: the first normals of two substreams and one estimate.

``tests/golden/mc_stream.json`` holds the inputs and, bit for bit, the first
normals of two block substreams (as ``float.hex`` strings) and the ``repr``
of one two-block ``mc_moment``.  The test recomputes them from the stored
inputs and asks for equality, so a change of generator, of its seeding or
of the order in which a block reads its normals shows in tier-1 without a
benchmark run.  Regenerate the file (only on a declared stream-layout move)
with

    PYTHONPATH=src python tests/test_mc_stream_golden.py --freeze
"""

from __future__ import annotations

import json
import pathlib
import sys

from ccrlab.montecarlo import BLOCK, McConfig, mc_moment, substream

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "mc_stream.json"
INPUTS = {
    "substream_seed": 987654321,
    "blocks": [0, 1],
    "normals": 8,
    # a full block and a partial one: the partial block draws rows as wide as its samples
    "mc_moment": {"taus": [1, -1], "samples": BLOCK + 123, "seed": 60},
}


def outputs(inputs: dict) -> dict:
    """Every frozen value, computed from ``inputs`` by the current sources."""
    seed, count, moment = inputs["substream_seed"], inputs["normals"], inputs["mc_moment"]
    return {
        "normals": {
            str(block): [float(x).hex() for x in substream(seed, block).standard_normal(count)]
            for block in inputs["blocks"]
        },
        "mc_moment_repr": repr(mc_moment(moment["taus"], McConfig(samples=moment["samples"], seed=moment["seed"]))),
    }


def test_mc_stream_matches_the_frozen_file():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["inputs"] == INPUTS
    assert outputs(golden["inputs"]) == golden["outputs"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit(__doc__)
    GOLDEN_PATH.write_text(json.dumps({"inputs": INPUTS, "outputs": outputs(INPUTS)}, indent=1) + "\n")
