"""Byte-exact CLI output for every command in CSV and JSON.

The files under tests/golden/ were written by the CLI and are compared
byte for byte, so any change to a printed cell, to quoting or to the JSON
layout shows.  The cases cover ints, floats, empty cells (a convergent
source's M, the stderr of an exact row), classify's bools and its
|-joined w, sweep labels that need CSV quoting, an empty sweep, compare's
flag unions and fejer-demo.

To record the goldens again after a deliberate output change:

  PYTHONPATH=src python -m tests.test_cli_golden
"""

import json
import tempfile
from pathlib import Path

import pytest

from shancode import cli
from shancode.cli import main

GOLDEN = Path(__file__).parent / "golden"

SOURCES = {
    "perm": {"r": 2, "initial": ["1/3", "2/3"], "transitions": [["1/3", "2/3"], ["2/3", "1/3"]]},
    "dyadic": {"r": 2, "initial": ["1/2", "1/2"], "transitions": [["1/2", "1/2"], ["1/2", "1/2"]]},
    "float": {"r": 2, "initial": [0.5, 0.5], "transitions": [[0.3, 0.7], [0.6, 0.4]]},
    "float_perm": {"r": 2, "initial": [1 / 3, 2 / 3], "transitions": [[1 / 3, 2 / 3], [2 / 3, 1 / 3]]},
    "snap": {"r": 2, "initial": [0.5, 0.5], "transitions": [[1 / 3, 2 / 3], [3 / 4, 1 / 4]]},
    "cyc": {
        "r": 3,
        "initial": ["1/2", "1/4", "1/4"],
        "transitions": [["1/7", "2/7", "4/7"], ["2/7", "4/7", "1/7"], ["4/7", "1/7", "2/7"]],
    },
    "bip": {"r": 3, "initial": [1, 0, 0], "transitions": [[0, "1/3", "2/3"], [1, 0, 0], [1, 0, 0]]},
    "reducible": {"r": 2, "initial": [1, 0], "transitions": [["2/3", "1/3"], [0, 1]]},
    "grid": {
        "n": "2..5",
        "xi": 0.1,
        "sources": [
            {"label": "perm, exact", "path": "perm.json"},
            {"label": 'say "two"', "source": {"r": 2, "initial": ["1/2", "1/2"],
                                              "transitions": [["1/2", "1/2"], ["1/2", "1/2"]]}},
            {"label": "float", "path": "float_perm.json"},
        ],
    },
    "empty_grid": {"n": "3..4", "sources": []},
}

# case name -> argv, with {name} standing for the path of SOURCES[name]
CASES = {
    "classify-perm": ["--command", "classify", "--source", "{perm}"],
    "classify-bip": ["--command", "classify", "--source", "{bip}"],
    "classify-cyc": ["--command", "classify", "--source", "{cyc}"],
    "classify-float": ["--command", "classify", "--source", "{float}"],
    "classify-reducible": ["--command", "classify", "--source", "{reducible}"],
    "predict-perm": ["--command", "predict", "--source", "{perm}", "--n", "1..40"],
    "predict-bip": ["--command", "predict", "--source", "{bip}", "--n", "1..12", "--xi", "0.2"],
    "predict-float": ["--command", "predict", "--source", "{float}", "--n", "3..6"],
    "predict-far": ["--command", "predict", "--source", "{cyc}", "--n", "1000000000..1000000003"],
    "exact-samples": ["--command", "exact", "--source", "{perm}", "--n", "3..5", "--samples", "400", "--seed", "9"],
    "exact-float": ["--command", "exact", "--source", "{float_perm}", "--n", "1..8"],
    "compare-perm": ["--command", "compare", "--source", "{perm}", "--n", "1..20"],
    "compare-dyadic": ["--command", "compare", "--source", "{dyadic}", "--n", "1..6"],
    "compare-float": ["--command", "compare", "--source", "{float_perm}", "--n", "1..12"],
    "compare-snap": ["--command", "compare", "--source", "{snap}", "--n", "8..14"],
    "compare-bip": ["--command", "compare", "--source", "{bip}", "--n", "1..10"],
    "sweep": ["--command", "sweep", "--source", "{grid}"],
    "sweep-empty": ["--command", "sweep", "--source", "{empty_grid}"],
    "fejer-demo": ["--command", "fejer-demo", "--n", "16"],
    "fejer-demo-256": ["--command", "fejer-demo", "--n", "256"],
}


def case_output(directory: Path, case: str, fmt: str) -> bytes:
    """Bytes that main() writes to --out for one case and format, with its sources in directory."""
    paths = {}
    for name, doc in SOURCES.items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    out = directory / f"{case}.{fmt}"
    argv = [arg.format(**paths) for arg in CASES[case]]
    assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("block_rows", [cli.BLOCK_ROWS, 3], ids=["one-block", "blocks-of-3"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(tmp_path, monkeypatch, case, fmt, block_rows):
    # with blocks of 3 rows every case but classify is written in several blocks
    monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
    assert case_output(tmp_path, case, fmt) == (GOLDEN / f"{case}.{fmt}").read_bytes()


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            for fmt in ("csv", "json"):
                (GOLDEN / f"{case}.{fmt}").write_bytes(case_output(Path(tmp), case, fmt))


if __name__ == "__main__":
    record()
