"""Workload definitions: the sources and calls each workload runs, built from a seed.

A workload is a *plan*: source files written into a run directory plus an
ordered list of calls.  A call is either a CLI invocation of
``shancode.cli.main`` with output going to a file, or a library ``scan``
(``classify_mode`` followed by ``char_fn`` in both modes over a range of
frequencies).  The worker replays the plan unchanged in every timed pass.

Each workload puts most of its time in one module of ``src/shancode`` so a
later change to that module moves one workload and leaves the others flat:

  compare-oracle  oracle.exact_redundancy (restarted for every n)
  predict-range   asymptotics + exact + sources (per-n prediction rows)
  mc-sample       oracle.monte_carlo_redundancy (samples x n draw matrix)
  spectral-scan   spectral (phase matrices, eigenvalues, char_fn steps)

Sizes were chosen so one pass takes about two seconds on a 2-core x86 VM
with Python 3.11, which leaves several passes per run for a steady median.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
WORKLOADS = ("compare-oracle", "predict-range", "mc-sample", "spectral-scan")

# Fixed exact sources.  "perm" is the r=2 row-permutation chain; "r3x" has
# odd mantissas (1/3, 1/6) that exercise the bignum branch of count_dp;
# "cyc" is the r=3 circulant 1/7, 2/7, 4/7 chain; "bip" is the period-2
# bipartite chain, which takes the periodic prediction and spectral.eigen.
FIXED_SOURCES = {
    "perm": {"r": 2, "initial": ["1/3", "2/3"], "transitions": [["1/3", "2/3"], ["2/3", "1/3"]]},
    "r3x": {
        "r": 3,
        "initial": ["1/3", "1/3", "1/3"],
        "transitions": [["1/3", "1/6", "1/2"], ["1/4", "1/2", "1/4"], ["1/2", "1/4", "1/4"]],
    },
    "cyc": {
        "r": 3,
        "initial": ["1/2", "1/4", "1/4"],
        "transitions": [["1/7", "2/7", "4/7"], ["2/7", "4/7", "1/7"], ["4/7", "1/7", "2/7"]],
    },
    "bip": {"r": 3, "initial": [1, 0, 0], "transitions": [[0, "1/3", "2/3"], [1, 0, 0], [1, 0, 0]]},
}

# Strictly positive random float sources keep every seed's cost the same:
# the count_dp class count and the enumerated path count depend only on r
# and n, and the spectral scan never finds a unit radius, so it always runs
# to m_max.
SCAN_ALPHABETS = (2, 2, 3, 3, 4, 4, 6, 6, 8, 8)
SCAN_M_MAX = 1024
SCAN_FREQUENCIES = 64
SCAN_N = 1000

MC_SAMPLES = 100_000
LARGE_N = 1_000_000
MID_N = 100_000


def random_float_source(rng: np.random.Generator, r: int) -> dict:
    """Row-stochastic r x r source with every entry at least about 0.05 / r."""
    P = rng.random((r, r)) + 0.05
    P /= P.sum(axis=1, keepdims=True)
    p0 = rng.random(r) + 0.05
    p0 /= p0.sum()
    return {"r": r, "initial": [float(x) for x in p0], "transitions": [[float(x) for x in row] for row in P]}


def _cli(label, source, command, lo, hi, seeded, extra=()):
    """A CLI call over n = lo..hi; one output row per n, two with Monte Carlo samples."""
    argv = ["--command", command, "--source", source, "--n", f"{lo}..{hi}", *extra]
    ops = (hi - lo + 1) * (2 if "--samples" in extra else 1)
    return {"label": label, "kind": "cli", "source": source, "argv": argv, "ops": ops, "seeded": seeded}


def build_plan(workload: str, seed: int) -> dict:
    """Sources (name -> JSON document) and calls for one workload and seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    sources: dict[str, dict] = {}
    calls: list[dict] = []

    if workload == "compare-oracle":
        sources["perm"] = FIXED_SOURCES["perm"]
        sources["r3x"] = FIXED_SOURCES["r3x"]
        sources["r3f"] = random_float_source(rng, 3)
        sources["r4f"] = random_float_source(rng, 4)
        # r >= 4 has no count_dp entry in the default Limits, so r4f runs
        # the enumeration strategy.
        for name, lo, hi, seeded in (("perm", 4, 60, False), ("r3x", 4, 14, False),
                                     ("r3f", 4, 13, True), ("r4f", 4, 8, True)):
            calls.append(_cli(name, name, "compare", lo, hi, seeded))
    elif workload == "predict-range":
        for name in ("perm", "cyc", "bip"):
            sources[name] = FIXED_SOURCES[name]
            calls.append(_cli(f"{name}-small", name, "predict", 1, 1000, False))
        # Large-n windows: Log2Value.scaled builds mantissa**(n-1) there.
        # The seed moves the windows by at most 0.1%, which leaves their cost alone.
        big = LARGE_N + int(rng.integers(0, LARGE_N // 1000))
        mid = MID_N + int(rng.integers(0, MID_N // 1000))
        calls.append(_cli("perm-large", "perm", "predict", big, big + 1, True))
        calls.append(_cli("cyc-mid", "cyc", "predict", mid, mid + 7, True))
    elif workload == "mc-sample":
        sources["r2f"] = random_float_source(rng, 2)
        sources["r3f"] = random_float_source(rng, 3)
        mc = ["--samples", str(MC_SAMPLES), "--seed", str(seed)]
        calls.append(_cli("r2f", "r2f", "exact", 99, 100, True, mc))
        calls.append(_cli("r3f", "r3f", "exact", 12, 13, True, mc))
    elif workload == "spectral-scan":
        for i, r in enumerate(SCAN_ALPHABETS):
            name = f"s{i}r{r}"
            sources[name] = random_float_source(rng, r)
            calls.append({
                "label": name, "kind": "scan", "source": name, "m_max": SCAN_M_MAX,
                "ms": [1, SCAN_FREQUENCIES], "n_steps": SCAN_N,
                "ops": 1 + 2 * SCAN_FREQUENCIES, "seeded": True,
            })
        calls.append({"label": "fejer", "kind": "cli", "source": None,
                      "argv": ["--command", "fejer-demo", "--n", "256"], "ops": 3 * 512, "seeded": False})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "sources": sources, "calls": calls}


def materialize(plan: dict, run_dir: Path) -> dict:
    """Write the plan's sources and the plan itself; return the plan with file paths filled in."""
    run_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in plan["sources"].items():
        path = run_dir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = str(path)
    for call in plan["calls"]:
        call["out"] = str(run_dir / f"out-{call['label']}.{'csv' if call['kind'] == 'cli' else 'json'}")
        if call["kind"] == "cli":
            if call["source"] is not None:
                i = call["argv"].index("--source")
                call["argv"][i + 1] = paths[call["source"]]
            call["argv"] += ["--out", call["out"]]
    plan["source_paths"] = paths
    (run_dir / "plan.json").write_text(json.dumps(plan, indent=1), encoding="utf-8")
    return plan
