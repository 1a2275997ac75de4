"""Opt-in reach probe: the largest n each exact route finishes within a per-call budget.

Usage, from the repository root:

  python3 bench/reach.py                # budget 10 s per call
  python3 bench/reach.py --budget 5

For four sources (the r=2 permutation chain, the r=3 exact source with odd
mantissas, and seed-0 random r=3 and r=4 float sources) it searches n by
doubling and then bisection, assuming the cost of exact_redundancy grows
with n.  Every call runs in a fresh process under the default Limits and is
killed once it exceeds the budget; a call refused with ResourceLimit counts
as out of reach.  The result is one JSON line of oracle.reach_n.<source>
metrics.  A full probe takes a few minutes, which is why the gated runs of
run.py leave it out.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
IMPORT_ALLOWANCE_S = 30
N_CAP = 4096


def probe_sources() -> dict:
    rng = np.random.default_rng(workloads.DEFAULT_SEED)
    return {
        "r2_exact": workloads.FIXED_SOURCES["perm"],
        "r3_exact": workloads.FIXED_SOURCES["r3x"],
        "r3_float": workloads.random_float_source(rng, 3),
        "r4_float": workloads.random_float_source(rng, 4),
    }


def one_call(doc: str, n: int) -> int:
    """Child process: time exact_redundancy at n; exit 3 when refused by the Limits."""
    sys.path.insert(0, str(SRC))
    from shancode import MarkovSource, exact_redundancy
    from shancode.errors import ResourceLimit

    source = MarkovSource.from_dict(json.loads(doc))
    t0 = perf_counter()
    try:
        exact_redundancy(source, n)
    except ResourceLimit:
        return 3
    print(json.dumps({"s": perf_counter() - t0}))
    return 0


def finishes(doc: dict, n: int, budget: float) -> bool:
    cmd = [sys.executable, __file__, "--one", json.dumps(doc), str(n)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=budget + IMPORT_ALLOWANCE_S)
    except subprocess.TimeoutExpired:
        return False
    if proc.returncode == 3:
        return False
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])["s"] <= budget


def reach(doc: dict, budget: float) -> int:
    """Largest n that finishes, by doubling from n = 1 and bisecting the last gap."""
    good, bad = 0, 1
    while finishes(doc, bad, budget):
        good, bad = bad, 2 * bad
        if bad > N_CAP:
            return good
    while bad - good > 1:
        mid = (good + bad) // 2
        if finishes(doc, mid, budget):
            good = mid
        else:
            bad = mid
    return good


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=float, default=10.0, help="seconds per exact_redundancy call")
    parser.add_argument("--one", nargs=2, metavar=("SOURCE_JSON", "N"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        return one_call(args.one[0], int(args.one[1]))
    metrics = {f"oracle.reach_n.{name}": {"value": reach(doc, args.budget), "unit": "n"}
               for name, doc in probe_sources().items()}
    print(json.dumps({"budget_s": args.budget, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
