"""shancode benchmark: end-to-end and per-layer figures for one workload.

Usage, from the repository root:

  python3 bench/run.py --workload compare-oracle --seed 0 --seconds 30 --trace 0
  python3 bench/run.py --workload spectral-scan --trace 1     # per-layer figures
  python3 bench/run.py --workload mc-sample --record-golden   # replace the goldens (seed 0 only)

The workload runs in its own worker process (bench/worker.py) so that its
peak resident memory is its own.  With --trace 0 the set-up time is also
measured, as the median of several fresh processes, started between passes,
that only import shancode and load the sources.  End-to-end times are
rescaled to the nominal speed of a host-speed probe (bench/hostspeed.py)
timed beside each call and each set-up, because the host's core speed
drifts between runs.  Outputs are checked
against the references in bench/check.py.  The last stdout line is one
JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

with the end_to_end metrics of BENCHMARK.json for --trace 0 and its
per_layer metrics for --trace 1.  Scratch files (sources, outputs, spans)
go to .bench_out/ at the repository root.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import check
import hostspeed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DIR = BENCH_DIR / "golden"
# The worker stops starting passes after --seconds; one pass and the set-up
# probes take a few seconds more.
WORKER_SLACK_S = 90


def run_worker(plan_path: Path, *extra: str, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--plan", str(plan_path), "--src", str(SRC), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "shancode").glob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="write the outputs of this run as the golden (default seed only)")
    args = parser.parse_args(argv)

    if not (SRC / "shancode" / "__init__.py").is_file():
        sys.stderr.write(f"error: no shancode package under {SRC}; run from a repository checkout\n")
        return 2
    if args.record_golden and args.seed != workloads.DEFAULT_SEED:
        sys.stderr.write("error: goldens are recorded for the default seed only\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    golden_dir = GOLDEN_DIR / args.workload
    if not args.record_golden and not golden_dir.is_dir():
        sys.stderr.write(f"error: missing goldens {golden_dir}\n")
        return 2

    run_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    plan = workloads.materialize(workloads.build_plan(args.workload, args.seed), run_dir)
    plan_path = run_dir / "plan.json"

    result = run_worker(plan_path, "--seconds", str(args.seconds), "--trace", str(args.trace),
                        timeout=args.seconds + WORKER_SLACK_S)
    (run_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    bad_per_pass, messages = check.check_plan(plan, None if args.record_golden else golden_dir,
                                              args.seed == workloads.DEFAULT_SEED)

    # Outputs on disk are the last pass's; a pass whose digest differs from it
    # produced different outputs from the same inputs, and all of its
    # operations count as failed.
    ops = sum(call["ops"] for call in plan["calls"])
    digests = result["digests"]
    same = sum(d == digests[-1] for d in digests)
    attempted = ops * len(digests)
    failed = bad_per_pass * same + ops * (len(digests) - same)
    if same < len(digests):
        messages.append(f"{len(digests) - same} of {len(digests)} passes produced different outputs")
    for line in messages[:20]:
        sys.stderr.write(f"check: {line}\n")

    if args.record_golden:
        if failed:
            sys.stderr.write("error: not recording a golden from a run that fails its checks\n")
            return 1
        shutil.rmtree(golden_dir, ignore_errors=True)
        golden_dir.mkdir(parents=True)
        for call in plan["calls"]:
            shutil.copyfile(call["out"], check.golden_path(golden_dir, call))

    if args.trace:
        values = dict(result["layers"])
        values["trace.overhead_s"] = (statistics.mean(result["traced_pass_s"])
                                      - statistics.mean(result["pass_s"]))
        values["src.lines"] = src_lines()
        wanted = spec["per_layer"]
    else:
        # Times rescaled to the host-speed probe's nominal speed (see
        # hostspeed.py); the first pass warms caches and is left out.
        rescaled = result["rescaled_pass_s"]
        values = {
            "wall_s": statistics.median(rescaled[1:] or rescaled),
            "setup_s": statistics.median(hostspeed.rescale(p["setup_s"], p["probe_s"])
                                         for p in result["setup_probes"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
