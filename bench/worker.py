"""One workload process: set up, then replay the plan in timed passes.

Usage (normally started by run.py):

  python3 bench/worker.py --plan RUN_DIR/plan.json --src SRC_DIR --setup-only
  python3 bench/worker.py --plan RUN_DIR/plan.json --src SRC_DIR --seconds S --trace 0|1

Prints one JSON object on its last stdout line.  --setup-only measures the
time to import shancode and load and validate the plan's sources, and
nothing else, then runs the host-speed probe (hostspeed.py) once.
Otherwise the plan runs in passes until --seconds have elapsed (at least
one pass), with a --setup-only probe in a fresh process after each of the
first passes; every call is timed between two host-speed probes.  With
--trace 1 the first half of the time runs untraced and the second half
traced, without probes, so the per-layer figures and the tracing overhead
come from the same process.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def setup(plan: dict, src: str):
    """Import shancode, load and validate every source; return (modules, sources, seconds)."""
    t0 = perf_counter()
    sys.path.insert(0, src)
    shancode = importlib.import_module("shancode")
    cli = importlib.import_module("shancode.cli")
    sources = {}
    for name, path in plan["source_paths"].items():
        source = shancode.MarkovSource.load(path)
        report = shancode.validate(source)
        if not report.ok:
            raise SystemExit(f"source {name} failed validation: {report.messages}")
        sources[name] = source
    return (shancode, cli), sources, perf_counter() - t0


def run_call(call, modules, sources):
    """Run one call; return the CLI exit code or the library results."""
    shancode, cli = modules
    if call["kind"] == "cli":
        return cli.main(list(call["argv"]))
    source = sources[call["source"]]
    cls = shancode.classify_mode(source, m_max=call["m_max"])
    values = []
    lo, hi = call["ms"]
    for m in range(lo, hi + 1):
        direct = shancode.char_fn(source, m, call["n_steps"], mode="direct")
        spectral = shancode.char_fn(source, m, call["n_steps"], mode="spectral")
        values.append((m, direct, spectral))
    return cls, values


def run_pass(plan, modules, sources, rescale=False):
    """Run every call once; return ({label: result}, seconds, rescaled seconds).

    Without rescale the pass is timed as a whole and the rescaled time is
    None.  With it, each call is timed between two runs of the host-speed
    probe, which are not counted, and rescaled to the probe's nominal speed
    by the mean of the two.
    """
    results = {}
    if not rescale:
        t0 = perf_counter()
        for call in plan["calls"]:
            results[call["label"]] = run_call(call, modules, sources)
        return results, perf_counter() - t0, None
    import hostspeed

    seconds = rescaled = 0.0
    before = hostspeed.probe()
    for call in plan["calls"]:
        t0 = perf_counter()
        results[call["label"]] = run_call(call, modules, sources)
        call_s = perf_counter() - t0
        after = hostspeed.probe()
        seconds += call_s
        rescaled += hostspeed.rescale(call_s, (before + after) / 2)
        before = after
    return results, seconds, rescaled


def save_outputs(plan, results) -> str:
    """Write library results next to the CLI outputs; return a digest of all outputs."""
    digest = hashlib.sha256()
    for call in plan["calls"]:
        out = Path(call["out"])
        if call["kind"] == "scan":
            cls, values = results[call["label"]]
            doc = {
                "mode": cls.mode, "M": cls.M, "flags": sorted(cls.flags),
                "char_fn": [[m, d.real, d.imag, s.real, s.imag] for m, d, s in values],
            }
            out.write_text(json.dumps(doc), encoding="utf-8")
        else:
            digest.update(repr(results[call["label"]]).encode())
        if out.exists():
            digest.update(out.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def timed_passes(plan, modules, sources, seconds, wrap=None, between=None, rescale=False):
    """Run passes until seconds have elapsed; return (pass times, output digests, rescaled pass times).

    between() runs after each pass, outside the timed section.  The
    rescaled times are empty without rescale.
    """
    times, digests, rescaled = [], [], []
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        if wrap is None:
            results, pass_s, pass_rescaled = run_pass(plan, modules, sources, rescale)
        else:
            results, pass_s, pass_rescaled = wrap(lambda: run_pass(plan, modules, sources))
        times.append(pass_s)
        if pass_rescaled is not None:
            rescaled.append(pass_rescaled)
        digests.append(save_outputs(plan, results))
        if between is not None:
            between()
    return times, digests, rescaled


def setup_probe(argv) -> dict:
    """Set-up time and host-speed probe of a fresh process running this file with --setup-only."""
    cmd = [sys.executable, __file__, *argv, "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))

    modules, sources, setup_s = setup(plan, args.src)
    out = {"setup_s": setup_s}
    if args.setup_only:
        import hostspeed  # imports numpy itself, so only after the timed set-up

        out["probe_s"] = hostspeed.probe()
        print(json.dumps(out))
        return 0

    if args.trace:
        import tracing  # the benchmark's tracer, next to this file

        half = args.seconds / 2
        out["pass_s"], out["digests"], _ = timed_passes(plan, modules, sources, half)
        tracer = tracing.Tracer()
        tracer.install()
        roots = []

        def traced(fn):
            roots.append(len(tracer.spans))
            return tracer.span("bench.pass", fn)

        try:
            out["traced_pass_s"], digests, _ = timed_passes(plan, modules, sources, half, traced)
        finally:
            tracer.uninstall()
        out["digests"] += digests
        out["layers"] = tracing.median_metrics([tracing.pass_metrics(tracer.spans, r) for r in roots])
        # one pass is representative; all of them would run to tens of MB
        tracer.write(Path(args.plan).parent / "spans.jsonl", roots[0], roots[1] if len(roots) > 1 else None)
    else:
        # Set-up probes run between passes, so their median spans the same
        # stretch of machine load as the passes.
        probes = out["setup_probes"] = []
        probe_argv = ["--plan", args.plan, "--src", args.src]

        def probe_setup():
            if len(probes) < SETUP_PROBES:
                probes.append(setup_probe(probe_argv))

        out["pass_s"], out["digests"], out["rescaled_pass_s"] = timed_passes(
            plan, modules, sources, args.seconds, between=probe_setup, rescale=True)
        while len(probes) < SETUP_PROBES:
            probe_setup()
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
