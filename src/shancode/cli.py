"""Command-line front end: classification, prediction and exact-value sweeps.

Commands are selected with --command and emit deterministic CSV (canonical)
or a one-to-one JSON mirror:

  classify    chain structure and mode classification of a source
  predict     asymptotic prediction rows over an n range
  exact       ground-truth redundancy rows (Monte Carlo appended on request)
  compare     exact values joined against predictions with |R - omega|
  sweep       compare over a labeled grid of sources read from a config file
  fejer-demo  sandwich functions, their Fejer sums and the error bound

Exit codes: 0 success, 2 validation failure, 3 resource limit.  Failures
additionally print a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import asymptotics, fejer, oracle
from .asymptotics import DEFAULT_M_MAX, DEFAULT_XI
from .errors import ResourceLimit, ShancodeError, ValidationFailure
from .sources import MarkovSource, classify_structure, validate

REPORT_FLAGS = ("boundary", "degenerate", "heuristic", "snap")


def parse_n_range(text: str) -> tuple[int, int]:
    """Parse "N" or an inclusive range "LO..HI"."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(text)
    if lo < 1 or hi < lo:
        raise ValidationFailure(f"empty or invalid n range {text!r}")
    return lo, hi


def _check_xi(xi: float) -> float:
    if not 0.0 < xi < 0.5:
        raise ValidationFailure(f"xi must lie in (0, 1/2), got {xi}")
    return xi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shancode", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--command",
        required=True,
        choices=["classify", "predict", "exact", "compare", "sweep", "fejer-demo"],
    )
    parser.add_argument("--source", help="source description JSON (sweep: grid config JSON)")
    parser.add_argument("--n", default="8", help='block length or inclusive range "LO..HI" (fejer-demo: truncation order)')
    parser.add_argument("--xi", type=float, default=DEFAULT_XI, help="boundary margin in (0, 1/2) (fejer-demo: knot theta)")
    parser.add_argument(
        "--m-max", type=int, default=DEFAULT_M_MAX, help="largest oscillation order M reported for a float source"
    )
    parser.add_argument("--samples", type=int, default=0, help="Monte Carlo samples to append to exact rows")
    parser.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _flags_cell(flags) -> str:
    return ";".join(sorted(set(flags) & set(REPORT_FLAGS)))


def _validated(source: MarkovSource, context: str = "") -> MarkovSource:
    report = validate(source)
    if not report.ok:
        raise ValidationFailure(context + "; ".join(report.messages))
    return source


def _load_source(args) -> MarkovSource:
    if not args.source:
        raise ValidationFailure("--source is required for this command")
    return _validated(MarkovSource.load(args.source))


# -- command implementations -------------------------------------------------


def _cmd_classify(args):
    source = _load_source(args)
    structure = classify_structure(source)
    row = {
        "irreducible": structure.irreducible,
        "period": structure.period,
        "positive": structure.positive,
        "mode": "",
        "M": None,
        "s": None,
        "w": "",
        "provenance": "",
        "flags": "",
    }
    if structure.irreducible:
        cls = asymptotics.classify_mode(source, m_max=args.m_max)
        row.update(
            mode=cls.mode,
            M=cls.M,
            s=cls.s,
            w="|".join(_fmt(x) for x in cls.w) if cls.w else "",
            provenance=cls.provenance,
            flags=_flags_cell(cls.flags),
        )
    else:
        row["mode"] = "reducible"
        row["flags"] = ""
    columns = ["irreducible", "period", "positive", "mode", "M", "s", "w", "provenance", "flags"]
    return columns, [row]


def _predict_rows(source, cls, args):
    rows = []
    for pred in asymptotics.predict_range(source, cls, *args.n_range, xi=args.xi):
        rows.append(
            {
                "n": pred.n,
                "mode": cls.mode,
                "M": cls.M,
                "omega": pred.omega,
                "lower": pred.lower,
                "upper": pred.upper,
                "boundary_terms": pred.boundary_terms,
                "flags": _flags_cell(pred.flags),
            }
        )
    return rows


def _cmd_predict(args):
    source = _load_source(args)
    cls = asymptotics.classify_mode(source, m_max=args.m_max)
    columns = ["n", "mode", "M", "omega", "lower", "upper", "boundary_terms", "flags"]
    return columns, _predict_rows(source, cls, args)


def _exact_rows(source, args):
    def row(rec):
        return {"n": rec.n, "method": rec.method, "value": rec.value, "stderr": rec.stderr,
                "flags": _flags_cell(rec.flags)}

    lo, hi = args.n_range
    if args.samples > 0:
        oracle.check_monte_carlo(args.samples, (lo + hi) * (hi - lo + 1) // 2)
    exact = oracle.exact_redundancy_range(source, lo, hi)
    if args.samples == 0:
        return [row(rec) for rec in exact]
    sampled = oracle.monte_carlo_redundancy_range(source, lo, hi, args.samples, args.seed)
    return [row(rec) for pair in zip(exact, sampled) for rec in pair]


def _cmd_exact(args):
    source = _load_source(args)
    columns = ["n", "method", "value", "stderr", "flags"]
    return columns, _exact_rows(source, args)


def _compare_rows(source, args):
    cls = asymptotics.classify_mode(source, m_max=args.m_max)
    rows = []
    records = oracle.exact_redundancy_range(source, *args.n_range)
    for rec, pred in zip(records, asymptotics.predict_range(source, cls, *args.n_range, xi=args.xi)):
        rows.append(
            {
                "n": rec.n,
                "mode": cls.mode,
                "M": cls.M,
                "exact_value": rec.value,
                "method": rec.method,
                "omega": pred.omega,
                "lower": pred.lower,
                "upper": pred.upper,
                "boundary_terms": pred.boundary_terms,
                "abs_diff": abs(rec.value - pred.omega),
                "flags": _flags_cell(set(pred.flags) | set(rec.flags)),
            }
        )
    return rows


_COMPARE_COLUMNS = [
    "n", "mode", "M", "exact_value", "method", "omega", "lower", "upper",
    "boundary_terms", "abs_diff", "flags",
]


def _cmd_compare(args):
    source = _load_source(args)
    return _COMPARE_COLUMNS, _compare_rows(source, args)


def _cmd_sweep(args):
    """Compare over a parameter grid: {"n": "LO..HI", "sources": [{"label", "source"|"path"}]}."""
    if not args.source:
        raise ValidationFailure("--source must point to a sweep config JSON")
    with open(args.source, "r", encoding="utf-8") as fh:
        grid = json.load(fh)
    if not isinstance(grid, dict) or not isinstance(grid.get("sources", []), list):
        raise ValidationFailure("a sweep config must be a JSON object whose sources are a list")
    if "n" in grid:
        args.n_range = parse_n_range(str(grid["n"]))
    if "xi" in grid:
        if not isinstance(grid["xi"], (int, float, str)):
            raise ValidationFailure(f"xi must be a number, got {grid['xi']!r}")
        args.xi = _check_xi(float(grid["xi"]))
    rows = []
    for entry in grid.get("sources", []):
        if not isinstance(entry, dict):
            raise ValidationFailure(f"grid entry {entry!r} is not a JSON object")
        label = str(entry.get("label", "?"))
        if "path" in entry:
            if not isinstance(entry["path"], str):
                raise ValidationFailure(f"grid entry {label!r}: path must be a string, got {entry['path']!r}")
            source = MarkovSource.load(Path(args.source).parent / entry["path"])
        else:
            source = MarkovSource.from_dict(entry["source"])
        for row in _compare_rows(_validated(source, f"grid entry {label!r}: "), args):
            rows.append({"label": label, **row})
    return ["label", *_COMPARE_COLUMNS], rows


def _cmd_fejer_demo(args):
    theta = args.xi
    N, hi = args.n_range
    if hi != N:
        raise ValidationFailure(f"fejer-demo takes one truncation order, got the range {N}..{hi}")
    bound = fejer.error_bound(N, theta)
    grid = np.arange(0.0, 1.0, 1.0 / 512.0)
    rows = []
    for f_id, direct in (
        ("rho_minus", fejer.rho_minus),
        ("delta", fejer.delta),
        ("rho_plus", fejer.rho_plus),
    ):
        approx = fejer.fejer_sum(f_id, grid, theta, N)
        exactv = direct(grid, theta)
        for u, fv, sv in zip(grid, exactv, approx):
            rows.append({"function": f_id, "u": float(u), "f": float(fv), "fejer_sum": float(sv), "bound": bound})
    return ["function", "u", "f", "fejer_sum", "bound"], rows


_COMMANDS = {
    "classify": _cmd_classify,
    "predict": _cmd_predict,
    "exact": _cmd_exact,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "fejer-demo": _cmd_fejer_demo,
}


# -- output -------------------------------------------------------------------


def render(columns, rows, fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])
        return buf.getvalue()
    doc = {"columns": list(columns), "rows": [{c: row[c] for c in columns} for row in rows]}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def run(args: argparse.Namespace) -> int:
    """Run the parsed command line, with n_range set to the parsed --n; return the exit code."""
    try:
        columns, rows = _COMMANDS[args.command](args)
        text = render(columns, rows, args.format)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except ResourceLimit as exc:
        _emit_error(exc)
        return 3
    except (ShancodeError, ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        _emit_error(exc)
        return 2
    return 0


def _emit_error(exc: Exception) -> None:
    sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.n_range = parse_n_range(args.n)
        _check_xi(args.xi)
        if args.m_max < 1:
            raise ValidationFailure(f"m-max must be at least 1, got {args.m_max}")
        if args.samples < 0:
            raise ValidationFailure(f"samples must be nonnegative, got {args.samples}")
        if not 0 <= args.seed < 2**128:
            raise ValidationFailure(f"--seed must satisfy 0 <= seed < 2**128, got {args.seed}")
    except (ValidationFailure, ValueError) as exc:
        _emit_error(exc)
        return 2
    return run(args)


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
