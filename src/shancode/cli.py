"""Command-line front end: classification, prediction and exact-value sweeps.

Commands are selected with --command and emit deterministic CSV (canonical)
or a one-to-one JSON mirror:

  classify    chain structure and mode classification of a source
  predict     asymptotic prediction rows over an n range
  exact       ground-truth redundancy rows (Monte Carlo appended on request)
  compare     exact values joined against predictions with |R - omega|
  sweep       compare over a labeled grid of sources read from a config file
  fejer-demo  sandwich functions, their Fejer sums and the error bound

Each command computes its whole output as a column table before render
writes a byte, and render formats and writes it BLOCK_ROWS rows at a time,
so memory holds the columns and one block of text, never the whole text.

Exit codes: 0 success, 2 validation failure, 3 resource limit.  Failures
additionally print a machine-readable JSON object on stderr, and print
nothing on stdout.  A reader of stdout that leaves early (`| head`) ends the
command quietly with exit code 0.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import asymptotics, fejer, oracle
from .asymptotics import DEFAULT_M_MAX, DEFAULT_XI
from .errors import ResourceLimit, ShancodeError, ValidationFailure
from .sources import MarkovSource, classify_structure, validate

REPORT_FLAGS = ("boundary", "degenerate", "heuristic", "row_sums_inexact", "snap")


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


_CSV_SPECIAL = re.compile('[,"\r\n]')


def _csv_quote(text: str) -> str:
    """A CSV field as csv.writer's QUOTE_MINIMAL writes it.

    A field that holds , " CR or LF goes in quotes, with each inner quote doubled.
    """
    return '"' + text.replace('"', '""') + '"' if _CSV_SPECIAL.search(text) else text


def _flags_cell(flags) -> str:
    return ";".join(sorted(set(flags) & set(REPORT_FLAGS)))


def _validated(source: MarkovSource, context: str = "") -> tuple[MarkovSource, frozenset]:
    """(source, its validation flags), which every result row of the source carries."""
    report = validate(source)
    if not report.ok:
        raise ValidationFailure(context + "; ".join(report.messages))
    return source, report.flags


def _load_source(args) -> tuple[MarkovSource, frozenset]:
    if not args.source:
        raise ValidationFailure("--source is required for this command")
    return _validated(MarkovSource.load(args.source))


# -- command implementations -------------------------------------------------
#
# Each command returns a column table: a dict from column name to a column,
# in print order, every column of one length.  A column is a float64 array,
# a range of ints, a _Constant, or a list of cells of any type _fmt prints.


@dataclass(frozen=True)
class _Constant:
    """A column of one cell repeated rows times; render prints the cell once per block."""

    cell: object
    rows: int

    def __len__(self) -> int:
        return self.rows

    def __getitem__(self, block: slice) -> "_Constant":
        return _Constant(self.cell, len(range(self.rows)[block]))

    def __iter__(self):
        return itertools.repeat(self.cell, self.rows)


def _cmd_classify(args):
    source, source_flags = _load_source(args)
    structure = classify_structure(source)
    row = {
        "irreducible": structure.irreducible,
        "period": structure.period,
        "positive": structure.positive,
        "mode": "reducible",
        "M": None,
        "s": None,
        "w": "",
        "provenance": "",
        "flags": _flags_cell(source_flags),
    }
    if structure.irreducible:
        cls = asymptotics.classify_mode(source, m_max=args.m_max)
        row.update(
            mode=cls.mode,
            M=cls.M,
            s=cls.s,
            w="|".join(_fmt(x) for x in cls.w) if cls.w else "",
            provenance=cls.provenance,
            flags=_flags_cell(cls.flags | source_flags),
        )
    return {name: [cell] for name, cell in row.items()}


def _cmd_predict(args):
    source, source_flags = _load_source(args)
    cls = asymptotics.classify_mode(source, m_max=args.m_max)
    cols = asymptotics.prediction_columns(source, cls, *args.n_range, xi=args.xi)
    cells = {flags: _flags_cell(flags | source_flags) for flags in (cols.flags, cols.flags | {"boundary"})}
    return {
        "n": cols.ns,
        "mode": _Constant(cls.mode, len(cols.ns)),
        "M": _Constant(cls.M, len(cols.ns)),
        "omega": cols.omega,
        "lower": cols.lower,
        "upper": cols.upper,
        "boundary_terms": cols.boundary_terms,
        "flags": [cells[flags] for flags in cols.row_flags()],
    }


def _cmd_exact(args):
    source, source_flags = _load_source(args)
    lo, hi = args.n_range
    if args.samples > 0:
        oracle.check_monte_carlo(args.samples, lo, hi, source)
    records = oracle.exact_redundancy_range(source, lo, hi)
    if args.samples > 0:
        sampled = oracle.monte_carlo_redundancy_range(source, lo, hi, args.samples, args.seed)
        records = [rec for pair in zip(records, sampled) for rec in pair]
    return {
        "n": [rec.n for rec in records],
        "method": [rec.method for rec in records],
        "value": np.array([rec.value for rec in records]),
        "stderr": [rec.stderr for rec in records],
        "flags": [_flags_cell(rec.flags | source_flags) for rec in records],
    }


def _compare_table(source, source_flags, args):
    cls = asymptotics.classify_mode(source, m_max=args.m_max)
    records = oracle.exact_redundancy_range(source, *args.n_range, cls=cls)
    cols = asymptotics.prediction_columns(source, cls, *args.n_range, xi=args.xi)
    exact = np.array([rec.value for rec in records])
    return {
        "n": cols.ns,
        "mode": _Constant(cls.mode, len(records)),
        "M": _Constant(cls.M, len(records)),
        "exact_value": exact,
        "method": [rec.method for rec in records],
        "omega": cols.omega,
        "lower": cols.lower,
        "upper": cols.upper,
        "boundary_terms": cols.boundary_terms,
        "abs_diff": np.abs(exact - cols.omega),
        "flags": [_flags_cell(flags | rec.flags | source_flags) for flags, rec in zip(cols.row_flags(), records)],
    }


_COMPARE_COLUMNS = [
    "n", "mode", "M", "exact_value", "method", "omega", "lower", "upper",
    "boundary_terms", "abs_diff", "flags",
]


def _cmd_compare(args):
    return _compare_table(*_load_source(args), args)


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
    tables = []
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
        table = _compare_table(*_validated(source, f"grid entry {label!r}: "), args)
        tables.append({"label": _Constant(label, len(table["n"])), **table})
    return {name: _concat([table[name] for table in tables]) for name in ["label", *_COMPARE_COLUMNS]}


def _concat(columns):
    """One column holding the given columns one after another."""
    if columns and all(isinstance(column, np.ndarray) for column in columns):
        return np.concatenate(columns)
    return [cell for column in columns for cell in column]


def _cmd_fejer_demo(args):
    theta = args.xi
    N, hi = args.n_range
    if hi != N:
        raise ValidationFailure(f"fejer-demo takes one truncation order, got the range {N}..{hi}")
    grid = np.arange(0.0, 1.0, 1.0 / 512.0)
    functions = {"rho_minus": fejer.rho_minus, "delta": fejer.delta, "rho_plus": fejer.rho_plus}
    # fejer_sum refuses an order over its cap before the bound reads N as a float
    return {
        "function": [f_id for f_id in functions for _ in grid],
        "u": np.tile(grid, len(functions)),
        "f": np.concatenate([direct(grid, theta) for direct in functions.values()]),
        "fejer_sum": fejer.fejer_sum(tuple(functions), grid, theta, N).ravel(),
        "bound": np.full(len(functions) * len(grid), fejer.error_bound(N, theta)),
    }


_COMMANDS = {
    "classify": _cmd_classify,
    "predict": _cmd_predict,
    "exact": _cmd_exact,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "fejer-demo": _cmd_fejer_demo,
}


# -- output -------------------------------------------------------------------

# rows formatted and written at a time: the text in memory is one block's
BLOCK_ROWS = 2**14
_JSON_CELL = json.JSONEncoder(allow_nan=False).encode
# per format: the %-format of one float cell (json.dumps prints float.__repr__),
# and the printers of a range cell and a list cell; no float or int needs CSV quotes
_CELLS = {
    "csv": ("%.12g\n", str, lambda x: _csv_quote(_fmt(x))),
    "json": ("%r\n", str, _JSON_CELL),
}


def _cells(column, fmt: str) -> list:
    """The printed cells of a column (or a slice of one) in the given format."""
    float_spec, int_cell, cell = _CELLS[fmt]
    if isinstance(column, np.ndarray):
        # one %-format over the whole block is faster than a call per cell
        values = tuple(column.tolist())
        return (float_spec * len(values) % values).split("\n")[:-1]
    if isinstance(column, range):
        return list(map(int_cell, column))
    if isinstance(column, _Constant):
        return [cell(column.cell)] * len(column)
    # each distinct cell object is printed once: cells such as flags are shared objects,
    # and identity keeps apart cells that compare equal but print apart (0.0, -0.0)
    printed = {id(x): x for x in column}
    printed = {key: cell(x) for key, x in printed.items()}
    return [printed[id(x)] for x in column]


def _block(table: dict, start: int, fmt: str):
    """The printed rows start .. start + BLOCK_ROWS - 1 of a column table, as tuples of cells."""
    return zip(*(_cells(column[start:start + BLOCK_ROWS], fmt) for column in table.values()))


def _csv_blocks(table: dict, rows: int):
    """The header and rows as csv.writer(lineterminator="\n") writes them, one join per block of rows.

    csv.writer would write a row of one empty field as "", where a join
    writes an empty line; every command's table has two or more columns.
    """
    yield ",".join(map(_csv_quote, table)) + "\n"
    for start in range(0, rows, BLOCK_ROWS):
        yield "\n".join(map(",".join, _block(table, start, "csv"))) + "\n"


def _json_blocks(table: dict, rows: int):
    """The text of json.dumps({"columns": [...], "rows": [{...}, ...]}, indent=2) + "\n", in blocks."""
    head, tail = json.dumps({"columns": list(table), "rows": []}, indent=2).rsplit("[]", 1)
    if not rows:
        yield head + "[]" + tail + "\n"
        return
    row = "    {\n" + ",\n".join(f"      {_JSON_CELL(name)}: %s" for name in table) + "\n    }"
    for start in range(0, rows, BLOCK_ROWS):
        yield (",\n" if start else head + "[\n") + ",\n".join(row % cells for cells in _block(table, start, "json"))
    yield "\n  ]" + tail + "\n"


def _check_json(table: dict) -> None:
    """Refuse a non-finite float, as json.dumps(allow_nan=False) does."""
    for column in table.values():
        if isinstance(column, range):
            continue
        if isinstance(column, _Constant):
            column = [column.cell]
        floats = column if isinstance(column, np.ndarray) else [x for x in column if isinstance(x, float)]
        if not np.isfinite(floats).all():
            raise ValueError("Out of range float values are not JSON compliant")


def render(table: dict, fmt: str, out: str | None = None) -> None:
    """Write a column table as CSV or as its JSON mirror to the file out, or to stdout.

    Every column is formatted once per block of BLOCK_ROWS rows and each
    block is written as it is formatted, so memory holds the columns and
    one block of text.  A refused table writes nothing and creates no file.
    """
    rows = len(next(iter(table.values())))
    if fmt == "json":
        _check_json(table)
    blocks = (_json_blocks if fmt == "json" else _csv_blocks)(table, rows)
    with open(out, "w", encoding="utf-8", newline="") if out else contextlib.nullcontext(sys.stdout) as fh:
        for text in blocks:
            fh.write(text)


def _emit_error(exc: Exception) -> None:
    sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")


def main(argv=None) -> int:
    """Validate and run a command line; return the exit code (see the module docstring)."""
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
        render(_COMMANDS[args.command](args), args.format, args.out)
    except BrokenPipeError:
        # the reader of stdout has gone, as under `| head`: end quietly, like
        # any filter, and send what Python flushes at exit to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except ResourceLimit as exc:
        _emit_error(exc)
        return 3
    except (ShancodeError, ValueError, OSError, KeyError) as exc:  # JSONDecodeError is a ValueError
        _emit_error(exc)
        return 2
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
