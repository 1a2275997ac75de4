"""Correctness gate: independent references, invariants and goldens.

Nothing here imports shancode.  The references work from the source JSON
documents and the mathematical definitions only:

- path enumeration in numpy for R_n = E[ceil(U) - U], U = -log2 mu(X^n),
  on every exact row whose source has at most 2^20 positive paths;
- Omega_n at large n for positive aperiodic exact sources, from the
  similarity relation -M log2 p(j|k) = s + w_k - w_j (mod 1) evaluated in
  60-digit decimal arithmetic;
- Monte Carlo rows within 5 standard errors of the exact row of the same n;
- char_fn "direct" and "spectral" agreeing to 1e-9 with modulus <= 1;
- Fejer sums within the analytic error bound of the function they approximate;
- numeric columns equal to the goldens recorded for the default seed.

Every output row and every library call is one operation.  A check returns
the number of failed operations and a list of messages.
"""

from __future__ import annotations

import csv
import json
import math
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

MAX_REFERENCE_PATHS = 2**20
EXACT_TOL = 1e-12
MC_STDERRS = 5.0
CHAR_FN_TOL = 1e-9
# Loose enough for a more accurate zeta (about 1e-10 at n = 10^6) and for
# the CSV's 12 significant digits; tight enough to catch any real change.
GOLDEN_TOL = 1e-8
SNAP_TOL = 1e-9  # -log2 mu within this of an integer counts as an integer
CLI_XI = 0.05  # the CLI's default boundary margin; the workloads do not pass --xi
RANGE_TOL = 1e-12  # float residue allowed outside [0, 1], e.g. omega = -2.8e-17 at n = 1


# -- sources -------------------------------------------------------------------


def source_fractions(doc: dict):
    """Initial vector and transition matrix as Fractions ("a/b" strings, ints or floats)."""
    return [Fraction(v) for v in doc["initial"]], [[Fraction(v) for v in row] for row in doc["transitions"]]


def source_arrays(doc: dict):
    init, T = source_fractions(doc)
    return np.array([float(v) for v in init]), np.array([[float(v) for v in row] for row in T])


def positive_path_count(doc: dict, n: int) -> int:
    init, P = source_arrays(doc)
    adj = (P > 0).astype(object)
    v = (init > 0).astype(object)
    for _ in range(n - 1):
        v = v.dot(adj)
    return int(sum(v))


def stationary(P: np.ndarray) -> np.ndarray:
    r = P.shape[0]
    A = P.T - np.eye(r)
    A[-1, :] = 1.0
    b = np.zeros(r)
    b[-1] = 1.0
    return np.linalg.solve(A, b)


# -- references ----------------------------------------------------------------


def redundancy_by_paths(doc: dict, n: int) -> float:
    """R_n by enumerating every positive-probability path in numpy."""
    init, P = source_arrays(doc)
    r = len(init)
    with np.errstate(divide="ignore"):
        neg_step = -np.log2(P)
    states = np.flatnonzero(init > 0)
    probs = init[states]
    negs = -np.log2(probs)
    for _ in range(n - 1):
        frm = np.repeat(states, r)
        to = np.tile(np.arange(r), len(states))
        keep = P[frm, to] > 0
        probs = (np.repeat(probs, r) * P[frm, to])[keep]
        negs = (np.repeat(negs, r) + neg_step[frm, to])[keep]
        states = to[keep]
    rho = np.ceil(negs) - negs
    rho[np.abs(negs - np.round(negs)) <= SNAP_TOL] = 0.0
    return math.fsum(probs * rho)


def _log2(q: Fraction) -> Decimal:
    return (Decimal(q.numerator).ln() - Decimal(q.denominator).ln()) / Decimal(2).ln()


def _frac(x: Decimal) -> Decimal:
    return x - x.to_integral_value(rounding=ROUND_FLOOR)


def omega_reference(doc: dict, M: int, n: int, xi: float):
    """(omega, boundary_terms, margin) for a positive aperiodic exact source.

    margin is the distance of the nearest rho(zeta_jk(n)) from a point where
    omega or boundary_terms jumps (0, xi, 1 - xi); below about 1e-7 the
    comparison is numerically ambiguous.
    """
    init, T = source_fractions(doc)
    r = len(init)
    with localcontext() as ctx:
        ctx.prec = 60
        s = _frac(-M * _log2(T[0][0]))
        w = [_frac(s + M * _log2(T[0][j])) for j in range(r)]
        for k in range(r):
            for j in range(r):
                d = _frac(-M * _log2(T[k][j]) - s - w[k] + w[j])
                if min(d, 1 - d) > Decimal(10) ** -40:
                    raise ValueError(f"M={M} does not satisfy the similarity at ({k}, {j})")
        pi = stationary(np.array([[float(v) for v in row] for row in T]))
        osc = boundary = 0.0
        margin = 1.0
        for j in range(r):
            if init[j] == 0:
                continue
            zj = (n - 1) * s + w[j] - M * _log2(init[j])
            for k in range(r):
                rho = float(_frac(-(zj - w[k])))  # ceil(z) - z
                weight = float(init[j]) * pi[k]
                osc += weight * rho
                if not (xi < rho < 1.0 - xi):
                    boundary += weight
                margin = min(margin, rho, 1.0 - rho, abs(rho - xi), abs(rho - (1.0 - xi)))
    return float(0.5 * (1.0 - 1.0 / M) + osc / M), float(boundary / M), margin


# -- helpers -------------------------------------------------------------------


def _number(cell: str):
    if cell == "":
        return None
    try:
        return float(cell)
    except ValueError:
        return cell


def numeric_table(rows: list[dict]) -> dict:
    """The columns with a number in some cell and only numbers or blanks, as a golden record."""
    if not rows:
        return {"columns": [], "rows": []}
    cells = {c: [_number(row[c]) for row in rows] for c in rows[0]}
    columns = [c for c, v in cells.items()
               if any(isinstance(x, float) for x in v) and not any(isinstance(x, str) for x in v)]
    return {"columns": columns, "rows": [[_number(row[c]) for c in columns] for row in rows]}


def _close(a, b, tol=GOLDEN_TOL) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= tol * (1.0 + abs(b))


# -- per-call checks -----------------------------------------------------------


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_cli(call: dict, doc: dict | None, golden: Path | None, refs: dict):
    """Check one CLI call's CSV against golden (a CSV, or None); return (failed ops, messages)."""
    path = Path(call["out"])
    if not path.exists():
        return call["ops"], [f"{call['label']}: no output"]
    rows = read_csv(path)
    if len(rows) != call["ops"]:
        return call["ops"], [f"{call['label']}: {len(rows)} rows, expected {call['ops']}"]
    command = call["argv"][call["argv"].index("--command") + 1]
    bad = [False] * len(rows)
    msgs = []

    def fail(i, why):
        bad[i] = True
        msgs.append(f"{call['label']} row {i}: {why}")

    if golden is not None:
        got, want = numeric_table(rows), numeric_table(read_csv(golden))
        if got["columns"] != want["columns"] or len(got["rows"]) != len(want["rows"]):
            return call["ops"], [f"{call['label']}: numeric columns {got['columns']} or row count "
                                 f"differ from the golden's {want['columns']}"]
        for i, (a_row, b_row) in enumerate(zip(got["rows"], want["rows"])):
            for col, a, b in zip(got["columns"], a_row, b_row):
                if not _close(a, b):
                    fail(i, f"{col}={a} differs from golden {b}")
                    break

    def exact_reference(i, n, value):
        key = (call["source"], n)
        if key not in refs:
            refs[key] = (redundancy_by_paths(doc, n)
                         if positive_path_count(doc, n) <= MAX_REFERENCE_PATHS else None)
        if refs[key] is not None and abs(value - refs[key]) > EXACT_TOL:
            fail(i, f"exact value {value!r} differs from path enumeration {refs[key]!r}")

    last_exact = {}
    for i, row in enumerate(rows):
        if command == "compare":
            exact_reference(i, int(row["n"]), float(row["exact_value"]))
        elif command == "exact":
            n, value = int(row["n"]), float(row["value"])
            if row["method"] == "monte_carlo":
                stderr = float(row["stderr"])
                if n not in last_exact or abs(value - last_exact[n]) > MC_STDERRS * stderr:
                    fail(i, f"monte carlo {value} +- {stderr} is not within 5 stderr of {last_exact.get(n)}")
            else:
                last_exact[n] = value
                exact_reference(i, n, value)
        elif command == "predict" and call["seeded"]:
            n, M = int(row["n"]), int(row["M"])
            omega, boundary, margin = omega_reference(doc, M, n, CLI_XI)
            if margin > 1e-7 and not (_close(float(row["omega"]), omega)
                                      and _close(float(row["boundary_terms"]), boundary)):
                fail(i, f"omega {row['omega']} / boundary {row['boundary_terms']} differ from "
                        f"the decimal reference {omega!r} / {boundary!r}")
        elif command == "fejer-demo":
            if abs(float(row["f"]) - float(row["fejer_sum"])) > float(row["bound"]) + 1e-12:
                fail(i, "Fejer sum outside the error bound")
        if command in ("compare", "predict"):
            lo, om, hi = float(row["lower"]), float(row["omega"]), float(row["upper"])
            if not (lo <= om <= hi and -RANGE_TOL <= om <= 1.0 + RANGE_TOL):
                fail(i, f"sandwich {lo} <= {om} <= {hi} violated")
    return sum(bad), msgs


def check_scan(call: dict, golden: Path | None):
    """Check one library scan against golden (a JSON, or None); return (failed ops, messages)."""
    path = Path(call["out"])
    if not path.exists():
        return call["ops"], [f"{call['label']}: no output"]
    doc = json.loads(path.read_text(encoding="utf-8"))
    want = json.loads(golden.read_text(encoding="utf-8")) if golden is not None else None
    msgs = []
    failed = 0
    if want is not None and (want["mode"], want["M"]) != (doc["mode"], doc["M"]):
        failed += 1
        msgs.append(f"{call['label']}: classified {doc['mode']}/{doc['M']}, golden {want['mode']}/{want['M']}")
    lo, hi = call["ms"]
    if [row[0] for row in doc["char_fn"]] != list(range(lo, hi + 1)):
        return call["ops"], msgs + [f"{call['label']}: wrong frequencies"]
    for i, (m, dre, dim, sre, sim) in enumerate(doc["char_fn"]):
        direct, spectral = complex(dre, dim), complex(sre, sim)
        ok_direct = abs(direct) <= 1.0 + 1e-12
        ok_spectral = abs(spectral) <= 1.0 + 1e-12 and abs(direct - spectral) <= CHAR_FN_TOL
        if want is not None:
            g = want["char_fn"][i]
            ok_direct &= _close(dre, g[1]) and _close(dim, g[2])
            ok_spectral &= _close(sre, g[3]) and _close(sim, g[4])
        if not (ok_direct and ok_spectral):
            msgs.append(f"{call['label']} m={m}: direct {direct} spectral {spectral}")
        failed += (not ok_direct) + (not ok_spectral)
    return failed, msgs


def golden_path(golden_dir: Path, call: dict) -> Path:
    return golden_dir / Path(call["out"]).name


def check_plan(plan: dict, golden_dir: Path | None, use_golden: bool):
    """Check every call of the last pass; return (failed ops per pass, messages).

    Goldens in golden_dir apply to every call on the default seed
    (use_golden) and to the calls whose inputs do not depend on the seed.
    golden_dir None skips them, which is how they are recorded.
    """
    refs: dict = {}
    failed, msgs = 0, []
    for call in plan["calls"]:
        golden = None
        if golden_dir is not None and (use_golden or not call["seeded"]):
            golden = golden_path(golden_dir, call)
            if not golden.is_file():
                failed += call["ops"]
                msgs.append(f"{call['label']}: missing golden {golden}")
                continue
        if call["kind"] == "cli":
            doc = plan["sources"].get(call["source"]) if call["source"] else None
            bad, m = check_cli(call, doc, golden, refs)
        else:
            bad, m = check_scan(call, golden)
        failed += bad
        msgs += m
    return failed, msgs
