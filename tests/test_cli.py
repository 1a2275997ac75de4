"""Command-line behavior: determinism, schemas, exit codes."""

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from decimal import ROUND_CEILING, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import shancode
from shancode import MarkovSource, ceil_defect, classify_mode, cli
from shancode.cli import REPORT_FLAGS, _cells, main, parse_n_range
from shancode.errors import ResourceLimit
from tests.conftest import decimal_path_reference, float_copy

LOG3 = math.log2(3.0)


# the directory holding the imported shancode package, so the subprocess runs the same code
PACKAGE_ROOT = str(Path(shancode.__file__).resolve().parent.parent)


CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))}


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "shancode.cli", *args], capture_output=True, text=True, env=CLI_ENV
    )
    return proc.returncode, proc.stdout, proc.stderr


def write_source(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def permutation_path(tmp_path):
    return write_source(
        tmp_path,
        "ex1.json",
        {"r": 2, "initial": ["1/3", "2/3"], "transitions": [["1/3", "2/3"], ["2/3", "1/3"]]},
    )


@pytest.fixture()
def convergent_path(tmp_path):
    """An exact source with an irrational cycle ratio, so the lattice DP takes its exact rows."""
    return write_source(
        tmp_path,
        "convergent.json",
        {"r": 2, "initial": ["1/2", "1/2"], "transitions": [["3/8", "5/8"], ["5/8", "3/8"]]},
    )


@pytest.fixture()
def dyadic_path(tmp_path):
    return write_source(
        tmp_path,
        "dyadic.json",
        {"r": 2, "initial": ["1/2", "1/2"], "transitions": [["1/2", "1/2"], ["1/2", "1/2"]]},
    )


@pytest.fixture()
def float_path(tmp_path):
    return write_source(
        tmp_path,
        "float.json",
        {"r": 2, "initial": [0.5, 0.5], "transitions": [[0.3, 0.7], [0.6, 0.4]]},
    )


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, text
    return rows


def test_parse_n_range():
    assert parse_n_range("7") == (7, 7)
    assert parse_n_range("4..14") == (4, 14)
    with pytest.raises(Exception):
        parse_n_range("9..4")
    with pytest.raises(Exception):
        parse_n_range("0")


def test_classify_dyadic_degenerate(dyadic_path):
    rc, out, _ = run_cli("--command", "classify", "--source", dyadic_path)
    assert rc == 0
    row = parse_csv(out)[0]
    assert row["mode"] == "oscillatory" and row["M"] == "1"
    assert "degenerate" in row["flags"].split(";")


def test_classify_reducible(tmp_path):
    path = write_source(
        tmp_path, "red.json", {"r": 2, "initial": [1, 0], "transitions": [["2/3", "1/3"], [0, 1]]}
    )
    rc, out, _ = run_cli("--command", "classify", "--source", path)
    assert rc == 0
    row = parse_csv(out)[0]
    assert row["irreducible"] == "false" and row["mode"] == "reducible"


def test_predict_convergent_constant_half(float_path):
    rc, out, _ = run_cli("--command", "predict", "--source", float_path, "--n", "3..8")
    assert rc == 0
    rows = parse_csv(out)
    assert len(rows) == 6
    for row in rows:
        assert row["mode"] == "convergent"
        assert float(row["omega"]) == 0.5
        assert "heuristic" in row["flags"].split(";")


def test_compare_permutation_accurate(permutation_path):
    rc, out, _ = run_cli("--command", "compare", "--source", permutation_path, "--n", "4..14")
    assert rc == 0
    rows = parse_csv(out)
    for row in rows:
        n = int(row["n"])
        assert float(row["exact_value"]) == pytest.approx(ceil_defect(n * LOG3), abs=1e-9)
        assert float(row["abs_diff"]) <= 1e-9


def test_compare_decay_on_order2_source(tmp_path, m2_source):
    path = write_source(tmp_path, "m2.json", m2_source.to_dict())
    rc, out, _ = run_cli("--command", "compare", "--source", path, "--n", "4..16")
    assert rc == 0
    rows = parse_csv(out)
    # every row carries the source's row_sums_inexact; the rows with no other flag
    diffs = {int(r["n"]): float(r["abs_diff"]) for r in rows if r["flags"] == "row_sums_inexact"}
    # genuine second-order decay: the gap shrinks as n grows (parity-paired)
    ns = sorted(diffs)
    assert diffs[ns[-1]] < diffs[ns[0]]
    assert all(int(r["M"]) == 2 for r in rows)


def test_exact_with_monte_carlo_rows(permutation_path):
    rc, out, _ = run_cli(
        "--command", "exact", "--source", permutation_path, "--n", "3..5",
        "--samples", "400", "--seed", "9",
    )
    assert rc == 0
    rows = parse_csv(out)
    assert [r["method"] for r in rows] == ["lifted_chain", "monte_carlo"] * 3
    for row in rows:
        assert math.isfinite(float(row["value"]))
        if row["method"] == "monte_carlo":
            assert math.isfinite(float(row["stderr"]))


def test_byte_identical_reruns(permutation_path, tmp_path):
    args = (
        "--command", "exact", "--source", permutation_path, "--n", "2..6",
        "--samples", "300", "--seed", "4",
    )
    outputs = set()
    for tag in ("a", "b"):
        target = tmp_path / f"out_{tag}.csv"
        rc, _, _ = run_cli(*args, "--out", str(target))
        assert rc == 0
        outputs.add(target.read_bytes())
    assert len(outputs) == 1


def csv_cell(value):
    """The CSV text of a JSON cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def test_json_mirrors_csv(permutation_path, tmp_path, capsys):
    grid = {"n": "2..4", "sources": [{"label": "a, b", "path": permutation_path}, {"label": "c", "source": PERMUTATION}]}
    for argv in (
        ["--command", "classify", "--source", permutation_path],
        ["--command", "predict", "--source", permutation_path, "--n", "3..5"],
        ["--command", "exact", "--source", permutation_path, "--n", "3..5", "--samples", "50", "--seed", "2"],
        ["--command", "compare", "--source", permutation_path, "--n", "2..6"],
        ["--command", "sweep", "--source", write_source(tmp_path, "grid.json", grid)],
        ["--command", "fejer-demo", "--n", "8"],
    ):
        assert main(argv) == 0
        csv_rows = parse_csv(capsys.readouterr().out)
        assert main([*argv, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["columns"] == list(csv_rows[0].keys()), argv
        assert [{c: csv_cell(v) for c, v in jrow.items()} for jrow in doc["rows"]] == csv_rows, argv


def test_flags_vocabulary(permutation_path, dyadic_path, float_path):
    seen = set()
    for path in (permutation_path, dyadic_path, float_path):
        for command in ("predict", "compare"):
            rc, out, _ = run_cli("--command", command, "--source", path, "--n", "2..6")
            assert rc == 0
            for row in parse_csv(out):
                seen.update(f for f in row["flags"].split(";") if f)
    assert seen <= set(REPORT_FLAGS)


def test_validation_flags_reach_every_row(m2_source, tmp_path, monkeypatch, capsys):
    # the half-exponent source's rows sum to 1 only within 1e-13; every row printed for
    # it says so, from the one validate call that admitted it
    from shancode import cli

    calls = []

    def counting_validate(source):
        calls.append(source)
        return shancode.validate(source)

    monkeypatch.setattr(cli, "validate", counting_validate)
    path = write_source(tmp_path, "m2.json", m2_source.to_dict())
    for command in ("compare", "predict"):
        calls.clear()
        assert main(["--command", command, "--source", path, "--n", "1..6"]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 6 and len(calls) == 1
        assert all("row_sums_inexact" in row["flags"].split(";") for row in rows)


def test_exit_code_validation_failure(tmp_path):
    path = write_source(
        tmp_path, "bad.json",
        {"r": 2, "initial": ["1/3", "1/3"], "transitions": [["1/2", "1/2"], ["1/2", "1/2"]]},
    )
    rc, out, err = run_cli("--command", "classify", "--source", path)
    assert rc == 2 and not out
    payload = json.loads(err)
    assert payload["error"] == "ValidationFailure"


ONE_STATE = {"r": 1, "initial": [1], "transitions": [[1]]}
PERMUTATION = {"r": 2, "initial": ["1/3", "2/3"], "transitions": [["1/3", "2/3"], ["2/3", "1/3"]]}


@pytest.mark.parametrize("command, doc", [
    ("classify", [ONE_STATE]),
    ("classify", {"r": 2, "initial": 5, "transitions": [[0.5, 0.5], [0.5, 0.5]]}),
    ("classify", {"r": 2, "initial": [0.5, 0.5], "transitions": [[0.5, None], [0.5, 0.5]]}),
    ("classify", {"r": 2, "initial": ["1/2", "1/2"], "transitions": [["1/0", "1/2"], ["1/2", "1/2"]]}),
    ("sweep", [{"label": "one", "source": ONE_STATE}]),
    ("sweep", {"n": "3..4", "sources": ["one"]}),
    ("classify", {**ONE_STATE, "r": None}),
    ("sweep", {"xi": None, "sources": [{"label": "one", "source": ONE_STATE}]}),
    ("sweep", {"n": "3..4", "sources": [{"label": "one", "path": 5}]}),
    ("classify", {**PERMUTATION, "r": 2.9}),
    ("classify", {**ONE_STATE, "r": True}),
    ("classify", {"r": 1, "initial": [True], "transitions": [[True]]}),
], ids=["source-list", "initial-int", "null-probability", "zero-denominator", "grid-list", "grid-entry-string",
        "r-null", "grid-xi-null", "grid-path-number", "r-float", "r-bool", "probability-bool"])
def test_malformed_json_exits_2(tmp_path, command, doc):
    rc, out, err = run_cli("--command", command, "--source", write_source(tmp_path, "bad.json", doc))
    assert rc == 2 and not out
    assert json.loads(err)["error"] in ("ValidationFailure", "ValueError")


@pytest.mark.parametrize("spec, message", [
    ("2^(-1000000000)", "underflows"),
    ("1/3 * 2^(1/20000000)", "transition row 0 sums to"),
    ("2^(-1" + "0" * 400 + ")", "underflows"),
    ("2^(1000000000)", "exceeds 1"),
], ids=["exponent-underflow", "tiny-fractional-exponent", "400-digit-exponent", "exponent-overflow"])
def test_extreme_exponents_rejected_quickly(tmp_path, capsys, spec, message):
    # the value is decided from exp2 and the mantissa's bit lengths: no huge power and no float overflow
    doc = {"r": 2, "initial": ["1/2", "1/2"], "transitions": [[spec, "1/2"], ["1/2", "1/2"]]}
    path = write_source(tmp_path, "extreme.json", doc)
    t0 = time.perf_counter()
    rc = main(["--command", "classify", "--source", path])
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert rc == 2 and not out and elapsed < 1.0
    payload = json.loads(err)
    assert payload["error"] == "ValidationFailure" and message in payload["message"]


def test_over_long_predict_range_refused_before_any_work(permutation_path, monkeypatch, capsys):
    from shancode import asymptotics

    def no_work(*args):
        raise AssertionError("a refused prediction ran")

    monkeypatch.setattr(asymptotics, "pair_rho", no_work)
    monkeypatch.setattr(asymptotics, "stationary_distribution", no_work)
    # 2^22 cells hold 2^20 rows at r = 2; one more row is refused
    rc = main(["--command", "predict", "--source", permutation_path, "--n", f"1..{2**20 + 1}"])
    out, err = capsys.readouterr()
    assert rc == 3 and not out
    payload = json.loads(err)
    assert payload["error"] == "ResourceLimit" and f"> {asymptotics.PREDICT_CELL_CAP}" in payload["message"]
    source = MarkovSource.from_dict(PERMUTATION)
    with pytest.raises(AssertionError, match="a refused prediction ran"):  # 2^20 rows are admitted
        asymptotics.prediction_columns(source, classify_mode(source), 1, 2**20)


def test_exit_code_resource_limit(convergent_path):
    from shancode.oracle import DP_MOVE_BUDGET

    rc, out, err = run_cli("--command", "exact", "--source", convergent_path, "--n", "4096")
    assert rc == 3 and not out
    payload = json.loads(err)
    assert payload["error"] == "ResourceLimit"
    assert "reached n = " in payload["message"] and f"key moves > {DP_MOVE_BUDGET}" in payload["message"]


def test_oscillatory_exact_past_the_dp_budget(permutation_path):
    # an oscillatory exact source takes the lifted chain, not the DP: rho(4096 log2 3)
    rc, out, err = run_cli("--command", "exact", "--source", permutation_path, "--n", "4096")
    assert rc == 0 and not err
    (row,) = parse_csv(out)
    assert row["method"] == "lifted_chain"
    assert abs(float(row["value"]) - ceil_defect(4096 * LOG3)) <= 1e-11


def rich_exact_doc(r: int) -> dict:
    """An exact source whose initial vector and rows are w_i / sum(w), w_i drawn by random.Random(1)."""
    rng = random.Random(1)

    def row():
        ws = [rng.randint(1, 100000) for _ in range(r)]
        return [str(Fraction(w, sum(ws))) for w in ws]

    return {"r": r, "initial": row(), "transitions": [row() for _ in range(r)]}


def test_wide_exact_lattice_refused_by_its_cell_cap(tmp_path, capsys):
    from shancode.oracle import DP_CELL_CAP

    # 389 key columns: the step to n = 4 moves 331,776 keys, under the move budget, but
    # 129,060,864 int64 cells, which once took 12 s and 4 GB; n = 3 is still admitted
    path = write_source(tmp_path, "r24.json", rich_exact_doc(24))
    t0 = time.perf_counter()
    rc = main(["--command", "exact", "--source", path, "--n", "4"])
    out, err = capsys.readouterr()
    assert rc == 3 and not out and time.perf_counter() - t0 < 10
    payload = json.loads(err)
    assert payload["error"] == "ResourceLimit" and f"> DP_CELL_CAP = {DP_CELL_CAP}" in payload["message"]
    # n = 3 against a 50-digit sum over its 13,824 paths (0.49356511604485539...)
    source = MarkovSource.load(path)
    assert abs(shancode.exact_redundancy(source, 3).value - float(decimal_path_reference(source, 3))) <= 5e-16


def no_dp(*args):
    raise AssertionError("the DP ran on a refused request")


def test_resource_limit_refused_before_any_work(convergent_path, monkeypatch, capsys):
    from shancode import oracle

    # with no budget even the first step is refused, before any readout or move
    monkeypatch.setattr(oracle, "DP_MOVE_BUDGET", 0)
    monkeypatch.setattr(oracle, "_merged", no_dp)
    rc = main(["--command", "exact", "--source", convergent_path, "--n", "198..201"])
    out, err = capsys.readouterr()
    assert rc == 3 and not out
    payload = json.loads(err)
    assert payload["error"] == "ResourceLimit" and "reached n = 1 of 201" in payload["message"]


def test_compare_far_out_prints_the_true_gap(permutation_path, capsys):
    # at n = 10^9 R_n = rho(n log2 3) from the lifted chain, and abs_diff is |R_n - Omega_n|
    n = 10**9
    with localcontext() as ctx:
        ctx.prec = 60
        u = n * Decimal(3).ln() / Decimal(2).ln()
        want = float(u.to_integral_value(ROUND_CEILING) - u)
    assert main(["--command", "compare", "--source", permutation_path, "--n", str(n), "--format", "json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["method"] == "lifted_chain" and abs(row["exact_value"] - want) <= 1e-12
    assert row["abs_diff"] == abs(row["exact_value"] - row["omega"])


def test_monte_carlo_rank_tables_refused_before_any_work(float_path, monkeypatch, capsys):
    from shancode import oracle

    # r = 2 rows and the initial vector hold the thresholds 0.3, 0.6 and 0.5:
    # (r + 1)(T + 1) = 12 int64 next states and 12 float64 steps, 192 bytes
    monkeypatch.setattr(oracle, "_forward", no_dp)
    monkeypatch.setattr(oracle, "MC_TABLE_BYTES_CAP", 191)
    rc = main(["--command", "exact", "--source", float_path, "--n", "3", "--samples", "10"])
    out, err = capsys.readouterr()
    assert rc == 3 and not out
    payload = json.loads(err)
    assert payload["error"] == "ResourceLimit" and "take 192 > MC_TABLE_BYTES_CAP = 191 bytes" in payload["message"]
    with pytest.raises(ResourceLimit, match="rank tables"):
        oracle.monte_carlo_redundancy(MarkovSource.load(float_path), 3, 10, seed=0)
    monkeypatch.setattr(oracle, "MC_TABLE_BYTES_CAP", 192)
    oracle.check_monte_carlo(10, 3, 3, MarkovSource.load(float_path))


def test_list_cells_printed_once_per_object(monkeypatch):
    from shancode import cli

    printed = []

    def counting_fmt(value):
        printed.append(value)
        return cli._fmt(value)

    monkeypatch.setitem(cli._CELLS, "csv", (*cli._CELLS["csv"][:2], counting_fmt))
    column = ["oscillatory"] * 5 + [0.0, -0.0, None, True, 1] * 2
    assert _cells(column, "csv") == ["oscillatory"] * 5 + ["0", "-0", "", "true", "1"] * 2
    # one call per object: 0.0 and -0.0 are equal but distinct, and True == 1 prints apart from 1
    assert printed == ["oscillatory", 0.0, -0.0, None, True, 1]


def csv_writer_text(table: dict, lineterminator: str = "\n") -> str:
    """The header and rows of a column table as csv.writer writes the printed cells, rows ended by "\n".

    Every row is written alone with the given lineterminator, which then
    gives way to "\n": at "\r\n" csv.writer quotes a field holding CR or
    LF on any Python, where at "\n" some leave a lone CR unquoted.
    """
    columns = [column.tolist() if isinstance(column, np.ndarray) else column for column in table.values()]
    text = []
    for row in [list(table), *zip(*([cli._fmt(x) for x in column] for column in columns))]:
        buf = io.StringIO()
        csv.writer(buf, lineterminator=lineterminator).writerow(row)
        text.append(buf.getvalue().removesuffix(lineterminator) + "\n")
    return "".join(text)


CSV_TEXT = st.text(st.sampled_from('ab ,"\r\n;-|'), max_size=5)
CSV_CELLS = st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20), st.floats(), CSV_TEXT,
                      st.sampled_from(["", '""', -0.0, math.nan, math.inf, -math.inf, "a,b", 'say "x"', "a\r\nb"]))


@st.composite
def csv_tables(draw):
    rows = draw(st.integers(0, 3 * 4 + 1))
    names = draw(st.lists(CSV_TEXT, min_size=2, max_size=4, unique=True))
    kinds = st.sampled_from(["floats", "range", "cells", "repeated"])
    table = {}
    for name in names:
        kind = draw(kinds)
        if kind == "floats":
            table[name] = np.array(draw(st.lists(st.floats(), min_size=rows, max_size=rows)), dtype=float)
        elif kind == "range":
            start = draw(st.integers(-5, 10**12))
            table[name] = range(start, start + rows)
        elif kind == "cells":
            table[name] = draw(st.lists(CSV_CELLS, min_size=rows, max_size=rows))
        else:  # a few objects, each in many rows, as the mode and flags columns hold them
            pool = st.sampled_from(draw(st.lists(CSV_CELLS, min_size=1, max_size=3)))
            table[name] = [draw(pool) for _ in range(rows)]
    return table, rows


@given(csv_tables())
def test_csv_text_is_what_csv_writer_writes(drawn):
    table, rows = drawn
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cli, "BLOCK_ROWS", 4)  # blocks of 4 rows: no golden reaches a block boundary
        blocks = list(cli._csv_blocks(table, rows))
    text = "".join(blocks)
    assert len(blocks) == 1 + -(-rows // 4)
    assert text == csv_writer_text(table, "\r\n")
    if "\r" not in text:
        assert text == csv_writer_text(table)
    cells = [[cli._fmt(x) for x in list(column)] for column in table.values()]
    assert list(csv.reader(io.StringIO(text, newline=""))) == [list(table), *map(list, zip(*cells))]


def test_monte_carlo_over_budget_refused_before_any_work(permutation_path, monkeypatch, capsys):
    from shancode import oracle

    monkeypatch.setattr(oracle, "_forward", no_dp)
    # 2^20 samples over n = 1..64 draw 2^20 * 2080 uniforms, over the 2^30 cap
    rc = main(["--command", "exact", "--source", permutation_path, "--n", "1..64", "--samples", str(2**20)])
    out, err = capsys.readouterr()
    assert rc == 3 and not out
    payload = json.loads(err)
    assert payload["error"] == "ResourceLimit" and str(2**20 * 2080) in payload["message"]
    rc = main(["--command", "exact", "--source", permutation_path, "--n", "1", "--samples", str(2**24 + 1)])
    out, err = capsys.readouterr()
    assert rc == 3 and not out
    assert json.loads(err)["error"] == "ResourceLimit"


def test_seed_validated_before_any_work(permutation_path, monkeypatch, capsys):
    from shancode import oracle

    monkeypatch.setattr(oracle, "_forward", no_dp)
    for seed in (-1, 2**128):
        rc = main(["--command", "exact", "--source", permutation_path, "--n", "3", "--samples", "10",
                   "--seed", str(seed)])
        out, err = capsys.readouterr()
        assert rc == 2 and not out
        payload = json.loads(err)
        assert payload["error"] == "ValidationFailure" and "--seed" in payload["message"]
    monkeypatch.undo()
    rc = main(["--command", "exact", "--source", permutation_path, "--n", "3", "--samples", "10",
               "--seed", str(2**128 - 1)])
    out, _ = capsys.readouterr()
    assert rc == 0 and [row["method"] for row in parse_csv(out)] == ["lifted_chain", "monte_carlo"]


def test_single_n_and_range_print_the_same_row(permutation_path):
    rc, single, _ = run_cli("--command", "compare", "--source", permutation_path, "--n", "60")
    rc2, ranged, _ = run_cli("--command", "compare", "--source", permutation_path, "--n", "4..60")
    assert rc == 0 and rc2 == 0
    assert parse_csv(single)[0] == parse_csv(ranged)[-1]


def test_predict_single_n_and_range_print_the_same_row(permutation_path):
    rc, single, _ = run_cli("--command", "predict", "--source", permutation_path, "--n", "60")
    rc2, ranged, _ = run_cli("--command", "predict", "--source", permutation_path, "--n", "4..60")
    assert rc == 0 and rc2 == 0
    assert parse_csv(single)[0] == parse_csv(ranged)[-1]


def test_predict_far_window_is_fast(permutation_path, capsys):
    t0 = time.perf_counter()
    rc = main(["--command", "predict", "--source", permutation_path, "--n", "1000000000..1000000001"])
    elapsed = time.perf_counter() - t0
    assert rc == 0 and len(parse_csv(capsys.readouterr().out)) == 2
    assert elapsed < 0.1


def test_bad_m_max_and_samples_rejected(float_path):
    rc, out, err = run_cli("--command", "classify", "--source", float_path, "--m-max", "0")
    assert rc == 2 and not out
    assert json.loads(err)["error"] == "ValidationFailure"
    rc, out, err = run_cli("--command", "exact", "--source", float_path, "--n", "3", "--samples", "-5")
    assert rc == 2 and not out
    assert json.loads(err)["error"] == "ValidationFailure"


def test_huge_m_max_classifies_quickly(float_path, capsys):
    # no command runs the spectral scan, so --m-max bounds no work
    t0 = time.perf_counter()
    rc = main(["--command", "classify", "--source", float_path, "--m-max", "1000000000"])
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert rc == 0 and not err
    assert parse_csv(out)[0]["mode"] == "convergent"
    assert elapsed < 1.0


def test_float_sources_need_no_scan(float_path, tmp_path, p2b_source, p3_source, permutation_source, monkeypatch, capsys):
    # the float copies of the periodic p2b and p3 once failed in the scan's
    # eigenvector basis; classification needs neither the scan nor eigen
    from shancode import spectral

    def refuse(*args, **kwargs):
        raise AssertionError("the spectral scan ran")

    monkeypatch.setattr(spectral, "find_oscillation_order", refuse)
    monkeypatch.setattr(spectral, "eigen", refuse)
    copies = (p2b_source, p3_source, permutation_source)
    paths = [float_path] + [write_source(tmp_path, f"{i}.json", float_copy(s).to_dict()) for i, s in enumerate(copies)]
    for path, M in zip(paths, ("", "1", "1", "1")):
        mode = "oscillatory" if M else "convergent"
        assert classify_mode(MarkovSource.load(path)).mode == mode
        for command in ("classify", "predict", "compare"):
            assert main(["--command", command, "--source", path, "--n", "3..5"]) == 0
            out, err = capsys.readouterr()
            assert not err and all((row["mode"], row["M"]) == (mode, M) for row in parse_csv(out))


def test_fejer_demo_over_work_cap_refused(capsys):
    rc = main(["--command", "fejer-demo", "--n", "1000000"])
    out, err = capsys.readouterr()
    assert rc == 3 and not out
    assert json.loads(err)["error"] == "ResourceLimit"


def test_fejer_demo_rejects_range(capsys):
    rc = main(["--command", "fejer-demo", "--n", "4..8"])
    out, err = capsys.readouterr()
    assert rc == 2 and not out
    assert json.loads(err)["error"] == "ValidationFailure"


def test_unwritable_out_exits_2(permutation_path, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    rc, out, err = run_cli("--command", "predict", "--source", permutation_path, "--out", str(target))
    assert rc == 2 and not out
    assert json.loads(err)["error"] == "FileNotFoundError"
    assert not target.exists()


def test_closed_stdout_pipe_ends_quietly(permutation_path):
    # as under `shancode ... | head -1`: the reader leaves after one line while
    # the rows are still being written; the CLI stops writing and exits 0
    proc = subprocess.Popen(
        [sys.executable, "-m", "shancode.cli", "--command", "predict", "--source", permutation_path,
         "--n", "1..200000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CLI_ENV)
    header = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0 and err == b""
    assert header == b"n,mode,M,omega,lower,upper,boundary_terms,flags\n"


def test_long_predict_range_memory_is_bounded(permutation_path, tmp_path):
    # the text is written one block of rows at a time, so the peak follows the
    # column arrays; measured on a 2-vCPU x86 host with Python 3.11: 96 MiB
    # when every row was a Python object and the whole text one string, 19 MiB now
    target = tmp_path / "long.csv"
    tracemalloc.start()
    try:
        rc = main(["--command", "predict", "--source", permutation_path, "--n", "1..131072", "--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and peak < 40 * 2**20
    with open(target, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 131073


def test_exit_code_missing_source():
    rc, _, err = run_cli("--command", "classify", "--source", "/nonexistent/source.json")
    assert rc == 2
    assert "message" in json.loads(err)


def test_bad_xi_rejected(permutation_path):
    rc, _, err = run_cli("--command", "predict", "--source", permutation_path, "--xi", "0.7")
    assert rc == 2


def test_sweep_grid_xi_validated(tmp_path):
    source = {"r": 2, "initial": ["1/3", "2/3"], "transitions": [["1/3", "2/3"], ["2/3", "1/3"]]}
    for xi in (0.9, -1):
        grid = {"n": "3..4", "xi": xi, "sources": [{"label": "ex1", "source": source}]}
        path = write_source(tmp_path, "grid.json", grid)
        rc, out, err = run_cli("--command", "sweep", "--source", path)
        assert rc == 2 and not out
        assert json.loads(err)["error"] == "ValidationFailure"


def test_one_state_chain_limits(tmp_path):
    # one key per step, but each step is charged 64 for its state and 1 for the
    # key's move, so n = 10^8 is refused where 65 n passes 2^22, in well under a second;
    # a float chain, as the exact one-state chain takes the lifted chain at any n
    path = write_source(tmp_path, "one.json", {"r": 1, "initial": [1.0], "transitions": [[1.0]]})
    rc, out, err = run_cli("--command", "exact", "--source", path, "--n", str(10**8))
    assert rc == 3 and not out
    payload = json.loads(err)
    assert payload["error"] == "ResourceLimit" and "reached n = 64528 of 100000000" in payload["message"]
    rc, out, _ = run_cli("--command", "exact", "--source", path, "--n", "200")
    assert rc == 0 and float(parse_csv(out)[0]["value"]) == 0.0


def test_fejer_demo_csv():
    rc, out, _ = run_cli("--command", "fejer-demo", "--n", "32", "--xi", "0.1")
    assert rc == 0
    rows = parse_csv(out)
    assert {r["function"] for r in rows} == {"rho_minus", "delta", "rho_plus"}
    bound = float(rows[0]["bound"])
    for row in rows:
        assert abs(float(row["f"]) - float(row["fejer_sum"])) <= bound


def test_sweep_over_grid(tmp_path):
    grid = {
        "n": "3..6",
        "sources": [
            {
                "label": "ex1",
                "source": {"r": 2, "initial": ["1/3", "2/3"], "transitions": [["1/3", "2/3"], ["2/3", "1/3"]]},
            },
            {
                "label": "dyadic",
                "source": {"r": 2, "initial": ["1/2", "1/2"], "transitions": [["1/2", "1/2"], ["1/2", "1/2"]]},
            },
        ],
    }
    path = write_source(tmp_path, "grid.json", grid)
    rc, out, _ = run_cli("--command", "sweep", "--source", path)
    assert rc == 0
    rows = parse_csv(out)
    assert len(rows) == 8
    assert {r["label"] for r in rows} == {"ex1", "dyadic"}
    dy = [r for r in rows if r["label"] == "dyadic"]
    assert all(float(r["exact_value"]) == 0.0 for r in dy)


def test_main_entry_in_process(permutation_path, capsys):
    rc = main(["--command", "classify", "--source", permutation_path])
    assert rc == 0
    assert "oscillatory" in capsys.readouterr().out
