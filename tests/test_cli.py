"""Command-line behavior: determinism, schemas, exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import shancode
from shancode import MarkovSource, ceil_defect, classify_mode
from shancode.cli import REPORT_FLAGS, main, parse_n_range
from tests.conftest import float_copy

LOG3 = math.log2(3.0)


# the directory holding the imported shancode package, so the subprocess runs the same code
PACKAGE_ROOT = str(Path(shancode.__file__).resolve().parent.parent)


def run_cli(*args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "shancode.cli", *args], capture_output=True, text=True, env=env
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
    diffs = {int(r["n"]): float(r["abs_diff"]) for r in rows if r["flags"] == ""}
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
    assert [r["method"] for r in rows] == ["lattice_dp", "monte_carlo"] * 3
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


def test_json_mirrors_csv(permutation_path):
    rc, out_csv, _ = run_cli("--command", "predict", "--source", permutation_path, "--n", "3..5")
    rc2, out_json, _ = run_cli(
        "--command", "predict", "--source", permutation_path, "--n", "3..5", "--format", "json"
    )
    assert rc == 0 and rc2 == 0
    doc = json.loads(out_json)
    csv_rows = parse_csv(out_csv)
    assert doc["columns"] == list(csv_rows[0].keys())
    assert len(doc["rows"]) == len(csv_rows)
    for jrow, crow in zip(doc["rows"], csv_rows):
        assert f"{jrow['omega']:.12g}" == crow["omega"]


def test_flags_vocabulary(permutation_path, dyadic_path, float_path):
    seen = set()
    for path in (permutation_path, dyadic_path, float_path):
        for command in ("predict", "compare"):
            rc, out, _ = run_cli("--command", command, "--source", path, "--n", "2..6")
            assert rc == 0
            for row in parse_csv(out):
                seen.update(f for f in row["flags"].split(";") if f)
    assert seen <= set(REPORT_FLAGS)


def test_exit_code_validation_failure(tmp_path):
    path = write_source(
        tmp_path, "bad.json",
        {"r": 2, "initial": ["1/3", "1/3"], "transitions": [["1/2", "1/2"], ["1/2", "1/2"]]},
    )
    rc, out, err = run_cli("--command", "classify", "--source", path)
    assert rc == 2 and not out
    payload = json.loads(err)
    assert payload["error"] == "ValidationFailure"


def test_exit_code_resource_limit(permutation_path):
    rc, out, err = run_cli("--command", "exact", "--source", permutation_path, "--n", "400")
    assert rc == 3 and not out
    assert json.loads(err)["error"] == "ResourceLimit"


def no_dp(*args):
    raise AssertionError("the DP ran on a refused request")


def test_resource_limit_refused_before_any_work(permutation_path, monkeypatch, capsys):
    from shancode import oracle

    monkeypatch.setattr(oracle, "_forward", no_dp)
    rc = main(["--command", "exact", "--source", permutation_path, "--n", "198..201"])
    out, err = capsys.readouterr()
    assert rc == 3 and not out
    assert json.loads(err)["error"] == "ResourceLimit"


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
    assert rc == 0 and [row["method"] for row in parse_csv(out)] == ["lattice_dp", "monte_carlo"]


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
    path = write_source(tmp_path, "one.json", {"r": 1, "initial": [1], "transitions": [[1]]})
    rc, out, err = run_cli("--command", "exact", "--source", path, "--n", "201")
    assert rc == 3 and not out
    assert json.loads(err)["error"] == "ResourceLimit"
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
