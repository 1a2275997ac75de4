"""Source validation, chain structure and stationary distributions."""

import ast
import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from shancode import (
    ExactProb,
    MarkovSource,
    ZERO,
    classify_structure,
    is_dyadic,
    log2_prob,
    stationary_distribution,
    validate,
)
from shancode import sources
from shancode.errors import ReducibleChain, ZeroProbability
from shancode.sources import FLOAT_SUM_TOL
from tests.conftest import period2_source, random_exact_source, random_float_source, row_log2value

F = Fraction


def test_validate_accepts_exact_stochastic():
    s = MarkovSource.from_exact([1, 0], [["1/2", "1/2"], ["1/4", "3/4"]])
    report = validate(s)
    assert report.ok and not report.flags and not report.messages


def test_validate_rejects_bad_row():
    s = MarkovSource.from_exact([1, 0], [["1/2", "1/2"], ["1/4", "1/4"]])
    report = validate(s)
    assert not report.ok
    assert any("row 1" in msg for msg in report.messages)


def test_validate_rejects_bad_initial():
    s = MarkovSource.from_exact(["1/3", "1/3"], [["1/2", "1/2"], ["1/2", "1/2"]])
    report = validate(s)
    assert not report.ok
    assert any("initial" in msg for msg in report.messages)


def test_validate_flags_near_stochastic_exact(m2_source):
    report = validate(m2_source)
    assert report.ok
    assert report.flags == {"row_sums_inexact"} and not report.messages


def test_validate_decides_probabilities_within_2_to_the_minus_100_of_one():
    over = MarkovSource.from_exact([1, 0], [[f"{2**100 + 1} * 2^(-100)", 0], ["1/2", "1/2"]])
    report = validate(over)
    assert not report.ok and report.messages == (f"probability {over.transitions[0][0]} exceeds 1",)
    under = MarkovSource.from_exact([1, 0], [[f"{2**100 - 1} * 2^(-100)", "2^(-100)"], ["1/2", "1/2"]])
    report = validate(under)
    assert report.ok and not report.flags and not report.messages


def test_float_validation_tolerance():
    good = MarkovSource.from_floats([0.5, 0.5], [[0.3, 0.7], [0.6, 0.4]])
    assert validate(good).ok
    bad = MarkovSource.from_floats([0.5, 0.5], [[0.3, 0.6], [0.6, 0.4]])
    assert not validate(bad).ok


@pytest.mark.parametrize("gap, flags, messages", [
    (F(1, 10**13), {"row_sums_inexact"}, ()),
    (F(1, 10**11), set(), ("initial vector sums to 1-1.000e-11",)),
])
def test_exact_initial_vector_against_float_tolerance(gap, flags, messages):
    # the initial vector sums to 1 - gap exactly; FLOAT_SUM_TOL lies between the two gaps
    assert F(1, 10**13) < FLOAT_SUM_TOL < F(1, 10**11)
    s = MarkovSource.from_exact(["1/2", str(F(1, 2) - gap)], [["1/2", "1/2"], ["1/4", "3/4"]])
    report = validate(s)
    assert report.ok == (not messages) and report.flags == flags and report.messages == messages


def test_float_row_inside_tolerance_is_not_flagged():
    s = MarkovSource.from_floats([0.5, 0.5], [[0.3, 0.7 + 1e-13], [0.6, 0.4]])
    report = validate(s)
    assert report.ok and not report.flags and not report.messages


def test_validation_messages_list_rows_then_initial_vector():
    exact = MarkovSource.from_exact(["1/3", "1/3"], [["1/2", "1/4"], ["1/4", "1/4"]])
    floats = MarkovSource.from_floats([0.3, 0.3], [[0.5, 0.25], [0.25, 0.25]])
    for s in (exact, floats):
        report = validate(s)
        assert not report.ok and not report.flags
        assert report.messages == ("transition row 0 sums to 1-2.500e-01", "transition row 1 sums to 1-5.000e-01",
                                   "initial vector sums to 1-3.333e-01" if s.exact else
                                   "initial vector sums to 1-4.000e-01")


def test_mixed_modes_rejected():
    with pytest.raises(Exception):
        MarkovSource.from_dict(
            {"r": 2, "initial": [0.5, 0.5], "transitions": [["1/2", "1/2"], [0.5, 0.5]]}
        )


def test_source_json_round_trip(m2_source, permutation_source):
    for s in (m2_source, permutation_source):
        again = MarkovSource.from_dict(s.to_dict())
        assert again == s


def test_classify_structure_examples(absorbing_source):
    swap = MarkovSource.from_exact(["1/2", "1/2"], [[0, 1], [1, 0]])
    st = classify_structure(swap)
    assert st.irreducible and st.period == 2 and not st.positive

    pos = MarkovSource.from_floats([0.5, 0.5], [[0.3, 0.7], [0.6, 0.4]])
    st = classify_structure(pos)
    assert st.irreducible and st.period == 1 and st.positive

    st = classify_structure(absorbing_source)
    assert not st.irreducible and st.period is None and st.reducible_note


SOURCE_FIXTURES = ["dyadic_memoryless", "dyadic_r3", "permutation_source", "permutation_state0_start", "cycle_source",
                   "bipartite_periodic_source", "p2b_source", "p3_source", "absorbing_source",
                   "float_convergent_source", "m2_source", "order67_source", "convergent_exact_source"]


def test_classify_structure_reverse_adjacency(request, monkeypatch):
    # the reverse adjacency is built in one pass over the edges; the backward search must
    # get the same lists, in the same order, as a scan of every state for each target
    searched, bfs = [], sources._bfs

    def recording_bfs(adj, start):
        searched.append(adj)
        return bfs(adj, start)

    monkeypatch.setattr(sources, "_bfs", recording_bfs)
    fixtures = [request.getfixturevalue(name) for name in SOURCE_FIXTURES]
    rng = np.random.default_rng(5)
    for s in [*fixtures, *(random_float_source(rng, r, with_zeros=True) for r in (2, 5, 9, 16))]:
        searched.clear()
        classify_structure(s)
        adj = s.support()
        assert searched == [adj, [[k for k in range(s.r) if j in adj[k]] for j in range(s.r)]]


def test_period_of_cyclic_permutation():
    for r in (2, 3, 4, 5):
        rows = [[0] * r for _ in range(r)]
        for k in range(r):
            rows[k][(k + 1) % r] = 1
        init = [F(1, r)] * r
        st = classify_structure(MarkovSource.from_exact(init, rows))
        assert st.irreducible and st.period == r


def test_positive_implies_aperiodic_random():
    rng = np.random.default_rng(123)
    for _ in range(20):
        r = int(rng.integers(2, 5))
        P = rng.random((r, r)) + 0.02
        P /= P.sum(axis=1, keepdims=True)
        p0 = np.full(r, 1.0 / r)
        st = classify_structure(MarkovSource.from_floats(p0, P))
        assert st.positive and st.irreducible and st.period == 1


def test_stationary_examples():
    s = MarkovSource.from_exact(["1/2", "1/2"], [["1/3", "2/3"], ["2/3", "1/3"]])
    assert np.allclose(stationary_distribution(s), [0.5, 0.5], atol=1e-12)

    swap = MarkovSource.from_exact(["1/2", "1/2"], [[0, 1], [1, 0]])
    assert np.allclose(stationary_distribution(swap), [0.5, 0.5], atol=1e-12)

    s = MarkovSource.from_exact([1, 0], [["1/2", "1/2"], ["1/4", "3/4"]])
    assert np.allclose(stationary_distribution(s), [1 / 3, 2 / 3], atol=1e-12)


def test_stationary_fixed_point_random():
    rng = np.random.default_rng(42)
    for _ in range(25):
        r = int(rng.integers(2, 6))
        P = rng.random((r, r)) + 0.01
        P /= P.sum(axis=1, keepdims=True)
        s = MarkovSource.from_floats(np.full(r, 1.0 / r), P)
        pi = stationary_distribution(s)
        assert abs(pi.sum() - 1.0) < 1e-12
        assert np.max(np.abs(pi @ P - pi)) < 1e-10


def test_stationary_requires_irreducible(absorbing_source):
    with pytest.raises(ReducibleChain):
        stationary_distribution(absorbing_source)


def test_log2_prob_paths():
    s = MarkovSource.from_exact(["1/2", "1/2"], [["1/2", "1/2"], ["1/4", "3/4"]])
    lv = log2_prob(s.transitions[1][1])
    assert (lv.rational, lv.mantissa) == (F(-2), F(3))
    with pytest.raises(ZeroProbability):
        log2_prob(ZERO)
    f = MarkovSource.from_floats([1.0, 0.0], [[0.75, 0.25], [0.5, 0.5]])
    assert log2_prob(f.transitions[0][0]) == pytest.approx(-0.4150374992788438)


def test_is_dyadic(dyadic_memoryless, dyadic_r3, permutation_source, m2_source):
    assert is_dyadic(dyadic_memoryless)
    assert is_dyadic(dyadic_r3)
    assert not is_dyadic(permutation_source)
    assert not is_dyadic(m2_source)
    assert not is_dyadic(MarkovSource.from_floats([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]]))


def test_prob_table_has_one_layout(request):
    # every exact and float source of the conftest fixtures, and float sources with zeros
    fixtures = [request.getfixturevalue(name) for name in SOURCE_FIXTURES]
    rng = np.random.default_rng(53)
    floats = [random_float_source(rng, r, with_zeros=True) for r in (2, 3, 5)]
    for s in [*fixtures, *request.getfixturevalue("dyadic_markov_pair"), *floats]:
        table, rows = s.prob_table, (*s.transitions, s.initial)
        # logs: each distinct nonzero entry's log2_prob, in order of first appearance
        assert table.logs == tuple(dict.fromkeys(log2_prob(v) for row in rows for v in row if v is not ZERO))
        for k, row in enumerate(rows):
            for j, v in enumerate(row):
                if v is ZERO:
                    assert (table.p[k, j], table.index[k, j], table.log2[k, j]) == (0.0, len(table.logs), 0.0)
                    continue
                log = log2_prob(v)
                assert table.p[k, j] == s.prob_float(v) and table.logs[table.index[k, j]] == log
                assert table.log2[k, j] == (log.to_float() if s.exact else log)
        # read-only, and the array views are copies the caller may write
        assert isinstance(table.logs, tuple)
        for array in (table.p, table.index, table.log2):
            assert array.shape == (s.r + 1, s.r)
            with pytest.raises(ValueError):
                array[0, 0] = 0
        assert np.array_equal(table.p, np.vstack([s.transition_array(), s.initial_array()]))
        s.transition_array()[0, 0] = s.initial_array()[0] = -1.0
        assert table.p[0, 0] >= 0.0 and table.p[s.r, 0] >= 0.0


def test_prob_table_rows_reproduce_their_logs(request):
    # each exact table row [K, e_1, ..., e_B], read back through base powers, is its Log2Value
    # exactly; a K past int64 (a power-of-two exponent over q = 2^53 + 1) is held as a Python int
    rng = random.Random(0)
    q = 2**53 + 1
    letters = [ExactProb.make(1, F(-1, 2)), ExactProb.make(1, -F(1107421, 625113))]
    wide = MarkovSource.from_exact([ExactProb.make(1, F(-1, q)), ExactProb.make(1, F(-107, 2))], [letters, letters])
    fixtures = [request.getfixturevalue(name) for name in SOURCE_FIXTURES]
    sources_ = [*fixtures, *request.getfixturevalue("dyadic_markov_pair"),
                *request.getfixturevalue("oscillatory_exact_family"), *(random_exact_source(rng) for _ in range(200)),
                *(period2_source(M) for M in (2, 3, 5, 7, 67, 257, 1009)), wide]
    for s in sources_:
        table = s.prob_table
        if not s.exact:
            assert table.rows is None and table.basis is None
            continue
        D, base = table.basis.D, table.basis.base
        assert D == math.lcm(*(lg.rational.denominator for lg in table.logs))
        assert all(b > 1 and b % 2 for b in base) and all(math.gcd(a, b) == 1 for a, b in combinations(base, 2))
        assert table.rows.shape == (len(table.logs), 1 + len(base))
        assert table.rows.dtype == (object if s is wide else np.int64)
        with pytest.raises(ValueError):
            table.rows[0, 0] = 0
        assert [row_log2value(row, table.basis) for row in table.rows] == list(table.logs), s.to_dict()


def test_log_row_format_stays_in_exact():
    # exact owns how a log is held and combined; sources only stores its rows
    owners = {"exact", "sources", "__init__"}
    for path in sorted(Path(sources.__file__).parent.glob("*.py")):
        if path.stem in owners:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not names & {"Log2Value", "mantissa", "rational", "_fixed_log2", "_coprime_base", "log_rows"}, path.name


def test_probability_format_stays_in_sources():
    # exact and sources own the probability objects; every other module reads prob_table
    owners = {"exact", "sources", "__init__"}
    for path in sorted(Path(sources.__file__).parent.glob("*.py")):
        if path.stem in owners:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not names & {"ZERO", "ExactProb", "log2_prob"}, path.name
        subscripted = [node.value.attr for node in ast.walk(tree)
                       if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)]
        assert not {"initial", "transitions"} & set(subscripted), path.name
