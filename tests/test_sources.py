"""Source validation, chain structure and stationary distributions."""

from fractions import Fraction

import numpy as np
import pytest

from shancode import (
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
from tests.conftest import random_float_source

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
