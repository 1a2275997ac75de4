"""Ground-truth redundancy: lattice DP and Monte Carlo."""

import ast
import itertools
import math
import time
import tracemalloc
from decimal import ROUND_CEILING, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from shancode import (
    MarkovSource,
    exact_redundancy,
    exact_redundancy_range,
    monte_carlo_redundancy,
    monte_carlo_redundancy_range,
)
from shancode import ZERO, ExactProb, asymptotics, classify_mode, oracle, spectral
from shancode.asymptotics import _pair_offsets, ceil_defect, prediction_columns
from shancode.errors import ResourceLimit
from tests.conftest import (
    coprime_base_reference,
    float_copy,
    half_exponent_source,
    iter_paths_bruteforce,
    memoryless,
    monte_carlo_reference,
    omega_decimal_reference,
    period2_source,
    random_float_source,
    redundancy_bruteforce,
    two_state_type_reference,
)

F = Fraction
LOG3 = math.log2(3.0)


def nine_prime_source():
    def row(q):
        return [str(q), str((1 - q) / 3), str(2 * (1 - q) / 3)]

    return MarkovSource.from_exact(["1/3", "1/3", "1/3"], [row(F(1, 5**20)), row(F(1, 7**15)), row(F(1, 11**12))])


# the dispatching entry point, and the lattice DP, which serves every request it does not lift
ROUTES = (exact_redundancy_range, oracle.lattice_dp)


def route_value(route, s, n: int) -> float:
    return route(s, n, n)[0].value


def test_dyadic_redundancy_identically_zero(dyadic_memoryless, dyadic_markov_pair, dyadic_r3):
    for route in ROUTES:
        for s in (dyadic_memoryless, *dyadic_markov_pair):
            for n in range(1, 21):
                assert route_value(route, s, n) == 0.0
        for n in range(1, 13):
            assert route_value(route, dyadic_r3, n) == 0.0


def test_cycle_source_value(cycle_source):
    target = ceil_defect(LOG3)
    for route in ROUTES:
        for n in range(1, 11):
            assert route_value(route, cycle_source, n) == pytest.approx(target, abs=1e-12)


def test_permutation_chain_both_initials(permutation_source, permutation_state0_start):
    # with initial equal to the first row the oscillation argument is n log2 3;
    # started at state 0 the initial term drops and the argument is (n-1) log2 3
    for route in ROUTES:
        for n in (2, 5, 10):
            assert route_value(route, permutation_source, n) == pytest.approx(ceil_defect(n * LOG3), abs=1e-12)
            assert route_value(route, permutation_state0_start, n) == pytest.approx(
                ceil_defect((n - 1) * LOG3), abs=1e-12
            )


def test_redundancy_in_unit_interval(oscillatory_exact_family, float_convergent_source):
    for route in ROUTES:
        for s in (*oscillatory_exact_family, float_convergent_source):
            for n in (1, 3, 6):
                v = route_value(route, s, n)
                assert 0.0 <= v < 1.0


def test_lattice_dp_matches_bruteforce_exhaustively(
    permutation_source, m2_source, dyadic_r3, float_convergent_source, bipartite_periodic_source
):
    sources = [permutation_source, m2_source, float_convergent_source, bipartite_periodic_source]
    for route in ROUTES:
        for s in sources:
            for n in range(1, 11):
                a = redundancy_bruteforce(s, n)
                b = route_value(route, s, n)
                assert abs(a - b) <= 1e-12
        for n in range(1, 9):
            a = redundancy_bruteforce(dyadic_r3, n)
            b = route_value(route, dyadic_r3, n)
            assert abs(a - b) <= 1e-12


def test_range_matches_single_calls_bitwise(
    permutation_source, m2_source, dyadic_r3, float_convergent_source, bipartite_periodic_source
):
    # one pass to hi must read out exactly what a pass stopping at n reads out, on either route
    sources = (permutation_source, m2_source, dyadic_r3, float_convergent_source, bipartite_periodic_source)
    for s in (*sources, nine_prime_source()):
        lifted = s.exact and classify_mode(s).mode == "oscillatory"
        rows = exact_redundancy_range(s, 1, 12)
        dp_rows = oracle.lattice_dp(s, 1, 12)
        assert [rec.n for rec in rows] == [rec.n for rec in dp_rows] == list(range(1, 13))
        for rec, dp_rec in zip(rows, dp_rows):
            assert rec.method == ("lifted_chain" if lifted else "lattice_dp")
            assert rec == exact_redundancy(s, rec.n)
            assert dp_rec == oracle.lattice_dp(s, rec.n, rec.n)[0]
    assert exact_redundancy_range(permutation_source, 4, 60)[-1] == exact_redundancy(permutation_source, 60)
    assert oracle.lattice_dp(permutation_source, 4, 60)[-1] == oracle.lattice_dp(permutation_source, 60, 60)[0]


def test_permutation_chain_long_range_one_pass(permutation_source):
    for route in ROUTES:
        rows = route(permutation_source, 1, 200)
        for rec in rows:
            assert abs(rec.value - ceil_defect(rec.n * LOG3)) <= 1e-12, rec.n


def test_large_mantissas_fast(m2_source):
    # mantissas of 44 to 81 bits: the coprime base comes from gcds, not factoring
    start = time.perf_counter()
    rows = exact_redundancy_range(m2_source, 1, 10)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
    for rec in rows:
        assert abs(rec.value - redundancy_bruteforce(m2_source, rec.n)) <= 1e-12


def test_matches_bruteforce_oracle(permutation_source, m2_source, float_convergent_source):
    for route in ROUTES:
        for s in (permutation_source, m2_source, float_convergent_source):
            for n in (1, 4, 7):
                assert route_value(route, s, n) == pytest.approx(redundancy_bruteforce(s, n), abs=1e-10)


def test_redundancy_equals_mean_length_minus_entropy(permutation_source, m2_source):
    # E[L] - H reproduces the ceiling-defect expectation
    for s in (permutation_source, m2_source):
        for n in (2, 5):
            mean_len = 0.0
            entropy = 0.0
            for _, mu in iter_paths_bruteforce(s, n):
                mean_len += mu * math.ceil(-math.log2(mu))
                entropy += mu * (-math.log2(mu))
            for route in ROUTES:
                assert route_value(route, s, n) == pytest.approx(mean_len - entropy, abs=1e-10)


def test_snap_flag_on_float_dyadic():
    s = MarkovSource.from_floats([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
    for n in (3, 10):
        rec = exact_redundancy(s, n)
        assert rec.value == 0.0


def test_float_source_snaps_onto_exact_values():
    # some paths have an integer -log2 mu that the float sum misses by an
    # ulp or two; snapping keeps the float oracle on the exact source's values
    fs = MarkovSource.from_floats([0.5, 0.5], [[1 / 3, 2 / 3], [3 / 4, 1 / 4]])
    es = MarkovSource.from_exact(["1/2", "1/2"], [["1/3", "2/3"], ["3/4", "1/4"]])
    floats = exact_redundancy_range(fs, 1, 14)
    for a, b in zip(floats, exact_redundancy_range(es, 1, 14)):
        assert a.value == pytest.approx(b.value, abs=1e-12), a.n
    assert any("snap" in rec.flags for rec in floats)
    assert "snap" in monte_carlo_redundancy(fs, 16, 4000, seed=1).flags


def test_float_lattice_keys_far_beyond_int64():
    # -log2(1 - 2^-45) has a 2^96 denominator, so every lattice key is a 96-bit
    # fraction of 1, a Python int; keys squeezed into uint64 or floats would not survive this
    s = MarkovSource.from_floats([0.4, 0.6], [[1 - 2**-45, 2**-45], [0.3, 0.7]])
    negs = [-math.log2(p) for row in s.transitions for p in row]
    assert max(v.as_integer_ratio()[1] for v in negs).bit_length() == 97
    for n in range(1, 13):
        assert abs(exact_redundancy(s, n).value - redundancy_bruteforce(s, n)) <= 1e-12, n


# a letter probability p of a memoryless float source (p, 1 - p): -log2 p has a scale from
# 2^0 (p a power of two) through 2^53 (p in (1/2, 1)) to 2^104 (p = 1 - 2^-52)
LETTER = st.one_of(st.integers(1, 52).map(lambda j: 1 - 2.0**-j), st.integers(1, 60).map(lambda k: 2.0**-k),
                   st.floats(2**-60, 1 - 2**-52))


@given(LETTER, st.lists(st.booleans(), min_size=1, max_size=40))
@example(1 - 2**-52, [True, False, True])
@example(0.5, [True])
def test_float_keys_are_fractions_of_one(p, path):
    # a path's key is the Fraction sum of its steps' float -log2 modulo 1 in units of
    # 2^-bits, a uint64 up to bits = 64 and a Python int past it; its readout is
    # float(Fraction rho), or 0 with snap within INTEGER_SNAP_TOL of 0 or 1
    letters = [p, 1 - p]
    s = MarkovSource.from_floats(letters, [letters, letters])
    points, add, readout, _ = oracle._float_lattice(s, len(path))
    cells = s.prob_table.index[s.r]  # the initial row: each letter's position among the logs
    negs = [F(-math.log2(q)) for q in letters]
    bits = max(64, max(x.denominator for x in negs).bit_length() - 1)
    keys, total = points[cells[[int(path[0])]]], negs[path[0]]
    for i in path[1:]:
        keys, total = add(keys, points[cells[[int(i)]]]), total + negs[i]
    assert keys.dtype == (np.uint64 if bits == 64 else object)
    assert F(int(keys[0, 0]), 2**bits) == total % 1
    rho = float(-total % 1)
    near = min(rho, 1.0 - rho) <= oracle.INTEGER_SNAP_TOL
    assert readout(keys, np.ones(1)) == (0.0 if near else rho, near and total % 1 != 0)


# a source of 64-bit keys, and one of 96-bit keys (-log2(1 - 2^-45) has a 2^96 denominator)
KEY_SOURCES = {64: MarkovSource.from_floats([0.4, 0.6], [[0.4, 0.6], [0.3, 0.7]]),
               96: MarkovSource.from_floats([0.4, 0.6], [[1 - 2**-45, 2**-45], [0.3, 0.7]])}


@st.composite
def keys_and_deltas(draw):
    # a key and a step of the same width; values next to 2^63 and 2^bits are drawn often,
    # so the sum runs through the top bit and past 2^bits, where modulo 1 drops the carry
    bits = draw(st.sampled_from(sorted(KEY_SOURCES)))
    top = 2**bits - 1
    edge = st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**64 - 1, top])
    key, delta = draw(st.one_of(edge, st.integers(0, top))), draw(st.one_of(edge, st.integers(0, top)))
    return bits, min(key, top), min(delta, top)


@given(keys_and_deltas())
def test_limb_arithmetic_is_int_arithmetic(case):
    # a float key is one limb: a uint64 at 64 bits, which numpy's addition wraps, and a
    # Python int masked to bits past it; either way a step adds as int addition modulo 2^bits
    bits, key, delta = case
    _, add, _, _ = oracle._float_lattice(KEY_SOURCES[bits], 1)
    dtype = np.uint64 if bits == 64 else object
    keys = np.array([[key], [key]], dtype=dtype)
    summed = add(keys, np.array([delta], dtype=dtype))
    assert summed.dtype == dtype and [int(v) for v in summed[:, 0]] == [(key + delta) % 2**bits] * 2


def test_float_readout_rounds_like_int_division():
    # rho = ((-K) mod 2^bits) 2^-bits rounds one key above 2^53 to a float; at 64 and at 96
    # bits it must round half to even exactly as the int division rho_int / 2^bits does
    ties = [2**53 + 1, 2**53 + 3, 2**62 + 2**9, 2**62 + 3 * 2**9, 2**63 + 2**10, 2**63 + 3 * 2**10,
            3 * 2**62 + 1, 2**64 - 2**40 - 2**10]
    for bits, s in KEY_SOURCES.items():
        _, _, readout, _ = oracle._float_lattice(s, 1)
        for t in [(t << 32) + low for t in ties for low in (0, 1)] if bits == 96 else ties:
            keys = np.array([[-t % 2**bits]], dtype=np.uint64 if bits == 64 else object)
            assert readout(keys, np.ones(1)) == (t / 2**bits, False), (bits, t)


def test_exact_lattice_keys_are_one_column_per_coordinate():
    # nine coprime base elements (3, 5, 7, ...) and exponents up to 20: a key is the
    # rational column plus nine exponent columns, moved by signed steps.  A start key
    # is the signed point of mu itself, with no origin added at any hi: mu = 1/3 is 0
    # in the rational column and -1 in the column of 3, and the step 5^-20 is -20 in
    # the column of 5
    s = nine_prime_source()
    start = np.zeros((3, 10), dtype=np.int64)
    start[:, 1] = -1
    step = np.zeros((1, 10), dtype=np.int64)
    step[0, 2] = -20
    for n in range(2, 8):
        points, add, _, _ = oracle._exact_lattice(s, n)
        index = s.prob_table.index
        assert np.array_equal(points[index[s.r]], start) and np.array_equal(points[index[0, :1]], step)
        assert add is np.add and points.shape[1] == 10
        assert abs(exact_redundancy(s, n).value - redundancy_bruteforce(s, n)) <= 1e-12, n
    # with exponents in halves, D = 2: the rational column is kept modulo D, and a step
    # subtracts D once where the sum reaches it
    s = half_exponent_source(-1, F(-3, 2), -2, F(-1, 2))
    keys, add, _, _ = oracle._exact_lattice(s, 10)
    assert add is not np.add and set(keys[:, 0].tolist()) == {0, 1}
    summed, plain = add(keys, keys[:, None]), keys + keys[:, None]
    assert np.array_equal(summed[..., 0], plain[..., 0] % 2) and np.array_equal(summed[..., 1:], plain[..., 1:])


# small factors and large ones, some composite (2^64 + 1 = 274177 * 67280421310721), so
# products share factors in every way
BASE_FACTORS = [2, 3, 5, 7, 9, 11, 15, 49, 2**61 - 1, 2**64 + 1, 10**18 + 9, 3**40 + 2, 274177]


@given(st.lists(st.lists(st.sampled_from(BASE_FACTORS), min_size=0, max_size=5).map(math.prod), max_size=12))
def test_coprime_base_matches_restarting_refinement(values):
    base = oracle._coprime_base(values)
    assert base == coprime_base_reference(values)
    assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(base, 2))
    for v in values:
        assert math.prod(base[i] ** e for i, e in oracle._exponents(v, base).items()) == v


def test_exact_lattice_column_bound_refused_before_any_work(permutation_source, monkeypatch):
    # perm's step coordinates are 0 or -1, so its columns span [0, 2 n]: n = 2^61 - 1
    # still fits below 2^62 and reaches the DP, n = 2^61 does not and is refused first
    class Reached(Exception):
        pass

    def no_dp(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(oracle, "_forward", no_dp)
    with pytest.raises(Reached):
        oracle.lattice_dp(permutation_source, 2**61 - 1, 2**61 - 1)
    for n in (2**61, 2**62):
        with pytest.raises(ResourceLimit, match="reach 2\\^62"):
            oracle.lattice_dp(permutation_source, n, n)
    # the rational column counts in units of 1/D, and D itself must stay below 2^62 for the readout
    with pytest.raises(ResourceLimit, match="reach 2\\^62"):
        oracle.lattice_dp(MarkovSource.from_exact([f"2^(-1/{2**62 + 1})"], [[1]]), 1, 1)


def test_float_lattice_points_merge_by_value(monkeypatch):
    # -log2 of the steps is 1, 2, 0 or log2(3), so a path from a fixed first
    # state has -log2 mu = const + I + c log2(3) with c <= n - 1 thirds and
    # I <= 2 (n - 1 - c): at most n^2 values per first state, and float paths
    # with equal -log2 mu share one lattice point
    es = MarkovSource.from_exact(["1/4", "1/4", "1/2"], [["1/2", "1/4", "1/4"], [0, 0, 1], ["1/3", "1/3", "1/3"]])
    fs = float_copy(es)
    real_merged, sizes = oracle._merged, []

    def counting_merged(frontier):
        keys, masses = real_merged(frontier)
        sizes.append(len(masses))
        return keys, masses

    monkeypatch.setattr(oracle, "_merged", counting_merged)
    rows = exact_redundancy_range(fs, 1, 40)
    assert len(sizes) == 3 * 40
    assert all(size <= (i % 40 + 1) ** 2 for i, size in enumerate(sizes))
    monkeypatch.undo()
    for a, b in zip(rows, exact_redundancy_range(es, 1, 40)):
        assert abs(a.value - b.value) <= 1e-12, a.n
    for rec in rows:
        assert rec == exact_redundancy(fs, rec.n)


def test_exact_keys_modulo_one_grow_linearly(monkeypatch):
    # every step probability is 2^-k or 2^-k / 3, so modulo 1 a path's -log2 mu is
    # -e log2 3 with e the count of thirds, 1..n: n keys at n, not the O(n^2) that
    # the integer parts would add (2,730 at n = 60)
    s = MarkovSource.from_exact(["1/3", "1/3", "1/3"],
                                [["1/3", "1/6", "1/2"], ["1/4", "1/2", "1/4"], ["1/2", "1/4", "1/4"]])
    merged, sizes = oracle._merged, []

    def counting_merged(frontier):
        keys, masses = merged(frontier)
        sizes.append(len(masses))
        return keys, masses

    monkeypatch.setattr(oracle, "_merged", counting_merged)
    oracle.lattice_dp(s, 1, 60)
    assert sizes == list(range(1, 61))


def test_exact_readout_of_irrational_keys(permutation_source):
    # -log2 mu = n log2 3 modulo 1 on every path: the split log2 3 = hi + lo reads it to
    # float accuracy at every n; e log2 3 as one float product is 2.8e-13 off by n = 900
    rows = oracle.lattice_dp(permutation_source, 1, 2000)
    assert max(abs(rec.value - rho_log2_3(rec.n)) for rec in rows) <= 1e-14


def test_resource_limits(monkeypatch):
    # admitted well past n = 200 by the default budget; every path has
    # -log2 mu = n log2 3 minus an integer, so R_n = rho(n log2 3)
    s = memoryless([F(1, 3), F(2, 3)])
    with localcontext() as ctx:
        ctx.prec = 40
        u = 500 * Decimal(3).ln() / Decimal(2).ln()
        want = float(u.to_integral_value(ROUND_CEILING) - u)
    assert abs(exact_redundancy(s, 500).value - want) <= 1e-12
    assert abs(exact_redundancy_range(s, 1, 500)[-1].value - want) <= 1e-12
    assert abs(oracle.lattice_dp(s, 500, 500)[0].value - want) <= 1e-12

    # the work of n, by the documented count: readout 64 per state plus 8 per key, step 64 per
    # state plus each key move
    sizes, merged = [], oracle._merged

    def recording_merged(frontier):
        sizes.append([len(masses) for _, masses in frontier])
        return merged(frontier)

    monkeypatch.setattr(oracle, "_merged", recording_merged)
    oracle.lattice_dp(s, 1, 60)
    work = [64 * s.r + 8 * sum(rows) + (64 * s.r + 2 * sum(rows) if n < 60 else 0)
            for n, rows in enumerate(sizes, 1)]
    budget = 5000
    stop = next(n for n in range(1, 61) if sum(work[:n]) > budget)
    sizes.clear()
    monkeypatch.setattr(oracle, "DP_MOVE_BUDGET", budget)
    with pytest.raises(ResourceLimit, match=f"reached n = {stop} of 60; .* {sum(work[:stop])} key moves > {budget}"):
        oracle.lattice_dp(s, 1, 60)
    # no work past the budget ran: n = stop was never read out, nor the step beyond it taken
    assert len(sizes) == stop - 1
    assert sum(work[:stop - 1]) <= budget


def test_one_state_chain_charged_per_step(monkeypatch):
    s = MarkovSource.from_exact([1], [[1]])
    # one key per step for the DP, but every step is charged 64 for its state plus the key's
    # move, so a long chain is refused: 65 n > 10^4 first at n = 154
    assert oracle.lattice_dp(s, 200, 200)[0].value == 0.0
    monkeypatch.setattr(oracle, "DP_MOVE_BUDGET", 10**4)
    with pytest.raises(ResourceLimit, match="reached n = 154 of 100000000"):
        oracle.lattice_dp(s, 10**8, 10**8)
    # the exact one-state chain is oscillatory, and the lifted chain takes it at any n
    assert exact_redundancy(s, 10**8) == oracle.RedundancyValue(10**8, 0.0, "lifted_chain")


# -- lifted chain --------------------------------------------------------------


def rho_log2_3(m: int) -> float:
    """rho(m log2 3) from 60-digit decimal logs."""
    with localcontext() as ctx:
        ctx.prec = 60
        u = m * Decimal(3).ln() / Decimal(2).ln()
        return float(u.to_integral_value(ROUND_CEILING) - u)


@pytest.fixture()
def oscillatory_fixtures(oscillatory_exact_family, cycle_source, bipartite_periodic_source, p2b_source, p3_source,
                         order67_source, dyadic_memoryless, dyadic_markov_pair, dyadic_r3):
    """Every oscillatory exact conftest source; the half-exponent pair ends oscillatory_exact_family."""
    return [*oscillatory_exact_family, cycle_source, bipartite_periodic_source, p2b_source, p3_source,
            order67_source, dyadic_memoryless, *dyadic_markov_pair, dyadic_r3]


def test_lifted_chain_matches_lattice_dp(oscillatory_fixtures, oscillatory_exact_family):
    half_exponent = oscillatory_exact_family[-2:]
    for s in oscillatory_fixtures:
        assert classify_mode(s).mode == "oscillatory"
        rows, dp = exact_redundancy_range(s, 1, 200), oracle.lattice_dp(s, 1, 200)
        assert {rec.method for rec in rows} == {"lifted_chain"}
        assert max(abs(rec.value - exact.value) for rec, exact in zip(rows, dp)) <= 1e-12
        if s not in half_exponent:
            continue
        # with 81-bit mantissas the DP's split readout is within 1e-15 of the 60-digit
        # Markov-type sum, and the lifted chain within 1.3e-13
        for n in (1, 2, 3, 50, 120, 192, 195, 200):
            want = two_state_type_reference(s, n)
            assert abs(dp[n - 1].value - want) <= 1e-14 and abs(rows[n - 1].value - want) <= 1e-12, n


def test_lifted_chain_far_out_matches_decimal_references(permutation_source, bipartite_periodic_source):
    n = 10**12
    perm = exact_redundancy(permutation_source, n)
    assert perm.method == "lifted_chain"
    assert abs(perm.value - rho_log2_3(n)) <= 1e-13
    assert abs(perm.value - omega_decimal_reference(permutation_source, 1, n)) <= 1e-13
    # bip draws a 1/3 or a 2/3 at every other step: R_n = rho(floor(n / 2) log2 3)
    for m in (n, n + 1):
        assert abs(exact_redundancy(bipartite_periodic_source, m).value - rho_log2_3(m // 2)) <= 1e-13


def test_lifted_chain_far_out_on_every_fixture(oscillatory_fixtures):
    for s in oscillatory_fixtures:
        start = time.perf_counter()
        rec = exact_redundancy(s, 10**12)
        assert time.perf_counter() - start < 1.0
        assert rec.method == "lifted_chain" and 0.0 <= rec.value < 1.0


def test_lifted_chain_dyadic_exactly_zero(dyadic_memoryless, dyadic_markov_pair, dyadic_r3):
    for s in (dyadic_memoryless, *dyadic_markov_pair, dyadic_r3):
        for rec in (*exact_redundancy_range(s, 1, 50), exact_redundancy(s, 10**12)):
            assert rec.method == "lifted_chain" and rec.value == 0.0 and str(rec.value) == "0.0"


def cancelling_sources():
    """Sources with an irrational unit whose initial mantissa cancels the path mantissas at one n.

    perm's rows started at (3/4, 1/4) (M = 1) give mu = 1/4 or 1/2 at n = 2
    from state 0.  The others are order67_source's shape with return cycles
    1/3 (M = 3) and 1/67 (M = 67) apart: state 0 starts with mass
    1 / (2 m) for the row's mantissa m, which cancels after one return.
    """
    sources = [MarkovSource.from_exact(["3/4", "1/4"], [["1/3", "2/3"], ["2/3", "1/3"]])]
    for gap in (F(1, 3), F(1, 67)):
        m = F(1 / (2**-1 + 2 ** -float(1 - gap))).limit_denominator(10**13)
        row = [ZERO, ExactProb.make(m, -1), ExactProb.make(m, gap - 1)]
        sources.append(MarkovSource.from_exact([1 / (2 * m), 1 - 1 / (2 * m), 0], [row, [1, 0, 0], [1, 0, 0]]))
    return sources


def test_lifted_chain_reads_rational_paths_exactly():
    for s in cancelling_sources():
        cls = classify_mode(s)
        d, unit, _ = cls.solution
        assert cls.mode == "oscillatory" and not unit.is_rational
        rows = exact_redundancy_range(s, 1, 40)
        assert {rec.method for rec in rows} == {"lifted_chain"}
        for rec, dp in zip(rows, oracle.lattice_dp(s, 1, 40)):
            assert abs(rec.value - dp.value) <= 1e-12, rec.n
        # every point where (n - 1) unit + b_jk is rational is found, and its rho is the exact one
        live = [j for j, p in enumerate(s.initial) if p is not ZERO]
        pairs = [(j, k) for j in live for k in range(s.r)]
        rho = np.stack(list(asymptotics.pair_rho(s, cls, pairs, 1, 12, 1, cls.M)), axis=1)
        found = 0
        for p, b in enumerate(_pair_offsets(s, cls, pairs)):
            points = [n for n in range(1, 13) if (unit.scaled(n - 1) + b).is_rational]
            assert list(asymptotics._rational_points(unit, b, 1, 12)) == points
            for n in points:
                c = (unit.scaled(n - 1) + b).rational / d
                assert rho[n - 1, p].tolist() == [float(ceil_defect(F(z, cls.M) + c)) for z in range(cls.M)]
            found += len(points)
        assert found


def test_pair_rho_is_exact_at_every_rational_point(dyadic_r3, m2_source):
    # one readout serves Omega_n (scale M) and the lifted chain (scale 1, shifted by
    # z/M): wherever (n - 1) unit + b_jk is rational it must be the Fraction rho
    for s in (*cancelling_sources(), dyadic_r3, m2_source):
        cls = classify_mode(s)
        d, unit, _ = cls.solution
        pairs = [(j, k) for j, p in enumerate(s.initial) if p is not ZERO for k in range(s.r)]
        found = 0
        for scale, steps in ((cls.M, 1), (1, cls.M)):
            rhos = asymptotics.pair_rho(s, cls, pairs, 1, 12, scale, steps)
            for rho, b in zip(rhos, _pair_offsets(s, cls, pairs), strict=True):
                assert rho.shape == (12, steps)
                for n in range(1, 13):
                    total = unit.scaled(n - 1) + b
                    if total.is_rational:
                        x = total.rational * scale / d
                        assert rho[n - 1].tolist() == [float(ceil_defect(F(z, steps) + x)) for z in range(steps)]
                        found += 1
        assert found


def test_lifted_chain_row_alone_equals_row_in_range(permutation_source, bipartite_periodic_source, order67_source):
    for s in (permutation_source, bipartite_periodic_source, order67_source):
        for lo, hi in ((1, 70), (10**12 - 3, 10**12 + 3)):
            rows = exact_redundancy_range(s, lo, hi)
            assert [rec.n for rec in rows] == list(range(lo, hi + 1))
            for rec in rows:
                assert rec == exact_redundancy(s, rec.n)


def test_lifted_chain_over_its_caps_takes_the_dp(permutation_source, order67_source, monkeypatch):
    def no_lift(*args):
        raise AssertionError("the lifted chain ran over its cap")

    for s in (permutation_source, order67_source):
        work, cells = oracle._lifted_cost(s, classify_mode(s), 1, 30)
        assert exact_redundancy_range(s, 1, 30)[0].method == "lifted_chain"
        dp = oracle.lattice_dp(s, 1, 30)
        with monkeypatch.context() as m:
            m.setattr(oracle, "lifted_chain", no_lift)
            m.setattr(oracle, "LIFT_WORK_CAP", work - 1)
            assert exact_redundancy_range(s, 1, 30) == dp
            m.setattr(oracle, "LIFT_WORK_CAP", work)
            m.setattr(oracle, "LIFT_CELL_CAP", cells - 1)
            assert exact_redundancy_range(s, 1, 30) == dp
    assert {rec.method for rec in dp} == {"lattice_dp"}
    # at the default cap perm takes the lifted chain to n = 2 * 10^4 and the DP from 3 * 10^4
    cls = classify_mode(permutation_source)
    assert oracle._lifted_cost(permutation_source, cls, 1, 2 * 10**4)[0] <= oracle.LIFT_WORK_CAP
    assert oracle._lifted_cost(permutation_source, cls, 1, 3 * 10**4)[0] > oracle.LIFT_WORK_CAP


def test_lifted_cost_counts_the_products(order67_source, monkeypatch):
    bits = list(itertools.accumulate((bin(x).count("1") for x in range(1200)), initial=0))
    assert [oracle._set_bits_below(m) for m in range(1201)] == bits
    calls = []

    class CountingStack(np.ndarray):
        # the rows per block of the left factor of every product the powering makes with the stack
        def __matmul__(self, other):
            calls.append(self.shape[-2])
            return (self.view(np.ndarray) @ np.asarray(other)).view(CountingStack)

        def __rmatmul__(self, other):
            calls.append(other.shape[-2])
            return (np.asarray(other) @ self.view(np.ndarray)).view(CountingStack)

    def counting_powers(rows, stack, exponents, condition=None):
        return spectral.stack_powers(rows, stack.view(CountingStack), exponents, condition)

    monkeypatch.setattr(oracle, "stack_powers", counting_powers)
    s = order67_source
    for lo, hi in ((1, 1), (5, 40), (1000, 1100)):
        calls.clear()
        oracle.lifted_chain(s, classify_mode(s), lo, hi)
        # squaring i (none at i = 0) and then the row products of the exponents with bit i set
        levels = (hi - 1).bit_length()
        assert calls == [q for i in range(levels)
                         for q in [s.r] * (i > 0) + [1] * sum(e >> i & 1 for e in range(lo - 1, hi))]
        assert calls.count(s.r) == max(0, levels - 1) and calls.count(1) == bits[hi] - bits[lo - 1]


@pytest.mark.parametrize("M", [257, 1009])
def test_lifted_chain_at_large_order(M):
    # the chain's step splits into M twisted r x r matrices, so M in the thousands
    # stays on the lifted chain; the dense (rM, rM) circulant sent M = 257 to the DP
    s = period2_source(M)
    cls = classify_mode(s)
    assert cls.M == M
    start = time.perf_counter()
    rec = exact_redundancy(s, 10**12)
    assert rec.method == "lifted_chain" and time.perf_counter() - start < 1.0
    assert abs(rec.value - prediction_columns(s, cls, 10**12, 10**12).omega[0]) <= 1e-12
    for lifted, dp in zip(exact_redundancy_range(s, 1, 60), oracle.lattice_dp(s, 1, 60), strict=True):
        assert lifted.method == "lifted_chain" and abs(lifted.value - dp.value) <= 1e-12, lifted.n


def test_lifted_chain_with_a_python_int_readout_denominator():
    # dyadic rows started at 2^(-1/q) and its rational complement: Q = q = 2^31 + 1
    # once sent every request to the DP, which refused n = 10^6
    q = 2**31 + 1
    s = MarkovSource.from_exact([ExactProb.make(1, F(-1, q)), str(F(1 - 2 ** (-1 / q)))],
                                [["1/2", "1/2"], ["1/2", "1/2"]])
    assert asymptotics.readout_denominator(s, classify_mode(s)) == q
    start = time.perf_counter()
    rec = exact_redundancy(s, 10**6)
    assert rec.method == "lifted_chain" and time.perf_counter() - start < 1.0
    dp = oracle.lattice_dp(s, 1, 30)
    assert [lifted.value for lifted in exact_redundancy_range(s, 1, 30)] == [r.value for r in dp]
    assert rec.value == dp[-1].value


def test_lifted_chain_holds_two_squarings():
    # a star, state 0 to states 1..15 with -log2 gaps i/1024 and each back to 0 (r = 16,
    # M = 1024): holding all 30 squarings at n = 10^9 counted 3.8 times LIFT_CELL_CAP,
    # and the DP it took instead stopped at n = 274
    r, M = 16, 1024
    mu = F(1 / sum(2 ** (-i / M) for i in range(1, r))).limit_denominator(10**13)
    back = [1] + [0] * (r - 1)
    s = MarkovSource.from_exact(back, [[ZERO] + [ExactProb.make(mu, F(-i, M)) for i in range(1, r)]]
                                + [back] * (r - 1))
    cls = classify_mode(s)
    assert cls.M == M
    start = time.perf_counter()
    rec = exact_redundancy(s, 10**9)
    assert rec.method == "lifted_chain" and time.perf_counter() - start < 2.0
    assert abs(rec.value - prediction_columns(s, cls, 10**9, 10**9).omega[0]) <= 1e-12
    assert round(rec.value, 4) == 0.4998


def test_lifted_chain_far_past_the_row_sum_error():
    # rows that sum to 1 - 5.6e-15 shrink P^(n-1) by (1 - 5.6e-15)^(n-1), below the
    # floats near n = 10^17; the rescaled squarings keep R_n on Omega_n at any n
    s = half_exponent_source(-1, F(-3, 2), -2, F(-1, 2), precision=10**7)
    cls = classify_mode(s)
    for n in (10**12, 10**18, 10**19):
        values = [rec.value for rec in oracle.lifted_chain(s, cls, n, n + 1)]
        assert np.abs(values - prediction_columns(s, cls, n, n + 1).omega).max() <= 1e-12, n


# -- Monte Carlo --------------------------------------------------------------


def test_monte_carlo_dyadic_exact(dyadic_memoryless):
    rec = monte_carlo_redundancy(dyadic_memoryless, 50, 2000, seed=11)
    assert rec.value == 0.0 and rec.stderr == 0.0


def test_monte_carlo_deterministic(float_convergent_source):
    a = monte_carlo_redundancy(float_convergent_source, 12, 5000, seed=1)
    b = monte_carlo_redundancy(float_convergent_source, 12, 5000, seed=1)
    assert a == b
    c = monte_carlo_redundancy(float_convergent_source, 12, 5000, seed=2)
    assert c.value != a.value


def test_monte_carlo_matches_formula_prediction():
    # memoryless 1/3: every path shares the fractional part of -log2 mu
    s = memoryless([F(1, 3), F(2, 3)])
    rec = monte_carlo_redundancy(s, 100, 20000, seed=5)
    assert rec.value == pytest.approx(ceil_defect(100 * LOG3), abs=1e-9)
    assert rec.stderr <= 1e-12


def test_monte_carlo_within_four_stderr(float_convergent_source):
    exact = exact_redundancy(float_convergent_source, 8).value
    bad = 0
    for seed in range(100):
        mc = monte_carlo_redundancy(float_convergent_source, 8, 2000, seed=seed)
        if abs(mc.value - exact) > 4 * mc.stderr:
            bad += 1
    assert bad <= 1  # >= 99% of seeds inside the four-sigma band


MC_ROWS = oracle._MC_CHUNK_ROWS
# the float source whose -log2 mu lands within float noise of integers (tests/test_cli_golden.py "snap")
FLOAT_SNAP = MarkovSource.from_floats([0.5, 0.5], [[1 / 3, 2 / 3], [3 / 4, 1 / 4]])


def assert_same_monte_carlo(source, n, samples, seed):
    got = monte_carlo_redundancy(source, n, samples, seed)
    ref = monte_carlo_reference(source, n, samples, seed)
    assert got == ref  # every field: value, stderr and flags
    return got


@pytest.mark.parametrize("samples", [1, MC_ROWS - 1, MC_ROWS, 2 * MC_ROWS + 17])
def test_monte_carlo_matches_reference_across_chunk_edges(samples):
    source = random_float_source(np.random.default_rng(3), 3)
    assert_same_monte_carlo(source, 9, samples, seed=7)


def test_monte_carlo_matches_reference_on_structured_sources(bipartite_periodic_source):
    one_state = MarkovSource.from_exact([1], [[1]])
    assert assert_same_monte_carlo(one_state, 20, 300, seed=1).value == 0.0
    # zero transitions and a zero initial mass, which the sampler never picks
    assert_same_monte_carlo(bipartite_periodic_source, 11, MC_ROWS + 5, seed=2)
    # an exact source whose summed float logs land on integers modulo 1 exactly: neither Monte
    # Carlo nor its DP snaps (a float sum of -log2 mu once missed them by an ulp and snapped)
    exact = MarkovSource.from_exact(["1/2", "1/2"], [["3/4", "1/4"], ["1/3", "2/3"]])
    assert "snap" not in assert_same_monte_carlo(exact, 20, 1000, seed=1).flags
    assert "snap" not in oracle.lattice_dp(exact, 20, 20)[0].flags
    # its float copy's logs miss integers by float noise, which both snap
    assert "snap" in assert_same_monte_carlo(FLOAT_SNAP, 20, 1000, seed=1).flags
    assert "snap" in oracle.lattice_dp(FLOAT_SNAP, 20, 20)[0].flags
    wide = random_float_source(np.random.default_rng(11), 6, with_zeros=True)
    assert (wide.transition_array() == 0).any()
    assert_same_monte_carlo(wide, 12, MC_ROWS + 100, seed=4)


def test_monte_carlo_far_out_matches_exact_reference():
    # a float sum of -log2 mu drifted from its own exact sum by 6e-9 here, past INTEGER_SNAP_TOL;
    # keys modulo 1 are the exact sum at any n
    assert_same_monte_carlo(FLOAT_SNAP, 10**5, 64, seed=5)


@settings(deadline=None)
@given(st.integers(1, 5), st.integers(1, 40), st.booleans(), st.integers(0, 2**32 - 1))
def test_monte_carlo_keys_are_float_lattice_keys(r, n, with_zeros, seed):
    # a sampled path's uint64 sum is the float lattice's key of the same path
    source = random_float_source(np.random.default_rng(seed), r, with_zeros=with_zeros)
    points = oracle._float_lattice(source, n)[0]
    assume(points.dtype == np.uint64)
    tables = oracle._rank_tables(source)
    thresholds, nxt, _ = tables
    samples, width, index = 16, len(thresholds) + 1, source.prob_table.index
    held = np.empty(samples * n, dtype=oracle._rank_dtype(len(thresholds)))
    ranks = oracle._ranks(seed, 0, held, thresholds, np.empty(64)).reshape(samples, n)
    got = np.empty(samples, dtype=np.uint64)
    oracle._walk(ranks, tables, got)
    for row, key in zip(ranks.tolist(), got.tolist()):
        state, total = source.r, 0
        for rank in row:
            j = int(nxt[state * width + rank]) // width
            total, state = (total + int(points[index[state, j], 0])) % 2**64, j
        assert key == total


def test_monte_carlo_searched_ranks_match_reference(monkeypatch):
    # from _MC_SEARCH_THRESHOLDS distinct thresholds on, ranks come from a sorted search
    rng = np.random.default_rng(5)
    counted, searched = random_float_source(rng, 8), random_float_source(rng, 17)
    assert len(oracle._rank_tables(counted)[0]) < oracle._MC_SEARCH_THRESHOLDS
    assert len(oracle._rank_tables(searched)[0]) >= oracle._MC_SEARCH_THRESHOLDS
    assert_same_monte_carlo(searched, 30, MC_ROWS + 100, seed=6)
    assert_same_monte_carlo(counted, 30, 500, seed=6)
    # either way a rank is the count of thresholds at or below the uniform
    for source in (counted, searched):
        thresholds = oracle._rank_tables(source)[0]
        held = np.empty(3 * 2**10 + 7, dtype=np.uint16)
        runs = []
        for cut in (0, len(thresholds) + 1):
            monkeypatch.setattr(oracle, "_MC_SEARCH_THRESHOLDS", cut)
            runs.append(oracle._ranks(9, 13, held, thresholds, np.empty(2**10)).copy())
        assert np.array_equal(*runs)


@pytest.mark.parametrize("samples", [1, MC_ROWS - 1, MC_ROWS, 2 * MC_ROWS + 17])
@pytest.mark.parametrize("lo, hi", [(9, 9), (1, 9), (7, 12)])
def test_monte_carlo_range_matches_reference_across_chunk_edges(samples, lo, hi):
    source = random_float_source(np.random.default_rng(3), 3)
    got = monte_carlo_redundancy_range(source, lo, hi, samples, seed=7)
    assert got == [monte_carlo_reference(source, n, samples, seed=7) for n in range(lo, hi + 1)]


def test_monte_carlo_range_matches_reference_on_structured_sources(bipartite_periodic_source):
    one_state = MarkovSource.from_exact([1], [[1]])
    snapping = MarkovSource.from_exact(["1/2", "1/2"], [["3/4", "1/4"], ["1/3", "2/3"]])
    wide = random_float_source(np.random.default_rng(11), 6, with_zeros=True)
    for source, lo, hi, samples in ((one_state, 18, 20, 300), (bipartite_periodic_source, 9, 11, MC_ROWS + 5),
                                    (snapping, 19, 21, 1000), (wide, 1, 12, MC_ROWS + 100)):
        got = monte_carlo_redundancy_range(source, lo, hi, samples, seed=4)
        assert got == [monte_carlo_reference(source, n, samples, seed=4) for n in range(lo, hi + 1)]


def test_monte_carlo_range_draws_each_window_once(monkeypatch):
    # the next window starts at the earliest row some n has not walked, which lies fewer
    # than hi uniforms before the current window's end
    windows, drawn = [], []
    ranks = oracle._ranks

    def counting(seed, start, out, thresholds, block):
        windows.append(start)
        drawn.append(len(out))
        return ranks(seed, start, out, thresholds, block)

    monkeypatch.setattr(oracle, "_ranks", counting)
    source = random_float_source(np.random.default_rng(3), 3)
    for lo, hi, samples in ((7, 12, 2 * MC_ROWS + 17), (1, 9, 3 * MC_ROWS), (40, 40, MC_ROWS + 1)):
        windows.clear(), drawn.clear()
        monte_carlo_redundancy_range(source, lo, hi, samples, seed=7)
        assert samples * hi <= sum(drawn) <= samples * hi + len(windows) * (hi - 1)
        assert windows == sorted(set(windows))


def test_rank_tables_are_the_sorted_search_at_ties(monkeypatch):
    # rows with zero entries repeat a cumulative value; uniforms sit exactly on thresholds
    # 3/8 and 5/8 give keys that are not 0
    trans = np.array([[0.25, 0.0, 0.25, 0.5], [0.0, 0.0, 0.375, 0.625], [0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    source = MarkovSource.from_floats([0.0, 0.375, 0.0, 0.625], trans)
    u = np.array([0.0, 0.25, 0.375, 0.5, 0.75, np.nextafter(0.375, 0.0), np.nextafter(0.5, 0.0),
                  np.nextafter(1.0, 0.0)])

    class Replay:  # a generator that draws u, so the ranks see the ties
        def __init__(self, bits):
            self.at = 0

        def random(self, out):
            out[:] = u[self.at:self.at + len(out)]
            self.at += len(out)
            return out

    monkeypatch.setattr(oracle.np.random, "Generator", Replay)
    thresholds, nxt, step = oracle._rank_tables(source)
    ranks = oracle._ranks(0, 0, np.empty(len(u), dtype=np.uint8), thresholds, np.empty(4))  # two blocks
    monkeypatch.undo()
    assert ranks.tolist() == np.searchsorted(thresholds, u, side="right").tolist()
    width = len(thresholds) + 1
    init_cum = np.cumsum(source.initial_array())
    init_cum[-1] = 1.0
    row_cum = np.cumsum(trans, axis=1)
    row_cum[:, -1] = 1.0
    starts = np.searchsorted(init_cum, u, side="right")
    start = source.r * width  # row r is the initial vector
    assert (nxt.take(start + ranks) // width).tolist() == starts.tolist()

    def key(p):  # -log2 p modulo 1 in units of 2^-64, every key here being exact in 64 bits
        return int(F(-math.log2(p)) * 2**64) % 2**64

    assert step.dtype == np.uint64
    assert step.take(start + ranks).tolist() == [key(source.initial_array()[k]) for k in starts]
    assert any(step.take(start + ranks))
    for k in range(source.r):
        expected = np.searchsorted(row_cum[k], u, side="right")
        assert (nxt.take(k * width + ranks) // width).tolist() == expected.tolist()
        assert step.take(k * width + ranks).tolist() == [key(trans[k, j]) for j in expected]


def test_monte_carlo_independent_of_chunk_size(float_convergent_source, monkeypatch):
    before = monte_carlo_redundancy(float_convergent_source, 10, 1000, seed=3)
    for rows in (1, 7, 999, 1000, 5000):
        monkeypatch.setattr(oracle, "_MC_CHUNK_ROWS", rows)
        assert monte_carlo_redundancy(float_convergent_source, 10, 1000, seed=3) == before


def test_monte_carlo_holds_one_draw_chunk(float_convergent_source):
    # numpy reports its buffers to tracemalloc.  A request holds one float64 block of
    # uniforms, one window of ranks (a byte each at r = 2) and the per-sample array; a
    # float64 window, or a fresh array per block, would pass the bound
    n, samples = 64, 3 * oracle._MC_CHUNK_ROWS
    monte_carlo_redundancy(float_convergent_source, n, samples, seed=3)
    tracemalloc.start()
    try:
        monte_carlo_redundancy(float_convergent_source, n, samples, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (8 * oracle._MC_BLOCK + oracle._MC_CHUNK_ROWS * n + 8 * samples)


def test_monte_carlo_holds_one_float_array_per_n():
    # numpy reports its buffers to tracemalloc.  While it samples, a request holds its
    # per-n -log2 mu arrays, a window of ranks and a block of uniforms; then it finishes
    # each n in place in one scratch array and lets it go.  Copies for the snap, rho and
    # the deviations, as ndarray.std makes, held three or four more (5.6 MB on this source)
    source = random_float_source(np.random.default_rng(0), 2)
    ns, samples = range(99, 101), 10**5
    monte_carlo_redundancy_range(source, ns[0], ns[-1], 10, seed=0)
    tracemalloc.start()
    try:
        got = monte_carlo_redundancy_range(source, ns[0], ns[-1], samples, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [v.n for v in got] == list(ns)
    assert peak <= 8 * samples * (len(ns) + 1) + 2**19


def finish_reference(keys):
    """(mean, stderr, snapped) of rho over uint64 keys by copies: rho = (-K mod 2^64) / 2^64, 0 within tol of 0 or 1."""
    rho = np.array([(-k % 2**64) / 2**64 for k in keys.tolist()])  # Python int division rounds once
    near = np.minimum(rho, 1.0 - rho) <= oracle.INTEGER_SNAP_TOL
    values = np.where(near, 0.0, rho)
    stderr = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return float(values.mean()), stderr, bool(np.any(near & (rho != 0.0)))


# a key within EDGE units of 0 modulo 2^64 reads rho within INTEGER_SNAP_TOL of 0 or 1.  Offsets from
# 0 and 2^64: none, within, at and just past EDGE (floats near 1 are 2048 units apart), and far
EDGE = int(oracle.INTEGER_SNAP_TOL * 2**64)
KEY_OFFSETS = [0, 1, 2, 2**20, EDGE - 2048, EDGE - 1, EDGE, EDGE + 1, EDGE + 2048, EDGE + 4096, 2**62, 2**63]
NEAR_ZERO_KEY = st.builds(lambda d, below: (-d if below else d) % 2**64, st.sampled_from(KEY_OFFSETS), st.booleans())


@given(st.lists(st.one_of(NEAR_ZERO_KEY, st.integers(0, 2**64 - 1)), min_size=1, max_size=40),
       st.sampled_from([1, 2, 4097, 10**5]), st.integers(0, 2**32 - 1))
@example([0], 1, 0)
@example([1], 1, 0)
@example([0, 0], 2, 0)
@example([EDGE, 2**64 - EDGE], 2, 0)
@example([EDGE + 1, 2**64 - EDGE - 2048], 2, 0)
def test_finish_in_place_equals_the_copying_steps(head, samples, seed):
    # the in-place finish is the readout, snap, mean and std(ddof=1) of copies, bit for bit
    rng = np.random.default_rng(seed)
    extra = max(0, samples - len(head))
    offsets = rng.choice(np.array(KEY_OFFSETS, dtype=np.uint64), extra)
    near = np.where(rng.random(extra) < 0.5, offsets, np.negative(offsets))  # d or 2^64 - d
    tail = np.where(rng.random(extra) < 0.5, near, rng.integers(0, 2**64 - 1, extra, dtype=np.uint64, endpoint=True))
    keys = np.concatenate([np.array(head[:samples], dtype=np.uint64), tail])
    assert len(keys) == samples
    want = finish_reference(keys)
    assert oracle._finish(keys, np.empty(samples)) == want


def test_only_snap_reads_the_snap_tolerance():
    # the lattice readout and Monte Carlo share one snap: no other function reads INTEGER_SNAP_TOL
    readers, scope = set(), ["<module>"]  # (module, innermost function) of each read

    class Readers(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            scope.append(node.name)
            self.generic_visit(node)
            scope.pop()

        def visit_Name(self, node):
            if node.id == "INTEGER_SNAP_TOL" and isinstance(node.ctx, ast.Load):
                readers.add((module, scope[-1]))

        def visit_Attribute(self, node):
            if node.attr == "INTEGER_SNAP_TOL":
                readers.add((module, scope[-1]))
            self.generic_visit(node)

        def visit_ImportFrom(self, node):
            if "INTEGER_SNAP_TOL" in {alias.name for alias in node.names}:
                readers.add((module, scope[-1]))

    for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
        module = path.stem
        Readers().visit(ast.parse(path.read_text(encoding="utf-8")))
    assert readers == {("oracle", "_snap")}


@given(st.lists(st.lists(st.integers(0, 4), min_size=4, max_size=4).filter(any), min_size=5, max_size=5),
       st.integers(1, 4))
def test_distinct_thresholds_equal_np_unique(weights, r):
    # rows of small integer weights repeat cumulative values within a row (zero entries) and
    # across rows (equal rows and shared partial sums)
    rows = [np.array(w[:r], dtype=np.float64) for w in weights]
    rows = [row / row.sum() if row.any() else np.eye(r)[0] for row in rows]
    source = MarkovSource.from_floats(rows[r], np.array(rows[:r]))
    cum = oracle._cumulative_rows(source)
    assert oracle._distinct(cum).tobytes() == np.unique(cum).tobytes()
    assert oracle._rank_tables(source)[0].tobytes() == np.unique(cum).tobytes()


def test_monte_carlo_caps_refuse_before_drawing(float_convergent_source, monkeypatch):
    def no_stream(*args, **kwargs):
        raise AssertionError("a refused request drew uniforms")

    monkeypatch.setattr(oracle.np.random, "Philox", no_stream)
    with pytest.raises(ResourceLimit):
        monte_carlo_redundancy(float_convergent_source, 1, oracle.MC_SAMPLE_CAP + 1, seed=0)
    with pytest.raises(ResourceLimit):
        monte_carlo_redundancy(float_convergent_source, oracle.MC_STEP_CAP // 1000 + 1, 1000, seed=0)
    n = oracle.MC_STEP_CAP // oracle.MC_SAMPLE_CAP
    oracle.check_monte_carlo(oracle.MC_SAMPLE_CAP, n, n, float_convergent_source)
    # ten times the samples of the benchmark's largest request (10^5 over n = 99..100) are admitted
    oracle.check_monte_carlo(10 * 10**5, 99, 100, float_convergent_source)


def test_monte_carlo_window_cap_refuses_before_drawing(float_convergent_source, monkeypatch):
    # a window holds min(samples, _MC_CHUNK_ROWS) * hi ranks, one byte each below 256
    # thresholds: 4096 samples at n = 2^17 would hold 512 MiB within the step cap, and are
    # refused undrawn
    def no_stream(*args, **kwargs):
        raise AssertionError("a refused request drew uniforms")

    monkeypatch.setattr(oracle.np.random, "Philox", no_stream)
    cap = oracle.MC_WINDOW_BYTES_CAP
    hi = cap // oracle._MC_CHUNK_ROWS
    assert 4096 * 2 * hi <= oracle.MC_STEP_CAP
    with pytest.raises(ResourceLimit, match=f"window of {4096 * 2 * hi} ranks, {4096 * 2 * hi} > .* = {cap} bytes"):
        monte_carlo_redundancy(float_convergent_source, 2 * hi, 4096, seed=0)
    with pytest.raises(ResourceLimit, match="window"):
        monte_carlo_redundancy_range(float_convergent_source, 2 * hi - 1, 2 * hi, 4096, seed=0)
    # at the cap, and with fewer samples than a chunk, the window is admitted
    oracle.check_monte_carlo(4096, hi, hi, float_convergent_source)
    oracle.check_monte_carlo(64, 4 * hi, 4 * hi, float_convergent_source)
    # from 256 thresholds on a rank takes two bytes, so half the ranks fill the cap: at
    # r = 17 a window of 2^27 ranks is admitted and one row more is refused
    wide = random_float_source(np.random.default_rng(0), 17)
    assert len(oracle._rank_tables(wide)[0]) >= 256
    oracle.check_monte_carlo(4096, hi // 2, hi // 2, wide)
    with pytest.raises(ResourceLimit, match=f"window of {4096 * (hi // 2 + 1)} ranks, {8192 * (hi // 2 + 1)} > "):
        monte_carlo_redundancy(wide, hi // 2 + 1, 4096, seed=0)
