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
from shancode.exact import rho_ratio
from tests.conftest import (
    coprime_base_reference,
    decimal_path_reference,
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
    points, Q, _ = oracle._float_lattice(s)
    cells = s.prob_table.index[s.r]  # the initial row: each letter's position among the logs
    negs = [F(-math.log2(q)) for q in letters]
    bits = max(64, max(x.denominator for x in negs).bit_length() - 1)
    keys, total = points[cells[[int(path[0])]]], negs[path[0]]
    for i in path[1:]:
        keys, total = oracle._add(keys, points[cells[[int(i)]]], Q), total + negs[i]
    assert Q == 2**bits and keys.dtype == (np.uint64 if bits == 64 else object)
    assert F(int(keys[0]), Q) == total % 1
    rho = float(-total % 1)
    near = min(rho, 1.0 - rho) <= oracle.INTEGER_SNAP_TOL
    assert oracle._readout(keys, np.ones(1), Q, True) == (0.0 if near else rho, near and total % 1 != 0)


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
    _, Q, _ = oracle._float_lattice(KEY_SOURCES[bits])
    dtype = np.uint64 if bits == 64 else object
    keys = np.array([key, key], dtype=dtype)
    summed = oracle._add(keys, np.array([delta], dtype=dtype), Q)
    assert summed.dtype == dtype and [int(v) for v in summed] == [(key + delta) % 2**bits] * 2


def test_float_readout_rounds_like_int_division():
    # rho = ((-K) mod 2^bits) 2^-bits rounds one key above 2^53 to a float; at 64 and at 96
    # bits it must round half to even exactly as the int division rho_int / 2^bits does
    ties = [2**53 + 1, 2**53 + 3, 2**62 + 2**9, 2**62 + 3 * 2**9, 2**63 + 2**10, 2**63 + 3 * 2**10,
            3 * 2**62 + 1, 2**64 - 2**40 - 2**10]
    for bits, s in KEY_SOURCES.items():
        _, Q, _ = oracle._float_lattice(s)
        for t in [(t << 32) + low for t in ties for low in (0, 1)] if bits == 96 else ties:
            keys = np.array([-t % 2**bits], dtype=np.uint64 if bits == 64 else object)
            assert oracle._readout(keys, np.ones(1), Q, True) == (t / 2**bits, False), (bits, t)


def fixed_log2(b: int, Q: int) -> int:
    """round(Q log2 b) modulo Q, from a 60-digit decimal log."""
    with localcontext() as ctx:
        ctx.prec = 60
        return int((Decimal(b).ln() / Decimal(2).ln() * Q).to_integral_value()) % Q


# D = 3, Q = 3 2^61: the rows sum to 1 only within about 1e-15 (row_sums_inexact)
THIRD_EXPONENT = MarkovSource.from_exact(["1/2", "1/2"], [["1/3", "2/3"], ["2^(-1/3)", "151085395078759/732359574833983"]])
# D = 2, Q = 2^64: 2^(-1/2) beside its complement 1 - 2^(-1/2) within 1e-13
HALF_EXPONENT = MarkovSource.from_exact(["1/2", "1/2"], [["2^(-1/2)", str(F(1 - 2**-0.5).limit_denominator(10**13))],
                                                         ["1/3", "2/3"]])


def test_exact_lattice_keys_are_one_integer_modulo_q():
    # nine coprime base elements (3, 5, 7, ...) and exponents up to 20, and still one
    # uint64 key a path: -log2 mu modulo 1 in units of 1 / Q, Q = 2^64 at D = 1.  A step
    # of odd mantissa prod b_i^e_i is -sum e_i L_i modulo Q, with L_i = round(Q log2 b_i):
    # mu = 1/3 is L_3 and the step 5^-20 is 20 L_5
    s = nine_prime_source()
    points, Q, passes = oracle._exact_lattice(s)
    index = s.prob_table.index
    assert Q == 2**64 and points.dtype == np.uint64 and points.ndim == 1 and passes == [[0, 1, 2]]
    assert points[index[s.r]].tolist() == [fixed_log2(3, Q)] * 3
    assert int(points[index[0, 0]]) == 20 * fixed_log2(5, Q) % Q
    for n in range(2, 8):
        assert abs(exact_redundancy(s, n).value - redundancy_bruteforce(s, n)) <= 1e-12, n
    # two step sequences of one exact mu, 1/3 * 2/3 and 2/9 * 1, land on one key, and their
    # masses on one merged entry: each key is a sum of base logs, never a rounded log of 9
    s = MarkovSource.from_exact(["1/3", "2/9", "4/9"], [["1/3", 0, "2/3"], [0, 0, 1], ["1/2", "1/4", "1/4"]])
    points, Q, _ = oracle._exact_lattice(s)
    index = s.prob_table.index
    a = oracle._add(points[index[s.r, :1]], points[index[0, 2:]], Q)
    b = oracle._add(points[index[s.r, 1:2]], points[index[1, 2:]], Q)
    assert a.tolist() == b.tolist() == [2 * fixed_log2(3, Q) % Q]
    keys, masses = oracle._merge([(a, np.array([1 / 9])), (b, np.array([2 / 9]))])
    assert keys.tolist() == a.tolist() and masses.tolist() == [1 / 9 + 2 / 9]
    # a rational point K / D is the key K Q / D, read out as rho_ratio's value bit for bit,
    # at Q = 2^64 (D = 2) and at Q = 3 2^61 (D = 3), where a sum reduces modulo Q
    for s, D in ((HALF_EXPONENT, 2), (THIRD_EXPONENT, 3)):
        points, Q, _ = oracle._exact_lattice(s)
        assert Q == (2**64 if D == 2 else 3 * 2**61)
        for K in range(-40, 40):
            key = np.array([K * (Q // D) % Q], dtype=np.uint64)
            assert oracle._readout(key, np.ones(1), Q, False) == (rho_ratio(K, D), False), (D, K)
        summed = oracle._add(points, points[:, None], Q)
        assert summed.dtype == np.uint64
        assert summed.tolist() == [[(x + y) % Q for x in points.tolist()] for y in points.tolist()]
    # the D = 3 path 1/2 * 2^(-1/3) is the rational -log2 mu = 4/3: rho 2/3
    points, Q, _ = oracle._exact_lattice(THIRD_EXPONENT)
    index = THIRD_EXPONENT.prob_table.index
    key = oracle._add(points[index[2, 1:]], points[index[1, :1]], Q)
    assert oracle._readout(key, np.ones(1), Q, False) == (rho_ratio(4, 3), False) == (2 / 3, False)



def test_merge_sums_equal_keys_in_part_order():
    # key 0 in each of 40 parts, with mass 2^-53 (half an ulp of 1) in the first 39 and 1
    # in the last: in part order the halves add exactly before the 1 comes, and the sum
    # is 1 + 20 ulps; a half added after the 1 is a tie that rounds to even, and is lost
    parts = [(np.array([0, 100 + i], dtype=np.uint64), np.array([1.0 if i == 39 else 2.0**-53, float(i)]))
             for i in range(40)]
    want = {}
    for keys, masses in parts:
        for key, mass in zip(keys.tolist(), masses.tolist()):
            want[key] = want.get(key, 0.0) + mass
    keys, masses = oracle._merge(parts)
    assert keys.tolist() == sorted(want) and masses.tolist() == [want[k] for k in sorted(want)]
    assert masses[0] == 1.0 + 20 * 2.0**-52


# R_n at n = 10, 30, 60 and 130 as the DP gave them with a key column per base element
FRACTIONAL_PINS = {"third": (0.5091666338497095, 0.48670312547044176, 0.4935763050259988, 0.49671917254086373),
                   "half": (0.5778056415059958, 0.500718179416396, 0.49729708397065964, 0.49659916189563896)}


@pytest.mark.parametrize("name, source", [("third", THIRD_EXPONENT), ("half", HALF_EXPONENT)])
def test_fractional_exponent_keys_against_decimal_paths(name, source):
    # -log2 mu of these paths has a rational part in thirds or halves beside log2 of odd
    # mantissas: every R_n for n <= 9 within 1e-15 of a 50-digit sum over its paths (the
    # float masses' rounding), and R_n to n = 130 within 2e-16 of FRACTIONAL_PINS
    rows = oracle.lattice_dp(source, 1, 130)
    for rec in rows[:9]:
        assert abs(rec.value - float(decimal_path_reference(source, rec.n))) <= 1e-15, rec.n
    for n, want in zip((10, 30, 60, 130), FRACTIONAL_PINS[name]):
        assert abs(rows[n - 1].value - want) <= 2e-16, n


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


def test_exact_lattice_denominator_bound_refused_before_any_work(permutation_source, monkeypatch):
    # a key counts in units of 1 / Q, and Q holds D: D = 2^62 + 1 is refused before any DP
    # work, D = 2^62 - 1 (Q = 2 D) reaches the DP
    class Reached(Exception):
        pass

    def no_dp(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(oracle, "_forward", no_dp)
    with pytest.raises(ResourceLimit, match="reaches 2\\^62"):
        oracle.lattice_dp(MarkovSource.from_exact([f"2^(-1/{2**62 + 1})"], [[1]]), 1, 1)
    with pytest.raises(Reached):
        oracle.lattice_dp(MarkovSource.from_exact([f"2^(-1/{2**62 - 1})"], [[1]]), 1, 1)
    # exponents no longer bound n: perm at n = 2^61 and 2^62 reaches the DP, whose move
    # budget refuses it where the lifted chain's reach ends
    for n in (2**61, 2**62):
        with pytest.raises(Reached):
            oracle.lattice_dp(permutation_source, n, n)
    monkeypatch.undo()
    with pytest.raises(ResourceLimit, match=f"reached n = 31776 of {2**61}; .* key moves > {oracle.DP_MOVE_BUDGET}"):
        oracle.lattice_dp(permutation_source, 2**61, 2**61)


def record_readouts(monkeypatch) -> list:
    """(per-state key counts, merged key count) of each frontier a readout reads, in order.

    The frontier a readout reads is the one _merge was last given before it.
    """
    merge, readout, last, records = oracle._merge, oracle._readout, [], []

    def recording_merge(parts):
        last[:] = [len(masses) for _, masses in parts]
        return merge(parts)

    def recording_readout(keys, masses, Q, snap):
        records.append((list(last), len(masses)))
        return readout(keys, masses, Q, snap)

    monkeypatch.setattr(oracle, "_merge", recording_merge)
    monkeypatch.setattr(oracle, "_readout", recording_readout)
    return records


def test_float_lattice_points_merge_by_value(monkeypatch):
    # -log2 of the steps is 1, 2, 0 or log2(3), so a path from a fixed first
    # state has -log2 mu = const + I + c log2(3) with c <= n - 1 thirds and
    # I <= 2 (n - 1 - c): at most n^2 values per first state, and float paths
    # with equal -log2 mu share one lattice point
    es = MarkovSource.from_exact(["1/4", "1/4", "1/2"], [["1/2", "1/4", "1/4"], [0, 0, 1], ["1/3", "1/3", "1/3"]])
    fs = float_copy(es)
    records = record_readouts(monkeypatch)
    rows = exact_redundancy_range(fs, 1, 40)
    sizes = [merged for _, merged in records]
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
    records = record_readouts(monkeypatch)
    oracle.lattice_dp(s, 1, 60)
    assert [merged for _, merged in records] == list(range(1, 61))


def test_exact_readout_of_irrational_keys(permutation_source):
    # -log2 mu = n log2 3 modulo 1 on every path: the key n L_3 modulo 2^64 is within
    # n 2^-65 of it, and all of the 4.0e-15 left is the masses' drift from 1; e log2 3 as
    # one float product is 2.8e-13 off by n = 900
    rows = oracle.lattice_dp(permutation_source, 1, 2000)
    assert max(abs(rec.value - rho_log2_3(rec.n)) for rec in rows) <= 4.0e-15


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
    records = record_readouts(monkeypatch)
    oracle.lattice_dp(s, 1, 60)
    work = [64 * s.r + 8 * sum(rows) + (64 * s.r + 2 * sum(rows) if n < 60 else 0)
            for n, (rows, _) in enumerate(records, 1)]
    budget = 5000
    stop = next(n for n in range(1, 61) if sum(work[:n]) > budget)
    records.clear()
    monkeypatch.setattr(oracle, "DP_MOVE_BUDGET", budget)
    with pytest.raises(ResourceLimit, match=f"reached n = {stop} of 60; .* {sum(work[:stop])} key moves > {budget}"):
        oracle.lattice_dp(s, 1, 60)
    # no work past the budget ran: n = stop was never read out, nor the step beyond it taken
    assert len(records) == stop - 1
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


def test_decimal_references_read_dyadic_paths_exactly():
    # 3/8 * 1/4 * 3/4 * 8/9 = 1/16: a path whose odd mantissas cancel has rho = 0.  Summed
    # 40-digit step logs read its -log2 mu as 4.000...002 and rho as about 1, 9/128 too much
    c130 = MarkovSource.from_exact(["1/8", "3/8", "1/2"], [["8/9", "1/9", 0], ["1/8", "5/8", "1/4"], ["3/4", 0, "1/4"]])
    want = redundancy_bruteforce(c130, 4)
    assert abs(want - 0.3644) < 1e-4
    assert abs(float(decimal_path_reference(c130, 4)) - want) <= 1e-15
    assert abs(oracle.lattice_dp(c130, 4, 4)[0].value - want) <= 1e-15
    # 1/2 * 3/4 * 8/9 * 3/4 = 1/4, the type 0 -> 1 -> 0 -> 1; summed logs read rho about 1
    # there too, 1/4 too much
    two = MarkovSource.from_exact(["1/2", "1/2"], [["1/4", "3/4"], ["8/9", "1/9"]])
    for n in range(1, 8):
        want = redundancy_bruteforce(two, n)
        assert abs(two_state_type_reference(two, n) - want) <= 1e-15, n
        assert abs(float(decimal_path_reference(two, n)) - want) <= 1e-15, n
        assert abs(oracle.lattice_dp(two, n, n)[0].value - want) <= 1e-15, n


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
    assert oracle._rank_tables(source)[3] == 3  # walked three ranks a lookup: n = 9 in groups, 7 with a tail
    assert_same_monte_carlo(source, 9, samples, seed=7)
    assert_same_monte_carlo(source, 7, samples, seed=7)


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
    points = oracle._float_lattice(source)[0]
    assume(points.dtype == np.uint64)
    tables = oracle._rank_tables(source)
    thresholds, nxt = tables[:2]
    samples, width, index = 16, len(thresholds) + 1, source.prob_table.index
    held = np.empty(samples * n, dtype=oracle._rank_dtype(len(thresholds)))
    ranks = oracle._ranks(seed, 0, held, thresholds).reshape(samples, n)
    got = np.empty(samples, dtype=np.uint64)
    oracle._walk(ranks, tables, got)
    for row, key in zip(ranks.tolist(), got.tolist()):
        state, total = source.r, 0
        for rank in row:
            j = int(nxt[state * width + rank]) // width
            total, state = (total + int(points[index[state, j]])) % 2**64, j
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
        monkeypatch.setattr(oracle, "_MC_BLOCK", 2**10)
        for cut in (0, len(thresholds) + 1):
            monkeypatch.setattr(oracle, "_MC_SEARCH_THRESHOLDS", cut)
            runs.append(oracle._ranks(9, 13, held, thresholds).copy())
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

    def counting(seed, start, out, thresholds):
        windows.append(start)
        drawn.append(len(out))
        return ranks(seed, start, out, thresholds)

    monkeypatch.setattr(oracle, "_ranks", counting)
    source = random_float_source(np.random.default_rng(3), 3)
    for lo, hi, samples in ((7, 12, 2 * MC_ROWS + 17), (1, 9, 3 * MC_ROWS), (40, 40, MC_ROWS + 1)):
        windows.clear(), drawn.clear()
        monte_carlo_redundancy_range(source, lo, hi, samples, seed=7)
        assert samples * hi <= sum(drawn) <= samples * hi + len(windows) * (hi - 1)
        assert windows == sorted(set(windows))


def test_rank_tables_are_the_sorted_search_at_ties(monkeypatch):
    # rows with zero entries repeat a cumulative value, and row 2 ends in zeros, so one
    # threshold is 1.0; uniforms sit exactly on thresholds and one draw, 2^-53, below them.
    # The threshold 1/3 lies between two draws, which must rank on either side of it.
    # 3/8 and 5/8 give keys that are not 0
    trans = np.array([[0.25, 0.0, 0.25, 0.5], [0.0, 0.0, 0.375, 0.625], [0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 1 / 3, 2 / 3]])
    source = MarkovSource.from_floats([0.0, 0.375, 0.0, 0.625], trans)
    below = [x - 2.0**-53 for x in (0.25, 0.375, 0.5, 1.0)]
    third = [math.floor(2**53 / 3) * 2.0**-53, math.ceil(2**53 / 3) * 2.0**-53]
    assert third[0] < 1 / 3 < third[1]
    u = np.repeat([0.0, 0.25, 0.375, 0.5, 0.75, *third, *below], 2)
    # raw draws whose >> 11 gives u 2^53: low bits clear, then set, the last 2^64 - 1
    whole = [int(x * 2**53) << 11 for x in u[::2].tolist()]
    raw = np.array([w + low for w in whole for low in (0, 2**11 - 1)], dtype=np.uint64)
    assert int(raw[-1]) == 2**64 - 1 and ((raw >> 11).astype(np.float64) * 2.0**-53).tolist() == u.tolist()

    class Replay:  # a bit generator that draws raw, so the ranks see the ties
        def __init__(self, key, counter):
            self.at = 0

        def random_raw(self, size):
            self.at += size
            return raw[self.at - size:self.at].copy()

    thresholds, nxt, step = oracle._rank_tables(source)[:3]
    assert thresholds[-1] == 1.0
    monkeypatch.setattr(oracle.np.random, "Philox", Replay)
    monkeypatch.setattr(oracle, "_MC_BLOCK", 4)  # several blocks
    runs = []
    for cut in (0, len(thresholds) + 1):  # the sorted search and the count
        monkeypatch.setattr(oracle, "_MC_SEARCH_THRESHOLDS", cut)
        runs.append(oracle._ranks(0, 0, np.empty(len(u), dtype=np.uint8), thresholds))
    monkeypatch.undo()
    ranks = runs[0]
    assert runs[1].tolist() == ranks.tolist() == np.searchsorted(thresholds, u, side="right").tolist()
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


def test_group_tables_are_k_one_step_moves():
    # entry state + code of the group tables is the walk of code's k digits, first digit first,
    # through the one-step tables: the state it ends in and the wrapped sum of its step keys.  k is
    # 1 on the one-state chain (one rank) and at r = 17 (searched ranks), and above 1 elsewhere
    rng = np.random.default_rng
    cases = [(1, MarkovSource.from_exact([1], [[1]])), (1, random_float_source(rng(0), 17)), (5, FLOAT_SNAP),
             (3, random_float_source(rng(0), 3, with_zeros=True)), (2, random_float_source(rng(2), 5, with_zeros=True))]
    for want, source in cases:
        thresholds, nxt, step, k, group_next, group_key = oracle._rank_tables(source)
        width = len(thresholds) + 1

        def entries(k):
            return (source.r + 1) * width**k

        # the largest k with entries within the cap, and 1 where none is
        assert k == want
        cap = oracle._MC_GROUP_ENTRIES
        assert width == 1 or (k == 1 or entries(k) <= cap) and entries(k + 1) > cap
        assert len(group_next) == len(group_key) == entries(k) and group_key.dtype == np.uint64
        for entry in range(entries(k)):
            state, code = divmod(entry, width**k)
            total = 0
            for i in reversed(range(k)):
                index = state * width + code // width**i % width
                total, state = (total + int(step[index])) % 2**64, int(nxt[index]) // width
            assert (int(group_next[entry]), int(group_key[entry])) == (state * width**k, total), (source, entry)


def test_monte_carlo_group_walk_at_every_remainder():
    # n below k, at k, and at each remainder modulo k up to 2 k + 1: the groups and the one-step tail
    source = random_float_source(np.random.default_rng(0), 2)
    k = oracle._rank_tables(source)[3]
    assert k == 5
    got = monte_carlo_redundancy_range(source, 1, 2 * k + 1, 300, seed=8)
    assert got == [monte_carlo_reference(source, n, 300, seed=8) for n in range(1, 2 * k + 2)]


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 5), st.booleans(), st.integers(1, 13), st.integers(0, 3), st.integers(1, 70),
       st.integers(0, 2**32 - 1))
def test_monte_carlo_group_walk_matches_reference(r, with_zeros, lo, extra, samples, seed):
    source = random_float_source(np.random.default_rng(seed), r, with_zeros=with_zeros)
    got = monte_carlo_redundancy_range(source, lo, lo + extra, samples, seed)
    assert got == [monte_carlo_reference(source, n, samples, seed) for n in range(lo, lo + extra + 1)]


def test_monte_carlo_independent_of_chunk_size(float_convergent_source, monkeypatch):
    before = monte_carlo_redundancy(float_convergent_source, 10, 1000, seed=3)
    for rows in (1, 7, 999, 1000, 5000):
        monkeypatch.setattr(oracle, "_MC_CHUNK_ROWS", rows)
        assert monte_carlo_redundancy(float_convergent_source, 10, 1000, seed=3) == before


def test_monte_carlo_holds_one_draw_chunk(float_convergent_source):
    # numpy reports its buffers to tracemalloc.  A request holds one uint64 block of raw
    # draws, one window of ranks (a byte each at r = 2), the per-sample array and its walk's
    # code (2 / k bytes a rank); a float64 window, or two raw blocks at once, would pass the bound
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
    # per-n -log2 mu arrays, a window of ranks and a block of raw draws; then it finishes
    # each n in place in one scratch array and lets it go.  Copies for the snap, rho and
    # the deviations, as ndarray.std makes, held three or four more (5.6 MB on this source),
    # and a two-byte transposed copy of a walked chunk would pass the bound too
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
