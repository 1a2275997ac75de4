"""Mode classification, oscillation sums and the closed-form special cases."""

import dataclasses
import math
import random
import time
import tracemalloc
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shancode import (
    MarkovSource,
    Prediction,
    ceil_defect,
    classify_mode,
    eigen,
    exact_redundancy,
    exact_redundancy_range,
    find_oscillation_order,
    oracle,
    oscillation_argument,
    phase_matrix,
    predict,
    validate,
)
from shancode.asymptotics import DEFAULT_XI, prediction_columns, readout_denominator
from shancode.errors import ReducibleChain
from shancode.exact import ZERO, ExactProb
from shancode.sources import classify_structure, log2_prob, stationary_distribution
from tests.conftest import (
    absorbing_pair_formula,
    float_copy,
    iter_paths_bruteforce,
    log2value_sum,
    memoryless,
    omega_decimal_reference,
    period2_source,
    random_exact_source,
    random_float_source,
    random_order_source,
    row_log2value,
    verify_similarity,
)

F = Fraction
LOG3 = math.log2(3.0)


def test_ceil_defect_examples():
    assert ceil_defect(2.25) == 0.75
    assert ceil_defect(3.0) == 0.0
    assert ceil_defect(-0.5) == 0.5


@given(st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_ceil_defect_range_and_period(u):
    v = ceil_defect(u)
    assert 0.0 <= v < 1.0
    # u + 1.0 rounds away low bits of a tiny u (9.76e-17 + 1.0 == 1.0), and
    # then the two sides evaluate rho at different points
    if (u + 1.0) - 1.0 == u:
        assert ceil_defect(u + 1.0) == pytest.approx(v, abs=1e-9)


# -- classification --------------------------------------------------------------


def test_classify_exact_oscillatory(permutation_source):
    cls = classify_mode(permutation_source)
    assert cls.mode == "oscillatory" and cls.M == 1
    assert cls.provenance == "exact_rational"
    assert "degenerate" not in cls.flags


def test_classify_exact_convergent_proven(convergent_exact_source):
    cls = classify_mode(convergent_exact_source)
    assert cls.mode == "convergent"
    assert cls.provenance == "exact_rational"
    assert "heuristic" not in cls.flags


def test_classify_memoryless_third():
    cls = classify_mode(memoryless([F(1, 3), F(2, 3)]))
    assert cls.mode == "oscillatory" and cls.M == 1


def test_classify_dyadic_degenerate(dyadic_memoryless):
    cls = classify_mode(dyadic_memoryless)
    assert cls.mode == "oscillatory" and cls.M == 1
    assert "degenerate" in cls.flags
    assert cls.s == 0.0 and cls.w == (0.0, 0.0)


def test_classify_float_heuristic(float_convergent_source):
    cls = classify_mode(float_convergent_source)
    assert cls.mode == "convergent"
    assert cls.provenance == "heuristic_float"
    assert "heuristic" in cls.flags


def test_classify_delegates_on_zero_entries(cycle_source):
    cls = classify_mode(cycle_source)
    assert cls.mode == "oscillatory" and cls.M == 1
    assert cls.provenance == "exact_rational"


def test_classify_exact_order_beyond_scan(order67_source):
    # M = 67 lies beyond the spectral scan's default m_max = 64
    s = order67_source
    assert "row_sums_inexact" in validate(s).flags
    cls = classify_mode(s)
    assert cls.mode == "oscillatory" and cls.M == 67
    assert cls.provenance == "exact_rational" and "heuristic" not in cls.flags
    ok, residual = verify_similarity(s, cls.M, cls.s, cls.w)
    assert ok and residual <= 1e-9, residual


def test_classify_exact_convergent_with_zero_transition():
    # cycles 0 -> 0 and 0 -> 1 -> 0 weigh log2 3 and log2 3 - 1, and
    # 2 log2 3 - (log2 3 - 1) = log2 3 + 1 is irrational, so no M exists
    s = MarkovSource.from_exact(["1/2", "1/2"], [["1/3", "2/3"], [1, 0]])
    cls = classify_mode(s)
    assert cls.mode == "convergent"
    assert cls.provenance == "exact_rational"
    assert "heuristic" not in cls.flags


def test_classify_reducible_raises(absorbing_source):
    with pytest.raises(ReducibleChain):
        classify_mode(absorbing_source)


def test_order_consistency_lcm_vs_spectral(oscillatory_exact_family):
    for s in oscillatory_exact_family:
        cls = classify_mode(s)
        res = find_oscillation_order(s)
        assert cls.M == res.order
        assert cls.s == pytest.approx(res.phase, abs=1e-9)
        assert np.allclose(cls.w, res.weights, atol=1e-9)


def test_exact_zero_transition_sources_match_scan(cycle_source, bipartite_periodic_source, dyadic_markov_pair):
    # the exact solver and the spectral scan find the same M, s and w; in
    # the last source the first return edge to state 0 closes a 2-cycle
    # while the period is 1, so the gcd must be refined by later edges
    refined = MarkovSource.from_exact(["1/2", "1/4", "1/4"], [[0, "1/9", "8/9"], [1, 0, 0], ["1/2", "1/6", "1/3"]])
    for s in (cycle_source, bipartite_periodic_source, *dyadic_markov_pair, refined):
        cls = classify_mode(s)
        res = find_oscillation_order(s)
        assert cls.provenance == "exact_rational" and cls.M == res.order
        assert cls.s == pytest.approx(res.phase, abs=1e-12)
        assert np.allclose(cls.w, res.weights, atol=1e-12)


def circular(a: float, b: float) -> float:
    d = (a - b) % 1.0
    return min(d, 1.0 - d)


def assert_same_as_scan(cls, res):
    """Float classification against find_oscillation_order at the same m_max."""
    assert (cls.mode, cls.M) == ("convergent" if res.order is None else "oscillatory", res.order)
    if res.order is None:
        assert cls.provenance == "heuristic_float" and "heuristic" in cls.flags
        return
    assert cls.provenance == "spectral_search" and cls.solution is not None
    assert circular(cls.s, res.phase) <= 1e-12
    assert max(circular(a, b) for a, b in zip(cls.w, res.weights)) <= 1e-12


SCANNED_FIXTURES = [
    "dyadic_memoryless", "dyadic_r3", "permutation_source", "permutation_state0_start", "cycle_source",
    "bipartite_periodic_source", "float_convergent_source", "m2_source", "convergent_exact_source",
]


def test_float_classification_matches_scan_on_fixtures(request, oscillatory_exact_family, dyadic_markov_pair):
    cancelling = MarkovSource.from_exact(["3/4", "1/4"], [["1/3", "2/3"], ["1/3", "2/3"]])
    sources = [request.getfixturevalue(name) for name in SCANNED_FIXTURES]
    for s in [*sources, *oscillatory_exact_family, *dyadic_markov_pair, cancelling]:
        f = float_copy(s)
        assert_same_as_scan(classify_mode(f, m_max=128), find_oscillation_order(f, m_max=128))


def random_oscillatory_float_source(rng, r: int, q: int) -> MarkovSource:
    """Rows permute one distribution c 2^(-e_i) with e_i in (1/q) Z, so every M divides q."""
    p = 2.0 ** -(rng.integers(0, 3 * q, size=r) / q)
    P = np.array([rng.permutation(p / p.sum()) for _ in range(r)])
    p0 = rng.random(r) + 0.05
    return MarkovSource.from_floats(p0 / p0.sum(), P)


def test_float_classification_matches_scan_on_random_sources():
    rng = np.random.default_rng(20240601)
    sources = [random_float_source(rng, r, with_zeros=z) for _ in range(16) for r in (2, 3, 4, 6) for z in (0, 1)]
    sources = [s for s in sources if classify_structure(s).irreducible]
    assert len(sources) >= 100
    near_misses = 0
    for s in sources:
        cls, res = classify_mode(s, m_max=128), find_oscillation_order(s, m_max=128)
        if cls.M != res.order:
            # the scan accepts |rho(A_m) - 1| <= 1e-6; a near miss there is
            # no similarity at all, and the congruence rejects it
            assert cls.mode == "convergent" and not verify_similarity(s, res.order, res.phase, res.weights, 1e-6)[0]
            near_misses += 1
            continue
        assert_same_as_scan(cls, res)
    assert near_misses <= 2
    for q in (1, 2, 3, 5):
        for r in (2, 3, 4, 6):
            s = random_oscillatory_float_source(rng, r, q)
            cls = classify_mode(s, m_max=128)
            assert cls.mode == "oscillatory" and q % cls.M == 0
            assert verify_similarity(s, cls.M, cls.s, cls.w, 1e-12)[0]
            assert_same_as_scan(cls, find_oscillation_order(s, m_max=128))


def test_float_order_bounded_by_m_max_like_the_scan(order67_source):
    f = float_copy(order67_source)
    cls = classify_mode(f)
    assert cls.mode == "convergent" and cls.provenance == "heuristic_float" and "heuristic" in cls.flags
    assert_same_as_scan(cls, find_oscillation_order(f))
    cls = classify_mode(f, m_max=128)
    assert cls.mode == "oscillatory" and cls.M == 67
    assert_same_as_scan(cls, find_oscillation_order(f, m_max=128))


@pytest.mark.parametrize("name", [
    "p2b_source", "p3_source", "oscillatory_exact_family", "cycle_source", "bipartite_periodic_source",
    "order67_source",
])
def test_float_periodic_copies_classify_and_predict(name, request):
    # float copies keep their similarity solution and predict from it; the
    # scan's eigenvector basis is singular on p2b's and p3's repeated rows,
    # and the congruence needs no eigenvectors
    fixture = request.getfixturevalue(name)
    for s in fixture if isinstance(fixture, list) else [fixture]:
        f = float_copy(s)
        cls, exact_cls = classify_mode(f, m_max=128), classify_mode(s)
        assert cls.mode == "oscillatory" and cls.M == exact_cls.M and cls.provenance == "spectral_search"
        assert cls.solution is not None
        assert circular(cls.s, exact_cls.s) <= 1e-12
        assert max(circular(a, b) for a, b in zip(cls.w, exact_cls.w)) <= 1e-12
        cf, ce = prediction_columns(f, cls, 1, 2000), prediction_columns(s, exact_cls, 1, 2000)
        live = (cf.boundary_terms == 0.0) & (ce.boundary_terms == 0.0)
        assert np.all(np.abs(cf.omega - ce.omega)[live] <= 1e-10)
        assert np.count_nonzero(live) >= 1000


def test_float_periodic_phase_zero_is_not_one_over_d():
    # every cycle has an integer -log2 weight, so s = 0 at period 2; in
    # floats frac((M/d) Y) lands an ulp below 1/2 and must still read as 0
    rows = [[0, 0, "1/3", "2/3"], [0, 0, "1/2", "1/2"], ["3/4", "1/4", 0, 0], ["3/4", "1/4", 0, 0]]
    relabel = [2, 3, 0, 1]
    s = MarkovSource.from_exact(["1/4"] * 4, [[rows[a][b] for b in relabel] for a in relabel])
    exact_cls, cls = classify_mode(s), classify_mode(float_copy(s))
    assert exact_cls.s == 0.0 and cls.s == 0.0
    assert max(circular(a, b) for a, b in zip(cls.w, exact_cls.w)) <= 1e-12


# -- zeta ------------------------------------------------------------------------


def test_zeta_dyadic_integer(dyadic_memoryless):
    cls = classify_mode(dyadic_memoryless)
    for n in (1, 5, 9):
        for j in range(2):
            for k in range(2):
                z = oscillation_argument(dyadic_memoryless, cls, j, k, n)
                assert z == round(z)


def test_zeta_permutation_value(permutation_source):
    # with initial equal to the first row, rho(zeta) = rho(n log2 3) for all j, k
    cls = classify_mode(permutation_source)
    for n in (2, 7, 12):
        for j in range(2):
            for k in range(2):
                z = oscillation_argument(permutation_source, cls, j, k, n)
                assert ceil_defect(z) == pytest.approx(ceil_defect(n * LOG3), abs=1e-9)


def test_zeta_n1_diagonal(permutation_source):
    cls = classify_mode(permutation_source)
    for j in range(2):
        z = oscillation_argument(permutation_source, cls, j, j, 1)
        want = -cls.M * log2_prob(permutation_source.initial[j]).to_float()
        assert 0.0 <= z < 1.0 and circular(z, want) <= 1e-12


def test_zeta_routes_agree_mod_one(oscillatory_exact_family):
    # the stored exact solution and the spectral scan's (M, s, w) give the same zeta modulo 1
    for s in oscillatory_exact_family:
        cls = classify_mode(s)
        assert cls.provenance == "exact_rational"
        res = find_oscillation_order(s)
        for n in range(1, 101, 9):
            for j in range(s.r):
                if s.initial[j] is ZERO:
                    continue
                for k in range(s.r):
                    a = oscillation_argument(s, cls, j, k, n)
                    b = ((n - 1) * res.phase + res.weights[j] - res.weights[k]
                         - res.order * log2_prob(s.initial[j]).to_float())
                    assert circular(a, b) <= 1e-9


def frac_n_log2_3(n: int, digits: int = 60) -> float:
    """frac(n log2 3) in decimal arithmetic, as omega_decimal_reference evaluates logs."""
    with localcontext() as ctx:
        ctx.prec = digits
        u = n * Decimal(3).ln() / Decimal(2).ln()
        return float(u - u.to_integral_value(rounding=ROUND_FLOOR))


@pytest.mark.parametrize("n", [10**6, 10**7])
def test_zeta_at_large_n_is_reduced_exactly(permutation_source, n):
    # zeta_01(n) = n log2 3 - 1 on the permutation chain; the phase is reduced
    # modulo 1 from the stored solution, with no mantissa**(n-1)
    cls = classify_mode(permutation_source)
    t0 = time.perf_counter()
    z = oscillation_argument(permutation_source, cls, 0, 1, n)
    assert time.perf_counter() - t0 < 0.1
    assert 0.0 <= z < 1.0 and circular(z, frac_n_log2_3(n)) <= 1e-15


def test_telescoping_identity(oscillatory_exact_family):
    # <-M log2 mu(x)> equals <zeta_{x1,xn}(n)> for every positive-probability path
    for s in oscillatory_exact_family:
        if s.r > 3:
            continue
        cls = classify_mode(s)
        for n in (2, 5, 8):
            for path, _ in iter_paths_bruteforce(s, n):
                steps = [s.initial[path[0]], *(s.transitions[path[t - 1]][path[t]] for t in range(1, n))]
                total = log2value_sum([(1, log2_prob(p)) for p in steps])
                truth = (-total.to_float() * cls.M) % 1.0
                z = oscillation_argument(s, cls, path[0], path[-1], n) % 1.0
                diff = (truth - z) % 1.0
                assert min(diff, 1.0 - diff) <= 1e-9


# -- predictions -------------------------------------------------------------------


def test_omega_matches_oracle_permutation(permutation_source):
    cls = classify_mode(permutation_source)
    for n in range(2, 13):
        pred = predict(permutation_source, cls, n)
        assert pred.lower <= pred.omega <= pred.upper
        assert pred.upper - pred.lower == pytest.approx(2 * pred.boundary_terms, abs=1e-15)
        exact = exact_redundancy(permutation_source, n).value
        assert pred.omega == pytest.approx(exact, abs=1e-9)


def test_omega_band_invariant(oscillatory_exact_family):
    for s in oscillatory_exact_family:
        from shancode.sources import classify_structure

        if classify_structure(s).period != 1:
            continue
        cls = classify_mode(s)
        for n in (1, 4, 9, 16):
            pred = predict(s, cls, n)
            lo = 0.5 * (1 - 1 / cls.M)
            assert lo - 1e-12 <= pred.omega < lo + 1 / cls.M + 1e-12


def test_omega_large_m_tends_to_half(permutation_source):
    # the oscillatory band collapses onto 1/2 as the order grows
    cls = classify_mode(permutation_source)
    synthetic = dataclasses.replace(cls, M=10**6)
    pred = predict(permutation_source, synthetic, 7)
    assert abs(pred.omega - 0.5) < 1e-5


def test_omega_dyadic_degenerate(dyadic_memoryless):
    cls = classify_mode(dyadic_memoryless)
    pred = predict(dyadic_memoryless, cls, 6)
    assert "degenerate" in pred.flags
    assert pred.omega == 0.0  # M = 1 and all zeta integer: the prediction is exact
    assert exact_redundancy(dyadic_memoryless, 6).value == 0.0


def test_periodic_cycle_constant(cycle_source):
    cls = classify_mode(cycle_source)
    target = ceil_defect(LOG3)
    for n in range(1, 13):
        pred = predict(cycle_source, cls, n)
        assert pred.omega == pytest.approx(target, abs=1e-9)
        assert pred.omega == pytest.approx(exact_redundancy(cycle_source, n).value, abs=1e-9)


def test_periodic_cycle_dyadic_initial():
    s = MarkovSource.from_exact(["1/2", "1/2"], [[0, 1], [1, 0]])
    cls = classify_mode(s)
    for n in (1, 4, 7):
        assert predict(s, cls, n).omega == pytest.approx(0.0, abs=1e-12)


def test_periodic_branching_chain(bipartite_periodic_source):
    cls = classify_mode(bipartite_periodic_source)
    for n in range(1, 13):
        pred = predict(bipartite_periodic_source, cls, n)
        exact = exact_redundancy(bipartite_periodic_source, n).value
        assert pred.omega == pytest.approx(exact, abs=1e-9)


def test_predict_range_matches_single_n(
    oscillatory_exact_family, cycle_source, bipartite_periodic_source, p2b_source, p3_source,
    convergent_exact_source,
):
    for s in [*oscillatory_exact_family, cycle_source, bipartite_periodic_source, p2b_source, p3_source,
              convergent_exact_source]:
        cls = classify_mode(s)
        cols = prediction_columns(s, cls, 1, 40)
        ranged = [Prediction(n, *row, DEFAULT_XI, flags) for n, *row, flags in zip(
            cols.ns, cols.omega.tolist(), cols.lower.tolist(), cols.upper.tolist(), cols.boundary_terms.tolist(),
            cols.row_flags())]
        assert ranged == [predict(s, cls, n) for n in range(1, 41)]


@pytest.mark.parametrize("n", [10**6, 10**9, 10**12, 10**15])
def test_omega_matches_decimal_reference_at_large_n(oscillatory_exact_family, n):
    # the permutation chain and the r=3 circulant 1/7, 2/7, 4/7
    for s in (oscillatory_exact_family[0], oscillatory_exact_family[6]):
        cls = classify_mode(s)
        assert cls.provenance == "exact_rational"
        assert abs(predict(s, cls, n).omega - omega_decimal_reference(s, cls.M, n)) <= 1e-13


def test_omega_decimal_reference_reads_rational_points_exactly(dyadic_r3, m2_source):
    # where zeta_jk(n) is rational the reference must give the Fraction rho: a sum of four
    # rounded decimal logs can land an integer just above itself, where rho reads 1, not 0.
    # Each pair's rho here is the Fraction one at a rational zeta and one 60-digit log of its
    # combined mantissa elsewhere; perm started at (3/4, 1/4) is rational at n = 2 from state 0
    perm_34 = MarkovSource.from_exact(["3/4", "1/4"], [["1/3", "2/3"], ["2/3", "1/3"]])
    found = []
    for s in (dyadic_r3, m2_source, perm_34):
        M, T, pi = classify_mode(s).M, s.transitions, stationary_distribution(s)
        rational = 0
        for n in range(1, 13):
            osc = 0.0
            for j, pj in enumerate(s.initial):
                for k in range(s.r):
                    terms = [(-(n - 1) * M, T[0][0]), (M, T[0][j]), (-M, T[0][k]), (-M, pj)]
                    zeta = log2value_sum([(c, log2_prob(p)) for c, p in terms])
                    if zeta.is_rational:
                        rho, rational = float(math.ceil(zeta.rational) - zeta.rational), rational + 1
                    else:
                        with localcontext() as ctx:
                            ctx.prec = 60
                            q, m = zeta.rational, zeta.mantissa
                            u = Decimal(q.numerator) / q.denominator + (
                                Decimal(m.numerator).ln() - Decimal(m.denominator).ln()) / Decimal(2).ln()
                            rho = float(u.to_integral_value(ROUND_CEILING) - u)
                    osc += pj.to_float() * pi[k] * rho
            want = 0.5 * (1.0 - 1.0 / M) + osc / M
            assert abs(omega_decimal_reference(s, M, n) - want) <= 1e-15, (s.to_dict(), n)
        found.append(rational)
    assert found[0] == 12 * 9 and all(found), found


def bipartite_reference(n: int, digits: int = 60) -> float:
    """rho(floor(n/2) log2 3) in decimal arithmetic.

    Every path of the bipartite chain has -log2 mu = floor(n/2) log2 3 minus
    an integer, so this is its exact R_n.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        u = (n // 2) * Decimal(3).ln() / Decimal(2).ln()
        return float(u.to_integral_value(rounding=ROUND_CEILING) - u)


def test_bipartite_reference_is_exact(bipartite_periodic_source):
    for rec in exact_redundancy_range(bipartite_periodic_source, 1, 30):
        assert rec.value == pytest.approx(bipartite_reference(rec.n), abs=1e-12)


@pytest.mark.parametrize("n", [10**6, 10**9, 10**12, 10**15, 2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1,
                               2**64, 10**20])
def test_bipartite_omega_matches_decimal_reference_at_large_n(bipartite_periodic_source, n):
    # the cyclic class of n - 1 must stay an integer past 2^63, where an int64 arange of n does not
    cls = classify_mode(bipartite_periodic_source)
    want = bipartite_reference(n)
    assert abs(predict(bipartite_periodic_source, cls, n).omega - want) <= 1e-13
    assert abs(prediction_columns(bipartite_periodic_source, cls, n - 1, n + 1).omega[1] - want) <= 1e-13


def test_prediction_columns_memory_is_bounded(permutation_source):
    # one pass over the live pairs holds the phase, a few float64 rows and one bool
    # margin array; measured on a 2-vCPU x86 host with Python 3.11: 15.2 MiB with a
    # float64 (N, r, r) rho array and lists of N ints and floats, 8.5 MiB now
    cls = classify_mode(permutation_source)
    tracemalloc.start()
    try:
        prediction_columns(permutation_source, cls, 1, 131072)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def loop_omega(s, cls, n, xi=0.05):
    """(omega, boundary_terms) of an aperiodic source, one (j, k) term at a time."""
    pi = stationary_distribution(s)
    osc = boundary = 0.0
    for j in range(s.r):
        if s.initial[j] is ZERO:
            continue
        for k in range(s.r):
            rho = ceil_defect(oscillation_argument(s, cls, j, k, n))
            osc += s.prob_float(s.initial[j]) * pi[k] * rho
            boundary += s.prob_float(s.initial[j]) * pi[k] * (not xi < rho < 1 - xi)
    return 0.5 * (1 - 1 / cls.M) + osc / cls.M, boundary / cls.M


def test_predict_range_matches_loop_reference(oscillatory_exact_family):
    # p(0|0) = 1/3 and p_0 = 3/4: zeta_00(2) = log2 3 + 2 - log2 3 and
    # zeta_01(2) = log2 3 + 1 - log2 3 are integers although both terms are
    # irrational; rho must land on 0 there, not next to 1
    cancelling = MarkovSource.from_exact(["3/4", "1/4"], [["1/3", "2/3"], ["1/3", "2/3"]])
    # powers of two with rational exponents, stochastic to 2e-13: every zeta
    # is rational (M = 1250226, zeta_jk(n) not an integer) and rho comes out of Fractions
    letters = [ExactProb.make(1, F(-1, 2)), ExactProb.make(1, -F(1107421, 625113))]
    start = [ExactProb.make(1, F(-6, 5)), ExactProb.make(1, -F(821739, 996796))]
    pow2 = MarkovSource.from_exact(start, [letters, letters])
    for s in [*oscillatory_exact_family, cancelling, pow2]:
        cls = classify_mode(s)
        cols = prediction_columns(s, cls, 1, 30)
        for n, got_omega, got_boundary in zip(cols.ns, cols.omega, cols.boundary_terms):
            omega, boundary = loop_omega(s, cls, n)
            assert got_omega == pytest.approx(omega, abs=1e-12)
            assert got_boundary == pytest.approx(boundary, abs=1e-12)


def test_prediction_readout_past_2_53_in_python_ints():
    # an initial exponent over q = 2^53 + 1 puts the readout denominator past the
    # floats that int64 holds exactly, so pair_rho counts in Python ints; Omega_n
    # must still be the one from Fraction rho, bit for bit.  2^(-107/2) is within
    # 2e-18 of 1 - 2^(-1/q), so validation flags the start row_sums_inexact
    q = 2**53 + 1
    start = [ExactProb.make(1, F(-1, q)), ExactProb.make(1, F(-107, 2))]
    letters = [ExactProb.make(1, F(-1, 2)), ExactProb.make(1, -F(1107421, 625113))]
    for rows in ([["1/2", "1/2"], ["1/2", "1/2"]], [letters, letters]):
        s = MarkovSource.from_exact(start, rows)
        assert validate(s).flags == {"row_sums_inexact"}
        cls = classify_mode(s)
        d, unit, X = cls.solution
        assert d == 1 and readout_denominator(s, cls) > 2**53
        basis = s.prob_table.basis
        unit, X = row_log2value(unit, basis), [row_log2value(x, basis) for x in X]
        weights = np.outer(s.initial_array(), stationary_distribution(s))
        for lo, hi in ((1, 30), (10**12, 10**12 + 3)):
            osc = np.zeros(hi - lo + 1)
            for j in range(2):
                for k in range(2):
                    b = log2value_sum([(1, X[j]), (-1, X[k]), (-1, log2_prob(s.initial[j]))])
                    assert unit.is_rational and b.is_rational
                    rho = [float(ceil_defect((unit.rational * (n - 1) + b.rational) * cls.M)) for n in range(lo, hi + 1)]
                    osc += weights[j, k] * np.array(rho)
            cols = prediction_columns(s, cls, lo, hi)
            assert cols.omega.tobytes() == (0.5 * (1.0 - 1.0 / cls.M) + osc / cls.M).tobytes()


def test_zeta_reads_the_stored_solution(
    oscillatory_exact_family, cycle_source, bipartite_periodic_source, p2b_source, p3_source, monkeypatch
):
    # classify_mode keeps its similarity solution, exact or float, and an exact
    # source's edge lifts, so neither the range prediction, oscillation_argument
    # nor the exact source's lifted chain solves the congruence again
    from shancode import asymptotics

    def table(s, cls):
        cols = prediction_columns(s, cls, 1, 30)
        return cols.omega.tolist(), cols.lower.tolist(), cols.upper.tolist(), cols.row_flags()

    def zetas(s, cls):
        return [oscillation_argument(s, cls, j, k, n) for n in (1, 7, 40)
                for j in range(s.r) if s.initial[j] is not ZERO for k in range(s.r)]

    exact = [*oscillatory_exact_family, cycle_source, bipartite_periodic_source, p2b_source, p3_source]
    sources = [*exact, *map(float_copy, exact)]
    classes = [classify_mode(s) for s in sources]
    want = [(table(s, cls), zetas(s, cls)) for s, cls in zip(sources, classes)]
    chains = [oracle.lifted_chain(s, cls, 1, 30) for s, cls in zip(exact, classes)]

    def solve_again(*args, **kwargs):
        raise AssertionError("the similarity congruence was solved again")

    monkeypatch.setattr(asymptotics, "_similarity", solve_again)
    for s, cls, (preds, zs) in zip(sources, classes, want):
        assert cls.mode == "oscillatory" and cls.solution is not None
        assert table(s, cls) == preds
        assert zetas(s, cls) == zs
    assert [oracle.lifted_chain(s, cls, 1, 30) for s, cls in zip(exact, classes)] == chains


def test_lifts_are_the_edge_lifts_of_the_stored_solution(
    oscillatory_exact_family, cycle_source, bipartite_periodic_source, p2b_source, p3_source
):
    # z_e = M (-log2 p(j|k)) - (M/d)(unit + X_k - X_j), an integer, on every edge and 0
    # off the support, against what _similarity read off its residues; float
    # sources carry no lifts
    rng = random.Random(0)
    drawn = [random_exact_source(rng) for _ in range(100)]
    drawn = [s for s in drawn if classify_structure(s).irreducible and classify_mode(s).mode == "oscillatory"]
    sources = [*oscillatory_exact_family, cycle_source, bipartite_periodic_source, p2b_source, p3_source,
               *(period2_source(M) for M in (2, 3, 5, 7, 67, 257)), *(random_order_source(rng) for _ in range(40)),
               *drawn]
    for s in sources:
        check_lifts(s, classify_mode(s))
    assert sum(classify_mode(s).M > 1 for s in sources) >= 40


def check_lifts(s, cls) -> None:
    """Check an oscillatory exact source's stored lifts against the edge congruence, in Fractions.

    On every edge d z_e = d M (-log2 p(j|k)) - M (unit + X_k - X_j) is an
    integer multiple of d, and z_e mod M is the stored lift; 0 off the
    support.  The classification is == and hashes as a second one does, and
    the float copy's carries no lifts.
    """
    d, unit, X = cls.solution
    unit, X = row_log2value(unit, s.prob_table.basis), [row_log2value(x, s.prob_table.basis) for x in X]
    want = [[0] * s.r for _ in range(s.r)]
    for k, row in enumerate(s.transitions):
        for j, p in enumerate(row):
            if p is not ZERO:
                dz = log2value_sum([(-cls.M * d, log2_prob(p)), (-cls.M, unit), (-cls.M, X[k]), (cls.M, X[j])])
                assert dz.is_rational and dz.rational.denominator == 1 and dz.rational.numerator % d == 0
                want[k][j] = dz.rational.numerator // d % cls.M
    assert cls.lifts.tolist() == want, s.to_dict()
    assert classify_mode(s) == cls and hash(classify_mode(s)) == hash(cls)
    assert classify_mode(float_copy(s)).lifts is None


def test_prediction_columns_runs_one_structure_pass(oscillatory_exact_family, p3_source, monkeypatch):
    # the cyclic classes and the stationary vector come from one BFS a call
    from shancode import asymptotics, sources

    calls = []

    def counted(source):
        calls.append(source)
        return classify_structure(source)

    for s in (*oscillatory_exact_family, p3_source, float_copy(p3_source)):
        cls = classify_mode(s)
        want = prediction_columns(s, cls, 1, 50)
        with monkeypatch.context() as patch:
            patch.setattr(asymptotics, "classify_structure", counted)
            patch.setattr(sources, "classify_structure", counted)
            calls.clear()
            got = prediction_columns(s, cls, 1, 50)
            assert len(calls) == 1
        assert got.omega.tobytes() == want.omega.tobytes() and got.upper.tobytes() == want.upper.tobytes()


@pytest.mark.parametrize("name", ["p2b_source", "p3_source"])
def test_periodic_omega_matches_dp(name, request):
    # periods 2 and 3 with repeated rows, at r = 5, 6 under the default DP budget
    s = request.getfixturevalue(name)
    cls = classify_mode(s)
    assert cls.mode == "oscillatory" and cls.M == 1
    cols = prediction_columns(s, cls, 10, 200)
    recs = exact_redundancy_range(s, 10, 200)
    for omega, lower, upper, flags, rec in zip(cols.omega, cols.lower, cols.upper, cols.row_flags(), recs):
        if "boundary" not in flags:
            assert abs(omega - rec.value) <= 1e-12
        # lower = upper = omega where no term is near a discontinuity, so the
        # sandwich is checked up to the DP's float error
        assert lower - 1e-12 <= rec.value <= upper + 1e-12
    assert sum("boundary" not in flags for flags in cols.row_flags()) >= 20


def test_periodic_prediction_needs_no_eigen(
    cycle_source, bipartite_periodic_source, p2b_source, p3_source, monkeypatch
):
    from shancode import spectral

    def no_eigen(*args, **kwargs):
        raise AssertionError("spectral.eigen was called")

    monkeypatch.setattr(spectral, "eigen", no_eigen)
    for s in (cycle_source, bipartite_periodic_source, p2b_source, p3_source):
        omega = prediction_columns(s, classify_mode(s), 1, 60).omega
        assert np.all((0.0 <= omega) & (omega <= 1.0))


def test_convergent_prediction_constant_half(float_convergent_source):
    cls = classify_mode(float_convergent_source)
    pred = predict(float_convergent_source, cls, 9)
    assert pred.omega == 0.5 and pred.lower == 0.5 and pred.upper == 0.5


def sandwich_decay_base(source, m_max: int = 64) -> float:
    """Largest sub-unit eigenvalue modulus among the scanned phase matrices.

    The neglected part of the ceiling-defect expectation carries one term per
    frequency m and per eigenvalue of A_m below the unit circle, each damped
    as |lambda|^(n-1); the slowest of those dominates the distance between
    the exact value and the oscillation sum.  At off-order frequencies that
    is the full spectral radius, which can far exceed the second eigenvalue
    at the order itself.
    """
    base = 0.0
    for m in range(1, m_max + 1):
        mods = np.abs(np.linalg.eigvals(phase_matrix(source, m)))
        sub_unit = mods[mods < 1.0 - 1e-9]
        if sub_unit.size:
            base = max(base, float(sub_unit.max()))
    return base


def test_oscillatory_sandwich_with_decay(m2_source, permutation_source):
    # where no term sits within xi of a discontinuity, the exact value is
    # sandwiched up to the decay of the off-order phase-matrix spectra
    for s in (m2_source, permutation_source):
        cls = classify_mode(s)
        base = sandwich_decay_base(s)
        assert base < 1.0 - 1e-6
        for n in range(2, 21):
            pred = predict(s, cls, n, xi=0.05)
            if pred.boundary_terms > 0:
                continue
            tol = 10.0 * base ** (n - 1) + 1e-6
            exact = exact_redundancy(s, n).value
            assert pred.lower - tol <= exact <= pred.upper + tol


def test_convergent_mode_window_shrinks(float_convergent_source):
    values = {n: exact_redundancy(float_convergent_source, n).value for n in range(4, 21)}
    window = lambda n0: abs(sum(values[n] for n in range(n0, n0 + 4)) / 4.0 - 0.5)
    assert window(15) < window(4)


# -- closed forms -------------------------------------------------------------------


def test_memoryless_formula_third():
    # a memoryless source is a Markov source whose rows equal its initial
    # vector; at M = 1 its Omega_n is the closed form 1 - <n log2 3>
    s = memoryless([F(1, 3), F(2, 3)])
    cls = classify_mode(s)
    assert cls.mode == "oscillatory" and cls.M == 1
    for n in (1, 5, 16, 20):
        assert predict(s, cls, n).omega == pytest.approx(1.0 - (n * LOG3) % 1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 7, 10**3, 10**6, 10**9, 10**12])
def test_memoryless_omega_matches_decimal_reference(n):
    for probs in ([F(1, 3), F(2, 3)], [F(1, 7), F(2, 7), F(4, 7)]):
        s = memoryless(probs)
        cls = classify_mode(s)
        assert abs(predict(s, cls, n).omega - omega_decimal_reference(s, cls.M, n)) <= 1e-15


def test_memoryless_dyadic_predicts_zero(dyadic_memoryless):
    # every path of a dyadic source has an integer -log2 mu, so R_n = 0
    pred = predict(dyadic_memoryless, classify_mode(dyadic_memoryless), 7)
    assert pred.omega == 0.0 == exact_redundancy(dyadic_memoryless, 7).value
    assert "degenerate" in pred.flags


def test_memoryless_formula_irrational_branch():
    for probs in ([F(3, 8), F(5, 8)], [F(1, 9), F(2, 9), F(2, 3)]):
        s = memoryless(probs)
        cls = classify_mode(s)
        pred = predict(s, cls, 9)
        assert cls.mode == "convergent" and pred.omega == 0.5 and "convergent" in pred.flags


def test_memoryless_formula_float_heuristic():
    s = float_copy(memoryless([F(1, 3), F(2, 3)]))
    cls = classify_mode(s)
    assert cls.provenance == "spectral_search"
    assert predict(s, cls, 16).omega == pytest.approx(1.0 - (16 * LOG3) % 1.0, abs=1e-6)


def test_memoryless_matches_oracle():
    s = memoryless([F(1, 3), F(2, 3)])
    cls = classify_mode(s)
    for n in (16, 18, 20):
        assert predict(s, cls, n).omega == pytest.approx(exact_redundancy(s, n).value, abs=0.02)


def test_absorbing_formula_dyadic_zero():
    out = absorbing_pair_formula(F(1, 2))
    assert out.value == 0.0


def test_absorbing_formula_terms_budget():
    out = absorbing_pair_formula(F(1, 3))
    assert out.n_terms == 69  # smallest K+1 with (2/3)^(K+1) < 1e-12
    assert out.tail_bound < 1e-12


def test_absorbing_formula_matches_oracle(absorbing_source):
    out = absorbing_pair_formula(F(1, 3))
    exact = exact_redundancy(absorbing_source, 30).value
    assert abs(exact - out.value) <= 1e-3 + out.tail_bound
    # R_n keeps the series' first n - 1 terms, and past n = 70 what it drops
    # or adds lies in the tail the reference bounds
    for rec in exact_redundancy_range(absorbing_source, 100, 200):
        assert abs(rec.value - out.value) <= out.tail_bound


def test_absorbing_formula_exact_small_alpha_is_fast():
    t0 = time.perf_counter()
    exact = absorbing_pair_formula(F(1, 1000))
    assert time.perf_counter() - t0 < 1.0
    assert abs(exact.value - absorbing_pair_formula(1 / 1000).value) <= 1e-12
