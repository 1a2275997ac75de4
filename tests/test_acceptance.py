"""Acceptance criteria, one test per criterion with a printed pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import functools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from shancode import (
    ceil_defect,
    char_fn,
    classify_mode,
    exact_redundancy,
    find_oscillation_order,
    oscillation_argument,
    predict,
)
from shancode.errors import DefectiveMatrix
from shancode.sources import classify_structure, log2_prob
from tests.conftest import (
    absorbing_pair_formula,
    char_fn_bruteforce,
    iter_paths_bruteforce,
    log2value_sum,
    memoryless,
    random_float_source,
    verify_similarity,
)
from tests.test_asymptotics import sandwich_decay_base

F = Fraction
LOG3 = math.log2(3.0)


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"ACCEPTANCE {number:>2} FAIL  {title}: {exc}")
                raise
            print(f"ACCEPTANCE {number:>2} PASS  {title}" + (f": {detail}" if detail else ""))

        return run

    return wrap


@criterion(1, "dyadic exactness, n <= 20, zero tolerance, < 1 s")
def test_acceptance_01(dyadic_memoryless, dyadic_markov_pair):
    start = time.perf_counter()
    for source in (dyadic_memoryless, *dyadic_markov_pair):
        for n in range(1, 21):
            value = exact_redundancy(source, n).value
            assert value == 0.0, (n, value)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
    return f"3 sources x n=1..20 all exactly 0, {elapsed:.2f}s"


@criterion(2, "row-permutation chain reproduces the closed-form oscillation, < 30 s")
def test_acceptance_02(permutation_source, permutation_state0_start):
    start = time.perf_counter()
    # initial equal to the first row: the argument is n log2 3 (as stated)
    for n in range(16, 21):
        diff = abs(exact_redundancy(permutation_source, n).value - ceil_defect(n * LOG3))
        assert diff <= 0.02, (n, diff)
    rec30 = exact_redundancy(permutation_source, 30)
    diff30 = abs(rec30.value - ceil_defect(30 * LOG3))
    assert diff30 <= 0.002, diff30
    # deterministic start at state 0: the initial term drops out and the
    # oscillation argument is (n-1) log2 3; same tolerances apply
    for n in range(16, 21):
        diff = abs(exact_redundancy(permutation_state0_start, n).value - ceil_defect((n - 1) * LOG3))
        assert diff <= 0.02, (n, diff)
    diff30b = abs(
        exact_redundancy(permutation_state0_start, 30).value
        - ceil_defect(29 * LOG3)
    )
    assert diff30b <= 0.002, diff30b
    # measured decay constant against the second-eigenvalue envelope
    lam2 = 1.0 / 3.0
    constant = max(
        abs(exact_redundancy(permutation_source, n).value - ceil_defect(n * LOG3)) / lam2 ** (n - 1)
        for n in range(16, 21)
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s"
    return (
        f"max diff n=16..20 at float precision, n=30 diff {diff30:.1e}; "
        f"measured decay constant C ~ {constant:.2e} (endpoint phases collapse exactly), {elapsed:.1f}s"
    )


@criterion(3, "memoryless (1/3, 2/3): oracle matches 1 - <n log2 3> within 0.02")
def test_acceptance_03():
    source = memoryless([F(1, 3), F(2, 3)])
    cls = classify_mode(source)
    for n in range(16, 21):
        omega = predict(source, cls, n).omega
        assert omega == pytest.approx(1.0 - (n * LOG3) % 1.0, abs=1e-12)
        diff = abs(exact_redundancy(source, n).value - omega)
        assert diff <= 0.02, (n, diff)
    return "n=16..20 agree within 0.02"


@criterion(4, "generic float source classified convergent; mean R_n near 1/2")
def test_acceptance_04(float_convergent_source):
    cls = classify_mode(float_convergent_source)
    assert cls.mode == "convergent" and "heuristic" in cls.flags
    values = [exact_redundancy(float_convergent_source, n).value for n in range(15, 21)]
    mean = sum(values) / len(values)
    assert abs(mean - 0.5) <= 0.05, mean
    return f"mean R_15..20 = {mean:.4f}"


@criterion(5, "char fn: direct = enumeration (1e-10), spectral = direct (1e-8), < 60 s")
def test_acceptance_05():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    sources = []
    for r in (2, 3):
        for _ in range(5):
            sources.append(random_float_source(rng, r))
            sources.append(random_float_source(rng, r, with_zeros=True))
    assert len(sources) >= 20
    worst_direct = worst_spectral = 0.0
    defective = 0
    for source in sources:
        for n in range(1, 11):
            for m in range(-5, 6):
                if m == 0:
                    continue
                direct = char_fn(source, m, n, "direct")
                worst_direct = max(worst_direct, abs(direct - char_fn_bruteforce(source, m, n)))
                try:
                    spectral = char_fn(source, m, n, "spectral")
                except DefectiveMatrix:
                    defective += 1
                    continue
                worst_spectral = max(worst_spectral, abs(spectral - direct))
    assert worst_direct <= 1e-10, worst_direct
    assert worst_spectral <= 1e-8, worst_spectral
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s"
    return (
        f"{len(sources)} sources: |direct-enum| <= {worst_direct:.1e}, "
        f"|spectral-direct| <= {worst_spectral:.1e}, {defective} defective fallbacks, {elapsed:.1f}s"
    )


@criterion(6, "order consistency: lcm-based M = spectral M and similarity holds")
def test_acceptance_06(oscillatory_exact_family):
    assert len(oscillatory_exact_family) >= 10
    orders = []
    for source in oscillatory_exact_family:
        cls = classify_mode(source)
        assert cls.mode == "oscillatory"
        lcm_order = cls.M
        search = find_oscillation_order(source)
        assert search.order == lcm_order, (lcm_order, search.order)
        ok, residual = verify_similarity(source, search.order, search.phase, search.weights)
        assert ok and residual <= 1e-8, residual
        orders.append(lcm_order)
    assert 2 in orders  # includes the 2^(-1/2)-built construction
    return f"{len(orders)} sources, orders {sorted(set(orders))}, all residuals <= 1e-8"


@criterion(7, "deterministic two-cycle: prediction = exact = rho(log2 3) to 1e-9")
def test_acceptance_07(cycle_source):
    cls = classify_mode(cycle_source)
    target = ceil_defect(LOG3)
    for n in range(1, 13):
        exact = exact_redundancy(cycle_source, n).value
        pred = predict(cycle_source, cls, n)
        assert abs(exact - target) <= 1e-9, (n, exact)
        assert abs(pred.omega - target) <= 1e-9, (n, pred.omega)
    return f"n=1..12 all equal {target:.11f}"


@criterion(8, "absorbing pair, alpha = 1/3: geometric series matches the oracle")
def test_acceptance_08(absorbing_source):
    out = absorbing_pair_formula(F(1, 3))
    exact30 = exact_redundancy(absorbing_source, 30).value
    assert abs(exact30 - out.value) <= 1e-3 + out.tail_bound
    # limit differs from 1/2: the two-mode dichotomy does not apply here
    assert abs(out.value - 0.5) > 4e-3
    assert abs(exact30 - 0.5) > 4e-3
    # and the sequence settles onto the series value rather than oscillating
    diffs = [abs(exact_redundancy(absorbing_source, n).value - out.value) for n in (10, 20, 30)]
    assert diffs[0] > diffs[1] > diffs[2]
    return f"limit {out.value:.6f} (not 1/2), |R_30 - limit| = {abs(exact30 - out.value):.1e}"


@criterion(9, "Fejer approximation error within the analytic bound, < 10 s")
def test_acceptance_09():
    from shancode import fejer

    start = time.perf_counter()
    for N in (16, 64, 256):
        for theta in (0.1, 0.05):
            u = np.concatenate([np.linspace(0.0, 1.0, 10**4, endpoint=False), [theta, 1 - theta]])
            bound = fejer.error_bound(N, theta)
            for f_id, f in (
                ("rho_minus", fejer.rho_minus),
                ("delta", fejer.delta),
                ("rho_plus", fejer.rho_plus),
            ):
                err = float(np.abs(fejer.fejer_sum(f_id, u, theta, N) - f(u, theta)).max())
                assert err <= bound, (f_id, N, theta, err, bound)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s"
    return f"all 18 (function, N, theta) combinations within bound, {elapsed:.1f}s"


@criterion(10, "sandwich and telescoping invariants, exhaustive for r <= 3, n <= 8")
def test_acceptance_10(oscillatory_exact_family):
    checked_paths = 0
    for source in oscillatory_exact_family:
        if source.r > 3:
            continue
        cls = classify_mode(source)
        for n in range(2, 9):
            for path, _ in iter_paths_bruteforce(source, n):
                steps = [source.initial[path[0]], *(source.transitions[path[t - 1]][path[t]] for t in range(1, n))]
                total = log2value_sum([(1, log2_prob(p)) for p in steps])
                truth = (-total.to_float() * cls.M) % 1.0
                z = oscillation_argument(source, cls, path[0], path[-1], n) % 1.0
                gap = (truth - z) % 1.0
                assert min(gap, 1.0 - gap) <= 1e-9, (path, n)
                checked_paths += 1

    sandwich_rows = 0
    for source in oscillatory_exact_family:
        if source.r > 3 or classify_structure(source).period != 1:
            continue
        cls = classify_mode(source)
        base = sandwich_decay_base(source)
        for n in range(2, 9):
            pred = predict(source, cls, n, xi=0.05)
            if pred.boundary_terms > 0:
                continue
            tol = 10.0 * base ** (n - 1) + 1e-6
            exact = exact_redundancy(source, n).value
            assert pred.lower - tol <= exact <= pred.upper + tol, (n, exact, pred)
            sandwich_rows += 1
    assert checked_paths > 10**4 and sandwich_rows > 30
    return f"telescoping over {checked_paths} paths, sandwich over {sandwich_rows} rows"
