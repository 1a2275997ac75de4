"""Phase matrices, eigen-decompositions and the oscillation-order scan."""

import math

import numpy as np
import pytest

from shancode import (
    MarkovSource,
    char_fn,
    char_fn_stack,
    eigen,
    find_oscillation_order,
    initial_phase_vector,
    phase_matrix,
    phase_stack,
)
from shancode.errors import DefectiveMatrix, ReducibleChain, ResourceLimit
from shancode.spectral import SCAN_WORK_CAP, stack_powers
from tests.conftest import (
    char_fn_bruteforce,
    char_fn_loop,
    memoryless,
    phase_entries_loop,
    random_float_source,
    spectral_radius,
    verify_similarity,
)

from fractions import Fraction

F = Fraction


def test_phase_matrix_m0_is_transition_matrix(permutation_source):
    assert np.allclose(phase_matrix(permutation_source, 0), permutation_source.transition_array())


def test_phase_matrix_dyadic_is_real(dyadic_memoryless, dyadic_r3):
    for s, m in ((dyadic_memoryless, 1), (dyadic_r3, 7)):
        A = phase_matrix(s, m)
        assert np.array_equal(A, s.transition_array().astype(complex))


def test_phase_matrix_permutation(cycle_source):
    for m in (1, 2, 5):
        assert np.array_equal(phase_matrix(cycle_source, m), cycle_source.transition_array().astype(complex))


def test_phase_matrix_moduli(m2_source, float_convergent_source):
    for s in (m2_source, float_convergent_source):
        for m in (-3, 1, 4):
            A = phase_matrix(s, m)
            assert np.max(np.abs(np.abs(A) - s.transition_array())) < 1e-12
            c = initial_phase_vector(s, m)
            assert np.max(np.abs(np.abs(c) - s.initial_array())) < 1e-12


def test_eigen_simple_symmetric(permutation_source):
    rep = eigen(phase_matrix(permutation_source, 0))
    assert rep.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    assert rep.eigenvalues[1] == pytest.approx(-1 / 3, abs=1e-12)


def test_eigen_permutation_roots_of_unity(cycle_source):
    rep = eigen(phase_matrix(cycle_source, 1))
    assert sorted(np.round(rep.eigenvalues, 9).tolist(), key=lambda z: z.real) == [-1, 1]


def test_eigen_report_invariants():
    rng = np.random.default_rng(11)
    for _ in range(10):
        r = int(rng.integers(2, 5))
        s = random_float_source(rng, r)
        for m in (1, 3):
            A = phase_matrix(s, m)
            rep = eigen(A)
            mods = np.abs(rep.eigenvalues)
            assert np.all(mods[:-1] >= mods[1:] - 1e-12)  # sorted by modulus
            assert mods[0] <= 1.0 + 1e-9
            prod = rep.left @ rep.right
            assert np.max(np.abs(prod - np.eye(r))) < 1e-8
            d = np.ones(r, dtype=complex)
            assert np.max(np.abs(rep.apply_power(4, d) - np.linalg.matrix_power(A, 4) @ d)) < 1e-8


def _sorted_key_order(vals):
    """eigen's order before its lexsort: sorted by (-|lam|, arg lam mod 2 pi), each rounded to 12 digits."""
    return sorted(
        range(len(vals)),
        key=lambda j: (-round(abs(vals[j]), 12), round(np.angle(vals[j]) % (2 * math.pi), 12)),
    )


def test_eigen_order_on_modulus_ties():
    cycle3 = np.roll(np.eye(3), 1, axis=1)
    quarter_turns = np.diag([1, -1, 1j, -1j])
    twist = np.exp(2j * np.pi * np.array([0.1, 0.35, 0.7, 0.05]))
    twisted = np.roll(np.eye(4), 1, axis=1) * twist[:, None]
    for matrix in (cycle3, quarter_turns, twisted):
        vals = np.linalg.eig(matrix.astype(complex))[0]
        order = _sorted_key_order(vals)
        rep = eigen(matrix)
        assert np.array_equal(rep.eigenvalues, vals[order])
        assert np.allclose(np.abs(rep.eigenvalues), 1.0, atol=1e-12)
    # the same orders, by angle, on the exact eigenvalues
    assert np.array_equal(eigen(quarter_turns).eigenvalues, [1, 1j, -1, -1j])
    angles = np.angle(eigen(twisted).eigenvalues) % (2 * math.pi)
    assert np.all(np.diff(np.round(angles, 12)) > 0)


def test_eigen_order_matches_sorted_key_on_random_ties():
    # unit-modulus ties from twisted permutations, and ties of smaller moduli from scaled blocks
    rng = np.random.default_rng(43)
    for trial in range(300):
        r = int(rng.integers(1, 9))
        perm = np.eye(r)[rng.permutation(r)] * np.exp(2j * np.pi * rng.integers(0, 12, r) / 12)
        if trial % 2:
            perm = perm * rng.choice([0.5, 1.0], r)[:, None]
        vals = np.linalg.eig(perm)[0]
        assert np.array_equal(eigen(perm).eigenvalues, vals[_sorted_key_order(vals)]), trial


def test_prob_table_built_once(monkeypatch):
    calls = []
    prob_float = MarkovSource.prob_float

    def counting(self, v):
        calls.append(v)
        return prob_float(self, v)

    monkeypatch.setattr(MarkovSource, "prob_float", counting)
    rng = np.random.default_rng(47)
    exact = MarkovSource.from_exact(["1/3", "2/3", 0], [["1/3", "1/6", "1/2"], [0, "1/2", "1/2"], ["1/2", "1/4", "1/4"]])
    for s in (exact, random_float_source(rng, 3, with_zeros=True)):
        calls.clear()
        char_fn(s, 1, 10)
        first = len(calls)
        assert first == s.r * (s.r + 1)
        for m in range(1, 33):
            for mode in ("direct", "spectral"):
                char_fn(s, m, 10, mode)
        assert len(calls) == first
        assert s.prob_table is s.prob_table


def test_right_perron_vector_is_ones():
    rng = np.random.default_rng(5)
    s = random_float_source(rng, 3)
    rep = eigen(phase_matrix(s, 0))
    x = rep.right[:, 0]
    assert np.max(np.abs(x / x[0] - 1.0)) < 1e-9


def test_eigen_defective_matrix_raises():
    jordan = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(DefectiveMatrix):
        eigen(jordan)


def test_eigen_dimension_cap():
    with pytest.raises(ValueError):
        eigen(np.eye(17, dtype=complex))


def test_spectral_radius_bound_over_scan(m2_source, float_convergent_source, permutation_source):
    for s in (m2_source, float_convergent_source, permutation_source):
        for m in range(1, 12):
            assert spectral_radius(phase_matrix(s, m)) <= 1.0 + 1e-9


def test_char_fn_dyadic_n1(dyadic_memoryless):
    for m in (1, 2, 9):
        assert char_fn(dyadic_memoryless, m, 1, "direct") == pytest.approx(1.0, abs=1e-14)


def test_char_fn_modulus_bounded(m2_source, float_convergent_source):
    for s in (m2_source, float_convergent_source):
        for m in (1, 3, 5):
            assert abs(char_fn(s, m, 5, "direct")) <= 1.0 + 1e-12


def test_phase_stack_matches_entry_loop(
    oscillatory_exact_family, cycle_source, bipartite_periodic_source, dyadic_r3, convergent_exact_source, order67_source
):
    rng = np.random.default_rng(23)
    sources = [random_float_source(rng, r, with_zeros=z) for r in range(2, 9) for z in (False, True)]
    sources += [*oscillatory_exact_family, cycle_source, bipartite_periodic_source, dyadic_r3]
    sources += [convergent_exact_source, order67_source]
    ms = range(71)
    for s in sources:
        stack = phase_stack(s, ms)
        assert stack.shape == (len(ms), s.r, s.r)
        # float phases are the same float expression; exact ones within 1e-15 of a 60-digit reduction
        tol = 1e-15 if s.exact else 0.0
        for m in ms:
            assert np.abs(stack[m] - phase_entries_loop(s, s.transitions, m)).max() <= tol, (s, m)
            assert np.array_equal(phase_matrix(s, m), stack[m])
            assert np.abs(initial_phase_vector(s, m) - phase_entries_loop(s, [s.initial], m)[0]).max() <= tol, (s, m)


def test_exact_phases_at_large_m(permutation_source):
    # the 1/3 entry's phase -m log2(1/3) mod 1, formed as a float product, is 1.9e-12 off at m = 10^4
    for m in (10**4, 10**6):
        A = phase_stack(permutation_source, [m])[0]
        assert np.abs(A - phase_entries_loop(permutation_source, permutation_source.transitions, m)).max() <= 1e-15, m


def test_char_fn_against_enumeration_example(m2_source, bipartite_periodic_source):
    rng = np.random.default_rng(13)
    example = MarkovSource.from_exact([1, 0], [["1/2", "1/2"], ["1/4", "3/4"]])
    for s in (example, m2_source, bipartite_periodic_source, random_float_source(rng, 3)):
        for n in range(1, 8):
            for m in (1, 2, 5):
                got = char_fn(s, m, n, "direct")
                want = char_fn_bruteforce(s, m, n)
                assert abs(got - want) < 1e-10, (s, m, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 1000])
def test_char_fn_squaring_matches_step_loop(n, m2_source, permutation_source, bipartite_periodic_source):
    rng = np.random.default_rng(7)
    sources = [m2_source, permutation_source, bipartite_periodic_source]
    sources += [random_float_source(rng, 3), random_float_source(rng, 5, with_zeros=True)]
    for s in sources:
        for m in (-2, 1, 3, 7):
            assert abs(char_fn(s, m, n) - char_fn_loop(s, m, n)) <= 1e-13, (s, m)


def test_char_fn_stack_rows_equal_char_fn(
    m2_source, oscillatory_exact_family, cycle_source, bipartite_periodic_source, dyadic_r3, convergent_exact_source,
    order67_source,
):
    # a row is the same alone and in a stack, bit for bit
    rng = np.random.default_rng(29)
    ms = list(range(-3, 40))
    sources = [random_float_source(rng, r, with_zeros=z) for r in (1, 2, 3, 4, 6, 8) for z in (False, True)]
    sources += [m2_source, *oscillatory_exact_family, cycle_source, bipartite_periodic_source, dyadic_r3]
    sources += [convergent_exact_source, order67_source]
    for s in sources:
        for n in (1, 2, 17, 1000):
            stack = char_fn_stack(s, ms, n)
            assert stack.shape == (len(ms),)
            assert all(stack[i] == char_fn(s, m, n) for i, m in enumerate(ms))
    with pytest.raises(ValueError):
        char_fn_stack(m2_source, ms, 0)


def test_stack_powers_equal_the_held_squarings():
    # every exponent's products, built from all squarings held at once, lowest bit first
    rng = np.random.default_rng(41)
    weights = rng.random((5, 4, 4))
    stack = weights / weights.sum(axis=2, keepdims=True) * np.exp(2j * np.pi * rng.random((5, 4, 4)))
    rows = rng.random((5, 2, 4)) + 0j
    exponents = [0, 1, 2, 3, 7, 8, 1000, 1001, 2**20 + 5, 6]
    squares = [stack]
    for _ in range(max(exponents).bit_length() - 1):
        squares.append(-(squares[-1] @ squares[-1]))
    for e, got in zip(exponents, stack_powers(rows, stack, exponents, np.negative), strict=True):
        want = rows
        for i, square in enumerate(squares):
            if e >> i & 1:
                want = want @ square
        assert np.array_equal(got, want), e
    assert stack_powers(rows, stack, []) == []


def test_char_fn_spectral_matches_direct(permutation_source, m2_source, float_convergent_source):
    for s in (permutation_source, m2_source, float_convergent_source):
        for m in (-2, 1, 4):
            for n in (1, 5, 9):
                assert abs(char_fn(s, m, n, "spectral") - char_fn(s, m, n, "direct")) < 1e-8


def test_find_oscillation_order_dyadic(dyadic_memoryless, dyadic_r3):
    for s in (dyadic_memoryless, dyadic_r3):
        res = find_oscillation_order(s)
        assert res.order == 1 and res.phase == 0.0
        assert res.weights == tuple([0.0] * s.r)
        assert not res.heuristic


def test_find_oscillation_order_permutation(permutation_source):
    res = find_oscillation_order(permutation_source)
    assert res.order == 1
    assert res.phase == pytest.approx(math.log2(3) % 1.0, abs=1e-12)


def test_find_oscillation_order_m2(m2_source):
    res = find_oscillation_order(m2_source)
    assert res.order == 2
    assert abs(res.rho_history[0] - 1.0) > 1e-6  # m=1 is not a hit


def test_find_oscillation_order_float_infinite(float_convergent_source):
    res = find_oscillation_order(float_convergent_source, m_max=50)
    assert res.order is None and res.heuristic
    assert all(rho < 1.0 - 1e-6 for rho in res.rho_history)
    assert len(res.rho_history) == 50


def test_scan_history_across_block_boundaries(order67_source, float_convergent_source):
    # float copy of the M = 67 chain: the hit sits in the second block of 64
    s = MarkovSource.from_floats(order67_source.initial_array(), order67_source.transition_array())
    res = find_oscillation_order(s, m_max=128)
    assert res.order == 67 and len(res.rho_history) == 67
    assert res.rho_history == tuple(spectral_radius(phase_matrix(s, m)) for m in range(1, 68))
    res = find_oscillation_order(float_convergent_source, m_max=130)
    assert res.order is None and len(res.rho_history) == 130
    assert res.rho_history == tuple(spectral_radius(phase_matrix(float_convergent_source, m)) for m in range(1, 131))


def test_find_oscillation_order_refuses_over_budget(float_convergent_source):
    m_max = SCAN_WORK_CAP // float_convergent_source.r**3 + 1
    with pytest.raises(ResourceLimit, match=str(m_max * 8)):
        find_oscillation_order(float_convergent_source, m_max=m_max)


def test_find_oscillation_order_needs_a_scan(float_convergent_source):
    with pytest.raises(ValueError):
        find_oscillation_order(float_convergent_source, m_max=0)


def test_find_oscillation_order_requires_irreducible(absorbing_source):
    with pytest.raises(ReducibleChain):
        find_oscillation_order(absorbing_source)


def test_multiples_of_order_hit_unit_radius(m2_source, permutation_source):
    for s in (m2_source, permutation_source):
        res = find_oscillation_order(s)
        M = res.order
        for ell in (2, 3):
            assert abs(spectral_radius(phase_matrix(s, ell * M)) - 1.0) <= 1e-9
        for m in range(1, 3 * M + 1):
            if m % M:
                assert spectral_radius(phase_matrix(s, m)) < 1.0 - 1e-6


def test_periodic_unit_eigenvalue_fan(cycle_source, bipartite_periodic_source):
    for s, d in ((cycle_source, 2), (bipartite_periodic_source, 2)):
        res = find_oscillation_order(s)
        rep = eigen(phase_matrix(s, res.order))
        unit = rep.eigenvalues[np.abs(rep.eigenvalues) >= 1.0 - 1e-9]
        assert len(unit) == d
        phases = sorted((np.angle(z) / (2 * math.pi)) % 1.0 for z in unit)
        want = sorted((res.phase + t / d) % 1.0 for t in range(d))
        assert phases == pytest.approx(want, abs=1e-9)


def test_verify_similarity_dyadic(dyadic_memoryless):
    ok, residual = verify_similarity(dyadic_memoryless, 1, 0.0, (0.0, 0.0))
    assert ok and residual == 0.0


def test_verify_similarity_from_search(oscillatory_exact_family):
    for s in oscillatory_exact_family:
        res = find_oscillation_order(s)
        ok, residual = verify_similarity(s, res.order, res.phase, res.weights)
        assert ok, (s, residual)
        assert residual <= 1e-8


def test_verify_similarity_detects_perturbation(permutation_source):
    res = find_oscillation_order(permutation_source)
    w = list(res.weights)
    w[1] = (w[1] + 0.1) % 1.0
    ok, residual = verify_similarity(permutation_source, res.order, res.phase, w)
    assert not ok
    assert residual == pytest.approx(0.1, abs=1e-6)
