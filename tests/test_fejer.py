"""Sandwich functions, Fourier coefficients, Fejer sums and the error bound."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shancode import ceil_defect
from shancode import fejer
from shancode.errors import ResourceLimit
from tests.conftest import error_bound_decimal_reference, fejer_kernel, simpson

THETAS = (0.3, 0.1, 0.01)


def grid_with_knots(theta, points=10**4):
    u = np.linspace(0.0, 1.0, points, endpoint=False)
    return np.concatenate([u, [theta, 1.0 - theta, 0.0]])


def test_rho_minus_branch_values():
    theta = 0.1
    assert fejer.rho_minus(theta, theta) == pytest.approx(1.0 - theta, abs=1e-15)
    assert fejer.rho_minus(0.0, theta) == 0.0
    assert fejer.rho_minus(0.5, theta) == 0.5
    # continuity across the knot
    eps = 1e-12
    assert fejer.rho_minus(theta - eps, theta) == pytest.approx(1.0 - theta, abs=1e-8)


def test_delta_branch_values():
    theta = 0.1
    assert fejer.delta(0.0, theta) == 1.0
    assert fejer.delta(0.5, theta) == 0.0
    assert fejer.delta(1.0 - theta / 2.0, theta) == pytest.approx(0.5, abs=1e-12)
    vals = fejer.delta(grid_with_knots(theta), theta)
    assert np.all((0.0 <= vals) & (vals <= 1.0))


@given(st.floats(-50, 50, allow_nan=False), st.sampled_from(THETAS))
def test_sandwich_property_pointwise(u, theta):
    assert fejer.rho_minus(u, theta) <= ceil_defect(u) + 1e-12
    assert ceil_defect(u) <= fejer.rho_plus(u, theta) + 1e-12


def test_sandwich_property_grid():
    for theta in THETAS:
        u = grid_with_knots(theta)
        rho = ceil_defect(u)
        assert np.all(fejer.rho_minus(u, theta) <= rho + 1e-12)
        assert np.all(rho <= fejer.rho_plus(u, theta) + 1e-12)


def coefficient(f_id, m, theta):
    """The Fourier coefficient at m that fejer_sum sums."""
    return complex(fejer._coefficients([f_id], np.array([m], dtype=float), theta)[0][0])


def test_fourier_b_nonnegative_and_a_bounded():
    ms = np.arange(1, 30, dtype=float)
    for theta in (0.25, 0.1, 0.05):
        a, b, both = fejer._coefficients(["rho_minus", "delta", "rho_plus"], ms, theta)
        assert np.all(b.imag == 0.0) and np.all(b.real >= 0.0)
        assert np.all(np.abs(a) <= 2.0 / ((2 * math.pi * ms) ** 2 * theta) + 1e-15)
        assert np.array_equal(both, a + b)


def test_fourier_scaling_identities():
    for theta in (0.05, 0.02):
        for ell in range(1, 9):
            for k in range(1, 9):
                if k * theta >= 0.5:
                    continue
                for f_id in ("rho_minus", "delta"):
                    assert coefficient(f_id, ell * k, theta) == pytest.approx(
                        coefficient(f_id, ell, k * theta) / k, abs=1e-12
                    )


def test_fourier_matches_quadrature():
    # direct quadrature of the coefficient integral, split at the slope knots
    theta = 0.1
    for m in range(-8, 9):
        if m == 0:
            continue
        for f_id in ("rho_minus", "delta"):
            f = getattr(fejer, f_id)
            pieces = 0.0 + 0.0j
            for a, b in ((0.0, theta), (theta, 1.0 - theta), (1.0 - theta, 1.0)):
                re = simpson(lambda x: f(x, theta) * np.cos(2 * math.pi * m * x), a, b)
                im = simpson(lambda x: f(x, theta) * np.sin(2 * math.pi * m * x), a, b)
                pieces += re - 1j * im
            assert abs(pieces - coefficient(f_id, m, theta)) < 1e-8


def test_fejer_sum_three_term_spot_value():
    # N = 1 at u = 1/2: DC + 2 Re[a_1 exp(i pi)] (1 - 1/2) = (1 - theta)/2 - Re a_1
    theta = 0.25
    a1 = (1.0 - cmath.exp(-2j * math.pi * theta)) / ((2j * math.pi) ** 2 * theta)
    want = (1.0 - theta) / 2.0 - a1.real
    assert fejer.fejer_sum("rho_minus", 0.5, theta, 1) == pytest.approx(want, abs=1e-14)
    assert want == pytest.approx((1.0 - theta) / 2.0 + 1.0 / math.pi**2, abs=1e-12)


def test_fejer_sum_mean_matches_function_mean():
    # the DC coefficient is the true mean of each sandwich function
    theta = 0.1
    for f_id, f in (("rho_minus", fejer.rho_minus), ("delta", fejer.delta), ("rho_plus", fejer.rho_plus)):
        mean = simpson(lambda x: f(x, theta), 0.0, 1.0, panels=1 << 13)
        approx_mean = simpson(lambda x: fejer.fejer_sum(f_id, x, theta, 32), 0.0, 1.0, panels=1 << 11)
        assert approx_mean == pytest.approx(mean, abs=1e-6)


def test_fejer_sum_converges_to_delta():
    u = 0.5
    assert abs(fejer.fejer_sum("delta", u, 0.1, 4096) - 0.0) < 2e-3


def test_fejer_sum_uniform_error_within_bound():
    for N in (16, 64, 256):
        for theta in (0.1, 0.05):
            u = grid_with_knots(theta)
            bound = fejer.error_bound(N, theta)
            for f_id, f in (("rho_minus", fejer.rho_minus), ("delta", fejer.delta), ("rho_plus", fejer.rho_plus)):
                err = np.abs(fejer.fejer_sum(f_id, u, theta, N) - f(u, theta)).max()
                assert err <= bound, (f_id, N, theta, err, bound)


def test_fejer_kernel_values():
    assert fejer_kernel(0.0, 8) == 9.0
    assert fejer_kernel(1.0, 8) == 9.0  # periodic copy of the peak
    assert fejer_kernel(0.5, 1) == pytest.approx(0.0, abs=1e-20)
    u = np.linspace(-0.5, 0.5, 4001)
    assert np.all(fejer_kernel(u, 12) >= -1e-12)


def test_fejer_kernel_integrates_to_one():
    for N in (1, 8, 33):
        val = simpson(lambda t: fejer_kernel(t, N), -0.5, 0.5, panels=1 << 13)
        assert val == pytest.approx(1.0, abs=1e-6)


def test_fejer_sum_equals_kernel_convolution():
    theta, N = 0.1, 8
    for f_id, f in (("rho_minus", fejer.rho_minus), ("delta", fejer.delta)):
        for u in np.linspace(0.05, 0.95, 7):
            conv = simpson(lambda t: f(u - t, theta) * fejer_kernel(t, N), -0.5, 0.5, panels=1 << 13)
            assert abs(conv - fejer.fejer_sum(f_id, u, theta, N)) < 1e-6


def test_error_bound_monotonicity():
    for theta in (0.1, 0.05):
        values = [fejer.error_bound(N, theta) for N in (1, 2, 4, 8, 16, 64, 256, 4096)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    # shrinking theta cannot improve the bound
    for N in (16, 256):
        assert fejer.error_bound(N, 0.05) >= fejer.error_bound(N, 0.1) - 1e-12


def test_error_bound_quarter_point_estimate():
    for N in (4, 32, 1024):
        for theta in (0.2, 0.07):
            assert fejer.error_bound(N, theta) <= 1.0 / (4.0 * theta) + 2.0 / N + 1e-12


def test_error_bound_matches_grid_minimization():
    # independent oracle: dense grid over the split parameter
    for N in (10**2, 10**4):
        for theta in (0.1, 0.3):
            d = np.linspace(1e-6, 0.5 - 1e-6, 200001)
            grid_min = float(np.min(d / theta + 1.0 / (N * np.sin(math.pi * d) ** 2)))
            assert fejer.error_bound(N, theta) == pytest.approx(grid_min, rel=1e-6)


def test_error_bound_matches_decimal_minimisation():
    # the minimiser d* shrinks like N^(-1/3), to about 2e-11 at N = 10^30, where
    # a search bracketed from 1e-9 misses it
    for N in (1, 2, 16, 256, 65536, 10**9, 10**30):
        for theta in (0.001, 0.05, 0.25, 0.4999):
            want = error_bound_decimal_reference(N, theta)
            assert abs(fejer.error_bound(N, theta) - want) <= 4e-16 * want, (N, theta)


def test_fejer_sum_large_order_in_bounded_memory():
    theta, N = 0.1, 200_000
    u = np.linspace(0.0, 1.0, 64, endpoint=False) + 0.003
    ms = np.arange(1, N + 1)
    a = (1.0 - np.exp(-2j * math.pi * ms * theta)) / ((2j * math.pi * ms) ** 2 * theta)
    b = (1.0 - np.cos(2 * math.pi * ms * theta)) / (2 * theta * math.pi**2 * ms**2)
    coeffs = (a + b) * (1.0 - ms / (N + 1.0))
    want = np.array([(1.0 + theta) / 2.0 + 2.0 * (np.exp(2j * math.pi * x * ms) @ coeffs).real for x in u])
    tracemalloc.start()
    try:
        got = fejer.fejer_sum("rho_plus", u, theta, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(got - want)) <= 1e-12
    assert peak <= phase_block_bound()


FUNCTIONS = ("rho_minus", "delta", "rho_plus")
DEMO_GRID = np.arange(0.0, 1.0, 1.0 / 512.0)  # the points of fejer-demo


def phase_block_bound():
    """Bytes a Fejer sum may hold: a block of phases and room for its coefficients' temporaries."""
    return 4 * 16 * fejer.FEJER_BLOCK_TERMS + 2**18


def one_product(f_id, u, theta, N):
    """The order-N sum as one product of the whole (len(u), N) phase matrix with the coefficients."""
    ms = np.arange(1, N + 1)
    coeffs = fejer._coefficients([f_id], ms, theta)[0] * (1.0 - ms / (N + 1.0))
    return fejer._DC[f_id](theta) + 2.0 * (np.exp(2j * math.pi * np.outer(u, ms)) @ coeffs).real


@pytest.mark.parametrize("N", [16, 100, 256])
def test_fejer_sum_of_three_ids_equals_each_alone(N):
    # blocks hold whole rows of frequencies (a tail of 23 points at N = 100), so
    # each point takes the one product's dot product and every value is bit for bit
    theta = 0.1
    together = fejer.fejer_sum(FUNCTIONS, DEMO_GRID, theta, N)
    assert together.shape == (len(FUNCTIONS), len(DEMO_GRID))
    for row, f_id in zip(together, FUNCTIONS):
        alone = fejer.fejer_sum(f_id, DEMO_GRID, theta, N)
        assert np.array_equal(row, alone)
        assert np.array_equal(alone, one_product(f_id, DEMO_GRID, theta, N))


@pytest.mark.parametrize("block_terms", [2**5, 2**9])
@pytest.mark.parametrize("points", [1, 7, 513])
def test_fejer_sum_blocks_match_one_product(monkeypatch, block_terms, points):
    # orders below and above the block: tail rows, 1-row blocks and frequency blocks.
    # Summed in frequency blocks, a point's dot product is reassociated, which
    # moved values by up to 1.2e-15 at N = 600 on 513 points; a dropped block or
    # row moves them by 1e-8 or more.
    monkeypatch.setattr(fejer, "FEJER_BLOCK_TERMS", block_terms)
    theta = 0.1
    u = np.linspace(-1.0, 2.0, points, endpoint=False) + 0.0123
    for N in (3, 31, 100, 600):
        got = fejer.fejer_sum(FUNCTIONS, u, theta, N)
        tol = 1e-15 if N <= block_terms else 2e-15
        for row, f_id in zip(got, FUNCTIONS):
            assert np.max(np.abs(row - one_product(f_id, u, theta, N))) <= tol, (f_id, N)


def test_fejer_sum_of_scalar_is_float(monkeypatch):
    theta, N = 0.1, 100
    for block_terms in (fejer.FEJER_BLOCK_TERMS, 2**5):  # one block, then frequency blocks of 32
        monkeypatch.setattr(fejer, "FEJER_BLOCK_TERMS", block_terms)
        value = fejer.fejer_sum("rho_plus", 0.3, theta, N)
        assert type(value) is float
        assert abs(value - one_product("rho_plus", [0.3], theta, N)[0]) <= 1e-15
        values = fejer.fejer_sum(FUNCTIONS, 0.3, theta, N)
        assert [type(v) for v in values] == [float] * 3 and values[2] == value


def test_fejer_demo_sum_within_phase_block_memory():
    # a whole 512 x 256 complex phase matrix for each function peaked at 4.3 MB;
    # one block of 64 x 256 phases serves all three
    tracemalloc.start()
    try:
        values = fejer.fejer_sum(FUNCTIONS, DEMO_GRID, 0.1, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (3, 512)
    assert peak <= phase_block_bound()


def test_fejer_sum_refuses_over_work_cap():
    u = np.zeros(2)
    with pytest.raises(ResourceLimit):
        fejer.fejer_sum("delta", u, 0.1, fejer.FEJER_WORK_CAP // 2 + 1)
