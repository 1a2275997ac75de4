"""Sandwich functions for the ceiling defect and their Fejer approximations.

rho(u) = ceil(u) - u is discontinuous at integers, so trigonometric
approximation cannot converge uniformly to it.  Instead it is squeezed
between two continuous period-1 functions controlled by a knot parameter
theta in (0, 1/2):

    rho_minus(u)  <=  rho(u)  <=  rho_plus(u) = rho_minus(u) + delta(u)

rho_minus rises with slope (1-theta)/theta on [0, theta) and then follows
1 - <u>; delta is a unit tent of width theta at each integer.  Their Fourier
coefficients decay like 1/m^2, the Cesaro-averaged (Fejer) partial sums
converge uniformly, and the order-N approximation error for all three
functions is bounded by

    err(N, theta) = inf_{0 < d < 1/2} [ d / theta + 1 / (N sin^2(pi d)) ],

which follows from convolving with the nonnegative Fejer kernel
K_N(u) = sin^2((N+1) pi u) / ((N+1) sin^2(pi u)).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResourceLimit, ZeroIndex

# terms len(u) * width per frequency block of fejer_sum: memory stays flat for
# any N and any number of points, and fejer-demo's 512 points take blocks of
# 256 frequencies, so its default order-256 sum is one block
FEJER_BLOCK_TERMS = 2**17
# largest number of terms len(u) * N that fejer_sum admits
FEJER_WORK_CAP = 2**25


def frac(u):
    """Fractional part, elementwise for arrays."""
    return u - np.floor(u)


def rho_minus(u, theta: float):
    """Continuous minorant of the ceiling defect; piecewise linear, period 1."""
    _check_theta(theta)
    x = frac(u)
    return np.where(x < theta, (1.0 - theta) / theta * x, 1.0 - x)


def delta(u, theta: float):
    """Unit tent of width theta around the integers; rho_plus - rho_minus."""
    _check_theta(theta)
    x = frac(u)
    return np.where(x < theta, 1.0 - x / theta, np.where(x < 1.0 - theta, 0.0, (x + theta - 1.0) / theta))


def rho_plus(u, theta: float):
    """Continuous majorant of the ceiling defect."""
    return rho_minus(u, theta) + delta(u, theta)


def _check_theta(theta: float) -> None:
    if not (0.0 < theta < 0.5):
        raise ValueError(f"theta must lie in (0, 1/2), got {theta}")


def fourier_a(m: int, theta: float) -> complex:
    """Fourier coefficient of rho_minus: (1 - exp(-2 pi i m theta)) / ((2 pi i m)^2 theta)."""
    _check_theta(theta)
    if m == 0:
        raise ZeroIndex("the DC term of rho_minus is 1/2")
    return complex(_coefficients("rho_minus", np.array([m], dtype=float), theta)[0])


def fourier_b(m: int, theta: float) -> float:
    """Fourier coefficient of delta: (1 - cos(2 pi m theta)) / (2 theta pi^2 m^2)."""
    _check_theta(theta)
    if m == 0:
        raise ZeroIndex("the DC term of delta is theta")
    return float(_coefficients("delta", np.array([m], dtype=float), theta)[0].real)


# mean values over one period: integrating the minorant gives (1 - theta)/2
# and the tent gives theta; the ceiling defect itself has mean 1/2
_DC = {
    "rho_minus": lambda theta: (1.0 - theta) / 2.0,
    "delta": lambda theta: theta,
    "rho_plus": lambda theta: (1.0 + theta) / 2.0,
}


def _coefficients(f_id: str, ms: np.ndarray, theta: float) -> np.ndarray:
    """Fourier coefficients of rho_minus, delta or rho_plus at the nonzero frequencies ms."""
    a = (1.0 - np.exp(-2j * math.pi * ms * theta)) / ((2j * math.pi * ms) ** 2 * theta)
    b = (1.0 - np.cos(2 * math.pi * ms * theta)) / (2 * theta * math.pi**2 * ms**2)
    if f_id == "rho_minus":
        return a
    if f_id == "delta":
        return b.astype(complex)
    if f_id == "rho_plus":
        return a + b
    raise ValueError(f"unknown function id {f_id!r}")


def fejer_sum(f_id: str, u, theta: float, N: int):
    """Order-N Fejer (Cesaro) partial sum of rho_minus, delta or rho_plus.

    The negative-frequency coefficients are the conjugates of the positive
    ones, so the sum is assembled as a real cosine series and the imaginary
    residue vanishes identically.  Frequencies are summed in blocks of
    FEJER_BLOCK_TERMS // len(u) (at least one), so memory stays at about
    FEJER_BLOCK_TERMS complex values whatever N is, and more than
    FEJER_WORK_CAP terms len(u) * N raise ResourceLimit before any work.
    """
    _check_theta(theta)
    if N < 1:
        raise ValueError("truncation order N must be >= 1")
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    work = u_arr.size * N
    if work > FEJER_WORK_CAP:
        raise ResourceLimit(
            f"Fejer sum of order N={N} on {u_arr.size} points is estimated at {work} > {FEJER_WORK_CAP} terms"
        )
    width = max(1, FEJER_BLOCK_TERMS // u_arr.size)
    total = np.zeros(u_arr.size)
    for lo in range(1, N + 1, width):
        ms = np.arange(lo, min(lo + width, N + 1))
        window = 1.0 - ms / (N + 1.0)
        coeffs = _coefficients(f_id, ms, theta) * window
        phases = np.exp(2j * math.pi * np.outer(u_arr, ms))
        total += (phases @ coeffs).real
    values = _DC[f_id](theta) + 2.0 * total
    return values if np.ndim(u) else float(values[0])


def fejer_kernel(u, N: int):
    """K_N(u) = sin^2((N+1) pi u) / ((N+1) sin^2(pi u)), with K_N = N+1 at integers."""
    if N < 0:
        raise ValueError("kernel order must be >= 0")
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    s = np.sin(math.pi * u_arr)
    out = np.empty_like(u_arr)
    near_int = np.abs(s) < 1e-12
    out[near_int] = N + 1.0
    safe = ~near_int
    out[safe] = np.sin((N + 1) * math.pi * u_arr[safe]) ** 2 / ((N + 1) * s[safe] ** 2)
    return out if np.ndim(u) else float(out[0])


def _error_objective(d: float, N: int, theta: float) -> float:
    return d / theta + 1.0 / (N * math.sin(math.pi * d) ** 2)


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def error_bound(N: int, theta: float) -> float:
    """Uniform Fejer approximation error bound, minimized over the free split.

    Golden-section search over d in (0, 1/2); the objective is unimodal
    there (one decreasing kernel term against one increasing slope term).
    """
    _check_theta(theta)
    if N < 1:
        raise ValueError("N must be >= 1")
    lo, hi = 1e-9, 0.5 - 1e-9
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1 = _error_objective(x1, N, theta)
    f2 = _error_objective(x2, N, theta)
    while hi - lo > 1e-10 * max(1e-6, lo):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = _error_objective(x1, N, theta)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = _error_objective(x2, N, theta)
        if hi - lo < 1e-14:
            break
    return min(f1, f2)


def n0(epsilon: float, theta: float) -> int:
    """Smallest N with error_bound(N, theta) <= epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    _check_theta(theta)
    if error_bound(1, theta) <= epsilon:
        return 1
    hi = 2
    while error_bound(hi, theta) > epsilon:
        hi *= 2
        if hi > 2**62:
            raise ValueError("epsilon unreachable within integer range")
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if error_bound(mid, theta) <= epsilon:
            hi = mid
        else:
            lo = mid
    return hi
