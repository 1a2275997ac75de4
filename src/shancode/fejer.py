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
K_N(u) = sin^2((N+1) pi u) / ((N+1) sin^2(pi u)).  error_bound gives it as
the closed-form minimum, at the one real root of a cubic in sin^2(pi d).
fejer_sum takes each point's sum as one dot product with a block of cos/sin
phases that all its functions share.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResourceLimit

# terms points * frequencies per block of fejer_sum, 256 KiB of complex phases:
# memory stays flat for any N and any number of points, and fejer-demo's
# order-256 sum takes 8 blocks of 64 points with every frequency
FEJER_BLOCK_TERMS = 2**14
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


# mean values over one period: integrating the minorant gives (1 - theta)/2
# and the tent gives theta; the ceiling defect itself has mean 1/2
_DC = {
    "rho_minus": lambda theta: (1.0 - theta) / 2.0,
    "delta": lambda theta: theta,
    "rho_plus": lambda theta: (1.0 + theta) / 2.0,
}


def _coefficients(f_ids, ms: np.ndarray, theta: float, N: int | None = None) -> list[np.ndarray]:
    """Fourier coefficients of each id of f_ids (rho_minus, delta or rho_plus) at the nonzero frequencies ms.

    The series a of rho_minus and b of delta are made once for all the ids.
    Given N, each coefficient is scaled in place by its Fejer weight
    1 - m / (N + 1), made once a and b are freed so as not to add to their
    peak.
    """
    if unknown := [f_id for f_id in f_ids if f_id not in _DC]:
        raise ValueError(f"unknown function id {unknown[0]!r}")
    a = (1.0 - np.exp(-2j * math.pi * ms * theta)) / ((2j * math.pi * ms) ** 2 * theta)
    b = (1.0 - np.cos(2 * math.pi * ms * theta)) / (2 * theta * math.pi**2 * ms**2)
    coeffs = [a.copy() if f_id == "rho_minus" else b.astype(complex) if f_id == "delta" else a + b for f_id in f_ids]
    del a, b
    if N is not None:
        weight = 1.0 - ms / (N + 1.0)
        for c in coeffs:
            c *= weight
    return coeffs


def fejer_sum(f_ids, u, theta: float, N: int):
    """Order-N Fejer (Cesaro) partial sums of rho_minus, delta or rho_plus.

    f_ids is one id, giving an array over u (a float for a scalar u), or a
    tuple of ids, giving one row each.  Negative frequencies take conjugate
    coefficients, so each sum is a real cosine series.  A block is
    FEJER_BLOCK_TERMS // N points with every frequency (one point and
    FEJER_BLOCK_TERMS frequencies where N is larger), so a point's sum is one
    dot product.  Its phases, cos and sin of 2 pi u m in one complex array of
    about 16 FEJER_BLOCK_TERMS bytes, are made once and serve every id.  More
    than FEJER_WORK_CAP terms len(u) * N raise ResourceLimit before any work.
    """
    _check_theta(theta)
    if N < 1:
        raise ValueError("truncation order N must be >= 1")
    ids = (f_ids,) if isinstance(f_ids, str) else tuple(f_ids)
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if (work := u_arr.size * N) > FEJER_WORK_CAP:
        raise ResourceLimit(
            f"Fejer sum of order N={N} on {u_arr.size} points is estimated at {work} > {FEJER_WORK_CAP} terms"
        )
    width = min(N, FEJER_BLOCK_TERMS)
    rows = FEJER_BLOCK_TERMS // width
    phases = np.empty(min(rows, u_arr.size) * width, dtype=complex)
    total = np.zeros((len(ids), u_arr.size))
    for ms in (np.arange(lo, min(lo + width, N + 1)) for lo in range(1, N + 1, width)):
        coeffs = _coefficients(ids, ms, theta, N)
        for top in range(0, u_arr.size, rows):
            block = phases[:min(rows, u_arr.size - top) * ms.size].reshape(-1, ms.size)
            # the imaginary part holds 2 pi u m until cos has read it and sin replaces it
            np.multiply(np.multiply.outer(u_arr[top:top + rows], ms, out=block.imag), 2.0 * math.pi, out=block.imag)
            np.cos(block.imag, out=block.real)
            np.sin(block.imag, out=block.imag)
            total[:, top:top + rows] += [(block @ c).real for c in coeffs]
        del coeffs  # so that the next block's coefficients are not made beside these
    values = np.array([_DC[f_id](theta) for f_id in ids])[:, None] + 2.0 * total
    values = values if np.ndim(u) else values[:, 0].tolist()
    return values[0] if isinstance(f_ids, str) else values


def error_bound(N: int, theta: float) -> float:
    """Uniform Fejer approximation error bound err(N, theta): the closed-form minimum over the split d.

    The derivative of d / theta + 1 / (N sin^2(pi d)) vanishes where y = sin^2(pi d)
    solves y^3 + a^2 y - a^2 = 0, a = 2 pi theta / N; Cardano's formula gives its
    one real root as u - a^2 / (3 u), u = a^(2/3) cbrt(1/2 + sqrt(1/4 + a^2 / 27)),
    and the bound is the objective at d = asin(sqrt(y)) / pi.
    """
    _check_theta(theta)
    if N < 1:
        raise ValueError("N must be >= 1")
    a = 2.0 * math.pi * theta / N
    u = a ** (2.0 / 3.0) * (0.5 + math.sqrt(0.25 + a * a / 27.0)) ** (1.0 / 3.0)
    d = math.asin(math.sqrt(u - a * a / (3.0 * u))) / math.pi
    return d / theta + 1.0 / (N * math.sin(math.pi * d) ** 2)
