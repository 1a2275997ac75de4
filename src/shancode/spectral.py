"""Phase-twisted transition matrices and their spectral analysis.

For integer frequency m, the matrix A_m has entries

    A_m[k, j] = p(j|k) * exp(-2 pi i m log2 p(j|k))

(zero where the transition is impossible) and the companion vector c_m has
entries p_k * exp(-2 pi i m log2 p_k).  Powers of A_m generate the
characteristic function of -log2 mu(X^n):

    E{exp(-2 pi i m log2 mu(X^n))} = c_m^T A_m^(n-1) d,    d = (1, ..., 1)^T.

Because the entries of the stochastic matrix P are the moduli of the entries
of A_m, the spectral radius rho(A_m) never exceeds 1, and it equals 1 exactly
when A_m is similar to exp(2 pi i s) P under a diagonal phase matrix
diag(exp(2 pi i w_j)).  Scanning m for rho(A_m) = 1 separates the oscillatory
redundancy mode from the convergent one and yields the phase s and weights w.
asymptotics.classify_mode decides the same question for every source from
the cycle congruence on the logs, without eigenvalues; the scan
find_oscillation_order is kept as an independent cross-check of it.

Everything is built on one stacked constructor over one table per source:
_phase_rows(source, ms) returns the (len(ms), r + 1, r) stack whose rows
0..r-1 are A_m and whose row r is c_m, read from source.prob_table (float
cells p, distinct logs and each cell's index among them, built once per
source), with the phases (-m log2 p) mod 1 formed as one numpy expression
over its log2 cells for float sources and by exact.frac_log, once per
distinct log over all m, for exact ones.  phase_stack, phase_matrix,
initial_phase_vector and char_fn_stack take slices of it, and
char_fn(mode="spectral") builds A_m and c_m with one call.  stack_powers is
the one binary powering of a stack: char_fn_stack raises the whole stack to
n - 1 with it, O(log n) matrix products, and char_fn(mode="direct") is its
one-row wrapper; oracle.lifted_chain powers its M twisted transition
matrices, A_t up to a diagonal similarity and a scalar, with it too.
find_oscillation_order scans m in blocks of SCAN_BLOCK frequencies with one
batched eigvals call per block.
Two work caps guard against requests that would run for hours or exhaust
memory: the scan refuses m_max * r**3 above SCAN_WORK_CAP before it starts,
and fejer.fejer_sum refuses more than FEJER_WORK_CAP terms; both raise
ResourceLimit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DefectiveMatrix, ReducibleChain, ResourceLimit
from .exact import frac_log, wrap_unit
from .sources import MarkovSource, classify_structure

MAX_EIGEN_DIM = 16
UNIT_RADIUS_TOL_EXACT = 1e-9
UNIT_RADIUS_TOL_FLOAT = 1e-6
# frequencies per batched eigvals call of the scan; a fixed small block keeps
# memory flat where one m_max-deep stack would grow with m_max
SCAN_BLOCK = 64
# largest m_max * r**3 the scan admits: 16 times the 2**19 of m_max = 1024 at r = 8
SCAN_WORK_CAP = 2**23


def _phase_rows(source: MarkovSource, ms) -> np.ndarray:
    """The (len(ms), r + 1, r) stack of p * exp(2 pi i ((-m log2 p) mod 1)), zero where p = 0.

    Rows 0..r-1 of each m are A_m and row r is c_m.  Everything is read from
    source.prob_table: float phases reduce all m in one numpy expression over
    its log2 table; exact phases reduce each distinct entry's log once over
    all m with frac_log, exact to the float at any m, and are gathered into
    place by its index.
    """
    ms = np.asarray(ms, dtype=np.int64).reshape(-1)
    table = source.prob_table
    if source.exact:
        ks = (-ms).tolist()
        fracs = [np.asarray(frac_log(row, ks, 1, table.basis), dtype=float) % 1.0 for row in table.rows]
        phase = np.take(np.stack([*fracs, np.zeros(len(ms))], axis=1), table.index, axis=1)
    else:
        phase = (-ms[:, None, None] * table.log2) % 1.0
    # zero entries carry phase 0, so p * exp(0) keeps them exactly zero
    return table.p * np.exp(2j * math.pi * phase)


def phase_stack(source: MarkovSource, ms) -> np.ndarray:
    """The (len(ms), r, r) stack of A_m; A_0 is the plain transition matrix."""
    return _phase_rows(source, ms)[:, : source.r]


def phase_matrix(source: MarkovSource, m: int) -> np.ndarray:
    """A_m; reduces to the plain transition matrix at m = 0."""
    return _phase_rows(source, [m])[0, : source.r]


def initial_phase_vector(source: MarkovSource, m: int) -> np.ndarray:
    """c_m built from the initial state probabilities."""
    return _phase_rows(source, [m])[0, source.r]


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues sorted by non-increasing modulus with bi-orthonormal vectors.

    Ties in modulus are broken by ascending principal argument in [0, 2 pi).
    right[:, j] and left[j, :] satisfy left[j] @ right[:, j] == 1 and
    left[j] @ right[:, k] == 0 for j != k, so sum_j lam_j r_j l_j^T
    reconstructs the matrix.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray

    def apply_power(self, n_minus_1: int, d: np.ndarray) -> np.ndarray:
        """A^(n-1) d through the spectral representation."""
        coeffs = self.eigenvalues**n_minus_1 * (self.left @ d)
        return self.right @ coeffs


def eigen(matrix: np.ndarray) -> SpectralReport:
    """Full eigen-decomposition with left vectors from the inverse basis.

    Raises DefectiveMatrix when the eigenvector basis is too ill-conditioned
    to bi-orthogonalize (condition number above 1e10).
    """
    matrix = np.asarray(matrix, dtype=complex)
    r = matrix.shape[0]
    if matrix.shape != (r, r) or r > MAX_EIGEN_DIM:
        raise ValueError(f"expected a square matrix with r <= {MAX_EIGEN_DIM}")
    vals, right = np.linalg.eig(matrix)
    if not np.all(np.isfinite(right)) or np.linalg.cond(right) > 1e10:
        raise DefectiveMatrix("eigenvector basis is numerically defective")
    left = np.linalg.inv(right)
    order = np.lexsort((np.round(np.angle(vals) % (2 * math.pi), 12), -np.round(np.abs(vals), 12)))
    vals = vals[order]
    right = right[:, order]
    left = left[order, :]
    recon = (right * vals) @ left
    scale = max(1.0, float(np.abs(matrix).max()))
    if np.abs(recon - matrix).max() > 1e-8 * scale:
        raise DefectiveMatrix("spectral reconstruction residual too large")
    return SpectralReport(eigenvalues=vals, right=right, left=left)


def stack_powers(rows: np.ndarray, stack: np.ndarray, exponents, condition=None) -> list:
    """[rows @ stack^e for each e of the sequence exponents], by binary powering.

    The squarings stack^(2^i) are built one at a time, each passed through
    condition if given, and multiplied into every e whose bit i is set
    before the next one replaces it, so at most two are held.  Each e
    multiplies rows by those of its set bits, lowest first: the same
    products whatever the other exponents are.
    """
    out = [rows] * len(exponents)
    square = stack
    for i in range(max(exponents, default=0).bit_length()):
        if i:
            square = square @ square
            square = square if condition is None else condition(square)
        for idx, e in enumerate(exponents):
            if e >> i & 1:
                out[idx] = out[idx] @ square
    return out


def char_fn_stack(source: MarkovSource, ms, n: int) -> np.ndarray:
    """c_m^T A_m^(n-1) d for every m in ms, one complex value per m.

    The whole stack is raised to n - 1 by binary powering (stack_powers), so
    a call costs about 2 log2(n) batched matrix products.
    """
    if n < 1:
        raise ValueError("block length must be >= 1")
    rows = _phase_rows(source, ms)
    (v,) = stack_powers(rows[:, source.r :], rows[:, : source.r], [n - 1])
    return v.sum(axis=(1, 2))


def char_fn(source: MarkovSource, m: int, n: int, mode: str = "direct") -> complex:
    """E{exp(-2 pi i m log2 mu(X^n))} via matrix powers or the eigenbasis."""
    if mode == "direct":
        return complex(char_fn_stack(source, [m], n)[0])
    if mode == "spectral":
        if n < 1:
            raise ValueError("block length must be >= 1")
        rows = _phase_rows(source, [m])[0]
        d = np.ones(source.r, dtype=complex)
        return complex(rows[source.r] @ eigen(rows[: source.r]).apply_power(n - 1, d))
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class OscillationSearch:
    """Outcome of scanning m = 1..m_max for a unit spectral radius.

    order is None when no frequency hit within the scan budget; that outcome
    only means "no oscillation detected up to m_max" and is therefore always
    heuristic, never a proof of the convergent mode.
    """

    order: int | None
    phase: float | None
    weights: tuple | None
    heuristic: bool
    rho_history: tuple


def find_oscillation_order(source: MarkovSource, m_max: int = 64) -> OscillationSearch:
    """Smallest m >= 1 with rho(A_m) = 1, plus the phase and weight vector.

    rho(A_m) = 1 is tested within UNIT_RADIUS_TOL_EXACT for an exact source
    and UNIT_RADIUS_TOL_FLOAT for a float one.  The phase is arg of the
    dominant eigenvalue over 2 pi, relabeled into [0, 1/d) for a chain of
    period d; the weights are the component arguments of the corresponding
    right eigenvector normalized to weight 0 at state 0.
    m is scanned in blocks of SCAN_BLOCK with one batched eigvals call each,
    and an m_max with m_max * r**3 above SCAN_WORK_CAP raises ResourceLimit
    before any work.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be at least 1, got {m_max}")
    work = m_max * source.r**3
    if work > SCAN_WORK_CAP:
        raise ResourceLimit(
            f"oscillation scan up to m_max={m_max} at r={source.r} is estimated at "
            f"m_max * r**3 = {work} > {SCAN_WORK_CAP}"
        )
    structure = classify_structure(source)
    if not structure.irreducible:
        raise ReducibleChain(structure.reducible_note or "chain is reducible")
    d = structure.period
    tol = UNIT_RADIUS_TOL_EXACT if source.exact else UNIT_RADIUS_TOL_FLOAT

    history = []
    for lo in range(1, m_max + 1, SCAN_BLOCK):
        ms = np.arange(lo, min(lo + SCAN_BLOCK, m_max + 1))
        stack = phase_stack(source, ms)
        rhos = np.abs(np.linalg.eigvals(stack)).max(axis=1)
        hits = np.flatnonzero(np.abs(rhos - 1.0) <= tol)
        if not len(hits):
            history.extend(map(float, rhos))
            continue
        i = int(hits[0])
        history.extend(map(float, rhos[: i + 1]))
        m, A = int(ms[i]), stack[i]
        rep = eigen(A)
        unit = [j for j, lam in enumerate(rep.eigenvalues) if abs(lam) >= 1.0 - tol]
        # all unit-circle phases agree modulo 1/d; relabel into [0, 1/d)
        raw = (np.angle(rep.eigenvalues[unit[0]]) / (2 * math.pi)) % 1.0
        s = raw % (1.0 / d)
        if 1.0 / d - s < 1e-9:
            s = 0.0
        target = cmath.exp(2j * math.pi * s)
        pick = min(unit, key=lambda j: abs(rep.eigenvalues[j] - target))
        x = rep.right[:, pick]
        if np.abs(x).min() < 1e-12 * np.abs(x).max():
            raise DefectiveMatrix("dominant eigenvector has a vanishing component")
        x = x / x[0]
        w = tuple(wrap_unit(float(a)) for a in np.angle(x) / (2 * math.pi))
        return OscillationSearch(order=m, phase=float(s), weights=w, heuristic=False, rho_history=tuple(history))

    return OscillationSearch(order=None, phase=None, weights=None, heuristic=True, rho_history=tuple(history))
