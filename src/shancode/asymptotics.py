"""Asymptotic redundancy predictions: mode classification and oscillation sums.

For an irreducible source the redundancy R_n either converges to 1/2 or
oscillates.  The dichotomy is governed by the log-ratios

    alpha[j, k] = log2[ p(j|a) p(j|j) / (p(k|a) p(j|k)) ]

around an anchor state a: if any defined entry is irrational the mode is
convergent; if all are rational with least common denominator M, then for
most large n

    R_n ~ Omega_n = (1/2)(1 - 1/M) + (1/M) sum_jk p_j pi_k rho(zeta_jk(n))

where rho(u) = ceil(u) - u and zeta_jk(n) collects the phase contribution of
paths that start at j and end at k.  Sandwich bounds around Omega_n carry an
indicator mass for the n at which some rho(zeta_jk(n)) sits within a margin
xi of a discontinuity; the margin is exposed to the caller because no
constructive vanishing sequence is available.

Sources with zero transitions or float entries are classified through the
spectral scan instead of the symbolic route, and zeta is then parameterized
by the extracted phase s and weights w:

    zeta_jk(n) = (n-1) s + w_j - w_k - M log2 p_j.

For chains of period d the single oscillation splits into d terms with
phase offsets t/d and eigenvector weights of the transition matrix.

predict_range evaluates Omega_n for a whole n range in one pass: structure,
pi and the unit-circle eigenpairs once per source, rho(zeta_jk(n)) as one
(N, r, r) array.  On the anchor route zeta is reduced modulo 1 exactly and
mantissa**k is never formed: rational parts in integers, and the remainder
k log2(mantissa) in decimal arithmetic at 30 + digits(k) significant digits
(k = (hi - 1) M at most), so rho is correct to about 1e-16 at any n, and
exact when every log2(mantissa) term is 0 (dyadic sources predict exactly 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ComplexResidual,
    DefectiveMatrix,
    PeriodicChain,
    ReducibleChain,
    UndefinedAlpha,
    ZeroProbability,
)
from .exact import ZERO, ExactProb, approximate_rational, wrap_unit
from .sources import (
    MarkovSource,
    classify_structure,
    is_dyadic,
    log2_prob,
    log2_prob_float,
    stationary_distribution,
)
from . import spectral

DEFAULT_XI = 0.05
DEFAULT_M_MAX = 64


def ceil_defect(u):
    """rho(u) = ceil(u) - u, in [0, 1), periodic with period 1.

    For u within one float rounding step below an integer the subtraction
    rounds to 1.0; those points sit on the discontinuity and are mapped to 0,
    keeping the range half-open.
    """
    if isinstance(u, np.ndarray):
        v = np.ceil(u) - u
        return np.where(v >= 1.0, 0.0, v)
    v = math.ceil(u) - u
    return v if v < 1.0 else 0.0


# -- anchor log-ratios ----------------------------------------------------


@dataclass(frozen=True)
class LogRatioMatrix:
    """The alpha parameters around an anchor row, with their defined mask.

    Exact entries are Log2Value instances whose rationality is decidable;
    float entries carry only a bounded-denominator heuristic test.
    """

    r: int
    anchor: int
    exact: bool
    entries: dict

    def defined(self, j: int, k: int) -> bool:
        return (j, k) in self.entries

    def rational_value(self, j: int, k: int):
        """Fraction when the entry is (heuristically) rational, else None."""
        v = self.entries[(j, k)]
        if self.exact:
            return v.rational if v.is_rational else None
        return approximate_rational(v)

    def all_rational(self) -> bool:
        return all(self.rational_value(j, k) is not None for (j, k) in self.entries)

    def common_denominator(self) -> int:
        m = 1
        for (j, k) in self.entries:
            q = self.rational_value(j, k)
            if q is None:
                raise ValueError("some log-ratio entries are irrational")
            m = m * q.denominator // math.gcd(m, q.denominator)
        return m


def anchor_log_ratios(source: MarkovSource, anchor: int = 0) -> LogRatioMatrix:
    """alpha[j,k] = log2[p(j|a) p(j|j) / (p(k|a) p(j|k))] for anchor a.

    The anchor row must be strictly positive; entries referencing a zero
    p(j|k) or p(j|j) are left out of the defined mask.
    """
    r = source.r
    T = source.transitions
    zero_refs = [(j, anchor) for j in range(r) if T[anchor][j] is ZERO]
    if zero_refs:
        raise UndefinedAlpha(zero_refs, f"anchor row {anchor} has zero entries at columns {[j for j, _ in zero_refs]}")
    entries = {}
    for j in range(r):
        if T[j][j] is ZERO:
            continue
        for k in range(r):
            if T[k][j] is ZERO:
                continue
            if source.exact:
                entries[(j, k)] = (
                    log2_prob(source, T[anchor][j])
                    + log2_prob(source, T[j][j])
                    - log2_prob(source, T[anchor][k])
                    - log2_prob(source, T[k][j])
                )
            else:
                entries[(j, k)] = (
                    math.log2(T[anchor][j]) + math.log2(T[j][j]) - math.log2(T[anchor][k]) - math.log2(T[k][j])
                )
    return LogRatioMatrix(r=r, anchor=anchor, exact=source.exact, entries=entries)


# -- mode classification ----------------------------------------------------


@dataclass(frozen=True)
class ModeClassification:
    mode: str  # "convergent" | "oscillatory"
    M: int | None
    s: float | None
    w: tuple | None
    provenance: str  # "exact_rational" | "spectral_search" | "heuristic_float"
    anchor: int
    flags: frozenset


def _anchor_phase_and_weights(source: MarkovSource, M: int, anchor: int):
    """The similarity solution s, w for an exact positive oscillatory source.

    s is the common fractional part of -M log2 p(j|j) taken at the anchor and
    w_j = <M log2[p(j|a)/p(j|j)]>, gauge-fixed so the anchor weight is 0.
    """
    T = source.transitions
    s = (-log2_prob(source, T[anchor][anchor])).frac_scaled([M])[0]
    w = [(log2_prob(source, T[anchor][j]) - log2_prob(source, T[j][j])).frac_scaled([M])[0] for j in range(source.r)]
    return wrap_unit(float(s)), tuple(wrap_unit(float(x)) for x in w)


def classify_mode(
    source: MarkovSource,
    m_max: int = DEFAULT_M_MAX,
    tol: float | None = None,
    anchor: int = 0,
) -> ModeClassification:
    """Convergent vs. oscillatory, with M, phase and weights when oscillatory.

    Exact positive sources are decided symbolically (M as the least common
    denominator of the rational log-ratios, irrationality proven otherwise).
    Sources with zero transitions or float entries delegate to the spectral
    scan; when the scan finds nothing up to m_max the result only means "no
    oscillation detected" and is flagged heuristic.
    """
    structure = classify_structure(source)
    if not structure.irreducible:
        raise ReducibleChain(structure.reducible_note or "chain is reducible")
    flags = set()
    if is_dyadic(source):
        flags.add("degenerate")

    if source.exact and structure.positive:
        ratios = anchor_log_ratios(source, anchor)
        if ratios.all_rational():
            M = ratios.common_denominator()
            s, w = _anchor_phase_and_weights(source, M, anchor)
            return ModeClassification("oscillatory", M, s, w, "exact_rational", anchor, frozenset(flags))
        return ModeClassification("convergent", None, None, None, "exact_rational", anchor, frozenset(flags))

    search = spectral.find_oscillation_order(source, m_max=m_max, tol=tol)
    if search.is_infinite:
        flags.add("heuristic")
        return ModeClassification("convergent", None, None, None, "heuristic_float", anchor, frozenset(flags))
    return ModeClassification(
        "oscillatory", search.order, search.phase, search.weights, "spectral_search", anchor, frozenset(flags)
    )


# -- the oscillation argument zeta ------------------------------------------


def oscillation_argument(
    source: MarkovSource,
    cls: ModeClassification,
    j: int,
    k: int,
    n: int,
    route: str = "auto",
) -> float:
    """zeta_jk(n), the phase argument shared by all paths from j to k.

    The anchor route evaluates
        M [-(n-1) log2 p(a|a) + log2 p(j|a) - log2 p(k|a) - log2 p_j]
    from exact logs (positive exact sources); the spectral route evaluates
        (n-1) s + w_j - w_k - M log2 p_j
    from the extracted phase and weights.  The two agree modulo 1 on
    positive sources.
    """
    if cls.mode != "oscillatory":
        raise ValueError("zeta is only defined in the oscillatory mode")
    if source.initial[j] is ZERO:
        raise ZeroProbability(f"initial state {j} has zero probability")
    if route == "auto":
        route = "anchor" if cls.provenance == "exact_rational" else "spectral"
    if route == "anchor":
        a = cls.anchor
        T = source.transitions
        combo = (
            log2_prob(source, T[a][j])
            - log2_prob(source, T[a][k])
            - log2_prob(source, source.initial[j])
            - log2_prob(source, T[a][a]).scaled(n - 1)
        )
        return combo.scaled(cls.M).to_float()
    if route == "spectral":
        return (n - 1) * cls.s + cls.w[j] - cls.w[k] - cls.M * log2_prob_float(source, source.initial[j])
    raise ValueError(f"unknown route {route!r}")


# -- predictions -------------------------------------------------------------


@dataclass(frozen=True)
class Prediction:
    n: int
    omega: float
    lower: float
    upper: float
    boundary_terms: float
    xi: float
    flags: frozenset


def _finish_prediction(n, omega, boundary, xi, flags) -> Prediction:
    flags = set(flags)
    if boundary > 0.0:
        flags.add("boundary")
    return Prediction(
        n=n,
        omega=omega,
        lower=omega - boundary,
        upper=omega + boundary,
        boundary_terms=boundary,
        xi=xi,
        flags=frozenset(flags),
    )


def _zeta_defects(source: MarkovSource, cls: ModeClassification, lo: int, hi: int) -> np.ndarray:
    """rho(zeta_jk(n)) for n = lo..hi as an (N, r, r) array, 0 where p_j = 0."""
    r, M = source.r, cls.M
    live = [j for j in range(r) if source.initial[j] is not ZERO]
    rho = np.zeros((hi - lo + 1, r, r))
    if cls.provenance != "exact_rational":
        nm1 = np.arange(lo - 1, hi, dtype=float)[:, None]
        w = np.array(cls.w)
        for j in live:
            zeta = nm1 * cls.s + w[j] - w - M * log2_prob_float(source, source.initial[j])
            rho[:, j, :] = ceil_defect(zeta)
        return rho
    # zeta = M [(n-1) c + b_jk] with c = -log2 p(a|a), b_jk = log2 p(j|a) - log2 p(k|a) - log2 p_j
    a, T = cls.anchor, source.transitions
    c = -log2_prob(source, T[a][a])
    phase = c.frac_scaled((n - 1) * M for n in range(lo, hi + 1))
    phase_f = np.array(phase, dtype=float)
    for j in live:
        for k in range(r):
            b = log2_prob(source, T[a][j]) - log2_prob(source, T[a][k]) - log2_prob(source, source.initial[j])
            beta = b.frac_scaled([M])[0]
            if c.is_rational and b.is_rational:
                rho[:, j, k] = [float(-(x + beta) % 1) for x in phase]
                continue
            # both terms are correctly rounded and lie in [0, 1): where their
            # mantissas cancel and zeta is an integer, the float sum is 1.0 or
            # 1 - 2**-53, never just above 1, so rho stays within 2**-53 of 0
            rho[:, j, k] = ceil_defect(phase_f + float(beta))
    return rho


def predict_range(
    source: MarkovSource,
    cls: ModeClassification,
    lo: int,
    hi: int,
    xi: float = DEFAULT_XI,
    imag_tol: float = 1e-8,
) -> list[Prediction]:
    """Omega_n with sandwich bounds for n = lo..hi, for a chain of any period d >= 1.

    The single oscillation term splits into d terms, one per unit-circle
    eigenvalue of P, with complex weights p_j r_{t,j} l_{t,k}:

        Omega_n = (1/2)(1 - 1/M)
                  + (1/M) sum_t exp(2 pi i (n-1) t / d)
                              sum_jk p_j r_{t,j} l_{t,k} rho(zeta_jk(n)).

    The rotating factor multiplies the whole t-th term; it comes from the
    eigenvalue power lambda_t^(n-1) and is independent of the Fourier index,
    so it cannot be absorbed into the argument of rho.  At d = 1 only t = 0
    is left, with (r_0, l_0) = (1, pi).  The total is real up to numerical
    residue, which must stay below imag_tol at every n.  boundary_terms is
    the |weight| mass of the (t, j, k) terms whose rho(zeta_jk(n)) falls
    outside (xi, 1 - xi); within that margin of a discontinuity the
    asymptotic sandwich does not pin R_n down.  Convergent sources predict
    the constant 1/2.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"invalid block length range {lo}..{hi}")
    ns = range(lo, hi + 1)
    if cls.mode == "convergent":
        flags = frozenset(set(cls.flags) | {"convergent"})
        return [Prediction(n, 0.5, 0.5, 0.5, 0.0, xi, flags) for n in ns]
    d = classify_structure(source).period
    pairs = _unit_circle_eigenvectors(source, d, stationary_distribution(source))
    weights = np.array([np.outer(source.initial_array() * rt, lt) for rt, lt in pairs])
    rho = _zeta_defects(source, cls, lo, hi)
    turns = np.array([[(n - 1) * t % d for t in range(d)] for n in ns])
    osc = np.einsum("nt,tjk,njk->n", np.exp(2j * math.pi * turns / d), weights, rho)
    boundary = np.einsum("tjk,njk->n", np.abs(weights), (rho <= xi) | (rho >= 1.0 - xi))
    residue = float(np.abs(osc.imag).max())
    if residue > imag_tol:
        raise ComplexResidual(f"imaginary residue {residue:.3e} exceeds {imag_tol:.1e}")
    omega = 0.5 * (1.0 - 1.0 / cls.M) + osc.real / cls.M
    return [_finish_prediction(n, float(o), float(b) / cls.M, xi, cls.flags) for n, o, b in zip(ns, omega, boundary)]


def _unit_circle_eigenvectors(source: MarkovSource, d: int, pi: np.ndarray):
    """Right/left eigenvector pairs of P at the d-th roots of unity.

    Bi-normalized so that l_t . r_t = 1, with the t = 0 pair fixed to the
    all-ones vector and the stationary distribution.
    """
    pairs = [(np.ones(source.r, dtype=complex), pi.astype(complex))]
    if d == 1:
        return pairs
    rep = spectral.eigen(source.transition_array().astype(complex))
    for t in range(1, d):
        target = np.exp(2j * math.pi * t / d)
        idx = int(np.argmin(np.abs(rep.eigenvalues - target)))
        if abs(rep.eigenvalues[idx] - target) > 1e-6:
            raise DefectiveMatrix(f"no eigenvalue near the root of unity t={t}/{d}")
        pairs.append((rep.right[:, idx], rep.left[idx, :]))
    return pairs


def predicted_redundancy(
    source: MarkovSource, cls: ModeClassification, n: int, xi: float = DEFAULT_XI
) -> Prediction:
    """Omega_n at one n for an aperiodic oscillatory source; see predict_range."""
    if cls.mode != "oscillatory":
        raise ValueError("predicted_redundancy needs an oscillatory classification")
    period = classify_structure(source).period
    if period != 1:
        raise PeriodicChain(f"chain has period {period}; use the periodic prediction")
    return predict_range(source, cls, n, n, xi)[0]


def predicted_redundancy_periodic(
    source: MarkovSource,
    cls: ModeClassification,
    n: int,
    xi: float = DEFAULT_XI,
    imag_tol: float = 1e-8,
) -> Prediction:
    """Omega_n at one n for an oscillatory chain of any period; see predict_range."""
    if cls.mode != "oscillatory":
        raise ValueError("predicted_redundancy_periodic needs an oscillatory classification")
    return predict_range(source, cls, n, n, xi, imag_tol)[0]


def predict(source: MarkovSource, cls: ModeClassification, n: int, xi: float = DEFAULT_XI) -> Prediction:
    """Omega_n at one n for any mode and period; see predict_range."""
    return predict_range(source, cls, n, n, xi)[0]


# -- closed forms ------------------------------------------------------------


@dataclass(frozen=True)
class MemorylessPrediction:
    n: int
    value: float
    M: int | None
    branch: str  # "rational" | "irrational"
    flags: frozenset


def memoryless_formula(p, n: int) -> MemorylessPrediction:
    """Asymptotic redundancy of a memoryless source with letter probabilities p.

    In the rational branch (all log2(p_j / p_1) rational with common
    denominator M) the value is 1/2 + (1/M)(1/2 - <beta M n>) with
    beta = -log2 p_1; otherwise the value is the constant 1/2.  A purely
    dyadic source evaluates on the discontinuity <beta M n> = 0 and the
    result carries a boundary flag instead of an authoritative value.
    """
    exact = not any(isinstance(v, float) for v in p)
    values = []
    for v in p:
        if isinstance(v, ExactProb):
            values.append(v)
        elif exact:
            if v == 0:
                raise ZeroProbability("memoryless formula needs all p_k > 0")
            values.append(ExactProb.make(Fraction(v)))
        else:
            if float(v) == 0.0:
                raise ZeroProbability("memoryless formula needs all p_k > 0")
            values.append(float(v))
    flags = set()
    if exact:
        logs = [v.log2() for v in values]
        alphas = [logs[j] - logs[0] for j in range(1, len(values))]
        if all(a.is_rational for a in alphas):
            M = 1
            for a in alphas:
                M = M * a.rational.denominator // math.gcd(M, a.rational.denominator)
            fr = (-logs[0]).frac_scaled([M * n])[0]
            if fr == 0:
                flags.add("boundary")
            return MemorylessPrediction(n, 0.5 + (0.5 - float(fr)) / M, M, "rational", frozenset(flags))
        return MemorylessPrediction(n, 0.5, None, "irrational", frozenset(flags))

    flags.add("heuristic")
    logs = [math.log2(v) for v in values]
    rationals = [approximate_rational(lg - logs[0]) for lg in logs[1:]]
    if all(q is not None for q in rationals):
        M = 1
        for q in rationals:
            M = M * q.denominator // math.gcd(M, q.denominator)
        fr = (-logs[0] * M * n) % 1.0
        if min(fr, 1.0 - fr) <= 1e-12:
            fr = 0.0
            flags.add("boundary")
        return MemorylessPrediction(n, 0.5 + (0.5 - fr) / M, M, "rational", frozenset(flags))
    return MemorylessPrediction(n, 0.5, None, "irrational", frozenset(flags))


@dataclass(frozen=True)
class Example2Sum:
    value: float
    tail_bound: float
    n_terms: int


def absorbing_pair_formula(alpha, truncation_eps: float = 1e-12) -> Example2Sum:
    """Limit redundancy of the two-state chain that leaks into an absorbing state.

    For P = [[1-alpha, alpha], [0, 1]] started at state 0, the limit is
    sum_{k>=0} alpha (1-alpha)^k rho(-log2 alpha - k log2(1-alpha)); the
    geometric tail is truncated once (1-alpha)^(K+1) < truncation_eps and the
    truncation bound is reported alongside the partial sum.
    """
    a = Fraction(alpha) if not isinstance(alpha, float) else alpha
    if not (0 < a < 1):
        raise ValueError("alpha must lie strictly between 0 and 1")
    one_minus = 1 - a
    k_terms = 0
    tail = 1.0
    factor = float(one_minus)
    while tail >= truncation_eps:
        tail *= factor
        k_terms += 1
        if k_terms > 10**6:
            raise ValueError("truncation_eps too small for this alpha")
    # tail = (1-alpha)^k_terms < eps, so terms k = 0 .. k_terms - 1 are kept
    if isinstance(a, Fraction):
        # rho(-(la + k lm)) = frac(la + k lm), which is rational only where
        # la and k lm both are: the odd parts of alpha and 1 - alpha never cancel
        base = ExactProb.make(a).log2().frac_scaled([1])[0]
        steps = ExactProb.make(one_minus).log2().frac_scaled(range(k_terms))
        rhos = [float((base + step) % 1) for step in steps]
    else:
        la = math.log2(a)
        lm = math.log2(one_minus)
        rhos = [ceil_defect(-(la + k * lm)) for k in range(k_terms)]
    terms = [float(a) * float(one_minus) ** k * rho for k, rho in enumerate(rhos)]
    return Example2Sum(value=math.fsum(terms), tail_bound=tail, n_terms=k_terms)
