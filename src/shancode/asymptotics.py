"""Asymptotic redundancy predictions: mode classification and oscillation sums.

For an irreducible source the redundancy R_n either converges to 1/2 or
oscillates.  The dichotomy is decided by the phase-twisted matrices A_m of
the spectral module: by Wielandt's theorem rho(A_m) = 1 exactly when

    -m log2 p(j|k) = s + w_k - w_j  (mod 1)  on every edge k -> j,

and summed around a cycle C this asks m Lambda(C) = |C| s (mod 1), with
Lambda(C) the cycle's -log2 weight.  The congruence is solved on a BFS
tree from state 0: state j gets its depth h_j and the potential phi_j, the
-log2 weight of its tree path; each edge k -> j gets g = h_k + 1 - h_j and
Delta = -log2 p(j|k) + phi_k - phi_j.  With d = gcd(g) = sum a_e g_e (the
period), Y = sum a_e Delta_e and Q_e = (g_e / d) Y - Delta_e, the mode is
convergent iff some Q_e is irrational; otherwise M = lcm(den Q_e),
s = frac(M Y) / d and w_j = h_j s - M phi_j (mod 1).  One algorithm serves
both kinds of source: an exact source's logs are Log2Values and
rationality is decided, so both modes are proven; a float source's logs are
floats and rationality is only tested (exact.approximate_rational), so its
classification stays heuristic.  In the oscillatory mode, for most large n

    R_n ~ Omega_n = (1/2)(1 - 1/M) + (1/M) sum_jk p_j pi_k rho(zeta_jk(n)),
    zeta_jk(n) = (n-1) s + w_j - w_k - M log2 p_j,

where rho(u) = ceil(u) - u.  Sandwich bounds around Omega_n carry an
indicator mass for the n at which some rho(zeta_jk(n)) sits within a margin
xi of a discontinuity; the margin is exposed to the caller because no
constructive vanishing sequence is available.  For chains of period d the
unit-circle eigenvectors of P are fixed by the cyclic classes
c_j = h_j mod d, so the sum keeps the pairs with c_k = c_j + n - 1 (mod d)
and weighs each by d p_j pi_k; at d = 1 that is every pair.

Every oscillatory classification carries this solution as (d, unit, X),
logs with s = (M/d) unit and w_j = (M/d) X_j modulo 1, and every zeta is
evaluated from it as frac((M/d)(n-1) unit) + frac((M/d) b_jk) with
b_jk = X_j - X_k - d log2 p_j; nothing solves the congruence again, and
s and w are only reported.

predict_range evaluates Omega_n for a whole n range in one pass: structure
and pi once per source, rho(zeta_jk(n)) as one (N, r, r) array.  _frac is
the one place where a log is reduced modulo 1.  For exact sources it is
exact and mantissa**k is never formed: rational parts in integers, and the
remainder k log2(mantissa) in decimal arithmetic at 30 + digits(k)
significant digits (k = (hi - 1) M at most), so rho is correct to about
1e-16 at any n, and exact when every log2(mantissa) term is 0 (dyadic
sources predict exactly 0).  For float sources it is a float product, so
zeta carries an error of order n M 2^-52 (|unit| + max |X_j|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ReducibleChain, ZeroProbability
from .exact import ZERO, ExactProb, Log2Value, ceil_defect, common_denominator, wrap_unit
from .sources import (
    MarkovSource,
    classify_structure,
    is_dyadic,
    log2_prob,
    stationary_distribution,
)

DEFAULT_XI = 0.05
DEFAULT_M_MAX = 64


# -- mode classification ----------------------------------------------------


@dataclass(frozen=True)
class ModeClassification:
    """Mode, order M, phase s in [0, 1/d) and weights w with w_0 = 0.

    provenance is "exact_rational" for an exact source; a float source is
    "spectral_search" when oscillatory and "heuristic_float" when convergent.
    solution is the similarity solution (d, unit, X) of every oscillatory
    classification (see _similarity), Log2Values for an exact source and
    floats for a float one, from which zeta is evaluated; it is None only in
    the convergent mode.
    """

    mode: str  # "convergent" | "oscillatory"
    M: int | None
    s: float | None
    w: tuple | None
    provenance: str  # "exact_rational" | "spectral_search" | "heuristic_float"
    flags: frozenset
    solution: tuple | None = None


def _bezout(a: int, b: int):
    """(g, x, y) with g = gcd(a, b) = x a + y b and g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _frac(x, ks, d: int = 1):
    """frac((k/d) x) of a log for each integer k in ks.

    Exact for a Log2Value (see frac_scaled: Fractions where x is rational),
    one numpy float expression for a float log.
    """
    if isinstance(x, Log2Value):
        return x.frac_scaled(ks, d)
    return np.array(ks, dtype=float) * x / d % 1.0


def _similarity(source: MarkovSource, structure):
    """Solution of the similarity congruence of an irreducible source.

    Works on the BFS tree of classify_structure as the module docstring
    describes, on the logs log2_prob returns: Log2Values for an exact source,
    decided exactly, and floats for a float source, decided by
    approximate_rational.  Returns None when some Q_e is irrational (the
    convergent mode), else (M, unit, X) with M = lcm(den Q_e) and logs such
    that, modulo 1,

        s = (M/d) unit,  w_j = (M/d) X_j,  zeta_jk(n) = (M/d) [(n-1) unit + X_j - X_k - d log2 p_j],

    where unit is Y shifted by a rational multiple of 1/M so that s lies in
    [0, 1/d), and w_0 = 0.
    """
    T, d, depth = source.transitions, structure.period, structure.depth
    edges = [(k, j, depth[k] + 1 - depth[j]) for k, row in enumerate(source.support()) for j in row]
    logs = {(k, j): log2_prob(source, T[k][j]) for k, j, _ in edges}
    zero = logs[edges[0][:2]] * 0  # 0 in the type of the logs
    phi = [zero] * source.r
    for j in sorted(range(1, source.r), key=depth.__getitem__):
        k = structure.parent[j]
        phi[j] = phi[k] - logs[k, j]

    def delta(k, j):
        return phi[k] - phi[j] - logs[k, j]

    g, Y = 0, zero
    for k, j, ge in edges:
        if ge and (g == 0 or ge % g):
            g, x, y = _bezout(g, ge)
            Y = Y * x + delta(k, j) * y
    M = common_denominator([Y * (ge // d) - delta(k, j) for k, j, ge in edges])
    if M is None:
        return None
    unit = Y
    if d > 1:
        # frac((M/d) Y) = (i + d s) / d with integer i in [0, d); drop the i/d.
        # A float frac within 1e-12 / d below (i + 1) / d reads as s = 0, the
        # value wrap_unit gives it, not as s next to 1/d
        i = math.floor(d * _frac(Y, [M], d)[0] + (0 if isinstance(Y, Log2Value) else 1e-12))
        unit = Y - Fraction(i, M)
    X = tuple(unit * depth[j] - phi[j] * d for j in range(source.r))
    return M, unit, X


def classify_mode(source: MarkovSource, m_max: int = DEFAULT_M_MAX) -> ModeClassification:
    """Convergent vs. oscillatory, with M, phase and weights when oscillatory.

    Both kinds of source are decided by the cycle congruence of the module
    docstring.  For an exact source it is decided in exact arithmetic: M is
    proven minimal, with no bound, and the convergent mode is proven where
    some cycle ratio is irrational.  For a float source rationality is only
    a heuristic, and an order M above m_max is reported as convergent; a
    convergent float result therefore means "no oscillation detected up to
    m_max" and is flagged heuristic.
    """
    structure = classify_structure(source)
    if not structure.irreducible:
        raise ReducibleChain(structure.reducible_note or "chain is reducible")
    flags = frozenset({"degenerate"} if is_dyadic(source) else ())
    solution = _similarity(source, structure)
    if solution and (source.exact or solution[0] <= m_max):
        M, unit, X = solution
        d = structure.period
        s = wrap_unit(float(_frac(unit, [M], d)[0]))
        w = tuple(wrap_unit(float(_frac(x, [M], d)[0])) for x in X)
        provenance = "exact_rational" if source.exact else "spectral_search"
        return ModeClassification("oscillatory", M, s, w, provenance, flags, (d, unit, X))
    if source.exact:
        return ModeClassification("convergent", None, None, None, "exact_rational", flags)
    return ModeClassification("convergent", None, None, None, "heuristic_float", flags | {"heuristic"})


# -- the oscillation argument zeta ------------------------------------------


def _zeta_terms(source: MarkovSource, cls: ModeClassification, ns, pairs):
    """The two terms of zeta_jk(n) = (M/d) [(n-1) unit + b_jk] modulo 1, b_jk = X_j - X_k - d log2 p_j.

    Returns frac((M/d)(n-1) unit) for each n in ns and frac((M/d) b_jk) for
    each pair (j, k) in pairs, both from the stored similarity solution
    through _frac; zeta_jk(n) is their sum modulo 1.
    """
    d, unit, X = cls.solution
    phase = _frac(unit, [(n - 1) * cls.M for n in ns], d)
    betas = [_frac(X[j] - X[k] - log2_prob(source, source.initial[j]) * d, [cls.M], d)[0] for j, k in pairs]
    return phase, betas


def oscillation_argument(source: MarkovSource, cls: ModeClassification, j: int, k: int, n: int) -> float:
    """zeta_jk(n) = (n-1) s + w_j - w_k - M log2 p_j modulo 1, in [0, 1).

    This is the phase shared by all paths from j to k, read from the stored
    similarity solution as _zeta_terms describes.
    """
    if cls.mode != "oscillatory":
        raise ValueError("zeta is only defined in the oscillatory mode")
    if source.initial[j] is ZERO:
        raise ZeroProbability(f"initial state {j} has zero probability")
    phase, (beta,) = _zeta_terms(source, cls, [n], [(j, k)])
    return float(phase[0] + beta) % 1.0


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
    r = source.r
    pairs = [(j, k) for j in range(r) if source.initial[j] is not ZERO for k in range(r)]
    rho = np.zeros((hi - lo + 1, r, r))
    phase, betas = _zeta_terms(source, cls, range(lo, hi + 1), pairs)
    phase_f = np.array(phase, dtype=float)
    for (j, k), beta in zip(pairs, betas):
        if isinstance(phase[0], Fraction) and isinstance(beta, Fraction):
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
) -> list[Prediction]:
    """Omega_n with sandwich bounds for n = lo..hi, for a chain of any period d >= 1.

    With c_j = depth_j mod d the cyclic class of state j, the eigenpairs of
    P at the d-th roots of unity w^t are r_t(j) = w^(t c_j) and
    l_t(k) = pi_k w^(-t c_k), and sum_t w^(t (n-1)) r_t(j) l_t(k) is d pi_k
    where k lies in class c_j + n - 1 and 0 elsewhere:

        Omega_n = (1/2)(1 - 1/M)
                  + (1/M) sum_jk d p_j pi_k [c_k = c_j + n - 1 (mod d)] rho(zeta_jk(n)).

    At d = 1 every pair is live and the weights are p_j pi_k.
    boundary_terms is the weight mass d p_j pi_k, over every (j, k) pair,
    whose rho(zeta_jk(n)) falls outside (xi, 1 - xi); within that margin of
    a discontinuity the asymptotic sandwich does not pin R_n down.
    Convergent sources predict the constant 1/2.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"invalid block length range {lo}..{hi}")
    ns = range(lo, hi + 1)
    if cls.mode == "convergent":
        flags = frozenset(set(cls.flags) | {"convergent"})
        return [Prediction(n, 0.5, 0.5, 0.5, 0.0, xi, flags) for n in ns]
    structure = classify_structure(source)
    d = structure.period
    c = np.array(structure.depth) % d
    nm1 = np.arange(lo - 1, hi)
    weights = d * np.outer(source.initial_array(), stationary_distribution(source))
    rho = _zeta_defects(source, cls, lo, hi)
    # summed pair by pair in (j, k) order: np.einsum's summation order moves
    # omega by an ulp on about a third of the rows, which shows in print
    osc = np.zeros(len(nm1))
    for j in range(source.r):
        for k in range(source.r):
            osc = osc + weights[j, k] * rho[:, j, k] * ((c[k] - c[j] - nm1) % d == 0)
    boundary = np.einsum("jk,njk->n", weights, (rho <= xi) | (rho >= 1.0 - xi))
    omega = 0.5 * (1.0 - 1.0 / cls.M) + osc / cls.M
    return [_finish_prediction(n, float(o), float(b) / cls.M, xi, cls.flags) for n, o, b in zip(ns, omega, boundary)]


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
    if any(not isinstance(v, ExactProb) and v == 0 for v in p):
        raise ZeroProbability("memoryless formula needs all p_k > 0")
    flags = set() if exact else {"heuristic"}
    logs = [(v if isinstance(v, ExactProb) else ExactProb.make(Fraction(v))).log2() if exact else math.log2(v)
            for v in p]
    M = common_denominator([lg - logs[0] for lg in logs[1:]])
    if M is None:
        return MemorylessPrediction(n, 0.5, None, "irrational", frozenset(flags))
    # an exact fractional part is decided; a float one within 1e-12 of an
    # integer is taken to sit on the discontinuity
    fr = _frac(-logs[0], [M * n])[0]
    if min(fr, 1 - fr) <= (0 if exact else 1e-12):
        fr = 0
        flags.add("boundary")
    return MemorylessPrediction(n, 0.5 + (0.5 - float(fr)) / M, M, "rational", frozenset(flags))


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
    # rho(-(la + k lm)) = frac(la + k lm), which is rational only where la and
    # k lm both are: the odd parts of alpha and 1 - alpha never cancel
    log2 = (lambda v: ExactProb.make(v).log2()) if isinstance(a, Fraction) else math.log2
    base = _frac(log2(a), [1])[0]
    rhos = [float((base + step) % 1) for step in _frac(log2(one_minus), range(k_terms))]
    terms = [float(a) * float(one_minus) ** k * rho for k, rho in enumerate(rhos)]
    return Example2Sum(value=math.fsum(terms), tail_bound=tail, n_terms=k_terms)
