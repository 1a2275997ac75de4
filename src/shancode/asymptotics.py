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
both kinds of source: an exact source's logs are integer rows and
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
logs with s = (M/d) unit and w_j = (M/d) X_j modulo 1; nothing solves the
congruence again, and s and w are only reported.  This module owns that
format.  pair_rho is the one readout of rho from it, at scale M for Omega_n
and at scale 1, shifted by z/M, for the exact oracle's lifted chain (whose
integer edge lifts _similarity gives), with zeta_jk(n) = frac((M/d)(n-1) unit)
+ frac((M/d) b_jk) and b_jk = X_j - X_k - d log2 p_j, for all live pairs at
once.  Where (n-1) unit + b_jk is rational (its exponent part is 0), rho is
exact integer arithmetic (exact.rho_ratio), so dyadic sources predict
exactly 0.  Elsewhere exact.frac_log reduces both terms modulo 1: in integer
fixed point for an exact source, so rho is correct to about 1e-16 at any n,
and as a float product for a float one, so zeta is off by about n M 2^-52
(|unit| + max |X_j|).  prediction_columns sums it into Omega_n by blocks of n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ReducibleChain, ResourceLimit, ZeroProbability
from .exact import ceil_defect, common_denominator, frac_log, int_rows, rho_ratio, split_rows, wrap_unit
from .sources import MarkovSource, _stationary, classify_structure, is_dyadic

DEFAULT_XI = 0.05
DEFAULT_M_MAX = 64
# most rows x r^2 one prediction_columns request may ask for: one rho and one bool margin cell each
PREDICT_CELL_CAP = 2**22
# pair_rho counts in int64 while steps Q and its row count times Q stay below this, in Python ints beyond
INT64_READOUT_BOUND = 2**53
READOUT_BLOCK_CELLS = 2**16  # rows x live pairs x steps of one pair_rho block: 512 KiB of float64


# -- mode classification ----------------------------------------------------


@dataclass(frozen=True)
class ModeClassification:
    """Mode, order M, phase s in [0, 1/d) and weights w with w_0 = 0.

    provenance is "exact_rational" for an exact source; a float source is
    "spectral_search" when oscillatory and "heuristic_float" when convergent.
    solution is the similarity solution (d, unit, X) of every oscillatory
    classification (see _similarity), integer rows (tuples) for an exact
    source and floats for a float one, from which zeta is evaluated; None in
    the convergent mode.  lifts, the edge lifts z_e mod M, are there only for
    an exact source; as the source and solution fix them, == and hash skip them.
    """

    mode: str  # "convergent" | "oscillatory"
    M: int | None
    s: float | None
    w: tuple | None
    provenance: str  # "exact_rational" | "spectral_search" | "heuristic_float"
    flags: frozenset
    solution: tuple | None = None
    lifts: np.ndarray | None = field(default=None, compare=False)


def _bezout(a: int, b: int):
    """(g, x, y) with g = gcd(a, b) = x a + y b and g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _similarity(source: MarkovSource, structure):
    """Solution of the similarity congruence of an irreducible source.

    Works on the BFS tree of classify_structure as the module docstring
    describes, forming phi, Delta_e and Q_e over all edges at once from
    source.prob_table: an exact source's integer rows, decided exactly, in
    int64 where their size bounds every sum and in Python ints elsewhere, or
    a float source's floats, decided by approximate_rational.  Returns None
    when some Q_e is irrational (the convergent mode), else (M, unit, X,
    lifts) with M = lcm(den Q_e), unit and X_j rows of Python ints or floats:

        s = (M/d) unit,  w_j = (M/d) X_j,  zeta_jk(n) = (M/d) [(n-1) unit + X_j - X_k - d log2 p_j],

    where unit = Y - i/M, the integer i in [0, d) putting s in [0, 1/d), and
    w_0 = 0.  lifts (None for a float source) is the (r, r) integer array of
    the edge lifts z_e = M (-log2 p(j|k)) - (M/d)(unit + X_k - X_j), read off
    the residues that decided M as (g_e/d) i - M Q_e mod M; 0 off the support.
    """
    table, d, r, basis = source.prob_table, structure.period, source.r, source.prob_table.basis
    depth, parent = np.array(structure.depth), structure.parent
    k, j = np.nonzero(table.index[:r] < len(table.logs))
    g = depth[k] + 1 - depth[j]
    logs = np.array(table.logs) if basis is None else int_rows(table.rows, 4 * r)  # |Delta_e| < 2r max |log|
    phi = np.zeros((r, *logs.shape[1:]), logs.dtype)
    for state in sorted(range(1, r), key=structure.depth.__getitem__):
        phi[state] = phi[parent[state]] - logs[table.index[parent[state], state]]
    delta = phi[k] - phi[j] - logs[table.index[k, j]]
    G, Y = 0, np.zeros(logs.shape[1:], dtype=object)
    for e in np.flatnonzero(np.diff(np.gcd.accumulate(g), prepend=0)).tolist():  # where gcd(g) drops
        G, x, y = _bezout(G, int(g[e]))
        Y = Y * x + delta[e].astype(object) * y
    Q = np.multiply.outer(g // d, Y if basis is None else int_rows(Y, 2 * r)) - delta
    M = common_denominator(Q.tolist() if basis is None else Q, basis)
    if M is None:
        return None
    # frac((M/d) Y) = (i + d s) / d with integer i in [0, d); drop the i/d.
    # A float frac within 1e-12 / d below (i + 1) / d reads as s = 0, the
    # value wrap_unit gives it, not as s next to 1/d
    i = math.floor(d * frac_log(Y, [M], d, basis)[0] + (1e-12 if basis is None else 0)) if d > 1 else 0
    if basis is None:
        unit = Y - i / M
        return M, unit, tuple((np.multiply.outer(depth, unit) - phi * d).tolist()), None
    unit = Y - basis.of(Fraction(i, M))
    X = np.multiply.outer(depth, unit) - phi.astype(object) * d
    lifts = np.zeros((r, r), dtype=np.int64 if M < 2**63 else object)
    lifts[k, j] = (g // d * i - split_rows(Q)[0].astype(object) // (basis.D // M)) % M
    return M, tuple(unit.tolist()), tuple(map(tuple, X.tolist())), lifts


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
        M, unit, X, lifts = solution
        d, basis = structure.period, source.prob_table.basis
        s = wrap_unit(float(frac_log(unit, [M], d, basis)[0]))
        w = tuple(map(wrap_unit, frac_log(np.array(X), [M], d, basis).tolist()))
        provenance = "exact_rational" if source.exact else "spectral_search"
        return ModeClassification("oscillatory", M, s, w, provenance, flags, (d, unit, X), lifts)
    if source.exact:
        return ModeClassification("convergent", None, None, None, "exact_rational", flags)
    return ModeClassification("convergent", None, None, None, "heuristic_float", flags | {"heuristic"})


# -- the oscillation argument zeta ------------------------------------------


def readout_denominator(source: MarkovSource, cls: ModeClassification) -> int:
    """Q = d D / gcd(D, K of unit, X_j and log2 p_j over p_j > 0) = d lcm of their rational parts' denominators.

    Q times the rational part of (scale/d)((n-1) unit + b_jk) is an integer.
    """
    d, unit, X = cls.solution
    table = source.prob_table
    initial = table.index[source.r]
    K, _ = split_rows([unit, *X, *table.rows[initial[initial < len(table.logs)]].tolist()])
    return d * table.basis.D // math.gcd(table.basis.D, *K.tolist())


def pair_rho(source: MarkovSource, cls: ModeClassification, lo: int, hi: int, scale: int, steps: int = 1):
    """Yield (rows, rho), rho[i, j, k, z] = rho(frac((scale/d)((n-1) unit + b_jk)) + z/steps), in blocks of n.

    rows is the slice of 0..hi - lo a block covers (n = lo + rows.start + i),
    j a live initial state (p_j > 0) and k any state: rho(zeta_jk(n)) at
    scale M with steps = 1, and at scale 1 with steps = M rho(-log2 mu) of
    the paths j -> k whose edge lifts sum to z mod M (oracle.lifted_chain).
    Every pair's b_jk, its fraction (frac_log) and its rational points are
    array steps; only the per-n arrays are made, READOUT_BLOCK_CELLS a block.
    rho is the float sum of the unit's phase and the pair's fraction except
    at a rational point of an exact source: there every K part is a multiple
    of G = d D / Q, Q = readout_denominator, so K = (n-1) A + B_jk mod Q and
    rho = rho_ratio(K steps + z Q, steps Q), in int64 while steps Q and (hi -
    lo + 1) Q are below 2^53, in Python ints beyond, as is a rational unit's
    phase (n-1) A mod Q over Q.
    """
    (d, unit, X), table, r, count = cls.solution, source.prob_table, source.r, hi - lo + 1
    live, dtype = np.flatnonzero(table.p[r]), object if source.exact else float
    X, logs = np.array(X, dtype=dtype), np.array(table.rows if source.exact else table.logs, dtype=dtype)
    b = (X[live][:, None] - X - logs[table.index[r, live]][:, None] * d).reshape(len(live) * r, *X.shape[1:])
    fraction = frac_log(b, [scale], d, table.basis)
    every, at = np.zeros(len(b), dtype=bool), np.full(len(b), -1)  # rational at every row, or at row at
    if source.exact:
        Q = readout_denominator(source, cls)
        G = d * table.basis.D // Q
        ints = np.int64 if max(steps, count) * Q < INT64_READOUT_BOUND else object
        (A, u), (B, e) = split_rows(unit), split_rows(b)
        A, B = int(A) // G * scale % Q, (B // G * scale % Q).astype(ints)
        # (n - 1) u + e_jk = 0 at every n where u = 0 = e_jk, else at most at n - 1 = -e_i / u_i
        if not u.any():
            every = ~e.any(axis=1)
        else:
            t = -e[:, np.argmax(u != 0)] // u[np.argmax(u != 0)]  # the n - 1 where u's first exponent cancels
            hit = ~(np.multiply.outer(t, u) + e).any(axis=1) & (t >= lo - 1) & (t <= hi - 1)
            at[hit] = t[hit] - (lo - 1)
    if every.all():
        phase = None
    elif source.exact and not u.any():
        phase = np.asarray((((lo - 1) * A % Q + np.arange(count, dtype=ints) * A) % Q) / Q, dtype=float)
    else:
        phase = frac_log(unit, range((lo - 1) * scale, hi * scale, scale), d, table.basis)
    block = max(1, READOUT_BLOCK_CELLS // (len(b) * steps))
    for start in range(0, count, block):
        rows = slice(start, min(start + block, count))
        rho = np.empty((rows.stop - start, len(b), steps))
        if phase is not None:
            # both terms are correctly rounded and lie in [0, 1): where their
            # mantissas cancel and zeta is an integer, the float sum is 1.0 or
            # 1 - 2**-53, never just above 1, so rho stays within 2**-53 of 0
            rho[:] = ceil_defect((phase[rows, None] + fraction)[..., None] + np.arange(steps) / steps)
        row, pair = np.nonzero(every | (np.arange(start, rows.stop)[:, None] == at))
        if len(row):
            K = ((lo + start - 1) * A % Q + row.astype(ints) * A + B[pair]) % Q
            rho[row, pair] = rho_ratio(K[:, None] * steps + np.arange(steps, dtype=ints) * Q, steps * Q)
        yield rows, rho.reshape(len(rho), len(live), r, steps)


def oscillation_argument(source: MarkovSource, cls: ModeClassification, j: int, k: int, n: int) -> float:
    """zeta_jk(n) = (n-1) s + w_j - w_k - M log2 p_j modulo 1, in [0, 1).

    The phase shared by all paths from j to k: frac((M/d)(n-1) unit) +
    frac((M/d) b_jk), b_jk formed as in pair_rho, reduced by frac_log and
    summed exactly as Fractions.
    """
    if cls.mode != "oscillatory":
        raise ValueError("zeta is only defined in the oscillatory mode")
    if not source.prob_table.p[source.r, j]:
        raise ZeroProbability(f"initial state {j} has zero probability")
    (d, unit, X), table, dtype = cls.solution, source.prob_table, object if source.exact else float
    X, logs = np.array(X, dtype=dtype), np.array(table.rows if source.exact else table.logs, dtype=dtype)
    b = X[j] - X[k] - logs[table.index[source.r, j]] * d
    return float(frac_log(unit, [(n - 1) * cls.M], d, table.basis)[0] + frac_log(b, [cls.M], d, table.basis)[0]) % 1.0


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


@dataclass(frozen=True)
class PredictionColumns:
    """Omega_n with its sandwich bounds for each n in ns, one float64 array per field.

    A row whose boundary_terms is 0 carries flags; any other row carries
    flags with "boundary" added.
    """

    ns: range
    omega: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    boundary_terms: np.ndarray
    flags: frozenset

    def row_flags(self) -> list:
        """The flag set of every row, in order."""
        pick = (self.flags, self.flags | {"boundary"})
        return [pick[b] for b in (self.boundary_terms > 0.0).tolist()]


def prediction_columns(
    source: MarkovSource,
    cls: ModeClassification,
    lo: int,
    hi: int,
    xi: float = DEFAULT_XI,
) -> PredictionColumns:
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
    Convergent sources predict the constant 1/2.  A request of more than
    PREDICT_CELL_CAP rows times r^2 raises ResourceLimit before any work.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"invalid block length range {lo}..{hi}")
    ns = range(lo, hi + 1)
    if len(ns) * source.r**2 > PREDICT_CELL_CAP:
        raise ResourceLimit(f"prediction over {len(ns)} block lengths at r = {source.r} holds "
                            f"{len(ns) * source.r**2} > {PREDICT_CELL_CAP} cells (rows x r^2)")
    if cls.mode == "convergent":
        half, zero = np.full(len(ns), 0.5), np.zeros(len(ns))
        return PredictionColumns(ns, half, half, half, zero, cls.flags | {"convergent"})
    structure = classify_structure(source)
    d, M = structure.period, float(cls.M)
    c = np.array(structure.depth) % d
    initial = source.prob_table.p[source.r]
    live = np.flatnonzero(initial)
    weights = d * np.outer(initial, _stationary(source))  # irreducible, as cls is oscillatory: no second BFS
    offset = (c - c[live][:, None]) % d  # the class of n - 1 modulo d at which pair (j, k) is live
    osc, boundary = np.empty(len(ns)), np.empty(len(ns))
    for rows, rho in pair_rho(source, cls, lo, hi, cls.M):
        rho = rho[..., 0]
        shift = ((lo - 1 + rows.start) % d + np.arange(len(rho))) % d  # n - 1 mod d, an int64 at any n
        terms = np.ascontiguousarray((weights[live] * rho * (shift[:, None, None] == offset)).reshape(len(rho), -1).T)
        # summed pair by pair in (j, k) order, as np.einsum's order moves omega by an ulp on about a third of
        # the rows: add.reduce adds the rows of a C-ordered array in order, but one column pairwise
        osc[rows] = np.add.reduce(terms, axis=0) if len(rho) > 1 else np.add.accumulate(terms[:, 0])[-1]
        near = np.zeros((len(rho), source.r, source.r), dtype=bool)
        near[:, live] = (rho <= xi) | (rho >= 1.0 - xi)
        boundary[rows] = np.einsum("jk,njk->n", weights, near) / M
    omega = 0.5 * (1.0 - 1.0 / cls.M) + osc / cls.M
    return PredictionColumns(ns, omega, omega - boundary, omega + boundary, boundary, cls.flags)


def predict(source: MarkovSource, cls: ModeClassification, n: int, xi: float = DEFAULT_XI) -> Prediction:
    """Omega_n at one n for any mode and period, the one row of prediction_columns."""
    cols = prediction_columns(source, cls, n, n, xi)
    return Prediction(n, float(cols.omega[0]), float(cols.lower[0]), float(cols.upper[0]),
                      float(cols.boundary_terms[0]), xi, cols.row_flags()[0])
