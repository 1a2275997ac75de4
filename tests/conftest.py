"""Shared fixtures: reference sources, independent brute-force oracles and closed forms.

The oracles here (path enumeration, quadrature) are deliberately written
against the mathematical definitions only, so they stay independent of the
library code paths they are used to check.  The closed forms (the Fejer
kernel, the absorbing pair's series) and the restarting coprime base are
references that only the tests use.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from shancode import ZERO, ExactProb, MarkovSource, RedundancyValue, log2_prob
from shancode.exact import Log2Value, frac_log, log_rows


# -- reference sources -------------------------------------------------------


def memoryless(probs, initial=None) -> MarkovSource:
    """Markov wrapper of a memoryless source with exact rational letters."""
    probs = [str(p) for p in probs]
    rows = [list(probs) for _ in probs]
    return MarkovSource.from_exact(initial or list(probs), rows)


@pytest.fixture(scope="session")
def dyadic_memoryless():
    return memoryless([Fraction(1, 2), Fraction(1, 2)])


@pytest.fixture(scope="session")
def dyadic_markov_pair():
    """Two dyadic Markov chains (every probability a power of two)."""
    a = MarkovSource.from_exact(["1/2", "1/2"], [["1/2", "1/2"], [1, 0]])
    b = MarkovSource.from_exact(["1/4", "1/4", "1/2"], [["1/2", "1/2", 0], [0, "1/2", "1/2"], ["1/2", 0, "1/2"]])
    return a, b


@pytest.fixture(scope="session")
def dyadic_r3():
    return MarkovSource.from_exact(
        ["1/4", "1/4", "1/2"],
        [["1/2", "1/4", "1/4"], ["1/4", "1/2", "1/4"], ["1/4", "1/4", "1/2"]],
    )


@pytest.fixture(scope="session")
def permutation_source():
    """Row-permutation chain with power-of-two letter ratios, initial equal to the first row."""
    return MarkovSource.from_exact(["1/3", "2/3"], [["1/3", "2/3"], ["2/3", "1/3"]])


@pytest.fixture(scope="session")
def permutation_state0_start():
    """Same chain started deterministically at state 0."""
    return MarkovSource.from_exact([1, 0], [["1/3", "2/3"], ["2/3", "1/3"]])


@pytest.fixture(scope="session")
def cycle_source():
    """Deterministic two-cycle with non-dyadic initial probabilities."""
    return MarkovSource.from_exact(["1/3", "2/3"], [[0, 1], [1, 0]])


@pytest.fixture(scope="session")
def bipartite_periodic_source():
    """Irreducible period-2 chain with a stochastic branch out of state 0."""
    return MarkovSource.from_exact(
        [1, 0, 0], [[0, "1/3", "2/3"], [1, 0, 0], [1, 0, 0]]
    )


@pytest.fixture(scope="session")
def p2b_source():
    """Period-2 chain, r = 5: classes {0, 1, 2} and {3, 4}, two equal rows each side.

    The repeated rows make the zero eigenvalue of P defective, so its
    eigenvector basis is singular.
    """
    third, two = "1/3", "2/3"
    return MarkovSource.from_exact(
        [third, third, third, 0, 0],
        [
            [0, 0, 0, third, two],
            [0, 0, 0, two, third],
            [0, 0, 0, third, two],
            [third, third, third, 0, 0],
            [third, third, third, 0, 0],
        ],
    )


@pytest.fixture(scope="session")
def p3_source():
    """Period-3 chain, r = 6, classes {0, 1} -> {2, 3} -> {4, 5} -> {0, 1}; rows 2 and 3 are equal."""
    third, two, half = "1/3", "2/3", "1/2"
    return MarkovSource.from_exact(
        [third, two, 0, 0, 0, 0],
        [
            [0, 0, third, two, 0, 0],
            [0, 0, two, third, 0, 0],
            [0, 0, 0, 0, half, half],
            [0, 0, 0, 0, half, half],
            [third, two, 0, 0, 0, 0],
            [two, third, 0, 0, 0, 0],
        ],
    )


@pytest.fixture(scope="session")
def absorbing_source():
    """Reducible two-state chain leaking into an absorbing state, alpha = 1/3."""
    return MarkovSource.from_exact([1, 0], [["2/3", "1/3"], [0, 1]])


@pytest.fixture(scope="session")
def float_convergent_source():
    return MarkovSource.from_floats([0.5, 0.5], [[0.3, 0.7], [0.6, 0.4]])


def half_exponent_source(e11, e12, e21, e22, precision=10**13) -> MarkovSource:
    """Positive exact source with half-integer power-of-two exponents.

    Entries have the ratio structure p(j|k) = mu0 (w_j / w_k) 2**e_kj, so all
    cycle log-ratios are exactly rational (multiples of 1/2) regardless of
    the rational factors mu0, w.  Exact stochasticity is impossible with
    non-integer exponents, so mu0 and w are rational approximations of the
    real solution and the rows sum to 1 only within ~1/precision; validation
    accepts the source with the row_sums_inexact flag.
    """
    e = [Fraction(x) for x in (e11, e12, e21, e22)]
    t11, t12, t21, t22 = (2.0 ** float(x) for x in e)
    # rows sum to one: mu0 (t11 + w t12) = 1 = mu0 (t21 / w + t22)
    disc = (t11 - t22) ** 2 + 4.0 * t12 * t21
    w = (-(t11 - t22) + math.sqrt(disc)) / (2.0 * t12)
    mu0 = 1.0 / (t11 + w * t12)
    w_f = Fraction(w).limit_denominator(precision)
    mu0_f = Fraction(mu0).limit_denominator(precision)
    entries = [
        [ExactProb.make(mu0_f, e[0]), ExactProb.make(mu0_f * w_f, e[1])],
        [ExactProb.make(mu0_f / w_f, e[2]), ExactProb.make(mu0_f, e[3])],
    ]
    assert all(p.to_float() > 0 and p.value_at_most_one() for row in entries for p in row)
    return MarkovSource.from_exact(["1/2", "1/2"], entries)


@pytest.fixture(scope="session")
def m2_source():
    """Oscillation order 2: alpha entries {0, 3/2, 1/2}, built from 2^(-1/2) factors."""
    return half_exponent_source(-1, Fraction(-3, 2), -2, Fraction(-1, 2))


@pytest.fixture(scope="session")
def oscillatory_exact_family(permutation_source, permutation_state0_start, m2_source):
    """Positive exact oscillatory sources; the last two have order M = 2."""
    return [
        permutation_source,
        permutation_state0_start,
        memoryless([Fraction(1, 3), Fraction(2, 3)]),
        memoryless([Fraction(1, 5), Fraction(4, 5)]),
        memoryless([Fraction(1, 9), Fraction(8, 9)]),
        memoryless([Fraction(1, 7), Fraction(2, 7), Fraction(4, 7)]),
        MarkovSource.from_exact(
            ["1/2", "1/4", "1/4"],
            [["1/7", "2/7", "4/7"], ["2/7", "4/7", "1/7"], ["4/7", "1/7", "2/7"]],
        ),
        MarkovSource.from_exact(["2/3", "1/3"], [["1/5", "4/5"], ["4/5", "1/5"]]),
        MarkovSource.from_exact(["1/2", "1/2"], [["2/3", "1/3"], ["1/3", "2/3"]]),
        half_exponent_source(-1, Fraction(-5, 2), -1, Fraction(-1, 2)),
        half_exponent_source(-1, Fraction(-3, 2), -2, Fraction(-1, 2)),
    ]


def period2_source(M: int) -> MarkovSource:
    """Period-2 chain whose two return cycles through state 0 differ by 1/M in -log2 weight: order M.

    Row 0 is mu (2^-1, 2^(-(M-1)/M)) on states 1 and 2, which both return
    to state 0; it sums to 1 only up to the limit_denominator rounding of
    its mantissa mu (validation flags it row_sums_inexact).
    """
    mu = Fraction(1 / (2**-1 + 2 ** (-(M - 1) / M))).limit_denominator(10**13)
    row = [ZERO, ExactProb.make(mu, -1), ExactProb.make(mu, Fraction(1 - M, M))]
    return MarkovSource.from_exact([1, 0, 0], [row, [1, 0, 0], [1, 0, 0]])


@pytest.fixture(scope="session")
def order67_source():
    """period2_source at M = 67."""
    return period2_source(67)


@pytest.fixture(scope="session")
def convergent_exact_source():
    """Positive exact source with a provably irrational log-ratio."""
    return MarkovSource.from_exact(["1/2", "1/2"], [["3/8", "5/8"], ["5/8", "3/8"]])


def random_float_source(rng, r: int, with_zeros: bool = False) -> MarkovSource:
    P = rng.random((r, r)) + 0.05
    if with_zeros and r >= 2:
        # zero one off-diagonal entry per row at most, keeping irreducibility likely
        for k in range(r):
            if rng.random() < 0.5:
                j = int(rng.integers(0, r))
                if j != (k + 1) % r:
                    P[k, j] = 0.0
    P = P / P.sum(axis=1, keepdims=True)
    p0 = rng.random(r) + 0.05
    if with_zeros and r >= 3 and rng.random() < 0.3:
        p0[int(rng.integers(0, r))] = 0.0
    p0 = p0 / p0.sum()
    return MarkovSource.from_floats(p0, P)


# the nonzero cells random_exact_source draws: dyadic, 3-, 5- and 9-adic entries
EXACT_CELLS = tuple(map(Fraction, ("1/2", "1/4", "1/8", "3/8", "3/4", "1/3", "2/3", "1/6", "1/9", "1/12", "1/5")))


def random_exact_row(rng, r: int) -> list[str]:
    """1..r nonzero cells at random places: all but the last from EXACT_CELLS, the last closing the row."""
    while True:
        cells = [rng.choice(EXACT_CELLS) for _ in range(rng.randint(1, r) - 1)]
        if sum(cells) < 1:
            break
    row = ["0"] * r
    for place, p in zip(rng.sample(range(r), len(cells) + 1), [*cells, 1 - sum(cells)]):
        row[place] = str(p)
    return row


def random_exact_source(rng) -> MarkovSource:
    """An exact source of r = 1..3 states whose initial vector and rows are random_exact_rows.

    rng is a random.Random.  The zero patterns make periodic and reducible
    chains; about a third come out oscillatory, a third convergent and a
    third reducible.
    """
    r = rng.randint(1, 3)
    return MarkovSource.from_exact(random_exact_row(rng, r), [random_exact_row(rng, r) for _ in range(r)])


def random_order_source(rng) -> MarkovSource:
    """An exact source of 2 or 3 states whose cycle weights differ by multiples of 1/q: order M = q.

    rng is a random.Random and q is drawn from {2, 3, 5, 7}.  Entries are
    mu 2^(-a/q) with integers 0 <= a < 3q and rational mu; rows are made
    stochastic through rationals rounded by limit_denominator(10**13), so
    they sum to 1 only within about 1e-13 (row_sums_inexact).
      - Period 1: a positive chain, p(j|k) = mu (w_j / w_k) 2^(-a_kj/q) with
        mu and w the inverse Perron root and Perron vector of 2^(-a_kj/q).
        a_00 - a_11 is not a multiple of q, so the self-loops of states 0 and
        1 differ by a non-integer multiple of 1/q and M = q.
      - Period 2: three states, a hub that moves to the other two by
        mu (2^(-a_1/q), 2^(-a_2/q)), a_1 - a_2 not a multiple of q, and each
        of them returns to the hub: period2_source with random exponents,
        hub and state labels.
    The initial vector is a random_exact_row.
    """
    q, r = rng.choice((2, 3, 5, 7)), rng.randint(2, 3)
    if r == 3 and rng.random() < 0.5:
        hub, x, y = rng.sample(range(3), 3)
        a = rng.randrange(2 * q)
        exps = (Fraction(-a, q), Fraction(-a - rng.randint(1, q - 1), q))
        mu = Fraction(1 / sum(2.0 ** float(e) for e in exps)).limit_denominator(10**13)
        rows = [[ZERO] * 3 for _ in range(3)]
        rows[hub][x], rows[hub][y] = (ExactProb.make(mu, e) for e in exps)
        rows[x][hub] = rows[y][hub] = ExactProb.make(1)
    else:
        a = [[rng.randrange(2 * q) for _ in range(r)] for _ in range(r)]
        a[1][1] = a[0][0] + rng.randint(1, q - 1)
        values, vectors = np.linalg.eig(2.0 ** (-np.array(a) / q))
        top = int(np.argmax(values.real))
        h = np.abs(vectors[:, top].real)
        mu = Fraction(1 / values[top].real).limit_denominator(10**13)
        w = [Fraction(h[j] / h[0]).limit_denominator(10**13) for j in range(r)]
        rows = [[ExactProb.make(mu * w[j] / w[k], Fraction(-a[k][j], q)) for j in range(r)] for k in range(r)]
    return MarkovSource.from_exact(random_exact_row(rng, r), rows)


def float_copy(source: MarkovSource) -> MarkovSource:
    """The same chain with every probability rounded to a float."""
    return MarkovSource.from_floats(source.initial_array(), source.transition_array())


# -- independent oracles ------------------------------------------------------


def iter_paths_bruteforce(source: MarkovSource, n: int):
    """Yield (path, mu) over the support, by explicit product of probabilities."""
    init = source.initial_array()
    P = source.transition_array()

    def extend(path, mu):
        if len(path) == n:
            yield tuple(path), mu
            return
        for j in range(source.r):
            p = P[path[-1], j]
            if p > 0:
                path.append(j)
                yield from extend(path, mu * p)
                path.pop()

    for s0 in range(source.r):
        if init[s0] > 0:
            yield from extend([s0], init[s0])


def _decimal_rho(num: int, den: int, exp2: Fraction, ln2: Decimal) -> Decimal:
    """rho(-log2 mu) of mu = (num / den) 2^exp2, num and den odd, read from that one mu in the decimal context.

    mu is a power of 2 exactly where num = den.  There -log2 mu = -exp2 is
    rational and rho exact (0 where exp2 is an integer); elsewhere it is
    irrational, read as -exp2 - ln(num / den) / ln 2.  A sum of the steps'
    rounded logs can land an integer on either side of itself.
    """
    if num == den:
        rho = math.ceil(-exp2) + exp2
        return Decimal(rho.numerator) / rho.denominator
    u = -Decimal(exp2.numerator) / exp2.denominator - (Decimal(num) / Decimal(den)).ln() / ln2
    return u.to_integral_value(ROUND_CEILING) - u


def decimal_path_reference(source: MarkovSource, n: int, digits: int = 50) -> Decimal:
    """R_n of an exact source summed over every path in `digits`-digit decimal arithmetic.

    Each path carries its mu exactly: the products of its steps' odd
    mantissas' numerators and denominators and the sum of their power-of-2
    exponents.  Paths that end in the same state with the same numerator,
    denominator and exponent are summed once, times their number.  Each mass
    is rounded once and its rho read from that one mu (_decimal_rho).
    """
    with localcontext() as ctx:
        ctx.prec = digits
        frontier = Counter((k, p.mantissa.numerator, p.mantissa.denominator, p.exp2)
                           for k, p in enumerate(source.initial) if p is not ZERO)
        for _ in range(n - 1):
            paths = Counter()
            for (k, num, den, e), count in frontier.items():
                for j, p in enumerate(source.transitions[k]):
                    if p is not ZERO:
                        paths[j, num * p.mantissa.numerator, den * p.mantissa.denominator, e + p.exp2] += count
            frontier = paths
        total, ln2 = Decimal(0), Decimal(2).ln()
        for (_, num, den, e), count in frontier.items():
            mass = Decimal(2) ** (Decimal(e.numerator) / e.denominator) * num / den
            total += count * mass * _decimal_rho(num, den, e, ln2)
        return total


def redundancy_bruteforce(source: MarkovSource, n: int) -> float:
    total = 0.0
    for _, mu in iter_paths_bruteforce(source, n):
        neg = -math.log2(mu)
        nearest = round(neg)
        if abs(neg - nearest) <= 1e-9:
            continue
        total += mu * (math.ceil(neg) - neg)
    return total


def path_arrays(source: MarkovSource, n: int):
    """(probabilities, -log2 mu) over the support as flat arrays, built iteratively."""
    init = source.initial_array()
    P = source.transition_array()
    with np.errstate(divide="ignore"):
        neg_init = np.where(init > 0, -np.log2(np.where(init > 0, init, 1.0)), np.inf)
        neg_step = np.where(P > 0, -np.log2(np.where(P > 0, P, 1.0)), np.inf)
    states = np.arange(source.r)[init > 0]
    probs = init[states]
    negs = neg_init[init > 0]
    for _ in range(n - 1):
        new_states = []
        new_probs = []
        new_negs = []
        for j in range(source.r):
            mask = P[states, j] > 0
            if mask.any():
                new_states.append(np.full(int(mask.sum()), j))
                new_probs.append(probs[mask] * P[states[mask], j])
                new_negs.append(negs[mask] + neg_step[states[mask], j])
        states = np.concatenate(new_states)
        probs = np.concatenate(new_probs)
        negs = np.concatenate(new_negs)
    return probs, negs


def phase_loop(v, m: int) -> float:
    """(-m log2 v) mod 1 of a nonzero probability v.

    An exact v = mantissa * 2**exp2 is reduced in 60-digit decimal
    arithmetic, a float v from the float -m * log2(v).
    """
    if isinstance(v, ExactProb):
        with localcontext() as ctx:
            ctx.prec = 60
            e, mant = v.exp2, v.mantissa
            x = -m * (Decimal(e.numerator) / e.denominator
                      + (Decimal(mant.numerator).ln() - Decimal(mant.denominator).ln()) / Decimal(2).ln())
            return float(x - x.to_integral_value(rounding=ROUND_FLOOR)) % 1.0
    return (-m * math.log2(v)) % 1.0


def row_log2value(row, basis) -> Log2Value:
    """The Log2Value of a row [K, e_1, ..., e_B] over basis, rebuilt from base powers.

    Its rational part is K / D and its mantissa the product of base[i] ** e_i
    as a Fraction, so a row's arithmetic can be checked against Fractions.
    """
    K, *exps = map(int, row)
    mantissa = math.prod((Fraction(b) ** e for b, e in zip(basis.base, exps)), start=Fraction(1))
    return Log2Value(Fraction(K, basis.D), mantissa)


def log2value_sum(terms) -> Log2Value:
    """sum of k x over (k, x) in terms, for integers k and Log2Values x, formed in Fractions.

    The reference for row arithmetic: its rational part is the sum of the k
    x.rational and its mantissa the product of the x.mantissa ** k.
    """
    return Log2Value(sum(k * x.rational for k, x in terms),
                     math.prod((x.mantissa**k for k, x in terms), start=Fraction(1)))


def frac_scaled_reference(x, ks, den: int = 1) -> np.ndarray:
    """frac((k / den) x) of an irrational Log2Value x for each k, reduced in decimal arithmetic.

    The rational part k * x.rational / den is reduced in integers, and
    k * log2(mantissa) / den is added in decimal at 30 + digits(max |k|)
    significant digits before the reduction modulo 1.
    """
    num, kden = x.rational.numerator, x.rational.denominator * den
    with localcontext() as ctx:
        ctx.prec = 30 + len(str(max(map(abs, ks), default=0)))
        m = x.mantissa
        lm = (Decimal(m.numerator).ln() - Decimal(m.denominator).ln()) / Decimal(2).ln() / den
        # Decimal % keeps the sign of the dividend, so negative k lands in (-1, 0]
        fracs = ((Decimal(k * num % kden) / kden + k * lm) % 1 for k in ks)
        return np.fromiter((float(y + 1 if y < 0 else y) % 1.0 for y in fracs), float, len(ks))


def phase_entries_loop(source: MarkovSource, rows, m: int) -> np.ndarray:
    """p * exp(2 pi i ((-m log2 p) mod 1)) entry by entry over rows of probabilities.

    rows is source.transitions (giving A_m) or [source.initial] (giving c_m
    as a one-row table); each phase comes from phase_loop.
    """
    out = np.zeros((len(rows), source.r), dtype=complex)
    for k, row in enumerate(rows):
        for j, v in enumerate(row):
            if v is ZERO:
                continue
            p = source.prob_float(v)
            out[k, j] = p if m == 0 else p * cmath.exp(2j * math.pi * phase_loop(v, m))
    return out


def spectral_radius(matrix: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(matrix)).max())


def verify_similarity(source: MarkovSource, m: int, s: float, w, tol: float = 1e-8):
    """Check -m log2 p(j|k) = (s + w_k - w_j) mod 1 over the support.

    Returns (ok, residual) where the residual is the largest circular
    distance of the congruence defect from an integer.
    """
    residual = 0.0
    for k in range(source.r):
        for j in range(source.r):
            v = source.transitions[k][j]
            if v is ZERO:
                continue
            defect = (phase_loop(v, m) - s - w[k] + w[j]) % 1.0
            residual = max(residual, min(defect, 1.0 - defect))
    return residual <= tol, residual


def char_fn_loop(source: MarkovSource, m: int, n: int) -> complex:
    """c_m^T A_m^(n-1) d by n - 1 vector-matrix steps over phase_entries_loop."""
    A = phase_entries_loop(source, source.transitions, m)
    v = phase_entries_loop(source, [source.initial], m)[0]
    for _ in range(n - 1):
        v = v @ A
    return complex(v.sum())


def monte_carlo_reference(source: MarkovSource, n: int, samples: int, seed: int,
                          snap_tol: float = 1e-9) -> RedundancyValue:
    """Monte Carlo over the full samples x n Philox draw matrix at once, read out in exact arithmetic.

    Sample i consumes row i; the next state of the samples in state k comes
    from a sorted search of row k's cumulative probabilities.  Each sample
    counts its moves per cell (row r holds the first state), and its -log2 mu
    is the exact sum of count x Fraction(the cell's float -log2 p).  rho is
    float(-total mod 1), read as 0 where min(rho, 1 - rho) <= snap_tol.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random((samples, n))
    r = source.r

    init_cum = np.cumsum(source.initial_array())
    init_cum[-1] = 1.0
    row_cum = np.cumsum(source.transition_array(), axis=1)
    row_cum[:, -1] = 1.0

    counts = np.zeros((samples, (r + 1) * r), dtype=np.int64)  # cell k r + j: moves k -> j
    sample = np.arange(samples)
    state = np.searchsorted(init_cum, u[:, 0], side="right")
    counts[sample, r * r + state] += 1
    for t in range(1, n):
        nxt = np.empty_like(state)
        for k in range(r):
            mask = state == k
            if mask.any():
                nxt[mask] = np.searchsorted(row_cum[k], u[mask, t], side="right")
        counts[sample, state * r + nxt] += 1
        state = nxt

    # each entry's own float log, of its Log2Value or by math.log2; a p = 0 cell is never taken
    steps = [Fraction(0) if v is ZERO else -Fraction(log2_prob(v).to_float() if source.exact else math.log2(v))
             for row in (*source.transitions, source.initial) for v in row]
    den = math.lcm(*(step.denominator for step in steps))  # a common denominator keeps the sums in ints
    totals = counts.astype(object) @ np.array([int(step * den) for step in steps], dtype=object)
    values, snapped = np.empty(samples), False
    for i, total in enumerate(totals):
        rho = float(Fraction(-total % den, den))
        if min(rho, 1.0 - rho) <= snap_tol:
            snapped, rho = snapped or rho != 0.0, 0.0
        values[i] = rho
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    flags = frozenset({"snap"}) if snapped else frozenset()
    return RedundancyValue(n=n, value=mean, method="monte_carlo", stderr=stderr, flags=flags)


def char_fn_bruteforce(source: MarkovSource, m: int, n: int) -> complex:
    """Enumeration expectation of exp(-2 pi i m log2 mu)."""
    probs, negs = path_arrays(source, n)
    return complex(np.sum(probs * np.exp(2j * math.pi * m * negs)))


def simpson(f, a: float, b: float, panels: int = 1 << 12) -> float:
    """Composite Simpson quadrature with an even number of panels."""
    x = np.linspace(a, b, 2 * panels + 1)
    y = f(x)
    h = (b - a) / (2 * panels)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def omega_decimal_reference(source: MarkovSource, M: int, n: int, digits: int = 60) -> float:
    """Omega_n of a positive aperiodic exact source in `digits`-digit decimal arithmetic.

    Evaluates (1/2)(1 - 1/M) + (1/M) sum_jk p_j pi_k rho(zeta_jk(n)) with
    zeta_jk(n) = M [-(n-1) log2 p(0|0) + log2 p(j|0) - log2 p(k|0) - log2 p_j]
    straight from the probabilities' decimal logs.
    """
    P = source.transition_array()
    A = P.T - np.eye(source.r)
    A[-1, :] = 1.0
    pi = np.linalg.solve(A, np.eye(source.r)[-1])
    with localcontext() as ctx:
        ctx.prec = digits

        def log2(v):
            m, e = v.mantissa, v.exp2
            return Decimal(e.numerator) / e.denominator + (
                Decimal(m.numerator).ln() - Decimal(m.denominator).ln()) / Decimal(2).ln()

        T = source.transitions
        osc = 0.0
        for j, pj in enumerate(source.initial):
            if pj is ZERO:
                continue
            for k in range(source.r):
                zeta = M * (-(n - 1) * log2(T[0][0]) + log2(T[0][j]) - log2(T[0][k]) - log2(pj))
                rho = zeta.to_integral_value(rounding=ROUND_FLOOR) + 1 - zeta
                osc += pj.to_float() * pi[k] * float(rho % 1)
    return 0.5 * (1.0 - 1.0 / M) + osc / M


def two_state_type_reference(source: MarkovSource, n: int, digits: int = 60) -> float:
    """R_n of an exact two-state source with positive rows, summed over Markov types.

    A path from s to e is fixed up to order by its transition counts: a
    0 -> 1 moves, b 1 -> 0 moves, c 0 -> 0 and d 1 -> 1 moves with
    a + b + c + d = n - 1 and a - b = e - s.  It has 1 + b (s = 0) or b
    (s = 1) runs of 0s, among which the c self-moves fall in
    C(c + runs - 1, runs - 1) ways, and likewise for the 1s.  A type's mu
    is carried exactly: its mantissa as exponents over a coprime base of
    the entries' mantissas, and its power-of-2 exponent as a Fraction.
    Where the mantissa is 1, -log2 mu is rational and rho exact (0 where mu
    is a power of 2); elsewhere -log2 mu is irrational and summed in
    `digits`-digit decimal arithmetic, so rho is exact to the float.
    """
    T = source.transitions
    P = source.transition_array()
    live = [(s, ps) for s, ps in enumerate(source.initial) if ps is not ZERO]
    entries = [p for _, p in live] + [T[k][j] for k in range(2) for j in range(2)]
    base = coprime_base_reference({x for p in entries for x in (p.mantissa.numerator, p.mantissa.denominator)})

    def exponents(p):  # p's mantissa as the exponents of the base
        out = []
        for b in base:
            e, num, den = 0, p.mantissa.numerator, p.mantissa.denominator
            while num % b == 0:
                num, e = num // b, e + 1
            while den % b == 0:
                den, e = den // b, e - 1
            out.append(e)
        return out

    def placements(moves, runs):
        return math.comb(moves + runs - 1, runs - 1) if runs else int(moves == 0)

    with localcontext() as ctx:
        ctx.prec = digits

        def log2(v):
            m, e = v.mantissa, v.exp2
            return Decimal(e.numerator) / e.denominator + (
                Decimal(m.numerator).ln() - Decimal(m.denominator).ln()) / Decimal(2).ln()

        # m -log2 p(j|k) and p(j|k)^m for every count m
        steps = [[[-m * log2(T[k][j]) for m in range(n)] for j in range(2)] for k in range(2)]
        powers = [[[P[k, j] ** m for m in range(n)] for j in range(2)] for k in range(2)]
        vec = [[exponents(T[k][j]) for j in range(2)] for k in range(2)]
        terms = []
        for s, ps in live:
            ps_vec = exponents(ps)
            for a in range(n):
                for b in (a - 1, a, a + 1):
                    if b < 0 or a + b > n - 1 or (s == 0 and b > a) or (s == 1 and a > b):
                        continue
                    zeros, ones = (1 + b, a) if s == 0 else (b, 1 + a)
                    head = -log2(ps) + steps[0][1][a] + steps[1][0][b]
                    head_exp = ps.exp2 + a * T[0][1].exp2 + b * T[1][0].exp2
                    head_vec = [x + a * y + b * z for x, y, z in zip(ps_vec, vec[0][1], vec[1][0])]
                    weight = ps.to_float() * powers[0][1][a] * powers[1][0][b]
                    for c in range(n - a - b):
                        d = n - 1 - a - b - c
                        count = placements(c, zeros) * placements(d, ones)
                        if not count:
                            continue
                        mass = weight * powers[0][0][c] * powers[1][1][d]
                        if all(h + c * x + d * y == 0 for h, x, y in zip(head_vec, vec[0][0], vec[1][1])):
                            u = -(head_exp + c * T[0][0].exp2 + d * T[1][1].exp2)
                            rho = float(math.ceil(u) - u)
                        else:
                            u = head + steps[0][0][c] + steps[1][1][d]
                            rho = float(u.to_integral_value(ROUND_CEILING) - u)
                        terms.append(float(count) * mass * rho)
    return math.fsum(terms)


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


_PI_60 = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def error_bound_decimal_reference(N: int, theta: float, digits: int = 50) -> float:
    """inf over 0 < d < 1/2 of d / theta + 1 / (N sin^2(pi d)) by golden-section search in `digits`-digit decimals.

    The search runs over ln d from ln 1e-60 to ln 1/2, so the bracket holds
    the minimiser at any N a float can express, and sin is its Taylor series.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        theta_d, eps = Decimal(theta), Decimal(10) ** (2 - digits)

        def sin(x: Decimal) -> Decimal:
            total, term, k = x, x, 1
            while abs(term) > eps * abs(total):
                term *= -x * x / ((2 * k) * (2 * k + 1))
                total, k = total + term, k + 1
            return total

        def objective(log_d: Decimal) -> Decimal:
            d = log_d.exp()
            return d / theta_d + 1 / (N * sin(_PI_60 * d) ** 2)

        inv_golden = (Decimal(5).sqrt() - 1) / 2
        lo, hi = Decimal("1e-60").ln(), Decimal("0.5").ln()
        x1, x2 = hi - inv_golden * (hi - lo), lo + inv_golden * (hi - lo)
        f1, f2 = objective(x1), objective(x2)
        while hi - lo > Decimal("1e-20"):
            if f1 <= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - inv_golden * (hi - lo)
                f1 = objective(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + inv_golden * (hi - lo)
                f2 = objective(x2)
        return float(min(f1, f2))


@dataclass(frozen=True)
class Example2Sum:
    value: float
    tail_bound: float
    n_terms: int


def absorbing_pair_formula(alpha) -> Example2Sum:
    """Limit redundancy of the two-state chain that leaks into an absorbing state.

    For P = [[1-alpha, alpha], [0, 1]] started at state 0, the limit is
    sum_{k>=0} alpha (1-alpha)^k rho(-log2 alpha - k log2(1-alpha)); the
    geometric tail is truncated once (1-alpha)^(K+1) < 1e-12 and the
    truncation bound is reported alongside the partial sum.
    """
    a = Fraction(alpha) if not isinstance(alpha, float) else alpha
    if not (0 < a < 1):
        raise ValueError("alpha must lie strictly between 0 and 1")
    one_minus = 1 - a
    k_terms = 0
    tail = 1.0
    factor = float(one_minus)
    while tail >= 1e-12:
        tail *= factor
        k_terms += 1
        if k_terms > 10**6:
            raise ValueError("alpha too small for a truncation at 1e-12 within 10^6 terms")
    # tail = (1-alpha)^k_terms < 1e-12, so terms k = 0 .. k_terms - 1 are kept
    # rho(-(la + k lm)) = frac(la + k lm), which is rational only where la and
    # k lm both are: the odd parts of alpha and 1 - alpha never cancel
    if isinstance(a, Fraction):
        (la, lm), basis = log_rows([ExactProb.make(v).log2() for v in (a, one_minus)])
    else:
        (la, lm), basis = (math.log2(a), math.log2(one_minus)), None
    base = frac_log(la, [1], 1, basis)[0]
    rhos = [float((base + step) % 1) for step in frac_log(lm, range(k_terms), 1, basis)]
    terms = [float(a) * float(one_minus) ** k * rho for k, rho in enumerate(rhos)]
    return Example2Sum(value=math.fsum(terms), tail_bound=tail, n_terms=k_terms)


def coprime_base_reference(values) -> list[int]:
    """Pairwise coprime integers > 1 of which every value is a product, by restarting gcd refinement.

    While some pair of the base has a common factor g > 1, the pair is
    replaced by g and its two cofactors; every scan starts over from the
    sorted base.
    """
    base = {v for v in values if v > 1}
    while pair := next(((a, b) for a, b in combinations(sorted(base), 2) if math.gcd(a, b) > 1), None):
        g = math.gcd(*pair)
        base = (base - set(pair)) | {v for v in (g, pair[0] // g, pair[1] // g) if v > 1}
    return sorted(base)
