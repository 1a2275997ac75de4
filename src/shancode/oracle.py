"""Ground-truth average redundancy of the Shannon code at finite block length.

    R_n = E{ceil(-log2 mu(X^n)) + log2 mu(X^n)} = E{rho(-log2 mu(X^n))}

with rho(u) = ceil(u) - u and mu the path probability.  -log2 mu depends on
a path only through a lattice point: for an exact source, its rational part
times a common denominator plus the exponents of mu's odd mantissa over a
pairwise coprime base; for a float source, the exact sum of its float
steps, an integer over a common power-of-two denominator.
exact_redundancy_range runs one forward DP over (state, lattice point) keys
carrying float probability mass and reads R_n out at every n of a range.
The classes are unions of Markov types (Jacquet & Szpankowski, IEEE T-IT
2004) with the same mu.  Also here: a seeded Monte Carlo estimator and
Shannon code lengths by path enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import ResourceLimit, ZeroPathProbability
from .exact import ZERO, Log2Value, ceil_defect
from .sources import MarkovSource, log2_prob, log2_prob_float

INTEGER_SNAP_TOL = 1e-9
# Monte Carlo: rows of uniforms drawn at a time, and the caps check_monte_carlo enforces
_MC_CHUNK_ROWS = 4096
MC_DRAW_CAP = 2**30
MC_SAMPLE_CAP = 2**24


@dataclass(frozen=True)
class Limits:
    """Caps on exact work, checked before any work starts.

    The lattice DP of exact_redundancy_range is admitted up to n when
    n <= count_dp_max_n[r] or r**n <= enumeration_max_paths; path
    enumeration (shannon_lengths) only under the latter.  A one-state chain
    counts as r = 2: its work grows linearly in n, but 1**n never exceeds
    the path cap.
    """

    enumeration_max_paths: int = 2**24
    count_dp_max_n: dict = field(default_factory=lambda: {2: 200, 3: 40})


DEFAULT_LIMITS = Limits()


@dataclass(frozen=True)
class RedundancyValue:
    n: int
    value: float
    method: str
    stderr: float | None = None
    flags: frozenset = frozenset()


def _snap(u, tol: float):
    """u with every value within tol of an integer moved onto that integer.

    Float noise must not flip the ceiling at a value that is an integer in
    exact arithmetic; callers flag the values that moved.
    """
    nearest = np.round(u)
    return np.where(np.abs(u - nearest) <= tol, nearest, u)


def neg_log_mu(source: MarkovSource, x) -> float:
    """-log2 of the path probability mu(x) = p_{x_1} prod p(x_t | x_{t-1})."""
    x = list(x)
    if not x:
        raise ValueError("path must be nonempty")
    if source.initial[x[0]] is ZERO:
        raise ZeroPathProbability(0, f"initial state {x[0]} has zero probability")
    total = log2_prob(source, source.initial[x[0]])
    for t in range(1, len(x)):
        step = source.transitions[x[t - 1]][x[t]]
        if step is ZERO:
            raise ZeroPathProbability(t, f"transition {x[t-1]}->{x[t]} at step {t} has zero probability")
        total = total + log2_prob(source, step)
    return -(total.to_float() if isinstance(total, Log2Value) else total)


# -- path enumeration ----------------------------------------------------


def _check_enumeration(source: MarkovSource, n: int, limits: Limits) -> None:
    r = max(source.r, 2)  # a one-state chain counts as r = 2, see Limits
    if r**n > limits.enumeration_max_paths:
        raise ResourceLimit(
            f"enumeration of length {n} counts as {r}^{n} paths, cap is {limits.enumeration_max_paths}"
        )


def _iter_support(source: MarkovSource, n: int):
    """Yield (path, neg_log) over all positive-probability paths of length n.

    neg_log is a Log2Value for exact sources and a float otherwise.
    """
    adj = source.support()

    def extend(path, acc):
        if len(path) == n:
            yield tuple(path), -acc
            return
        for j in adj[path[-1]]:
            step = log2_prob(source, source.transitions[path[-1]][j])
            path.append(j)
            yield from extend(path, acc + step)
            path.pop()

    for s0 in range(source.r):
        if source.initial[s0] is ZERO:
            continue
        start = log2_prob(source, source.initial[s0])
        if n == 1:
            yield (s0,), -start
        else:
            yield from extend([s0], start)


# -- lattice dynamic program -------------------------------------------------


def _check_limits(source: MarkovSource, n: int, limits: Limits) -> None:
    r = max(source.r, 2)  # a one-state chain counts as r = 2, see Limits
    cap = limits.count_dp_max_n.get(r, 0)
    if n > cap and r**n > limits.enumeration_max_paths:
        raise ResourceLimit(f"no exact route within limits for r={source.r}, n={n}: n > {cap} "
                            f"and {r}^{n} > {limits.enumeration_max_paths} paths")


def _coprime_base(values) -> list[int]:
    """Pairwise coprime integers > 1 of which every value is a product.

    Built by gcd refinement, not by factoring, which 80-bit mantissas rule
    out.  Such a base is multiplicatively independent: a product of powers
    of its elements is 1 only when every exponent is 0.
    """
    base = {v for v in values if v > 1}
    while pair := next(((a, b) for a, b in combinations(sorted(base), 2) if math.gcd(a, b) > 1), None):
        g = math.gcd(*pair)
        base = (base - set(pair)) | {v for v in (g, pair[0] // g, pair[1] // g) if v > 1}
    return sorted(base)


def _exponents(value: int, base) -> list[int]:
    out = []
    for b in base:
        e = 0
        while value % b == 0:
            value, e = value // b, e + 1
        out.append(e)
    return out


def _forward(frontier, moves, lo: int, hi: int, readout) -> list:
    """Run the DP to length hi and return readout(n, frontier) for n = lo..hi.

    frontier[k] maps the lattice points of paths now in state k, each one
    int, to their probability mass; moves[k] lists (j, step, p(j|k)), and a
    move adds its int step to the key.
    """
    out = []
    for n in range(1, hi + 1):
        if n >= lo:
            out.append(readout(n, frontier))
        if n == hi:
            break
        nxt = [{} for _ in frontier]
        for row, row_moves in zip(frontier, moves):
            for j, delta, p in row_moves:
                target = nxt[j]
                get = target.get
                for key, mass in row.items():
                    key += delta
                    target[key] = get(key, 0.0) + mass * p
        frontier = nxt
    return out


def _merged(frontier) -> dict:
    """Probability mass per lattice point, summed over the current state."""
    merged: dict = {}
    get = merged.get
    for row in frontier:
        for key, mass in row.items():
            merged[key] = get(key, 0.0) + mass
    return merged


def _exact_sums(source: MarkovSource, lo: int, hi: int) -> list:
    """(R_n, snapped) for n = lo..hi on an exact source, in one pass.

    A lattice point is (D times the rational part of -log2 mu, exponents of
    mu's odd mantissa over a coprime base), one frontier for all first
    states.  Where the exponents are all 0, -log2 mu is rational and rho is
    exact integer arithmetic.
    """
    r = source.r
    steps = {(k, j): p for k, row in enumerate(source.transitions) for j, p in enumerate(row) if p is not ZERO}
    starts = {s: p for s, p in enumerate(source.initial) if p is not ZERO}
    probs = [*steps.values(), *starts.values()]
    denom = math.lcm(*(p.exp2.denominator for p in probs))
    base = _coprime_base(v for p in probs for v in (p.mantissa.numerator, p.mantissa.denominator))
    logs = [math.log2(b) for b in base]

    def coords(p):
        num, den = _exponents(p.mantissa.numerator, base), _exponents(p.mantissa.denominator, base)
        return [int(-p.exp2 * denom)] + [a - b for a, b in zip(num, den)]

    # paths of length <= hi keep every coordinate within half = hi * (largest step);
    # adding offset turns the signed base-radix digits into plain ones
    half = hi * max(abs(c) for p in probs for c in coords(p))
    radix = 2 * half + 1
    powers = [radix**i for i in range(1 + len(base))]
    offset = half * sum(powers)

    def pack(p):
        return sum(c * w for c, w in zip(coords(p), powers))

    frontier = [{pack(starts[s]): source.prob_float(starts[s])} if s in starts else {} for s in range(r)]
    moves = [[(j, pack(p), source.prob_float(p)) for (i, j), p in steps.items() if i == k] for k in range(r)]

    def readout(n, frontier):
        terms = []
        for key, mass in _merged(frontier).items():
            scaled, *expo = [(key + offset) // w % radix - half for w in powers]
            if any(expo):
                rho = ceil_defect(scaled / denom - math.fsum(e * x for e, x in zip(expo, logs)))
            else:
                rho = (-scaled % denom) / denom
            terms.append(mass * rho)
        return math.fsum(terms), False

    return _forward(frontier, moves, lo, hi, readout)


def _float_sums(source: MarkovSource, lo: int, hi: int, snap_tol: float) -> list:
    """(R_n, snapped) for n = lo..hi on a float source, one pass per first state.

    A lattice point is the integer scale * (-log2 mu), where scale is the
    largest power-of-two denominator of the finite step and initial values,
    so every move adds an exact integer.  Paths merge exactly when they end
    in the same state with the same sum of float values, and key / scale is
    that sum correctly rounded whatever hi is.  Keys are unbounded ints: a
    step probability of 1 - 2^-45 alone needs a 97-bit scale.  Running the
    first states one at a time keeps only one of their frontiers alive.
    """
    r = source.r
    table = source.neg_log2_table()
    init_negs = {s: -math.log2(source.prob_float(p)) for s, p in enumerate(source.initial) if p is not ZERO}
    finite = [v for v in table.ravel().tolist() if math.isfinite(v)]
    scale = max(x.as_integer_ratio()[1] for x in [*finite, *init_negs.values()])

    def scaled(x: float) -> int:
        num, den = x.as_integer_ratio()
        return num * (scale // den)

    moves = [[(j, scaled(table[k, j]), source.prob_float(source.transitions[k][j]))
              for j in range(r) if math.isfinite(table[k, j])] for k in range(r)]

    def readout(n, frontier):
        merged = _merged(frontier)
        neg_logs = np.fromiter((key / scale for key in merged), float, len(merged))
        snapped = _snap(neg_logs, snap_tol)
        masses = np.fromiter(merged.values(), float, len(merged))
        return math.fsum(masses * ceil_defect(snapped)), bool(np.any(snapped != neg_logs))

    partials = [[] for _ in range(lo, hi + 1)]
    for first, init_neg in init_negs.items():
        start = {scaled(init_neg): source.prob_float(source.initial[first])}
        frontier = [start if s == first else {} for s in range(r)]
        for acc, part in zip(partials, _forward(frontier, moves, lo, hi, readout)):
            acc.append(part)
    return [(math.fsum(v for v, _ in acc), any(s for _, s in acc)) for acc in partials]


def exact_redundancy_range(
    source: MarkovSource,
    lo: int,
    hi: int,
    limits: Limits = DEFAULT_LIMITS,
    snap_tol: float = INTEGER_SNAP_TOL,
) -> list[RedundancyValue]:
    """Exact R_n for every n = lo..hi from one forward lattice DP to hi.

    The request is checked against the limits at hi before any work starts.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"invalid block length range {lo}..{hi}")
    _check_limits(source, hi, limits)
    sums = _exact_sums(source, lo, hi) if source.exact else _float_sums(source, lo, hi, snap_tol)
    rows = []
    for n, (value, snapped) in zip(range(lo, hi + 1), sums):
        if -1e-12 < value < 0.0:
            value = 0.0
        flags = frozenset({"snap"}) if snapped else frozenset()
        rows.append(RedundancyValue(n=n, value=value, method="lattice_dp", stderr=None, flags=flags))
    return rows


def exact_redundancy(
    source: MarkovSource,
    n: int,
    limits: Limits = DEFAULT_LIMITS,
    snap_tol: float = INTEGER_SNAP_TOL,
) -> RedundancyValue:
    """Exact R_n = sum over positive-probability paths of mu * rho(-log2 mu)."""
    return exact_redundancy_range(source, n, n, limits, snap_tol)[0]


# -- Monte Carlo ----------------------------------------------------------


def _next_state(u, thresholds, state):
    """searchsorted(row_cum[state[i]], u[i], side="right") for every i, by counting.

    thresholds[c, k] = row_cum[k, c] for c < r - 1.  A row's cumulative
    sums never decrease and its last one, 1.0, exceeds every uniform, so
    the count of thresholds at or below u is exactly the sorted search.
    """
    out = np.zeros_like(state)
    for column in thresholds:
        out += u >= column[state]
    return out


def check_monte_carlo(samples: int, total_n: int) -> None:
    """Refuse Monte Carlo work over the caps before any of it starts.

    total_n is the sum of the block lengths to be sampled, so samples *
    total_n uniforms are drawn; over MC_DRAW_CAP of them, or over
    MC_SAMPLE_CAP samples (the per-sample array is 8 * samples bytes),
    raises ResourceLimit.
    """
    if samples > MC_SAMPLE_CAP:
        raise ResourceLimit(f"Monte Carlo with {samples} samples exceeds the cap of {MC_SAMPLE_CAP} samples")
    draws = samples * total_n
    if draws > MC_DRAW_CAP:
        raise ResourceLimit(
            f"Monte Carlo with {samples} samples over block lengths summing to {total_n} "
            f"draws {draws} > {MC_DRAW_CAP} uniforms"
        )


def monte_carlo_redundancy(
    source: MarkovSource,
    n: int,
    samples: int,
    seed: int,
    snap_tol: float = INTEGER_SNAP_TOL,
) -> RedundancyValue:
    """Sample mean of rho(-log2 mu) over independently sampled paths.

    Uniforms come from one counter-based Philox stream keyed by the seed,
    drawn _MC_CHUNK_ROWS rows of n at a time into one reused buffer, so no
    two chunks are ever alive together.  The stream is sequential, so
    chunked draws equal one samples x n draw and sample i still consumes
    row i: results are bit-for-bit reproducible and independent of the
    chunk size.  The next state is the number of cumulative row thresholds
    at or below the uniform, which is exactly what a sorted search returns.
    Only the per-sample -log2 mu is kept, so memory is O(samples) rather
    than O(samples * n), and the mean and stderr come from one reduction
    over it.  Requests over MC_SAMPLE_CAP samples or MC_DRAW_CAP uniforms
    raise ResourceLimit before any work (see check_monte_carlo).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if n < 1:
        raise ValueError("block length must be >= 1")
    check_monte_carlo(samples, n)
    rng = np.random.Generator(np.random.Philox(key=seed))

    r = source.r
    init = source.initial_array()
    trans = source.transition_array()
    neg_log_init = np.array([-math.inf if v is ZERO else -log2_prob_float(source, v) for v in source.initial])
    step_flat = source.neg_log2_table().ravel()

    init_cum = np.cumsum(init)
    init_cum[-1] = 1.0
    thresholds = np.cumsum(trans, axis=1)[:, :-1].T.copy()

    neg_log = np.empty(samples)
    buf = np.empty((min(_MC_CHUNK_ROWS, samples), n))
    for lo in range(0, samples, _MC_CHUNK_ROWS):
        u = rng.random(out=buf[:samples - lo])
        state = np.searchsorted(init_cum, u[:, 0], side="right")
        acc = neg_log_init[state]
        for t in range(1, n):
            nxt = _next_state(u[:, t], thresholds, state)
            acc += step_flat[state * r + nxt]
            state = nxt
        neg_log[lo:lo + len(u)] = acc

    snapped = _snap(neg_log, snap_tol)
    values = ceil_defect(snapped)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    flags = frozenset({"snap"}) if np.any(snapped != neg_log) else frozenset()
    return RedundancyValue(n=n, value=mean, method="monte_carlo", stderr=stderr, flags=flags)


# -- Shannon code lengths --------------------------------------------------


def shannon_lengths(source: MarkovSource, n: int, limits: Limits = DEFAULT_LIMITS):
    """Code lengths ceil(-log2 mu(x)) over the positive-probability support.

    Returns a list of (path, length); the Kraft sum over these lengths never
    exceeds 1.
    """
    _check_enumeration(source, n, limits)
    out = []
    for path, neg_log in _iter_support(source, n):
        if source.exact and neg_log.is_rational:
            q = neg_log.rational
            length = -(-q.numerator // q.denominator)  # exact ceiling
        else:
            v = neg_log.to_float() if source.exact else neg_log
            length = math.ceil(_snap(v, INTEGER_SNAP_TOL))
        out.append((path, int(length)))
    return out


def kraft_sum(lengths) -> Fraction:
    """Exact Kraft sum of a list of (path, length) entries."""
    return sum((Fraction(1, 2**length) for _, length in lengths), Fraction(0))
