"""Ground-truth average redundancy of the Shannon code at finite block length.

    R_n = E{ceil(-log2 mu(X^n)) + log2 mu(X^n)} = E{rho(-log2 mu(X^n))}

with rho(u) = ceil(u) - u and mu the path probability.
exact_redundancy_range takes one of two exact routes for a range of n.

An irreducible exact source that classify_mode calls oscillatory, of order
M, takes lifted_chain: modulo 1, -log2 mu depends only on the two end
states, n and an integer z mod M, the sum of the edges' integer lifts z_e
(asymptotics.edge_lifts), so R_n is a finite sum over the Markov chain on
(state, z mod M) after n - 1 steps (the paper's decomposition before the
limit; Omega_n is the same sum at that chain's limit).  Its step is
block-circulant in z; the DFT over z makes it M twisted r x r matrices,
powered together by spectral.stack_powers and brought back by one FFT.
rho of each (end states, z) class comes from asymptotics.pair_rho, the
readout that Omega_n uses too, exact where -log2 mu is rational.  A
request whose cost, estimated from sizes, is over LIFT_WORK_CAP or
LIFT_CELL_CAP takes the lattice DP instead.

Every other source, and every request over those caps, takes lattice_dp.
rho reads -log2 mu only modulo 1, and modulo 1 it depends on a path only
through a lattice point: for an exact source, its rational part times a
common denominator D, modulo D, and the exponents of mu's odd mantissa over
a pairwise coprime base; for a float source, the exact sum of its float
steps modulo 1, a fraction of 1 in 64 or more bits.  The DP runs forward
over (state, lattice point) keys carrying float probability mass and reads
R_n out at every n of a range; its classes are unions of Markov types
(Jacquet & Szpankowski, IEEE T-IT 2004).  Each state's frontier is a
sorted array of key rows, and a step adds each move's row with the
lattice's own addition, which wraps modulo 1, then sorts and sums what
enters each state.  The DP is admitted by the work it does, not by an
estimate: it counts its key moves and stops with ResourceLimit at the step
that would pass DP_MOVE_BUDGET or move over DP_CELL_CAP key cells.

Also here: a seeded Monte Carlo estimator, refused over its caps (samples,
path steps, rank window and rank-table bytes) before any draw.
"""

from __future__ import annotations

import bisect
import contextlib
import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .asymptotics import (INT64_READOUT_BOUND, ModeClassification, classify_mode, edge_lifts, pair_rho,
                          readout_denominator)
from .errors import ReducibleChain, ResourceLimit
from .exact import ZERO, _decimal_log2, ceil_defect, rho_ratio
from .sources import MarkovSource, log2_prob_float
from .spectral import stack_powers

INTEGER_SNAP_TOL = 1e-9
# work in key moves (see _forward) that one exact_redundancy_range request may do over all
# its passes: at most about a second, and no seed-0 float source (r = 2..32) peaked above 140 MB
DP_MOVE_BUDGET = 2**22
# key cells, key moves times key width, one DP step may move: bounds its memory on wide lattices
DP_CELL_CAP = 2**24
# key moves charged per state a step visits and per key a readout reads: work that makes
# no keys, charged by its time at about 0.2 us a unit (see _forward)
_STATE_CHARGE = 64
_READ_CHARGE = 8
# work units (about a nanosecond each, see _lifted_cost) and float64 cells (32 MiB) within which
# an oscillatory exact source takes the lifted chain; a request over either takes the lattice DP
LIFT_WORK_CAP = 2**30
LIFT_CELL_CAP = 2**22
# units per product's or row's Python calls, per state pair, per matrix a product takes, per readout cell
_LIFT_CALL_CHARGE, _LIFT_PAIR_CHARGE, _LIFT_ITEM_CHARGE, _LIFT_CELL_CHARGE = 5_000, 40_000, 300, 100
_LIFT_INT_CELL_CHARGE = 500  # per readout cell where pair_rho counts in Python ints
# Monte Carlo: rows of the longest n in a window and most rows a walk pass takes, uniforms
# drawn at a time, and the caps check_monte_carlo enforces (a window of ranks, one byte each
# below 256 thresholds and two from there, holds up to MC_WINDOW_BYTES_CAP bytes, 256 MiB)
_MC_CHUNK_ROWS = 4096
_MC_BLOCK = 2**16
# thresholds from which a sorted search finds ranks faster than counting: a 2^16 block of
# uniforms takes about 4.5 ms either way at 224-255 thresholds (2-vCPU x86 host, numpy 2.4)
_MC_SEARCH_THRESHOLDS = 256
MC_STEP_CAP = 2**30
MC_SAMPLE_CAP = 2**24
MC_WINDOW_BYTES_CAP = 2**28
# the dtype of a rank 0..T among T thresholds, in a window and in its cap
_rank_dtype = np.min_scalar_type
# bytes of rank tables (next states and steps) a Monte Carlo request may build: 34 MB at the
# seed-0 r = 128 float source of bench/workloads.py, 268 MB at its r = 256 one
MC_TABLE_BYTES_CAP = 2**27


@dataclass(frozen=True)
class RedundancyValue:
    n: int
    value: float
    method: str
    stderr: float | None = None
    flags: frozenset = frozenset()


def _snap(u):
    """u with every value within INTEGER_SNAP_TOL of an integer moved onto that integer.

    Float noise must not flip the ceiling at a value that is an integer in
    exact arithmetic; callers flag the values that moved.
    """
    nearest = np.round(u)
    return np.where(np.abs(u - nearest) <= INTEGER_SNAP_TOL, nearest, u)


# -- lattice dynamic program -------------------------------------------------


def _coprime_base(values) -> list[int]:
    """Pairwise coprime integers > 1 of which every value is a product, in increasing order.

    Built by gcd refinement, not by factoring, which 80-bit mantissas rule
    out: each value is split against the sorted, pairwise coprime base so
    far.  One gcd with the base's product admits a value coprime to all of
    it; otherwise the first element b that shares a factor g > 1 with it
    leaves the base, and g, b / g and value / g are split in turn.  Every
    split divides the product of the base and the pending values by g, so
    it ends.  Such a base is multiplicatively independent: a product of
    powers of its elements is 1 only when every exponent is 0.
    """
    base, todo, product = [], list({v for v in values if v > 1}), 1
    while todo:
        v = todo.pop()
        if math.gcd(v, product) == 1:
            bisect.insort(base, v)
            product *= v
            continue
        i, g = next((i, g) for i, b in enumerate(base) if (g := math.gcd(v, b)) > 1)
        b = base.pop(i)
        product //= b
        todo += [x for x in (g, b // g, v // g) if x > 1]
    return base


def _exponents(value: int, base) -> dict[int, int]:
    """{i: e} with value the product of base[i] ** e, for a value that is a product of the sorted base."""
    out = {}
    for i, b in enumerate(base):
        if value == 1:
            break
        e = 0
        while value % b == 0:
            value, e = value // b, e + 1
        if e:
            out[i] = e
    return out


def _merge(parts):
    """One sorted (keys, masses) from a nonempty list of them, summing the masses of equal keys.

    A stable lexsort (the last column is its primary key) keeps equal keys in
    the order of the parts, and each part holds a key once.  bincount over
    the run numbers then adds each run left to right, in part order, as a
    dict accumulating the parts would; np.add.reduceat would add a run's
    tail first, a + (b + c), and move last bits.
    """
    live = [part for part in parts if len(part[1])]
    if len(live) <= 1:
        return live[0] if live else parts[0]
    keys = np.concatenate([k for k, _ in live])
    order = np.lexsort(keys.T)
    keys = keys.take(order, axis=0)
    masses = np.concatenate([m for _, m in live]).take(order)
    new = np.empty(len(keys), dtype=bool)
    new[0] = True
    np.not_equal(keys[1:, 0], keys[:-1, 0], out=new[1:])
    for i in range(1, keys.shape[1]):
        new[1:] |= keys[1:, i] != keys[:-1, i]
    return keys.compress(new, axis=0), np.bincount(new.cumsum(dtype=np.intp) - 1, weights=masses)


def _merged(frontier):
    """Probability mass per lattice point, summed over the current state."""
    return _merge(frontier)


def _forward(frontier, moves, lo: int, hi: int, add, readout, spent: int = 0):
    """Run the DP to length hi; return ([readout(*merged frontier) for n = lo..hi], spent).

    frontier[k] is (keys, masses) of the paths now in state k: the distinct
    lattice points of -log2 mu modulo 1 as a sorted (N, width) array of key
    rows (int64 columns of an exact lattice, the one uint64 or Python int
    column of a float lattice), each with its float64 probability mass.
    moves[k] is (targets, steps, probs) of state k's nonzero transitions,
    steps one row each; a step adds every move's row to every key with the
    lattice's add (keys, steps[:, None]) and merges what enters each state
    (_merge).  spent counts work in key moves: each key a step
    moves (what bounds memory), plus _STATE_CHARGE = 64 per state a step
    visits and _READ_CHARGE = 8 per key a readout reads.  Those two make no
    keys: a step's merges take 12-27 us per state (r = 2..32) against about
    15 ns per key move, about 0.2 us a unit at that charge.  A readout takes
    0.2-0.4 us a key, under the charge kept from the 1-3 us of a per-key
    Python readout, so refusals stay at the same n.  Work at n that would
    take spent past DP_MOVE_BUDGET raises ResourceLimit before it runs, and
    so does a step whose moves times the key width (one column, or one plus
    one per base element of an exact lattice) would pass DP_CELL_CAP.
    """
    out, empty = [], (frontier[0][0][:0], frontier[0][1][:0])
    width = empty[0].shape[1]
    for n in range(1, hi + 1):
        moved = 0
        if n < hi:
            moved = sum(len(masses) * len(targets) for (_, masses), (targets, _, _) in zip(frontier, moves))
            spent += _STATE_CHARGE * len(frontier) + moved
        if n >= lo:
            spent += _READ_CHARGE * sum(len(masses) for _, masses in frontier)
        if spent > DP_MOVE_BUDGET:
            raise ResourceLimit(f"lattice DP reached n = {n} of {hi}; its next work would bring it to "
                                f"{spent} key moves > {DP_MOVE_BUDGET}")
        if moved * width > DP_CELL_CAP:
            raise ResourceLimit(f"lattice DP reached n = {n} of {hi}; its next step would move {moved} keys of "
                                f"{width} columns, {moved * width} key cells > DP_CELL_CAP = {DP_CELL_CAP}")
        if n >= lo:
            out.append(readout(*_merged(frontier)))
        if n == hi:
            break
        entering = [[empty] for _ in frontier]
        for (keys, masses), (targets, steps, probs) in zip(frontier, moves):
            if len(masses):
                moved, weighted = add(keys, steps[:, None]), np.multiply.outer(probs, masses)
                for j, part in zip(targets, zip(moved, weighted)):
                    entering[j].append(part)
        frontier = [_merge(parts) for parts in entering]
    return out, spent


def _nonzero_probs(source: MarkovSource) -> list:
    return [p for p in (*source.initial, *(p for row in source.transitions for p in row)) if p is not ZERO]


def _exact_lattice(source: MarkovSource, hi: int):
    """(rows of probabilities, add, readout, passes) of an exact source's lattice up to length hi.

    A key is the lattice point of -log2 mu modulo 1, a row of int64 columns:
    D times its rational part, modulo D, D the lcm of the exp2 denominators,
    then the exponents of mu's odd mantissa over a coprime base.  A step is
    numpy addition with D subtracted once where the rational column reaches
    it (none at D = 1).  A path of length <= hi keeps every exponent within
    bound = hi * (largest |exponent| of a step); a lattice whose exponent
    span 2 bound or D would reach 2^62 raises ResourceLimit before any DP
    work.  One pass runs all first states together.  Where the exponents
    are all 0, -log2 mu is rational and rho is exact integer arithmetic.
    Elsewhere each 40-digit log2 of a base element is split into hi, rounded
    to float32's 24 bits, and lo: frac(e hi) is exact in float64 for |e| <
    2^29, so rho(K / D - sum_i frac(e_i hi_i) - e . lo) rounds only terms
    of a few units.
    """
    probs = _nonzero_probs(source)
    denom = math.lcm(*(p.exp2.denominator for p in probs))
    parts = {v for p in probs for v in (p.mantissa.numerator, p.mantissa.denominator)}
    base = _coprime_base(parts)
    exponents = {v: _exponents(v, base) for v in parts}

    def point(p):
        # a mantissa is in lowest terms, so its numerator and denominator share no base element
        num, den = exponents[p.mantissa.numerator], exponents[p.mantissa.denominator]
        return {0: int(-p.exp2 * denom) % denom, **{1 + i: e for i, e in num.items()},
                **{1 + i: -e for i, e in den.items()}}

    # the coordinates of each distinct probability by column; a column it lacks is 0
    coords = {p: point(p) for p in set(probs)}
    bound = hi * max((abs(c) for coord in coords.values() for col, c in coord.items() if col), default=0)
    if max(2 * bound, denom) >> 62:
        raise ResourceLimit(f"exact lattice columns up to n = {hi} reach 2^62")
    logs = [_decimal_log2(b, 40) for b in base]
    his = np.array(list(map(float, logs)), dtype=np.float32).astype(np.float64)
    los = np.array([float(x - Decimal(h)) for x, h in zip(logs, his.tolist())])

    def rows(ps):
        out = np.zeros((len(ps), 1 + len(base)), dtype=np.int64)
        for row, p in zip(out, ps):
            for col, c in coords[p].items():
                row[col] = c
        return out

    def add(keys, delta):
        out = keys + delta
        scaled = out[..., 0]
        np.subtract(scaled, denom, out=scaled, where=scaled >= denom)
        return out

    def readout(keys, masses):
        scaled, expo = keys[:, 0], keys[:, 1:]
        whole = expo * his
        u = scaled / denom - (whole - np.floor(whole)).sum(axis=1) - expo @ los
        rho = np.where(expo.any(axis=1), ceil_defect(u), rho_ratio(scaled, denom))
        return math.fsum((masses * rho).tolist()), False

    return rows, np.add if denom == 1 else add, readout, [[s for s, p in enumerate(source.initial) if p is not ZERO]]


def _float_lattice(source: MarkovSource, hi: int):
    """(rows of probabilities, add, readout, passes) of a float source's lattice up to length hi.

    A key is frac(-log2 mu), the exact sum of a path's float -log2 p modulo
    1, in units of 2^-bits, bits = max(64, log2 scale) for scale the largest
    power-of-two denominator of those floats, so every key is exact.  At 64
    bits a key is a uint64, which numpy's addition wraps modulo 1 by itself;
    past that (a step probability of 1 - 2^-45 alone needs 96 bits) keys are
    Python ints in object arrays, masked after each add.  The readout rho =
    ((-K) mod 2^bits) 2^-bits is rounded once at any length; a rho within
    INTEGER_SNAP_TOL of 0 or 1 is float noise on an integer -log2 mu, so it
    reads 0, flagged snap where it was not exactly 0.  Paths from different
    first states all but never merge, so each first state is a pass of its
    own and only one of their frontiers is alive at a time.
    """
    negs = {p: -math.log2(p) for p in _nonzero_probs(source)}
    bits = max(64, max(x.as_integer_ratio()[1] for x in negs.values()).bit_length() - 1)
    mask = (1 << bits) - 1

    def rows(ps):
        keys = [(num << bits) // den & mask for num, den in (negs[p].as_integer_ratio() for p in ps)]
        return np.array(keys, dtype=np.uint64 if bits == 64 else object).reshape(len(keys), 1)

    def add(keys, delta):
        return (keys + delta) & mask

    def readout(keys, masses):
        rho = (-keys[:, 0] & mask).astype(np.float64) * 2.0**-bits
        near = np.minimum(rho, 1.0 - rho) <= INTEGER_SNAP_TOL
        return math.fsum((masses * np.where(near, 0.0, rho)).tolist()), bool(np.any(near & (rho > 0.0)))

    return rows, np.add if bits == 64 else add, readout, [[s] for s, p in enumerate(source.initial) if p is not ZERO]


def lattice_dp(source: MarkovSource, lo: int, hi: int) -> list[RedundancyValue]:
    """Exact R_n for every n = lo..hi from one forward lattice DP to hi.

    The lattice of the source's kind (_exact_lattice, _float_lattice) owns
    its key format and arithmetic.  It gives the key rows of a list of
    probabilities, the addition of step rows to key rows modulo 1, the readout
    of (R_n part, snapped) from a merged frontier, and the passes: groups
    of first states whose paths run together.  Every pass starts from its
    first states' keys and moves by the transitions' keys, and R_n sums the
    passes' readouts.  Nothing estimates the work beforehand, as no cheap
    estimate is close: the DP counts its work in key moves over all passes
    (see _forward) and raises ResourceLimit before the work that would pass
    DP_MOVE_BUDGET, or before a step over DP_CELL_CAP key cells.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"invalid block length range {lo}..{hi}")
    rows, add, readout, passes = (_exact_lattice if source.exact else _float_lattice)(source, hi)
    prob = source.prob_float
    moves = []
    for row in source.transitions:
        nonzero = [p for p in row if p is not ZERO]
        targets = [j for j, p in enumerate(row) if p is not ZERO]
        moves.append((targets, rows(nonzero), np.array(list(map(prob, nonzero)))))
    empty = (rows([]), np.empty(0))
    outs, spent = [], 0
    for firsts in passes:
        frontier = [(rows([p]), np.array([prob(p)])) if s in firsts else empty
                    for s, p in enumerate(source.initial)]
        out, spent = _forward(frontier, moves, lo, hi, add, readout, spent)
        outs.append(out)
    result = []
    for n, parts in zip(range(lo, hi + 1), zip(*outs)):
        value = math.fsum(v for v, _ in parts)
        flags = frozenset({"snap"}) if any(s for _, s in parts) else frozenset()
        result.append(RedundancyValue(n=n, value=value, method="lattice_dp", stderr=None, flags=flags))
    return result


# -- lifted chain on (state, z mod M) ------------------------------------------


def _set_bits_below(m: int) -> int:
    """The number of set bits of 0, 1, ..., m - 1 together."""
    total, i = 0, 0
    while (1 << i) < m:
        total += (m >> (i + 1) << i) + max(0, m % (2 << i) - (1 << i))
        i += 1
    return total


def _lifted_cost(source: MarkovSource, cls: ModeClassification, lo: int, hi: int) -> tuple[int, int]:
    """(work units, float64 cells held) of lifted_chain(source, cls, lo, hi), from sizes alone.

    Timed on a 2-vCPU x86 host with numpy 2.4, a product of the M twisted
    matrices by M blocks of q rows takes about M (q r^2 + _LIFT_ITEM_CHARGE)
    ns: bit_length(hi - 1) - 1 squarings at q = r, and per row n one at
    q = J (live initial states) per set bit of n - 1.  Each row reads J r M
    cells (FFT, scaling, rho, sum), at _LIFT_INT_CELL_CHARGE where pair_rho
    counts in Python ints (M or the row count, times Q, reaches
    INT64_READOUT_BOUND).  Held are two squarings (stack_powers drops each
    once the next is built) and, per readout cell, the transform and its
    FFT; a complex cell counts as two float64 cells.
    """
    r, M = source.r, cls.M
    live = sum(p is not ZERO for p in source.initial)
    levels = max(1, (hi - 1).bit_length())
    rows = hi - lo + 1
    products = _set_bits_below(hi) - _set_bits_below(lo - 1)
    cells = rows * live * r * M
    python_ints = max(M, rows) * readout_denominator(source, cls) >= INT64_READOUT_BOUND
    work = ((levels - 1) * (_LIFT_CALL_CHARGE + M * (r**3 + _LIFT_ITEM_CHARGE))
            + products * (_LIFT_CALL_CHARGE + M * (live * r * r + _LIFT_ITEM_CHARGE))
            + rows * _LIFT_CALL_CHARGE + cells * (_LIFT_INT_CELL_CHARGE if python_ints else _LIFT_CELL_CHARGE)
            + live * r * _LIFT_PAIR_CHARGE)
    return work, 4 * (M * r * r + cells)


def _conditioned(square: np.ndarray) -> np.ndarray:
    """A squaring divided by its t = 0 slice's largest row sum where that leaves [1/2, 2].

    That slice, P^(2^i), drifts as (1 + e)^(2^i) for a row-sum error e of
    the source; rescaled, no n past 1/e overflows or vanishes.
    """
    scale = square[0].real.sum(axis=1).max()
    if not 0.5 <= scale <= 2.0:
        square /= scale
    return square


def lifted_chain(source: MarkovSource, cls: ModeClassification, lo: int, hi: int) -> list[RedundancyValue]:
    """Exact R_n for n = lo..hi of an oscillatory exact source, from its chain on (state, z mod M).

    Every edge k -> j lifts to an integer z_e (asymptotics.edge_lifts), and
    a path j -> ... -> k of length n whose z_e sum to z mod M has, modulo 1,

        -log2 mu = z/M + frac((n-1) unit / d) + frac((X_j - X_k - d log2 p_j) / d),

    zeta_jk(n) at scale 1 shifted by z/M.  So, with T the lifted chain's step,

        R_n = sum_{j,k,z} p_j [T^(n-1)]_{(j,0),(k,z)} rho(z/M + frac((n-1) unit/d) + frac(b_jk/d)).

    T is block-circulant in z, so the DFT over z splits it into M twisted r x r
    matrices [t, k, j] = p(j|k) exp(2 pi i t z_e / M), each the spectral
    layer's A_t up to a diagonal similarity and a scalar.  Row n takes the live
    initial states' unit rows through all of them to n - 1
    (spectral.stack_powers: the same products alone or in a range), and one FFT
    over t gives its masses on z; at M = 1 all is real and the FFT, the
    identity, is skipped.  A row's total mass is its t = 0 term, a row of
    P^(n-1), which float rows such as (1/3, 2/3) drift from 1 by about n ulps;
    it is scaled once to 1.  Values are within about 1e-14 of the exact R_n,
    and never below 0; every rational -log2 mu is read out exactly (pair_rho).
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"invalid block length range {lo}..{hi}")
    r, M, count = source.r, cls.M, hi - lo + 1
    live = [j for j, p in enumerate(source.initial) if p is not ZERO]
    roots = np.exp(2j * np.pi * np.arange(M) / M) if M > 1 else np.ones(1)  # real at M = 1
    twist = np.zeros((M, r, r), dtype=roots.dtype)
    for (k, j), z in edge_lifts(source, cls).items():
        twist[:, k, j] = source.prob_float(source.transitions[k][j]) * roots[np.arange(M) * z % M]
    start = np.broadcast_to(np.eye(r)[live], (M, len(live), r))
    masses = np.stack(stack_powers(start, twist, range(lo - 1, hi), _conditioned))  # [n, t, j, k]: DFT over z
    if M > 1:
        masses = np.fft.fft(masses, axis=1)
    masses = masses.real.transpose(0, 2, 3, 1).reshape(count, len(live), r * M)  # [n, j, k M + z]
    masses /= np.add.reduce(masses, axis=2, keepdims=True)
    pairs = [(j, k) for j in live for k in range(r)]
    rho = np.stack(list(pair_rho(source, cls, pairs, lo, hi, 1, M)), axis=1).reshape(count, len(live), r * M)
    terms = (source.initial_array()[live][:, None] * masses * rho).reshape(count, -1)
    return [RedundancyValue(n=n, value=max(0.0, math.fsum(row.tolist())), method="lifted_chain", stderr=None,
                            flags=frozenset()) for n, row in zip(range(lo, hi + 1), terms)]


def exact_redundancy_range(source: MarkovSource, lo: int, hi: int,
                           cls: ModeClassification | None = None) -> list[RedundancyValue]:
    """Exact R_n for every n = lo..hi, by the lifted chain or the lattice DP.

    An irreducible exact source that classify_mode calls oscillatory takes
    lifted_chain when its cost (_lifted_cost) is within LIFT_WORK_CAP work
    units and LIFT_CELL_CAP float64 cells; every other request, and one over
    those caps, takes lattice_dp.  A caller that holds the source's
    classification passes it as cls.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"invalid block length range {lo}..{hi}")
    if source.exact and cls is None:
        with contextlib.suppress(ReducibleChain):
            cls = classify_mode(source)
    if source.exact and cls is not None and cls.mode == "oscillatory":
        work, cells = _lifted_cost(source, cls, lo, hi)
        if work <= LIFT_WORK_CAP and cells <= LIFT_CELL_CAP:
            return lifted_chain(source, cls, lo, hi)
    return lattice_dp(source, lo, hi)


def exact_redundancy(source: MarkovSource, n: int) -> RedundancyValue:
    """Exact R_n = sum over positive-probability paths of mu * rho(-log2 mu)."""
    return exact_redundancy_range(source, n, n)[0]


# -- Monte Carlo ----------------------------------------------------------


def check_monte_carlo(samples: int, lo: int, hi: int, source: MarkovSource) -> None:
    """Refuse Monte Carlo work over block lengths lo..hi over the caps before any of it starts.

    samples * (lo + ... + hi) path steps are walked, and a window holds
    min(samples, _MC_CHUNK_ROWS) * hi ranks of _rank_dtype (see _sample);
    over MC_STEP_CAP steps, MC_WINDOW_BYTES_CAP window bytes or MC_SAMPLE_CAP
    samples (the per-sample array is 8 * samples bytes) raises
    ResourceLimit, and so do the source's rank tables over
    MC_TABLE_BYTES_CAP: (r + 1) (T + 1) int64 next states and as many
    float64 steps for T thresholds (_rank_tables).
    """
    if samples > MC_SAMPLE_CAP:
        raise ResourceLimit(f"Monte Carlo with {samples} samples exceeds the cap of {MC_SAMPLE_CAP} samples")
    total_n = (lo + hi) * (hi - lo + 1) // 2
    steps = samples * total_n
    if steps > MC_STEP_CAP:
        raise ResourceLimit(
            f"Monte Carlo with {samples} samples over block lengths summing to {total_n} "
            f"walks {steps} > {MC_STEP_CAP} path steps"
        )
    cum = _cumulative_rows(source)
    thresholds = len(np.unique(cum))
    window = min(samples, _MC_CHUNK_ROWS) * hi
    window_bytes = window * _rank_dtype(thresholds).itemsize
    if window_bytes > MC_WINDOW_BYTES_CAP:
        raise ResourceLimit(f"Monte Carlo with {samples} samples up to n = {hi} holds a window of {window} ranks, "
                            f"{window_bytes} > MC_WINDOW_BYTES_CAP = {MC_WINDOW_BYTES_CAP} bytes")
    table_bytes = 16 * len(cum) * (thresholds + 1)
    if table_bytes > MC_TABLE_BYTES_CAP:
        raise ResourceLimit(f"Monte Carlo rank tables at r = {source.r} take {table_bytes} > "
                            f"MC_TABLE_BYTES_CAP = {MC_TABLE_BYTES_CAP} bytes")


def _cumulative_rows(source: MarkovSource) -> np.ndarray:
    """Cumulative sums, all but the last, of the transition rows and, as row r, the initial vector."""
    return np.cumsum(np.vstack([source.transition_array(), source.initial_array()]), axis=1)[:, :-1]


def _rank_tables(source: MarkovSource):
    """(thresholds, next, step_neg_log) of the rank walk.

    The transition rows and, as row r, the initial vector are the rows of
    the walk, which starts in the virtual state r.  thresholds are the
    sorted distinct cumulative sums, all but the last, of every row; a
    uniform's rank is the count of them at or below it.  Every row's
    thresholds are among them, so the rank fixes the sorted search of each
    row: next[state + rank] is the next state, times width =
    len(thresholds) + 1 so that the next rank adds straight onto it, and
    step_neg_log holds the -log2 p of the same move.
    """
    neg_log_init = [math.inf if v is ZERO else -log2_prob_float(v) for v in source.initial]
    cum = _cumulative_rows(source)
    thresholds = np.unique(cum)
    below = np.concatenate([[-math.inf], thresholds])  # the largest threshold at or below each rank
    nxt = np.array([np.searchsorted(row, below, side="right") for row in cum])
    step = np.take_along_axis(np.vstack([source.neg_log2_table(), neg_log_init]), nxt, axis=1)
    return thresholds, (nxt * len(below)).ravel(), step.ravel()


def _ranks(seed: int, start: int, out, thresholds, block):
    """out filled with the ranks of uniforms start.. of the Philox stream keyed by seed.

    Philox is counter-based: a counter of start // 4 and start % 4 raw
    draws put the stream at start without drawing what comes before.  The
    uniforms go block by block through the reused float64 block.  A rank
    is counted, one comparison per threshold, below _MC_SEARCH_THRESHOLDS
    thresholds, and found by a sorted search from there; both give the
    count of thresholds at or below the uniform.
    """
    bits = np.random.Philox(key=seed, counter=start // 4)
    bits.random_raw(start % 4)
    rng = np.random.Generator(bits)
    out[:] = 0
    above = np.empty(len(block), dtype=bool)
    for lo in range(0, len(out), len(block)):
        u = rng.random(out=block[:min(len(block), len(out) - lo)])
        ranks, mask = out[lo:lo + len(u)], above[:len(u)]
        if len(thresholds) >= _MC_SEARCH_THRESHOLDS:
            ranks[:] = np.searchsorted(thresholds, u, side="right")
        else:
            for threshold in thresholds:
                ranks += np.greater_equal(u, threshold, out=mask)
    return out


def _walk(ranks, tables, out) -> None:
    """out[i] = -log2 mu of the path whose uniforms have the ranks ranks[i], added in path order."""
    thresholds, nxt, step = tables
    # row r, the initial vector, is the last of the r + 1 rows of width len(thresholds) + 1
    state = np.full(len(ranks), len(nxt) - len(thresholds) - 1)
    index, term = np.empty_like(state), np.empty(len(ranks))
    out[:] = 0.0
    for t in range(ranks.shape[1]):
        np.add(state, ranks[:, t], out=index)
        # every index is in range; "clip" skips the copy of out that the default "raise" makes
        out += step.take(index, out=term, mode="clip")
        nxt.take(index, out=state, mode="clip")


def _sample(tables, ns, samples: int, seed: int) -> dict:
    """{n: -log2 mu of samples 0..samples - 1 of length n} for every n of the range ns."""
    window = min(samples, _MC_CHUNK_ROWS) * ns[-1]
    block = np.empty(min(_MC_BLOCK, window))
    held = np.empty(window, dtype=_rank_dtype(len(tables[0])))
    neg_logs = {n: np.empty(samples) for n in ns}
    done = dict.fromkeys(ns, 0)
    while live := [n for n in ns if done[n] < samples]:
        start = min(done[n] * n for n in live)
        stop = min(start + window, samples * ns[-1])
        ranks = _ranks(seed, start, held[:stop - start], tables[0], block)
        for n in live:
            rows = ranks[done[n] * n - start:min(samples, stop // n) * n - start].reshape(-1, n)
            for i in range(0, len(rows), _MC_CHUNK_ROWS):
                chunk = rows[i:i + _MC_CHUNK_ROWS]
                _walk(chunk, tables, neg_logs[n][done[n] + i:done[n] + i + len(chunk)])
            done[n] += len(rows)
    return neg_logs


def monte_carlo_redundancy_range(source: MarkovSource, lo: int, hi: int, samples: int,
                                 seed: int) -> list[RedundancyValue]:
    """Sample means of rho(-log2 mu) over independently sampled paths for every n = lo..hi.

    Sample i of length n reads uniforms i * n .. (i + 1) * n - 1 of one
    Philox stream keyed by the seed, so every n reads a prefix of the same
    stream and results are bit for bit reproducible.  The stream is drawn
    once, in windows of _MC_CHUNK_ROWS rows of the longest n, each from
    the earliest row some n has not walked, so a window draws at most hi -
    1 uniforms a second time.  A window is kept as ranks (_rank_tables,
    _ranks) and walked by table lookups for every n whose rows it holds,
    at most _MC_CHUNK_ROWS rows a pass: the states and float sums of a
    sorted search of each row.  Consecutive n run in groups of at most
    MC_SAMPLE_CAP samples in all, which bounds the per-sample -log2 mu
    arrays held at once to 8 * MC_SAMPLE_CAP bytes.  Requests over the
    caps raise ResourceLimit before any work (see check_monte_carlo).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 1 <= lo <= hi:
        raise ValueError(f"invalid block length range {lo}..{hi}")
    check_monte_carlo(samples, lo, hi, source)
    tables = _rank_tables(source)
    group = max(1, MC_SAMPLE_CAP // samples)
    out = []
    for first in range(lo, hi + 1, group):
        ns = range(first, min(first + group, hi + 1))
        for n, neg_log in _sample(tables, ns, samples, seed).items():
            snapped = _snap(neg_log)
            values = ceil_defect(snapped)
            mean = float(values.mean())
            stderr = float(values.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
            flags = frozenset({"snap"}) if np.any(snapped != neg_log) else frozenset()
            out.append(RedundancyValue(n=n, value=mean, method="monte_carlo", stderr=stderr, flags=flags))
    return out


def monte_carlo_redundancy(source: MarkovSource, n: int, samples: int, seed: int) -> RedundancyValue:
    """Sample mean of rho(-log2 mu) over independently sampled paths of length n."""
    return monte_carlo_redundancy_range(source, n, n, samples, seed)[0]
