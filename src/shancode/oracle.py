"""Ground-truth average redundancy of the Shannon code at finite block length.

    R_n = E{ceil(-log2 mu(X^n)) + log2 mu(X^n)} = E{rho(-log2 mu(X^n))}

with rho(u) = ceil(u) - u and mu the path probability.
exact_redundancy_range takes one of two exact routes for a range of n.

An irreducible exact source that classify_mode calls oscillatory, of order
M, takes lifted_chain: modulo 1, -log2 mu depends only on the two end
states, n and an integer z mod M, the sum of the edges' integer lifts z_e
(ModeClassification.lifts), so R_n is a finite sum over the Markov chain on
(state, z mod M) after n - 1 steps (the paper's decomposition before the
limit; Omega_n is the same sum at that chain's limit).  Its step is
block-circulant in z; the DFT over z makes it M twisted r x r matrices,
powered together by spectral.stack_powers and brought back by one FFT.
rho of each (end states, z) class comes from asymptotics.pair_rho, the
readout that Omega_n uses too, exact where -log2 mu is rational.  A
request whose cost, estimated from sizes, is over LIFT_WORK_CAP or
LIFT_CELL_CAP takes the lattice DP instead.

Every other source, and every request over those caps, takes lattice_dp.
rho reads -log2 mu only modulo 1, and the DP keys a path by that alone, as
one integer modulo Q: for an exact source, its exact lattice point (the
sum of its steps' integer rows, exact.log_rows) mapped through base logs
rounded once to 1/Q; for a float source, the exact sum of its float steps
modulo 1, a fraction of 1 in 64 or more bits.  The DP runs forward over (state, key)
pairs carrying float probability mass and reads R_n out at every n of a
range; its classes are unions of Markov types (Jacquet & Szpankowski, IEEE
T-IT 2004).  Each state's frontier is a sorted 1-D array of keys, and a
step adds each move's key modulo Q, then sorts and sums what enters each
state.  The DP is admitted by the work it does, not by an estimate: it
counts its key moves and stops with ResourceLimit at the step that would
pass DP_MOVE_BUDGET.

Also here: a seeded Monte Carlo estimator, refused over its caps before any
draw, that keys -log2 mu modulo 1 as the float lattice does; _snap reads both.
It ranks raw Philox integers, making no float uniform, and walks the ranks
k at a time through tables of k moves, every key the one-step walk's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import INT64_READOUT_BOUND, ModeClassification, classify_mode, pair_rho, readout_denominator
from .errors import ResourceLimit
from .sources import MarkovSource, classify_structure
from .spectral import stack_powers

INTEGER_SNAP_TOL = 1e-9
# work in key moves (see _forward) that one exact_redundancy_range request may do over all
# its passes: at most about a second, and no seed-0 float source (r = 2..32) peaked above 140 MB
DP_MOVE_BUDGET = 2**22
# key moves charged per state a step visits or a readout merges, and per key a readout reads:
# work that makes no keys, charged by its time at about 0.2 us a unit (see _forward)
_STATE_CHARGE = 64
_READ_CHARGE = 8
# work units (about a nanosecond each, see _lifted_cost) and float64 cells (32 MiB) within which
# an oscillatory exact source takes the lifted chain; a request over either takes the lattice DP
LIFT_WORK_CAP = 2**30
LIFT_CELL_CAP = 2**22
# units per product's or row's Python calls, per state pair, per matrix a product takes, per readout cell
_LIFT_CALL_CHARGE, _LIFT_PAIR_CHARGE, _LIFT_ITEM_CHARGE, _LIFT_CELL_CHARGE = 5_000, 40_000, 300, 100
_LIFT_INT_CELL_CHARGE = 500  # per readout cell where pair_rho counts in Python ints
# Monte Carlo: rows of the longest n in a window and most rows a walk pass takes, raw draws
# made at a time, and the caps check_monte_carlo enforces (a window of ranks, one byte each
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
# entries, (r + 1) width^k, of the tables that walk k ranks per lookup: at most 64 KiB
_MC_GROUP_ENTRIES = 2**12


@dataclass(frozen=True)
class RedundancyValue:
    n: int
    value: float
    method: str
    stderr: float | None = None
    flags: frozenset = frozenset()


# -- lattice dynamic program -------------------------------------------------


def _keys(values, bits: int) -> list[int]:
    """frac(x) of each float x >= 0 in units of 2^-bits, floored: exact where 2^bits holds x's denominator."""
    return [(num << bits) // den & ((1 << bits) - 1) for num, den in (x.as_integer_ratio() for x in values)]


def _snap(rho: np.ndarray) -> bool:
    """Zero in place each rho within INTEGER_SNAP_TOL of 0 or 1 (float noise); return whether a nonzero one moved."""
    # min(rho, 1 - rho) <= tol bit for bit: 1 - rho is exact from 1/2 on, and fl(1 - 1e-9) > 1 - 1e-9
    near = (rho <= INTEGER_SNAP_TOL) | (rho >= 1.0 - INTEGER_SNAP_TOL)
    moved = bool(np.any(rho, where=near))
    rho[near] = 0.0
    return moved


def _merge(parts):
    """One sorted (keys, masses) from a nonempty list of them, summing the masses of equal keys.

    A stable sort keeps equal keys in the order of the parts, and each part
    holds a key once.  bincount over the run numbers then adds each run left
    to right, in part order, as a dict accumulating the parts would;
    np.add.reduceat would add a run's tail first, a + (b + c), and move last
    bits.
    """
    live = [part for part in parts if len(part[1])]
    if len(live) <= 1:
        return live[0] if live else parts[0]
    keys = np.concatenate([k for k, _ in live])
    order = np.argsort(keys, kind="stable")
    keys = keys.take(order)
    masses = np.concatenate([m for _, m in live]).take(order)
    new = np.empty(len(keys), dtype=bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return keys.compress(new), np.bincount(new.cumsum(dtype=np.intp) - 1, weights=masses)


def _add(keys, steps, Q: int):
    """keys + steps modulo Q: numpy's own wrap where Q = 2^64, one reduction otherwise."""
    return keys + steps if Q == 1 << 64 else (keys + steps) % Q


def _readout(keys, masses, Q: int, snap: bool) -> tuple[float, bool]:
    """(sum of masses * rho, snapped) for rho = ((-K) mod Q) / Q of each key K as a float division.

    Where Q is a power of two, rho is rounded once; elsewhere the key and Q
    are rounded to float64 first, exact for a rational point K / D of an
    exact lattice with D < 2^53, which so reads rho_ratio(K, D) bit for bit.
    A float lattice's rho is snapped (_snap); an exact lattice's is not.
    """
    rho = (-keys if Q == 1 << 64 else (Q - keys) % Q).astype(np.float64) / Q
    snapped = snap and _snap(rho)
    return math.fsum((masses * rho).tolist()), snapped


def _forward(frontier, moves, lo: int, hi: int, Q: int, snap: bool, spent: int = 0):
    """Run the DP to length hi; return ([_readout of the merged frontier for n = lo..hi], spent).

    frontier[k] is (keys, masses) of the paths now in state k: the distinct
    lattice points of -log2 mu modulo 1 as a sorted 1-D array of keys modulo
    Q (uint64, or Python ints where a float lattice's Q passes 2^64), each
    with its float64 probability mass.  moves[k] is (targets, steps, probs)
    of state k's nonzero transitions; a step adds every move's key to every
    key modulo Q (_add) and merges what enters each state (_merge).  spent
    counts work in key moves: each key a step moves (what bounds memory),
    plus _STATE_CHARGE = 64 per state a step visits or a readout merges, and
    _READ_CHARGE = 8 per key a readout reads.  Those make no keys: a step's
    merges take 12-27 us per state (r = 2..32) against about 15 ns per key
    move, about 0.2 us a unit at that charge, and a readout's merge, fsum
    and array calls take about 30 us however few its keys, so it is charged
    per state as a step is.  Its keys take 0.2-0.4 us each beyond that,
    under the charge kept from the 1-3 us of a per-key Python readout.  Work
    at n that would take spent past DP_MOVE_BUDGET raises ResourceLimit
    before it runs.
    """
    out, empty = [], (frontier[0][0][:0], frontier[0][1][:0])
    for n in range(1, hi + 1):
        moved = 0
        if n < hi:
            moved = sum(len(masses) * len(targets) for (_, masses), (targets, _, _) in zip(frontier, moves))
            spent += _STATE_CHARGE * len(frontier) + moved
        if n >= lo:
            spent += _STATE_CHARGE * len(frontier) + _READ_CHARGE * sum(len(masses) for _, masses in frontier)
        if spent > DP_MOVE_BUDGET:
            raise ResourceLimit(f"lattice DP reached n = {n} of {hi}; its next work would bring it to "
                                f"{spent} key moves > {DP_MOVE_BUDGET}")
        if n >= lo:
            out.append(_readout(*_merge(frontier), Q, snap))
        if n == hi:
            break
        entering = [[empty] for _ in frontier]
        for (keys, masses), (targets, steps, probs) in zip(frontier, moves):
            if len(masses):
                moved, weighted = _add(keys, steps[:, None], Q), np.multiply.outer(probs, masses)
                for j, part in zip(targets, zip(moved, weighted)):
                    entering[j].append(part)
        frontier = [_merge(parts) for parts in entering]
    return out, spent


def _exact_lattice(source: MarkovSource):
    """(key points, Q, passes) of an exact source's lattice.

    points[i] is the key of -prob_table.logs[i], -log2 p modulo 1 as an
    integer modulo Q: minus Q times its row in fixed point, one product over
    the rows with each base log rounded once (exact.LogBasis.fixed).  Q is
    2^64 where the basis's D is a power of two (every rational-probability
    source) and D 2^(63 - bit_length(D)) < 2^63 elsewhere; a D of 2^62 or
    more raises ResourceLimit before any DP work.  Keys are a homomorphism of
    the exact lattice points: paths of equal mu have equal keys, a rational
    point K / D reads rho_ratio's value bit for bit (_readout), and a key is
    within sum_i |e_i| / (2Q) of its exact point.  One pass runs all first
    states together.
    """
    table, D = source.prob_table, source.prob_table.basis.D
    if D >> 62:
        raise ResourceLimit(f"exact lattice denominator D = {D} reaches 2^62")
    Q = 1 << 64 if D & (D - 1) == 0 else D << (63 - D.bit_length())
    points = -table.basis.fixed(table.rows, Q) % Q
    return np.array(points.tolist(), dtype=np.uint64), Q, [np.flatnonzero(table.p[source.r]).tolist()]


def _float_lattice(source: MarkovSource):
    """(key points, Q, passes) of a float source's lattice.

    points[i] is the key of prob_table.logs[i]: frac(-log2 p) in units of
    1 / Q, Q = 2^bits for bits = max(64, log2 scale) and scale the largest
    power-of-two denominator of those floats, so every key, the exact sum of
    a path's float -log2 p modulo 1, is exact.  At 64 bits a key is a
    uint64, which numpy's addition wraps modulo 1 by itself; past that (a
    step probability of 1 - 2^-45 alone needs 96 bits) keys are Python ints
    in object arrays; Monte Carlo keys its steps alike (_rank_tables).  The
    readout is snapped (_snap).  Paths from different first states all but
    never merge, so each first state is a pass of its own and only one of
    their frontiers is alive at a time.
    """
    table = source.prob_table
    bits = max(64, *(x.as_integer_ratio()[1].bit_length() - 1 for x in table.logs))
    points = np.array(_keys([-x for x in table.logs], bits), dtype=np.uint64 if bits == 64 else object)
    return points, 1 << bits, [[s] for s in np.flatnonzero(table.p[source.r]).tolist()]


def lattice_dp(source: MarkovSource, lo: int, hi: int) -> list[RedundancyValue]:
    """Exact R_n for every n = lo..hi from one forward lattice DP to hi.

    Both lattices key a path by -log2 mu modulo 1 as one integer modulo Q,
    added modulo Q (_add) and read out as rho = ((-K) mod Q) / Q (_readout),
    snapped for a float source only.  The lattice of the source's kind
    (_exact_lattice, _float_lattice) gives the key points, one per distinct
    log of the source's prob_table, Q, and the passes: groups of first
    states, those with p[r] > 0, whose paths run together.  A cell's key is
    points[index[k, j]]: every pass starts from its first states' keys and
    moves by the keys of the cells with p > 0, and R_n sums the passes'
    readouts.  Nothing estimates the work beforehand, as no cheap estimate
    is close: the DP counts its work in key moves over all passes (see
    _forward) and raises ResourceLimit before the work that would pass
    DP_MOVE_BUDGET.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"invalid block length range {lo}..{hi}")
    points, Q, passes = (_exact_lattice if source.exact else _float_lattice)(source)
    p, index = source.prob_table.p, source.prob_table.index
    moves = []
    for k in range(source.r):
        targets = np.flatnonzero(p[k])
        moves.append((targets.tolist(), points[index[k, targets]], p[k, targets]))
    empty = (points[:0], np.empty(0))
    outs, spent = [], 0
    for firsts in passes:
        frontier = [(points[index[source.r, s:s + 1]], p[source.r, s:s + 1]) if s in firsts else empty
                    for s in range(source.r)]
        out, spent = _forward(frontier, moves, lo, hi, Q, not source.exact, spent)
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
    FFT; a complex cell counts as two float64 cells.  It prices M twisted
    slices where floor(M/2) + 1 run, so that no request changes route.
    """
    r, M = source.r, cls.M
    live = int(np.count_nonzero(source.prob_table.p[r]))
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

    Every edge k -> j lifts to an integer z_e (cls.lifts), and a path
    j -> ... -> k of length n whose z_e sum to z mod M has, modulo 1,

        -log2 mu = z/M + frac((n-1) unit / d) + frac((X_j - X_k - d log2 p_j) / d),

    zeta_jk(n) at scale 1 shifted by z/M.  So, with T the lifted chain's step,

        R_n = sum_{j,k,z} p_j [T^(n-1)]_{(j,0),(k,z)} rho(z/M + frac((n-1) unit/d) + frac(b_jk/d)).

    T is block-circulant in z, so the DFT over z splits it into M twisted r x r
    matrices [t, k, j] = p(j|k) exp(-2 pi i t z_e / M), each the spectral
    layer's A_t up to a diagonal similarity and a scalar.  Slice M - t is the
    conjugate of slice t, so row n takes the live initial states' unit rows
    through t = 0..floor(M/2) to n - 1 (spectral.stack_powers: the same
    products alone or in a range), and one inverse real FFT over t gives its
    masses on z.  A row's total mass is its t = 0 term, a row of P^(n-1),
    which float rows such as (1/3, 2/3) drift from 1 by about n ulps; it is
    scaled once to 1.  Values are within about 1e-14 of the exact R_n, and
    never below 0; every rational -log2 mu is read out exactly (pair_rho).
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"invalid block length range {lo}..{hi}")
    r, M, count = source.r, cls.M, hi - lo + 1
    table = source.prob_table.p
    live = np.flatnonzero(table[r]).tolist()
    roots = np.exp(-2j * np.pi * np.arange(M) / M) if M > 2 else np.array([1.0, -1.0][:M])  # real at M <= 2
    twist = table[:r] * roots[np.arange(M // 2 + 1)[:, None, None] * cls.lifts % M]
    start = np.broadcast_to(np.eye(r)[live], (len(twist), len(live), r))
    masses = np.stack(stack_powers(start, twist, range(lo - 1, hi), _conditioned))  # [n, t, j, k]: DFT over z
    masses = np.fft.irfft(masses, n=M, axis=1).transpose(0, 2, 3, 1).reshape(count, len(live), r * M)  # [n, j, k M + z]
    masses /= np.add.reduce(masses, axis=2, keepdims=True)
    pairs = [(j, k) for j in live for k in range(r)]
    rho = np.stack(list(pair_rho(source, cls, pairs, lo, hi, 1, M)), axis=1).reshape(count, len(live), r * M)
    terms = (table[r, live][:, None] * masses * rho).reshape(count, -1)
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
    if source.exact and cls is None and classify_structure(source).irreducible:
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
    samples (each per-sample array is 8 * samples bytes) raises
    ResourceLimit, and so do the source's rank tables over
    MC_TABLE_BYTES_CAP: (r + 1) (T + 1) int64 next states and as many
    uint64 step keys for T thresholds (_rank_tables), whose tables of k
    moves add at most 64 KiB (_MC_GROUP_ENTRIES).
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
    thresholds = len(_distinct(cum))
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
    return np.cumsum(source.prob_table.p, axis=1)[:, :-1]


def _distinct(values: np.ndarray) -> np.ndarray:
    """np.unique(values) by a sort and a mask, without the numpy.ma import of np.unique's first call."""
    ordered = np.sort(values, axis=None)
    new = np.empty(len(ordered), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    return ordered[new]


def _rank_tables(source: MarkovSource):
    """(thresholds, next, step_key, k, group_next, group_key) of the rank walk.

    The transition rows and, as row r, the initial vector are the rows of
    the walk, which starts in the virtual state r.  thresholds are the
    sorted distinct cumulative sums, all but the last, of every row; a
    uniform's rank is the count of them at or below it.  Every row's
    thresholds are among them, so the rank fixes the sorted search of each
    row: next[state + rank] is the next state, times width =
    len(thresholds) + 1 so that the next rank adds straight onto it, and
    step_key the same move's -prob_table.log2 as a uint64 key (_keys),
    floored for p within about 2^-12 of 1, and 0 where p = 0.  The group
    tables take k ranks at once, k the largest with (r + 1) width^k at most
    _MC_GROUP_ENTRIES (1 at width 1): at state + code, for code the k ranks
    as digits base width, first rank first, they hold the state after those
    k moves, times width^k, and the uint64 sum of their step keys, which
    wraps as the walk's own sum does.  At k = 1 they are next and step_key.
    """
    table = source.prob_table
    cum = _cumulative_rows(source)
    thresholds = _distinct(cum)
    width = len(thresholds) + 1
    below = np.concatenate([[-math.inf], thresholds])  # the largest threshold at or below each rank
    nxt = np.array([np.searchsorted(row, below, side="right") for row in cum])
    step = np.take_along_axis(np.array(_keys(-table.log2.ravel(), 64), np.uint64).reshape(table.p.shape), nxt, axis=1)
    k = 1
    while width > 1 and len(cum) * width ** (k + 1) <= _MC_GROUP_ENTRIES:
        k += 1
    after, total = nxt, step
    for _ in range(k - 1):  # append one rank as the lowest digit: (rows, width^i) -> (rows, width^(i + 1))
        total = (total[:, :, None] + step[after]).reshape(len(cum), -1)
        after = nxt[after].reshape(len(cum), -1)
    one = nxt * width
    return thresholds, one.ravel(), step.ravel(), k, (one if k == 1 else after * width**k).ravel(), total.ravel()


def _ranks(seed: int, start: int, out, thresholds):
    """out filled with the ranks of uniforms start.. of the Philox stream keyed by seed.

    Philox is counter-based: a counter of start // 4 and start % 4 raw
    draws put the stream at start without drawing what comes before.  The
    raw draws come _MC_BLOCK at a time, each block freed before the next,
    and no float is made: Generator.random is (raw >> 11) 2^-53, at or
    above t exactly when raw >= ceil(t 2^53) 2^11, the uint64 each threshold
    below 1 becomes.  One of 1.0, from a row that ends in zeros, is at or
    below no uniform and would pass 2^64, so it is left out.  A rank is
    counted below _MC_SEARCH_THRESHOLDS thresholds, each comparison's bool
    mask added as its uint8 view (no cast), and found by a sorted search
    from there; both give the count of thresholds at or below the uniform.
    """
    bits = np.random.Philox(key=seed, counter=start // 4)
    bits.random_raw(start % 4)
    whole = np.ceil(thresholds[thresholds < 1.0] * 2.0**53).astype(np.uint64) << 11
    out[:] = 0
    above = np.empty(min(_MC_BLOCK, len(out)), dtype=bool)
    for lo in range(0, len(out), _MC_BLOCK):
        raw = bits.random_raw(min(_MC_BLOCK, len(out) - lo))
        ranks, mask = out[lo:lo + len(raw)], above[:len(raw)]
        if len(thresholds) >= _MC_SEARCH_THRESHOLDS:
            ranks[:] = np.searchsorted(whole, raw, side="right")
        else:
            for threshold in whole:
                ranks += np.greater_equal(raw, threshold, out=mask).view(np.uint8)
        del raw
    return out


def _walk(ranks, tables, out) -> None:
    """out[i] = the uint64 key of the path whose uniforms have the ranks ranks[i]: its step keys' sum, wrapped.

    The first n - n mod k ranks of a row go k at a time through the group
    tables, by a code built column by column from strided views of ranks
    (a view of them at k = 1); the last n mod k go through the one-step
    tables, the state rescaled from width^k to width once.
    """
    thresholds, nxt, step, k, group_next, group_key = tables
    width, (rows, n) = len(thresholds) + 1, ranks.shape
    groups = n // k
    code = ranks[:, :groups * k:k].T
    if k > 1:  # Horner over the k ranks of each group: a (groups, rows) array, never a copy of ranks
        code = code.astype(np.uint16, order="C")
        for i in range(1, k):
            code *= width
            code += ranks[:, i:groups * k:k].T
    # row r, the initial vector, is the last of the r + 1 rows of the tables
    state = np.full(rows, len(group_next) - width**k)
    index, term = np.empty_like(state), np.empty(rows, dtype=np.uint64)
    out[:] = 0
    for g in range(groups):
        np.add(state, code[g], out=index)
        # every index is in range; "clip" skips the copy of out that the default "raise" makes
        out += group_key.take(index, out=term, mode="clip")
        group_next.take(index, out=state, mode="clip")
    if groups * k < n:
        state //= width ** (k - 1)
    for t in range(groups * k, n):
        np.add(state, ranks[:, t], out=index)
        out += step.take(index, out=term, mode="clip")
        nxt.take(index, out=state, mode="clip")


def _sample(tables, ns, samples: int, seed: int) -> dict:
    """{n: uint64 keys of -log2 mu (_walk) of samples 0..samples - 1 of length n} for every n of the range ns.

    Beside one window of ranks and the keys, _ranks holds one block of raw
    draws and _walk a code of 2 / k bytes a rank of its chunk (a view at k = 1).
    """
    window = min(samples, _MC_CHUNK_ROWS) * ns[-1]
    held = np.empty(window, dtype=_rank_dtype(len(tables[0])))
    keys = {n: np.empty(samples, dtype=np.uint64) for n in ns}
    done = dict.fromkeys(ns, 0)
    while live := [n for n in ns if done[n] < samples]:
        start = min(done[n] * n for n in live)
        stop = min(start + window, samples * ns[-1])
        ranks = _ranks(seed, start, held[:stop - start], tables[0])
        for n in live:
            rows = ranks[done[n] * n - start:min(samples, stop // n) * n - start].reshape(-1, n)
            for i in range(0, len(rows), _MC_CHUNK_ROWS):
                chunk = rows[i:i + _MC_CHUNK_ROWS]
                _walk(chunk, tables, keys[n][done[n] + i:done[n] + i + len(chunk)])
            done[n] += len(rows)
    return keys


def _finish(keys, rho) -> tuple[float, float, bool]:
    """(mean, standard error, snapped) of rho over the samples' uint64 keys K of -log2 mu, in place.

    keys is overwritten with -K mod 2^64.  rho, a float64 array of its
    length, is scratch for rho = (-K mod 2^64) 2^-64, rounded once as in the
    float lattice, then snapped (_snap), then its squared deviations.  The
    mean and the deviations take the steps of ndarray.mean and
    ndarray.std(ddof=1), so both are theirs bit for bit.
    """
    samples = len(keys)
    np.multiply(np.negative(keys, out=keys), 2.0**-64, out=rho)
    snapped = _snap(rho)
    mean = np.add.reduce(rho, keepdims=True) / samples
    stderr = 0.0
    if samples > 1:
        np.square(np.subtract(rho, mean, out=rho), out=rho)
        stderr = float(np.sqrt(np.add.reduce(rho) / (samples - 1)) / math.sqrt(samples))
    return float(mean[0]), stderr, snapped


def monte_carlo_redundancy_range(source: MarkovSource, lo: int, hi: int, samples: int,
                                 seed: int) -> list[RedundancyValue]:
    """Sample means of rho(-log2 mu) over independently sampled paths for every n = lo..hi.

    Sample i of length n reads uniforms i * n .. (i + 1) * n - 1 of one
    Philox stream keyed by the seed, so every n reads a prefix of the same
    stream and results are bit for bit reproducible.  The stream is drawn
    once, in windows of _MC_CHUNK_ROWS rows of the longest n, each from
    the earliest row some n has not walked, so a window draws at most hi -
    1 uniforms a second time.  A window is kept as ranks, counted on the
    raw draws against integer thresholds (_ranks), and walked by table
    lookups for every n whose rows it holds, at most _MC_CHUNK_ROWS rows a
    pass: k ranks a lookup through tables of k moves, then n mod k through
    the one-step tables, giving the states of a sorted search of each row
    and the uint64 sum of its step keys (_rank_tables, _walk).  Consecutive n
    run in groups of at most MC_SAMPLE_CAP samples in all.  A group holds
    one uint64 array of keys per n, 8 * samples bytes each and 8 *
    MC_SAMPLE_CAP at most in all, and, once its window is freed, one scratch
    array of as many bytes in which each n is finished in place (_finish).
    Requests over the caps raise ResourceLimit before any work (see
    check_monte_carlo).
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
        keys = _sample(tables, ns, samples, seed)
        scratch = np.empty(samples)
        for n in ns:
            mean, stderr, snapped = _finish(keys.pop(n), scratch)
            flags = frozenset({"snap"}) if snapped else frozenset()
            out.append(RedundancyValue(n=n, value=mean, method="monte_carlo", stderr=stderr, flags=flags))
    return out


def monte_carlo_redundancy(source: MarkovSource, n: int, samples: int, seed: int) -> RedundancyValue:
    """Sample mean of rho(-log2 mu) over independently sampled paths of length n."""
    return monte_carlo_redundancy_range(source, n, n, samples, seed)[0]
