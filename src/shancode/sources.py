"""First-order Markov sources with exact or float probabilities.

A source is an initial distribution plus a row-stochastic transition matrix;
``transitions[k][j]`` is the probability of moving from state ``k`` to state
``j``.  States are 0-based throughout.  A source is homogeneously exact
(every nonzero probability an :class:`~shancode.exact.ExactProb`) or
homogeneously float; zeros are represented by the mode-neutral ``ZERO`` tag.

This module owns that format.  Every other module reads a source through
MarkovSource.prob_table, one layout for both kinds: float rows p, the log2
of each distinct nonzero entry (a Log2Value or a float) and each cell's
position among those logs; an exact source's logs also as the integer rows
of exact.log_rows, the form in which they are combined.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import ReducibleChain, ValidationFailure, ZeroProbability
from .exact import ZERO, ExactProb, LogBasis, format_prob_spec, log_rows, parse_prob_spec

FLOAT_SUM_TOL = 1e-12


def _coerce_prob(value, exact: bool):
    if value is ZERO:
        return ZERO
    if exact:
        if isinstance(value, ExactProb):
            return value
        if isinstance(value, str):
            return parse_prob_spec(value)
        if isinstance(value, (int, Fraction)):
            return ZERO if value == 0 else ExactProb.make(Fraction(value))
        raise ValueError(f"cannot use {value!r} in an exact source")
    if isinstance(value, (int, float)):
        v = float(value)
        if v == 0.0:
            return ZERO
        if v < 0.0 or v > 1.0:
            raise ValueError(f"float probability {v} outside [0, 1]")
        return v
    raise ValueError(f"cannot use {value!r} in a float source")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class ProbTable:
    """A source's probabilities, read-only, in one layout for exact and float sources.

    Each array is (r + 1, r): the transition rows, then the initial vector
    as row r.  p holds each cell as a float64.  logs holds log2_prob of each
    distinct nonzero entry, in order of first appearance: a Log2Value for an
    exact source, math.log2 for a float one.  index holds each cell's
    position in logs, len(logs) where p = 0, and log2 each cell's log as a
    float (Log2Value.to_float() or math.log2), 0.0 where p = 0.  rows[i] is
    logs[i] as an integer row over basis (exact.log_rows); None if float.
    """

    p: np.ndarray
    logs: tuple
    index: np.ndarray
    log2: np.ndarray
    rows: np.ndarray | None = None
    basis: LogBasis | None = None


@dataclass(frozen=True)
class MarkovSource:
    """Initial vector and transition matrix, all entries ExactProb/float/ZERO."""

    initial: tuple
    transitions: tuple
    exact: bool

    @property
    def r(self) -> int:
        return len(self.initial)

    @staticmethod
    def from_exact(initial, transitions) -> "MarkovSource":
        init = tuple(_coerce_prob(v, True) for v in initial)
        trans = tuple(tuple(_coerce_prob(v, True) for v in row) for row in transitions)
        return MarkovSource(init, trans, True)

    @staticmethod
    def from_floats(initial, transitions) -> "MarkovSource":
        init = tuple(_coerce_prob(float(v), False) for v in initial)
        trans = tuple(tuple(_coerce_prob(float(v), False) for v in row) for row in transitions)
        return MarkovSource(init, trans, False)

    @staticmethod
    def from_dict(doc: dict) -> "MarkovSource":
        """Build from the JSON document {"r", "initial", "transitions"}.

        Probability specs may be floats, or strings like "1/3", "2^(-1/2)",
        "3 * 2^(-2)".  String and float specs must not be mixed within one
        source; bare ints (0, 1) are accepted in either mode.
        """
        if not isinstance(doc, dict):
            raise ValidationFailure("a source description must be a JSON object")
        r = doc["r"]
        if not isinstance(r, int) or isinstance(r, bool):
            raise ValidationFailure(f"r must be an integer, got {r!r}")
        initial, transitions = doc["initial"], doc["transitions"]
        if not all(isinstance(x, list) for x in (initial, transitions, *transitions)):
            raise ValidationFailure("initial and transitions must be a list and a list of lists")
        if len(initial) != r or len(transitions) != r or any(len(row) != r for row in transitions):
            raise ValidationFailure(f"shape mismatch against r={r}")
        flat = initial + [v for row in transitions for v in row]
        if bad := [v for v in flat if not isinstance(v, (int, float, str)) or isinstance(v, bool)]:
            raise ValidationFailure(f"probabilities must be numbers or strings, got {bad[0]!r}")
        has_str = any(isinstance(v, str) for v in flat)
        has_float = any(isinstance(v, float) for v in flat)
        if has_str and has_float:
            raise ValidationFailure("source mixes exact string specs with float entries")
        if has_str or not has_float:
            return MarkovSource.from_exact(initial, transitions)
        return MarkovSource.from_floats(initial, transitions)

    @staticmethod
    def load(path) -> "MarkovSource":
        with open(path, "r", encoding="utf-8") as fh:
            return MarkovSource.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        def emit(v):
            if v is ZERO:
                return 0
            if self.exact:
                return format_prob_spec(v)
            return v

        return {
            "r": self.r,
            "initial": [emit(v) for v in self.initial],
            "transitions": [[emit(v) for v in row] for row in self.transitions],
        }

    # -- numeric views -------------------------------------------------

    def prob_float(self, v) -> float:
        if v is ZERO:
            return 0.0
        return v.to_float() if self.exact else v

    @cached_property
    def prob_table(self) -> ProbTable:
        """The table every route reads, built on first use and kept.

        The frozen dataclass's eq and hash see only its fields, so the cached
        table in the instance __dict__ changes neither.  Each cell is hashed
        once; floats, logs and rows are made once per distinct value.
        """
        position = {}
        index = np.array([[-1 if v is ZERO else position.setdefault(v, len(position)) for v in row]
                          for row in (*self.transitions, self.initial)])
        index[index < 0] = len(position)
        logs = tuple(map(log2_prob, position))
        p = np.array([*map(self.prob_float, position), 0.0])[index]
        floats = np.array([*(lg.to_float() if self.exact else lg for lg in logs), 0.0])
        rows, basis = log_rows(logs) if self.exact else (None, None)
        return ProbTable(_read_only(p), logs, _read_only(index), _read_only(floats[index]),
                         rows if rows is None else _read_only(rows), basis)

    def initial_array(self) -> np.ndarray:
        return self.prob_table.p[self.r].copy()

    def transition_array(self) -> np.ndarray:
        return self.prob_table.p[: self.r].copy()

    def support(self) -> list[list[int]]:
        """Adjacency lists of the positive-transition digraph."""
        return [[j for j in range(self.r) if self.transitions[k][j] is not ZERO] for k in range(self.r)]


def log2_prob(v):
    """log2 of a nonzero probability value.

    For exact values returns a :class:`Log2Value` carrying the decidable
    split (exp2, mantissa); for float values returns a plain float.
    """
    if v is ZERO:
        raise ZeroProbability("log of zero probability")
    if isinstance(v, ExactProb):
        return v.log2()
    return math.log2(v)


def is_dyadic(source: MarkovSource) -> bool:
    """True when every nonzero probability is an exact power of two."""
    return source.exact and all(lg.is_rational and lg.rational.denominator == 1 for lg in source.prob_table.logs)


# -- validation ---------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    messages: tuple
    flags: frozenset


def _exact_sum_is_one(values) -> bool:
    """Exact test that a collection of ExactProb/ZERO values sums to 1.

    Entries are grouped by the fractional part of their exponent; distinct
    fractional powers of two are linearly independent over the rationals, so
    the sum is 1 iff every fractional group vanishes and the integer-exponent
    group totals exactly 1.
    """
    groups: dict[Fraction, Fraction] = {}
    for v in values:
        if v is ZERO:
            continue
        e_int = v.exp2.numerator // v.exp2.denominator
        f = v.exp2 - e_int
        groups[f] = groups.get(f, Fraction(0)) + v.mantissa * Fraction(2) ** e_int
    return set(groups) == {Fraction(0)} and groups[Fraction(0)] == 1


def validate(source: MarkovSource) -> ValidationReport:
    """Check stochasticity and canonical form; report-valued, never raises.

    Exact sources are expected to sum to 1 exactly.  Exact sources that are
    only numerically stochastic (|row sum - 1| <= FLOAT_SUM_TOL) are accepted
    but flagged "row_sums_inexact"; values with non-integer power-of-two
    exponents cannot occur in an exactly stochastic row, and this flag makes
    analyzing such constructed sources possible without pretending they are
    exact distributions.  Float sources must sum to 1 within FLOAT_SUM_TOL.
    An exact probability over 1, or so small that its float64 is 0.0 (every
    route carries masses as floats), is rejected, and the sums of the rows
    that hold it are not formed.
    """
    messages = []
    flags = set()
    rejected = set()

    for v in list(source.initial) + [x for row in source.transitions for x in row]:
        if v is ZERO:
            continue
        if source.exact:
            # log2 of the mantissa lies within 1 of its bit length difference, so an exponent
            # far below the float range is decided without a float, which could overflow
            log = v.exp2 + v.mantissa.numerator.bit_length() - v.mantissa.denominator.bit_length()
            if log < -1100 or (log < -1000 and v.to_float() == 0.0):
                messages.append(f"probability {v} underflows to 0.0 as a float64")
                rejected.add(v)
            elif not v.value_at_most_one():
                messages.append(f"probability {v} exceeds 1")
                rejected.add(v)
        elif not (0.0 < v <= 1.0):
            messages.append(f"float probability {v} outside (0, 1]")

    sums = [(f"transition row {k}", row) for k, row in enumerate(source.transitions)]
    for name, values in sums + [("initial vector", source.initial)]:
        if rejected.intersection(values) or (source.exact and _exact_sum_is_one(values)):
            continue
        res = math.fsum(map(source.prob_float, values)) - 1.0
        if abs(res) > FLOAT_SUM_TOL:
            messages.append(f"{name} sums to 1{res:+.3e}")
        elif source.exact:
            flags.add("row_sums_inexact")

    return ValidationReport(ok=not messages, messages=tuple(messages), flags=frozenset(flags))


# -- structure ----------------------------------------------------------


@dataclass(frozen=True)
class ChainStructure:
    """Irreducibility, period and positivity of the support digraph.

    For an irreducible chain depth[j] and parent[j] describe the BFS tree
    from state 0 (parent[0] is None) on which the period was measured.
    """

    irreducible: bool
    period: int | None
    positive: bool
    reducible_note: str | None = None
    depth: tuple = ()
    parent: tuple = ()


def _bfs(adj, start) -> tuple[dict, dict]:
    """(level, parent) of the BFS from start, each keyed by the states it reaches."""
    level, parent = {start: 0}, {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in level:
                level[v], parent[v] = level[u] + 1, u
                queue.append(v)
    return level, parent


def classify_structure(source: MarkovSource) -> ChainStructure:
    """Irreducibility via one BFS each way from state 0, period via the forward BFS's level gcd."""
    r = source.r
    adj = source.support()
    radj = [[] for _ in range(r)]
    for k, row in enumerate(adj):
        for j in row:
            radj[j].append(k)
    level, parent = _bfs(adj, 0)
    bwd = _bfs(radj, 0)[0]
    positive = all(len(row) == r for row in adj)
    if len(level) < r or len(bwd) < r:
        missing = sorted(set(range(r)) - level.keys()) or sorted(set(range(r)) - bwd.keys())
        direction = "unreachable from" if len(level) < r else "cannot reach"
        note = f"states {missing} {direction} state 0"
        return ChainStructure(False, None, positive, note)

    g = 0
    for u in range(r):
        for v in adj[u]:
            g = math.gcd(g, level[u] + 1 - level[v])
    return ChainStructure(
        True, g or 1, positive, None, tuple(level[j] for j in range(r)), tuple(parent[j] for j in range(r))
    )


def stationary_distribution(source: MarkovSource) -> np.ndarray:
    """Unique probability vector with pi P = pi for an irreducible chain; ReducibleChain otherwise."""
    structure = classify_structure(source)
    if not structure.irreducible:
        raise ReducibleChain(structure.reducible_note or "chain is reducible")
    return _stationary(source)


def _stationary(source: MarkovSource) -> np.ndarray:
    """pi of an irreducible source, the normalization replacing one redundant balance equation of pi P = pi."""
    P = source.transition_array()
    r = source.r
    A = P.T - np.eye(r)
    A[-1, :] = 1.0
    b = np.zeros(r)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()
