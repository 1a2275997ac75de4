"""First-order Markov sources with exact or float probabilities.

A source is an initial distribution plus a row-stochastic transition matrix;
``transitions[k][j]`` is the probability of moving from state ``k`` to state
``j``.  States are 0-based throughout.  A source is homogeneously exact
(every nonzero probability an :class:`~shancode.exact.ExactProb`) or
homogeneously float; zeros are represented by the mode-neutral ``ZERO`` tag.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ReducibleChain, ValidationFailure, ZeroProbability
from .exact import ZERO, ExactProb, Log2Value, format_prob_spec, parse_prob_spec

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

    def initial_array(self) -> np.ndarray:
        return np.array([self.prob_float(v) for v in self.initial], dtype=float)

    def transition_array(self) -> np.ndarray:
        return np.array([[self.prob_float(v) for v in row] for row in self.transitions], dtype=float)

    def neg_log2_table(self) -> np.ndarray:
        """-log2 p(j|k) as floats, +inf where the transition is impossible."""
        out = np.full((self.r, self.r), np.inf)
        for k in range(self.r):
            for j in range(self.r):
                v = self.transitions[k][j]
                if v is not ZERO:
                    out[k, j] = -log2_prob_float(v)
        return out

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


def log2_prob_float(v) -> float:
    lv = log2_prob(v)
    return lv.to_float() if isinstance(lv, Log2Value) else lv


def is_dyadic(source: MarkovSource) -> bool:
    """True when every nonzero probability is an exact power of two."""
    if not source.exact:
        return False
    values = list(source.initial) + [v for row in source.transitions for v in row]
    return all(v is ZERO or (v.mantissa == 1 and v.exp2.denominator == 1) for v in values)


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
    """Unique probability vector with pi P = pi for an irreducible chain.

    Solved as a linear system with the normalization constraint replacing one
    redundant balance equation.
    """
    structure = classify_structure(source)
    if not structure.irreducible:
        raise ReducibleChain(structure.reducible_note or "chain is reducible")
    P = source.transition_array()
    r = source.r
    A = P.T - np.eye(r)
    A[-1, :] = 1.0
    b = np.zeros(r)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()
