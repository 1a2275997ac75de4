"""Exact probability values of the form mantissa * 2**exp2 with decidable base-2 logs.

The canonical form keeps the mantissa as a positive rational whose numerator
and denominator are both odd (every factor of two is folded into the
exponent) while exp2 may be any rational.  log2 of such a value then splits
into an exact rational part (exp2) plus log2(mantissa), and the latter is
rational if and only if mantissa == 1: if log2(u/v) = a/b with u, v odd and
coprime, then u**b = 2**a * v**b, which forces a = 0 and u = v.  Rationality
questions about base-2 logs and log-ratios are therefore decidable, which is
impossible on floats.

This module owns the one format in which exact logs are combined: integer
rows [K, e_1, ..., e_B] over one LogBasis (log_rows), meaning K / D + sum_i
e_i log2 b_i for one pairwise coprime base b, which is multiplicatively
independent, so an integer combination of rows is rational exactly where
its exponent part is 0.  frac_log reduces rows and float logs modulo 1.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np


def split_pow2(q: Fraction) -> tuple[Fraction, int]:
    """Split a positive rational into (odd part, exponent): q == odd * 2**e."""
    if q <= 0:
        raise ValueError(f"expected a positive rational, got {q}")
    num, den = q.numerator, q.denominator
    e = 0
    while num % 2 == 0:
        num //= 2
        e += 1
    while den % 2 == 0:
        den //= 2
        e -= 1
    return Fraction(num, den), e


def ceil_defect(u):
    """rho(u) = ceil(u) - u, in [0, 1), periodic with period 1.

    For u within one float rounding step above an integer the subtraction
    rounds to 1.0; those points sit on the discontinuity and are mapped to 0,
    keeping the range half-open.
    """
    if isinstance(u, np.ndarray):
        v = np.ceil(u) - u
        return np.where(v >= 1.0, 0.0, v)
    v = math.ceil(u) - u
    return v if v < 1.0 else 0.0


def rho_ratio(k, q):
    """rho(k / q) = (-k mod q) / q for integers k (int64 or Python ints, or arrays of them) and q > 0.

    Python ints divide correctly rounded, and so do int64 operands below
    2^53: then it is float(ceil_defect(Fraction(k, q))) bit for bit.
    """
    return -k % q / q


def wrap_unit(x: float) -> float:
    """x mod 1 with values within 1e-12 below 1 wrapped to 0.

    Angles divided by 2 pi land at 1 - epsilon instead of 0 under float
    noise; comparisons of phases and weights need the single representative.
    """
    y = x % 1.0
    return 0.0 if y > 1.0 - 1e-12 else y


@lru_cache(maxsize=1024)
def _decimal_log2(m, prec: int) -> Decimal:
    """log2(m) to prec digits; cached, as one-at-a-time zeta evaluation asks for the same mantissas again."""
    with localcontext() as ctx:
        ctx.prec = prec
        return (Decimal(m.numerator).ln() - Decimal(m.denominator).ln()) / Decimal(2).ln()


@lru_cache(maxsize=1024)
def _fixed_log2(m, den: int, scale: int) -> int:
    """round(scale log2(m) / den), from log2(m) at 30 + 0.30103 floor(log2 scale) significant digits."""
    with localcontext() as ctx:
        ctx.prec = 30 + math.ceil(0.30103 * (scale.bit_length() - 1))
        return int((_decimal_log2(m, ctx.prec) / den * scale).to_integral_value())


@dataclass(frozen=True)
class Log2Value:
    """Exact base-2 logarithm of a parsed probability: value = rational + log2(mantissa).

    The mantissa is odd over odd, so the value is rational iff mantissa == 1.
    Logs are combined as integer rows (log_rows), not as Log2Values.
    """

    rational: Fraction
    mantissa: Fraction

    @staticmethod
    def make(rational=0, mantissa=1) -> "Log2Value":
        m, e = split_pow2(Fraction(mantissa))
        return Log2Value(Fraction(rational) + e, m)

    @property
    def is_rational(self) -> bool:
        return self.mantissa == 1

    # no caller in the library: kept because bench/tracing.py patches it by name
    def scaled(self, k: int) -> "Log2Value":
        """k * value for integer k."""
        if k >= 0:
            return Log2Value(self.rational * k, self.mantissa**k)
        return Log2Value(self.rational * k, (1 / self.mantissa) ** (-k))

    def to_float(self) -> float:
        return float(self.rational) + (math.log2(self.mantissa.numerator) - math.log2(self.mantissa.denominator))


def _coprime_base(values) -> list[int]:
    """Pairwise coprime integers > 1 of which every value is a product, in increasing order.

    Built by gcd refinement, not by factoring, which 80-bit mantissas rule
    out: a value coprime to the base's product joins it; otherwise the first
    element b sharing a factor g > 1 with it leaves, and g, b / g and value
    / g are split in turn, each split dividing the pending product by g.
    Such a base is multiplicatively independent: a product of powers of its
    elements is 1 only when every exponent is 0.
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


@dataclass(frozen=True)
class LogBasis:
    """What a row [K, e_1, ..., e_B] of exact logs is over: K / D + sum_i e_i log2 base[i] (log_rows)."""

    D: int
    base: tuple

    def of(self, q: Fraction) -> np.ndarray:
        """The row, of Python ints, of a rational q whose q D is an integer."""
        return np.array([int(q * self.D)] + [0] * len(self.base), dtype=object)

    def fixed(self, rows, scale: int) -> np.ndarray:
        """scale times each row's log, for scale a multiple of D, as Python ints: each base log rounded once."""
        weights = [scale // self.D, *(_fixed_log2(b, 1, scale) for b in self.base)]
        return np.asarray(rows, dtype=object).dot(np.array(weights, dtype=object))


def split_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """(K, [e_1, ..., e_B]) of each row of an array, or of rows of Python ints: rational part times D, exponents."""
    rows = rows if isinstance(rows, np.ndarray) else np.array(rows, dtype=object)
    return rows[..., 0], rows[..., 1:]


def int_rows(rows, bound: int = 1) -> np.ndarray:
    """rows as int64 where bound times their largest magnitude stays below 2^63, else as Python ints."""
    rows = np.array(rows, dtype=object)
    return rows.astype(np.int64 if int(abs(rows).max(initial=0)) * bound < 2**63 else object)


def log_rows(logs) -> tuple[np.ndarray, LogBasis]:
    """The (len(logs), 1 + B) integer rows (int_rows) of Log2Values and the LogBasis they are over.

    D is the lcm of the rational parts' denominators and base the pairwise
    coprime base of the mantissas' numerators and denominators.  K is the
    rational part times D and e_i the exponent of base[i] in the mantissa,
    negative in its denominator, found once per distinct part.
    """
    D = math.lcm(*(lg.rational.denominator for lg in logs))
    parts = {v for lg in logs for v in (lg.mantissa.numerator, lg.mantissa.denominator)}
    base, exps = _coprime_base(parts), {}
    for v in parts:
        exps[v] = e = [0] * len(base)
        for i, b in enumerate(base):
            while v % b == 0:
                v, e[i] = v // b, e[i] + 1
            if v == 1:
                break
    rows = [[int(lg.rational * D), *(a - b for a, b in zip(exps[lg.mantissa.numerator], exps[lg.mantissa.denominator]))]
            for lg in logs]
    return int_rows(rows), LogBasis(D, tuple(base))


def frac_log(x, ks, d: int = 1, basis: LogBasis | None = None):
    """frac((k/d) x) of a log for each integer k in ks, or of each log in an array x at one k (ks = [k]).

    The one reduction of a log modulo 1; float logs (basis None) by one numpy
    expression.  A row over basis is reduced without forming a power: k K
    mod (d D) in integers, so one rational row gives exact Fractions; an
    irrational one is summed in fixed point with bits = 128 + 2 bit_length(max
    |k|) fraction bits, k L plus the floor of its rational part modulo
    2^bits, where L = sum_i e_i L_i and L_i = round(2^bits log2 base[i] / d)
    (_fixed_log2): within sum_i |e_i| 2^-128 of the fraction, and a float64
    within about 1e-16 of it at any k by Python's correctly rounded int
    division.  The sums run on object arrays, 2^14 values of k at a time; an
    array of rows gives a float64 a row, a rational one (k K mod d D) / (d D).
    """
    if basis is None:
        return np.array(ks, dtype=float) * x / d % 1.0
    K, e = split_rows(x)
    kden = basis.D * d
    if e.ndim == 1 and not e.any():
        return [Fraction(k * int(K) % kden, kden) for k in ks]
    bits = 128 + 2 * max(map(abs, ks), default=0).bit_length()
    used = np.flatnonzero(e.any(axis=tuple(range(e.ndim - 1))))
    L = e[..., used].astype(object).dot(np.array([_fixed_log2(basis.base[i], d, 1 << bits) for i in used],
                                                 dtype=object))
    irrational, out = e.any(axis=-1), []
    for start in range(0, max(len(ks), 1), 2**14):  # bounds the Python ints held at a time
        k = np.array(ks[start:start + 2**14], dtype=object)
        kK = K.astype(object) * k % kden
        # & is the residue modulo 2^bits for negative k L too; % 1.0 maps a rounded-up 1.0 to 0.0
        fixed = (((kK << bits) // kden + L * k) & ((1 << bits) - 1)) / (1 << bits) % 1.0
        out.append((fixed if irrational.all() else np.where(irrational, fixed, kK / kden)).astype(float))
    return np.concatenate(out)


@dataclass(frozen=True)
class ExactProb:
    """A probability in canonical form mantissa * 2**exp2, value in (0, 1]."""

    mantissa: Fraction
    exp2: Fraction

    @staticmethod
    def make(mantissa, exp2=0) -> "ExactProb":
        m, e = split_pow2(Fraction(mantissa))
        return ExactProb(m, Fraction(exp2) + e)

    def log2(self) -> Log2Value:
        return Log2Value(self.exp2, self.mantissa)

    def to_float(self) -> float:
        return 2.0 ** self.log2().to_float()

    def value_at_most_one(self) -> bool:
        """Exact check that mantissa * 2**exp2 <= 1, without forming a power.

        log2 of the value is exp2 + log2(mantissa), and the mantissa's bit
        lengths bound log2(mantissa) within 1, which decides every exponent
        but those within 2 of minus their difference.  There the sum is
        evaluated in decimal at doubling precision until its error bound is
        below it.  That ends: for an odd mantissa other than 1 log2(mantissa)
        is irrational, so the sum is never 0.
        """
        num, den = self.mantissa.numerator, self.mantissa.denominator
        estimate = self.exp2 + num.bit_length() - den.bit_length()
        if self.mantissa == 1 or abs(estimate) > 2:
            return estimate <= 0
        prec = 30
        while True:
            with localcontext() as ctx:
                ctx.prec = prec
                log = Decimal(self.exp2.numerator) / self.exp2.denominator + _decimal_log2(self.mantissa, prec)
                if abs(log) > Decimal(num.bit_length() + den.bit_length()).scaleb(3 - prec):
                    return log < 0
            prec *= 2


class _ZeroProb:
    """Singleton tag for structurally zero probabilities."""

    __slots__ = ()

    def __repr__(self):
        return "ZERO"


ZERO = _ZeroProb()

# a denominator must have a nonzero digit, so "1/0" is a parse error like any other
_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:\s*/\s*0*[1-9]\d*)?$")
_POW2_RE = re.compile(r"^2\^\(?([+-]?\d+(?:\s*/\s*0*[1-9]\d*)?)\)?$")


def parse_prob_spec(spec: str):
    """Parse a probability spec string like "1/3", "2^(-1/2)" or "3 * 2^(-2)".

    Returns an ExactProb, or ZERO for a spec whose value is zero.
    """
    mantissa = Fraction(1)
    exp2 = Fraction(0)
    saw_mantissa = saw_pow = False
    for part in spec.split("*"):
        part = part.strip()
        if not part:
            raise ValueError(f"empty fragment in probability spec {spec!r}")
        m = _POW2_RE.match(part)
        if m:
            if saw_pow:
                raise ValueError(f"repeated power-of-two fragment in {spec!r}")
            exp2 = Fraction(m.group(1).replace(" ", ""))
            saw_pow = True
        elif _RATIONAL_RE.match(part):
            if saw_mantissa:
                raise ValueError(f"repeated rational fragment in {spec!r}")
            mantissa = Fraction(part.replace(" ", ""))
            saw_mantissa = True
        else:
            raise ValueError(f"cannot parse probability fragment {part!r} in {spec!r}")
    if not (saw_mantissa or saw_pow):
        raise ValueError(f"empty probability spec {spec!r}")
    if mantissa == 0:
        return ZERO
    if mantissa < 0:
        raise ValueError(f"negative probability spec {spec!r}")
    return ExactProb.make(mantissa, exp2)


def format_prob_spec(p) -> str:
    """Inverse of parse_prob_spec, for round-tripping sources to JSON."""
    if p is ZERO:
        return "0"
    parts = []
    if p.mantissa != 1 or p.exp2 == 0:
        parts.append(str(p.mantissa))
    if p.exp2 != 0:
        if p.exp2.denominator == 1 and p.exp2 >= 0:
            parts.append(f"2^{p.exp2}")
        else:
            parts.append(f"2^({p.exp2})")
    return " * ".join(parts)


def approximate_rational(x: float):
    """Rational with denominator at most 10^6 hiding behind a float, or None.

    Heuristic rationality test for float-valued sources.  Besides the
    denominator cap and a residual of at most 1e-9, the candidate must beat the
    quality that generic (irrational) reals achieve through continued
    fractions, i.e. approximate far better than ~1/q^2; a float that truly
    is a rational p/q carries only representation noise ~1e-16, while the
    best bounded-denominator approximants of irrationals sit near the
    Dirichlet baseline.  Results remain heuristic, never proven.
    """
    q = Fraction(x).limit_denominator(10**6)
    err = abs(x - float(q))
    if err <= 1e-9 and err * q.denominator**2 <= 1e-3:
        return q
    return None


def common_denominator(logs, basis: LogBasis | None = None) -> int | None:
    """lcm of the denominators of logs when every one is rational, else None.

    Rows over a basis are decided exactly: all are rational iff their
    exponent parts are 0, and then the lcm of the denominators of K / D is D
    / gcd(D, every K).  Float logs are decided heuristically
    (approximate_rational), and may be an iterator: none past the first
    irrational one is drawn.
    """
    if basis is not None:
        K, e = split_rows(logs)
        return None if e.any() else basis.D // math.gcd(basis.D, *K.tolist())
    den = 1
    for x in logs:
        q = approximate_rational(x)
        if q is None:
            return None
        den = math.lcm(den, q.denominator)
    return den
