"""Exact probability values of the form mantissa * 2**exp2 with decidable base-2 logs.

The canonical form keeps the mantissa as a positive rational whose numerator
and denominator are both odd (every factor of two is folded into the
exponent) while exp2 may be any rational.  log2 of such a value then splits
into an exact rational part (exp2) plus log2(mantissa), and the latter is
rational if and only if mantissa == 1: if log2(u/v) = a/b with u, v odd and
coprime, then u**b = 2**a * v**b, which forces a = 0 and u = v.  Rationality
questions about base-2 logs and log-ratios are therefore decidable, which is
impossible on floats.
"""

from __future__ import annotations

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
def _decimal_log2(m: Fraction, prec: int) -> Decimal:
    """log2(m) to prec digits; cached, as one-at-a-time zeta evaluation asks for the same mantissas again."""
    with localcontext() as ctx:
        ctx.prec = prec
        return (Decimal(m.numerator).ln() - Decimal(m.denominator).ln()) / Decimal(2).ln()


@lru_cache(maxsize=1024)
def _fixed_log2(m: Fraction, den: int, scale: int) -> int:
    """round(scale log2(m) / den), from log2(m) at 30 + 0.30103 floor(log2 scale) significant digits."""
    with localcontext() as ctx:
        ctx.prec = 30 + math.ceil(0.30103 * (scale.bit_length() - 1))
        return int((_decimal_log2(m, ctx.prec) / den * scale).to_integral_value())


@dataclass(frozen=True)
class Log2Value:
    """Exact base-2 logarithm: value = rational + log2(mantissa).

    mantissa is a positive rational with odd numerator and denominator, so
    the log2(mantissa) term is rational iff mantissa == 1.  Addition,
    subtraction and integer scaling stay inside this representation because
    products and quotients of odd rationals are odd.
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

    def __add__(self, other: "Log2Value") -> "Log2Value":
        return Log2Value(self.rational + other.rational, self.mantissa * other.mantissa)

    def __sub__(self, other) -> "Log2Value":
        """self - other; a rational other counts as the log2 of a power of two."""
        if not isinstance(other, Log2Value):
            return Log2Value(self.rational - other, self.mantissa)
        return Log2Value(self.rational - other.rational, self.mantissa / other.mantissa)

    def __neg__(self) -> "Log2Value":
        return Log2Value(-self.rational, 1 / self.mantissa)

    def scaled(self, k: int) -> "Log2Value":
        """k * value for integer k."""
        if k >= 0:
            return Log2Value(self.rational * k, self.mantissa**k)
        return Log2Value(self.rational * k, (1 / self.mantissa) ** (-k))

    def __mul__(self, k: int) -> "Log2Value":
        return self.scaled(k)

    def to_float(self) -> float:
        return float(self.rational) + (math.log2(self.mantissa.numerator) - math.log2(self.mantissa.denominator))

    def frac_scaled(self, ks, den: int = 1):
        """frac((k / den) * value) for each integer k in the sequence ks, never forming mantissa**k.

        The rational multipliers k / den share one positive denominator.
        k * rational / den is reduced modulo 1 in integers, so a rational
        value gives a list of exact Fractions.  Otherwise the fraction is
        summed in integer fixed point with bits = 128 + 2 bit_length(max |k|)
        fraction bits: log2(mantissa) / den is read once for all ks, as L =
        round(2^bits log2(mantissa) / den) from a decimal log2 at 30 +
        0.30103 bits digits, and each k adds the floor of its rational part
        to k L modulo 2^bits.  That sum is within 2^-127 of the fraction, and
        Python's correctly rounded int division makes it a float64 array
        within about 1e-16 of each fraction at any k.
        """
        num, kden = self.rational.numerator, self.rational.denominator * den
        if self.is_rational:
            return [Fraction(k * num % kden, kden) for k in ks]
        bits = 128 + 2 * max(map(abs, ks), default=0).bit_length()
        one, mask = 1 << bits, (1 << bits) - 1
        L = _fixed_log2(self.mantissa, den, one)
        # & mask is the residue modulo 2^bits for negative k L too; % 1.0 maps a
        # fraction rounded up to 1.0 back to 0.0
        return np.fromiter(((((k * num % kden) << bits) // kden + k * L & mask) / one % 1.0 for k in ks),
                           float, len(ks))


def frac_log(x, ks, d: int = 1):
    """frac((k/d) x) of a log for each integer k in ks; the one reduction of a log modulo 1.

    Exact for a Log2Value (see frac_scaled: Fractions where x is rational,
    an integer fixed-point sum rounded once to float where it is not), one
    numpy float expression for a float log.
    """
    if isinstance(x, Log2Value):
        return x.frac_scaled(ks, d)
    return np.array(ks, dtype=float) * x / d % 1.0


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


def common_denominator(logs) -> int | None:
    """lcm of the denominators of logs when every one is rational, else None.

    A Log2Value is decided exactly (is_rational), a float log heuristically
    (approximate_rational).  logs may be an iterator: none past the first
    irrational one is drawn.
    """
    den = 1
    for x in logs:
        q = (x.rational if x.is_rational else None) if isinstance(x, Log2Value) else approximate_rational(x)
        if q is None:
            return None
        den = math.lcm(den, q.denominator)
    return den
