"""Canonical exact-probability values and their decidable logarithms."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from shancode import ExactProb, Log2Value, ZERO, approximate_rational, parse_prob_spec
from shancode.exact import LogBasis, common_denominator, format_prob_spec, frac_log, log_rows, split_pow2
from tests.conftest import frac_scaled_reference, row_log2value

F = Fraction

positive_rationals = st.fractions(min_value=F(1, 10**6), max_value=F(10**6))
exponents = st.fractions(min_value=F(-64), max_value=F(0)).filter(lambda q: q.denominator <= 16)


def test_split_pow2():
    assert split_pow2(F(12, 5)) == (F(3, 5), 2)
    assert split_pow2(F(5, 8)) == (F(5, 1), -3)
    assert split_pow2(F(1)) == (F(1), 0)


@given(positive_rationals, exponents)
def test_canonicalization_preserves_value_and_is_idempotent(m, e):
    p = ExactProb.make(m, e)
    assert p.mantissa.numerator % 2 == 1
    assert p.mantissa.denominator % 2 == 1
    # value preserved: mantissa * 2**exp2 == m * 2**e as exact rationals
    shift = p.exp2 - e
    assert shift.denominator == 1
    assert p.mantissa * F(2) ** shift.numerator == m
    again = ExactProb.make(p.mantissa, p.exp2)
    assert again == p


def test_log2_split_and_rationality():
    third = ExactProb.make(F(1, 3))
    lv = third.log2()
    assert not lv.is_rational
    assert lv.to_float() == pytest.approx(math.log2(1 / 3), abs=1e-15)

    eighth = ExactProb.make(F(1, 8))
    assert eighth.log2().is_rational
    (row,), basis = log_rows([eighth.log2()])
    assert frac_log(row, [1], 1, basis) == [0]
    assert eighth.log2().to_float() == -3.0

    three_quarters = ExactProb.make(F(3, 4))
    lv = three_quarters.log2()
    assert (lv.rational, lv.mantissa) == (F(-2), F(3))
    assert not lv.is_rational


def test_log2_value_arithmetic():
    # logs are combined as integer rows over one coprime base, read back through base powers
    a = Log2Value.make(F(-2), F(3))     # log2(3/4)
    b = Log2Value.make(F(0), F(1, 3))   # log2(1/3)
    c = Log2Value.make(F(1, 3))         # a rational counts as the log2 of a power of two
    (ra, rb, rc), basis = log_rows([a, b, c])
    assert basis == LogBasis(3, (3,))
    total = row_log2value(ra + rb, basis)
    assert total.is_rational and total.rational == F(-2)
    assert row_log2value(ra - ra, basis) == Log2Value.make()
    assert row_log2value(3 * ra, basis) == a.scaled(3) and a.scaled(3).mantissa == F(27)
    assert row_log2value(-2 * rb, basis) == b.scaled(-2) and row_log2value(0 * ra, basis) == Log2Value.make()
    assert row_log2value(ra - rc, basis) == Log2Value(F(-7, 3), F(3))
    assert row_log2value(-rb, basis).mantissa == F(3)
    # float of 0.75 matches a bit-counting oracle: log2 x = k + log2(x / 2**k)
    assert a.to_float() == pytest.approx(-0.4150374992788438, abs=1e-15)


# denominators of the continued-fraction convergents of log2 3: k log2 3 comes closest to an integer there
LOG2_3_CONVERGENT_DENS = [1, 2, 5, 12, 41, 53, 306, 665, 15601, 31867, 79335, 111202, 190537, 10781274,
                          10971811, 53577776, 171586513, 225164289]


def test_frac_scaled_equals_the_decimal_reduction():
    ks = [c + e for c in LOG2_3_CONVERGENT_DENS for e in (-1, 0, 1)]
    ks += [-k for k in ks] + [2**64 - 1, 2**64, 2**64 + 1, 3 * 2**70 + 12345, -(2**64) - 7, 2**100 + 665]
    for mantissa in (F(3), F(1, 3), F(5, 3), F(3**40, 5**17)):
        for rational in (F(0), F(1, 3), F(-5, 7), F(7, 4)):
            x = Log2Value(rational, mantissa)
            (row,), basis = log_rows([x])
            for den in (1, 2, 3, 1009):
                got = frac_log(row, ks, den, basis)
                assert ((0 <= got) & (got < 1)).all()
                assert got.tolist() == frac_scaled_reference(x, ks, den).tolist(), (x, den)
                for k in ks[::7]:  # alone, at the fixed point and precision of k itself
                    assert frac_log(row, [k], den, basis)[0] == frac_scaled_reference(x, [k], den)[0], (x, den, k)
    (row,), basis = log_rows([Log2Value(F(1, 3), F(3))])
    assert len(frac_log(row, [], 1, basis)) == 0


def test_float_log_by_repeated_squaring_oracle():
    # independent oracle: extract 40 binary digits of log2(0.75) by squaring
    weight = 0.5
    y = 0.75 * 2  # normalize into [1, 2); the shift contributes the integer part -1
    acc = -1.0
    for _ in range(40):
        y = y * y
        if y >= 2.0:
            acc += weight
            y /= 2.0
        weight /= 2.0
    assert ExactProb.make(F(3, 4)).log2().to_float() == pytest.approx(acc, abs=1e-11)


def test_parse_prob_spec_forms():
    assert parse_prob_spec("1/3") == ExactProb.make(F(1, 3))
    assert parse_prob_spec("2^(-1/2)") == ExactProb(F(1), F(-1, 2))
    assert parse_prob_spec("3 * 2^(-2)") == ExactProb(F(3), F(-2))
    assert parse_prob_spec("0") is ZERO
    assert parse_prob_spec("2^-3") == ExactProb(F(1), F(-3))
    with pytest.raises(ValueError):
        parse_prob_spec("x/3")
    with pytest.raises(ValueError):
        parse_prob_spec("-1/3")


@given(positive_rationals, exponents)
def test_prob_spec_round_trip(m, e):
    p = ExactProb.make(m, e)
    assert parse_prob_spec(format_prob_spec(p)) == p


def test_value_at_most_one():
    assert ExactProb.make(F(1)).value_at_most_one()
    assert ExactProb.make(F(1), F(-1, 2)).value_at_most_one()
    assert not ExactProb.make(F(3), F(-1)).value_at_most_one()
    assert ExactProb.make(F(3), F(-2)).value_at_most_one()
    # log2(1 +- 2^-100) is about 1.1e-30, below the error bound of the first
    # 30-digit sum, so each is decided at 60 digits
    assert not ExactProb.make(2**100 + 1, -100).value_at_most_one()
    assert ExactProb.make(2**100 - 1, -100).value_at_most_one()


# continued fraction convergents p/q of log2(3): 3 * 2^(-p/q) lies closest to 1 of all exponents
# with denominators up to q, so the bit lengths leave these to the decimal evaluation
LOG2_3_CONVERGENTS = [(3, 2), (8, 5), (19, 12), (65, 41), (84, 53), (485, 306), (1054, 665),
                      (24727, 15601), (50508, 31867)]


@pytest.mark.parametrize("p, q", LOG2_3_CONVERGENTS)
@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_value_at_most_one_near_one_matches_the_exact_power(p, q, shift):
    for m, sign in ((F(3), 1), (F(1, 3), -1)):
        a = -sign * (p + shift)
        assert ExactProb(m, F(a, q)).value_at_most_one() == (m**q * F(2) ** a <= 1)


def test_value_at_most_one_forms_no_power():
    # 3^(10^12) or 2^(10^400) could not be formed; each of these is decided at once
    assert not ExactProb(F(3), F(-1584962500721, 10**12)).value_at_most_one()
    assert ExactProb(F(3), F(-1584962500722, 10**12)).value_at_most_one()
    assert not ExactProb(F(1), F(10**400)).value_at_most_one()
    assert ExactProb(F(1, 3), F(10**400 + 1, 10**400)).value_at_most_one()
    assert not ExactProb(F(1), F(1, 10**400)).value_at_most_one()


def test_approximate_rational_heuristic():
    assert approximate_rational(0.5) == F(1, 2)
    assert approximate_rational(1 / 3) == F(1, 3)
    assert approximate_rational(math.log2(3)) is None
    assert approximate_rational(math.sqrt(2)) is None


def test_common_denominator_one_decision_for_both_kinds():
    third = ExactProb.make(F(1, 3)).log2()
    rows, basis = log_rows([Log2Value.make(F(1, 6)), Log2Value.make(F(-3, 4)), third])
    assert common_denominator(rows[:2], basis) == 12
    assert common_denominator(rows[[0, 2]], basis) is None
    assert common_denominator(rows[2:] - rows[2:], basis) == 1
    assert common_denominator(rows[:0], basis) == 1
    assert common_denominator([1 / 6, -0.75]) == 12
    assert common_denominator([1 / 6, math.log2(3)]) is None
    assert common_denominator([]) == 1


def test_exact_prob_equality_and_hash_by_value():
    a, b = ExactProb.make(F(3, 4)), ExactProb.make(F(3), -2)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != ExactProb.make(F(3, 8)) and a != 0.75
