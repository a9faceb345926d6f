"""Differential tests of the bounds layer's exact-integer logs and directed rendering.

Each test keeps the former implementation here as its oracle: the interval
log of an integer converted to an interval (`ctx.log(ctx.mpf(n))`), and
`decimal_str` deciding each candidate string by two `libmp.from_str` brackets
at 4*digits+64 bits.
"""

import random
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction

import mpmath
from mpmath import libmp, mp

from orbita.bounds import decimal_str, ln_interval


def _oracle_ln(n, dps):
    ctx = mpmath.ctx_iv.MPIntervalContext()
    ctx.dps = dps
    lo, hi = ctx.log(ctx.mpf(n))._mpi_
    return lo, hi, ctx.prec


def _oracle_decimal_str(value, digits, upward):
    s = libmp.to_str(value._mpf_, digits)
    prec = digits * 4 + 64
    for _ in range(12):
        lo = mp.make_mpf(libmp.from_str(s, prec, "d"))
        hi = mp.make_mpf(libmp.from_str(s, prec, "u"))
        if upward and lo >= value:
            return s
        if not upward and hi <= value:
            return s
        d = Decimal(s)
        ulp = Decimal((0, (1,), d.as_tuple().exponent))
        dctx = Context(prec=len(d.as_tuple().digits) + 4, Emax=MAX_EMAX, Emin=MIN_EMIN)
        d = dctx.add(d, ulp) if upward else dctx.subtract(d, ulp)
        s = str(d).lower()
    raise AssertionError("directed decimal rendering failed to converge")


def _integers(rng, count, max_bits):
    fixed = [1, 2, 3, 10, 38, 2**64, 2**64 - 1, 2**64 + 1]
    fixed += [2**k for k in range(1, max_bits, 37)] + [10**k for k in range(1, max_bits // 4, 11)]
    out = list(fixed)
    while len(out) < count:
        out.append(rng.randrange(1, 2 ** rng.randrange(1, max_bits)))
    return out


def test_ln_of_an_integer_matches_the_interval_log_endpoint_for_endpoint():
    # integers that fit the working precision convert to a point interval, so
    # the former code ran mpf_log twice on the same argument; the helper runs
    # it once, and its upper end is never below the former one
    rng = random.Random("ln-int")
    widened = 0
    for dps, count in ((60, 1200), (200, 500), (1000, 300)):
        _, _, prec = _oracle_ln(1, dps)
        for n in _integers(rng, count, prec):
            lo, hi, _ = _oracle_ln(n, dps)
            new_lo, new_hi = (x._mpf_ for x in ln_interval(n, dps))
            assert new_lo == lo, (n, dps)
            if new_hi != hi:
                # only when the floor rounding was exact; then one step above
                assert lo == hi and new_hi == libmp.mpf_perturb(lo, 0, prec, "c"), (n, dps)
                widened += 1
    assert widened <= 3


def test_ln_of_a_wide_integer_nests_inside_the_interval_log():
    # an integer wider than the precision used to be rounded to an interval
    # first; the helper logs the exact integer, a subset of that enclosure
    rng = random.Random("ln-wide")
    for dps in (60, 200):
        _, _, prec = _oracle_ln(1, dps)
        for _ in range(300):
            n = rng.randrange(2**prec, 2 ** (prec + rng.randrange(1, 400)))
            lo, hi, _ = _oracle_ln(n, dps)
            new_lo, new_hi = (x._mpf_ for x in ln_interval(n, dps))
            assert libmp.mpf_le(lo, new_lo) and libmp.mpf_le(new_lo, new_hi)
            assert libmp.mpf_le(new_hi, hi)
            with mp.workprec(prec + 64):
                assert mp.make_mpf(new_lo) <= mp.log(n) <= mp.make_mpf(new_hi)


def _values(rng, digits):
    """Random values at a working precision, plus the edge cases of a rendering."""
    prec = libmp.dps_to_prec(digits)
    wide = prec + 400  # wider than the rendering, as a magnitude's log10 is
    out = [mp.make_mpf(libmp.fzero), mp.make_mpf(libmp.from_int(10 ** (digits - 1)))]
    out += [mp.make_mpf(libmp.from_int(k)) for k in (1, 7, 10**digits - 1, -(10**digits))]
    for _ in range(500):
        bits = rng.choice((prec, wide))
        man = rng.randrange(2 ** (bits - 1), 2**bits)
        kind = rng.randrange(4)
        if kind == 0:  # exactly `digits` integer digits
            x = libmp.from_rational(rng.randrange(10 ** (digits - 1), 10**digits) * 2**bits + man,
                                    2**bits, bits, "n")
        elif kind == 1:  # an exact integer
            x = libmp.from_int(man >> rng.randrange(bits))
        elif kind == 2:  # a magnitude past 10^10000, as ESS's log reaches
            x = libmp.from_man_exp(man, rng.randrange(34000, 80000), bits)
        else:
            x = libmp.from_man_exp(man, rng.randrange(-bits - 300, 300), bits)
        if rng.random() < 0.3:
            x = libmp.mpf_neg(x)
        out.append(mp.make_mpf(x))
    return out


def test_decimal_str_matches_the_from_str_bracket_version():
    rng = random.Random("decimal-str")
    checked = 0
    for digits in (8, 15, 60, 200):
        for value in _values(rng, digits):
            for upward in (True, False):
                got = decimal_str(value, digits, upward)
                assert got == _oracle_decimal_str(value, digits, upward), (value, digits, upward)
                checked += 1
    assert checked >= 2000


def test_decimal_str_past_the_int_string_limit():
    # 5000-digit strings: the former brackets parsed them with int(), which
    # Python refuses past 4300 digits; the renderings must still be directed
    with mp.workdps(5000):
        x = mp.log(mp.mpf(38))
    sign, man, exp, _ = x._mpf_
    exact = Fraction(man) * Fraction(2) ** exp
    for upward in (True, False):
        s = decimal_str(x, 5000, upward)
        assert len(s) > 4300
        assert (Fraction(Decimal(s)) >= exact) if upward else (Fraction(Decimal(s)) <= exact)


def test_decimal_str_of_a_value_equal_to_its_rendering_past_ten_to_the_10000():
    # the bracket of c*10^e cannot separate it from an equal value, so the
    # exact comparison decides, and the string itself is returned both ways
    for c, e in ((12345, 10_020), (-7, 10_500), (999, 11_001)):
        value = mp.make_mpf(libmp.from_int(c * 10**e))
        digits = value._mpf_[3] // 3  # a rendering as wide as the value
        for upward in (True, False):
            s = decimal_str(value, digits, upward)
            assert Decimal(s) == c * Decimal(10) ** e
            assert s == _oracle_decimal_str(value, digits, upward)


def test_decimal_str_of_a_value_a_hair_past_a_short_decimal():
    # 0.5 +- 2^-300 is wider than the 96 bits an 8-digit rendering keeps, so
    # it is rounded away from "0.5" before the comparison, never onto it
    for sign, upward in ((1, True), (-1, False)):
        value = mp.make_mpf(libmp.mpf_add(libmp.from_man_exp(1, -1), libmp.from_man_exp(sign, -300)))
        s = decimal_str(value, 8, upward)
        assert Fraction(Decimal(s)) > Fraction(1, 2) if upward else Fraction(Decimal(s)) < Fraction(1, 2)
        assert s == _oracle_decimal_str(value, 8, upward)
