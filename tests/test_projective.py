import random
import sys
from fractions import Fraction
from math import inf

import pytest

from orbita.numtheory import factor
from orbita.projective import (
    INFINITE_DISTANCE,
    ProjectivePoint,
    canonical_point,
    cross_term,
    _DigitLimitError,
    _read_int,
    _read_rational,
    distance_table,
    from_pair,
    log_distance,
    parse_point,
)


def test_canonical_constructor_validation():
    with pytest.raises(ValueError):
        ProjectivePoint(0, 0)
    with pytest.raises(ValueError):
        ProjectivePoint(2, 4)
    with pytest.raises(ValueError):
        ProjectivePoint(1, -1)
    with pytest.raises(ValueError):
        ProjectivePoint(-1, 0)  # infinity must be [1:0]


def test_from_pair_canonicalizes():
    assert from_pair(2, 4) == ProjectivePoint(1, 2)
    assert from_pair(-2, -4) == ProjectivePoint(1, 2)
    assert from_pair(1, -2) == ProjectivePoint(-1, 2)
    assert from_pair(Fraction(1, 3), Fraction(1, 6)) == ProjectivePoint(2, 1)
    assert from_pair(5, 0) == ProjectivePoint(1, 0)
    assert from_pair(0, -3) == ProjectivePoint(0, 1)


def test_from_pair_is_proportional_to_its_rational_pair():
    # ProjectivePoint itself checks coprimality and sign, so proportionality
    # in Fraction arithmetic pins the one canonical point
    rng = random.Random(5)
    for _ in range(2000):
        bits = rng.choice((3, 16, 64))
        x, y = (
            rng.randint(-(1 << bits), 1 << bits) * rng.choice((0, 1, 1, 1))
            for _ in range(2)
        )
        if x == 0 and y == 0:
            continue
        if rng.random() < 0.5:
            x = Fraction(x, rng.randint(1, 1 << bits))
            y = Fraction(y, rng.randint(1, 1 << bits))
        P = from_pair(x, y)
        assert P.x * Fraction(y) == P.y * Fraction(x)
    for pair in ((0, 0), (Fraction(0), Fraction(0)), (0, Fraction(0))):
        with pytest.raises(ValueError):
            from_pair(*pair)


def test_canonical_point_and_affine_roundtrip():
    P = canonical_point(Fraction(-7, 4))
    assert (P.x, P.y) == (-7, 4)
    assert canonical_point(inf) == ProjectivePoint(1, 0)
    with pytest.raises(TypeError):
        canonical_point(0.5)


@pytest.mark.parametrize(
    "text,point",
    [
        ("3", ProjectivePoint(3, 1)),
        ("-1/4", ProjectivePoint(-1, 4)),
        ("inf", ProjectivePoint(1, 0)),
        ("oo", ProjectivePoint(1, 0)),
        ("[2:4]", ProjectivePoint(1, 2)),
        ("[-3 : 6]", ProjectivePoint(-1, 2)),
        (" 7/2 ", ProjectivePoint(7, 2)),
        ("2.5", ProjectivePoint(5, 2)),  # decimal strings are exact rationals
        ("1e3", ProjectivePoint(1000, 1)),
        ("-2.5e-3", ProjectivePoint(-1, 400)),
        ("1_0e1", ProjectivePoint(100, 1)),
    ],
)
def test_parse_point(text, point):
    assert parse_point(text) == point


@pytest.mark.parametrize("text", ["", "z", "[1:2:3]", "[0:0]", "1/0", "2..5"])
def test_parse_point_rejects(text):
    with pytest.raises(ValueError):
        parse_point(text)


@pytest.mark.parametrize(
    ("text", "digits"),
    [
        # written out: an integer part of len(w) + k digits, a fraction of len(f) - k
        ("1e4299", None),
        ("1e4300", 4301),
        ("0e4300", 4301),
        ("1e-4300", None),
        ("1e-4301", 4301),
        ("12.5e4299", 4301),
        ("1.25e-4299", 4301),
        ("-.5e-4300", 4301),
        ("1_0e4_299", 4301),
        # every run of digits is one integer that Fraction forms
        pytest.param("7" * 4300, None, id="4300-digits"),
        pytest.param("7" * 4301, 4301, id="4301-digits"),
        pytest.param("0" * 4301, 4301, id="4301-zeros"),
        pytest.param(f"1/{'7' * 4301}", 4301, id="4301-digit-denominator"),
        pytest.param(f"{'7' * 4301}.5", 4301, id="4301-digit-whole-part"),
        pytest.param(f"{'7' * 4300}.{'7' * 4300}", None, id="4300-digits-each-side"),
        # an exponent that is itself too long is refused before it is read
        pytest.param("1e" + "0" * 4301, 4301, id="4301-digit-exponent"),
    ],
)
def test_literal_limited_by_the_digits_it_stands_for(text, digits):
    if digits is None:
        assert _read_rational(text) == Fraction(text)
    else:
        refusal = f"stands for {digits} digits, over the limit of 4300"
        with pytest.raises(_DigitLimitError, match=refusal):
            _read_rational(text)


def test_literal_limit_follows_python():
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(5000)
        assert _read_rational("1e-5000") == Fraction(1, 10**5000)
        with pytest.raises(ValueError, match="over the limit of 5000"):
            _read_rational("1e5000")
        # "no limit" keeps Python's default, so a literal's cost stays bounded
        sys.set_int_max_str_digits(0)
        with pytest.raises(ValueError, match="over the limit of 4300"):
            _read_rational("1e100000000")
    finally:
        sys.set_int_max_str_digits(limit)


def test_integer_literal_held_to_the_same_limit():
    assert _read_int(" -" + "7" * 4300) == -int("7" * 4300)
    assert _read_int("1_000") == 1000
    refusal = "stands for 4301 digits, over the limit of 4300"
    for text in ("7" * 4301, "1_" * 4300 + "1"):
        with pytest.raises(_DigitLimitError, match=refusal):
            _read_int(text)
    with pytest.raises(ValueError, match="invalid literal"):
        _read_int("12x")
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(5000)
        assert _read_int("7" * 4301) == int("7" * 4301)
        sys.set_int_max_str_digits(0)
        with pytest.raises(_DigitLimitError, match="over the limit of 4300"):
            _read_int("7" * 4301)
    finally:
        sys.set_int_max_str_digits(limit)


def test_log_distance_basic():
    P = canonical_point(Fraction(1, 4))
    Q = canonical_point(Fraction(7, 4))
    # cross term 1*4 - 7*4 = -24
    assert log_distance(P, Q, 2) == 3
    assert log_distance(P, Q, 3) == 1
    assert log_distance(P, Q, 5) == 0


def test_log_distance_to_infinity():
    # distance to [1:0] sees the denominator
    P = canonical_point(Fraction(3, 8))
    assert log_distance(P, ProjectivePoint(1, 0), 2) == 3
    assert log_distance(P, ProjectivePoint(1, 0), 3) == 0


def test_log_distance_equal_points_is_infinite():
    P = canonical_point(5)
    assert log_distance(P, P, 2) == INFINITE_DISTANCE
    assert log_distance(P, P, 2) > 10**100


def test_log_distance_nonnegative_on_samples():
    pts = [canonical_point(Fraction(a, b)) for a, b in [(1, 1), (3, 7), (-2, 5), (9, 4)]]
    for P in pts:
        for Q in pts:
            if P != Q:
                for p in (2, 3, 5, 7):
                    assert log_distance(P, Q, p) >= 0


def test_two_point_distance_table():
    P = canonical_point(Fraction(1, 4))
    Q = canonical_point(Fraction(7, 4))
    assert list(distance_table((P, Q))) == [(0, 1)]
    # (p, d_p) pairs with positive distance, primes ascending
    assert list(distance_table((P, Q))[0, 1].items()) == [(2, 3), (3, 1)]
    # unit cross term: no prime at positive distance
    assert distance_table((canonical_point(0), canonical_point(1)))[0, 1] == {}
    with pytest.raises(ValueError):
        distance_table((P, P))


def test_two_point_distance_table_is_the_factored_cross_term():
    rng = random.Random("two-point")
    pts = [from_pair(rng.randint(-255, 255), rng.randint(1, 255)) for _ in range(400)]
    for P, Q in zip(pts[::2], pts[1::2]):
        if P != Q:
            expected = list(factor(cross_term(P, Q)).items())
            assert list(distance_table((P, Q))[0, 1].items()) == expected


def test_symmetry_of_distance():
    P = canonical_point(Fraction(5, 6))
    Q = canonical_point(Fraction(-7, 10))
    for p in (2, 3, 5, 7, 11):
        assert log_distance(P, Q, p) == log_distance(Q, P, p)
