import random
from fractions import Fraction

import pytest

from orbita.forms import (
    evaluate_form,
    form_degree,
    multiply_forms,
    resultant,
    substitute_forms,
)


def test_degree_and_evaluation():
    f = (1, 0, -1)  # X^2 - Y^2
    assert form_degree(f) == 2
    assert evaluate_form(f, 3, 2) == 5
    assert evaluate_form(f, Fraction(1, 2), 1) == Fraction(-3, 4)


def test_arithmetic():
    f = (1, 1)  # X + Y
    g = (1, -1)  # X - Y
    assert multiply_forms(f, g) == (1, 0, -1)


def test_substitute():
    # (X + Y) o (u, v) = u + v
    h = substitute_forms((1, 1), (1, 0, 0), (0, 0, 1))  # u = X^2, v = Y^2
    assert h == (1, 0, 1)
    # X*Y o (X^2, Y^2) = X^2 Y^2
    assert substitute_forms((0, 1, 0), (1, 0, 0), (0, 0, 1)) == (0, 0, 1, 0, 0)


def _substitute_oracle(f, u, v):
    """The former O(d^2) substitution: every power of u and v rebuilt from 1."""

    def power(g, k):
        out = (1,)
        for _ in range(k):
            out = multiply_forms(out, g)
        return out

    d = form_degree(f)
    out = [0] * (d * form_degree(u) + 1)
    for i, c in enumerate(f):
        if c:
            for j, t in enumerate(multiply_forms(power(u, d - i), power(v, i))):
                out[j] += c * t
    return tuple(out)


def test_substitute_matches_quadratic_oracle():
    rng = random.Random(20261019)

    def draw(degree):
        return tuple(
            rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-(2**40), 2**40)))
            for _ in range(degree + 1)
        )

    zeros = 0
    for _ in range(600):
        d, e = rng.randint(0, 6), rng.randint(0, 4)
        f, u, v = draw(d), draw(e), draw(e)
        h = substitute_forms(f, u, v)
        assert h == _substitute_oracle(f, u, v), (f, u, v)
        x, y = rng.randint(-20, 20), rng.randint(-20, 20)
        image = evaluate_form(u, x, y), evaluate_form(v, x, y)
        assert evaluate_form(h, x, y) == evaluate_form(f, *image)
        zeros += 0 in f + u + v
    assert zeros > 400


def test_substitute_requires_equal_degree():
    with pytest.raises(ValueError):
        substitute_forms((1, 1), (1, 0), (1, 0, 0))


def test_resultant_direct_2x2():
    # res(aX + bY, cX + dY) = ad - bc, degree-1 Sylvester is 2x2
    assert resultant((2, 3), (5, 7)) == 2 * 7 - 3 * 5


def test_resultant_hand_cofactor_4x4():
    # F = X^2 - Y^2, G = X^2 + Y^2; 4x4 Sylvester expanded by hand gives 4
    assert resultant((1, 0, -1), (1, 0, 1)) == 4


def test_resultant_of_split_forms_is_cross_product():
    # res(prod(u_i X - v_i Y), prod(w_j X - z_j Y)) = prod(v_i w_j - u_i z_j)
    first = [(1, -2), (3, 5)]
    second = [(2, 1), (1, -7)]
    F = multiply_forms((first[0][0], -first[0][1]), (first[1][0], -first[1][1]))
    G = multiply_forms((second[0][0], -second[0][1]), (second[1][0], -second[1][1]))
    expected = 1
    for u, v in first:
        for w, z in second:
            expected *= v * w - u * z
    assert resultant(F, G) == expected


def test_resultant_vanishes_on_common_root():
    # both vanish at [1:1]
    F = multiply_forms((1, -1), (1, 2))
    G = multiply_forms((1, -1), (3, 1))
    assert resultant(F, G) == 0


def test_resultant_quadratic_example():
    # res(16X^2 - 29Y^2, 16Y^2) = 16^2 * res(F, Y)^2 = 16^4
    assert resultant((16, 0, -29), (0, 0, 16)) == 65536


def test_resultant_sl2_invariance():
    # substituting a determinant-1 change of variables preserves the resultant
    F = (2, -1, 3)
    G = (1, 4, -5)
    a, b, c, d = 2, 3, 1, 2  # det 1
    u = (a, b)
    v = (c, d)
    F2 = substitute_forms(F, u, v)
    G2 = substitute_forms(G, u, v)
    assert resultant(F2, G2) == resultant(F, G)


def test_resultant_requires_equal_degree():
    with pytest.raises(ValueError):
        resultant((1, 0), (1, 0, 0))
