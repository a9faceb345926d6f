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
from orbita.maps import iterate_map, parse_map
from orbita.suites import CORPUS


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


def _textbook_bareiss(m):
    """The textbook fraction-free determinant: every row below the pivot updated at every step."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact division is the Bareiss invariant
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _sylvester(F, G):
    d = form_degree(F)
    return [[0] * s + list(H) + [0] * (d - 1 - s) for H in (F, G) for s in range(d)]


def _oracle_pair(rng, kind):
    """Two forms of one degree in 1..16 with coefficients of 1..64 bits, shaped by kind."""
    d = 1 + int(16 * rng.random() ** 4)  # low degrees often, every degree up to 16
    bits = rng.randint(1, 64)

    def coefficient():
        return rng.choice((0, rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits)))

    def draw(degree):
        return [coefficient() for _ in range(degree + 1)]

    F, G = draw(d), draw(d)
    if kind == "zero ends":
        # leading zeros make the pivot search swap a fresh row up
        for H in (F, G):
            lead = rng.randint(0, d)
            H[:lead] = [0] * lead
            if rng.random() < 0.5:
                H[-1] = 0
    elif kind == "content":
        c = rng.randint(2, 2**bits + 1)
        F, G = [c * a for a in F], [c * a for a in G]
    elif kind == "negative leads":
        F[0], G[0] = -abs(F[0]) - 1, -abs(G[0]) - 1
    elif kind == "multiple":
        c = rng.choice((-1, 1)) * rng.randint(1, 2**bits)
        G = [c * a for a in F]
    elif kind == "shared factor":
        root = (rng.randint(-(2**bits), 2**bits), rng.randint(-(2**bits), 2**bits))
        F, G = (multiply_forms(root, H[1:]) for H in (F, G))
    return tuple(F), tuple(G)


def test_resultant_matches_textbook_bareiss_on_seeded_pairs():
    rng = random.Random(20261020)
    kinds = ("plain", "zero ends", "content", "negative leads", "multiple", "shared factor")
    vanishing = swaps = 0
    for case in range(2004):
        kind = kinds[case % len(kinds)]
        F, G = _oracle_pair(rng, kind)
        expected = _textbook_bareiss(_sylvester(F, G))
        assert resultant(F, G) == expected, (kind, F, G)
        if kind in ("multiple", "shared factor"):
            assert expected == 0, (kind, F, G)
        vanishing += expected == 0
        swaps += F[0] == 0 != G[0]
    assert vanishing >= 800 and swaps >= 250, (vanishing, swaps)


def test_resultant_matches_textbook_bareiss_on_corpus_composites():
    degrees = set()
    for expr, _ in CORPUS:
        m = parse_map(expr)
        for k in range(1, 5):
            mk = iterate_map(m, k)
            if mk.degree > 16:
                break
            assert mk.res == _textbook_bareiss(_sylvester(mk.F, mk.G)), (expr, k)
            degrees.add(mk.degree)
    assert degrees == {1, 2, 3, 4, 8, 9, 16}
