import random
from functools import reduce
from fractions import Fraction

import pytest

from orbita import forms, maps
from orbita.maps import (
    DEFAULT_COEFF_BITS,
    MAX_DEGREE,
    MAX_DEPTH,
    MapSyntaxError,
    RationalMap,
    bad_primes,
    compose_maps,
    conjugate,
    evaluate,
    good_reduction_at,
    iterate_map,
    make_map,
    map_to_expr,
    moebius_order,
    parse_map,
    read_map,
)
from orbita.numtheory import BudgetError
from orbita.projective import ProjectivePoint, canonical_point, from_pair


class TestParsing:
    def test_polynomial(self):
        m = parse_map("z^2 - 1")
        assert m.F == (1, 0, -1)
        assert m.G == (0, 0, 1)

    def test_rational_coefficients_cleared(self):
        m = parse_map("z^2 - 29/16")
        assert m.F == (16, 0, -29)
        assert m.G == (0, 0, 16)
        assert m.res == 65536

    def test_quotient(self):
        m = parse_map("(z^2 - 1)/z")
        assert m.F == (1, 0, -1)
        assert m.G == (0, 1, 0)

    def test_reciprocal(self):
        m = parse_map("1/z")
        assert m.F == (0, 1)
        assert m.G == (1, 0)

    def test_unary_minus_and_minus_sign_alias(self):
        m = parse_map("− z^2 + 1")
        assert m.F == (-1, 0, 1)

    def test_common_factor_cancelled(self):
        m = parse_map("(z^2 - z)/(z - 1)")  # z(z-1)/(z-1) = z
        assert (m.F, m.G) == ((1, 0), (0, 1))

    def test_greedy_rational_literal(self):
        # "1/2^3" binds the exponent to the literal: (1/2)^3
        m = parse_map("z + 1/2^3")
        assert evaluate(m, canonical_point(0)) == canonical_point(Fraction(1, 8))

    def test_power_binds_tighter_than_product(self):
        m = parse_map("2*z^2")
        assert evaluate(m, canonical_point(3)) == canonical_point(18)

    def test_nested_parens(self):
        m = parse_map("((z + 1)^2 - (z - 1)^2)/4")  # = z
        assert (m.F, m.G) == ((1, 0), (0, 1))

    def test_division_by_zero_function(self):
        with pytest.raises(MapSyntaxError):
            parse_map("z/(z - z)")

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            parse_map("3/4")
        with pytest.raises(ValueError):
            parse_map("(z + 1)/(z + 1)")

    @pytest.mark.parametrize(
        "text",
        ["", "z +", "z^", "(z", "z)", "z^-2", "w + 1", "z**2", "1/2/", "z^2^3", "^2", "z^²", "z^2²"],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(MapSyntaxError):
            parse_map(text)

    def test_power_of_power_needs_parens(self):
        m = parse_map("(z^2)^3")
        assert m.F == (1,) + (0,) * 6
        # while z^1/2 is (z^1)/2 by the factor grammar
        assert parse_map("z^1/2") == parse_map("z/2")

    def test_syntax_error_carries_position(self):
        with pytest.raises(MapSyntaxError) as info:
            parse_map("z + @")
        assert info.value.position == 4

    def test_degree_budget(self):
        with pytest.raises(BudgetError):
            parse_map(f"z^{MAX_DEGREE + 1}")

    def test_budget_applies_to_the_unreduced_expression(self):
        assert parse_map(f"z^{MAX_DEGREE}/z^{MAX_DEGREE - 1}") == parse_map("z")
        with pytest.raises(BudgetError):
            parse_map("z^200/z^199")

    def test_coefficient_budget(self):
        assert parse_map(f"z + 2^{DEFAULT_COEFF_BITS - 1}").F[1] == 2 ** (DEFAULT_COEFF_BITS - 1)
        with pytest.raises(BudgetError):
            parse_map(f"z + 2^{DEFAULT_COEFF_BITS}")

    def test_depth_budget(self):
        assert parse_map("(" * MAX_DEPTH + "z" + ")" * MAX_DEPTH) == parse_map("z")
        with pytest.raises(BudgetError, match=f"parenthesis depth {MAX_DEPTH + 1} exceeds"):
            parse_map("(" * (MAX_DEPTH + 1) + "z" + ")" * (MAX_DEPTH + 1))
        # refused before the descent, so an ill-formed, unbalanced text too
        with pytest.raises(BudgetError) as info:
            parse_map("@" + "(" * 250)
        assert str(info.value) == f"parenthesis depth 250 exceeds budget {MAX_DEPTH}"

    def test_read_map_computes_no_resultant(self, monkeypatch):
        monkeypatch.setattr(maps, "resultant", None)
        assert read_map("z^2 - 29/16") == ([16, 0, -29], [0, 0, 16])
        assert read_map("(z^2 - 1)/(2*z - 2)") == ([1, 1], [0, 2])

    def test_common_factor_removed_over_the_integers(self):
        # content and a shared quadratic factor cancel; the model has content 1
        m = parse_map("(6*z^2 - 4)*(3*z^2 + z - 1)/((3*z^2 + z - 1)*(9*z - 6))")
        assert (m.F, m.G) == ((6, 0, -4), (0, 9, -6))
        assert parse_map("(4*z^2 - 1)/(2*z + 1)") == parse_map("2*z - 1")


def _roundtrip_corpus():
    fixed = [
        "z",
        "-z",
        "z + 1",
        "z - 1",
        "1/z",
        "-1/z",
        "z^2",
        "z^2 - 1",
        "z^2 - 29/16",
        "z^2 + z + 1",
        "(z^2 - 1)/z",
        "(z^2 + 1)/(z^2 - 1)",
        "-1/(z + 1)",
        "z^3 - 2*z",
        "(2*z + 3)/(5*z - 7)",
        "z^2/2 + 1/2",
        "7/(3*z^2 + 1)",
        "(z - 1)*(z + 1)/z",
        "z^4 + 1/16",
        "1/z^2",
        "(z^3 + z)/(z^2 - 4)",
        "3*z^5 - z^2 + 1/3",
        "z*(z - 1)*(z - 2)",
        "(z^2 - 2)/(2*z)",
        "2/3*z^2 - 5/7",
    ]
    generated = []
    for a in (1, -2, 3):
        for b in (0, 1, -5):
            for c in (1, 2, 7):
                for d in (1, -1, 4):
                    num = f"{a}*z^2 {'-' if b < 0 else '+'} {abs(b)}"
                    den = f"{c}*z {'-' if d < 0 else '+'} {abs(d)}"
                    generated.append(f"({num})/({den})")
    return fixed + generated[: 100 - len(fixed)]


@pytest.mark.parametrize("text", _roundtrip_corpus())
def test_print_parse_roundtrip(text):
    m = parse_map(text)
    again = parse_map(map_to_expr(m))
    assert again == m


class TestModel:
    def test_content_normalized(self):
        m = make_map((2, 0, -2), (0, 0, 4))
        assert (m.F, m.G) == ((1, 0, -1), (0, 0, 2))

    def test_sign_canonical(self):
        m1 = make_map((1, 0, -1), (0, 0, 1))
        m2 = make_map((-1, 0, 1), (0, 0, -1))
        assert m1 == m2

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            make_map((1, -1), (2, -2))  # common root => resultant 0
        with pytest.raises(ValueError):
            RationalMap((2, 0), (0, 2))  # content 2

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RationalMap((1, 0), (0, 0, 1))


class TestEvaluation:
    def test_affine_and_infinity(self):
        m = parse_map("(z^2 - 1)/z")
        assert evaluate(m, canonical_point(1)) == canonical_point(0)
        assert evaluate(m, canonical_point(0)) == ProjectivePoint(1, 0)
        # at infinity the top-degree coefficients dominate
        assert evaluate(m, ProjectivePoint(1, 0)) == ProjectivePoint(1, 0)

    def test_result_is_canonical(self):
        m = parse_map("z^2")
        Q = evaluate(m, from_pair(2, 6))  # [1:3] -> [1:9]
        assert (Q.x, Q.y) == (1, 9)

    def test_matches_affine_formula(self):
        m = parse_map("(2*z + 3)/(5*z - 7)")
        z = Fraction(11, 4)
        expected = (2 * z + 3) / (5 * z - 7)
        assert evaluate(m, canonical_point(z)) == canonical_point(expected)


class TestReduction:
    def test_bad_primes_of_quadratic(self):
        assert bad_primes(parse_map("z^2 - 29/16")) == [2]
        assert bad_primes(parse_map("z^2 - 1")) == []

    def test_good_reduction_at(self):
        m = parse_map("z^2 - 29/16")
        assert not good_reduction_at(m, 2)
        assert good_reduction_at(m, 3)


class TestMoebius:
    # a Moebius transformation is the degree-1 map ((a, b), (c, d)); its resultant is ad - bc
    def test_normalization(self):
        A = make_map((-2, 0), (0, -2))
        assert A == RationalMap((1, 0), (0, 1))
        assert A.res == 1

    def test_apply_and_inverse(self):
        A = make_map((1, -2), (0, 1))
        P = canonical_point(7)
        assert evaluate(A, P) == canonical_point(5)
        adjugate = make_map((1, 2), (0, 1))
        assert evaluate(adjugate, evaluate(A, P)) == P

    def test_compose_matches_apply(self):
        A = make_map((2, 1), (1, 1))
        B = make_map((1, -3), (0, 1))
        P = canonical_point(Fraction(4, 3))
        assert evaluate(compose_maps(A, B), P) == evaluate(A, evaluate(B, P))

    def test_order(self):
        assert moebius_order(make_map((1, 0), (0, 1))) == 1
        assert moebius_order(make_map((0, 1), (-1, 0))) == 2  # z -> -1/z
        assert moebius_order(make_map((0, 1), (1, 0))) == 2  # z -> 1/z
        assert moebius_order(make_map((1, -1), (1, 0))) == 3  # z -> 1 - 1/z
        assert moebius_order(make_map((1, 1), (0, 1))) is None  # translation

    def test_order_matches_the_composition_fold(self):
        # oracle: the least k <= 12 with A^k the identity model, by composing
        def fold(A):
            identity = RationalMap((1, 0), (0, 1))
            acc = A
            for k in range(1, 13):
                if acc == identity:
                    return k
                acc = compose_maps(acc, A)
            return None

        rng = random.Random("moebius-order")
        seen = set()
        for _ in range(2000):
            while True:
                a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
                if a * d != b * c:
                    break
            A = make_map((a, b), (c, d))
            order = moebius_order(A)
            assert order == fold(A), (a, b, c, d)
            seen.add(order)
        assert seen == {1, 2, 3, 4, 6, None}

    def test_order_of_parsed_maps(self):
        assert moebius_order(parse_map("(z - 1)/z")) == 3
        assert moebius_order(parse_map("-1/z")) == 2

    def test_degree_two_rejected(self):
        m = parse_map("z^2 - 1")
        with pytest.raises(ValueError):
            moebius_order(m)
        with pytest.raises(ValueError):
            conjugate(parse_map("z^2 + 1"), m)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            make_map((1, 2), (2, 4))


class TestConjugation:
    def test_translation_conjugate(self):
        # with A = z - 2: A o (z^2) o A^{-1} = (z+2)^2 - 2 = z^2 + 4z + 2
        m = parse_map("z^2")
        A = make_map((1, -2), (0, 1))
        m2 = conjugate(m, A)
        assert m2 == parse_map("z^2 + 4*z + 2")

    def test_pointwise_equivariance(self):
        m = parse_map("(z^2 - 1)/z")
        A = make_map((2, 1), (1, 1))
        for z in (0, 1, Fraction(3, 5), Fraction(-7, 2)):
            P = canonical_point(z)
            assert evaluate(m2 := conjugate(m, A), evaluate(A, P)) == evaluate(A, evaluate(m, P))
        assert m2.degree == m.degree

    def test_unimodular_conjugation_preserves_resultant_size(self):
        m = parse_map("z^2 - 2")
        A = make_map((1, -2), (0, 1))
        assert abs(conjugate(m, A).res) == abs(m.res)

    @pytest.mark.parametrize(
        "text", ["z^2 - 29/16", "(2*z^3 - 5)/(3*z^2 + z)", "7/z", "z^5 + 3*z"]
    )
    @pytest.mark.parametrize(
        "entries", [(1, -2, 0, 1), (0, 1, 1, 0), (2, 1, 1, 1), (1, 3, 1, 2), (3, 5, 1, 2)]
    )
    def test_determinant_one_conjugate_keeps_the_resultant(self, text, entries):
        m = parse_map(text)
        A = make_map(entries[:2], entries[2:])
        assert abs(A.res) == 1
        assert conjugate(m, A).res == m.res

    def test_derived_resultant_matches_sylvester(self):
        # Res(A o m o A^-1) = det(A)^(d^2 + d) Res(m) / c^(2d), c the joint content
        rng = random.Random(20261018)
        seen = {"degrees": set(), "dets": set(), "zero_lead": 0, "content": 0}
        pairs = 0
        while pairs < 2000:
            d = rng.randint(1, 6)
            F = [rng.randint(-5, 5) for _ in range(d + 1)]
            G = [rng.randint(-5, 5) for _ in range(d + 1)]
            if rng.random() < 0.3:
                F[0] = 0
            if rng.random() < 0.3:
                G[0] = 0
            try:
                m = make_map(F, G)
                entries = [rng.randint(-4, 4) for _ in range(4)]
                A = make_map(entries[:2], entries[2:])
            except ValueError:
                continue
            if abs(A.res) > 16:
                continue
            m2 = conjugate(m, A)
            assert m2.res == forms.resultant(m2.F, m2.G), (str(m), str(A))
            pairs += 1
            seen["degrees"].add(d)
            seen["dets"].add(A.res)
            seen["zero_lead"] += m.F[0] == 0 or m.G[0] == 0
            seen["content"] += abs(m2.res) < abs(A.res) ** (d * d + d) * abs(m.res)
        assert seen["degrees"] == set(range(1, 7))
        assert {-16, -1, 1, 16} <= seen["dets"]
        assert seen["zero_lead"] > 100 and seen["content"] > 100

    def test_conjugate_runs_no_sylvester_determinant(self, monkeypatch):
        calls = []

        def counting(F, G):
            calls.append(len(F) - 1)
            return forms.resultant(F, G)

        # a degree-1 make_map runs its own 2x2 determinant, so A is built first
        A, B = make_map((1, -2), (0, 1)), make_map((2, 1), (1, 3))
        monkeypatch.setattr(maps, "resultant", counting)
        m = make_map((1, 0, -29), (0, 0, 16))
        assert calls == [2]
        conjugate(m, A)
        conjugate(m, B)
        assert calls == [2]


class TestComposition:
    def test_iterate_quadratic(self):
        m = parse_map("z^2 - 1")
        m2 = iterate_map(m, 2)
        assert m2 == parse_map("(z^2 - 1)^2 - 1")
        for z in (0, 2, Fraction(1, 3)):
            P = canonical_point(z)
            assert evaluate(m2, P) == evaluate(m, evaluate(m, P))

    def test_iterate_identity_power(self):
        m = parse_map("1/z")
        assert iterate_map(m, 2) == parse_map("z")

    def test_compose_degree_guard(self):
        m = parse_map("z^16")
        with pytest.raises(BudgetError):
            compose_maps(m, parse_map(f"z^{MAX_DEGREE // 16 + 1}"))

    def test_iterate_coefficient_budget(self, monkeypatch):
        # the square's leading coefficient is 2^4500: 4501 bits against 4096
        m = parse_map("2^1500*z^2 + 1")
        calls = []

        def counting(F, G):
            calls.append(len(F) - 1)
            return forms.resultant(F, G)

        monkeypatch.setattr(maps, "resultant", counting)
        with pytest.raises(BudgetError) as info:
            iterate_map(m, 2)
        assert (info.value.observed, info.value.limit) == (4501, DEFAULT_COEFF_BITS)
        assert str(info.value) == f"coefficient size 4501 exceeds budget {DEFAULT_COEFF_BITS}"
        assert calls == []  # refused before the composite's resultant

    def test_iterate_equals_the_fold_of_compose(self):
        # composites up to degree 16: a cubic is iterated at most twice
        rng = random.Random(20261019)
        seen = set()
        maps_drawn = 0
        while maps_drawn < 300:
            d = rng.randint(1, 3)
            k = rng.randint(1, 2 if d == 3 else 4)
            try:
                m = make_map(
                    [rng.randint(-3, 3) for _ in range(d + 1)],
                    [rng.randint(-3, 3) for _ in range(d + 1)],
                )
            except ValueError:
                continue
            fold = reduce(lambda acc, _: compose_maps(m, acc), range(k - 1), m)
            got = iterate_map(m, k)
            assert (got.F, got.G, got.res) == (fold.F, fold.G, fold.res), (str(m), k)
            maps_drawn += 1
            seen.add((d, k))
        assert len(seen) == 10

    @pytest.mark.parametrize(
        ("text", "k", "formed", "observed", "limit"),
        [
            # degree 2^8, refused before the seventh composite is formed
            ("z^2", 8, 6, 256, MAX_DEGREE),
            # degree 3^5, refused before the fourth of five
            ("z^3", 6, 3, 243, MAX_DEGREE),
            # the third composite, m^4, has lead 2^(300 (2^4 - 1)): refused once formed
            ("2^300*z^2 + 1", 5, 3, 4501, DEFAULT_COEFF_BITS),
        ],
    )
    def test_iterate_refuses_where_the_fold_does(
        self, monkeypatch, text, k, formed, observed, limit
    ):
        m = parse_map(text)
        canonical = maps._canonical
        composites = []

        def counting(F, G):
            composites.append(len(F) - 1)
            return canonical(F, G)

        monkeypatch.setattr(maps, "_canonical", counting)
        # a refusal does not depend on the resultants, so skip their Bareiss
        monkeypatch.setattr(maps, "resultant", lambda F, G: 1)
        with pytest.raises(BudgetError) as folded:
            reduce(lambda acc, _: compose_maps(m, acc), range(k - 1), m)
        folded_composites, composites[:] = list(composites), []
        with pytest.raises(BudgetError) as iterated:
            iterate_map(m, k)
        assert composites == folded_composites
        assert len(composites) == formed
        for info in (folded, iterated):
            assert (info.value.observed, info.value.limit) == (observed, limit)
        assert str(iterated.value) == str(folded.value)

    def test_iterate_runs_one_resultant(self, monkeypatch):
        m = parse_map("(z^2 - 1)/(3*z + 2)")
        calls = []

        def counting(F, G):
            calls.append(len(F) - 1)
            return forms.resultant(F, G)

        monkeypatch.setattr(maps, "resultant", counting)
        assert iterate_map(m, 1) is m
        for k in range(2, 6):
            calls.clear()
            composite = iterate_map(m, k)
            assert calls == [2**k]
            assert composite.res == forms.resultant(composite.F, composite.G)
