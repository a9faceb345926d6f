"""End-to-end command-line behavior, including the exit status taxonomy."""

import json
import os
import re
import shutil
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from orbita import bounds as _bounds
from orbita import cli, forms, maps, numtheory, orbits, projective, suites, sunit
from orbita.numtheory import BudgetError, factor, is_prime
from orbita.orbits import CertificateCheckError
from orbita.suites import SuiteReport

SRC = str(Path(__file__).resolve().parents[1] / "src")

KNOWN = (
    "BeukersSchlickewei, CanciC, ESS, KRun, MortonSilverman, NarkiewiczPezdaOrbit, "
    "NpTail, PezdaBR, Pgl2Order, TwoWaysIdeals"
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOrbit:
    def test_human_output(self, capsys):
        code, out, err = run(capsys, "orbit", "--map", "z^2 - 1", "--point", "1")
        assert code == 0
        assert err == ""
        assert "tail length m = 1, period n = 2" in out
        assert "[1:1] -> [0:1] -> [-1:1]" in out
        assert "bad primes: (none); s = 1" in out
        assert "bounds satisfied: yes" in out

    def test_json_output(self, capsys):
        code, out, err = run(
            capsys, "orbit", "--map", "z^2 - 29/16", "--point=-1/4", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "orbit"
        assert doc["schema"] == "orbita/1"
        assert doc["tail_length"] == "0"
        assert doc["period"] == "3"
        assert doc["bad_primes"] == ["2"]
        assert doc["bounds"]["satisfied"] is True

    def test_negative_point_without_equals_sign(self, capsys):
        # "--point -1/4" must not be read as an option named "-1/4"
        code, out, err = run(
            capsys, "orbit", "--map", "z^2 - 29/16", "--point", "-1/4", "--json"
        )
        assert code == 0
        assert json.loads(out)["period"] == "3"

    def test_bad_map_exits_2(self, capsys):
        code, out, err = run(capsys, "orbit", "--map", "z^2 +", "--point", "1")
        assert code == 2
        assert "orbita: error:" in err

    def test_bad_point_exits_2(self, capsys):
        code, _, err = run(capsys, "orbit", "--map", "z^2", "--point", "1/0")
        assert code == 2
        assert "orbita: error:" in err

    @pytest.mark.parametrize("flag", ["--max-steps", "--max-bits"])
    def test_budget_flags_exit_2(self, capsys, flag):
        # the budgets are fixed; argparse refuses the former flags
        code, out, err = run(capsys, "orbit", "--map", "z + 1", "--point", "0", flag, "5")
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {flag} 5" in err

    def test_step_budget_exits_3(self, capsys):
        code, _, err = run(capsys, "orbit", "--map", "z + 1", "--point", "0")
        assert code == 3
        assert err == "orbita: error: budget exhausted: orbit points 10001 exceeds budget 10000\n"

    def test_bit_budget_exits_3(self, capsys):
        code, _, err = run(capsys, "orbit", "--map", "z^2", "--point", "2")
        assert code == 3
        assert err == (
            "orbita: error: budget exhausted: orbit coordinate bits 4097 exceeds budget 4096\n"
        )

    def test_invariant_breach_exits_5(self, capsys, monkeypatch):
        def breach(cert):
            raise CertificateCheckError("forced for the exit-status test")

        monkeypatch.setattr(orbits, "run_certificate_checks", breach)
        code, _, err = run(capsys, "orbit", "--map", "z^2 - 1", "--point", "1")
        assert code == 5
        assert "internal invariant breach" in err

    def test_json_deterministic(self, capsys):
        argv = ("orbit", "--map", "z^2 - 29/16", "--point", "7/4", "--json")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


    def test_period_four_conjugate_certifies(self, capsys):
        # Res of the 4-fold composite does not factor within budget; its
        # bad primes are derived from the certificate's, which cover them
        code, out, err = run(
            capsys, "orbit", "--map", "(-41536*z^2 - 65200*z - 25536)/(36973*z^2 - 19152)",
            "--point", "[-4:1]", "--json",
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["tail_length"], doc["period"]) == ("0", "4")
        assert all(doc["checks"].values()) and doc["bounds"]["satisfied"]


class TestParseBudget:
    @pytest.mark.parametrize("text", ["(z+1)^3000", "(z+1)^1000", "z*2^99999999999"])
    def test_oversized_expressions_exit_3_at_once(self, capsys, text):
        start = time.perf_counter()
        code, out, err = run(capsys, "badprimes", "--map", text)
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert "budget exhausted" in err

    def test_huge_power_of_one_ends_at_once(self, capsys):
        # 1^k is formed by squaring; the constant it leaves is an input error
        start = time.perf_counter()
        code, out, err = run(capsys, "badprimes", "--map", "1^99999999999")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert "constant maps are rejected" in err


class TestDelta:
    @pytest.mark.parametrize(
        ("p", "a", "b", "expected"),
        [
            (2, "1/4", "7/4", "3"),
            (3, "1/4", "7/4", "1"),
            (2, "3/8", "inf", "3"),
            (5, "1/4", "7/4", "0"),
            (7, "2", "2", "inf"),
        ],
    )
    def test_values(self, capsys, p, a, b, expected):
        code, out, _ = run(capsys, "delta", "--p", str(p), "--a", a, "--b", b)
        assert code == 0
        assert out.strip() == expected

    def test_composite_modulus_exits_2(self, capsys):
        code, _, err = run(capsys, "delta", "--p", "4", "--a", "1", "--b", "2")
        assert code == 2
        assert "not prime" in err
        # equal points are at distance inf for every prime, and for no composite
        code, out, err = run(capsys, "delta", "--p", "4", "--a", "2", "--b", "2")
        assert (code, out, err) == (2, "", "orbita: error: 4 is not prime\n")

    def test_bad_point_exits_2(self, capsys):
        code, _, _ = run(capsys, "delta", "--p", "2", "--a", "z", "--b", "2")
        assert code == 2

    def test_p_is_tested_once(self, capsys, monkeypatch):
        calls = []

        def counting(n):
            calls.append(n)
            return is_prime(n)

        for module in (numtheory, projective):
            monkeypatch.setattr(module, "is_prime", counting)
        assert run(capsys, "delta", "--p", "3", "--a", "1/4", "--b", "7/4")[:2] == (0, "1\n")
        assert calls == [3]


@pytest.mark.parametrize(
    "argv",
    [
        ("delta", "--p", str(2**9689 - 1), "--a", "1", "--b", "2"),
        ("delta", "--p", str(2**4253 - 1), "--a", "1", "--b", "2"),
        ("sunit", "--primes", str(2**4253 - 1), "--bound", "1"),
        ("sunit", "--primes", f"2,{2**4097 - 1}", "--bound", "1", "--json"),
    ],
    ids=["delta-9689", "delta-4253", "sunit-4253", "sunit-4097"],
)
def test_prime_over_the_input_budget_exits_3(capsys, argv):
    # 13 Miller-Rabin rounds on a 9689-bit candidate took a minute
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    bits = int(argv[2].split(",")[-1]).bit_length()
    assert (code, out) == (3, "")
    assert err == f"orbita: error: budget exhausted: prime bits {bits} exceeds budget 4096\n"


class TestBadprimes:
    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "badprimes", "--map", "z^2 - 29/16")
        assert code == 0
        assert "resultant: 65536 = 2^16" in out
        assert "bad primes: 2" in out

    def test_everywhere_good_map(self, capsys):
        code, out, _ = run(capsys, "badprimes", "--map", "z^2 - 1")
        assert code == 0
        assert "bad primes: (none)" in out

    def test_strong_pseudoprime_resultant_splits(self, capsys):
        # 399165290221 * 798330580441 is a strong pseudoprime to bases 2..37
        code, out, _ = run(capsys, "badprimes", "--map", "318665857834031151167461*z")
        assert code == 0
        assert "bad primes: 399165290221 798330580441" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "badprimes", "--map", "z^2 - 29/16", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["resultant"] == "65536"
        assert doc["factorization"] == [["2", "16"]]
        assert doc["bad_primes"] == ["2"]

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("z^²", "expected an unsigned integer (at index 2)"),
            ("z^2²", "trailing input (at index 3)"),
        ],
    )
    def test_non_decimal_digit_is_a_syntax_error(self, capsys, text, message):
        # int reads only decimal digits; a superscript is a character of its own
        code, out, err = run(capsys, "badprimes", "--map", text)
        assert (code, out) == (2, "")
        assert err == f"orbita: error: bad map {text!r}: {message}\n"

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_resultant_factored_once(self, capsys, monkeypatch, json_flag):
        calls = []

        def counting(n, *rest):
            calls.append(n)
            return factor(n, *rest)

        monkeypatch.setattr(cli, "factor", counting)
        monkeypatch.setattr(maps, "factor", counting)
        code, _, _ = run(capsys, "badprimes", "--map", "(z^2 - 29/16)/(3*z)", *json_flag)
        assert code == 0
        assert len(calls) == 1


class TestBounds:
    def test_interval_only_formula(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--formula", "CanciC", "--params", "s=1"
        )
        assert code == 0
        assert "ln lower:" in out and "ln upper:" in out
        assert "exact:" not in out
        assert "precision: 60 digits" in out

    def test_exact_formula_human(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--formula", "Pgl2Order", "--params", "D=1"
        )
        assert code == 0
        assert "exact: 6" in out

    def test_exact_formula_json(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--formula", "BeukersSchlickewei", "--params", "r=2", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] == "16777216"
        assert doc["precision"] == "60"

    def test_empty_param_pieces_skipped(self, capsys):
        # a trailing or doubled comma leaves an empty piece, which is skipped
        expected = run(capsys, "bounds", "--formula", "CanciC", "--params", "s=1")
        assert expected[0] == 0
        assert run(capsys, "bounds", "--formula", "CanciC", "--params", "s=1,") == expected
        assert run(capsys, "bounds", "--formula", "CanciC", "--params", ",s=1,,") == expected

    def test_comma_separated_params(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--formula", "MortonSilverman", "--params", "t=1,D=1"
        )
        assert code == 0
        assert "ln upper: 18.3189913" in out

    def test_unknown_formula_exits_2(self, capsys):
        code, _, err = run(capsys, "bounds", "--formula", "nope", "--params", "s=1")
        assert code == 2
        assert "known:" in err

    def test_wrong_parameter_name_exits_2(self, capsys):
        code, _, err = run(capsys, "bounds", "--formula", "CanciC", "--params", "q=1")
        assert code == 2
        assert "expects parameters" in err

    def test_domain_floor_exits_2(self, capsys):
        code, _, _ = run(capsys, "bounds", "--formula", "CanciC", "--params", "s=0")
        assert code == 2

    def test_malformed_pair_exits_2(self, capsys):
        code, _, _ = run(capsys, "bounds", "--formula", "CanciC", "--params", "s")
        assert code == 2

    @pytest.mark.parametrize(
        ("formula", "params", "message"),
        [
            # an unknown formula is reported before any malformed token
            ("Nope", ["s=1"], f"unknown formula 'Nope'; known: {KNOWN}"),
            ("Nope", ["s"], f"unknown formula 'Nope'; known: {KNOWN}"),
            ("Nope", ["s=x,s=y"], f"unknown formula 'Nope'; known: {KNOWN}"),
            ("ESS", ["n=1"], "ESS expects parameters n, r"),
            ("CanciC", ["s=1", "t=2"], "CanciC expects parameters s"),
            ("CanciC", ["s=1,s=2"], "parameter 's' is given more than once"),
            ("MortonSilverman", ["D=1", "t=-1"], "parameter t=-1 below minimum 0"),
            ("ESS", ["r=0,n=0"], "parameter n=0 below minimum 1"),
            ("CanciC", ["s=1.5"], "parameter 's=1.5' needs an integer value"),
            ("CanciC", ["s"], "parameter 's' is not of the form key=value"),
            ("CanciC", ["name=1"], "CanciC expects parameters s"),
            ("CanciC", ["cls=1"], "CanciC expects parameters s"),
            ("CanciC", ["s=1,name=1"], "CanciC expects parameters s"),
        ],
    )
    def test_parameter_errors_pinned(self, capsys, formula, params, message):
        code, out, err = run(capsys, "bounds", "--formula", formula, "--params", *params)
        assert (code, out, err) == (2, "", f"orbita: error: {message}\n")

    def test_repeated_parameter_exits_2(self, capsys):
        code, out, err = run(capsys, "bounds", "--formula", "Pgl2Order", "--params", "D=1", "D=2")
        assert (code, out) == (2, "")
        assert err == "orbita: error: parameter 'D' is given more than once\n"

    def test_precision_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ORBITA_PRECISION", "80")
        code, out, _ = run(
            capsys, "bounds", "--formula", "CanciC", "--params", "s=1", "--json"
        )
        assert code == 0
        assert json.loads(out)["precision"] == "80"

    def test_bad_precision_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("ORBITA_PRECISION", "abc")
        code, _, err = run(capsys, "orbit", "--map", "z^2 - 1", "--point", "1")
        assert code == 2
        assert "ORBITA_PRECISION" in err

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_bounds_past_the_int_string_limit(self, capsys, monkeypatch, json_flag):
        # 5000 digits: the rendering's strings are longer than the 4300 digits
        # Python converts to int, which once made every bounds call exit 5
        monkeypatch.setenv("ORBITA_PRECISION", "5000")
        code, out, err = run(
            capsys, "bounds", "--formula", "Pgl2Order", "--params", "D=3", *json_flag
        )
        assert (code, err) == (0, "")
        if json_flag:
            doc = json.loads(out)
            lower, upper = doc["ln_lower"], doc["ln_upper"]
        else:
            fields = dict(line.split(": ", 1) for line in out.splitlines())
            lower, upper = fields["ln lower"], fields["ln upper"]
        assert len(upper) > 4300
        # ln 38 to 5100 digits, floored and ceiled: compared as exact fractions,
        # since mpmath.mpf would parse the strings with int() as well
        scale = 10**5100
        with mpmath.workdps(5200):
            floor = Fraction(int(mpmath.floor(mpmath.log(38) * scale)), scale)
        assert Fraction(Decimal(lower)) <= floor
        assert floor + Fraction(1, scale) <= Fraction(Decimal(upper))

    def test_orbit_json_past_the_int_string_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("ORBITA_PRECISION", "5000")
        code, out, err = run(capsys, "orbit", "--map", "z^2 - 1", "--point", "1", "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["bounds"]["satisfied"] is True
        assert len(doc["bounds"]["ln_c_s"]) > 4300

    def test_precision_limit(self, capsys, monkeypatch):
        limit = _bounds.MAX_PRECISION
        monkeypatch.setenv("ORBITA_PRECISION", str(limit))
        code, out, err = run(capsys, "bounds", "--formula", "Pgl2Order", "--params", "D=3")
        assert (code, err) == (0, "")
        assert f"precision: {limit} digits" in out
        monkeypatch.setenv("ORBITA_PRECISION", str(limit + 1))
        code, out, err = run(capsys, "bounds", "--formula", "Pgl2Order", "--params", "D=3")
        assert (code, out) == (2, "")
        assert err == f"orbita: error: ORBITA_PRECISION must be at most {limit}\n"

    def test_ess_parameter_budget(self, capsys):
        # 3n * bits(6n) + bits(r+1) bounds the bits of (6n)^(3n) (r+1)
        code, out, err = run(
            capsys, "bounds", "--formula", "ESS", "--params", "n=100000000,r=1"
        )
        assert (code, out) == (3, "")
        assert err == (
            "orbita: error: budget exhausted: ESS exponent bits 9000000002 "
            f"exceeds budget {_bounds.ESS_MAX_BITS}\n"
        )
        # the largest n within the budget, refused one step above it
        with pytest.raises(BudgetError):
            _bounds.evaluate_bound(_bounds.BoundFormula.of("ESS", n=139811, r=0), 60)
        assert 3 * 139810 * (6 * 139810).bit_length() + 1 <= _bounds.ESS_MAX_BITS

    @pytest.mark.parametrize(
        ("formula", "param", "digits"),
        [
            ("BeukersSchlickewei", "r=3000", 7228),
            ("KRun", "s=4000", 19266),
            # the first refused parameter of each formula with an exact value
            ("BeukersSchlickewei", "r=1785", 4302),
            ("KRun", "s=893", 4302),
            pytest.param("Pgl2Order", f"D={5 * 10**2149}", 4301, id="Pgl2Order-D=5e2149-4301"),
            # formerly exit 0 without an exact line past 2^65536
            ("KRun", "s=4096", 19729),
            ("KRun", "s=4097", 19734),
        ],
    )
    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_exact_value_too_long_to_print_exits_3(
        self, capsys, formula, param, digits, json_flag
    ):
        code, out, err = run(capsys, "bounds", "--formula", formula, "--params", param, *json_flag)
        assert (code, out) == (3, "")
        assert err == (
            f"orbita: error: budget exhausted: exact value digit count {digits} "
            "exceeds budget 4300\n"
        )

    @pytest.mark.parametrize(
        ("formula", "param", "value"),
        [
            # 4299 and 4297 digits; r=1785 and s=893 are refused above
            pytest.param("BeukersSchlickewei", "r=1784", 2**14280, id="BeukersSchlickewei"),
            pytest.param("KRun", "s=892", 2**14272, id="KRun"),
            # 2 + 4 D^2 has 4300 digits, and 4301 at D = 5*10^2149
            pytest.param(
                "Pgl2Order", f"D={5 * 10**2149 - 1}", 10**4300 - 4 * 10**2150 + 6, id="Pgl2Order"
            ),
        ],
    )
    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_longest_printable_exact_value(self, capsys, formula, param, value, json_flag):
        code, out, err = run(capsys, "bounds", "--formula", formula, "--params", param, *json_flag)
        assert (code, err) == (0, "")
        if json_flag:
            assert json.loads(out)["exact"] == str(value)
        else:
            assert f"\nexact: {value}\n" in out

    @pytest.mark.parametrize("k", [1, 5, 4999, 5000])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_digit_count_at_powers_of_ten(self, k, offset):
        # 10^k - 1 has k digits, 10^k and 10^k + 1 have k + 1
        n = 10**k + offset
        assert _bounds._decimal_digits(n) == _bounds._decimal_digits(-n) == k + (offset >= 0)


class TestSunit:
    def test_csv_and_summary(self, capsys):
        code, out, err = run(capsys, "sunit", "--primes", "2", "--bound", "20")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "u_num,u_den,v_num,v_den"
        assert lines[1:] == ["-1,1,2,1", "1,2,1,2", "2,1,-1,1"]
        summary = json.loads(err)
        assert summary["count"] == 3
        assert summary["rank"] == 1
        assert summary["box"] == 20

    def test_infinite_place_token_accepted(self, capsys):
        code, out, _ = run(capsys, "sunit", "--primes", "inf,2", "--bound", "20")
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "sunit", "--primes", "2", "--bound", "20", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == "3"
        assert doc["solutions"][0] == ["-1", "1", "2", "1"]
        assert doc["bound_ok"] is True

    def test_three_term_count(self, capsys):
        code, out, _ = run(
            capsys, "sunit", "--primes", "2", "--bound", "6", "--three-term", "1,1,-1"
        )
        assert code == 0
        assert json.loads(out)["count"] == 12

    def test_three_term_json(self, capsys):
        code, out, _ = run(
            capsys,
            "sunit", "--primes", "2", "--bound", "6", "--three-term", "1,1,-1", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["coefficients"] == ["1", "1", "-1"]
        assert doc["count"] == "12"

    @pytest.mark.parametrize(
        "argv",
        [
            ("sunit", "--primes", "2", "--bound", "0"),
            ("sunit", "--primes", "4", "--bound", "2"),
            ("sunit", "--primes", "2", "--bound", "2", "--three-term", "1,1"),
            ("sunit", "--primes", "2", "--bound", "2", "--three-term", "1,0,-1"),
        ],
    )
    def test_bad_input_exits_2(self, capsys, argv):
        code, _, _ = run(capsys, *argv)
        assert code == 2

    def test_bad_coefficient_pinned(self, capsys):
        result = run(capsys, "sunit", "--primes", "2", "--bound", "2", "--three-term", "1,x,1")
        assert result == (2, "", "orbita: error: bad coefficient list: "
                          "Invalid literal for Fraction: 'x'\n")

    def test_exponent_coefficients_read_as_written_out(self, capsys):
        argv = ("sunit", "--primes", "2", "--bound", "6", "--json", "--three-term")
        _, plain, _ = run(capsys, *argv, "1000,1000,-1000")
        assert run(capsys, *argv, "1e3,1.0e3,-10e2") == (0, plain, "")

    def test_oversized_box_exits_3(self, capsys):
        code, _, err = run(
            capsys, "sunit", "--primes", "2,3,5,7,11,13,17", "--bound", "20"
        )
        assert code == 3
        assert "budget exhausted" in err


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "prop52", "--iterations", "25", "--seed", "3"
        )
        assert code == 0
        assert "prop52: cases=25 comparisons=" in out
        assert "all suites passed (seed=3)" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--suite", "prop52", "--iterations", "10", "--seed", "3", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["suites"][0]["suite"] == "prop52"
        assert doc["suites"][0]["cases"] == "10"

    def test_all_suites_deterministic(self, capsys):
        argv = ("verify", "--suite", "all", "--iterations", "5", "--seed", "9")
        code1, first, _ = run(capsys, *argv)
        code2, second, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert first == second
        assert first.count("passed") == 5  # four suite lines plus the footer

    def test_counterexample_exits_4(self, capsys, monkeypatch):
        def stub(name, iterations=None, seed=0):
            return [
                SuiteReport(
                    suite="prop51",
                    seed=seed,
                    cases=3,
                    comparisons=1,
                    counterexample="p=2 P=[1:1] Q=[3:1] R=[5:1]",
                )
            ]

        monkeypatch.setattr(cli, "run_suite", stub)
        code, out, _ = run(capsys, "verify", "--suite", "prop51")
        assert code == 4
        assert "FAILED" in out
        assert "counterexample: p=2 P=[1:1] Q=[3:1] R=[5:1]" in out

    @pytest.mark.parametrize("suite", ["divisibility", "all"])
    def test_generator_failure_exits_5(self, capsys, monkeypatch, suite):
        # a case generator that cannot build its cases is a breached invariant
        monkeypatch.setattr(suites, "synthesize_map", lambda pairs, d: None)
        code, out, err = run(capsys, "verify", "--suite", suite, "--iterations", "2")
        assert (code, out) == (5, "")
        assert err == (
            "orbita: error: internal invariant breach: map synthesis success rate collapsed\n"
        )

    def test_bad_iterations_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "all", "--iterations", "0")
        assert code == 2

    def test_unknown_suite_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "prop99")
        assert code == 2


class TestSemigroup:
    def test_union_of_bad_primes(self, capsys):
        code, out, _ = run(capsys, "semigroup", "--maps", "z^2 - 1,z^2 - 29/16")
        assert code == 0
        assert "union bad primes: 2" in out
        assert "s = 2" in out
        assert "ln c(s) upper:" in out

    def test_orbits_for_each_generator(self, capsys):
        code, out, _ = run(
            capsys, "semigroup", "--maps", "z^2 - 1,z^2", "--point", "1"
        )
        assert code == 0
        assert "orbit of [1:1] under" in out
        assert out.count("orbit of") == 2

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "semigroup", "--maps", "z^2 - 1,z^2 - 29/16", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["generators"]) == 2
        assert doc["union_bad_primes"] == ["2"]
        assert doc["s"] == "2"

    def test_undecided_orbit_exits_3(self, capsys):
        code, out, err = run(
            capsys, "semigroup", "--maps", "z^2 - 1,z^2 - 29/16", "--point", "1"
        )
        # the first orbit closes, but nothing is printed: an error leaves stdout empty
        assert (code, out) == (3, "")
        assert err == (
            "orbita: error: budget exhausted: orbit coordinate bits 4097 exceeds budget 4096\n"
        )

    @pytest.mark.parametrize(
        ("exprs", "point", "status"),
        [
            ("z^2 - 1,z^2 - 29/16", None, 0),
            ("z^2 - 1,z^2 - 29/16", "1", 3),  # the second orbit exhausts a budget
            ("z^2 - 1,z^2", "1", 0),  # both orbits close
        ],
    )
    def test_each_resultant_factored_once(self, capsys, monkeypatch, exprs, point, status):
        # a generator whose orbit closes takes its bad primes from the certificate;
        # an orbit that exhausts its budget ends the run before the next generator
        calls = []

        def counting(n):
            calls.append(n)
            return factor(n)

        monkeypatch.setattr(maps, "factor", counting)
        argv = ["semigroup", "--maps", exprs] + ([] if point is None else ["--point", point])
        code, _, _ = run(capsys, *argv)
        assert code == status
        factored = exprs.split(",")[: 1 if status == 3 else None]
        assert calls == [maps.parse_map(e).res for e in factored]

    @pytest.mark.parametrize(
        ("failing", "message"),
        [
            ("2^4000*z^4", "factor input bits 16001 exceeds budget 4096"),
            # Res is a square: rho runs on its 3-limb root, not the 5-limb square
            (
                "z^2/(1000000000000000000000007*1000000000000000000000049)",
                "factorization work 3145722 exceeds budget 2097152",
            ),
        ],
    )
    def test_closed_orbit_whose_resultant_does_not_factor(
        self, capsys, monkeypatch, failing, message
    ):
        # the orbit of 0 closes at once; the refusal leaves stdout empty, and
        # the resultant that was refused is not factored a second time
        calls = []

        def counting(n):
            calls.append(n)
            return factor(n)

        monkeypatch.setattr(maps, "factor", counting)
        code, out, err = run(capsys, "semigroup", "--maps", f"z^2 - 1,{failing}", "--point", "0")
        assert (code, out) == (3, "")
        assert err == f"orbita: error: budget exhausted: {message}\n"
        res = maps.parse_map(failing).res
        assert calls == [maps.parse_map("z^2 - 1").res, res]

    def test_bad_point_reported_last(self, capsys, monkeypatch):
        # the point is parsed up front, as under orbit: a point that does not
        # parse exits 2 before any orbit runs or resultant is factored, so a
        # budget error is reported only after every input parses. A bad
        # ORBITA_PRECISION is read before any command, so it is named first
        calls = []

        def counting(n):
            calls.append(n)
            return factor(n)

        monkeypatch.setattr(maps, "factor", counting)
        bad_point = (2, "", "orbita: error: bad point syntax '1/0': Fraction(1, 0)\n")
        argv = ("semigroup", "--maps", "z^2 - 1,2^4000*z^4", "--point", "1/0")
        assert run(capsys, *argv) == bad_point
        assert calls == []
        monkeypatch.setenv("ORBITA_PRECISION", "abc")
        bad_precision = run(capsys, "semigroup", "--maps", "z^2 - 1")
        assert bad_precision == (
            2, "", "orbita: error: ORBITA_PRECISION must be an integer, got 'abc'\n"
        )
        assert run(capsys, "semigroup", "--maps", "z^2 - 1", "--point", "1/0") == bad_precision
        # an orbit that would exhaust its budget still exits 2 on a bad precision
        argv = ("semigroup", "--maps", "z^2 - 1,z^2 - 29/16", "--point", "1")
        assert run(capsys, *argv) == bad_precision
        assert calls == []

    def test_every_map_read_before_any_resultant(self, capsys, monkeypatch):
        # a later map's syntax error is reported before an earlier map's resultant
        calls = []

        def counting(F, G):
            calls.append(len(F) - 1)
            return forms.resultant(F, G)

        monkeypatch.setattr(maps, "resultant", counting)
        code, out, err = run(capsys, "semigroup", "--maps", "(2*z+1)^128,(z")
        assert (code, out, calls) == (2, "", [])
        assert err == "orbita: error: bad map '(z': expected ')' (at index 2)\n"
        assert run(capsys, "semigroup", "--maps", "z^2 - 1,1/z^3")[0] == 0
        assert calls == [2, 3]

    def test_empty_maps_exits_2(self, capsys):
        code, _, _ = run(capsys, "semigroup", "--maps", "")
        assert code == 2

    def test_bad_generator_exits_2(self, capsys):
        code, _, _ = run(capsys, "semigroup", "--maps", "z^2 - 1,w")
        assert code == 2


class TestDriver:
    def test_no_command_exits_2(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()

    def test_subcommand_help_exits_0(self, capsys):
        assert cli.main(["orbit", "--help"]) == 0
        capsys.readouterr()

    def test_unknown_command_exits_2(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ("orbit", "--map", "z^2 - 29/16", "--point", "-1/4", "--json"),
            ("bounds", "--formula", "CanciC", "--params", "s=2"),
            ("sunit", "--primes", "2,3", "--bound", "3"),
            ("verify", "--suite", "remark"),
        ],
    )
    def test_repeated_calls_give_the_same_bytes(self, capsys, argv):
        first = run(capsys, *argv)
        assert first[0] == 0
        assert run(capsys, *argv) == first
        usage = run(capsys, "orbit", "--map", "z", "--no-such-flag")
        assert usage[0] == 2
        assert run(capsys, *argv) == first
        helped = run(capsys, argv[0], "--help")
        assert helped[0] == 0
        assert run(capsys, *argv) == first
        assert run(capsys, "orbit", "--map", "z", "--no-such-flag") == usage
        assert run(capsys, argv[0], "--help") == helped

    def test_console_script(self):
        # the installed script when it is on PATH, else the entry point that
        # pyproject.toml declares for it, run from the source tree
        argv = ["orbit", "--map", "z^2 - 29/16", "--point", "-1/4", "--json"]
        env = dict(os.environ)
        if shutil.which("orbita") is not None:
            command = ["orbita"]
        else:
            pyproject = (Path(SRC).parent / "pyproject.toml").read_text()
            # the [project.scripts] line, read without tomllib (Python 3.11+)
            entry = re.search(r'^orbita = "([\w.]+):(\w+)"$', pyproject, re.M)
            module, function = entry.groups()
            call = f"import sys, {module}; sys.exit({module}.{function}())"
            command = [sys.executable, "-c", call]
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
        proc = subprocess.run(command + argv, capture_output=True, env=env, text=True, timeout=60)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["period"] == "3"


@pytest.mark.parametrize(
    ("argv", "env", "status"),
    [
        (("orbit", "--map", "z^2 +", "--point", "1"), None, 2),
        (("orbit", "--map", "z^2", "--point", "1/0", "--json"), None, 2),
        (("bounds", "--formula", "CanciC", "--params", "s=x"), None, 2),
        (("orbit", "--map", "z^2 - 1", "--point", "1"), "abc", 2),
        (("bounds", "--formula", "CanciC", "--params", "s=1"), "abc", 2),
        (("orbit", "--map", "z + 1", "--point", "0"), None, 3),
        (("orbit", "--map", "z^2", "--point", "2", "--json"), None, 3),
        (("badprimes", "--map", "(z+1)^3000"), None, 3),
        (("badprimes", "--map", "(z+1)^3000", "--json"), None, 3),
        # Res = 2^16000: over the factor budget, and more digits than Python prints
        (("badprimes", "--map", "2^4000*z^4"), None, 3),
        (("badprimes", "--map", "2^4000*z^4", "--json"), None, 3),
        (("bounds", "--formula", "BeukersSchlickewei", "--params", "r=3000"), None, 3),
        (("bounds", "--formula", "KRun", "--params", "s=4000", "--json"), None, 3),
        (("bounds", "--formula", "Pgl2Order", "--params", "D=1", "D=2"), None, 2),
        (("bounds", "--formula", "Pgl2Order", "--params", "D=1,D=2", "--json"), None, 2),
    ],
)
def test_error_exit_leaves_stdout_empty(capsys, monkeypatch, argv, env, status):
    # semigroup is the one exception by design: a generator orbit over budget
    # still prints the complete report before it exits 3
    if env is not None:
        monkeypatch.setenv("ORBITA_PRECISION", env)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (status, "")
    assert err.startswith("orbita: error: ")


@pytest.mark.parametrize(
    ("value", "message"),
    [
        ("abc", "must be an integer, got 'abc'"),
        ("9", "must be at least 10"),
        ("20001", "must be at most 20000"),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [
        # each line would do work, or fail on another input, under a valid precision
        ("orbit", "--map", "z^2 - 29/16", "--point", "1"),
        ("delta", "--p", "2", "--a", "1/4", "--b", "7/4"),
        ("badprimes", "--map", "z^2 - 29/16"),
        ("bounds", "--formula", "Nope"),
        ("sunit", "--primes", "2,3,5", "--bound", "60"),
        ("sunit", "--primes", "2,3", "--bound", "12", "--three-term", "1,1,-1"),
        ("verify", "--suite", "remark"),
        ("semigroup", "--maps", "z^2 - 1", "--point", "1/0"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_precision_exits_2_before_any_command(capsys, monkeypatch, argv, value, message):
    # ORBITA_PRECISION is read once, after the flags parse and before any work
    monkeypatch.setenv("ORBITA_PRECISION", value)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.2
    assert (code, out, err) == (2, "", f"orbita: error: ORBITA_PRECISION {message}\n")


_BAD_X = "bad point syntax 'x': Invalid literal for Fraction: 'x'"
_BAD_1_0 = "bad point syntax '1/0': Fraction(1, 0)"
_BAD_BOUND = "--bound must be a positive integer"


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("orbit", "--map", "(z", "--point", "x"), _BAD_X),
        (("orbit", "--map", "z^200/z^199", "--point", "1/0"), _BAD_1_0),
        (("semigroup", "--maps", "(z", "--point", "x"), _BAD_X),
        (("semigroup", "--maps", "z^200/z^199", "--point", "1/0"), _BAD_1_0),
        (("sunit", "--primes", "4", "--bound", "0"), _BAD_BOUND),
        (("sunit", "--primes", str(2**4097 - 1), "--bound", "0"), _BAD_BOUND),
        (
            ("sunit", "--primes", "2,x", "--bound", "1", "--three-term", "1,0,-1"),
            "need exactly three nonzero coefficients",
        ),
    ],
    ids=["orbit-syntax", "orbit-budget", "semigroup-syntax", "semigroup-budget",
         "sunit-composite", "sunit-4097", "sunit-coefficients"],
)
def test_input_with_two_faults_names_the_cheaper_one(capsys, argv, message):
    # every command reads its inputs cheapest first, before its first
    # expensive step: a map's resultant, a Miller-Rabin test, a scan
    assert run(capsys, *argv) == (2, "", f"orbita: error: {message}\n")


# a function on the path of each of four commands, for a patch to raise from
_BREACH_PATHS = [
    (orbits, "distance_table", ("orbit", "--map", "z^2 - 1", "--point", "1")),
    (_bounds, "evaluate_bound", ("bounds", "--formula", "CanciC", "--params", "s=1")),
    (sunit, "_smooth_set", ("sunit", "--primes", "2", "--bound", "2", "--three-term", "1,1,-1")),
    (suites, "_triangle_case", ("verify", "--suite", "prop51", "--iterations", "2")),
]


@pytest.mark.parametrize(("module", "name", "argv"), _BREACH_PATHS)
def test_internal_value_error_exits_5(capsys, monkeypatch, module, name, argv):
    # input errors are caught where the input is parsed; a ValueError from
    # deeper down is a bug, not bad input
    def breach(*args):
        raise ValueError("forced for the exit-status test")

    monkeypatch.setattr(module, name, breach)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (5, "")
    assert err == "orbita: error: internal invariant breach: forced for the exit-status test\n"


def test_assertion_error_exits_5(capsys, monkeypatch):
    # bounds.decimal_str and maps.conjugate raise AssertionError explicitly
    def breach(*args, **kwargs):
        raise AssertionError("directed decimal rendering failed to converge")

    monkeypatch.setattr(_bounds, "decimal_str", breach)
    code, out, err = run(capsys, "bounds", "--formula", "CanciC", "--params", "s=1")
    assert (code, out) == (5, "")
    assert err == (
        "orbita: error: internal invariant breach: directed decimal rendering failed to converge\n"
    )


def test_closed_stdout_exits_2_without_traceback():
    # the reader is closed before the command writes, as in `... | head -c 10`
    # once head has exited
    reader, writer = os.pipe()
    os.close(reader)
    env = {k: v for k, v in os.environ.items() if k != _bounds.PRECISION_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "orbita.cli", "verify", "--suite", "remark", "--seed", "7"],
            stdout=writer,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=60,
        )
    finally:
        os.close(writer)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "orbita: error: stdout was closed before the output was written\n"


@pytest.mark.parametrize(
    ("name", "message"),
    [
        ("_check_triangle", "triangle inequality fails at p=3 for [0:1],[3:1],[9:1]"),
        ("_check_non_expansion", "non-expansion fails at p=3 for points 0,1"),
        ("_check_divisibility", "v_3(x_1) = 2 > v_3(x_2) = 1"),
    ],
    ids=["triangle", "non-expansion", "tail-divisibility"],
)
def test_failed_certificate_check_exits_5(capsys, monkeypatch, name, message):
    # every certificate check that fails is an invariant breach, not a traceback
    def breach(*args):
        raise CertificateCheckError(message)

    monkeypatch.setattr(orbits, name, breach)
    code, out, err = run(capsys, "orbit", "--map", "z^2 - 2", "--point", "0")
    assert (code, out) == (5, "")
    assert err == f"orbita: error: internal invariant breach: {message}\n"


@pytest.mark.parametrize(("module", "name", "argv"), _BREACH_PATHS)
@pytest.mark.parametrize(
    "error",
    [
        ZeroDivisionError("forced division"),
        KeyError("forced key"),
        TypeError("forced type"),
        RecursionError("maximum recursion depth exceeded"),
    ],
    ids=lambda error: type(error).__name__,
)
def test_any_internal_exception_exits_5(capsys, monkeypatch, module, name, argv, error):
    # cli.main decides exit 5 alone: whatever a layer raises beyond the
    # input, budget and closed-stdout clauses is one error line, no traceback
    def breach(*args, **kwargs):
        raise error

    monkeypatch.setattr(module, name, breach)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (5, "")
    assert err == f"orbita: error: internal invariant breach: {error}\n"


def test_keyboard_interrupt_passes_through(monkeypatch):
    # only Exception maps to exit 5: an interrupt (and the benchmark's
    # BaseException deadline) still unwinds the command
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(orbits, "distance_table", interrupt)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["orbit", "--map", "z^2 - 1", "--point", "1"])


@pytest.mark.parametrize("as_json", [False, True])
def test_orbit_never_runs_the_remark_check(capsys, monkeypatch, as_json):
    # the remark follows from the triangle and non-expansion checks on the
    # same table, so the certificate reports it without deciding it again
    calls = []

    def counting(*args):
        calls.append(args)
        return 0

    monkeypatch.setattr(orbits, "_check_remark", counting)
    for expr, start in [("z^2 - 29/16", "7/4"), ("z^2 - 2", "0"), ("-1/(z + 1)", "0")]:
        code, out, _ = run(capsys, "orbit", "--map", expr, "--point", start, *["--json"] * as_json)
        assert code == 0
        if as_json:
            assert json.loads(out)["checks"]["remark"] is True
        else:
            assert "remark=ok" in out
    assert calls == []


@pytest.mark.parametrize(
    ("argv", "literal", "digits"),
    [
        (("orbit", "--map", "z", "--point", "1e10000000"), "1e10000000", 10000001),
        (("orbit", "--map", "z", "--point", "1e100000000"), "1e100000000", 100000001),
        (("orbit", "--map", "z", "--point", "1e-5000"), "1e-5000", 5000),
        (("delta", "--p", "2", "--a", "1e100000000", "--b", "1"), "1e100000000", 100000001),
        (("delta", "--p", "2", "--a", "1", "--b", "-1e100000000"), "-1e100000000", 100000001),
        (("semigroup", "--maps", "z", "--point", "1e100000000"), "1e100000000", 100000001),
    ],
    ids=["orbit-1e7", "orbit-1e8", "orbit-negative", "delta-a", "delta-b", "semigroup"],
)
def test_exponent_point_refused_before_its_integer(capsys, argv, literal, digits):
    # the digits a literal stands for meet the limit its written-out form
    # does; tests/data/slow_inputs.txt holds these lines to 1 s
    assert run(capsys, *argv) == (
        2,
        "",
        f"orbita: error: bad point syntax {literal!r}: the literal stands for {digits} "
        "digits, over the limit of 4300\n",
    )


def test_exponent_coefficient_refused_before_its_integer(capsys):
    argv = ("sunit", "--primes", "2", "--bound", "2", "--three-term", "1,1e100000000,1")
    assert run(capsys, *argv) == (
        2,
        "",
        "orbita: error: bad coefficient list: the literal stands for 100000001 digits, "
        "over the limit of 4300\n",
    )



LONG = "7" * 4301  # one digit over Python's int-string limit
REFUSAL = "the literal stands for 4301 digits, over the limit of 4300"


def excerpt(text: str) -> str:
    """How a refusal quotes a text over 100 characters: its first 40 and its length."""
    return f"{text[:40]!r}... ({len(text)} characters)"


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (
            ("orbit", "--map", "z^2", "--point", LONG),
            f"bad point syntax {excerpt(LONG)}: {REFUSAL}",
        ),
        (
            ("orbit", "--map", "z^2", "--point", f"[{LONG}:1]"),
            f"bad projective point {excerpt(f'[{LONG}:1]')}: {REFUSAL}",
        ),
        (
            ("delta", "--p", "2", "--a", LONG, "--b", "1"),
            f"bad point syntax {excerpt(LONG)}: {REFUSAL}",
        ),
        (
            ("orbit", "--map", f"{LONG}*z^2", "--point", "1"),
            f"bad map {excerpt(f'{LONG}*z^2')}: {REFUSAL} (at index 0)",
        ),
        (
            ("bounds", "--formula", "ESS", "--params", f"n={LONG}", "r=1"),
            f"parameter {excerpt(f'n={LONG}')}: {REFUSAL}",
        ),
        (
            ("sunit", "--primes", f"2,{LONG}", "--bound", "1"),
            f"bad prime {excerpt(LONG)}: {REFUSAL}",
        ),
    ],
    ids=["point", "bracketed-point", "delta-a", "map-token", "params", "primes"],
)
def test_over_long_integer_literal_refused_by_the_digit_limit(capsys, argv, message):
    # every path that reads an integer from the command line holds it to the
    # rule exponent literals meet, and none passes on Python's own advice
    assert run(capsys, *argv) == (2, "", f"orbita: error: {message}\n")


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (
            ("orbit", "--map", "z^2", "--point", f"1/{LONG}"),
            f"bad point syntax {excerpt(f'1/{LONG}')}",
        ),
        (
            ("orbit", "--map", "z^2", "--point", f"[1:{LONG}]"),
            f"bad projective point {excerpt(f'[1:{LONG}]')}",
        ),
        (
            ("orbit", "--map", f"z^2 + 1/{LONG}", "--point", "1"),
            f"bad map {excerpt(f'z^2 + 1/{LONG}')}",
        ),
        (("orbit", "--map", f"z^{LONG}", "--point", "1"), f"bad map {excerpt(f'z^{LONG}')}"),
        (("semigroup", "--maps", f"z,{LONG}*z"), f"bad map {excerpt(f'{LONG}*z')}"),
    ],
    ids=["point-denominator", "bracketed-y", "map-denominator", "map-exponent", "semigroup"],
)
def test_every_digit_run_meets_the_limit(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"orbita: error: {message}") and REFUSAL in err
    assert "set_int_max_str_digits" not in err


# the integer flags, which argparse reads through orbita's reader
INTEGER_FLAGS = [
    ("delta", "--p", "--a", "1", "--b", "2"),
    ("sunit", "--bound", "--primes", "2"),
    ("verify", "--iterations", "--suite", "remark"),
    ("verify", "--seed", "--suite", "remark"),
]


@pytest.mark.parametrize("line", INTEGER_FLAGS, ids=lambda line: line[1])
def test_integer_flag_held_to_the_digit_limit(capsys, line):
    command, flag, *rest = line
    code, out, err = run(capsys, command, flag, LONG, *rest)
    assert (code, out) == (2, "")
    assert err.endswith(f"orbita {command}: error: argument {flag}: {REFUSAL}\n")
    # a plain non-integer keeps argparse's own wording
    code, out, err = run(capsys, command, flag, "x", *rest)
    assert (code, out) == (2, "")
    assert err.endswith(f"orbita {command}: error: argument {flag}: invalid int value: 'x'\n")
    code, out, err = run(capsys, command, flag, "x" * 101, *rest)
    assert err.endswith(f"argument {flag}: invalid int value: {excerpt('x' * 101)}\n")


def test_precision_held_to_the_digit_limit(capsys, monkeypatch):
    argv = ("bounds", "--formula", "CanciC", "--params", "s=2")
    monkeypatch.setenv("ORBITA_PRECISION", LONG)
    assert run(capsys, *argv) == (2, "", f"orbita: error: ORBITA_PRECISION: {REFUSAL}\n")
    monkeypatch.setenv("ORBITA_PRECISION", "7" * 4300)
    assert run(capsys, *argv) == (2, "", "orbita: error: ORBITA_PRECISION must be at most 20000\n")
    monkeypatch.setenv("ORBITA_PRECISION", "x" * 101)
    message = f"ORBITA_PRECISION must be an integer, got {excerpt('x' * 101)}"
    assert run(capsys, *argv) == (2, "", f"orbita: error: {message}\n")


NINES = "9" * 4300
BRACKETED = f"[{NINES}x:1]"


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        # a text of at most 100 characters is quoted whole, as repr quotes it
        (
            ("orbit", "--map", "z^", "--point", "1"),
            "bad map 'z^': expected an unsigned integer (at index 2)",
        ),
        (("orbit", "--map", "z", "--point", "x" * 100), f"bad point syntax {'x' * 100!r}"),
        # past 100 characters, the first 40 and the length
        (("orbit", "--map", "z", "--point", "x" * 101), f"bad point syntax {excerpt('x' * 101)}"),
        (
            ("orbit", "--map", "z", "--point", BRACKETED),
            f"bad projective point {excerpt(BRACKETED)}: invalid literal for int: ",
        ),
        (
            ("orbit", "--map", "z", "--point", f"{'9' * 4300}/0"),
            f"bad point syntax {excerpt(f'{NINES}/0')}: invalid literal for Fraction: ",
        ),
        (("bounds", "--formula", "F" * 101), f"unknown formula {excerpt('F' * 101)}; known: "),
        (
            ("bounds", "--formula", "CanciC", "--params", f"s=-{NINES}"),
            f"parameter s=-{NINES[:39]}... (4301 characters) below minimum 1",
        ),
        (
            ("delta", "--p", f"1{'0' * 400}", "--a", "1", "--b", "2"),
            f"1{'0' * 39}... (401 characters) is not prime",
        ),
        (("sunit", "--primes", "x" * 101, "--bound", "1"), f"bad prime {excerpt('x' * 101)}"),
        (
            ("sunit", "--primes", "2", "--bound", "1", "--three-term", f"1,1,{'x' * 101}"),
            f"bad coefficient list: invalid literal for Fraction: {excerpt('x' * 101)}",
        ),
    ],
    ids=[
        "short-map",
        "100-characters",
        "101-characters",
        "bracketed-non-integer",
        "zero-denominator",
        "formula",
        "parameter-below-minimum",
        "not-prime",
        "prime",
        "coefficient",
    ],
)
def test_refusal_quotes_an_excerpt(capsys, argv, message):
    # no refusal echoes a long input whole: every line stays under 300 bytes
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"orbita: error: {message}")
    assert max(len(line.encode()) for line in err.splitlines()) <= 300


@pytest.mark.parametrize(
    "argv",
    [
        ("orbit", "--map", "z^2", "--point", LONG[1:]),
        ("orbit", "--map", "z^2", "--point", f"[{LONG[1:]}:1]"),
        ("orbit", "--map", f"{LONG[1:]}*z^2", "--point", "1"),
        ("bounds", "--formula", "ESS", "--params", f"n={LONG[1:]}", "r=1"),
        ("sunit", "--primes", f"2,{LONG[1:]}", "--bound", "1"),
        ("delta", "--p", LONG[1:], "--a", "1", "--b", "2"),
        ("sunit", "--primes", "2", "--bound", LONG[1:]),
        ("verify", "--suite", "prop51", "--iterations", LONG[1:]),
    ],
    ids=["point", "bracketed-point", "map-token", "params", "primes", "p", "bound", "iterations"],
)
def test_literal_at_the_limit_is_read(capsys, argv):
    # 4300 digits are read as before and meet the budgets after the parse
    code, out, err = run(capsys, *argv)
    assert REFUSAL not in err and "stands for" not in err
    assert code in (2, 3)
    assert out == ""
