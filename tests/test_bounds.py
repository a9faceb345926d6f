import random
import re
import sys
import time
import tracemalloc
from itertools import permutations

import pytest
from mpmath import libmp, mp

from orbita import bounds
from orbita.bounds import (
    FORMULAS,
    INCONCLUSIVE,
    MAX_PRECISION,
    SATISFIED,
    VIOLATED,
    BoundFormula,
    compare,
    decimal_str,
    evaluate_bound,
    ln_interval,
    working_precision,
)
from orbita.numtheory import BudgetError

# oracle values computed independently with plain 210-digit mpf arithmetic;
# 100 digits kept, far beyond the 60-digit enclosure width, so the interval
# evaluation must bracket them strictly
ORACLES = {
    "c1": "1000000000012.217437006463208873763561354525725308658970101807481371883853989898654994794721472518034",
    "c2": "2000000000033.517458905912072956316174928711107989558637282914628362510559510052990986045149834064657",
    "ms11": "18.31899132563001947999788165153329236058362262690169693053185728801037389514328105085753389900457756",
    "ms01": "16.04834510238360567780061859661837801752344835707678052584614440544645364602935432860038643220100538",
    "pbr21": "12.03625882678770425835046394746378351314258626780758539438460830408484023452201574645028982415075403",
    "npo11": "722.4185058039808371115277520666438580024412698057551899258594081278295314697357503446519670588525814",
}


def _encloses(value, oracle_str):
    mp.dps = 120
    oracle = mp.mpf(oracle_str)
    assert value.ln_lower <= oracle <= value.ln_upper
    assert abs(value.ln_upper - oracle) / oracle < 1e-6
    assert abs(value.ln_lower - oracle) / oracle < 1e-6


def test_canci_c_against_oracle():
    _encloses(evaluate_bound(BoundFormula.of("CanciC", s=1), 60), ORACLES["c1"])
    _encloses(evaluate_bound(BoundFormula.of("CanciC", s=2), 60), ORACLES["c2"])


def test_morton_silverman_against_oracle():
    _encloses(evaluate_bound(BoundFormula.of("MortonSilverman", t=1, D=1), 60), ORACLES["ms11"])
    _encloses(evaluate_bound(BoundFormula.of("MortonSilverman", t=0, D=1), 60), ORACLES["ms01"])


def test_pezda_br_against_oracle():
    _encloses(evaluate_bound(BoundFormula.of("PezdaBR", s=2, D=1), 60), ORACLES["pbr21"])


def test_narkiewicz_pezda_orbit_against_oracle():
    value = evaluate_bound(BoundFormula.of("NarkiewiczPezdaOrbit", s=1, D=1), 60)
    _encloses(value, ORACLES["npo11"])


def test_exact_small_bounds():
    assert evaluate_bound(BoundFormula.of("Pgl2Order", D=1), 60).exact == 6
    assert evaluate_bound(BoundFormula.of("Pgl2Order", D=3), 60).exact == 38
    assert evaluate_bound(BoundFormula.of("BeukersSchlickewei", r=2), 60).exact == 16777216
    assert evaluate_bound(BoundFormula.of("BeukersSchlickewei", r=0), 60).exact == 256


def test_k_run_exact_and_display():
    v = evaluate_bound(BoundFormula.of("KRun", s=1), 60)
    assert v.exact == 65536
    # the closed form records the discrepancy between statement and proof
    assert "2^(16 s)" in v.exact_form and "2^(16^s)" in v.exact_form


def test_np_tail_log_value():
    # ln(e^(10^12 s) - 2) is a hair under 10^12 s; the upper rounding may equal it
    v = evaluate_bound(BoundFormula.of("NpTail", s=3), 60)
    mp.dps = 80
    target = mp.mpf(3) * mp.mpf(10) ** 12
    assert v.ln_upper <= target
    assert target - v.ln_lower < 1


def test_ess_and_two_ways_are_exact_integers_in_log_space():
    assert evaluate_bound(BoundFormula.of("ESS", n=3, r=3), 60).ln_upper == 18**9 * 4
    assert evaluate_bound(BoundFormula.of("ESS", n=3, r=3), 60).ln_lower == 18**9 * 4
    assert evaluate_bound(BoundFormula.of("TwoWaysIdeals", s=1), 60).ln_upper == 18**9
    assert evaluate_bound(BoundFormula.of("TwoWaysIdeals", s=2), 60).ln_upper == 18**9 * 4


def test_outward_rounding_nests_with_precision():
    # the 60-digit enclosure must contain the 200-digit one
    for formula in (
        BoundFormula.of("CanciC", s=3),
        BoundFormula.of("MortonSilverman", t=2, D=2),
        BoundFormula.of("PezdaBR", s=1, D=1),
        BoundFormula.of("NarkiewiczPezdaOrbit", s=2, D=1),
        BoundFormula.of("NpTail", s=1),
    ):
        coarse = evaluate_bound(formula, 60)
        fine = evaluate_bound(formula, 200)
        assert coarse.ln_lower <= fine.ln_lower
        assert fine.ln_upper <= coarse.ln_upper
        assert fine.ln_lower <= fine.ln_upper


def test_monotone_in_parameters():
    def up(name, **params):
        return evaluate_bound(BoundFormula.of(name, **params), 60).ln_upper

    assert up("CanciC", s=1) < up("CanciC", s=2) < up("CanciC", s=5)
    assert up("MortonSilverman", t=0, D=1) < up("MortonSilverman", t=1, D=1)
    assert up("MortonSilverman", t=1, D=1) < up("MortonSilverman", t=1, D=2)
    assert up("PezdaBR", s=1, D=1) < up("PezdaBR", s=2, D=1) < up("PezdaBR", s=2, D=2)
    assert up("NpTail", s=1) < up("NpTail", s=2)


def test_compare_directions():
    c1 = evaluate_bound(BoundFormula.of("CanciC", s=1), 60)
    assert compare(3, c1) == SATISFIED
    ms = evaluate_bound(BoundFormula.of("MortonSilverman", t=1, D=1), 60)
    assert compare(3, ms) == SATISFIED
    # e^18.319 < 10^8, so 10^9 certifiably violates
    assert compare(10**9, ms) == VIOLATED
    assert compare(1, evaluate_bound(BoundFormula.of("NpTail", s=1), 60)) == SATISFIED


def test_compare_exact_path():
    pgl = evaluate_bound(BoundFormula.of("Pgl2Order", D=1), 60)
    assert compare(6, pgl) == SATISFIED
    assert compare(7, pgl) == VIOLATED
    with pytest.raises(ValueError):
        compare(0, pgl)


def test_compare_inconclusive_band():
    # a bound whose ln_upper falls strictly inside the enclosure of ln(n)
    # can be decided in neither direction
    from orbita.bounds import BoundValue

    lo, hi = ln_interval(100, 60)
    with mp.workdps(300):
        mid = (lo + hi) / 2
    assert lo < mid < hi
    crafted = BoundValue(
        formula=BoundFormula.of("MortonSilverman", t=1, D=1),
        ln_lower=mid,
        ln_upper=mid,
        exact=None,
        exact_form="crafted",
        precision_digits=60,
    )
    assert compare(100, crafted) == INCONCLUSIVE
    assert compare(99, crafted) == SATISFIED
    assert compare(101, crafted) == VIOLATED


def test_decimal_str_is_directed():
    mp.dps = 40
    x = mp.log(mp.mpf(10**12 + 39))
    for digits in (8, 20):
        up = decimal_str(x, digits, upward=True)
        down = decimal_str(x, digits, upward=False)
        prec = 300
        assert mp.make_mpf(libmp.from_str(up, prec, "d")) >= x
        assert mp.make_mpf(libmp.from_str(down, prec, "u")) <= x


def test_decimal_str_keeps_requested_width():
    # the directed bump must not round the rendering down to the default
    # 28-digit decimal context
    for k in range(2, 20):
        lo, hi = ln_interval(k, 200)
        assert len(decimal_str(hi, 200, upward=True)) >= 150
        assert len(decimal_str(lo, 200, upward=False)) >= 150


def test_ln_interval_encloses():
    lo, hi = ln_interval(2, 60)
    mp.dps = 80
    ln2 = mp.log(2)
    assert lo <= ln2 <= hi
    assert hi - lo < mp.mpf(10) ** -55
    with pytest.raises(ValueError):
        ln_interval(0, 60)


def test_magnitude_strings():
    assert evaluate_bound(BoundFormula.of("Pgl2Order", D=1), 60).magnitude_str() == "6"
    m = evaluate_bound(BoundFormula.of("CanciC", s=1), 60).magnitude_str()
    assert m.startswith("10^434294481903.") or m.startswith("10^434294481908.")


def test_formula_validation():
    with pytest.raises(ValueError):
        BoundFormula("NoSuch", (("s", 1),))
    with pytest.raises(ValueError):
        BoundFormula("CanciC", (("r", 1),))
    with pytest.raises(ValueError):
        BoundFormula.of("CanciC", s=0)
    with pytest.raises(ValueError):
        BoundFormula.of("MortonSilverman", t=-1, D=1)
    # t and r may be zero
    assert evaluate_bound(BoundFormula.of("MortonSilverman", t=0, D=1), 60).ln_upper > 0
    assert evaluate_bound(BoundFormula.of("BeukersSchlickewei", r=0), 60).exact == 256


@pytest.mark.parametrize("name", sorted(FORMULAS))
def test_keyword_order_is_free(name):
    params = {k: 3 + i for i, k in enumerate(FORMULAS[name].param_names)}
    built = {BoundFormula.of(name, **dict(order)) for order in permutations(params.items())}
    assert built == {BoundFormula(name, tuple(params.items()))}


def test_floors_are_pinned():
    # t and r may be zero; every other parameter is at least 1
    floors = {name: dict(spec.params) for name, spec in FORMULAS.items()}
    assert floors == {
        "CanciC": {"s": 1},
        "MortonSilverman": {"t": 0, "D": 1},
        "PezdaBR": {"s": 1, "D": 1},
        "NarkiewiczPezdaOrbit": {"s": 1, "D": 1},
        "BeukersSchlickewei": {"r": 0},
        "ESS": {"n": 1, "r": 0},
        "NpTail": {"s": 1},
        "KRun": {"s": 1},
        "TwoWaysIdeals": {"s": 1},
        "Pgl2Order": {"D": 1},
    }


@pytest.mark.parametrize("name", sorted(FORMULAS))
def test_floors_come_from_the_registry(name):
    spec = FORMULAS[name]
    floors = dict(spec.params)
    assert BoundFormula.of(name, **floors).params == spec.params
    for k, floor in spec.params:
        message = f"parameter {k}={floor - 1} below minimum {floor}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BoundFormula.of(name, **{**floors, k: floor - 1})
        for value in (1.5, "1", None):
            with pytest.raises(ValueError, match=f"^parameter {k} must be an integer$"):
                BoundFormula.of(name, **{**floors, k: value})


@pytest.mark.parametrize("name", sorted(FORMULAS))
def test_bool_parameters_refused(name):
    # bool is a subclass of int, but True is not a parameter value
    floors = dict(FORMULAS[name].params)
    for k in floors:
        for value in (True, False):
            with pytest.raises(ValueError, match=f"^parameter {k} must be an integer$"):
                BoundFormula.of(name, **{**floors, k: value})


@pytest.mark.parametrize(
    ("name", "params", "message"),
    [
        ("NoSuch", {"s": 1}, "unknown formula 'NoSuch'; known: " + ", ".join(sorted(FORMULAS))),
        ("ESS", {"n": 1}, "ESS expects parameters n, r"),
        ("ESS", {"n": 1, "r": 0, "s": 1}, "ESS expects parameters n, r"),
        ("CanciC", {"r": 1}, "CanciC expects parameters s"),
        ("CanciC", {}, "CanciC expects parameters s"),
        ("CanciC", {"name": 1}, "CanciC expects parameters s"),
        ("CanciC", {"cls": 1}, "CanciC expects parameters s"),
        ("CanciC", {"s": 1, "name": 1}, "CanciC expects parameters s"),
    ],
)
def test_malformed_keywords_refused(name, params, message):
    with pytest.raises(ValueError) as info:
        BoundFormula.of(name, **params)
    assert str(info.value) == message


def test_precision_env_override(monkeypatch):
    monkeypatch.delenv(bounds.PRECISION_ENV, raising=False)
    assert working_precision() == 60
    monkeypatch.setenv(bounds.PRECISION_ENV, "80")
    assert working_precision() == 80
    # the environment reaches a bound only through the precision passed to it
    assert evaluate_bound(BoundFormula.of("CanciC", s=1), 70).precision_digits == 70
    monkeypatch.setenv(bounds.PRECISION_ENV, "abc")
    with pytest.raises(ValueError):
        working_precision()
    monkeypatch.setenv(bounds.PRECISION_ENV, "5")
    with pytest.raises(ValueError):
        working_precision()


def test_bound_strings_round_trip_enclosure():
    v = evaluate_bound(BoundFormula.of("CanciC", s=1), 60)
    mp.dps = 100
    lo = mp.mpf(v.ln_lower_str)
    hi = mp.mpf(v.ln_upper_str)
    oracle = mp.mpf(ORACLES["c1"])
    assert lo <= oracle <= hi


def _true_ln(formula, s):
    """The formula's natural log in plain mpmath arithmetic at the current mp.dps."""
    mpf, log = mp.mpf, mp.log
    if formula == "CanciC":
        return s * (mpf(10) ** 12 + 8 * log(s + 1) + 8 * log(log(mpf(5 * (s + 1)))))
    if formula == "NpTail":
        return log(mp.exp(mpf(10) ** 12 * s) - 2)
    return mpf(18**9 * (3 * s - 2))  # TwoWaysIdeals


@pytest.mark.parametrize(
    "formula, s, precision",
    [("CanciC", 302, 200), ("NpTail", 307, 60), ("TwoWaysIdeals", 1262, 60)],
)
def test_magnitude_with_exactly_fifteen_integer_digits(formula, s, precision, monkeypatch, capsys):
    # log10 of each bound has 15 integer digits, so the 15-digit rendering of
    # the magnitude ends in ".0" and each bump is a tenth of a digit
    from orbita import cli

    monkeypatch.setenv("ORBITA_PRECISION", str(precision))
    code = cli.main(["bounds", "--formula", formula, "--params", f"s={s}"])
    out, err = capsys.readouterr()
    assert code == 0, err
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    magnitude = fields["magnitude"]
    assert magnitude.startswith("10^")
    with mp.workdps(precision + 40):
        ln = _true_ln(formula, s)
        assert mp.mpf(fields["ln lower"]) <= ln <= mp.mpf(fields["ln upper"])
        assert mp.mpf(magnitude[3:]) >= ln / mp.log(10)


def test_decimal_str_beyond_default_decimal_exponent():
    # both renderings need a bump of a number near 10^(2*10^6), beyond the
    # default decimal Emax of 999999
    prec = 300
    with mp.workprec(200):
        big = mp.mpf(10) ** 2_000_000
        above = big * (1 + mp.mpf(10) ** -30)
        below = big * (1 - mp.mpf(10) ** -30)
    up = decimal_str(above, 20, upward=True)
    assert mp.make_mpf(libmp.from_str(up, prec, "d")) >= above
    down = decimal_str(below, 20, upward=False)
    assert mp.make_mpf(libmp.from_str(down, prec, "u")) <= below


@pytest.fixture
def no_int_str_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def test_power_of_two_digit_count(no_int_str_limit):
    # every k around the default limit of 4300 digits (k = 14284 is the last
    # printable power), then seeded k up to 30103 digits
    rng = random.Random("pow2-digits")
    ks = list(range(14000, 14601)) + [rng.randrange(1, 10**5) for _ in range(200)]
    for k in ks:
        assert bounds._pow2_digits(k) == len(str(2**k)), k


def test_power_of_two_digit_count_doubles_its_precision():
    # 16 * 10^300 log10 2 needs more than 32 digits to tell its floor: the
    # refusal names the count mpmath gives at 400 digits
    mp.dps, dps = 400, mp.dps
    try:
        digits = int(mp.floor(16 * 10**300 * mp.log10(2))) + 1
    finally:
        mp.dps = dps
    with pytest.raises(BudgetError) as info:
        evaluate_bound(BoundFormula.of("KRun", s=10**300), 60)
    assert (info.value.observed, info.value.limit) == (digits, 4300)


def test_exact_value_refused_before_it_is_formed():
    # 2^(8 * 10^7) would take 10 MB; the refusal allocates next to nothing
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError) as info:
            evaluate_bound(BoundFormula.of("BeukersSchlickewei", r=10**7 - 1), 60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (info.value.observed, info.value.limit) == (24082400, 4300)
    assert str(info.value) == "exact value digit count 24082400 exceeds budget 4300"
    assert peak < 100_000


def test_exact_value_limit_follows_python(no_int_str_limit):
    # a limit of 0 caps the budget at MAX_PRECISION digits: past 2^65536,
    # KRun s=4097 (19734 digits) still has its exact value
    assert evaluate_bound(BoundFormula.of("KRun", s=4097), 60).exact == 2 ** (16 * 4097)
    sys.set_int_max_str_digits(19733)
    with pytest.raises(BudgetError) as info:
        evaluate_bound(BoundFormula.of("KRun", s=4097), 60)
    assert (info.value.observed, info.value.limit) == (19734, 19733)


@pytest.mark.parametrize(
    ("bound", "digits"),
    [
        (BoundFormula.of("KRun", s=10**9), 4816479931),
        (BoundFormula.of("BeukersSchlickewei", r=10**9), 2408239968),
    ],
)
def test_exact_value_capped_without_python_limit(no_int_str_limit, bound, digits):
    start = time.perf_counter()
    with pytest.raises(BudgetError) as info:
        evaluate_bound(bound, 60)
    assert time.perf_counter() - start < 0.1
    assert (info.value.observed, info.value.limit) == (digits, MAX_PRECISION)
    assert MAX_PRECISION == 20000


def test_exact_value_capped_above_python_limit(no_int_str_limit):
    # a limit above MAX_PRECISION is capped too: KRun s=5000 has 24083 digits
    sys.set_int_max_str_digits(10**6)
    with pytest.raises(BudgetError) as info:
        evaluate_bound(BoundFormula.of("KRun", s=5000), 60)
    assert (info.value.observed, info.value.limit) == (24083, MAX_PRECISION)
