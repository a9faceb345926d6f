"""Fuzz gate: drawn command lines end in exit 0, 2 or 3, each within a cap.

hypothesis draws command lines for `orbit`, `badprimes`, `bounds`, `sunit`,
`delta`, `semigroup` and `verify`. It is derandomized, with a fixed number of
examples per command, so every run checks the same lines. Each line runs
in-process through `cli.main`. An error exit must leave stdout empty. Every
exit 3 is a budget refusal and must name what it used against what it
allowed. One field in eight is drawn malformed on purpose, and so is
ORBITA_PRECISION for every command: a malformed value is read before any
work, so a line whose flags parse must exit 2 within PRECISION_CAP.

Maps come from the parser's grammar at depth 2 (depth 1 for `semigroup`),
with exponents up to 3 and one-digit literals. One map in eight is wrapped
in 1 to 2 * MAX_DEPTH parentheses, so both sides of the parser's depth
budget are drawn. The points of `orbit` and
`semigroup` have coordinates up to 10^6, and one point in eight has
coordinates up to 10^60. Points and `sunit` coefficients also come as
exponent literals (EXPONENTS), up to one whose written-out form has 10^8 + 1
digits. A literal of 4301 digits, one over Python's int-string limit, is
drawn among the malformed points, map integer tokens, `bounds` parameter
values and `sunit` primes: it must be refused by orbita's digit limit, never
with Python's advice to raise it. `semigroup` factors every resultant, and a
closed orbit factors its resultant and the cross term of each pair of its
points. Each factor call spends at most one rho work budget, so a large
point ends within the cap too, certified or refused.
"""

import io
import re
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orbita import cli
from orbita.bounds import FORMULAS, PRECISION_ENV
from orbita.maps import MAX_DEPTH

CAP = 3.0  # seconds per call
PRECISION_CAP = 0.2  # seconds per call under a malformed ORBITA_PRECISION
MALFORMED_PRECISIONS = ["9", "20001", "x", "", "1.5"]
BUDGET_EXIT = re.compile(r"orbita: error: budget exhausted: \w[\w ]* \d+ exceeds budget \d+\n")


def mostly(valid, invalid):
    """valid seven times in eight, invalid otherwise."""
    return st.integers(0, 7).flatmap(lambda i: invalid if i == 7 else valid)


# a typographic minus, brackets and a colon reach the point parser too
GARBAGE = st.text(alphabet="z0123456789+-*/^() []:inf−", max_size=10)
# one digit over Python's int-string limit: refused by the digit limit
# wherever an integer is read from the command line
LONG = "9" * 4301
# parameters: 0, small and negative values, and huge ones
INTEGERS = st.one_of(
    st.integers(-3, 3),
    st.integers(-(10**6), 10**6),
    st.sampled_from([10**9, -(10**9), 2**64, 10**30, -(10**30), 10**400]),
)
LITERALS = st.one_of(
    st.integers(0, 9).map(str),
    st.tuples(st.integers(0, 9), st.integers(1, 9)).map("{0[0]}/{0[1]}".format),
)


def expressions(depth: int):
    leaf = st.one_of(st.just("z"), LITERALS)
    if depth == 0:
        return leaf
    sub = expressions(depth - 1)
    return st.one_of(
        st.tuples(sub, st.sampled_from("+-*/"), sub).map("({0[0]}) {0[1]} ({0[2]})".format),
        st.tuples(sub, st.sampled_from("+-*/"), sub).map("{0[0]}{0[1]}{0[2]}".format),
        st.tuples(sub, st.integers(0, 3)).map("({0[0]})^{0[1]}".format),
        sub.map("-({})".format),
        leaf,
    )


def maps(depth: int):
    """Expressions with z kept in one term, so that few are constant."""
    e = expressions(depth)
    long_token = st.sampled_from([f"{LONG}*z", f"z + 1/{LONG}", f"z^{LONG}"])
    return mostly(
        st.tuples(e, st.sampled_from("+-*/")).map("({0[0]}) {0[1]} z".format),
        st.one_of(GARBAGE, long_token),
    )


def nested(exprs):
    """exprs, one in eight wrapped in 1 to 2 * MAX_DEPTH parentheses."""
    depths = st.integers(1, 2 * MAX_DEPTH)
    return mostly(exprs, st.tuples(exprs, depths).map(lambda d: "(" * d[1] + d[0] + ")" * d[1]))


# exponent literals: small ones, one that stands for 4000 digits after the
# point, and one that stands for 10^8 + 1 digits, over Python's limit of 4300
EXPONENTS = st.sampled_from(["1e3", "-2.5e-3", "1e-4000", "1e100000000"])


def points(integers):
    return mostly(
        st.one_of(
            integers.map(str),
            st.tuples(integers, integers).map("{0[0]}/{0[1]}".format),
            st.tuples(integers, integers).map("[{0[0]}:{0[1]}]".format),
            st.just("inf"),
            EXPONENTS,
        ),
        st.one_of(GARBAGE, st.sampled_from([LONG, f"[{LONG}:1]", f"-1/{LONG}"])),
    )


# coordinates of 7 to 60 digits, the length drawn first so that long ones occur
LARGE = st.integers(7, 60).flatmap(lambda k: st.integers(10 ** (k - 1), 10**k - 1))
LARGE = st.tuples(LARGE, st.booleans()).map(lambda pair: -pair[0] if pair[1] else pair[0])
# a closed orbit factors the cross term of every pair of its points; one
# point in eight is large (both strata are drawn, which keeps that share)
ORBIT_POINTS = st.tuples(
    st.integers(0, 7), points(st.integers(-(10**6), 10**6)), points(LARGE)
).map(lambda drawn: drawn[2] if drawn[0] == 7 else drawn[1])


def _run(argv: list[str], precision: str | None = None) -> int:
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(PRECISION_ENV, raising=False)
        if precision is not None:
            mp.setenv(PRECISION_ENV, precision)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        elapsed = time.perf_counter() - start
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "set_int_max_str_digits" not in err.getvalue(), argv
    if LONG in err.getvalue():
        # an error that quotes the over-long literal gives the digit limit as its reason
        assert "stands for 4301 digits, over the limit of 4300" in err.getvalue(), argv
    assert elapsed <= CAP, (argv, elapsed)
    if precision in MALFORMED_PRECISIONS:
        # argparse's usage error, or else the precision error, before any work
        assert code == 2, (argv, precision, err.getvalue())
        assert elapsed <= PRECISION_CAP, (argv, elapsed)
        expected = ("usage: ", f"orbita: error: {PRECISION_ENV} must be")
        assert err.getvalue().startswith(expected), argv
    if code:
        assert out.getvalue() == "", argv
    if code == 3:
        assert BUDGET_EXIT.fullmatch(err.getvalue()), (argv, err.getvalue())
    return code


def fuzz(examples: int):
    return settings(
        max_examples=examples,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=list(HealthCheck),
    )


# the environment's precision: unset, or malformed one time in eight
PRECISIONS = mostly(st.none(), st.sampled_from(MALFORMED_PRECISIONS))


# the orbit budgets are fixed: a budget flag is a usage error
BUDGET_FLAGS = st.tuples(st.sampled_from(["--max-steps", "--max-bits"]), INTEGERS).map(
    lambda pair: [pair[0], str(pair[1])]
)


@fuzz(200)
@given(nested(maps(2)), ORBIT_POINTS, st.booleans(), mostly(st.just([]), BUDGET_FLAGS), PRECISIONS)
def test_orbit(expr, point, as_json, budget, precision):
    argv = ["orbit", "--map", expr, "--point", point] + ["--json"] * as_json + budget
    code = _run(argv, precision)
    if budget:
        assert code == 2


@fuzz(100)
@given(nested(maps(2)), st.booleans(), PRECISIONS)
def test_badprimes(expr, as_json, precision):
    _run(["badprimes", "--map", expr] + ["--json"] * as_json, precision)


@st.composite
def bounds_lines(draw):
    formula = draw(mostly(st.sampled_from(sorted(FORMULAS)), st.sampled_from(["", "Unknown"])))
    names = list(FORMULAS[formula].param_names) if formula in FORMULAS else []
    names = draw(st.permutations(names))
    # the formula's own names in any order, or one missing, repeated or unknown,
    # or one that is also the name of a parameter of BoundFormula.of
    malformed = [names[1:], names + names[:1], ["x"], ["name"], ["cls"], names + ["name"]]
    names = draw(mostly(st.just(names), st.sampled_from(malformed)))
    huge = st.sampled_from([10**9, 2**64, 10**30, 10**400])
    values = mostly(
        st.one_of(st.integers(1, 10**6), huge).map(str),
        st.one_of(
            INTEGERS.map(str), st.sampled_from(["", "x", "1.5", "1e3", "-"]), st.just(LONG)
        ),
    )
    return ["bounds", "--formula", formula, "--params"] + [f"{k}={draw(values)}" for k in names]


@fuzz(300)
@given(
    bounds_lines(),
    mostly(st.sampled_from([None, "10", "60", "200"]), st.sampled_from(MALFORMED_PRECISIONS)),
    st.booleans(),
)
def test_bounds(argv, precision, as_json):
    _run(argv + ["--json"] * as_json, precision)


NONZERO = st.tuples(st.sampled_from(["", "-"]), st.integers(1, 9), st.integers(1, 9)).map(
    "{0[0]}{0[1]}/{0[2]}".format
)


@fuzz(200)
@given(
    mostly(
        st.lists(st.sampled_from(["2", "3", "5", "7", "11", "13"]), max_size=4, unique=True),
        st.sampled_from(
            [["0"], ["1"], ["4"], ["-3"], ["inf", "2"], ["x"], ["2", "2"], ["2", LONG]]
        ),
    ),
    mostly(st.one_of(st.integers(1, 12), st.integers(13, 10**6)), st.integers(-2, 0)),
    st.integers(0, 7),
    st.integers(7, 4300).flatmap(lambda k: st.integers(10 ** (k - 1), 10**k - 1)),
    st.one_of(
        st.none(),
        mostly(
            st.lists(mostly(NONZERO, EXPONENTS), min_size=3, max_size=3).map(",".join),
            st.sampled_from(["1,1", "1,1,1,1", "1,x,1", "1,0,1"]),
        ),
    ),
    st.booleans(),
    PRECISIONS,
)
def test_sunit(primes, small, stratum, large, three_term, as_json, precision):
    # one radius in eight has 7 to 4300 digits: its box work can outgrow
    # the digits Python prints, and the refusal must still print it
    B = large if stratum == 7 else small
    argv = ["sunit", "--primes", ",".join(primes), "--bound", str(B)]
    if three_term is not None:
        argv += ["--three-term", three_term]
    _run(argv + ["--json"] * as_json, precision)


@fuzz(200)
@given(
    mostly(st.sampled_from([2, 3, 5, 7, 10**9 + 7, 2**61 - 1]), INTEGERS),
    points(INTEGERS),
    points(INTEGERS),
    PRECISIONS,
)
def test_delta(p, a, b, precision):
    _run(["delta", "--p", str(p), "--a", a, "--b", b], precision)


@fuzz(100)
@given(
    mostly(st.lists(nested(maps(1)), min_size=1, max_size=3).map(",".join), st.just("")),
    st.one_of(st.none(), ORBIT_POINTS),
    st.booleans(),
    PRECISIONS,
)
def test_semigroup(exprs, point, as_json, precision):
    argv = ["semigroup", "--maps", exprs]
    if point is not None:
        argv += ["--point", point]
    _run(argv + ["--json"] * as_json, precision)


# an explicit count of 1 to 10 cases, or one over the 10000 ceiling
ITERATIONS = mostly(
    st.one_of(st.integers(1, 10), st.integers(10001, 10**9)).map(str),
    st.sampled_from(["0", "-1", "", "x", "1.5"]),
)


@fuzz(60)
@given(
    mostly(
        st.sampled_from(["prop51", "prop52", "remark", "divisibility", "all"]),
        st.sampled_from(["", "none", "ALL"]),
    ),
    ITERATIONS,
    mostly(INTEGERS.map(str), st.sampled_from(["", "x", "1.5"])),
    st.booleans(),
    PRECISIONS,
)
def test_verify(suite, iterations, seed, as_json, precision):
    argv = ["verify", "--suite", suite, "--iterations", iterations, "--seed", seed]
    code = _run(argv + ["--json"] * as_json, precision)
    if code == 0 and int(iterations) > 10000:
        assert suite == "remark"  # the corpus suite ignores the count
