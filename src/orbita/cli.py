"""Command-line front end.

Exit status taxonomy:
  0  success
  2  input could not be parsed (map, point, flags, ORBITA_PRECISION, read first)
     or stdout was closed before the output was written
  3  a budget was exhausted (orbit points or coordinate bits, factorization or
     size refusal, an exact bound too long to print)
  4  a verification suite found a counterexample (printed with its witness)
  5  an internal invariant was breached: a failed certificate check, or any
     other Exception a command raises (a bug), decided in main alone and
     reported on one line without a traceback; KeyboardInterrupt still stops
     the command

Every command reads all of its inputs, cheapest first, before any other
work. The costly ones come last: the texts of its maps, each read into
forms before any map's resultant is computed, and primes (Miller-Rabin).

JSON documents are built with fixed key order and stringified integers, so
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import bounds as _bounds
from .maps import bad_primes, make_map, read_map
from .numtheory import BudgetError, PlaceSet, factor
from .orbits import OrbitCertificate, certificate_to_json, detect_orbit
from .projective import (
    ProjectivePoint,
    _DigitLimitError,
    _read_int,
    _read_rational,
    log_distance,
    parse_point,
)
from .sunit import count_three_term, solve_unit_equation
from .suites import SUITE_NAMES, run_suite

__all__ = ["main"]


class _InputError(Exception):
    """User-supplied value failed to parse; reported as exit status 2."""


def _fail(message: str) -> None:
    print(f"orbita: error: {message}", file=sys.stderr)


def _read_map_arg(text: str) -> tuple[list[int], list[int]]:
    try:
        return read_map(text)
    except ValueError as exc:
        raise _InputError(f"bad map {text!r}: {exc}") from None


def _parse_point_arg(text: str) -> ProjectivePoint:
    try:
        return parse_point(text)
    except ValueError as exc:
        raise _InputError(str(exc)) from None


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


# ---------------------------------------------------------------- orbit


def _factorization_str(n: int, f: dict[int, int]) -> str:
    if not f:
        return str(n)
    parts = [] if n > 0 else ["-1"]
    for p, e in f.items():
        parts.append(f"{p}^{e}" if e > 1 else str(p))
    return f"{n} = " + " * ".join(parts)


def _primes_str(primes) -> str:
    return " ".join(str(p) for p in primes) if primes else "(none)"


def _cmd_orbit(args) -> int:
    start = _parse_point_arg(args.point)
    m = make_map(*_read_map_arg(args.map))
    result = detect_orbit(m, start)
    doc = certificate_to_json(result, args.precision)
    if args.json:
        doc = {"command": "orbit", **doc}
        _emit(doc)
        return 0
    print(f"map: {m}")
    print(f"start: {start}")
    print(
        f"tail length m = {result.tail_length}, period n = {result.period}, "
        f"orbit length {result.length}"
    )
    print("points: " + " -> ".join(str(P) for P in result.points))
    print(f"bad primes: {_primes_str(result.bad_primes)}; s = {result.s}")
    checks = doc["checks"]
    print("checks: " + " ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
    print(f"total-length bound, ln: {doc['bounds']['ln_c_s']}")
    print(f"period bound (t={len(result.bad_primes)}), ln: {doc['bounds']['ln_ms']}")
    print(f"bounds satisfied: {'yes' if doc['bounds']['satisfied'] else 'NO'}")
    return 0


# ---------------------------------------------------------------- delta


def _cmd_delta(args) -> int:
    P = _parse_point_arg(args.a)
    Q = _parse_point_arg(args.b)
    try:
        d = log_distance(P, Q, args.p)
    except ValueError as exc:  # p is not prime
        raise _InputError(str(exc)) from None
    print("inf" if d == float("inf") else int(d))
    return 0


# ---------------------------------------------------------------- badprimes


def _cmd_badprimes(args) -> int:
    m = make_map(*_read_map_arg(args.map))
    f = factor(m.res)
    if args.json:
        _emit(
            {
                "command": "badprimes",
                "map": str(m),
                "resultant": str(m.res),
                "factorization": [[str(p), str(e)] for p, e in f.items()],
                "bad_primes": [str(p) for p in f],
            }
        )
        return 0
    print(f"map: {m}")
    print(f"resultant: {_factorization_str(m.res, f)}")
    print(f"bad primes: {_primes_str(f)}")
    return 0


# ---------------------------------------------------------------- bounds


def _parse_params(tokens: list[str]) -> dict[str, int]:
    out: dict[str, int] = {}
    for token in tokens:
        for piece in token.split(","):
            piece = piece.strip()
            if not piece:
                continue
            key, sep, value = piece.partition("=")
            if not sep:
                raise _InputError(f"parameter {piece!r} is not of the form key=value")
            key = key.strip()
            if key in out:
                raise _InputError(f"parameter {key!r} is given more than once")
            try:
                out[key] = _read_int(value)
            except _DigitLimitError as exc:
                raise _InputError(f"parameter {piece!r}: {exc}") from None
            except ValueError:
                raise _InputError(f"parameter {piece!r} needs an integer value") from None
    return out


def _cmd_bounds(args) -> int:
    # an unknown formula is reported before a malformed parameter token
    given = _parse_params(args.params) if args.formula in _bounds.FORMULAS else {}
    try:
        formula = _bounds.BoundFormula.of(args.formula, **given)
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    value = _bounds.evaluate_bound(formula, args.precision)
    exact = None if value.exact is None else str(value.exact)
    if args.json:
        _emit(
            {
                "command": "bounds",
                "formula": formula.name,
                "params": {k: str(v) for k, v in formula.params},
                "closed_form": value.exact_form,
                "ln_lower": value.ln_lower_str,
                "ln_upper": value.ln_upper_str,
                "exact": exact,
                "magnitude": value.magnitude_str(),
                "precision": str(value.precision_digits),
            }
        )
        return 0
    lines = [
        f"formula: {formula}",
        f"closed form: {value.exact_form}",
        f"ln lower: {value.ln_lower_str}",
        f"ln upper: {value.ln_upper_str}",
    ]
    if exact is not None:
        lines.append(f"exact: {exact}")
    lines.append(f"magnitude: {value.magnitude_str()}")
    lines.append(f"precision: {value.precision_digits} digits")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------- sunit


def _parse_places(text: str) -> PlaceSet:
    primes = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece or piece.lower() in ("inf", "oo"):
            continue  # the archimedean place is always included
        try:
            primes.append(_read_int(piece))
        except _DigitLimitError as exc:
            raise _InputError(f"bad prime {piece!r}: {exc}") from None
        except ValueError:
            raise _InputError(f"bad prime {piece!r}") from None
    try:
        return PlaceSet.of(*primes)
    except ValueError as exc:
        raise _InputError(str(exc)) from None


def _parse_coefficients(text: str) -> tuple[Fraction, ...]:
    pieces = text.split(",")
    if len(pieces) != 3:
        raise _InputError("--three-term needs three comma-separated coefficients")
    try:
        coeffs = tuple(_read_rational(piece.strip()) for piece in pieces)
    except (ValueError, ZeroDivisionError) as exc:
        raise _InputError(f"bad coefficient list: {exc}") from None
    if 0 in coeffs:
        raise _InputError("need exactly three nonzero coefficients")
    return coeffs


def _cmd_sunit(args) -> int:
    if args.bound < 1:
        raise _InputError("--bound must be a positive integer")
    coeffs = None if args.three_term is None else _parse_coefficients(args.three_term)
    S = _parse_places(args.primes)
    if coeffs is None:
        report = solve_unit_equation(S, args.bound, args.precision)
        found = {
            "solutions": [
                [str(u.numerator), str(u.denominator), str(v.numerator), str(v.denominator)]
                for u, v in report.solutions
            ]
        }
    else:
        report = count_three_term(S, coeffs, args.bound, args.precision)
        found = {"coefficients": [str(c) for c in report.coefficients]}
    summary = {
        "count": report.count,
        "rank": len(S.finite_primes),
        "ln_bound": report.ln_bound.ln_upper_str,
        "box": args.bound,
    }
    if args.json:
        _emit(
            {
                "command": "sunit",
                "S": str(S),
                **found,
                **{k: str(v) for k, v in summary.items()},
                "gamma_rank": str(report.gamma_rank),
                "bound_ok": report.bound_ok,
            }
        )
    elif coeffs is None:
        rows = [",".join(row) for row in found["solutions"]]
        print("\n".join(["u_num,u_den,v_num,v_den", *rows]))
        print(json.dumps(summary), file=sys.stderr)
    else:
        print(json.dumps(summary))
    return 0


# ---------------------------------------------------------------- verify


def _cmd_verify(args) -> int:
    if args.iterations is not None and args.iterations < 1:
        raise _InputError("--iterations must be a positive integer")
    reports = run_suite(args.suite, args.iterations, args.seed)
    failed = [r for r in reports if not r.passed]
    if args.json:
        _emit(
            {
                "command": "verify",
                "seed": str(args.seed),
                "suites": [r.to_dict() for r in reports],
                "passed": not failed,
            }
        )
    else:
        for r in reports:
            line = f"{r.suite}: cases={r.cases} comparisons={r.comparisons}"
            print(line + (" passed" if r.passed else " FAILED"))
            if not r.passed:
                print(f"counterexample: {r.counterexample}")
        if not failed:
            print(f"all suites passed (seed={args.seed})")
    return 4 if failed else 0


# ---------------------------------------------------------------- semigroup


def _cmd_semigroup(args) -> int:
    exprs = [piece.strip() for piece in args.maps.split(",") if piece.strip()]
    if not exprs:
        raise _InputError("--maps needs at least one expression")
    start = None if args.point is None else _parse_point_arg(args.point)
    forms = [_read_map_arg(e) for e in exprs]  # every text before any resultant
    maps = [make_map(F, G) for F, G in forms]
    if start is None:
        orbits: list[OrbitCertificate] = []
        per_map = [tuple(bad_primes(m)) for m in maps]
    else:
        # a closed orbit's certificate already holds its generator's bad primes
        orbits = [detect_orbit(m, start) for m in maps]
        per_map = [cert.bad_primes for cert in orbits]
    union = sorted(set().union(*per_map))
    s = 1 + len(union)
    c = _bounds.evaluate_bound(_bounds.BoundFormula.of("CanciC", s=s), args.precision)
    if args.json:
        doc = {
            "command": "semigroup",
            "generators": [
                {"map": str(m), "bad_primes": [str(p) for p in bad]}
                for m, bad in zip(maps, per_map)
            ],
            "union_bad_primes": [str(p) for p in union],
            "s": str(s),
            "ln_c_s": c.ln_upper_str,
        }
        if start is not None:
            doc["orbits"] = [
                {
                    "map": str(cert.map),
                    "start": str(cert.start),
                    "tail_length": str(cert.tail_length),
                    "period": str(cert.period),
                }
                for cert in orbits
            ]
        _emit(doc)
    else:
        for m, bad in zip(maps, per_map):
            print(f"generator {m}: bad primes {_primes_str(bad)}")
        print(f"union bad primes: {_primes_str(union)}")
        print(f"s = {s}")
        print(f"ln c(s) upper: {c.ln_upper_str}")
        for cert in orbits:
            print(
                f"orbit of {cert.start} under {cert.map}: m={cert.tail_length} "
                f"n={cert.period} length {cert.length}"
            )
    return 0


# ---------------------------------------------------------------- driver


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbita",
        description="Certify finite orbits of rational maps on the projective line "
        "over Q, with exact arithmetic and log-space bound comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbit", help="iterate a map and certify the orbit")
    p.add_argument("--map", required=True, help="rational map expression in z")
    p.add_argument("--point", required=True, help="start point (rational, inf, or [x:y])")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("delta", help="p-adic logarithmic distance between two points")
    p.add_argument("--p", type=int, required=True, help="prime")
    p.add_argument("--a", required=True, help="first point")
    p.add_argument("--b", required=True, help="second point")

    p = sub.add_parser("badprimes", help="primes of bad reduction via the resultant")
    p.add_argument("--map", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bounds", help="evaluate a named bound formula in log-space")
    p.add_argument("--formula", required=True)
    p.add_argument("--params", nargs="*", default=[], help="key=value pairs")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sunit", help="scan S-unit equations inside an exponent box")
    p.add_argument("--primes", required=True, help="comma-separated finite primes")
    p.add_argument("--bound", type=int, required=True, help="exponent box radius")
    p.add_argument("--three-term", default=None, metavar="a1,a2,a3")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run the randomized property suites")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("semigroup", help="common good-reduction place set of generators")
    p.add_argument("--maps", required=True, help="comma-separated map expressions")
    p.add_argument("--point", default=None)
    p.add_argument("--json", action="store_true")

    return parser


# built once per process: argparse keeps no state between parse_args calls
_PARSER = _build_parser()

_DISPATCH = {
    "orbit": _cmd_orbit,
    "delta": _cmd_delta,
    "badprimes": _cmd_badprimes,
    "bounds": _cmd_bounds,
    "sunit": _cmd_sunit,
    "verify": _cmd_verify,
    "semigroup": _cmd_semigroup,
}


# flags whose values may begin with "-" (negative rationals, map expressions);
# fused into --flag=value so argparse does not mistake the value for an option
_VALUE_FLAGS = {"--map", "--maps", "--point", "--a", "--b", "--three-term", "--primes"}


def _fuse_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _PARSER.parse_args(_fuse_values(list(argv)))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return int(exc.code or 0)
    try:
        # the one configuration input, read before any command does work
        args.precision = _bounds.working_precision()
    except ValueError as exc:
        _fail(str(exc))
        return 2
    try:
        status = _DISPATCH[args.command](args)
        # a closed stdout fails here, not at interpreter shutdown
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader is gone: point fd 1 at devnull so the flush at exit succeeds
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        _fail("stdout was closed before the output was written")
        return 2
    except _InputError as exc:
        _fail(str(exc))
        return 2
    except BudgetError as exc:
        _fail(f"budget exhausted: {exc}")
        return 3
    except Exception as exc:
        # input errors and budgets were caught above, so anything else is a bug
        _fail(f"internal invariant breach: {exc}")
        return 5


if __name__ == "__main__":
    sys.exit(main())
