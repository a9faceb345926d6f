"""Outward-rounded log-space evaluation of explicit orbit-length bounds.

The bounds handled here are astronomically large (think e^(10^12)), so every
formula is evaluated in log-space with interval arithmetic and directed
rounding. Reported upper values are certified upper roundings: recomputing at
higher precision can only tighten them downward. Comparisons of concrete
lengths against bounds are sound in the "length <= bound" direction and a
reported violation is a certified strict inequality.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal

import mpmath
from mpmath import libmp, mp

from .numtheory import BudgetError

__all__ = [
    "BoundFormula",
    "BoundValue",
    "evaluate_bound",
    "compare",
    "ln_interval",
    "decimal_str",
    "SATISFIED",
    "VIOLATED",
    "INCONCLUSIVE",
    "FORMULAS",
    "PRECISION_ENV",
    "MAX_PRECISION",
    "ESS_MAX_BITS",
]

SATISFIED = "satisfied"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

PRECISION_ENV = "ORBITA_PRECISION"
DEFAULT_PRECISION = 60
# at 20000 digits the slowest formula (CanciC) takes about 1.6 s and `orbit`,
# which evaluates two, about 3 s on a 2-core x86-64 box (at 40000: 4.5 s and
# 9 s); a larger value is refused so that every command ends within seconds
MAX_PRECISION = 20_000
# bit-length budget of ESS's exact (6n)^(3n) (r+1): 2^23 bits (1 MiB) admits
# n = 100000 (6.0e6 bits, under a second) and refuses a value that would
# take minutes and gigabytes before the integer is formed
ESS_MAX_BITS = 1 << 23

_CONTEXTS: dict[int, mpmath.ctx_iv.MPIntervalContext] = {}
# interval enclosure of ln 10 per precision, for magnitude_str
_LN10: dict[int, mpmath.ctx_iv.ivmpf] = {}


def _ctx(dps: int) -> mpmath.ctx_iv.MPIntervalContext:
    ctx = _CONTEXTS.get(dps)
    if ctx is None:
        ctx = mpmath.ctx_iv.MPIntervalContext()
        ctx.dps = dps
        _CONTEXTS[dps] = ctx
    return ctx


def _ln10(dps: int):
    ln10 = _LN10.get(dps)
    if ln10 is None:
        ctx = _ctx(dps)
        ln10 = _LN10[dps] = _ln_int(ctx, 10)
    return ln10


def _ln_int(ctx, n: int):
    """Interval enclosure of ln n for a positive integer n, from one mpf_log call.

    mpf_log rounds one fixed-point value only at the end, so its floor rounding
    and the next number above enclose what a floor and a ceiling call give.
    The integer is taken exactly, not rounded to the working precision first.
    """
    lo = libmp.mpf_log(libmp.from_int(n), ctx.prec, libmp.round_floor)
    hi = lo if n == 1 else libmp.mpf_perturb(lo, 0, ctx.prec, libmp.round_ceiling)
    return ctx.make_mpf((lo, hi))


def working_precision() -> int:
    """Decimal digits for bound evaluation; ORBITA_PRECISION overrides the default.

    The package's one read of the environment, made once by the command line.
    """
    raw = os.environ.get(PRECISION_ENV)
    if raw is None:
        return DEFAULT_PRECISION
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{PRECISION_ENV} must be an integer, got {raw!r}") from None
    if value < 10:
        raise ValueError(f"{PRECISION_ENV} must be at least 10")
    if value > MAX_PRECISION:
        raise ValueError(f"{PRECISION_ENV} must be at most {MAX_PRECISION}")
    return value


def _endpoints(x) -> tuple[mpmath.mpf, mpmath.mpf]:
    lo, hi = x._mpi_
    return mp.make_mpf(lo), mp.make_mpf(hi)


def ln_interval(n: int, precision: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Directed-rounded [lower, upper] enclosure of ln(n) for a positive integer."""
    if n < 1:
        raise ValueError("ln_interval needs a positive integer")
    return _endpoints(_ln_int(_ctx(precision), n))


# decimal exponent past which the exact power of ten costs more than a
# directed bracket of it (measured at 60 to 3000 digits); only ESS gets there
_EXACT_EXPONENT = 10_000
_TEN = libmp.from_int(10)


def _decimal_cmp(s: str, x: tuple) -> int:
    """Sign of (the exact value of the decimal string s) - x, for a finite raw mpf x."""
    d = Decimal(s)
    sign, man, exp, bc = x
    dsign, digits, exponent = d.as_tuple()
    if exponent > _EXACT_EXPONENT:
        # bracket c*10^exponent at a precision that almost always decides;
        # rounding toward zero and away from it bounds |d| from both sides
        coeff = libmp.from_int(int(Decimal((dsign, digits, 0))))
        prec = max(coeff[3], bc) + 64
        near = libmp.mpf_mul(coeff, libmp.mpf_pow_int(_TEN, exponent, prec, "d"), prec, "d")
        far = libmp.mpf_mul(coeff, libmp.mpf_pow_int(_TEN, exponent, prec, "u"), prec, "u")
        lo, hi = (far, near) if dsign else (near, far)
        if libmp.mpf_cmp(lo, x) > 0:
            return 1
        if libmp.mpf_cmp(hi, x) < 0:
            return -1
    num, den = d.as_integer_ratio()
    if sign:
        man = -man
    if exp >= 0:
        a, b = num, (man * den) << exp
    else:
        a, b = num << -exp, man * den
    return (a > b) - (a < b)


def decimal_str(value: mpmath.mpf, digits: int, upward: bool) -> str:
    """Decimal rendering certified >= value (upward) or <= value (downward)."""
    # to_str reads every bit of its argument, and past 2^3500 it builds a
    # decimal integer as long as the whole mantissa, which Python will not
    # print beyond 4300 digits: round in the rendering's direction to a width
    # sized to the digits asked for (a no-op on a value computed at `digits`)
    x = libmp.mpf_pos(value._mpf_, 4 * digits + 64, "c" if upward else "f")
    s = libmp.to_str(x, digits)
    # to_str rounds a floor-truncated (digits+3)-digit expansion to nearest,
    # so s starts less than one unit of its digits-th significant digit away
    # from x. Each bump moves s by one unit of its last place, which the
    # bumps keep and which is at least a tenth of that unit: s has at most
    # digits+1 significant digits (to_str appends ".0" when x has exactly
    # `digits` integer digits). After 11 bumps s is therefore past x, and
    # the exact comparison of the 12th string succeeds.
    for _ in range(12):
        c = _decimal_cmp(s, x)
        if (c >= 0) if upward else (c <= 0):
            return s
        d = Decimal(s)
        ulp = Decimal((0, (1,), d.as_tuple().exponent))
        # a wide-enough context, or the bump rounds the string to 28 digits
        dctx = Context(prec=len(d.as_tuple().digits) + 4, Emax=MAX_EMAX, Emin=MIN_EMIN)
        d = dctx.add(d, ulp) if upward else dctx.subtract(d, ulp)
        s = str(d).lower()
    raise AssertionError("directed decimal rendering failed to converge")


@dataclass(frozen=True)
class BoundFormula:
    """A formula of FORMULAS with its integer parameters, in registry order."""

    name: str
    params: tuple[tuple[str, int], ...]

    def __post_init__(self):
        spec = FORMULAS.get(self.name)
        if spec is None:
            known = ", ".join(sorted(FORMULAS))
            raise ValueError(f"unknown formula {self.name!r}; known: {known}")
        if tuple(k for k, _ in self.params) != spec.param_names:
            raise ValueError(f"{self.name} expects parameters {', '.join(spec.param_names)}")
        for (k, v), (_, floor) in zip(self.params, spec.params):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"parameter {k} must be an integer")
            if v < floor:
                raise ValueError(f"parameter {k}={v} below minimum {floor}")

    @classmethod
    def of(cls, name: str, /, **params: int) -> BoundFormula:
        """The formula `name` with its parameters by keyword, in any order."""
        spec = FORMULAS.get(name)
        if spec is not None and params.keys() == set(spec.param_names):
            params = {k: params[k] for k in spec.param_names}
        return cls(name, tuple(params.items()))

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class BoundValue:
    """Log-space value of a bound with certified directed roundings."""

    formula: BoundFormula
    ln_lower: mpmath.mpf
    ln_upper: mpmath.mpf
    exact: int | None
    exact_form: str
    precision_digits: int

    @property
    def ln_upper_str(self) -> str:
        return decimal_str(self.ln_upper, self.precision_digits, upward=True)

    @property
    def ln_lower_str(self) -> str:
        return decimal_str(self.ln_lower, self.precision_digits, upward=False)

    def magnitude_str(self) -> str:
        """Power-of-10 display of the bound's size, rounded outward."""
        if self.exact is not None and self.exact < 10**12:
            return str(self.exact)
        ctx = _ctx(self.precision_digits)
        log10 = ctx.mpf(self.ln_upper) / _ln10(self.precision_digits)
        _, hi = _endpoints(log10)
        return "10^" + decimal_str(hi, 15, upward=True)


def _decimal_digits(n: int) -> int:
    """Number of decimal digits of a nonzero integer, without rendering it."""
    x = math.log10(abs(n))  # 16 significant figures: within 1e-6 below 10^(10^9)
    k = round(x)
    if abs(x - k) > 1e-6:
        return math.floor(x) + 1
    return k + 1 if abs(n) >= 10**k else k


def _pow2_digits(k: int) -> int:
    """Number of decimal digits of 2^k, floor(k log10 2) + 1, without forming 2^k.

    k log10 2 is irrational for k >= 1, so at some precision both ends of
    its enclosure lie between the same two integers.
    """
    dps = 32
    while True:
        lo, hi = (k * _ln_int(_ctx(dps), 2) / _ln10(dps))._mpi_
        floor = libmp.to_int(lo, libmp.round_floor)
        if floor == libmp.to_int(hi, libmp.round_floor):
            return floor + 1
        dps *= 2


def _check_digits(digits: int) -> None:
    """Refuse an exact value, before it is formed, with more digits than Python prints.

    Python's limit of 0 ("no limit"), or one above MAX_PRECISION, is capped
    at MAX_PRECISION digits, so the value's cost stays bounded.
    """
    limit = min(sys.get_int_max_str_digits() or MAX_PRECISION, MAX_PRECISION)
    if digits > limit:
        raise BudgetError(digits, limit, "exact value digit count")


def _pow2(k: int) -> int:
    _check_digits(_pow2_digits(k))
    return 1 << k


def _pgl2_order(D: int) -> int:
    n = 2 + 4 * D * D
    _check_digits(_decimal_digits(n))
    return n


class _FormulaSpec:
    """A registry entry: each parameter with its least value, and the formula's evaluators."""

    def __init__(self, params, ln, display, exact=None):
        self.params = params
        self.param_names = tuple(k for k, _ in params)
        self.ln = ln
        self.display = display
        self.exact = exact


def _ln_canci_c(ctx, s):
    e12 = ctx.mpf(10) ** 12
    return s * (e12 + 8 * _ln_int(ctx, s + 1) + 8 * ctx.log(_ln_int(ctx, 5 * (s + 1))))


def _ln_morton_silverman(ctx, t, D):
    return 4 * D * ctx.log(12 * (t + 2) * _ln_int(ctx, 5 * (t + 2)))


def _ln_pezda_br(ctx, s, D):
    return (2 * D + 1) * ctx.log(12 * s * _ln_int(ctx, 5 * s))


def _ln_narkiewicz_pezda(ctx, s, D):
    pezda = (12 * s * _ln_int(ctx, 5 * s)) ** (2 * D + 1)
    value = pezda * (31 + ctx.mpf(2) ** (1031 * s)) / 3 - 1
    return ctx.log(value)


def _ln_ess(ctx, n, r):
    bits = 3 * n * (6 * n).bit_length() + (r + 1).bit_length()  # >= bits of the product
    if bits > ESS_MAX_BITS:
        raise BudgetError(bits, ESS_MAX_BITS, "ESS exponent bits")
    return ctx.mpf((6 * n) ** (3 * n) * (r + 1))


def _ln_np_tail(ctx, s):
    return ctx.log(ctx.exp(ctx.mpf(10) ** 12 * s) - 2)


FORMULAS: dict[str, _FormulaSpec] = {
    "CanciC": _FormulaSpec(
        (("s", 1),),
        _ln_canci_c,
        lambda s: f"[e^(10^12) (s+1)^8 ln(5(s+1))^8]^s with s={s}",
    ),
    "MortonSilverman": _FormulaSpec(
        (("t", 0), ("D", 1)),
        _ln_morton_silverman,
        lambda t, D: f"[12(t+2) ln(5(t+2))]^(4D) with t={t}, D={D}",
    ),
    "PezdaBR": _FormulaSpec(
        (("s", 1), ("D", 1)),
        _ln_pezda_br,
        lambda s, D: f"[12 s ln(5 s)]^(2D+1) with s={s}, D={D}",
    ),
    "NarkiewiczPezdaOrbit": _FormulaSpec(
        (("s", 1), ("D", 1)),
        _ln_narkiewicz_pezda,
        lambda s, D: f"(1/3) [12 s ln(5 s)]^(2D+1) (31 + 2^(1031 s)) - 1 with s={s}, D={D}",
    ),
    "BeukersSchlickewei": _FormulaSpec(
        (("r", 0),),
        lambda ctx, r: 8 * (r + 1) * _ln_int(ctx, 2),
        lambda r: f"2^(8(r+1)) with r={r}",
        lambda r: _pow2(8 * (r + 1)),
    ),
    "ESS": _FormulaSpec(
        (("n", 1), ("r", 0)),
        _ln_ess,
        lambda n, r: f"e^((6n)^(3n) (r+1)) with n={n}, r={r}",
    ),
    "NpTail": _FormulaSpec(
        (("s", 1),),
        _ln_np_tail,
        lambda s: f"e^(10^12 s) - 2 with s={s}",
    ),
    "KRun": _FormulaSpec(
        (("s", 1),),
        lambda ctx, s: 16 * s * _ln_int(ctx, 2),
        lambda s: f"2^(16 s) per the proof (statement says 2^(16^s)) with s={s}",
        lambda s: _pow2(16 * s),
    ),
    "TwoWaysIdeals": _FormulaSpec(
        (("s", 1),),
        lambda ctx, s: ctx.mpf(18**9 * (3 * s - 2)),
        lambda s: f"e^(18^9 (3s-2)) with s={s}",
    ),
    "Pgl2Order": _FormulaSpec(
        (("D", 1),),
        lambda ctx, D: _ln_int(ctx, 2 + 4 * D * D),
        lambda D: f"2 + 4 D^2 with D={D}",
        _pgl2_order,
    ),
}


def evaluate_bound(f: BoundFormula, precision: int) -> BoundValue:
    """ln of the bound as a certified [lower, upper] pair, plus the exact value if it has one."""
    spec = FORMULAS[f.name]
    kwargs = dict(f.params)
    exact = None if spec.exact is None else spec.exact(**kwargs)
    lo, hi = _endpoints(spec.ln(_ctx(precision), **kwargs))
    return BoundValue(
        formula=f,
        ln_lower=lo,
        ln_upper=hi,
        exact=exact,
        exact_form=spec.display(**kwargs),
        precision_digits=precision,
    )


def compare(length: int, b: BoundValue) -> str:
    """Compare an orbit-scale integer against a bound, soundly.

    Exact bounds use integer comparison. Otherwise: satisfied when the upward
    rounding of ln(length) is at most ln_upper; violated when the downward
    rounding exceeds ln_upper (certified strict, since ln_upper is itself an
    upper rounding of the true bound); inconclusive in the remaining sliver,
    where the caller may raise precision.
    """
    if length < 1:
        raise ValueError("length must be a positive integer")
    if b.exact is not None:
        return SATISFIED if length <= b.exact else VIOLATED
    lo, hi = ln_interval(length, b.precision_digits)
    if hi <= b.ln_upper:
        return SATISFIED
    if lo > b.ln_upper:
        return VIOLATED
    return INCONCLUSIVE
