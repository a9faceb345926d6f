"""Rational maps of the projective line as pairs of integer binary forms.

A map is stored as a canonical model (F, G): two degree-d integer forms with
joint content 1, sign-canonical leading coefficient, and nonzero resultant.
The expression parser accepts rational functions of z and homogenizes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby
from math import gcd

from .forms import (
    Form,
    evaluate_form,
    form_degree,
    multiply_forms,
    resultant,
    substitute_forms,
)
from .numtheory import BudgetError, factor, vp
from .projective import ProjectivePoint, _DigitLimitError, _read_int, from_pair

__all__ = [
    "RationalMap",
    "MapSyntaxError",
    "make_map",
    "read_map",
    "parse_map",
    "map_to_expr",
    "evaluate",
    "bad_primes",
    "good_reduction_at",
    "moebius_order",
    "conjugate",
    "compose_maps",
    "iterate_map",
]

DEFAULT_COEFF_BITS = 4096


class MapSyntaxError(ValueError):
    """Expression syntax error with a 0-based position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at index {position})")


# degree budget of the parser's products and of compose_maps' composites:
# a larger model is refused before it is formed
MAX_DEGREE = 128

# the parser's descent takes four frames per level of parentheses, so a
# deeper expression is refused before it could exhaust Python's recursion limit
MAX_DEPTH = 100


@dataclass(frozen=True)
class RationalMap:
    """Canonical model of a degree-d rational self-map of the projective line."""

    F: Form
    G: Form

    def __post_init__(self):
        self._validate(None)

    def _validate(self, res: int | None) -> None:
        """Check the canonical-model invariants; compute res unless it is given."""
        if len(self.F) != len(self.G):
            raise ValueError("F and G must have equal degree")
        d = form_degree(self.F)
        if d < 1:
            raise ValueError("degree-0 constant maps are rejected")
        if gcd(*self.F, *self.G) != 1:
            raise ValueError("coefficients must have joint content 1")
        if _lead(self.F, self.G) < 0:
            raise ValueError("leading sign must be canonical")
        if res is None:
            res = resultant(self.F, self.G)
        if res == 0:
            raise ValueError("resultant must be nonzero (F, G share a root)")
        object.__setattr__(self, "_res", res)

    @property
    def degree(self) -> int:
        return form_degree(self.F)

    @property
    def res(self) -> int:
        """Resultant of the canonical model (cached at construction)."""
        return self._res  # type: ignore[attr-defined]

    def __str__(self) -> str:
        return map_to_expr(self)


def _lead(F, G) -> int:
    """The coefficient whose sign is canonical: the first nonzero one of G, else of F."""
    return next(c for c in (*G, *F) if c)


def _canonical(F, G) -> tuple[Form, Form, int]:
    """F and G divided by their joint content c, sign-canonical; also returns c."""
    F = tuple(int(c) for c in F)
    G = tuple(int(c) for c in G)
    joint = gcd(*F, *G)
    if joint == 0:
        raise ValueError("zero map")
    if joint > 1:
        F = tuple(c // joint for c in F)
        G = tuple(c // joint for c in G)
    if _lead(F, G) < 0:
        F = tuple(-c for c in F)
        G = tuple(-c for c in G)
    return F, G, joint


def _with_resultant(F: Form, G: Form, res: int) -> RationalMap:
    """A canonical model whose resultant is already known: every check but Bareiss."""
    m = object.__new__(RationalMap)
    object.__setattr__(m, "F", F)
    object.__setattr__(m, "G", G)
    m._validate(res)
    return m


def make_map(F, G) -> RationalMap:
    """Normalize a raw coefficient pair (content 1, canonical sign) and validate."""
    F, G, _ = _canonical(F, G)
    return RationalMap(F, G)


# ---------------------------------------------------------------------------
# univariate polynomials over Z (ascending coefficients, no trailing 0)


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return _trim(out)


def _neg(a: list[int]) -> list[int]:
    return [-x for x in a]


def _mul(a: list[int], b: list[int]) -> list[int]:
    """a * b, inside the parser's budgets.

    A product above MAX_DEGREE is refused before it is formed. One with a
    coefficient above DEFAULT_COEFF_BITS is refused as soon as it is formed,
    which takes at most (MAX_DEGREE + 1)^2 multiplications.
    """
    if not a or not b:
        return []
    degree = len(a) + len(b) - 2
    if degree > MAX_DEGREE:
        raise BudgetError(degree, MAX_DEGREE, "intermediate degree")
    out = multiply_forms(a, b)
    bits = max(map(abs, out)).bit_length()
    if bits > DEFAULT_COEFF_BITS:
        raise BudgetError(bits, DEFAULT_COEFF_BITS, "intermediate coefficient size")
    return _trim(list(out))


def _pow(a: list[int], k: int) -> list[int]:
    """a^k by repeated squaring; no square is formed that the result does not use."""
    out = [1]
    while k:
        if k & 1:
            out = _mul(out, a)
        k >>= 1
        if k:
            a = _mul(a, a)
    return out


def _primitive(a: list[int]) -> list[int]:
    """a divided by its content, leading coefficient positive."""
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """A pseudo-remainder: lc(b)^e * a reduced modulo b, all in Z[z]."""
    a = list(a)
    lead = b[-1]
    while len(a) >= len(b):
        c, k = a[-1], len(a) - len(b)
        a = [lead * x for x in a]
        for i, y in enumerate(b):
            a[k + i] -= c * y
        _trim(a)  # the leading term cancels, so a strictly shrinks
    return a


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two nonzero polynomials, by primitive pseudo-remainders.

    lc(b)^e is a unit over Q, so each step keeps the gcd over Q; stripping
    the content keeps the coefficients small.
    """
    a, b = _primitive(a), _primitive(b)
    while b:
        r = _prem(a, b)
        a, b = b, (_primitive(r) if r else [])
    return a


def _exact_div(a: list[int], b: list[int]) -> list[int]:
    """a / b for a primitive b that divides a over Q.

    By Gauss's lemma b then divides a over Z, so every step divides exactly.
    """
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = a[k + len(b) - 1] // b[-1]
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] -= c * y
    return q


# ---------------------------------------------------------------------------
# expression parser: recursive descent over the grammar
#   expr   := ['+'|'-'] term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := base ('^' uint)?
#   base   := 'z' | rational | '(' expr ')'
#   rational := uint ('/' uint)?
# The optional leading sign is a superset of the published grammar. Rational
# literals bind greedily, also across spaces: "1/2^3" is (1/2)^3 by the
# factor rule, "3 / 4" is a literal and "3/ z" divides 3 by z.
#
# A value is a pair (num, den) of integer polynomials, and the literal p/q is
# ([p], [q]). A literal 0 keeps its one coefficient: dividing by it is not a
# division by the zero function, but it leaves den zero, which read_map
# reports as a zero denominator.


def _tokens(text: str) -> list[tuple[str, int, int]]:
    """The tokens of text with their spans [start, end), closed by ("", n, n).

    A token is a run of decimal digits (str.isdecimal, as int reads them) or any
    other single character; spacing (str.isspace) only separates tokens, and
    U+2212 reads as '-'.
    """
    out, pos = [], 0
    for digits, run in groupby(text, str.isdecimal):
        run = "".join(run)
        if digits:
            out.append((run, pos, pos + len(run)))
        else:
            out += [("-" if ch == "−" else ch, pos + k, pos + k + 1)
                    for k, ch in enumerate(run) if not ch.isspace()]
        pos += len(run)
    out.append(("", pos, pos))
    return out


class _Parser:
    """The descent over a token list; self.i indexes the next token."""

    def __init__(self, text: str):
        self.tokens = _tokens(text)
        self.i = 0
        depth = max(accumulate(((t == "(") - (t == ")") for t, _, _ in self.tokens), initial=0))
        if depth > MAX_DEPTH:
            raise BudgetError(depth, MAX_DEPTH, "parenthesis depth")

    def accept(self, ops: str) -> str | None:
        """Take the next token if it is one of the characters in ops."""
        tok = self.tokens[self.i][0]
        if tok and tok in ops:
            self.i += 1
            return tok
        return None

    def uint(self) -> int:
        tok, start, _ = self.tokens[self.i]
        if not tok.isdecimal():
            raise MapSyntaxError("expected an unsigned integer", start)
        try:
            value = _read_int(tok)
        except _DigitLimitError as exc:
            raise MapSyntaxError(str(exc), start) from None
        self.i += 1
        return value

    def expr(self):
        neg = self.accept("+-") == "-"
        value = self.term()
        if neg:
            value = (_neg(value[0]), value[1])
        while op := self.accept("+-"):
            n1, d1 = value
            n2, d2 = self.term()
            if op == "-":
                n2 = _neg(n2)
            value = (_add(_mul(n1, d2), _mul(n2, d1)), _mul(d1, d2))
        return value

    def term(self):
        value = self.factor()
        while op := self.accept("*/"):
            at = self.tokens[self.i - 1][1]
            n1, d1 = value
            n2, d2 = self.factor()
            if op == "*":
                value = (_mul(n1, n2), _mul(d1, d2))
            else:
                if not n2:
                    raise MapSyntaxError("division by the zero function", at)
                value = (_mul(n1, d2), _mul(d1, n2))
        return value

    def factor(self):
        value = self.base()
        if self.accept("^"):
            k = self.uint()
            value = (_pow(value[0], k), _pow(value[1], k))
        return value

    def base(self):
        tok, start, end = self.tokens[self.i]
        if tok.isdecimal():
            num, den = self.uint(), 1
            # greedy rational literal: a '/' is its bar when a uint follows
            if self.tokens[self.i][0] == "/" and self.tokens[self.i + 1][0].isdecimal():
                self.i += 1
                den = self.uint()
                if den == 0:
                    raise MapSyntaxError("zero denominator in rational literal", end)
            return ([num], [den])
        self.i += 1
        if tok == "z":
            return ([0, 1], [1])
        if tok == "(":
            value = self.expr()
            if not self.accept(")"):
                raise MapSyntaxError("expected ')'", self.tokens[self.i][1])
            return value
        if not tok:
            raise MapSyntaxError("unexpected end of expression", start)
        raise MapSyntaxError(f"unexpected character {tok!r}", start)


def read_map(text: str) -> tuple[list[int], list[int]]:
    """Read a rational function of z into homogenized forms (F, G), no resultant yet.

    Common polynomial factors are removed before homogenization, so the
    forms always have nonzero resultant. Every intermediate product is held
    to MAX_DEGREE and DEFAULT_COEFF_BITS (BudgetError), including those a
    common factor later cancels.
    """
    parser = _Parser(text)
    num, den = parser.expr()
    tok, start, _ = parser.tokens[parser.i]
    if tok:
        raise MapSyntaxError("trailing input", start)
    if not den:
        raise MapSyntaxError("zero denominator", 0)
    num = _trim(num)  # a bare literal 0 is the zero function
    if num:
        g = _gcd(num, den)
        if len(g) > 1:
            num, den = _exact_div(num, g), _exact_div(den, g)
    d = max(len(num), len(den)) - 1
    if not num or d < 1:
        raise MapSyntaxError("constant maps are rejected", 0)
    # descending X powers (the coefficient of X^(d-i) Y^i is num[i]), padded to degree d
    F = [0] * (d + 1 - len(num)) + num[::-1]
    G = [0] * (d + 1 - len(den)) + den[::-1]
    return F, G


def parse_map(text: str) -> RationalMap:
    """Parse a rational function of z into a canonical model: read_map, then make_map."""
    return make_map(*read_map(text))


def _poly_str(coeffs_desc: list[int]) -> str:
    d = len(coeffs_desc) - 1
    parts: list[str] = []
    for i, c in enumerate(coeffs_desc):
        if c == 0:
            continue
        k = d - i
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "z" if mag == 1 else f"{mag}*z"
        else:
            body = f"z^{k}" if mag == 1 else f"{mag}*z^{k}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def map_to_expr(m: RationalMap) -> str:
    """Canonical printable expression; parsing it back gives the same model."""
    num = _poly_str(list(m.F))
    den = _poly_str(list(m.G))
    if den == "1":
        return num
    return f"({num})/({den})"


def evaluate(m: RationalMap, P: ProjectivePoint) -> ProjectivePoint:
    """Image of a point; never (0,0) because the resultant is nonzero."""
    return from_pair(evaluate_form(m.F, P.x, P.y), evaluate_form(m.G, P.x, P.y))


def bad_primes(m: RationalMap) -> list[int]:
    """Primes dividing the resultant of the canonical model.

    Good reduction holds at every prime not listed; the list may strictly
    contain the bad set of a minimal model (documented superset semantics).
    """
    return list(factor(m.res))


def good_reduction_at(m: RationalMap, p: int) -> bool:
    return vp(m.res, p) == 0


def _moebius_entries(A: RationalMap) -> tuple[int, int, int, int]:
    """The entries (a, b, c, d) of a degree-1 map A = ((a, b), (c, d)); ValueError otherwise."""
    if A.degree != 1:
        raise ValueError(f"a Moebius transformation has degree 1, not {A.degree}")
    (a, b), (c, d) = A.F, A.G
    return a, b, c, d


def moebius_order(A: RationalMap) -> int | None:
    """Order of a degree-1 map A = ((a, b), (c, d)) in PGL2(Q), or None when it is infinite.

    Order 1 is the identity model. Otherwise A has finite order k exactly
    when tr^2/det is 0, 1, 2 or 3, for k = 2, 3, 4 or 6: the ratio of A's
    eigenvalues is then a primitive k-th root of unity.
    """
    a, b, c, d = _moebius_entries(A)
    if (a, b, c, d) == (1, 0, 0, 1):
        return 1
    det = a * d - b * c
    return {0: 2, det: 3, 2 * det: 4, 3 * det: 6}.get((a + d) ** 2)


def conjugate(m: RationalMap, A: RationalMap) -> RationalMap:
    """The conjugated model A o m o A^(-1) for a degree-1 map A, content-normalized.

    Its resultant is derived, not recomputed. A's resultant is the
    determinant of its matrix ((a, b), (c, d)). Substituting the adjugate
    (determinant Res A) and then applying A give forms with resultant
    Res(A)^(d^2 + d) * Res(m); dividing both by their joint content c
    divides it by c^(2d), and the sign flip multiplies it by (-1)^(2d) = 1
    (Silverman, GTM 241, ch. 2). For Res A = +-1, c = 1 and the resultant,
    hence the bad-prime set, is preserved exactly.
    """
    a, b, c, d = _moebius_entries(A)
    # substitute the unnormalized inverse (adjugate) into both forms
    u: Form = (d, -b)
    v: Form = (-c, a)
    Fs = substitute_forms(m.F, u, v)
    Gs = substitute_forms(m.G, u, v)
    F2, G2, joint = _canonical(substitute_forms(A.F, Fs, Gs), substitute_forms(A.G, Fs, Gs))
    deg = m.degree
    res, rest = divmod(A.res ** (deg * deg + deg) * m.res, joint ** (2 * deg))
    if rest:
        raise AssertionError(f"{joint}^{2 * deg} does not divide the conjugate's resultant")
    return _with_resultant(F2, G2, res)


def _compose(outer: RationalMap, F: Form, G: Form) -> tuple[Form, Form]:
    """The canonical forms of outer(F, G), held to both budgets before any resultant."""
    d = outer.degree * form_degree(F)
    if d > MAX_DEGREE:
        raise BudgetError(d, MAX_DEGREE, "composite degree")
    F, G, _ = _canonical(substitute_forms(outer.F, F, G), substitute_forms(outer.G, F, G))
    worst = max(abs(c).bit_length() for c in F + G)
    if worst > DEFAULT_COEFF_BITS:
        raise BudgetError(worst, DEFAULT_COEFF_BITS, "coefficient size")
    return F, G


def compose_maps(outer: RationalMap, inner: RationalMap) -> RationalMap:
    """Formal composition outer(inner), content-normalized, budget-guarded."""
    return RationalMap(*_compose(outer, inner.F, inner.G))


def iterate_map(m: RationalMap, k: int) -> RationalMap:
    """k-fold composite of m with itself (k >= 1).

    Intermediate composites stay bare forms (a composite of maps has nonzero
    resultant), so only the map returned runs its validation and resultant.
    """
    if k < 1:
        raise ValueError("k must be positive")
    F, G = m.F, m.G
    for _ in range(k - 1):
        F, G = _compose(m, F, G)
    return m if k == 1 else RationalMap(F, G)
