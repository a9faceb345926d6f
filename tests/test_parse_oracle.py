"""Differential test of maps.parse_map against a rational-arithmetic reference parser.

The reference below computes over Q with Fraction coefficients, removes the
common factor with a monic Euclidean gcd and clears denominators by an lcm.
It shares the grammar and the error positions with parse_map, so on every
input both must give the same RationalMap, or raise the same exception type
with the same message and position. The only inputs left out are those that
hit parse_map's size budget, which the reference does not have.
"""

import random
from fractions import Fraction
from math import gcd

from orbita.maps import MAX_DEGREE, MapSyntaxError, make_map, parse_map
from orbita.numtheory import BudgetError

# ---------------------------------------------------------------------------
# reference: univariate polynomials over Q, ascending coefficients, no trailing 0


def _pnorm(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _padd(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return _pnorm(out)


def _pneg(a):
    return [-x for x in a]


def _pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _pnorm(out)


def _pdivmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        k = len(a) - len(b)
        c = a[-1] / b[-1]
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] -= c * y
        _pnorm(a)
    return _pnorm(q), a


def _pgcd(a, b):
    a, b = list(a), list(b)
    while b:
        _, r = _pdivmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


class _ReferenceParser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None
        ch = self.text[self.pos]
        return "-" if ch == "−" else ch

    def take(self):
        ch = self.peek()
        if ch is None:
            raise MapSyntaxError("unexpected end of expression", self.pos)
        self.pos += 1
        return ch

    def expect(self, ch):
        if self.peek() != ch:
            raise MapSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def _uint(self):
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise MapSyntaxError("expected an unsigned integer", start)
        return int(self.text[start : self.pos])

    def expr(self):
        ch = self.peek()
        neg = False
        if ch in ("+", "-"):
            self.take()
            neg = ch == "-"
        value = self.term()
        if neg:
            value = (_pneg(value[0]), value[1])
        while True:
            ch = self.peek()
            if ch not in ("+", "-"):
                return value
            self.take()
            n2, d2 = self.term()
            n1, d1 = value
            if ch == "-":
                n2 = _pneg(n2)
            value = (_padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2))

    def term(self):
        value = self.factor()
        while True:
            ch = self.peek()
            if ch not in ("*", "/"):
                return value
            at = self.pos
            self.take()
            n2, d2 = self.factor()
            n1, d1 = value
            if ch == "*":
                value = (_pmul(n1, n2), _pmul(d1, d2))
            else:
                if not n2:
                    raise MapSyntaxError("division by the zero function", at)
                value = (_pmul(n1, d2), _pmul(d1, n2))

    def factor(self):
        value = self.base()
        if self.peek() == "^":
            self.take()
            k = self._uint()
            n, d = [Fraction(1)], [Fraction(1)]
            for _ in range(k):
                n = _pmul(n, value[0])
                d = _pmul(d, value[1])
            value = (n, d)
        return value

    def base(self):
        ch = self.peek()
        if ch is None:
            raise MapSyntaxError("unexpected end of expression", self.pos)
        if ch == "z":
            self.take()
            return ([Fraction(0), Fraction(1)], [Fraction(1)])
        if ch == "(":
            self.take()
            value = self.expr()
            self.expect(")")
            return value
        if ch.isdecimal():
            num = self._uint()
            den = 1
            save = self.pos
            if self.peek() == "/":
                self.take()
                nxt = self.peek()
                if nxt is not None and nxt.isdecimal():
                    den = self._uint()
                    if den == 0:
                        raise MapSyntaxError("zero denominator in rational literal", save)
                else:
                    self.pos = save
            return ([Fraction(num, den)], [Fraction(1)])
        raise MapSyntaxError(f"unexpected character {ch!r}", self.pos)


def reference_parse_map(text):
    parser = _ReferenceParser(text)
    num, den = parser.expr()
    if parser.peek() is not None:
        raise MapSyntaxError("trailing input", parser.pos)
    if not den:
        raise MapSyntaxError("zero denominator", 0)
    g = _pgcd(num, den)
    if len(g) > 1:
        num = _pnorm(_pdivmod(num, g)[0])
        den = _pnorm(_pdivmod(den, g)[0])
    d = max(len(num), len(den)) - 1
    if d < 1:
        raise MapSyntaxError("constant maps are rejected", 0)
    if d > MAX_DEGREE:
        raise BudgetError(d, MAX_DEGREE, "map degree")

    def homogenize(poly):
        out = [Fraction(0)] * (d + 1)
        for i, c in enumerate(poly):
            out[d - i] = c
        return out

    Fq, Gq = homogenize(num), homogenize(den)
    scale = 1
    for c in Fq + Gq:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    return make_map([int(c * scale) for c in Fq], [int(c * scale) for c in Gq])


# ---------------------------------------------------------------------------
# seeded random expressions of the grammar, and corruptions of them

_LITERALS = ("0", "1", "2", "3", "5", "7", "12", "30", "64", "1/2", "3/4", "7/12",
             "0/5", "123456789", "97/96")


def _poly_text(rng):
    """A small polynomial in z; reused to build expressions with common factors."""
    terms = []
    for k in range(rng.randint(1, 3), -1, -1):
        c = rng.choice(("0", "1", "2", "3", "5", "1/2", "7/3"))
        mono = "" if k == 0 else ("z" if k == 1 else f"z^{k}")
        terms.append(c if not mono else f"{c}*{mono}")
    text = terms[0]
    for t in terms[1:]:
        text += rng.choice((" + ", " - ", "+", "-")) + t
    return text


# Each builder returns (text, D), where D bounds the degree of the unreduced
# numerator and denominator, so that the sample stays cheap to resolve.


def _base(rng, depth):
    r = rng.random()
    if r < 0.35:
        return "z", 1
    if r < 0.6 or depth <= 0:
        return rng.choice(_LITERALS), 0
    text, deg = _expr(rng, depth - 1)
    return "(" + text + ")", deg


def _factor(rng, depth):
    text, deg = _base(rng, depth)
    if rng.random() < 0.25:
        k = rng.choice((0, 1, 2, 2, 3, 4))
        text += rng.choice(("^", " ^ ", "^ ")) + str(k)
        deg *= k
    return text, deg


def _term(rng, depth):
    text, deg = _factor(rng, depth)
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        rhs, d2 = _factor(rng, depth)
        text += rng.choice(("*", " * ", "/", " / ")) + rhs
        deg += d2
    return text, deg


def _expr(rng, depth):
    text, deg = _term(rng, depth)
    text = rng.choice(("", "", "", "-", "− ", "+", "- ")) + text
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        rhs, d2 = _term(rng, depth)
        text += rng.choice((" + ", " - ", " − ", "+", "-")) + rhs
        deg += d2
    return text, deg


def _special(rng):
    p, q, r = _poly_text(rng), _poly_text(rng), _poly_text(rng)
    return rng.choice((
        f"({p})*({q})/(({p})*({r}))",
        f"({p})^2/(({p})*({q}))",
        f"(({q})*({p}))/(({r})*({p})^2)",
        f"0*z + {q}",
        f"0/z + ({q})/({r})",
        f"({q})/({r}) - 0*z^3",
        f"(z - {rng.randint(1, 5)})*({q})/((z - {rng.randint(1, 5)})*({r}))",
        f"−({p})/(−({q}))",
        f"({p})/({p})",
        f"z/(z - z) + {q}",
        f"({q})/0",
        f"z + {rng.randint(1, 9)}/0",
        f"({q})/(0)^1",
        # spacing is any str.isspace character, a digit any str.isdecimal one,
        # and a rational literal's bar may stand between spaces
        f"{p}\t+\n({q})/\u00a0({r})",
        f"\u0663*z^\u0663 - ({q})",
        f"({q})^² + z",
        f"3 / 4*z + ({q})",
        f"3/ z + {q}",
        f"({q})/(z −7/{rng.randint(1, 9)})",
    ))


def _corrupt(rng, text):
    alphabet = "z()+-*/^0123456789 @−²\t\n\u00a0\u0663"
    i = rng.randrange(len(text) + 1)
    op = rng.random()
    if op < 0.4 and text:
        return text[:i] + text[i + 1 :]
    if op < 0.7:
        return text[:i] + rng.choice(alphabet) + text[i:]
    return text[:i] + rng.choice(alphabet) + text[i + 1 :]


def random_texts(count, seed):
    rng = random.Random(seed)
    texts = []
    while len(texts) < count:
        r = rng.random()
        if r < 0.2:
            text = _special(rng)
        else:
            text, deg = _expr(rng, rng.randint(1, 3))
            if deg > 10:
                continue
        if rng.random() < 0.2:
            text = _corrupt(rng, text)
        texts.append(text)
    return texts


def _outcome(parse, text):
    try:
        return ("map", parse(text))
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return ("error", type(exc), str(exc), getattr(exc, "position", None))


def test_parse_map_agrees_with_reference_parser():
    # a superscript digit is no integer to int: a syntax error at its index
    texts = random_texts(2400, "parse-oracle") + ["z^²", "z^2²"]
    budget_hits = 0
    kinds = {"map": 0, "error": 0}
    for text in texts:
        got = _outcome(parse_map, text)
        if got[0] == "error" and got[1] is BudgetError:
            budget_hits += 1
            continue
        expected = _outcome(reference_parse_map, text)
        assert got == expected, text
        kinds[got[0]] += 1
    # the sample must exercise both outcomes, and the budget leaves nearly all of it in
    assert kinds["map"] >= 1200 and kinds["error"] >= 300, kinds
    assert budget_hits <= len(texts) // 100, budget_hits


def test_sample_covers_the_grammar():
    texts = random_texts(2400, "parse-oracle")
    needles = ("((", "^", "−", "0*z", "0/z", "/0", ")/((", "- ", "-(", "\t", "\n", "\u00a0",
               "\u0663*", "^\u0663", "^²", "3 / 4", "3/ z", "−7/")
    for needle in needles:
        assert any(needle in t for t in texts), needle
