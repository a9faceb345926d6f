"""Integer binary forms in (X, Y) and exact Sylvester resultants.

A form of degree d is a tuple of d+1 integers (c_0, ..., c_d) meaning
c_0 X^d + c_1 X^(d-1) Y + ... + c_d Y^d. Leading coefficients may be zero;
the tuple length fixes the formal degree.
"""

from __future__ import annotations

Form = tuple[int, ...]

__all__ = [
    "Form",
    "form_degree",
    "evaluate_form",
    "multiply_forms",
    "substitute_forms",
    "resultant",
]


def form_degree(f: Form) -> int:
    return len(f) - 1


def evaluate_form(f: Form, x, y):
    """f(x, y), exact; accepts ints or Fractions."""
    d = form_degree(f)
    acc = 0
    for i, c in enumerate(f):
        if c:
            acc += c * x ** (d - i) * y**i
    return acc


def multiply_forms(f: Form, g: Form) -> Form:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] += a * b
    return tuple(out)


def substitute_forms(f: Form, u: Form, v: Form) -> Form:
    """f(u(X,Y), v(X,Y)) for forms u, v of equal degree e; result degree d*e."""
    if len(u) != len(v):
        raise ValueError("substituted forms must have equal degree")
    d = form_degree(f)
    # u^0..u^d and v^0..v^d, one product each
    upow, vpow = [(1,)], [(1,)]
    for _ in range(d):
        upow.append(multiply_forms(upow[-1], u))
        vpow.append(multiply_forms(vpow[-1], v))
    out = [0] * (d * form_degree(u) + 1)
    for i, c in enumerate(f):
        if c:
            for j, t in enumerate(multiply_forms(upow[d - i], vpow[i])):
                out[j] += c * t
    return tuple(out)


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free determinant; exact over the integers.

    Every entry it computes is the textbook Bareiss value, with the same
    pivots, swaps and sign. A row that no step has updated yet ("fresh") is
    zero left of the pivot column, so by Sylvester's identity it stands for
    prev times its original entries: it is left alone while its pivot-column
    entry is 0, and scaled by prev once when that entry turns nonzero. A
    fresh pivot row's factor prev cancels the step's division, and the next
    prev is prev * pivot.
    """
    n = len(m)
    sign = 1
    prev = 1
    fresh = [True] * n
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    fresh[k], fresh[i] = fresh[i], fresh[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = m[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row = m[i]
            if fresh[i]:
                if row[k] == 0:
                    continue
                fresh[i] = False
                for j in range(k, n):
                    row[j] *= prev
            f = row[k]
            if fresh[k]:
                for j in range(k + 1, n):
                    row[j] = row[j] * pivot - f * row_k[j]
            else:
                for j in range(k + 1, n):
                    # exact division is the Bareiss invariant
                    row[j] = (row[j] * pivot - f * row_k[j]) // prev
        prev = prev * pivot if fresh[k] else pivot
    last = m[n - 1][n - 1]
    return sign * (last * prev if fresh[n - 1] else last)


def resultant(F: Form, G: Form) -> int:
    """Determinant of the 2d x 2d Sylvester matrix of two degree-d forms.

    Zero iff F and G share a projective root over the algebraic closure.
    """
    d = form_degree(F)
    if form_degree(G) != d:
        raise ValueError("resultant requires forms of equal degree")
    if d < 1:
        raise ValueError("degree must be at least 1")
    rows: list[list[int]] = []
    for shift in range(d):
        rows.append([0] * shift + list(F) + [0] * (d - 1 - shift))
    for shift in range(d):
        rows.append([0] * shift + list(G) + [0] * (d - 1 - shift))
    return _bareiss_det(rows)
