"""
Scanning S-unit equations in an exponent box
============================================
"""

from fractions import Fraction

from orbita import (
    PlaceSet,
    count_three_term,
    solve_unit_equation,
    two_way_representations,
)

# u + v = 1 with u, v built only from the prime 2 (and sign). Restricting
# exponents to |e| <= 20 already finds everything: the full solution set of
# this classic equation is {-1 + 2, 1/2 + 1/2, 2 - 1}.
S = PlaceSet.of(2)
report = solve_unit_equation(S, 20, 60)
print(f"S = {S}, box radius 20")
for u, v in report.solutions:
    print(f"  {u} + {v} = 1")
print(f"count {report.count} <= rank bound (ln {report.ln_bound.ln_upper_str[:12]}...)")

# how many ways can 1 be written as a sum of two S-units, unordered?
ways = two_way_representations(Fraction(1), S, 8)
for u, v in ways.representations:
    print(f"  1 = {u} + {v}")
print("at least two ways:", ways.two_ways)

# three-term variant: count solutions of u1 + u2 - u3 = 1 with nonvanishing
# subsums, the shape controlled by the exponential rank bound
three = count_three_term(PlaceSet.of(2), (Fraction(1), Fraction(1), Fraction(-1)), 6, 60)
print(f"nondegenerate three-term solutions in the radius-6 box: {three.count}")
print(f"within the bound: {three.bound_ok}")
