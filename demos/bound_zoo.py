"""
The bound zoo: every formula at desk scale
==========================================

All bounds are handled in log-space with outward rounding, because some of
them (notably the orbit-length bound) are on the order of exp(10^12) and can
never be materialized as integers. Comparing an orbit length against such a
bound only needs ln(length) and a certified upper endpoint.
"""

from orbita import (
    FORMULAS,
    SATISFIED,
    BoundFormula,
    compare,
    evaluate_bound,
)

# small reference parameters per formula
PARAMS = {
    "CanciC": {"s": 1},
    "MortonSilverman": {"t": 1, "D": 1},
    "PezdaBR": {"s": 2, "D": 1},
    "NarkiewiczPezdaOrbit": {"s": 1, "D": 1},
    "BeukersSchlickewei": {"r": 2},
    "ESS": {"n": 3, "r": 3},
    "NpTail": {"s": 1},
    "KRun": {"s": 1},
    "TwoWaysIdeals": {"s": 1},
    "Pgl2Order": {"D": 1},
}

for name in FORMULAS:
    formula = BoundFormula.of(name, **PARAMS[name])
    value = evaluate_bound(formula, 60)
    exact = "" if value.exact is None else f"  = {value.exact}"
    print(f"{formula}")
    print(f"    {value.exact_form}")
    print(f"    magnitude {value.magnitude_str()}{exact}")

# a desk-scale verdict: is an orbit of total length 3 within the s=1 bound?
value = evaluate_bound(BoundFormula.of("CanciC", s=1), 60)
print("compare(3, CanciC(1)) ->", compare(3, value))
assert compare(3, value) == SATISFIED

# every evaluation names its precision in decimal digits (the command line
# reads it from ORBITA_PRECISION, 60 by default); a higher precision narrows
# every enclosure, and the endpoints at 60 and at 200 digits nest
coarse = evaluate_bound(BoundFormula.of("CanciC", s=1), 60)
fine = evaluate_bound(BoundFormula.of("CanciC", s=1), 200)
print("ln upper, 60 digits: ", coarse.ln_upper_str[:40], "...")
print("ln upper, 200 digits:", fine.ln_upper_str[:40], "...")
