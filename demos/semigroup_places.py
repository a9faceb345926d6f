"""
One place set for several maps at once
======================================

When several maps act together, the orbit bounds depend on the maps only
through s = |S| for a common set S of places of bad reduction. Computing S
for the generated semigroup is just a union of resultant prime sets.
"""

from orbita import BoundFormula, bad_primes, evaluate_bound, parse_map

generators = [parse_map("z^2 - 1"), parse_map("z^2 - 29/16"), parse_map("1/z")]

union: set[int] = set()
for m in generators:
    primes = bad_primes(m)
    union.update(primes)
    print(f"{m}: resultant {m.res}, bad primes {sorted(primes) or '(none)'}")

s = 1 + len(union)
print(f"common S: infinity plus {sorted(union)}, s = {s}")

bound = evaluate_bound(BoundFormula.of("CanciC", s=s), 60)
print(f"orbit-length bound for the whole semigroup: {bound.magnitude_str()}")
