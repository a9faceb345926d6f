"""
Collapsing an orbit tail onto a fixed point and normalizing it to [0:1]
=======================================================================

Any preperiodic orbit with tail length m and period n can be studied through
the n-fold composite: the entry point of the cycle becomes a fixed point and
the tail collapses to every n-th point. Conjugating by a degree-1 map of
resultant 1 (a Moebius transformation of determinant 1) then moves that fixed
point to [0:1] without touching the bad primes.
"""

from orbita import (
    PlaceSet,
    bad_primes,
    check_tail_divisibility,
    collapse_to_fixed_point,
    detect_orbit,
    normalize_orbit,
    parse_map,
    parse_point,
    verify_np_conditions,
)

m = parse_map("z^2 - 2")
cert = detect_orbit(m, parse_point("0"))
print("orbit:", " -> ".join(str(P) for P in cert.points), f"(m={cert.tail_length}, n={cert.period})")

composite, tail = collapse_to_fixed_point(cert)
print("composite:", composite)
print("collapsed tail:", " -> ".join(str(P) for P in tail))

map2, tail2, A = normalize_orbit(composite, tail)
print("conjugating map:", A)
print("normalized map:", map2)
print("normalized tail:", " -> ".join(str(P) for P in tail2))

# the resultant magnitude survives the conjugation, so the place set needed
# for good reduction is unchanged
assert abs(map2.res) == abs(composite.res)

S = PlaceSet.of(*bad_primes(map2))
# conditions (1)-(3) and the tail bound hold, or CertificateCheckError is raised
print("tail bound:", verify_np_conditions(map2, tail2, S, 60))

# the normalized tail walks into [0:1] with monotone valuations at every
# good prime of map2 (the primes of its resultant are skipped); that
# monotonicity is what makes the tail shorter than any prescribed valuation
# budget. A violation raises CertificateCheckError.
comparisons = check_tail_divisibility(map2, tail2)
print(f"divisibility: {comparisons} comparisons over {len(tail2) - 1} steps")
