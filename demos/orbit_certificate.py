"""
Certifying a finite forward orbit
=================================
"""

import json

from orbita import BudgetError, certificate_to_json, detect_orbit, parse_map, parse_point

# z^2 - 29/16 has bad reduction only at 2 (its resultant is 2^16) and a
# wealth of rational preperiodic points with denominator 4
m = parse_map("z^2 - 29/16")

for start in ("-1/4", "7/4", "3/4"):
    cert = detect_orbit(m, parse_point(start))
    print(f"start {start}: tail m={cert.tail_length}, period n={cert.period}")
    print("   ", " -> ".join(str(P) for P in cert.points))

# a certificate is a checked object: tampering with any field is caught by
# run_certificate_checks, and certificate_to_json re-runs the checks before
# serializing. The JSON keeps integers as strings on purpose.
cert = detect_orbit(m, parse_point("3/4"))
doc = certificate_to_json(cert, 60)
print(json.dumps(doc, indent=2)[:400], "...")

# an orbit that does not close within the budgets (10000 points, 4096-bit
# coordinates) raises BudgetError, which names what was used against what was
# allowed; the CLI turns it into exit status 3. It is never a claim that the
# orbit is infinite.
try:
    detect_orbit(parse_map("z^2 + 1"), parse_point("1"))
except BudgetError as exc:
    print("budget exhausted:", exc)
