"""
How close are two rational points p-adically?
=============================================

The distance used everywhere in this package is a valuation, not a metric:
for coprime-coordinate points P = [x1 : y1] and Q = [x2 : y2] it is

    delta_p(P, Q) = v_p(x1 y2 - x2 y1)

Large values mean the points collide modulo a high power of p.
"""

from orbita import distance_table, log_distance, parse_point

P = parse_point("1/4")
Q = parse_point("7/4")

# the cross term 1*4 - 7*4 = -24 = -2^3 * 3 carries the whole story
for p in (2, 3, 5):
    print(f"delta_{p}({P}, {Q}) = {log_distance(P, Q, p)}")

# distance_table reads every positive distance off the factored cross term
print("positive distances:", distance_table((P, Q))[0, 1])

# equal points sit at infinite distance
print("delta_5(P, P) =", log_distance(P, P, 5))

# the point at infinity is just [1:0]; nothing special happens
R = parse_point("inf")
print(f"delta_2({P}, {R}) =", log_distance(P, R, 2))

# ultrametric triangle inequality: delta(P, R) >= min(delta(P, Q), delta(Q, R)).
# it holds with exact integer arithmetic, so a sweep over primes never
# finds a violation; this is one of the randomized suites (see `orbita verify`)
R = parse_point("9/4")
for p in (2, 3):
    d_pq = log_distance(P, Q, p)
    d_qr = log_distance(Q, R, p)
    d_pr = log_distance(P, R, p)
    print(f"p={p}: delta(P,R)={d_pr} >= min({d_pq}, {d_qr}) -> {d_pr >= min(d_pq, d_qr)}")
