"""Grow a K-bilipschitz, N-bigood map one audited point at a time.

Run:  python demos/02_bilipschitz_extension.py
"""

import random
from fractions import Fraction as F

from urylab import (Ball, FiniteMetricSpace, PartialMap, extend_dense,
                    extend_one_point, glue_identity_check, is_compliant,
                    kn_admissible, move_point_in_ball, realize_point)
from urylab.gen import random_outside_points, random_point_in_ball
from urylab.io import format_trace

# The seed instance: ball of radius 10 around x1, the map fixing x1 only,
# and one more point x at distance 1 to pull into the domain.
space = FiniteMetricSpace.from_rows(("x1", "x"), ((0, 1), (1, 0)))
ball = Ball(0, F(10))
kn = kn_admissible(2, 4)
print("K =", kn.K, " N =", kn.N, " admissible:", kn.admissible)

f = PartialMap((0,), (0,))
f, space, step = extend_one_point(f, ball, kn, 1, "domain", space)
rec = step.solves[0]
print("\nfeasible interval for the new image's distance to the center:",
      f"[{rec.lo}, {rec.hi}]")
print("every individual bound, tagged by constraint family:")
print("  lowers:", [(fam, str(v)) for fam, v in rec.lowers])
print("  uppers:", [(fam, str(v)) for fam, v in rec.uppers])
print("midpoint choice e =", rec.chosen, " new pair distance s =", step.s)

# Back-and-forth over random targets; every intermediate map stays
# compliant, and the whole run serializes into a line trace.
rng = random.Random(0)
targets = []
for _ in range(3):
    space, t = random_point_in_ball(rng, space, ball)
    targets.append(t)
f, space, trace = extend_dense(f, ball, kn, targets, space)
cert = is_compliant(f, ball, kn, space)
print(f"\nafter {len(targets)} more targets: {len(f)} pairs, "
      f"lip = {cert.lip_value}, compliant = {cert.ok}")
print("trace:")
print(format_trace(trace))

# Gluing: a compliant map extends by the identity outside its ball without
# losing the stretch bound, checked pair by pair.
space = random_outside_points(rng, space, ball, 5)
report = glue_identity_check(f, ball, kn, space)
print("glued with identity outside the ball:", report.ok,
      f"({report.pairs_checked} pairs checked)")

# A canned application: move u to v inside a safety ball with stretch 2.
ws = FiniteMetricSpace.from_rows(("x",), ((0,),))
ws, u = realize_point(ws, {0: F(1, 2)})
ws, v = realize_point(ws, {0: F(1, 2), u: F(3, 4)})
res = move_point_in_ball(ws, 0, 15, u, v)
print("\nmove u -> v: auxiliary point at 3s, d(u,y) =", res.d_u_y,
      " d(v,y) =", res.d_v_y, " (both in (2s, 4s) for s =", str(res.s) + ")")
fixed = sum(1 for a, b in res.map.pairs() if a == b)
print("map sends u to v:", res.map.image_of(u) == v,
      " fixed points:", fixed)
