"""Moduli of continuity: algebra, compatibility, and the two showpieces.

Run:  python demos/03_moduli_and_witnesses.py
"""

from fractions import Fraction as F

from urylab import (FiniteMetricSpace, MCSemigroup, PLFunction, PartialMap,
                    compatible, extend_one_point_mc, extend_totally_bounded,
                    linear, modulus_compose, modulus_inverse,
                    necessity_counterexample, separation_witness)
from urylab.gen import line_space

# Piecewise-linear moduli compose and invert exactly.
kinked = PLFunction.from_points([(0, 0), (1, 1)], F(1, 2))
print("kinked(3) =", kinked.value(3), "  inverse(2) =",
      modulus_inverse(kinked).value(2))
print("2x after 3x is", modulus_compose(linear(2), linear(3)).final_slope,
      "x")

# Compatibility of a pair decides one-point extendability.  On the box up to
# the last breakpoint the far corner decides the condition, and the vertex
# grid is walked only to name a witness; a tail-slope comparison covers the
# rest, so the verdict covers every s, t >= 0.
print("\n(2x, x/2) compatible:", compatible(linear(2), linear(F(1, 2))).ok)
report = compatible(kinked, linear(1))
print("(kinked, id) compatible:", report.ok, " witness:", report.witness[:2])

# When the condition fails, a three-point instance makes the failure
# concrete: no image point can satisfy both the upper and lower bounds.
bundle = necessity_counterexample(kinked, linear(1), 1, 1)
cert = bundle.certificate
print("obstruction:", cert.lhs, ">", cert.rhs,
      " (lower bound exceeds upper bound + range gap)")

# One-point extension under a compatible pair, verified pair by pair.
X = FiniteMetricSpace.from_rows(("x0", "p"), ((0, 1), (1, 0)))
Y = FiniteMetricSpace.from_rows(("y0",), ((0,),))
ext = extend_one_point_mc(PartialMap((0,), (0,)), X, Y,
                          linear(2), linear(2), 1)
print("\nrealized image at distance", ext.rng_space.d(ext.q, 0),
      "from y0 (beta bound: 2)")

# Net refinement: images through finer and finer nets form a sequence with
# exact dyadic gap bounds.
pos = [F(1, 2 ** k) for k in range(16)]
X = line_space(pos + [F(0)], [f"x{k}" for k in range(16)] + ["p"])
Y = line_space(pos, [f"y{k}" for k in range(16)])
f = PartialMap(tuple(range(16)), tuple(range(16)))
nets = [tuple(range(min(16, n + 3))) for n in range(4)] + [tuple(range(16))] * 3
eps = [F(1, 2 ** (n + 1)) for n in range(7)]
res = extend_totally_bounded(f, X, Y, linear(2), linear(2), 16, nets, eps)
print("\nnet-refined image gaps:")
for lv in res.levels[1:]:
    print(f"  level {lv.n}: gap {lv.gap} < {lv.gap_bound}")

# A modulus whose germ at 0 beats every generator of a family yields a map
# that the family cannot control at the basepoint, while 2*gamma still
# controls it globally.
gamma = PLFunction.from_points(
    [(F(0), F(0))] + [(F(1, 4 ** k), F(1, 2 ** k)) for k in range(4, -1, -1)],
    F(1, 2))
delta = MCSemigroup(tuple(linear(i) for i in range(1, 11)))
w = separation_witness(gamma, delta, 2)
print("\nseparation witness over", len(delta.generators), "generators:")
for c in w.certificate.scale_checks[:4]:
    print(f"  gen {c.generator}: gamma({c.t}) = {c.gamma_value} > "
          f"{c.generator_value}")
print("  ... bicontinuity for 2*gamma holds on all",
      w.certificate.pairs_checked, "pairs")
