"""Build exact-rational workspaces: validation, Katetov points, amalgams.

Run:  python demos/01_workspaces_and_amalgams.py
"""

from fractions import Fraction as F

from urylab import (FiniteMetricSpace, amalgamate, katetov_extend,
                    realize_point, validate_space)

# A space is a labeled symmetric matrix of Fractions.  Validation scans
# every axiom exactly and names the witnesses of anything broken.
bad = FiniteMetricSpace.from_rows(
    ("a", "b", "c"), ((0, 1, 3), (1, 0, 1), (3, 1, 0)))
report = validate_space(bad)
print("axioms ok:", report.ok)
for v in report.violations:
    print("  ", v.kind, v.points, v.detail)

# A Katetov function prescribes the distances of a point that does not
# exist yet.  A prescription on part of the space extends to the rest by the
# shortest-path rule; realize_point checks it, extends it and appends the
# point.
line = FiniteMetricSpace.from_rows(("p", "q"), ((0, 2), (2, 0)))
g = katetov_extend(line, {0: F(1, 2)})
print("\nprescription:", dict(zip(line.labels, g)))
grown, new = realize_point(line, {0: F(1, 2)})
print("realized", grown.labels[new], "at",
      [str(grown.d(new, i)) for i in range(2)])
print("still a metric space:", validate_space(grown).ok)

# Amalgamation merges two spaces that agree on their shared labels.  For a
# single unknown pair the minimal and maximal policies pick the two ends of
# its feasible interval:
x0 = FiniteMetricSpace.from_rows(("p0", "z"), ((0, 3), (3, 0)))
x1 = FiniteMetricSpace.from_rows(("z", "p1"), ((0, 1), (1, 0)))


def d01(policy):
    merged = amalgamate(x0, x1, policy=policy)
    return merged.d(merged.index("p0"), merged.index("p1"))


print(f"\ninterval for d0=3, d1=1: [{d01('minimal')}, {d01('maximal')}]")
for policy in ("minimal", "midpoint", "maximal"):
    print(f"policy {policy:8s} -> d(p0, p1) = {d01(policy)}")

# With lower bound zero, the minimal policy identifies the two new points:
y0 = FiniteMetricSpace.from_rows(("p0", "z"), ((0, 1), (1, 0)))
y1 = FiniteMetricSpace.from_rows(("z", "p1"), ((0, 1), (1, 0)))
merged = amalgamate(y0, y1, policy="minimal")
print("minimal merge of mirror spaces has", merged.n, "points:", merged.labels)
