"""Exact-rational finite metric spaces, partial maps, and basic quantities.

Every distance is a `fractions.Fraction`; there is no floating point anywhere
in this module, so every axiom check is a zero-tolerance assertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import add
from typing import Optional, Sequence, Union

from .errors import DegenerateInputError, PreconditionError, StructuralError

Rational = Union[Fraction, int]


def rat(value: Rational) -> Fraction:
    """Coerce an int or Fraction to an exact Fraction.

    Floats and strings are rejected on purpose: the core is exact-only, and
    text is read by ``io.parse_rational``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A labeled point set with a symmetric exact-rational distance matrix.

    The constructor only checks shape; run :func:`validate_space` to check
    the metric axioms themselves.
    """

    labels: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, labels: Sequence[str],
                  rows: Sequence[Sequence[Rational]]) -> "FiniteMetricSpace":
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise StructuralError("duplicate point labels")
        if len(rows) != len(labels):
            raise StructuralError(
                f"matrix has {len(rows)} rows for {len(labels)} labels")
        out = []
        for row in rows:
            if len(row) != len(labels):
                raise StructuralError(
                    f"row of length {len(row)} in a {len(labels)}-point space")
            out.append(tuple(rat(v) for v in row))
        return cls(labels, tuple(out))

    @property
    def n(self) -> int:
        return len(self.labels)

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise StructuralError(f"no point labeled {label!r}") from None

    def diameter(self) -> Fraction:
        if self.n < 2:
            return Fraction(0)
        return max(self.dist[i][j] for i in range(self.n) for j in range(i))

    def fresh_label(self) -> str:
        k = 1
        taken = set(self.labels)
        while f"q{k}" in taken:
            k += 1
        return f"q{k}"

    def with_point(self, label: str,
                   row: Sequence[Fraction]) -> "FiniteMetricSpace":
        """Append one point with the given distances to the existing points."""
        if label in self.labels:
            raise StructuralError(f"label {label!r} already present")
        if len(row) != self.n:
            raise StructuralError("distance row has wrong length")
        row = tuple(rat(v) for v in row)
        if any(v <= 0 for v in row):
            raise StructuralError("new point at nonpositive distance")
        dist = tuple(self.dist[i] + (row[i],) for i in range(self.n))
        dist += (row + (Fraction(0),),)
        return FiniteMetricSpace(self.labels + (label,), dist)


@dataclass(frozen=True)
class Violation:
    kind: str                  # 'negative' | 'diagonal' | 'symmetry' | 'identity' | 'triangle'
    points: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_space(space: FiniteMetricSpace) -> ValidationReport:
    """Exhaustive exact check of the metric axioms.

    Scans every entry and every pair; the report lists each violated axiom
    with the witnessing points.  The triangle inequality is settled per pair
    (i, k): every violating j makes min_j d(i,j) + d(j,k) smaller than
    d(i,k), so only a pair that fails that one test scans its j's.  On a
    symmetric matrix each unordered pair is tested once, and a violating
    (i, j, k) also gives the mirror (k, j, i).  Triangle violations are
    listed in (i, j, k) order, after the other kinds.
    """
    n = len(space.labels)
    if len(space.dist) != n or any(len(r) != n for r in space.dist):
        raise StructuralError("distance matrix does not match label count")
    out: list[Violation] = []
    d = space.dist
    for i in range(n):
        if d[i][i] != 0:
            out.append(Violation("diagonal", (i,), f"d({i},{i}) = {d[i][i]} != 0"))
    symmetric = True
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] < 0:
                out.append(Violation("negative", (i, j), f"d = {d[i][j]} < 0"))
            if d[i][j] != d[j][i]:
                symmetric = False
                out.append(Violation("symmetry", (i, j),
                                     f"{d[i][j]} != {d[j][i]}"))
            if d[i][j] == 0:
                out.append(Violation("identity", (i, j),
                                     "distinct points at distance 0"))
    col = d if symmetric else tuple(zip(*d))
    triangles = []
    for i in range(n):
        row = d[i]
        for k in range(i + 1, n) if symmetric else range(n):
            dik, ck = row[k], col[k]
            if k == i or min(map(add, row, ck)) >= dik:
                continue
            for j in range(n):
                if j != i and j != k and dik > row[j] + ck[j]:
                    triangles.append((i, j, k))
                    if symmetric:
                        triangles.append((k, j, i))
    triangles.sort()
    out.extend(Violation("triangle", (i, j, k),
                         f"{d[i][k]} > {d[i][j]} + {d[j][k]}")
               for i, j, k in triangles)
    return ValidationReport(tuple(out))


@dataclass(frozen=True)
class Ball:
    """An open ball: center point index and positive radius."""

    center: int
    radius: Fraction

    def __post_init__(self):
        object.__setattr__(self, "radius", rat(self.radius))
        if self.radius <= 0:
            raise PreconditionError("ball radius must be positive")

    def strictly_inside(self, space: FiniteMetricSpace, i: int) -> bool:
        return space.d(self.center, i) < self.radius


@dataclass(frozen=True)
class PartialMap:
    """A finite injective partial map, given by parallel index tuples.

    Indices refer to a space (or a pair of spaces) passed alongside the map;
    the map itself carries no space handle, so it stays valid when the
    workspace is extended by appending points.
    """

    domain: tuple[int, ...]
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.domain) != len(self.images):
            raise StructuralError("domain and image lists differ in length")
        if len(set(self.domain)) != len(self.domain):
            raise StructuralError("repeated domain point")
        if len(set(self.images)) != len(self.images):
            raise StructuralError("map is not injective")

    def __len__(self) -> int:
        return len(self.domain)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.domain, self.images))

    def image_of(self, i: int) -> int:
        return self.images[self.domain.index(i)]

    def inverse(self) -> "PartialMap":
        return PartialMap(self.images, self.domain)

    def extended(self, x: int, y: int) -> "PartialMap":
        return PartialMap(self.domain + (x,), self.images + (y,))


def map_in_ball(f: PartialMap, ball: Ball, space: FiniteMetricSpace) -> None:
    """Raise unless every domain and image point lies strictly inside the ball."""
    for i in f.domain + f.images:
        if not ball.strictly_inside(space, i):
            raise PreconditionError(
                f"point {space.labels[i]!r} on or outside the ball boundary")


def lip_constant(f: PartialMap, space: FiniteMetricSpace) -> Fraction:
    """Least K such that f is K-bilipschitz on its finite domain.

    A map with fewer than two domain points gets K = 1 by convention (the
    infimum over an empty constraint set), which keeps composition laws total.
    """
    value, _ = lip_details(f, space)
    return value


def lip_details(f: PartialMap, space: FiniteMetricSpace
                ) -> tuple[Fraction, Optional[tuple[int, int]]]:
    """Lipschitz constant together with the worst-case pair of domain points."""
    worst = Fraction(1)
    witness: Optional[tuple[int, int]] = None
    for (a, fa), (b, fb) in combinations(f.pairs(), 2):
        dd = space.d(a, b)
        if dd == 0:
            raise DegenerateInputError(
                f"domain points {space.labels[a]!r}, {space.labels[b]!r} at distance 0")
        ee = space.d(fa, fb)
        if ee == 0:
            raise DegenerateInputError(
                f"image points {space.labels[fa]!r}, {space.labels[fb]!r} at distance 0")
        ratio = max(ee / dd, dd / ee)
        if ratio > worst:
            worst, witness = ratio, (a, b)
    return worst, witness


@dataclass(frozen=True)
class GoodnessReport:
    """Result of the two-sided goodness check inside a ball.

    ``forward_slack`` is min over domain points y of (r - d(y, center))/N -
    d(y, f(y)); ``backward_slack`` is the same for the inverse map.  Either is
    None for an empty map.  The map passes iff both slacks are >= 0.
    """

    ok: bool
    forward_slack: Optional[Fraction]
    backward_slack: Optional[Fraction]
    forward_witness: Optional[int]
    backward_witness: Optional[int]

def _one_sided_slack(pairs, ball: Ball, n_param: Fraction,
                     space: FiniteMetricSpace):
    best: Optional[Fraction] = None
    witness: Optional[int] = None
    for y, fy in pairs:
        margin = (ball.radius - space.d(y, ball.center)) / n_param \
            - space.d(y, fy)
        if best is None or margin < best:
            best, witness = margin, y
    return best, witness


def goodness_check(f: PartialMap, ball: Ball, n_param: Rational,
                   space: FiniteMetricSpace) -> GoodnessReport:
    """Check that f is N-bigood in the ball and report the tightest slacks.

    N-good means d(y, f(y)) <= (r - d(y, center))/N for every domain point y;
    bigood checks the inverse map as well.  All points must lie strictly
    inside the ball.
    """
    n_param = rat(n_param)
    if n_param <= 0:
        raise PreconditionError("goodness parameter must be positive")
    map_in_ball(f, ball, space)
    fwd, fwd_w = _one_sided_slack(f.pairs(), ball, n_param, space)
    bwd, bwd_w = _one_sided_slack(f.inverse().pairs(), ball, n_param, space)
    ok = (fwd is None or fwd >= 0) and (bwd is None or bwd >= 0)
    return GoodnessReport(ok, fwd, bwd, fwd_w, bwd_w)

