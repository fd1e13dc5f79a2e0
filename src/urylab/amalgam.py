"""Amalgamation of finite metric spaces and Katetov one-point realization.

This is the mechanism that lets a finite workspace stand in for the universal
homogeneous space: any consistent one-point distance prescription can be
realized by appending a row to the matrix, and two spaces agreeing on their
intersection can be merged point by point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .core import FiniteMetricSpace, Rational, rat
from .errors import PreconditionError

Policy = str  # 'minimal' | 'midpoint' | 'maximal'


@dataclass(frozen=True)
class AmalgamInterval:
    """Feasible values for the distance between the two new points.

    ``lo`` is the largest |d0(p0,z) - d1(z,p1)| over the shared part, ``hi``
    the smallest d0(p0,z) + d1(z,p1); lo <= hi always holds for inputs that
    are metric on their own sides.
    """

    lo: Fraction
    hi: Fraction

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"

    def contains(self, value: Fraction) -> bool:
        return self.lo <= value <= self.hi


def one_point_interval(d0: Sequence[Rational],
                       d1: Sequence[Rational]) -> AmalgamInterval:
    """Interval of valid distances d(p0, p1) given both points' distances to Z.

    Any choice in [lo, hi] with positive value yields a metric on the union;
    choosing lo = 0 identifies the two points (minimal amalgamation).  An
    empty interval, which no metric gives, raises ``PreconditionError``
    naming the positions of the shared points that set its two ends.
    """
    if not d0 or len(d0) != len(d1):
        raise PreconditionError("need equal-length nonempty distance lists over Z")
    a = [rat(v) for v in d0]
    b = [rat(v) for v in d1]
    if any(v <= 0 for v in a + b):
        raise PreconditionError("distances to the shared part must be positive")
    gaps = [abs(x - y) for x, y in zip(a, b)]
    sums = [x + y for x, y in zip(a, b)]
    lo, hi = max(gaps), min(sums)
    if lo > hi:
        raise PreconditionError(
            f"empty amalgamation interval: lower bound {lo} via shared point "
            f"{gaps.index(lo)} exceeds upper bound {hi} via shared point "
            f"{sums.index(hi)}; the distances are not metric")
    return AmalgamInterval(lo, hi)


def _choose(lo: Fraction, hi: Fraction, policy: Policy) -> Fraction:
    """The value a 'minimal', 'midpoint' or 'maximal' policy picks in [lo, hi]."""
    if policy == "minimal":
        return lo
    if policy == "midpoint":
        return (lo + hi) / 2
    if policy == "maximal":
        return hi
    raise PreconditionError(f"unknown policy {policy!r}")


def amalgamate(x0: FiniteMetricSpace, x1: FiniteMetricSpace,
               policy: Policy = "minimal") -> FiniteMetricSpace:
    """Merge two spaces agreeing on their shared labels into one metric space.

    Extra points of ``x1`` are attached one at a time, in label order; for
    each unknown cross distance the feasible interval is computed over all
    points already placed, and the policy picks a value inside it.  With the
    minimal policy a zero lower bound identifies the new point with an
    existing one.  The result restricted to either input equals that input.
    An empty interval, which only a non-metric input can give, raises
    ``PreconditionError`` naming the points that set its two ends.
    """
    shared = [lab for lab in x0.labels if lab in x1.labels]
    if not shared:
        raise PreconditionError("spaces share no points")
    for la in shared:
        for lb in shared:
            if x0.d(x0.index(la), x0.index(lb)) != x1.d(x1.index(la), x1.index(lb)):
                raise PreconditionError(
                    f"metrics disagree on shared pair ({la!r}, {lb!r})")

    work = x0
    # alias: x1 point label -> index in `work` (grows as extras are placed)
    placed = {lab: work.index(lab) for lab in shared}
    extras = sorted(lab for lab in x1.labels if lab not in placed)
    for lab in extras:
        p = x1.index(lab)
        known: dict[int, Fraction] = {
            widx: x1.d(p, x1.index(other)) for other, widx in placed.items()}
        merged_into: Optional[int] = None
        for w in range(work.n):
            if w in known:
                continue
            lo = max(abs(g - work.d(z, w)) for z, g in known.items())
            hi = min(g + work.d(z, w) for z, g in known.items())
            if lo > hi:
                z_lo = next(z for z, g in known.items()
                            if abs(g - work.d(z, w)) == lo)
                z_hi = next(z for z, g in known.items()
                            if g + work.d(z, w) == hi)
                raise PreconditionError(
                    f"no distance from new point {lab!r} to "
                    f"{work.labels[w]!r}: lower bound {lo} via "
                    f"{work.labels[z_lo]!r} exceeds upper bound {hi} via "
                    f"{work.labels[z_hi]!r}; an input is not metric")
            value = _choose(lo, hi, policy)
            if value == 0:
                merged_into = w
                break
            known[w] = value
        if merged_into is not None:
            placed[lab] = merged_into
            continue
        row = [known[i] for i in range(work.n)]
        work = work.with_point(lab, row)
        placed[lab] = work.n - 1
    return work


def katetov_violations(space: FiniteMetricSpace,
                       values: Mapping[int, Fraction]
                       ) -> list[tuple[int, int, str]]:
    """Pairs of points where the one-point prescription breaks."""
    out = []
    keys = sorted(values)
    for idx, a in enumerate(keys):
        if values[a] < 0:
            out.append((a, a, f"negative value {values[a]}"))
        for b in keys[idx + 1:]:
            ga, gb, dab = values[a], values[b], space.d(a, b)
            if abs(ga - gb) > dab:
                out.append((a, b, f"|{ga} - {gb}| > d = {dab}"))
            if dab > ga + gb:
                out.append((a, b, f"d = {dab} > {ga} + {gb}"))
    return out


def katetov_extend(space: FiniteMetricSpace,
                   values: Mapping[int, Rational]) -> tuple[Fraction, ...]:
    """Extend a one-point prescription from its support to the whole space.

    The given values must satisfy the pair inequalities
    |g(a) - g(b)| <= d(a,b) <= g(a) + g(b) on their own support; this is
    checked.  The rest is filled by the shortest-path rule, which keeps every
    pair inequality valid.  Returns the value at every point, in index order.
    """
    if not values:
        raise PreconditionError("empty support")
    vals = {a: rat(v) for a, v in values.items()}
    bad = katetov_violations(space, vals)
    if bad:
        a, b, msg = bad[0]
        raise PreconditionError(
            f"not a one-point prescription on ({space.labels[a]!r}, "
            f"{space.labels[b]!r}): {msg}")
    return _katetov_fill(space, vals)


def _katetov_fill(space: FiniteMetricSpace,
                  vals: Mapping[int, Fraction]) -> tuple[Fraction, ...]:
    """Shortest-path rule g(w) = min over a of (g(a) + d(a, w)), unchecked.

    The caller vouches for the pair inequalities on the support.
    """
    return tuple(vals[w] if w in vals
                 else min(g + space.d(a, w) for a, g in vals.items())
                 for w in range(space.n))


def realize_point(space: FiniteMetricSpace, values: Mapping[int, Rational]
                  ) -> tuple[FiniteMetricSpace, int]:
    """Realize the point a one-point prescription describes.

    The prescription is checked on its support and completed by
    :func:`katetov_extend`.  A zero value means the point already exists:
    the space comes back unchanged together with that index (minimal
    identification).  Otherwise a fresh point is appended with exactly the
    completed distances.
    """
    full = katetov_extend(space, values)
    if 0 in full:
        return space, full.index(0)
    return space.with_point(space.fresh_label(), full), space.n
