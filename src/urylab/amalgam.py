"""Amalgamation of finite metric spaces and Katetov one-point realization.

This is the mechanism that lets a finite workspace stand in for the universal
homogeneous space: any consistent one-point distance prescription can be
realized by appending a row to the matrix, and two spaces agreeing on their
intersection can be merged point by point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Optional

from .core import FiniteMetricSpace, Rational, max_gap, min_sum, rat, split
from .errors import PreconditionError, as_text

Policy = str  # a key of _RULES: 'midpoint' | 'minimal' | 'maximal'
Chooser = Callable[[Fraction, Fraction], Fraction]  # picks a value in [lo, hi]

# Policy name -> the value it picks in [lo, hi].  The order is public:
# seeded draws index ``POLICIES`` by position.
_RULES: dict[str, Chooser] = {
    "midpoint": lambda lo, hi: (lo + hi) / 2,
    "minimal": lambda lo, hi: lo,
    "maximal": lambda lo, hi: hi,
}
POLICIES = tuple(_RULES)


def chooser(policy: Policy) -> Chooser:
    """The rule a policy name stands for; an unknown name raises."""
    try:
        return _RULES[policy]
    except KeyError:
        raise PreconditionError(f"unknown policy {policy!r}") from None


def amalgamate(x0: FiniteMetricSpace, x1: FiniteMetricSpace,
               policy: Policy = "minimal") -> FiniteMetricSpace:
    """Merge two spaces agreeing on their shared labels into one metric space.

    Extra points of ``x1`` are attached one at a time, in label order; for
    each unknown cross distance the feasible interval is computed over all
    points already placed, and the policy picks a value inside it.  With the
    minimal policy a zero lower bound identifies the new point with an
    existing one.  With a single unknown pair, the minimal and maximal
    results are the two ends of its interval.  The result restricted to
    either input equals that input.  An empty interval, which only a
    non-metric input can give, raises ``PreconditionError`` naming the
    points that set its two ends.  An unknown policy raises on entry.
    """
    choose = chooser(policy)
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
        # one anchor per entry of `known`, in the same order
        anchors = split(work.dist, known)
        merged_into: Optional[int] = None
        for w in range(work.n):
            if w in known:
                continue
            [lo], [hi] = max_gap(anchors, (w,)), min_sum(anchors, (w,))
            if lo > hi:
                z_lo = next(z for z, a in zip(known, anchors)
                            if max_gap([a], (w,)) == [lo])
                z_hi = next(z for z, a in zip(known, anchors)
                            if min_sum([a], (w,)) == [hi])
                raise PreconditionError(
                    f"no distance from new point {lab!r} to "
                    f"{work.labels[w]!r}: lower bound {lo} via "
                    f"{work.labels[z_lo]!r} exceeds upper bound {hi} via "
                    f"{work.labels[z_hi]!r}; an input is not metric")
            value = choose(lo, hi)
            if value == 0:
                merged_into = w
                break
            known[w] = value
            anchors.append((work.dist[w], value.as_integer_ratio()))
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
    """Pairs of points where the one-point prescription breaks.

    Both pair inequalities are decided on integers: with g(a) = an/ad,
    g(b) = bn/bd and d(a, b) = dn/dd, scaling by ad*bd*dd > 0 turns them
    into |an*bd - bn*ad|*dd <= dn*ad*bd <= (an*bd + bn*ad)*dd.
    """
    out = []
    keys = sorted(values)
    for idx, a in enumerate(keys):
        ga = values[a]
        an, ad = ga.as_integer_ratio()
        if an < 0:
            with as_text():
                out.append((a, a, f"negative value {ga}"))
        for b in keys[idx + 1:]:
            gb, dab = values[b], space.d(a, b)
            (bn, bd), (dn, dd) = gb.as_integer_ratio(), dab.as_integer_ratio()
            u, v, scaled = an * bd, bn * ad, dn * ad * bd
            if abs(u - v) * dd > scaled:
                with as_text():
                    out.append((a, b, f"|{ga} - {gb}| > d = {dab}"))
            if scaled > (u + v) * dd:
                with as_text():
                    out.append((a, b, f"d = {dab} > {ga} + {gb}"))
    return out


def checked_prescription(space: FiniteMetricSpace,
                         values: Mapping[int, Rational]) -> dict[int, Fraction]:
    """The prescription coerced through ``rat``, once its pair inequalities
    |g(a) - g(b)| <= d(a,b) <= g(a) + g(b) hold on its own support.

    An empty support or the first violated pair raises
    ``PreconditionError``.
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
    return vals


def katetov_extend(space: FiniteMetricSpace,
                   values: Mapping[int, Rational]) -> tuple[Fraction, ...]:
    """Extend a one-point prescription from its support to the whole space.

    The prescription is checked by :func:`checked_prescription`.  The rest
    is filled by the shortest-path rule, which keeps every pair inequality
    valid.  Returns the value at every point, in index order.
    """
    return _katetov_fill(space, checked_prescription(space, values))


def _katetov_fill(space: FiniteMetricSpace,
                  vals: Mapping[int, Fraction]) -> tuple[Fraction, ...]:
    """Shortest-path rule at every point, in index order: g(w) = min over a
    of (g(a) + d(a, w)), the prescribed value on the support, and every
    point off it a target of one ``core.min_sum`` call over its anchors.

    This is the upper end of :func:`amalgamate`'s one-point interval alone,
    kept apart from it because no caller needs the lower end.
    """
    off = [w for w in range(space.n) if w not in vals]
    full = dict(vals)
    full.update(zip(off, min_sum(split(space.dist, vals), off)))
    return tuple(full[w] for w in range(space.n))


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
