"""Piecewise-linear moduli of continuity: algebra, order, and compatibility.

A modulus here is a concave, strictly increasing piecewise-linear bijection
of [0, oo) with rational breakpoints and a positive slope on the unbounded
tail.  Working piecewise-linear keeps every evaluation exact; genuinely
curved moduli (roots, powers) are admitted only through PL interpolants.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import Rational, rat
from .errors import PreconditionError, StructuralError


@dataclass(frozen=True)
class PLFunction:
    """Increasing piecewise-linear function on [0, oo).

    ``breakpoints`` are (t, value) pairs with strictly increasing t; beyond
    the last breakpoint the graph continues with slope ``final_slope``.  The
    class is shared by moduli and their (convex) inverses; concavity is a
    property checked by :func:`modulus_validate`, not a structural invariant.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    final_slope: Fraction

    def __post_init__(self):
        if not self.breakpoints:
            raise StructuralError("need at least one breakpoint")
        ts = [t for t, _ in self.breakpoints]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise StructuralError("breakpoint abscissas must strictly increase")

    @classmethod
    def from_points(cls, points: Sequence[tuple[Rational, Rational]],
                    final_slope: Rational) -> "PLFunction":
        return cls(tuple((rat(t), rat(v)) for t, v in points),
                   rat(final_slope))

    def value(self, t: Rational) -> Fraction:
        t = rat(t)
        if t < 0:
            raise PreconditionError("moduli are defined on [0, oo)")
        bps = self.breakpoints
        last_t, last_v = bps[-1]
        if t >= last_t or len(bps) == 1:
            return last_v + self.final_slope * (t - last_t)
        k = bisect_right([u for u, _ in bps], t) - 1
        if k < 0:
            # below the first breakpoint: extend the first segment back
            k = 0
        t0, v0 = bps[k]
        t1, v1 = bps[k + 1]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def slopes(self) -> tuple[Fraction, ...]:
        """Segment slopes in order, the tail slope last."""
        out = []
        for (t0, v0), (t1, v1) in zip(self.breakpoints, self.breakpoints[1:]):
            out.append((v1 - v0) / (t1 - t0))
        out.append(self.final_slope)
        return tuple(out)

    @property
    def first_slope(self) -> Fraction:
        return self.slopes()[0]

    @property
    def last_knot(self) -> Fraction:
        return self.breakpoints[-1][0]

    def knot_abscissas(self) -> tuple[Fraction, ...]:
        return tuple(t for t, _ in self.breakpoints)

    def inverse(self) -> "PLFunction":
        """Exact inverse; the inverse of a concave modulus is convex."""
        if any(s <= 0 for s in self.slopes()):
            raise PreconditionError("only strictly increasing PL maps invert")
        return PLFunction(tuple((v, t) for t, v in self.breakpoints),
                          1 / self.final_slope)

    def compose(self, inner: "PLFunction") -> "PLFunction":
        """self after inner, as an exact PL function.

        Knots of the composition: inner's own knots plus the preimages under
        inner of self's knots (where reachable).
        """
        inner_inv = inner.inverse()
        knots = {t for t, _ in inner.breakpoints}
        bottom = inner.breakpoints[0][1]
        for u, _ in self.breakpoints:
            if u >= bottom:
                knots.add(inner_inv.value(u))
        ts = sorted(knots)
        pts = tuple((t, self.value(inner.value(t))) for t in ts)
        return PLFunction(pts, self.final_slope * inner.final_slope)

    def scale(self, c: Rational) -> "PLFunction":
        """Pointwise multiple c*f (c > 0)."""
        c = rat(c)
        if c <= 0:
            raise PreconditionError("scale factor must be positive")
        return PLFunction(tuple((t, c * v) for t, v in self.breakpoints),
                          c * self.final_slope)


def linear(c: Rational) -> PLFunction:
    """The map t -> c*t."""
    c = rat(c)
    return PLFunction(((Fraction(0), Fraction(0)),), c)


def modulus_validate(f: PLFunction) -> tuple[str, ...]:
    """Report every violated modulus invariant (empty report = valid).

    A modulus starts at (0, 0), strictly increases with positive slopes, and
    is concave: slopes nonincreasing, tail slope no larger than the last
    interior slope.  Concavity with f(0) = 0 yields subadditivity.
    """
    out = []
    t0, v0 = f.breakpoints[0]
    if (t0, v0) != (0, 0):
        out.append(f"first breakpoint is ({t0}, {v0}), not (0, 0)")
    vs = [v for _, v in f.breakpoints]
    if any(b <= a for a, b in zip(vs, vs[1:])):
        out.append("values are not strictly increasing")
    slopes = f.slopes()
    for k, s in enumerate(slopes):
        if s <= 0:
            out.append(f"nonpositive slope {s} on piece {k}")
    for k, (a, b) in enumerate(zip(slopes, slopes[1:])):
        if b > a:
            out.append(
                f"concavity violated between pieces {k} and {k + 1}: "
                f"slope rises {a} -> {b}")
    return tuple(out)


def is_modulus(f: PLFunction) -> bool:
    return not modulus_validate(f)


def require_modulus(f: PLFunction, name: str = "modulus") -> None:
    bad = modulus_validate(f)
    if bad:
        raise PreconditionError(f"{name} is not a valid modulus: {bad[0]}")


def modulus_compose(f: PLFunction, g: PLFunction) -> PLFunction:
    """f o g for moduli; the result is asserted, not assumed, to be one."""
    require_modulus(f)
    require_modulus(g)
    out = f.compose(g)
    assert is_modulus(out)
    return out


def modulus_inverse(f: PLFunction) -> PLFunction:
    require_modulus(f)
    return f.inverse()


def modulus_precedes(a: PLFunction, b: PLFunction) -> bool:
    """Does a <= b hold on some interval [0, x] with x > 0?

    Both start at (0, 0), so the comparison is decided by the slopes at 0+:
    strictly smaller wins, equal slopes agree on an initial segment (which
    already satisfies the order), larger loses.
    """
    require_modulus(a)
    require_modulus(b)
    return a.first_slope <= b.first_slope


@dataclass(frozen=True)
class MCSemigroup:
    """Finite generating set standing in for a countably generated family.

    Valid when every generator is a modulus and the doubling map t -> 2t is
    dominated by one of them.
    """

    generators: tuple[PLFunction, ...]

    def validate(self) -> tuple[str, ...]:
        out = []
        for k, g in enumerate(self.generators):
            for msg in modulus_validate(g):
                out.append(f"generator {k}: {msg}")
        if not any(is_modulus(g) and linear(2).first_slope <= g.first_slope
                   for g in self.generators):
            out.append("no generator dominates the doubling map")
        return tuple(out)


@dataclass(frozen=True)
class CompatibilityReport:
    ok: bool
    witness: Optional[tuple[Fraction, Fraction, Fraction, Fraction, int]]
    # witness = (s, t, lhs, rhs, direction) with lhs < rhs meaning failure
    box: Fraction

    def __bool__(self) -> bool:
        return self.ok


def _box_grid(alpha_inv: PLFunction, beta: PLFunction, bound: Fraction
              ) -> tuple[list[Fraction], list[Fraction]]:
    """Vertex grid of the subdivision on [0, bound]^2.

    The inequality alpha_inv(s) + beta(t) >= alpha_inv(s+t) is affine on the
    cells cut by s = knot(alpha_inv), t = knot(beta), s + t = knot(alpha_inv)
    and the box edges, so checking all cell vertices decides it on the box.
    """
    ka = set(alpha_inv.knot_abscissas())
    kb = set(beta.knot_abscissas())
    edge = {Fraction(0), bound}
    s_coords = set(ka) | edge
    t_coords = set(kb) | edge
    for a in ka:
        for b in set(kb) | edge:
            s_coords.add(a - b)
        for c in set(ka) | edge:
            t_coords.add(a - c)
    def clip(xs):
        return sorted(x for x in xs if 0 <= x <= bound)

    return clip(s_coords), clip(t_coords)


def _star_on_box(alpha: PLFunction, beta: PLFunction, bound: Fraction,
                 direction: int) -> Optional[tuple]:
    """Worst violation of alpha_inv(s) + beta(t) >= alpha_inv(s+t) on the box."""
    ainv = alpha.inverse()
    s_coords, t_coords = _box_grid(ainv, beta, bound)
    worst = None
    for s in s_coords:
        a_s = ainv.value(s)
        for t in t_coords:
            lhs = a_s + beta.value(t)
            rhs = ainv.value(s + t)
            if lhs < rhs and (worst is None or lhs - rhs < worst[2] - worst[3]):
                worst = (s, t, lhs, rhs, direction)
    return worst


def _tail_witness(alpha: PLFunction, beta: PLFunction) -> Optional[tuple]:
    """Violation with s beyond every knot, where the deficit is beta(t) - t/fs(alpha).

    Exists iff final_slope(alpha) * final_slope(beta) < 1; both sides are
    eventually linear, so one comparison of tail slopes settles all large
    arguments.  The test is symmetric, so it settles the mirror direction too.
    """
    ainv = alpha.inverse()
    lam = ainv.final_slope                      # max slope of the convex inverse
    if beta.final_slope >= lam:
        return None
    b_knot, b_val = beta.breakpoints[-1]
    # beta(t) < lam*t once t > (b_val - fs*b_knot)/(lam - fs); step one past.
    t = max(b_knot, (b_val - beta.final_slope * b_knot)
            / (lam - beta.final_slope)) + 1
    s = ainv.last_knot + 1
    lhs = ainv.value(s) + beta.value(t)
    rhs = ainv.value(s + t)
    assert lhs < rhs
    return (s, t, lhs, rhs, 1)


def star_condition(alpha: PLFunction, beta: PLFunction,
                   bound: Rational) -> Optional[tuple]:
    """Check alpha_inv(s) + beta(t) >= alpha_inv(s+t) for s, t in [0, bound].

    Returns None when it holds, else a witnessing (s, t, lhs, rhs, 1).  The
    box is enlarged to cover every breakpoint of alpha_inv and beta; nothing
    beyond it is checked, so the tail slopes are left to :func:`compatible`.
    """
    require_modulus(alpha)
    require_modulus(beta)
    bound = rat(bound)
    box = max(bound, alpha.inverse().last_knot, beta.last_knot)
    return _star_on_box(alpha, beta, box, 1)


def compatible(alpha: PLFunction, beta: PLFunction,
               bound: Rational = 0) -> CompatibilityReport:
    """Decide the two-sided compatibility of a modulus pair, exactly.

    Checks alpha_inv(s) + beta(t) >= alpha_inv(s+t) and the mirrored
    beta_inv(s) + alpha(t) >= beta_inv(s+t) on a vertex grid of the box
    [0, S]^2, with S at least ``bound`` and large enough to cover every
    breakpoint of the four PL maps involved; tail slopes settle the rest of
    the quadrant, so the verdict covers all s, t >= 0.
    """
    require_modulus(alpha)
    require_modulus(beta)
    box = max(rat(bound), alpha.inverse().last_knot, beta.last_knot,
              beta.inverse().last_knot, alpha.last_knot)
    hit = (_star_on_box(alpha, beta, box, 1)
           or _star_on_box(beta, alpha, box, 2) or _tail_witness(alpha, beta))
    return CompatibilityReport(hit is None, hit, box)
