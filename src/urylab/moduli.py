"""Piecewise-linear moduli of continuity: algebra, order, and compatibility.

A modulus here is a concave, strictly increasing piecewise-linear bijection
of [0, oo) with rational breakpoints and a positive slope on the unbounded
tail.  Working piecewise-linear keeps every evaluation exact; genuinely
curved moduli (roots, powers) are admitted only through PL interpolants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .core import Rational, rat
from .errors import PreconditionError, StructuralError, as_text


def _faults(pairs: Sequence[tuple[int, int]]
            ) -> tuple[list[int], list[int]]:
    """Indices of the nonpositive slope pairs (p <= 0), and of each pair
    that rises past the one before (p1 * q0 > p0 * q1), the tail included.
    """
    nonpositive, rising = [], []
    for k, (p1, q1) in enumerate(pairs):
        if p1 <= 0:
            nonpositive.append(k)
        if k and p1 * q0 > p0 * q1:
            rising.append(k)
        p0, q0 = p1, q1
    return nonpositive, rising


@dataclass(frozen=True, slots=True)
class PLFunction:
    """Increasing piecewise-linear function on [0, oo).

    ``breakpoints`` are (t, value) pairs with strictly increasing t; beyond
    the last breakpoint the graph continues with slope ``final_slope``.  The
    class is shared by moduli and their (convex) inverses; concavity is a
    property checked by :func:`modulus_validate`, not a structural invariant.

    Construction runs :meth:`_slope_pairs` once, which checks the knot
    order, and :func:`_faults` on its pairs, and keeps only whether the
    function is a modulus.  The integer line table :attr:`_lines` is built
    from the same pairs at the first evaluation; the inverse, and an
    invalid function's report, are built when first asked for.  None of
    the three takes part in ``==``, ``hash`` or ``repr``.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    final_slope: Fraction
    _valid: bool = field(init=False, repr=False, compare=False)
    _lines: Optional[tuple[tuple[int, int, int, int, int], ...]] = field(
        default=None, init=False, repr=False, compare=False)
    _inverse: Optional[PLFunction] = field(
        default=None, init=False, repr=False, compare=False)
    _report: Optional[tuple[str, ...]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.breakpoints:
            raise StructuralError("need at least one breakpoint")
        pts, pairs = self._slope_pairs()
        nonpositive, rising = _faults(pairs)
        # the first breakpoint is the origin when both numerators are 0
        object.__setattr__(self, "_valid", not (
            pts[0][0] or pts[0][2] or nonpositive or rising))

    @classmethod
    def from_points(cls, points: Sequence[tuple[Rational, Rational]],
                    final_slope: Rational) -> "PLFunction":
        return cls(tuple((rat(t), rat(v)) for t, v in points),
                   rat(final_slope))

    def _slope_pairs(self) -> tuple[list[tuple[int, int, int, int]],
                                    list[tuple[int, int]]]:
        """Each breakpoint split into integers (tn, td, vn, vd), and each
        piece's slope as an unreduced integer pair (p, q), the tail last.

        Piece k's pair is (v1 - v0) * td0 * td1 over (t1 - t0) * vd0 * vd1,
        with the numerators and denominators of its two breakpoints.  The
        knots must increase, read on integers as q = tn1 * td0 - tn0 * td1
        > 0 (denominators are > 0), so p carries the slope's sign, two
        slopes compare by one cross product, and Fraction(p, q) is the
        slope.  This is the one place the pairs are formed.
        """
        pts = [t.as_integer_ratio() + v.as_integer_ratio()
               for t, v in self.breakpoints]
        pairs = []
        for (tn0, td0, vn0, vd0), (tn1, td1, vn1, vd1) in zip(pts, pts[1:]):
            q = tn1 * td0 - tn0 * td1
            if q <= 0:
                raise StructuralError(
                    "breakpoint abscissas must strictly increase")
            pairs.append(((vn1 * vd0 - vn0 * vd1) * td0 * td1,
                          q * vd0 * vd1))
        pairs.append(self.final_slope.as_integer_ratio())
        return pts, pairs

    def _build_report(self) -> tuple[str, ...]:
        """The report of an invalid function, kept on it once built.

        A Fraction is built only to name a failing slope.
        """
        _, pairs = self._slope_pairs()
        nonpositive, rising = _faults(pairs)
        out = []
        t0, v0 = self.breakpoints[0]
        if t0 or v0:                    # each numerator tested against 0
            with as_text():
                out.append(f"first breakpoint is ({t0}, {v0}), not (0, 0)")
        # the values strictly increase exactly when every finite piece rises
        if nonpositive and nonpositive[0] < len(pairs) - 1:
            out.append("values are not strictly increasing")
        if nonpositive or rising:
            with as_text():
                out += [f"nonpositive slope {Fraction(*pairs[k])} "
                        f"on piece {k}" for k in nonpositive]
                out += [f"concavity violated between pieces {k - 1} and {k}: "
                        f"slope rises {Fraction(*pairs[k - 1])} -> "
                        f"{Fraction(*pairs[k])}" for k in rising]
        report = tuple(out)
        object.__setattr__(self, "_report", report)
        return report

    def _build_lines(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Each segment's knot and line on integers, the tail last.

        Segment k is (kn, kd, A, B, C): its knot kn/kd, and its line
        f(t) = (A*tn + B*td) / (C*td) at t = tn/td.  With the slope p/q
        (the piece's slope pair reduced by its gcd) and the intercept
        v0 - slope*t0 = (vn*q*td - p*tn*vd) / (vd*q*td) reduced to r/s,
        A = p*s, B = r*q and C = q*s, so each product joins two normalized
        numbers and no lcm, and no Fraction, is formed.  A's sign is the
        slope's, and A/C is the slope.
        """
        out = []
        for (tn, td, vn, vd), (p, q) in zip(*self._slope_pairs()):
            g = gcd(p, q)
            p, q = p // g, q // g
            r, s = vn * q * td - p * tn * vd, vd * q * td
            g = gcd(r, s)
            r, s = r // g, s // g
            out.append((tn, td, p * s, r * q, q * s))
        lines = tuple(out)
        object.__setattr__(self, "_lines", lines)
        return lines

    def value(self, t: Rational) -> Fraction:
        """The function at t >= 0, read on the integer line table.

        Bisection finds the last segment whose knot is <= t (segment 0
        also covers t below its knot), and that segment's line is evaluated
        at t = tn/td as one Fraction.
        """
        tn, td = rat(t).as_integer_ratio()
        if tn < 0:
            raise PreconditionError("moduli are defined on [0, oo)")
        # t < kn/kd is read on integers as tn*kd < kn*td (denominators > 0)
        lines = self._lines or self._build_lines()
        lo, hi = 1, len(lines)
        while lo < hi:
            mid = (lo + hi) // 2
            kn, kd, _, _, _ = lines[mid]
            if tn * kd < kn * td:
                hi = mid
            else:
                lo = mid + 1
        _, _, a, b, c = lines[lo - 1]
        return Fraction(a * tn + b * td, c * td)

    def slopes(self) -> tuple[Fraction, ...]:
        """Segment slopes in order, the tail slope last."""
        lines = self._lines or self._build_lines()
        return tuple(Fraction(a, c) for _, _, a, _, c in lines)

    @property
    def first_slope(self) -> Fraction:
        _, _, a, _, c = (self._lines or self._build_lines())[0]
        return Fraction(a, c)

    @property
    def last_knot(self) -> Fraction:
        return self.breakpoints[-1][0]

    def knot_abscissas(self) -> tuple[Fraction, ...]:
        return tuple(t for t, _ in self.breakpoints)

    def inverse(self) -> "PLFunction":
        """Exact inverse; the inverse of a concave modulus is convex.

        Built once and kept on the function.  Every slope must be positive,
        read as each line's A > 0.
        """
        inv = self._inverse
        if inv is None:
            lines = self._lines or self._build_lines()
            if any(a <= 0 for _, _, a, _, _ in lines):
                raise PreconditionError(
                    "only strictly increasing PL maps invert")
            inv = PLFunction(tuple((v, t) for t, v in self.breakpoints),
                             1 / self.final_slope)
            object.__setattr__(self, "_inverse", inv)
        return inv

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
    Validity is decided when f is built; only an invalid f's report is
    formatted, once, and kept on it.
    """
    return () if f._valid else f._report or f._build_report()


def is_modulus(f: PLFunction) -> bool:
    return f._valid


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
    """Worst violation of alpha_inv(s) + beta(t) >= alpha_inv(s+t) on the box.

    The far corner decides whether there is one.  For moduli alpha and beta,
    g(s, t) = alpha_inv(s) + beta(t) - alpha_inv(s+t) is nonincreasing in s
    (alpha_inv is convex) and concave in t with g(s, 0) = 0, so its minimum
    on [0, bound]^2 is min(0, g(bound, bound)).  Only when that corner fails
    is the vertex grid scanned, its values read with ``value`` (beta's once
    per t), to name the worst vertex as the witness.
    """
    ainv = alpha.inverse()
    if ainv.value(bound) + beta.value(bound) >= ainv.value(2 * bound):
        return None
    s_coords, t_coords = _box_grid(ainv, beta, bound)
    b_ts = [beta.value(t) for t in t_coords]
    worst = None
    for s in s_coords:
        a_s = ainv.value(s)
        for t, b_t in zip(t_coords, b_ts):
            lhs = a_s + b_t
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
    On a box [0, S]^2 the condition holds exactly when it holds at the far
    corner (S, S), so that one comparison settles the verdict; the vertex
    grid is scanned, with ``value``, only to name the worst violation.
    """
    require_modulus(alpha)
    require_modulus(beta)
    bound = rat(bound)
    box = max(bound, alpha.inverse().last_knot, beta.last_knot)
    return _star_on_box(alpha, beta, box, 1)


def compatible(alpha: PLFunction, beta: PLFunction) -> CompatibilityReport:
    """Decide the two-sided compatibility of a modulus pair, exactly.

    Checks alpha_inv(s) + beta(t) >= alpha_inv(s+t) and the mirrored
    beta_inv(s) + alpha(t) >= beta_inv(s+t) on the box [0, S]^2, with S the
    last breakpoint of the four PL maps involved; tail slopes settle the
    rest of the quadrant, so the verdict covers all s, t >= 0.  Each
    condition holds on the box exactly when it holds at the far corner
    (S, S) (see :func:`_star_on_box`); a failing corner sends the check to
    the vertex grid, read vertex by vertex with ``PLFunction.value``, which
    names the worst violating vertex as the witness.
    """
    require_modulus(alpha)
    require_modulus(beta)
    box = max(alpha.inverse().last_knot, beta.last_knot,
              beta.inverse().last_knot, alpha.last_knot)
    hit = (_star_on_box(alpha, beta, box, 1)
           or _star_on_box(beta, alpha, box, 2) or _tail_witness(alpha, beta))
    return CompatibilityReport(hit is None, hit, box)
