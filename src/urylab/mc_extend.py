"""One-point and net-refined extension of (beta, alpha)-bicontinuous maps.

A bijection f between finite pieces of two spaces is (beta, alpha)-
bicontinuous when alpha_inv(d(x, x')) <= d(f(x), f(x')) <= beta(d(x, x'))
for every pair.  New images are produced by the shortest-path prescription

    d(q, y) = min over z of ( d(f(z), y) + beta(d(z, p)) )

which works exactly when alpha_inv(s) + beta(t) >= alpha_inv(s + t) on the
relevant range; a small three-point instance shows the condition is not just
convenient but necessary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .amalgam import realize_point
from .core import FiniteMetricSpace, PartialMap, Rational, rat
from .errors import PreconditionError
from .moduli import MCSemigroup, PLFunction, require_modulus, star_condition


def bicontinuity_violations(f: PartialMap, dom_space: FiniteMetricSpace,
                            rng_space: FiniteMetricSpace, alpha: PLFunction,
                            beta: PLFunction) -> list[tuple[int, int, str]]:
    """All pairs breaking alpha_inv(d) <= d(f., f.) <= beta(d), exactly."""
    ainv = alpha.inverse()
    out = []
    for (a, fa), (b, fb) in combinations(f.pairs(), 2):
        dd = dom_space.d(a, b)
        ee = rng_space.d(fa, fb)
        if ee > beta.value(dd):
            out.append((a, b, f"image distance {ee} > beta({dd}) = {beta.value(dd)}"))
        if ee < ainv.value(dd):
            out.append((a, b, f"image distance {ee} < alpha_inv({dd}) = {ainv.value(dd)}"))
    return out


def require_bicontinuous(f: PartialMap, dom_space: FiniteMetricSpace,
                         rng_space: FiniteMetricSpace, alpha: PLFunction,
                         beta: PLFunction) -> None:
    bad = bicontinuity_violations(f, dom_space, rng_space, alpha, beta)
    if bad:
        a, b, msg = bad[0]
        raise PreconditionError(
            f"map is not (beta, alpha)-bicontinuous on pair "
            f"({dom_space.labels[a]!r}, {dom_space.labels[b]!r}): {msg}")


@dataclass(frozen=True)
class McExtension:
    map: PartialMap
    rng_space: FiniteMetricSpace
    q: int
    q_label: str


def extend_one_point_mc(f: PartialMap, dom_space: FiniteMetricSpace,
                        rng_space: FiniteMetricSpace, alpha: PLFunction,
                        beta: PLFunction, p: int,
                        bound: Rational = 0) -> McExtension:
    """Realize an image q for the new domain point p via the shortest-path rule.

    Preconditions are checked exactly: f bicontinuous on all pairs, p outside
    dom(f), and alpha_inv(s) + beta(t) >= alpha_inv(s + t) on a box covering
    the domain diameter (or the given larger ``bound``).  The extended map is
    re-verified pair by pair.
    """
    require_modulus(alpha, "alpha")
    require_modulus(beta, "beta")
    if p in f.domain:
        raise PreconditionError("new point already in the domain")
    require_bicontinuous(f, dom_space, rng_space, alpha, beta)
    if not f.domain:
        raise PreconditionError("cannot extend an empty map")
    box = max(rat(bound), dom_space.diameter())
    hit = star_condition(alpha, beta, box)
    if hit is not None:
        s, t, lhs, rhs = hit[:4]
        raise PreconditionError(
            f"moduli fail alpha_inv(s)+beta(t) >= alpha_inv(s+t) at "
            f"(s, t) = ({s}, {t}): {lhs} < {rhs}; with such moduli a new "
            f"image is obstructed by the triangle inequality between the "
            f"upper bound through one point and the lower bound through "
            f"another")

    # Prescribed on the images only; realize_point completes the rest by the
    # same shortest-path rule, which by the triangle inequality gives the
    # minimum over z at every other range point too.
    reach = [(fz, beta.value(dom_space.d(z, p))) for z, fz in f.pairs()]
    values = {y: min(rng_space.d(fz, y) + b for fz, b in reach)
              for y in f.images}
    grown, q = realize_point(rng_space, values)
    new_map = f.extended(p, q)
    require_bicontinuous(new_map, dom_space, grown, alpha, beta)
    return McExtension(new_map, grown, q, grown.labels[q])


@dataclass(frozen=True)
class ObstructionCertificate:
    """Exact witness that no image point can exist for an incompatible pair.

    Any q would need d(q, y0) <= beta(t) and d(q, y1) >= alpha_inv(s + t)
    while d(y0, y1) = alpha_inv(s); the triangle inequality then forces
    alpha_inv(s + t) <= beta(t) + alpha_inv(s), which ``lhs > rhs`` refutes.
    """

    s: Fraction
    t: Fraction
    lhs: Fraction            # alpha_inv(s + t), floor on d(q, y1)
    rhs: Fraction            # beta(t) + alpha_inv(s)
    upper_bound: Fraction    # beta(t), cap on d(q, y0)
    range_gap: Fraction      # alpha_inv(s) = d(y0, y1)

    @property
    def ok(self) -> bool:
        return self.lhs > self.rhs


@dataclass(frozen=True)
class CounterexampleBundle:
    dom_space: FiniteMetricSpace
    rng_space: FiniteMetricSpace
    map: PartialMap
    p: int
    certificate: ObstructionCertificate


def necessity_counterexample(alpha: PLFunction, beta: PLFunction,
                             s: Rational, t: Rational) -> CounterexampleBundle:
    """Build the three-point instance showing the star condition is necessary.

    Domain {x0, x1, p} with d(x0, x1) = s, d(p, x0) = t, d(p, x1) = s + t;
    range {y0, y1} at distance alpha_inv(s); f(x_i) = y_i.  Requires
    alpha_inv <= beta near zero (otherwise no bicontinuous map exists at any
    scale) and a genuine failure alpha_inv(s) + beta(t) < alpha_inv(s + t)
    at the given point.
    """
    require_modulus(alpha, "alpha")
    require_modulus(beta, "beta")
    s, t = rat(s), rat(t)
    if s <= 0 or t <= 0:
        raise PreconditionError("need s, t > 0")
    ainv = alpha.inverse()
    if ainv.first_slope > beta.first_slope:
        raise PreconditionError(
            "alpha_inv exceeds beta near 0; no bicontinuous map exists at "
            "any scale for this pair")
    if ainv.value(s) + beta.value(t) >= ainv.value(s + t):
        raise PreconditionError(
            f"the star condition actually holds at ({s}, {t})")

    dom = FiniteMetricSpace.from_rows(
        ("x0", "x1", "p"),
        ((0, s, t), (s, 0, s + t), (t, s + t, 0)))
    rng = FiniteMetricSpace.from_rows(
        ("y0", "y1"),
        ((0, ainv.value(s)), (ainv.value(s), 0)))
    fmap = PartialMap((0, 1), (0, 1))
    cert = ObstructionCertificate(
        s=s, t=t, lhs=ainv.value(s + t),
        rhs=beta.value(t) + ainv.value(s),
        upper_bound=beta.value(t), range_gap=ainv.value(s))
    assert cert.ok
    return CounterexampleBundle(dom, rng, fmap, 2, cert)


@dataclass(frozen=True)
class NetLevel:
    n: int
    net: tuple[int, ...]
    eps: Fraction
    q: int
    gap: Optional[Fraction]          # d(q_{n-1}, q_n); None at level 0
    gap_bound: Optional[Fraction]    # 2^(-(n-1)+1)


@dataclass(frozen=True)
class NetRefinement:
    levels: tuple[NetLevel, ...]
    rng_space: FiniteMetricSpace
    q: int


def extend_totally_bounded(f: PartialMap, dom_space: FiniteMetricSpace,
                           rng_space: FiniteMetricSpace, alpha: PLFunction,
                           beta: PLFunction, p: int,
                           nets: Sequence[Sequence[int]],
                           eps: Sequence[Rational]) -> NetRefinement:
    """Image of a new point through successively finer nets of the domain.

    nets[n] must be an eps[n]-net of dom(f) (strictly: every domain point
    within < eps[n] of the net) with beta(eps[n]) <= 2^-n, and the nets must
    form a chain.  Level n realizes q_n for f restricted to nets[n]; q_{n+1}
    is attached to q_n by minimal amalgamation, with the exact gap bound
    d(q_n, q_{n+1}) < 2^(-n+1).  The final level's map is bicontinuous on
    the deepest net, verified exactly.
    """
    require_modulus(alpha, "alpha")
    require_modulus(beta, "beta")
    require_bicontinuous(f, dom_space, rng_space, alpha, beta)
    if p in f.domain:
        raise PreconditionError("new point already in the domain")
    if not nets or len(nets) != len(eps):
        raise PreconditionError("need one epsilon per net")
    hit = star_condition(alpha, beta, dom_space.diameter())
    if hit is not None:
        raise PreconditionError(
            f"moduli fail the one-point extension condition at "
            f"(s, t) = ({hit[0]}, {hit[1]})")

    image = dict(f.pairs())
    nets = [tuple(net) for net in nets]
    eps = [rat(ep) for ep in eps]
    for n, (net, ep) in enumerate(zip(nets, eps)):
        if not net:
            raise PreconditionError(f"net {n} is empty")
        if len(set(net)) != len(net):
            raise PreconditionError(f"net {n} lists a point twice")
        if any(z not in f.domain for z in net):
            raise PreconditionError(f"net {n} is not a subset of the domain")
        if n > 0 and not set(nets[n - 1]) <= set(net):
            raise PreconditionError(f"net {n} does not refine net {n - 1}")
        if beta.value(ep) > Fraction(1, 2 ** n):
            raise PreconditionError(
                f"beta(eps_{n}) = {beta.value(ep)} > 2^-{n}")
        for x in f.domain:
            if all(dom_space.d(x, z) >= ep for z in net):
                raise PreconditionError(
                    f"net {n} leaves {dom_space.labels[x]!r} uncovered at "
                    f"scale {ep}")

    levels: list[NetLevel] = []
    q_prev: Optional[int] = None
    for n, net in enumerate(nets):
        targets = [image[z] for z in net]
        values: dict[int, Fraction] = {
            y: min(rng_space.d(image[z], y) + beta.value(dom_space.d(z, p))
                   for z in net)
            for y in targets}
        gap = gap_bound = None
        if q_prev is not None:
            gap = max(abs(values[y] - rng_space.d(y, q_prev))
                      for y in targets)
            gap_bound = Fraction(2) ** (2 - n)
            assert gap < gap_bound
            values[q_prev] = gap
        rng_space, q = realize_point(rng_space, values)
        # level map bicontinuous on net union {p}:
        level_map = PartialMap(tuple(net) + (p,), tuple(targets) + (q,))
        require_bicontinuous(level_map, dom_space, rng_space, alpha, beta)
        levels.append(NetLevel(n, net, eps[n], q, gap, gap_bound))
        q_prev = q
    return NetRefinement(tuple(levels), rng_space, q_prev)


@dataclass(frozen=True)
class ScaleCheck:
    generator: int
    t: Fraction
    gamma_value: Fraction
    generator_value: Fraction

    @property
    def ok(self) -> bool:
        return self.gamma_value > self.generator_value


@dataclass(frozen=True)
class WitnessCertificate:
    scale_checks: tuple[ScaleCheck, ...]
    bicontinuity_ok: bool
    pairs_checked: int

    @property
    def ok(self) -> bool:
        return self.bicontinuity_ok and all(c.ok for c in self.scale_checks)


@dataclass(frozen=True)
class SeparationWitness:
    map: PartialMap
    space: FiniteMetricSpace
    certificate: WitnessCertificate


def separation_witness(gamma: PLFunction, delta: MCSemigroup,
                       depth: int) -> SeparationWitness:
    """A finite map (2*gamma)-bicontinuous but beating every generator near 0.

    Starting from a one-point space {x}, realizes points x_j -> x at chosen
    small scales t and partner points y_j with d(y_j, x) = gamma(t), all
    spaced additively through x, so both certificates are exact:
    d(y_j, x) > delta_i(d(x_j, x)) at each chosen scale, while the map
    x_j -> y_j, x -> x stays (2*gamma)-bicontinuous on every pair.  Requires
    gamma to exceed each generator on arbitrarily small arguments, which for
    PL data is a first-slope comparison.
    """
    require_modulus(gamma, "gamma")
    bad = delta.validate()
    if bad:
        raise PreconditionError(f"invalid generating set: {bad[0]}")
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")
    for i, gen in enumerate(delta.generators):
        if gamma.first_slope <= gen.first_slope:
            raise PreconditionError(
                f"gamma is dominated near 0 by generator {i} "
                f"(slope {gamma.first_slope} <= {gen.first_slope})")
    space = FiniteMetricSpace.from_rows(("x",), ((0,),))
    base = 0

    def first_knot(fn: PLFunction) -> Optional[Fraction]:
        return fn.breakpoints[1][0] if len(fn.breakpoints) > 1 else None

    # scale -> generators certified at that scale
    chosen: dict[Fraction, list[int]] = {}
    for i, gen in enumerate(delta.generators):
        knots = [k for k in (first_knot(gamma), first_knot(gen))
                 if k is not None]
        top = min(knots) if knots else Fraction(1)
        for j in range(1, depth + 1):
            chosen.setdefault(top / 2 ** j, []).append(i)

    checks: list[ScaleCheck] = []
    dom_idx, img_idx = [base], [base]
    for t in sorted(chosen, reverse=True):
        space, xj = realize_point(space, {base: t})
        space, yj = realize_point(space, {base: gamma.value(t)})
        dom_idx.append(xj)
        img_idx.append(yj)
        for i in chosen[t]:
            checks.append(ScaleCheck(i, t, gamma.value(t),
                                     delta.generators[i].value(t)))

    fmap = PartialMap(tuple(dom_idx), tuple(img_idx))
    two_gamma = gamma.scale(2)
    violations = bicontinuity_violations(fmap, space, space, two_gamma,
                                         two_gamma)
    cert = WitnessCertificate(tuple(checks), not violations,
                              len(fmap) * (len(fmap) - 1) // 2)
    assert cert.ok or depth == 0
    return SeparationWitness(fmap, space, cert)
