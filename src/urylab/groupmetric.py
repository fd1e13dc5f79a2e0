"""Semimetrics on total bilipschitz bijections of a finite space.

Three quantities are computed exactly as rationals: the relative stretch
lip(f^-1 o g) (whose log is the group semimetric, taken only for display),
the ball-weighted series sum of sup-distances, and their combination.  All
comparisons happen on the rationals; no logarithm enters an exact code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from .core import FiniteMetricSpace, PartialMap, lip_constant
from .errors import PreconditionError, StructuralError


@dataclass(frozen=True)
class AutoMap:
    """A total bijection of one finite space, with a basepoint for the balls."""

    space: FiniteMetricSpace
    images: tuple[int, ...]
    basepoint: int = 0

    def __post_init__(self):
        if sorted(self.images) != list(range(self.space.n)):
            raise StructuralError("images are not a bijection of the space")
        if not 0 <= self.basepoint < self.space.n:
            raise StructuralError("basepoint outside the space")

    @classmethod
    def identity(cls, space: FiniteMetricSpace, basepoint: int = 0) -> "AutoMap":
        return cls(space, tuple(range(space.n)), basepoint)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def compose(self, other: "AutoMap") -> "AutoMap":
        """self after other."""
        _same_frame(self, other)
        return AutoMap(self.space,
                       tuple(self.images[other.images[i]]
                             for i in range(self.space.n)),
                       self.basepoint)

    def inverse(self) -> "AutoMap":
        inv = [0] * self.space.n
        for i, j in enumerate(self.images):
            inv[j] = i
        return AutoMap(self.space, tuple(inv), self.basepoint)

    def as_partial_map(self) -> PartialMap:
        return PartialMap(tuple(range(self.space.n)), self.images)

    def lip(self) -> Fraction:
        return lip_constant(self.as_partial_map(), self.space)


def _same_frame(f: AutoMap, g: AutoMap) -> None:
    if f.space != g.space or f.basepoint != g.basepoint:
        raise PreconditionError("maps live on different spaces or basepoints")


def dist_L(f: AutoMap, g: AutoMap) -> Fraction:
    """The stretch lip(f^-1 o g), stored exactly; its log is display-only."""
    _same_frame(f, g)
    return f.inverse().compose(g).lip()


def dist_n(f: AutoMap, g: AutoMap, n: int) -> Fraction:
    """Max displacement d(f(x), g(x)) over the open ball B(basepoint, n)."""
    _same_frame(f, g)
    if n < 1:
        raise PreconditionError("ball index must be >= 1")
    space, x0 = f.space, f.basepoint
    return max((space.d(f(i), g(i)) for i in range(space.n)
                if space.d(i, x0) < n), default=Fraction(0))


RADIUS_BOUND = 2 ** 16  # a rise past it needs a denominator past 2^65536


def dist_S(f: AutoMap, g: AutoMap) -> Fraction:
    """Sum over n >= 1 of dist_n / 2^n, in exact closed form.

    dist_n can rise only at a radius k = floor(d(x, x0)) + 1 of a point x,
    and a rise rho there adds rho * 2^(1-k): one pass over the points
    sorted by k sums the rises.
    """
    _same_frame(f, g)
    space, x0 = f.space, f.basepoint
    total = top = Fraction(0)
    for k, i in sorted((math.floor(space.d(i, x0)) + 1, i)
                       for i in range(space.n)):
        moved = space.d(f(i), g(i))
        if moved > top:
            if k > RADIUS_BOUND:
                raise PreconditionError(f"displacement rises at radius {k} "
                                        f"> {RADIUS_BOUND}")
            total, top = total + (moved - top) / 2 ** (k - 1), moved
    return total


@dataclass(frozen=True)
class GroupDistance:
    """The pair (stretch, series) behind the combined group metric.

    The combined value max(log(stretch), series) mixes a log scale with a
    linear one, so it is materialized as a float for display only; exact
    code compares the pair componentwise (both components <= means the
    combined value is <=), and zero-ness is exact.
    """

    stretch: Fraction   # lip(f^-1 o g) >= 1
    series: Fraction    # weighted sup-distance sum >= 0

    def is_zero(self) -> bool:
        return self.stretch == 1 and self.series == 0

    def display(self) -> float:
        """max(log(stretch), series); past float range log p - log q, inf."""
        try:
            log_stretch = math.log(float(self.stretch))
        except OverflowError:
            p, q = self.stretch.as_integer_ratio()
            log_stretch = math.log(p) - math.log(q)
        try:
            return max(log_stretch, float(self.series))
        except OverflowError:
            return math.inf


def dist_hat(f: AutoMap, g: AutoMap) -> GroupDistance:
    return GroupDistance(dist_L(f, g), dist_S(f, g))
