"""The benchmark's workloads.

Each workload yields a fixed pool of op inputs from the seed (``setup``),
runs one op on one pool item (``run``), checks an op's output by a route
independent of the code under test (``check``) and renders an output as
text for the digest (``render``).  ``run`` is a generator: it yields None
at each stage boundary, so the benchmark can sample machine speed between
stages, and yields the op's output last.  Ops call the program through
module attributes, so the tracer's wrappers see them.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import lcm

from urylab import amalgam, bilip, cli, core, gen, groupmetric, io
from urylab import mc_extend, moduli
from urylab.errors import PreconditionError


def _sub_rngs(seed: int, count: int) -> list[random.Random]:
    """One independent generator per pool item, all drawn from the seed."""
    master = random.Random(seed)
    return [random.Random(master.getrandbits(64)) for _ in range(count)]


def _restrict(space, labels):
    """Sub-space on the given labels, read straight from the matrix."""
    idx = [space.labels.index(lab) for lab in labels]
    return tuple(tuple(space.dist[i][j] for j in idx) for i in idx)


def _rows(space, start: int = 0) -> list[str]:
    return [f"{space.labels[i]} " + " ".join(map(str, space.dist[i]))
            for i in range(start, space.n)]


def common_den_bits(space) -> int:
    """Bit length of the lcm of every denominator in the matrix."""
    return lcm(*(v.denominator for row in space.dist for v in row)).bit_length()


class Workload:
    """Shared default: an output is kept whole."""

    def keep(self, out):
        """The part of an output kept for checks once the op has returned."""
        return out


# --- bilip_roundtrip --------------------------------------------------------

@dataclass
class BilipOut:
    map: object
    space: object
    trace: object
    text: str
    compliant: bool
    replay: tuple
    records: tuple = ()


class BilipRoundtrip(Workload):
    """Criterion-03 instances: extend, certify, write the trace, replay it."""

    name = "bilip_roundtrip"
    pool = 16
    targets = 20

    def setup(self, seed: int):
        for i, rng in enumerate(_sub_rngs(seed, self.pool)):
            space, f, ball, kn = gen.random_compliant_instance(rng, grow=i % 2)
            targets = []
            for _ in range(self.targets):
                space, x = gen.random_point_in_ball(rng, space, ball)
                targets.append(x)
            yield space, f, ball, kn, tuple(targets)

    def run(self, item):
        space, f, ball, kn, targets = item
        final, grown, trace = bilip.extend_dense(f, ball, kn, targets, space,
                                                 "midpoint")
        yield
        cert = bilip.is_compliant(final, ball, kn, grown)
        text = io.format_trace(trace)
        yield
        replay = cli.verify_trace_lines(space, f, ball, kn, targets,
                                        io.parse_trace(text))
        yield BilipOut(final, grown, trace, text, cert.ok, replay)

    def keep(self, out: BilipOut) -> BilipOut:
        # The full bound lists of every solve are large; keep one summary
        # per solve: (lo family, hi family, bounds, lo, hi, chosen).
        records = tuple((rec.lo_family, rec.hi_family,
                         len(rec.lowers) + len(rec.uppers),
                         rec.lo, rec.hi, rec.chosen)
                        for step in out.trace.steps for rec in step.solves)
        return replace(out, trace=None, records=records)

    def check(self, item, out: BilipOut) -> list[str]:
        space, _, ball, kn, targets = item
        bad = []
        if not out.replay[0]:
            bad.append(f"replay rejected: {out.replay[1]}")
        if not out.compliant:
            bad.append("is_compliant rejected the final map")
        pairs = list(zip(out.map.domain, out.map.images))
        if not set(targets) <= set(out.map.domain) & set(out.map.images):
            bad.append("a target is missing from the domain or range")
        d, c, r, K, N = out.space.dist, ball.center, ball.radius, kn.K, kn.N
        for (a, fa), (b, fb) in combinations(pairs, 2):
            if d[fa][fb] > K * d[a][b] or d[a][b] > K * d[fa][fb]:
                bad.append(f"stretch above K on pair ({a}, {b})")
        for y, fy in pairs:
            if not (d[c][y] < r and d[c][fy] < r):
                bad.append(f"pair ({y}, {fy}) leaves the ball")
            elif N * d[y][fy] > r - max(d[c][y], d[c][fy]):
                bad.append(f"pair ({y}, {fy}) is not N-bigood")
        if out.space.labels[:space.n] != space.labels or any(
                out.space.dist[i][:space.n] != space.dist[i]
                for i in range(space.n)):
            bad.append("the input workspace changed")
        return bad

    def render(self, item, out: BilipOut) -> str:
        return "\n".join(
            [out.text,
             "map " + " ".join(f"{a}:{b}" for a, b in out.map.pairs()),
             *_rows(out.space, item[0].n),
             f"compliant={out.compliant} replay={out.replay}"])

    def fractions(self, out: BilipOut):
        for row in out.space.dist:
            yield from row
        for rec in out.records:
            yield from rec[3:]

    def spaces(self, out: BilipOut):
        return [out.space]


# --- moduli_mc --------------------------------------------------------------

def _pl(points, slope: Fraction, t: Fraction) -> Fraction:
    """PL evaluation written out here, independent of PLFunction.value."""
    if t >= points[-1][0] or len(points) == 1:
        return points[-1][1] + slope * (t - points[-1][0])
    k = max([0] + [i for i, (u, _) in enumerate(points[:-1]) if u <= t])
    (t0, v0), (t1, v1) = points[k], points[k + 1]
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def _value(m, t: Fraction) -> Fraction:
    return _pl(m.breakpoints, m.final_slope, t)


def _inverse_value(m, v: Fraction) -> Fraction:
    return _pl([(b, a) for a, b in m.breakpoints], 1 / m.final_slope, v)


@dataclass
class ModuliOut:
    ok: bool
    witness: object
    map: object
    rng_space: object
    q: int


class ModuliMc(Workload):
    """Moduli compatibility decisions, then one bicontinuous extension."""

    name = "moduli_mc"
    # piece bound -> (repeats, (k_alpha, k_beta) segment counts).  The cost
    # of a decision grows with k_alpha * k_beta, so each bound holds that
    # product nearly fixed (about 32 and 48): every seed then gets the same
    # mix of sizes and no single pair dominates a run.
    slots = {8: (2, ((4, 8), (8, 4), (5, 6), (6, 5))),
             16: (6, ((3, 16), (16, 3), (4, 12), (12, 4), (5, 10), (10, 5),
                      (6, 8), (8, 6)))}

    @staticmethod
    def _modulus(rng, pieces: int, k: int):
        """A random_modulus draw with exactly k finite segments."""
        while True:
            m = gen.random_modulus(rng, pieces)
            if len(m.breakpoints) - 1 == k:
                return m

    def setup(self, seed: int):
        # Each cell comes as many times compatible as not, decided by the
        # tail-slope product; the seed draws breakpoints and slopes.  Both
        # bounds are spread evenly over the pool's order.
        spaced = []
        for pieces, (repeats, cells) in self.slots.items():
            group = [(pieces, ka, kb, fit) for _ in range(repeats)
                     for ka, kb in cells for fit in (True, False)]
            spaced += [((i + 0.5) / len(group), slot)
                       for i, slot in enumerate(group)]
        plan = [slot for _, slot in sorted(spaced)]
        for (pieces, ka, kb, fit), rng in zip(plan,
                                             _sub_rngs(seed, len(plan))):
            alpha = self._modulus(rng, pieces, ka)
            beta = self._modulus(rng, pieces, kb)
            product = alpha.final_slope * beta.final_slope
            if fit and product < 1:
                beta = beta.scale(1 / product)
            elif not fit and product >= 1:
                beta = beta.scale(1 / (2 * product))
            while True:
                try:
                    inst = gen.random_bicontinuous_instance(rng)
                    break
                except PreconditionError:
                    continue
            a2, b2, f, dom, rng_space = inst
            dom, p = gen.random_point_in_ball(
                rng, dom, core.Ball(0, dom.diameter() + 1))
            yield alpha, beta, (f, dom, rng_space, a2, b2, p)

    def run(self, item):
        alpha, beta, mc = item
        report = moduli.compatible(alpha, beta)
        ext = mc_extend.extend_one_point_mc(*mc)
        yield ModuliOut(report.ok, report.witness, ext.map, ext.rng_space,
                        ext.q)

    def check(self, item, out: ModuliOut) -> list[str]:
        alpha, beta, (_, dom, rng_space, a2, b2, _) = item
        bad = []
        want = alpha.final_slope * beta.final_slope >= 1
        if out.ok != want:
            bad.append(f"verdict {out.ok}, tail slopes say {want}")
        if not out.ok:
            s, t, lhs, rhs, direction = out.witness
            one, two = (alpha, beta) if direction == 1 else (beta, alpha)
            got = (_inverse_value(one, s) + _value(two, t),
                   _inverse_value(one, s + t))
            if got != (lhs, rhs) or not lhs < rhs:
                bad.append(f"witness {out.witness} does not refute")
        d, e = dom.dist, out.rng_space.dist
        for (a, fa), (b, fb) in combinations(out.map.pairs(), 2):
            if not (_inverse_value(a2, d[a][b]) <= e[fa][fb]
                    <= _value(b2, d[a][b])):
                bad.append(f"extended map not bicontinuous on ({a}, {b})")
        q = out.q
        for y, z in combinations(range(out.rng_space.n), 2):
            if y != q and z != q and e[y][z] != rng_space.dist[y][z]:
                bad.append("the range workspace changed")
            if q not in (y, z) and not (abs(e[y][q] - e[z][q]) <= e[y][z]
                                        <= e[y][q] + e[z][q]):
                bad.append(f"new image breaks a triangle at ({y}, {z})")
        return bad

    def render(self, item, out: ModuliOut) -> str:
        return "\n".join(
            [f"compatible={out.ok} witness={out.witness}",
             "map " + " ".join(f"{a}:{b}" for a, b in out.map.pairs()),
             *_rows(out.rng_space, out.q)])

    def fractions(self, out: ModuliOut):
        if out.witness is not None:
            yield from out.witness[:4]
        for row in out.rng_space.dist:
            yield from row

    def spaces(self, out: ModuliOut):
        return [out.rng_space]


# --- workspace_read ---------------------------------------------------------

@dataclass
class WorkspaceOut:
    merged: object
    valid: bool
    stretch: Fraction
    series: Fraction


class WorkspaceRead(Workload):
    """Amalgamate a small piece, validate the merge, measure two permutations."""

    name = "workspace_read"
    workspaces = 16
    ops_each = 2
    points = 40
    grow_targets = 13
    shared = 3
    extra = 3

    def _workspace(self, rng, grown: bool):
        if not grown:
            return gen.random_space(rng, self.points, den=8)
        space, f, ball, kn = gen.random_compliant_instance(rng, grow=1)
        targets = []
        for _ in range(self.grow_targets):
            space, x = gen.random_point_in_ball(rng, space, ball)
            targets.append(x)
        return bilip.extend_dense(f, ball, kn, targets, space, "midpoint")[1]

    def setup(self, seed: int):
        for i, rng in enumerate(_sub_rngs(seed, self.workspaces)):
            ws = self._workspace(rng, grown=i % 2 == 1)
            for _ in range(self.ops_each):
                keep = sorted(rng.sample(range(ws.n), self.shared))
                labels = tuple(ws.labels[k] for k in keep)
                piece = core.FiniteMetricSpace(labels, _restrict(ws, labels))
                ball = core.Ball(0, piece.diameter() + 1)
                for _ in range(self.extra):
                    piece, _ = gen.random_point_in_ball(rng, piece, ball)
                if piece.n != self.shared + self.extra:
                    raise RuntimeError("random piece lost a point")
                piece = core.FiniteMetricSpace(
                    labels + tuple(f"m{k}" for k in range(1, self.extra + 1)),
                    piece.dist)
                size = ws.n + self.extra
                perms = []
                for _ in range(2):
                    images = list(range(size))
                    rng.shuffle(images)
                    perms.append(tuple(images))
                yield ws, piece, perms[0], perms[1]

    def run(self, item):
        ws, piece, p, q = item
        merged = amalgam.amalgamate(ws, piece, policy="midpoint")
        valid = core.validate_space(merged).ok
        dist = groupmetric.dist_hat(groupmetric.AutoMap(merged, p),
                                    groupmetric.AutoMap(merged, q))
        yield WorkspaceOut(merged, valid, dist.stretch, dist.series)

    def check(self, item, out: WorkspaceOut) -> list[str]:
        ws, piece, p, q = item
        bad = []
        for part in (ws, piece):
            if _restrict(out.merged, part.labels) != part.dist:
                bad.append(f"merge restricted to {part.labels[:2]}... differs")
        if not out.valid:
            bad.append("validate_space rejected the merge")
        swapped = groupmetric.dist_S(groupmetric.AutoMap(out.merged, q),
                                     groupmetric.AutoMap(out.merged, p))
        if swapped != out.series:
            bad.append(f"dist_S not symmetric: {out.series} vs {swapped}")
        return bad

    def render(self, item, out: WorkspaceOut) -> str:
        return "\n".join([*_rows(out.merged, item[0].n),
                          f"valid={out.valid} stretch={out.stretch} "
                          f"series={out.series}"])

    def fractions(self, out: WorkspaceOut):
        for row in out.merged.dist:
            yield from row
        yield from (out.stretch, out.series)

    def spaces(self, out: WorkspaceOut):
        return [out.merged]


WORKLOADS = {w.name: w for w in (BilipRoundtrip(), ModuliMc(), WorkspaceRead())}


def family_counts(outputs) -> Counter:
    """Binding-family tallies and bound counts from bilip extension traces."""
    counts = Counter()
    for out in outputs:
        for lo_family, hi_family, bounds, *_ in getattr(out, "records", ()):
            counts[f"bilip.lo_family.{lo_family}"] += 1
            counts[f"bilip.hi_family.{hi_family}"] += 1
            counts["bilip.constraints"] += bounds
    return counts
