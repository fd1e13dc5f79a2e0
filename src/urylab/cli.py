"""Command-line front end.

Subcommands: validate, amalgamate, extend-bilip, extend-mc, counterexample,
witness, group-dist, verify-trace, fuzz.  All inputs and reports are exact
text artifacts; given the same inputs and seed, output is byte-identical.

Exit codes: 0 success, 1 validation or property failure (witness printed),
2 infeasible or precondition violation, 3 parse error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import gen, io
from .amalgam import amalgamate
from .bilip import (Ball, extend_dense, is_compliant, kn_admissible,
                    verify_trace_lines)
from .core import FiniteMetricSpace, PartialMap, validate_space
from .errors import (InfeasibleError, ParseError, PreconditionError,
                     StructuralError)
from .groupmetric import RADIUS_BOUND, AutoMap, dist_hat, dist_n
from .mc_extend import (extend_one_point_mc, necessity_counterexample,
                        separation_witness)
from .moduli import MCSemigroup


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _emit(report: str, out: Optional[str]) -> None:
    if out:
        try:
            Path(out).write_text(report)
        except OSError as exc:
            raise ParseError(f"cannot write {out}: {exc}") from None
    sys.stdout.write(report)


def _load_space(path: str) -> FiniteMetricSpace:
    return io.parse_space(_read(path))


def _load_extension(args):
    """Space, map, ball, (K, N) and targets for extend-bilip, verify-trace."""
    space = _load_space(args.space)
    fmap = io.parse_map(_read(args.map), space)
    ball = Ball(space.index(args.center), io.parse_rational(args.radius))
    kn = kn_admissible(io.parse_rational(args.K), io.parse_rational(args.N))
    targets = [space.index(t) for t in args.target]
    return space, fmap, ball, kn, targets


def cmd_validate(args) -> int:
    space = _load_space(args.space)
    report = validate_space(space)
    lines = [f"space {space.n} points"]
    for v in report.violations:
        pts = " ".join(space.labels[i] for i in v.points)
        lines.append(f"violation {v.kind} {pts} : {v.detail}")
    lines.append("valid" if report.ok else
                 f"invalid ({len(report.violations)} violations)")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if report.ok else 1


def cmd_amalgamate(args) -> int:
    x0 = _load_space(args.space0)
    x1 = _load_space(args.space1)
    merged = amalgamate(x0, x1, policy=args.policy)
    shared = sum(1 for lab in x0.labels if lab in x1.labels)
    report = (f"# amalgam over {shared} shared points, policy={args.policy}\n"
              + io.format_space(merged))
    _emit(report, args.out)
    return 0


def cmd_extend_bilip(args) -> int:
    space, fmap, ball, kn, targets = _load_extension(args)
    fmap, space, trace = extend_dense(fmap, ball, kn, targets, space,
                                      policy=args.policy)
    cert = is_compliant(fmap, ball, kn, space)
    report = (f"# extend-bilip K={kn.K} N={kn.N} center={args.center} "
              f"r={ball.radius} policy={args.policy}\n"
              + io.format_trace(trace)
              + f"# final map: {len(fmap)} pairs, lip={cert.lip_value}, "
                f"compliant={str(cert.ok).lower()}\n")
    _emit(report, args.out)
    return 0 if cert.ok else 1


def cmd_verify_trace(args) -> int:
    space, fmap, ball, kn, targets = _load_extension(args)
    lines = io.parse_trace(_read(args.trace))
    ok, message = verify_trace_lines(space, fmap, ball, kn, targets, lines)
    _emit(("ok: " if ok else "FAIL: ") + message + "\n", args.out)
    return 0 if ok else 1


def cmd_extend_mc(args) -> int:
    dom = _load_space(args.space_x)
    rng_space = _load_space(args.space_y)
    fmap = io.parse_map(_read(args.map), dom, rng_space)
    alpha = io.parse_modulus(_read(args.alpha))
    beta = io.parse_modulus(_read(args.beta))
    p = dom.index(args.point)
    bound = io.parse_rational(args.bound) if args.bound else 0
    ext = extend_one_point_mc(fmap, dom, rng_space, alpha, beta, p,
                              bound=bound)
    lines = [f"# extend-mc point={args.point}",
             f"realized {ext.q_label}"]
    for y in range(ext.rng_space.n - 1):
        lines.append(f"dist {ext.rng_space.labels[y]} "
                     f"{ext.rng_space.d(ext.q, y)}")
    pairs = len(ext.map) * (len(ext.map) - 1) // 2
    lines.append(f"bicontinuous exact pairs={pairs}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_counterexample(args) -> int:
    alpha = io.parse_modulus(_read(args.alpha))
    beta = io.parse_modulus(_read(args.beta))
    bundle = necessity_counterexample(alpha, beta,
                                      io.parse_rational(args.s),
                                      io.parse_rational(args.t))
    cert = bundle.certificate
    report = ("# obstruction instance\n"
              + io.format_space(bundle.dom_space)
              + io.format_space(bundle.rng_space)
              + f"certificate: alpha_inv(s+t)={cert.lhs} > "
                f"beta(t)+alpha_inv(s)={cert.rhs} -> no image point can "
                f"satisfy both bounds\n")
    _emit(report, args.out)
    return 0


def cmd_witness(args) -> int:
    gamma = io.parse_modulus(_read(args.gamma))
    gens = tuple(io.parse_modulus(_read(p)) for p in args.delta)
    witness = separation_witness(gamma, MCSemigroup(gens), args.depth)
    cert = witness.certificate
    lines = [f"# separation witness depth={args.depth}"]
    for c in cert.scale_checks:
        lines.append(f"gen={c.generator} t={c.t} gamma={c.gamma_value} "
                     f"delta={c.generator_value} "
                     f"exceeds={str(c.ok).lower()}")
    lines.append(f"bicontinuity(2*gamma) ok={str(cert.bicontinuity_ok).lower()} "
                 f"pairs={cert.pairs_checked}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if cert.ok else 1


def _as_automap(pm: PartialMap, space: FiniteMetricSpace,
                base: int) -> AutoMap:
    if sorted(pm.domain) != list(range(space.n)):
        raise PreconditionError(
            "map file must pair every point of the space exactly once")
    images = [0] * space.n
    for d, im in pm.pairs():
        images[d] = im
    return AutoMap(space, tuple(images), base)


def cmd_group_dist(args) -> int:
    if args.depth < 0:
        raise PreconditionError("depth must be nonnegative")
    if args.depth > RADIUS_BOUND:
        raise PreconditionError(f"--depth {args.depth} > {RADIUS_BOUND}")
    space = _load_space(args.space)
    base = space.index(args.basepoint) if args.basepoint else 0
    f = _as_automap(io.parse_map(_read(args.f), space), space, base)
    g = _as_automap(io.parse_map(_read(args.g), space), space, base)
    hat = dist_hat(f, g)
    lines = [f"lip {hat.stretch}",
             f"dS {hat.series}",
             f"zero {str(hat.is_zero()).lower()}",
             f"display {hat.display():.6f}"]
    for n in range(1, args.depth + 1):
        lines.append(f"d{n} {dist_n(f, g, n)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_fuzz(args) -> int:
    campaign = gen.CAMPAIGNS.get(args.suite)
    if campaign is None:
        raise PreconditionError(
            f"unknown suite {args.suite!r}; choose from "
            + ", ".join(sorted(gen.CAMPAIGNS)))
    if args.count < 0:
        raise PreconditionError("count must be nonnegative")
    lines = campaign(args.seed, args.count)
    ok = not any("ok=false" in line for line in lines)
    lines.append("all passed" if ok else "FAILURE")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urylab",
        description="exact-rational finite metric spaces: amalgamation, "
                    "compliant bilipschitz extension, moduli of continuity, "
                    "group semimetrics")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="also write the report to this path")

    def add_ball(p):
        for name in ("--center", "--radius", "--K", "--N"):
            p.add_argument(name, required=True)

    p = sub.add_parser("validate", help="check the metric axioms of a space")
    p.add_argument("space")
    add_out(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("amalgamate", help="merge two spaces over shared labels")
    p.add_argument("space0")
    p.add_argument("space1")
    p.add_argument("--policy", default="minimal",
                   choices=("minimal", "midpoint", "maximal"))
    add_out(p)
    p.set_defaults(func=cmd_amalgamate)

    p = sub.add_parser("extend-bilip",
                       help="back-and-forth compliant extension; emits a trace")
    p.add_argument("space")
    p.add_argument("map")
    add_ball(p)
    p.add_argument("--policy", default="midpoint",
                   choices=("midpoint", "minimal", "maximal"))
    p.add_argument("--target", action="append", default=[], required=True)
    add_out(p)
    p.set_defaults(func=cmd_extend_bilip)

    p = sub.add_parser("verify-trace",
                       help="independently re-check an extension trace")
    p.add_argument("trace")
    p.add_argument("space")
    p.add_argument("map")
    add_ball(p)
    p.add_argument("--target", action="append", default=[])
    add_out(p)
    p.set_defaults(func=cmd_verify_trace)

    p = sub.add_parser("extend-mc",
                       help="one-point extension under a modulus pair")
    p.add_argument("space_x")
    p.add_argument("space_y")
    p.add_argument("map")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--bound", help="enlarge the box used for the moduli "
                                   "condition check")
    add_out(p)
    p.set_defaults(func=cmd_extend_mc)

    p = sub.add_parser("counterexample",
                       help="obstruction instance for an incompatible pair")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    add_out(p)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("witness",
                       help="map separating a modulus from a generating set")
    p.add_argument("--gamma", required=True)
    p.add_argument("--delta", action="append", required=True,
                   help="generator modulus file (repeatable)")
    p.add_argument("--depth", type=int, default=3)
    add_out(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("group-dist",
                       help="exact semimetrics between two automorphisms")
    p.add_argument("space")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--basepoint")
    p.add_argument("--depth", type=int, default=3,
                   help="how many ball distances to list (at most 2^16)")
    add_out(p)
    p.set_defaults(func=cmd_group_dist)

    p = sub.add_parser("fuzz", help="seeded deterministic property campaign")
    p.add_argument("--suite", required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    add_out(p)
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, StructuralError) as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 3
    except (PreconditionError, InfeasibleError, ValueError) as exc:
        # A result past the int -> str digit limit cannot be reported.
        if (isinstance(exc, ValueError)
                and "integer string conversion" not in str(exc)):
            raise
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
