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
from .amalgam import POLICIES, amalgamate
from .bilip import (Ball, extend_dense, is_compliant, kn_admissible,
                    verify_trace_lines)
from .core import FiniteMetricSpace, PartialMap, validate_space
from .errors import (InfeasibleError, ParseError, PreconditionError,
                     StructuralError, UnreportableError, as_text)
from .groupmetric import RADIUS_BOUND, AutoMap, dist_hat, dist_n
from .mc_extend import (extend_one_point_mc, necessity_counterexample,
                        separation_witness)
from .moduli import MCSemigroup


def _read(path: str) -> str:
    """The file's text, decoded as strict UTF-8."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} is not valid UTF-8 "
                         f"({exc.reason})") from None


def _emit(report: str, out: Optional[str]) -> None:
    if out:
        try:
            Path(out).write_text(report, encoding="utf-8")
        except OSError as exc:
            raise ParseError(f"cannot write {out}: {exc}") from None
    sys.stdout.write(report)


def _load_space(path: str) -> FiniteMetricSpace:
    return io.parse_space(_read(path))


def _violation_lines(space: FiniteMetricSpace) -> list[str]:
    """One ``violation <kind> <labels> : <detail>`` line per violation."""
    return [f"violation {v.kind} "
            f"{' '.join(space.labels[i] for i in v.points)} : {v.detail}"
            for v in validate_space(space).violations]


def _load_metric_space(path: str) -> FiniteMetricSpace:
    """The parsed space, or exit 2 when it is not a metric space.

    Every command but ``validate`` assumes its space files are metric, so
    each reads them here; a refusal names the first line ``validate``
    would print for the file.
    """
    space = _load_space(path)
    bad = _violation_lines(space)
    if bad:
        raise PreconditionError(f"{path} is not a metric space: {bad[0]}")
    return space


def _load_extension(args):
    """Space, map, ball, (K, N) and targets for extend-bilip, verify-trace."""
    space = _load_metric_space(args.space)
    fmap = io.parse_map(_read(args.map), space)
    ball = Ball(space.index(args.center), io.parse_rational(args.radius))
    kn = kn_admissible(io.parse_rational(args.K), io.parse_rational(args.N))
    targets = [space.index(t) for t in args.target]
    return space, fmap, ball, kn, targets


def cmd_validate(args) -> tuple[str, int]:
    space = _load_space(args.space)
    bad = _violation_lines(space)
    lines = [f"space {space.n} points", *bad,
             f"invalid ({len(bad)} violations)" if bad else "valid"]
    return "\n".join(lines) + "\n", 1 if bad else 0


def cmd_amalgamate(args) -> tuple[str, int]:
    x0 = _load_metric_space(args.space0)
    x1 = _load_metric_space(args.space1)
    merged = amalgamate(x0, x1, policy=args.policy)
    shared = sum(1 for lab in x0.labels if lab in x1.labels)
    with as_text():
        report = (f"# amalgam over {shared} shared points, "
                  f"policy={args.policy}\n" + io.format_space(merged))
    return report, 0


def cmd_extend_bilip(args) -> tuple[str, int]:
    space, fmap, ball, kn, targets = _load_extension(args)
    fmap, space, trace = extend_dense(fmap, ball, kn, targets, space,
                                      policy=args.policy)
    cert = is_compliant(fmap, ball, kn, space)
    with as_text():
        report = (f"# extend-bilip K={kn.K} N={kn.N} center={args.center} "
                  f"r={ball.radius} policy={args.policy}\n"
                  + io.format_trace(trace)
                  + f"# final map: {len(fmap)} pairs, lip={cert.lip_value}, "
                    f"compliant={str(cert.ok).lower()}\n")
    return report, 0 if cert.ok else 1


def cmd_verify_trace(args) -> tuple[str, int]:
    space, fmap, ball, kn, targets = _load_extension(args)
    lines = io.parse_trace(_read(args.trace))
    ok, message = verify_trace_lines(space, fmap, ball, kn, targets, lines)
    return ("ok: " if ok else "FAIL: ") + message + "\n", 0 if ok else 1


def cmd_extend_mc(args) -> tuple[str, int]:
    dom = _load_metric_space(args.space_x)
    rng_space = _load_metric_space(args.space_y)
    fmap = io.parse_map(_read(args.map), dom, rng_space)
    alpha = io.parse_modulus(_read(args.alpha))
    beta = io.parse_modulus(_read(args.beta))
    p = dom.index(args.point)
    bound = io.parse_rational(args.bound) if args.bound is not None else 0
    ext = extend_one_point_mc(fmap, dom, rng_space, alpha, beta, p,
                              bound=bound)
    lines = [f"# extend-mc point={args.point}",
             f"realized {ext.rng_space.labels[ext.q]}"]
    with as_text():
        for y in range(ext.rng_space.n - 1):
            lines.append(f"dist {ext.rng_space.labels[y]} "
                         f"{ext.rng_space.d(ext.q, y)}")
    pairs = len(ext.map) * (len(ext.map) - 1) // 2
    lines.append(f"bicontinuous exact pairs={pairs}")
    return "\n".join(lines) + "\n", 0


def cmd_counterexample(args) -> tuple[str, int]:
    alpha = io.parse_modulus(_read(args.alpha))
    beta = io.parse_modulus(_read(args.beta))
    bundle = necessity_counterexample(alpha, beta,
                                      io.parse_rational(args.s),
                                      io.parse_rational(args.t))
    cert = bundle.certificate
    with as_text():
        report = ("# obstruction instance\n"
                  + io.format_space(bundle.dom_space)
                  + io.format_space(bundle.rng_space)
                  + f"certificate: alpha_inv(s+t)={cert.lhs} > "
                    f"beta(t)+alpha_inv(s)={cert.rhs} -> no image point can "
                    f"satisfy both bounds\n")
    return report, 0


def cmd_witness(args) -> tuple[str, int]:
    gamma = io.parse_modulus(_read(args.gamma))
    gens = tuple(io.parse_modulus(_read(p)) for p in args.delta)
    witness = separation_witness(gamma, MCSemigroup(gens), args.depth)
    cert = witness.certificate
    lines = [f"# separation witness depth={args.depth}"]
    with as_text():
        for c in cert.scale_checks:
            lines.append(f"gen={c.generator} t={c.t} gamma={c.gamma_value} "
                         f"delta={c.generator_value} "
                         f"exceeds={str(c.ok).lower()}")
    lines.append(f"bicontinuity(2*gamma) ok={str(cert.bicontinuity_ok).lower()} "
                 f"pairs={cert.pairs_checked}")
    return "\n".join(lines) + "\n", 0 if cert.ok else 1


def _as_automap(pm: PartialMap, space: FiniteMetricSpace,
                base: int) -> AutoMap:
    if sorted(pm.domain) != list(range(space.n)):
        raise PreconditionError(
            "map file must pair every point of the space exactly once")
    images = [0] * space.n
    for d, im in pm.pairs():
        images[d] = im
    return AutoMap(space, tuple(images), base)


def cmd_group_dist(args) -> tuple[str, int]:
    if args.depth < 0:
        raise PreconditionError("depth must be nonnegative")
    if args.depth > RADIUS_BOUND:
        raise PreconditionError(f"--depth {args.depth} > {RADIUS_BOUND}")
    space = _load_metric_space(args.space)
    base = (space.index(args.basepoint) if args.basepoint is not None
            else 0)
    f = _as_automap(io.parse_map(_read(args.f), space), space, base)
    g = _as_automap(io.parse_map(_read(args.g), space), space, base)
    hat = dist_hat(f, g)
    shown = hat.display()
    balls = [dist_n(f, g, n) for n in range(1, args.depth + 1)]
    with as_text():
        lines = [f"lip {hat.stretch}",
                 f"dS {hat.series}",
                 f"zero {str(hat.is_zero()).lower()}",
                 f"display {shown:.6f}"]
        lines += [f"d{n} {d}" for n, d in enumerate(balls, start=1)]
    return "\n".join(lines) + "\n", 0


def cmd_fuzz(args) -> tuple[str, int]:
    if args.count < 0:
        raise PreconditionError("count must be nonnegative")
    lines, ok = gen.campaign(args.suite, args.seed, args.count)
    lines.append("all passed" if ok else "FAILURE")
    return "\n".join(lines) + "\n", 0 if ok else 1


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
    p.add_argument("--policy", default="minimal", choices=POLICIES)
    add_out(p)
    p.set_defaults(func=cmd_amalgamate)

    p = sub.add_parser("extend-bilip",
                       help="back-and-forth compliant extension; emits a trace")
    p.add_argument("space")
    p.add_argument("map")
    add_ball(p)
    p.add_argument("--policy", default="midpoint", choices=POLICIES)
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
    p.add_argument("--suite", required=True, choices=sorted(gen.CAMPAIGNS))
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    add_out(p)
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.func(args)
        _emit(report, args.out)
        return code
    except (ParseError, StructuralError) as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 3
    except (PreconditionError, InfeasibleError, UnreportableError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
