"""Line-oriented text formats: spaces, maps, moduli, traces.

Everything is exact rationals rendered as ``p/q`` (or a bare integer), so
all artifacts are human-diffable and byte-stable.  ``#`` starts a comment.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .bilip import ExtensionTrace, TraceLine
from .core import FiniteMetricSpace, PartialMap
from .errors import ParseError, StructuralError
from .moduli import PLFunction


def parse_rational(token: str) -> Fraction:
    """Read ``[-]p[/q]`` with p, q ASCII digit strings and q > 0."""
    num, slash, den = token.partition("/")
    negative = num.startswith("-")
    p = _natural(num[1:] if negative else num)
    q = _natural(den) if slash else 1
    if p is None or q is None or q == 0:
        shown = repr(token) if len(token) <= 40 else f"{token[:40]!r}..."
        raise ParseError(f"bad rational {shown}: expected [-]p[/q]")
    return Fraction(-p if negative else p, q)


def _natural(token: str) -> Optional[int]:
    """The value of a token of ASCII digits, or None for any other token."""
    if not (token.isascii() and token.isdigit()):
        return None
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        return None


def _rationals(lineno: int, tokens, memo: dict[str, Fraction]
               ) -> list[Fraction]:
    """parse_rational on each token; a bad one's error names its line.

    ``memo`` holds every token read so far in one parse, so a repeated
    token is read once and its Fraction shared.
    """
    out = []
    for t in tokens:
        value = memo.get(t)
        if value is None:
            try:
                value = memo[t] = parse_rational(t)
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        out.append(value)
    return out


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


def parse_space(text: str) -> FiniteMetricSpace:
    """Read the UMS format: ``points n``, ``labels ...``, then n ``row`` lines."""
    n: Optional[int] = None
    labels: Optional[tuple[str, ...]] = None
    rows: list[list[Fraction]] = []
    memo: dict[str, Fraction] = {}
    for lineno, toks in _lines(text):
        key = toks[0]
        if key == "points":
            n = _natural(toks[1]) if len(toks) == 2 else None
            if n is None:
                raise ParseError(f"line {lineno}: expected 'points <n>'")
        elif key == "labels":
            labels = tuple(toks[1:])
        elif key == "row":
            rows.append(_rationals(lineno, toks[1:], memo))
        else:
            raise ParseError(f"line {lineno}: unknown directive {key!r}")
    if n is None or labels is None:
        raise ParseError("missing 'points' or 'labels' line")
    if len(labels) != n or len(rows) != n or any(len(r) != n for r in rows):
        raise ParseError(f"matrix shape does not match points {n}")
    return FiniteMetricSpace.from_rows(labels, rows)


def format_space(space: FiniteMetricSpace) -> str:
    out = [f"points {space.n}", "labels " + " ".join(space.labels)]
    for row in space.dist:
        out.append("row " + " ".join(str(v) for v in row))
    return "\n".join(out) + "\n"


def parse_map(text: str, src: FiniteMetricSpace,
              dst: Optional[FiniteMetricSpace] = None) -> PartialMap:
    """Read ``pair <src-label> <dst-label>`` lines into a PartialMap."""
    dst = dst or src
    domain, images = [], []
    for lineno, toks in _lines(text):
        if toks[0] != "pair" or len(toks) != 3:
            raise ParseError(f"line {lineno}: expected 'pair <src> <dst>'")
        try:
            domain.append(src.index(toks[1]))
            images.append(dst.index(toks[2]))
        except StructuralError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return PartialMap(tuple(domain), tuple(images))


def format_map(f: PartialMap, src: FiniteMetricSpace,
               dst: Optional[FiniteMetricSpace] = None) -> str:
    dst = dst or src
    return "".join(f"pair {src.labels[a]} {dst.labels[b]}\n"
                   for a, b in f.pairs())


def parse_modulus(text: str) -> PLFunction:
    """Read the modulus format: ``mc`` header, ``bp t v`` lines, ``tail slope``."""
    saw_header = False
    points: list[tuple[Fraction, Fraction]] = []
    tail: Optional[Fraction] = None
    memo: dict[str, Fraction] = {}
    for lineno, toks in _lines(text):
        if toks[0] == "mc":
            saw_header = True
        elif toks[0] == "bp":
            if len(toks) != 3:
                raise ParseError(f"line {lineno}: expected 'bp <t> <v>'")
            t, v = _rationals(lineno, toks[1:], memo)
            points.append((t, v))
        elif toks[0] == "tail":
            if len(toks) != 2:
                raise ParseError(f"line {lineno}: expected 'tail <slope>'")
            tail, = _rationals(lineno, toks[1:], memo)
        else:
            raise ParseError(f"line {lineno}: unknown directive {toks[0]!r}")
    if not saw_header:
        raise ParseError("missing 'mc' header")
    if not points or tail is None:
        raise ParseError("need at least one 'bp' line and a 'tail' line")
    try:
        return PLFunction(tuple(points), tail)
    except StructuralError as exc:
        raise ParseError(str(exc)) from None


def format_modulus(m: PLFunction) -> str:
    out = ["mc"]
    for t, v in m.breakpoints:
        out.append(f"bp {t} {v}")
    out.append(f"tail {m.final_slope}")
    return "\n".join(out) + "\n"


def format_trace(trace: ExtensionTrace) -> str:
    """One line per solved distance; m restarts at 1 for each added point."""
    out = []
    for step in trace.steps:
        if step.noop:
            out.append(f"# noop {step.target_label} side={step.tag}")
        out.extend(map(str, step.lines()))
    return "\n".join(out) + ("\n" if out else "")


def parse_trace(text: str) -> list[TraceLine]:
    """Match each step line, fields split on whitespace, to TraceLine.PATTERN.

    Each distinct rational token, and each point label, is read once per
    call, and every line that repeats it shares the one object.
    """
    lines: list[TraceLine] = []
    memo: dict[str, Fraction] = {}
    labels: dict[str, str] = {}
    for lineno, toks in _lines(text):
        match = TraceLine.PATTERN.fullmatch(" ".join(toks))
        m = _natural(match[1]) if match else None
        if m is None:
            raise ParseError(
                f"line {lineno}: expected 'step <m> side=<d|r> "
                f"interval=[<lo>,<hi>] e=<e> s=<s> point=<label>'")
        lo, hi, e, s = _rationals(lineno, match.group(3, 4, 5, 6), memo)
        point = labels.setdefault(match[7], match[7])
        lines.append(TraceLine(m, match[2], lo, hi, e, s, point))
    return lines
