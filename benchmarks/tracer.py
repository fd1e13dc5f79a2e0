"""Per-layer spans recorded from outside the program.

Each named function is wrapped at every ``urylab`` module attribute bound to
it (``bilip`` imports ``katetov_extend`` by name, ``cli`` imports
``extend_one_point``, and so on), and methods are wrapped on their class.
A wrapper counts calls, inclusive time and the time covered by wrapped calls
made inside it, so a span's self time is its inclusive time minus that of
its child spans.  The aggregates stay in memory until the run prints them.
A name the program no longer defines is reported as absent.
"""

from __future__ import annotations

import importlib
import sys
from math import comb
from time import perf_counter

# span name -> (urylab module, attribute path, work counter or None)
SPANS = {
    "core.validate_space": (
        "core", "validate_space",
        lambda space, *a, **k: space.n * (space.n - 1) * (space.n - 2)),
    "core.with_point": ("core", "FiniteMetricSpace.with_point", None),
    "core.lip_details": (
        "core", "lip_details", lambda f, *a, **k: comb(len(f), 2)),
    "core.goodness_check": ("core", "goodness_check", None),
    "amalgam.katetov_extend": ("amalgam", "katetov_extend", None),
    "amalgam.katetov_violations": (
        "amalgam", "katetov_violations",
        lambda space, values, *a, **k: comb(len(values), 2)),
    "amalgam.realize_point": ("amalgam", "realize_point", None),
    "amalgam.amalgamate": ("amalgam", "amalgamate", None),
    "bilip.extend_dense": ("bilip", "extend_dense", None),
    "bilip.extend_one_point": ("bilip", "extend_one_point", None),
    "bilip._solve_new_distances": ("bilip", "_solve_new_distances", None),
    "bilip.is_compliant": ("bilip", "is_compliant", None),
    "moduli.compatible": ("moduli", "compatible", None),
    "moduli.star_condition": ("moduli", "star_condition", None),
    "moduli.PLFunction.value": ("moduli", "PLFunction.value", None),
    "moduli.PLFunction.inverse": ("moduli", "PLFunction.inverse", None),
    "mc_extend.extend_one_point_mc": (
        "mc_extend", "extend_one_point_mc", None),
    "mc_extend.bicontinuity_violations": (
        "mc_extend", "bicontinuity_violations",
        lambda f, *a, **k: comb(len(f), 2)),
    "groupmetric.dist_L": ("groupmetric", "dist_L", None),
    "groupmetric.dist_S": ("groupmetric", "dist_S", None),
    "groupmetric.dist_n": ("groupmetric", "dist_n", None),
    "io.format_trace": ("io", "format_trace", None),
    "io.parse_trace": ("io", "parse_trace", None),
    "cli.verify_trace_lines": ("cli", "verify_trace_lines", None),
}


def _resolve(module: str, path: str):
    """(owner, attribute, function) for a dotted path, or None if missing."""
    try:
        owner = importlib.import_module(f"urylab.{module}")
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = vars(owner).get(attr)
    return (owner, attr, fn) if callable(fn) else None


class Tracer:
    """Installs span wrappers; ``stats[name]`` is [calls, inclusive_s, child_s, work]."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0, 0] for name in SPANS}
        self.absent = []
        self._stack: list[float] = []
        self._undo = []

    def _wrap(self, fn, st, work):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if work is not None:
                st[3] += work(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                st[0] += 1
                st[1] += dt
                st[2] += stack.pop()
                if stack:
                    stack[-1] += dt

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "urylab" or name.startswith("urylab.")]
        for name, (module, path, work) in SPANS.items():
            found = _resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(fn, self.stats[name], work)
            if isinstance(owner, type):
                sites = [(owner, attr)]
            else:
                sites = [(m, key) for m in modules
                         for key, value in vars(m).items() if value is fn]
            for site, key in sites:
                setattr(site, key, wrapper)
                self._undo.append((site, key, fn))

    def uninstall(self) -> None:
        for site, key, fn in reversed(self._undo):
            setattr(site, key, fn)
        self._undo.clear()

    def snapshot(self) -> dict:
        return {name: list(st) for name, st in self.stats.items()}
