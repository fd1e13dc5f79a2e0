"""urylab benchmark: closed-loop, single-caller runs of one workload.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Set-up builds a pool of op inputs from the
seed with ``urylab.gen``; the timed loop then runs pool items in order, one
op at a time, until the ops' scaled latencies add up to ``--seconds``.
Outputs are checked afterwards, outside the timed region.  With ``--trace 0`` the run prints the end-to-end metrics
and installs no wrapper; with ``--trace 1`` it prints the per-layer metrics.
The last line of standard output is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from collections import defaultdict, namedtuple
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
REF_NOMINAL_S = 0.002
TAIL_BEYOND = 10

# One op of a timed loop; lat and raw are its scaled and wall seconds.
Op = namedtuple("Op", "item lat out err raw")

PER_LAYER = [
    "core.validate_space.self_s", "core.validate_space.triples",
    "core.with_point.calls", "core.with_point.self_s",
    "core.lip_details.self_s", "core.lip_details.pairs",
    "core.goodness_check.self_s", "core.common_den_bits_max",
    "amalgam.katetov_extend.self_s", "amalgam.katetov_violations.self_s",
    "amalgam.katetov_violations.pairs", "amalgam.realize_point.self_s",
    "amalgam.amalgamate.self_s",
    "bilip.extend_dense.self_s", "bilip.extend_one_point.self_s",
    "bilip.extend_one_point.calls", "bilip._solve_new_distances.self_s",
    "bilip.constraints", "bilip.is_compliant.self_s",
    "bilip.is_compliant.calls",
    *(f"bilip.lo_family.IE{k}" for k in range(1, 6)),
    *(f"bilip.hi_family.IE{k}" for k in range(1, 8)),
    "moduli.compatible.self_s", "moduli.compatible.calls",
    "moduli.star_condition.self_s", "moduli.PLFunction.value.calls",
    "moduli.PLFunction.inverse.calls",
    "mc_extend.extend_one_point_mc.self_s",
    "mc_extend.bicontinuity_violations.self_s",
    "mc_extend.bicontinuity_violations.pairs",
    "groupmetric.dist_L.self_s", "groupmetric.dist_S.self_s",
    "groupmetric.dist_n.calls",
    "io.format_trace.self_s", "io.parse_trace.self_s",
    "cli.verify_trace_lines.self_s",
    "trace.overhead_frac", "den_bits_max",
]
# counts read from a span: metric suffix -> index in Tracer.stats
SPAN_COUNTS = {"calls": 0, "pairs": 3, "triples": 3}


def load_program():
    """Import urylab from this checkout's src/, or stop with exit code 2."""
    if not (SRC / "urylab" / "__init__.py").is_file():
        print(f"benchmark: no program at {SRC / 'urylab'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import urylab
    if Path(urylab.__file__).resolve().parent != (SRC / "urylab").resolve():
        print(f"benchmark: imported urylab from {urylab.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)


def reference_seconds() -> float:
    """Time one fixed exact-arithmetic kernel: a probe of machine speed.

    The kernel uses only the stdlib, so program changes cannot move it.
    """
    t0 = time.perf_counter()
    for _ in range(6):
        acc = Fraction(0)
        for d in range(1, 61):
            acc += Fraction(d % 7 + 1, d)
            if d % 3 == 0:
                acc *= Fraction(d + 1, d + 2)
    return time.perf_counter() - t0


class Clock:
    """Times calls in nominal seconds (README.md, "Scaled time").

    The reference kernel runs after every timed call, so each call sits
    between two kernel samples; its wall time is scaled by REF_NOMINAL_S
    over their mean.
    """

    def __init__(self):
        self.ref = reference_seconds()

    def time(self, fn, *args):
        """(result, scaled seconds, raw seconds) of one call."""
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        ref = reference_seconds()
        scaled = raw * 2 * REF_NOMINAL_S / (self.ref + ref)
        self.ref = ref
        return result, scaled, raw


def build_pool(wl, seed: int, clock):
    """The seed's pool and its scaled set-up time, each item timed alone."""
    steps, items, spent = wl.setup(seed), [], 0.0
    while True:
        item, scaled, _ = clock.time(next, steps, None)
        if item is None:
            return items, spent
        items.append(item)
        spent += scaled


def run_op(wl, item, clock):
    """One op, timed stage by stage: (output, scaled s, raw s).

    An op is a generator that yields None at each stage boundary and its
    output last, so long ops get a kernel sample between stages.
    """
    stages, scaled, raw = wl.run(item), 0.0, 0.0
    while True:
        out, s, r = clock.time(next, stages)
        scaled, raw = scaled + s, raw + r
        if out is not None:
            return out, scaled, raw


def closed_loop(wl, items, seconds: float, clock, min_ops: int = 0):
    """Run items in order, cycling, one op at a time.

    Stops once the ops' scaled latencies add up to ``seconds`` and at least
    ``min_ops`` ops are done, so the number of ops does not depend on how
    fast the machine happens to be.  Returns the list of Op records and the
    elapsed wall time.  An op that raises is recorded as failed and the loop
    goes on.
    """
    ops = []
    start = time.perf_counter()
    busy = 0.0
    while True:
        k = len(ops) % len(items)
        t0 = time.perf_counter()
        try:
            out, lat, raw = run_op(wl, items[k], clock)
            ops.append(Op(k, lat, wl.keep(out), None, raw))
        except Exception as exc:  # a failed op is counted, not fatal
            raw = time.perf_counter() - t0
            ops.append(Op(k, raw, None, f"{type(exc).__name__}: {exc}", raw))
        busy += ops[-1].lat
        if busy >= seconds and len(ops) >= min_ops:
            return ops, time.perf_counter() - start


def verify(wl, items, ops, clock):
    """Check outputs outside the timed region.

    Every pool item gets an output: items the timed loop never reached are
    run here, untimed.  Each item's first output is checked by the
    workload's independent route; a later output of the same item must
    render identically.  Returns (first outputs, renders, failed ops,
    attempted ops, problem messages).
    """
    problems = []
    first, renders = {}, {}
    failed = 0
    bad_items = set()
    extra = [Op(k, None, None, None, None) for k in range(len(items))
             if k not in {op.item for op in ops}]
    for k, _, out, err, _ in ops + extra:
        if err is None and out is None:
            try:
                out = wl.keep(run_op(wl, items[k], clock)[0])
            except Exception as exc:  # reported as a failed op
                err = f"{type(exc).__name__}: {exc}"
        if err is not None:
            failed += 1
            problems.append(f"item {k}: {err}")
            bad_items.add(k)
            continue
        text = wl.render(items[k], out)
        if k not in first:
            first[k], renders[k] = out, text
            bad = wl.check(items[k], out)
            if bad:
                bad_items.add(k)
                problems.extend(f"item {k}: {msg}" for msg in bad[:3])
        elif text != renders[k]:
            bad_items.add(k)
            problems.append(f"item {k}: output differs between runs")
        failed += k in bad_items
    return first, renders, failed, len(ops) + len(extra), problems


def digest(renders) -> str:
    h = hashlib.sha256()
    for k in sorted(renders):
        h.update(renders[k].encode())
        h.update(b"\0")
    return h.hexdigest()


def end_to_end(wl, seed: int, seconds: float):
    clock = Clock()
    setup_times, items = [], None
    same_inputs = True
    for _ in range(SETUP_REPEATS):
        fresh, scaled = build_pool(wl, seed, clock)
        setup_times.append(scaled)
        same_inputs &= items is None or fresh == items
        items = fresh
    ops, elapsed = closed_loop(wl, items, seconds, clock)
    lat_ms = sorted(op.lat * 1000 for op in ops)
    first, renders, failed, attempted, problems = verify(wl, items, ops,
                                                         clock)
    if not same_inputs:
        problems.append("set-up is not deterministic for this seed")
    n = len(lat_ms)
    tail = lat_ms[-TAIL_BEYOND - 1] if n > TAIL_BEYOND else lat_ms[-1]
    tail_pct = 100 * (n - TAIL_BEYOND) / n if n > TAIL_BEYOND else 100.0
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(ops) / sum(op.lat for op in ops), "1/s"),
        "op_ms_p50": (statistics.median(lat_ms), "ms"),
        "op_ms_tail": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    # Printed with the others but left out of the JSON line: the first is
    # 0 on a correct run, the second is fixed by the seed (see README.md).
    unbounded = {
        "failed_ops_frac": (failed / attempted, "ratio"),
        "den_bits_max": (den_bits_max(wl, first), "bits"),
    }
    notes = [
        f"op_ms_tail is p{tail_pct:.1f} of {n} timed ops "
        f"({min(n - 1, TAIL_BEYOND)} slower)",
        f"setup_s is the median of {SETUP_REPEATS} set-ups: "
        + " ".join(f"{t:.4f}" for t in setup_times),
        f"pool {len(items)} items, digest sha256:{digest(renders)}",
        f"raw wall time: {len(ops) / elapsed:.4g} ops/s over {elapsed:.1f} s"
        f" ({len(ops) / sum(op.raw for op in ops):.4g} ops/s of op time);"
        " machine speed factor (raw over scaled time) "
        f"{sum(op.raw for op in ops) / sum(op.lat for op in ops):.3f}",
    ]
    return metrics, unbounded, notes, failed, attempted, problems


def den_bits_max(wl, first) -> int:
    """Largest denominator bit length in any output of the pool."""
    return max((v.denominator.bit_length()
                for out in first.values() for v in wl.fractions(out)),
               default=0)


def per_layer(wl, seed: int, seconds: float):
    from tracer import Tracer
    from workloads import common_den_bits, family_counts

    clock = Clock()
    items = list(wl.setup(seed))
    plain, _ = closed_loop(wl, items, seconds / 2, clock)
    tracer = Tracer()
    tracer.install()
    try:
        one_pass, _ = closed_loop(wl, items, 0, clock, len(items))
        at_pass = tracer.snapshot()
        left = seconds / 2 - sum(op.lat for op in one_pass)
        more = closed_loop(wl, items, left, clock)[0] if left > 0 else []
    finally:
        tracer.uninstall()
    traced = one_pass + more
    first, renders, failed, attempted, problems = verify(
        wl, items, plain + traced, clock)

    def mean_latency(ops):
        by_item = defaultdict(list)
        for op in ops:
            by_item[op.item].append(op.lat)
        return {k: statistics.fmean(v) for k, v in by_item.items()}

    before, after = mean_latency(plain), mean_latency(traced)
    shared = before.keys() & after.keys()
    counts = family_counts(first[k] for k in sorted(first))
    speed = sum(op.lat for op in traced) / sum(op.raw for op in traced)
    metrics = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "self_s":
            st = tracer.stats[span]
            metrics[name] = ((st[1] - st[2]) * speed / len(traced), "s")
        elif field in SPAN_COUNTS and span in tracer.stats:
            metrics[name] = (at_pass[span][SPAN_COUNTS[field]], "count")
        elif name == "den_bits_max":
            metrics[name] = (den_bits_max(wl, first), "bits")
        elif name == "core.common_den_bits_max":
            metrics[name] = (max((common_den_bits(s) for out in first.values()
                                  for s in wl.spaces(out)), default=0),
                             "bits")
        elif name == "trace.overhead_frac":
            metrics[name] = (sum(after[k] for k in shared)
                             / sum(before[k] for k in shared) - 1, "ratio")
        else:
            metrics[name] = (counts[name], "count")
    notes = [
        "self_s is scaled seconds per traced op over "
        f"{len(traced)} ops; counts cover one pass of {len(items)} items",
        "absent spans: " + (" ".join(tracer.absent) or "none"),
        f"digest sha256:{digest(renders)}",
    ]
    return metrics, {}, notes, failed, attempted, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    measure = per_layer if args.trace else end_to_end
    metrics, unbounded, notes, failed, attempted, problems = measure(
        wl, args.seed, args.seconds)
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    for name, (value, unit) in {**metrics, **unbounded}.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    for line in notes + problems[:20]:
        print("  " + line)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
