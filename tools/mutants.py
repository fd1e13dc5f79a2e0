"""Boundary-mutant survey: every listed mutant must be killed by the suite.

Each mutant is one exact text replacement in one module of ``src/urylab``,
most of them loosening an exact check by a thousandth.  It is applied to a
temporary copy of the tree, where the test suite runs with criterion 03
deselected: that test only certifies valid runs, so it cannot reject a
check that accepts too much, and it is most of the suite's time.  A mutant
is killed when a test fails; the run stops at the first failure.  The
unmutated copy must pass first.

    python tools/mutants.py            # exit 1 if a mutant survives

Only the stdlib is used, plus pytest and hypothesis for the suite itself.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CRITERION_03 = "tests/test_acceptance.py::test_criterion_03_compliance_preservation"

# name -> (module under src/urylab, exact text, replacement)
MUTANTS = {
    # exact checks of the extension, certification and moduli layers
    "stretch_K": (
        "bilip.py", "if en * dd * Kd > Kn * dn * ed or",
        "if en * dd * Kd * 1000 > Kn * dn * ed * 1001 or"),
    "new_pair_goodness": (
        "bilip.py", "if N * s > r - d1 or N * s > r - e[0]:",
        "if N * s > r - d1 + r / 1000 or N * s > r - e[0] + r / 1000:"),
    "x_row_katetov": (
        "bilip.py", "if abs(u - v) * md > scaled or",
        "if abs(u - v) * md * 1000 > scaled * 1001 or"),
    "ball_edge": (
        "bilip.py", "if not e[0] < r:", "if not e[0] < r - r / 1000:"),
    "IE4_upper_cap": (
        "bilip.py", 'bounds.append(("IE4", sv[m] - cap_d, sv[m] + cap_d))',
        'bounds.append(("IE4", sv[m] - cap_d, sv[m] + cap_d * 1001 / 1000))'),
    "lip_value_K": (
        "bilip.py", "lip_ok = lip_value <= kn.K",
        "lip_ok = lip_value <= kn.K * 1001 / 1000"),
    "goodness_fwd": (
        "core.py", "(fwd is None or fwd >= 0)",
        "(fwd is None or fwd >= -ball.radius / 1000)"),
    "goodness_bwd": (
        "core.py", "(bwd is None or bwd >= 0)",
        "(bwd is None or bwd >= -ball.radius / 1000)"),
    "lip_one_way": (
        "core.py", "ratio = max(ee / dd, dd / ee)", "ratio = ee / dd"),
    "far_corner": (
        "moduli.py",
        "if ainv.value(bound) + beta.value(bound) >= ainv.value(2 * bound):",
        "if ainv.value(bound) + beta.value(bound) >= "
        "ainv.value(2 * bound) - bound / 1000:"),
    "tail_slope": (
        "moduli.py", "if beta.final_slope >= lam:",
        "if beta.final_slope * 1001 / 1000 >= lam:"),
    "beta_bound": (
        "mc_extend.py", "if ee > top:", "if ee > top + dd / 1000:"),
    # the one-point kernel and the integer pair inequalities
    "min_sum_flipped": (
        "core.py", "if not bd or n * bd < bn * d:",
        "if not bd or n * bd > bn * d:"),
    "min_sum_cross": (
        "core.py", "n, d = xn * yd + yn * xd, xd * yd",
        "n, d = xn * yd + yn * yd, xd * yd"),
    "max_gap_no_abs": (
        "core.py", "n, d = abs(xn * yd - yn * xd), xd * yd",
        "n, d = xn * yd - yn * xd, xd * yd"),
    "max_gap_cross": (
        "core.py", "n, d = abs(xn * yd - yn * xd), xd * yd",
        "n, d = abs(xn * yd - yn * yd), xd * yd"),
    "max_gap_flipped": (
        "core.py", "if not bd or n * bd > bn * d:",
        "if not bd or n * bd < bn * d:"),
    "violations_no_abs": (
        "amalgam.py", "if abs(u - v) * dd > scaled:",
        "if (u - v) * dd > scaled:"),
    "violations_cross": (
        "amalgam.py", "u, v, scaled = an * bd, bn * ad, dn * ad * bd",
        "u, v, scaled = an * bd, bn * bd, dn * ad * bd"),
    "violations_difference": (
        "amalgam.py", "if abs(u - v) * dd > scaled:",
        "if abs(u - v) * dd >= scaled:"),
    "violations_sum": (
        "amalgam.py", "if scaled > (u + v) * dd:",
        "if scaled >= (u + v) * dd:"),
    # drawing a point in a ball, and appending its row
    "center_test": (
        "gen.py", "if to_center < r:", "if to_center <= r:"),
    "with_point_sign": (
        "core.py", "if any(v.numerator <= 0 for v in row):",
        "if any(v.numerator < 0 for v in row):"),
    "no_try_check": (
        "gen.py", "vals = checked_prescription(space, {a: rho_a, b: rho_b})",
        "vals = {a: rho_a, b: rho_b}"),
    # the new row's integer pair tests, and random_space's closure
    "x_row_no_abs": (
        "bilip.py", "if abs(u - v) * md > scaled or",
        "if (u - v) * md > scaled or"),
    "stretch_cross": (
        "bilip.py", "Kn * dn * ed or", "Kn * dn * dd or"),
    "closure_pivots": (
        "gen.py", "for k in range(n):", "for k in range(n - 1):"),
    # the fuzz campaigns' stop rule
    "campaign_stop": (
        "gen.py", "if not ok:", "if ok:"),
    # value, the one evaluation path of a PL function
    "value_search_cross": (
        "moduli.py", "if tn * kd < kn * td:", "if tn * kd < kn * kd:"),
    "value_line_cross": (
        "moduli.py", "Fraction(a * tn + b * td, c * td)",
        "Fraction(a * tn + b * tn, c * td)"),
    # the integer line table, and random_modulus's argument guard
    "lines_intercept": (
        "moduli.py", "vn * q * td - p * tn * vd", "vn * q * td + p * tn * vd"),
    "lines_cross": (
        "moduli.py", "vn * q * td - p * tn * vd", "vn * q * vd - p * tn * vd"),
    "modulus_guard": (
        "gen.py", "if pieces < 1:", "if pieces < 0:"),
    # the fixed draw grids of random_space's weights and random_modulus's
    # slopes and widths, each at its top end
    "space_weight_top": (
        "gen.py", "rng.randint(4, 4 * den)", "rng.randint(4, 4 * den - 1)"),
    "modulus_slope_top": (
        "gen.py", "rng.randrange(1, 33)", "rng.randrange(1, 32)"),
    "modulus_width_top": (
        "gen.py", "rng.randrange(1, 17)", "rng.randrange(1, 16)"),
    # the draw's integer grid ends, and the kernel's split anchors
    "draw_low_floor": (
        "gen.py", "b_lo, b_hi = _grid_ends((ln, q), (hn, q), 16)",
        "b_lo, b_hi = ln * 16 // q, _grid_ends((ln, q), (hn, q), 16)[1]"),
    "draw_zero_kept": (
        "gen.py", "if bn <= 0:", "if bn < 0:"),
    "anchor_split_cross": (
        "core.py", "n, d = xn * yd + yn * xd, xd * yd",
        "n, d = xn * xd + yn * xd, xd * yd"),
    # amalgamate's anchors, extended as it places values, and its witnesses
    "anchor_append_stale": (
        "amalgam.py",
        "anchors.append((work.dist[w], value.as_integer_ratio()))",
        "anchors.append((work.dist[w], lo.as_integer_ratio()))"),
    "witness_end_swapped": (
        "amalgam.py", "if max_gap([a], (w,)) == [lo])",
        "if min_sum([a], (w,)) == [lo])"),
    # each modulus argument's own check, which names it in the failure text
    "certify_alpha_unchecked": (
        "mc_extend.py",
        'require_modulus(alpha, "alpha")\n    require_modulus(beta, "beta")\n'
        "    if p in f.domain:",
        'require_modulus(beta, "beta")\n    if p in f.domain:'),
    "certify_beta_unchecked": (
        "mc_extend.py", 'require_modulus(beta, "beta")\n    if p in f.domain:',
        "if p in f.domain:"),
    "counterexample_beta_unchecked": (
        "mc_extend.py",
        'require_modulus(beta, "beta")\n    s, t = rat(s), rat(t)',
        "s, t = rat(s), rat(t)"),
    "witness_gamma_unchecked": (
        "mc_extend.py",
        'require_modulus(gamma, "gamma")\n    bad = delta.validate()',
        "bad = delta.validate()"),
    # each command's check that its space files are metric spaces
    "amalgamate_input_unchecked": (
        "cli.py",
        "x0 = _load_metric_space(args.space0)\n"
        "    x1 = _load_metric_space(args.space1)",
        "x0 = _load_space(args.space0)\n    x1 = _load_space(args.space1)"),
    "extension_space_unchecked": (
        "cli.py",
        "space = _load_metric_space(args.space)\n    fmap = io.parse_map(",
        "space = _load_space(args.space)\n    fmap = io.parse_map("),
    "mc_domain_unchecked": (
        "cli.py", "dom = _load_metric_space(args.space_x)",
        "dom = _load_space(args.space_x)"),
    "mc_range_unchecked": (
        "cli.py", "rng_space = _load_metric_space(args.space_y)",
        "rng_space = _load_space(args.space_y)"),
    "group_space_unchecked": (
        "cli.py", "space = _load_metric_space(args.space)\n    base = (",
        "space = _load_space(args.space)\n    base = ("),
    # PLFunction's slope pairs, formed in _slope_pairs and compared in
    # _faults: the one copy that construction, the report and the line
    # table read
    "knot_order_strict": (
        "moduli.py", "if q <= 0:", "if q < 0:"),
    "concavity_tie": (
        "moduli.py", "if k and p1 * q0 > p0 * q1:",
        "if k and p1 * q0 >= p0 * q1:"),
    "slope_pair_factor": (
        "moduli.py", "(vn1 * vd0 - vn0 * vd1) * td0 * td1",
        "(vn1 * vd0 - vn0 * vd1) * td0 * td0"),
    # the validity construction decides: the origin test dropped, and the
    # tail pair skipped (test_construction_decides_validity_at_the_origin_
    # and_the_tail owns both)
    "validity_origin_dropped": (
        "moduli.py", "pts[0][0] or pts[0][2] or nonpositive or rising",
        "nonpositive or rising"),
    "validity_tail_skipped": (
        "moduli.py", "for k, (p1, q1) in enumerate(pairs):",
        "for k, (p1, q1) in enumerate(pairs[:-1]):"),
    # the separation witness's star space, written in closed form
    "witness_radii_swapped": (
        "mc_extend.py", "for r in (t, gamma.value(t))]",
        "for r in (gamma.value(t), t)]"),
    # the holder a run's records share: each step given its own holder
    # (test_a_held_trace_pins_no_workspace_but_the_last owns it), and the
    # holder left at the run's first workspace
    # (test_records_rederive_the_same_bounds_as_the_run_grows owns it)
    "holder_per_step": (
        "bilip.py", "latest)\n            latest[0] = space",
        "[space])\n            latest[0] = space"),
    "holder_not_advanced": (
        "bilip.py", "            latest[0] = space\n", ""),
}


def run_suite(tree: Path) -> tuple[bool, str]:
    """(passed, the first failing test's summary line or '')."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rf",
         "-p", "no:cacheprovider", "--deselect", CRITERION_03],
        cwd=tree, env=env, capture_output=True, text=True)
    failed = [line for line in proc.stdout.splitlines()
              if line.startswith(("FAILED", "ERROR"))]
    if proc.returncode not in (0, 1):
        failed.append(f"pytest exit code {proc.returncode}")
    return proc.returncode == 0, failed[0] if failed else ""


def mutate(tree: Path, module: str, old: str, new: str) -> None:
    path = tree / "src" / "urylab" / module
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{module}: {old!r} occurs {text.count(old)} times")
    path.write_text(text.replace(old, new))


def main() -> int:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                    ".pytest_cache")
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        shutil.copytree(ROOT, clean, ignore=ignore)
        passed, first = run_suite(clean)
        if not passed:
            print(f"the unmutated tree fails: {first}")
            return 1
        survivors = []
        for name, mutant in MUTANTS.items():
            tree = Path(tmp) / name
            shutil.copytree(clean, tree, ignore=ignore)
            mutate(tree, *mutant)
            passed, first = run_suite(tree)
            print(f"{name}: {'SURVIVED' if passed else 'killed'} {first}",
                  flush=True)
            if passed:
                survivors.append(name)
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
