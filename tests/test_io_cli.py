"""Text formats, round trips, CLI exit codes, and trace verification."""

import contextlib
import gc
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from urylab import bilip, cli, gen, io
from urylab.amalgam import POLICIES
from urylab.bilip import Ball, extend_dense, kn_admissible
from urylab.cli import main, verify_trace_lines
from urylab.core import FiniteMetricSpace, PartialMap
from urylab.errors import ParseError, UnreportableError
from urylab.gen import random_compliant_instance, random_point_in_ball, \
    random_space
from urylab.moduli import PLFunction

VIOLATION_UMS = """\
points 3
labels a b c
row 0 1 3
row 1 0 1
row 3 1 0
"""

WORKED_UMS = """\
# center and one point at distance 1
points 2
labels x1 x
row 0 1
row 1 0
"""

WORKED_MAP = "pair x1 x1\n"


def test_space_round_trip():
    space = random_space(random.Random(3), 5)
    assert io.parse_space(io.format_space(space)) == space


def test_space_parse_errors():
    with pytest.raises(ParseError):
        io.parse_space("points 2\nlabels a b\nrow 0 1\n")
    with pytest.raises(ParseError):
        io.parse_space("labels a\nrow 0\n")
    with pytest.raises(ParseError):
        io.parse_space("points 1\nlabels a\nrow x\n")


def test_map_round_trip():
    space = random_space(random.Random(4), 5)
    f = PartialMap((0, 2), (3, 4))
    assert io.parse_map(io.format_map(f, space), space) == f


def test_modulus_round_trip():
    m = PLFunction.from_points([(0, 0), (1, 1), (3, 2)], F(1, 3))
    assert io.parse_modulus(io.format_modulus(m)) == m


@pytest.mark.parametrize("token, value", [
    ("0", F(0)), ("-0", F(0)), ("7", F(7)), ("-3/4", F(-3, 4)),
    ("2/4", F(1, 2)), ("007/0014", F(1, 2)),
])
def test_parse_rational_grammar(token, value):
    assert io.parse_rational(token) == value


@pytest.mark.parametrize("token", [
    "1e3", "1.5", "1_0", "+1", " 1", "1 2", "\u0661", "\u00b2", "1/0", "",
    "-", "1/", "/2", "1/-2", "--1", "1/2/3", "1e200000",
])
def test_parse_rational_rejects_other_tokens(token):
    with pytest.raises(ParseError):
        io.parse_rational(token)


def test_parse_rational_rejects_digits_int_cannot_convert():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int() digit limit is disabled")
    with pytest.raises(ParseError):
        io.parse_rational("1/" + "9" * (limit + 1))


def test_parse_trace_rejects_a_step_index_int_cannot_convert():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int() digit limit is disabled")
    line = f"step {'9' * (limit + 1)} side=d interval=[0,1] e=1 s=1 point=q"
    with pytest.raises(ParseError, match=r"^line 1: expected 'step <m> "):
        io.parse_trace(line)


def test_parse_rational_quotes_at_most_40_characters():
    with pytest.raises(ParseError, match=r"^bad rational '1e3': expected"):
        io.parse_rational("1e3")
    token = "1" * 39 + "x"
    with pytest.raises(ParseError) as short:
        io.parse_rational(token)
    assert str(short.value) == f"bad rational '{token}': expected [-]p[/q]"
    with pytest.raises(ParseError) as long:
        io.parse_rational(token + "2")
    assert str(long.value) == f"bad rational '{token}'...: expected [-]p[/q]"
    with pytest.raises(ParseError) as huge:
        io.parse_rational("9" * 100_000)
    assert len(str(huge.value)) < 100


def test_cli_huge_radius_token_is_short_parse_error(tmp_path, capsys):
    space = tmp_path / "s.ums"
    space.write_text(WORKED_UMS)
    fmap = tmp_path / "f.map"
    fmap.write_text(WORKED_MAP)
    rc = main([str(a) for a in (
        "extend-bilip", space, fmap, "--center", "x1", "--radius",
        "9" * 100_000, "--K", "2", "--N", "4", "--target", "x")])
    err = capsys.readouterr().err
    assert rc == 3 and err.startswith("parse error:")
    assert len(err) < 200


def _seeded_trace(seed, count, policy="midpoint"):
    """The trace text and step lines of one extend_dense run: a criterion-03
    instance with ``count`` targets drawn in its ball."""
    rng = random.Random(seed)
    space, f, ball, kn = random_compliant_instance(rng, grow=0)
    targets = []
    for _ in range(count):
        space, x = random_point_in_ball(rng, space, ball)
        targets.append(x)
    _, _, trace = extend_dense(f, ball, kn, targets, space, policy)
    return (io.format_trace(trace),
            [ln for step in trace.steps for ln in step.lines()])


def _trace_line_reference(line):
    """A step line read field by field, each rational by Fraction(str)."""
    m, side, interval, e, s, point = line.split()[1:]
    lo, hi = interval[len("interval=["):-1].split(",")
    return io.TraceLine(int(m), side[len("side="):], F(lo), F(hi),
                        F(e[len("e="):]), F(s[len("s="):]),
                        point[len("point="):])


@pytest.mark.parametrize("policy", POLICIES)
def test_parse_trace_reads_each_token_and_label_once(policy):
    for seed in range(3):
        text, steps = _seeded_trace(seed, 3, policy)
        lines = io.parse_trace(text)
        assert lines == steps == [_trace_line_reference(ln) for ln in
                                  text.splitlines() if ln.startswith("step")]
        values = [x for ln in lines for x in (ln.lo, ln.hi, ln.e, ln.s)]
        assert len({id(x) for x in values}) == len({str(x) for x in values})
        assert (len({id(ln.point) for ln in lines})
                == len({ln.point for ln in lines}))


def test_parse_trace_names_the_line_of_each_bad_token():
    good = "step 1 side=d interval=[0,1] e=1/2 s=1/2 point=q1"
    bad = "step 2 side=r interval=[0,1/0] e=1/2 s=1/2 point=q1"
    for text, lineno in ((f"{bad}\n{good}", 1), (f"{good}\n{bad}", 2),
                         (f"{good}\n# note\n{good}\n{bad}", 4)):
        with pytest.raises(ParseError) as exc:
            io.parse_trace(text)
        assert str(exc.value) == (
            f"line {lineno}: bad rational '1/0': expected [-]p[/q]")


def test_a_parsed_trace_holds_each_repeated_token_once():
    # a 20-target run's 820 lines: 267-277 KiB held on Python 3.10-3.13,
    # and 436-454 KiB with a Fraction and a label string per field
    text, _ = _seeded_trace(7, 20)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lines = io.parse_trace(text)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(lines) >= 600
    assert held < 340 * 1024, held


def test_trace_replay_lives_in_bilip():
    assert cli.verify_trace_lines is bilip.verify_trace_lines


def test_trace_round_trip_text():
    space = io.parse_space(WORKED_UMS)
    f = io.parse_map(WORKED_MAP, space)
    ball, kn = Ball(0, F(10)), kn_admissible(2, 4)
    _, _, trace = extend_dense(f, ball, kn, [1], space)
    text = io.format_trace(trace)
    lines = io.parse_trace(text)
    assert len(lines) == 3  # 1 solve on the domain side, 2 on the range side
    ok, msg = verify_trace_lines(space, f, ball, kn, [1], lines)
    assert ok, msg


def test_verify_accepts_every_emitted_trace():
    rng = random.Random(99)
    for _ in range(5):
        space, f, ball, kn = random_compliant_instance(rng, grow=2)
        targets = []
        for _ in range(2):
            space, x = random_point_in_ball(rng, space, ball)
            targets.append(x)
        _, _, trace = extend_dense(f, ball, kn, targets, space,
                                   policy=rng.choice(("midpoint", "minimal",
                                                      "maximal")))
        lines = io.parse_trace(io.format_trace(trace))
        ok, msg = verify_trace_lines(space, f, ball, kn, targets, lines)
        assert ok, msg


@pytest.mark.parametrize("policy", POLICIES)
def test_trace_text_holds_exactly_the_step_lines(policy):
    rng = random.Random(31)
    for _ in range(3):
        space, f, ball, kn = random_compliant_instance(rng, grow=2)
        space, x = random_point_in_ball(rng, space, ball)
        # the seed point and a repeated target add noop steps
        _, _, trace = extend_dense(f, ball, kn, [x, f.domain[0], x], space,
                                   policy=policy)
        assert any(step.noop for step in trace.steps)
        assert io.parse_trace(io.format_trace(trace)) == [
            ln for step in trace.steps for ln in step.lines()]


def test_verify_rejects_out_of_interval_perturbation():
    space = io.parse_space(WORKED_UMS)
    f = io.parse_map(WORKED_MAP, space)
    ball, kn = Ball(0, F(10)), kn_admissible(2, 4)
    _, _, trace = extend_dense(f, ball, kn, [1], space)
    lines = io.parse_trace(io.format_trace(trace))
    for k, ln in enumerate(lines):
        bad = list(lines)
        bad[k] = io.TraceLine(ln.m, ln.side, ln.lo, ln.hi,
                              ln.hi * 2 + 1, ln.s, ln.point)
        ok, _ = verify_trace_lines(space, f, ball, kn, [1], bad)
        assert not ok


def test_verify_rejects_any_single_field_perturbation():
    space = io.parse_space(WORKED_UMS)
    f = io.parse_map(WORKED_MAP, space)
    ball, kn = Ball(0, F(10)), kn_admissible(2, 4)
    _, _, trace = extend_dense(f, ball, kn, [1], space)
    lines = io.parse_trace(io.format_trace(trace))
    nudge = F(1, 1024)
    for k, ln in enumerate(lines):
        for field in ("lo", "hi", "e", "s"):
            bad = list(lines)
            kw = dict(m=ln.m, side=ln.side, lo=ln.lo, hi=ln.hi, e=ln.e,
                      s=ln.s, point=ln.point)
            kw[field] = kw[field] + nudge
            bad[k] = io.TraceLine(**kw)
            ok, _ = verify_trace_lines(space, f, ball, kn, [1], bad)
            assert not ok, f"perturbed {field} on line {k} accepted"


# Targets x, x, x1 on the worked instance: one domain step (line 1), one
# range step (lines 2-3), then four noop steps that emit no step line.
NOOP_TARGETS = [1, 1, 0]


def noop_replay(edit=lambda lines: lines):
    """Replay the NOOP_TARGETS trace after ``edit`` rewrites its lines."""
    space = io.parse_space(WORKED_UMS)
    f = io.parse_map(WORKED_MAP, space)
    ball, kn = Ball(0, F(10)), kn_admissible(2, 4)
    _, _, trace = extend_dense(f, ball, kn, NOOP_TARGETS, space)
    text = io.format_trace(trace)
    assert text.count("# noop ") == 4
    lines = io.parse_trace(text)
    assert len(lines) == 3
    return verify_trace_lines(space, f, ball, kn, NOOP_TARGETS,
                              edit(list(lines)))


def test_verify_accepts_a_trace_with_noop_steps():
    assert noop_replay() == (True, "verified 3 steps")


def test_verify_names_the_line_a_truncated_trace_stops_at():
    assert noop_replay(lambda lines: lines[:-1]) == (
        False, "trace truncated at line 3")


def test_verify_counts_unexplained_trailing_lines():
    assert noop_replay(lambda lines: lines + lines[-1:]) == (
        False, "1 unexplained trailing lines")


def test_verify_reports_the_earliest_bad_line_first():
    def edit(lines):
        lines[0] = replace(lines[0], s=lines[0].s + 1)
        lines[2] = replace(lines[2], e=lines[2].hi + 1)
        return lines

    ok, message = noop_replay(edit)
    assert not ok and message.startswith("line 1: recomputed ")


def test_verify_names_an_out_of_interval_choice():
    def edit(lines):
        lines[2] = replace(lines[2], e=lines[2].hi + 1)
        return lines

    assert noop_replay(edit) == (
        False, "chosen e_2 = 51/16 outside [35/32, 35/16]")


def run_cli(tmp_path, *argv):
    return main([str(a) for a in argv])


def test_cli_validate_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.ums"
    good.write_text(WORKED_UMS)
    bad = tmp_path / "bad.ums"
    bad.write_text(VIOLATION_UMS)
    assert run_cli(tmp_path, "validate", good) == 0
    assert run_cli(tmp_path, "validate", bad) == 1
    out = capsys.readouterr().out
    assert "violation triangle a b c" in out
    junk = tmp_path / "junk.ums"
    junk.write_text("points zzz\n")
    assert run_cli(tmp_path, "validate", junk) == 3


def test_cli_extend_and_verify_round_trip(tmp_path, capsys):
    space = tmp_path / "s.ums"
    space.write_text(WORKED_UMS)
    fmap = tmp_path / "f.map"
    fmap.write_text(WORKED_MAP)
    trace = tmp_path / "t.trace"
    rc = run_cli(tmp_path, "extend-bilip", space, fmap, "--center", "x1",
                 "--radius", "10", "--K", "2", "--N", "4", "--target", "x",
                 "--out", trace)
    assert rc == 0
    text = trace.read_text()
    assert "step 1 side=d interval=[1/2,2] e=5/4 s=35/16" in text
    capsys.readouterr()
    rc = run_cli(tmp_path, "verify-trace", trace, space, fmap, "--center",
                 "x1", "--radius", "10", "--K", "2", "--N", "4",
                 "--target", "x")
    assert rc == 0
    # perturb one rational in the trace -> exit 1
    trace.write_text(text.replace("e=5/4", "e=9/4"))
    rc = run_cli(tmp_path, "verify-trace", trace, space, fmap, "--center",
                 "x1", "--radius", "10", "--K", "2", "--N", "4",
                 "--target", "x")
    assert rc == 1


def test_cli_infeasible_precondition_exit(tmp_path):
    space = tmp_path / "s.ums"
    space.write_text(WORKED_UMS)
    fmap = tmp_path / "f.map"
    fmap.write_text(WORKED_MAP)
    rc = run_cli(tmp_path, "extend-bilip", space, fmap, "--center", "x1",
                 "--radius", "10", "--K", "3/2", "--N", "4",
                 "--target", "x")
    assert rc == 2  # (3/2, 4) is not admissible


def test_cli_counterexample_report(tmp_path, capsys):
    alpha = tmp_path / "alpha.mc"
    alpha.write_text("mc\nbp 0 0\nbp 1 1\ntail 1/2\n")
    ident = tmp_path / "id.mc"
    ident.write_text("mc\nbp 0 0\ntail 1\n")
    rc = run_cli(tmp_path, "counterexample", "--alpha", alpha, "--beta",
                 ident, "--s", "1", "--t", "1")
    assert rc == 0
    out = capsys.readouterr().out
    assert "alpha_inv(s+t)=3 > beta(t)+alpha_inv(s)=2" in out
    rc = run_cli(tmp_path, "counterexample", "--alpha", ident, "--beta",
                 ident, "--s", "1", "--t", "1")
    assert rc == 2  # the condition holds for the identity pair


def test_cli_group_dist(tmp_path, capsys):
    space = tmp_path / "s.ums"
    space.write_text("points 3\nlabels a b c\n"
                     "row 0 1/2 3\nrow 1/2 0 3\nrow 3 3 0\n")
    f = tmp_path / "f.map"
    f.write_text("pair a a\npair b b\npair c c\n")
    g = tmp_path / "g.map"
    g.write_text("pair c c\npair a b\npair b a\n")  # out of index order
    rc = run_cli(tmp_path, "group-dist", space, f, g, "--basepoint", "a")
    assert rc == 0
    out = capsys.readouterr().out
    assert "lip " in out and "dS " in out and "zero false" in out
    partial = tmp_path / "p.map"
    partial.write_text("pair a b\npair b a\n")
    assert run_cli(tmp_path, "group-dist", space, f, partial) == 2


def test_cli_group_dist_empty_basepoint_exits_3(tmp_path, capsys):
    rc = run_cli(tmp_path, "group-dist", DATA / "worked.ums",
                 DATA / "identity.map", DATA / "swap.map", "--basepoint", "")
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: no point labeled ''\n"


def test_cli_fuzz_deterministic(tmp_path, capsys):
    assert run_cli(tmp_path, "fuzz", "--suite", "bilip", "--count", "3",
                   "--seed", "12") == 0
    first = capsys.readouterr().out
    assert run_cli(tmp_path, "fuzz", "--suite", "bilip", "--count", "3",
                   "--seed", "12") == 0
    second = capsys.readouterr().out
    assert first == second and "all passed" in first


def suite_of(oks, drawn):
    """Fake cases ``k=<k>`` with the verdicts ``oks``, logging each draw."""
    def cases(rng):
        for k, ok in enumerate(oks):
            drawn.append(k)
            yield f"k={k}", ok
    return cases


def test_cli_fuzz_stops_at_the_first_failing_case(tmp_path, capsys,
                                                  monkeypatch):
    drawn = []
    monkeypatch.setitem(gen.CAMPAIGNS, "group",
                        suite_of([True, False, True, False], drawn))
    out = tmp_path / "report.txt"
    assert run_cli(tmp_path, "fuzz", "--suite", "group", "--count", "4",
                   "--seed", "5", "--out", out) == 1
    report = ("suite=group seed=5 count=4\n"
              "i=0 k=0 ok=true\ni=1 k=1 ok=false\nFAILURE\n")
    assert capsys.readouterr().out == report
    assert out.read_text() == report
    assert drawn == [0, 1]


def test_campaign_draws_no_case_past_its_count(monkeypatch):
    drawn = []
    monkeypatch.setitem(gen.CAMPAIGNS, "group", suite_of([True] * 4, drawn))
    assert gen.campaign("group", 5, 2) == (
        ["suite=group seed=5 count=2", "i=0 k=0 ok=true", "i=1 k=1 ok=true"],
        True)
    assert drawn == [0, 1]


def test_cli_fuzz_negative_count_exits_2(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert run_cli(tmp_path, "fuzz", "--suite", "amalgam", "--count", "-3",
                   "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "error: count must be nonnegative\n"
    assert run_cli(tmp_path, "fuzz", "--suite", "amalgam", "--count", "0",
                   "--seed", "4") == 0
    assert capsys.readouterr().out == (
        "suite=amalgam seed=4 count=0\nall passed\n")


def test_cli_amalgamate_midpoint(tmp_path, capsys):
    a = tmp_path / "a.ums"
    a.write_text("points 2\nlabels p0 z\nrow 0 3\nrow 3 0\n")
    b = tmp_path / "b.ums"
    b.write_text("points 2\nlabels z p1\nrow 0 1\nrow 1 0\n")
    assert run_cli(tmp_path, "amalgamate", a, b, "--policy", "midpoint") == 0
    out = capsys.readouterr().out
    merged = io.parse_space("\n".join(
        ln for ln in out.splitlines() if not ln.startswith("#")))
    assert merged.d(merged.index("p0"), merged.index("p1")) == 3


def test_cli_amalgamate_non_metric_input_exits_2(tmp_path, capsys):
    a = tmp_path / "a.ums"
    a.write_text(VIOLATION_UMS)
    b = tmp_path / "b.ums"
    b.write_text("points 3\nlabels a b m\nrow 0 1 10\nrow 1 0 1\n"
                 "row 10 1 0\n")
    out = tmp_path / "merged.ums"
    assert run_cli(tmp_path, "amalgamate", a, b, "--policy", "midpoint",
                   "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (
        f"error: {a} is not a metric space: "
        "violation triangle a b c : 3 > 1 + 1\n")


TWO_POINTS_UMS = "points 2\nlabels a b\nrow 0 1\nrow 1 0\n"


@pytest.mark.parametrize("text0, text1, bad, line", [
    ("points 3\nlabels a b c\nrow 0 1 1\nrow 1 0 1\nrow 1 1 5\n",
     TWO_POINTS_UMS, "a.ums", "violation diagonal c : d(2,2) = 5 != 0"),
    (TWO_POINTS_UMS, "points 2\nlabels a c\nrow 0 1\nrow 2 0\n",
     "b.ums", "violation symmetry a c : 1 != 2"),
], ids=["diagonal", "symmetry"])
def test_cli_amalgamate_refuses_an_input_with_no_empty_interval(
        tmp_path, capsys, text0, text1, bad, line):
    """Each input fails validate, yet amalgamate finds every interval
    nonempty: the input check, not the merge, must refuse it."""
    a, b = tmp_path / "a.ums", tmp_path / "b.ums"
    a.write_text(text0)
    b.write_text(text1)
    out = tmp_path / "merged.ums"
    assert run_cli(tmp_path, "amalgamate", a, b, "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (
        f"error: {tmp_path / bad} is not a metric space: {line}\n")


# Every command that reads a space file refuses a non-metric one as
# amalgamate does.  On triangle-violation.ums, which {bad} names, each of
# these once exited 0: extend-bilip printed compliant=true, verify-trace
# "ok: verified 3 steps" for that run's trace, group-dist "lip 1" and
# "dS 0", and extend-mc realized a point.
ON_TRIANGLE = "--center a --radius 5 --K 2 --N 4 --target c"
NOT_METRIC = {
    "extend-bilip": "extend-bilip {bad} {one} " + ON_TRIANGLE,
    "verify-trace": "verify-trace {trace} {bad} {one} " + ON_TRIANGLE,
    "group-dist": "group-dist {bad} {all} {all}",
    "extend-mc-domain":
        "extend-mc {bad} {good} {one} --alpha {id} --beta {id} --point c",
    "extend-mc-range":
        "extend-mc {good} {bad} {one} --alpha {id} --beta {id} --point p",
}


@pytest.mark.parametrize("template", NOT_METRIC.values(), ids=list(NOT_METRIC))
def test_cli_refuses_a_space_that_is_not_metric(tmp_path, capsys, template):
    files = {
        "one": "pair a a\n", "all": "pair a a\npair b b\npair c c\n",
        "good": "points 2\nlabels a p\nrow 0 1\nrow 1 0\n",
        "trace": "step 1 side=d interval=[5/2,17/5] e=59/20 s=1/2 point=q1\n"
                 "step 1 side=r interval=[5/2,17/5] e=59/20 s=3/8 point=q2\n"
                 "step 2 side=r interval=[1/4,1/2] e=3/8 s=3/8 point=q2\n"}
    paths = {name: tmp_path / name for name in files}
    for name, text in files.items():
        paths[name].write_text(text)
    bad = DATA / "triangle-violation.ums"
    out = tmp_path / "report.txt"
    argv = template.format(bad=bad, id=DATA / "identity.mc", **paths).split()
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (f"error: {bad} is not a metric space: "
                            "violation triangle a b c : 3 > 1 + 1\n")


def test_cli_extend_mc(tmp_path, capsys):
    sx = tmp_path / "x.ums"
    sx.write_text("points 2\nlabels x0 p\nrow 0 1\nrow 1 0\n")
    sy = tmp_path / "y.ums"
    sy.write_text("points 1\nlabels y0\nrow 0\n")
    fmap = tmp_path / "f.map"
    fmap.write_text("pair x0 y0\n")
    two = tmp_path / "two.mc"
    two.write_text("mc\nbp 0 0\ntail 2\n")
    rc = run_cli(tmp_path, "extend-mc", sx, sy, fmap, "--alpha", two,
                 "--beta", two, "--point", "p")
    assert rc == 0
    out = capsys.readouterr().out
    assert "realized q1" in out and "dist y0 2" in out


def extend_mc_with_kinked_beta(tmp_path, *extra):
    """extend-mc on the worked instance; beta(t) >= t holds up to t = 3."""
    beta = tmp_path / "beta.mc"
    beta.write_text("mc\nbp 0 0\nbp 1 2\ntail 1/2\n")
    return run_cli(tmp_path, "extend-mc", DATA / "worked.ums",
                   DATA / "worked.ums", DATA / "worked.map",
                   "--alpha", DATA / "identity.mc", "--beta", beta,
                   "--point", "x", *extra)


def test_cli_extend_mc_bound_within_the_condition(tmp_path, capsys):
    assert extend_mc_with_kinked_beta(tmp_path) == 0
    plain = capsys.readouterr().out
    assert extend_mc_with_kinked_beta(tmp_path, "--bound", "3") == 0
    assert capsys.readouterr().out == plain
    assert "bicontinuous exact pairs=1" in plain


def test_cli_extend_mc_bound_past_the_condition_exits_2(tmp_path, capsys):
    assert extend_mc_with_kinked_beta(tmp_path, "--bound", "4") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: moduli fail alpha_inv(s)+beta(t) >= alpha_inv(s+t) at "
        "(s, t) = (0, 4):")


def test_cli_extend_mc_empty_bound_exits_3(tmp_path, capsys):
    assert extend_mc_with_kinked_beta(tmp_path, "--bound", "") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: bad rational '': expected [-]p[/q]\n"


def test_cli_witness(tmp_path, capsys):
    gamma = tmp_path / "gamma.mc"
    gamma.write_text("mc\nbp 0 0\nbp 1/256 1/16\nbp 1/64 1/8\nbp 1/16 1/4\n"
                     "bp 1/4 1/2\nbp 1 1\ntail 1/2\n")
    d3 = tmp_path / "d3.mc"
    d3.write_text("mc\nbp 0 0\ntail 3\n")
    rc = run_cli(tmp_path, "witness", "--gamma", gamma, "--delta", d3,
                 "--depth", "2")
    assert rc == 0
    out = capsys.readouterr().out
    assert "exceeds=true" in out and "bicontinuity(2*gamma) ok=true" in out


def test_cli_witness_past_the_point_cap_exits_2(tmp_path, capsys):
    # depth 600 with one generator would build 1 + 2*600 = 1201 points
    gamma = tmp_path / "gamma.mc"
    gamma.write_text("mc\nbp 0 0\ntail 4\n")
    d2 = tmp_path / "d2.mc"
    d2.write_text("mc\nbp 0 0\ntail 2\n")
    out = tmp_path / "report.txt"
    rc = run_cli(tmp_path, "witness", "--gamma", gamma, "--delta", d2,
                 "--depth", "600", "--out", out)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not out.exists()
    assert captured.err == ("error: a witness of depth 600 needs more than "
                            "513 points\n")


def assert_parse_error(rc, capsys):
    err = capsys.readouterr().err
    assert rc == 3 and err.startswith("parse error:")
    assert "Traceback" not in err


def test_cli_fuzz_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--suite", "nope"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "Traceback" not in err
    assert err.startswith("usage: urylab fuzz")
    assert "invalid choice: 'nope' (choose from 'amalgam', 'bilip'," in err


def test_cli_non_ascii_point_count_is_parse_error(tmp_path, capsys):
    space = tmp_path / "s.ums"
    space.write_text("points ²\nlabels a b\nrow 0 1\nrow 1 0\n")
    assert_parse_error(main(["validate", str(space)]), capsys)


@pytest.mark.parametrize("line", [
    "step x side=d interval=[1/2,2] e=5/4 s=35/16 point=q1",
    "step 1 side=d interval=[1/2] e=5/4 s=35/16 point=q1",
    "step 1 side=d interval=[1/2,2] s=35/16 e=5/4 point=q1",
    "step 1 side=x interval=[1/2,2] e=5/4 s=35/16 point=q1",
    "step 1 side=d interval=[1/2,2] e=5/4 point=q1",
    "step \u0661 side=d interval=[1/2,2] e=5/4 s=35/16 point=q1",
])
def test_cli_bad_trace_line_is_parse_error(tmp_path, capsys, line):
    trace = tmp_path / "t.trace"
    trace.write_text(line + "\n")
    space = tmp_path / "s.ums"
    space.write_text(WORKED_UMS)
    fmap = tmp_path / "f.map"
    fmap.write_text(WORKED_MAP)
    rc = main([str(a) for a in (
        "verify-trace", trace, space, fmap, "--center", "x1", "--radius",
        "10", "--K", "2", "--N", "4", "--target", "x")])
    assert_parse_error(rc, capsys)


def assert_bad_rational_on_line(rc, capsys, lineno, token):
    assert (rc, capsys.readouterr().err) == (3, (
        f"parse error: line {lineno}: bad rational '{token}': "
        f"expected [-]p[/q]\n"))


def test_cli_bad_rational_in_a_space_names_its_line(tmp_path, capsys):
    space = tmp_path / "s.ums"
    space.write_text(WORKED_UMS.replace("row 0 1", "row 0 1/0"))
    assert_bad_rational_on_line(main(["validate", str(space)]), capsys, 4,
                                "1/0")


def test_cli_bad_rational_in_a_modulus_names_its_line(tmp_path, capsys):
    beta = tmp_path / "b.mc"
    beta.write_text("mc\nbp 0 0\nbp 1 1/0\ntail 1\n")
    rc = main([str(a) for a in (
        "counterexample", "--alpha", DATA / "kinked.mc", "--beta", beta,
        "--s", "1", "--t", "1")])
    assert_bad_rational_on_line(rc, capsys, 3, "1/0")


def test_cli_bad_rational_in_a_trace_names_its_line(tmp_path, capsys):
    steps = [line for line in
             (GOLDEN / "extend-bilip-midpoint.txt").read_text().splitlines()
             if not line.startswith("#")]
    steps[1] = steps[1].replace(" e=5/4 ", " e=5/0 ")
    trace = tmp_path / "t.trace"
    trace.write_text("\n".join(steps) + "\n")
    rc = main([str(a) for a in ("verify-trace", trace, DATA / "worked.ums",
                                DATA / "worked.map") + BILIP])
    assert_bad_rational_on_line(rc, capsys, 2, "5/0")


def test_cli_exponent_radius_is_parse_error(tmp_path, capsys):
    space = tmp_path / "s.ums"
    space.write_text(WORKED_UMS)
    fmap = tmp_path / "f.map"
    fmap.write_text(WORKED_MAP)
    rc = main([str(a) for a in (
        "extend-bilip", space, fmap, "--center", "x1", "--radius", "1e3",
        "--K", "2", "--N", "4", "--target", "x")])
    assert_parse_error(rc, capsys)


def test_cli_trace_mismatch_reads_in_the_trace_grammar(tmp_path, capsys):
    text = (GOLDEN / "extend-bilip-midpoint.txt").read_text()
    trace = tmp_path / "t.trace"

    def verify(text):
        trace.write_text(text)
        rc = main([str(a) for a in ("verify-trace", trace,
                                    DATA / "worked.ums", DATA / "worked.map")
                   + BILIP])
        return rc, capsys.readouterr().out

    bad = text.replace("point=q1", "point=q9")
    rc, out = verify(bad)
    assert (rc, out) == (1, (
        "FAIL: line 1: recomputed step 1 side=d interval=[1/2,2] e=5/4 "
        "s=35/16 point=q1 != recorded step 1 side=d interval=[1/2,2] "
        "e=5/4 s=35/16 point=q9\n"))
    # the recomputed half, pasted over the recorded line, verifies
    recomputed = out.partition(" recomputed ")[2].partition(" != ")[0]
    recorded = out.partition(" != recorded ")[2].rstrip("\n")
    assert verify(bad.replace(recorded, recomputed)) == (
        0, "ok: verified 3 steps\n")


@pytest.mark.parametrize("radius", ["0", "-1"])
def test_cli_nonpositive_radius_exits_2(capsys, radius):
    inputs = (DATA / "worked.ums", DATA / "worked.map")
    trace = GOLDEN / "extend-bilip-midpoint.txt"
    for command in (("extend-bilip",) + inputs,
                    ("verify-trace", trace) + inputs):
        rc = main([str(a) for a in command + (
            "--center", "x1", "--radius", radius, "--K", "2", "--N", "4",
            "--target", "x")])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == "error: ball radius must be positive\n"


def test_cli_space_with_a_non_utf8_byte_is_parse_error(tmp_path, capsys):
    space = tmp_path / "s.ums"
    space.write_bytes(b"points 2\nlabels a b\nrow 0 \xff\nrow 1 0\n")
    assert main(["validate", str(space)]) == 3
    err = capsys.readouterr().err
    assert err == f"parse error: {space}: byte 26 is not valid UTF-8 " \
                  "(invalid start byte)\n"


def test_cli_modulus_with_a_non_utf8_byte_is_parse_error(tmp_path, capsys):
    alpha = tmp_path / "alpha.mc"
    alpha.write_bytes(b"mc\nbp 0 0\nbp 1 \xff\ntail 1/2\n")
    assert main(["counterexample", "--alpha", str(alpha), "--beta",
                 str(DATA / "identity.mc"), "--s", "1", "--t", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"parse error: {alpha}: byte 15 is not valid UTF-8 "
        "(invalid start byte)\n")


def test_cli_out_is_written_as_utf8(tmp_path, capsys):
    space = tmp_path / "s.ums"
    space.write_bytes("points 2\nlabels \u00e9 b\nrow 0 1\nrow 1 0\n"
                      .encode("utf-8"))
    out = tmp_path / "report.txt"
    assert main(["validate", str(space), "--out", str(out)]) == 0
    assert out.read_bytes().decode("utf-8") == capsys.readouterr().out


def test_cli_unwritable_out_is_parse_error(tmp_path, capsys):
    space = tmp_path / "s.ums"
    space.write_text(WORKED_UMS)
    out = tmp_path / "missing" / "report.txt"
    assert_parse_error(main(["validate", str(space), "--out", str(out)]),
                       capsys)


SWAP_BC = "pair a a\npair b c\npair c b\n"
IDENTITY_ABC = "pair a a\npair b b\npair c c\n"


def group_dist(tmp_path, rows, *extra):
    """group-dist on a 3-point space, f swapping b and c, g the identity."""
    space = tmp_path / "s.ums"
    space.write_text("points 3\nlabels a b c\n"
                     + "".join("row " + " ".join(map(str, row)) + "\n"
                               for row in rows))
    f = tmp_path / "f.map"
    f.write_text(SWAP_BC)
    g = tmp_path / "g.map"
    g.write_text(IDENTITY_ABC)
    return run_cli(tmp_path, "group-dist", space, f, g, "--basepoint", "a",
                   *extra)


def far_rows(radius):
    return ((0, 1, radius), (1, 0, radius), (radius, radius, 0))


def test_cli_group_dist_far_point_in_closed_form(tmp_path, capsys):
    start = time.monotonic()
    assert group_dist(tmp_path, far_rows(100_000)) == 0
    assert time.monotonic() - start < 5
    assert capsys.readouterr().out == (
        "lip 100000\ndS 50000\nzero false\ndisplay 50000.000000\n"
        "d1 0\nd2 100000\nd3 100000\n")
    assert group_dist(tmp_path, far_rows(3_000_000)) == 0
    assert "dS 1500000\n" in capsys.readouterr().out


def test_cli_group_dist_rise_past_the_radius_bound_exits_2(tmp_path, capsys):
    far = 10 ** 6
    rows = ((0, far, far), (far, 0, 1), (far, 1, 0))
    assert group_dist(tmp_path, rows) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: displacement rises at radius 1000001 > 65536\n")


def test_cli_group_dist_depth_past_the_radius_bound_exits_2(tmp_path, capsys):
    start = time.monotonic()
    assert group_dist(tmp_path, far_rows(3), "--depth", 10 ** 8) == 2
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --depth 100000000 > 65536\n"


def worked_group_dist(*extra):
    """group-dist on the worked demo space, identity against the swap."""
    return main(["group-dist", str(DATA / "worked.ums"),
                 str(DATA / "identity.map"), str(DATA / "swap.map"),
                 *map(str, extra)])


def test_cli_group_dist_negative_depth_exits_2(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert worked_group_dist("--depth", -4, "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: depth must be nonnegative\n"
    assert not out.exists()
    # checked before any input is read
    assert main(["group-dist", str(tmp_path / "missing.ums"), "f.map",
                 "g.map", "--depth", "-1"]) == 2
    assert capsys.readouterr().err == "error: depth must be nonnegative\n"


def test_cli_group_dist_depth_zero_lists_no_dn_line(capsys):
    assert worked_group_dist("--depth", 0) == 0
    assert capsys.readouterr().out == (
        "lip 1\ndS 1\nzero false\ndisplay 1.000000\n")


def test_cli_group_dist_depth_at_the_radius_bound_finishes(tmp_path, capsys):
    assert group_dist(tmp_path, far_rows(3), "--depth", 2 ** 16) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 + 2 ** 16
    assert lines[4:6] == ["d1 0", "d2 3"] and lines[-1] == "d65536 3"


def test_cli_group_dist_display_beyond_float_range(tmp_path, capsys):
    big = 10 ** 400
    assert group_dist(tmp_path, far_rows(big)) == 0
    assert "display inf\n" in capsys.readouterr().out
    tiny = F(1, big)
    assert group_dist(tmp_path, ((0, tiny, 1), (tiny, 0, 1), (1, 1, 0))) == 0
    out = capsys.readouterr().out
    assert f"lip {big}\n" in out and "display 921.034037\n" in out


def test_cli_group_dist_result_past_the_digit_limit_exits_2(tmp_path,
                                                           capsys):
    if not sys.get_int_max_str_digits():
        pytest.skip("int() digit limit is disabled")
    ab = F(10 ** 4200 + 7, 10 ** 4200 + 1)
    ac = F(10 ** 4200 + 9, 10 ** 4200 + 3)
    rows = ((0, ab, ac), (ab, 0, 1), (ac, 1, 0))
    out = tmp_path / "report.txt"
    assert group_dist(tmp_path, rows, "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: Exceeds the limit")


def test_cli_other_value_errors_still_propagate(monkeypatch):
    def broken(args):
        raise ValueError("not a digit limit")
    monkeypatch.setattr(cli, "cmd_fuzz", broken)
    with pytest.raises(ValueError, match="not a digit limit"):
        main(["fuzz", "--suite", "bilip"])


def test_cli_failure_text_past_the_digit_limit_exits_2(tmp_path, capsys):
    if not sys.get_int_max_str_digits():
        pytest.skip("int() digit limit is disabled")
    # each token parses, but the second piece's slope has about 12,900
    # digits and rises, so the concavity text cannot be written
    a, b, c, d = (10 ** 4290 + k for k in (1, 3, 7, 9))
    mc = tmp_path / "big.mc"
    mc.write_text(f"mc\nbp 0 0\nbp 1/{a} 1/{b}\nbp 2/{c} 5/{d}\ntail 1\n")
    assert main(["counterexample", "--alpha", str(mc), "--beta",
                 str(DATA / "identity.mc"), "--s", "1", "--t", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Exceeds the limit")


def _unreportable(*args):
    raise UnreportableError("Exceeds the limit")


def test_cli_modulus_failure_other_than_its_shape_keeps_its_exit_code(
        monkeypatch, capsys):
    # only a StructuralError of the breakpoints is a parse error (exit 3)
    monkeypatch.setattr(io, "PLFunction", _unreportable)
    identity = str(DATA / "identity.mc")
    assert main(["counterexample", "--alpha", identity, "--beta", identity,
                 "--s", "1", "--t", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Exceeds the limit\n"


def test_parse_map_turns_only_a_missing_label_into_a_parse_error():
    class Space:
        index = staticmethod(_unreportable)

    with pytest.raises(UnreportableError, match="^Exceeds the limit$"):
        io.parse_map("pair a b\n", Space())
    with pytest.raises(ParseError, match="^line 1: no point labeled 'a'$"):
        io.parse_map("pair a b\n",
                     FiniteMetricSpace.from_rows(("b",), ((0,),)))


def test_cli_pair_text_past_the_digit_limit_exits_2(tmp_path, capsys):
    if not sys.get_int_max_str_digits():
        pytest.skip("int() digit limit is disabled")
    # the input pair breaks beta, whose value at d = 1/a has about 8,600
    # digits, so its failure text cannot be written
    a, b, c = (10 ** 4290 + k for k in (1, 3, 7))
    files = {
        "x.ums": f"points 3\nlabels x0 x1 p\nrow 0 1/{a} 1\n"
                 f"row 1/{a} 0 1\nrow 1 1 0\n",
        "y.ums": "points 2\nlabels y0 y1\nrow 0 5\nrow 5 0\n",
        "f.map": "pair x0 y0\npair x1 y1\n",
        "beta.mc": f"mc\nbp 0 0\nbp 1/{b} 1/{c}\ntail 1/2\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(["extend-mc", *(str(tmp_path / n) for n in
                                ("x.ums", "y.ums", "f.map")),
                 "--alpha", str(DATA / "identity.mc"),
                 "--beta", str(tmp_path / "beta.mc"), "--point", "p"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Exceeds the limit")


ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"
GOLDEN = ROOT / "tests" / "golden"


def data(name):
    return (DATA / name).read_text()


BILIP = ("--center", "x1", "--radius", "10", "--K", "2", "--N", "4",
         "--target", "x")
GROUP_MAP = "".join(f"pair p{i} p{j}\n" for i, j in enumerate((2, 0, 4, 1, 3)))

# Each command with the texts of its input files, in placeholder order.
COMMANDS = (
    ("validate {0}", (data("triangle-violation.ums"),)),
    ("amalgamate {0} {1} --policy midpoint",
     (data("pair0.ums"), data("pair1.ums"))),
    ("extend-bilip {0} {1} " + " ".join(BILIP),
     (data("worked.ums"), data("worked.map"))),
    ("verify-trace {0} {1} {2} " + " ".join(BILIP),
     ((GOLDEN / "extend-bilip-midpoint.txt").read_text(), data("worked.ums"),
      data("worked.map"))),
    ("extend-mc {0} {1} {2} --alpha {3} --beta {4} --point x",
     (data("worked.ums"), data("worked.ums"), data("worked.map"),
      data("kinked.mc"), data("identity.mc"))),
    ("counterexample --alpha {0} --beta {1} --s 1 --t 1",
     (data("kinked.mc"), data("identity.mc"))),
    ("witness --gamma {0} --delta {1} --depth 2",
     (data("steep-germ.mc"), data("triple.mc"))),
    ("group-dist {0} {1} {2} --basepoint p0",
     (io.format_space(random_space(random.Random(5), 5)), GROUP_MAP,
      GROUP_MAP)),
)
WORDS = ("0", "1", "-1", "1/2", "0/1", "1/0", "3/0", "-2/3", "10" * 12,
         "1/" + "10" * 12, "x", "x1", "p0", "a", "b", "q1", "pair", "row",
         "labels", "points", "mc", "bp", "tail", "step", "side=d", "e=1",
         "interval=[0,1]", "#", "", "\u00e9")


@st.composite
def mutated_command(draw):
    template, texts = draw(st.sampled_from(COMMANDS))
    texts = list(texts)
    k = draw(st.integers(0, len(texts) - 1))
    lines = texts[k].split("\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        words = lines[i].split(" ")
        kind = draw(st.sampled_from(("word", "insert", "drop", "line", "dup")))
        if kind == "word":
            words[draw(st.integers(0, len(words) - 1))] = draw(
                st.sampled_from(WORDS))
        elif kind == "insert":
            words.insert(draw(st.integers(0, len(words))),
                         draw(st.sampled_from(WORDS)))
        elif kind == "drop" and len(words) > 1:
            del words[draw(st.integers(0, len(words) - 1))]
        lines[i] = " ".join(words)
        if kind == "line":
            del lines[i]
        elif kind == "dup":
            lines.insert(i, lines[i])
        if not lines:
            lines = [""]
    texts[k] = "\n".join(lines)
    return template, texts


def run_on_files(template, contents):
    """Run a COMMANDS template on input files holding ``contents`` (bytes).

    Returns the exit code, stdout, stderr and the input paths.
    """
    out, err = StringIO(), StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, raw in enumerate(contents):
            path = Path(tmp) / f"input{k}"
            path.write_bytes(raw)
            paths.append(str(path))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(template.format(*paths).split())
    return rc, out.getvalue(), err.getvalue(), paths


def encoded(texts):
    return [text.encode("utf-8") for text in texts]


@settings(max_examples=150, deadline=None)
@given(mutated_command())
def test_cli_exit_code_on_mutated_artifacts(case):
    template, texts = case
    rc = run_on_files(template, encoded(texts))[0]
    assert rc in (0, 1, 2, 3)


# The line that must accompany exit 1, for each command that can return it.
WITNESS_LINE = {
    "validate": lambda line: line.startswith("violation "),
    "extend-bilip": lambda line: "compliant=false" in line,
    "verify-trace": lambda line: line.startswith("FAIL: "),
    "witness": lambda line: "exceeds=false" in line or " ok=false" in line,
}


@st.composite
def file_bytes(draw, text):
    """Arbitrary bytes, or the text with a BOM, CRLF ends or a NUL byte."""
    raw = text.encode("utf-8")
    kind = draw(st.sampled_from(("binary", "bom", "crlf", "nul")))
    if kind == "binary":
        return draw(st.binary(max_size=256))
    if kind == "bom":
        return b"\xef\xbb\xbf" + raw
    if kind == "crlf":
        return raw.replace(b"\n", b"\r\n")
    at = draw(st.integers(0, len(raw)))
    return raw[:at] + b"\x00" + raw[at:]


@pytest.mark.parametrize("template, texts", COMMANDS,
                         ids=[t.split()[0] for t, _ in COMMANDS])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
@example(data=None)  # a lone 0xff in every file argument
def test_cli_contract_on_any_input_bytes(template, texts, data):
    if data is None:
        contents = [b"\xff"] * len(texts)
    else:
        contents = [data.draw(file_bytes(text)) for text in texts]
    rc, out, err, _ = run_on_files(template, contents)
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err
    if rc == 1:
        witness = WITNESS_LINE[template.split()[0]]
        assert any(witness(line) for line in out.splitlines())


COMMAND = {template.split()[0]: (template, texts)
           for template, texts in COMMANDS}
FILE_ARGUMENTS = [(template, texts, k) for template, texts in COMMANDS
                  for k in range(len(texts))]


def lone_ff_error(path):
    """The failure text for a file holding the one byte 0xff."""
    return (f"parse error: {path}: byte 0 is not valid UTF-8 "
            "(invalid start byte)\n")


@pytest.mark.parametrize(
    "template, texts, k", FILE_ARGUMENTS,
    ids=[f"{template.split()[0]}-{k}" for template, _, k in FILE_ARGUMENTS])
def test_cli_non_utf8_file_in_each_argument(template, texts, k):
    contents = encoded(texts)
    contents[k] = b"\xff"
    rc, out, err, paths = run_on_files(template, contents)
    assert (rc, out, err) == (3, "", lone_ff_error(paths[k]))


# Each modulus argument: its command, its placeholder, and how an error
# about it begins.
MODULUS_ARGUMENTS = {
    "extend-mc-alpha": (
        "extend-mc", 3, "error: alpha is not a valid modulus: "),
    "extend-mc-beta": (
        "extend-mc", 4, "error: beta is not a valid modulus: "),
    "counterexample-alpha": (
        "counterexample", 0, "error: alpha is not a valid modulus: "),
    "counterexample-beta": (
        "counterexample", 1, "error: beta is not a valid modulus: "),
    "witness-gamma": ("witness", 0, "error: gamma is not a valid modulus: "),
    "witness-delta": (
        "witness", 1, "error: invalid generating set: generator 0: "),
}
# Files that are not moduli: a rising slope and a first breakpoint off the
# origin exit 2, repeated knots do not parse and exit 3.
BAD_MODULI = {
    "rising": ("mc\nbp 0 0\nbp 1 1\ntail 2\n", 2, "{prefix}concavity "
               "violated between pieces 0 and 1: slope rises 1 -> 2\n"),
    "off-origin": ("mc\nbp 1 1\nbp 2 2\ntail 1/2\n", 2,
                   "{prefix}first breakpoint is (1, 1), not (0, 0)\n"),
    "repeated": ("mc\nbp 0 0\nbp 1 1\nbp 1 2\ntail 1/2\n", 3,
                 "parse error: breakpoint abscissas must strictly increase\n"),
}


@pytest.mark.parametrize("modulus", BAD_MODULI)
@pytest.mark.parametrize("argument", MODULUS_ARGUMENTS)
def test_cli_invalid_modulus_in_each_argument(argument, modulus):
    command, k, prefix = MODULUS_ARGUMENTS[argument]
    text, code, message = BAD_MODULI[modulus]
    template, texts = COMMAND[command]
    contents = encoded(texts)
    contents[k] = text.encode("utf-8")
    assert run_on_files(template, contents)[:3] == (
        code, "", message.format(prefix=prefix))


def first_line(old, new):
    return lambda steps: [steps[0].replace(old, new, 1)] + steps[1:]


# Edits of the README trace's step lines, each with verify-trace's exit
# code, stdout and stderr: the e= value fails its interval first, the s=
# value reaches the line comparison, and swapping them breaks the grammar.
TRACE_EDITS = {
    "comments-stripped": (lambda steps: steps, 0, "ok: verified 3 steps\n",
                          ""),
    "last-line-dropped": (lambda steps: steps[:-1], 1,
                          "FAIL: trace truncated at line 3\n", ""),
    "e-perturbed": (first_line(" e=5/4 ", " e=5/41 "), 1,
                    "FAIL: chosen e_1 = 5/41 outside [1/2, 2]\n", ""),
    "s-perturbed": (
        first_line(" s=35/16 ", " s=35/161 "), 1,
        "FAIL: line 1: recomputed step 1 side=d interval=[1/2,2] e=5/4 "
        "s=35/16 point=q1 != recorded step 1 side=d interval=[1/2,2] "
        "e=5/4 s=5/23 point=q1\n", ""),
    "e-s-swapped": (
        first_line(" e=5/4 s=35/16 ", " s=35/16 e=5/4 "), 3, "",
        "parse error: line 1: expected 'step <m> side=<d|r> "
        "interval=[<lo>,<hi>] e=<e> s=<s> point=<label>'\n"),
}


@pytest.mark.parametrize("edit", TRACE_EDITS)
def test_cli_verify_trace_on_an_edited_readme_trace(edit):
    rewrite, *want = TRACE_EDITS[edit]
    template, (trace, *inputs) = COMMAND["verify-trace"]
    steps = [line for line in trace.splitlines() if not line.startswith("#")]
    text = "".join(line + "\n" for line in rewrite(steps))
    assert list(run_on_files(template, encoded([text] + inputs))[:3]) == want


@pytest.mark.parametrize("suite", sorted(gen.CAMPAIGNS))
def test_cli_fuzz_campaign_of_200_cases_passes(suite, capsys):
    rc = main(["fuzz", "--suite", suite, "--count", "200", "--seed", "11"])
    captured = capsys.readouterr()
    assert (rc, captured.err) == (0, "")
    assert captured.out.endswith("\nall passed\n")


def test_cli_module_entry_point(tmp_path):
    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "urylab.cli", *map(str, argv)],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=60)

    ok = run("validate", DATA / "worked.ums")
    assert (ok.returncode, ok.stdout, ok.stderr) == (
        0, (GOLDEN / "validate-worked.txt").read_text(), "")
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff")
    failed = run("validate", bad)
    assert (failed.returncode, failed.stdout, failed.stderr) == (
        3, "", lone_ff_error(bad))
