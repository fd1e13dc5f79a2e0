"""Golden outputs: stdout and exit code of the README commands, the fuzz
campaigns and the demos, compared byte for byte.

The files under tests/golden/ hold the expected stdout of each case, and
tests/golden/exit_codes.json its exit code.  An intended output change
regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which outputs changed and why.
"""

import contextlib
import io as _io
import json
import re
import runpy
import sys
import tempfile
from pathlib import Path

import pytest

from urylab import cli

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"
POLICIES = ("minimal", "midpoint", "maximal")


def _data(name):
    return str(DATA / name)


def _bilip_argv(policy, trace):
    return ["extend-bilip", _data("worked.ums"), _data("worked.map"),
            "--center", "x1", "--radius", "10", "--K", "2", "--N", "4",
            "--target", "x", "--policy", policy, "--out", trace]


def _verify_argv(trace):
    return ["verify-trace", trace, _data("worked.ums"), _data("worked.map"),
            "--center", "x1", "--radius", "10", "--K", "2", "--N", "4",
            "--target", "x"]


def _cases():
    """name -> (setup argvs whose output is discarded, argv or demo path)."""
    cases = {}
    for ums in ("triangle-violation", "worked", "pair0", "pair1"):
        cases[f"validate-{ums}"] = ([], ["validate", _data(f"{ums}.ums")])
    for policy in POLICIES:
        cases[f"amalgamate-{policy}"] = (
            [], ["amalgamate", _data("pair0.ums"), _data("pair1.ums"),
                 "--policy", policy])
        cases[f"extend-bilip-{policy}"] = (
            [], _bilip_argv(policy, "{tmp}/trace.txt"))
        cases[f"verify-trace-{policy}"] = (
            [_bilip_argv(policy, "{tmp}/trace.txt")],
            _verify_argv("{tmp}/trace.txt"))
    for alpha in ("identity", "kinked"):
        cases[f"extend-mc-{alpha}"] = (
            [], ["extend-mc", _data("worked.ums"), _data("worked.ums"),
                 _data("worked.map"), "--alpha", _data(f"{alpha}.mc"),
                 "--beta", _data("identity.mc"), "--point", "x"])
    cases["counterexample"] = (
        [], ["counterexample", "--alpha", _data("kinked.mc"),
             "--beta", _data("identity.mc"), "--s", "1", "--t", "1"])
    cases["witness"] = (
        [], ["witness", "--gamma", _data("steep-germ.mc"),
             "--delta", _data("triple.mc"), "--depth", "2"])
    cases["group-dist-worked"] = (
        [], ["group-dist", _data("worked.ums"), _data("worked.map"),
             _data("worked.map"), "--basepoint", "x1"])
    cases["group-dist-swap"] = (
        [], ["group-dist", _data("worked.ums"), _data("identity.map"),
             _data("swap.map"), "--basepoint", "x1", "--depth", "2"])
    for suite in ("bilip", "mc", "amalgam", "group"):
        cases[f"fuzz-{suite}"] = (
            [], ["fuzz", "--suite", suite, "--count", "50", "--seed", "7"])
    for demo in sorted((ROOT / "demos").glob("*.py")):
        cases[f"demo-{demo.stem}"] = ([], str(demo))
    return cases


CASES = _cases()


def _run(name, tmp):
    """Run one case in-process; return (stdout, exit code)."""
    setup, command = CASES[name]
    for argv in setup:
        with contextlib.redirect_stdout(_io.StringIO()):
            assert cli.main([a.format(tmp=tmp) for a in argv]) == 0
    out = _io.StringIO()
    with contextlib.redirect_stdout(out):
        if isinstance(command, str):
            runpy.run_path(command, run_name="__main__")
            code = 0
        else:
            code = cli.main([a.format(tmp=tmp) for a in command])
    return out.getvalue(), code


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    stdout, code = _run(name, tmp_path)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[name]
    assert stdout == (GOLDEN / f"{name}.txt").read_text()


def test_readme_command_paths_exist():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line")[1].split("```sh\n")[1]
    block = block.split("```")[0]
    paths = re.findall(r"\S+\.(?:ums|map|mc)\b", block)
    assert paths
    assert [p for p in paths if not (ROOT / p).is_file()] == []


def _regenerate():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            stdout, codes[name] = _run(name, tmp)
        (GOLDEN / f"{name}.txt").write_text(stdout)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(codes)} golden outputs to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
