"""Metric axioms, Lipschitz constants, and goodness margins."""

import ast
import random
import sys
from fractions import Fraction as F
from itertools import permutations
from pathlib import Path

import pytest

from oracle_utils import validate_space_reference
import urylab
from urylab import io
from urylab import (Ball, DegenerateInputError, FiniteMetricSpace, PartialMap,
                    PreconditionError, StructuralError, goodness_check,
                    lip_constant, rat, validate_space)
from urylab.errors import UnreportableError
from urylab.gen import random_space


def test_core_imports_nothing_but_errors():
    # core is the bottom layer, so any urylab module can import it, the
    # one-point kernel included, without an import cycle
    path = Path(__file__).resolve().parent.parent / "src" / "urylab" / "core.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = (["." * node.level + (node.module or alias.name)
                      for alias in node.names] if node.level
                     else [node.module])
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [name for name in names
                  if name.startswith(".") or name.split(".")[0] == "urylab"]
    assert found and set(found) == {".errors"}, found


def test_every_module_uses_each_name_it_imports():
    # an import nothing reads is dead code; the package's own re-exports,
    # listed in __all__, are the only names imported to be read elsewhere
    src = Path(__file__).resolve().parent.parent / "src" / "urylab"
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            read |= set(urylab.__all__)
        unused += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert not unused


@pytest.mark.parametrize("value", ["1/2", 0.5])
def test_rat_rejects_inexact_and_text_values(value):
    with pytest.raises(TypeError):
        rat(value)


def brute_force_metric_check(dist):
    """Independent oracle: scan all triples / pairs directly."""
    n = len(dist)
    for i in range(n):
        if dist[i][i] != 0:
            return False
    for i in range(n):
        for j in range(n):
            if i != j and (dist[i][j] <= 0 or dist[i][j] != dist[j][i]):
                return False
    for i, j, k in permutations(range(n), 3):
        if dist[i][k] > dist[i][j] + dist[j][k]:
            return False
    return True


def test_one_point_space_is_valid():
    space = FiniteMetricSpace.from_rows(("a",), ((0,),))
    assert validate_space(space).ok


def test_triangle_violation_is_reported_with_witness():
    space = FiniteMetricSpace.from_rows(
        ("a", "b", "c"), ((0, 1, 3), (1, 0, 1), (3, 1, 0)))
    report = validate_space(space)
    assert not report.ok
    triangles = [v for v in report.violations if v.kind == "triangle"]
    assert any(set(v.points) == {0, 1, 2} for v in triangles)


def test_shortest_path_closure_always_validates():
    rng = random.Random(20240817)
    for _ in range(25):
        space = random_space(rng, 6)
        assert validate_space(space).ok
        assert brute_force_metric_check(space.dist)


def test_validator_agrees_with_brute_force_on_corrupted_matrices():
    rng = random.Random(99)
    for _ in range(25):
        space = random_space(rng, 5)
        rows = [list(r) for r in space.dist]
        i, j = rng.sample(range(5), 2)
        rows[i][j] = rows[i][j] * 3 + 1  # symmetry (and possibly triangle) break
        broken = FiniteMetricSpace(space.labels,
                                   tuple(tuple(r) for r in rows))
        assert validate_space(broken).ok == brute_force_metric_check(broken.dist)
        assert not validate_space(broken).ok


def corrupted_matrix(rng, n, den):
    """A random metric or a random symmetric matrix over 1/den, with 0-4
    corruptions: one-sided, negative, zero and nonzero-diagonal entries."""
    if rng.random() < 0.5:
        rows = [list(r) for r in random_space(rng, n, den=den).dist]
    else:
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = F(rng.randint(1, 4 * den), den)
    for _ in range(rng.randint(0, 4) if n else 0):
        i, j = rng.randrange(n), rng.randrange(n)
        value = F(rng.randint(1, 4 * den), den)
        kind = rng.choice(("asymmetric", "negative", "zero", "diagonal"))
        if kind == "diagonal":
            rows[i][i] = value * rng.choice((-1, 1))
        elif i != j and kind == "asymmetric":
            rows[i][j] = value
        elif i != j:
            rows[i][j] = rows[j][i] = -value if kind == "negative" else F(0)
    return FiniteMetricSpace.from_rows([f"p{i}" for i in range(n)], rows)


def test_validator_report_equals_the_ordered_triple_scan():
    rng = random.Random(2024)
    kinds = set()
    for case in range(2040):
        space = corrupted_matrix(rng, case % 13, (1, 3, 8)[case % 3])
        report = validate_space(space)
        assert report.violations == validate_space_reference(space).violations
        kinds.update(v.kind for v in report.violations)
    assert kinds == {"diagonal", "negative", "symmetry", "identity",
                     "triangle"}
    demos = sorted((Path(__file__).resolve().parent.parent / "demos"
                    / "data").glob("*.ums"))
    assert demos
    for path in demos:
        space = io.parse_space(path.read_text())
        assert (validate_space(space).violations
                == validate_space_reference(space).violations)


HUGE = 10 ** (sys.get_int_max_str_digits() + 1)


@pytest.mark.skipif(not sys.get_int_max_str_digits(),
                    reason="int() digit limit is disabled")
@pytest.mark.parametrize("rows", [
    ((HUGE, 1), (1, 0)),
    ((0, -HUGE), (-HUGE, 0)),
    ((0, HUGE), (1, 0)),
    ((0, 1, HUGE), (1, 0, 1), (HUGE, 1, 0)),
], ids=["diagonal", "negative", "symmetry", "triangle"])
def test_a_violation_past_the_digit_limit_is_unreportable(rows):
    space = FiniteMetricSpace.from_rows(tuple("abc"[:len(rows)]), rows)
    with pytest.raises(UnreportableError, match="^Exceeds the limit"):
        validate_space(space)


def test_dimension_mismatch_is_structural():
    with pytest.raises(StructuralError):
        FiniteMetricSpace.from_rows(("a", "b"), ((0, 1),))


# --- with_point's sign test at its boundary ---------------------------------

EPS = F(1, 10 ** 6)
BIG_DEN = 10 ** 299 + 7  # 300 digits
one_point = FiniteMetricSpace.from_rows(("a",), ((0,),))


@pytest.mark.parametrize("value", [0, F(0), -EPS, F(-1, BIG_DEN)])
def test_with_point_refuses_a_nonpositive_entry(value):
    for space, row in ((one_point, (value,)),
                       (one_point.with_point("b", (1,)), (1, value))):
        with pytest.raises(StructuralError,
                           match="^new point at nonpositive distance$"):
            space.with_point("q", row)


@pytest.mark.parametrize("value", [EPS, F(1, BIG_DEN), F(BIG_DEN + 1, BIG_DEN),
                                   2])
def test_with_point_takes_a_positive_entry_as_a_fraction(value):
    grown = one_point.with_point("q", (value,))
    assert grown.labels == ("a", "q")
    assert grown.dist == ((0, value), (value, 0))
    assert all(type(v) is F for row in grown.dist for v in row)


@pytest.mark.parametrize("value", [0.5, -0.5, 0.0])
def test_with_point_rejects_a_float(value):
    with pytest.raises(TypeError, match=f"^not an exact rational: {value}$"):
        one_point.with_point("q", (value,))


two_point = FiniteMetricSpace.from_rows(
    ("a", "b", "fa", "fb"),
    ((0, 1, 2, 2), (1, 0, 2, 2), (2, 2, 0, F(3, 2)), (2, 2, F(3, 2), 0)))


def test_lip_of_isometry_is_one():
    f = PartialMap((0, 1), (0, 1))
    space = FiniteMetricSpace.from_rows(("a", "b"), ((0, 2), (2, 0)))
    assert lip_constant(f, space) == 1


def test_lip_single_stretched_pair():
    # d(a,b) = 1, d(f(a),f(b)) = 3/2: max(3/2, 2/3) = 3/2
    f = PartialMap((0, 1), (2, 3))
    assert lip_constant(f, two_point) == F(3, 2)


def test_lip_singleton_convention():
    f = PartialMap((0,), (2,))
    assert lip_constant(f, two_point) == 1
    assert lip_constant(PartialMap((), ()), two_point) == 1


def test_lip_degenerate_zero_distance():
    space = FiniteMetricSpace(("a", "b", "c"),
                              ((F(0), F(0), F(1)),
                               (F(0), F(0), F(1)),
                               (F(1), F(1), F(0))))
    with pytest.raises(DegenerateInputError):
        lip_constant(PartialMap((0, 1), (1, 2)), space)


def test_lip_equals_lip_of_inverse():
    rng = random.Random(4)
    for _ in range(20):
        space = random_space(rng, 6)
        idx = rng.sample(range(6), 4)
        f = PartialMap(tuple(idx[:2]), tuple(idx[2:]))
        assert lip_constant(f, space) == lip_constant(f.inverse(), space)


def test_goodness_center_fixed_point():
    space = FiniteMetricSpace.from_rows(("x",), ((0,),))
    report = goodness_check(PartialMap((0,), (0,)), Ball(0, F(10)), 4, space)
    assert report.ok
    assert report.forward_slack == F(10, 4)
    assert report.backward_slack == F(10, 4)


worked = FiniteMetricSpace.from_rows(
    ("x1", "x", "y"),
    ((0, 1, F(5, 4)), (1, 0, F(35, 16)), (F(5, 4), F(35, 16), 0)))


def test_goodness_worked_pair_slack():
    # pair at distance 35/16 with (r - d(x, x1))/N = 36/16: slack 1/16
    f = PartialMap((0, 1), (0, 2))
    report = goodness_check(f, Ball(0, F(10)), 4, worked)
    assert report.ok
    assert report.forward_slack == F(1, 16)
    assert report.backward_slack == 0


def test_goodness_failure():
    # d(y, f(y)) = 5 > 4 = (r - d(y, x))/N
    space = FiniteMetricSpace.from_rows(
        ("c", "y", "fy"), ((0, 2, 2), (2, 0, 5), (2, 5, 0)))
    report = goodness_check(PartialMap((0, 1), (0, 2)), Ball(0, 18), 4, space)
    assert not report.ok
    assert report.forward_slack == F(18 - 2, 4) - 5


def test_goodness_point_on_boundary_rejected():
    f = PartialMap((0, 1), (0, 2))
    with pytest.raises(PreconditionError):
        goodness_check(f, Ball(0, F(5, 4)), 4, worked)  # y sits exactly on r


def test_goodness_symmetric_in_inversion():
    f = PartialMap((0, 1), (0, 2))
    ball = Ball(0, F(10))
    a = goodness_check(f, ball, 4, worked)
    b = goodness_check(f.inverse(), ball, 4, worked)
    assert a.ok == b.ok
    assert a.forward_slack == b.backward_slack
    assert a.backward_slack == b.forward_slack


def test_goodness_monotone_in_parameter():
    f = PartialMap((0, 1), (0, 2))
    ball = Ball(0, F(10))
    assert goodness_check(f, ball, 4, worked).ok
    for weaker in (F(7, 2), 3, 2, F(1, 2)):
        assert goodness_check(f, ball, weaker, worked).ok


def test_partial_map_injectivity():
    with pytest.raises(StructuralError):
        PartialMap((0, 1), (2, 2))
    with pytest.raises(StructuralError):
        PartialMap((0, 0), (1, 2))
