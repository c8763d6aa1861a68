"""Problem-file parsing, validation and round-trip serialization."""

import math

import numpy as np
import pytest

from ebstab.errors import ParseError
from ebstab.expressions import Exp1D, Max, evaluate
from ebstab.problems import (_tokenize, parse_problem, serialize_expr,
                             serialize_problem)
from ebstab.systems import FiniteFamily, IntervalFamily

from conftest import sup_value, tilted_family


def test_parse_remark_tail_problem():
    p = parse_problem("dim 1\nexpr (exp1d 0 -1)\n")
    assert p.dim == 1
    assert p.expr == Exp1D(0, -1.0, 1)
    assert evaluate(p.expr, [0.0]) == 0.0


def test_parse_finite_family_bare_atoms():
    p = parse_problem("dim 2\nfamily finite [abs 0, abs 1]\n")
    assert isinstance(p.family, FiniteFamily)
    assert sup_value(p.family, [3.0, -4.0]) == 4.0


def test_parse_finite_family_parenthesized():
    p = parse_problem("dim 2\nfamily finite [(abs 0), (sum 1 (abs 1) 1 (const -0.5))]\n")
    assert sup_value(p.family, [0.0, 2.0]) == 1.5


def test_parse_negative_sum_weight_rejected():
    text = "dim 2\nexpr (sum 1 (affine [1, 0] 0) -1 (abs 1))\n"
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert "convexity" in str(exc.value)


def test_parse_full_problem():
    text = (
        "# comment line\n"
        "name halfspace\n"
        "dim 2\n"
        "expr (affine [1.0, 0.0] -1.0)\n"
        "slater [0.0, 0.0]\n"
        "point [1.0, 0.0]\n"
        "box -3.0..3.0 -3.0..3.0\n"
        "tau 0.5\n"
    )
    p = parse_problem(text)
    assert p.name == "halfspace"
    assert np.allclose(p.slater, [0.0, 0.0])
    assert np.allclose(p.point, [1.0, 0.0])
    assert np.allclose(p.box[0], [-3.0, -3.0])
    assert p.tau == 0.5


def test_parse_infeasible_slater_rejected():
    text = "dim 1\nexpr (exp1d 0 -1)\nslater [1.0]\n"
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert "slater" in str(exc.value)


def test_parse_dimension_mismatch_rejected():
    with pytest.raises(ParseError):
        parse_problem("dim 2\nexpr (affine [1.0] 0.0)\n")


@pytest.mark.parametrize("line, col, message", [
    ("box -3..3 oops", 11, "box axis must be lo..hi, got 'oops'"),
    ("box -3..x, -3..3", 5, "bad box range '-3..x'"),
    ("box", 1, "empty box argument"),
    ("box 1..-1 -1..1", 5, "box range '1..-1' needs lo < hi"),
    ("box -1..1 2..2", 11, "box range '2..2' needs lo < hi"),
    ("box -3..3", 1, "box has 1 axes, dim is 2"),
])
def test_parse_malformed_box_has_location(line, col, message):
    with pytest.raises(ParseError) as exc:
        parse_problem(f"dim 2\nexpr (norm)\n{line}\n")
    assert (exc.value.line, exc.value.col) == (3, col)
    assert str(exc.value) == f"line 3, col {col}: {message}"


def test_parse_box_commas_optional():
    a = parse_problem("dim 2\nexpr (norm)\nbox -3..3, -2..1\n").box
    b = parse_problem("dim 2\nexpr (norm)\nbox -3..3 -2..1\n").box
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert a[1].tolist() == [3.0, 1.0]


@pytest.mark.parametrize("line, tokens", [
    ("", []),
    (" \t ", []),
    ("\tdim 2", [("dim", 2), ("2", 6)]),
    ("expr (max(abs 0)(abs 1))",
     [("expr", 1), ("(", 6), ("max", 7), ("(", 10), ("abs", 11), ("0", 15),
      (")", 16), ("(", 17), ("abs", 18), ("1", 22), (")", 23), (")", 24)]),
    ("[[1, 2],[3,4]]",
     [("[", 1), ("[", 2), ("1", 3), (",", 4), ("2", 6), ("]", 7), (",", 8),
      ("[", 9), ("3", 10), (",", 11), ("4", 12), ("]", 13), ("]", 14)]),
    ("box -1..1\t-2..2", [("box", 1), ("-1..1", 5), ("-2..2", 11)]),
    # str.isspace() separators that are not ASCII blanks
    ("a\x1cb\xa0c\x0bd", [("a", 1), ("b", 3), ("c", 5), ("d", 7)]),
    ("tau 0.5  ", [("tau", 1), ("0.5", 5)]),
])
def test_tokenize_edge_lines(line, tokens):
    got = _tokenize(line, 7)
    assert [(t.text, t.col) for t in got] == tokens
    assert all(t.line == 7 for t in got)


def test_parse_missing_dim_rejected():
    with pytest.raises(ParseError):
        parse_problem("expr (norm)\n")


def test_parse_requires_exactly_one_function():
    with pytest.raises(ParseError):
        parse_problem("dim 1\n")
    with pytest.raises(ParseError):
        parse_problem("dim 1\nexpr (norm)\nfamily finite [(norm)]\n")


def test_parse_unknown_directive_has_location():
    with pytest.raises(ParseError) as exc:
        parse_problem("dim 1\nexpr (norm)\nwat 3\n")
    assert exc.value.line == 3


def test_parse_interval_family_template():
    text = "dim 2\nfamily interval 0.0 1.0 9 (affine [t, 1-1*t] -1.0)\n"
    p = parse_problem(text)
    assert isinstance(p.family, IntervalFamily)
    assert sup_value(p.family, [2.0, 0.5]) == pytest.approx(1.0, abs=1e-9)


def test_parse_compose():
    text = "dim 2\nexpr (compose [[0.0, 1.0], [1.0, 0.0]] [0.0, 0.0] (abs 0))\n"
    p = parse_problem(text)
    # inner |y_0| evaluated at (x2, x1): the whole thing is |x2|
    assert evaluate(p.expr, [3.0, -7.0]) == 7.0


def test_serialize_expr_round_trips_values():
    f = Max([Exp1D(0, -1.0, 2), Exp1D(1, 0.25, 2)])
    text = serialize_expr(f)
    p = parse_problem(f"dim 2\nexpr {text}\n")
    assert p.expr == f


@pytest.mark.parametrize("text", [
    "dim 1\nexpr (exp1d 0 -1)\n",
    "dim 2\nfamily finite [abs 0, abs 1]\n",
    "dim 2\nfamily finite [(sum 1 (abs 0) 0.25 (abs 1)), (affine [0.5, -1.0] 0.125)]\n",
    "name box-example\ndim 2\nexpr (sum 1 (max (abs 0) (abs 1)) 1 (const -1.0))\n"
    "slater [0.0, 0.0]\npoint [1.0, 0.0]\nbox -2.0..2.0 -1.0..1.0\ntau 0.25\n",
    "dim 2\nexpr (compose [[0.0, 2.0], [2.0, 0.0]] [0.5, -0.5] (norm))\n",
    "dim 2\nfamily interval 0.0 1.0 9 (affine [t, 1-1*t] -1.0)\n",
])
def test_round_trip(text):
    p1 = parse_problem(text)
    s1 = serialize_problem(p1)
    p2 = parse_problem(s1)
    assert p1 == p2
    assert serialize_problem(p2) == s1


def test_round_trip_preserves_exact_floats():
    value = 0.1 + 0.2  # not representable prettily
    p1 = parse_problem(f"dim 1\nexpr (affine [{value!r}] {math.pi!r})\n")
    p2 = parse_problem(serialize_problem(p1))
    assert p2.expr.a[0] == value
    assert p2.expr.b == math.pi


@pytest.mark.parametrize("text, line, col, message", [
    # the weight 1 - 2t is negative from t = 0.75 on the 5-point grid
    ("dim 1\nfamily interval 0 1 5 (sum 1-2*t (abs 0))\n", 2, 28,
     "convexity rule: sum weight -0.5 is negative"),
    ("dim 1\nexpr (const t)\n", 2, 13, "expected a number, got 't'"),
    ("dim 2\nfamily interval 0 1 5 (abs t)\n", 2, 28,
     "expected an integer, got 't'"),
    ("dim 2\nfamily finite []\n", 2, 1, "family needs at least one member"),
    ("dim 2\nfamily finite [abs 0, abs 1\n", 2, 1, "unterminated family list"),
    ("dim 1\nexpr (norm)\ntau inf\n", 3, 5, "expected a finite number, got 'inf'"),
    ("dim 1\nexpr (norm)\ntau nan\n", 3, 5, "expected a finite number, got 'nan'"),
    ("dim 2\nexpr (norm)\npoint [1.0, nan]\n", 3, 13,
     "expected a finite number, got 'nan'"),
    ("dim 2\nexpr (norm)\nslater [-inf, 0]\n", 3, 9,
     "expected a finite number, got '-inf'"),
    ("dim 2\nexpr (norm)\nbox -1..1 -inf..1\n", 3, 11,
     "box range '-inf..1' needs finite ends"),
    ("dim 2\nexpr (norm)\nbox -1..1 -1e308..1e308\n", 3, 11,
     "box range '-1e308..1e308' needs a finite width"),
    # each width is finite, but the squared diagonal overflows a double
    ("dim 2\nexpr (norm)\nbox -1e300..1e300 -1e300..1e300\n", 3, 1,
     "box needs a finite squared diagonal"),
], ids=["negative-weight-at-grid-t", "t-outside-template", "t-in-index-slot",
        "empty-family", "unterminated-family", "tau-inf", "tau-nan", "point-nan",
        "slater-inf", "box-inf", "box-width-inf", "box-diagonal-inf"])
def test_parse_error_message_and_location(text, line, col, message):
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert str(exc.value) == f"line {line}, col {col}: {message}"


def test_perturbed_interval_family_round_trips_as_finite():
    p = parse_problem("dim 2\nfamily interval 0.0 1.0 9 (affine [t, 1-1*t] -1.0)\n")
    p.family = tilted_family(p.family, [0.6, -0.8], 0.25, [1.0, 1.0])
    text = serialize_problem(p)
    assert text.startswith("dim 2\nfamily finite [")
    back = parse_problem(text)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=2) * 2.0
        assert sup_value(back.family, x) == sup_value(p.family, x)
