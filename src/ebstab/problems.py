"""Problem-file grammar: parsing, validation and canonical serialization.

Line-oriented, s-expression based, trivially diffable:

    # a comment
    name halfspace
    dim 2
    expr (affine [1.0, 0.0] -1.0)
    slater [0.0, 0.0]
    point [1.0, 0.0]
    box -3.0..3.0 -3.0..3.0
    tau 0.5

The function line is either ``expr <sexpr>`` or ``family finite [...]`` /
``family interval <lo> <hi> <grid> <sexpr>``.  Interval templates may use
the parameter ``t`` in scalar slots, restricted to coefficients affine in
``t`` (written without spaces: ``t``, ``-t``, ``2*t``, ``1-0.5*t``).  An
interval family's index set is its ``<grid>`` uniform points in
[lo, hi]; the template is parsed once per point, into one expression each.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConvexityViolation, DimensionMismatch, ParseError
from .expressions import (
    AbsCoord,
    Affine,
    ComposeAffine,
    Const,
    ConvexExpr,
    EuclidNorm,
    Exp1D,
    Max,
    PosPartSquare,
    Sum,
    _fmt,
    _fmt_vec,
)
from .systems import FiniteFamily, IntervalFamily, materialize_sup

_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_UNUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_SCALAR_T = re.compile(
    rf"(?:(?P<a>{_NUM})(?P<op>[+-]))?(?P<bsign>[+-])?(?:(?P<b>{_UNUM})\*)?t"
)
_TOKEN = re.compile(r"[()\[\],]|[^\s()\[\],]+")


@dataclass(slots=True)
class _Token:
    text: str
    line: int
    col: int


class _Stream:
    def __init__(self, tokens, line):
        self.tokens = tokens
        self.pos = 0
        self.line = line

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def pop(self, expect: str | None = None) -> _Token:
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of line", self.line, 0)
        tok = self.tokens[self.pos]
        if expect is not None and tok.text != expect:
            raise ParseError(f"expected '{expect}', got '{tok.text}'",
                             tok.line, tok.col)
        self.pos += 1
        return tok

    def done(self) -> bool:
        return self.pos >= len(self.tokens)


def _tokenize(text: str, line_no: int):
    return [_Token(m.group(), line_no, m.start() + 1)
            for m in _TOKEN.finditer(text)]


def _scalar(tok: _Token, t: float | None) -> float:
    """A scalar slot: a finite number, or inside a template (t not None)
    a+b*t at the template's grid parameter t."""
    try:
        value = float(tok.text)
        if not math.isfinite(value):
            raise ParseError(f"expected a finite number, got '{tok.text}'",
                             tok.line, tok.col)
        return value
    except ValueError:
        pass
    m = _SCALAR_T.fullmatch(tok.text) if t is not None else None
    if m:
        a = float(m.group("a")) if m.group("a") else 0.0
        op = -1.0 if m.group("op") == "-" else 1.0
        bsign = -1.0 if m.group("bsign") == "-" else 1.0
        b = float(m.group("b")) if m.group("b") else 1.0
        return a + op * bsign * b * t
    raise ParseError(f"expected a number{'' if t is None else ' or t-rule'}, "
                     f"got '{tok.text}'", tok.line, tok.col)


def _int_arg(tok: _Token) -> int:
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError(f"expected an integer, got '{tok.text}'",
                         tok.line, tok.col) from None


def _parse_list(ts: _Stream, read_item, unterminated: str, empty: str,
                at=None) -> list:
    """The items of a bracketed, comma-separated list; its errors point at
    the opening bracket unless ``at`` gives a (line, col)."""
    opener = ts.pop("[")
    line, col = at or (opener.line, opener.col)
    items = []
    while (tok := ts.peek()) is None or tok.text != "]":
        if tok is None:
            raise ParseError(unterminated, line, col)
        if items:
            ts.pop(",")
        items.append(read_item())
    ts.pop()
    if not items:
        raise ParseError(empty, line, col)
    return items


def _parse_vector(ts: _Stream, t: float | None) -> np.ndarray:
    return np.array(_parse_list(ts, lambda: _scalar(ts.pop(), t),
                                "unterminated vector", "empty vector"))


def _parse_matrix(ts: _Stream, t: float | None) -> np.ndarray:
    return np.array(_parse_list(ts, lambda: _parse_vector(ts, t),
                                "unterminated matrix", "empty matrix"))


def _parse_expr(ts: _Stream, dim: int, t: float | None) -> ConvexExpr:
    """Parse one s-expression (parenthesized, or a bare atom form inside a
    family list).  t is the grid parameter of an interval template, None
    outside one."""
    tok = ts.peek()
    if tok is None:
        raise ParseError("expected an expression", ts.line, 0)
    if tok.text == "(":
        ts.pop()
        expr = _parse_head(ts, dim, t, bare=False)
        ts.pop(")")
        return expr
    return _parse_head(ts, dim, t, bare=True)


def _parse_head(ts: _Stream, dim: int, t: float | None, bare: bool) -> ConvexExpr:
    head_tok = ts.pop()
    head = head_tok.text
    if head in ("max", "sum", "compose") and bare:
        raise ParseError(f"{head} must be parenthesized",
                         head_tok.line, head_tok.col)
    if head == "const":
        return Const(_scalar(ts.pop(), t), dim)
    if head == "affine":
        a = _parse_vector(ts, t)
        b = _scalar(ts.pop(), t)
        if a.shape[0] != dim:
            raise ParseError(
                f"affine vector has {a.shape[0]} entries, dim is {dim}",
                head_tok.line, head_tok.col)
        return Affine(a, b)
    if head == "norm":
        return EuclidNorm(dim)
    if head == "abs":
        return AbsCoord(_int_arg(ts.pop()), dim)
    if head == "exp1d":
        i = _int_arg(ts.pop())
        return Exp1D(i, _scalar(ts.pop(), t), dim)
    if head == "pospart2":
        return PosPartSquare(_int_arg(ts.pop()), dim)
    if head == "max":
        children = []
        while ts.peek() is not None and ts.peek().text != ")":
            children.append(_parse_expr(ts, dim, t))
        if not children:
            raise ParseError("max needs at least one child",
                             head_tok.line, head_tok.col)
        return Max(children)
    if head == "sum":
        terms = []
        while ts.peek() is not None and ts.peek().text != ")":
            w_tok = ts.pop()
            weight = _scalar(w_tok, t)
            if weight < 0.0:
                raise ParseError(
                    f"convexity rule: sum weight {weight:g} is negative",
                    w_tok.line, w_tok.col)
            terms.append((weight, _parse_expr(ts, dim, t)))
        if not terms:
            raise ParseError("sum needs at least one term",
                             head_tok.line, head_tok.col)
        return Sum(terms)
    if head == "compose":
        mat = _parse_matrix(ts, t)
        vec = _parse_vector(ts, t)
        return ComposeAffine(_parse_expr(ts, mat.shape[0], t), mat, vec)
    raise ParseError(f"unknown expression head '{head}'",
                     head_tok.line, head_tok.col)


@dataclass
class ProblemFile:
    """A parsed, validated problem."""

    name: str
    dim: int
    expr: ConvexExpr | None = None
    family: FiniteFamily | None = None
    slater: np.ndarray | None = None
    point: np.ndarray | None = None
    box: tuple | None = None
    tau: float | None = None

    def function_expr(self) -> ConvexExpr:
        """The single convex function under analysis (sup for families)."""
        if self.expr is not None:
            return self.expr
        return materialize_sup(self.family)

    def __eq__(self, other):
        if not isinstance(other, ProblemFile):
            return NotImplemented
        return serialize_problem(self) == serialize_problem(other)


def parse_problem(text: str) -> ProblemFile:
    """Parse and validate a problem file; raises ParseError with line and
    column diagnostics on failure."""
    name = "problem"
    dim = None
    expr = None
    family = None
    slater = None
    point = None
    box = None
    tau = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = _tokenize(line, line_no)
        ts = _Stream(tokens, line_no)
        key = ts.pop().text
        if key == "name":
            name = " ".join(t.text for t in tokens[1:]) or name
            continue
        if key == "dim":
            dim = _int_arg(ts.pop())
            if dim < 1:
                raise ParseError("dim must be positive", line_no, 1)
            continue
        if dim is None:
            raise ParseError(f"'{key}' before 'dim' declaration", line_no, 1)
        if key in ("expr", "family"):
            # a node that rejects its arguments fails the whole line
            try:
                if key == "expr":
                    expr = _parse_expr(ts, dim, None)
                else:
                    family = _parse_family(ts, dim, line_no)
            except (ConvexityViolation, DimensionMismatch, ValueError) as exc:
                raise ParseError(str(exc), line_no, 1) from exc
        elif key == "slater":
            slater = _parse_vector(ts, None)
        elif key == "point":
            point = _parse_vector(ts, None)
        elif key == "box":
            box = parse_box(ts.tokens[ts.pos:], dim, line_no)
            ts.pos = len(ts.tokens)
        elif key == "tau":
            tau = _scalar(ts.pop(), None)
            if tau <= 0:
                raise ParseError("tau must be positive", line_no, 1)
        else:
            raise ParseError(f"unknown directive '{key}'", line_no, 1)
        if not ts.done():
            extra = ts.peek()
            raise ParseError(f"trailing input '{extra.text}'",
                             extra.line, extra.col)

    if dim is None:
        raise ParseError("missing 'dim' declaration")
    if (expr is None) == (family is None):
        raise ParseError("exactly one of 'expr' or 'family' is required")

    problem = ProblemFile(name=name, dim=dim, expr=expr, family=family,
                          slater=slater, point=point, box=box, tau=tau)
    _validate_problem(problem)
    return problem


def parse_box(tokens, dim: int, line_no: int = 0) -> tuple:
    """The box (lo, hi) from lo..hi ranges with finite lo < hi and a finite
    width hi - lo, one per each of dim axes, separated by spaces or commas,
    with a finite squared diagonal ||hi - lo||^2.  tokens are the rest of
    a problem file's box line, or a --box argument as one string; errors
    carry the line and column of the bad range in a file, and no location
    for an argument (line 0)."""
    if isinstance(tokens, str):
        tokens = _tokenize(tokens, 0)
    los, his = [], []
    for tok in tokens:
        if tok.text == ",":
            continue
        if ".." not in tok.text:
            raise ParseError(f"box axis must be lo..hi, got '{tok.text}'",
                             tok.line, tok.col)
        lo_s, hi_s = tok.text.split("..", 1)
        try:
            lo, hi = float(lo_s), float(hi_s)
        except ValueError:
            raise ParseError(f"bad box range '{tok.text}'",
                             tok.line, tok.col) from None
        if not lo < hi:
            raise ParseError(f"box range '{tok.text}' needs lo < hi",
                             tok.line, tok.col)
        if not np.isfinite([lo, hi]).all():
            raise ParseError(f"box range '{tok.text}' needs finite ends",
                             tok.line, tok.col)
        if not np.isfinite(hi - lo):
            raise ParseError(f"box range '{tok.text}' needs a finite width",
                             tok.line, tok.col)
        los.append(lo)
        his.append(hi)
    if not los:
        raise ParseError("empty box argument", line_no, 1)
    if len(los) != dim:
        raise ParseError(f"box has {len(los)} axes, dim is {dim}", line_no, 1)
    if not np.isfinite(sum((h - lo) * (h - lo) for lo, h in zip(los, his))):
        raise ParseError("box needs a finite squared diagonal", line_no, 1)
    return np.array(los), np.array(his)


def _parse_family(ts: _Stream, dim: int, line_no: int) -> FiniteFamily:
    kind_tok = ts.pop()
    if kind_tok.text == "finite":
        return FiniteFamily(_parse_list(
            ts, lambda: _parse_expr(ts, dim, None), "unterminated family list",
            "family needs at least one member", at=(line_no, 1)))
    if kind_tok.text == "interval":
        lo = _scalar(ts.pop(), None)
        hi = _scalar(ts.pop(), None)
        grid = _int_arg(ts.pop())
        # parse the template once to find its tokens, then once per grid t
        start = ts.pos
        _parse_expr(ts, dim, lo)
        template = ts.tokens[start:ts.pos]
        return IntervalFamily(
            lo, hi, grid,
            lambda t: _parse_expr(_Stream(template, line_no), dim, t),
            template_text=" ".join(tok.text for tok in template))
    raise ParseError(f"family kind must be finite or interval, got "
                     f"'{kind_tok.text}'", kind_tok.line, kind_tok.col)


def _validate_problem(p: ProblemFile) -> None:
    f = p.function_expr()
    if p.slater is not None:
        if p.slater.shape[0] != p.dim:
            raise ParseError(f"slater point has {p.slater.shape[0]} entries, "
                             f"dim is {p.dim}")
        if f._value(p.slater) >= 0.0:
            raise ParseError("declared slater point is not strictly feasible")
    if p.point is not None and p.point.shape[0] != p.dim:
        raise ParseError(f"point has {p.point.shape[0]} entries, dim is {p.dim}")


# ---------------------------------------------------------------------------
# Canonical serialization (numbers via repr for exact round-trips); each
# node writes its own text.

def serialize_expr(e: ConvexExpr) -> str:
    return e._text()


def serialize_problem(p: ProblemFile) -> str:
    lines = []
    if p.name != "problem":
        lines.append(f"name {p.name}")
    lines.append(f"dim {p.dim}")
    if p.expr is not None:
        lines.append(f"expr {serialize_expr(p.expr)}")
    else:
        lines.append(p.family._text())
    if p.slater is not None:
        lines.append(f"slater {_fmt_vec(p.slater)}")
    if p.point is not None:
        lines.append(f"point {_fmt_vec(p.point)}")
    if p.box is not None:
        ranges = " ".join(f"{_fmt(lo)}..{_fmt(hi)}"
                          for lo, hi in zip(p.box[0], p.box[1]))
        lines.append(f"box {ranges}")
    if p.tau is not None:
        lines.append(f"tau {_fmt(p.tau)}")
    return "\n".join(lines) + "\n"
