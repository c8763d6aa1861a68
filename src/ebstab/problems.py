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
``t`` (written without spaces: ``t``, ``-t``, ``2*t``, ``1-0.5*t``).
"""

from __future__ import annotations

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
from .systems import FiniteFamily, IndexedFamily, IntervalFamily, materialize_sup

_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_UNUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_SCALAR_T = re.compile(
    rf"(?:(?P<a>{_NUM})(?P<op>[+-]))?(?P<bsign>[+-])?(?:(?P<b>{_UNUM})\*)?t"
)


@dataclass
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
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of line", self.line, 0)
        if expect is not None and tok.text != expect:
            raise ParseError(f"expected '{expect}', got '{tok.text}'",
                             tok.line, tok.col)
        self.pos += 1
        return tok

    def done(self) -> bool:
        return self.pos >= len(self.tokens)


def _tokenize(text: str, line_no: int):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()[],":
            tokens.append(_Token(ch, line_no, i + 1))
            i += 1
            continue
        j = i
        while j < len(text) and not text[j].isspace() and text[j] not in "()[],":
            j += 1
        tokens.append(_Token(text[i:j], line_no, i + 1))
        i = j
    return tokens


def _scalar_rule(tok: _Token, allow_t: bool):
    """A scalar slot: a number, or (in templates) a+b*t. Returns t -> float."""
    try:
        value = float(tok.text)
        return lambda t, v=value: v
    except ValueError:
        pass
    if allow_t:
        m = _SCALAR_T.fullmatch(tok.text)
        if m:
            a = float(m.group("a")) if m.group("a") else 0.0
            op = -1.0 if m.group("op") == "-" else 1.0
            bsign = -1.0 if m.group("bsign") == "-" else 1.0
            b = float(m.group("b")) if m.group("b") else 1.0
            coef = op * bsign * b
            return lambda t: a + coef * t
    raise ParseError(f"expected a number{' or t-rule' if allow_t else ''}, "
                     f"got '{tok.text}'", tok.line, tok.col)


def _int_arg(tok: _Token) -> int:
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError(f"expected an integer, got '{tok.text}'",
                         tok.line, tok.col) from None


def _parse_vector(ts: _Stream, allow_t: bool):
    opener = ts.pop("[")
    rules = []
    while True:
        tok = ts.peek()
        if tok is None:
            raise ParseError("unterminated vector", opener.line, opener.col)
        if tok.text == "]":
            ts.pop()
            break
        if rules:
            ts.pop(",")
        rules.append(_scalar_rule(ts.pop(), allow_t))
    if not rules:
        raise ParseError("empty vector", opener.line, opener.col)
    return lambda t: np.array([r(t) for r in rules])


def _parse_matrix(ts: _Stream, allow_t: bool):
    opener = ts.pop("[")
    rows = []
    while True:
        tok = ts.peek()
        if tok is None:
            raise ParseError("unterminated matrix", opener.line, opener.col)
        if tok.text == "]":
            ts.pop()
            break
        if rows:
            ts.pop(",")
        rows.append(_parse_vector(ts, allow_t))
    if not rows:
        raise ParseError("empty matrix", opener.line, opener.col)
    return lambda t: np.array([r(t) for r in rows])


def _parse_expr(ts: _Stream, dim: int, allow_t: bool):
    """Parse one s-expression (parenthesized, or a bare atom form inside a
    family list).  Returns a builder t -> ConvexExpr."""
    tok = ts.peek()
    if tok is None:
        raise ParseError("expected an expression", ts.line, 0)
    if tok.text == "(":
        ts.pop()
        builder = _parse_head(ts, dim, allow_t, bare=False)
        ts.pop(")")
        return builder
    return _parse_head(ts, dim, allow_t, bare=True)


def _parse_head(ts: _Stream, dim: int, allow_t: bool, bare: bool):
    head_tok = ts.pop()
    head = head_tok.text
    if head == "const":
        c = _scalar_rule(ts.pop(), allow_t)
        return lambda t: Const(c(t), dim)
    if head == "affine":
        vec = _parse_vector(ts, allow_t)
        b = _scalar_rule(ts.pop(), allow_t)

        def build_affine(t):
            a = vec(t)
            if a.shape[0] != dim:
                raise ParseError(
                    f"affine vector has {a.shape[0]} entries, dim is {dim}",
                    head_tok.line, head_tok.col)
            return Affine(a, b(t))

        return build_affine
    if head == "norm":
        return lambda t: EuclidNorm(dim)
    if head == "abs":
        i = _int_arg(ts.pop())
        return lambda t: AbsCoord(i, dim)
    if head == "exp1d":
        i = _int_arg(ts.pop())
        s = _scalar_rule(ts.pop(), allow_t)
        return lambda t: Exp1D(i, s(t), dim)
    if head == "pospart2":
        i = _int_arg(ts.pop())
        return lambda t: PosPartSquare(i, dim)
    if head == "max":
        if bare:
            raise ParseError("max must be parenthesized", head_tok.line, head_tok.col)
        children = []
        while ts.peek() is not None and ts.peek().text != ")":
            children.append(_parse_expr(ts, dim, allow_t))
        if not children:
            raise ParseError("max needs at least one child",
                             head_tok.line, head_tok.col)
        return lambda t: Max([c(t) for c in children])
    if head == "sum":
        if bare:
            raise ParseError("sum must be parenthesized", head_tok.line, head_tok.col)
        pairs = []
        while ts.peek() is not None and ts.peek().text != ")":
            w_tok = ts.pop()
            w = _scalar_rule(w_tok, allow_t)
            child = _parse_expr(ts, dim, allow_t)
            pairs.append((w, child, w_tok))
        if not pairs:
            raise ParseError("sum needs at least one term",
                             head_tok.line, head_tok.col)

        def build_sum(t):
            terms = []
            for w, child, w_tok in pairs:
                weight = w(t)
                if weight < 0.0:
                    raise ParseError(
                        f"convexity rule: sum weight {weight:g} is negative",
                        w_tok.line, w_tok.col)
                terms.append((weight, child(t)))
            return Sum(terms)

        return build_sum
    if head == "compose":
        if bare:
            raise ParseError("compose must be parenthesized",
                             head_tok.line, head_tok.col)
        mat = _parse_matrix(ts, allow_t)
        vec = _parse_vector(ts, allow_t)
        probe = mat(0.0) if allow_t else mat(None)
        inner = _parse_expr(ts, probe.shape[0], allow_t)
        return lambda t: ComposeAffine(inner(t), mat(t), vec(t))
    raise ParseError(f"unknown expression head '{head}'",
                     head_tok.line, head_tok.col)


@dataclass
class ProblemFile:
    """A parsed, validated problem."""

    name: str
    dim: int
    expr: ConvexExpr | None = None
    family: IndexedFamily | None = None
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
        if key == "expr":
            builder = _parse_expr(ts, dim, allow_t=False)
            try:
                expr = builder(None)
            except (ConvexityViolation, DimensionMismatch, ValueError) as exc:
                raise ParseError(str(exc), line_no, 1) from exc
        elif key == "family":
            family = _parse_family(ts, dim, line_no)
        elif key == "slater":
            slater = _parse_vector(ts, False)(None)
        elif key == "point":
            point = _parse_vector(ts, False)(None)
        elif key == "box":
            box = parse_box(ts.tokens[ts.pos:], dim, line_no)
            ts.pos = len(ts.tokens)
        elif key == "tau":
            tau = _scalar_rule(ts.pop(), False)(None)
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
    """The box (lo, hi) from lo..hi ranges with lo < hi, one per each of
    dim axes, separated by spaces or commas.  tokens are the rest of a
    problem file's box line, or a --box argument as one string; errors
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
        los.append(lo)
        his.append(hi)
    if not los:
        raise ParseError("empty box argument", line_no, 1)
    if len(los) != dim:
        raise ParseError(f"box has {len(los)} axes, dim is {dim}", line_no, 1)
    return np.array(los), np.array(his)


def _parse_family(ts: _Stream, dim: int, line_no: int) -> IndexedFamily:
    kind_tok = ts.pop()
    if kind_tok.text == "finite":
        ts.pop("[")
        builders = []
        while True:
            tok = ts.peek()
            if tok is None:
                raise ParseError("unterminated family list", line_no, 1)
            if tok.text == "]":
                ts.pop()
                break
            if builders:
                ts.pop(",")
            builders.append(_parse_expr(ts, dim, allow_t=False))
        if not builders:
            raise ParseError("family needs at least one member", line_no, 1)
        try:
            members = [b(None) for b in builders]
        except (ConvexityViolation, DimensionMismatch, ValueError) as exc:
            raise ParseError(str(exc), line_no, 1) from exc
        return FiniteFamily(members)
    if kind_tok.text == "interval":
        lo = _scalar_rule(ts.pop(), False)(None)
        hi = _scalar_rule(ts.pop(), False)(None)
        grid = _int_arg(ts.pop())
        template_start = ts.pos
        builder = _parse_expr(ts, dim, allow_t=True)
        template_text = " ".join(
            t.text for t in ts.tokens[template_start:ts.pos]
        )
        try:
            return IntervalFamily(lo, hi, grid, builder,
                                  template_text=template_text)
        except (ConvexityViolation, DimensionMismatch, ValueError) as exc:
            raise ParseError(str(exc), line_no, 1) from exc
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
    elif isinstance(p.family, FiniteFamily):
        inner = ", ".join(serialize_expr(m) for m in p.family.members)
        lines.append(f"family finite [{inner}]")
    elif isinstance(p.family, IntervalFamily):
        if p.family.template_text is None:
            raise ValueError("interval family without template text cannot "
                             "be serialized")
        lines.append(
            f"family interval {_fmt(p.family.lo)} {_fmt(p.family.hi)} "
            f"{p.family.grid_count} {p.family.template_text}"
        )
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
