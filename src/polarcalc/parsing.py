"""Tokenizer and expression parser for the session grammar.

Expressions mix exact rationals, TAU, chart coordinates, `+ - * / ^`,
`d(...)`, `dlog(...)` and the infix `wedge` operator.  Evaluation
produces either a RationalFunction (0-form) or a DifferentialForm.
Positions are tracked for error reporting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .forms import DifferentialForm
from .polynomials import Polynomial, RationalFunction


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        self.reason = message
        if line is not None:
            message = "line %d, col %d: %s" % (line, col, message)
        super().__init__(message)
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>\d+)
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
  | (?P<op>\^|[-+*/(),;=\[\]{}])
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str  # number | name | op | end
    text: str
    line: int
    col: int


def tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise ParseError("unexpected character %r" % text[i], line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, tok, line, col))
        nl = tok.count("\n")
        if nl:
            line += nl
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        i = m.end()
    tokens.append(Token("end", "", line, col))
    return tokens


class TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "end":
            self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            raise ParseError("expected %r, found %r" % (text, t.text or "<end>"), t.line, t.col)
        return self.next()

    def expect_name(self, what: str) -> Token:
        t = self.peek()
        if t.kind != "name":
            raise ParseError("expected %s" % what, t.line, t.col)
        return self.next()

    def accept(self, text: str):
        if self.peek().text == text:
            return self.next()
        return None

    def at_name(self, text=None) -> bool:
        t = self.peek()
        return t.kind == "name" and (text is None or t.text == text)


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------

_BIN_PRECEDENCE = {"+": 10, "-": 10, "*": 20, "/": 20, "wedge": 20, "^": 30}


class ExprContext:
    """Name resolution for expression evaluation.

    coords: ordered coordinate names of the active chart (or inferred).
    chart: chart id carried on produced forms.
    """

    def __init__(self, coords, chart=""):
        self.coords = tuple(coords)
        self.chart = chart


def parse_expression(ts: TokenStream, ctx: ExprContext, min_prec=0):
    value = _parse_prefix(ts, ctx)
    while True:
        t = ts.peek()
        op = t.text if t.text in ("+", "-", "*", "/", "^") else (
            "wedge" if ts.at_name("wedge") else None
        )
        if op is None or _BIN_PRECEDENCE[op] < min_prec:
            return value
        ts.next()
        if op == "^":
            rhs = _parse_prefix(ts, ctx)
            value = _apply_pow(value, rhs, t)
        else:
            rhs = parse_expression(ts, ctx, _BIN_PRECEDENCE[op] + 1)
            value = _apply_binop(op, value, rhs, ctx, t)


def _parse_prefix(ts: TokenStream, ctx: ExprContext):
    t = ts.peek()
    if t.text == "-":
        ts.next()  # -z^2 is -(z^2): the power binds first
        return _negate(parse_expression(ts, ctx, _BIN_PRECEDENCE["^"]))
    if t.text == "+":
        ts.next()
        return _parse_prefix(ts, ctx)
    return _parse_atom(ts, ctx)


def _parse_atom(ts: TokenStream, ctx: ExprContext):
    t = ts.peek()
    if t.text == "(":
        ts.next()
        v = parse_expression(ts, ctx)
        ts.expect(")")
        return v
    if t.kind == "number":
        ts.next()
        return RationalFunction.constant(ctx.coords, int(t.text))
    if t.kind == "name":
        name = t.text
        ts.next()
        if name == "TAU":
            return RationalFunction.constant(ctx.coords, Polynomial.scalar(1, 1))
        if name in ("d", "dlog") and ts.peek().text == "(":
            ts.next()
            inner = parse_expression(ts, ctx)
            ts.expect(")")
            if isinstance(inner, DifferentialForm):
                if name == "dlog":
                    raise ParseError("dlog needs a function argument", t.line, t.col)
                return inner.exterior_derivative()
            f0 = DifferentialForm.function(ctx.chart, ctx.coords, inner)
            df = f0.exterior_derivative()
            if name == "dlog":
                if inner.is_zero():
                    raise ParseError("dlog(0) is undefined", t.line, t.col)
                df = df.multiply(
                    RationalFunction.constant(ctx.coords, 1) / inner
                )
            return df
        if name in ctx.coords:
            return RationalFunction.variable(ctx.coords, name)
        raise ParseError("unknown identifier %r" % name, t.line, t.col)
    raise ParseError(
        "expected a number, name or '(' , found %r" % (t.text or "<end>"), t.line, t.col
    )


def _negate(v):
    return -v


def _as_form(v, ctx):
    if isinstance(v, DifferentialForm):
        return v
    return DifferentialForm.function(ctx.chart, ctx.coords, v)


def _apply_pow(base, exp, tok):
    if isinstance(base, DifferentialForm) or isinstance(exp, DifferentialForm):
        raise ParseError(
            "^ between forms means wedge; between functions it is a power",
            tok.line,
            tok.col,
        )
    if not (exp.is_constant() and exp.constant_value().is_rational()):
        raise ParseError("exponent must be an integer", tok.line, tok.col)
    q = exp.constant_value().rational_value()
    if q.denominator != 1:
        raise ParseError("exponent must be an integer", tok.line, tok.col)
    return base ** int(q)


def _apply_binop(op, a, b, ctx, tok):
    a_form = isinstance(a, DifferentialForm)
    b_form = isinstance(b, DifferentialForm)
    if op == "wedge":
        return _as_form(a, ctx).wedge(_as_form(b, ctx))
    if op in ("+", "-"):
        if a_form or b_form:
            fa, fb = _as_form(a, ctx), _as_form(b, ctx)
            return fa + fb if op == "+" else fa - fb
        return a + b if op == "+" else a - b
    if op == "*":
        if a_form and b_form:
            return a.wedge(b)
        if a_form:
            return a.multiply(b)
        if b_form:
            return b.multiply(a)
        return a * b
    if op == "/":
        if b_form:
            raise ParseError("cannot divide by a form", tok.line, tok.col)
        if a_form:
            one = RationalFunction.constant(ctx.coords, 1)
            return a.multiply(one / b)
        return a / b
    raise ParseError("unknown operator %r" % op, tok.line, tok.col)


# ---------------------------------------------------------------------------
# convenience entry points
# ---------------------------------------------------------------------------


def _parse_whole(text: str, ctx: ExprContext):
    ts = TokenStream(tokenize(text))
    v = parse_expression(ts, ctx)
    end = ts.peek()
    if end.kind != "end":
        raise ParseError("trailing input %r" % end.text, end.line, end.col)
    return v


def parse_rational(text: str, coords) -> RationalFunction:
    v = _parse_whole(text, ExprContext(coords))
    if isinstance(v, DifferentialForm):
        raise ParseError("expected a function, got a form")
    return v


def parse_polynomial(text: str, coords=None) -> Polynomial:
    if coords is None:
        names = sorted(
            {
                t.text
                for t in tokenize(text)
                if t.kind == "name" and t.text not in ("TAU", "d", "dlog", "wedge")
            }
        )
        coords = tuple(names)
    rf = parse_rational(text, coords)
    if not rf.is_polynomial():
        raise ParseError("expected a polynomial, got a proper fraction")
    return rf.num


def parse_form(text: str, coords, chart="") -> DifferentialForm:
    ctx = ExprContext(coords, chart)
    return _as_form(_parse_whole(text, ctx), ctx)
