"""Tiny closed expression grammar for configuration files.

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | power
    power  := atom ('^' number)?
    atom   := number | 'x' | 'y' | sin(expr) | cos(expr) | abs(expr) | (expr)

Exponents are numeric literals (fractional and negative allowed); a
fractional power of a negative base is a domain error at evaluation.
Parsed expressions evaluate vectorized over points of shape (m, n);
they are not differentiated. A coefficient that the operator tools
need a gradient of comes from ``CoefficientField.analytic(func, grad)``
with a caller-supplied gradient.
"""

import re

import numpy as np

from .errors import ParseError, ValidationError

__all__ = ["Expression", "compile_expression"]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]+)"
    r"|(?P<op>[-+*^()]))"
)

_UFUNCS = {"sin": np.sin, "cos": np.cos, "abs": np.abs}


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise ParseError(f"unreadable expression near {text[pos:pos+12]!r}")
        if m.group("num") is not None:
            out.append(("num", float(m.group("num"))))
        elif m.group("name") is not None:
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    return out


class _Num:
    def __init__(self, value):
        self.value = float(value)

    def eval(self, pts):
        return np.full(pts.shape[0], self.value)


class _Var:
    def __init__(self, axis):
        self.axis = axis

    def eval(self, pts):
        if pts.shape[1] <= self.axis:
            raise ValidationError("expression uses 'y' on a 1D domain")
        return pts[:, self.axis]


class _Bin:
    def __init__(self, left, right):
        self.left = left
        self.right = right


class _Add(_Bin):
    def eval(self, pts):
        return self.left.eval(pts) + self.right.eval(pts)


class _Sub(_Bin):
    def eval(self, pts):
        return self.left.eval(pts) - self.right.eval(pts)


class _Mul(_Bin):
    def eval(self, pts):
        return self.left.eval(pts) * self.right.eval(pts)


class _Neg:
    def __init__(self, arg):
        self.arg = arg

    def eval(self, pts):
        return -self.arg.eval(pts)


class _Pow:
    def __init__(self, base, exponent):
        self.base = base
        self.exponent = float(exponent)

    def eval(self, pts):
        b = self.base.eval(pts)
        r = self.exponent
        if r == float(int(r)):
            return b ** int(r)
        if np.any(b < 0.0):
            raise ValidationError(
                f"negative base under fractional power ^{r:g}; guard with abs()"
            )
        return b**r


class _Fun:
    def __init__(self, name, arg):
        self.name = name
        self.arg = arg

    def eval(self, pts):
        return _UFUNCS[self.name](self.arg.eval(pts))


class _Parser:
    def __init__(self, tokens, source):
        self.tokens = tokens
        self.pos = 0
        self.source = source

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r} in expression {self.source!r}")

    def parse(self):
        node = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing tokens in expression {self.source!r}")
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                node = _Add(node, rhs) if val == "+" else _Sub(node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                node = _Mul(node, self.factor())
            else:
                return node

    def factor(self):
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return _Neg(self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            sign = 1.0
            kind, val = self.peek()
            if kind == "op" and val == "-":
                self.take()
                sign = -1.0
            kind, val = self.take()
            if kind != "num":
                raise ParseError(f"exponent must be a numeric literal in {self.source!r}")
            node = _Pow(node, sign * val)
        return node

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return _Num(val)
        if kind == "name":
            if val == "x":
                return _Var(0)
            if val == "y":
                return _Var(1)
            if val in _UFUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return _Fun(val, arg)
            raise ParseError(f"unknown name {val!r} in expression {self.source!r}")
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token in expression {self.source!r}")


class Expression:
    """Compiled expression, evaluated vectorized over points (m, n)."""

    def __init__(self, node, source):
        self._node = node
        self.source = source

    def __call__(self, pts):
        # a pole or an overflow gives inf or nan, not a warning: the callers'
        # finiteness checks raise the typed error
        pts = np.asarray(pts, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return self._node.eval(pts)


def compile_expression(text):
    """Parse ``text`` into an :class:`Expression`; raises ParseError."""
    tokens = _tokenize(text.strip())
    if not tokens:
        raise ParseError("empty expression")
    node = _Parser(tokens, text.strip()).parse()
    return Expression(node, text.strip())
