"""Closed-form analytic coefficient functions A(z).

A tiny expression language over complex constants, the variable ``z``,
the operators ``+ - * / ^`` (integer exponents only) and the functions
``exp``, ``log``, ``sin``, ``cos``, ``sqrt`` (principal branches).

Parsed expressions are immutable trees.  Derivatives are obtained by
forward jet propagation: the tree is interpreted over truncated Taylor
coefficient arrays, which gives exact derivatives up to rounding, never
finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import (
    MAX_DEGREE,
    PowerSeries,
    div_trunc,
    estimate_trust_radius,
    mul_trunc,
)

MAX_JET_ORDER = 4

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")


class ExprError(ValueError):
    """Base class for expression failures."""


class ParseError(ExprError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(ExprError):
    """Evaluation hit a pole or branch point; carries the point."""

    def __init__(self, message, z):
        super().__init__(f"{message} at z={z}")
        self.z = z


class BranchCutError(DomainError):
    """Principal-branch log/sqrt evaluated on the negative real cut."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Node:
    pass


@dataclass(frozen=True)
class Const(Node):
    value: complex


@dataclass(frozen=True)
class Var(Node):
    pass


@dataclass(frozen=True)
class Neg(Node):
    arg: Node


@dataclass(frozen=True)
class BinOp(Node):
    op: str  # one of + - * /
    left: Node
    right: Node


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: int


@dataclass(frozen=True)
class Fun(Node):
    name: str
    arg: Node


# ---------------------------------------------------------------------------
# Parsing

_OPS = set("+-*/^()")


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ParseError(f"bad number {text[i:j]!r}", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        node = self.sum_()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing {tok[1]!r}", tok[2])
        return node

    def sum_(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.unary())
        if self.peek()[0] == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            tok = self.advance()
            exponent = self.exponent()
            return Pow(base, exponent)
        return base

    def exponent(self):
        # right-associative; integer literal, possibly signed or parenthesized
        sign = 1
        while self.peek()[0] in ("-", "+"):
            if self.advance()[0] == "-":
                sign = -sign
        tok = self.peek()
        if tok[0] == "(":
            self.advance()
            value = sign * self.exponent()
            self.expect(")")
            return value
        if tok[0] != "num":
            raise ParseError("exponent must be an integer", tok[2])
        self.advance()
        if tok[1] != int(tok[1]):
            raise ParseError("exponent must be an integer", tok[2])
        value = sign * int(tok[1])
        if self.peek()[0] == "^":
            raise ParseError("nested exponent requires parentheses", self.peek()[2])
        return value

    def atom(self):
        tok = self.advance()
        if tok[0] == "num":
            return Const(complex(tok[1]))
        if tok[0] == "name":
            name = tok[1]
            if name == "z":
                return Var()
            if name in ("i", "j", "I"):
                return Const(1j)
            if name == "pi":
                return Const(complex(math.pi))
            if name == "e":
                return Const(complex(math.e))
            if name in FUNCTIONS:
                self.expect("(")
                arg = self.sum_()
                self.expect(")")
                return Fun(name, arg)
            raise ParseError(f"unknown identifier {name!r}", tok[2])
        if tok[0] == "(":
            node = self.sum_()
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def parse_expr(text):
    """Parse expression text into an immutable AST."""
    return _Parser(_tokenize(text)).parse()


# ---------------------------------------------------------------------------
# Printing (used by parse/print round-trip checks and Möbius substitution)


def _fmt_complex(value):
    if value.imag == 0:
        r = value.real
        if r == int(r) and abs(r) < 1e15:
            return str(int(r)) if r >= 0 else f"({int(r)})"
        return repr(r) if r >= 0 else f"({r!r})"
    if value.real == 0:
        im = value.imag
        if im == int(im):
            return f"({int(im)}*i)"
        return f"({im!r}*i)"
    return f"({value.real!r}+{value.imag!r}*i)"


def to_string(node):
    """Render an AST; parse(to_string(ast)) evaluates identically."""
    if isinstance(node, Const):
        return _fmt_complex(node.value)
    if isinstance(node, Var):
        return "z"
    if isinstance(node, Neg):
        return f"(-{to_string(node.arg)})"
    if isinstance(node, BinOp):
        return f"({to_string(node.left)}{node.op}{to_string(node.right)})"
    if isinstance(node, Pow):
        e = node.exponent
        e_str = str(e) if e >= 0 else f"({e})"
        return f"({to_string(node.base)}^{e_str})"
    if isinstance(node, Fun):
        return f"{node.name}({to_string(node.arg)})"
    raise TypeError(f"not an AST node: {node!r}")


def substitute(node, replacement):
    """Replace the variable z by another AST (function composition)."""
    if isinstance(node, (Const,)):
        return node
    if isinstance(node, Var):
        return replacement
    if isinstance(node, Neg):
        return Neg(substitute(node.arg, replacement))
    if isinstance(node, BinOp):
        return BinOp(node.op, substitute(node.left, replacement),
                     substitute(node.right, replacement))
    if isinstance(node, Pow):
        return Pow(substitute(node.base, replacement), node.exponent)
    if isinstance(node, Fun):
        return Fun(node.name, substitute(node.arg, replacement))
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# Jet propagation over truncated Taylor arrays


def _check_log_sqrt_arg(u0, z, name):
    if u0 == 0:
        raise DomainError(f"{name} of zero", z)
    if u0.imag == 0.0 and u0.real < 0.0:
        raise BranchCutError(f"{name} on the negative real cut", z)


def _series_exp(u, n, z):
    g = np.zeros(n, dtype=complex)
    g[0] = np.exp(u[0])
    for k in range(1, n):
        j = np.arange(1, k + 1)
        g[k] = np.dot(j * u[1 : k + 1], g[k - 1 :: -1][:k]) / k
    return g


def _series_log(u, n, z):
    _check_log_sqrt_arg(u[0], z, "log")
    g = np.zeros(n, dtype=complex)
    g[0] = np.log(u[0])
    if n > 1:
        du = u[1:] * np.arange(1, n)
        d = div_trunc(du, u, n - 1)
        g[1:] = d / np.arange(1, n)
    return g


def _series_sincos(u, n, z):
    s = np.zeros(n, dtype=complex)
    c = np.zeros(n, dtype=complex)
    s[0] = np.sin(u[0])
    c[0] = np.cos(u[0])
    for k in range(1, n):
        j = np.arange(1, k + 1)
        du = j * u[1 : k + 1]
        s[k] = np.dot(du, c[k - 1 :: -1][:k]) / k
        c[k] = -np.dot(du, s[k - 1 :: -1][:k]) / k
    return s, c


def _series_sqrt(u, n, z):
    _check_log_sqrt_arg(u[0], z, "sqrt")
    g = np.zeros(n, dtype=complex)
    g[0] = np.sqrt(u[0])
    for k in range(1, n):
        acc = u[k] if k < len(u) else 0.0
        if k >= 2:
            acc = acc - np.dot(g[1:k], g[k - 1 : 0 : -1])
        g[k] = acc / (2 * g[0])
    return g


def _series_pow(u, m, n, z):
    if m == 0:
        g = np.zeros(n, dtype=complex)
        g[0] = 1.0
        return g
    neg = m < 0
    m = abs(m)
    # binary powering with truncation
    result = None
    base = u.copy()
    while m:
        if m & 1:
            result = base.copy() if result is None else mul_trunc(result, base, n)
        m >>= 1
        if m:
            base = mul_trunc(base, base, n)
    if neg:
        if result[0] == 0:
            raise DomainError("negative power of zero", z)
        one = np.zeros(n, dtype=complex)
        one[0] = 1.0
        result = div_trunc(one, result, n)
    return result


def series_coefficients(node, center, n):
    """First n Taylor coefficients of the expression about ``center``."""
    center = complex(center)
    if isinstance(node, Const):
        g = np.zeros(n, dtype=complex)
        g[0] = node.value
        return g
    if isinstance(node, Var):
        g = np.zeros(n, dtype=complex)
        g[0] = center
        if n > 1:
            g[1] = 1.0
        return g
    if isinstance(node, Neg):
        return -series_coefficients(node.arg, center, n)
    if isinstance(node, BinOp):
        a = series_coefficients(node.left, center, n)
        b = series_coefficients(node.right, center, n)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return mul_trunc(a, b, n)
        if node.op == "/":
            if b[0] == 0:
                raise DomainError("division by zero", center)
            return div_trunc(a, b, n)
        raise TypeError(f"unknown operator {node.op!r}")
    if isinstance(node, Pow):
        u = series_coefficients(node.base, center, n)
        return _series_pow(u, node.exponent, n, center)
    if isinstance(node, Fun):
        u = series_coefficients(node.arg, center, n)
        if node.name == "exp":
            return _series_exp(u, n, center)
        if node.name == "log":
            return _series_log(u, n, center)
        if node.name == "sin":
            return _series_sincos(u, n, center)[0]
        if node.name == "cos":
            return _series_sincos(u, n, center)[1]
        if node.name == "sqrt":
            return _series_sqrt(u, n, center)
        raise TypeError(f"unknown function {node.name!r}")
    raise TypeError(f"not an AST node: {node!r}")


def eval_jet(node, z, order=0):
    """(f(z), f'(z), ..., f^(order)(z)) by forward jet propagation."""
    if order < 0 or order > MAX_JET_ORDER:
        raise ValueError(f"jet order must be in [0, {MAX_JET_ORDER}]")
    coeffs = series_coefficients(node, z, order + 1)
    factorials = np.array([math.factorial(k) for k in range(order + 1)])
    return list(coeffs * factorials)


def evaluate(node, z):
    return eval_jet(node, z, 0)[0]


def taylor_at(node, center, degree):
    """Taylor expansion as a PowerSeries; trust radius certified from the tail."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} exceeds the maximum {MAX_DEGREE}")
    coeffs = series_coefficients(node, center, degree + 1)
    return PowerSeries(complex(center), coeffs, estimate_trust_radius(coeffs))


def eval_array(node, zs):
    """Vectorized order-0 evaluation with numpy semantics.

    Branch cuts and poles follow numpy conventions (inf/nan) instead of
    raising; intended for dense quadrature grids where the caller controls
    the domain.
    """
    zs = np.asarray(zs, dtype=complex)
    if isinstance(node, Const):
        return np.full(zs.shape, node.value, dtype=complex)
    if isinstance(node, Var):
        return zs.copy()
    if isinstance(node, Neg):
        return -eval_array(node.arg, zs)
    if isinstance(node, BinOp):
        a = eval_array(node.left, zs)
        b = eval_array(node.right, zs)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return a / b
    if isinstance(node, Pow):
        return eval_array(node.base, zs) ** node.exponent
    if isinstance(node, Fun):
        u = eval_array(node.arg, zs)
        return {"exp": np.exp, "log": np.log, "sin": np.sin,
                "cos": np.cos, "sqrt": np.sqrt}[node.name](u)
    raise TypeError(f"not an AST node: {node!r}")
