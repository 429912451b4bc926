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

import ast
import math
import re
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

# a number as the grammar reads it: digits and dots, then an optional
# exponent; float() decides whether it is one
_NUMBER = re.compile(r"[\d.]+(?:[eE][+-]?\d+)?")
_NAMES = {"z": Var(), "i": Const(1j), "j": Const(1j), "I": Const(1j),
          "pi": Const(complex(math.pi)), "e": Const(complex(math.e))}
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
_SIGNS = {ast.UAdd: 1, ast.USub: -1}


def parse_expr(text):
    """Parse expression text into an immutable AST.

    Python's expression parser reads the text after rewrites that keep
    every position: white space becomes a blank, a number literal becomes
    as many underscores as it has characters (so ``007`` and ``1e400`` are
    numbers, ``0x1`` and ``1j`` are not), and then ``^`` becomes ``**``.
    Only the nodes of the module's grammar become a tree.  Anything else,
    and any ``_``, ``#``, ``,``, backslash or ``**`` in the text, is a
    ParseError at its position in ``text``.
    """
    numbers = {}

    def mask(match):
        try:
            numbers[match.span()] = Const(complex(float(match.group())))
        except ValueError:
            raise ParseError(f"bad number {match.group()!r}",
                             match.start()) from None
        return "_" * len(match.group())

    masked = _NUMBER.sub(mask, re.sub(r"\s", " ", text))
    found = re.search(r"[_#,\\]|\*\*", text) or re.search(r"[^ -~]", masked)
    if found:
        raise ParseError(f"unexpected {found.group()!r}", found.start())
    lead = len(masked) - len(masked.lstrip())
    src = masked.lstrip().replace("^", "**")

    def at(offset):  # the position in text of an offset in src
        return lead + offset - src.count("**", 0, offset)

    def span(node):
        return at(node.col_offset), at(node.end_col_offset)

    def fail(node, message="unsupported"):
        start, end = span(node)
        raise ParseError(f"{message} {text[start:end]!r}", start)

    def exponent(node):  # an integer literal, signed or in parentheses
        if isinstance(node, ast.UnaryOp) and type(node.op) in _SIGNS:
            return _SIGNS[type(node.op)] * exponent(node.operand)
        leaf = numbers.get(span(node))
        if leaf is None or not leaf.value.real.is_integer():
            fail(node, "exponent must be an integer, not")
        return int(leaf.value.real)

    def convert(node):
        if isinstance(node, ast.Name):  # fail() raises
            return _NAMES.get(node.id) or numbers.get(span(node)) or fail(node)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return BinOp(_BINOPS[type(node.op)], convert(node.left),
                         convert(node.right))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            return Pow(convert(node.left), exponent(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return Neg(convert(node.operand))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
            return convert(node.operand)
        # a parenthesized function name starts after its call does
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCTIONS and len(node.args) == 1
                and not node.keywords
                and node.func.col_offset == node.col_offset):
            return Fun(node.func.id, convert(node.args[0]))
        fail(node)

    try:
        return convert(ast.parse(src, mode="eval").body)
    except SyntaxError as exc:
        start = at(exc.offset - 1) if exc.offset else len(text)
        raise ParseError(f"cannot parse {text[start:start + 1] or text!r}",
                         start) from None
    except RecursionError:
        raise ParseError(f"nested too deeply from {text[:8]!r}", 0) from None


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


# name -> (numpy function, Taylor rule (coefficients, n, center) -> coefficients)
_FUNCTIONS = {
    "exp": (np.exp, _series_exp),
    "log": (np.log, _series_log),
    "sin": (np.sin, lambda u, n, z: _series_sincos(u, n, z)[0]),
    "cos": (np.cos, lambda u, n, z: _series_sincos(u, n, z)[1]),
    "sqrt": (np.sqrt, _series_sqrt),
}


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
        rule = _FUNCTIONS[node.name][1]
        return rule(series_coefficients(node.arg, center, n), n, center)
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
    """Taylor expansion as a PowerSeries; trust radius estimated from the tail."""
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
        return _FUNCTIONS[node.name][0](eval_array(node.arg, zs))
    raise TypeError(f"not an AST node: {node!r}")
