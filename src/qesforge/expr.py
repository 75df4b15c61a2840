"""Expression front-end for generating functions U(x).

Grammar (standard precedence, ^ binds tightest and is right-associative):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' exponent)?
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Exponents are restricted to integer literals (optionally negated, chains fold
right-associatively), which keeps jet arithmetic closed over the reals.
Recognized identifiers: the variable x, parameters eps0/eps1, the constant pi,
and the function names sin cos tan sinh cosh tanh exp sqrt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import ParseError, UnknownIdentifierError

PARAMETERS = ("eps0", "eps1")
FUNCTION_NAMES = tuple(jets.FUNCTIONS)


class Node:
    pass


@dataclass(frozen=True)
class Num(Node):
    value: float


@dataclass(frozen=True)
class Var(Node):
    pass


@dataclass(frozen=True)
class Param(Node):
    name: str


@dataclass(frozen=True)
class Neg(Node):
    operand: Node


@dataclass(frozen=True)
class BinOp(Node):
    op: str
    left: Node
    right: Node


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: int


@dataclass(frozen=True)
class Call(Node):
    func: str
    arg: Node


@dataclass(frozen=True)
class Expression:
    """Parsed closed-form expression, immutable and reusable across evaluations."""

    root: Node
    source: str


_TOKEN_OPS = set("+-*/^()")


def _tokenize(source: str):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
                seen_dot = seen_dot or source[j] == "."
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    while k < n and source[k].isdigit():
                        k += 1
                    j = k
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"malformed number '{text}'", i)
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected '{kind}'", tok[2])
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("trailing input", tok[2])
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            return Pow(base, self.exponent())
        return base

    def exponent(self) -> int:
        """Integer-literal exponent; '^' chains fold right-associatively."""
        negate = False
        if self.peek()[0] == "-":
            self.advance()
            negate = True
        tok = self.peek()
        if tok[0] != "num":
            raise ParseError("exponent must be an integer literal", tok[2])
        if tok[1] != int(tok[1]):
            raise ParseError("exponent must be an integer literal", tok[2])
        self.advance()
        value = int(tok[1])
        if self.peek()[0] == "^":
            self.advance()
            inner = self.exponent()
            if inner < 0 and value not in (1, -1):
                raise ParseError("negative exponent of an integer base is not an integer", tok[2])
            value = value**inner if inner >= 0 else int(value**inner)
        return -value if negate else value

    def atom(self) -> Node:
        tok = self.peek()
        if tok[0] == "num":
            self.advance()
            return Num(tok[1])
        if tok[0] == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if tok[0] == "ident":
            self.advance()
            name = tok[1]
            if self.peek()[0] == "(":
                if name not in FUNCTION_NAMES:
                    raise UnknownIdentifierError(name, tok[2])
                self.advance()
                arg = self.expr()
                self.expect(")")
                return Call(name, arg)
            if name == "x":
                return Var()
            if name == "pi":
                return Num(math.pi)
            if name in PARAMETERS:
                return Param(name)
            raise UnknownIdentifierError(name, tok[2])
        raise ParseError("expected a value", tok[2])


def parse(source: str) -> Expression:
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    return Expression(_Parser(source).parse(), source)


def _eval(node: Node, x, params, lib):
    if isinstance(node, Num):
        return lib["const"](node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Param):
        if node.name not in params:
            raise KeyError(f"parameter '{node.name}' not bound")
        return lib["const"](params[node.name])
    if isinstance(node, Neg):
        return -_eval(node.operand, x, params, lib)
    if isinstance(node, BinOp):
        a = _eval(node.left, x, params, lib)
        b = _eval(node.right, x, params, lib)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return lib["div"](a, b)
    if isinstance(node, Pow):
        return lib["pow"](_eval(node.base, x, params, lib), node.exponent)
    if isinstance(node, Call):
        return lib[node.func](_eval(node.arg, x, params, lib))
    raise TypeError(f"unknown node {node!r}")


def eval_jet(e: Expression, x0: float, params: dict) -> jets.Jet:
    """Jet of the represented function at x0 with all parameters bound.

    x0 may be a 1-D array of points: the AST is then walked once and the
    result is a batch jet (see ``jets``)."""
    lib = {"const": lambda v: jets.constant(v, x0), "div": lambda a, b: a / b, "pow": lambda a, n: a**n}
    lib.update(jets.FUNCTIONS)
    return _eval(e.root, jets.variable(x0), params, lib)


_ARRAY_LIB = {
    "const": lambda v: v,
    "div": np.divide,
    "pow": lambda a, n: np.power(a, n) if n >= 0 else 1.0 / np.power(a, -n),
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "exp": np.exp,
    "sqrt": np.sqrt,
}


def eval_array(e: Expression, x: np.ndarray, params: dict) -> np.ndarray:
    """Vectorized plain-value evaluation (no domain diagnostics; NaN/inf propagate)."""
    xv = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _eval(e.root, xv, params, _ARRAY_LIB)
    return np.full_like(xv, out) if np.ndim(out) == 0 else out


def to_source(node_or_expr) -> str:
    """Print an AST back to parseable source (used by the round-trip property)."""
    node = node_or_expr.root if isinstance(node_or_expr, Expression) else node_or_expr

    def emit(n: Node, parent_prec: int) -> str:
        if isinstance(n, Num):
            if n.value == int(n.value) and abs(n.value) < 1e15:
                return str(int(n.value))
            return repr(n.value)
        if isinstance(n, Var):
            return "x"
        if isinstance(n, Param):
            return n.name
        if isinstance(n, Call):
            return f"{n.func}({emit(n.arg, 0)})"
        if isinstance(n, Neg):
            inner = emit(n.operand, 2)
            text = f"-{inner}"
            return f"({text})" if parent_prec > 2 else text
        if isinstance(n, Pow):
            base = emit(n.base, 4)
            exp = str(n.exponent) if n.exponent >= 0 else f"-{-n.exponent}"
            text = f"{base}^{exp}"
            return f"({text})" if parent_prec > 3 else text
        if isinstance(n, BinOp):
            prec = 1 if n.op in "+-" else 2
            left = emit(n.left, prec)
            right = emit(n.right, prec + 1)
            text = f"{left} {n.op} {right}"
            return f"({text})" if parent_prec > prec else text
        raise TypeError(f"unknown node {n!r}")

    return emit(node, 0)
