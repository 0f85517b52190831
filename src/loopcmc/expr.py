"""Meromorphic expressions of one complex variable.

Text expressions over ``+ - * /``, integer ``^``, ``exp``, ``sqrt``, the
variable ``z`` and the imaginary unit ``i`` are parsed into small immutable
ASTs.  Evaluation is numpy-vectorised, differentiation is symbolic,
:func:`taylor` gives normalized Taylor coefficients to any depth in
truncated series arithmetic, and a two-circle exponent fit estimates
zero/pole orders.  These expressions carry all Weierstrass-type data used
elsewhere in the package.

Expressions are evaluated exactly as written; there is no simplification
beyond constant folding in derivative construction.  ``sqrt`` uses the
principal branch per evaluation; continuity along a path is the caller's
job.

A :class:`Prim` node is the primitive of an integrand from a basepoint,
evaluated by path quadrature (:func:`integrate_path`) unless the caller
passes its values to :func:`evaluate`; :func:`primitive` builds one, or a
symbolic antiderivative when the integrand is polynomial.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

__all__ = [
    "ExprNode", "Const", "Var", "Add", "Sub", "Mul", "Div", "Neg", "Pow",
    "Exp", "Sqrt", "Prim", "ExprSyntaxError",
    "as_expr", "parse", "evaluate", "primitive", "diff", "taylor",
    "series_mul", "series_div", "series_sqrt", "series_exp", "series_diff",
    "to_text", "OrderResult", "order_at", "integrate_path",
    "gauss_segment", "panel_points", "interpolant_integrals",
    "as_polynomial",
]


class ExprSyntaxError(ValueError):
    """Malformed expression text; ``position`` is the 0-based offset."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at offset {position})")


# ---------------------------------------------------------------------------
# AST


class ExprNode:
    """Base node.  Arithmetic operators build new nodes, so expressions can
    be assembled programmatically (constants are wrapped automatically)."""

    __slots__ = ()

    def __add__(self, other):
        return Add(self, as_expr(other))

    def __radd__(self, other):
        return Add(as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, as_expr(other))

    def __rsub__(self, other):
        return Sub(as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, as_expr(other))

    def __rmul__(self, other):
        return Mul(as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, as_expr(other))

    def __rtruediv__(self, other):
        return Div(as_expr(other), self)

    def __pow__(self, n):
        return Pow(self, int(n))

    def __neg__(self):
        return Neg(self)

    def __call__(self, z):
        return evaluate(self, z)

    def __repr__(self):
        return f"<expr {to_text(self)}>"


@dataclass(frozen=True, slots=True, repr=False)
class Const(ExprNode):
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))


@dataclass(frozen=True, slots=True, repr=False)
class Var(ExprNode):
    pass


@dataclass(frozen=True, slots=True, repr=False)
class Add(ExprNode):
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True, slots=True, repr=False)
class Sub(ExprNode):
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True, slots=True, repr=False)
class Mul(ExprNode):
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True, slots=True, repr=False)
class Div(ExprNode):
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True, slots=True, repr=False)
class Neg(ExprNode):
    arg: ExprNode


@dataclass(frozen=True, slots=True, repr=False)
class Pow(ExprNode):
    base: ExprNode
    power: int


@dataclass(frozen=True, slots=True, repr=False)
class Exp(ExprNode):
    arg: ExprNode


@dataclass(frozen=True, slots=True, repr=False)
class Sqrt(ExprNode):
    arg: ExprNode


@dataclass(frozen=True, slots=True, repr=False)
class Prim(ExprNode):
    """int_{z0}^{z} integrand along the horizontal-then-vertical polyline
    of :func:`integrate_path`; its derivative is the integrand.

    :func:`evaluate` integrates it per point unless its values are given
    (``subs``), as ``weier.minimal_surface`` gives them on a mesh grid
    from one cumulative pass along the grid walk."""
    integrand: ExprNode
    z0: complex

    def __post_init__(self):
        object.__setattr__(self, "z0", complex(self.z0))


Z = Var()
ZERO = Const(0.0 + 0.0j)
ONE = Const(1.0 + 0.0j)


def as_expr(x) -> ExprNode:
    """An expression from a node (returned as is), expression text (parsed)
    or a number (wrapped as a constant)."""
    if isinstance(x, ExprNode):
        return x
    if isinstance(x, str):
        return parse(x)
    if isinstance(x, (int, float, complex, np.integer, np.floating, np.complexfloating)):
        return Const(complex(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to an expression")


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCS = {"exp": Exp, "sqrt": Sqrt}


def _tokenize(text):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # skip trailing whitespace gracefully
            if text[pos:].strip() == "":
                break
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive descent for the grammar

        expr   := term (('+'|'-') term)*
        term   := factor (('*'|'/') factor)*
        factor := atom ('^' integer)?
        atom   := number | 'i' | 'z' | func '(' expr ')' | '(' expr ')' | '-' atom

    Note that unary minus lives in ``atom``, so ``-z^2`` parses as ``(-z)^2``;
    write ``-(z^2)`` for the other reading.
    """

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    @property
    def current(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, at = self.current
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", at)
        return self.advance()

    def parse(self):
        e = self.expr()
        kind, val, at = self.current
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {val!r}", at)
        return e

    def expr(self):
        e = self.term()
        while self.current[0] == "op" and self.current[1] in "+-":
            op = self.advance()[1]
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self):
        e = self.factor()
        while self.current[0] == "op" and self.current[1] in "*/":
            op = self.advance()[1]
            rhs = self.factor()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def factor(self):
        e = self.atom()
        if self.current[0] == "op" and self.current[1] == "^":
            self.advance()
            e = Pow(e, self.integer())
        return e

    def integer(self):
        sign = 1
        if self.current[0] == "op" and self.current[1] == "-":
            self.advance()
            sign = -1
        kind, val, at = self.current
        if kind != "num" or any(c in val for c in ".eE"):
            raise ExprSyntaxError("integer exponent expected", at)
        self.advance()
        return sign * int(val)

    def atom(self):
        kind, val, at = self.current
        if kind == "num":
            self.advance()
            return Const(complex(float(val)))
        if kind == "ident":
            self.advance()
            if val == "z":
                return Z
            if val == "i":
                return Const(1j)
            if val in _FUNCS:
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return _FUNCS[val](inner)
            raise ExprSyntaxError(f"unknown identifier {val!r}", at)
        if kind == "op" and val == "(":
            self.advance()
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.atom())
        raise ExprSyntaxError("expected a value", at)


def parse(text: str) -> ExprNode:
    """Parse expression text into an AST.

    Raises ExprSyntaxError (with offset) on malformed input or unknown
    identifiers.
    """
    if not isinstance(text, str):
        raise TypeError(f"expression text expected, got {type(text).__name__}")
    if text.strip() == "":
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(_tokenize(text)).parse()


# ---------------------------------------------------------------------------
# Evaluation

def evaluate(e, z, subs=None):
    """Evaluate ``e`` at ``z`` (scalar or ndarray).

    Poles produce non-finite values (inf/nan) rather than raising; callers
    mask them.  The result matches the shape of ``z``.  ``e`` may also be a
    sequence of expressions, evaluated at the same points in one call: the
    result is then a list of values, one per expression, no two of them
    one array.  A node that occurs more than once among the expressions
    (the same object, reached from two parents or two expressions) is
    evaluated once and its value kept until the call returns; a
    :class:`Prim` node is so integrated once.  ``subs`` holds ``(node,
    values)`` pairs: :class:`Prim` nodes of ``e`` (the objects themselves)
    with their values at ``z``, known by other means; those nodes are not
    integrated.  Every array returned is a new one: none is ``z`` or a
    ``subs`` value, so a caller may write into it.

    A subtree without ``z``, such as ``sqrt(5)``, is evaluated once as a
    numpy scalar and broadcast, not once per point.  Its operations run
    through the same ufunc loops as array operands do (integer powers on a
    0-d array), so the values are bit for bit those of a constant spread
    over ``z``; numpy's scalar arithmetic would round some products
    differently.
    """
    many = isinstance(e, (list, tuple))
    roots = list(e) if many else [e]
    zz = np.asarray(z, dtype=complex)
    memo = {id(p): np.asarray(v) for p, v in subs or ()}
    # arrays the result must not hand back: the points, the given values
    # and the results so far
    taken = [zz, *memo.values()]
    shared = _shared_nodes(roots)
    outs = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for root in roots:
            out = np.asarray(_eval(root, zz, memo, shared), dtype=complex)
            if out.shape != zz.shape:
                out = np.broadcast_to(out, zz.shape).copy()
            elif any(out is o for o in taken):
                out = out.copy()
            outs.append(out)
            taken.append(out)
    if np.isscalar(z) or np.ndim(z) == 0:
        outs = [complex(out) for out in outs]
    return outs if many else outs[0]


def _shared_nodes(roots):
    """Identities of the nodes that occur more than once in the expression
    graph of ``roots``: reached from two parents, or a root reached again.
    A :class:`Prim`'s integrand is not entered, as :func:`integrate_path`
    evaluates it in calls of its own."""
    seen, shared = set(), set()
    stack = list(roots)
    while stack:
        e = stack.pop()
        key = id(e)
        if key in seen:
            shared.add(key)
            continue
        seen.add(key)
        kind = type(e)
        if kind in _BINARY:
            stack += (e.left, e.right)
        elif kind is Pow:
            stack.append(e.base)
        elif kind in _UNARY:
            stack.append(e.arg)
    return shared


def _eval(e, z, memo, shared):
    """``e`` at the points ``z``; ``memo`` holds the values of the nodes
    given or met so far in this call whose identities are in ``shared``,
    keyed by identity.  A subtree without ``z`` gives a numpy scalar."""
    key = id(e)
    if key in memo:
        return memo[key]
    if isinstance(e, Const):
        return np.complex128(e.value)
    if isinstance(e, Var):
        return z
    if isinstance(e, (Add, Sub, Mul, Div)):
        out = _BINARY[type(e)](_eval(e.left, z, memo, shared),
                               _eval(e.right, z, memo, shared))
    elif isinstance(e, Neg):
        out = -_eval(e.arg, z, memo, shared)
    elif isinstance(e, Pow):
        # ndarray's ** takes x**2 and x**-1 to square and reciprocal
        out = np.asarray(_eval(e.base, z, memo, shared)) ** e.power
    elif isinstance(e, Exp):
        out = np.exp(_eval(e.arg, z, memo, shared))
    elif isinstance(e, Sqrt):
        out = np.sqrt(_eval(e.arg, z, memo, shared))
    elif isinstance(e, Prim):
        out = np.asarray(integrate_path(e.integrand, e.z0, z))
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if key in shared:
        memo[key] = out
    return out


_BINARY = {Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: np.divide}
_UNARY = (Neg, Exp, Sqrt)


# ---------------------------------------------------------------------------
# Symbolic differentiation

def _is_const(e, v=None):
    return isinstance(e, Const) and (v is None or e.value == v)


def _add(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Add(a, b)


def _sub(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return Neg(b)
    return Sub(a, b)


def _mul(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0) or _is_const(b, 0):
        return ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Mul(a, b)


def _div(a, b):
    if _is_const(a, 0):
        return ZERO
    if _is_const(b, 1):
        return a
    return Div(a, b)


def diff(e: ExprNode) -> ExprNode:
    """Symbolic derivative d/dz."""
    if isinstance(e, (Const,)):
        return ZERO
    if isinstance(e, Var):
        return ONE
    if isinstance(e, Add):
        return _add(diff(e.left), diff(e.right))
    if isinstance(e, Sub):
        return _sub(diff(e.left), diff(e.right))
    if isinstance(e, Mul):
        return _add(_mul(diff(e.left), e.right), _mul(e.left, diff(e.right)))
    if isinstance(e, Div):
        num = _sub(_mul(diff(e.left), e.right), _mul(e.left, diff(e.right)))
        return _div(num, Pow(e.right, 2))
    if isinstance(e, Neg):
        return Neg(diff(e.arg))
    if isinstance(e, Pow):
        if e.power == 0:
            return ZERO
        inner = diff(e.base)
        if e.power == 1:
            return inner
        return _mul(_mul(Const(e.power), Pow(e.base, e.power - 1)), inner)
    if isinstance(e, Exp):
        return _mul(e, diff(e.arg))
    if isinstance(e, Sqrt):
        return _div(diff(e.arg), _mul(Const(2), e))
    if isinstance(e, Prim):
        return e.integrand
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Truncated Taylor series
#
# A series is an array whose last axis holds the normalized coefficients
# u_m = u^(m)/m!; the kernels below work pointwise over the leading axes and
# truncate to the shorter operand (Griewank & Walther, Evaluating
# Derivatives, 2nd ed., ch. 13).

def series_mul(u, v):
    """Product of two series: c_m = sum_i u_i v_(m-i)."""
    n = min(u.shape[-1], v.shape[-1])
    out = np.empty(np.broadcast_shapes(u.shape[:-1], v.shape[:-1]) + (n,),
                   dtype=complex)
    for m in range(n):
        out[..., m] = np.sum(u[..., :m + 1] * v[..., m::-1], axis=-1)
    return out


def series_div(u, v):
    """Quotient u/v by forward substitution (a zero v_0 gives inf/nan)."""
    n = min(u.shape[-1], v.shape[-1])
    q = np.empty(np.broadcast_shapes(u.shape[:-1], v.shape[:-1]) + (n,),
                 dtype=complex)
    for m in range(n):
        q[..., m] = (u[..., m] - np.sum(q[..., :m] * v[..., m:0:-1], axis=-1)
                     ) / v[..., 0]
    return q


def series_sqrt(u):
    """Principal square root, s^2 = u solved order by order."""
    s = np.empty(u.shape, dtype=complex)
    s[..., 0] = np.sqrt(u[..., 0])
    for m in range(1, u.shape[-1]):
        s[..., m] = (u[..., m] - np.sum(s[..., 1:m] * s[..., m - 1:0:-1],
                                        axis=-1)) / (2.0 * s[..., 0])
    return s


def series_exp(u):
    """Exponential from e' = u' e: m e_m = sum_k k u_k e_(m-k)."""
    e = np.empty(u.shape, dtype=complex)
    e[..., 0] = np.exp(u[..., 0])
    for m in range(1, u.shape[-1]):
        k = np.arange(1, m + 1)
        e[..., m] = np.sum(k * u[..., 1:m + 1] * e[..., m - 1::-1],
                           axis=-1) / m
    return e


def series_diff(u):
    """Series of the derivative; one order shorter."""
    return u[..., 1:] * np.arange(1, u.shape[-1])


def taylor(e: ExprNode, z, depth: int):
    """Normalized Taylor coefficients u^(m)(z)/m!, m = 0..depth, of ``e`` at
    every point of ``z``: shape ``z.shape + (depth + 1,)``.

    One walk of the tree in series arithmetic, so the cost does not grow
    with ``depth`` the way iterated :func:`diff` trees do.  Integer powers
    are repeated products (``z^5`` at 0 stays exact).  Poles give
    non-finite coefficients, as in :func:`evaluate`.
    """
    zz = np.asarray(z, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _taylor(e, zz, depth + 1)


def _taylor(e, z, n):
    if isinstance(e, (Const, Var)):
        out = np.zeros(z.shape + (n,), dtype=complex)
        if isinstance(e, Const):
            out[..., 0] = e.value
        else:
            out[..., 0] = z
            out[..., 1:2] = 1.0
        return out
    if isinstance(e, Add):
        return _taylor(e.left, z, n) + _taylor(e.right, z, n)
    if isinstance(e, Sub):
        return _taylor(e.left, z, n) - _taylor(e.right, z, n)
    if isinstance(e, Mul):
        return series_mul(_taylor(e.left, z, n), _taylor(e.right, z, n))
    if isinstance(e, Div):
        return series_div(_taylor(e.left, z, n), _taylor(e.right, z, n))
    if isinstance(e, Neg):
        return -_taylor(e.arg, z, n)
    if isinstance(e, Pow):
        if e.power == 0:
            return _taylor(ONE, z, n)
        base = _taylor(e.base, z, n)
        out = base
        for _ in range(abs(e.power) - 1):
            out = series_mul(out, base)
        return out if e.power > 0 else series_div(_taylor(ONE, z, n), out)
    if isinstance(e, Exp):
        return series_exp(_taylor(e.arg, z, n))
    if isinstance(e, Sqrt):
        return series_sqrt(_taylor(e.arg, z, n))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Printing

_PREC = {"add": 1, "mul": 2, "neg": 3, "pow": 4, "atom": 5}


def _fmt_real(x):
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _fmt_const(v):
    # returns (text, precedence-class)
    re_, im = v.real, v.imag
    if im == 0.0:
        if re_ < 0:
            return "-" + _fmt_real(-re_), "neg"
        return _fmt_real(re_), "atom"
    if re_ == 0.0:
        if im == 1.0:
            return "i", "atom"
        if im == -1.0:
            return "-i", "neg"
        if im < 0:
            return f"-{_fmt_real(-im)}*i", "neg"
        return f"{_fmt_real(im)}*i", "mul"
    sign = "+" if im >= 0 else "-"
    return f"({_fmt_real(re_)}{sign}{_fmt_real(abs(im))}*i)", "atom"


def to_text(e: ExprNode) -> str:
    """Render the AST as text (minimal parentheses).  The text parses back
    unless the tree holds a :class:`Prim`, rendered ``int(<integrand>)``,
    which :func:`parse` does not read."""
    txt, _ = _to_text(e)
    return txt


def _paren(child, child_prec, minimum):
    txt, cls = child
    if _PREC[cls] < minimum:
        return f"({txt})"
    return txt


def _to_text(e):
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return "z", "atom"
    if isinstance(e, Add):
        lt = _paren(_to_text(e.left), None, _PREC["add"])
        rt = _paren(_to_text(e.right), None, _PREC["add"])
        return f"{lt} + {rt}", "add"
    if isinstance(e, Sub):
        lt = _paren(_to_text(e.left), None, _PREC["add"])
        rt = _paren(_to_text(e.right), None, _PREC["add"] + 1)
        return f"{lt} - {rt}", "add"
    if isinstance(e, Mul):
        lt = _paren(_to_text(e.left), None, _PREC["mul"])
        rt = _paren(_to_text(e.right), None, _PREC["mul"])
        return f"{lt}*{rt}", "mul"
    if isinstance(e, Div):
        lt = _paren(_to_text(e.left), None, _PREC["mul"])
        rt = _paren(_to_text(e.right), None, _PREC["mul"] + 1)
        return f"{lt}/{rt}", "mul"
    if isinstance(e, Neg):
        t = _paren(_to_text(e.arg), None, _PREC["neg"])
        return f"-{t}", "neg"
    if isinstance(e, Pow):
        t = _paren(_to_text(e.base), None, _PREC["pow"] + 1)
        if e.power < 0:
            return f"{t}^(-{-e.power})", "pow"
        return f"{t}^{e.power}", "pow"
    if isinstance(e, Exp):
        return f"exp({to_text(e.arg)})", "atom"
    if isinstance(e, Sqrt):
        return f"sqrt({to_text(e.arg)})", "atom"
    if isinstance(e, Prim):
        return f"int({to_text(e.integrand)})", "atom"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Zero/pole order estimation

@dataclass(frozen=True)
class OrderResult:
    """Outcome of the two-circle growth-exponent fit.

    ``order`` is None when the fit is ambiguous (non-integer growth, e.g. at
    a branch point, or ill-conditioned samples).
    """
    order: int | None
    estimate: float
    residual: float

    @property
    def indeterminate(self):
        return self.order is None


def order_at(e: ExprNode, z0: complex, radius: float = 1e-3, npoints: int = 24,
             residual_tol: float = 0.1) -> OrderResult:
    """Order of vanishing of ``e`` at ``z0`` (negative for a pole).

    Evaluates on circles of radius ``radius`` and ``radius/2`` around ``z0``
    and fits the growth exponent by the log-ratio of the two median
    magnitudes.  The residual is the distance of the fitted exponent to the
    nearest integer; above ``residual_tol`` the result is indeterminate.
    """
    th = 2 * np.pi * (np.arange(npoints) + 0.37) / npoints  # avoid axes
    ring = np.exp(1j * th)
    meds = []
    for r in (radius, radius / 2):
        vals = evaluate(e, z0 + r * ring)
        mag = np.abs(vals)
        good = np.isfinite(mag) & (mag > 1e-300)
        if np.count_nonzero(good) < npoints // 2:
            return OrderResult(None, float("nan"), float("inf"))
        meds.append(float(np.median(np.log(mag[good]))))
    est = (meds[0] - meds[1]) / np.log(2.0)
    k = int(np.round(est))
    resid = abs(est - k)
    if resid > residual_tol:
        return OrderResult(None, est, resid)
    return OrderResult(k, est, resid)


# ---------------------------------------------------------------------------
# Path integration (composite Gauss-Legendre)

# integrate_path's rule: every straight leg is cut into equal pieces of at
# most PATH_MAX_STEP, each integrated by PATH_GL_N-point Gauss-Legendre
PATH_MAX_STEP = 0.25
PATH_GL_N = 12

# the collocation rule along the grid walk, shared by the frame integrator
# and the h = 0 sweep: WALK_GL_N Gauss-Legendre points per panel of an edge
WALK_GL_N = 4

_GL_CACHE = {}


def _gl_nodes(n):
    if n not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = (x, w)
    return _GL_CACHE[n]


def panel_points(n, panels):
    """The points of ``panels`` equal panels of ``n``-point Gauss-Legendre
    each, as positions along an edge (0 at its start, 1 at its end)."""
    x = _gl_nodes(n)[0]
    return ((np.arange(panels)[:, None] + (x + 1) / 2) / panels).ravel()


@lru_cache(maxsize=32)
def interpolant_integrals(n, pieces, panels):
    """(WALK_GL_N * panels + 1, n * pieces), read-only: weights taking an
    edge's integrand values at ``panel_points(n, pieces)`` to its integrals
    from its start to each of the walk's collocation points
    ``panel_points(WALK_GL_N, panels)`` and, in the last row, to its end,
    per unit of the edge's dz.  The piece holding a point enters by the
    integral of its values' Legendre interpolant, the pieces before it by
    their quadrature."""
    leg = np.polynomial.legendre
    x, w = _gl_nodes(n)
    # the Lagrange basis of the nodes as Legendre series,
    # l_m = sum_k (k + 1/2) w_m P_k(x_m) P_k, integrated from -1
    basis = (np.arange(n)[:, None] + 0.5) * leg.legvander(x, n - 1).T * w
    integral = leg.legint(basis, lbnd=-1, axis=0)
    t = panel_points(WALK_GL_N, panels) * pieces
    piece = np.minimum(t.astype(int), pieces - 1)
    out = np.where((np.arange(pieces) < piece[:, None])[..., None], w, 0.0)
    local = 2 * (t - piece) - 1
    out[np.arange(len(t)), piece] = leg.legvander(local, n) @ integral
    out = np.concatenate([out.reshape(len(t), pieces * n),
                          np.tile(w, (1, pieces))]) / (2 * pieces)
    out.flags.writeable = False
    return out


def gauss_segment(f, za, zb, max_step=PATH_MAX_STEP, gl_n=PATH_GL_N):
    """Integral of callable ``f`` along the straight segments za -> zb.

    ``za`` and ``zb`` broadcast against each other.  Each segment is cut
    into ceil(|zb - za| / max_step) pieces of ``gl_n``-point Gauss-Legendre;
    segments with the same piece count share one call of ``f`` on a flat
    array of points.  Scalar endpoints return a complex.
    """
    za_b, zb_b = np.broadcast_arrays(np.asarray(za, dtype=complex),
                                     np.asarray(zb, dtype=complex))
    if not (np.all(np.isfinite(za_b)) and np.all(np.isfinite(zb_b))):
        raise ValueError("path endpoints must be finite")
    start, dz = za_b.ravel(), (zb_b - za_b).ravel()
    length = np.abs(dz)
    pieces = np.where(length == 0.0, 0,
                      np.maximum(1, np.ceil(length / max_step))).astype(int)
    out = np.zeros(dz.shape, dtype=complex)
    w = _gl_nodes(gl_n)[1]
    for p in np.unique(pieces[pieces > 0]):
        sel = np.flatnonzero(pieces == p)
        ts = panel_points(gl_n, p)
        pts = start[sel, None] + ts[None, :] * dz[sel, None]
        vals = np.asarray(f(pts.ravel())).reshape(len(sel), p * gl_n)
        total = np.sum(vals * np.tile(w, p), axis=-1)
        # dz / (2p) * total in real arithmetic, operation for operation as
        # the scalar complex division and product, so results do not depend
        # on how the endpoints were batched
        sr, si = dz[sel].real / (2 * p), dz[sel].imag / (2 * p)
        out.real[sel] = sr * total.real - si * total.imag
        out.imag[sel] = sr * total.imag + si * total.real
    if np.ndim(za) == 0 and np.ndim(zb) == 0:
        return complex(out[0])
    return out.reshape(za_b.shape)


def integrate_path(e: ExprNode, z0, z1, max_step=PATH_MAX_STEP,
                   gl_n=PATH_GL_N):
    """Integrate ``e`` along the horizontal-then-vertical polyline from z0
    to z1; both endpoints broadcast, and the two legs of every path share
    the :func:`gauss_segment` calls.

    This is the per-point rule of a :class:`Prim`.  On a mesh grid whose
    basepoint is the primitive's, ``weier.minimal_surface`` follows the
    same path with one cumulative pass along the walk of the lattice
    instead, at the same rule per edge, and continues the values along
    the walk's reroute chains by their own edges' integrals."""
    z0, z1 = np.broadcast_arrays(np.asarray(z0, dtype=complex),
                                 np.asarray(z1, dtype=complex))
    corner = np.empty(z1.shape, dtype=complex)
    corner.real, corner.imag = z1.real, z0.imag
    legs = gauss_segment(lambda pts: evaluate(e, pts),
                         np.stack([z0, corner]), np.stack([corner, z1]),
                         max_step=max_step, gl_n=gl_n)
    total = legs[0] + legs[1]
    return complex(total) if total.ndim == 0 else total


def primitive(integrand, z0) -> ExprNode:
    """The primitive of ``integrand`` vanishing at ``z0``: a symbolic
    antiderivative when the integrand is a polynomial, else a :class:`Prim`
    node evaluated by quadrature."""
    integrand = as_expr(integrand)
    poly = as_polynomial(integrand)
    if poly is None:
        return Prim(integrand, z0)
    terms = [Const(c / (k + 1)) * Pow(Z, k + 1) if k != 0 else Const(c) * Z
             for k, c in sorted(poly.items())]
    prim = reduce(Add, terms) if terms else ZERO
    return prim - Const(evaluate(prim, complex(z0)))


# ---------------------------------------------------------------------------
# Polynomial extraction (read by :func:`primitive`)

def as_polynomial(e: ExprNode, max_degree=200):
    """Return {power: coeff} if ``e`` is a polynomial in z (division only by
    constants), else None."""
    p = _as_poly(e, max_degree)
    if p is None:
        return None
    return {k: v for k, v in p.items() if v != 0}


def _as_poly(e, max_degree):
    if isinstance(e, Const):
        return {0: e.value}
    if isinstance(e, Var):
        return {1: 1.0 + 0.0j}
    if isinstance(e, Neg):
        p = _as_poly(e.arg, max_degree)
        return None if p is None else {k: -v for k, v in p.items()}
    if isinstance(e, (Add, Sub)):
        a = _as_poly(e.left, max_degree)
        b = _as_poly(e.right, max_degree)
        if a is None or b is None:
            return None
        sign = 1 if isinstance(e, Add) else -1
        out = dict(a)
        for k, v in b.items():
            out[k] = out.get(k, 0) + sign * v
        return out
    if isinstance(e, Mul):
        a = _as_poly(e.left, max_degree)
        b = _as_poly(e.right, max_degree)
        if a is None or b is None:
            return None
        out = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                if ka + kb > max_degree:
                    return None
                out[ka + kb] = out.get(ka + kb, 0) + va * vb
        return out
    if isinstance(e, Div):
        a = _as_poly(e.left, max_degree)
        if a is None:
            return None
        b = _as_poly(e.right, max_degree)
        if b is None or set(b) - {0} or b.get(0, 0) == 0:
            return None
        c = b[0]
        return {k: v / c for k, v in a.items()}
    if isinstance(e, Pow):
        if e.power < 0:
            return None
        p = _as_poly(e.base, max_degree)
        if p is None:
            return None
        out = {0: 1.0 + 0.0j}
        for _ in range(e.power):
            nxt = {}
            for ka, va in out.items():
                for kb, vb in p.items():
                    if ka + kb > max_degree:
                        return None
                    nxt[ka + kb] = nxt.get(ka + kb, 0) + va * vb
            out = nxt
        return out
    return None
