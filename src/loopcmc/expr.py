"""Meromorphic expressions of one complex variable.

Text expressions over ``+ - * /``, integer ``^``, ``exp``, ``sqrt``, the
variable ``z`` and the imaginary unit ``i`` are parsed into small immutable
ASTs.  Evaluation is numpy-vectorised, differentiation is symbolic, and a
two-circle exponent fit estimates zero/pole orders.  These expressions carry
all Weierstrass-type data used elsewhere in the package.

Expressions are evaluated exactly as written; there is no simplification
beyond constant folding in derivative construction.  ``sqrt`` uses the
principal branch per evaluation; continuity along a path is the caller's
job (see :func:`continued_sqrt`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExprNode", "Const", "Var", "Add", "Sub", "Mul", "Div", "Neg", "Pow",
    "Exp", "Sqrt", "ExprSyntaxError", "IndeterminateOrderError", "parse",
    "evaluate", "diff", "to_text", "OrderResult", "order_at", "order_at_int",
    "integrate_path", "gauss_segment", "continued_sqrt", "as_polynomial",
]


class ExprSyntaxError(ValueError):
    """Malformed expression text; ``position`` is the 0-based offset."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at offset {position})")


class IndeterminateOrderError(ValueError):
    pass


# ---------------------------------------------------------------------------
# AST


class ExprNode:
    """Base node.  Arithmetic operators build new nodes, so expressions can
    be assembled programmatically (constants are wrapped automatically)."""

    __slots__ = ()

    def __add__(self, other):
        return Add(self, _as_expr(other))

    def __radd__(self, other):
        return Add(_as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, _as_expr(other))

    def __rsub__(self, other):
        return Sub(_as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, _as_expr(other))

    def __rmul__(self, other):
        return Mul(_as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return Div(_as_expr(other), self)

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


Z = Var()
ZERO = Const(0.0 + 0.0j)
ONE = Const(1.0 + 0.0j)


def _as_expr(x):
    if isinstance(x, ExprNode):
        return x
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
    if not isinstance(text, str) or text.strip() == "":
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(_tokenize(text)).parse()


# ---------------------------------------------------------------------------
# Evaluation

def evaluate(e: ExprNode, z):
    """Evaluate ``e`` at ``z`` (scalar or ndarray).

    Poles produce non-finite values (inf/nan) rather than raising; callers
    mask them.  The result matches the shape of ``z``.
    """
    zz = np.asarray(z, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _eval(e, zz)
        out = np.asarray(out, dtype=complex)
        if out.shape != zz.shape:
            out = np.broadcast_to(out, zz.shape).copy()
    if np.isscalar(z) or np.ndim(z) == 0:
        return complex(out)
    return out


def _eval(e, z):
    if isinstance(e, Const):
        return np.full(z.shape, e.value, dtype=complex) if z.shape else e.value
    if isinstance(e, Var):
        return z
    if isinstance(e, Add):
        return _eval(e.left, z) + _eval(e.right, z)
    if isinstance(e, Sub):
        return _eval(e.left, z) - _eval(e.right, z)
    if isinstance(e, Mul):
        return _eval(e.left, z) * _eval(e.right, z)
    if isinstance(e, Div):
        return _eval(e.left, z) / _eval(e.right, z)
    if isinstance(e, Neg):
        return -_eval(e.arg, z)
    if isinstance(e, Pow):
        base = _eval(e.base, z)
        return base ** e.power
    if isinstance(e, Exp):
        return np.exp(_eval(e.arg, z))
    if isinstance(e, Sqrt):
        return np.sqrt(_eval(e.arg, z))
    raise TypeError(f"not an expression node: {e!r}")


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
    """Render the AST as parseable text (minimal parentheses)."""
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


def order_at_int(e, z0, **kw) -> int:
    res = order_at(e, z0, **kw)
    if res.indeterminate:
        raise IndeterminateOrderError(
            f"order at {z0} indeterminate (estimate {res.estimate:.3f})")
    return res.order


# ---------------------------------------------------------------------------
# Path integration (composite Gauss-Legendre)

_GL_CACHE = {}


def _gl_nodes(n):
    if n not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = (x, w)
    return _GL_CACHE[n]


def gauss_segment(f, za, zb, max_step=0.25, gl_n=12):
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
    x, w = _gl_nodes(gl_n)
    for p in np.unique(pieces[pieces > 0]):
        sel = np.flatnonzero(pieces == p)
        ts = ((np.arange(p)[:, None] + (x[None, :] + 1) / 2) / p).ravel()
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


def integrate_path(e: ExprNode, z0, z1, max_step=0.25, gl_n=12):
    """Integrate ``e`` along the horizontal-then-vertical polyline from z0
    to z1; both endpoints broadcast, and the two legs of every path share
    the :func:`gauss_segment` calls."""
    z0, z1 = np.broadcast_arrays(np.asarray(z0, dtype=complex),
                                 np.asarray(z1, dtype=complex))
    corner = np.empty(z1.shape, dtype=complex)
    corner.real, corner.imag = z1.real, z0.imag
    legs = gauss_segment(lambda pts: evaluate(e, pts),
                         np.stack([z0, corner]), np.stack([corner, z1]),
                         max_step=max_step, gl_n=gl_n)
    total = legs[0] + legs[1]
    return complex(total) if total.ndim == 0 else total


# ---------------------------------------------------------------------------
# Branch-continuous square root along an ordered sequence

def continued_sqrt(values, first=None):
    """Square roots of ``values`` (ordered along a path), choosing signs so
    consecutive entries stay close.  ``first`` optionally pins the leading
    root; default is the principal branch."""
    vals = np.asarray(values, dtype=complex)
    s = np.sqrt(vals)
    if s.size == 0:
        return s
    if first is not None and abs(first + s.flat[0]) < abs(first - s.flat[0]):
        s = -s
    flat = s.ravel()
    # local flip decision; cumulative parity turns it into a global sign
    inner = flat[1:] * np.conj(flat[:-1])
    flips = (inner.real < 0).astype(int)
    parity = np.concatenate([[0], np.cumsum(flips) % 2])
    flat = np.where(parity == 1, -flat, flat)
    return flat.reshape(s.shape)


# ---------------------------------------------------------------------------
# Polynomial extraction (used by the Laurent-support symmetry test)

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
