"""Arithmetic expressions for user-supplied potentials: parsing, and the
finiteness rule every potential evaluator runs under.

Grammar (recursive descent):
    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | factor
    factor := base ('^' factor)?
    base   := number | ident | '(' expr ')' | func '(' expr ')'

Unary minus is accepted ahead of the published grammar line since natural
inputs like "exp(-2*q)" need it.  `compile_expr` parses and binds an
expression once and hands its tree to `jetprog`, which compiles it into a
straight-line program for V and its first two derivatives.
"""

import math

import numpy as np

from . import jetprog
from .jetprog import EvalDomainError  # noqa: F401  (evaluation raises it)

FUNCS = ("exp", "ln", "sqrt", "sin", "cos", "tan", "sinh", "cosh", "tanh")


class ExprError(ValueError):
    """Parse or binding failure; column is 1-based."""

    def __init__(self, message, column):
        super().__init__("column %d: %s" % (column, message))
        self.column = column
        self.reason = message


_OVERFLOW = "potential evaluation overflowed at q = %r"


def finite_eval(ev):
    """Wrap a potential evaluator ev(q) -> (V, V', V'').

    ev runs with numpy's floating-point warnings silenced.  A finite q whose
    value or derivatives come out non-finite raises OverflowError instead,
    so overflow stays a solver failure rather than an inf that a later
    stage misreads (as a second minimum, say).
    """
    quiet = np.errstate(all="ignore")(ev)

    def evaluate(q):
        out = quiet(q)
        check_finite(q, out)
        return out

    return evaluate


def check_finite(q, values):
    """Raise OverflowError where a finite q gave a non-finite entry in any
    of values (arrays or scalars that broadcast against q).

    One finiteness test over all the values comes first; the bad point is
    located only when it fails.
    """
    if isinstance(q, float):   # cheap path for scalar evaluation
        if math.isfinite(q) and not all(map(math.isfinite, values)):
            raise OverflowError(_OVERFLOW % q)
        return
    if np.isfinite(np.concatenate(values, axis=None)).all():
        return
    finite = np.isfinite(values[0])
    for v in values[1:]:
        finite = finite & np.isfinite(v)
    bad = np.isfinite(q) & ~finite
    if bad.any():
        raise OverflowError(_OVERFLOW
                            % float(np.broadcast_to(q, bad.shape)[bad][0]))


def _tokenize(src):
    toks = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            toks.append((c, c, i + 1))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                val = float(text)
            except ValueError:
                raise ExprError("bad number %r" % text, i + 1)
            toks.append(("num", val, i + 1))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(("ident", src[i:j], i + 1))
            i = j
            continue
        raise ExprError("unexpected character %r" % c, i + 1)
    toks.append(("end", None, n + 1))
    return toks


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ExprError("expected %r" % kind, t[2])
        return t

    def expr(self):
        node = self.term()
        while self.peek()[0] in "+-":
            op = self.next()[0]
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in "*/":
            op = self.next()[0]
            node = (op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.next()
            return ("neg", self.unary())
        return self.factor()

    def factor(self):
        node = self.base()
        if self.peek()[0] == "^":
            self.next()
            expo = self.factor()
            # flag a q-free exponent once, so jetprog can hand its folded
            # value to _jpow
            node = ("^", node, expo, any(n == "q" for n, _ in free_names(expo)))
        return node

    def base(self):
        t = self.next()
        if t[0] == "num":
            return ("num", t[1])
        if t[0] == "ident":
            if t[1] in FUNCS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return ("call", t[1], arg)
            return ("var", t[1], t[2])
        if t[0] == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExprError("expected a value", t[2])


def parse(src):
    """Parse to an AST; raises ExprError with column on malformed input."""
    p = _Parser(_tokenize(src))
    node = p.expr()
    tail = p.peek()
    if tail[0] != "end":
        raise ExprError("unexpected trailing input", tail[2])
    return node


def free_names(node):
    out = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n[0] == "var":
            out.add((n[1], n[2]))
        elif n[0] in ("+", "-", "*", "/", "^"):
            stack.extend(n[1:3])
        elif n[0] == "neg":
            stack.append(n[1])
        elif n[0] == "call":
            stack.append(n[2])
    return out


def compile_expr(src, params):
    """Parse, bind and compile; returns f(q) -> (V, V', V'').

    q may be a scalar or an array; a derivative that does not depend on q
    comes back as a scalar.  Raises ExprError (with column) for syntax
    problems or unbound names.  Evaluation raises EvalDomainError when any
    element leaves the real domain and OverflowError when any overflows.
    """
    node = parse(src)
    params = dict(params)
    for name, col in sorted(free_names(node), key=lambda p: p[1]):
        if name != "q" and name not in params:
            raise ExprError("unknown identifier %r" % name, col)
    return finite_eval(jetprog.compile_tree(node, params))
