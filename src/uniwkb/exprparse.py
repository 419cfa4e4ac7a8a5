"""Arithmetic expression parser with degree-3 truncated-Taylor evaluation.

Grammar (recursive descent):
    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | factor
    factor := base ('^' factor)?
    base   := number | ident | '(' expr ')' | func '(' expr ')'

Unary minus is accepted ahead of the published grammar line since natural
inputs like "exp(-2*q)" need it.  Evaluation carries jets (f, f', f'', f''')
as Taylor coefficients (c0, c1, c2, c3) with c_k = f^(k)(q)/k!, so third
derivatives come out of plain forward recurrences.  Every jet operation is
elementwise, so q may be a scalar or a numpy array of any shape.
"""

import math

import numpy as np

FUNCS = ("exp", "ln", "sqrt", "sin", "cos", "tan", "sinh", "cosh", "tanh")


class ExprError(ValueError):
    """Parse or binding failure; column is 1-based."""

    def __init__(self, message, column):
        super().__init__("column %d: %s" % (column, message))
        self.column = column
        self.reason = message


class EvalDomainError(ValueError):
    """Evaluation left the real domain (ln of non-positive, etc.)."""


_OVERFLOW = "potential evaluation overflowed at q = %r"


def finite_eval(ev):
    """Wrap a potential evaluator ev(q) -> (V, V', V'', V''').

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
            # flag a q-free exponent once, so _eval_jet can hand its value
            # to _jpow
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


# ---- degree-3 jet arithmetic (Taylor coefficients, not raw derivatives) ----

def _jmul(a, b):
    return (a[0] * b[0],
            a[0] * b[1] + a[1] * b[0],
            a[0] * b[2] + a[1] * b[1] + a[2] * b[0],
            a[0] * b[3] + a[1] * b[2] + a[2] * b[1] + a[3] * b[0])


def _jdiv(a, b):
    if np.any(b[0] == 0.0):
        raise EvalDomainError("division by zero")
    d0 = a[0] / b[0]
    d1 = (a[1] - d0 * b[1]) / b[0]
    d2 = (a[2] - d0 * b[2] - d1 * b[1]) / b[0]
    d3 = (a[3] - d0 * b[3] - d1 * b[2] - d2 * b[1]) / b[0]
    return (d0, d1, d2, d3)


def _jexp(f):
    e0 = np.exp(f[0])
    # (k+1) E_{k+1} = sum_{j<=k} (j+1) f_{j+1} E_{k-j}
    e1 = f[1] * e0
    e2 = (2 * f[2] * e0 + f[1] * e1) / 2
    e3 = (3 * f[3] * e0 + 2 * f[2] * e1 + f[1] * e2) / 3
    return (e0, e1, e2, e3)


def _jln(f):
    if np.any(f[0] <= 0.0):
        raise EvalDomainError("ln of non-positive value")
    l1 = f[1] / f[0]
    l2 = (2 * f[2] - l1 * f[1]) / (2 * f[0])
    l3 = (3 * f[3] - l1 * f[2] - 2 * l2 * f[1]) / (3 * f[0])
    return (np.log(f[0]), l1, l2, l3)


def _jsqrt(f):
    if np.any(f[0] < 0.0):
        raise EvalDomainError("sqrt of negative value")
    if np.any(f[0] == 0.0):
        raise EvalDomainError("sqrt derivative singular at zero")
    s0 = np.sqrt(f[0])
    s1 = f[1] / (2 * s0)
    s2 = (f[2] - s1 * s1) / (2 * s0)
    s3 = (f[3] - 2 * s1 * s2) / (2 * s0)
    return (s0, s1, s2, s3)


def _jsincos(f, hyper=False):
    if hyper:
        s0, c0 = np.sinh(f[0]), np.cosh(f[0])
        sgn = 1.0
    else:
        s0, c0 = np.sin(f[0]), np.cos(f[0])
        sgn = -1.0
    s1 = f[1] * c0
    c1 = sgn * f[1] * s0
    s2 = (2 * f[2] * c0 + f[1] * c1) / 2
    c2 = sgn * (2 * f[2] * s0 + f[1] * s1) / 2
    s3 = (3 * f[3] * c0 + 2 * f[2] * c1 + f[1] * c2) / 3
    c3 = sgn * (3 * f[3] * s0 + 2 * f[2] * s1 + f[1] * s2) / 3
    return (s0, s1, s2, s3), (c0, c1, c2, c3)


# largest constant exponent (in magnitude) raised by repeated products; a
# larger or non-finite one takes the exp(g*ln f) path, so the loop stays short
MAX_INT_EXPONENT = 1024


def _jpow(f, g, g_const):
    # integer constant exponents stay in polynomial arithmetic so that
    # negative bases (q^2 left of the origin) remain legal; g_const is None
    # for an exponent that varies with q
    if (g_const is not None and abs(g_const) <= MAX_INT_EXPONENT
            and abs(g_const - round(g_const)) < 1e-12):
        k = int(round(g_const))
        if k == 0:
            return (1.0, 0.0, 0.0, 0.0)
        acc = (1.0, 0.0, 0.0, 0.0)
        for _ in range(abs(k)):
            acc = _jmul(acc, f)
        if k < 0:
            acc = _jdiv((1.0, 0.0, 0.0, 0.0), acc)
        return acc
    if np.any(f[0] <= 0.0):
        raise EvalDomainError("power of non-positive base")
    return _jexp(_jmul(g, _jln(f)))


def _eval_jet(node, qjet, params):
    kind = node[0]
    if kind == "num":
        return (node[1], 0.0, 0.0, 0.0)
    if kind == "var":
        if node[1] == "q":
            return qjet
        return (params[node[1]], 0.0, 0.0, 0.0)
    if kind == "neg":
        a = _eval_jet(node[1], qjet, params)
        return (-a[0], -a[1], -a[2], -a[3])
    if kind == "+":
        a = _eval_jet(node[1], qjet, params)
        b = _eval_jet(node[2], qjet, params)
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])
    if kind == "-":
        a = _eval_jet(node[1], qjet, params)
        b = _eval_jet(node[2], qjet, params)
        return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])
    if kind == "*":
        return _jmul(_eval_jet(node[1], qjet, params),
                     _eval_jet(node[2], qjet, params))
    if kind == "/":
        return _jdiv(_eval_jet(node[1], qjet, params),
                     _eval_jet(node[2], qjet, params))
    if kind == "^":
        base = _eval_jet(node[1], qjet, params)
        expo = _eval_jet(node[2], qjet, params)
        return _jpow(base, expo, None if node[3] else float(expo[0]))
    if kind == "call":
        a = _eval_jet(node[2], qjet, params)
        fn = node[1]
        if fn == "exp":
            return _jexp(a)
        if fn == "ln":
            return _jln(a)
        if fn == "sqrt":
            return _jsqrt(a)
        if fn in ("sin", "cos", "tan"):
            s, c = _jsincos(a, hyper=False)
            return s if fn == "sin" else c if fn == "cos" else _jdiv(s, c)
        s, c = _jsincos(a, hyper=True)
        return s if fn == "sinh" else c if fn == "cosh" else _jdiv(s, c)
    raise AssertionError("unhandled node %r" % (kind,))


def compile_expr(src, params):
    """Parse and bind; returns f(q) -> (V, V', V'', V''').

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

    def evaluate(q):
        q = np.asarray(q, dtype=float)
        c = _eval_jet(node, (q if q.ndim else float(q), 1.0, 0.0, 0.0), params)
        # back from Taylor coefficients to derivatives
        return (c[0], c[1], 2.0 * c[2], 6.0 * c[3])

    return finite_eval(evaluate)
