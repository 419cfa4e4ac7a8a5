"""Straight-line truncated-Taylor programs for parsed expressions.

`compile_tree` turns an `exprparse` parse tree, its parameters bound, into
one Python function q -> (V, V', V'').  Jets (f, f', f'') are held as
Taylor coefficients (c0, c1, c2) with c_k = f^(k)(q)/k!, so second
derivatives come out of plain forward recurrences: truncated-Taylor
forward mode (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM
2008, ch. 13).

The recurrences run once, at compile time, on symbolic coefficients, each
a compile-time constant or a runtime register.  q-free subexpressions fold
to constants with the numpy functions a call would run.  Terms with a
structural zero (c1 and c2 of a constant, c2 of q) are dropped, and so
are products with the constant 1 and repeats of an operation already
formed.  Every other operation, and every per-element domain check, keeps
the order of a walk of the parse tree; a check that fails on a constant
becomes a raise at its place.  The program is written from register names,
float literals and a fixed table of numpy functions (never from the
expression's text), and deletes each register after its last read.  Every
operation is elementwise, so q may be a scalar or a numpy array of any
shape.
"""

import math
import operator

import numpy as np


class EvalDomainError(ValueError):
    """Evaluation left the real domain (ln of non-positive, etc.)."""


# ---- the program builder: symbolic Taylor coefficients ----

class _Unreachable(Exception):
    """A domain check on a constant failed: the program ends in a raise."""


class _Slot:
    """One Taylor coefficient while a program is built: a compile-time
    constant (`value`; `name` is None) or a runtime register (`name`).
    Arithmetic on slots, with Python numbers mixed in, folds or appends a
    step to their program, so the jet recurrences below read as plain
    arithmetic."""

    __slots__ = ("prog", "value", "name")

    def __init__(self, prog, value=None, name=None):
        self.prog, self.value, self.name = prog, value, name

    def __add__(self, other):
        return self.prog.op("add", self, other)

    def __sub__(self, other):
        return self.prog.op("sub", self, other)

    def __mul__(self, other):
        return self.prog.op("mul", self, other)

    def __rmul__(self, other):
        return self.prog.op("mul", other, self)

    def __truediv__(self, other):
        return self.prog.op("div", self, other)

    def __neg__(self):
        return self.prog.op("neg", self)


# each operation: how a constant folds, and the code a register runs; the
# numpy functions are the fixed table the generated code can name
_OPS = {
    "add": (operator.add, "{0} + {1}"),
    "sub": (operator.sub, "{0} - {1}"),
    "mul": (operator.mul, "{0} * {1}"),
    "div": (operator.truediv, "{0} / {1}"),
    "neg": (operator.neg, "-{0}"),
}
_NUMPY = {name: getattr(np, name)
          for name in ("exp", "log", "sqrt", "sin", "cos", "sinh", "cosh")}
_OPS.update((name, (fn, "_%s({0})" % name)) for name, fn in _NUMPY.items())
_CMP = {"==": operator.eq, "<=": operator.le, "<": operator.lt}


def _text(slot):
    # a register's name, or a constant's repr, which round-trips a float
    # (inf and nan are names in the namespace)
    return slot.name if slot.name is not None else "(%r)" % float(slot.value)


class _Program:
    """Steps over jet slots, appended in the tree's evaluation order.

    With skip_zeros, the c1 and c2 of a constant and the c2 of q are one
    structural zero slot: a product with it is that zero, a sum with it
    the other term, and a product with the constant 1 the other factor.
    Without, every term of the tree walk is formed (for programs with a
    non-finite constant, where 0*inf is not 0).
    """

    def __init__(self, skip_zeros):
        self.skip_zeros = skip_zeros
        self.steps = []            # (register name or None, code, slots)
        self.formed = {}           # code -> the register that holds it
        self.finite = True         # every constant so far is finite
        self.zero = self.const(0.0)

    def const(self, value):
        self.finite = self.finite and math.isfinite(value)
        return _Slot(self, value=value)

    def const_jet(self, value):
        return (self.const(value), self.zero, self.zero)

    def op(self, kind, *args):
        args = [a if isinstance(a, _Slot) else self.const(float(a))
                for a in args]
        if self.skip_zeros:
            z = self.zero
            if kind == "mul":
                a, b = args
                if a is z or b is z:
                    return z
                if a.name is None and a.value == 1.0:
                    return b
                if b.name is None and b.value == 1.0:
                    return a
            elif kind in ("add", "sub") and args[1] is z:
                return args[0]
            elif kind == "add" and args[0] is z:
                return args[1]
            elif kind == "sub" and args[0] is z:
                return -args[1]
            elif kind in ("div", "neg") and args[0] is z:
                return z
        fold, code = _OPS[kind]
        if all(a.name is None for a in args):
            return self.const(fold(*(a.value for a in args)))
        return self.emit(code, args)

    def emit(self, code, args):
        """A register holding code applied to args.  The same operation on
        the same registers and constants gives the same bits, so it is
        formed once (x*y and y*x, x+y and y+x alike)."""
        texts = [_text(a) for a in args]
        if code in (_OPS["add"][1], _OPS["mul"][1]):
            texts.sort()
        line = code.format(*texts)
        if line not in self.formed:
            name = "r%d" % len(self.steps)
            self.steps.append((name, line, args))
            self.formed[line] = _Slot(self, name=name)
        return self.formed[line]

    def fail_where(self, x, cmp, message):
        """Raise EvalDomainError(message) where x `cmp` 0 for any element:
        a runtime check for a register; for a constant that fails it, a
        raise that ends the program."""
        if x.name is not None:
            self.steps.append((None, "if _any(%s %s 0.0): raise "
                               "EvalDomainError(%r)" % (x.name, cmp, message),
                               [x]))
        elif _CMP[cmp](x.value, 0.0):
            self.steps.append((None, "raise EvalDomainError(%r)" % message,
                               []))
            raise _Unreachable

    def source(self, outputs):
        """Python source of `program(q)`: the steps that feed a check or
        an output, each register deleted after its last read."""
        live = {s.name for s in outputs if s.name is not None}
        body = []
        for name, code, args in reversed(self.steps):
            if name is not None and name not in live:
                continue
            reads = {s.name for s in args if s.name is not None}
            if reads - live:
                body.append("    del " + ", ".join(sorted(reads - live)))
            live |= reads
            body.append("    " + (code if name is None
                                  else "%s = %s" % (name, code)))
        lines = ["def program(q):",
                 "    q = _asarray(q, dtype=float)",
                 "    q = q if q.ndim else float(q)"] + body[::-1]
        if outputs:
            lines.append("    return (%s)" % ", ".join(map(_text, outputs)))
        return "\n".join(lines) + "\n"


def _check(x, cmp, message):
    x.prog.fail_where(x, cmp, message)


def _call(name, x):
    return x.prog.op(name, x)


# ---- degree-2 jet arithmetic (Taylor coefficients, not raw derivatives) ----
# each recurrence runs once per compile, on slots

def _jmul(a, b):
    return (a[0] * b[0],
            a[0] * b[1] + a[1] * b[0],
            a[0] * b[2] + a[1] * b[1] + a[2] * b[0])


def _jdiv(a, b):
    _check(b[0], "==", "division by zero")
    d0 = a[0] / b[0]
    d1 = (a[1] - d0 * b[1]) / b[0]
    d2 = (a[2] - d0 * b[2] - d1 * b[1]) / b[0]
    return (d0, d1, d2)


def _jexp(f):
    e0 = _call("exp", f[0])
    # (k+1) E_{k+1} = sum_{j<=k} (j+1) f_{j+1} E_{k-j}
    e1 = f[1] * e0
    e2 = (2 * f[2] * e0 + f[1] * e1) / 2
    return (e0, e1, e2)


def _jln(f):
    _check(f[0], "<=", "ln of non-positive value")
    l1 = f[1] / f[0]
    l2 = (2 * f[2] - l1 * f[1]) / (2 * f[0])
    return (_call("log", f[0]), l1, l2)


def _jsqrt(f):
    _check(f[0], "<", "sqrt of negative value")
    _check(f[0], "==", "sqrt derivative singular at zero")
    s0 = _call("sqrt", f[0])
    s1 = f[1] / (2 * s0)
    s2 = (f[2] - s1 * s1) / (2 * s0)
    return (s0, s1, s2)


def _jsincos(f, hyper=False):
    if hyper:
        s0, c0 = _call("sinh", f[0]), _call("cosh", f[0])
        sgn = 1.0
    else:
        s0, c0 = _call("sin", f[0]), _call("cos", f[0])
        sgn = -1.0
    s1 = f[1] * c0
    c1 = sgn * f[1] * s0
    s2 = (2 * f[2] * c0 + f[1] * c1) / 2
    c2 = sgn * (2 * f[2] * s0 + f[1] * s1) / 2
    return (s0, s1, s2), (c0, c1, c2)


# largest constant exponent (in magnitude) raised by repeated products; a
# larger or non-finite one takes the exp(g*ln f) path, so the program stays
# short
MAX_INT_EXPONENT = 1024


def _jpow(f, g, g_const):
    # integer constant exponents stay in polynomial arithmetic so that
    # negative bases (q^2 left of the origin) remain legal; g_const is None
    # for an exponent that varies with q
    if (g_const is not None and abs(g_const) <= MAX_INT_EXPONENT
            and abs(g_const - round(g_const)) < 1e-12):
        k = int(round(g_const))
        one = f[0].prog.const_jet(1.0)
        acc = one
        for _ in range(abs(k)):
            acc = _jmul(acc, f)
        if k < 0:
            acc = _jdiv(one, acc)
        return acc
    _check(f[0], "<=", "power of non-positive base")
    return _jexp(_jmul(g, _jln(f)))


def _lower(node, qjet, params):
    """The jet of node: its recurrences applied to slots, subtrees in the
    order a tree walk evaluates them."""
    kind = node[0]
    if kind == "num":
        return qjet[0].prog.const_jet(node[1])
    if kind == "var":
        if node[1] == "q":
            return qjet
        return qjet[0].prog.const_jet(params[node[1]])
    if kind == "neg":
        return tuple(-x for x in _lower(node[1], qjet, params))
    if kind == "call":
        a = _lower(node[2], qjet, params)
        fn = node[1]
        if fn == "exp":
            return _jexp(a)
        if fn == "ln":
            return _jln(a)
        if fn == "sqrt":
            return _jsqrt(a)
        s, c = _jsincos(a, hyper=fn in ("sinh", "cosh", "tanh"))
        if fn in ("sin", "sinh"):
            return s
        if fn in ("cos", "cosh"):
            return c
        return _jdiv(s, c)
    a = _lower(node[1], qjet, params)
    b = _lower(node[2], qjet, params)
    if kind == "+":
        return tuple(x + y for x, y in zip(a, b))
    if kind == "-":
        return tuple(x - y for x, y in zip(a, b))
    if kind == "*":
        return _jmul(a, b)
    if kind == "/":
        return _jdiv(a, b)
    if kind == "^":
        return _jpow(a, b, None if node[3] else float(b[0].value))
    raise AssertionError("unhandled node %r" % (kind,))


def _any(test):
    # np.any for the bool, numpy bool or bool array a check forms, without
    # np.any's call overhead on scalars
    return test.any() if isinstance(test, np.ndarray) else bool(test)


_NAMESPACE = dict({"_" + name: fn for name, fn in _NUMPY.items()},
                  _asarray=np.asarray, _any=_any,
                  EvalDomainError=EvalDomainError, inf=math.inf, nan=math.nan)


def _build(node, params, skip_zeros):
    """(program, whether every constant was finite)."""
    prog = _Program(skip_zeros)
    q = _Slot(prog, name="q")
    try:
        c = _lower(node, (q, prog.const(1.0), prog.zero), params)
        # back from Taylor coefficients to derivatives
        outputs = (c[0], c[1], 2.0 * c[2])
    except _Unreachable:
        outputs = ()
    namespace = dict(_NAMESPACE)
    exec(compile(prog.source(outputs), "<expression program>", "exec"),
         namespace)
    return namespace["program"], prog.finite


def compile_tree(node, params):
    """The program of a parse tree whose free names other than q are all
    keys of params.  A program with a non-finite constant forms every term
    of the tree walk, since there 0*inf is not 0."""
    with np.errstate(all="ignore"):
        program, finite = _build(node, params, skip_zeros=True)
        if not finite:
            program = _build(node, params, skip_zeros=False)[0]
    return program
