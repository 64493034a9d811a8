"""Minimal symbolic-expression core.

Immutable expression trees over named real variables with exact rational
constants.  Supports parsing, differentiation, scalar and vectorized
numeric evaluation, a one-sided exact zero test by expansion (``is_zero``:
"zero" or "not proven") and seeded random equivalence testing.

The parser reads text by these lexical rules (``_TOKEN``): a number is
ASCII digits with at most one point (``0.25``, ``.5``, ``1.``), read as an
exact rational; a name starts with a letter or ``_`` and goes on with
letters, digits and ``_`` (``str.isalpha`` and ``str.isalnum``, so ``x٣`` is
a name and ``²`` is refused); whitespace is only space, tab, CR and LF; any
other character is a ParseError at its line and column.  ``_Parser`` holds
the grammar.

Trees are canonical when built: the builders (add, mul, pow_, func, ...)
fold rationals, collect like terms and factors, order children
deterministically and apply sin^2 + cos^2 -> 1.  They are the only way to
make a sum, product, power or function node (``Add(x, x)`` raises
TypeError), so every tree is canonical.  A canonical term times a constant
needs no re-merge: ``mul`` scales the term's leading coefficient
(``_scale``), and the general merge, which every other product takes, is
the reference it must agree with.
All coordinate variables are assumed to range over the open domains
declared by their charts; the sqrt builder uses positivity of its
argument there (sqrt(x^2) -> x, sqrt(a*b) -> sqrt(a)*sqrt(b)), and
``chart.metric_from_chart`` checks that assumption on each chart's domain.
A nested root such as sqrt(sqrt(x)) is kept as it is.

Each elementary function is one row of ``_FUNCS`` (numpy ufunc name,
``math`` function, derivative, constant folds, LaTeX name, ``eval_expr``
domain check), which ``func``, ``diff`` and ``to_latex`` read; the tape
compiler puts the row in each function instruction, where ``eval_expr``
reads the ``math`` function and domain check and ``lambdify`` the ufunc.
``FUNCTIONS`` lists its keys.  numpy is imported by the first ``lambdify``
or ``equivalent`` call, which looks every row's ufunc up once
(``_load_numpy``): building, printing, differentiating and ``eval_expr``
never import it.

Nodes are interned (hash-consed): every builder, leaf constructor and so
the parser returns the one live node of the structure it is given,
so one structure is one object, trees share every repeated subtree,
equality is identity and hashing is by identity (see ``Expr``).  Each node
computes its sort key and, once it is a term of a sum, its term split
(coefficient, monomial and like-term key, which ``add`` reads) once, on
first use, and keeps them.  That sharing, and the cached key and split,
are why nodes must stay immutable.  Everything below that is keyed by
identity is therefore keyed by structure.
``substitute`` keeps a memo from each composite node of
its input, by identity, to its result, for the length of one call: a
subtree shared n times is worked on once.  Derivatives keep theirs longer:
``partials()`` gives a callable that keeps one such memo per variable for
its own lifetime, and each operator of ``diffops`` takes all its
derivatives through one, so a subtree shared between the trees it
differentiates by one variable is differentiated once; ``diff`` is a fresh
one.  One tape serves both evaluators: the first ``eval_expr`` or
``lambdify`` of a root compiles it into a tape kept on the root
(``_tape``), and every later evaluation of that root, at any binding, runs
the tape instead of walking the tree.  Only the runner differs:
``eval_expr``'s takes floats, sums with ``math.fsum`` and raises naming
the failing node; ``lambdify``'s takes numpy arrays and yields nan/inf.
``lambdify``'s runner walks the tape depth-first from the root, through a
slot -> instruction table and each slot's read count that its first call
keeps with the tape: it folds each child of a sum or product in as soon as
it is computed, works in place on arrays it made itself that nothing else
reads and keeps a value several parents read until its last read, so that
it holds no more arrays than a recursive walk would.

A builder given a constant outside a function's domain (``log(0)``,
``sqrt(-4)``, ``arccos(2)``) raises ConstantDomainError, and zero to a
negative power raises ZeroPowerError, rather than building a node that a
later fold (``0*log(0) -> 0``) would hide.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import os
import re
import sys
import weakref
from fractions import Fraction
from typing import NamedTuple

np = None  # numpy, once the first lambdify or equivalent has imported it

__all__ = [
    "Expr", "Const", "Var", "FieldAtom", "Add", "Mul", "Pow", "Func",
    "FUNCTIONS", "ZERO", "ONE",
    "const", "var", "add", "mul", "neg", "sub", "div", "pow_", "func",
    "sin", "cos", "tan", "sqrt", "exp", "log",
    "parse_expr", "print_expr", "to_latex", "diff", "partials", "simplify",
    "expand", "is_zero",
    "eval_expr", "lambdify", "free_vars", "equivalent", "substitute",
    "SymExprError", "ParseError", "UnknownFunctionError", "EvalError",
    "UnboundVariableError", "EvalDomainError", "IllConditionedError",
    "ConstantSizeError", "ConstantDomainError", "ZeroPowerError",
    "DEFAULT_DOMAIN", "default_seed",
]

DEFAULT_DOMAIN = (0.1, 2.0)


def default_seed() -> int:
    """Seed for randomized equivalence checks (CURVMAX_SEED overrides)."""
    return int(os.environ.get("CURVMAX_SEED", "20120196"))


class SymExprError(Exception):
    pass


class ParseError(SymExprError):
    def __init__(self, msg, line, col):
        super().__init__(f"{msg} (line {line}, column {col})")
        self.line = line
        self.col = col


class UnknownFunctionError(ParseError):
    pass


class EvalError(SymExprError):
    def __init__(self, msg, subexpr):
        super().__init__(f"{msg} in {_print(subexpr)}")
        self.subexpr = subexpr


class UnboundVariableError(EvalError):
    pass


class EvalDomainError(EvalError):
    pass


class ConstantSizeError(SymExprError):
    """A constant whose numerator or denominator has more decimal digits
    than Python will print (``sys.get_int_max_str_digits``)."""


class IllConditionedError(SymExprError):
    pass


class ConstantDomainError(SymExprError):
    """A builder was given a constant outside a function's domain, such as
    log(0) or sqrt(-1)."""


class ZeroPowerError(ConstantDomainError, ZeroDivisionError):
    """Zero raised to a negative power by a builder (1/0)."""


# ---------------------------------------------------------------------------
# Node types
# ---------------------------------------------------------------------------

class Expr:
    """Base class of the nodes.  Nodes are interned: a builder or leaf
    constructor returns the live node of the structure it is given when
    there is one (see ``_intern``), so one structure is one object,
    equality is identity and hashing is by identity.  A node is shared by
    every tree that holds its structure, so it must never change:
    ``__setattr__`` refuses, and ``_skey`` (the sort key), ``_split`` (see
    ``_term_split``) and ``_tape`` (see ``eval_expr``), which depend on the
    structure alone, are computed on first use and kept.  ``copy``,
    ``deepcopy`` and ``pickle`` give back the interned node
    (``__reduce__``).

    ``Const``, ``Var`` and ``FieldAtom`` are constructed directly.  The
    composite classes refuse construction: only the builders make them,
    through the class's private ``_make``, so every node is canonical."""

    __slots__ = ("_skey", "_split", "_tape", "__weakref__")

    def __new__(cls, *args, **kwargs):
        raise TypeError("sums, products, powers and functions are built by "
                        "add, mul, pow_ and func, not by their node classes")

    @classmethod
    def _make(cls, *parts):
        return cls(*parts)  # a leaf; each composite class has its own

    def __setattr__(self, *a):
        raise AttributeError("Expr is immutable")

    def __reduce__(self):
        return type(self)._make, self._parts()

    def __repr__(self):
        return f"<{type(self).__name__} {_print(self)}>"

    # arithmetic sugar through the builders
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __pow__(self, n):
        return pow_(self, n)

    def __neg__(self):
        return mul(Const(-1), self)


# structure key -> weak reference to the live node of that structure
_NODES = {}
_DEAD = weakref.ref(set())  # a reference whose referent is gone
# dead entries are swept once enough nodes have been made since the last
# sweep to double the table it left, or to fill it to _SWEEP_MIN entries
# if that is more (a new node that takes a dead entry's key adds none)
_SWEEP_MIN = 1 << 12
_new_before_sweep = _SWEEP_MIN


def _intern(cls, key, *parts):
    """The live node whose structure is ``key``, else a new ``cls`` node
    whose slots take ``parts`` in order.  ``key`` is the class and its
    parts, each child by its id: a live node holds its children, so no
    live entry's key names an id that another object has taken.  Whether
    a new node takes a dead entry's key depends on where objects are
    allocated, so nothing but the table's size depends on it: a lookup
    runs the same bytecode for a dead entry as for none, and the sweep
    runs in C, so ``tools/bench.py counts`` gives the same count each run."""
    global _NODES, _new_before_sweep
    node = _NODES.get(key, _DEAD)()
    if node is not None:
        return node
    node = object.__new__(cls)
    for name, part in zip(cls.__slots__, parts):
        object.__setattr__(node, name, part)
    _NODES[key] = weakref.ref(node)
    _new_before_sweep -= 1
    if not _new_before_sweep:
        _NODES = dict(itertools.compress(_NODES.items(),
                                         map(weakref.ref.__call__, _NODES.values())))
        _new_before_sweep = max(2 * len(_NODES), _SWEEP_MIN) - len(_NODES)
    return node


# Python refuses to print an integer of more than _MAX_DIGITS decimal
# digits (0: no limit), so no constant may grow past that: the first
# integer too long to print is _TOO_LONG, and every integer of at most
# _SAFE_BITS bits is shorter.
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_TOO_LONG = 10 ** _MAX_DIGITS if _MAX_DIGITS else math.inf
_SAFE_BITS = _TOO_LONG.bit_length() - 1 if _MAX_DIGITS else math.inf


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value):
        if type(value) is int:  # a live integer constant is found without a Fraction
            node = _NODES.get((cls, value, 1), _DEAD)()
            if node is not None:
                return node
        v = value if isinstance(value, Fraction) else Fraction(value)
        if ((v.numerator.bit_length() > _SAFE_BITS or v.denominator.bit_length() > _SAFE_BITS)
                and max(abs(v.numerator), v.denominator) >= _TOO_LONG):
            raise ConstantSizeError(f"constant of more than {_MAX_DIGITS} digits")
        return _intern(cls, (cls, v.numerator, v.denominator), v)

    def _parts(self):
        return (self.value,)


class Var(Expr):
    __slots__ = ("name",)

    def __new__(cls, name):
        return _intern(cls, (cls, name), name)

    def _parts(self):
        return (self.name,)


class FieldAtom(Expr):
    """Opaque field component u(args...) with an optional partial-derivative
    multi-index.  Derivative variables are kept sorted, so mixed partials
    commute structurally.  Evaluation looks the atom up by ``name``, which
    leaves ``args`` out, so the tape compiler that ``eval_expr`` and
    ``lambdify`` share refuses a tree holding two atoms of one name with
    different ``args`` (``u(x) + u(y)``), with one EvalError naming the
    first atom, left to right, whose ``args`` differ from those of the
    first atom of its name; a ``Var`` may share an atom's name.
    ``print_expr`` and ``to_latex`` also use the name alone, so they refuse
    such a tree with the same error rather than print ``u + u``."""

    __slots__ = ("base", "args", "derivs")

    def __new__(cls, base, args, derivs=()):
        args, derivs = tuple(args), tuple(sorted(derivs))
        return _intern(cls, (cls, base, args, derivs), base, args, derivs)

    def _parts(self):
        return (self.base, self.args, self.derivs)

    @property
    def name(self):
        if not self.derivs:
            return self.base
        return "d_" + "_".join(self.derivs) + "_" + self.base


class Add(Expr):
    __slots__ = ("terms",)

    @classmethod
    def _make(cls, *terms):
        return _intern(cls, (cls, *map(id, terms)), terms)

    def _parts(self):
        return self.terms


class Mul(Expr):
    __slots__ = ("factors",)

    @classmethod
    def _make(cls, *factors):
        return _intern(cls, (cls, *map(id, factors)), factors)

    def _parts(self):
        return self.factors


class Pow(Expr):
    """Integer power."""

    __slots__ = ("base", "exponent")

    @classmethod
    def _make(cls, base, exponent):
        return _intern(cls, (cls, id(base), exponent), base, exponent)

    def _parts(self):
        return (self.base, self.exponent)


class Func(Expr):
    __slots__ = ("fname", "arg")

    @classmethod
    def _make(cls, fname, arg):
        return _intern(cls, (cls, fname, id(arg)), fname, arg)

    def _parts(self):
        return (self.fname, self.arg)


ZERO = Const(0)
ONE = Const(1)


def _wrap(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(x)
    if isinstance(x, float):
        return Const(Fraction(x))
    if isinstance(x, numbers.Integral):  # numpy integer scalars
        return Const(int(x))
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


# ---------------------------------------------------------------------------
# Canonical ordering
# ---------------------------------------------------------------------------

def _key(e):
    """Sort key of a node; built once per node and kept in ``_skey``."""
    try:
        return e._skey
    except AttributeError:
        k = _make_key(e)
        object.__setattr__(e, "_skey", k)
        return k


def _make_key(e):
    t = type(e)
    if t is Const:
        return (0, e.value.numerator, e.value.denominator)
    if t is Var:
        return (1, e.name)
    if t is FieldAtom:
        return (2, e.base, e.derivs, e.args)
    if t is Func:
        return (3, e.fname, _key(e.arg))
    if t is Pow:
        return (4, _key(e.base), e.exponent)
    if t is Mul:
        return (5, len(e.factors), tuple(_key(f) for f in e.factors))
    return (6, len(e.terms), tuple(_key(x) for x in e.terms))


# ---------------------------------------------------------------------------
# Canonical builders: the only makers of sums, products, powers and functions
# ---------------------------------------------------------------------------

def const(x):
    return Const(Fraction(x))


def var(name):
    return Var(name)


def _as_unit(f):
    """Split a canonical factor into (base, integer exponent)."""
    if isinstance(f, Pow):
        return f.base, f.exponent
    return f, 1


def _unit(base, exp):
    return base if exp == 1 else Pow._make(base, exp)


def mul(*factors):
    """Canonical product.  A constant times one canonical term, in either
    order, needs no re-merge: ``_scale`` scales the term.  Every other
    product takes the general merge below, which is the reference
    ``_scale`` must agree with (``mul(c, x, ONE)`` always takes it)."""
    if len(factors) == 2:
        a, b = factors
        if not isinstance(a, Expr):
            a = _wrap(a)
        if not isinstance(b, Expr):
            b = _wrap(b)
        if type(b) is Const:
            a, b = b, a
        if type(a) is Const:
            return _scale(a, b)
        factors = (a, b)
    # the coefficient is kept as an integer numerator and denominator and
    # becomes one Fraction at the end
    num = den = 1
    units = {}
    todo = [f if isinstance(f, Expr) else _wrap(f) for f in reversed(factors)]
    while todo:
        f = todo.pop()
        t = type(f)
        if t is Const:
            v = f.value
            num *= v.numerator
            den *= v.denominator
        elif t is Mul:
            todo.extend(reversed(f.factors))
        else:
            b, n = (f.base, f.exponent) if t is Pow else (f, 1)
            units[b] = units.get(b, 0) + n
    if num == 0:
        return ZERO
    parts = [_unit(b, n) for b, n in units.items() if n != 0]
    if not parts:
        return Const(Fraction(num, den))
    if len(parts) > 1:
        parts.sort(key=_key)
    if num != den:
        parts.insert(0, Const(Fraction(num, den)))
    if len(parts) == 1:
        return parts[0]
    return Mul._make(*parts)


def _scale(c, x):
    """``c * x`` for a constant ``c`` and a term ``x``: the node the
    general merge of ``mul`` builds.  The units of a term are already
    collected and sorted, so only the leading coefficient changes."""
    v = c.value
    if v == 1:
        return x
    t = type(x)
    if t is Const:
        v *= x.value
        return Const(v) if v else ZERO
    if not v:
        return ZERO
    units = x.factors if t is Mul else (x,)
    if type(units[0]) is Const:  # a canonical product's coefficient leads
        v *= units[0].value
        units = units[1:]
        if v == 1:
            return units[0] if len(units) == 1 else Mul._make(*units)
        c = Const(v)
    return Mul._make(c, *units)


_FRACTION_ONE = Fraction(1)


def _term_split(t):
    """Term -> (coeff, mono, key, sin2), computed once per node and kept in
    ``_split``: mono maps base -> exponent and must not be mutated, key is
    the like-term key ``frozenset(mono.items())``, and sin2 tells whether a
    base sin(u) has an exponent of at least 2 (so ``_pythagoras`` may fire).
    A term that is its own base (a variable, atom or function) is split
    anew on each call: kept, its split would hold the node itself, a
    reference cycle that only the cyclic collector frees."""
    try:
        return t._split
    except AttributeError:
        pass
    tt = type(t)
    if tt is Const:
        coeff, mono = t.value, {}
    elif tt is Mul:
        # a product holds at most one constant, its first factor, and
        # each base once
        units, coeff = t.factors, _FRACTION_ONE
        if type(units[0]) is Const:
            coeff, units = units[0].value, units[1:]
        mono = dict(map(_as_unit, units))
    else:
        b, n = _as_unit(t)
        coeff, mono = _FRACTION_ONE, {b: n}
    sin2 = any(n >= 2 and type(b) is Func and b.fname == "sin" for b, n in mono.items())
    split = (coeff, mono, frozenset(mono.items()), sin2)
    if tt is Const or tt is Mul or tt is Pow:
        object.__setattr__(t, "_split", split)
    return split


def _term_build(coeff, mono):
    return mul(Const(coeff), *(_unit(b, n) for b, n in mono.items()))


def _pythagoras(terms):
    """Collapse X*sin(u)^2 + X*cos(u)^2 -> X inside a combined term map.

    ``terms`` maps like-term key -> [coeff, mono, node] as in ``add``;
    mutated in place until no rule fires, and a term it changes loses its
    node.  Each application lowers total degree, so this terminates.
    """
    changed = True
    while changed:
        changed = False
        # each pass stops at its first rewrite, so every key it reads is live
        for k, (coeff, mono, _) in list(terms.items()):
            for b, n in mono.items():
                if not (isinstance(b, Func) and b.fname == "sin" and n >= 2):
                    continue
                reduced = dict(mono)
                reduced[b] = n - 2
                if reduced[b] == 0:
                    del reduced[b]
                cb = Func._make("cos", b.arg)
                partner = dict(reduced)
                partner[cb] = partner.get(cb, 0) + 2
                pk = frozenset(partner.items())
                if pk in terms and terms[pk][0] == coeff:
                    del terms[k], terms[pk]
                    rk = frozenset(reduced.items())
                    if rk in terms:
                        terms[rk][0] += coeff
                        terms[rk][2] = None
                        if terms[rk][0] == 0:
                            del terms[rk]
                    else:
                        terms[rk] = [coeff, reduced, None]
                    changed = True
                    break
            if changed:
                break


def add(*terms):
    terms = [_wrap(t) for t in terms]
    if len(terms) == 1:
        t = terms[0]
        # a term other than a sum or zero is its own sum
        if type(t) is not Add and (type(t) is not Const or t.value):
            return t
    # combined maps like-term key -> [coeff, mono, node]; node is the input
    # term while no other term has merged with it, else None (rebuild).  A
    # canonical term rebuilt from its split is equal to itself.
    combined = {}
    sin2 = False
    todo = terms[::-1]
    while todo:
        t = todo.pop()
        if type(t) is Add:
            todo.extend(reversed(t.terms))
            continue
        coeff, mono, k, s2 = _term_split(t)
        if coeff == 0:
            continue
        entry = combined.get(k)
        if entry is not None:
            entry[0] += coeff
            entry[2] = None
            if entry[0] == 0:
                del combined[k]
        else:
            combined[k] = [coeff, mono, t]
            sin2 = sin2 or s2
    if sin2:
        _pythagoras(combined)
    parts = [node if node is not None else _term_build(c, m)
             for c, m, node in combined.values()]
    if not parts:
        return ZERO
    if len(parts) == 1:
        return parts[0]
    parts.sort(key=_key)
    return Add._make(*parts)


def pow_(base, exponent):
    if not isinstance(exponent, int):
        raise TypeError("exponent must be an integer")
    base = _wrap(base)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        v = base.value
        if v == 0 and exponent < 0:
            raise ZeroPowerError("0 raised to a negative power")
        # p^k has at least k (bits(p) - 1) + 1 bits: refuse before computing it
        bits = max(v.numerator.bit_length(), v.denominator.bit_length()) - 1
        if abs(exponent) * bits > _SAFE_BITS:
            raise ConstantSizeError(f"constant of more than {_MAX_DIGITS} digits")
        return Const(v ** exponent)
    if isinstance(base, Pow):
        return pow_(base.base, base.exponent * exponent)
    if isinstance(base, Mul):
        return mul(*(pow_(f, exponent) for f in base.factors))
    return Pow._make(base, exponent)


def neg(x):
    return mul(Const(-1), _wrap(x))


def sub(a, b):
    return add(_wrap(a), neg(b))


def div(a, b):
    return mul(_wrap(a), pow_(_wrap(b), -1))


def _sqrt_rational(v):
    """Exact square root of a nonnegative Fraction, or None."""
    n, d = v.numerator, v.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def func(fname, arg):
    arg = _wrap(arg)
    row = _FUNCS.get(fname)
    if row is None:
        raise ValueError(f"unknown function {fname!r}")
    if isinstance(arg, Const):
        if row.domain is not None and row.domain[0](arg.value):
            raise ConstantDomainError(f"{row.domain[1]} in {fname}({print_expr(arg)})")
        if arg.value in row.folds:
            return row.folds[arg.value]
    if fname == "sqrt":
        # domain positivity assumed: sqrt(x^2) -> x, sqrt(a*b) -> sqrt(a)*sqrt(b)
        if isinstance(arg, Const) and arg.value >= 0:
            r = _sqrt_rational(arg.value)
            if r is not None:
                return Const(r)
        if isinstance(arg, Pow):
            b, n = arg.base, arg.exponent
            if n % 2 == 0:
                return pow_(b, n // 2)
            return mul(pow_(b, (n - 1) // 2), Func._make("sqrt", b))
        if isinstance(arg, Mul):
            return mul(*(func("sqrt", f) for f in arg.factors))
    return Func._make(fname, arg)


def sin(x):
    return func("sin", x)


def cos(x):
    return func("cos", x)


def tan(x):
    return func("tan", x)


def sqrt(x):
    return func("sqrt", x)


def exp(x):
    return func("exp", x)


def log(x):
    return func("log", x)


class _Fn(NamedTuple):
    ufunc: str       # name of the numpy ufunc (lambdify, through _UFUNCS)
    mathf: object    # eval_expr
    deriv: object    # u -> d f(u)/du, built canonically (diff)
    folds: dict      # exact constant argument -> value (func)
    latex: str       # to_latex
    domain: tuple = None  # (u -> outside the domain, EvalDomainError message)


_FUNCS = {
    "sin": _Fn("sin", math.sin, cos, {0: ZERO}, r"\sin"),
    "cos": _Fn("cos", math.cos, lambda u: neg(sin(u)), {0: ONE}, r"\cos"),
    "tan": _Fn("tan", math.tan, lambda u: pow_(cos(u), -2), {0: ZERO}, r"\tan"),
    "sqrt": _Fn("sqrt", math.sqrt, lambda u: div(ONE, mul(Const(2), sqrt(u))), {},
                r"\sqrt", (lambda u: u < 0, "sqrt of negative value")),
    "exp": _Fn("exp", math.exp, exp, {0: ONE}, r"\exp"),
    "log": _Fn("log", math.log, lambda u: pow_(u, -1), {1: ZERO},
               r"\ln", (lambda u: u <= 0, "log of non-positive value")),
    "arctan": _Fn("arctan", math.atan, lambda u: div(ONE, add(ONE, pow_(u, 2))),
                  {0: ZERO}, r"\arctan"),
    "arccos": _Fn("arccos", math.acos,
                  lambda u: neg(div(ONE, sqrt(sub(ONE, pow_(u, 2))))), {1: ZERO},
                  r"\arccos", (lambda u: not -1.0 <= u <= 1.0,
                               "arccos argument outside [-1, 1]")),
}

FUNCTIONS = tuple(_FUNCS)

_UFUNCS = {}  # ufunc name -> numpy ufunc, filled by _load_numpy


def _load_numpy():
    """Import numpy into ``np`` and look every ``_FUNCS`` row's ufunc up,
    once per process."""
    global np
    if np is None:
        import numpy
        _UFUNCS.update((row.ufunc, getattr(numpy, row.ufunc)) for row in _FUNCS.values())
        np = numpy


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def partials():
    """A fresh ``d(e, v)`` that works like ``diff`` and keeps, for its own
    lifetime, one memo per variable over every tree it is given: a subtree
    shared between two of its inputs is differentiated by a variable once.
    It holds each input root, so that every id in its memos stays the id
    of a live node.  An operator takes all its derivatives through one."""
    memos = {}
    roots = []

    def d(e, v):
        if isinstance(v, Var):
            v = v.name
        e = _wrap(e)
        roots.append(e)
        return _diff(e, v, memos.setdefault(v, {}))
    return d


def diff(e, v):
    """Partial derivative of ``e`` with respect to variable name ``v``,
    canonical.  Derivative with respect to an absent variable is 0."""
    return partials()(e, v)


def _diff(e, v, memo):
    """``memo`` maps id(node) -> derivative by ``v`` for the composite
    nodes already differentiated; whoever keeps it keeps their trees (and
    so every id) alive."""
    t = type(e)
    if t is Const:
        return ZERO
    if t is Var:
        return ONE if e.name == v else ZERO
    if t is FieldAtom:
        if v in e.args:
            return FieldAtom(e.base, e.args, e.derivs + (v,))
        return ZERO
    out = memo.get(id(e))
    if out is not None:
        return out
    if t is Add:
        out = add(*(_diff(x, v, memo) for x in e.terms))
    elif t is Mul:
        # product rule; a factor with zero derivative adds no term
        parts = []
        for i, f in enumerate(e.factors):
            df = _diff(f, v, memo)
            if df is not ZERO:
                parts.append(mul(df, *e.factors[:i], *e.factors[i + 1:]))
        out = add(*parts)
    elif t is Pow:
        out = mul(Const(e.exponent), pow_(e.base, e.exponent - 1), _diff(e.base, v, memo))
    else:
        u = e.arg
        du = _diff(u, v, memo)
        out = ZERO if du is ZERO else mul(_FUNCS[e.fname].deriv(u), du)
    memo[id(e)] = out
    return out


# ---------------------------------------------------------------------------
# Free variables, evaluation
# ---------------------------------------------------------------------------

def free_vars(e):
    """Names of all variables and field atoms appearing in ``e``."""
    out = set()
    stack = [_wrap(e)]
    while stack:
        x = stack.pop()
        t = type(x)
        if t is Var or t is FieldAtom:
            out.add(x.name)
        elif t is Add:
            stack.extend(x.terms)
        elif t is Mul:
            stack.extend(x.factors)
        elif t is Pow:
            stack.append(x.base)
        elif t is Func:
            stack.append(x.arg)
    return out


def substitute(e, mapping):
    """Replace variables and field atoms by name with expressions.

    Values may be Expr or numbers; the result is canonical.  A subtree no
    binding reaches (whose children all come back as they were) is
    returned as it is, and so is ``e`` itself when there are no bindings.
    """
    e = _wrap(e)
    if not mapping:
        return e
    mapping = {k: _wrap(v) for k, v in mapping.items()}
    memo = {}  # id(composite node) -> its result, for this call only

    def visit(x):
        t = type(x)
        if t is Var or t is FieldAtom:
            return mapping.get(x.name, x)
        if t is Const:
            return x
        out = memo.get(id(x))
        if out is not None:
            return out
        if t is Add:
            kids = [visit(u) for u in x.terms]
            out = x if all(map(operator.is_, kids, x.terms)) else add(*kids)
        elif t is Mul:
            kids = [visit(f) for f in x.factors]
            out = x if all(map(operator.is_, kids, x.factors)) else mul(*kids)
        elif t is Pow:
            base = visit(x.base)
            out = x if base is x.base else pow_(base, x.exponent)
        else:
            arg = visit(x.arg)
            out = x if arg is x.arg else func(x.fname, arg)
        memo[id(x)] = out
        return out

    try:
        return visit(e)
    finally:
        del visit  # it refers to itself: leave no cycle behind


def simplify(e):
    """``e`` itself: every tree is canonical when built."""
    return substitute(e, {})


def expand(e):
    """``e`` with each product and each positive integer power of a sum
    distributed, built through the builders, so like terms collect and
    sin^2 + cos^2 -> 1 can fire across what were separate factors.  A sum
    to a negative power stays a power (no common denominator is formed);
    its base, and each function's argument, is expanded.  A memo from each
    composite node, by identity, to its result lasts one call.  Raises
    SymExprError rather than multiply out more than ``_EXPAND_PAIRS``
    pairs of terms for one product or power, and as the builders do when a
    sum cancels to a constant that a function or negative power cannot
    take (``(x - x*(1 + y) + x*y)^-1`` expands to 1/0)."""
    memo = {}

    def visit(x):
        t = type(x)
        if t is Const or t is Var or t is FieldAtom:
            return x
        out = memo.get(id(x))
        if out is not None:
            return out
        # a node whose children come back unchanged, and that is no product
        # or power to distribute, is its own expansion
        if t is Add:
            kids = [visit(u) for u in x.terms]
            out = x if all(map(operator.is_, kids, x.terms)) else add(*kids)
        elif t is Mul:
            kids = [visit(f) for f in x.factors]
            same = all(map(operator.is_, kids, x.factors))
            out = (x if same and not any(type(f) is Add for f in kids)
                   else _expand_product(kids))
        elif t is Pow:
            base = visit(x.base)
            out = (x if base is x.base and not (type(base) is Add and x.exponent > 0)
                   else _expand_power(base, x.exponent))
        else:
            arg = visit(x.arg)
            out = x if arg is x.arg else func(x.fname, arg)
        memo[id(x)] = out
        return out

    try:
        return visit(_wrap(e))
    finally:
        del visit  # it refers to itself: leave no cycle behind


# expansion refuses to multiply out more pairs of terms than this for one
# product or power
_EXPAND_PAIRS = 2_000


def _expand_product(factors):
    """The distributed product of expanded factors: the product of those
    that are not sums, times each sum in turn, like terms collected after
    each."""
    out = mul(*(f for f in factors if type(f) is not Add))
    pairs = 0
    for f in factors:
        if type(f) is Add:
            terms = out.terms if type(out) is Add else (out,)
            pairs += len(terms) * len(f.terms)
            if pairs > _EXPAND_PAIRS:
                raise SymExprError(f"expansion of more than {_EXPAND_PAIRS} term products")
            out = add(*(mul(a, b) for a in terms for b in f.terms))
    return out


def _expand_power(base, n):
    """``base^n`` distributed, for an expanded ``base``: a power of a
    product is the product of its factors' powers, and one of those may be
    a sum to a positive power again."""
    t = type(base)
    if t is Add and n > 0:
        return _expand_product([base] * n)
    if t is Mul:
        return _expand_product([_expand_power(f, n) for f in base.factors])
    if t is Pow:
        return _expand_power(base.base, base.exponent * n)
    return pow_(base, n)


def is_zero(e):
    """True when ``expand(e)`` builds to zero: a proof that ``e`` is
    identically zero wherever it is defined (under the builders' domain
    assumptions).  False means "not proven", never "nonzero": expansion
    forms no common denominators, an expansion that raises (see
    ``expand``) proves nothing, and zero-equivalence is undecidable in
    general."""
    e = _wrap(e)
    if type(e) is Const:
        return e.value == 0
    try:
        return expand(e) == ZERO
    except SymExprError:  # a builder refused a node of the expansion
        return False


def eval_expr(e, binding):
    """Evaluate to an IEEE double with every free variable bound.

    Raises UnboundVariableError or EvalDomainError (a nan bound to a
    variable, division by zero, sqrt/log/arccos out of domain, a constant,
    product, power or sum beyond the float range, an undefined product such
    as zero times an infinity, opposite infinities summed) naming the
    offending subexpression, and EvalError for a tree holding two field
    atoms of one name but different arguments (see ``FieldAtom``).

    The root's tape (see ``_compile``) is compiled by the first call of
    ``eval_expr`` or ``lambdify`` on it and kept in its ``_tape`` slot:
    its distinct nodes (so distinct structures) in left-to-right
    post-order, each at its first occurrence.  Every call runs it with one
    value per distinct node, so a subtree shared n times is evaluated once
    per call, and the nodes are visited in the order a recursive walk
    would reach them: the first node that fails is the one named.
    """
    e = _wrap(e)
    return _run(_tape_of(e), binding, e)


def _tape_of(root):
    try:
        return root._tape
    except AttributeError:
        tape = _compile(root)
        object.__setattr__(root, "_tape", tape)
        return tape


# tape instruction kinds; each instruction is (kind, operand, slot, node)
_T_MUL, _T_ADD, _T_POW, _T_FUNC, _T_ATOM, _T_BAD_CONST = range(6)


def _compile(root):
    """[template, code, None] of ``root``'s tape, run by ``_run``
    (``eval_expr``) and ``_run_array`` (``lambdify``): ``template`` holds
    one value slot per distinct node, preset for constants (a constant
    beyond the float range to its signed infinity, marked by a
    ``_T_BAD_CONST`` instruction), and ``code`` computes the other slots
    in post-order.  ``code`` names the root's own node as None, so that
    the tape held by the root does not hold the root.  The last item is
    ``_run_array``'s table of the tape (each slot's instruction, its read
    count and whether it makes a new value), made by its first call, so
    that a root only ``eval_expr`` runs never pays for it."""
    slots = {}   # id(node) -> slot
    template = []
    code = []
    atoms = {}   # field-atom name -> first atom of that name

    def visit(x):
        k = id(x)
        slot = slots.get(k)
        if slot is not None:
            return slot
        t = type(x)
        value = kind = None
        if t is Const:
            try:
                value = x.value.numerator / x.value.denominator
            except OverflowError:
                value = math.inf if x.value > 0 else -math.inf
                kind, arg = _T_BAD_CONST, None
        elif t is Var or t is FieldAtom:
            name = x.name
            kind, arg = _T_ATOM, name
            if t is FieldAtom and atoms.setdefault(name, x).args != x.args:
                raise EvalError(f"field atom {name!r} also appears with other arguments", x)
        elif t is Mul:
            kind, arg = _T_MUL, tuple(map(visit, x.factors))
        elif t is Add:
            kind, arg = _T_ADD, tuple(map(visit, x.terms))
        elif t is Pow:
            kind, arg = _T_POW, (visit(x.base), x.exponent)
        else:
            kind, arg = _T_FUNC, (visit(x.arg), _FUNCS[x.fname])
        slot = slots[k] = len(template)
        template.append(value)
        if kind is not None:
            code.append((kind, arg, slot, None if x is root else x))
        return slot

    try:
        visit(root)
    finally:
        del visit  # it refers to itself: leave no cycle behind
    return [template, code, None]


def _run(tape, binding, root):
    template, code, _ = tape
    vals = template[:]
    for kind, arg, slot, node in code:
        if kind is _T_MUL:
            out = 1.0
            for i in arg:
                out *= vals[i]
            if not math.isfinite(out):
                # an infinite factor gives an infinite product; finite ones must not
                if out != out:
                    raise EvalDomainError("undefined product (zero times an infinity, or a nan)",
                                          node or root)
                if all(abs(vals[i]) < math.inf for i in arg):
                    raise EvalDomainError("product beyond the float range", node or root)
            vals[slot] = out
        elif kind is _T_ADD:
            try:
                vals[slot] = math.fsum([vals[i] for i in arg])
            except ValueError as err:  # fsum refuses inf + -inf
                raise EvalDomainError("sum of opposite infinities", node or root) from err
            except OverflowError as err:
                raise EvalDomainError("sum beyond the float range", node or root) from err
        elif kind is _T_POW:
            b = vals[arg[0]]
            if b == 0.0 and arg[1] < 0:
                raise EvalDomainError("division by zero", node or root)
            try:
                vals[slot] = b ** arg[1]
            except OverflowError as err:
                raise EvalDomainError("power beyond the float range", node or root) from err
        elif kind is _T_FUNC:
            u = vals[arg[0]]
            row = arg[1]
            if row.domain is not None and row.domain[0](u):
                raise EvalDomainError(row.domain[1], node or root)
            try:
                vals[slot] = row.mathf(u)
            except (ValueError, OverflowError) as err:
                raise EvalDomainError(str(err), node or root) from err
        elif kind is _T_ATOM:
            if arg in binding:
                value = float(binding[arg])
                if value != value:
                    raise EvalDomainError(f"nan bound to {arg!r}", node or root)
            elif arg == "pi":
                value = math.pi
            else:
                raise UnboundVariableError(f"unbound variable {arg!r}", node or root)
            vals[slot] = value
        else:  # _T_BAD_CONST
            x = node or root
            try:
                x.value.numerator / x.value.denominator
            except OverflowError as err:
                raise EvalDomainError("constant beyond the float range", x) from err
    return vals[-1]


def _run_array(tape, binding):
    """``lambdify``'s runner: the tape's value over arrays, with no domain
    check; a constant beyond the float range keeps its preset infinity.

    It walks the tape depth-first from the root, as a recursive walk of the
    tree would, so it gives that walk's bytes and holds no more arrays than
    it: each operand of a sum (from 0, as ``sum()`` does) or a product (from
    its first operand) is folded in as soon as it is computed and then
    dropped, and a computed value several parents read is kept until its
    last read (a bound value is read from ``binding`` at each read).  A
    fold updates in place only an array this call made that nothing else
    reads: a sum's partial value, or a product's, or a product's first
    operand when that product is its one reader.  The whole walk ignores
    divide and invalid, so that nan and inf pass without a RuntimeWarning;
    overflow still warns.  The first call stores the tape's slot ->
    instruction table, each slot's read count and whether its instruction
    makes a new value as the tape's last item, in one pass over ``code``."""
    template, code, table = tape
    if table is None:
        at, reads, made = [None] * len(template), [0] * len(template), [False] * len(template)
        for ins in code:
            kind, arg, slot, _ = ins
            at[slot] = ins
            if kind is _T_MUL or kind is _T_ADD:
                for s in arg:
                    reads[s] += 1
                made[slot] = kind is _T_ADD or len(arg) > 1  # one factor: that same value
            elif kind is _T_POW or kind is _T_FUNC:
                reads[arg[0]] += 1
                made[slot] = True
        table = tape[2] = (at, reads, made)
    at, reads, made = table
    held = {}  # slot read by several parents -> [its value, reads left]

    def walk(s):
        v = template[s]
        if v is not None:
            return v
        kind, arg, _, _ = at[s]
        if kind is _T_ATOM:
            return binding.get("pi", math.pi) if arg == "pi" else binding[arg]
        n = reads[s]
        if n > 1:
            h = held.get(s)
            if h is not None:
                h[1] -= 1
                if not h[1]:
                    del held[s]
                return h[0]
        if kind is _T_MUL or kind is _T_ADD:
            if kind is _T_MUL:
                v, own, ops = walk(arg[0]), reads[arg[0]] == 1 and made[arg[0]], arg[1:]
            else:
                v, own, ops = 0, True, arg  # sum() starts at 0
            for i in ops:
                w = walk(i)
                if own and type(v) is np.ndarray:
                    try:
                        v = (np.multiply if kind is _T_MUL else np.add)(v, w, out=v, casting="no")
                    except (TypeError, ValueError):  # another dtype, or a wider shape
                        v = v * w if kind is _T_MUL else v + w
                else:
                    v, own = (v * w if kind is _T_MUL else v + w), True
                del w
        elif kind is _T_POW:
            v = walk(arg[0])
            v = np.float_power(v, arg[1]) if arg[1] < 0 else v ** arg[1]
        else:
            v = _UFUNCS[arg[1].ufunc](walk(arg[0]))
        if n > 1:
            held[s] = [v, n - 1]
        return v

    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            return walk(len(template) - 1)
    finally:
        del walk  # it refers to itself: leave no cycle behind


def lambdify(e):
    """Compile to a function of a dict of numpy arrays (or scalars) that
    walks the root's tape, the one ``eval_expr`` runs, through numpy
    (``_run_array``).

    Out-of-domain points and constants beyond the float range yield
    nan/inf rather than raising, and so do sums and products that make nan
    out of infinities, with no RuntimeWarning; callers mask.  Overflow
    still warns.  A tree holding two field atoms of one name but different
    arguments raises the EvalError that ``eval_expr`` raises, naming the
    same atom (see ``FieldAtom``).
    """
    _load_numpy()
    tape = _tape_of(_wrap(e))
    return lambda b: _run_array(tape, b)


# ---------------------------------------------------------------------------
# Randomized equivalence
# ---------------------------------------------------------------------------

def equivalent(a, b, domains=None, seed=None):
    """True iff ``a`` and ``b`` agree at 100 seeded pseudo-random points,
    each to 1e-10 relative to the larger of 1 and either side's size.

    ``domains`` maps variable names to (lo, hi) sampling intervals; unlisted
    variables use DEFAULT_DOMAIN.  Points where both sides fail to
    evaluate are skipped, and more than 50% of them raises
    IllConditionedError; a point where only one side fails gives False.
    """
    n, rtol = 100, 1e-10
    a, b = _wrap(a), _wrap(b)
    fa, fb = lambdify(a), lambdify(b)
    # the free names are those of the tapes' atom instructions, less the
    # constant pi, which both runners bind to math.pi
    names = sorted({arg for e in (a, b) for kind, arg, _, _ in _tape_of(e)[1]
                    if kind is _T_ATOM and arg != "pi"})
    if not names:
        va, vb = eval_expr(a, {}), eval_expr(b, {})
        return abs(va - vb) <= rtol * max(1.0, abs(va), abs(vb))
    domains = domains or {}
    rng = np.random.default_rng(seed if seed is not None else default_seed())
    binding = {}
    for name in names:
        lo, hi = domains.get(name, DEFAULT_DOMAIN)
        binding[name] = rng.uniform(lo, hi, size=n)
    # a side with free names gives its samples as they are; only a side
    # with none gives a scalar, broadcast to them
    va, vb = (v if type(v) is np.ndarray and v.dtype == np.float64 and v.shape == (n,)
              else np.broadcast_to(np.asarray(v, dtype=float), (n,))
              for v in (fa(binding), fb(binding)))
    fin_a, fin_b = np.isfinite(va), np.isfinite(vb)
    if np.count_nonzero(~fin_a & ~fin_b) > n // 2:
        raise IllConditionedError(
            "ill-conditioned comparison: sampling repeatedly hits singular points")
    if np.any(fin_a != fin_b):
        return False
    scale = np.maximum(1.0, np.maximum(np.abs(va), np.abs(vb)))
    return bool(np.all(np.abs(va - vb)[fin_a] <= rtol * scale[fin_a]))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# One match per token, by the lexical rules of the module docstring.  \w is
# str.isalnum() or '_', so _tokens refuses a name whose first character is
# not a letter or '_' ('\u00b2', which \w matches).
_TOKEN = re.compile(r"(?P<blank>[ \t\r\n]+)|(?P<num>[0-9]+\.?[0-9]*|\.[0-9]+)"
                    r"|(?P<ident>\w+)|(?P<op>[-+*/^()])|(?P<bad>.)")


def _tokens(text, line, col):
    """The (kind, text, line, column) tokens of ``text``, ending with eof;
    an operator's kind is its text.  ``text`` starts at ``line`` and
    ``col``; a newline starts the next line at column 1."""
    toks = []
    origin = -col  # the character at offset i is in column i - origin
    for m in _TOKEN.finditer(text):
        kind, lit = m.lastgroup, m.group()
        if kind == "blank":
            if "\n" in lit:
                line += lit.count("\n")
                origin = m.start() + lit.rindex("\n")
            continue
        if kind == "bad" or (kind == "ident" and not (lit[0].isalpha() or lit[0] == "_")):
            raise ParseError(f"unexpected character {lit[0]!r}", line, m.start() - origin)
        toks.append((lit if kind == "op" else kind, lit, line, m.start() - origin))
    toks.append(("eof", "", line, len(text) - origin))
    return toks


class _Parser:
    """expr := term (('+'|'-') term)*
    term := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' integer)?
    base := number | ident | ident '(' expr ')' | '(' expr ')'

    Unary minus binds looser than '^', so -x^2 reads as -(x^2).
    """

    def __init__(self, text, line, col):
        self.toks = _tokens(text, line, col)
        self.idx = 0

    def peek(self):
        return self.toks[self.idx][0]

    def next(self):
        self.idx += 1
        return self.toks[self.idx - 1]

    def parse(self):
        e = self.expr()
        tok = self.next()
        if tok[0] != "eof":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2], tok[3])
        return e

    def expr(self):
        e = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            e = _fold(add if op[0] == "+" else sub, e, rhs, op)
        return e

    def term(self):
        e = self.factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.factor()
            e = _fold(mul if op[0] == "*" else div, e, rhs, op)
        return e

    def factor(self):
        if self.peek() == "-":
            self.next()
            return neg(self.factor())
        e = self.base()
        if self.peek() == "^":
            op = self.next()
            sign = 1
            if self.peek() == "-":
                self.next()
                sign = -1
            tok = self.next()
            if tok[0] != "num" or "." in tok[1]:
                raise ParseError("exponent must be an integer", tok[2], tok[3])
            try:
                n = int(tok[1])
            except ValueError:  # more digits than int() reads
                raise ParseError(f"number of more than {_MAX_DIGITS} digits",
                                 tok[2], tok[3]) from None
            e = _fold(pow_, e, sign * n, op)
        return e

    def closed(self, e):
        """``e``, after the ')' that must follow it."""
        tok = self.next()
        if tok[0] != ")":
            raise ParseError("expected ')'", tok[2], tok[3])
        return e

    def base(self):
        kind, lit, line, col = self.next()
        if kind == "num":
            try:
                return Const(Fraction(lit) if "." in lit else int(lit))
            except (ValueError, ConstantSizeError):  # int() refuses it too
                raise ParseError(f"number of more than {_MAX_DIGITS} digits",
                                 line, col) from None
        if kind == "(":
            return self.closed(self.expr())
        if kind == "ident":
            if self.peek() == "(":
                if lit not in FUNCTIONS:
                    raise UnknownFunctionError(f"unknown function {lit!r}", line, col)
                self.next()
                arg = self.closed(self.expr())
                try:
                    return func(lit, arg)
                except ConstantDomainError as err:
                    raise ParseError(str(err), line, col) from None
            return Var(lit)
        raise ParseError(f"unexpected {lit or kind!r}", line, col)


def _fold(build, a, b, op):
    """Apply a builder at operator token ``op``; constant folding turns a
    zero divisor or a constant too long to print into a ParseError at
    that operator."""
    try:
        return build(a, b)
    except ZeroDivisionError:
        raise ParseError("division by zero", op[2], op[3]) from None
    except ConstantSizeError as err:
        raise ParseError(str(err), op[2], op[3]) from None


def parse_expr(text, *, line=1, col=1):
    """Parse per the module grammar into a canonical tree; round-trips
    through print_expr.  ``line`` and ``col`` place the text's first
    character in a larger file, for the positions ParseError reports."""
    return _Parser(text, line, col).parse()


# ---------------------------------------------------------------------------
# Printers
# ---------------------------------------------------------------------------

def _print_const(v):
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def _paren_for_mul(x):
    s = _print(x)
    if isinstance(x, Add) or (isinstance(x, Const) and (x.value < 0 or x.value.denominator != 1)):
        return f"({s})"
    return s


def _join_terms(printer, terms):
    """Printed terms joined by " + ", or by " - " for one with a leading minus."""
    first, *rest = map(printer, terms)
    return first + "".join(" - " + s[1:] if s.startswith("-") else " + " + s for s in rest)


def print_expr(e):
    """Plain-text form that reparses to the same tree (see ``FieldAtom``)."""
    e = _wrap(e)
    _tape_of(e)
    return _print(e)


def _print(e):
    t = type(e)
    if t is Const:
        return _print_const(e.value)
    if t is Var or t is FieldAtom:
        return e.name
    if t is Func:
        return f"{e.fname}({_print(e.arg)})"
    if t is Pow:
        b = _print(e.base)
        if not isinstance(e.base, (Var, FieldAtom, Func)):
            b = f"({b})"
        return f"{b}^{e.exponent}"
    if t is Mul:
        factors = list(e.factors)
        sign = ""
        if isinstance(factors[0], Const) and factors[0].value < 0:
            if factors[0].value == -1 and len(factors) > 1:
                factors = factors[1:]
            else:
                factors = [Const(-factors[0].value)] + factors[1:]
            sign = "-"
        return sign + "*".join(_paren_for_mul(f) for f in factors)
    return _join_terms(_print, e.terms)


_LATEX_NAMES = {
    "phi": r"\varphi", "theta": r"\vartheta", "vartheta": r"\vartheta",
    "rho": r"\rho", "psi": r"\psi", "alpha": r"\alpha", "beta": r"\beta",
    "lambda": r"\lambda", "mu": r"\mu", "epsilon": r"\varepsilon",
    "omega": r"\omega", "pi": r"\pi",
}


def _latex_name(name):
    if "_" in name:
        head, _, sub = name.partition("_")
        return f"{_LATEX_NAMES.get(head, head)}_{{{_latex_sub(sub)}}}"
    return _LATEX_NAMES.get(name, name)


def _latex_sub(sub):
    return " ".join(_LATEX_NAMES.get(p, p) for p in sub.split("_"))


def to_latex(e):
    e = _wrap(e)
    _tape_of(e)
    return _latex(e)


def _latex(e):
    t = type(e)
    if t is Const:
        v = e.value
        if v.denominator == 1:
            return str(v.numerator)
        s = rf"\frac{{{abs(v.numerator)}}}{{{v.denominator}}}"
        return ("-" if v < 0 else "") + s
    if t is Var:
        return _latex_name(e.name)
    if t is FieldAtom:
        base = _latex_name(e.base)
        for d in e.derivs:
            base = rf"\partial_{{{_latex_name(d)}}} " + base
        return base
    if t is Func:
        if e.fname == "sqrt":
            return rf"\sqrt{{{_latex(e.arg)}}}"
        return rf"{_FUNCS[e.fname].latex}\left({_latex(e.arg)}\right)"
    if t is Pow:
        if e.exponent < 0:
            return rf"\frac{{1}}{{{_latex(pow_(e.base, -e.exponent))}}}"
        b = _latex(e.base)
        if isinstance(e.base, Func) and e.base.fname != "sqrt":
            # \sin^{2}\left(...\right) style
            return rf"{_FUNCS[e.base.fname].latex}^{{{e.exponent}}}\left({_latex(e.base.arg)}\right)"
        if not isinstance(e.base, (Var, FieldAtom)):
            b = rf"\left({b}\right)"
        return rf"{b}^{{{e.exponent}}}"
    if t is Mul:
        num, den = [], []
        coeff = Fraction(1)
        for f in e.factors:
            if isinstance(f, Const):
                coeff *= f.value
            elif isinstance(f, Pow) and f.exponent < 0:
                den.append(pow_(f.base, -f.exponent))
            else:
                num.append(f)

        def render(parts):
            out = []
            for p in parts:
                s = _latex(p)
                if isinstance(p, Add):
                    s = rf"\left({s}\right)"
                out.append(s)
            return " \\, ".join(out) if out else "1"

        sign = "-" if coeff < 0 else ""
        coeff = abs(coeff)
        cnum = "" if coeff.numerator == 1 else str(coeff.numerator)
        if coeff.denominator != 1:
            den.insert(0, Const(coeff.denominator))
        if den:
            body = rf"\frac{{{(cnum + ' ') if cnum else ''}{render(num)}}}{{{render(den)}}}"
        else:
            body = ((cnum + " ") if cnum else "") + render(num)
        return sign + body
    return _join_terms(_latex, e.terms)
