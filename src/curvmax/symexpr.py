"""Minimal symbolic-expression core.

Immutable expression trees over named real variables with exact rational
constants.  Supports parsing, differentiation, scalar and vectorized
numeric evaluation, and seeded random equivalence testing.

Trees are canonical when built: the builders (add, mul, pow_, func, ...)
fold rationals, collect like terms and factors, order children
deterministically and apply sin^2 + cos^2 -> 1, and the parser, diff and
substitute build only through them.  ``simplify`` (``substitute`` with no
bindings) is needed only for trees assembled by hand with the node
constructors.  All coordinate variables are assumed to range over the open
domains declared by their charts; the sqrt builder uses positivity of its
argument there (sqrt(x^2) -> x, sqrt(a*b) -> sqrt(a)*sqrt(b)), and
``chart.metric_from_chart`` checks that assumption on each chart's domain.
A nested root such as sqrt(sqrt(x)) is kept as it is.

Each elementary function is one row of ``_FUNCS`` (numpy ufunc, ``math``
function, derivative, constant folds, LaTeX name, ``eval_expr`` domain
check), which ``func``, ``diff``, ``eval_expr``, ``lambdify`` and
``to_latex`` read; ``FUNCTIONS`` lists its keys.

Each node computes its hash and its sort key once, on first use, and keeps
them.  Builders may return an input node unchanged (``add`` keeps every
term that no other term merged with), so trees share subtrees.  That
sharing, and the cached hash and key, are why nodes must stay immutable.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "FieldAtom", "Add", "Mul", "Pow", "Func",
    "FUNCTIONS", "ZERO", "ONE",
    "const", "var", "add", "mul", "neg", "sub", "div", "pow_", "func",
    "sin", "cos", "tan", "sqrt", "exp", "log", "arctan", "arccos",
    "parse_expr", "print_expr", "to_latex", "diff", "simplify",
    "eval_expr", "lambdify", "free_vars", "equivalent", "substitute",
    "SymExprError", "ParseError", "UnknownFunctionError", "EvalError",
    "UnboundVariableError", "EvalDomainError", "IllConditionedError",
    "ConstantSizeError",
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
        super().__init__(f"{msg} in {print_expr(subexpr)}")
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


# ---------------------------------------------------------------------------
# Node types
# ---------------------------------------------------------------------------

class Expr:
    """Base class; all nodes are immutable and hashable.  ``_hash`` and
    ``_skey`` (the sort key) are computed on first use and kept."""

    __slots__ = ("_hash", "_skey")

    def __eq__(self, other):
        if self is other:
            return True
        if type(self) is not type(other):
            return NotImplemented
        return self._parts() == other._parts()

    def __setattr__(self, *a):
        raise AttributeError("Expr is immutable")

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((type(self).__name__, self._parts()))
            object.__setattr__(self, "_hash", h)
        return h

    def _parts(self):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {print_expr(self)}>"

    # arithmetic sugar; results are canonical given canonical operands
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


# Python refuses to print an integer of more than _MAX_DIGITS decimal
# digits (0: no limit), so no constant may grow past that: the first
# integer too long to print is _TOO_LONG, and every integer of at most
# _SAFE_BITS bits is shorter.
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_TOO_LONG = 10 ** _MAX_DIGITS if _MAX_DIGITS else math.inf
_SAFE_BITS = _TOO_LONG.bit_length() - 1 if _MAX_DIGITS else math.inf


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        v = value if isinstance(value, Fraction) else Fraction(value)
        if ((v.numerator.bit_length() > _SAFE_BITS or v.denominator.bit_length() > _SAFE_BITS)
                and max(abs(v.numerator), v.denominator) >= _TOO_LONG):
            raise ConstantSizeError(f"constant of more than {_MAX_DIGITS} digits")
        object.__setattr__(self, "value", v)

    def _parts(self):
        return (self.value,)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        object.__setattr__(self, "name", name)

    def _parts(self):
        return (self.name,)


class FieldAtom(Expr):
    """Opaque field component u(args...) with an optional partial-derivative
    multi-index.  Derivative variables are kept sorted, so mixed partials
    commute structurally.  Evaluation looks the atom up by ``name``."""

    __slots__ = ("base", "args", "derivs")

    def __init__(self, base, args, derivs=()):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "args", tuple(args))
        object.__setattr__(self, "derivs", tuple(sorted(derivs)))

    def _parts(self):
        return (self.base, self.args, self.derivs)

    @property
    def name(self):
        if not self.derivs:
            return self.base
        return "d_" + "_".join(self.derivs) + "_" + self.base


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, *terms):
        object.__setattr__(self, "terms", tuple(terms))

    def _parts(self):
        return self.terms


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, *factors):
        object.__setattr__(self, "factors", tuple(factors))

    def _parts(self):
        return self.factors


class Pow(Expr):
    """Integer power."""

    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        if not isinstance(exponent, int):
            raise TypeError("Pow exponent must be an integer")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)

    def _parts(self):
        return (self.base, self.exponent)


class Func(Expr):
    __slots__ = ("fname", "arg")

    def __init__(self, fname, arg):
        if fname not in _FUNCS:
            raise ValueError(f"unknown function {fname!r}")
        object.__setattr__(self, "fname", fname)
        object.__setattr__(self, "arg", arg)

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
    k = getattr(e, "_skey", None)
    if k is None:
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
        return (2, e.base, e.derivs)
    if t is Func:
        return (3, e.fname, _key(e.arg))
    if t is Pow:
        return (4, _key(e.base), e.exponent)
    if t is Mul:
        return (5, len(e.factors), tuple(_key(f) for f in e.factors))
    return (6, len(e.terms), tuple(_key(x) for x in e.terms))


# ---------------------------------------------------------------------------
# Canonical builders (assume canonical children)
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
    if exp == 1:
        return base
    return Pow(base, exp)


def mul(*factors):
    coeff = Fraction(1)
    units = {}

    def absorb(f):
        nonlocal coeff
        if isinstance(f, Const):
            coeff *= f.value
        elif isinstance(f, Mul):
            for g in f.factors:
                absorb(g)
        else:
            b, n = _as_unit(f)
            if isinstance(b, Const):
                coeff *= b.value ** n
            else:
                units[b] = units.get(b, 0) + n

    for f in factors:
        absorb(_wrap(f))
    if coeff == 0:
        return ZERO
    parts = [_unit(b, n) for b, n in units.items() if n != 0]
    parts.sort(key=_key)
    if not parts:
        return Const(coeff)
    if coeff != 1:
        parts.insert(0, Const(coeff))
    if len(parts) == 1:
        return parts[0]
    return Mul(*parts)


def _term_split(t):
    """Canonical term -> (coeff, mono) with mono a dict base -> exponent."""
    if isinstance(t, Const):
        return t.value, {}
    if isinstance(t, Mul):
        coeff = Fraction(1)
        mono = {}
        for f in t.factors:
            if isinstance(f, Const):
                coeff *= f.value
            else:
                b, n = _as_unit(f)
                mono[b] = mono.get(b, 0) + n
        return coeff, mono
    b, n = _as_unit(t)
    return Fraction(1), {b: n}


def _mono_key(mono):
    return tuple(sorted((_key(b), n) for b, n in mono.items()))


def _term_build(coeff, mono):
    return mul(Const(coeff), *(_unit(b, n) for b, n in mono.items()))


def _pythagoras(terms):
    """Collapse X*sin(u)^2 + X*cos(u)^2 -> X inside a combined term map.

    ``terms`` maps mono-key -> [coeff, mono, node] as in ``add``; mutated
    in place until no rule fires, and a term it changes loses its node.
    Each application lowers total degree, so this terminates.
    """
    changed = True
    while changed:
        changed = False
        for k in list(terms.keys()):
            if k not in terms:
                continue
            coeff, mono, _ = terms[k]
            for b, n in mono.items():
                if not (isinstance(b, Func) and b.fname == "sin" and n >= 2):
                    continue
                partner = dict(mono)
                partner[b] = n - 2
                if partner[b] == 0:
                    del partner[b]
                cb = Func("cos", b.arg)
                partner[cb] = partner.get(cb, 0) + 2
                pk = _mono_key(partner)
                if pk in terms and pk != k and terms[pk][0] == coeff:
                    reduced = dict(mono)
                    reduced[b] = n - 2
                    if reduced[b] == 0:
                        del reduced[b]
                    del terms[k]
                    del terms[pk]
                    rk = _mono_key(reduced)
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
    # combined maps mono-key -> [coeff, mono, node]; node is the input term
    # while no other term has merged with it, else None (rebuild).  A
    # canonical term rebuilt from its split is equal to itself.
    combined = {}

    def absorb(t):
        if isinstance(t, Add):
            for u in t.terms:
                absorb(u)
            return
        coeff, mono = _term_split(t)
        if coeff == 0:
            return
        k = _mono_key(mono)
        entry = combined.get(k)
        if entry is not None:
            entry[0] += coeff
            entry[2] = None
            if entry[0] == 0:
                del combined[k]
        else:
            combined[k] = [coeff, mono, t]

    for t in terms:
        absorb(_wrap(t))
    _pythagoras(combined)
    parts = [node if node is not None else _term_build(c, m)
             for c, m, node in combined.values()]
    parts = [p for p in parts if p != ZERO]
    parts.sort(key=_key)
    if not parts:
        return ZERO
    if len(parts) == 1:
        return parts[0]
    return Add(*parts)


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
            raise ZeroDivisionError("0 raised to a negative power")
        # p^k has at least k (bits(p) - 1) + 1 bits: refuse before computing it
        bits = max(v.numerator.bit_length(), v.denominator.bit_length()) - 1
        if abs(exponent) * bits > _SAFE_BITS:
            raise ConstantSizeError(f"constant of more than {_MAX_DIGITS} digits")
        return Const(v ** exponent)
    if isinstance(base, Pow):
        return pow_(base.base, base.exponent * exponent)
    if isinstance(base, Mul):
        return mul(*(pow_(f, exponent) for f in base.factors))
    return Pow(base, exponent)


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
    if row is not None and isinstance(arg, Const) and arg.value in row.folds:
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
            return mul(pow_(b, (n - 1) // 2), Func("sqrt", b))
        if isinstance(arg, Mul):
            return mul(*(func("sqrt", f) for f in arg.factors))
    return Func(fname, arg)


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


def arctan(x):
    return func("arctan", x)


def arccos(x):
    return func("arccos", x)


class _Fn(NamedTuple):
    ufunc: object    # lambdify
    mathf: object    # eval_expr
    deriv: object    # u -> d f(u)/du, built canonically (diff)
    folds: dict      # exact constant argument -> value (func)
    latex: str       # to_latex
    domain: tuple = None  # (u -> outside the domain, EvalDomainError message)


_FUNCS = {
    "sin": _Fn(np.sin, math.sin, cos, {0: ZERO}, r"\sin"),
    "cos": _Fn(np.cos, math.cos, lambda u: neg(sin(u)), {0: ONE}, r"\cos"),
    "tan": _Fn(np.tan, math.tan, lambda u: pow_(cos(u), -2), {0: ZERO}, r"\tan"),
    "sqrt": _Fn(np.sqrt, math.sqrt, lambda u: div(ONE, mul(Const(2), sqrt(u))), {},
                r"\sqrt", (lambda u: u < 0, "sqrt of negative value")),
    "exp": _Fn(np.exp, math.exp, exp, {0: ONE}, r"\exp"),
    "log": _Fn(np.log, math.log, lambda u: pow_(u, -1), {1: ZERO},
               r"\ln", (lambda u: u <= 0, "log of non-positive value")),
    "arctan": _Fn(np.arctan, math.atan, lambda u: div(ONE, add(ONE, pow_(u, 2))),
                  {0: ZERO}, r"\arctan"),
    "arccos": _Fn(np.arccos, math.acos,
                  lambda u: neg(div(ONE, sqrt(sub(ONE, pow_(u, 2))))), {1: ZERO},
                  r"\arccos", (lambda u: not -1.0 <= u <= 1.0,
                               "arccos argument outside [-1, 1]")),
}

FUNCTIONS = tuple(_FUNCS)


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def diff(e, v):
    """Partial derivative of ``e`` with respect to variable name ``v``,
    canonical.  Derivative with respect to an absent variable is 0."""
    if isinstance(v, Var):
        v = v.name
    return _diff(_wrap(e), v)


def _diff(e, v):
    t = type(e)
    if t is Const:
        return ZERO
    if t is Var:
        return ONE if e.name == v else ZERO
    if t is FieldAtom:
        if v in e.args:
            return FieldAtom(e.base, e.args, e.derivs + (v,))
        return ZERO
    if t is Add:
        return add(*(_diff(x, v) for x in e.terms))
    if t is Mul:
        # product rule; a factor with zero derivative adds no term
        parts = []
        for i, f in enumerate(e.factors):
            df = _diff(f, v)
            if df != ZERO:
                parts.append(mul(df, *e.factors[:i], *e.factors[i + 1:]))
        return add(*parts)
    if t is Pow:
        return mul(Const(e.exponent), pow_(e.base, e.exponent - 1), _diff(e.base, v))
    if t is Func:
        u = e.arg
        du = _diff(u, v)
        if du == ZERO:
            return ZERO
        return mul(_FUNCS[e.fname].deriv(u), du)
    raise TypeError(f"unknown node {t!r}")


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
        if t is Var:
            out.add(x.name)
        elif t is FieldAtom:
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

    Values may be Expr or numbers; the result is canonical.
    """
    mapping = {k: _wrap(v) for k, v in mapping.items()}

    def visit(x):
        t = type(x)
        if t is Var or t is FieldAtom:
            return mapping.get(x.name, x)
        if t is Const:
            return x
        if t is Add:
            return add(*(visit(u) for u in x.terms))
        if t is Mul:
            return mul(*(visit(u) for u in x.factors))
        if t is Pow:
            return pow_(visit(x.base), x.exponent)
        if t is Func:
            return func(x.fname, visit(x.arg))
        raise TypeError(f"unknown node {t!r}")

    return visit(_wrap(e))


def simplify(e):
    """Canonical form of a tree built by hand with the node constructors:
    the same tree the builders give.  Identity on canonical trees."""
    return substitute(e, {})


def eval_expr(e, binding):
    """Evaluate to an IEEE double with every free variable bound.

    Raises UnboundVariableError or EvalDomainError (a nan bound to a
    variable, division by zero, sqrt/log/arccos out of domain, a constant,
    product, power or sum beyond the float range, an undefined product such
    as zero times an infinity, opposite infinities summed) naming the
    offending subexpression.
    """
    e = _wrap(e)
    t = type(e)
    if t is Const:
        try:
            return float(e.value)
        except OverflowError as err:
            raise EvalDomainError("constant beyond the float range", e) from err
    if t is Var or t is FieldAtom:
        name = e.name
        if name not in binding:
            if name == "pi":
                return math.pi
            raise UnboundVariableError(f"unbound variable {name!r}", e)
        value = float(binding[name])
        if value != value:
            raise EvalDomainError(f"nan bound to {name!r}", e)
        return value
    if t is Add:
        terms = [eval_expr(x, binding) for x in e.terms]
        try:
            return math.fsum(terms)
        except ValueError as err:  # fsum refuses inf + -inf
            raise EvalDomainError("sum of opposite infinities", e) from err
        except OverflowError as err:
            raise EvalDomainError("sum beyond the float range", e) from err
    if t is Mul:
        out = 1.0
        for x in e.factors:
            out *= eval_expr(x, binding)
        if not math.isfinite(out):
            # an infinite factor gives an infinite product; finite ones must not
            if out != out:
                raise EvalDomainError("undefined product (zero times an infinity, or a nan)", e)
            if all(abs(eval_expr(x, binding)) < math.inf for x in e.factors):
                raise EvalDomainError("product beyond the float range", e)
        return out
    if t is Pow:
        b = eval_expr(e.base, binding)
        if b == 0.0 and e.exponent < 0:
            raise EvalDomainError("division by zero", e)
        try:
            return b ** e.exponent
        except OverflowError as err:
            raise EvalDomainError("power beyond the float range", e) from err
    if t is Func:
        u = eval_expr(e.arg, binding)
        row = _FUNCS[e.fname]
        if row.domain is not None and row.domain[0](u):
            raise EvalDomainError(row.domain[1], e)
        try:
            return row.mathf(u)
        except (ValueError, OverflowError) as err:
            raise EvalDomainError(str(err), e) from err
    raise TypeError(f"unknown node {t!r}")


def lambdify(e):
    """Compile to a function of a dict of numpy arrays (or scalars).

    Out-of-domain points and constants beyond the float range yield
    nan/inf rather than raising; callers mask.
    """
    e = _wrap(e)
    t = type(e)
    if t is Const:
        try:
            v = float(e.value)
        except OverflowError:
            v = math.inf if e.value > 0 else -math.inf
        return lambda b: v
    if t is Var or t is FieldAtom:
        name = e.name
        if name == "pi":
            return lambda b: b.get("pi", math.pi)
        return lambda b: b[name]
    if t is Add:
        fs = [lambdify(x) for x in e.terms]
        return lambda b: sum(f(b) for f in fs)
    if t is Mul:
        fs = [lambdify(x) for x in e.factors]

        def _mul(b):
            out = fs[0](b)
            for f in fs[1:]:
                out = out * f(b)
            return out
        return _mul
    if t is Pow:
        fb = lambdify(e.base)
        n = e.exponent
        if n < 0:
            def _ipow(b):
                with np.errstate(divide="ignore", invalid="ignore"):
                    return np.float_power(fb(b), n)
            return _ipow
        return lambda b: fb(b) ** n
    if t is Func:
        f = lambdify(e.arg)
        g = _FUNCS[e.fname].ufunc

        def _func(b):
            with np.errstate(invalid="ignore", divide="ignore"):
                return g(f(b))
        return _func
    raise TypeError(f"unknown node {t!r}")


# ---------------------------------------------------------------------------
# Randomized equivalence
# ---------------------------------------------------------------------------

def equivalent(a, b, domains=None, n=100, rtol=1e-10, seed=None):
    """True iff ``a`` and ``b`` agree at ``n`` seeded pseudo-random points.

    ``domains`` maps variable names to (lo, hi) sampling intervals; unlisted
    variables use DEFAULT_DOMAIN.  Points where both sides fail to
    evaluate are skipped, and more than 50% of them raises
    IllConditionedError; a point where only one side fails gives False.
    """
    a, b = _wrap(a), _wrap(b)
    names = sorted(free_vars(a) | free_vars(b))
    if not names:
        va, vb = eval_expr(a, {}), eval_expr(b, {})
        return abs(va - vb) <= rtol * max(1.0, abs(va), abs(vb))
    domains = domains or {}
    rng = np.random.default_rng(seed if seed is not None else default_seed())
    binding = {}
    for name in names:
        lo, hi = domains.get(name, DEFAULT_DOMAIN)
        binding[name] = rng.uniform(lo, hi, size=n)
    fa, fb = lambdify(a), lambdify(b)
    va = np.broadcast_to(np.asarray(fa(binding), dtype=float), (n,))
    vb = np.broadcast_to(np.asarray(fb(binding), dtype=float), (n,))
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

# ASCII only: str.isdigit also accepts characters such as '²' that int() rejects
_DIGITS = frozenset("0123456789")


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens = []
        self._scan()
        self.idx = 0

    def _advance(self, k):
        for ch in self.text[self.pos:self.pos + k]:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += k

    def _scan(self):
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch in " \t\r\n":
                self._advance(1)
                continue
            line, col = self.line, self.col
            if ch in _DIGITS or (ch == "." and self.pos + 1 < len(text)
                                 and text[self.pos + 1] in _DIGITS):
                j = self.pos
                seen_dot = False
                while j < len(text) and (text[j] in _DIGITS or (text[j] == "." and not seen_dot)):
                    if text[j] == ".":
                        seen_dot = True
                    j += 1
                lit = text[self.pos:j]
                self.tokens.append(("num", lit, line, col))
                self._advance(j - self.pos)
                continue
            if ch.isalpha() or ch == "_":
                j = self.pos
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[self.pos:j], line, col))
                self._advance(j - self.pos)
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, line, col))
                self._advance(1)
                continue
            raise ParseError(f"unexpected character {ch!r}", line, col)
        self.tokens.append(("eof", "", self.line, self.col))

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok


def _parse_number(lit):
    if "." in lit:
        intpart, frac = lit.split(".")
        den = 10 ** len(frac)
        num = int(intpart or "0") * den + int(frac or "0")
        return Const(Fraction(num, den))
    return Const(int(lit))


class _Parser:
    """expr := term (('+'|'-') term)*
    term := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' integer)?
    base := number | ident | ident '(' expr ')' | '(' expr ')'

    Unary minus binds looser than '^', so -x^2 reads as -(x^2).
    """

    def __init__(self, text):
        self.toks = _Tokenizer(text)

    def parse(self):
        e = self.expr()
        tok = self.toks.peek()
        if tok[0] != "eof":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2], tok[3])
        return e

    def expr(self):
        e = self.term()
        while self.toks.peek()[0] in ("+", "-"):
            op = self.toks.next()
            rhs = self.term()
            e = _fold(add if op[0] == "+" else sub, e, rhs, op)
        return e

    def term(self):
        e = self.factor()
        while self.toks.peek()[0] in ("*", "/"):
            op = self.toks.next()
            rhs = self.factor()
            e = _fold(mul if op[0] == "*" else div, e, rhs, op)
        return e

    def factor(self):
        if self.toks.peek()[0] == "-":
            self.toks.next()
            return neg(self.factor())
        e = self.base()
        if self.toks.peek()[0] == "^":
            op = self.toks.next()
            sign = 1
            if self.toks.peek()[0] == "-":
                self.toks.next()
                sign = -1
            tok = self.toks.next()
            if tok[0] != "num" or "." in tok[1]:
                raise ParseError("exponent must be an integer", tok[2], tok[3])
            e = _fold(pow_, e, sign * int(tok[1]), op)
        return e

    def base(self):
        tok = self.toks.next()
        kind, lit, line, col = tok
        if kind == "num":
            try:
                return _parse_number(lit)
            except (ValueError, ConstantSizeError):  # int() refuses it too
                raise ParseError(f"number of more than {_MAX_DIGITS} digits",
                                 line, col) from None
        if kind == "(":
            e = self.expr()
            closing = self.toks.next()
            if closing[0] != ")":
                raise ParseError("expected ')'", closing[2], closing[3])
            return e
        if kind == "ident":
            if self.toks.peek()[0] == "(":
                if lit not in FUNCTIONS:
                    raise UnknownFunctionError(f"unknown function {lit!r}", line, col)
                self.toks.next()
                arg = self.expr()
                closing = self.toks.next()
                if closing[0] != ")":
                    raise ParseError("expected ')'", closing[2], closing[3])
                return func(lit, arg)
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


def parse_expr(text):
    """Parse per the module grammar into a canonical tree; round-trips
    through print_expr."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printers
# ---------------------------------------------------------------------------

def _print_const(v):
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def _paren_for_mul(x):
    s = print_expr(x)
    if isinstance(x, Add) or (isinstance(x, Const) and (x.value < 0 or x.value.denominator != 1)):
        return f"({s})"
    return s


def print_expr(e):
    """Plain-text form that reparses to the same tree."""
    e = _wrap(e)
    t = type(e)
    if t is Const:
        return _print_const(e.value)
    if t is Var:
        return e.name
    if t is FieldAtom:
        return e.name
    if t is Func:
        return f"{e.fname}({print_expr(e.arg)})"
    if t is Pow:
        b = print_expr(e.base)
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
    if t is Add:
        out = print_expr(e.terms[0])
        for term in e.terms[1:]:
            s = print_expr(term)
            if s.startswith("-"):
                out += " - " + s[1:]
            else:
                out += " + " + s
        return out
    raise TypeError(f"unknown node {t!r}")


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
            return rf"\sqrt{{{to_latex(e.arg)}}}"
        return rf"{_FUNCS[e.fname].latex}\left({to_latex(e.arg)}\right)"
    if t is Pow:
        if e.exponent < 0:
            return rf"\frac{{1}}{{{to_latex(pow_(e.base, -e.exponent))}}}"
        b = to_latex(e.base)
        if isinstance(e.base, Func) and e.base.fname != "sqrt":
            # \sin^{2}\left(...\right) style
            return rf"{_FUNCS[e.base.fname].latex}^{{{e.exponent}}}\left({to_latex(e.base.arg)}\right)"
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
                s = to_latex(p)
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
    if t is Add:
        out = to_latex(e.terms[0])
        for term in e.terms[1:]:
            s = to_latex(term)
            if s.startswith("-"):
                out += " - " + s[1:]
            else:
                out += " + " + s
        return out
    raise TypeError(f"unknown node {t!r}")
