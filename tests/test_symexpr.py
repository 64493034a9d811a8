"""Expression-tree properties: evaluation, differentiation, simplify, parsing."""

import copy
import gc
import math
import pickle
import sys
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from curvmax import symexpr as sx
from curvmax.symexpr import (Add, Const, FieldAtom, Func, Mul, Pow, Var, diff,
                             equivalent, eval_expr, free_vars, lambdify,
                             parse_expr, print_expr, simplify, substitute,
                             to_latex)

VARS = ("x", "y")


def leaf():
    return st.one_of(
        st.sampled_from([Var(v) for v in VARS]),
        st.integers(min_value=-3, max_value=3).map(Const),
    )


def exprs(depth=3):
    if depth == 0:
        return leaf()
    sub = exprs(depth - 1)
    return st.one_of(
        leaf(),
        st.tuples(sub, sub).map(lambda ab: ab[0] + ab[1]),
        st.tuples(sub, sub).map(lambda ab: ab[0] * ab[1]),
        sub.map(lambda a: -a),
        sub.map(sx.sin),
        sub.map(sx.cos),
    )


POINTS = [{"x": 0.37, "y": -1.21}, {"x": 1.9, "y": 0.44}, {"x": -0.6, "y": 2.2}]


@settings(max_examples=80, deadline=None)
@given(exprs())
def test_simplify_preserves_value(e):
    s = simplify(e)
    for p in POINTS:
        assert eval_expr(s, p) == pytest.approx(eval_expr(e, p), rel=1e-12, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(exprs())
def test_simplify_idempotent(e):
    s = simplify(e)
    assert simplify(s) == s


@settings(max_examples=80, deadline=None)
@given(exprs())
def test_parse_print_roundtrip(e):
    s = simplify(e)
    assert simplify(parse_expr(print_expr(s))) == s
    assert parse_expr(print_expr(s)) == s


@settings(max_examples=60, deadline=None)
@given(exprs(), st.sampled_from(VARS))
def test_derivative_matches_central_difference(e, v):
    de = diff(e, v)
    h = 1e-6
    for p in POINTS:
        hi = dict(p)
        lo = dict(p)
        hi[v] += h
        lo[v] -= h
        fd = (eval_expr(e, hi) - eval_expr(e, lo)) / (2 * h)
        exact = eval_expr(de, p)
        assert fd == pytest.approx(exact, rel=1e-5, abs=1e-5)


def test_trig_identity_collapses():
    e = parse_expr("sin(x)^2 + cos(x)^2")
    assert simplify(e) == sx.ONE


def test_rational_arithmetic_is_exact():
    e = parse_expr("1/3 + 1/6")
    assert simplify(e) == simplify(parse_expr("1/2"))


def test_equivalent_is_seeded_and_deterministic():
    a = parse_expr("(x + y)^2")
    b = parse_expr("x^2 + 2*x*y + y^2")
    assert equivalent(a, b, seed=5)
    assert not equivalent(a, parse_expr("x^2 + y^2"), seed=5)


def test_equivalent_binds_pi_as_the_constant():
    # eval_expr reads cos(pi) as -1; equivalent must not sample pi as a variable
    assert eval_expr(parse_expr("cos(pi)*x"), {"x": 2.0}) == -2.0
    assert equivalent(parse_expr("cos(pi)*x"), parse_expr("-x"), seed=5)
    assert equivalent(parse_expr("sin(pi/2)"), 1)
    assert not equivalent(parse_expr("cos(pi)*x"), parse_expr("x"), seed=5)


def test_field_atom_derivative_index_is_canonical():
    f = FieldAtom("E_1", ("t", "r", "phi"))
    d1 = diff(diff(f, "r"), "phi")
    d2 = diff(diff(f, "phi"), "r")
    assert d1 == d2
    assert "d_" in print_expr(d1)


def test_unbound_variable_raises():
    with pytest.raises(sx.EvalError):
        eval_expr(Var("q"), {"x": 1.0})


def test_parse_error_reports_position():
    with pytest.raises(sx.ParseError):
        parse_expr("sin(x")


@pytest.mark.parametrize("text, col", [("x/(y - y)", 2), ("1 + 0^-2", 6),
                                       ("(x - x)^-1", 8)])
def test_zero_divisor_is_parse_error_at_operator(text, col):
    with pytest.raises(sx.ParseError) as exc:
        parse_expr(text)
    assert (exc.value.line, exc.value.col) == (1, col)


def test_parse_builds_canonical_trees():
    assert parse_expr("x - x") == sx.ZERO
    assert parse_expr("-(x/2)^2 + x^2/4") == sx.ZERO
    assert parse_expr("2^-1*y") == parse_expr("y/2")


def test_equivalent_rejects_one_sided_singular_points():
    lhs = simplify(parse_expr("sqrt(x-1)^2 - x + 2"))
    assert not equivalent(lhs, 1, {"x": (0.6, 2.0)})
    assert equivalent(lhs, 1, {"x": (1.1, 2.0)})


def test_equivalent_skips_points_singular_on_both_sides():
    a = parse_expr("sqrt(x-1)^3")
    b = parse_expr("(x - 1)*sqrt(x-1)")
    assert a != b
    assert equivalent(a, b, {"x": (0.6, 2.0)})
    with pytest.raises(sx.IllConditionedError):
        equivalent(a, b, {"x": (0.0, 1.5)})


def test_unknown_function_rejected():
    with pytest.raises(sx.ParseError):
        parse_expr("sinh(x)")


def test_lambdify_matches_eval():
    e = parse_expr("x^2*sin(y) + 3")
    f = lambdify(e)
    for p in POINTS:
        assert f(p) == pytest.approx(eval_expr(e, p))


def test_substitute_composes():
    e = parse_expr("x^2 + y")
    out = substitute(e, {"x": parse_expr("sin(y)")})
    assert free_vars(out) == {"y"}
    assert eval_expr(out, {"y": 0.7}) == pytest.approx(math.sin(0.7) ** 2 + 0.7)


def test_latex_emitter_basics():
    assert "\\sin" in to_latex(parse_expr("sin(theta)"))
    assert "\\frac" in to_latex(parse_expr("x/y")) or "^{-1}" in to_latex(parse_expr("x/y"))


@pytest.mark.parametrize("text, want", [
    ("1/2", r"\frac{1}{2}"),
    ("-1/2", r"-\frac{1}{2}"),
    ("1/x", r"\frac{1}{x}"),
    ("(x+y)^-2", r"\frac{1}{\left(x + y\right)^{2}}"),
    ("(x+y)^2", r"\left(x + y\right)^{2}"),
])
def test_latex_fixed_results(text, want):
    assert to_latex(parse_expr(text)) == want


def test_numpy_integers_wrap_as_constants():
    x = Var("x")
    assert x * np.int64(2) == x * 2
    assert np.int32(3) - x == 3 - x


# ---------------------------------------------------------------------------
# What the builders' shortcuts rely on: the cached sort key, the split/build
# round trip of a canonical term, ``add`` keeping untouched terms and the
# product rule skipping zero factors all give the trees the plain
# algorithms give.
# ---------------------------------------------------------------------------

def _power(a, n):
    # a canonical non-constant tree is never zero, so 1/a is safe
    return a if n < 0 and isinstance(a, Const) else sx.pow_(a, n)


def _root(a):
    # the sqrt builder refuses a negative constant or constant factor
    try:
        return sx.sqrt(a)
    except sx.ConstantDomainError:
        return sx.sqrt(-a)


# print_expr refuses a tree holding both atoms named f below, since they print
# alike; the properties that compare printed forms (the order of terms and
# factors) of such trees read them through the printer without that refusal
_printed = sx._print


def builder_exprs(depth=3):
    """Builder-made trees over x, y and two field atoms that differ only in
    their arguments (so must never merge), with powers, sqrt and sin/cos
    pairs so that like terms merge and sin^2 + cos^2 collapses."""
    if depth == 0:
        return st.one_of(leaf(), st.sampled_from([FieldAtom("f", ("x", "y")),
                                                  FieldAtom("f", ("x",))]))
    sub = builder_exprs(depth - 1)
    return st.one_of(
        sub,
        st.lists(sub, min_size=2, max_size=3).map(lambda ts: sx.add(*ts)),
        st.lists(sub, min_size=2, max_size=3).map(lambda fs: sx.mul(*fs)),
        st.tuples(sub, st.sampled_from([-2, -1, 2, 3])).map(lambda an: _power(*an)),
        sub.map(sx.sin), sub.map(sx.cos), sub.map(_root),
        sub.map(lambda a: sx.pow_(sx.sin(a), 2)),
        sub.map(lambda a: sx.pow_(sx.cos(a), 2)),
    )


def _plain_key(e):
    """The sort key recomputed from scratch, without any cache."""
    t = type(e)
    if t is Const:
        return (0, e.value.numerator, e.value.denominator)
    if t is Var:
        return (1, e.name)
    if t is FieldAtom:
        return (2, e.base, e.derivs, e.args)
    if t is Func:
        return (3, e.fname, _plain_key(e.arg))
    if t is Pow:
        return (4, _plain_key(e.base), e.exponent)
    if t is Mul:
        return (5, len(e.factors), tuple(_plain_key(f) for f in e.factors))
    return (6, len(e.terms), tuple(_plain_key(x) for x in e.terms))


def _rebuilding_add(*terms):
    """``add`` as it was before it kept untouched terms: every term is
    split and rebuilt."""
    combined = {}
    stack = list(reversed(terms))
    while stack:
        t = stack.pop()
        if isinstance(t, Add):
            stack.extend(reversed(t.terms))
            continue
        coeff, mono = sx._term_split(t)[:2]
        if coeff == 0:
            continue
        k = frozenset(mono.items())
        if k in combined:
            combined[k][0] += coeff
            if combined[k][0] == 0:
                del combined[k]
        else:
            combined[k] = [coeff, mono, None]
    sx._pythagoras(combined)
    parts = [sx._term_build(c, m) for c, m, _ in combined.values()]
    parts = sorted((p for p in parts if p != sx.ZERO), key=_plain_key)
    if not parts:
        return sx.ZERO
    return parts[0] if len(parts) == 1 else Add(*parts)


def _zero_product_diff(e, v):
    """``diff`` with the product rule building mul(0, ...) for factors
    whose derivative is zero."""
    t = type(e)
    if t is Const:
        return sx.ZERO
    if t is Var:
        return sx.ONE if e.name == v else sx.ZERO
    if t is FieldAtom:
        return FieldAtom(e.base, e.args, e.derivs + (v,)) if v in e.args else sx.ZERO
    if t is Add:
        return sx.add(*(_zero_product_diff(x, v) for x in e.terms))
    if t is Mul:
        return sx.add(*(sx.mul(_zero_product_diff(f, v), *e.factors[:i], *e.factors[i + 1:])
                        for i, f in enumerate(e.factors)))
    if t is Pow:
        return sx.mul(Const(e.exponent), sx.pow_(e.base, e.exponent - 1),
                      _zero_product_diff(e.base, v))
    u = e.arg
    du = _zero_product_diff(u, v)
    outer = {
        "sin": lambda: sx.cos(u),
        "cos": lambda: sx.neg(sx.sin(u)),
        "sqrt": lambda: sx.div(sx.ONE, sx.mul(Const(2), sx.sqrt(u))),
    }[e.fname]()
    return sx.mul(outer, du)


def _terms(e):
    return e.terms if isinstance(e, Add) else (e,)


@settings(max_examples=80, deadline=None)
@given(builder_exprs())
def test_cached_sort_key_equals_plain_key(e):
    assert sx._key(e) == _plain_key(e)
    assert sx._key(e) == _plain_key(e)


@settings(max_examples=80, deadline=None)
@given(builder_exprs())
def test_canonical_term_survives_split_and_build(e):
    for t in _terms(e):
        if t != sx.ZERO:
            assert sx._term_build(*sx._term_split(t)[:2]) == t


@settings(max_examples=80, deadline=None)
@given(st.lists(builder_exprs(), min_size=1, max_size=4))
@example([parse_expr("x"), parse_expr("x*sin(y)^2"), parse_expr("x*cos(y)^2")])
def test_add_equals_rebuilding_add(terms):
    got = sx.add(*terms)
    want = _rebuilding_add(*terms)
    assert got == want
    assert _printed(got) == _printed(want)


# Fixed results of the Pythagoras rewrite: the property above compares
# ``add`` with a reference that calls ``sx._pythagoras`` itself.
PYTHAGORAS = [
    ("x*sin(u)^2 + x*cos(u)^2 + y", "x + y"),
    ("sin(u)^4 + sin(u)^2*cos(u)^2", "sin(u)^2"),
    ("2*sin(u)^2 + cos(u)^2", "cos(u)^2 + 2*sin(u)^2"),
    ("sin(u)^2 + cos(u)^2 + 1", "2"),
    ("x*sin(u)^2 + x*cos(u)^2 - x", "0"),
    # two rewrites: first in v, then in u
    ("sin(u)^3*cos(v)^2 + sin(u)^3*sin(v)^2 + sin(u)*cos(u)^2", "sin(u)"),
]


@pytest.mark.parametrize("text, want", PYTHAGORAS)
def test_pythagoras_gives_fixed_results(text, want):
    terms = [parse_expr(t) for t in text.replace(" - ", " + -").split(" + ")]
    assert print_expr(sx.add(*terms)) == want
    assert print_expr(_rebuilding_add(*terms)) == want
    assert print_expr(parse_expr(text)) == want


@settings(max_examples=80, deadline=None)
@given(builder_exprs(), st.sampled_from(VARS))
def test_diff_equals_zero_product_rule(e, v):
    got = diff(e, v)
    assert got == _zero_product_diff(e, v)
    assert _printed(got) == _printed(_zero_product_diff(e, v))


def _nodes(e):
    """Every node of ``e``, parents before children."""
    out, stack = [], [e]
    while stack:
        x = stack.pop()
        out.append(x)
        t = type(x)
        if t is Add:
            stack.extend(x.terms)
        elif t is Mul:
            stack.extend(x.factors)
        elif t is Pow:
            stack.append(x.base)
        elif t is Func:
            stack.append(x.arg)
    return out


_CACHES = ("_skey", "_split")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(builder_exprs(), min_size=1, max_size=4))
def test_cached_structure_is_invisible(trees):
    # fill every cache the builders keep on the input trees, and build
    for e in trees:
        for x in _nodes(e):
            sx._key(x)
            sx._term_split(x)
    built = {build: build(*trees) for build in (sx.add, sx.mul)}
    want = {build: (e._canon, _printed(e)) for build, e in built.items()}
    # nodes are shared: clear the caches on every node the builds can read
    for root in (*trees, *built.values()):
        for x in _nodes(root):
            for c in _CACHES:
                if hasattr(x, c):
                    object.__delattr__(x, c)
    assert not any(hasattr(x, c) for e in trees for x in _nodes(e) for c in _CACHES)
    for build, e in built.items():
        got = build(*trees)
        assert got is e and (got._canon, _printed(got)) == want[build]


def test_add_of_one_canonical_term_is_that_term():
    for text in ("x", "-3/2", "2*x*sin(y)^2", "sqrt(x)", "y^-2"):
        e = parse_expr(text)
        assert sx.add(e) is e
    e = parse_expr("x + y")
    assert sx.add(e) == e


def test_add_of_one_zero_term_is_zero():
    x = Var("x")
    assert sx.add(Mul(Const(0), x)) is sx.ZERO
    assert sx.add(Const(0)) is sx.ZERO
    assert sx.add(Add(x, Mul(Const(-1), x))) is sx.ZERO


def test_add_keeps_field_atoms_with_different_arguments_apart():
    ux, uy = FieldAtom("u", ("x",)), FieldAtom("u", ("y",))
    s = sx.add(ux, uy)
    assert isinstance(s, Add) and set(s.terms) == {ux, uy}
    assert s == sx.add(uy, ux) and _printed(s) == _printed(sx.add(uy, ux))
    assert diff(s, "y") == FieldAtom("u", ("y",), ("y",))
    assert sx.sub(ux, uy) != sx.ZERO
    assert sx._key(ux) != sx._key(uy)


# ---------------------------------------------------------------------------
# One test per elementary function: every consumer of its row agrees.
# ---------------------------------------------------------------------------

# Exact folds at constant arguments; a constant not listed stays a Func.
FOLDS = {
    "sin": {0: 0}, "cos": {0: 1}, "tan": {0: 0},
    "sqrt": {0: 0, 1: 1, Fraction(4, 9): Fraction(2, 3)},
    "exp": {0: 1}, "log": {1: 0}, "arctan": {0: 0}, "arccos": {1: 0},
}

LATEX = {"sin": r"\sin", "cos": r"\cos", "tan": r"\tan", "exp": r"\exp",
         "log": r"\ln", "arctan": r"\arctan", "arccos": r"\arccos"}


def test_function_tables_cover_every_function():
    assert sx.FUNCTIONS == ("sin", "cos", "tan", "sqrt", "exp", "log",
                            "arctan", "arccos")
    assert set(FOLDS) == set(sx.FUNCTIONS) == set(LATEX) | {"sqrt"}


@pytest.mark.parametrize("fname", sx.FUNCTIONS)
def test_function_row(fname):
    # u = x/4 + 1/2 lies in [0.525, 0.75] for x in [0.1, 1]: inside every domain
    e = sx.func(fname, parse_expr("x/4 + 1/2"))
    de = diff(e, "x")
    f, df = lambdify(e), lambdify(de)
    h = 1e-6
    for x in np.linspace(0.1, 1.0, 7):
        fd = (eval_expr(e, {"x": x + h}) - eval_expr(e, {"x": x - h})) / (2 * h)
        assert eval_expr(de, {"x": x}) == pytest.approx(fd, rel=1e-7)
        assert f({"x": x}) == pytest.approx(eval_expr(e, {"x": x}), rel=1e-14)
        assert df({"x": x}) == pytest.approx(eval_expr(de, {"x": x}), rel=1e-14)
    for arg, value in FOLDS[fname].items():
        assert sx.func(fname, Const(arg)) == Const(value)
    assert isinstance(sx.func(fname, Const(Fraction(1, 3))), Func)
    x = parse_expr("x")
    if fname == "sqrt":
        assert to_latex(sx.sqrt(x)) == r"\sqrt{x}"
    else:
        assert to_latex(sx.func(fname, x)) == LATEX[fname] + r"\left(x\right)"
        assert to_latex(sx.func(fname, x) ** 2) == LATEX[fname] + r"^{2}\left(x\right)"


@pytest.mark.parametrize("text, message", [
    ("sqrt(-1)", "sqrt of negative value in sqrt(-1)"),
    ("log(0)", "log of non-positive value in log(0)"),
    ("arccos(2)", "arccos argument outside [-1, 1] in arccos(2)"),
])
def test_eval_domain_errors_name_the_subexpression(text, message):
    # built by hand: the builders refuse a constant outside the domain
    fname, arg = text[:-1].split("(")
    e = Func(fname, Const(int(arg)))
    with pytest.raises(sx.EvalDomainError) as exc:
        eval_expr(e, {})
    assert str(exc.value) == message
    with np.errstate(invalid="ignore", divide="ignore"):
        assert not np.isfinite(lambdify(e)({}))


@pytest.mark.parametrize("text, binding, message", [
    ("x - y", {"x": math.inf, "y": math.inf}, "sum of opposite infinities in x - y"),
    ("x + y", {"x": 1e308, "y": 1e308}, "sum beyond the float range in x + y"),
    ("1 + x^2", {"x": 1e200}, "power beyond the float range in x^2"),
    ("x^-2", {"x": 1e-200}, "power beyond the float range in x^-2"),
    ("10^400*x", {"x": 1.0}, "constant beyond the float range in 1" + "0" * 400),
    ("x*y", {"x": 1e200, "y": 1e200}, "product beyond the float range in x*y"),
    ("1 + x*y", {"x": math.inf, "y": 0.0},
     "undefined product (zero times an infinity, or a nan) in x*y"),
    ("2*x", {"x": 1e308}, "product beyond the float range in 2*x"),
])
def test_eval_overflow_and_opposite_infinities_are_domain_errors(text, binding, message):
    with pytest.raises(sx.EvalDomainError) as exc:
        eval_expr(parse_expr(text), binding)
    assert str(exc.value) == message


@pytest.mark.parametrize("text", ["x + 1", "x^2", "sin(x)", "2*x", "y*x - y"])
@pytest.mark.parametrize("nan", [math.nan, -math.nan, np.float64("nan")])
def test_eval_nan_binding_is_a_domain_error_naming_the_variable(text, nan):
    with pytest.raises(sx.EvalDomainError) as exc:
        eval_expr(parse_expr(text), {"x": nan, "y": 2.0})
    assert str(exc.value) == "nan bound to 'x' in x"


def test_eval_product_with_an_infinite_factor_is_infinite():
    assert eval_expr(parse_expr("2*x*y"), {"x": -math.inf, "y": 3.0}) == -math.inf


LIMIT = sys.get_int_max_str_digits()


@pytest.mark.skipif(not LIMIT, reason="integer printing is not limited")
def test_constants_stay_printable():
    widest = 10 ** LIMIT - 1  # LIMIT nines: the longest integer Python prints
    for v in (widest, -widest, Fraction(1, widest)):
        assert print_expr(Const(v))
    for v in (widest + 1, -widest - 1, Fraction(1, widest + 1), Fraction(widest + 1, 3)):
        with pytest.raises(sx.ConstantSizeError):
            Const(v)
    with pytest.raises(sx.ConstantSizeError):
        sx.pow_(Const(10), LIMIT)
    with pytest.raises(sx.ConstantSizeError):
        sx.mul(Const(widest), Const(widest))
    # refused from the bit lengths alone, before the power is computed
    with pytest.raises(sx.ConstantSizeError):
        sx.pow_(Const(Fraction(2, 3)), -3_000_000_000)
    assert sx.pow_(Const(-1), 3_000_000_001) == Const(-1)


@pytest.mark.skipif(not LIMIT, reason="integer printing is not limited")
@pytest.mark.parametrize("text, col", [
    ("u + 2^3000000*v", 6), ("10^2200 * 10^2200", 9), ("x + 10^4300", 7),
    ("9*10^4299 + 10^4299", 11), ("1" * 5000 + "*x", 1), ("7." + "0" * 4300 + "1", 1),
], ids=["power", "product", "power-4300", "sum", "long-integer", "long-decimal"])
def test_constants_too_long_to_print_are_parse_errors(text, col):
    with pytest.raises(sx.ParseError) as exc:
        parse_expr(text)
    assert f"(line 1, column {col})" in str(exc.value)
    assert f"more than {LIMIT} digits" in str(exc.value)


def test_nested_square_root_is_kept():
    assert eval_expr(parse_expr("sqrt(sqrt(x))"), {"x": 16}) == 2.0
    assert eval_expr(parse_expr("sqrt(2*sqrt(x))"), {"x": 16}) == pytest.approx(math.sqrt(8))
    assert parse_expr("sqrt(sqrt(x))") != parse_expr("sqrt(x)")
    assert parse_expr("sqrt(sqrt(x)^2)") == parse_expr("sqrt(x)")


@pytest.mark.parametrize("text, value", [
    ("0.25*x", Fraction(1, 4) * Var("x")), (".5", Fraction(1, 2)), ("1.", 1),
    ("2.50", Fraction(5, 2)), ("x^2.", None), ("1.2.3", None),
])
def test_decimal_literals(text, value):
    if value is None:
        with pytest.raises(sx.ParseError):
            parse_expr(text)
    else:
        assert parse_expr(text) == sx._wrap(value)


# The scanner's token boundaries and positions: each text, started at a line
# and column as a chart file places it, gives this printed tree or this error.
SCANNER = [
    ("x\n + y\n*  z", 3, 7, "x + y*z"),
    ("x +\n  y)\n", 3, 7, "ParseError: unexpected ')' (line 4, column 4)"),
    ("x +\n", 3, 7, "ParseError: unexpected 'eof' (line 4, column 1)"),
    ("x \n\r\n  y", 3, 7, "ParseError: unexpected 'y' (line 5, column 3)"),
    ("(x\r\n", 1, 1, "ParseError: expected ')' (line 2, column 1)"),
    ("\tsin (x\ty)", 2, 5, "ParseError: expected ')' (line 2, column 13)"),
    ("x\ry", 1, 1, "ParseError: unexpected 'y' (line 1, column 3)"),
    ("x\n + \u00b2", 1, 1, "ParseError: unexpected character '\u00b2' (line 2, column 4)"),
    ("\u00bd", 1, 1, "ParseError: unexpected character '\u00bd' (line 1, column 1)"),
    ("x\u0663+1", 1, 1, "1 + x\u0663"),
    ("\u00e9 + _a1*b_2", 1, 1, "\u00e9 + _a1*b_2"),
    ("x\x0b", 1, 1, "ParseError: unexpected character '\\x0b' (line 1, column 2)"),
    ("x $ y", 1, 1, "ParseError: unexpected character '$' (line 1, column 3)"),
    (".", 1, 1, "ParseError: unexpected character '.' (line 1, column 1)"),
    ("1..2", 1, 1, "ParseError: unexpected '.2' (line 1, column 3)"),
    (".5x", 1, 1, "ParseError: unexpected 'x' (line 1, column 3)"),
    ("5.", 1, 1, "5"),
    ("x^2.0", 1, 1, "ParseError: exponent must be an integer (line 1, column 3)"),
    ("x^(2)", 1, 1, "ParseError: exponent must be an integer (line 1, column 3)"),
    ("x^-y", 1, 1, "ParseError: exponent must be an integer (line 1, column 4)"),
    ("sinh(x)", 2, 5, "UnknownFunctionError: unknown function 'sinh' (line 2, column 5)"),
    ("", 1, 1, "ParseError: unexpected 'eof' (line 1, column 1)"),
    ("", 3, 7, "ParseError: unexpected 'eof' (line 3, column 7)"),
    pytest.param("2*" + "1" * 4301, 1, 1,
                 "ParseError: number of more than 4300 digits (line 1, column 3)",
                 id="4301-digits", marks=pytest.mark.skipif(LIMIT != 4300, reason="another limit")),
    pytest.param("x^-" + "9" * 4301, 2, 5,
                 "ParseError: number of more than 4300 digits (line 2, column 8)",
                 id="4301-digit-exponent",
                 marks=pytest.mark.skipif(LIMIT != 4300, reason="another limit")),
]


@pytest.mark.parametrize("text, line, col, want", SCANNER)
def test_scanner_fixed_results(text, line, col, want):
    try:
        got = sx.print_expr(parse_expr(text, line=line, col=col))
    except sx.ParseError as err:
        got = f"{type(err).__name__}: {err}"
    assert got == want


# ---------------------------------------------------------------------------
# A constant outside a function's domain is an error when it is built, not
# a node that later folds away (0*log(0) -> 0, log(0) - log(0) -> 0).
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build, message", [
    (lambda: sx.log(0), "log of non-positive value in log(0)"),
    (lambda: sx.mul(0, sx.log(0)), "log of non-positive value in log(0)"),
    (lambda: sx.sqrt(-4), "sqrt of negative value in sqrt(-4)"),
    (lambda: sx.sqrt(parse_expr("-x")), "sqrt of negative value in sqrt(-1)"),
    (lambda: sx.func("arccos", 2), "arccos argument outside [-1, 1] in arccos(2)"),
    (lambda: substitute(parse_expr("sqrt(x)"), {"x": -4}), "sqrt of negative value in sqrt(-4)"),
    (lambda: substitute(parse_expr("log(x) - log(y)"), {"x": 0, "y": 0}),
     "log of non-positive value in log(0)"),
    (lambda: sx.add(Var("x"), sx.mul(0, sx.arccos(2))),
     "arccos argument outside [-1, 1] in arccos(2)"),
    (lambda: substitute(parse_expr("x + y*arccos(y)"), {"y": 2}),
     "arccos argument outside [-1, 1] in arccos(2)"),
], ids=["log", "zero-times-log", "sqrt", "sqrt-of-negated", "arccos", "substitute-sqrt",
        "substitute-log-difference", "zero-times-arccos", "substitute-arccos"])
def test_constant_outside_a_domain_is_an_error(build, message):
    with pytest.raises(sx.ConstantDomainError) as exc:
        build()
    assert isinstance(exc.value, sx.SymExprError)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, col", [("x + log(0)", 5), ("2*sqrt(-1)", 3),
                                       ("arccos(3/2)", 1), ("y*log(x - x)", 3)])
def test_constant_outside_a_domain_is_a_parse_error_at_the_function(text, col):
    with pytest.raises(sx.ParseError) as exc:
        parse_expr(text)
    assert str(exc.value).endswith(f"(line 1, column {col})")


def test_zero_to_a_negative_power_is_a_symexpr_error():
    with pytest.raises(sx.ZeroPowerError) as exc:
        substitute(parse_expr("1/x"), {"x": 0})
    assert isinstance(exc.value, sx.SymExprError)
    assert isinstance(exc.value, ZeroDivisionError)


def test_mul_refuses_a_hand_built_zero_to_a_negative_power():
    # a raw Pow node of a constant base is folded by mul as pow_ would fold it
    with pytest.raises(sx.ZeroPowerError):
        sx.mul(Pow(Const(0), -1), Var("x"))
    with pytest.raises(sx.ConstantSizeError):
        sx.mul(Pow(Const(10 ** 400), 20), Var("x"))
    assert sx.mul(Pow(Const(2), -2), Var("x")) == sx.mul(Const(Fraction(1, 4)), Var("x"))


# ---------------------------------------------------------------------------
# Scaling: mul of a constant and one canonical term scales the term without
# the general merge, which mul(c, x, ONE) always takes; both build one node.
# ---------------------------------------------------------------------------

# a constant as long as Python prints, so that scaling a term whose
# coefficient is 10 or more gives one too long to print
_BIG = 10 ** (LIMIT - 1) if LIMIT else 10 ** 50
SCALES = st.sampled_from([0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 7),
                          _BIG]).flatmap(lambda v: st.sampled_from([v, Const(v)]))


@st.composite
def canonical_terms(draw):
    """Builder-made terms: atoms, constants, sums, powers, functions, and
    products with and without a coefficient (some of 10 or more)."""
    x = draw(builder_exprs(2))
    c = draw(st.sampled_from([None, -1, Fraction(3, 2), 12, _BIG]))
    if c is not None:
        try:
            x = sx.mul(c, x, sx.ONE)
        except sx.ConstantSizeError:
            pass
    return x


def _built(build):
    """What a builder call gives: the node with its printed form and mark,
    or the type and message of the error it raises."""
    try:
        e = build()
    except sx.SymExprError as err:
        return "error", type(err), str(err)
    return "node", e, _printed(e), e._canon


@settings(max_examples=300, deadline=None)
@given(SCALES, canonical_terms())
@example(_BIG, Const(12))
@example(Fraction(1, 12), sx.mul(12, Var("x")))
def test_scaling_a_canonical_term_equals_the_general_merge(c, x):
    assert x._canon
    for args in ((c, x), (x, c)):
        assert _built(lambda: sx.mul(*args)) == _built(lambda: sx.mul(*args, sx.ONE))


@pytest.mark.parametrize("c, text, want", [
    (2, "3*x", "6*x"), (Fraction(1, 2), "2*x*y", "x*y"), (-1, "x + y", "-(x + y)"),
    (0, "x", "0"), (1, "x^2", "x^2"),
])
def test_scaling_fixed_results(c, text, want):
    x = parse_expr(text)
    for args in ((c, x), (x, c)):
        got = sx.mul(*args)
        assert print_expr(got) == want and got._canon
        assert got == sx.mul(*args, sx.ONE)
    assert sx.mul(1, x) is x
    assert sx.mul(0, x) is sx.ZERO


# ---------------------------------------------------------------------------
# The canonical mark: simplify gives a builder-made tree back as it is, and
# a mark never hides a hand-built node that the builders would change.
# ---------------------------------------------------------------------------

def _rebuild(e):
    """``simplify`` as a full bottom-up rebuild that reads no mark."""
    t = type(e)
    if t is Add:
        return sx.add(*(_rebuild(u) for u in e.terms))
    if t is Mul:
        return sx.mul(*(_rebuild(u) for u in e.factors))
    if t is Pow:
        return sx.pow_(_rebuild(e.base), e.exponent)
    if t is Func:
        return sx.func(e.fname, _rebuild(e.arg))
    return e


def _nodes(e):
    yield e
    for child in getattr(e, "terms", ()) + getattr(e, "factors", ()):
        yield from _nodes(child)
    if isinstance(e, (Pow, Func)):
        yield from _nodes(e.base if isinstance(e, Pow) else e.arg)


def _or_hand_built(builder, node):
    """``builder`` over the children, or the hand-built ``node`` when the
    builder refuses them (a hand-built Pow(0, -1) child, say), so that the
    property compares simplify's and _rebuild's errors on that tree."""
    def build(children):
        try:
            return builder(*children)
        except sx.SymExprError:
            return node(*children)
    return build


def mixed_exprs(depth=3):
    """Builder calls and node constructors mixed, so that builder output can
    hold hand-built children and the reverse."""
    if depth == 0:
        # two atoms that differ only in their arguments must never merge
        return st.one_of(leaf(), st.sampled_from([FieldAtom("f", ("x", "y")),
                                                  FieldAtom("f", ("x",))]))
    sub = mixed_exprs(depth - 1)
    return st.one_of(
        builder_exprs(1),
        st.lists(sub, min_size=1, max_size=3).map(_or_hand_built(sx.add, Add)),
        st.lists(sub, min_size=1, max_size=3).map(_or_hand_built(sx.mul, Mul)),
        st.lists(sub, min_size=1, max_size=3).map(lambda ts: Add(*ts)),
        st.lists(sub, min_size=1, max_size=3).map(lambda fs: Mul(*fs)),
        st.tuples(sub, st.sampled_from([-1, 1, 2, 3])).map(lambda an: Pow(*an)),
        st.tuples(sub, st.sampled_from([-1, 2, 3])).map(_or_hand_built(_power, Pow)),
        sub.map(lambda a: Func("sin", a)), sub.map(sx.cos), sub.map(lambda a: Func("sqrt", a)),
    )


@settings(max_examples=80, deadline=None)
@given(builder_exprs())
def test_simplify_returns_a_builder_made_tree_itself(e):
    assert simplify(e) is e


@pytest.mark.parametrize("text", ["x", "2*x*y + sin(x)^2", "sqrt(x^3*y)/(1 + x)",
                                  "arccos(x/2) - log(y)*exp(-x)"])
def test_simplify_returns_a_parsed_tree_itself(text):
    e = parse_expr(text)
    assert simplify(e) is e


@settings(max_examples=150, deadline=None)
@given(mixed_exprs())
def test_simplify_equals_a_full_rebuild(e):
    try:
        want = _rebuild(e)
    except sx.SymExprError as err:
        with pytest.raises(type(err)):
            simplify(e)
        return
    got = simplify(e)
    assert got == want and _printed(got) == _printed(want)
    for node in _nodes(e):
        if node._canon:  # a marked node is one simplify leaves as it is
            assert _rebuild(node) == node


@pytest.mark.parametrize("build, want", [
    (lambda x: sx.mul(Const(2), Add(x, x)), "4*x"),
    (lambda x: sx.add(Mul(x, Const(2)), x), "3*x"),
    (lambda x: sx.mul(x, Pow(sx.pow_(x, 2), 3)), "x^7"),
    (lambda x: sx.add(Pow(sx.pow_(x, 2), 3), Pow(sx.pow_(x, 2), 3)), "2*x^6"),
    (lambda x: sx.sqrt(Pow(Const(4), 3)), "8"),
    (lambda x: sx.sin(Add(x, x)), "sin(2*x)"),
], ids=["mul", "add", "mul-pow-of-pow", "add-pow-of-pow", "sqrt-of-constant-power",
        "func"])
def test_builder_output_with_a_hand_built_child_is_canonicalized(build, want):
    got = simplify(build(Var("x")))
    assert got == parse_expr(want) and print_expr(got) == want


def test_diff_memo_does_not_leak_between_calls():
    x, y = Var("x"), Var("y")
    s = sx.mul(x, y)
    e = sx.add(sx.sin(s), sx.mul(s, s), sx.sqrt(s))  # x*y appears three times
    dx = "y*cos(x*y) + (1/2)*sqrt(y)*sqrt(x)^-1 + 2*x*y^2"
    dy = "x*cos(x*y) + (1/2)*sqrt(x)*sqrt(y)^-1 + 2*y*x^2"
    assert print_expr(diff(e, "x")) == dx
    assert print_expr(diff(e, "y")) == dy
    assert print_expr(diff(e, "x")) == dx


def test_substitute_memo_does_not_leak_between_calls():
    x, y = Var("x"), Var("y")
    s = sx.mul(x, y)
    e = sx.add(sx.sin(s), sx.mul(s, s), sx.sqrt(s))
    assert print_expr(substitute(e, {"x": 1})) == "sin(y) + sqrt(y) + y^2"
    assert print_expr(substitute(e, {"x": 4})) == "sin(4*y) + 2*sqrt(y) + 16*y^2"
    assert simplify(e) is e


# ---------------------------------------------------------------------------
# Exact zero test: expand and is_zero
# ---------------------------------------------------------------------------

# inside the domain the sqrt builder assumes (positive coordinates)
POSITIVE_POINTS = [{"x": 0.37, "y": 1.21, "f": 0.7}, {"x": 1.9, "y": 0.44, "f": -1.3}]


@settings(max_examples=100, deadline=None)
@given(builder_exprs())
def test_a_builder_tree_less_itself_is_proven_zero(a):
    assert sx.is_zero(sx.sub(a, a))


@settings(max_examples=60, deadline=None)
@given(builder_exprs(2), builder_exprs(2), builder_exprs(2))
def test_distributed_products_are_proven_equal(a, b, c):
    assert sx.is_zero(sx.sub(sx.mul(a, sx.add(b, c)), sx.add(sx.mul(a, b), sx.mul(a, c))))


@settings(max_examples=100, deadline=None)
@given(builder_exprs())
def test_expand_evaluates_like_its_input(a):
    values = []
    for p in POSITIVE_POINTS:
        try:
            values.append((p, eval_expr(a, p)))
        except sx.EvalError:  # out of the domain, or two atoms named f
            pass
    if not values:
        return
    e = sx.expand(a)
    for p, want in values:
        # rounding grows with the terms the expansion adds up
        size = sum(abs(eval_expr(t, p)) for t in (e.terms if isinstance(e, Add) else (e,)))
        assert eval_expr(e, p) == pytest.approx(want, rel=1e-9, abs=1e-12 * max(1.0, size))


@pytest.mark.parametrize("text, want", [
    ("(x + y)^2", "2*x*y + x^2 + y^2"),
    ("x*(y + 1) - x*y", "x"),
    ("(x + y)^3 - x*(x + y)^2", "y^3 + y*x^2 + 2*x*y^2"),
    ("(sin(x) + cos(x))^2", "1 + 2*sin(x)*cos(x)"),
    ("sin(x*(y + 1))", "sin(x + x*y)"),
    ("(x*(y + 1))^-1", "x^-1*(1 + y)^-1"),
    ("((x + y)^-1)^-2", "2*x*y + x^2 + y^2"),
    ("(1 + x)^-1*(y + x*y)", "y*(1 + x)^-1 + x*y*(1 + x)^-1"),
    # a power of an expanded product, and of a power
    ("1/(x*(y + 1) - x)", "x^-1*y^-1"),
    ("(x^2*(y + 1) - x^2*y)^-3", "x^-6"),
])
def test_expand_fixed_results(text, want):
    # a sum to a negative power stays a power: no common denominator forms
    e = parse_expr(text)
    out = sx.expand(e)
    assert out == parse_expr(want)
    for p in POSITIVE_POINTS:
        assert eval_expr(out, p) == pytest.approx(eval_expr(e, p), rel=1e-12)


@pytest.mark.parametrize("text, proven", [
    ("(x + y)^2 - x^2 - 2*x*y - y^2", True),
    ("cos(x)*(-sin(x) - y*sin(x)) + sin(x)*(cos(x) + y*cos(x))", True),
    ("(sin(x) + cos(x))^2 - 2*sin(x)*cos(x) - 1", True),
    ("sin(x*(y + 1)) - sin(x*y + x)", True),
    ("(x + y)^2 - x^2 - y^2", False),
    # zero, but only over a common denominator: not proven, never "nonzero"
    ("1/(1 + x) + x/(1 + x) - 1", False),
    # the base cancels to 0, and 0^-1 is refused: not proven
    ("(x - x*(1 + y) + x*y)^-1", False),
])
def test_is_zero_fixed_results(text, proven):
    assert sx.is_zero(parse_expr(text)) is proven


def test_is_zero_takes_numbers_and_answers_zero_at_once(monkeypatch):
    monkeypatch.setattr(sx, "expand", None)  # not reached
    assert sx.is_zero(0) and sx.is_zero(sx.ZERO) and not sx.is_zero(sx.ONE)


def test_an_expansion_too_large_to_form_is_refused_and_not_proven():
    e = parse_expr("(x + y + 1)^60 - 1")
    with pytest.raises(sx.SymExprError, match="term products"):
        sx.expand(e)
    assert sx.is_zero(e) is False


# ---------------------------------------------------------------------------
# Interned nodes: one live node per structure
# ---------------------------------------------------------------------------

def test_one_structure_is_one_node():
    built = sx.add(sx.mul(2, Var("x")), sx.sin(Var("y")))
    hand = Add(Func("sin", Var("y")), Mul(Const(2), Var("x")))
    assert hand is built and parse_expr("sin(y) + 2*x") is built
    assert hand._canon  # the mark the builder gave it
    assert Const(Fraction(1, 2)) is Const(0.5) is sx.const(Fraction(2, 4))
    assert FieldAtom("u", ["x", "y"], ("z", "x")) is FieldAtom("u", ("x", "y"), ["x", "z"])
    assert Pow(Var("x"), 2) is not Pow(Var("x"), 3)
    assert FieldAtom("u", ("x",)) is not FieldAtom("u", ("y",))


def test_an_existing_integer_constant_is_found_without_a_fraction(monkeypatch):
    seven, minus_one = Const(7), Const(-1)
    made = []

    class CountedFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return Fraction(*args, **kwargs)

    monkeypatch.setattr(sx, "Fraction", CountedFraction)
    assert Const(7) is seven and Const(-1) is minus_one and sx.neg(Var("x")).factors[0] is minus_one
    assert made == []
    assert Const(987654321).value == 987654321  # a new one is converted once
    assert made == [(987654321,)]


def test_a_builder_raises_a_hand_built_nodes_mark_and_never_lowers_it():
    q = Var("q_mark")
    hand = Mul(Const(3), q)
    assert not hand._canon  # a new node starts unmarked
    assert sx.mul(hand) is hand and not hand._canon  # from an unmarked input
    assert sx.mul(3, q) is hand and hand._canon
    assert Mul(Const(3), q) is hand and hand._canon
    # a product of unmarked inputs whose merge is this node keeps its mark
    assert sx.mul(Mul(Const(3), Mul(q))) is hand and hand._canon


def test_a_node_dies_once_nothing_holds_it():
    gc.collect()
    gc.disable()
    try:
        e = parse_expr("w_dies*sin(w_dies) + 7/13")
        text, ref = print_expr(e), weakref.ref(e)
        inner = weakref.ref(e.terms[1])
        del e
        assert ref() is None and inner() is None  # no collector needed
        assert gc.collect() == 0
        again = parse_expr(text)
        assert print_expr(again) == text and again._canon
    finally:
        gc.enable()


def _instructions(build, *args):
    """Bytecode instructions executed by ``build(*args)``."""
    executed = 0

    def local(frame, event, arg):
        nonlocal executed
        executed += event == "opcode"
        return local

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(call)
    try:
        build(*args)
    finally:
        sys.settrace(None)
    return executed


def test_a_dead_entry_costs_the_bytecode_of_no_entry(monkeypatch):
    # whether a new node meets a dead entry depends on where objects are
    # allocated, so it must not change how much bytecode runs
    monkeypatch.setattr(sx, "_new_before_sweep", 1 << 20)  # no sweep here
    Var("w_dead_entry")
    assert sx._NODES[(Var, "w_dead_entry")]() is None
    assert (Var, "w_no_entry") not in sx._NODES
    assert _instructions(Var, "w_dead_entry") == _instructions(Var, "w_no_entry")


@pytest.mark.parametrize("text", ["x", "-7/3", "u*sin(x)^2 + sqrt(y)/(1 + x)"])
def test_copies_and_pickles_give_back_the_interned_node(text):
    e = substitute(parse_expr(text), {"u": FieldAtom("u", ("x", "t"), ("t",))})
    assert copy.copy(e) is e and copy.deepcopy(e) is e
    assert copy.deepcopy([e, e]) == [e, e]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(e, protocol)) is e


@pytest.mark.parametrize("name", ["terms", "_canon", "_skey", "other"])
def test_a_node_refuses_every_assignment(name):
    e = parse_expr("x + y")
    with pytest.raises(AttributeError):
        setattr(e, name, ())
    assert print_expr(e) == "x + y" and e._canon


def test_the_spherical_3vector_text_is_its_pin_after_unrelated_trees_come_and_go(capsys):
    import pathlib

    from curvmax import chart, cli
    pin = pathlib.Path(__file__).parent / "data" / "derive_spherical_3vector.txt"
    rng = np.random.default_rng(3)
    x, y = Var("x"), Var("y")
    trees = [sx.add(sx.mul(int(a), sx.pow_(x, int(n))), sx.sin(sx.mul(int(b), y)))
             for a, b, n in rng.integers(1, 400, size=(3000, 3))]
    del trees  # their ids are free again, and their table entries dead
    chart.builtin_metric.cache_clear()
    try:
        cli.main(["derive", "--chart", "spherical", "--form", "3vector"])
    except SystemExit as exc:
        assert not exc.code
    assert capsys.readouterr().out == pin.read_text(encoding="utf-8")


def _counting(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _build=getattr(sx, name), _name=name):
            calls[_name] += 1
            return _build(*args)
        monkeypatch.setattr(sx, name, counted)
    return calls


def test_substitute_keeps_the_canonical_subtrees_no_binding_reaches(monkeypatch):
    e = parse_expr("x*y + 3*w*sin(z) + c*(a + b)^2")
    calls = _counting(monkeypatch, "add", "mul")
    assert substitute(e, {"absent": Var("t")}) is e
    assert calls == {"add": 0, "mul": 0}
    # z sits under 3*w*sin(z) only: that product and the root are rebuilt
    out = substitute(e, {"z": Var("t")})
    assert calls == {"add": 1, "mul": 1}
    monkeypatch.undo()
    assert out is parse_expr("x*y + 3*w*sin(t) + c*(a + b)^2")
