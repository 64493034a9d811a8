"""Expression-tree properties: evaluation, differentiation, simplify, parsing."""

import math
import sys
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


def builder_exprs(depth=3):
    """Builder-made trees over x, y and a field atom, with powers, sqrt and
    sin/cos pairs so that like terms merge and sin^2 + cos^2 collapses."""
    if depth == 0:
        return st.one_of(leaf(), st.just(FieldAtom("f", ("x", "y"))))
    sub = builder_exprs(depth - 1)
    return st.one_of(
        sub,
        st.lists(sub, min_size=2, max_size=3).map(lambda ts: sx.add(*ts)),
        st.lists(sub, min_size=2, max_size=3).map(lambda fs: sx.mul(*fs)),
        st.tuples(sub, st.sampled_from([-2, -1, 2, 3])).map(lambda an: _power(*an)),
        sub.map(sx.sin), sub.map(sx.cos), sub.map(sx.sqrt),
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
        return (2, e.base, e.derivs)
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
        coeff, mono = sx._term_split(t)
        if coeff == 0:
            continue
        k = sx._mono_key(mono)
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
            assert sx._term_build(*sx._term_split(t)) == t


@settings(max_examples=80, deadline=None)
@given(st.lists(builder_exprs(), min_size=1, max_size=4))
@example([parse_expr("x"), parse_expr("x*sin(y)^2"), parse_expr("x*cos(y)^2")])
def test_add_equals_rebuilding_add(terms):
    got = sx.add(*terms)
    want = _rebuilding_add(*terms)
    assert got == want
    assert print_expr(got) == print_expr(want)


@settings(max_examples=80, deadline=None)
@given(builder_exprs(), st.sampled_from(VARS))
def test_diff_equals_zero_product_rule(e, v):
    got = diff(e, v)
    assert got == _zero_product_diff(e, v)
    assert print_expr(got) == print_expr(_zero_product_diff(e, v))


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
    e = parse_expr(text)
    assert isinstance(e, Func)
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
