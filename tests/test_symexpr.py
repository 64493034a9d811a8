"""Expression-tree properties: evaluation, differentiation, simplify, parsing."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from curvmax import symexpr as sx
from curvmax.symexpr import (Const, FieldAtom, Var, diff, equivalent, eval_expr,
                             free_vars, lambdify, parse_expr, print_expr,
                             simplify, substitute, to_latex)

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
