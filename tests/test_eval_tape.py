"""The evaluation tape of ``eval_expr`` and ``lambdify``, and the derivative
memo of ``partials``.

Each is compared with a test-local copy of what it replaced: the recursive
evaluator, which walked the whole tree on every call, the closure compiler
behind ``lambdify``, and the operators that took each derivative through a
``diff`` call of its own.
"""

import gc
import math
import os
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvmax import diffops
from curvmax import symexpr as sx
from curvmax.chart import (ComponentVector, builtin_chart, jacobian, lame_coefficients,
                           metric_from_chart, parse_chart_file)
from curvmax.symexpr import (Add, Const, FieldAtom, Func, Mul, Pow, Var, diff, eval_expr,
                             partials, print_expr)

DATA = os.path.join(os.path.dirname(__file__), "data")


# ---------------------------------------------------------------------------
# The recursive evaluator, as it was before the tape
# ---------------------------------------------------------------------------

def _walk(e, binding):
    t = type(e)
    if t is Mul:
        out = 1.0
        for x in e.factors:
            out *= _walk(x, binding)
        if not math.isfinite(out):
            if out != out:
                raise sx.EvalDomainError(
                    "undefined product (zero times an infinity, or a nan)", e)
            if all(abs(_walk(x, binding)) < math.inf for x in e.factors):
                raise sx.EvalDomainError("product beyond the float range", e)
        return out
    if t is Add:
        terms = [_walk(x, binding) for x in e.terms]
        try:
            return math.fsum(terms)
        except ValueError as err:
            raise sx.EvalDomainError("sum of opposite infinities", e) from err
        except OverflowError as err:
            raise sx.EvalDomainError("sum beyond the float range", e) from err
    if t is Const:
        try:
            return e.value.numerator / e.value.denominator
        except OverflowError as err:
            raise sx.EvalDomainError("constant beyond the float range", e) from err
    if t is Var or t is FieldAtom:
        name = e.name
        if name not in binding:
            if name == "pi":
                return math.pi
            raise sx.UnboundVariableError(f"unbound variable {name!r}", e)
        value = float(binding[name])
        if value != value:
            raise sx.EvalDomainError(f"nan bound to {name!r}", e)
        return value
    if t is Pow:
        b = _walk(e.base, binding)
        if b == 0.0 and e.exponent < 0:
            raise sx.EvalDomainError("division by zero", e)
        try:
            return b ** e.exponent
        except OverflowError as err:
            raise sx.EvalDomainError("power beyond the float range", e) from err
    if t is Func:
        u = _walk(e.arg, binding)
        row = sx._FUNCS[e.fname]
        if row.domain is not None and row.domain[0](u):
            raise sx.EvalDomainError(row.domain[1], e)
        try:
            return row.mathf(u)
        except (ValueError, OverflowError) as err:
            raise sx.EvalDomainError(str(err), e) from err
    raise TypeError(f"unknown node {t!r}")


def _assert_as_walked(e, binding):
    """``eval_expr`` gives the walker's float bit for bit, or raises its
    error: the same type, message, named node and cause.  Returns the
    error type, or None."""
    try:
        want = _walk(e, binding)
    except Exception as err:  # noqa: BLE001 - every error kind is compared
        with pytest.raises(Exception) as exc:
            eval_expr(e, binding)
        got = exc.value
        assert type(got) is type(err)
        assert str(got) == str(err)
        assert getattr(got, "subexpr", None) is getattr(err, "subexpr", None)
        assert type(got.__cause__) is type(err.__cause__)
        return type(err)
    got = eval_expr(e, binding)
    assert struct.pack("<d", got) == struct.pack("<d", want)
    return None


# ---------------------------------------------------------------------------
# Trees with shared subtrees
# ---------------------------------------------------------------------------

# one argument list per atom name, so that no tree is ambiguous
LEAVES = (Var("x"), Var("y"), Var("z"), Var("pi"), FieldAtom("f", ("x", "y")),
          FieldAtom("g", ("y",), ("y",)), Const(0), Const(1), Const(-2),
          Const(Fraction(1, 3)), Const(10 ** 400))
NAMES = ("x", "y", "z", "pi", "f", "d_y_g")
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -1.5, 2.0, 1e-300, 1e200, 1e308, -1e308,
                     math.inf, -math.inf, math.nan]),
    st.floats(min_value=-3.0, max_value=3.0),
)
BINDINGS = st.dictionaries(st.sampled_from(NAMES), VALUES, min_size=3)


# kind -> builder, taking (children, exponent, function name)
MAKERS = {
    "add": lambda kids, n, f: sx.add(*kids),
    "mul": lambda kids, n, f: sx.mul(*kids),
    "pow": lambda kids, n, f: sx.pow_(kids[0], n),
    "func": lambda kids, n, f: sx.func(f, kids[0]),
}


@st.composite
def shared_trees(draw, leaves=LEAVES):
    """Each new node takes its children from the nodes drawn before it, by
    identity, through a builder (none where the builder refuses, as for a
    constant outside a function's domain); the last node drawn is the
    root."""
    pool = list(draw(st.lists(st.sampled_from(leaves), min_size=2, max_size=4)))
    for _ in range(draw(st.integers(1, 10))):
        kids = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        build = MAKERS[draw(st.sampled_from(sorted(MAKERS)))]
        args = kids, draw(st.sampled_from((-2, -1, 2, 3))), draw(st.sampled_from(sx.FUNCTIONS))
        try:
            pool.append(build(*args))
        except sx.SymExprError:
            pass
    return pool[-1]


@settings(max_examples=300, deadline=None)
@given(shared_trees(), st.lists(BINDINGS, min_size=1, max_size=4))
def test_tape_gives_the_walkers_values_and_errors(e, bindings):
    for binding in bindings:
        _assert_as_walked(e, binding)


_X, _Y = Var("x"), Var("y")
ERROR_KINDS = [
    (Var("w"), {}, sx.UnboundVariableError, "unbound variable 'w' in w"),
    (_X, {"x": math.nan}, sx.EvalDomainError, "nan bound to 'x' in x"),
    (sx.pow_(_X, -1), {"x": 0.0}, sx.EvalDomainError, "division by zero in x^-1"),
    (sx.sqrt(_X), {"x": -1.0}, sx.EvalDomainError, "sqrt of negative value in sqrt(x)"),
    (sx.log(_X), {"x": 0.0}, sx.EvalDomainError, "log of non-positive value in log(x)"),
    (sx.func("arccos", _X), {"x": 2.0}, sx.EvalDomainError,
     "arccos argument outside [-1, 1] in arccos(x)"),
    (sx.sin(_X), {"x": math.inf}, sx.EvalDomainError, "math domain error in sin(x)"),
    (sx.exp(_X), {"x": 1000.0}, sx.EvalDomainError, "math range error in exp(x)"),
    (Const(10 ** 400), {}, sx.EvalDomainError,
     "constant beyond the float range in 1" + "0" * 400),
    (sx.mul(_X, _Y), {"x": 1e200, "y": 1e200}, sx.EvalDomainError,
     "product beyond the float range in x*y"),
    (sx.mul(_X, _Y), {"x": math.inf, "y": 0.0}, sx.EvalDomainError,
     "undefined product (zero times an infinity, or a nan) in x*y"),
    (sx.pow_(_X, 2), {"x": 1e200}, sx.EvalDomainError, "power beyond the float range in x^2"),
    (sx.sub(_X, _Y), {"x": math.inf, "y": math.inf}, sx.EvalDomainError,
     "sum of opposite infinities in x - y"),
    (sx.add(_X, _Y), {"x": 1e308, "y": 1e308}, sx.EvalDomainError,
     "sum beyond the float range in x + y"),
]


@pytest.mark.parametrize("shared", [False, True], ids=["root", "shared"])
@pytest.mark.parametrize("bad, binding, kind, message", ERROR_KINDS,
                         ids=[m.split(" in ")[0] for *_, m in ERROR_KINDS])
def test_every_error_kind_as_walked(bad, binding, kind, message, shared):
    # the failing node as the root itself, or shared three times under it
    e = sx.add(sx.sin(bad), sx.cos(bad), sx.exp(bad)) if shared else bad
    binding = {"x": 1.0, "y": 1.0, **binding}
    assert _assert_as_walked(e, binding) is kind
    with pytest.raises(kind) as exc:
        eval_expr(e, binding)
    assert str(exc.value).startswith(message)
    assert exc.value.subexpr is bad


def test_the_first_failing_node_in_the_walk_is_named():
    # the unbound variable comes before log(u) in the walk, and sqrt(v) after
    e = sx.mul(Var("w"), sx.log(Var("u")), sx.sqrt(Var("v")))
    assert [type(f) for f in e.factors] == [Var, Func, Func]
    with pytest.raises(sx.UnboundVariableError, match="'w'"):
        eval_expr(e, {"u": 0.0, "v": -1.0})
    with pytest.raises(sx.EvalDomainError, match="log of non-positive"):
        eval_expr(e, {"w": 1.0, "u": 0.0, "v": -1.0})
    with pytest.raises(sx.EvalDomainError, match="sqrt of negative"):
        eval_expr(e, {"w": 1.0, "u": 1.0, "v": -1.0})


# ---------------------------------------------------------------------------
# One root, many bindings; no garbage left behind
# ---------------------------------------------------------------------------

def _spherical_div():
    chart = builtin_chart("spherical")
    m = metric_from_chart(chart)
    r, th, ph = (Var(c) for c in chart.coords)
    v = ComponentVector((r * sx.sin(th), sx.cos(ph) * r ** 2, th * ph + sx.exp(r)),
                        "contravariant", "holonomic")
    return diffops.div(v, m)


def test_one_root_at_several_bindings_gives_each_its_own_value():
    e = _spherical_div()
    points = [{"r": 0.5 + k, "theta": 0.3 * (k + 1), "phi": 0.7 - 0.2 * k} for k in range(4)]
    values = [eval_expr(e, p) for p in points]
    tape = e._tape
    assert len(set(values)) == len(values)
    for p, v in zip(points[::-1] + points, values[::-1] + values):
        assert eval_expr(e, p) == v == _walk(e, p)
    # an error at one binding leaves the next one unaffected
    with pytest.raises(sx.EvalDomainError):
        eval_expr(e, {"r": 1.0, "theta": 0.0, "phi": 0.5})
    assert eval_expr(e, points[2]) == values[2]
    assert e._tape is tape  # compiled once


def test_dropping_an_evaluated_tree_leaves_nothing_for_the_collector():
    x, y = Var("x"), Var("y")
    gc.collect()
    gc.disable()
    try:
        for build in (_spherical_div,
                      lambda: sx.add(sx.sin(x), sx.mul(2, sx.cos(y)), sx.pow_(x, 2))):
            e = build()
            for k in range(3):
                eval_expr(e, {"x": 0.5 + k, "y": 1.0, "r": 1.0 + k, "theta": 0.4, "phi": 1.0})
            assert gc.collect() == 0
            del e
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_two_atoms_of_one_name_with_different_arguments_are_refused():
    first, second = FieldAtom("u", ("x",)), FieldAtom("u", ("y",))
    e = sx.add(first, sx.mul(2, second), Var("u"))
    with pytest.raises(sx.EvalError) as exc:
        eval_expr(e, {"u": 1.0})
    assert exc.value.subexpr is second
    assert "'u'" in str(exc.value)
    # the printers go by the name alone, so they refuse the same tree
    for printer in (print_expr, sx.to_latex):
        with pytest.raises(sx.EvalError) as got:
            printer(sx.add(first, sx.mul(2, second), Var("u")))
        assert str(got.value) == str(exc.value) and got.value.subexpr is second


def test_printing_two_atoms_of_one_name_does_not_give_a_tree_that_reparses_otherwise():
    # u(x) + u(y) printed as "u + u" would reparse as 2*u
    e = sx.add(FieldAtom("u", ("x",)), FieldAtom("u", ("y",)))
    for printer in (print_expr, sx.to_latex):
        with pytest.raises(sx.EvalError, match="field atom 'u' also appears"):
            printer(e)
    # one atom of a name in several places, or a variable of that name, still prints
    u = FieldAtom("u", ("x",))
    assert print_expr(sx.add(u, sx.mul(Var("u"), sx.sin(u)))) == "u + u*sin(u)"
    assert repr(e) == "<Add u + u>"


def test_a_parse_loads_each_variable_once():
    tape = sx._tape_of(sx.parse_expr("x*y + sin(x)"))
    atoms = [arg for kind, arg, _, _ in tape[1] if kind is sx._T_ATOM]
    assert sorted(atoms) == ["x", "y"]


def test_a_repeated_parsed_subtree_is_computed_once():
    e = sx.parse_expr("sin(x)*y + sin(x)*z")
    code = sx._tape_of(e)[1]
    assert [arg[1] for kind, arg, _, _ in code if kind is sx._T_FUNC] == [sx._FUNCS["sin"]]
    binding = {"x": 0.4, "y": 1.5, "z": -2.0}
    assert eval_expr(e, binding) == _walk(e, binding)


def test_lambdify_refuses_two_atoms_of_one_name_as_eval_expr_does():
    first, second = FieldAtom("u", ("x",)), FieldAtom("u", ("y",))
    e = sx.add(first, sx.mul(2, second), Var("u"))
    with pytest.raises(sx.EvalError) as want:
        eval_expr(e, {"u": 1.0})
    with pytest.raises(sx.EvalError) as got:
        sx.lambdify(sx.add(first, sx.mul(2, second), Var("u")))
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert got.value.subexpr is want.value.subexpr is second
    # equivalent compares through lambdify, so it no longer reads u(x) + u(y) as 2 u(x)
    with pytest.raises(sx.EvalError):
        sx.equivalent(sx.add(first, second), sx.mul(2, first))


# two atoms named u that differ in their arguments, a variable named u too
AMBIGUOUS_LEAVES = (FieldAtom("u", ("x",)), FieldAtom("u", ("y",)), FieldAtom("u", ("x",), ("x",)),
                    FieldAtom("f", ("x", "y")), Var("u"), Var("x"), Const(2))


@settings(max_examples=200, deadline=None)
@given(shared_trees(AMBIGUOUS_LEAVES))
def test_lambdify_refuses_the_atom_eval_expr_refuses(e):
    try:
        eval_expr(e, {"u": 0.5, "x": 0.25, "f": 1.5, "d_x_u": 2.0})
    except sx.EvalError as err:
        if "also appears with other arguments" in str(err):
            with pytest.raises(sx.EvalError) as got:
                sx.lambdify(e)
            assert str(got.value) == str(err) and got.value.subexpr is err.subexpr
            return
    sx.lambdify(e)


def test_a_variable_may_share_an_atoms_name():
    e = sx.add(FieldAtom("u", ("x",)), sx.mul(3, Var("u")), FieldAtom("u", ("x",)))
    assert eval_expr(e, {"u": 2.0}) == 10.0
    assert sx.lambdify(e)({"u": 2.0}) == 10.0


# ---------------------------------------------------------------------------
# Operators through one partials(): the same trees as with a diff per call
# ---------------------------------------------------------------------------

def _old_grad(phi, chart):
    return ComponentVector(tuple(diff(phi, c) for c in chart.coords), "covariant", "holonomic")


def _old_div(v, m):
    s = m.sqrt_abs_g
    inv = sx.pow_(s, -1)
    return sx.add(*(inv * diff(s * v.components[i], m.chart.coords[i]) for i in range(3)))


def _old_curl(w, m):
    inv = sx.pow_(m.sqrt_abs_g, -1)
    coords = m.chart.coords
    comps = tuple(
        inv * (diff(w.components[k], coords[j]) - diff(w.components[j], coords[k]))
        for (_, j, k) in diffops.CYCLIC)
    return ComponentVector(comps, "contravariant", "holonomic")


def _old_laplacian(phi, m):
    s = m.sqrt_abs_g
    inv = sx.pow_(s, -1)
    coords = m.chart.coords
    dphi = [diff(phi, c) for c in coords]
    terms = []
    for i in range(3):
        flux = sx.add(*(m.g_hi[i][j] * dphi[j] for j in range(3)))
        terms.append(inv * diff(s * flux, coords[i]))
    return sx.add(*terms)


def _old_grad_nh(phi, m):
    h = lame_coefficients(m)
    return ComponentVector(tuple(sx.pow_(h[i], -1) * diff(phi, m.chart.coords[i])
                                 for i in range(3)), "covariant", "nonholonomic")


def _charts():
    charts = [builtin_chart(n) for n in ("cartesian", "cylindrical", "spherical")]
    with open(os.path.join(DATA, "parabolic.chart"), encoding="utf-8") as fh:
        charts += parse_chart_file(fh.read())
    return charts


def _fields(chart):
    """Scalars and vectors on ``chart``: opaque atoms, and Cartesian fields
    pulled back through the embedding, whose components share subtrees."""
    pull = dict(zip(("x", "y", "z"), chart.embedding))
    x, y, z = Var("x"), Var("y"), Var("z")
    cart = (x * y + sx.sin(x), y * z ** 2 - 3 * sx.exp(y), sx.cos(z) * y + x)
    pulled = tuple(sx.substitute(c, pull) for c in cart)
    jac = jacobian(chart).matrix
    covariant = tuple(sx.add(*(jac[a][i] * pulled[a] for a in range(3))) for i in range(3))
    atoms = tuple(FieldAtom(f"v_{i}", chart.coords) for i in range(3))
    return [FieldAtom("f", chart.coords), pulled[0]], [atoms, covariant, pulled]


@pytest.mark.parametrize("chart", _charts(), ids=lambda c: c.name)
def test_operators_give_the_trees_of_one_diff_per_derivative(chart):
    m = metric_from_chart(chart)
    scalars, vectors = _fields(chart)
    pairs = []
    for phi in scalars:
        pairs += [(diffops.grad(phi, chart).components, _old_grad(phi, chart).components),
                  ((diffops.laplacian(phi, m),), (_old_laplacian(phi, m),)),
                  (diffops.grad_nh(phi, m).components, _old_grad_nh(phi, m).components)]
    for comps in vectors:
        up = ComponentVector(comps, "contravariant", "holonomic")
        down = ComponentVector(comps, "covariant", "holonomic")
        pairs += [((diffops.div(up, m),), (_old_div(up, m),)),
                  (diffops.curl(down, m).components, _old_curl(down, m).components)]
    for got, want in pairs:
        assert got == want
        assert [print_expr(g) for g in got] == [print_expr(w) for w in want]


def test_partials_differentiates_a_subtree_shared_by_its_inputs_once(monkeypatch):
    x, y = Var("x"), Var("y")
    shared = sx.sin(x * y) * sx.exp(x)
    seen = []
    real = sx._diff

    def counting(e, v, memo):
        seen.append((e, v))
        return real(e, v, memo)
    monkeypatch.setattr(sx, "_diff", counting)
    d = partials()
    first, second = d(shared + y, "x"), d(shared * y ** 2, "x")
    assert [v for e, v in seen if e is shared] == ["x"]
    monkeypatch.undo()
    assert first == diff(shared + y, "x") and second == diff(shared * y ** 2, "x")


def test_partials_after_its_inputs_are_dropped_still_differentiates_fresh_trees():
    d = partials()
    x, y = Var("x"), Var("y")
    for k in range(40):
        # the same shapes each round, so freed nodes' ids would come back
        e = sx.add(sx.mul(k + 2, sx.sin(sx.mul(x, y))), sx.pow_(sx.cos(y), 2))
        assert d(e, "x") == diff(e, "x")
        del e
        gc.collect()
        fresh = sx.add(sx.mul(k + 3, sx.cos(sx.mul(x, x))), sx.pow_(sx.sin(x), 3))
        assert d(fresh, "x") == diff(fresh, "x")


def test_the_node_table_stays_within_twice_the_live_nodes():
    """Dead entries are swept: over 200 random pullbacks, made and dropped as
    the benchmark's derive_pullback makes them, the table never holds more
    than twice its live nodes plus the size below which it is not swept."""
    charts = _charts()[1:]
    metrics = [metric_from_chart(c) for c in charts]
    x, y, z = Var("x"), Var("y"), Var("z")
    basis = [x, y, z, x * y, y * z, x * z, x * x * y, sx.sin(x) * z]
    rng = np.random.default_rng(11)
    for k in range(200):
        chart, m = charts[k % 3], metrics[k % 3]
        coeffs = [Fraction(int(n), int(d)) for n, d in rng.integers(1, 50, size=(len(basis), 2))]
        cart = sx.add(*(sx.mul(c, b) for c, b in zip(coeffs, basis)))
        f = sx.substitute(cart, dict(zip("xyz", chart.embedding)))
        out = diffops.laplacian(f, m) if k % 2 else diffops.grad(f, chart).components[0]
        eval_expr(out, dict(zip(chart.coords, (0.7, 0.9, 1.1))))
        live = sum(r() is not None for r in sx._NODES.values())
        assert len(sx._NODES) <= 2 * live + sx._SWEEP_MIN


# ---------------------------------------------------------------------------
# lambdify runs the same tape over arrays: the closure compiler it replaced
# ---------------------------------------------------------------------------

def _closure(e, atoms):
    """The closure compiler ``lambdify`` used before it ran the tape."""
    t = type(e)
    if t is Const:
        try:
            v = float(e.value)
        except OverflowError:
            v = math.inf if e.value > 0 else -math.inf
        return lambda b: v
    if t is Var or t is FieldAtom:
        if t is FieldAtom and atoms.setdefault(e.name, e).args != e.args:
            raise sx.EvalError(f"field atom {e.name!r} also appears with other arguments", e)
        name = e.name
        if name == "pi":
            return lambda b: b.get("pi", math.pi)
        return lambda b: b[name]
    if t is Add:
        fs = [_closure(x, atoms) for x in e.terms]
        return lambda b: sum(f(b) for f in fs)
    if t is Mul:
        fs = [_closure(x, atoms) for x in e.factors]

        def _mul(b):
            out = fs[0](b)
            for f in fs[1:]:
                out = out * f(b)
            return out
        return _mul
    if t is Pow:
        fb = _closure(e.base, atoms)
        n = e.exponent
        if n < 0:
            def _ipow(b):
                with np.errstate(divide="ignore", invalid="ignore"):
                    return np.float_power(fb(b), n)
            return _ipow
        return lambda b: fb(b) ** n
    if t is Func:
        f = _closure(e.arg, atoms)
        g = getattr(np, sx._FUNCS[e.fname].ufunc)

        def _func(b):
            with np.errstate(invalid="ignore", divide="ignore"):
                return g(f(b))
        return _func
    raise TypeError(f"unknown node {t!r}")


def _outcome(call):
    """('value', the bytes of the float result) or ('error', its type)."""
    try:
        return "value", np.asarray(call(), dtype=float).tobytes()
    except Exception as err:  # noqa: BLE001 - every error kind is compared
        return "error", type(err)


# the tape leaves, plus two atoms named u with different arguments and a variable u
ARRAY_LEAVES = LEAVES + (FieldAtom("u", ("x",)), FieldAtom("u", ("y",)), Var("u"))
ARRAY_VALUES = st.one_of(
    # inside every function's domain, outside some, and the special values
    st.sampled_from([0.0, -0.0, 0.25, 0.5, -0.75, 1.0, 1.5, -2.5, 4.0, 1e-300, 1e200,
                     -1e308, math.inf, -math.inf, math.nan]),
    st.floats(min_value=-3.0, max_value=3.0),
)
ARRAY_BINDINGS = st.dictionaries(
    st.sampled_from(NAMES + ("u",)),
    st.one_of(st.lists(ARRAY_VALUES, min_size=3, max_size=3).map(np.array), ARRAY_VALUES),
    min_size=2)


@settings(max_examples=300, deadline=None)
@given(shared_trees(ARRAY_LEAVES), st.lists(ARRAY_BINDINGS, min_size=1, max_size=3))
def test_lambdify_gives_the_closures_bytes_and_errors(e, bindings):
    try:
        want = _closure(e, {})
    except sx.EvalError as err:
        with pytest.raises(sx.EvalError) as got:
            sx.lambdify(e)
        assert type(got.value) is type(err)
        assert str(got.value) == str(err) and got.value.subexpr is err.subexpr
        return
    f = sx.lambdify(e)
    with np.errstate(all="ignore"):
        for binding in bindings:
            bound = {k: v.tobytes() for k, v in binding.items() if isinstance(v, np.ndarray)}
            # pi bound, then unbound (math.pi)
            for b in (binding, {k: v for k, v in binding.items() if k != "pi"}):
                assert _outcome(lambda: f(b)) == _outcome(lambda: want(b))
                # a bound array is read, never updated in place
                assert {k: binding[k].tobytes() for k in bound} == bound


@pytest.mark.parametrize("build, values", [
    (lambda x, y: sx.mul(x, y), (math.inf, 0.0)),
    (lambda x, y: sx.add(x, y), (math.inf, -math.inf)),
    (lambda x, y: sx.mul(sx.exp(x), y), (math.inf, 0.0)),  # folded in place
], ids=["inf*0", "inf-inf", "exp(inf)*0"])
def test_lambdify_gives_nan_from_infinities_without_a_warning(build, values):
    # the suite turns every RuntimeWarning into an error
    f = sx.lambdify(build(Var("x"), Var("y")))
    out = f({"x": np.array([values[0], 1.0]), "y": np.array([values[1], 2.0])})
    assert math.isnan(out[0]) and math.isfinite(out[1])


def test_lambdify_still_warns_of_overflow():
    f = sx.lambdify(sx.mul(Var("x"), Var("y")))
    with pytest.warns(RuntimeWarning, match="overflow"):
        f({"x": np.array([1e200]), "y": np.array([1e200])})


def test_an_overflowing_constant_is_inf_over_arrays_and_an_error_pointwise():
    for order in ("eval first", "lambdify first"):
        big, x = Const(-(10 ** 400)), Var("x")
        e = sx.add(sx.mul(big, x), big)
        if order == "lambdify first":
            assert sx.lambdify(e)({"x": np.array([1.0, 2.0])}).tolist() == [-math.inf] * 2
        with pytest.raises(sx.EvalDomainError, match="constant beyond the float range") as exc:
            eval_expr(e, {"x": 1.0})
        assert exc.value.subexpr is big
        assert type(exc.value.__cause__) is OverflowError
        assert sx.lambdify(e)({"x": np.array([1.0, 2.0])}).tolist() == [-math.inf] * 2
        assert sx.lambdify(big)({}) == -math.inf
        with pytest.raises(sx.EvalDomainError, match="constant beyond the float range"):
            eval_expr(big, {})


def test_eval_expr_and_lambdify_of_one_root_compile_it_once(monkeypatch):
    compiled = []
    real = sx._compile

    def counting(root):
        compiled.append(root)
        return real(root)
    monkeypatch.setattr(sx, "_compile", counting)
    point = {"r": 1.0, "theta": 0.5, "phi": 0.25}
    for first, then in ((sx.lambdify, eval_expr), (eval_expr, sx.lambdify)):
        e = _spherical_div()
        first(e) if first is sx.lambdify else first(e, point)
        assert [r for r in compiled if r is e] == [e]
        f = sx.lambdify(e)
        value = eval_expr(e, point)
        assert f(point) == pytest.approx(value, rel=1e-12)
        assert [r for r in compiled if r is e] == [e]


def _peak_above_inputs(f, binding):
    """Bytes that ``f(binding)`` allocates at its peak, beyond what was
    allocated before the call (the inputs)."""
    f(binding)  # compiled, and any lazy numpy set-up done
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = f(binding)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del out
    return peak - base


def test_lambdify_holds_no_more_arrays_than_the_closure():
    # the tape shares sin(theta) where the closure computes it twice, so it
    # matches the closure's peak only by folding each child in as it is made
    # and freeing every array after its last read
    e = _spherical_div()
    rng = np.random.default_rng(7)
    binding = {c: rng.uniform(0.5, 1.5, (64, 64, 64)) for c in ("r", "theta", "phi")}
    array = binding["r"].nbytes  # 2 MB
    closure = _peak_above_inputs(_closure(e, {}), binding)
    tape = _peak_above_inputs(sx.lambdify(e), binding)
    assert closure <= 4 * array + array // 16
    assert tape <= closure + array // 16
    assert np.array_equal(sx.lambdify(e)(binding), _closure(e, {})(binding))


def test_dropping_a_lambdified_tree_leaves_nothing_for_the_collector():
    x = Var("x")
    gc.collect()
    gc.disable()
    try:
        for build in (_spherical_div, lambda: sx.add(sx.sin(x), sx.pow_(sx.sin(x), 2))):
            e = build()
            f = sx.lambdify(e)
            f({"x": np.array([0.5, 1.0]), "r": 1.0, "theta": 0.4, "phi": 1.0})
            assert gc.collect() == 0
            del e, f
            assert gc.collect() == 0
    finally:
        gc.enable()
