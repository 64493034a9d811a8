"""symexpr against an independent computer-algebra system.

Builder trees with deliberately shared subtrees go to sympy through
``print_expr`` and ``sympy.sympify``; ``diff``, ``substitute`` and
``eval_expr`` are compared with ``sympy.diff``, ``subs`` and sympy's own
numeric value at points inside the domain (x, y, z in (0.1, 2)).
"""

import math
import random
from fractions import Fraction

import pytest

from curvmax import symexpr as sx

sympy = pytest.importorskip("sympy")

NAMES = ("x", "y", "z")
SYMBOLS = {n: sympy.Symbol(n, positive=True) for n in NAMES}
LOCALS = dict(SYMBOLS, arctan=sympy.atan, arccos=sympy.acos)
POINTS = [(0.37, 1.21, 0.83), (1.9, 0.44, 1.37), (0.12, 1.63, 0.58)]
# simultaneous replacement; every value is positive on the domain, so trees
# that are defined there stay defined
MAPPING_TEXT = {"x": "(y + z)/2", "y": "x*z + 1/3", "z": "sqrt(x)"}
MAX_NODES = 60


def _size(e):
    t = type(e)
    if t is sx.Add:
        return 1 + sum(_size(u) for u in e.terms)
    if t is sx.Mul:
        return 1 + sum(_size(u) for u in e.factors)
    if t is sx.Pow:
        return 1 + _size(e.base)
    if t is sx.Func:
        return 1 + _size(e.arg)
    return 1


def _trees(seed=20120196, n=60):
    """``n`` builder trees made from a pool of earlier ones, so subtrees are
    shared both within one tree and across trees.  ``pos`` holds the trees
    that are positive on the domain: only those go under sqrt, log or a
    negative power."""
    rng = random.Random(seed)
    pos = [sx.var(v) for v in NAMES] + [sx.const(Fraction(3, 2)), sx.const(2)]
    any_sign = list(pos)
    made = []

    def unit_interval(p):  # 1/(1 + p) lies in (0, 1) for p > 0
        return sx.div(sx.ONE, sx.add(sx.ONE, p))

    rules = [
        (True, lambda: sx.add(rng.choice(pos), rng.choice(pos))),
        (True, lambda: sx.mul(rng.choice(pos), rng.choice(pos))),
        (True, lambda: sx.pow_(rng.choice(pos), rng.choice([-2, -1, 2, 3]))),
        (True, lambda: sx.sqrt(rng.choice(pos))),
        (True, lambda: sx.exp(sx.sin(rng.choice(any_sign)))),
        (True, lambda: (lambda p: sx.mul(p, sx.add(p, sx.ONE), p))(rng.choice(pos))),
        (True, lambda: (lambda p, q: sx.add(sx.mul(p, q), sx.sqrt(sx.add(p, q))))(
            rng.choice(pos), rng.choice(pos))),
        (False, lambda: sx.sub(rng.choice(any_sign), rng.choice(any_sign))),
        (False, lambda: sx.mul(sx.const(-2), rng.choice(any_sign))),
        (False, lambda: sx.log(rng.choice(pos))),
        (False, lambda: sx.func(rng.choice(["sin", "cos", "arctan"]), rng.choice(any_sign))),
        (False, lambda: sx.tan(unit_interval(rng.choice(pos)))),
        (False, lambda: sx.func("arccos", unit_interval(rng.choice(pos)))),
        (False, lambda: (lambda a, b: sx.sub(sx.mul(a, b), sx.cos(sx.mul(a, b))))(
            rng.choice(any_sign), rng.choice(any_sign))),
    ]
    while len(made) < n:
        positive, rule = rng.choice(rules)
        e = rule()
        if isinstance(e, sx.Const) or _size(e) > MAX_NODES:
            continue
        (pos if positive else any_sign).append(e)
        if positive:
            any_sign.append(e)
        made.append(e)
    return made


TREES = _trees()
_SYMPIFIED = {}


def _theirs(e):
    if id(e) not in _SYMPIFIED:  # the trees live as long as the module
        _SYMPIFIED[id(e)] = sympy.sympify(sx.print_expr(e), locals=LOCALS)
    return _SYMPIFIED[id(e)]


def _values_ours(e):
    return [sx.eval_expr(e, dict(zip(NAMES, p))) for p in POINTS]


def _values_theirs(expr):
    f = sympy.lambdify([SYMBOLS[n] for n in NAMES], expr, "math")
    return [float(f(*p)) for p in POINTS]


def _agree(ours, theirs):
    return all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9) for a, b in zip(ours, theirs))


def test_trees_share_subtrees():
    # the memo in diff and substitute and the canonical mark see shared nodes
    def ids(e, seen):
        seen.append(id(e))
        for c in getattr(e, "terms", ()) + getattr(e, "factors", ()):
            ids(c, seen)
        for attr in ("base", "arg"):
            if isinstance(getattr(e, attr, None), sx.Expr):
                ids(getattr(e, attr), seen)
        return seen
    shared = [e for e in TREES if isinstance(e, (sx.Add, sx.Mul))
              and len(set(ids(e, []))) < len(ids(e, []))]
    assert len(shared) >= len(TREES) // 4


def test_eval_expr_matches_sympy():
    for e in TREES:
        assert _agree(_values_ours(e), _values_theirs(_theirs(e))), sx.print_expr(e)


@pytest.mark.parametrize("v", NAMES)
def test_diff_matches_sympy(v):
    for e in TREES:
        ours = _values_ours(sx.diff(e, v))
        theirs = _values_theirs(sympy.diff(_theirs(e), SYMBOLS[v]))
        assert _agree(ours, theirs), (v, sx.print_expr(e))


def test_substitute_matches_sympy_subs():
    ours_map = {k: sx.parse_expr(t) for k, t in MAPPING_TEXT.items()}
    theirs_map = {SYMBOLS[k]: _theirs(v) for k, v in ours_map.items()}
    for e in TREES:
        ours = _values_ours(sx.substitute(e, ours_map))
        theirs = _values_theirs(_theirs(e).subs(theirs_map, simultaneous=True))
        assert _agree(ours, theirs), sx.print_expr(e)


def _sympy(e):
    # not through _theirs, whose memo is only for the module's own trees
    return sympy.sympify(sx.print_expr(e), locals=LOCALS)


def _zero_for_sympy(d):
    d = sympy.expand(d)
    return d == 0 or sympy.simplify(d) == 0


def test_expand_matches_sympy_expand():
    for e in TREES:
        assert _zero_for_sympy(_sympy(sx.expand(e)) - _sympy(e)), sx.print_expr(e)


def test_is_zero_is_sound():
    """Differences of tree pairs, half of them zero by distribution: each
    that ``is_zero`` proves is zero for sympy and at every sample point,
    and every one zero by construction is proven."""
    rng = random.Random(7)
    proven = 0
    for _ in range(40):
        a, b, c = rng.sample(TREES, 3)
        zero = sx.sub(sx.mul(a, sx.add(b, c)), sx.add(sx.mul(a, b), sx.mul(c, a)))
        other = sx.sub(sx.mul(a, sx.add(b, c)), sx.add(sx.mul(a, b), sx.mul(c, b)))
        assert sx.is_zero(zero), sx.print_expr(zero)
        for d in (zero, other):
            if sx.is_zero(d):
                proven += 1
                assert _zero_for_sympy(_sympy(d)), sx.print_expr(d)
                assert _agree(_values_ours(d), [0.0] * len(POINTS))
    assert proven >= 40
