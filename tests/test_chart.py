"""Charts, metrics, and component-basis conversions."""

import re

import pytest

from curvmax import symexpr as sx
from curvmax.chart import (Chart, ChartError, ComponentVector, builtin_chart,
                           builtin_metric, convert_basis, jacobian, lame_coefficients,
                           metric_from_chart, parse_chart_file)
from curvmax.symexpr import equivalent, parse_expr, simplify


def _lit(text):
    return simplify(parse_expr(text))


def test_cylindrical_metric_literals():
    m = metric_from_chart(builtin_chart("cylindrical"))
    expected = ("1", "r^2", "1")
    for i in range(3):
        assert m.g_lo[i][i] == _lit(expected[i])
        for j in range(3):
            if i != j:
                assert m.g_lo[i][j] == sx.ZERO
    assert m.sqrt_abs_g == _lit("r")
    assert tuple(lame_coefficients(m)) == (_lit("1"), _lit("r"), _lit("1"))


def test_spherical_metric_literals():
    m = metric_from_chart(builtin_chart("spherical"))
    expected = ("1", "r^2", "r^2*sin(theta)^2")
    for i in range(3):
        assert m.g_lo[i][i] == _lit(expected[i])
    assert m.sqrt_abs_g == _lit("r^2*sin(theta)")
    assert tuple(lame_coefficients(m)) == (_lit("1"), _lit("r"), _lit("r*sin(theta)"))


def test_inverse_metric_contracts_to_identity():
    for name in ("cylindrical", "spherical"):
        m = metric_from_chart(builtin_chart(name))
        dom = m.domains()
        for i in range(3):
            for j in range(3):
                entry = sx.add(*(m.g_lo[i][k] * m.g_hi[k][j] for k in range(3)))
                target = sx.ONE if i == j else sx.ZERO
                assert equivalent(entry, target, dom, seed=3)


def test_jacobian_shape_and_cartesian_identity():
    j = jacobian(builtin_chart("cartesian"))
    for a in range(3):
        for i in range(3):
            assert j.matrix[a][i] == (sx.ONE if a == i else sx.ZERO)


def test_basis_conversion_scales_by_lame():
    m = metric_from_chart(builtin_chart("cylindrical"))
    v = ComponentVector((sx.ONE, sx.ONE, sx.ONE), "contravariant", "holonomic")
    nh = convert_basis(v, m, "nonholonomic")
    # physical azimuthal component picks up the r factor
    assert nh[1] == _lit("r")
    assert convert_basis(nh, m, "holonomic")[1] == sx.ONE


def test_chart_file_parsing():
    text = """
    # comment
    [chart]
    name = parabolic
    coords = u, v, z
    embedding = (u^2 - v^2)/2, u*v, z
    domain = u:(0.1,2.0), v:(0.1,2.0), z:(-1.0,1.0)
    """
    (ch,) = parse_chart_file(text)
    assert ch.name == "parabolic"
    assert ch.coords == ("u", "v", "z")
    m = metric_from_chart(ch)
    # parabolic cylinder chart: h_u = h_v = sqrt(u^2 + v^2)
    assert equivalent(m.g_lo[0][0], parse_expr("u^2 + v^2"), ch.domains(), seed=2)


def test_chart_file_errors():
    with pytest.raises(ChartError):
        parse_chart_file("name = missing_section")
    with pytest.raises(ChartError):
        parse_chart_file("[chart]\nname = x\ncoords = a, b, c\n")
    with pytest.raises(ChartError):
        parse_chart_file("[chart]\nname = x\ncoords = a, b, c\n"
                         "embedding = a, b, q\n")


@pytest.mark.parametrize("embedding, domain, label", [
    ("u^2/2, v, z", "u:(-2.0,-0.1)", "sqrt|g| = u"),
    ("u^2/2, v, z", "u:(-1.0,1.0)", "sqrt|g| = u"),
    # sqrt|g| = u^2 is 0 at the middle sample, u = 0, and positive elsewhere
    ("u^3/3, v, z", "u:(-1.0,1.0)", "sqrt|g| = u^2"),
    # sqrt|g| = (u - 3/2)^2 - 1/100 is negative only for |u - 3/2| < 1/10,
    # which holds the middle sample alone
    ("(u - 3/2)^3/3 - u/100, v, z", "u:(1.0,2.0)", "sqrt|g| = -1/100 + (-3/2 + u)^2"),
], ids=["u-negative", "u-through-0", "zero-at-a-sample", "negative-near-a-sample"])
def test_square_root_of_metric_must_be_positive_on_domain(embedding, domain, label):
    """sqrt(u^2) simplifies to u, which is wrong where u <= 0."""
    (ch,) = parse_chart_file("[chart]\nname = halfparab\ncoords = u, v, z\n"
                             f"embedding = {embedding}\ndomain = {domain}\n")
    with pytest.raises(ChartError, match=re.escape(label)):
        metric_from_chart(ch)


def test_lame_coefficient_must_be_positive_on_domain():
    # sqrt|g| = u*v is positive here, but h_u = u is not
    (ch,) = parse_chart_file("[chart]\nname = halfparab2\ncoords = u, v, z\n"
                             "embedding = u^2/2, v^2/2, z\n"
                             "domain = u:(-2.0,-0.1), v:(-2.0,-0.1)\n")
    with pytest.raises(ChartError, match="Lame coefficient h_u = u"):
        metric_from_chart(ch)


def test_unknown_builtin_chart():
    with pytest.raises(ChartError):
        builtin_chart("toroidal")


def test_chart_domain_is_read_only():
    with pytest.raises(TypeError):
        builtin_metric("cylindrical").chart.domain["r"] = (-1.0, 1.0)
    given = {"u": (0.1, 2.0)}
    u, v, w = sx.Var("u"), sx.Var("v"), sx.Var("w")
    chart = Chart("mine", ("u", "v", "w"), (u, v, w), given)
    given["u"] = (-1.0, 1.0)
    with pytest.raises(TypeError):
        chart.domain["u"] = (-1.0, 1.0)
    assert chart.domains()["u"] == (0.1, 2.0)


def test_builtin_metric_is_built_once_and_equals_a_fresh_build():
    m = builtin_metric("spherical")
    assert builtin_metric("spherical") is m
    fresh = metric_from_chart(builtin_chart("spherical"))
    assert (m.g_lo, m.g_hi, m.sqrt_abs_g, m.lame) == (fresh.g_lo, fresh.g_hi,
                                                      fresh.sqrt_abs_g, fresh.lame)
    with pytest.raises(ChartError, match="unknown built-in chart"):
        builtin_metric("toroidal")


def test_a_coordinate_may_not_be_named_pi():
    # every evaluator reads pi as the constant: derive printed d_pi_f
    p, v, z = sx.Var("pi"), sx.Var("v"), sx.Var("z")
    with pytest.raises(ChartError, match="coordinate 'pi'") as err:
        Chart("pichart", ("pi", "v", "z"), ((p * p - v * v) / 2, p * v, z))
    assert err.value.key == "coords"
    text = ("[chart]\nname = pichart\ncoords = pi, v, z\n"
            "embedding = (pi^2 - v^2)/2, pi*v, z\n")
    with pytest.raises(ChartError, match=r"^line 3: coordinate 'pi' "):
        parse_chart_file(text)


def test_chart_dimension_validation():
    with pytest.raises(ChartError):
        Chart("bad", ("a",), (sx.var("a"),))


def test_nested_square_root_chart_has_the_right_lame_coefficient():
    (ch,) = parse_chart_file("[chart]\nname = quartic\ncoords = u, v, z\n"
                             "embedding = sqrt(sqrt(u)), v, z\n")
    h_u = metric_from_chart(ch).lame[0]
    # d(u^(1/4))/du = u^(-3/4)/4
    assert sx.eval_expr(h_u, {"u": 16.0}) == pytest.approx(16.0 ** -0.75 / 4, rel=1e-15)
    assert equivalent(h_u, parse_expr("1/(4*sqrt(u)*sqrt(sqrt(u)))"), ch.domains())


_GOOD = ["[chart]", "name = p", "coords = u, v, z", "embedding = u, v, z",
         "domain = u:(0.1,2.0), v:(0.1,2.0)"]


@pytest.mark.parametrize("line, replaced, message", [
    # a misspelled key was dropped, and the domain fell back to the default
    (5, "domian = u:(0.5,1.5)", "line 5: unknown key 'domian'"),
    (6, "name = q", "line 6: 'name' given twice in one [chart] section (first on line 2)"),
    (6, "domain = z:(-1.0,1.0)", "line 6: 'domain' given twice"),
    (5, "domain = u:(0.1,2.0), u:(0.5,1.5)", "line 5: domain of 'u' given twice"),
    (3, "coords = u, u, z", "line 3: coordinate 'u' given twice"),
    (3, "coords = 1x, v, z", "line 3: coordinate '1x' is not a name"),
    (3, "coords = u, v w, z", "line 3: coordinate 'v w' is not a name"),
    (3, "coords = u, , z", "line 3: coordinate '' is not a name"),
], ids=["unknown-key", "key-twice", "domain-key-twice", "domain-coordinate-twice",
        "coordinate-twice", "digit-first", "space", "empty"])
def test_chart_file_refuses_what_it_used_to_drop(line, replaced, message):
    lines = list(_GOOD)
    if line <= len(lines):
        lines[line - 1] = replaced
    else:
        lines.append(replaced)
    with pytest.raises(ChartError) as exc:
        parse_chart_file("\n".join(lines))
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize("lines, message", [
    (_GOOD[:4] + ["domain = v:(0.1,2.0), u:(0.1)"], "line 5: bad domain spec 'u:(0.1)'"),
    (_GOOD[:4] + ["domain = q:(0.1,1.0)"],
     "line 5: domain given for 'q', which is not a coordinate"),
    (_GOOD[:4] + ["domain = u:(0.1,inf)"],
     "line 5: domain of 'u' must be finite with min < max, got (0.1, inf)"),
    (["[chart]", "name = p", "coords = u, v", "embedding = u, v"],
     "line 3: chart dimension must be 3, got 2"),
    (_GOOD + ["", "# the second chart", "[chart]", "name = q", "embedding = u, v, z"],
     "line 8: chart section missing 'coords'"),
], ids=["bad-domain-entry", "domain-of-non-coordinate", "infinite-bound",
        "two-coordinates", "missing-key"])
def test_chart_file_errors_name_the_line(lines, message):
    with pytest.raises(ChartError) as exc:
        parse_chart_file("\n".join(lines))
    assert str(exc.value) == message


def test_chart_file_names_like_the_parser_reads_them():
    text = "[chart]\nname = p\ncoords = _a, b2, zeta_1\nembedding = _a, b2, zeta_1\n"
    (ch,) = parse_chart_file(text)
    assert ch.coords == ("_a", "b2", "zeta_1")
    assert [sx.print_expr(e) for e in ch.embedding] == list(ch.coords)


def test_an_off_diagonal_entry_that_cancels_after_expansion_is_zero():
    # polar coordinates with r + 1 for r: g_rp = cos(p)*(-sin(p) - r*sin(p))
    # + sin(p)*(cos(p) + r*cos(p)) cancels only once its products distribute
    chart = Chart("shifted_polar", ("r", "p", "z"),
                  (parse_expr("r*cos(p) + cos(p)"), parse_expr("r*sin(p) + sin(p)"),
                   parse_expr("z")), {"r": (0.5, 2.0), "p": (0.1, 3.0), "z": (-1.0, 1.0)})
    m = metric_from_chart(chart)
    assert all(m.g_lo[i][j] is sx.ZERO for i in range(3) for j in range(3) if i != j)
    cylindrical = builtin_metric("cylindrical")
    shifted = {"r": parse_expr("r + 1"), "phi": sx.Var("p")}
    assert m.lame is not None
    for h, ref in zip(lame_coefficients(m), cylindrical.lame):
        assert equivalent(h, sx.substitute(ref, shifted), chart.domains(), seed=5)
    assert equivalent(m.sqrt_abs_g, sx.substitute(cylindrical.sqrt_abs_g, shifted),
                      chart.domains(), seed=5)
