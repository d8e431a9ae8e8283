from fractions import Fraction

import pytest

from polarcalc.chains import (
    ChainError,
    PolarChain,
    boundary,
    boundary_witness_p1,
    check_d_squared,
    is_cycle,
    make_triple,
    normalize_chain,
    point_term,
    support,
    term_weight,
)
from polarcalc.geometry import (
    INF,
    DivisorComponent,
    VarietyPoint,
    plane_curve,
    point_component,
    product_of_lines,
    proj_line,
    proj_plane,
)
from polarcalc.maps import VarietyMap
from polarcalc.parsing import parse_form, parse_polynomial, parse_rational
from polarcalc.polynomials import Polynomial, RationalFunction


def p1_comp(line, value):
    if value == INF:
        return point_component(line, VarietyPoint.product_point([INF]))
    return point_component(line, VarietyPoint.product_point([value]))


def dlog_chain(line, *values):
    """(P1, id, dlog((z-v1)...) style chain with declared poles."""
    coords = line.main_chart.coords
    text = " + ".join("dlog(z - %s)" % v if v else "dlog(z)" for v in values)
    form = parse_form(text, coords, line.main_chart.id)
    decl = [p1_comp(line, Fraction(v)) for v in values] + [p1_comp(line, INF)]
    t = make_triple(line, VarietyMap.identity(line), form, decl)
    return PolarChain(line, [t])


def test_make_triple_rejects_undeclared_pole():
    line = proj_line("z")
    form = parse_form("dlog(z)", ("z",), line.main_chart.id)
    with pytest.raises(ChainError):
        # dz/z also has a pole at infinity
        make_triple(line, VarietyMap.identity(line), form,
                    [p1_comp(line, 0)])


def test_make_triple_rejects_higher_order_pole():
    line = proj_line("z")
    form = parse_form("d(z)/z^2", ("z",), line.main_chart.id)
    with pytest.raises(ChainError):
        make_triple(line, VarietyMap.identity(line), form,
                    [p1_comp(line, 0), p1_comp(line, INF)])


def test_boundary_of_dlog_pair():
    line = proj_line("z")
    coords = line.main_chart.coords
    form = parse_form("dlog(z/(z-1))", coords, line.main_chart.id)
    t = make_triple(line, VarietyMap.identity(line), form,
                    [p1_comp(line, 0), p1_comp(line, 1)])
    b = boundary(PolarChain(line, [t])).chain
    expected = normalize_chain(PolarChain(line, [
        point_term(line, VarietyPoint.product_point([0]), Polynomial.scalar(1, 1)),
        point_term(line, VarietyPoint.product_point([1]), Polynomial.scalar(-1, 1)),
    ]))
    assert b.key() == expected.key()


def test_boundary_renders_provenance_only_when_read(monkeypatch):
    from polarcalc import chains

    line = proj_line("z")
    form = parse_form("dlog(z/(z-1))", line.main_chart.coords, line.main_chart.id)
    t = make_triple(line, VarietyMap.identity(line), form,
                    [p1_comp(line, 0), p1_comp(line, 1)])
    renders = []
    render = chains.Triple.render
    monkeypatch.setattr(chains.Triple, "render", lambda self: renders.append(1) or render(self))
    b = boundary(PolarChain(line, [t]))
    assert renders == []
    assert [(r["component"], r["residue"], r["scalar"]) for r in b.provenance] == [
        ("{z}", "1", "TAU"), ("{z - 1}", "-1", "TAU"),
    ]
    assert b.provenance[0]["parent"] == t.render()
    assert len(renders) == 3  # two records, built once, and the line above


@pytest.mark.parametrize("text, values, message", [
    ("d(z)", [INF], "pole of order 2 along z_ on chart z_"),
    ("d(z)/(z*(z-1)^2)", [0, 1, INF], "pole of order 2 along z - 1 on chart z"),
])
def test_pole_order_of_each_component_on_its_first_chart(text, values, message):
    line = proj_line("z")
    form = parse_form(text, ("z",), line.main_chart.id)
    with pytest.raises(ChainError) as err:
        make_triple(line, VarietyMap.identity(line), form,
                    [p1_comp(line, v) for v in values])
    assert str(err.value) == message + " (only simple poles allowed)"


def test_undeclared_pole_at_infinity_is_found_on_the_new_divisor():
    square = product_of_lines(["a", "b"])
    coords = square.main_chart.coords
    form = parse_form("d(a) wedge d(b) / (a - 1)", coords, square.main_chart.id)
    comp = DivisorComponent.from_chart_poly(
        square, square.main_chart.id, parse_polynomial("a - 1", coords))
    with pytest.raises(ChainError) as err:
        make_triple(square, VarietyMap.identity(square), form, [comp])
    assert str(err.value) == "undeclared pole components b_^2 on chart a|b_"


def test_p2_flagship_d_squared():
    plane = proj_plane("x", "y")
    coords = plane.main_chart.coords
    form = parse_form("d(x) wedge d(y) / (x*y)", coords, "A0")
    decl = [
        DivisorComponent.from_chart_poly(plane, "A0", parse_polynomial("x", coords)),
        DivisorComponent.from_chart_poly(plane, "A0", parse_polynomial("y", coords)),
        DivisorComponent.from_chart_poly(
            plane, "A1",
            parse_polynomial("x1", plane.chart("A1").coords),
            "{line at infinity}",
        ),
    ]
    t = make_triple(plane, VarietyMap.identity(plane), form, decl)
    rep = check_d_squared(PolarChain(plane, [t]))
    assert rep["zero"]
    assert len(rep["boundary"].terms) == 3
    # three corner points, each cancelling in pairs
    assert len(rep["cancellations"]) == 3
    for entry in rep["cancellations"]:
        assert entry["total"] == "0"
        assert len(entry["weights"]) == 2


def test_product_d_squared():
    prod = product_of_lines(["z1", "z2"])
    coords = prod.main_chart.coords
    form = parse_form("dlog(z1) wedge dlog(z2)", coords, prod.main_chart.id)
    decl = []
    for var in ("z1", "z2"):
        decl.append(DivisorComponent.from_chart_poly(
            prod, prod.main_chart.id, parse_polynomial(var, coords)))
    for ch in prod.charts:
        for inv in ("z1_", "z2_"):
            if inv in ch.coords and not any(
                c.visible_on(ch.id) and c.poly_on(ch.id)
                == parse_polynomial(inv, ch.coords) for c in decl
            ):
                decl.append(DivisorComponent.from_chart_poly(
                    prod, ch.id, parse_polynomial(inv, ch.coords),
                    "{%s = inf}" % inv[:-1]))
                break
    t = make_triple(prod, VarietyMap.identity(prod), form, decl)
    rep = check_d_squared(PolarChain(prod, [t]))
    assert rep["zero"]
    assert len(rep["boundary"].terms) == 4


def test_r2_squaring_pair_cancels():
    line = proj_line("z")
    coords = line.main_chart.coords
    form = parse_form("dlog(z)", coords, line.main_chart.id)
    decl = [p1_comp(line, 0), p1_comp(line, INF)]
    sq = VarietyMap(line, line, line.main_chart.id, {
        "z": RationalFunction.variable(coords, "z") ** 2
    })
    t_sq = make_triple(line, sq, form, decl)
    t_id = make_triple(line, VarietyMap.identity(line), form, decl)
    pair = PolarChain(line, [(Polynomial.scalar(1), t_sq), (Polynomial.scalar(-1), t_id)])
    assert normalize_chain(pair).is_zero()


def line_on_z1_axis(var, z2, form, poles):
    """(P1(var), z1 = 0, z2 = z2, form) on P1(z1) x P1(z2)."""
    line = proj_line(var)
    square = product_of_lines(["z1", "z2"])
    m = VarietyMap(line, square, square.main_chart.id, {
        "z1": parse_rational("0", (var,)), "z2": parse_rational(z2, (var,)),
    })
    form = parse_form(form, (var,), line.main_chart.id)
    return make_triple(line, m, form, [p1_comp(line, v) for v in poles])


def test_r2_on_a_component_cancels_a_renamed_copy():
    s = line_on_z1_axis("s", "s", "d(s)/(s - 1)", [1, INF])
    t = line_on_z1_axis("t", "t", "d(t)/(t - 1)", [1, INF])
    c = PolarChain(s.map.target, [s]) - PolarChain(t.map.target, [t])
    n = normalize_chain(c)
    assert n.is_zero() and n.warnings == ()


def test_r2_on_a_component_merges_by_trace():
    """Both images are {z1}; the squarefree part of z1^2 is an exact
    quotient, which must group with z1 itself."""
    s = line_on_z1_axis("s", "s", "d(s)/(s - 1)", [1, INF])
    t = line_on_z1_axis("t", "t^2", "d(t)/t", [0, INF])
    pair = PolarChain(s.map.target, [s, t])
    n = normalize_chain(pair)
    assert n.warnings == ()
    assert n.render() == "(P1(z2), z1 = 0, z2 = z2, (2*z2 - 1)/(z2^2 - z2) dz2)"
    expected = (
        "(Point, z1 = 0, z2 = 0, TAU) + (Point, z1 = 0, z2 = 1, TAU)"
        " + (Point, z1 = 0, z2_ = 0, -2*TAU)"
    )
    assert boundary(pair).chain.render() == expected
    assert boundary(n).chain.render() == expected


def test_r3_prunes_constant_maps():
    line = proj_line("z")
    form = parse_form("dlog(z)", ("z",), line.main_chart.id)
    decl = [p1_comp(line, 0), p1_comp(line, INF)]
    const = VarietyMap.constant(line, line, VarietyPoint.product_point([5]))
    t = make_triple(line, const, form, decl)
    assert normalize_chain(PolarChain(line, [t])).is_zero()


def dlog_square_into_plane(x, y):
    """dlog(s) wedge dlog(t) on P1(s) x P1(t), mapped to P2 by (x, y)."""
    src = product_of_lines(["s", "t"])
    plane = proj_plane("x", "y")
    coords = src.main_chart.coords
    form = parse_form("dlog(s) wedge dlog(t)", coords, src.main_chart.id)
    decl = [
        DivisorComponent.from_chart_poly(
            src, chart, parse_polynomial(v, src.chart(chart).coords))
        for chart, v in (("s|t", "s"), ("s|t", "t"), ("s_|t_", "s_"), ("s_|t_", "t_"))
    ]
    m = VarietyMap(src, plane, "A0", {
        "x": parse_rational(x, coords), "y": parse_rational(y, coords),
    })
    return PolarChain(plane, [make_triple(src, m, form, decl)])


@pytest.mark.parametrize("x, y, kept", [
    ("s + t", "(s + t)^2", False),
    ("s + t", "s*t", True),
    ("TAU*s + t", "s*t/TAU - 1", True),
    ("s + TAU*t", "1/(s + TAU*t)", False),
])
def test_r3_drops_by_exact_rank(x, y, kept):
    c = dlog_square_into_plane(x, y)
    n = normalize_chain(c)
    assert n == (c if kept else PolarChain(c.ambient))
    assert n.warnings == ()


def test_r1_scalar_folding_merges_terms():
    line = proj_line("z")
    c = dlog_chain(line, 0)
    doubled = c + c
    n = normalize_chain(doubled)
    assert len(n.terms) == 1
    lam, t = n.terms[0]
    assert lam == Polynomial.scalar(1)


def test_support_reports_images():
    line = proj_line("z")
    c = dlog_chain(line, 0)
    items = support(c)
    assert items == ["P1(z)"]


def test_witness_refuses_nonzero_total():
    with pytest.raises(ChainError):
        boundary_witness_p1([(Fraction(0), Polynomial.scalar(1)),
                             (Fraction(1), Polynomial.scalar(2))])


def test_witness_round_trip():
    line = proj_line("z")
    cycle = [
        (Fraction(0), Polynomial.scalar(2)),
        (Fraction(1), Polynomial.scalar(-3)),
        (Fraction(-2), Polynomial.scalar(1)),
    ]
    w = boundary_witness_p1(cycle, line)
    b = boundary(w).chain
    expected = normalize_chain(PolarChain(line, [
        point_term(line, VarietyPoint.product_point([v]), s)
        for v, s in cycle
    ]))
    assert b.key() == expected.key()


def test_curve_source_requires_holomorphic_form():
    curve = plane_curve(parse_polynomial("y^2 - x^3 - 2*x - 3", ("x", "y")))
    plane = proj_plane("x", "y")
    coords = curve.main_chart.coords
    embed = VarietyMap(curve, plane, "A0", {
        "x": RationalFunction.variable(coords, "x"),
        "y": RationalFunction.variable(coords, "y"),
    })
    # -dx/(2y) is holomorphic on the curve (adjunction): accepted
    good = parse_form("-d(x) / (2*y)", coords, curve.main_chart.id)
    t = make_triple(curve, embed, good, [])
    assert t.degree == 1
    # dx/x has genuine poles on the curve: rejected
    bad = parse_form("d(x)/x", coords, curve.main_chart.id)
    with pytest.raises(ChainError):
        make_triple(curve, embed, bad, [])


def test_boundary_skips_curve_triples():
    curve = plane_curve(parse_polynomial("y^2 - x^3 - 2*x - 3", ("x", "y")))
    plane = proj_plane("x", "y")
    coords = curve.main_chart.coords
    embed = VarietyMap(curve, plane, "A0", {
        "x": RationalFunction.variable(coords, "x"),
        "y": RationalFunction.variable(coords, "y"),
    })
    form = parse_form("-d(x) / (2*y)", coords, curve.main_chart.id)
    t = make_triple(curve, embed, form, [])
    c = PolarChain(plane, [t])
    flag, residual = is_cycle(c)
    assert flag and residual.is_zero()
