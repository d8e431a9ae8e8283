from fractions import Fraction

import pytest

from polarcalc.geometry import (
    INF,
    DivisorComponent,
    GeometryError,
    VarietyPoint,
    catalog_build,
    plane_curve,
    point_component,
    point_from_chart,
    product_of_lines,
    proj_line,
    proj_plane,
    validate_normal_crossing,
)
from polarcalc.parsing import parse_form, parse_polynomial
from polarcalc.polynomials import Polynomial
from polarcalc.scalars import Scalar


def test_catalog_build_mini_syntax():
    assert catalog_build("P1(z)").kind == "P1"
    prod = catalog_build("P1(z1) x P1(z2)")
    assert prod.kind == "product" and prod.dimension == 2
    assert catalog_build("P2(x,y)").kind == "P2"
    curve = catalog_build("Curve(y^2 - x^3 - x)")
    assert curve.kind == "curve" and curve.dimension == 1
    assert catalog_build("Point").kind == "point"
    with pytest.raises(GeometryError):
        catalog_build("P3(x,y,z)")


def test_p1_transition_involutes():
    line = proj_line("z")
    main = line.main_chart.id
    other = [ch.id for ch in line.charts if ch.id != main][0]
    omega = parse_form("dlog(z)", ("z",), main)
    there = line.transition_form(omega, other)
    back = line.transition_form(there, main)
    assert back == omega
    # dz/z is anti-invariant under z -> 1/z
    assert there == parse_form("-dlog(z_)", ("z_",), other)


def test_point_finite_charts():
    prod = product_of_lines(["z1", "z2"])
    pt = VarietyPoint.product_point([INF, Fraction(2)])
    chart, values = pt.finite_chart(prod)
    assert "z1_" in chart.coords
    assert values["z1_"] == 0 and values["z2"] == 2
    rebuilt = point_from_chart(prod, chart.id, values)
    assert rebuilt == pt


def test_plane_point_normalization():
    p = VarietyPoint.plane_point([2, 4, 6])
    q = VarietyPoint.plane_point([1, 2, 3])
    assert p == q


def test_divisor_component_across_charts():
    plane = proj_plane("x", "y")
    xp = parse_polynomial("x", ("x", "y"))
    comp = DivisorComponent.from_chart_poly(plane, "A0", xp)
    assert comp.visible_on("A0")
    assert comp.contains_point(VarietyPoint.plane_point([1, 0, 3]))
    assert not comp.contains_point(VarietyPoint.plane_point([1, 1, 1]))


def test_normal_crossing_accepts_transverse_lines():
    plane = proj_plane("x", "y")
    coords = ("x", "y")
    comps = [
        DivisorComponent.from_chart_poly(plane, "A0", parse_polynomial(p, coords))
        for p in ("x", "y", "x + y - 1")
    ]
    assert validate_normal_crossing(comps, plane).ok


def test_normal_crossing_rejects_triple_point():
    plane = proj_plane("x", "y")
    coords = ("x", "y")
    comps = [
        DivisorComponent.from_chart_poly(plane, "A0", parse_polynomial(p, coords))
        for p in ("x", "y", "x + y")  # three lines through the origin
    ]
    assert not validate_normal_crossing(comps, plane).ok


def test_normal_crossing_rejects_tangency():
    plane = proj_plane("x", "y")
    coords = ("x", "y")
    comps = [
        DivisorComponent.from_chart_poly(plane, "A0", parse_polynomial(p, coords))
        for p in ("y", "y - x^2")  # parabola tangent to its axis
    ]
    assert not validate_normal_crossing(comps, plane).ok


def cube_components(*polys):
    cube = product_of_lines(["a", "b", "c"])
    main = cube.main_chart
    comps = [
        DivisorComponent.from_chart_poly(cube, main.id, parse_polynomial(p, main.coords))
        for p in polys
    ]
    return comps, cube


@pytest.mark.parametrize("polys", [
    ("a", "b"),
    ("a", "b", "c", "a + b + c - 1"),
    ("a - 1/TAU", "b - 2"),
])
def test_normal_crossing_in_dimension_3_accepts(polys):
    report = validate_normal_crossing(*cube_components(*polys))
    assert report.ok, report.message()


@pytest.mark.parametrize("polys, failure", [
    (("c - a^2 - b^2", "c"), (
        "components do not meet transversally", "a|b|c",
        ["{a^2 + b^2 - c}", "{c}"], "Groebner basis [a, b, c]",
    )),
    (("a", "b", "c", "a + b + c"), (
        "4 components through one point in dimension 3", "a|b|c",
        ["{a}", "{b}", "{c}", "{a + b + c}"], "Groebner basis [a, b, c]",
    )),
])
def test_normal_crossing_in_dimension_3_rejects(polys, failure):
    report = validate_normal_crossing(*cube_components(*polys))
    assert not report.ok
    reason, chart, members, witness = failure
    assert report.failures[0] == {
        "reason": reason, "chart": chart, "members": members, "witness": witness,
    }


def test_singular_curve_rejected():
    with pytest.raises(GeometryError):
        plane_curve(parse_polynomial("y^2 - x^3", ("x", "y")))  # cusp
    with pytest.raises(GeometryError):
        plane_curve(parse_polynomial("y^2 - x^2 - x^3", ("x", "y")))  # node


def test_smooth_curve_accepted():
    curve = plane_curve(parse_polynomial("y^2 - x^3 - x", ("x", "y")))
    assert curve.dimension == 1


def test_point_component_on_line():
    line = proj_line("z")
    comp = point_component(line, VarietyPoint.product_point([Fraction(1, 2)]))
    assert comp.contains_point(VarietyPoint.product_point([Fraction(1, 2)]))
    inf_comp = point_component(line, VarietyPoint.product_point([INF]))
    assert inf_comp.contains_point(VarietyPoint.product_point([INF]))
    assert not inf_comp.visible_on(line.main_chart.id)
