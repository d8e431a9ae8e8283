from fractions import Fraction

import pytest

from polarcalc.geometry import (
    INF,
    VarietyPoint,
    product_of_lines,
    proj_line,
    proj_plane,
)
from polarcalc.maps import MapError, VarietyMap
from polarcalc.parsing import parse_rational
from polarcalc.polynomials import Polynomial, RationalFunction


def rf_var(coords, name):
    return RationalFunction.variable(coords, name)


def test_identity_and_equality():
    line = proj_line("z")
    m = VarietyMap.identity(line)
    assert m == VarietyMap.identity(line)
    assert m.compose(m) == m


def test_constant_map_is_constant():
    line = proj_line("z")
    pt = VarietyPoint.product_point([Fraction(3, 2)])
    m = VarietyMap.constant(line, line, pt)
    assert m.is_constant()
    assert m.jacobian_max_rank() == 0


def test_image_point_of_point_source():
    from polarcalc.geometry import point_variety

    line = proj_line("z")
    pt = VarietyPoint.product_point([Fraction(3, 2)])
    m = VarietyMap.constant(point_variety(), line, pt)
    assert m.image_point() == pt


def test_squaring_map_composition():
    line = proj_line("z")
    coords = line.main_chart.coords
    sq = VarietyMap(line, line, line.main_chart.id, {
        "z": rf_var(coords, "z") ** 2
    })
    quad = sq.compose(sq)
    assert quad.formulas_on(line.main_chart.id)["z"] == rf_var(coords, "z") ** 4


def test_retarget_through_charts():
    line = proj_line("z")
    coords = line.main_chart.coords
    sq = VarietyMap(line, line, line.main_chart.id, {
        "z": rf_var(coords, "z") ** 2
    })
    other = [ch.id for ch in line.charts if ch.id != line.main_chart.id][0]
    fs = sq.formulas_on(other)
    assert fs["z_"] == RationalFunction.constant(coords, 1) / (
        rf_var(coords, "z") ** 2
    )


def test_section_into_product():
    line = proj_line("t")
    prod = product_of_lines(["t", "z"])
    coords = line.main_chart.coords
    m = VarietyMap(line, prod, prod.main_chart.id, {
        "t": rf_var(coords, "t"),
        "z": rf_var(coords, "t") * RationalFunction.constant(coords, 2),
    })
    assert not m.is_constant()
    assert m.jacobian_max_rank() == 1


def test_jacobian_rank_of_constant_is_zero():
    line = proj_line("z")
    m = VarietyMap.constant(line, line, VarietyPoint.product_point([1]))
    assert m.jacobian_max_rank() == 0


def test_dimension_mismatch_rejected():
    line = proj_line("z")
    plane = proj_plane("x", "y")
    coords = line.main_chart.coords
    with pytest.raises(MapError):
        VarietyMap(line, plane, plane.main_chart.id, {
            "x": rf_var(coords, "z"),
        })


def test_constant_map_at_infinity():
    from polarcalc.geometry import point_variety

    line = proj_line("z")
    pt = VarietyPoint.product_point([INF])
    m = VarietyMap.constant(point_variety(), line, pt)
    assert m.image_point() == pt


def test_compose_through_a_non_main_chart():
    # inner lands on a chart other than the source's main chart, so compose
    # first changes outer's formulas to that chart
    line = proj_line("z")
    coords = line.main_chart.coords
    z, one = rf_var(coords, "z"), RationalFunction.constant(coords, 1)
    inner = VarietyMap(line, line, "z_", {"z_": z - one})  # z -> 1/(z - 1)
    outer = VarietyMap(line, line, "z", {"z": z ** 2 + one})
    composite = outer.compose(inner).formulas_on("z")["z"]
    assert composite == one / (z - one) ** 2 + one

    plane = proj_plane("x", "y")
    coords = plane.main_chart.coords
    x, y = rf_var(coords, "x"), rf_var(coords, "y")
    one = RationalFunction.constant(coords, 1)
    # on A1, x = 1/x1 and y = y1/x1: (x, y) -> (1/(x - 1), y/(x - 1))
    inner = VarietyMap(plane, plane, "A1", {"x1": x - one, "y1": y})
    outer = VarietyMap(plane, plane, "A0", {"x": x + y, "y": x * y})
    composite = outer.compose(inner).formulas_on("A0")
    assert composite["x"] == (one + y) / (x - one)
    assert composite["y"] == y / (x - one) ** 2


@pytest.mark.parametrize("x, y, rank", [
    ("s + t", "(s + t)^2", 1),
    ("s + t", "s*t", 2),
    ("TAU*s + t", "s*t/TAU - 1", 2),
    ("s + TAU*t", "1/(s + TAU*t)", 1),
    ("(1 + TAU)*s", "TAU*t^2/(s - TAU*t)", 2),
])
def test_jacobian_rank_is_exact(x, y, rank):
    src = product_of_lines(["s", "t"])
    coords = src.main_chart.coords
    m = VarietyMap(src, proj_plane("x", "y"), "A0", {
        "x": parse_rational(x, coords), "y": parse_rational(y, coords),
    })
    assert m.jacobian_max_rank() == rank
