from fractions import Fraction

import pytest

from polarcalc import chains
from polarcalc.chains import PolarChain, boundary, make_triple, point_term
from polarcalc.geometry import (
    INF,
    VarietyPoint,
    point_component,
    product_of_lines,
    proj_line,
)
from polarcalc.homotopy import (
    HomotopyError,
    cylinder_homotopy,
    section_pushforwards,
    verify_homotopy_identity,
)
from polarcalc.maps import VarietyMap
from polarcalc.parsing import parse_form
from polarcalc.polynomials import Polynomial, RationalFunction


def weighted_point(line, value, weight):
    return PolarChain(line, [point_term(
        line, VarietyPoint.product_point([value]), Polynomial.scalar(weight)
    )])


def section_chain(amb, src, g_rf, form, decl):
    coords = src.main_chart.coords
    m = VarietyMap(src, amb, amb.main_chart.id, {
        "t": RationalFunction.variable(coords, "t"),
        "z": g_rf,
    })
    return PolarChain(amb, [make_triple(src, m, form, decl)])


def probe_nc_checks(monkeypatch):
    """(first component's label, verdict) of every normal-crossing check
    that make_triple makes from here on, in order."""
    seen = []
    validate = chains.validate_normal_crossing

    def spy(decl, variety):
        report = validate(decl, variety)
        seen.append((decl[0].label, report.ok))
        return report

    monkeypatch.setattr(chains, "validate_normal_crossing", spy)
    return seen


def test_identity_for_weighted_point():
    line = proj_line("z")
    a = weighted_point(line, 2, 5)
    rep = verify_homotopy_identity(a, 0)
    assert rep["zero"]
    assert rep["residual"].is_zero()


def test_point_at_basepoint_maps_to_zero():
    line = proj_line("z")
    a = weighted_point(line, 0, 3)
    cyl = cylinder_homotopy(a, 0)
    assert cyl.chain.is_zero()
    rep = verify_homotopy_identity(a, 0)
    assert rep["zero"]


def test_point_on_infinity_section():
    line = proj_line("z")
    a = PolarChain(line, [point_term(
        line, VarietyPoint.product_point([INF]), Polynomial.scalar(2)
    )])
    rep = verify_homotopy_identity(a, 0)
    assert rep["zero"]


def test_identity_for_diagonal_section_with_repair(monkeypatch):
    amb = product_of_lines(["t", "z"])
    src = proj_line("t")
    coords = src.main_chart.coords
    form = parse_form("dlog(t/(t-1))", coords, src.main_chart.id)
    decl = [
        point_component(src, VarietyPoint.product_point([0])),
        point_component(src, VarietyPoint.product_point([1])),
    ]
    a = section_chain(amb, src, RationalFunction.variable(coords, "t"),
                      form, decl)
    checks = probe_nc_checks(monkeypatch)
    cyl = cylinder_homotopy(a, 0)
    assert cyl.records == [{
        "term": "(P1(t), t = t, z = t, -1/(t^2 - t) dt)",
        "basepoint": "-1",
        "repaired": True,
    }]
    # probes 0 and 1: the graph z = t meets the section above a pole of
    # alpha, so make_triple rejects the whole set; probe -1 passes, and so
    # does the repair tail's set, which starts with the base section {z}
    assert checks == [("{z}", False), ("{z - 1}", False), ("{z + 1}", True), ("{z}", True)]
    rep = verify_homotopy_identity(a, 0)
    assert rep["zero"]


def test_identity_without_repair(monkeypatch):
    amb = product_of_lines(["t", "z"])
    src = proj_line("t")
    coords = src.main_chart.coords
    form = parse_form("dlog((t-2)/(t-3))", coords, src.main_chart.id)
    decl = [
        point_component(src, VarietyPoint.product_point([2])),
        point_component(src, VarietyPoint.product_point([3])),
    ]
    a = section_chain(amb, src, RationalFunction.variable(coords, "t"),
                      form, decl)
    checks = probe_nc_checks(monkeypatch)
    cyl = cylinder_homotopy(a, 0)
    assert cyl.records == [{
        "term": "(P1(t), t = t, z = t, -1/(t^2 - 5*t + 6) dt)",
        "basepoint": "0",
        "repaired": False,
    }]
    assert checks == [("{z}", True)]  # one check: the set of probe 0
    rep = verify_homotopy_identity(a, 0)
    assert rep["zero"]


def test_section_at_the_basepoint_lifts_to_zero():
    amb = product_of_lines(["t", "z"])
    src = proj_line("t")
    coords = src.main_chart.coords
    form = parse_form("dlog(t)", coords, src.main_chart.id)
    decl = [
        point_component(src, VarietyPoint.product_point([0])),
        point_component(src, VarietyPoint.product_point([INF])),
    ]
    a = section_chain(amb, src, RationalFunction.constant(coords, 0), form, decl)
    cyl = cylinder_homotopy(a, 0)
    assert cyl.records == [{
        "term": "(P1(t), t = t, z = 0, 1/t dt)", "basepoint": "0", "zero": True,
    }]
    assert cyl.chain.is_zero()
    assert verify_homotopy_identity(a, 0)["zero"]


def test_section_pushforward_moves_points():
    line = proj_line("z")
    a = weighted_point(line, 7, 2)
    pushed = section_pushforwards(a, 4)
    lam, t = pushed.terms[0]
    assert t.map.image_point() == VarietyPoint.product_point([4])


def test_nonzero_basepoint():
    line = proj_line("z")
    a = weighted_point(line, Fraction(1, 2), Fraction(-3, 4))
    rep = verify_homotopy_identity(a, 2)
    assert rep["zero"]
    assert rep["basepoint"] == "2"


def test_homotopy_requires_line_factor():
    from polarcalc.geometry import proj_plane

    plane = proj_plane("x", "y")
    a = PolarChain(plane, [point_term(
        plane, VarietyPoint.plane_point([1, 0, 0]), Polynomial.scalar(1)
    )])
    with pytest.raises(HomotopyError):
        cylinder_homotopy(a, 0)
