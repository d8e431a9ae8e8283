import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.rings import PolyElement

from polarcalc.geometry import (
    INF,
    DivisorComponent,
    GeometryError,
    VarietyPoint,
    catalog_build,
    common_zeros_2d,
    infinity_component,
    plane_curve,
    point_component,
    point_from_chart,
    point_variety,
    product_of_lines,
    proj_line,
    proj_plane,
    validate_normal_crossing,
)
from polarcalc.parsing import parse_form, parse_polynomial
from polarcalc.polynomials import Polynomial, is_squarefree, poly_gcd


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


def test_catalog_varieties_are_built_once():
    assert proj_line("z") is proj_line("z")
    assert product_of_lines(["a", "b"]) is product_of_lines(("a", "b"))
    assert point_variety() is point_variety()
    for _ in range(2):
        with pytest.raises(GeometryError, match=r"duplicate coordinate names \['a', 'a'\]"):
            product_of_lines(["a", "a"])
        with pytest.raises(GeometryError, match="reserved for the infinity chart"):
            proj_line("z_")


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


def on_component(comp, pt):
    """Whether the rational point lies on the divisor component."""
    chart, values = pt.finite_chart(comp.variety)
    return comp.poly_on(chart.id).evaluate(values).is_zero()


def test_divisor_component_across_charts():
    plane = proj_plane("x", "y")
    xp = parse_polynomial("x", ("x", "y"))
    comp = DivisorComponent.from_chart_poly(plane, "A0", xp)
    assert comp.visible_on("A0")
    assert on_component(comp, VarietyPoint.plane_point([1, 0, 3]))
    assert not on_component(comp, VarietyPoint.plane_point([1, 1, 1]))


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


def test_normal_crossing_is_refused_in_dimension_3():
    cube = product_of_lines(["a", "b", "c"])
    main = cube.main_chart
    comps = [
        DivisorComponent.from_chart_poly(cube, main.id, parse_polynomial(p, main.coords))
        for p in ("a", "b")
    ]
    with pytest.raises(GeometryError) as err:
        validate_normal_crossing(comps, cube)
    assert str(err.value) == (
        "normal crossing is checked up to dimension 2, not on P1(a) x P1(b) x P1(c)"
    )


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
    assert on_component(comp, VarietyPoint.product_point([Fraction(1, 2)]))
    inf_comp = point_component(line, VarietyPoint.product_point([INF]))
    assert on_component(inf_comp, VarietyPoint.product_point([INF]))
    assert not inf_comp.visible_on(line.main_chart.id)


@pytest.mark.parametrize("coord", ["z", "t"])
@pytest.mark.parametrize("r", [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(7, 3), INF])
def test_point_component_is_the_chart_polynomial_of_the_point(coord, r):
    # the direct construction against the transition of z - r from the
    # point's first chart
    line = proj_line(coord)
    pt = VarietyPoint.product_point([r])
    chart, values = pt.finite_chart(line)
    (c,) = chart.coords
    poly = Polynomial.variable(chart.coords, c) - Polynomial.constant(chart.coords, values[c])
    expected = DivisorComponent.from_chart_poly(line, chart.id, poly)
    got = point_component(line, pt)
    assert got.polys == expected.polys
    assert got.label == expected.label
    assert got.key() == expected.key()
    assert hash(got) == hash(expected)


# ---------------------------------------------------------------------------
# each point and each divisor checked once, on the first chart containing it
# ---------------------------------------------------------------------------


def components_on(variety, *specs):
    """Components from (chart id, polynomial text) pairs."""
    out = []
    for chart_id, text in specs:
        coords = variety.chart(chart_id).coords
        out.append(DivisorComponent.from_chart_poly(
            variety, chart_id, parse_polynomial(text, coords)))
    return out


def test_new_locus_of_each_chart():
    plane = proj_plane("x", "y")
    assert [plane.new_locus(c.id) for c in plane.charts] == [(), ("x1",), ("x2", "y2")]
    square = product_of_lines(["a", "b"])
    assert {c.id: square.new_locus(c.id) for c in square.charts} == {
        "a|b": (), "a|b_": ("b_",), "a_|b": ("a_",), "a_|b_": ("a_", "b_"),
    }
    line = proj_line("z")
    assert [line.new_locus(c.id) for c in line.charts] == [(), ("z_",)]


def test_new_locus_is_where_points_first_appear():
    plane = proj_plane("x", "y")
    for triple in ([1, 2, 3], [0, 1, 5], [0, 0, 1], [0, 1, 0]):
        pt = VarietyPoint.plane_point(triple)
        chart, values = pt.finite_chart(plane)
        assert all(values[z] == 0 for z in plane.new_locus(chart.id))


def test_parallel_lines_meet_in_a_triple_point_only_the_last_chart_sees():
    plane = proj_plane("x", "y")
    comps = components_on(plane, ("A0", "x"), ("A0", "x - 1"), ("A0", "x - 2"))
    assert validate_normal_crossing(comps, plane).message() == (
        "normal crossing: rejected\n"
        "  three components through one point in dimension 2 on chart A2: "
        "{x}, {x - 1}, {x - 2} (witness (0, 0))"
    )


def test_components_sharing_a_factor_are_not_tested_for_triple_points():
    plane = proj_plane("x", "y")
    comps = components_on(plane, ("A0", "x"), ("A0", "x"), ("A0", "x"))
    assert validate_normal_crossing(comps, plane).message() == (
        "normal crossing: rejected\n"
        + "\n".join(["  components share a factor on chart A0: {x}, {x} (witness x)"] * 3)
    )


@pytest.mark.parametrize("variety, spec, message", [
    (proj_plane("x", "y"), ("A0", "y^2 - x^2 - x^3"),
     "component singular on chart A0: {x^3 + x^2 - y^2} (witness (0, 0))"),
    (proj_plane("x", "y"), ("A0", "x*y^2 - 1"),  # a cusp at [0:1:0]
     "component singular on chart A1: {x*y^2 - 1} (witness (0, 0))"),
    (product_of_lines(["a", "b"]), ("a|b", "a^2 + b^2 - 2"),  # a node at (inf, inf)
     "component singular on chart a_|b_: {a^2 + b^2 - 2} (witness (0, 0))"),
    # singular along all of {x = 1}: refused once, and not tested for singular points
    (proj_plane("x", "y"), ("A0", "(x - 1)^2*y"),
     "component not squarefree on chart A0: {x^2*y - 2*x*y + y} (witness x^2*y - 2*x*y + y)"),
])
def test_a_component_is_smooth_and_squarefree(variety, spec, message):
    report = validate_normal_crossing(components_on(variety, spec), variety)
    assert report.message() == "normal crossing: rejected\n  " + message


TRIPLE = "three components through one point in dimension 2"


@pytest.mark.parametrize("specs, message", [
    (["z", "z + 3*t", "t - 3/2", "t"],
     "normal crossing: rejected\n  " + TRIPLE
     + " on chart t|z: {z}, {t + 1/3*z}, {t} (witness (0, 0))"),
    (["z - 1", "z + 3*t", "t - 3/2", "t"], "normal crossing: accepted"),
])
def test_lines_on_the_cylinder_take_no_general_gcd_or_factorization(monkeypatch, specs, message):
    """Sections, a graph and vertical fibres on P1(t) x P1(z), as a cylinder
    basepoint probe checks them: every gcd has a line operand and every
    eliminant has degree at most 2, so sympy's `cofactors` and
    `factor_list` are never called."""
    calls = []
    for name in ("cofactors", "factor_list"):
        original = getattr(PolyElement, name)
        monkeypatch.setattr(PolyElement, name, lambda *a, f=original: calls.append(a) or f(*a))
    cyl = product_of_lines(["t", "z"])
    report = validate_normal_crossing(components_on(cyl, *[("t|z", p) for p in specs]), cyl)
    assert report.message() == message
    assert calls == []


@pytest.mark.parametrize("variety, specs, failure", [
    (proj_plane("x", "y"), [("A0", "y - x^2"), ("A1", "x1")],
     ("tangential intersection", "A2", "(0, 0)")),
    (product_of_lines(["a", "b"]), [("a|b", "b - a^2"), ("a|b_", "b_")],
     ("tangential intersection", "a_|b_", "(0, 0)")),
    # off the origin of a line locus: [0:1:1], and (a, b) = (1, inf)
    (proj_plane("x", "y"), [("A0", "y - x"), ("A0", "y - x - 1"), ("A0", "y - x - 2")],
     (TRIPLE, "A1", "(0, 1)")),
    (product_of_lines(["a", "b"]), [("a|b", "(a - 1)^2*b - 1"), ("a|b_", "b_")],
     ("tangential intersection", "a|b_", "(1, 0)")),
])
def test_bad_point_only_a_later_chart_sees(variety, specs, failure):
    report = validate_normal_crossing(components_on(variety, *specs), variety)
    assert [(f["reason"], f["chart"], f["witness"]) for f in report.failures] == [failure]


def test_tangency_seen_by_every_chart_is_reported_once():
    plane = proj_plane("x", "y")
    comps = components_on(plane, ("A0", "y - 1"), ("A0", "y - x^2 + 2*x - 2"))
    report = validate_normal_crossing(comps, plane)
    assert [(f["chart"], f["witness"]) for f in report.failures] == [("A0", "(1, 1)")]


def test_a_factor_only_a_later_chart_shows_is_still_tested():
    # both contain the line at infinity {x1 = 0}, which A0 does not see
    plane = proj_plane("x", "y")
    comps = components_on(plane, ("A1", "x1*(y1 - 1)"), ("A1", "x1*(y1 - 2)"))
    report = validate_normal_crossing(comps, plane)
    assert {"reason": "components share a factor", "chart": "A1",
            "members": [c.label for c in comps], "witness": "x1"} in report.failures


def test_components_visible_on_the_main_chart_eliminate_only_there(monkeypatch):
    from polarcalc import geometry

    charts = []
    eliminate = geometry.common_zeros_2d

    def spy(polys, coords):
        charts.append(coords)
        return eliminate(polys, coords)

    monkeypatch.setattr(geometry, "common_zeros_2d", spy)
    plane = proj_plane("x", "y")
    comps = components_on(plane, ("A0", "x"), ("A0", "y"), ("A0", "x + y - 1"),
                          ("A0", "y - x^2 - 3"))
    validate_normal_crossing(comps, plane)
    assert charts and set(charts) == {("x", "y")}


@pytest.mark.parametrize("text, chart", [
    ("y^2 - x^3", "A0"),
    ("x*y^2 - 1", "A1"),  # a cusp at [0:1:0]
    ("y - x^3", "A2"),  # a cusp at [0:0:1]
])
def test_curve_singular_where_a_chart_first_sees_it(text, chart):
    with pytest.raises(GeometryError) as err:
        plane_curve(parse_polynomial(text, ("x", "y")))
    assert str(err.value) == "curve is singular (chart %s, witness (0, 0))" % chart


def _plane_component(draw, variety):
    """A line or a conic with small integer coefficients on the main chart,
    or a coordinate line of chart 1 or 2 (on P2: the line at infinity or
    {x = 0}; on P1 x P1: inf(b) or inf(a))."""
    main = variety.main_chart
    kind = draw(st.sampled_from(["line", "line", "conic", "infinity"]))
    if kind == "infinity":
        chart = variety.charts[draw(st.integers(1, 2))]
        coord = variety.new_locus(chart.id)[0]
        return chart.id, Polynomial.variable(chart.coords, coord)
    coeffs = {(0, 0): draw(st.integers(-2, 2))}
    if kind == "line":  # three directions, so that lines often meet at infinity
        coeffs.update(zip([(1, 0), (0, 1)], draw(st.sampled_from([(1, 0), (0, 1), (1, -1)]))))
    else:
        top = [(2, 0), (1, 1), (0, 2)]
        coeffs.update({e: draw(st.integers(-1, 1)) for e in top + [(1, 0), (0, 1)]})
        coeffs[draw(st.sampled_from(top))] = draw(st.sampled_from([1, -1]))
    return main.id, Polynomial(main.coords, coeffs)


@st.composite
def nc_cases(draw, kind):
    count = draw(st.integers(2, 4))
    if kind == "P1":
        variety = proj_line("z")
        values = st.one_of(st.just(INF), st.fractions(-2, 2, max_denominator=2))
        pts = [VarietyPoint.product_point([draw(values)]) for _ in range(count)]
        comps = [point_component(variety, pt, "c%d" % i) for i, pt in enumerate(pts)]
        return variety, comps
    variety = proj_plane("x", "y") if kind == "P2" else product_of_lines(["a", "b"])
    specs = [_plane_component(draw, variety) for _ in range(count)]
    return variety, [
        DivisorComponent.from_chart_poly(variety, chart_id, p, "c%d" % i)
        for i, (chart_id, p) in enumerate(specs)
    ]


POINT_REASONS = ("tangential intersection", TRIPLE, "component singular")


def all_charts_oracle(comps, variety):
    """Every test on every chart, over the whole chart.

    A pair, or a triple containing a pair, that shares a factor on some
    chart is not tested for points; a component that is not squarefree on
    some chart is not tested for singular points.  Every other component
    is, whatever its degree.

    Returns (failures, points, refused): the (reason, members) that fail;
    for each chart and failing pair or triple, the first of its bad points
    whose first chart (`VarietyPoint.finite_chart`) is this one; and
    whether some elimination left an irrational locus.
    """
    failures, points, shared, refused = set(), set(), set(), False
    nonreduced = set()
    for chart in variety.charts:
        vis = [c for c in comps if c.visible_on(chart.id)]
        for c in vis:
            if not is_squarefree(c.poly_on(chart.id)):
                failures.add(("component not squarefree", (c.label,)))
                nonreduced.add(c.label)
        for c1, c2 in itertools.combinations(vis, 2):
            if not poly_gcd(c1.poly_on(chart.id), c2.poly_on(chart.id)).is_unit():
                failures.add(("components share a factor", (c1.label, c2.label)))
                shared.add((c1.label, c2.label))
    for chart in variety.charts:
        if chart.dimension != 2:
            continue
        x, y = chart.coords
        vis = [c for c in comps if c.visible_on(chart.id)]
        systems = []
        for c1, c2 in itertools.combinations(vis, 2):
            if (c1.label, c2.label) in shared:
                continue
            p, q = c1.poly_on(chart.id), c2.poly_on(chart.id)
            jac = p.differentiate(x) * q.differentiate(y) - p.differentiate(y) * q.differentiate(x)
            systems.append((POINT_REASONS[0], (c1, c2), [p, q, jac]))
        for trio in itertools.combinations(vis, 3):
            if any((c1.label, c2.label) in shared for c1, c2 in itertools.combinations(trio, 2)):
                continue
            systems.append((POINT_REASONS[1], trio, [c.poly_on(chart.id) for c in trio]))
        for c in vis:
            if c.label not in nonreduced:
                p = c.poly_on(chart.id)
                systems.append((POINT_REASONS[2], (c,), [p, p.differentiate(x), p.differentiate(y)]))
        for reason, members, polys in systems:
            pts, complete = common_zeros_2d(polys, chart.coords)
            refused = refused or not complete
            labels = tuple(c.label for c in members)
            if pts:
                failures.add((reason, labels))
            firsts = [
                pt for pt in (
                    point_from_chart(variety, chart.id, dict(zip(chart.coords, v)))
                    for v in pts
                )
                if pt.finite_chart(variety)[0].id == chart.id
            ]
            if firsts:
                points.add((reason, labels, firsts[0]))
    return failures, points, refused


@pytest.mark.parametrize("kind", ["P2", "P1xP1", "P1"])
@settings(max_examples=17, deadline=None, derandomize=True)
@given(data=st.data())
def test_first_chart_rule_matches_all_charts_oracle(kind, data):
    variety, comps = data.draw(nc_cases(kind))
    report = validate_normal_crossing(comps, variety)
    failures, points, refused = all_charts_oracle(comps, variety)
    if refused:
        return
    assert report.ok == (not failures)
    assert {(f["reason"], tuple(f["members"])) for f in report.failures} == failures
    named = []
    for f in report.failures:
        if f["reason"] in POINT_REASONS:
            chart = variety.chart(f["chart"])
            values = [Fraction(v) for v in f["witness"][1:-1].split(", ")]
            named.append((
                f["reason"], tuple(f["members"]),
                point_from_chart(variety, chart.id, dict(zip(chart.coords, values))),
            ))
    assert len(named) == len(set(named)) and set(named) == points


def test_infinity_components():
    """The point inf of P1, {factor = inf} on a product of lines, the line
    at infinity of P2; a factor the variety does not have is refused."""
    line = proj_line("z")
    assert infinity_component(line) == point_component(line, VarietyPoint.product_point([INF]))
    prod = product_of_lines(("a", "b"))
    for factor in ("a", "b"):
        comp = infinity_component(prod, factor)
        assert comp.label == "{%s = inf}" % factor
        assert not comp.visible_on(prod.main_chart.id)
    assert infinity_component(prod, "a") != infinity_component(prod, "b")
    plane = proj_plane("x", "y")
    comp = infinity_component(plane)
    assert comp.label == "{line at infinity}"
    assert [comp.visible_on(c) for c in ("A0", "A1", "A2")] == [False, True, True]
    for variety, factor in ((prod, "c"), (prod, None), (point_variety(), None)):
        with pytest.raises(GeometryError, match="no component at infinity"):
            infinity_component(variety, factor)


@pytest.mark.parametrize("polys, expected", [
    (["x + y - 1", "x - y"], ([(Fraction(1, 2), Fraction(1, 2))], True)),
    (["y - x^2", "y"], ([(0, 0)], True)),
    (["x^2 - 2", "y"], ([], False)),  # an irrational x-root
    (["x", "x*y"], ([], False)),  # every polynomial vanishes on the fiber x = 0
    (["x - 1", "y^2 + 1"], ([], False)),  # an irrational y-root
    (["x - 1", "x - 2"], ([], True)),
    (["y^2 - x^2", "y - 2*x + 1"], ([(Fraction(1, 3), Fraction(-1, 3)), (1, 1)], True)),
])
def test_common_zeros_2d_table(polys, expected):
    ps = [parse_polynomial(p, ("x", "y")) for p in polys]
    assert common_zeros_2d(ps, ("x", "y")) == expected


@pytest.mark.parametrize("locus, polys, expected", [
    (("x",), ["y^2 - 2", "x*y"], ([], False)),
    (("x",), ["y^2 - 1", "x + y - 1"], ([(0, 1)], True)),
    (("x", "y"), ["x + y", "x - y"], ([(0, 0)], True)),
    (("x", "y"), ["x + y - 1", "x - y"], ([], True)),
])
def test_new_zeros_2d_table(locus, polys, expected):
    from polarcalc.geometry import _new_zeros_2d

    ps = [parse_polynomial(p, ("x", "y")) for p in polys]
    assert _new_zeros_2d(ps, ("x", "y"), locus) == expected


def test_curve_certified_smooth_only_by_eliminating_x_first():
    p = parse_polynomial("2 - x^3 + y^3 + 3*x*y^2", ("x", "y"))
    system = [p, p.differentiate("x"), p.differentiate("y")]
    assert common_zeros_2d(system, ("x", "y")) == ([], False)
    assert plane_curve(p).kind == "curve"


def test_curve_with_an_irrational_candidate_locus_is_refused():
    with pytest.raises(GeometryError) as err:
        plane_curve(parse_polynomial("x + y - x^3 - y^3", ("x", "y")))
    assert str(err.value) == (
        "cannot certify smoothness of -x^3 - y^3 + x + y: irrational candidate locus"
    )


# chart of P2 -> the indices (i, j, k) of its coordinates X_i/X_k, X_j/X_k
_P2_RATIOS = {"A0": (1, 2, 0), "A1": (0, 2, 1), "A2": (1, 0, 2)}


def _first_containing_chart(pt, variety):
    """Scan the charts in order for the first whose coordinates are all
    finite at the point."""
    if variety.kind == "P2":
        for chart in variety.charts:
            i, j, k = _P2_RATIOS[chart.id]
            X = pt.data
            if X[k] != 0:
                return chart, {chart.coords[0]: X[i] / X[k], chart.coords[1]: X[j] / X[k]}
        raise AssertionError("no chart contains %s" % pt)
    for chart in variety.charts:
        values = {}
        for coord, v in zip(chart.coords, pt.data):
            if coord.endswith("_"):
                if v == 0:
                    break
                values[coord] = Fraction(0) if v == INF else 1 / v
            elif v == INF:
                break
            else:
                values[coord] = v
        else:
            return chart, values
    raise AssertionError("no chart contains %s" % pt)


def _points_of(variety):
    """Points with coordinates in {0, 1, -1/2, inf} on a product of lines;
    homogeneous triples over {0, 1, -1/2} on P2, the line at infinity
    X0 = 0 among them."""
    values = [Fraction(0), Fraction(1), Fraction(-1, 2)]
    if variety.kind == "P2":
        return [
            VarietyPoint.plane_point(data)
            for data in itertools.product(values, repeat=3) if any(data)
        ]
    return [
        VarietyPoint.product_point(data)
        for data in itertools.product(values + [INF], repeat=variety.dimension)
    ]


@pytest.mark.parametrize("k", [1, 2, 3, "P2"])
def test_finite_chart_is_the_first_chart_containing_the_point(k):
    # constant maps sit on this chart (`VarietyMap.constant`), and compose
    # returns them for point images, so it must be the first that contains
    # the point: the chart the chart search would pick
    variety = proj_plane("x", "y") if k == "P2" else product_of_lines(["a", "b", "c"][:k])
    for pt in _points_of(variety):
        chart, values = pt.finite_chart(variety)
        expected_chart, expected_values = _first_containing_chart(pt, variety)
        assert chart is expected_chart and values == expected_values
        assert point_from_chart(variety, chart.id, values) == pt
