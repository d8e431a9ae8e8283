from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarcalc.geometry import (
    INF,
    DivisorComponent,
    VarietyPoint,
    point_variety,
    product_of_lines,
    proj_line,
    proj_plane,
)
from polarcalc.maps import MapError, VarietyMap
from polarcalc.parsing import parse_polynomial, parse_rational
from polarcalc.polynomials import Polynomial, RationalFunction, ScalarError
from polarcalc.residue import classify_component


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


# ---------------------------------------------------------------------------
# compose against the chart search it replaces for points and identities
# ---------------------------------------------------------------------------


def chart_search_compose(outer, inner):
    """outer after inner: the first target chart on which outer's formulas,
    moved to inner's chart and then given inner's formulas, have no pole.
    The reference for evaluation at a point and for identity outers."""
    main = outer.source.main_chart.id
    mid_chart = outer.source.chart(inner.target_chart)
    mid = None if inner.target_chart == main else outer.source.coord_map(
        main, inner.target_chart
    )
    src = inner.source.main_chart.coords
    for ch in outer.target.charts:
        try:
            fs = outer.formulas_on(ch.id)
            out = {}
            for coord, rf in fs.items():
                if mid is not None:
                    rf = rf.substitute(mid, mid_chart.coords)
                out[coord] = rf.substitute(inner.formulas, src)
            return VarietyMap(inner.source, outer.target, ch.id, out)
        except ZeroDivisionError:
            continue
    raise MapError("composite map lands outside every target chart")


def assert_same_map(got, expected):
    assert got.target_chart == expected.target_chart
    assert got.formulas == expected.formulas
    assert got.describe() == expected.describe()
    assert got.key() == expected.key()
    if got.source.dimension == 0:
        assert got.image_point() == expected.image_point()


SMALL = [Fraction(v) for v in (0, 1, -1, 2, -2)] + [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3)]
TARGETS = [
    proj_line("z"),
    product_of_lines(["z1", "z2"]),
    product_of_lines(["a", "b", "c"]),
    proj_plane("x", "y"),
]


@st.composite
def univariate(draw, coords):
    """(p, roots): p in t of degree <= 3, either c * prod(t - a) over the
    listed roots, or with small coefficients (roots then left unlisted)."""
    if draw(st.booleans()):
        roots = draw(st.lists(st.sampled_from(SMALL), max_size=3))
        p = Polynomial.constant(coords, draw(st.sampled_from(SMALL[1:])))
        for a in roots:
            p = p * (Polynomial.variable(coords, "t") - Polynomial.constant(coords, a))
        return p, roots
    coeffs = draw(st.lists(st.sampled_from(SMALL), min_size=1, max_size=4))
    return Polynomial(coords, {(k,): c for k, c in enumerate(coeffs)}), []


@st.composite
def point_compositions(draw):
    """(outer, inner): a map from P1(t) on any target chart, after a point
    at 0, 1, -1/2, inf, or a zero or pole of a formula."""
    line = proj_line("t")
    coords = line.main_chart.coords
    target = draw(st.sampled_from(TARGETS))
    chart = draw(st.sampled_from(target.charts))
    formulas, points = {}, [Fraction(0), Fraction(1), Fraction(-1, 2), INF]
    for c in chart.coords:
        num, zeros = draw(univariate(coords))
        den, poles = draw(univariate(coords).filter(lambda d: not d[0].is_zero()))
        formulas[c] = RationalFunction(num, den)
        points += zeros + poles
    outer = VarietyMap(line, target, chart.id, formulas)
    pt = VarietyPoint.product_point([draw(st.sampled_from(points))])
    return outer, VarietyMap.constant(point_variety(), line, pt)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(point_compositions())
def test_compose_evaluates_a_point_as_the_chart_search_does(case):
    outer, inner = case
    got = outer.compose(inner)
    assert_same_map(got, chart_search_compose(outer, inner))
    if outer.target.kind != "P2":  # no base points: evaluation always names the image
        assert got.point is not None


def _identity_inners():
    line, prod, plane = proj_line("z"), product_of_lines(["z1", "z2"]), proj_plane("x", "y")
    pt = point_variety()
    inners = [
        VarietyMap.constant(pt, line, VarietyPoint.product_point([0])),
        VarietyMap.constant(pt, line, VarietyPoint.product_point([INF])),
        VarietyMap.constant(pt, prod, VarietyPoint.product_point([INF, Fraction(2)])),
        VarietyMap.constant(pt, plane, VarietyPoint.plane_point([0, 1, Fraction(-1, 2)])),
        VarietyMap.constant(pt, plane, VarietyPoint.plane_point([0, 0, 1])),
    ]
    src = proj_line("s")
    s, one = rf_var(src.main_chart.coords, "s"), RationalFunction.constant(("s",), 1)
    inners.append(VarietyMap(src, line, "z_", {"z_": s - one}))  # stays on z_ at s = 1
    inners.append(VarietyMap(src, line, "z_", {"z_": one / s ** 2}))  # z = s^2
    for variety, chart, text in [
        (prod, prod.main_chart.id, "z2 - 2*z1 - 1"),
        (prod, "z1_|z2", "z1_*z2 - 1"),
        (plane, "A0", "x + y - 1"),
        (plane, "A1", "x1"),
    ]:
        comp = DivisorComponent.from_chart_poly(
            variety, chart, parse_polynomial(text, variety.chart(chart).coords))
        inners.append(classify_component(comp, variety)[3])
    return inners


@pytest.mark.parametrize("inner", _identity_inners(), ids=repr)
def test_compose_with_an_identity_retargets_the_inner_map(inner):
    target = inner.target
    outers = [VarietyMap.identity(target)]
    if target.kind == "P1":  # the identity written on the chart at infinity
        z = rf_var(target.main_chart.coords, "z")
        outers.append(VarietyMap(target, target, "z_", {"z_": RationalFunction.constant(("z",), 1) / z}))
    for outer in outers:
        assert outer.is_identity()
        assert_same_map(outer.compose(inner), chart_search_compose(outer, inner))


def _plane_map(x, y):
    line = proj_line("t")
    coords = line.main_chart.coords
    return VarietyMap(line, proj_plane("x", "y"), "A0", {
        "x": parse_rational(x, coords), "y": parse_rational(y, coords),
    })


@pytest.mark.parametrize("outer, r", [
    (_plane_map("1/t", "2/t"), 0),  # image [0 : 1 : 2]
    (_plane_map("1/t", "1/t^2"), 0),  # image [0 : 0 : 1]
    (_plane_map("t^2/(t - 1)", "1/(t^2 - t)"), 1),  # image [0 : 1 : 1]
], ids=["A1", "A2", "A1-at-1"])
def test_compose_at_a_base_point_falls_back_to_the_chart_search(outer, r):
    inner = VarietyMap.constant(point_variety(), outer.source, VarietyPoint.product_point([r]))
    got = outer.compose(inner)
    assert got.point is None  # every homogeneous coordinate vanishes at r
    assert_same_map(got, chart_search_compose(outer, inner))


def test_compose_with_a_tau_value_keeps_the_refusal():
    line = proj_line("t")
    outer = VarietyMap(line, proj_line("z"), "z", {
        "z": parse_rational("t^2 + TAU*t", line.main_chart.coords),
    })
    inner = VarietyMap.constant(point_variety(), line, VarietyPoint.product_point([1]))
    got, expected = outer.compose(inner), chart_search_compose(outer, inner)
    assert got.point is None
    assert (got.target_chart, got.formulas) == (expected.target_chart, expected.formulas)
    assert got.describe() == expected.describe() and got.key() == expected.key()
    with pytest.raises(ScalarError) as refused:
        got.image_point()
    with pytest.raises(ScalarError) as reference:
        expected.image_point()
    assert str(refused.value) == str(reference.value) == "scalar has nonzero TAU grade: 1 + TAU"
