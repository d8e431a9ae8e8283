"""Residues along carried lines in closed form.

Each closed form against the contraction it saves, which a given
`direction` still takes: the restriction formula along lines of P2 and of
P1 x P1, the closed forms along a line at infinity, and the graph that a
carried line builds from its integers.  Refusals keep their text.  Then
what lets a point residue skip its round trips: a P1 pole that carries
its point, and `is_identity` read off the memoized canonical map.
"""

import gc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarcalc.forms import DifferentialForm
from polarcalc.geometry import (
    DivisorComponent,
    VarietyPoint,
    infinity_component,
    point_component,
    product_of_lines,
    proj_line,
    proj_plane,
)
from polarcalc.maps import VarietyMap
from polarcalc.parsing import parse_polynomial
from polarcalc.polynomials import Polynomial, RationalFunction, _canonical_assoc
from polarcalc.residue import ResidueError, classify_component, p1_points, poincare_residue
from polarcalc.session import Session, run_statement, run_text

PLANE = proj_plane("x", "y")
SQUARE = product_of_lines(["z1", "z2"])

# scalars the forms are scaled by: rationals, TAU-monomials and a TAU-sum
SCALARS = (
    Polynomial.scalar(1), Polynomial.scalar(-2), Polynomial.scalar(1, 1),
    Polynomial.scalar(Fraction(3, 2), -1), Polynomial.scalar(1) + Polynomial.scalar(1, 1),
)

small = st.integers(-3, 3)
numerators = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), small, max_size=4)


def outcome(omega, comp, variety, direction=None):
    """A residue's form, target and embedding, or the text of its refusal."""
    try:
        res = poincare_residue(omega, comp, variety, direction)
    except ResidueError as e:
        return ("refused", str(e))
    return ("ok", res.kind, res.form, res.target.signature(), res.embed.describe())


def plain(comp):
    """The same component without its coefficients: the general path."""
    return DivisorComponent(comp.variety, comp.polys, comp.label)


def check_against_the_contraction(variety, comps, num, den, scalar):
    coords = variety.main_chart.coords
    f = RationalFunction(Polynomial(coords, num), den).scale(scalar)
    omega = DifferentialForm(variety.main_chart.id, coords, 2, {(0, 1): f})
    for comp in comps:
        got = outcome(omega, comp, variety)
        assert outcome(omega, plain(comp), variety) == got
        shape = classify_component(comp, variety)
        assert shape[:3] == classify_component(plain(comp), variety)[:3]
        assert shape[3].formulas == classify_component(plain(comp), variety)[3].formulas
        chart = shape[1]
        p = comp.poly_on(chart.id)
        for d in chart.coords:
            if not p.differentiate(d).is_zero():
                assert outcome(omega, comp, variety, d) == got, d


def product_of(polys, coords):
    den = Polynomial.constant(coords, 1)
    for p in polys:
        den = den * p
    return den


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.tuples(small, small, small), min_size=1, max_size=4),
       numerators, st.sampled_from(SCALARS), st.booleans())
@example([(1, 0, 0), (0, 1, -1), (1, 1, -1)], {}, SCALARS[0], False)
@example([(1, 0, 0)], {(3, 0): 1}, SCALARS[4], False)  # a double pole at infinity
@example([(2, -1, 3)], {(0, 0): 1}, SCALARS[2], True)  # a double pole on A0
def test_p2_line_residues_match_the_contraction(lines, num, scalar, square):
    lines = [ln for ln in lines if ln[0] or ln[1]]
    coords = PLANE.main_chart.coords
    comps = []
    for a, b, c in lines:
        p = parse_polynomial("%d*x + %d*y + %d" % (a, b, c), coords)
        comp = DivisorComponent.from_chart_poly(PLANE, "A0", p)
        if comp not in comps:
            comps.append(comp)
    polys = [comp.poly_on("A0") for comp in comps]
    if square and polys:
        polys.append(polys[0])
    comps.append(infinity_component(PLANE))
    assert all(comp.line is not None for comp in comps)
    check_against_the_contraction(PLANE, comps, num, product_of(polys, coords), scalar)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 1), small, st.integers(1, 2)), max_size=4),
       numerators, st.sampled_from(SCALARS), st.booleans())
@example([(0, 1, 1), (1, -2, 1)], {(1, 0): 1}, SCALARS[0], False)  # inf(z1): o = -1
@example([(1, 0, 1)], {}, SCALARS[3], False)  # inf(z1): o = -2, a double pole
@example([(0, 0, 1), (0, 1, 1), (1, 3, 2)], {(0, 2): 2, (1, 1): -1}, SCALARS[4], True)
def test_product_line_residues_match_the_contraction(lines, num, scalar, square):
    coords = SQUARE.main_chart.coords
    comps = []
    for i, n, d in lines:
        p = parse_polynomial("%d*%s - %d" % (d, coords[i], n), coords)
        comp = DivisorComponent.from_chart_poly(SQUARE, "z1|z2", p)
        if comp not in comps:
            comps.append(comp)
    polys = [comp.poly_on("z1|z2") for comp in comps]
    if square and polys:
        polys.append(polys[-1])
    comps += [infinity_component(SQUARE, "z1"), infinity_component(SQUARE, "z2")]
    assert all(comp.line is not None for comp in comps)
    check_against_the_contraction(SQUARE, comps, num, product_of(polys, coords), scalar)


def at_infinity(comp):
    """The coordinate u of the divisor {u = 0} that a line at infinity is."""
    (u,) = comp.variety.new_locus(comp.first_visible_chart().id)
    return u


def form(variety, text):
    coords = variety.main_chart.coords
    den = parse_polynomial(text, coords)
    f = RationalFunction(Polynomial.constant(coords, 1), den)
    return DifferentialForm(variety.main_chart.id, coords, 2, {(0, 1): f})


@pytest.mark.parametrize("variety, factor, den", [
    (PLANE, None, "x*y*(x + y - 1)"),  # o = 0
    (PLANE, None, "x*y*(x + y - 1)*(x - 2)"),  # o = 1
    (SQUARE, "z1", "(z1 - 1)*(z1 + 1)"),  # o = 0
    (SQUARE, "z2", "(z1 - 1)*(z2 + 1)*(z2 - 3)"),  # o = 0 along z2 = inf
])
def test_no_pole_at_infinity_gives_zero(variety, factor, den):
    comp = infinity_component(variety, factor)
    omega = form(variety, den)
    res = poincare_residue(omega, comp, variety)
    assert res.kind == "line" and res.form.is_zero()
    local = variety.transition_form(omega, comp.first_visible_chart().id)
    assert local.pole_order(comp.poly_on(comp.first_visible_chart().id)) >= 0
    assert outcome(omega, comp, variety, at_infinity(comp)) == outcome(omega, comp, variety)


@pytest.mark.parametrize("variety, factor, den, text", [
    (PLANE, None, "x", "pole of order 2 along {line at infinity}; only simple poles supported"),
    (PLANE, None, "1", "pole of order 3 along {line at infinity}; only simple poles supported"),
    (SQUARE, "z1", "z2 - 1", "pole of order 2 along {z1 = inf}; only simple poles supported"),
    (SQUARE, "z2", "z1*(z1 - 1)", "pole of order 2 along {z2 = inf}; only simple poles supported"),
])
def test_a_double_pole_at_infinity_keeps_its_refusal(variety, factor, den, text):
    comp = infinity_component(variety, factor)
    omega = form(variety, den)
    for direction in (None, at_infinity(comp)):
        with pytest.raises(ResidueError) as e:
            poincare_residue(omega, comp, variety, direction)
        assert str(e.value) == text


def test_the_residue_along_z1_at_infinity_in_a_session():
    reports = run_text(Session(), """
        let A = P1(z1) x P1(z2);
        let c = chain(A, id, (1 + TAU)*dlog((z1 - 1)*(z1 + 2)) wedge dlog(z2 - 3),
                      poles[z1 - 1, z1 + 2, inf(z1), z2 - 3, inf(z2)]);
        residue c, inf(z1);
        residue c, inf(z2);
        let P = P2(x, y);
        let d = chain(P, id, dlog(x*(x + y - 1)) wedge dlog(y - 2),
                      poles[x, x + y - 1, y - 2, inf]);
        residue d, inf;
    """)
    got = [(r["status"], r["result"], r["details"]) for r in reports if r["result"] != "bound"]
    assert got == [
        ("ok", "(((-2 - 2*TAU))/(z2 - 3)) * d(z2)",
         {"kind": "line", "target": "P1(z2)", "embedding": "z1_ = 0, z2 = z2"}),
        ("ok", "(((2 + 2*TAU)*z1 + (1 + TAU))/(z1^2 + z1 - 2)) * d(z1)",
         {"kind": "line", "target": "P1(z1)", "embedding": "z1 = z1, z2_ = 0"}),
        ("ok", "((-y1 - 2)/(y1^2 + y1)) * d(y1)",
         {"kind": "line", "target": "P1(y1)", "embedding": "x1 = 0, y1 = y1"}),
    ]


def test_a_reducible_graph_keeps_the_contraction():
    """x*y + x = x*(y + 1) solves for y over a = x, a factor of b = x too,
    so the restriction formula does not take it: the contraction refuses
    it, since d/dx of it vanishes along {y = -1}.  The hyperbola and the
    TAU line are graphs that keep their results."""
    session = Session()
    run_text(session, """
        let P = P2(x, y);
        let c = chain(P, id, d(x) wedge d(y) / (x*(y + 1)), poles[x, y + 1, inf]);
        let A = P1(z1) x P1(z2);
        let h = chain(A, id, d(z1) wedge d(z2) / ((z1*z2 + z1 - 1)*(z1 - 2)),
                      poles[z1*z2 + z1 - 1, z1 - 2, inf(z2)]);
        let t = chain(A, id, TAU*d(z1) wedge d(z2) / ((z2 - TAU*z1)*(z1 - 1)*(z2 + 1)),
                      poles[z2 - TAU*z1, z1 - 1, z2 + 1]);
    """)
    with pytest.raises(ResidueError) as e:
        run_statement(session, "residue c, x*y + x")
    assert str(e.value) == "residual denominator vanishes along {x*y + x}"
    assert run_statement(session, "residue h, z1*z2 + z1 - 1")["result"] == \
        "(-1/(z1^2 - 2*z1)) * d(z1)"
    assert run_statement(session, "residue t, z2 - TAU*z1")["result"] == \
        "(-1/(z1^2 + (TAU^-1 - 1)*z1 - 1*TAU^-1)) * d(z1)"


@pytest.mark.parametrize("chart, text", [
    ("t", "t - 1/2"), ("t", "2*t + 3"), ("t", "t"), ("t", "-4*t"),
    ("t_", "t_ - 2"), ("t_", "t_"), ("t_", "3*t_ + 1"),
])
def test_a_p1_pole_carries_its_point(chart, text):
    line = proj_line("t")
    poly = parse_polynomial(text, line.chart(chart).coords)
    comp = DivisorComponent.from_chart_poly(line, chart, poly)
    assert comp.label == "{%s}" % _canonical_assoc(poly)
    (r,) = p1_points([plain(comp)])  # read off the chart polynomials
    assert comp.point == r
    assert comp.key() == point_component(line, VarietyPoint.product_point([r])).key()


def test_is_identity_reads_the_canonical_map():
    for variety in (proj_line("t"), SQUARE, PLANE):
        ident = VarietyMap.identity(variety)
        assert ident.is_identity() and ident.canonical() is ident
        other = variety.charts[-1]
        moved = VarietyMap(variety, variety, other.id,
                           variety.coord_map(other.id, variety.main_chart.id))
        assert moved.is_identity()  # the identity written on a later chart
        canonical = moved.canonical()
        assert canonical.target_chart == variety.main_chart.id
        assert canonical.canonical() is canonical
        # the memo holds no reference cycle, so reference counting frees a map
        for m in (ident, canonical):
            assert all(r is not m for r in gc.get_referents(m))
    swap = VarietyMap(SQUARE, SQUARE, "z1|z2", {
        "z1": RationalFunction.variable(("z1", "z2"), "z2"),
        "z2": RationalFunction.variable(("z1", "z2"), "z1"),
    })
    assert not swap.is_identity()

