"""Lines of P2 and of P1 x P1 carry their coordinates.

Each shortcut against the general path it saves: the line certificate
`lines_cross_normally` against normal-crossing validation, and a line's
chart polynomials, built from its coefficients, against substituting it
into every chart.  The refusals the certificate hands on keep their text.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarcalc import chains, geometry
from polarcalc.chains import PolarChain, boundary, make_triple
from polarcalc.geometry import (
    DivisorComponent,
    infinity_component,
    lines_cross_normally,
    product_of_lines,
    proj_plane,
    validate_normal_crossing,
)
from polarcalc.maps import VarietyMap
from polarcalc.parsing import parse_form, parse_polynomial
from test_session_cli import run_cli

PLANE = proj_plane("x", "y")
SQUARE = product_of_lines(["z1", "z2"])

# (chart, polynomial): lines through the origin (x, y, x + y, x - 2*y),
# parallel lines (x, x - 1, 2*x - 2), the line at infinity on A1 and A2, and
# lines given on the other charts; a conic, which no certificate takes
P2_LINES = (
    ("A0", "x"), ("A0", "y"), ("A0", "x + y"), ("A0", "x - 2*y"),
    ("A0", "x - 1"), ("A0", "2*x - 2"), ("A0", "x + y - 1"), ("A0", "3*x - y + 1/2"),
    ("A1", "x1"), ("A2", "y2"), ("A1", "y1 - 2"), ("A1", "x1 + y1 + 1"),
    ("A2", "x2 - 1/3"), ("A2", "x2 + 2*y2 - 1"),
)
P2_OTHER = (("A0", "x^2 + y^2 - 1"),)

# verticals, horizontals, r = 0 and r = oo on each factor, lines given on the
# infinity charts; a diagonal and a hyperbola, which no certificate takes
SQUARE_LINES = (
    ("z1|z2", "z1"), ("z1|z2", "z1 - 1"), ("z1|z2", "2*z1 + 3"), ("z1|z2", "z2"),
    ("z1|z2", "z2 + 1/2"), ("z1_|z2", "z1_"), ("z1|z2_", "z2_"), ("z1_|z2", "z1_ - 2"),
    ("z1_|z2_", "z2_ + 1"), ("z1|z2_", "z2_ - 2"),
)
SQUARE_OTHER = (("z1|z2", "z1 - z2"), ("z1|z2", "z1*z2 - 1"))


def components(variety, specs):
    return [DivisorComponent.from_chart_poly(
        variety, chart, parse_polynomial(text, variety.chart(chart).coords))
        for chart, text in specs]


def check_against_validation(variety, specs):
    comps = components(variety, specs)
    certified = lines_cross_normally(comps, variety)
    ok = validate_normal_crossing(comps, variety).ok
    if certified:
        assert ok
    if all(c.line is not None for c in comps):  # the certificate is exact on lines
        assert certified == ok


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(P2_LINES + P2_OTHER), max_size=5))
@example([("A0", "x"), ("A0", "x - 1"), ("A1", "x1")])  # parallel, and infinity
@example([("A0", "x"), ("A0", "y"), ("A0", "x + y")])  # concurrent
@example([("A0", "x - 1"), ("A0", "2*x - 2")])  # repeated
def test_the_p2_certificate_agrees_with_validation(specs):
    check_against_validation(PLANE, specs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(SQUARE_LINES + SQUARE_OTHER), max_size=6))
@example([("z1|z2", "z1"), ("z1|z2", "z2"), ("z1_|z2", "z1_"), ("z1|z2_", "z2_")])
@example([("z1|z2", "z1"), ("z1|z2", "z1"), ("z1|z2", "z2")])  # repeated vertical
def test_the_product_certificate_agrees_with_validation(specs):
    check_against_validation(SQUARE, specs)


RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def p2_lines(draw):
    """c + a*u + b*v on a chart (u, v) of P2, with a or b nonzero."""
    chart = draw(st.sampled_from(PLANE.charts))
    c, a, b = draw(st.tuples(RATIONALS, RATIONALS, RATIONALS).filter(lambda v: any(v[1:])))
    u, v = chart.coords
    return PLANE, (chart.id, "(%s) + (%s)*%s + (%s)*%s" % (c, a, u, b, v))


@st.composite
def axis_lines(draw):
    """k*(z - r) for a coordinate z of a chart of P1 x P1: r = 0 on an
    inverted coordinate z_ is a line at infinity."""
    chart = draw(st.sampled_from(SQUARE.charts))
    z = draw(st.sampled_from(chart.coords))
    k = draw(RATIONALS.filter(bool))
    return SQUARE, (chart.id, "(%s)*(%s - (%s))" % (k, z, draw(RATIONALS)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(p2_lines(), axis_lines(),
                 st.sampled_from([(PLANE, spec) for spec in P2_LINES]
                                 + [(SQUARE, spec) for spec in SQUARE_LINES])))
def test_a_line_is_built_as_the_substitution_path_builds_it(case):
    variety, spec = case
    (direct,) = components(variety, [spec])
    assert direct.line is not None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_line_of", lambda *args: None)
        (general,) = components(variety, [spec])
    assert general.line is None
    assert direct.polys == general.polys
    assert direct.key() == general.key()
    assert direct.label == general.label


def test_the_components_at_infinity_are_lines():
    assert infinity_component(PLANE).line == (1, 0, 0)
    assert infinity_component(SQUARE, "z1").line == (0, "inf")
    assert infinity_component(SQUARE, "z2").line == (1, "inf")


def test_a_line_with_a_tau_coefficient_takes_the_general_path(tmp_path):
    (tau,) = components(SQUARE, [("z1|z2", "z2 + 2*TAU")])
    assert tau.line is None
    f = tmp_path / "tau.pc"
    f.write_text(
        "let B = P1(z1) x P1(z2);\n"
        "let a = chain(B, id, dlog(z1 - 1/3) wedge dlog(z2 + 2*TAU),"
        " poles[z1 - 1/3, inf(z1), z2 + 2*TAU, inf(z2)]);\n"
        "boundary a;\n")
    code, out, err = run_cli(["run", str(f)])
    assert code == 1
    assert out.splitlines() == ["[ok] bound", "[ok] bound"]
    assert err.splitlines() == ["[error] rational_roots needs TAU-free coefficients"]


# the refusals of line arrangements that the certificate hands to validation
LINE_REFUSALS = {
    "parallel-lines-meet-at-infinity": (
        "let P = P2(x,y);\n"
        "let a = chain(P, id, d(x) wedge d(y)/(x*(x - 1)), poles[x, x - 1, inf]);\n",
        "  three components through one point in dimension 2 on chart A2:"
        " {x}, {x - 1}, {line at infinity} (witness (0, 0))",
    ),
    "concurrent-lines": (
        "let P = P2(x,y);\n"
        "let a = chain(P, id, d(x) wedge d(y)/(x*y*(x + y)), poles[x, y, x + y, inf]);\n",
        "  three components through one point in dimension 2 on chart A0:"
        " {x}, {y}, {x + y} (witness (0, 0))",
    ),
    "repeated-line": (
        "let P = P2(x,y);\n"
        "let a = chain(P, id, dlog(x) wedge dlog(y), poles[x, y, x, inf]);\n",
        "  components share a factor on chart A0: {x}, {x} (witness x)",
    ),
    "repeated-vertical": (
        "let B = P1(z1) x P1(z2);\n"
        "let a = chain(B, id, dlog(z1) wedge dlog(z2), poles[z1, z2, z1, inf(z1), inf(z2)]);\n",
        "  components share a factor on chart z1|z2: {z1}, {z1} (witness z1)",
    ),
}


@pytest.mark.parametrize("name", sorted(LINE_REFUSALS))
def test_line_refusals_keep_their_text(tmp_path, name):
    text, line = LINE_REFUSALS[name]
    f = tmp_path / "lines.pc"
    f.write_text(text)
    code, out, err = run_cli(["run", str(f)])
    assert code == 1
    assert out.splitlines() == ["[ok] bound"]
    assert err.splitlines() == [
        "[error] declared poles violate normal crossing: normal crossing: rejected", line]


@pytest.mark.parametrize("variety, form, specs", [
    (PLANE, "dlog(x - 1) wedge dlog(x + 2*y)", [("A0", "x - 1"), ("A0", "x + 2*y"), ("A1", "x1")]),
    (SQUARE, "dlog(z1 - 1) wedge dlog(z2)",
     [("z1|z2", "z1 - 1"), ("z1|z2", "z2"), ("z1_|z2", "z1_"), ("z1|z2_", "z2_")]),
])
def test_line_arrangements_need_no_validation(monkeypatch, variety, form, specs):
    """A chain on lines is made and has its boundary and second boundary
    taken without a normal-crossing validation."""
    checks = []
    monkeypatch.setattr(chains, "validate_normal_crossing",
                        lambda *args: checks.append(args) or validate_normal_crossing(*args))
    main = variety.main_chart
    t = make_triple(variety, VarietyMap.identity(variety),
                    parse_form(form, main.coords, main.id), components(variety, specs))
    b = boundary(PolarChain(variety, [t])).chain
    assert len(b.terms) == len(specs)
    assert boundary(b).chain.is_zero()
    assert checks == []
