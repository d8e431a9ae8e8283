from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarcalc import chains, homotopy
from polarcalc.chains import ChainError, PolarChain, Triple, boundary, make_triple, point_term
from polarcalc.geometry import (
    INF,
    DivisorComponent,
    VarietyPoint,
    point_component,
    product_of_lines,
    proj_line,
    validate_normal_crossing,
)
from polarcalc.homotopy import (
    HomotopyError,
    _lift_components,
    _probe_admissible,
    _probe_sequence,
    cylinder_homotopy,
    section_pushforwards,
    verify_homotopy_identity,
)
from polarcalc.maps import VarietyMap
from polarcalc.parsing import parse_form, parse_polynomial, parse_rational
from polarcalc.polynomials import Polynomial, PolynomialError, RationalFunction


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


def spy_probes(monkeypatch):
    """(probes, checks) from here on, in order: the (value, verdict) of every
    basepoint probe's certificate, and the variety of every normal-crossing
    check that make_triple makes."""
    probes, checks = [], []
    admissible = homotopy._probe_admissible
    validate = chains.validate_normal_crossing

    def probe_spy(g, probe, poles):
        verdict = admissible(g, probe, poles)
        probes.append((probe, verdict))
        return verdict

    def nc_spy(decl, variety):
        checks.append(variety.name)
        return validate(decl, variety)

    monkeypatch.setattr(homotopy, "_probe_admissible", probe_spy)
    monkeypatch.setattr(chains, "validate_normal_crossing", nc_spy)
    return probes, checks


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
    probes, checks = spy_probes(monkeypatch)
    cyl = cylinder_homotopy(a, 0)
    assert cyl.records == [{
        "term": "(P1(t), t = t, z = t, -1/(t^2 - t) dt)",
        "basepoint": "-1",
        "repaired": True,
    }]
    # probes 0 and 1: the graph z = t meets the section above a pole of
    # alpha (a triple point); probe -1 passes.  The repair tail's set needs
    # no test, and nothing is validated on P1 x P1
    assert probes == [(0, False), (1, False), (-1, True)]
    assert checks == []
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
    probes, checks = spy_probes(monkeypatch)
    cyl = cylinder_homotopy(a, 0)
    assert cyl.records == [{
        "term": "(P1(t), t = t, z = t, -1/(t^2 - 5*t + 6) dt)",
        "basepoint": "0",
        "repaired": False,
    }]
    assert probes == [(0, True)]
    assert checks == []
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


# -- the basepoint certificate against normal-crossing validation ----------

SOURCE = proj_line("t")
CYLINDER = product_of_lines(["t", "z"])


def declared_pole(text):
    """A declared pole of alpha on P1(t): "inf" or a polynomial in t."""
    if text == "inf":
        return point_component(SOURCE, VarietyPoint.product_point([INF]))
    return DivisorComponent.from_chart_poly(
        SOURCE, SOURCE.main_chart.id, parse_polynomial(text, ("t",))
    )


def probe_verdicts(g, poles, probe):
    """The certificate's verdict on a probe, and validation's report on the
    main term's candidate set: {z = probe}, {z = g} and the verticals."""
    coords = CYLINDER.main_chart.coords
    z = RationalFunction.variable(coords, "z")

    def component(rf, label=None):
        return DivisorComponent.from_chart_poly(CYLINDER, CYLINDER.main_chart.id, rf.num, label)

    decl = [
        component(z - RationalFunction.constant(coords, probe)),
        component(z - g.lift(coords), "{z = g}"),
    ] + _lift_components(Triple(SOURCE, None, None, poles), CYLINDER, "t")
    return _probe_admissible(g, Fraction(probe), poles), validate_normal_crossing(decl, CYLINDER)


@pytest.mark.parametrize("g, poles, probe, reason", [
    ("t^2", ["t - 1"], 0, "tangential intersection"),
    ("t^2", ["t - 1"], 1, "three components through one point"),
    ("t^2/(t^2 + 1)", ["t"], 1, "tangential intersection on chart t_|z"),  # at t = oo
    ("t/(t - 1)", ["t", "inf"], 1, "three components through one point in dimension 2 on chart t_|z"),
    ("t/(t - 1)", ["t"], 1, None),
    # a real triple point at t = +-sqrt(2), which validation cannot locate
    ("t^2", ["t^2 - 2"], 2, "cannot certify triple-point freeness (irrational locus)"),
    ("t^2", ["t^2 - 2"], 1, None),
    ("t^2", ["t^2 - 2"], 3, None),
    ("t^3 - 3*t", ["t - 5"], 2, "tangential intersection"),  # 2 is a critical value
    ("t^3 - 3*t", ["t - 5"], 1, None),
])
def test_named_probes_match_validation(g, poles, probe, reason):
    admissible, report = probe_verdicts(
        parse_rational(g, ("t",)), [declared_pole(p) for p in poles], probe
    )
    assert admissible == report.ok == (reason is None)
    if reason is not None:
        assert len(report.failures) == 1 and reason in report.message()


POLE_TEXTS = ("inf", "t + 2", "t + 1", "t", "t - 1", "t - 2", "t^2 + 1", "t^2 - 2")
COEFFICIENTS = st.lists(st.sampled_from([-2, -1, 0, 1, 2, Fraction(1, 2)]), min_size=1, max_size=4)


def polynomial_in_t(coefficients):
    t = Polynomial.variable(("t",), "t")
    return sum(((t**k).scale(Fraction(c)) for k, c in enumerate(coefficients)),
               Polynomial.zero(("t",)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(COEFFICIENTS, COEFFICIENTS.filter(any),
       st.lists(st.sampled_from(POLE_TEXTS), max_size=3, unique=True),
       st.sampled_from(list(islice(_probe_sequence(0), 7))))
def test_certificate_agrees_with_validation(num, den, poles, probe):
    """The certificate rejects a probe exactly when validation does."""
    g = RationalFunction(polynomial_in_t(num), polynomial_in_t(den))
    admissible, report = probe_verdicts(g, [declared_pole(p) for p in poles], probe)
    assert admissible == report.ok, report.message()


def test_graph_pole_on_an_irrational_vertical_is_admissible():
    """The graph meets the vertical t^2 = 2 at z = oo, over irrational t.
    Validation certifies the pair with t eliminated first, and agrees with
    the certificate: a section meets a fibre transversally.  A pole at
    irrational t is no rational point of P1(t), so a chain declaring it is
    refused when its term is built."""
    g = parse_rational("(2*t + 2)/(t^2 - 2)", ("t",))
    poles = [declared_pole("t^2 - 2"), declared_pole("t")]
    admissible, report = probe_verdicts(g, poles, 0)
    assert admissible and report.ok, report.message()
    coords = SOURCE.main_chart.coords
    form = parse_form("dlog((t^2-2)/t^2)", coords, SOURCE.main_chart.id)
    with pytest.raises(ChainError) as err:
        section_chain(CYLINDER, SOURCE, g, form, poles)
    assert str(err.value) == "component {t^2 - 2} has no rational point representation"


# -- TAU in the section: the refusals the line term meets first -------------


@pytest.mark.parametrize("g, form, poles, text", [
    ("TAU*t", "dlog(t/(t-1))", ["t", "t - 1"],
     "rational_roots needs TAU-free coefficients"),
    ("(1 + TAU)*t^2", "dlog(t/(t-1))", ["t", "t - 1"],
     "leading coefficient is not a TAU-monomial: (-1 - 1*TAU)*t^2 + z"),
    ("1/(t^2 - TAU)", "dlog((t-2)/(t+1))", ["t - 2", "t + 1"],
     "cannot normalize: denominator leading coefficient 12 - 3*TAU is a TAU-sum"),
])
def test_tau_sections_are_refused(g, form, poles, text):
    coords = SOURCE.main_chart.coords
    a = section_chain(CYLINDER, SOURCE, parse_rational(g, coords),
                      parse_form(form, coords, SOURCE.main_chart.id),
                      [declared_pole(p) for p in poles])
    with pytest.raises(PolynomialError) as err:
        verify_homotopy_identity(a, 0)
    assert type(err.value) is PolynomialError
    assert str(err.value) == text
