"""The cylinder homotopy on a product M x P1.

For a term (A, f, alpha) whose map hits the line factor through a
rational function g, the lifted term lives on A x P1 and carries

    beta = (1/TAU) * (g - c) dz / ((z - c)(z - g)) wedge alpha
         = (1/TAU) * (dz/(z - g) - dz/(z - c)) wedge alpha

where c is the basepoint playing the role of 0.  Its residues along the
two sections and the lifted vertical components reproduce alpha, -alpha
and the lifted residues, which is exactly what makes
boundary(h(a)) + h(boundary(a)) = a - section(projection(a)).

When the basepoint section fails the normal-crossing requirement, a
shifted basepoint c' is probed in the deterministic order 1, -1, 2, -2,
... and the term is emitted as beta' plus (beta - beta'), the second
piece having only section and vertical poles.
"""

from fractions import Fraction

from .chains import (
    ChainError,
    PolarChain,
    Triple,
    make_triple,
    prune_declared,
    term_weight,
)
from .forms import DifferentialForm
from .geometry import (
    INF,
    CatalogVariety,
    DivisorComponent,
    VarietyPoint,
    point_component,
    product_of_lines,
    proj_line,
    validate_normal_crossing,
)
from .maps import VarietyMap
from .polynomials import Polynomial, RationalFunction

BASEPOINT_PROBES = 12


class HomotopyError(ValueError):
    pass


class CylinderChain:
    """The lifted chain h(a) together with its bookkeeping."""

    __slots__ = ("chain", "basepoint", "records")

    def __init__(self, chain, basepoint, records):
        self.chain = chain
        self.basepoint = basepoint
        self.records = list(records)


def _line_factor(ambient: CatalogVariety):
    """The coordinate of the last P1 factor (the cylinder direction)."""
    if ambient.kind not in ("P1", "product") or not ambient.factors:
        raise HomotopyError(
            "cylinder homotopy needs a product with a line factor, got %s"
            % ambient.name
        )
    return ambient.factors[-1]


def _probe_sequence(basepoint):
    yield Fraction(basepoint)
    k = 1
    count = 0
    while count < BASEPOINT_PROBES:
        for cand in (Fraction(k), Fraction(-k)):
            if cand != Fraction(basepoint):
                yield cand
                count += 1
        k += 1


def _map_with_section(t: Triple, ambient, zc):
    """Chart and formulas of the term's map with a finite line factor."""
    for ch in ambient.charts:
        if ch.coords[-1] != zc:
            continue
        try:
            fs = t.map.formulas_on(ch.id)
        except ZeroDivisionError:
            continue
        return ch, fs
    raise HomotopyError(
        "term %s cannot be expressed with a finite line factor" % t.render()
    )


def section_pushforwards(a: PolarChain, basepoint=0) -> PolarChain:
    """Replace every term's line-factor map by the constant basepoint."""
    zc = _line_factor(a.ambient)
    idx = a.ambient.factors.index(zc)
    out = []
    for lam, t in a.terms:
        if t.degree == 0:
            pt = t.map.image_point()
            moved = VarietyPoint(pt.kind, tuple(
                Fraction(basepoint) if i == idx else u
                for i, u in enumerate(pt.data)
            ))
            m = VarietyMap.constant(t.source, a.ambient, moved)
            out.append((lam, Triple(t.source, m, t.form, t.declared_poles)))
            continue
        ch, fs = _map_with_section(t, a.ambient, zc)
        nf = {**fs, zc: RationalFunction.constant(t.source.main_chart.coords, basepoint)}
        out.append((lam, Triple(t.source, VarietyMap(t.source, a.ambient, ch.id, nf),
                                t.form, t.declared_poles)))
    return PolarChain(a.ambient, out, a.warnings)


def _section_rf(coords, zc, value):
    z = RationalFunction.variable(coords, zc)
    return z - RationalFunction.constant(coords, value)


def _kernel(cyl, zc, g_lift, c):
    """(1/(z-g) - 1/(z-c)), the partial-fraction form of the beta kernel."""
    coords = cyl.main_chart.coords
    one = RationalFunction.constant(coords, 1)
    z = RationalFunction.variable(coords, zc)
    return one / (z - g_lift) - one / _section_rf(coords, zc, c)


def _h_point_term(lam, t, ambient, zc, c):
    pt = t.map.image_point()
    idx = ambient.factors.index(zc)
    v = pt.data[idx]
    if v != INF and v == Fraction(c):
        return [], {"term": t.render(), "basepoint": str(c), "zero": True}
    weight = lam * term_weight(t)
    line = proj_line(zc)
    coords = (zc,)
    if v == INF:
        # limit of the kernel as the graph point escapes to infinity
        one = RationalFunction.constant(coords, 1)
        kernel = -(one / _section_rf(coords, zc, c))
        chart_pt = VarietyPoint(
            pt.kind,
            tuple(Fraction(0) if i == idx else u for i, u in enumerate(pt.data)),
        )
    else:
        kernel = _kernel(
            line, zc, RationalFunction.constant(coords, v), c
        )
        chart_pt = pt
    beta = DifferentialForm.d_coordinate(line.main_chart.id, coords, zc).multiply(
        kernel
    ).scale(weight / Polynomial.scalar(1, 1))
    chart, values = chart_pt.finite_chart(ambient)
    formulas = {}
    for coord, val in values.items():
        if coord == zc:
            formulas[coord] = RationalFunction.variable(coords, zc)
        else:
            formulas[coord] = RationalFunction.constant(coords, val)
    m = VarietyMap(line, ambient, chart.id, formulas)
    decl = [
        point_component(line, VarietyPoint.product_point([v])),
        point_component(line, VarietyPoint.product_point([Fraction(c)])),
    ]
    triple = make_triple(line, m, beta, decl)
    return [(Polynomial.scalar(1), triple)], {
        "term": t.render(), "basepoint": str(c), "repaired": False,
    }


def _lift_components(t: Triple, cyl, tname):
    """Vertical components of the cylinder over the poles of alpha."""
    out = []
    for comp in t.declared_poles:
        chart = comp.first_visible_chart()
        p = comp.poly_on(chart.id)
        new_var = tname if not chart.coords[0].endswith("_") else tname + "_"
        p = p.rename((new_var,))
        cyl_chart = next(ch for ch in cyl.charts if ch.coords[0] == new_var)
        out.append(
            DivisorComponent.from_chart_poly(
                cyl, cyl_chart.id, p.lift(cyl_chart.coords), comp.label
            )
        )
    return out


def _h_line_term(lam, t, ambient, zc, c):
    told = t.source.main_chart.coords[0]
    tname = told if told != zc else told + "s"
    cyl = product_of_lines([tname, zc])
    coords = cyl.main_chart.coords
    chart, fs = _map_with_section(t, ambient, zc)
    g = fs[zc]
    g_lift = g.rename((tname,)).lift(coords)
    c = Fraction(c)
    if g.num.is_constant() and g.den.is_constant():
        if g.constant_value().rational_value() == c:
            return [], {"term": t.render(), "basepoint": str(c), "zero": True}

    alpha = t.source.transition_form(t.form, t.source.main_chart.id)
    alpha_lift = DifferentialForm(
        cyl.main_chart.id, coords, 1,
        {(0,): alpha.coefficient((0,)).rename((tname,)).lift(coords)},
    ).scale(lam)
    dz = DifferentialForm.d_coordinate(cyl.main_chart.id, coords, zc)

    # map of the lifted term: base part from f, line factor untouched
    formulas = {}
    for coord, rf in fs.items():
        if coord == zc:
            formulas[coord] = RationalFunction.variable(coords, zc)
        else:
            formulas[coord] = rf.rename((tname,)).lift(coords)
    lifted_map = VarietyMap(cyl, ambient, chart.id, formulas)

    verticals = _lift_components(t, cyl, tname)
    z = RationalFunction.variable(coords, zc)
    graph_rf = z - g_lift
    graph = DivisorComponent.from_chart_poly(
        cyl, cyl.main_chart.id, graph_rf.num, "{z = g}"
    )
    for v in verticals:
        if v == graph:
            raise HomotopyError(
                "graph section coincides with a lifted pole component %s" % v.label
            )

    one = RationalFunction.constant(coords, 1)
    tau_inv = Polynomial.scalar(1, -1)
    for probe in _probe_sequence(c):
        section = DivisorComponent.from_chart_poly(
            cyl, cyl.main_chart.id, _section_rf(coords, zc, probe).num
        )
        if section == graph:
            continue
        decl = [section, graph] + verticals
        kernel = _kernel(cyl, zc, g_lift, probe)
        beta = dz.multiply(kernel).wedge(alpha_lift).scale(tau_inv)
        kept = prune_declared(beta, cyl, decl)
        # A probe needs normal crossing of all of decl, checked once: when
        # pruning keeps every component, make_triple checks that very set
        # and its ChainError rejects the probe.
        if len(kept) < len(decl) and not validate_normal_crossing(decl, cyl).ok:
            continue
        try:
            main = make_triple(cyl, lifted_map, beta, kept)
        except ChainError:
            continue
        terms = [(Polynomial.scalar(1), main)]
        repaired = probe != c
        if repaired:
            # beta(c) - beta(probe): only section and vertical poles remain
            diff_kernel = one / _section_rf(coords, zc, probe) - one / _section_rf(
                coords, zc, c
            )
            diff = dz.multiply(diff_kernel).wedge(alpha_lift).scale(tau_inv)
            base_section = DivisorComponent.from_chart_poly(
                cyl, cyl.main_chart.id, _section_rf(coords, zc, c).num
            )
            decl2 = [base_section, section] + verticals
            tail = make_triple(cyl, lifted_map, diff, prune_declared(diff, cyl, decl2))
            terms.append((Polynomial.scalar(1), tail))
        return terms, {
            "term": t.render(),
            "basepoint": str(probe),
            "repaired": repaired,
        }
    raise HomotopyError(
        "no admissible basepoint among probes for term %s" % t.render()
    )


def cylinder_homotopy(a: PolarChain, basepoint=0) -> CylinderChain:
    """The chain-level homotopy h applied termwise."""
    zc = _line_factor(a.ambient)
    terms = []
    records = []
    for lam, t in a.terms:
        if t.degree == 0:
            new, rec = _h_point_term(lam, t, a.ambient, zc, basepoint)
        elif t.degree == 1 and t.source.kind == "P1":
            new, rec = _h_line_term(lam, t, a.ambient, zc, basepoint)
        else:
            raise HomotopyError(
                "cylinder homotopy supports point and line sources, got %s"
                % t.source.name
            )
        terms.extend(new)
        records.append(rec)
    chain = PolarChain(a.ambient, terms, a.warnings)
    return CylinderChain(chain, Fraction(basepoint), records)


def verify_homotopy_identity(a: PolarChain, basepoint=0, rng=None):
    """Check boundary(h(a)) + h(boundary(a)) + s*pi*(a) - a == 0.

    `rng` is accepted and ignored: the check draws no random numbers, and
    the parameter stays only for callers that still pass one.
    """
    from .chains import boundary, normalize_chain

    h_a = cylinder_homotopy(a, basepoint)
    d_h = boundary(h_a.chain).chain
    d_a = boundary(a).chain
    h_d = cylinder_homotopy(d_a, basepoint)
    s_pi = section_pushforwards(a, basepoint)
    combo = d_h + h_d.chain + s_pi - a
    total = normalize_chain(combo)
    return {
        "zero": total.is_zero(),
        "residual": total,
        "dh": d_h,
        "hd": h_d.chain,
        "s_pi": normalize_chain(s_pi),
        "basepoint": str(h_a.basepoint),
        "records": h_a.records + h_d.records,
    }
