"""The cylinder homotopy on a product M x P1.

For a term (A, f, alpha) whose map hits the line factor through a
rational function g, the lifted term lives on A x P1 and carries

    beta = (1/TAU) * (g - c) dz / ((z - c)(z - g)) wedge alpha
         = (1/TAU) * (dz/(z - g) - dz/(z - c)) wedge alpha

where c is the basepoint playing the role of 0.  Its residues along the
two sections and the lifted vertical components reproduce alpha, -alpha
and the lifted residues, which is exactly what makes
boundary(h(a)) + h(boundary(a)) = a - section(projection(a)).

A basepoint c' is admissible for a line term when its candidate poles on
A x P1 = P1(t) x P1(z) are normal crossing: the section {z = c'}, the
graph {z = g} and the verticals {q(t) = 0} over the declared poles of
alpha.  `_probe_admissible` decides this exactly in the one variable t:

- The section and the graph are sections of the projection to t, so
  each is smooth and meets every fibre once, transversally.  Each
  vertical is a union of distinct reduced fibres: alpha's poles were
  certified normal crossing on A when its term was made.  Fibres are
  disjoint.  So only the section and the graph can meet badly, and a
  triple point is one of their meetings on a vertical.
- Over a pole of g, and over t = oo when deg num(g) > deg den(g), the
  graph passes through z = oo, where the section is not.  Elsewhere they
  meet at the roots of h = num(g) - c' den(g) (num and den are coprime,
  so den does not vanish there), with the root's multiplicity as the
  intersection multiplicity; at t = oo with multiplicity D - deg h, where
  D = max(deg num(g), deg den(g)).
- So the set is normal crossing exactly when h is not 0 (the section is
  not the graph), h is squarefree and D - deg h <= 1 (every meeting is
  transversal), h is coprime to every finite vertical q, and deg h = D
  when oo is a pole of alpha (no triple point).

If c is not admissible, 1, -1, 2, -2, ... are probed in turn and the term
is emitted as beta' plus (beta - beta'), whose only poles are the two
sections {z = c}, {z = c'} and the verticals: two disjoint horizontal
sections and fibres, normal crossing for every c' != c.  So each lifted
term needs only make_triple's pole checks (`chains._check_poles`).
"""

from fractions import Fraction

from .chains import (
    ChainError,
    PolarChain,
    Triple,
    _check_poles,
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
)
from .maps import VarietyMap
from .polynomials import Polynomial, RationalFunction, _coprime, is_squarefree, poly_gcd

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


def _with_line_value(pt: VarietyPoint, idx, value) -> VarietyPoint:
    """The point with its line-factor coordinate (slot idx) set to value."""
    return VarietyPoint(pt.kind, tuple(
        Fraction(value) if i == idx else u for i, u in enumerate(pt.data)
    ))


def section_pushforwards(a: PolarChain, basepoint=0) -> PolarChain:
    """Replace every term's line-factor map by the constant basepoint."""
    zc = _line_factor(a.ambient)
    idx = a.ambient.factors.index(zc)
    out = []
    for lam, t in a.terms:
        if t.degree == 0:
            moved = _with_line_value(t.map.image_point(), idx, basepoint)
            m = VarietyMap.constant(t.source, a.ambient, moved)
            out.append((lam, Triple(t.source, m, t.form, t.declared_poles)))
            continue
        ch, fs = _map_with_section(t, a.ambient, zc)
        nf = {**fs, zc: RationalFunction.constant(t.source.main_chart.coords, basepoint)}
        out.append((lam, Triple(t.source, VarietyMap(t.source, a.ambient, ch.id, nf),
                                t.form, t.declared_poles)))
    return PolarChain(a.ambient, out, a.warnings)


def _kernel(coords, zc, g, c):
    """1/(z - g) - 1/(z - c), the beta kernel, for g = n/d free of z and
    g != c, or its limit -1/(z - c) as g escapes to g = INF (n = 1,
    d = 0), in closed form: (n - d c) / ((d z - n)(z - c)).

    The fraction is reduced as it stands.  n - d c is free of z and not 0.
    A common factor of it and the denominator is then free of z, and so
    divides the denominator's content in z: the product of the contents
    of d z - n, which is gcd(n, d) = 1, and of the monic z - c.  So
    `_coprime` only divides out the lead of the denominator.
    """
    if g == INF:
        n, d = Polynomial.constant(coords, 1), Polynomial.zero(coords)
    else:
        n, d = g.num, g.den
    z = Polynomial.variable(coords, zc)
    c = Polynomial.constant(coords, c)
    return _coprime(n - d * c, (d * z - n) * (z - c))


def _record(t: Triple, basepoint, **verdict):
    return {"term": t.render(), "basepoint": str(basepoint), **verdict}


def _h_point_term(lam, t, ambient, zc, c):
    pt = t.map.image_point()
    idx = ambient.factors.index(zc)
    v = pt.data[idx]
    if v != INF and v == Fraction(c):
        return [], _record(t, c, zero=True)
    weight = lam * term_weight(t)
    line = proj_line(zc)
    coords = (zc,)
    g = INF if v == INF else RationalFunction.constant(coords, v)
    beta = DifferentialForm.d_coordinate(line.main_chart.id, coords, zc).multiply(
        _kernel(coords, zc, g, c)
    ).scale(weight / Polynomial.scalar(1, 1))
    # the first chart with a finite line factor, whose coordinate zc is the parameter
    chart, values = _with_line_value(pt, idx, 0).finite_chart(ambient)
    z = RationalFunction.variable(coords, zc)
    m = VarietyMap(line, ambient, chart.id, {
        coord: z if coord == zc else RationalFunction.constant(coords, val)
        for coord, val in values.items()
    })
    # the points v != c (v = c returned above): two distinct points of P1
    # are normal crossing, so only the pole checks are left
    decl = [point_component(line, VarietyPoint.product_point([u])) for u in (v, Fraction(c))]
    _check_poles(line, beta, decl)
    return [(Polynomial.scalar(1), Triple(line, m, beta, decl))], _record(t, c, repaired=False)


def _probe_admissible(g: RationalFunction, probe, poles) -> bool:
    """Are the section {z = probe}, the graph {z = g} and the verticals over
    `poles` (alpha's declared poles on P1(t)) normal crossing on
    P1(t) x P1(z)?  Exact, in t alone; the module docstring has the proof."""
    (tv,) = g.variables
    h = g.num - g.den.scale(probe)
    if h.is_zero():
        return False  # the section is the graph
    at_inf = max(g.num.degree_in(tv), g.den.degree_in(tv)) - h.degree_in(tv)
    if at_inf > 1:
        return False  # tangent at t = oo
    finite = []
    for comp in poles:
        main = comp.variety.main_chart.id
        if comp.visible_on(main):
            finite.append(comp.poly_on(main))
        elif at_inf:
            return False  # the section and the graph meet on the vertical t = oo
    return is_squarefree(h) and all(poly_gcd(h, q).is_unit() for q in finite)


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
    c = Fraction(c)
    if g.is_constant() and g.constant_value().rational_value() == c:
        return [], _record(t, c, zero=True)

    alpha = t.source.transition_form(t.form, t.source.main_chart.id)
    alpha_lift = DifferentialForm(
        cyl.main_chart.id, coords, 1,
        {(0,): alpha.coefficient((0,)).rename((tname,)).lift(coords)},
    ).scale(lam)
    dz = DifferentialForm.d_coordinate(cyl.main_chart.id, coords, zc)
    z = RationalFunction.variable(coords, zc)
    g_lift = g.rename((tname,)).lift(coords)
    # map of the lifted term: base part from f, line factor untouched
    lifted_map = VarietyMap(cyl, ambient, chart.id, {
        coord: z if coord == zc else rf.rename((tname,)).lift(coords)
        for coord, rf in fs.items()
    })
    verticals = _lift_components(t, cyl, tname)

    def section(value):
        return DivisorComponent.from_chart_poly(
            cyl, cyl.main_chart.id, (z - RationalFunction.constant(coords, value)).num
        )

    def lift(g_rf, value, decl):
        # beta for the kernel 1/(z - g_rf) - 1/(z - value), pole-checked
        # against all of decl, keeping the components it has poles on
        beta = dz.multiply(_kernel(coords, zc, g_rf, value)).wedge(alpha_lift)
        beta = beta.scale(Polynomial.scalar(1, -1))
        _check_poles(cyl, beta, decl)
        return Triple(cyl, lifted_map, beta, prune_declared(beta, cyl, decl))

    graph = DivisorComponent.from_chart_poly(
        cyl, cyl.main_chart.id, (z - g_lift).num, "{z = g}"
    )
    for probe in _probe_sequence(c):
        if not _probe_admissible(g, probe, t.declared_poles):
            continue
        probe_section = section(probe)
        try:
            terms = [lift(g_lift, probe, [probe_section, graph] + verticals)]
        except ChainError:
            continue
        if probe != c:
            # beta(c) - beta(probe): only section and vertical poles remain
            terms.append(lift(RationalFunction.constant(coords, probe), c,
                              [section(c), probe_section] + verticals))
        return ([(Polynomial.scalar(1), x) for x in terms],
                _record(t, probe, repaired=probe != c))
    raise HomotopyError("no admissible basepoint among probes for term %s" % t.render())


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
