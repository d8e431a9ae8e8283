"""The polar chain complex.

Chains are formal sums of triples (source variety, map into the
ambient, top-degree form with simple poles).  The boundary operator
sends a triple to TAU times the sum of its residues over the declared
pole components; the relations are scalar folding (R1), merging of
terms with a common image by summed pushforwards (R2), and dropping of
terms whose image has too small a dimension (R3).
"""

from fractions import Fraction

from .forms import DifferentialForm, polar_profile
from .geometry import (
    CatalogVariety,
    DivisorComponent,
    GeometryError,
    VarietyPoint,
    curve_reduce,
    lines_cross_normally,
    point_component,
    point_variety,
    proj_line,
    validate_normal_crossing,
)
from .maps import MapError, VarietyMap
from .polynomials import (
    Polynomial,
    RationalFunction,
    from_univariate,
    inverse_mod,
    poly_resultant,
    squarefree_part,
    to_univariate,
)
from .residue import (
    P1Form,
    ResidueError,
    classify_component,
    order_at_infinity,
    p1_pole_points,
    p1_points,
    poincare_residue,
)


class ChainError(ValueError):
    pass


# ---------------------------------------------------------------------------
# triples
# ---------------------------------------------------------------------------


class Triple:
    """One generator (A, f, alpha) with its declared pole components."""

    __slots__ = ("source", "map", "form", "declared_poles")

    def __init__(self, source, map_, form, declared_poles):
        self.source = source
        self.map = map_
        self.form = form
        self.declared_poles = tuple(declared_poles)

    @property
    def degree(self) -> int:
        return self.source.dimension

    def with_form(self, form: DifferentialForm) -> "Triple":
        return Triple(self.source, self.map, form, self.declared_poles)

    def key(self):
        return (
            self.source.signature(),
            self.map.key(),
            str(self.form),
            tuple(sorted(str(c.key()) for c in self.declared_poles)),
        )

    def merge_key(self):
        """Identity of (source, map) for structural merging."""
        return (self.source.signature(), self.map.key())

    def render(self) -> str:
        return "(%s, %s, %s)" % (self.source.name, self.map.describe(), self.form)

    def __repr__(self):
        return "Triple%s" % self.render()


def make_triple(source, map_, form, declared_poles, rng=None) -> Triple:
    """Validated triple; raises with the failing chart and component.

    Each object is checked once, on the first chart that shows it (see
    `validate_normal_crossing`): a declared component's pole order on its
    first visible chart, since the valuation does not depend on the
    chart; undeclared poles on the whole main chart, and on a later chart
    only along its new divisor {u = 0}.  The charts are taken in order,
    so the first failing chart is reported.

    `rng` is accepted and ignored: the checks draw no random numbers, and
    the parameter stays only for callers that still pass one.
    """
    if source.dimension > 2:
        raise ChainError(
            "polar chains are implemented up to dimension 2, not on %s" % source.name
        )
    if map_.source.signature() != source.signature():
        raise ChainError("map source does not match the triple's source variety")
    if form.degree != source.dimension:
        raise ChainError(
            "form degree %d does not match source dimension %d"
            % (form.degree, source.dimension)
        )
    declared_poles = tuple(declared_poles)
    if source.kind == "point":
        if declared_poles:
            raise ChainError("point sources carry no pole components")
        return Triple(source, map_, form, ())
    form = source.transition_form(form, source.main_chart.id)
    if source.kind == "curve":
        if declared_poles:
            raise ChainError(
                "curve sources only carry holomorphic forms (no declared poles)"
            )
        if not _curve_holomorphic(form, source):
            raise ChainError(
                "form on %s is not holomorphic; curve-source poles are unsupported"
                % source.name
            )
        return Triple(source, map_, form, ())
    for comp in declared_poles:
        if comp.variety.signature() != source.signature():
            raise ChainError(
                "pole component %s lives on a different variety" % comp.label
            )
    # distinct rational points of P1 are normal crossing (`residue.P1Form`),
    # and so are lines that `lines_cross_normally` certifies
    if source.kind != "P1" or p1_points(declared_poles) is None:
        if declared_poles and not lines_cross_normally(declared_poles, source):
            report = validate_normal_crossing(list(declared_poles), source)
            if not report.ok:
                raise ChainError("declared poles violate normal crossing: %s" % report.message())
        if source.kind == "P1":  # a pole must be a rational point: linear on its first chart
            for comp in declared_poles:
                if comp.poly_on(comp.first_visible_chart().id).total_degree() > 1:
                    raise ChainError("component %s has no rational point representation" % comp.label)
    _check_poles(source, form, declared_poles)
    return Triple(source, map_, form, declared_poles)


_NOT_SIMPLE = "pole of order %d along %s on chart %s (only simple poles allowed)"
_UNDECLARED = "undeclared pole components %s on chart %s"


def _check_poles(source, form, declared_poles):
    """`make_triple`'s pole checks alone, for a top-degree form on the main
    chart and declared components already known to be normal crossing.
    Raises ChainError naming the first failing chart.  On P1,
    `P1Form.poles_simple_and_declared` certifies a form whose declared
    poles are distinct rational points.  Otherwise: on the main chart each
    visible component's valuation, then `polar_profile`; then on each later
    chart whose new locus is one divisor {u = 0}, the form's order along it
    by degrees (`residue.order_at_infinity`), with the texts and chart
    order of a walk over the charts.  A component invisible on the main
    chart is u^k on its first visible chart, so u itself, being
    squarefree."""
    p1 = P1Form.on(form, source)
    if p1 is not None:
        points = p1_points(declared_poles)
        if points is not None and p1.poles_simple_and_declared(points):
            return
    main = source.main_chart
    polys = [c.poly_on(main.id) for c in declared_poles if c.visible_on(main.id)]
    for p in polys:
        o = form.pole_order(p)
        if o < -1:
            raise ChainError(_NOT_SIMPLE % (-o, p, main.id))
    residual = polar_profile(form, polys)
    if not residual.is_unit():
        raise ChainError(_UNDECLARED % (residual, main.id))
    if form.is_zero():
        return
    (f,) = form.components.values()
    for chart in source.charts[1:]:
        locus = source.new_locus(chart.id)
        if len(locus) != 1:
            continue  # a point: no component is first visible there
        u = Polynomial.variable(chart.coords, locus[0])
        o = order_at_infinity(source.kind, f, locus[0])
        if any(c.poly_on(chart.id) == u for c in declared_poles):
            if o < -1:
                raise ChainError(_NOT_SIMPLE % (-o, u, chart.id))
        elif o < 0:
            raise ChainError(_UNDECLARED % (u ** -o, chart.id))


def _curve_holomorphic(form: DifferentialForm, curve: CatalogVariety) -> bool:
    """Degree criterion for a 1-form c*dx on a smooth plane curve."""
    if form.is_zero():
        return True
    coords = curve.main_chart.coords
    x, y = coords
    a, b = form.coefficient((0,)), form.coefficient((1,))
    p = curve.curve_polys["A0"]
    px = RationalFunction.from_poly(p.differentiate(x))
    py = RationalFunction.from_poly(p.differentiate(y))
    # on the curve the form is c dx with c = a - b p_x/p_y; it is holomorphic
    # iff g = c p_y is a polynomial of degree <= d - 3 there
    try:
        g = curve_reduce(a * py - b * px, curve)
    except ZeroDivisionError:
        return False
    if not g:
        return True
    d = p.total_degree()
    total = 0
    for (k,), coeff in g.items():
        if coeff.denom.degree(0) > 0:
            return False
        total = max(total, coeff.numer.degree(0) + k)
    return total <= d - 3


def scalar_fold(lam: Polynomial, t: Triple) -> Triple:
    """Fold a scalar into the triple's form (relation R1)."""
    return t.with_form(t.form.scale(lam))


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


class PolarChain:
    """Formal sum of triples mapping into one ambient variety.

    Terms are (scalar, Triple) pairs; normalization folds every scalar
    to 1 and applies the relations.
    """

    __slots__ = ("ambient", "terms", "warnings")

    def __init__(self, ambient, terms=(), warnings=()):
        self.ambient = ambient
        fixed = []
        for item in terms:
            if isinstance(item, Triple):
                item = (Polynomial.scalar(1), item)
            lam, t = item
            if t.map.target.signature() != ambient.signature():
                raise ChainError("term maps into a different ambient variety")
            fixed.append((lam, t))
        self.terms = tuple(fixed)
        self.warnings = tuple(warnings)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PolarChain") -> "PolarChain":
        if other.ambient.signature() != self.ambient.signature():
            raise ChainError("cannot add chains on different ambient varieties")
        return PolarChain(
            self.ambient,
            self.terms + other.terms,
            self.warnings + other.warnings,
        )

    def __neg__(self) -> "PolarChain":
        minus = Polynomial.scalar(-1)
        return PolarChain(
            self.ambient,
            [(lam * minus, t) for lam, t in self.terms],
            self.warnings,
        )

    def __sub__(self, other):
        return self + (-other)

    def key(self):
        return (
            self.ambient.signature(),
            tuple(sorted((str(s), t.key()) for s, t in self.terms)),
        )

    def __eq__(self, other):
        return isinstance(other, PolarChain) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for lam, t in self.terms:
            if lam.is_one():
                parts.append(t.render())
            else:
                parts.append("%s*%s" % (lam, t.render()))
        return " + ".join(parts)

    def __repr__(self):
        return "PolarChain(%s)" % self.render()


def point_term(ambient, pt: VarietyPoint, weight: Polynomial) -> Triple:
    """0-dimensional generator: a weighted rational point of the ambient."""
    src = point_variety()
    m = VarietyMap.constant(src, ambient, pt)
    form = DifferentialForm.function("pt", (), RationalFunction.constant((), weight))
    return Triple(src, m, form, ())


def term_weight(t: Triple) -> Polynomial:
    """The scalar carried by a 0-dimensional term."""
    if t.degree != 0:
        raise ChainError("weights only defined for point terms")
    return t.form.coefficient(()).constant_value()


# ---------------------------------------------------------------------------
# pushforward (trace)
# ---------------------------------------------------------------------------


def _trace_p1(r: RationalFunction, a: RationalFunction, target_coord) -> RationalFunction:
    """Trace of a 1-form a dt along a non-constant rational map of lines.

    r is the map formula in the source coordinate t; the result is the
    coefficient of sum_i a(t_i)/r'(t_i) dw over the roots t_i of the fiber
    polynomial f(t) = num r(t) - w den r(t).  With c = a/r' reduced
    modulo f over Q(w), that sum is [t^(d-1)] (c f' mod f) / lc(f),
    d = deg f (the residue of c f'/f at infinity).
    """
    (t,) = r.variables
    w = (target_coord,)
    s = target_coord + "'"  # the source coordinate, renamed apart from w
    ext = (s, target_coord)

    def lift(p: Polynomial):
        return to_univariate(RationalFunction.from_poly(p.rename((s,)).lift(ext)), s)

    w_var = to_univariate(RationalFunction.variable(ext, target_coord), s)
    fiber = lift(r.num) - w_var * lift(r.den)
    d = fiber.degree()
    if d <= 0:
        raise MapError("trace along a constant map is undefined")
    if a.is_zero():
        return RationalFunction.constant(w, 0)
    dr = r.differentiate(t)
    num = (lift(a.num) * lift(dr.den)).rem(fiber)
    den = (lift(a.den) * lift(dr.num)).rem(fiber)
    if not den:
        raise MapError("trace denominator vanishes on the fiber")
    g = (num * inverse_mod(den, fiber) * fiber.diff(0)).rem(fiber)
    total = g.get((d - 1,), fiber.ring.domain.zero) / fiber.LC
    return from_univariate(fiber.ring(total), w)


def pushforward_form(map_: VarietyMap, form: DifferentialForm,
                     embed: VarietyMap, param) -> DifferentialForm:
    """Trace pushforward of one term's form onto the line embed.source.

    embed carries the line onto the term's image, and the line's
    coordinate stands for the coordinate param of embed's target chart.
    """
    if map_ == embed:
        return form
    source = map_.source
    if source.kind != "P1":
        raise MapError("pushforward outside the supported map family")
    try:
        r = map_.formulas_on(embed.target_chart)[param]
    except ZeroDivisionError:
        raise MapError("map image avoids the target's affine chart")
    a = source.transition_form(form, source.main_chart.id).coefficient((0,))
    line = embed.source.main_chart
    return DifferentialForm(line.id, line.coords, 1, {(0,): _trace_p1(r, a, line.coords[0])})


# ---------------------------------------------------------------------------
# image identification (for R2 and support)
# ---------------------------------------------------------------------------


def image_description(t: Triple, ambient: CatalogVariety):
    """Classify the image of a term's map.

    Returns ("point", VarietyPoint), ("dominant",), ("component",
    DivisorComponent) or ("opaque", key-string); equal images give equal
    descriptions.

    A map that carries its image (`VarietyMap.image`) gives it at once.  A
    line mapped into a surface by t -> (t, g(t)) on a chart (a, b) has the
    image {b*den(g)(a) - num(g)(a)}: with num and den coprime it is
    primitive of degree 1 in b, so irreducible.  Any other line mapped
    into a surface has the image {squarefree part of the resultant in t'}
    of the chart equations, the source coordinate renamed t' apart from
    the chart's.
    """
    if t.degree == 0:
        return ("point", t.map.image_point())
    m = t.map.canonical()
    if t.degree == ambient.dimension:
        return ("dominant",)
    if m.image is not None:
        return ("component", m.image)
    if t.degree == 1 and ambient.dimension == 2 and t.source.kind == "P1":
        coords = ambient.chart(m.target_chart).coords
        (tvar,) = t.source.main_chart.coords
        param = RationalFunction.variable((tvar,), tvar)
        graph = [c for c in coords if m.formulas[c] == param]
        # t is the chart coordinate a on a graph; else renamed apart, t'
        s, ext = (graph[0], coords) if graph else (tvar + "'", (tvar + "'",) + coords)
        polys = [Polynomial.variable(ext, c) * f.den.rename((s,)).lift(ext)
                 - f.num.rename((s,)).lift(ext) for c, f in m.formulas.items() if c != s]
        res = polys[0] if graph else poly_resultant(*polys, s)
        if not res.is_constant():
            if not graph:
                res = squarefree_part(res)
            return ("component", DivisorComponent.from_chart_poly(ambient, m.target_chart, res))
    elif t.degree == 1 and t.source.kind == "curve":
        poly = t.source.curve_polys["A0"]
        try:
            return ("component", DivisorComponent.from_chart_poly(ambient, "A0", poly))
        except GeometryError:
            pass
    return ("opaque", str(t.map.key()))


# ---------------------------------------------------------------------------
# normalization (R1/R2/R3)
# ---------------------------------------------------------------------------


def normalize_chain(c: PolarChain) -> PolarChain:
    """Canonical form: scalars folded, R3 pruned, coincident images merged."""
    warnings = list(c.warnings)

    # R1: fold every scalar into the form.
    folded = [scalar_fold(lam, t) for lam, t in c.terms if not lam.is_zero()]
    folded = [t for t in folded if not t.form.is_zero()]

    # structural merge: identical (source, map) pairs add their forms.
    by_struct = {}
    order = []
    for t in folded:
        k = t.merge_key()
        if k in by_struct:
            by_struct[k] = _merge_structural(by_struct[k], t)
        else:
            by_struct[k] = t
            order.append(k)
    terms = [by_struct[k] for k in order if not by_struct[k].form.is_zero()]

    # R3: drop terms whose image dimension falls below the degree.
    terms = [t for t in terms if _image_dimension_ok(t)]

    # R2: merge coincident images via summed pushforwards.
    groups = {}
    order = []
    for t in terms:
        desc = image_description(t, c.ambient)
        if desc not in groups:
            groups[desc] = []
            order.append(desc)
        groups[desc].append(t)
    out = []
    for desc in order:
        merged, warn = _merge_group(desc, groups[desc], c.ambient)
        out.extend(merged)
        warnings.extend(warn)

    out.sort(key=lambda t: t.key())
    return PolarChain(c.ambient, out, tuple(warnings))


def _image_dimension_ok(t: Triple) -> bool:
    """R3: the image of the term's map has dimension at least its degree."""
    if t.degree == 0:
        return True
    if t.map.is_constant():
        return False
    # a non-constant map has rank >= 1, so only degree >= 2 needs the rank
    return t.degree == 1 or t.map.jacobian_max_rank() >= t.degree


def _merge_structural(a: Triple, b: Triple) -> Triple:
    form = a.form + b.form
    decl = list(a.declared_poles)
    for comp in b.declared_poles:
        if comp not in decl:
            decl.append(comp)
    decl = prune_declared(form, a.source, decl)
    return make_triple(a.source, a.map, form, decl)


def prune_declared(form, source, declared):
    """The declared components along which the form still has a pole."""
    return [comp for comp in declared if _has_pole(form, source, comp)]


def _has_pole(form, source, comp):
    """Has the form a pole along the component?  At a rational point of P1,
    `P1Form.has_pole` decides it in the source coordinate; along a
    component first visible off the main chart of the form, the degree
    count `order_at_infinity`; elsewhere the worst pole order on the
    component's first chart is negative."""
    p1 = P1Form.on(form, source)
    if p1 is not None:
        points = p1_points([comp])
        if points is not None:
            return p1.has_pole(points[0])
    chart = comp.first_visible_chart()
    if form.chart == source.main_chart.id != chart.id:
        if form.is_zero():
            return False
        (u,) = source.new_locus(chart.id)
        (f,) = form.components.values()
        return order_at_infinity(source.kind, f, u) < 0
    local = source.transition_form(form, chart.id)
    return local.pole_order(comp.poly_on(chart.id)) < 0


def _merge_group(desc, members, ambient):
    """Merge one coincident-image group; returns (terms, warnings)."""
    if len(members) == 1:
        return members, []
    if desc[0] == "dominant" and ambient.kind == "P1":
        embed = VarietyMap.identity(ambient)
        try:
            return _merge_on_line(members, embed, ambient.main_chart.coords[0]), []
        except (MapError, ChainError, ResidueError) as e:
            return members, ["unmergeable coincident-image terms (%s)" % e]
    if desc[0] == "component":
        try:
            shape = classify_component(desc[1], ambient)
            if shape[0] == "graph":
                return _merge_on_line(members, shape[3], shape[2]), []
        except (MapError, ChainError, ResidueError):
            pass
        return members, [
            "unmergeable coincident-image terms on %s" % desc[1].label
        ]
    return members, ["unmergeable coincident-image terms on %s" % ambient.name]


def _merge_on_line(members, embed, param):
    """R2 onto a line: the members' traces onto embed.source, summed.

    Returns the merged term, or no term when the traces cancel; raises
    MapError, ChainError or ResidueError when a member cannot be traced
    or the sum is no valid triple.
    """
    line = embed.source
    total = DifferentialForm.zero(line.main_chart.id, line.main_chart.coords, 1)
    for t in members:
        total = total + pushforward_form(t.map, t.form, embed, param)
    if total.is_zero():
        return []
    return [make_triple(line, embed, total, _infer_p1_poles(total, line))]


def _infer_p1_poles(form: DifferentialForm, line: CatalogVariety):
    return [point_component(line, pt) for pt in p1_pole_points(form, line)]


# ---------------------------------------------------------------------------
# boundary operator
# ---------------------------------------------------------------------------


class BoundaryResult:
    """A boundary chain plus per-term provenance records.

    The records render every parent and residue form, which only a
    report reads, so they are built on first access to `provenance`.
    """

    __slots__ = ("chain", "raw_terms", "_sources", "_provenance")

    def __init__(self, chain, sources, raw_terms):
        self.chain = chain
        self._sources = list(sources)  # (parent Triple, component, ResidueResult)
        self._provenance = None
        self.raw_terms = list(raw_terms)

    @property
    def provenance(self):
        if self._provenance is None:
            self._provenance = [
                {
                    "parent": t.render(),
                    "component": comp.label,
                    "residue": str(res.form),
                    "scalar": "TAU",
                }
                for t, comp, res in self._sources
            ]
        return self._provenance


def _residue_term(parent: Triple, comp: DivisorComponent):
    """The residue along comp and its term.  A point residue, on a P1
    source, goes straight through the parent's map (`image_at`); where that
    has no rational image, through `compose` and its chart search."""
    res = poincare_residue(parent.form, comp, parent.source)
    if res.kind == "scalar":
        image = parent.map.image_at(res.point.data[0])
        if image is None:
            image = parent.map.compose(res.embed).image_point()
        embed = VarietyMap.constant(res.target, parent.map.target, image)
        return res, Triple(res.target, embed, res.form, ())
    embed = parent.map.compose(res.embed)
    decl = _infer_p1_poles(res.form, res.target) if res.kind == "line" else ()
    return res, make_triple(res.target, embed, res.form, decl)


def boundary(c: PolarChain) -> BoundaryResult:
    """TAU times the sum of residues over every simple-pole component."""
    raw = []
    sources = []
    for lam, parent in c.terms:
        t = scalar_fold(lam, parent)
        if t.degree == 0 or t.source.kind == "curve" or t.form.is_zero():
            continue
        for comp in t.declared_poles:
            if not _has_pole(t.form, t.source, comp):
                continue
            res, term = _residue_term(t, comp)
            raw.append((Polynomial.scalar(1, 1), term))
            sources.append((t, comp, res))
    chain = normalize_chain(PolarChain(c.ambient, raw))
    return BoundaryResult(chain, sources, raw)


def check_d_squared(c: PolarChain):
    """Apply the boundary twice and report the pairwise cancellations."""
    first = boundary(c)
    second = boundary(first.chain)
    cancellations = []
    by_point = {}
    for lam, t in second.raw_terms:
        if t.degree != 0:
            continue
        pt = t.map.image_point()
        by_point.setdefault(pt, []).append(lam * term_weight(t))
    for pt, weights in sorted(by_point.items(), key=lambda kv: kv[0].sort_key()):
        total = Polynomial.scalar(0)
        for w in weights:
            total = total + w
        cancellations.append({
            "point": str(pt),
            "weights": [str(w) for w in weights],
            "total": str(total),
        })
    return {
        "zero": second.chain.is_zero(),
        "boundary": first.chain,
        "second": second.chain,
        "cancellations": cancellations,
    }


# ---------------------------------------------------------------------------
# support and cycles
# ---------------------------------------------------------------------------


def support(c: PolarChain):
    """Image descriptions of the terms of the canonical form."""
    n = normalize_chain(c)
    out = []
    for _, t in n.terms:
        desc = image_description(t, n.ambient)
        if desc[0] == "point":
            out.append("point %s" % desc[1])
        elif desc[0] == "dominant":
            out.append(n.ambient.name)
        elif desc[0] == "component":
            out.append(desc[1].label)
        else:
            out.append("image of %s" % t.render())
    return out


def is_cycle(c: PolarChain):
    """(flag, boundary): whether the chain's normalized boundary is zero."""
    b = boundary(c).chain
    return b.is_zero(), b


# ---------------------------------------------------------------------------
# boundary witness on the line
# ---------------------------------------------------------------------------


def boundary_witness_p1(zero_cycle, line=None) -> PolarChain:
    """A 1-chain whose boundary is the given zero-sum 0-chain on P1.

    zero_cycle: list of (rational point value, scalar weight).
    """
    if line is None:
        line = proj_line("z")
    coord = line.main_chart.coords[0]
    coords = (coord,)
    total = Polynomial.scalar(0)
    entries = []
    for value, weight in zero_cycle:
        total = total + weight
        if not weight.is_zero():
            entries.append((Fraction(value), weight))
    if not total.is_zero():
        raise ChainError(
            "total weight %s is nonzero: no boundary witness exists" % total
        )
    if not entries:
        return PolarChain(line)
    form = DifferentialForm.zero(line.main_chart.id, coords, 1)
    tau_inv = Polynomial.scalar(1, -1)
    z = Polynomial.variable(coords, coord)
    decl = []
    for value, weight in entries:
        p = z - Polynomial.constant(coords, value)
        term = RationalFunction(
            Polynomial.constant(coords, weight * tau_inv), p
        )
        form = form + DifferentialForm(line.main_chart.id, coords, 1, {(0,): term})
        decl.append(DivisorComponent.from_chart_poly(line, line.main_chart.id, p))
    t = make_triple(line, VarietyMap.identity(line), form, decl)
    chain = PolarChain(line, [t])
    expected = PolarChain(
        line,
        [point_term(line, VarietyPoint.product_point([v]), w) for v, w in entries],
    )
    got = boundary(chain)
    if got.chain != normalize_chain(expected):
        raise ChainError("internal witness verification failed")
    return chain
