"""Catalog of desk-scale varieties and their divisor components.

Supported kinds: a point, the projective line, finite products of
projective lines, the projective plane, and smooth plane curves (taken
with their projective closure).  Each variety carries explicit affine
charts with exact rational transition maps; a divisor component is a
chart-wise family of defining polynomials compatible under transitions.
Transversality and smoothness are decided by exact resultant
elimination on two-dimensional charts, where a rejection names a
rational witness point.  On product charts of higher dimension, normal
crossing is decided by unit-ideal certificates (Hilbert's
Nullstellensatz): components meet transversally when their polynomials
and the maximal minors of their Jacobian generate the unit ideal.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from sympy.polys.groebnertools import groebner
from sympy.polys.matrices import DomainMatrix

from .forms import DifferentialForm
from .polynomials import (
    Polynomial,
    RationalFunction,
    is_squarefree,
    over_tau_field,
    poly_gcd,
    poly_resultant,
    rational_roots,
    to_univariate,
)
from .scalars import Scalar

INF = "inf"  # point-at-infinity marker in a P1 factor


class GeometryError(ValueError):
    pass


class Chart:
    __slots__ = ("id", "coords")

    def __init__(self, id, coords):
        self.id = id
        self.coords = tuple(coords)

    @property
    def dimension(self):
        return len(self.coords)

    def __repr__(self):
        return "Chart(%s)" % self.id


class CatalogVariety:
    """Immutable catalog variety with charts and transitions.

    coord_maps[(A, B)] maps every coordinate of chart A to its
    expression as a RationalFunction in chart B's coordinates.
    """

    def __init__(self, kind, name, charts, coord_maps, dimension, factors=(), curve_polys=None):
        self.kind = kind  # "point" | "P1" | "product" | "P2" | "curve"
        self.name = name
        self.charts = list(charts)
        self.coord_maps = dict(coord_maps)
        self.dimension = dimension
        self.factors = tuple(factors)  # main coordinate per P1 factor
        self.curve_polys = dict(curve_polys or {})

    @property
    def main_chart(self) -> Chart:
        return self.charts[0]

    def chart(self, chart_id) -> Chart:
        for c in self.charts:
            if c.id == chart_id:
                return c
        raise GeometryError("unknown chart %r on %s" % (chart_id, self.name))

    def coord_map(self, from_id, to_id):
        if from_id == to_id:
            ch = self.chart(from_id)
            return {v: RationalFunction.variable(ch.coords, v) for v in ch.coords}
        key = (from_id, to_id)
        if key not in self.coord_maps:
            raise GeometryError("no transition %s -> %s on %s" % (from_id, to_id, self.name))
        return self.coord_maps[key]

    def transition_form(self, form: DifferentialForm, to_id) -> DifferentialForm:
        """Express a form given on one chart in another (itself on its own chart).

        Computed once per (form, variety, chart): the result is kept in the
        form's memo."""
        if form.chart == to_id:
            return form

        def pullback():
            to_chart = self.chart(to_id)
            mapping = self.coord_map(form.chart, to_id)
            return form.pullback(mapping, to_id, to_chart.coords)

        return form.memoized(("transition", self.signature(), to_id), pullback)

    def __eq__(self, other):
        return isinstance(other, CatalogVariety) and self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

    def signature(self):
        extra = tuple(sorted((cid, p) for cid, p in self.curve_polys.items()))
        return (self.kind, tuple(c.coords for c in self.charts), extra)

    def __repr__(self):
        return "CatalogVariety(%s)" % self.name


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def point_variety() -> CatalogVariety:
    return CatalogVariety("point", "Point", [Chart("pt", ())], {}, 0)


def proj_line(coord="z") -> CatalogVariety:
    return _product_core([coord], kind="P1", name="P1(%s)" % coord)


def product_of_lines(coords) -> CatalogVariety:
    coords = list(coords)
    if len(coords) == 1:
        return proj_line(coords[0])
    name = " x ".join("P1(%s)" % c for c in coords)
    return _product_core(coords, kind="product", name=name)


def _inv_name(coord):
    return coord + "_"


def _product_core(coords, kind, name):
    if len(set(coords)) != len(coords):
        raise GeometryError("duplicate coordinate names %s" % coords)
    for c in coords:
        if c.endswith("_"):
            raise GeometryError("coordinate name %r reserved for the infinity chart" % c)
    k = len(coords)
    charts = []
    masks = list(itertools.product((False, True), repeat=k))
    for mask in masks:
        names = tuple(_inv_name(c) if inv else c for c, inv in zip(coords, mask))
        charts.append(Chart("|".join(names), names))
    coord_maps = {}
    for ma in masks:
        for mb in masks:
            if ma == mb:
                continue
            ca = charts[masks.index(ma)]
            cb = charts[masks.index(mb)]
            mapping = {}
            for i in range(k):
                va, vb = ca.coords[i], cb.coords[i]
                target = RationalFunction.variable(cb.coords, vb)
                if ma[i] != mb[i]:
                    one = RationalFunction.constant(cb.coords, Scalar.one())
                    target = one / target
                mapping[va] = target
            coord_maps[(ca.id, cb.id)] = mapping
    return CatalogVariety(kind, name, charts, coord_maps, k, factors=tuple(coords))


def _p2_charts(x, y):
    """Charts of P2 in homogeneous coords [X0:X1:X2], (x,y)=(X1/X0,X2/X0)."""
    a0 = Chart("A0", (x, y))
    a1 = Chart("A1", (x + "1", y + "1"))  # (X0/X1, X2/X1)
    a2 = Chart("A2", (x + "2", y + "2"))  # (X1/X2, X0/X2)
    return a0, a1, a2


def _p2_coord_maps(a0, a1, a2):
    x, y = a0.coords
    x1, y1 = a1.coords
    x2, y2 = a2.coords

    def v(ch, n):
        return RationalFunction.variable(ch.coords, n)

    def inv(rf):
        one = RationalFunction.constant(rf.variables, Scalar.one())
        return one / rf

    maps = {}
    maps[("A0", "A1")] = {x: inv(v(a1, x1)), y: v(a1, y1) / v(a1, x1)}
    maps[("A1", "A0")] = {x1: inv(v(a0, x)), y1: v(a0, y) / v(a0, x)}
    maps[("A0", "A2")] = {x: v(a2, x2) / v(a2, y2), y: inv(v(a2, y2))}
    maps[("A2", "A0")] = {x2: v(a0, x) / v(a0, y), y2: inv(v(a0, y))}
    maps[("A1", "A2")] = {x1: v(a2, y2) / v(a2, x2), y1: inv(v(a2, x2))}
    maps[("A2", "A1")] = {x2: inv(v(a1, y1)), y2: v(a1, x1) / v(a1, y1)}
    return maps


def proj_plane(x="x", y="y") -> CatalogVariety:
    a0, a1, a2 = _p2_charts(x, y)
    names = {x, y, *a1.coords, *a2.coords}
    if len(names) != 6:
        raise GeometryError("coordinate names collide with chart suffixes")
    maps = _p2_coord_maps(a0, a1, a2)
    return CatalogVariety("P2", "P2(%s,%s)" % (x, y), [a0, a1, a2], maps, 2)


def plane_curve(p: Polynomial) -> CatalogVariety:
    """Smooth plane curve in P2, defined by p on the affine chart."""
    if len(p.variables) != 2:
        raise GeometryError("plane curve needs a polynomial in two variables")
    x, y = p.variables
    if not p.depends_on(y):
        raise GeometryError("defining polynomial must depend on %s" % y)
    if not is_squarefree(p):
        raise GeometryError("defining polynomial is not squarefree")
    a0, a1, a2 = _p2_charts(x, y)
    maps = _p2_coord_maps(a0, a1, a2)
    curve_polys = {"A0": p}
    for cid in ("A1", "A2"):
        rf = p.substitute(maps[("A0", cid)])
        curve_polys[cid] = _unit_normalize(rf.num)
    for cid, q in curve_polys.items():
        sing = _singular_points_2d(q)
        if sing is not None:
            raise GeometryError(
                "curve is singular (chart %s, witness %s)" % (cid, sing)
            )
    name = "Curve(%s)" % p
    return CatalogVariety(
        "curve", name, [a0, a1, a2], maps, 1, curve_polys=curve_polys
    )


def _unit_normalize(p: Polynomial) -> Polynomial:
    if p.is_zero():
        return p
    _, lead = p.leading()
    return p.scale(lead.inverse())


def catalog_build(spec: str) -> CatalogVariety:
    """Variety mini-syntax: P1(z), P1(z1) x P1(z2), P2(x,y), Curve(p(x,y))."""
    from .parsing import parse_polynomial

    s = spec.strip()
    if s.startswith("Curve(") and s.endswith(")"):
        return plane_curve(parse_polynomial(s[6:-1]))
    parts = [part.strip() for part in s.split(" x ")]
    if len(parts) > 1:
        coords = []
        for part in parts:
            if not (part.startswith("P1(") and part.endswith(")")):
                raise GeometryError("products may only combine P1 factors: %r" % part)
            coords.append(part[3:-1].strip())
        return product_of_lines(coords)
    if s.startswith("P1(") and s.endswith(")"):
        return proj_line(s[3:-1].strip())
    if s.startswith("P2(") and s.endswith(")"):
        names = [t.strip() for t in s[3:-1].split(",")]
        if len(names) != 2:
            raise GeometryError("P2 takes two coordinate names")
        return proj_plane(*names)
    if s == "Point":
        return point_variety()
    raise GeometryError("unsupported variety spec %r" % spec)


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


class VarietyPoint:
    """Canonical rational point of a catalog variety.

    Products store a tuple with Fraction or INF per factor; P2 and
    curves store a normalized homogeneous triple [X0:X1:X2].
    """

    __slots__ = ("kind", "data")

    def __init__(self, kind, data):
        self.kind = kind
        self.data = tuple(data)

    @staticmethod
    def product_point(values) -> "VarietyPoint":
        return VarietyPoint("product", tuple(
            v if v == INF else Fraction(v) for v in values
        ))

    @staticmethod
    def plane_point(triple) -> "VarietyPoint":
        triple = [Fraction(t) for t in triple]
        if all(t == 0 for t in triple):
            raise GeometryError("invalid homogeneous triple")
        for t in triple:
            if t != 0:
                triple = [u / t for u in triple]
                break
        return VarietyPoint("plane", tuple(triple))

    def finite_chart(self, variety: CatalogVariety):
        """(chart, {coord: Fraction}) for the first chart containing the point."""
        if variety.kind == "point":
            return variety.main_chart, {}
        if variety.kind in ("P1", "product"):
            for mask_chart in variety.charts:
                values = {}
                ok = True
                for coord, v in zip(mask_chart.coords, self.data):
                    if coord.endswith("_"):
                        if v == INF:
                            values[coord] = Fraction(0)
                        elif v == 0:
                            ok = False
                            break
                        else:
                            values[coord] = 1 / Fraction(v)
                    else:
                        if v == INF:
                            ok = False
                            break
                        values[coord] = Fraction(v)
                if ok:
                    return mask_chart, values
            raise GeometryError("point %s has no finite chart" % (self,))
        # plane kinds
        X0, X1, X2 = self.data
        if X0 != 0:
            ch = variety.chart("A0")
            return ch, {ch.coords[0]: X1 / X0, ch.coords[1]: X2 / X0}
        if X1 != 0:
            ch = variety.chart("A1")
            return ch, {ch.coords[0]: X0 / X1, ch.coords[1]: X2 / X1}
        ch = variety.chart("A2")
        return ch, {ch.coords[0]: X1 / X2, ch.coords[1]: X0 / X2}

    def sort_key(self):
        def k(v):
            return (1,) if v == INF else (0, v)

        return (self.kind, tuple(k(v) for v in self.data))

    def __eq__(self, other):
        return (
            isinstance(other, VarietyPoint)
            and self.kind == other.kind
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.kind, self.data))

    def __repr__(self):
        return "VarietyPoint(%s)" % (self,)

    def __str__(self):
        if self.kind == "plane":
            return "[%s]" % ":".join(str(t) for t in self.data)
        return "(%s)" % ", ".join("inf" if v == INF else str(v) for v in self.data)


def point_from_chart(variety: CatalogVariety, chart_id, values: dict) -> VarietyPoint:
    """Canonical point from exact chart coordinates."""
    chart = variety.chart(chart_id)
    if variety.kind == "point":
        return VarietyPoint("product", ())
    if variety.kind in ("P1", "product"):
        out = []
        for coord in chart.coords:
            v = Fraction(values[coord])
            if coord.endswith("_"):
                out.append(INF if v == 0 else 1 / v)
            else:
                out.append(v)
        return VarietyPoint.product_point(out)
    a, b = (Fraction(values[c]) for c in chart.coords)
    if chart_id == "A0":
        return VarietyPoint.plane_point((1, a, b))
    if chart_id == "A1":
        return VarietyPoint.plane_point((a, 1, b))
    return VarietyPoint.plane_point((b, a, 1))


# ---------------------------------------------------------------------------
# divisor components
# ---------------------------------------------------------------------------


class DivisorComponent:
    """Chart-wise defining polynomials of one divisor component."""

    __slots__ = ("variety", "polys", "label")

    def __init__(self, variety, polys, label):
        self.variety = variety
        self.polys = dict(polys)
        self.label = label

    @staticmethod
    def from_chart_poly(variety: CatalogVariety, chart_id, poly: Polynomial, label=None):
        chart = variety.chart(chart_id)
        if poly.variables != chart.coords:
            poly = poly.lift(chart.coords)
        if poly.is_constant():
            raise GeometryError("defining polynomial must be nonconstant")
        poly = _unit_normalize(poly)
        polys = {chart_id: poly}
        for other in variety.charts:
            if other.id == chart_id:
                continue
            mapping = variety.coord_map(chart_id, other.id)
            rf = poly.substitute(mapping)
            q = _unit_normalize(rf.num)
            if q.is_constant():
                q = Polynomial.constant(other.coords, Scalar.one())
            polys[other.id] = q
        if label is None:
            label = "{%s}" % poly
        return DivisorComponent(variety, polys, label)

    def poly_on(self, chart_id) -> Polynomial:
        return self.polys[chart_id]

    def visible_on(self, chart_id) -> bool:
        return not self.polys[chart_id].is_constant()

    def first_visible_chart(self):
        for c in self.variety.charts:
            if self.visible_on(c.id):
                return c
        raise GeometryError("component %s visible on no chart" % self.label)

    def contains_point(self, pt: VarietyPoint) -> bool:
        chart, values = pt.finite_chart(self.variety)
        p = self.polys[chart.id]
        if p.is_constant():
            return False
        return p.evaluate(values).is_zero()

    def key(self):
        return tuple(sorted((cid, p) for cid, p in self.polys.items()))

    def __eq__(self, other):
        return isinstance(other, DivisorComponent) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "DivisorComponent(%s)" % self.label


def point_component(variety: CatalogVariety, pt: VarietyPoint, label=None) -> DivisorComponent:
    """Divisor component cutting one rational point on a 1-dim variety."""
    if variety.dimension != 1:
        raise GeometryError("point components only on 1-dimensional varieties")
    chart, values = pt.finite_chart(variety)
    (coord,) = chart.coords[:1] if variety.kind == "P1" else (chart.coords[0],)
    if variety.kind != "P1":
        raise GeometryError("point components only supported on P1 sources")
    v = Polynomial.variable(chart.coords, coord)
    c = Polynomial.constant(chart.coords, Scalar.of(values[coord]))
    return DivisorComponent.from_chart_poly(variety, chart.id, v - c, label)


# ---------------------------------------------------------------------------
# exact 2D elimination
# ---------------------------------------------------------------------------


def _resultant_eliminate(polys, var):
    """Resultants of the first poly depending on var against the rest."""
    pivot = None
    others = []
    for p in polys:
        if pivot is None and p.depends_on(var):
            pivot = p
        else:
            others.append(p)
    if pivot is None:
        return [_drop_var(p, var) for p in polys]
    out = []
    for p in others:
        if p.depends_on(var):
            out.append(poly_resultant(pivot, p, var))
        else:
            out.append(_drop_var(p, var))
    if not out:
        out.append(_drop_var_keep(pivot, var))
    return out


def _drop_var(p: Polynomial, var):
    rest = tuple(v for v in p.variables if v != var)
    i = p.variables.index(var)
    out = {}
    for e, c in p.terms.items():
        if e[i] != 0:
            raise GeometryError("cannot drop live variable %s" % var)
        ne = tuple(x for j, x in enumerate(e) if j != i)
        out[ne] = c
    return Polynomial(rest, out)


def _drop_var_keep(p, var):
    rest = tuple(v for v in p.variables if v != var)
    return Polynomial.constant(rest, Scalar.one())


def common_zeros_2d(polys, coords):
    """Common rational zeros of a 2-variable system.

    Returns (points, complete): `points` is a list of (Fraction, Fraction);
    `complete` is False when elimination left an irrational factor whose
    zeros could not be enumerated.
    """
    x, y = coords
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return [], False
    elim = [p for p in _resultant_eliminate(polys, y) if not p.is_zero()]
    if not elim:
        return [], False
    g = elim[0]
    for p in elim[1:]:
        g = poly_gcd(g, p)
    if g.is_unit():
        return [], True
    roots, split = rational_roots(g)
    pts = []
    complete = split
    for x0, _ in roots:
        specialized = []
        for p in polys:
            q = _specialize(p, x, x0)
            specialized.append(q)
        if any(q.is_zero() for q in specialized):
            nonzero = [q for q in specialized if not q.is_zero()]
            if not nonzero:
                return [], False
            specialized = nonzero
        gy = specialized[0]
        for q in specialized[1:]:
            gy = poly_gcd(gy, q)
        if gy.is_unit():
            continue
        yroots, ysplit = rational_roots(gy)
        complete = complete and ysplit
        for y0, _ in yroots:
            pts.append((x0, y0))
    return pts, complete


def _specialize(p: Polynomial, var, value) -> Polynomial:
    rest = tuple(v for v in p.variables if v != var)
    i = p.variables.index(var)
    out = {}
    val = Fraction(value)
    for e, c in p.terms.items():
        ne = tuple(x for j, x in enumerate(e) if j != i)
        scaled = c * Scalar.of(val ** e[i])
        cur = out.get(ne)
        out[ne] = scaled if cur is None else cur + scaled
    return Polynomial(rest, out)


def _singular_points_2d(p: Polynomial):
    """A witness singular point of {p=0}, or None if certified smooth."""
    x, y = p.variables
    px = p.differentiate(x)
    py = p.differentiate(y)
    pts, complete = common_zeros_2d([p, px, py], (x, y))
    if pts:
        return pts[0]
    if complete:
        return None
    # retry with the roles of the variables swapped
    swapped = [q.rename((y, x)).lift((x, y)) for q in (p, px, py)]
    pts2, complete2 = common_zeros_2d(swapped, (x, y))
    if pts2:
        x0, y0 = pts2[0]
        return (y0, x0)
    if complete2:
        return None
    raise GeometryError(
        "cannot certify smoothness of %s: irrational candidate locus" % p
    )


# ---------------------------------------------------------------------------
# normal crossing validation
# ---------------------------------------------------------------------------


class NCReport:
    def __init__(self):
        self.ok = True
        self.failures = []  # list of dicts {reason, chart, members, witness}

    def fail(self, reason, chart, members, witness=None):
        self.ok = False
        self.failures.append(
            {
                "reason": reason,
                "chart": chart,
                "members": [m.label for m in members],
                "witness": str(witness) if witness is not None else None,
            }
        )

    def message(self):
        if self.ok:
            return "normal crossing: accepted"
        lines = ["normal crossing: rejected"]
        for f in self.failures:
            lines.append(
                "  %s on chart %s: %s (witness %s)"
                % (f["reason"], f["chart"], ", ".join(f["members"]), f["witness"])
            )
        return "\n".join(lines)


def validate_normal_crossing(components, variety: CatalogVariety) -> NCReport:
    report = NCReport()
    components = list(components)
    for comp in components:
        if comp.variety is not variety and comp.variety != variety:
            raise GeometryError("component %s lives on a different variety" % comp.label)
    for chart in variety.charts:
        visible = [c for c in components if c.visible_on(chart.id)]
        polys = [c.poly_on(chart.id) for c in visible]
        for c, p in zip(visible, polys):
            if not is_squarefree(p):
                report.fail("component not squarefree", chart.id, [c], p)
        coprime = []
        for pair in itertools.combinations(zip(visible, polys), 2):
            (c1, p1), (c2, p2) = pair
            g = poly_gcd(p1, p2)
            if g.is_unit():
                coprime.append(pair)
            else:
                report.fail("components share a factor", chart.id, [c1, c2], g)
        if chart.dimension == 2:
            _check_pairs_2d(coprime, chart, report)
            _check_triples_2d(visible, polys, chart, report)
        elif chart.dimension > 2:
            _check_unit_ideals(visible, polys, chart, report)
    return report


def _jacobian_minor(p, q, coords):
    x, y = coords
    return p.differentiate(x) * q.differentiate(y) - p.differentiate(y) * q.differentiate(x)


def _check_pairs_2d(coprime, chart, report):
    """Transversality of each coprime pair ((c1, p1), (c2, p2))."""
    for (c1, p1), (c2, p2) in coprime:
        J = _jacobian_minor(p1, p2, chart.coords)
        pts, complete = common_zeros_2d([p1, p2, J], chart.coords)
        if pts:
            report.fail("tangential intersection", chart.id, [c1, c2], pts[0])
        elif not complete:
            report.fail(
                "cannot certify transversality (irrational locus)",
                chart.id,
                [c1, c2],
                "resultant does not split over Q",
            )


def _check_triples_2d(visible, polys, chart, report):
    for trio in itertools.combinations(zip(visible, polys), 3):
        comps = [t[0] for t in trio]
        ps = [t[1] for t in trio]
        pts, complete = common_zeros_2d(ps, chart.coords)
        if pts:
            report.fail(
                "three components through one point in dimension 2",
                chart.id,
                comps,
                pts[0],
            )
        elif not complete:
            report.fail(
                "cannot certify triple-point freeness (irrational locus)",
                chart.id,
                comps,
                "resultant does not split over Q",
            )


def _check_unit_ideals(visible, polys, chart, report):
    """Normal crossing on a chart of dimension n > 2, by unit ideals.

    A set S of at most n components meets transversally exactly when p_S
    and all |S| x |S| minors of their Jacobian have no common zero, and
    n + 1 components share no point exactly when p_S have none; by the
    Nullstellensatz, when those polynomials generate the unit ideal.  They
    live in QQ(TAU)[coords], where TAU is a coefficient, not a variable.
    """
    if len(polys) < 2:
        return
    n = chart.dimension
    gens = [over_tau_field(p) for p in polys]
    ring = gens[0].ring
    for k in range(2, n + 2):
        for members in itertools.combinations(range(len(visible)), k):
            ideal = [gens[i] for i in members]
            if k <= n:
                jac = DomainMatrix(
                    [[g.diff(x) for x in ring.gens] for g in ideal], (k, n),
                    ring.to_domain(),
                )
                rows = list(range(k))
                for cols in itertools.combinations(range(n), k):
                    ideal.append(jac.extract(rows, list(cols)).det())
                reason = "components do not meet transversally"
            else:
                reason = "%d components through one point in dimension %d" % (k, n)
            basis = groebner([g for g in ideal if g], ring)
            if basis != [ring.one]:
                report.fail(
                    reason, chart.id, [visible[i] for i in members],
                    "Groebner basis [%s]" % ", ".join(
                        str(g).replace("**", "^") for g in basis
                    ),
                )


# ---------------------------------------------------------------------------
# curve quotient-ring arithmetic
# ---------------------------------------------------------------------------


def curve_reduce(rf: RationalFunction, curve: CatalogVariety):
    """Canonical representative of rf in the curve's function ring Q(x)[y]/(p).

    Returned as the remainder modulo p, of y-degree below p's, in
    PolyRing([y], QQ(x, TAU)).
    """
    x, y = curve.main_chart.coords
    if rf.variables != (x, y):
        rf = rf.lift((x, y))

    def in_y(p):
        return to_univariate(RationalFunction.from_poly(p), y)

    m = in_y(curve.curve_polys["A0"])
    num, den = in_y(rf.num).rem(m), in_y(rf.den).rem(m)
    if not den:
        raise ZeroDivisionError("denominator is a zero-divisor on the curve")
    inverse, _, h = den.gcdex(m)
    if h.degree() > 0:
        raise ZeroDivisionError("element is a zero-divisor modulo the modulus")
    return (num * inverse).rem(m)
