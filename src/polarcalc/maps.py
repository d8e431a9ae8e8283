"""Rational maps between catalog varieties.

A map is stored as rational-function formulas for the coordinates of one
target chart, written in the source's main-chart coordinates.  Maps whose
image avoids that chart can be retargeted to any other chart on demand.
Point images come from evaluation (a constant map keeps its point); the
chart search is kept for retargeting, and as the fallback for a value with
TAU and for a base point of a map into P2.
"""

from sympy.polys.matrices import DomainMatrix

from .geometry import INF, CatalogVariety, VarietyPoint, point_from_chart
from .polynomials import Polynomial, RationalFunction, to_field


class MapError(ValueError):
    pass


class VarietyMap:
    """Rational map between two catalog varieties."""

    __slots__ = ("source", "target", "target_chart", "formulas", "point", "_key")

    def __init__(self, source: CatalogVariety, target: CatalogVariety,
                 target_chart, formulas):
        self.source = source
        self.target = target
        self.target_chart = target_chart
        chart = target.chart(target_chart)
        src = source.main_chart.coords
        fixed = {}
        for coord in chart.coords:
            if coord not in formulas:
                raise MapError("missing formula for target coordinate %s" % coord)
            rf = formulas[coord]
            if rf.variables != src:
                rf = rf.lift(src)
            fixed[coord] = rf
        self.formulas = fixed
        self.point = None  # the image of a constant map (see `constant`)
        self._key = None  # filled by the first `key()`: a map never changes

    # -- constructors --------------------------------------------------

    @staticmethod
    def identity(variety: CatalogVariety) -> "VarietyMap":
        ch = variety.main_chart
        return VarietyMap(
            variety, variety, ch.id,
            {c: RationalFunction.variable(ch.coords, c) for c in ch.coords},
        )

    @staticmethod
    def constant(source: CatalogVariety, target: CatalogVariety,
                 point: VarietyPoint) -> "VarietyMap":
        """Collapse the whole source onto one rational point of the target."""
        chart, values = point.finite_chart(target)
        src = source.main_chart.coords
        m = VarietyMap(source, target, chart.id, {
            c: RationalFunction.constant(src, v)
            for c, v in values.items()
        })
        m.point = point
        return m

    # -- chart handling ------------------------------------------------

    def formulas_on(self, chart_id) -> dict:
        """Formulas retargeted to another chart (ZeroDivisionError if the
        image lies outside that chart)."""
        if chart_id == self.target_chart:
            return dict(self.formulas)
        trans = self.target.coord_map(chart_id, self.target_chart)
        src = self.source.main_chart.coords
        return {c: rf.substitute(self.formulas, src) for c, rf in trans.items()}

    def canonical(self) -> "VarietyMap":
        """Same map targeted at the first chart that can express it."""
        if self.point is not None:
            return self  # `constant` built it on the point's first chart
        for ch in self.target.charts:
            try:
                fs = self.formulas_on(ch.id)
            except ZeroDivisionError:
                continue
            if ch.id == self.target_chart:
                return self
            return VarietyMap(self.source, self.target, ch.id, fs)
        raise MapError("map cannot be expressed on any target chart")

    # -- operations ----------------------------------------------------

    def compose(self, inner: "VarietyMap") -> "VarietyMap":
        """self after inner (inner's target must be self's source)."""
        if inner.target.signature() != self.source.signature():
            raise MapError("composition source/target mismatch")
        if self.is_identity():
            return inner.canonical()
        if inner.point is not None and self.source.kind == "P1":
            image = self._image_at(inner.point.data[0])
            if image is not None:
                return VarietyMap.constant(inner.source, self.target, image)
        main = self.source.main_chart.id
        mid_chart = self.source.chart(inner.target_chart)
        # None: inner already lands on the main chart, and the identity
        # chart change would return each formula unchanged
        mid = None if inner.target_chart == main else self.source.coord_map(
            main, inner.target_chart
        )
        src = inner.source.main_chart.coords
        for ch in self.target.charts:
            try:
                fs = self.formulas_on(ch.id)
                out = {}
                for coord, rf in fs.items():
                    if mid is not None:
                        rf = rf.substitute(mid, mid_chart.coords)
                    out[coord] = rf.substitute(inner.formulas, src)
                return VarietyMap(inner.source, self.target, ch.id, out)
            except ZeroDivisionError:
                continue
        raise MapError("composite map lands outside every target chart")

    def _image_at(self, r):
        """Image of the point r (a Fraction or INF) of a P1 source, or None
        for a value with TAU or a plane's [d1*d2 : n1*d2 : n2*d1] all 0."""
        chart = self.target.chart(self.target_chart)
        values = [_value_at(self.formulas[c], r) for c in chart.coords]
        if None in values:
            return None
        if self.target.kind not in ("P2", "curve"):  # c_ holds 1/value
            pairs = [(d, n) if c.endswith("_") else (n, d)
                     for c, (n, d) in zip(chart.coords, values)]
            return VarietyPoint.product_point([INF if d == 0 else n / d for n, d in pairs])
        (n1, d1), (n2, d2) = values
        h = (d1 * d2, n1 * d2, n2 * d1)
        order = {"A0": (0, 1, 2), "A1": (1, 0, 2), "A2": (2, 1, 0)}[chart.id]
        return VarietyPoint.plane_point([h[i] for i in order]) if any(h) else None

    def image_point(self) -> VarietyPoint:
        """Image of a zero-dimensional source."""
        if self.source.dimension != 0:
            raise MapError("image_point needs a point source")
        if self.point is not None:
            return self.point
        values = {}
        for c, rf in self.formulas.items():
            values[c] = rf.constant_value().rational_value()
        return point_from_chart(self.target, self.target_chart, values)

    def is_identity(self) -> bool:
        """True when the map is its source's identity, on whatever chart
        (each chart names its coordinates apart, so the formulas tell it)."""
        return self.source == self.target and (
            self.canonical().formulas == VarietyMap.identity(self.source).formulas)

    def is_constant(self) -> bool:
        """True when every coordinate formula is free of the source coords."""
        for rf in self.formulas.values():
            if not (rf.num.is_constant() and rf.den.is_constant()):
                return False
        return True

    def jacobian_max_rank(self) -> int:
        """Generic rank of the Jacobian of the coordinate formulas.

        Exact: the rank over QQ(source coords, TAU) of the matrix of
        partial derivatives, so TAU in the formulas is no obstacle.
        """
        fs = [to_field(self.formulas[c]) for c in sorted(self.formulas)]
        if not fs:
            return 0  # a point target
        K = fs[0].field
        rows = [[f.diff(x) for x in K.gens[:-1]] for f in fs]
        return DomainMatrix(rows, (len(rows), len(K.gens) - 1), K.to_domain()).rank()

    # -- identity ------------------------------------------------------

    def key(self):
        if self._key is None:
            m = self.canonical()
            self._key = (
                m.source.signature(),
                m.target.signature(),
                m.target_chart,
                tuple((c, str(m.formulas[c])) for c in sorted(m.formulas)),
            )
        return self._key

    def __eq__(self, other):
        return isinstance(other, VarietyMap) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def describe(self) -> str:
        parts = ["%s = %s" % (c, self.formulas[c]) for c in sorted(self.formulas)]
        if not parts:
            return "chart %s" % self.target_chart
        return ", ".join(parts)

    def __repr__(self):
        return "VarietyMap(%s -> %s: %s)" % (
            self.source.name, self.target.name, self.describe()
        )


def _value_at(rf: RationalFunction, r):
    """(num, den) of a function of t at r as Fractions, at INF the t^D
    coefficients, D = max(deg num, deg den); None for a value with TAU."""
    (t,) = rf.variables
    if r == INF:
        top = max(rf.num.degree_in(t), rf.den.degree_in(t))
        n, d = (p.leading()[1] if p.degree_in(t) == top else Polynomial.scalar(0)
                for p in (rf.num, rf.den))
    else:
        n, d = rf.num.evaluate({t: r}), rf.den.evaluate({t: r})
    if n.is_rational() and d.is_rational():
        return n.rational_value(), d.rational_value()
