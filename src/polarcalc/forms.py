"""Meromorphic differential forms on an affine chart.

A form of degree q holds a map from strictly increasing q-tuples of
coordinate indices to RationalFunction coefficients.  Wedge, exterior
derivative, interior product and pullback are all exact; signs follow
the left interior product / Koszul convention with index tuples kept
strictly increasing.
"""

from __future__ import annotations

from .polynomials import (
    POLE_FREE,
    Polynomial,
    RationalFunction,
    poly_div_exact,
    poly_gcd,
    poly_valuation,
)


class FormError(ValueError):
    pass


def _merge_sign(i: tuple, j: tuple):
    """Concatenate two increasing tuples; return (sorted tuple, sign) or None."""
    if set(i) & set(j):
        return None
    merged = i + j
    # count inversions of the concatenation
    sign = 1
    arr = list(merged)
    for a in range(len(arr)):
        for b in range(a + 1, len(arr)):
            if arr[a] > arr[b]:
                sign = -sign
    return tuple(sorted(merged)), sign


class DifferentialForm:
    """A q-form on one chart: {increasing index tuple: RationalFunction}.

    A form and its coefficients are never mutated after construction, so
    its chart transitions and pole orders are pure functions of the
    object.  Each form keeps them in a memo of its own, filled on first
    use (`transition_form` under ("transition", variety signature, target
    chart), `pole_order` under ("pole_order", polynomial)) and freed with
    the form.
    Equality and hashing ignore the memo.
    """

    __slots__ = ("chart", "coords", "degree", "components", "_memo")

    def __init__(self, chart, coords, degree, components=None):
        self.chart = chart
        self.coords = tuple(coords)
        self.degree = int(degree)
        if self.degree < 0 or self.degree > len(self.coords):
            raise FormError(
                "degree %d out of range for chart of dimension %d"
                % (degree, len(self.coords))
            )
        clean = {}
        if components:
            for idx, rf in components.items():
                idx = tuple(idx)
                if len(idx) != self.degree or list(idx) != sorted(set(idx)):
                    raise FormError("bad index tuple %s for degree %d" % (idx, degree))
                if not rf.is_zero():
                    clean[idx] = rf
        self.components = clean
        self._memo = {}

    def memoized(self, key, compute):
        """The value memoized under key, computed by compute() on first use."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute()
            return value

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(chart, coords, degree) -> "DifferentialForm":
        return DifferentialForm(chart, coords, degree, {})

    @staticmethod
    def function(chart, coords, rf: RationalFunction) -> "DifferentialForm":
        return DifferentialForm(chart, coords, 0, {(): rf})

    @staticmethod
    def d_coordinate(chart, coords, name) -> "DifferentialForm":
        coords = tuple(coords)
        i = coords.index(name)
        one = RationalFunction.constant(coords, 1)
        return DifferentialForm(chart, coords, 1, {(i,): one})

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.components

    def coefficient(self, idx) -> RationalFunction:
        """The coefficient at an index tuple; 0 where the form has none."""
        rf = self.components.get(idx)
        return RationalFunction.constant(self.coords, 0) if rf is None else rf

    def _check(self, other: "DifferentialForm"):
        if self.chart != other.chart or self.coords != other.coords:
            raise FormError("chart mismatch: %s vs %s" % (self.chart, other.chart))

    # -- linear structure ------------------------------------------------

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        self._check(other)
        if self.degree != other.degree:
            raise FormError("degree mismatch in form addition")
        out = dict(self.components)
        for idx, rf in other.components.items():
            cur = out.get(idx)
            out[idx] = rf if cur is None else cur + rf
        return DifferentialForm(self.chart, self.coords, self.degree, out)

    def __neg__(self) -> "DifferentialForm":
        return DifferentialForm(
            self.chart,
            self.coords,
            self.degree,
            {i: -rf for i, rf in self.components.items()},
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar: Polynomial) -> "DifferentialForm":
        """scalar * self; a nonzero scalar carries the memo over (each
        memoized chart transition scaled, pole orders unchanged)."""
        if scalar.is_one():
            return self
        out = DifferentialForm(
            self.chart,
            self.coords,
            self.degree,
            {i: rf.scale(scalar) for i, rf in self.components.items()},
        )
        if not scalar.is_zero():
            out._memo = {
                key: value.scale(scalar) if key[0] == "transition" else value
                for key, value in self._memo.items()
            }
        return out

    def multiply(self, rf: RationalFunction) -> "DifferentialForm":
        return DifferentialForm(
            self.chart,
            self.coords,
            self.degree,
            {i: c * rf for i, c in self.components.items()},
        )

    # -- exterior algebra -------------------------------------------------

    def wedge(self, other: "DifferentialForm") -> "DifferentialForm":
        self._check(other)
        deg = self.degree + other.degree
        if deg > len(self.coords):
            return DifferentialForm.zero(self.chart, self.coords, min(deg, len(self.coords)))
        out = {}
        for i, a in self.components.items():
            for j, b in other.components.items():
                ms = _merge_sign(i, j)
                if ms is None:
                    continue
                idx, sign = ms
                c = a * b
                if sign < 0:
                    c = -c
                cur = out.get(idx)
                out[idx] = c if cur is None else cur + c
        return DifferentialForm(self.chart, self.coords, deg, out)

    def exterior_derivative(self) -> "DifferentialForm":
        deg = self.degree + 1
        if deg > len(self.coords):
            return DifferentialForm.zero(self.chart, self.coords, len(self.coords))
        out = {}
        for idx, rf in self.components.items():
            for j, name in enumerate(self.coords):
                if j in idx:
                    continue
                drf = rf.differentiate(name)
                if drf.is_zero():
                    continue
                ms = _merge_sign((j,), idx)
                nidx, sign = ms
                c = drf if sign > 0 else -drf
                cur = out.get(nidx)
                out[nidx] = c if cur is None else cur + c
        return DifferentialForm(self.chart, self.coords, deg, out)

    def contract(self, direction: str, scale: RationalFunction) -> "DifferentialForm":
        """Interior product with the vector field scale * d/d(direction)."""
        if self.degree == 0:
            raise FormError("cannot contract a 0-form")
        j = self.coords.index(direction)
        out = {}
        for idx, rf in self.components.items():
            if j not in idx:
                continue
            p = idx.index(j)
            nidx = idx[:p] + idx[p + 1 :]
            c = rf * scale
            if p % 2 == 1:
                c = -c
            cur = out.get(nidx)
            out[nidx] = c if cur is None else cur + c
        return DifferentialForm(self.chart, self.coords, self.degree - 1, out)

    # -- pullback -----------------------------------------------------------

    def pullback(self, mapping: dict, chart, coords) -> "DifferentialForm":
        """Pull back along the map whose target-coordinate formulas are given.

        mapping: {target_coord_name: RationalFunction in the source coords}.
        Returns a form on the source chart.
        """
        coords = tuple(coords)
        if self.degree > len(coords):
            return DifferentialForm.zero(chart, coords, len(coords))
        # precompute pulled-back differentials of each target coordinate
        dmaps = {}
        for name in self.coords:
            if name not in mapping:
                raise FormError("pullback map missing target coordinate %s" % name)
            rf = mapping[name]
            comps = {}
            for j, s in enumerate(coords):
                drf = rf.differentiate(s)
                if not drf.is_zero():
                    comps[(j,)] = drf
            dmaps[name] = DifferentialForm(chart, coords, 1, comps)
        out = DifferentialForm.zero(chart, coords, self.degree)
        for idx, rf in self.components.items():
            coeff = rf.substitute(mapping)
            term = DifferentialForm.function(chart, coords, coeff)
            for i in idx:
                term = term.wedge(dmaps[self.coords[i]])
            out = out + term
        return out

    # -- structure -----------------------------------------------------------

    def pole_order(self, p: Polynomial):
        """Worst valuation of a coefficient along {p = 0}; POLE_FREE if none."""
        return self.memoized(("pole_order", p), lambda: min(
            (rf.ord_along(p) for rf in self.components.values()), default=POLE_FREE
        ))

    def sorted_components(self):
        return sorted(self.components.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DifferentialForm)
            and self.chart == other.chart
            and self.coords == other.coords
            and self.degree == other.degree
            and self.components == other.components
        )

    def __hash__(self):
        return hash(
            (self.chart, self.coords, self.degree, frozenset(self.components.items()))
        )

    def __repr__(self):
        return "DifferentialForm(%s)" % str(self)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for idx, rf in self.sorted_components():
            basis = "^".join("d%s" % self.coords[i] for i in idx)
            cs = str(rf)
            if len(rf.num.terms) > 1 and rf.den.is_unit():
                cs = "(%s)" % cs
            if not basis:
                parts.append(cs)
            elif cs == "1":
                parts.append(basis)
            elif cs == "-1":
                parts.append("-%s" % basis)
            else:
                parts.append("%s %s" % (cs, basis))
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# pole profiling
# ---------------------------------------------------------------------------


def polar_profile(form: DifferentialForm, declared) -> Polynomial:
    """The residual denominator: the poles of `form` off the declared ones.

    The lcm of the coefficients' denominators once every power of each
    declared component is divided out; a unit when every pole is declared.

    declared: list of pairwise-coprime squarefree Polynomials on the
    form's chart (the caller checks this; `make_triple` does it with
    `validate_normal_crossing`).
    """
    declared = list(declared)
    residual = Polynomial.constant(form.coords, 1)
    for rf in form.components.values():
        den = rf.den
        for p in declared:
            if p.is_constant():
                continue
            den = poly_valuation(den, p)[1]
        # fold remaining factors into the residual (up to multiplicity)
        g = poly_gcd(den, residual)
        extra = poly_div_exact(den, g) if not g.is_unit() else den
        if not extra.is_unit():
            residual = residual * extra
    return residual
