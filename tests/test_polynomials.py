from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ
from sympy.polys.rings import PolyElement

from polarcalc import polynomials
from polarcalc.geometry import product_of_lines, proj_line, proj_plane
from polarcalc.parsing import parse_polynomial
from polarcalc.polynomials import (
    POLE_FREE,
    TAU_SYM,
    Polynomial,
    PolynomialError,
    RationalFunction,
    is_squarefree,
    poly_div_exact,
    poly_divides,
    poly_gcd,
    poly_resultant,
    rational_roots,
    squarefree_part,
)
from polarcalc.session import Session, run_statement, run_text

COORDS = ("x", "y")


def x():
    return Polynomial.variable(COORDS, "x")


def y():
    return Polynomial.variable(COORDS, "y")


def const(v):
    return Polynomial.constant(COORDS, v)


def test_ring_arithmetic():
    p = (x() + y()) * (x() - y())
    assert p == x() * x() - y() * y()
    assert (p - p).is_zero()
    assert p.total_degree() == 2
    assert p.degree_in("x") == 2


def test_zeroth_powers_are_one():
    one = const(1)
    assert Polynomial.zero(COORDS) ** 0 == one
    assert (x() - y()) ** 0 == one
    zero = RationalFunction.constant(COORDS, 0)
    assert zero ** 0 == RationalFunction.from_poly(one)


def test_gcd_and_divisibility():
    p = x() * x() - y() * y()
    q = x() + y()
    g = poly_gcd(p, q)
    assert poly_divides(g, p) and poly_divides(g, q)
    assert not g.is_constant()
    assert poly_divides(q, p)
    assert not poly_divides(x(), p)


def test_rational_function_canonical_form():
    p = (x() + y()) * x()
    q = (x() + y()) * y()
    rf = RationalFunction(p, q)
    assert rf == RationalFunction(x(), y())
    assert RationalFunction(p, p) == RationalFunction.constant(
        COORDS, 1
    )


def test_rf_zero_denominator_refused():
    with pytest.raises((PolynomialError, ZeroDivisionError)):
        RationalFunction(x(), Polynomial.zero(COORDS))


def test_ord_along():
    rf = RationalFunction(y(), x() * x())
    assert rf.ord_along(x()) == -2
    assert rf.ord_along(y()) == 1
    assert RationalFunction.from_poly(const(5)).ord_along(x()) == 0
    assert RationalFunction.constant(COORDS, 0).ord_along(
        x()
    ) == POLE_FREE


def test_evaluate_and_pole_detection():
    rf = RationalFunction(const(1), x() - const(1))
    assert rf.evaluate({"x": Fraction(3), "y": Fraction(0)}) == Polynomial.scalar(
        Fraction(1, 2)
    )
    with pytest.raises(ZeroDivisionError):
        rf.evaluate({"x": Fraction(1), "y": Fraction(0)})


def test_rational_roots_with_multiplicity():
    coords = ("x",)

    def u(v=None):
        if v is None:
            return Polynomial.variable(coords, "x")
        return Polynomial.constant(coords, v)

    # (x - 1/2)^2 (x + 3), all roots rational: fully split
    p = (u() - u(Fraction(1, 2))) * (u() - u(Fraction(1, 2))) * (u() + u(3))
    roots, split = rational_roots(p)
    assert split
    assert sorted(roots) == [(Fraction(-3), 1), (Fraction(1, 2), 2)]
    # x^2 - 2 has no rational roots
    roots, split = rational_roots(u() * u() - u(2))
    assert roots == [] and not split


def test_resultant_detects_common_factor():
    p = (x() - y()) * (x() + const(1))
    q = (x() - y()) * (x() + const(2))
    assert poly_resultant(p, q, "x").is_zero()
    r = poly_resultant(x() - y(), x() + y(), "x")
    assert not r.is_zero()


def test_substitute_with_explicit_targets():
    rf = RationalFunction(x() + y(), x())
    out = rf.substitute(
        {
            "x": RationalFunction.constant(("t",), 2),
            "y": RationalFunction.variable(("t",), "t"),
        },
        ("t",),
    )
    t = Polynomial.variable(("t",), "t")
    two = Polynomial.constant(("t",), 2)
    assert out == RationalFunction(t + two, two)


# ---------------------------------------------------------------------------
# differential tests against sympy expressions (the `to_sympy` oracle)
# ---------------------------------------------------------------------------

VARIABLE_SETS = (("x",), ("x", "y"), ("x", "y", "z"))


def laurent(coeffs):
    """The scalar sum of c * TAU^k over {k: c}."""
    return sum((Polynomial.scalar(c, k) for k, c in coeffs.items()), Polynomial.scalar(0))


fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
tau_monomials = st.builds(
    Polynomial.scalar,
    st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 3)),
    st.integers(-2, 2),
)
scalars = st.one_of(
    tau_monomials,
    st.dictionaries(st.integers(-2, 2), fractions, max_size=2).map(laurent),
)


def polys(variables, coeffs=scalars, min_terms=0):
    exps = st.tuples(*[st.integers(0, 2)] * len(variables))
    return st.dictionaries(exps, coeffs, min_size=min_terms, max_size=3).map(
        lambda terms: Polynomial(variables, terms)
    )


@st.composite
def poly_tuples(draw, count, variable_sets=VARIABLE_SETS):
    variables = draw(st.sampled_from(variable_sets))
    return variables, [draw(polys(variables, min_terms=1)) for _ in range(count)]


differential = settings(max_examples=50, deadline=None, derandomize=True)


def cleared(p):
    """p times the TAU power that leaves a polynomial not divisible by TAU."""
    expr = sp.fraction(sp.together(p.to_sympy()))[0]
    if expr == 0:
        return expr
    low = min(m[0] for m in sp.Poly(expr, TAU_SYM).monoms())
    return sp.expand(expr / TAU_SYM**low)


def grlex_lc(expr, variables):
    return sp.Poly(expr, *[sp.Symbol(v) for v in variables]).LC(order="grlex")


def tau_monomial(expr):
    return sp.Poly(expr, TAU_SYM).is_monomial


def same(a, b):
    return sp.expand(a - b) == 0


@differential
@given(poly_tuples(2))
def test_ring_operations_match_expressions(case):
    variables, (a, b) = case
    A, B = a.to_sympy(), b.to_sympy()
    assert same((a + b).to_sympy(), A + B)
    assert same((a * b).to_sympy(), A * B)
    assert same((a - b**2).to_sympy(), A - B**2)
    assert same(a.differentiate("x").to_sympy(), sp.diff(A, sp.Symbol("x")))
    wider = ("w",) + variables[::-1]
    assert same(a.lift(wider).to_sympy(), A)
    point = {v: Fraction(i + 2, 3) for i, v in enumerate(variables)}
    value = A.subs({sp.Symbol(v): sp.Rational(q.numerator, q.denominator)
                    for v, q in point.items()})
    assert same(Polynomial.constant((), a.evaluate(point)).to_sympy(), value)
    assert Polynomial(variables, a.terms) == a
    assert Polynomial.from_sympy(A, variables) == a
    assert hash(Polynomial.from_sympy(A, variables)) == hash(a)


@differential
@given(poly_tuples(3))
def test_canonical_fraction_matches_cancel(case):
    variables, (a, b, g) = case
    num, den = a * g, b * g
    assume(not den.is_zero())
    if num.is_zero():
        assert RationalFunction(num, den) == RationalFunction.constant(variables, 0)
        return
    N, D = sp.fraction(sp.cancel(num.to_sympy() / den.to_sympy()))
    lc = grlex_lc(D, variables)
    # refused only when the cancelled denominator keeps a TAU-sum lead
    if not tau_monomial(lc):
        with pytest.raises(PolynomialError):
            RationalFunction(num, den)
        return
    rf = RationalFunction(num, den)
    assert same(rf.num.to_sympy(), N / lc)
    assert same(rf.den.to_sympy(), D / lc)


@differential
@given(poly_tuples(3))
def test_gcd_matches_sympy(case):
    variables, (a, b, g) = case
    p, q = a * g, b * g
    og = sp.gcd(cleared(p), cleared(q))
    if og == 0:
        assert poly_gcd(p, q).is_zero()
        return
    lc = grlex_lc(og, variables)
    if not tau_monomial(lc):
        with pytest.raises(PolynomialError):
            poly_gcd(p, q)
        return
    assert same(poly_gcd(p, q).to_sympy(), og / lc)


@st.composite
def repeated_factor_polys(draw):
    """a * b^k over Q in two variables, k in {1, 2}: often with a repeated
    factor, often reducible."""
    variables = draw(st.sampled_from([("x", "y"), ("u", "v")]))
    a, b = (draw(polys(variables, fractions, min_terms=1)) for _ in range(2))
    return a * b ** draw(st.integers(1, 2))


@differential
@given(repeated_factor_polys())
@example(parse_polynomial("u*v", ("u", "v")))
@example(parse_polynomial("(x - 1)^2*y", ("x", "y")))
def test_squarefree_part_matches_sympy(p):
    """The squarefree part is sympy's `sqf_part` up to a constant factor,
    and p is squarefree exactly when sympy says so, whatever the chart."""
    assume(not p.is_zero())
    gens = [sp.Symbol(v) for v in p.variables]
    P = p.to_sympy()
    ratio = sp.cancel(squarefree_part(p).to_sympy() / sp.sqf_part(P, *gens))
    assert ratio != 0 and not ratio.free_symbols
    assert is_squarefree(p) == sp.Poly(P, *gens).is_sqf


@differential
@given(poly_tuples(2))
def test_division_matches_sympy(case):
    variables, (a, b) = case
    assume(not b.is_zero())
    gens = [sp.Symbol(v) for v in variables] + [TAU_SYM]
    _, rem = sp.div(cleared(a), cleared(b), *gens, domain="QQ")
    assert poly_divides(b, a) == (rem == 0)
    q = a * b
    assert poly_divides(b, q)
    assert same(poly_div_exact(q, b).to_sympy(), sp.cancel(q.to_sympy() / b.to_sympy()))


def _oracle_valuation(expr, p, gens):
    k = 0
    while True:
        quo, rem = sp.div(expr, p, *gens, domain="QQ")
        if rem != 0:
            return k
        expr, k = quo, k + 1


@st.composite
def ord_cases(draw):
    """(a, b, p) with a, b nonzero, p nonconstant, b and p with TAU-monomial leads."""
    variables = draw(st.sampled_from(VARIABLE_SETS))
    a = draw(polys(variables, min_terms=1).filter(lambda a: not a.is_zero()))
    b = draw(polys(variables, tau_monomials, min_terms=1))
    p = draw(polys(variables, tau_monomials, min_terms=1).filter(lambda p: not p.is_constant()))
    return variables, a, b, p


@differential
@given(ord_cases(), st.integers(0, 2), st.integers(0, 2))
def test_ord_along_matches_sympy(case, j, k):
    variables, a, b, p = case
    rf = RationalFunction(a * p**j, b * p**k)
    gens = [sp.Symbol(v) for v in variables] + [TAU_SYM]
    N, D = sp.fraction(sp.cancel(rf.num.to_sympy() / rf.den.to_sympy()))
    P = cleared(p)
    expected = _oracle_valuation(N, P, gens) - _oracle_valuation(D, P, gens)
    assert rf.ord_along(p) == expected


def _div_loop_valuation(q, p):
    """The largest k with p^k dividing q, by repeated division in QQ[variables, TAU]."""
    k, q = 0, polynomials._qq_elem(q)
    while True:
        quo, rem = q.div(polynomials._qq_elem(p))
        if rem:
            return k
        q, k = quo, k + 1


@st.composite
def one_term_ord_cases(draw):
    """(shapes, q, p): p = c x^a a coordinate, a product of coordinates or a
    power, c 1 or a TAU-monomial; q a nonzero multiple of a power of p."""
    shape = draw(st.sampled_from(["coordinate", "product", "power"]))
    variables = draw(st.sampled_from(VARIABLE_SETS[1:] if shape == "product" else VARIABLE_SETS))
    if shape == "coordinate":
        i = draw(st.integers(0, len(variables) - 1))
        a = tuple(int(k == i) for k in range(len(variables)))
    elif shape == "product":
        a = draw(st.tuples(*[st.integers(0, 1)] * len(variables)).filter(lambda a: sum(a) > 1))
    else:
        a = draw(st.tuples(*[st.integers(0, 3)] * len(variables)).filter(lambda a: max(a) > 1))
    c = draw(st.one_of(st.just(Polynomial.scalar(1)), tau_monomials))
    p = Polynomial(variables, {a: c})
    shapes = {shape}
    if not c.is_one():
        shapes.add("TAU-multiple")
    q = draw(polys(variables, min_terms=1).filter(lambda q: not q.is_zero()))
    return shapes, q * p ** draw(st.integers(0, 2)), p


reached_ord_shapes = set()
ord_div_calls = []


@differential
@given(one_term_ord_cases())
def _one_term_ord_matches_division(case):
    shapes, q, p = case
    calls = len(ord_div_calls)
    k, rest = polynomials.poly_valuation(q, p)
    assert len(ord_div_calls) == calls  # exponent arithmetic, no division
    assert k == _div_loop_valuation(q, p)
    assert rest * p**k == q
    reached_ord_shapes.update(shapes)


def test_one_term_ord_matches_division(monkeypatch):
    reached_ord_shapes.clear()
    monkeypatch.setattr(PolyElement, "div", _spy(ord_div_calls, PolyElement.div))
    _one_term_ord_matches_division()
    assert reached_ord_shapes == {"coordinate", "product", "power", "TAU-multiple"}


@pytest.mark.parametrize("variables", [(), ("x",), ("x", "y"), ("x", "y", "z")])
def test_constant_equals_the_term_constructor(variables):
    values = [
        0, 1, -3, Fraction(2, 7), Polynomial.scalar(0), Polynomial.scalar(5),
        Polynomial.scalar(Fraction(-1, 2), 3), Polynomial.scalar(1, -2),
        laurent({-1: 2, 0: 1, 2: Fraction(1, 3)}), laurent({1: 1, 2: -1}),
    ]
    for value in values:
        direct = Polynomial.constant(variables, value)
        built = Polynomial(variables, {(0,) * len(variables): value})
        assert direct == built and hash(direct) == hash(built)
        assert direct.shift == built.shift and str(direct) == str(built)


@differential
@given(poly_tuples(2, VARIABLE_SETS[1:]))
def test_resultant_matches_sympy(case):
    variables, (a, b) = case
    assume(a.depends_on("x") and b.depends_on("x"))
    res = poly_resultant(a, b, "x")
    assert res.variables == variables[1:]
    assert same(res.to_sympy(), sp.resultant(a.to_sympy(), b.to_sympy(), sp.Symbol("x")))


@differential
@given(
    st.lists(fractions, max_size=3),
    st.sampled_from(["1", "x**2 + 1", "x**2 - 2", "x**3 - 3*x + 1", "2*x - 1"]),
    st.integers(1, 5),
)
def test_rational_roots_match_sympy(roots, extra, c):
    x_ = sp.Symbol("x")
    expr = c * sp.Mul(*[x_ - sp.Rational(r.numerator, r.denominator) for r in roots])
    expr = sp.expand(expr * sp.sympify(extra))
    poly = sp.Poly(expr, x_)
    expected = sorted(
        (Fraction(int(r.p), int(r.q)), m) for r, m in sp.roots(poly, filter="Q").items()
    )
    split = sum(m for _, m in expected) == poly.degree()
    assert rational_roots(Polynomial.from_sympy(expr, ("x",))) == (expected, split)


def test_rational_roots_refuse_tau():
    u = Polynomial.variable(("x",), "x")
    with pytest.raises(PolynomialError):
        rational_roots(u - Polynomial.constant(("x",), Polynomial.scalar(1, -1)))


SYMPY_FACTOR_LIST = PolyElement.factor_list


def factor_list_roots(p):
    """rational_roots by sympy's factorization: the linear factors."""
    f = polynomials._qq_elem(p).drop(1)
    roots = sorted(
        (polynomials._frac(-g.get((0,), QQ.zero) / g[(1,)]), m)
        for g, m in SYMPY_FACTOR_LIST(f)[1] if g.degree() == 1
    )
    return roots, sum(m for _, m in roots) == f.degree()


LOW_DEGREE_ROOTS = {
    "3*x + 1": ([(Fraction(-1, 3), 1)], True),
    "2*x**2 - 2*x - 4": ([(Fraction(-1), 1), (Fraction(2), 1)], True),
    "-x**2 + x/2 + 3/2": ([(Fraction(-1), 1), (Fraction(3, 2), 1)], True),
    "4*x**2 - 4*x + 1": ([(Fraction(1, 2), 2)], True),
    "x**2 - 9/4": ([(Fraction(-3, 2), 1), (Fraction(3, 2), 1)], True),
    "x**2 + x + 1/8": ([], False),  # the discriminant 1/2: a square numerator only
    "x**2 - 2": ([], False),
    "x**2 + 1": ([], False),
}


@st.composite
def low_degree_polys(draw):
    """c0 + c1 x, c0 + c1 x + c2 x^2 with c2 != 0, or c (x - r1)(x - r2)."""
    kind = draw(st.sampled_from(["line", "quadratic", "roots"]))
    if kind != "roots":
        c0, c1 = draw(fractions), draw(nonzero_fractions if kind == "line" else fractions)
        c2 = draw(nonzero_fractions) if kind == "quadratic" else 0
        terms = {(0,): c0, (1,): c1, (2,): c2}
    else:
        r1, r2, c = draw(fractions), draw(fractions), draw(nonzero_fractions)
        terms = {(0,): c * r1 * r2, (1,): -c * (r1 + r2), (2,): c}
    return Polynomial(("x",), terms)


def test_low_degree_roots_take_no_factorization(monkeypatch):
    """Degrees 1 and 2 by the closed form, equal to the roots of sympy's
    `factor_list`, which is not called; degree 3 still factors."""
    calls = []
    monkeypatch.setattr(PolyElement, "factor_list", _spy(calls, PolyElement.factor_list))
    for text, expected in LOW_DEGREE_ROOTS.items():
        p = Polynomial.from_sympy(sp.sympify(text), ("x",))
        assert rational_roots(p) == factor_list_roots(p) == expected
    reached = set()

    @differential
    @given(low_degree_polys())
    def closed_form_matches_factorization(p):
        roots, split = rational_roots(p)
        assert (roots, split) == factor_list_roots(p)
        reached.add((p.total_degree(), len(roots), split))

    closed_form_matches_factorization()
    assert reached == {(1, 1, True), (2, 2, True), (2, 1, True), (2, 0, False)}
    assert calls == []
    u = Polynomial.variable(("x",), "x")
    assert rational_roots(u * u * u - u) == (
        [(Fraction(-1), 1), (Fraction(0), 1), (Fraction(1), 1)], True)
    assert len(calls) == 1


def test_resultant_of_laurent_coefficients():
    # res_x(x - 1/TAU, x + y - 1) = y - 1 + 1/TAU
    a = x() - const(1).scale(Polynomial.scalar(1, -1))
    b = x() + y() - const(1)
    res = poly_resultant(a, b, "x")
    assert same(res.to_sympy(), sp.Symbol("y") - 1 + 1 / TAU_SYM)


def test_engine_path_does_not_use_expressions(monkeypatch):
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("sympy expression round trip on the engine path")

    monkeypatch.setattr(Polynomial, "to_sympy", refuse)
    monkeypatch.setattr(Polynomial, "from_sympy", staticmethod(refuse))
    reports = run_text(Session(seed=1), """
        let A = P1(z1) x P1(z2);
        let c = chain(A, id, dlog(z1) wedge dlog(z2 + 6), poles[z1, inf(z1), z2 + 6, inf(z2)]);
        dsq c;
    """)
    assert [r["status"] for r in reports] == ["ok", "ok", "ok"]
    assert not calls


TARGET = ("u", "v")


@st.composite
def substitutions(draw):
    """(p, mapping): p in 1-2 variables, each sent to a canonical fraction in u, v."""
    variables, (p,) = draw(poly_tuples(1, VARIABLE_SETS[:2]))
    mapping = {
        v: RationalFunction(
            draw(polys(TARGET)), draw(polys(TARGET, tau_monomials, min_terms=1))
        )
        for v in variables
    }
    return p, mapping


def substituted_expr(p, mapping):
    """sympy.cancel of p with each variable replaced by its image."""
    images = {
        sp.Symbol(v): m.num.to_sympy() / m.den.to_sympy() for v, m in mapping.items()
    }
    return sp.cancel(p.to_sympy().subs(images, simultaneous=True))


@differential
@given(substitutions())
def test_substitute_matches_cancel(case):
    p, mapping = case
    rf = p.substitute(mapping, TARGET)
    assert rf.variables == TARGET
    assert rf == RationalFunction(rf.num, rf.den)
    N, D = sp.fraction(substituted_expr(p, mapping))
    if N == 0:
        assert rf.is_zero()
        return
    lc = grlex_lc(D, TARGET)
    assert same(rf.num.to_sympy(), N / lc)
    assert same(rf.den.to_sympy(), D / lc)


@st.composite
def rational_substitutions(draw):
    """(rf, mapping): rf with non-constant num and den in 1-2 variables,
    each variable sent to a canonical fraction in u, v."""
    variables, (num, den) = draw(poly_tuples(2, VARIABLE_SETS[:2]))
    assume(not den.is_zero())
    try:
        rf = RationalFunction(num, den)
    except PolynomialError:  # den's leading coefficient is a TAU-sum
        assume(False)
    assume(not rf.num.is_constant() and not rf.den.is_constant())
    mapping = {
        v: RationalFunction(
            draw(polys(TARGET, min_terms=1)),
            draw(polys(TARGET, tau_monomials, min_terms=1)),
        )
        for v in variables
    }
    return rf, mapping


@differential
@given(rational_substitutions())
def test_rational_substitute_matches_cancel(case):
    rf, mapping = case
    num, den = (substituted_expr(p, mapping) for p in (rf.num, rf.den))
    if den == 0:
        with pytest.raises(ZeroDivisionError):
            rf.substitute(mapping, TARGET)
        return
    N, D = sp.fraction(sp.cancel(num / den))
    if N == 0:
        assert rf.substitute(mapping, TARGET).is_zero()
        return
    # refused only when the cancelled denominator keeps a TAU-sum lead
    lc = grlex_lc(D, TARGET)
    if not tau_monomial(lc):
        with pytest.raises(PolynomialError):
            rf.substitute(mapping, TARGET)
        return
    out = rf.substitute(mapping, TARGET)
    assert out.variables == TARGET
    assert out == RationalFunction(out.num, out.den)
    assert same(out.num.to_sympy(), N / lc)
    assert same(out.den.to_sympy(), D / lc)


def _raises_exactly(kind, message, call):
    with pytest.raises(kind) as excinfo:
        call()
    assert type(excinfo.value) is kind
    assert str(excinfo.value) == message


def test_substitute_error_paths():
    u, v = (RationalFunction.variable(TARGET, name) for name in TARGET)
    one = RationalFunction.constant(TARGET, 1)
    chart = {"x": one / u, "y": v / u}
    tau_sum = RationalFunction(const(1), x() + y().scale(laurent({0: 1, 1: 1})))
    _raises_exactly(
        PolynomialError,
        "cannot normalize: denominator leading coefficient 1 + TAU is a TAU-sum",
        lambda: tau_sum.substitute(chart, TARGET),
    )
    _raises_exactly(
        ZeroDivisionError,
        "division by zero rational function",
        lambda: RationalFunction(const(1), x()).substitute(
            {"x": RationalFunction.constant(TARGET, 0)}, TARGET
        ),
    )
    _raises_exactly(
        PolynomialError,
        "no substitution for variable x",
        lambda: (x() + y()).substitute({"y": v}, TARGET),
    )
    _raises_exactly(
        PolynomialError,
        "variable mismatch: ('u', 'v') vs ('t',)",
        lambda: x().substitute({"x": RationalFunction.variable(("t",), "t")}, TARGET),
    )


# ---------------------------------------------------------------------------
# fraction kernel: +, -, *, differentiate, scale against sympy.cancel
# ---------------------------------------------------------------------------


@st.composite
def fraction_pairs(draw):
    """Two canonical fractions that share factors with each other's
    denominators (a*g/(b*h) and c*h/(d*g), say), plus a scalar.

    Denominator factors have TAU-monomial coefficients, so every
    denominator's leading coefficient is a TAU-monomial."""
    variables, (a, c, k) = draw(poly_tuples(3))
    b, d, g, h = (draw(polys(variables, tau_monomials, min_terms=1)) for _ in range(4))
    shape = draw(st.sampled_from(("cross", "common", "cancel", "negated")))
    if shape == "cross":  # * has both cross gcds
        f1 = RationalFunction(a * g, b * h)
        f2 = RationalFunction(c * h, d * g)
    elif shape == "common":  # + has gcd(d1, d2); h^2 gives gcd(d, d')
        f1 = RationalFunction(a, b * h)
        f2 = RationalFunction(c, d * h * h)
    elif shape == "cancel":  # the sum k/d loses h: gcd(t, g) is not 1
        f1 = RationalFunction(a, h)
        f2 = RationalFunction(k * h - a * d, d * h)
    else:  # the sum is zero
        f1 = RationalFunction(a * g, b * h)
        f2 = -f1
    return variables, f1, f2, draw(scalars)


def _kernel_branches(f1, f2, variables):
    """The cross-cancellation branches that f1 + f2, f1 * f2 and the
    derivatives of f1 and f2 take, decided with poly_gcd."""
    out = set()
    if not (f1.is_zero() or f2.is_zero()):
        if not poly_gcd(f1.num, f2.den).is_unit():
            out.add("mul: gcd(n1, d2)")
        if not poly_gcd(f2.num, f1.den).is_unit():
            out.add("mul: gcd(n2, d1)")
    g = poly_gcd(f1.den, f2.den)
    if f1.den == f2.den:
        out.add("add: same denominator")
    elif not g.is_unit():
        out.add("add: gcd(d1, d2)")
        t = f1.num * poly_div_exact(f2.den, g) + f2.num * poly_div_exact(f1.den, g)
        if not poly_gcd(t, g).is_unit():
            out.add("add: gcd(t, g)")
    if (f1 + f2).is_zero() or (f1 * f2).is_zero():
        out.add("zero result")
    for f in (f1, f2):
        for v in variables:
            dd = f.den.differentiate(v)
            if f.den.is_unit():
                out.add("diff: unit denominator")
            elif dd.is_zero():
                out.add("diff: d' = 0")
            elif poly_gcd(f.den, dd).is_unit():
                out.add("diff: gcd(d, d') = 1")
            else:
                out.add("diff: gcd(d, d')")
    return out


def assert_canonical_cancel(rf, expr, variables):
    """rf is the canonical fraction of expr: sympy.cancel's num/den over
    the denominator's graded-lex leading coefficient, coprime, with a
    denominator whose leading coefficient is 1."""
    N, D = sp.fraction(sp.cancel(expr))
    if N == 0:
        assert rf.is_zero() and rf.den == Polynomial.constant(variables, 1)
        return
    lc = grlex_lc(D, variables)
    assert same(rf.num.to_sympy(), N / lc)
    assert same(rf.den.to_sympy(), D / lc)
    assert poly_gcd(rf.num, rf.den).is_unit()
    assert rf.den.leading()[1].is_one()


KERNEL_BRANCHES = {
    "mul: gcd(n1, d2)", "mul: gcd(n2, d1)", "add: same denominator",
    "add: gcd(d1, d2)", "add: gcd(t, g)", "zero result",
    "diff: unit denominator", "diff: d' = 0", "diff: gcd(d, d') = 1",
    "diff: gcd(d, d')",
}
reached_kernel_branches = set()


@differential
@given(fraction_pairs())
def _fraction_kernel_matches_cancel(case):
    variables, f1, f2, lam = case
    A = f1.num.to_sympy() / f1.den.to_sympy()
    B = f2.num.to_sympy() / f2.den.to_sympy()
    assert_canonical_cancel(f1 + f2, A + B, variables)
    assert_canonical_cancel(f1 - f2, A - B, variables)
    assert_canonical_cancel(f1 * f2, A * B, variables)
    assert_canonical_cancel(f1.scale(lam), A * Polynomial.constant((), lam).to_sympy(), variables)
    for f, F in ((f1, A), (f2, B)):
        for v in variables:
            assert_canonical_cancel(f.differentiate(v), sp.diff(F, sp.Symbol(v)), variables)
    reached_kernel_branches.update(_kernel_branches(f1, f2, variables))


def test_fraction_kernel_matches_cancel():
    reached_kernel_branches.clear()
    _fraction_kernel_matches_cancel()
    assert reached_kernel_branches == KERNEL_BRANCHES


# ---------------------------------------------------------------------------
# one-term and line paths: substitution by exponent arithmetic, gcds with a
# monomial or a line
# ---------------------------------------------------------------------------

TRANSITIONS = {
    variety.name: list(variety.coord_maps.values())
    for variety in (proj_line("x"), product_of_lines(("x", "y")), proj_plane("x", "y"))
}


def one_terms(variables):
    """A TAU-monomial (TAU powers -2..2) times a monomial: one term of the ring."""
    exps = st.tuples(*[st.integers(0, 2)] * len(variables))
    return st.builds(lambda e, c: Polynomial(variables, {e: c}), exps, tau_monomials)


@st.composite
def one_term_substitutions(draw):
    """(kind, p, q, mapping): every variable sent to a one-term fraction.

    kind is the variety of a P1, P1 x P1 or P2 chart transition;
    "monomial", a one-term fraction, a constant or 0 for each of x and y;
    or "collide", x and y both sent to one such fraction, with
    p = r + s - s(y, x), whose s part maps to zero.  q is a denominator
    with a TAU-monomial lead for the rational case.
    """
    kind = draw(st.sampled_from([*TRANSITIONS, "monomial", "collide"]))
    if kind in TRANSITIONS:
        mapping = draw(st.sampled_from(TRANSITIONS[kind]))
        variables = tuple(mapping)
    else:
        variables = ("x", "y")
        nums = st.one_of(
            st.just(Polynomial.zero(TARGET)),
            tau_monomials.map(lambda c: Polynomial.constant(TARGET, c)),
            one_terms(TARGET),
        )
        x_image = RationalFunction(draw(nums), draw(one_terms(TARGET)))
        y_image = x_image if kind == "collide" else RationalFunction(
            draw(nums), draw(one_terms(TARGET)))
        mapping = {"x": x_image, "y": y_image}
    p = draw(polys(variables))
    if kind == "collide":
        s = draw(polys(variables, min_terms=1))
        p = p + s - Polynomial(variables, {e[::-1]: c for e, c in s.terms.items()})
    q = draw(polys(variables, tau_monomials, min_terms=1))
    return kind, p, q, mapping


reached_monomial_cases = set()
one_term_branch_calls = []  # filled by the spies of the two tests below
sympy_cofactors_calls = []


def _spy(calls, f):
    def spy(*args):
        calls.append(args)
        return f(*args)
    return spy


@differential
@given(one_term_substitutions())
def _one_term_substitute_matches_cancel(case):
    kind, p, q, mapping = case
    target = next(iter(mapping.values())).variables
    calls = len(one_term_branch_calls)
    (N,), _ = polynomials._substituted((p,), mapping, target)
    assert len(one_term_branch_calls) == calls + 1
    assert len(N.prim) <= len(p.prim)  # each term maps to at most one term
    reached_monomial_cases.add(kind)
    if len(N.prim) < len(p.prim):
        reached_monomial_cases.add("terms collide or vanish")
    for m in mapping.values():
        if m.is_zero():
            reached_monomial_cases.add("zero constant")
        elif m.is_constant():
            reached_monomial_cases.add("constant")
        if any(s.shift < 0 for s in (m.num, m.den)):
            reached_monomial_cases.add("negative TAU power")
    if p.is_zero():
        reached_monomial_cases.add("zero polynomial")
    assert_canonical_cancel(p.substitute(mapping, target), substituted_expr(p, mapping), target)
    rf = RationalFunction(p, q)
    den = substituted_expr(rf.den, mapping)
    if den == 0:
        with pytest.raises(ZeroDivisionError):
            rf.substitute(mapping, target)
        return
    expr = substituted_expr(rf.num, mapping) / den
    if not tau_monomial(grlex_lc(sp.fraction(sp.cancel(expr))[1], target)):
        with pytest.raises(PolynomialError):
            rf.substitute(mapping, target)
        return
    assert_canonical_cancel(rf.substitute(mapping, target), expr, target)
    reached_monomial_cases.add("rational function")


def test_one_term_substitute_matches_cancel(monkeypatch):
    reached_monomial_cases.clear()
    monkeypatch.setattr(polynomials, "_monomial_substituted", _spy(
        one_term_branch_calls, polynomials._monomial_substituted))
    _one_term_substitute_matches_cancel()
    assert reached_monomial_cases == {
        "P1(x)", "P1(x) x P1(y)", "P2(x,y)", "monomial", "collide",
        "terms collide or vanish", "zero constant", "constant",
        "negative TAU power", "zero polynomial", "rational function",
    }


@st.composite
def one_term_pairs(draw):
    """(a, b) with one of them, or both, a single term of the ring; the
    other is arbitrary, a single term, or a multiple of the first."""
    variables = draw(st.sampled_from(VARIABLE_SETS))
    term = draw(one_terms(variables))
    other = draw(st.one_of(
        polys(variables, min_terms=1),
        one_terms(variables),
        polys(variables, min_terms=1).map(lambda p: p * term),
    ).filter(lambda p: not p.is_zero()))
    return (term, other) if draw(st.booleans()) else (other, term)


def is_line(elem):
    """Total degree 1 in ZZ[variables, TAU], TAU counted as a variable."""
    return max(sum(m) for m in elem) == 1


nonzero_fractions = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 3))


@st.composite
def lines(draw, variables):
    """Rational multiples of two or three of the variables, 1 and TAU, all
    times a TAU-monomial: a line of the ring with at least two terms."""
    slots = [Polynomial.variable(variables, v) for v in variables] + [
        Polynomial.constant(variables, 1),
        Polynomial.constant(variables, Polynomial.scalar(1, 1)),
    ]
    chosen = draw(st.lists(st.sampled_from(slots), min_size=2, max_size=3, unique=True))
    line = sum(
        (s.scale(Polynomial.scalar(draw(nonzero_fractions))) for s in chosen),
        Polynomial.zero(variables),
    )
    return line.scale(draw(tau_monomials))


@st.composite
def line_pairs(draw):
    """(a, b), neither a single term, one a line L; the other is a multiple
    of L by a TAU-monomial, another line, an arbitrary polynomial, or a
    multiple of L of higher degree."""
    variables = draw(st.sampled_from(VARIABLE_SETS))
    line = draw(lines(variables))
    other = draw(st.one_of(
        tau_monomials.map(line.scale),
        lines(variables),
        polys(variables, min_terms=2),
        polys(variables, min_terms=1).map(lambda p: p * line),
    ).filter(lambda p: len(p.prim) > 1))
    return (line, other) if draw(st.booleans()) else (other, line)


reached_cofactor_cases = set()
SYMPY_COFACTORS = PolyElement.cofactors
LINE_X_TAU = Polynomial.variable(COORDS, "x") + const(Polynomial.scalar(1, 1))
LINE_1_TAU = const(laurent({0: 1, 1: 1}))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(one_term_pairs(), line_pairs()))
@example((LINE_X_TAU, LINE_X_TAU * (y() - const(1))))
@example((x() * y() * LINE_1_TAU + LINE_1_TAU, LINE_1_TAU.scale(Polynomial.scalar(2, -1))))
@example((x() * LINE_1_TAU, LINE_1_TAU))  # x + TAU*x is no line: TAU counts in the degree
def _one_term_cofactors_match_sympy(case):
    a, b = case
    calls = len(sympy_cofactors_calls)
    h, p, q = polynomials._cofactors(a, b)
    assert len(sympy_cofactors_calls) == calls
    assert h * p == a and h * q == b
    G, _, _ = sp.cofactors(cleared(a), cleared(b))
    ratio = sp.cancel(h.to_sympy() / G)
    assert ratio.is_Rational and ratio != 0
    if len(a.prim) == 1 or len(b.prim) == 1:
        reached_cofactor_cases.add(
            "both" if len(a.prim) == len(b.prim) == 1 else "first" if len(a.prim) == 1 else "second"
        )
        reached_cofactor_cases.add("coprime" if h.is_constant() else "monomial gcd")
        if h.is_constant():
            assert poly_gcd(a, b).is_one()
        else:
            assert poly_gcd(a, b) == h
        return
    line = a if is_line(a.prim) else b
    reached_cofactor_cases.add("line first" if line is a else "line second")
    reached_cofactor_cases.add("line coprime" if h.is_constant() else "line divides")
    if not h.is_constant() and is_line(a.prim) and is_line(b.prim):
        reached_cofactor_cases.add("proportional lines")
    if any(m[-1] for m in line.prim):
        reached_cofactor_cases.add("TAU line")
    qq = polynomials._qq_elem
    assert h.shift == 0 and qq(h) == SYMPY_COFACTORS(qq(a), qq(b))[0]  # the monic gcd, as sympy's
    try:
        g = poly_gcd(a, b)
    except PolynomialError:  # a TAU-sum lead, as of 1 + TAU
        assert len(h.leading()[1].prim) > 1
        reached_cofactor_cases.add("TAU-sum gcd refused")
    else:
        assert g.leading()[1].is_one() and poly_divides(g, h) and poly_divides(h, g)


def test_one_term_cofactors_match_sympy(monkeypatch):
    """The one-term and the line paths of `_cofactors` against sympy's gcd,
    with no call of sympy's `cofactors`."""
    reached_cofactor_cases.clear()
    monkeypatch.setattr(PolyElement, "cofactors", _spy(sympy_cofactors_calls, PolyElement.cofactors))
    _one_term_cofactors_match_sympy()
    assert reached_cofactor_cases == {
        "both", "first", "second", "coprime", "monomial gcd",
        "line first", "line second", "line coprime", "line divides",
        "proportional lines", "TAU line", "TAU-sum gcd refused",
    }


def test_dsq_takes_no_sympy_gcd_of_a_single_term(monkeypatch):
    """Every gcd with a one-term or a degree-1 operand on a P1 x P1 `dsq` is
    taken by `_cofactors` itself, not by sympy's `cofactors`.  With poles
    on lines only the residues divide exactly and every other gcd has a
    line operand, so no general gcd is left; with three poles on each
    factor the spy still sees general gcds."""
    calls = []
    monkeypatch.setattr(PolyElement, "cofactors", _spy(calls, PolyElement.cofactors))

    def dsq(form, poles):
        calls.clear()
        reports = run_text(Session(), """
            let A = P1(z1) x P1(z2);
            let c = chain(A, id, %s, poles[%s]);
            dsq c;
        """ % (form, poles))
        assert [r["status"] for r in reports] == ["ok", "ok", "ok"]
        return list(calls)

    assert dsq("dlog(z1) wedge dlog(z2 + 6)", "z1, inf(z1), z2 + 6, inf(z2)") == []
    assert dsq("dlog(z1 - 1) wedge dlog(z2 + 6)", "z1 - 1, inf(z1), z2 + 6, inf(z2)") == []
    calls = dsq(
        "dlog((z1 - 1)*(z1 + 2)*(z1 - 3)) wedge dlog((z2 + 6)*(z2 - 1)*(z2 - 5))",
        "z1 - 1, z1 + 2, z1 - 3, inf(z1), z2 + 6, z2 - 1, z2 - 5, inf(z2)",
    )
    assert calls  # the spy sees the general gcds
    assert not [fg for fg in calls if any(len(e) == 1 or is_line(e) for e in fg)]


def test_quotient_by_a_cancelling_tau_sum():
    """A TAU-sum lead that cancels against the numerator is no refusal."""
    session = Session()
    for stmt in ("let A = P1(z)", "let c = chain(A, const(2), (1 + TAU)/(1 + TAU))"):
        assert run_statement(session, stmt)["status"] == "ok"
    report = run_statement(session, "normalize c")
    assert report["status"] == "ok"
    assert report["result"] == "(Point, z = 2, 1)"
    tau_sum = Polynomial.constant(COORDS, laurent({0: 1, 1: 1}))
    assert RationalFunction(x() * tau_sum, y() * tau_sum) == RationalFunction(x(), y())
    _raises_exactly(
        PolynomialError,
        "cannot normalize: denominator leading coefficient 1 + 2*TAU + TAU^2 is a TAU-sum",
        lambda: RationalFunction(x() * tau_sum, y() * tau_sum * tau_sum),
    )
