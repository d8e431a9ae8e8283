"""The fraction-free kernel against sympy's own QQ[variables, TAU] ring.

Inputs are drawn as Laurent polynomials over QQ: an element of sympy's
sparse ring QQ[variables, TAU] and a TAU shift.  Each is built into a
Polynomial through the public constructors, and each kernel operation is
compared, through the QQ view content * prim with its shift, with the same
operation done in the QQ ring (or in its fraction field, where the result
is a fraction).  Every result must also be stored in canonical form.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import Symbol
from sympy.polys.domains import QQ
from sympy.polys.fields import FracField
from sympy.polys.orderings import lex
from sympy.polys.rings import PolyRing

from polarcalc import polynomials
from polarcalc.parsing import parse_polynomial
from polarcalc.polynomials import (
    Polynomial,
    PolynomialError,
    RationalFunction,
    poly_div_exact,
    poly_resultant,
    poly_valuation,
    rational_roots,
)

VARIABLE_SETS = ((), ("x",), ("x", "y"))
TARGET = ("u", "v")

kernel = settings(max_examples=60, deadline=None, derandomize=True)


def qq_ring(variables):
    return PolyRing([Symbol(v) for v in variables] + [Symbol("TAU")], QQ, lex)


def qq_field(variables):
    return FracField([Symbol(v) for v in variables] + [Symbol("TAU")], QQ, lex)


def laurent(elem, shift):
    """(elem, shift) with elem's lowest TAU power moved into the shift."""
    if not elem:
        return elem, 0
    low = min(m[-1] for m in elem)
    if low:
        elem = elem.ring.from_dict({m[:-1] + (m[-1] - low,): c for m, c in elem.items()})
    return elem, shift + low


def view(p):
    """The QQ view of p: (content * prim in QQ[variables, TAU], shift)."""
    return qq_ring(p.variables).from_dict(dict(polynomials._qq_elem(p))), p.shift


def build(variables, elem, shift):
    """The Polynomial TAU^shift * elem, by the public constructors."""
    terms = {}
    for m, c in elem.items():
        s = Polynomial.scalar(Fraction(int(c.numerator), int(c.denominator)), m[-1] + shift)
        terms[m[:-1]] = terms[m[:-1]] + s if m[:-1] in terms else s
    return Polynomial(variables, terms)


def as_field(variables, elem, shift):
    K = qq_field(variables)
    return K.new(K.ring.from_dict(dict(elem))) * K.gens[-1] ** shift


def assert_canonical(p):
    """The stored form: prim primitive in ZZ[variables, TAU], lex-leading
    coefficient positive, lowest TAU power 0; content a nonzero Fraction;
    the zero polynomial has content 0 and shift 0."""
    assert p.prim.ring == polynomials._zring(p.variables)
    assert type(p.content) is Fraction
    if not p.prim:
        assert p.content == 0 and p.shift == 0
        return
    assert p.content != 0
    assert math.gcd(*p.prim.values()) == 1
    assert p.prim[max(p.prim)] > 0
    assert min(m[-1] for m in p.prim) == 0


def assert_matches(p, elem, shift):
    assert_canonical(p)
    assert view(p) == laurent(elem, shift)
    assert hash(p) == hash(build(p.variables, *view(p)))


fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
nonzero = st.builds(Fraction, st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), st.integers(1, 4))


def qq_elems(variables, min_terms=0, max_terms=4, degree=2):
    exps = st.tuples(*[st.integers(0, degree)] * (len(variables) + 1))
    R = qq_ring(variables)
    return st.dictionaries(exps, nonzero, min_size=min_terms, max_size=max_terms).map(
        lambda d: R.from_dict({m: QQ(c.numerator, c.denominator) for m, c in d.items()})
    )


def laurents(variables, **kwargs):
    return st.tuples(qq_elems(variables, **kwargs), st.integers(-2, 2)).map(
        lambda es: laurent(*es))


@st.composite
def operands(draw, count, variable_sets=VARIABLE_SETS, **kwargs):
    variables = draw(st.sampled_from(variable_sets))
    return variables, [draw(laurents(variables, **kwargs)) for _ in range(count)]


def shifted(elem, k):
    """elem * TAU^k for k >= 0."""
    return elem.mul_monom((0,) * (len(elem.ring.gens) - 1) + (k,)) if k else elem


@kernel
@given(operands(2), st.integers(0, 3))
def test_products_sums_and_powers_match_qq(case, n):
    variables, ((A, s), (B, t)) = case
    a, b = build(variables, A, s), build(variables, B, t)
    assert_matches(a, A, s)
    assert_matches(a * b, A * B, s + t)
    low = min(s, t)
    assert_matches(a + b, shifted(A, s - low) + shifted(B, t - low), low)
    assert_matches(a - b, shifted(A, s - low) - shifted(B, t - low), low)
    assert_matches(-a, -A, s)
    assert_matches(a**n, A**n if n else A.ring.one, s * n)
    assert hash(build(variables, A, s)) == hash(a) and build(variables, A, s) == a


@kernel
@given(operands(1), st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 5]),
                              st.integers(1, 4)), st.integers(-2, 2))
def test_division_by_a_tau_monomial_matches_qq(case, c, k):
    variables, ((A, s),) = case
    m = Polynomial.constant(variables, Polynomial.scalar(c, k))
    out = build(variables, A, s) / m
    assert_matches(out, A.quo_ground(QQ(c.numerator, c.denominator)), s - k)


def cofactor_path(a, b):
    A, B = a.prim, b.prim
    if len(A) == 1 or len(B) == 1:
        return "one-term"
    if polynomials._is_line(A) or polynomials._is_line(B):
        return "line"
    return "general"


@st.composite
def gcd_pairs(draw):
    """(variables, (A, s), (B, t)) sharing a factor G: a one-term factor, a
    line or anything; the second operand is sometimes a single term."""
    variables = draw(st.sampled_from(VARIABLE_SETS[1:]))
    shape = draw(st.sampled_from(["one-term", "line", "general"]))
    if shape == "one-term":
        G = draw(qq_elems(variables, min_terms=1, max_terms=1))
    elif shape == "line":
        G = draw(qq_elems(variables, min_terms=2, max_terms=3, degree=1))
    else:
        G = draw(qq_elems(variables, min_terms=1, max_terms=3))
    A = G * draw(qq_elems(variables, min_terms=1, max_terms=3))
    B = G * draw(qq_elems(variables, min_terms=1, max_terms=draw(st.sampled_from([1, 3]))))
    assume(A and B)
    return variables, laurent(A, draw(st.integers(-2, 2))), laurent(B, draw(st.integers(-2, 2)))


reached_cofactor_paths = set()


@kernel
@given(gcd_pairs())
def _cofactors_match_qq(case):
    variables, (A, s), (B, t) = case
    a, b = build(variables, A, s), build(variables, B, t)
    h, p, q = polynomials._cofactors(a, b)
    for r in (h, p, q):
        assert_canonical(r)
    assert h * p == a and h * q == b
    H, k = view(h)
    assert k == 0 and H.monic() == A.gcd(B).monic()  # an associate of QQ's gcd
    path = cofactor_path(a, b)
    if path == "line":
        assert H == A.gcd(B)  # made monic, as sympy's gcd over QQ is
    reached_cofactor_paths.add(path)


def test_cofactors_match_qq():
    reached_cofactor_paths.clear()
    _cofactors_match_qq()
    assert reached_cofactor_paths == {"one-term", "line", "general"}


@kernel
@given(operands(2, VARIABLE_SETS[1:], min_terms=1))
def test_exact_quotients_and_valuations_match_qq(case):
    variables, ((A, s), (B, t)) = case
    a, b = build(variables, A, s), build(variables, B, t)
    assert_matches(poly_div_exact(a * b, b), A, s)
    assert_matches(poly_div_exact(a * b, a), B, t)
    if b.is_constant():
        return
    for j in range(3):
        d = a * b**j
        k, rest = poly_valuation(d, b)
        assert_canonical(rest)
        assert k >= j and rest * b**k == d
        Q, _ = view(rest)
        assert Q.rem(view(b)[0])  # b does not divide the rest
        with pytest.raises(PolynomialError):
            poly_div_exact(rest, b)


@kernel
@given(operands(1, VARIABLE_SETS[1:]), st.lists(fractions, min_size=3, max_size=3),
       st.integers(1, 3))
def test_specialize_and_evaluate_match_qq(case, values, count):
    variables, ((A, s),) = case
    a = build(variables, A, s)
    point = dict(zip(variables, values))
    kept = dict(list(point.items())[:count])
    R = A.ring
    for vals in (kept, point):
        out = a.specialize(vals)
        E = A.evaluate([(R.gens[variables.index(v)], QQ(q.numerator, q.denominator))
                        for v, q in vals.items()])
        rest = tuple(v for v in variables if v not in vals)
        assert out.variables == rest
        assert_matches(out, qq_ring(rest).from_dict(dict(E)) if E else qq_ring(rest).zero, s)
    assert a.evaluate(point) == a.specialize(point)


def canonical_fraction_matches(rf, value, variables):
    """rf is the canonical form of the field element value."""
    for p in (rf.num, rf.den):
        assert_canonical(p)
    N, D = view(rf.num), view(rf.den)
    assert as_field(variables, *N) / as_field(variables, *D) == value
    if rf.is_zero():
        assert rf.den.is_one()
        return
    assert N[0].gcd(D[0]).is_ground
    assert rf.den.leading()[1].is_one()


@st.composite
def images(draw, one_term):
    """A canonical fraction in u, v: one-term numerator (or 0) and
    denominator, or arbitrary ones."""
    if one_term:
        num = draw(laurents(TARGET, max_terms=1))
        den = draw(laurents(TARGET, min_terms=1, max_terms=1))
    else:
        num = draw(laurents(TARGET, max_terms=3))
        den = draw(laurents(TARGET, min_terms=2, max_terms=3))
    try:
        return RationalFunction(build(TARGET, *num), build(TARGET, *den))
    except PolynomialError:  # a TAU-sum lead
        assume(False)


@st.composite
def substitutions(draw):
    variables = draw(st.sampled_from(VARIABLE_SETS[1:]))
    one_term = draw(st.booleans())
    mapping = {v: draw(images(one_term)) for v in variables}
    return variables, draw(laurents(variables)), draw(laurents(variables, min_terms=1)), mapping


reached_substitute_paths = set()


@kernel
@given(substitutions())
def _substitute_matches_qq(case):
    variables, (A, s), (B, t), mapping = case
    a, b = build(variables, A, s), build(variables, B, t)
    K = qq_field(TARGET)
    images_ = {v: as_field(TARGET, *view(m.num)) / as_field(TARGET, *view(m.den))
               for v, m in mapping.items()}

    def value(elem, shift):
        out = K.zero
        for m, c in elem.items():
            term = K(c) * K.gens[-1] ** (m[-1] + shift)
            for v, e in zip(variables, m):
                if e:
                    term *= images_[v] ** e
            out += term
        return out

    canonical_fraction_matches(a.substitute(mapping, TARGET), value(A, s), TARGET)
    try:
        rf = RationalFunction(a, b)
    except PolynomialError:
        return
    num, den = value(*view(rf.num)), value(*view(rf.den))
    if not den:
        with pytest.raises(ZeroDivisionError):
            rf.substitute(mapping, TARGET)
        return
    try:
        out = rf.substitute(mapping, TARGET)
    except PolynomialError:  # the substituted denominator keeps a TAU-sum lead
        return
    canonical_fraction_matches(out, num / den, TARGET)
    one_term = all(len(m.num.prim) <= 1 and len(m.den.prim) == 1 for m in mapping.values())
    reached_substitute_paths.add("one-term" if one_term else "general")


def test_substitute_matches_qq():
    reached_substitute_paths.clear()
    _substitute_matches_qq()
    assert reached_substitute_paths == {"one-term", "general"}


@kernel
@given(operands(3, VARIABLE_SETS[1:], min_terms=1))
def test_times_poly_matches_qq(case):
    variables, ((A, s), (B, t), (P, u)) = case
    p = build(variables, P, u)  # a constant p too
    b = build(variables, B, t)
    for den in (b, b * p):
        try:
            rf = RationalFunction(build(variables, A, s), den)
        except PolynomialError:  # a TAU-sum lead
            continue
        value = as_field(variables, *view(rf.num)) / as_field(variables, *view(rf.den))
        out = rf.times_poly(p)
        canonical_fraction_matches(out, value * as_field(variables, P, u), variables)


@pytest.mark.parametrize("scalar", [
    Polynomial.scalar(2), Polynomial.scalar(Fraction(-3, 5), 2),
    Polynomial.scalar(1) + Polynomial.scalar(1, 1),
])
def test_valuation_along_a_constant_is_refused(scalar):
    x = Polynomial.variable(("x",), "x")
    with pytest.raises(PolynomialError, match="valuation along a constant"):
        poly_valuation(x * x + x, Polynomial.constant(("x",), scalar))


@kernel
@given(operands(2, (("x",), ("x", "y")), min_terms=1))
def test_resultant_matches_qq(case):
    variables, ((A, s), (B, t)) = case
    a, b = build(variables, A, s), build(variables, B, t)
    assume(a.depends_on("x") and b.depends_on("x"))
    rest = variables[1:]
    R = qq_ring(("x",) + rest)
    RA, RB = A.set_ring(R), B.set_ring(R)
    res = RA.resultant(RB)
    out = poly_resultant(a, b, "x")
    assert out.variables == rest
    shift = s * RB.degree(0) + t * RA.degree(0)
    assert_matches(out, qq_ring(rest).from_dict(dict(res)) if res else qq_ring(rest).zero, shift)


@pytest.mark.parametrize("num, den", [
    ("x^2", "x"),
    ("x^2 + x*y", "x"),
    ("x^2 - 1", "x - 1"),
    ("(x - 1)^2*(y + 2)", "x - 1"),
])
def test_exact_quotient_hashes_like_an_equal_polynomial(num, den):
    """sympy builds a quotient in place after caching its hash; the hash
    of a Polynomial must follow its terms, or R2 groups miss equal images."""
    q = poly_div_exact(parse_polynomial(num, ("x", "y")), parse_polynomial(den, ("x", "y")))
    fresh = parse_polynomial(str(q), ("x", "y"))
    assert q == fresh
    assert hash(q) == hash(fresh)


@kernel
@given(st.lists(fractions, max_size=4), st.sampled_from([(), (1, 0, 1), (-2, 0, 1), (1, 1, 1)]),
       nonzero)
def test_rational_roots_match_qq(roots, extra, c):
    R = qq_ring(("x",))
    x = R.gens[0]
    f = R(QQ(c.numerator, c.denominator))
    for r in roots:
        f *= x - QQ(r.numerator, r.denominator)
    f *= sum((QQ(k) * x**i for i, k in enumerate(extra)), R.zero) or R.one
    g = f.drop(1)
    expected = sorted(
        (polynomials._frac(-h.get((0,), QQ.zero) / h[(1,)]), m)
        for h, m in g.factor_list()[1] if h.degree() == 1
    )
    split = sum(m for _, m in expected) == g.degree()
    assert rational_roots(build(("x",), f, 0)) == (expected, split)
