"""Exact polynomials and rational functions over Q[TAU, TAU^-1].

A Polynomial is TAU^shift * c * P: c is a nonzero Fraction (0 for the zero
polynomial) and P an element of the sympy sparse ring ZZ[<variables>, TAU],
one ring per variable tuple.  P is primitive (the gcd of its coefficients
is 1), its coefficient at the lex-greatest monomial is positive, and its
lowest TAU power is 0.  The triple is unique, so equality and hashing are
structural, and negative TAU powers are exact.  A scalar of the theory, an
element of Q[TAU, TAU^-1], is the polynomial in zero variables
(`Polynomial.scalar`); coefficients (`terms`, `leading`), values
(`evaluate`, `constant_value`), chain coefficients and point weights are
such polynomials, and one divides them only by a TAU-monomial, which is
c * TAU^k with P = 1.  `terms`, `leading`, values and printing give the
rationals c * a for the integer coefficients a of P.

By Gauss's lemma a product of primitive polynomials is primitive, and
leading coefficients multiply (lex is a monomial order), so `*`, `**`,
negation and division by a TAU-monomial multiply contents and primitive
parts and take no gcd; an exact quotient P/Q of primitive polynomials is
primitive with a positive leading coefficient, and so are the cofactors
of a gcd of primitive polynomials, which sympy takes in ZZ (`_cofactors`).
Whether p divides q is decided by one division of the primitive parts in
ZZ: if p | q over Q, the quotient's content is 1 and every step of the
division algorithm divides exactly.  Sums, derivatives, specializations,
substitution numerators and resultants have integer coefficients times a
rational; they pay one integer content gcd, a sign check of the
lex-leading coefficient and a rescan of the lowest TAU power
(`_normal`).  A TAU-monomial factor is content and shift only, so the
arithmetic of scalars and scaling by them make no ring operation.

Substituting fractions n_v/d_v into a Polynomial builds one numerator over
the common denominator prod_v d_v^(degree in v) and normalizes that
fraction once; the rational weights c_n^k c_d^(D - k) of the products
n_v^k d_v^(D_v - k) go over one integer denominator per variable.  A
RationalFunction substitutes num and den over the same denominator
prod_v d_v^D_v, D_v the larger of their degrees in v; it cancels, so the
result is the one fraction N_num/N_den, normalized once.  The canonical
fraction is unique, so either equals any term-by-term evaluation (only
the text of a TAU-sum refusal, which names the leading coefficient of the
denominator before cancelling, may differ).
Fraction arithmetic cross-cancels (Henrici; Knuth, TAOCP vol. 2,
4.5.1): canonical operands have coprime num and den, so a product
n1/d1 * n2/d2 divides out only gcd(n1, d2) and gcd(n2, d1), a sum only
g = gcd(d1, d2) and then gcd(t, g) for the numerator t over
(d1/g)(d2/g), and a derivative (n/d)' = (n'd - nd')/d^2 is already
reduced when gcd(d, d') is 1.  A gcd whose denominator is 1 is skipped,
and the result only has its denominator's leading TAU-monomial divided
out, which changes only contents and shifts.  Scaling by a nonzero scalar
keeps a fraction canonical, and a product with a p that divides den is
num / (den / p) (`times_poly`).
Canonical printing sorts by graded lexicographic order of
the exponent vectors over the chart's declared coordinate order; a
scalar prints bare (`1 + TAU`), a TAU-sum coefficient of a polynomial
or of a function in parentheses (`(1 + TAU)*x`).
`to_sympy`/`from_sympy` convert to and from sympy expressions and are
not used by the engine.

Three one-term paths skip sympy's general machinery; all are exact by
exponent arithmetic.  When every n_v has at most one term and every d_v
one term (chart transitions, renamings, rational constants and 0), the
product prod_v n_v^e_v d_v^(D_v - e_v) is a single term, so each term of
a polynomial maps to one term: its exponent vector (TAU column included)
is a sum of exponent vectors and its coefficient a product of rationals;
terms that land on one exponent are summed and zero sums dropped
(`_map_terms`, which `specialize` and `evaluate` use too).  When one
operand of a gcd is a single term, every common divisor is a monomial,
and the largest is the monomial of least exponents over the terms of both
operands; the cofactors subtract exponents.  The valuation of q along a
single term c x^a (`poly_valuation`) is the least m_i // a_i over the
terms x^m of q and the i with a_i > 0.  Along any other p it divides
once per step, and returns the quotient q / p^k with k, so the
stripping of declared poles (`forms.polar_profile`) makes one division
per step where `poly_divides` and `poly_div_exact` made two.  The
residue's product with p (`times_poly`) makes one division of its own.

Two more paths take operands of degree 1 and 2 by elementary algebra.  A
line L, of total degree 1 in ZZ[variables, TAU] (`x + TAU`, `1 + TAU`),
is irreducible, so its gcd with any O is an associate of L or 1.  One
division of O by L decides which: {L} is a Groebner basis of the ideal
(L), so the remainder is 0 exactly when L divides O.  The gcd is L made
monic in the ring's order, as sympy's gcd over Q is.  The rational roots
of a polynomial of degree 1 or 2 (`rational_roots`) come from the closed
form on the integer coefficients: -c0/c1, or (-c1 +- r)/(2 c2) when the
discriminant is the square of an integer r, tested by `math.isqrt`; any
other quadratic is irreducible over Q and has no rational root.  Degree 3
and up still factors, in ZZ.

Only the operations that need a field convert to sympy's QQ rings, by
multiplying the content into the primitive part (`_qq_elem`).
Arithmetic in one variable over the field of the others (curve rings,
traces along a fiber) runs in sympy's PolyRing([var], QQ(rest, TAU));
`to_univariate` and `from_univariate` convert to and from it, and
`inverse_mod` inverts modulo a polynomial there.  Jacobian ranks are
taken in QQ(variables, TAU) (`to_field`).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import sympy as sp
from sympy.polys.domains import QQ, ZZ
from sympy.polys.fields import FracField
from sympy.polys.orderings import lex
from sympy.polys.rings import PolyElement, PolyRing

TAU_SYM = sp.Symbol("TAU")

_ZERO, _ONE = Fraction(0), Fraction(1)

_fields: dict = {}


def _field(variables) -> FracField:
    """QQ(variables, TAU); TAU is the last generator."""
    F = _fields.get(variables)
    if F is None:
        F = _fields[variables] = FracField(
            [sp.Symbol(v) for v in variables] + [TAU_SYM], QQ, lex
        )
    return F


@functools.cache
def _ring(variables) -> PolyRing:
    """QQ[variables, TAU], the ring of _field(variables)."""
    return _field(variables).ring


@functools.cache
def _zring(variables) -> PolyRing:
    """ZZ[variables, TAU], the ring of the primitive parts."""
    return PolyRing([sp.Symbol(v) for v in variables] + [TAU_SYM], ZZ, lex)


def _qq(q):
    return QQ(q if type(q) in (int, Fraction) else Fraction(q))


def _fraction(q) -> Fraction:
    return q if type(q) is Fraction else Fraction(q)


def _frac(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def _qq_elem(p: "Polynomial"):
    """c * P as an element of QQ[variables, TAU] (TAU^shift left out)."""
    c = _qq(p.content)
    return _ring(p.variables).dtype({m: c * a for m, a in p.prim.items()})


def _from_qq(variables, elem, shift=0) -> "Polynomial":
    """TAU^shift * elem for an element of QQ[variables, TAU]."""
    return _from_fractions(variables, {m: _frac(c) for m, c in elem.items()}, shift)


def _from_fractions(variables, terms: dict, shift=0) -> "Polynomial":
    """TAU^shift * sum of q x^m over {m: q}, m[-1] the TAU power (any sign),
    over the least common denominator of the q."""
    terms = {m: q for m, q in terms.items() if q}
    if not terms:
        return _zero(variables)
    den = math.lcm(*(q.denominator for q in terms.values()))
    ints = {m: q.numerator * (den // q.denominator) for m, q in terms.items()}
    return _normal(variables, ints, Fraction(1, den), shift)


def _normal(variables, terms, content: Fraction, shift=0) -> "Polynomial":
    """TAU^shift * content * terms, for integer terms (a ring element or a
    dict whose TAU powers may be negative), in normal form: the gcd of the
    coefficients and the sign of the lex-leading one move into the
    content, the lowest TAU power into the shift."""
    if not terms:
        return _zero(variables)
    if len(terms) == 1:  # a monomial with coefficient 1, the rest moves out
        ((m, c),) = terms.items()
        R = _zring(variables)
        prim = R.dtype({m[:-1] + (0,): 1}) if any(m[:-1]) else R.one
        return Polynomial._same(variables, prim, content * c if c != 1 else content, shift + m[-1])
    g = math.gcd(*terms.values())
    if terms[max(terms)] < 0:
        g = -g
    low = min(m[-1] for m in terms)
    if low or g != 1:
        terms = {m[:-1] + (m[-1] - low,): c // g for m, c in terms.items()}
        content *= g
    if not isinstance(terms, PolyElement):
        terms = _zring(variables).dtype(terms)
    return Polynomial._same(variables, terms, content, shift + low)


def _tau_groups(elem) -> dict:
    """{exponent: {TAU power: c}}: a ring element's terms grouped by monomial."""
    grouped: dict = {}
    for m, c in elem.items():
        grouped.setdefault(m[:-1], {})[m[-1]] = c
    return grouped


def _tau_scalar(tau_coeffs: dict, content: Fraction, shift: int) -> "Polynomial":
    """The scalar sum of content * a * TAU^(k + shift) over {k: a}."""
    return _normal((), {(k,): a for k, a in tau_coeffs.items()}, content, shift)


def _rational_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0."""
    if d != 1:
        g = math.gcd(n, d)
        if g != d:
            return "%d/%d" % (n // g, d // g)
        n //= g
    return str(n)


def _tau_text(tau_coeffs: dict, shift: int, content: Fraction) -> str:
    """The sum of content * a * TAU^(k + shift) over {k: a}, rising powers first."""
    if not tau_coeffs:
        return "0"
    n, d = content.numerator, content.denominator
    parts = []
    for k in sorted(tau_coeffs):
        c, k = _rational_text(n * tau_coeffs[k], d), k + shift
        if k == 0:
            parts.append(c)
        elif k == 1:
            parts.append("%s*TAU" % c if c != "1" else "TAU")
        else:
            parts.append("%s*TAU^%d" % (c, k) if c != "1" else "TAU^%d" % k)
    return " + ".join(parts).replace("+ -", "- ")


def _lead(elem):
    """Graded-lex leading exponent of a ring element and its {TAU power: c}."""
    if len(elem) == 1:
        ((m, c),) = elem.items()
        return m[:-1], {m[-1]: c}
    top = max(elem, key=lambda m: grlex_key(m[:-1]))[:-1]
    return top, {m[-1]: c for m, c in elem.items() if m[:-1] == top}


def _is_one(elem) -> bool:
    """Is a primitive part 1?  Its only term then has coefficient 1."""
    return len(elem) == 1 and elem.ring.zero_monom in elem


class PolynomialError(ArithmeticError):
    pass


class ScalarError(ArithmeticError):
    """A scalar operation outside Q[TAU, TAU^-1]: division by a TAU-sum or
    by zero, or the rational value of a scalar with TAU in it."""


def grlex_key(exp):
    return (sum(exp), exp)


class Polynomial:
    """Polynomial in an ordered tuple of variables over Q[TAU, TAU^-1]."""

    __slots__ = ("variables", "shift", "content", "prim")

    def __init__(self, variables, terms=None):
        """terms: {exponent: coefficient}, each an int, a Fraction or a scalar."""
        rationals = {}
        for e, c in (terms or {}).items():
            e = tuple(e)
            if isinstance(c, Polynomial):
                for (k,), a in c.prim.items():
                    rationals[e + (k + c.shift,)] = c.content * a
            else:
                rationals[e + (0,)] = _fraction(c)
        p = _from_fractions(tuple(variables), rationals)
        self.variables, self.shift, self.content, self.prim = (
            p.variables, p.shift, p.content, p.prim)

    @staticmethod
    def _same(variables, prim, content=_ONE, shift=0) -> "Polynomial":
        """TAU^shift * content * prim for a prim already in normal form (see
        the module docstring): primitive, with a positive lex-leading
        coefficient and lowest TAU power 0, or 0."""
        p = Polynomial.__new__(Polynomial)
        p.variables, p.prim = variables, prim
        p.content, p.shift = (content, shift) if prim else (_ZERO, 0)
        return p

    # -- constructors -------------------------------------------------

    @staticmethod
    def scalar(value, tau_exp: int = 0) -> "Polynomial":
        """value * TAU^tau_exp for a rational value: a polynomial in zero variables."""
        q = _fraction(value)
        R = _zring(())
        return Polynomial._same((), R.one if q else R.zero, q, tau_exp)

    @staticmethod
    def constant(variables, scalar) -> "Polynomial":
        """A scalar (an int, a Fraction or a polynomial in zero variables),
        its primitive part moved to `variables` by prefixing zero exponents."""
        variables = tuple(variables)
        R = _zring(variables)
        if isinstance(scalar, Polynomial):
            if len(scalar.prim) > 1:
                zeros = (0,) * len(variables)
                prim = R.dtype({zeros + m: a for m, a in scalar.prim.items()})
            else:  # a single term of a primitive part is 1
                prim = R.one if scalar.prim else R.zero
            return Polynomial._same(variables, prim, scalar.content, scalar.shift)
        q = _fraction(scalar)
        return Polynomial._same(variables, R.one if q else R.zero, q)

    @staticmethod
    def zero(variables) -> "Polynomial":
        return _zero(tuple(variables))

    @staticmethod
    def variable(variables, name) -> "Polynomial":
        variables = tuple(variables)
        return Polynomial._same(variables, _zring(variables).gens[variables.index(name)])

    @property
    def terms(self) -> dict:
        """Read-only view {exponent: scalar coefficient}."""
        return {
            e: _tau_scalar(cs, self.content, self.shift)
            for e, cs in _tau_groups(self.prim).items()
        }

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.prim

    def is_one(self) -> bool:
        return not self.shift and self.content == 1 and _is_one(self.prim)

    def is_constant(self) -> bool:
        return not self.variables or not any(any(m[:-1]) for m in self.prim)

    def is_unit(self) -> bool:
        return self.is_constant() and not self.is_zero()

    def is_rational(self) -> bool:
        """A constant free of TAU."""
        return self.shift == 0 and self.prim.is_ground

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ScalarError("scalar has nonzero TAU grade: %s" % self)
        return self.content

    def constant_value(self) -> "Polynomial":
        """The scalar value of a constant."""
        if not self.is_constant():
            raise PolynomialError("not a constant: %s" % self)
        prim = _zring(()).dtype({(m[-1],): a for m, a in self.prim.items()})
        return Polynomial._same((), prim, self.content, self.shift)

    def total_degree(self) -> int:
        return max((sum(m[:-1]) for m in self.prim), default=-1)

    def degree_in(self, name: str) -> int:
        if self.is_zero():
            return -1
        return self.prim.degree(self.variables.index(name))

    def depends_on(self, name: str) -> bool:
        return self.degree_in(name) > 0

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.variables != other.variables:
            raise PolynomialError(
                "variable mismatch: %s vs %s" % (self.variables, other.variables)
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        """(1/L) (n1 (L/d1) a + n2 (L/d2) b) for c1 = n1/d1, c2 = n2/d2 and
        L = lcm(d1, d2), over the lower of the two shifts."""
        self._check(other)
        if not other.prim:
            return self
        if not self.prim:
            return other
        a, b, low = self.prim, other.prim, min(self.shift, other.shift)
        tau = (0,) * len(self.variables)
        if self.shift > low:
            a = a.mul_monom(tau + (self.shift - low,))
        if other.shift > low:
            b = b.mul_monom(tau + (other.shift - low,))
        c1, c2 = self.content, other.content
        d1, d2 = c1.denominator, c2.denominator
        g = math.gcd(d1, d2)
        k1, k2 = c1.numerator * (d2 // g), c2.numerator * (d1 // g)
        if k1 != 1:
            a = a.mul_ground(k1)
        if k2 != 1:
            b = b.mul_ground(k2)
        return _normal(self.variables, a + b, Fraction(g, d1 * d2), low)

    def __neg__(self) -> "Polynomial":
        return Polynomial._same(self.variables, self.prim, -self.content, self.shift)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        a, b = self.prim, other.prim
        prim = a if _is_one(b) else b if _is_one(a) else a * b
        c, d = self.content, other.content
        content = d if c == 1 else c if d == 1 else c * d
        return Polynomial._same(self.variables, prim, content, self.shift + other.shift)

    def __truediv__(self, other: "Polynomial") -> "Polynomial":
        """Division by a constant TAU-monomial c*TAU^k."""
        self._check(other)
        if other.is_zero():
            raise ScalarError("division by zero scalar")
        if len(other.prim) != 1 or not other.is_constant():
            raise ScalarError(
                "division only defined by a single TAU-monomial, got %s" % other
            )
        c = other.content
        return Polynomial._same(
            self.variables, self.prim, self.content / c if c != 1 else self.content,
            self.shift - other.shift,
        )

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise PolynomialError("negative polynomial power")
        if n == 0:
            return _one(self.variables)
        prim = self.prim if _is_one(self.prim) else self.prim**n
        return Polynomial._same(self.variables, prim, self.content**n, self.shift * n)

    def scale(self, scalar: "Polynomial") -> "Polynomial":
        return self * Polynomial.constant(self.variables, scalar)

    # -- structure -----------------------------------------------------

    def leading(self):
        """(exponent, scalar) of the graded-lex leading term."""
        if self.is_zero():
            raise PolynomialError("zero polynomial has no leading term")
        e, lead = _lead(self.prim)
        return e, _tau_scalar(lead, self.content, self.shift)

    def differentiate(self, name: str) -> "Polynomial":
        i = self.variables.index(name)
        return _normal(self.variables, self.prim.diff(i), self.content, self.shift)

    def evaluate(self, point: dict) -> "Polynomial":
        """Exact scalar value at a rational point {var: Fraction}."""
        return self.specialize({v: point[v] for v in self.variables})

    def specialize(self, values: dict) -> "Polynomial":
        """Set the variables in `values` to rationals: a polynomial in the rest.

        One pass over the primitive part's terms (`_map_terms`): a kept
        variable moves to its place in the rest, a set one scales the
        coefficient.
        """
        rest = tuple(v for v in self.variables if v not in values)
        if len(rest) == len(self.variables):
            return self
        moves, scales = [], []
        for i, v in enumerate(self.variables):
            if v not in values:
                moves.append((i, len(moves), 1))
            elif values[v] != 1:
                r = values[v]
                scales.append((i, r if type(r) in (int, Fraction) else Fraction(r)))
        moves.append((len(self.variables), len(rest), 1))  # TAU
        out, den = _map_terms(self.prim, moves, scales, (0,) * (len(rest) + 1))
        return _normal(rest, out, self.content / den if den != 1 else self.content, self.shift)

    def rename(self, variables) -> "Polynomial":
        """Same terms, new variable names (positional)."""
        variables = tuple(variables)
        if len(variables) != len(self.variables):
            raise PolynomialError("rename arity mismatch")
        prim = _zring(variables).dtype(self.prim)
        return Polynomial._same(variables, prim, self.content, self.shift)

    def lift(self, variables) -> "Polynomial":
        """Reinterpret in a larger/reordered variable tuple; a reordering
        can change the lex-leading term, so its sign is checked again."""
        variables = tuple(variables)
        pos = [variables.index(v) for v in self.variables] + [len(variables)]
        out = {}
        for m, c in self.prim.items():
            ne = [0] * (len(variables) + 1)
            for p, k in zip(pos, m):
                ne[p] = k  # positional: a repeated name lands on its first slot
            out[tuple(ne)] = c
        return _normal(variables, out, self.content, self.shift)

    def substitute(self, mapping: dict, target_vars=None) -> "RationalFunction":
        """Substitute RationalFunctions for variables; others must be absent.

        Over a common denominator: with D_v = degree_in(v) and
        mapping[v] = n_v/d_v, the result is N/D where
        N = sum_e c_e prod_v n_v^e_v d_v^(D_v - e_v) and D = prod_v d_v^D_v,
        normalized once.
        """
        (num,), degrees = _substituted((self,), mapping, target_vars)
        den = _one(num.variables)
        for v, top in degrees.items():
            den = den * mapping[v].den ** top
        return RationalFunction(num, den)

    # -- sympy expressions (reference conversions, not on the engine path) --

    def to_sympy(self):
        return _qq_elem(self).as_expr() * TAU_SYM**self.shift

    @staticmethod
    def from_sympy(expr, variables) -> "Polynomial":
        """Inverse of to_sympy; negative TAU powers are allowed."""
        variables = tuple(variables)
        expr = sp.expand(expr)
        low = min(t.as_coeff_exponent(TAU_SYM)[1] for t in sp.Add.make_args(expr))
        elem = _ring(variables).from_expr(sp.expand(expr * TAU_SYM**-low))
        return _from_qq(variables, elem, int(low))

    # -- equality / printing -------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.variables == other.variables
            and self.shift == other.shift
            and self.content == other.content
            and self.prim == other.prim
        )

    def __hash__(self):
        c = self.content
        # the terms, not self.prim: sympy caches a PolyElement's hash, and
        # `div` builds its quotients in place after that cache is filled
        prim = frozenset(self.prim.items())
        return hash((self.variables, self.shift, c.numerator, c.denominator, prim))

    def __repr__(self):
        return "Polynomial(%s)" % str(self)

    def __str__(self):
        if not self.variables:  # a scalar prints bare
            return _tau_text(
                {m[-1]: a for m, a in self.prim.items()}, self.shift, self.content)
        return _poly_text(self)


def _poly_text(p: Polynomial) -> str:
    """p's terms, graded-lex descending; a TAU-sum coefficient in parentheses."""
    groups = _tau_groups(p.prim)
    if not groups:
        return "0"
    parts = []
    for e in sorted(groups, key=grlex_key, reverse=True):
        mono = "*".join(
            ("%s^%d" % (v, k) if k > 1 else v) for v, k in zip(p.variables, e) if k
        )
        cs = _tau_text(groups[e], p.shift, p.content)
        if len(groups[e]) > 1:
            cs = "(%s)" % cs
        if not mono:
            parts.append(cs)
        elif cs == "1":
            parts.append(mono)
        elif cs == "-1":
            parts.append("-%s" % mono)
        else:
            parts.append("%s*%s" % (cs, mono))
    return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# gcd / division / elimination in the ring
# ---------------------------------------------------------------------------


@functools.cache
def _one(variables) -> Polynomial:
    """The shared 1 of a variable tuple; a Polynomial is immutable."""
    return Polynomial._same(variables, _zring(variables).one)


@functools.cache
def _zero(variables) -> Polynomial:
    """The shared 0 of a variable tuple."""
    return Polynomial._same(variables, _zring(variables).zero)


def _substituted(polys, mapping: dict, target_vars=None):
    """Numerators of polys substituted over one common denominator.

    With mapping[v] = n_v/d_v and D_v the largest degree in v among the
    polys, each p becomes N_p / prod_v d_v^D_v with
    N_p = sum_e c_e prod_v n_v^e_v d_v^(D_v - e_v).  Returns the N_p and
    {v: D_v}.  Each poly is checked for missing substitutions
    and variable mismatches in turn.  One-term maps take
    `_monomial_substituted`, with no powers or ring products.
    """
    target = tuple(target_vars) if target_vars is not None else None
    degrees: dict = {}
    for p in polys:
        seen = {v: k for v, k in zip(p.variables, p.prim.degrees()) if k > 0}
        for v in seen:
            if v not in mapping:
                raise PolynomialError("no substitution for variable %s" % v)
        if target is None:
            if not mapping:
                raise PolynomialError("empty substitution mapping")
            target = next(iter(mapping.values())).variables
        for v, k in seen.items():
            if mapping[v].variables != target:
                raise PolynomialError(
                    "variable mismatch: %s vs %s" % (target, mapping[v].variables)
                )
            degrees[v] = max(k, degrees.get(v, 0))
    if all(len(mapping[v].num.prim) <= 1 and len(mapping[v].den.prim) == 1 for v in degrees):
        return _monomial_substituted(polys, mapping, degrees, target), degrees
    ring = _zring(target)
    tau = (0,) * len(target)
    # factors[v][k] = (elem, s) with n_v^k d_v^(D_v - k) = TAU^(low_v + s) elem / M_v
    factors, low, content = {}, 0, _ONE
    for v, top in degrees.items():
        n, d = mapping[v].num, mapping[v].den
        num_pows, den_pows = [ring.one], [ring.one]
        for _ in range(top):
            num_pows.append(num_pows[-1] * n.prim)
            den_pows.append(den_pows[-1] * d.prim)
        shifts = [k * n.shift + (top - k) * d.shift for k in range(top + 1)]
        low_v = min(shifts)
        # the weights c_n^k c_d^(D_v - k) over their common denominator M_v
        weights = [n.content**k * d.content ** (top - k) for k in range(top + 1)]
        M = math.lcm(*(w.denominator for w in weights))
        factors[v] = [
            (a * b * (w.numerator * (M // w.denominator)), s - low_v)
            for a, b, w, s in zip(num_pows, reversed(den_pows), weights, shifts)
        ]
        content /= M
        low += low_v
    nums = []
    for p in polys:
        acc = ring.zero
        for e, cs in _tau_groups(p.prim).items():
            term, shift = ring.dtype({tau + (k,): a for k, a in cs.items()}), 0
            for v, k in zip(p.variables, e):
                if v in factors:
                    elem, s = factors[v][k]
                    term, shift = term * elem, shift + s
            if shift:
                term = term.mul_monom(tau + (shift,))
            acc += term
        nums.append(_normal(target, acc, p.content * content, p.shift + low))
    return nums, degrees


def _monomial_substituted(polys, mapping: dict, degrees: dict, target):
    """_substituted for maps with n_v = a_v x^A_v or 0 and d_v = x^B_v,
    as a canonical one-term denominator is (coefficient 1, no TAU).

    A one-term n_v is its content a_v times a monomial.  With TAU^shift
    counted in A_v's TAU column, n_v^e d_v^(D_v - e) is the one term
    a_v^e x^(D_v B_v + e (A_v - B_v)), so each term of p maps to one term
    by exponent arithmetic.  Its TAU exponent is at least D_v min(A_v[TAU], 0),
    which goes into the shift, so every exponent of the result is >= 0.
    For n_v = 0, only the terms with e = 0 are left.
    """
    tau = len(target)
    start, low, images = [0] * (tau + 1), 0, {}
    for v, top in degrees.items():
        n, (B,) = mapping[v].num, mapping[v].den.prim
        for j, k in enumerate(B):
            start[j] += top * k
        if n.prim:
            ((A, _),) = n.prim.items()
            A = A[:-1] + (A[-1] + n.shift,)
            images[v] = ([(j, x - y) for j, (x, y) in enumerate(zip(A, B)) if x != y], n.content)
            floor = top * min(A[-1], 0)
            start[-1] -= floor
            low += floor
        else:
            images[v] = ([], _ZERO)
    nums = []
    for p in polys:
        moves, scales = [(len(p.variables), tau, 1)], []  # TAU stays TAU
        for i, v in enumerate(p.variables):
            if v in images:
                delta, a = images[v]
                moves.extend((i, j, d) for j, d in delta)
                if a != 1:
                    scales.append((i, a))
        out, den = _map_terms(p.prim, moves, scales, start)
        c = p.content / den if den != 1 else p.content
        nums.append(_normal(target, out, c, p.shift + low))
    return nums


def _map_terms(elem, moves, scales, start):
    """The image of elem under a map that sends each term to one term,
    as (integer terms, den).

    A term a * x^m (m[-1] the TAU power) goes to a * prod r^m_i over the
    (i, r) in scales, at the exponent start + sum m_i * d e_j over the
    (i, j, d) in moves; it vanishes when some r is 0 and m_i > 0.  With
    r = n/d and D the largest m_i over the terms, the image times
    den = prod d^D has the integer coefficients a * prod n^m_i d^(D - m_i).
    Terms that land on one exponent are summed, and zero sums dropped.
    """
    den, powers = 1, []
    for i, r in scales:
        n, d = r.numerator, r.denominator
        top = max((m[i] for m in elem), default=0) if d != 1 else 0
        den *= d**top
        powers.append((i, n, d, top))
    out: dict = {}
    for m, c in elem.items():
        for i, n, d, top in powers:
            k = m[i]
            if k:
                if not n:
                    break
                c *= n**k
            if k < top:
                c *= d ** (top - k)
        else:
            e = list(start)
            for i, j, d in moves:
                e[j] += m[i] * d
            e = tuple(e)
            out[e] = out[e] + c if e in out else c
    return {e: c for e, c in out.items() if c}, den


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Canonical gcd; unit-normalized so the leading coefficient is 1."""
    return _canonical_assoc(_cofactors(a, b)[0])


def _canonical_assoc(p: Polynomial) -> Polynomial:
    """Divide out the leading coefficient (must be a TAU-monomial)."""
    if p.is_zero():
        return p
    _, lead = _lead(p.prim)
    if len(lead) != 1:
        raise PolynomialError(
            "leading coefficient is not a TAU-monomial: %s" % _poly_text(p)
        )
    ((k, a),) = lead.items()
    return Polynomial._same(p.variables, p.prim, Fraction(1, a) if a != 1 else _ONE, -k)


def poly_divides(p: Polynomial, q: Polynomial) -> bool:
    """Does p divide q exactly?"""
    if q.is_zero():
        return True
    if p.is_zero():
        return False
    return not q.prim.rem(p.prim)


def poly_div_exact(q: Polynomial, p: Polynomial) -> Polynomial:
    quo, rem = q.prim.div(p.prim)
    if rem:
        raise PolynomialError("inexact division")
    return Polynomial._same(q.variables, quo, q.content / p.content, q.shift - p.shift)


def poly_valuation(q: Polynomial, p: Polynomial):
    """(k, q / p^k) for the largest k with p^k dividing a nonzero q, p
    nonconstant: for a one-term p = c x^a, k is the least m_i // a_i over
    the terms x^m of q and the i with a_i > 0; otherwise one division of
    the primitive parts per step, the last one inexact."""
    P = p.prim
    if not q.prim:
        raise PolynomialError("valuation of the zero polynomial")
    if p.is_constant():
        raise PolynomialError("valuation along a constant")
    if len(P) == 1:
        ((a, _),) = P.items()
        k = min(m[i] // e for m in q.prim for i, e in enumerate(a) if e)
        Q = _quo_monom(q.prim, tuple(k * e for e in a)) if k else q.prim
    else:
        k, Q = 0, q.prim
        while True:
            quo, rem = Q.div(P)
            if rem:
                break
            Q, k = quo, k + 1
    if not k:
        return 0, q
    return k, Polynomial._same(
        q.variables, Q, q.content / p.content**k, q.shift - k * p.shift
    )


def poly_resultant(a: Polynomial, b: Polynomial, var: str) -> Polynomial:
    """Resultant in `var`: with A, B the primitive parts, of degrees dA, dB
    in var, res(TAU^s c A, TAU^t e B) = TAU^(s dB + t dA) c^dB e^dA res(A, B)."""
    rest = tuple(v for v in a.variables if v != var)
    R = _zring((var,) + rest)
    A, B = a.prim.set_ring(R), b.prim.set_ring(R)
    res = A.resultant(B)
    if not res:
        return Polynomial.zero(rest)
    dA, dB = A.degree(0), B.degree(0)
    return _normal(
        rest, dict(res), a.content**dB * b.content**dA, a.shift * dB + b.shift * dA
    )


def squarefree_part(p: Polynomial) -> Polynomial:
    """p divided by g, the gcd of p with all its partials: each irreducible
    factor of p once.  p itself, the same object, when g is a unit."""
    g = p
    for v in p.variables:
        if p.depends_on(v) and not g.is_unit():
            g = poly_gcd(g, p.differentiate(v))
    return p if g.is_unit() else poly_div_exact(p, g)


def is_squarefree(p: Polynomial) -> bool:
    """The gcd of p with all its partials is a unit; a line passes at once."""
    return p.total_degree() <= 1 or squarefree_part(p) is p


def line_with_root(variables, r: Fraction) -> Polynomial:
    """x - r in the one variable x, built in normal form with no ring
    arithmetic: for r = n/d in lowest terms (d > 0), the primitive part
    d*x - n, whose lex-leading coefficient d is positive, and content 1/d;
    x itself for r = 0.  The inverse of `line_root`."""
    variables = tuple(variables)
    R = _zring(variables)
    n, d = r.numerator, r.denominator
    prim = R.dtype({(1, 0): ZZ(d), (0, 0): ZZ(-n)} if n else {(1, 0): ZZ(1)})
    return Polynomial._same(variables, prim, Fraction(1, d) if d != 1 else _ONE)


def line_root(p: Polynomial):
    """The root -b/a of a*x + b, in one variable with rational a != 0 and
    b: read off the primitive part.  None for any other polynomial."""
    P = p.prim
    if len(p.variables) != 1 or p.shift or P.degree(0) != 1 or P.degree(1) > 0:
        return None
    return Fraction(-P.get((0, 0), 0), P[(1, 0)])


def rational_roots(p: Polynomial):
    """All rational roots of a univariate polynomial, with multiplicity.

    Returns (roots, fully_split) where fully_split is True when the
    polynomial factors completely into linear factors over Q.  The roots
    are those of the primitive part.  Degrees 1 and 2 take the closed
    form, higher degrees sympy's `factor_list` over ZZ.
    """
    (_,) = p.variables
    if p.shift or p.prim.degree(1) > 0:
        raise PolynomialError("rational_roots needs TAU-free coefficients")
    f = p.prim.drop(1)
    if 1 <= f.degree() <= 2:
        c0, c1, c2 = (f.get((k,), 0) for k in range(3))
        if not c2:
            return [(Fraction(-c0, c1), 1)], True
        disc = c1 * c1 - 4 * c2 * c0
        if disc < 0:
            return [], False
        r = math.isqrt(disc)
        if r * r != disc:
            return [], False
        if not r:
            return [(Fraction(-c1, 2 * c2), 2)], True
        return sorted([(Fraction(-c1 - r, 2 * c2), 1), (Fraction(-c1 + r, 2 * c2), 1)]), True
    roots = []
    for factor, mult in f.factor_list()[1]:
        if factor.degree() == 1:
            roots.append((Fraction(-factor.get((0,), 0), factor[(1,)]), mult))
    roots.sort(key=lambda rm: rm[0])
    return roots, sum(m for _, m in roots) == f.degree()


# ---------------------------------------------------------------------------
# RationalFunction
# ---------------------------------------------------------------------------

POLE_FREE = math.inf  # ord_along sentinel for the zero function


class RationalFunction:
    """Canonical fraction of Polynomials.

    Invariants: gcd(num, den) is a unit and the graded-lex leading
    coefficient of den is exactly 1 (rational part 1, TAU-exponent 0).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial, _canonical=False):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _canonical:
            num, den = _normalize(num, den)
        self.num = num
        self.den = den

    @property
    def variables(self):
        return self.num.variables

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_poly(p: Polynomial) -> "RationalFunction":
        return RationalFunction(p, _one(p.variables), _canonical=True)

    @staticmethod
    def constant(variables, scalar) -> "RationalFunction":
        return RationalFunction.from_poly(Polynomial.constant(variables, scalar))

    @staticmethod
    def variable(variables, name) -> "RationalFunction":
        return RationalFunction.from_poly(Polynomial.variable(variables, name))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Polynomial:
        return self.num.constant_value() / self.den.constant_value()

    def is_polynomial(self) -> bool:
        return self.den.is_unit()

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        n1._check(n2)
        if d1 == d2:  # g = d1: only gcd(n1 + n2, d1) is left
            return RationalFunction(n1 + n2, d1, _canonical=d1.is_one())
        if not (d1.is_one() or d2.is_one()):
            g, e1, e2 = _cofactors(d1, d2)
            if not g.is_constant():
                # t/g2 over (d1/g)(d2/g2), g2 = gcd(t, g)
                _, t, g = _cofactors(n1 * e2 + n2 * e1, g)
                return _coprime(t, e1 * e2 * g)
        return _coprime(n1 * d2 + n2 * d1, d1 * d2)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        n1._check(n2)
        if not (n1.is_zero() or n2.is_zero()):
            if not d2.is_one():
                _, n1, d2 = _cofactors(n1, d2)
            if not d1.is_one():
                _, n2, d1 = _cofactors(n2, d1)
        return _coprime(n1 * n2, d1 * d2)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return (RationalFunction.constant(self.variables, 1) / self) ** -n
        return RationalFunction(self.num**n, self.den**n)

    def scale(self, scalar: Polynomial) -> "RationalFunction":
        return _coprime(self.num.scale(scalar), self.den)

    def times_poly(self, p: Polynomial) -> "RationalFunction":
        """self * p.  Where p divides den, num / (den / p) is coprime as it
        stands, and the lead of den / p is a unit of Q[TAU, TAU^-1] (leads
        multiply, den's is 1), a TAU-monomial for `_coprime` to divide out;
        elsewhere the cross-cancelling product.  One division of the
        primitive parts decides which."""
        d = self.den
        quo, rem = d.prim.div(p.prim)
        if rem:
            return self * RationalFunction.from_poly(p)
        return _coprime(self.num, Polynomial._same(
            d.variables, quo, d.content / p.content, d.shift - p.shift))

    # -- calculus / evaluation ------------------------------------------

    def differentiate(self, name: str) -> "RationalFunction":
        if name not in self.variables:
            raise PolynomialError("unknown variable %s" % name)
        n, d = self.num, self.den
        dn = n.differentiate(name)
        if d.is_one():
            return RationalFunction(dn, d, _canonical=True)
        dd = d.differentiate(name)
        if dd.is_zero():
            return RationalFunction(dn, d)
        g, e, f = _cofactors(d, dd)
        if g.is_constant():
            return _coprime(dn * d - n * dd, d * d)
        # d = g e and d' = g f: (n' e - n f) / (g e^2)
        return RationalFunction(dn * e - n * f, g * e * e)

    def evaluate(self, point: dict) -> Polynomial:
        dv = self.den.evaluate(point)
        if dv.is_zero():
            raise ZeroDivisionError("evaluation at a pole")
        return self.num.evaluate(point) / dv

    def substitute(self, mapping: dict, target_vars=None) -> "RationalFunction":
        """One fraction: num and den are substituted over the same common
        denominator prod_v d_v^D_v (see `_substituted`), which cancels, so
        the result is N_num/N_den, normalized once."""
        (n, d), _ = _substituted((self.num, self.den), mapping, target_vars)
        if d.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(n, d)

    def rename(self, variables) -> "RationalFunction":
        return RationalFunction(
            self.num.rename(variables), self.den.rename(variables), _canonical=True
        )

    def lift(self, variables) -> "RationalFunction":
        return RationalFunction(self.num.lift(variables), self.den.lift(variables))

    def ord_along(self, p: Polynomial) -> "int | float":
        """Valuation along the irreducible hypersurface {p = 0}.

        Negative = pole order.  Returns POLE_FREE (+inf) for the zero
        function.
        """
        if p.is_constant():
            raise PolynomialError("ord_along needs a nonconstant polynomial")
        if self.is_zero():
            return POLE_FREE
        return poly_valuation(self.num, p)[0] - poly_valuation(self.den, p)[0]

    # -- equality / printing -------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return "RationalFunction(%s)" % str(self)

    def __str__(self):
        """num, or num/den; a constant prints as a coefficient, a TAU-sum in
        parentheses, also in zero variables."""
        ns = _poly_text(self.num)
        if self.den.is_unit():
            return ns
        if not _atomic(self.num):
            ns = "(%s)" % ns
        ds = _poly_text(self.den)
        if not _atomic(self.den):
            ds = "(%s)" % ds
        return "%s/%s" % (ns, ds)


def _atomic(p: Polynomial) -> bool:
    """Single term that prints without an ambiguous * or ^."""
    groups = _tau_groups(p.prim)
    if len(groups) != 1:
        return False
    ((e, cs),) = groups.items()
    text = _tau_text(cs, p.shift, p.content)
    if sum(e) == 0:
        return len(cs) == 1 and "*" not in text
    return sum(e) == 1 and text in ("1", "-1")


def _normalize(num: Polynomial, den: Polynomial):
    """Reduce to the canonical fraction (gcd out, den leading coeff 1).

    With num = TAU^s N, den = TAU^t D and h = gcd(N, D), the fraction is
    TAU^(s-t) (N/h) / (D/h); dividing both by the leading coefficient c*TAU^k
    of D/h makes the denominator's leading coefficient 1.  Leading
    coefficients multiply, so D/h has the lead of D divided by the lead of
    h: a TAU-sum lead of D can cancel against h, as in (1 + TAU)/(1 + TAU).
    A denominator refused here still has a TAU-sum lead after h is divided
    out; the refusal names the lead of D.
    """
    if num.is_zero():
        return num, _one(den.variables)
    if den.is_one():
        return num, den
    _, num, reduced = _cofactors(num, den)
    if len(_lead(reduced.prim)[1]) != 1:
        raise PolynomialError(
            "cannot normalize: denominator leading coefficient %s is a TAU-sum"
            % _tau_text(_lead(den.prim)[1], den.shift, den.content)
        )
    return _lead_one(num, reduced)


def _cofactors(a: Polynomial, b: Polynomial):
    """(h, a/h, b/h) for a gcd h of a and b, fixed up to a constant factor.

    When a or b is a single term, h is a monomial: the least exponent of
    each variable (and of TAU) over the terms of both.  When a or b is a
    line L, h is L made monic, as sympy's gcd over Q is, if one division
    of the other operand by L is exact, and 1 otherwise.  Otherwise h is
    sympy's gcd of the primitive parts in ZZ (the heuristic gcd, which is
    primitive with a positive leading coefficient).
    """
    A, B = a.prim, b.prim
    V = a.variables
    if A and B and (len(A) == 1 or len(B) == 1):
        low = tuple(map(min, *A, *B))
        if not any(low):
            return _one(V), a, b
        h, p, q = A.ring.dtype({low: 1}), _quo_monom(A, low), _quo_monom(B, low)
        hc, pc, qc = _ONE, a.content, b.content
    elif A and B and (_is_line(A) or _is_line(B)):
        L, O = (A, B) if _is_line(A) else (B, A)
        quo, rem = O.div(L)
        if rem:
            return _one(V), a, b
        c = L.LC
        h, hc = L, Fraction(1, c)
        if L is A:
            p, pc, q, qc = A.ring.one, a.content * c, quo, b.content * c
        else:
            p, pc, q, qc = quo, a.content * c, B.ring.one, b.content * c
    else:
        h, p, q = A.cofactors(B)
        hc, pc, qc = _ONE, a.content, b.content
    return (
        Polynomial._same(V, h, hc),
        Polynomial._same(V, p, pc, a.shift),
        Polynomial._same(V, q, qc, b.shift),
    )


def _is_line(elem) -> bool:
    """Total degree at most 1 in ZZ[variables, TAU]."""
    return all(sum(m) <= 1 for m in elem)


def _quo_monom(elem, low):
    """elem divided by the monomial low, which divides each of its terms."""
    return elem.new({tuple(x - y for x, y in zip(m, low)): c for m, c in elem.items()})


def _lead_one(num: Polynomial, den: Polynomial):
    """num and den divided by den's leading coefficient, a TAU-monomial
    content * a * TAU^k: only their contents and shifts change."""
    ((k, a),) = _lead(den.prim)[1].items()
    k += den.shift
    c = den.content if a == 1 else den.content * a
    if c == 1:
        if k == 0:
            return num, den
        return (
            Polynomial._same(num.variables, num.prim, num.content, num.shift - k),
            Polynomial._same(den.variables, den.prim, den.content, den.shift - k),
        )
    return (
        Polynomial._same(num.variables, num.prim, num.content / c, num.shift - k),
        Polynomial._same(den.variables, den.prim, Fraction(1, a) if a != 1 else _ONE, den.shift - k),
    )


def _coprime(num: Polynomial, den: Polynomial) -> RationalFunction:
    """The canonical fraction num/den of coprime num and den."""
    if num.is_zero():
        return RationalFunction(num, _one(den.variables), _canonical=True)
    return RationalFunction(*_lead_one(num, den), _canonical=True)


# ---------------------------------------------------------------------------
# one variable over the field of the others
# ---------------------------------------------------------------------------


def to_univariate(rf: RationalFunction, var: str):
    """rf as an element of PolyRing([var], QQ(the other variables, TAU)).

    The denominator must not depend on var.
    """
    if rf.den.depends_on(var):
        raise PolynomialError("denominator depends on %s" % var)
    i = rf.variables.index(var)
    K = _field(rf.variables[:i] + rf.variables[i + 1 :])

    def drop(m):
        return m[:i] + m[i + 1 :]

    den = K.new(K.ring.dtype({drop(m): c for m, c in _qq_elem(rf.den).items()}))
    scale = K.gens[-1] ** (rf.num.shift - rf.den.shift) / den
    groups: dict = {}
    for m, c in _qq_elem(rf.num).items():
        groups.setdefault(m[i], {})[drop(m)] = c
    R = PolyRing([sp.Symbol(var)], K.to_domain(), lex)
    return R.dtype({(k,): K.new(K.ring.dtype(g)) * scale for k, g in groups.items()})


def inverse_mod(f, m):
    """f^-1 modulo m in a to_univariate ring; ZeroDivisionError if they share a factor."""
    inverse, _, h = f.gcdex(m)
    if h.degree() > 0:
        raise ZeroDivisionError("element is a zero-divisor modulo the modulus")
    return inverse


def to_field(rf: RationalFunction):
    """rf as an element of _field(rf.variables), QQ(variables, TAU)."""
    K = _field(rf.variables)
    tau = K.gens[-1] ** (rf.num.shift - rf.den.shift)
    return K.new(_qq_elem(rf.num)) * tau / K.new(_qq_elem(rf.den))


def from_univariate(f, variables) -> RationalFunction:
    """Inverse of to_univariate, normalized once over the coefficients' lcm denominator.

    `variables` names the field's variables and, unless f is constant,
    f's generator.
    """
    variables = tuple(variables)
    rest = tuple(s.name for s in f.ring.domain.field.symbols[:-1])
    den = functools.reduce(
        lambda a, b: a.lcm(b), (c.denom for c in f.values()), _ring(rest).one
    )
    num = Polynomial.zero(variables)
    for (k,), c in f.items():
        term = _from_qq(rest, c.numer * den.exquo(c.denom)).lift(variables)
        if k:
            term = term * Polynomial.variable(variables, f.ring.symbols[0].name) ** k
        num = num + term
    return RationalFunction(num, _from_qq(rest, den).lift(variables))
