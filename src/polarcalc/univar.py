"""Univariate polynomial helpers over a coefficient field.

Coefficients are RationalFunction values (so the field can be Q(x) or
Q(w) as needed).  A polynomial is a plain list [c0, c1, ...]; trailing
zeros are stripped.  Used for curve-ring reduction (extended Euclid in
Q(x)[y] modulo the defining polynomial) and for the trace pushforward
(arithmetic modulo the fiber polynomial over Q(w)).
"""

from __future__ import annotations

from .polynomials import Polynomial, RationalFunction
from .scalars import Scalar


def trim(p):
    while p and p[-1].is_zero():
        p.pop()
    return p


def udeg(p):
    return len(p) - 1


def uadd(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        if i < len(a) and i < len(b):
            out.append(a[i] + b[i])
        elif i < len(a):
            out.append(a[i])
        else:
            out.append(b[i])
    return trim(out)


def uneg(a):
    return [-c for c in a]


def usub(a, b):
    return uadd(a, uneg(b))


def umul(a, b):
    if not a or not b:
        return []
    out = [None] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            p = ca * cb
            out[i + j] = p if out[i + j] is None else out[i + j] + p
    return trim(out)


def uscale(a, rf):
    return trim([c * rf for c in a])


def udivmod(a, b):
    if not b:
        raise ZeroDivisionError("division by zero univariate polynomial")
    a = list(a)
    q = []
    db = udeg(b)
    lead = b[-1]
    while a and udeg(a) >= db:
        k = udeg(a) - db
        c = a[-1] / lead
        q = uadd(q, [_zero_like(c)] * k + [c])
        a = usub(a, umul([_zero_like(c)] * k + [c], b))
    return q, trim(a)


def _zero_like(rf: RationalFunction) -> RationalFunction:
    return RationalFunction.constant(rf.variables, Scalar.zero())


def umod(a, b):
    return udivmod(a, b)[1]


def ugcdex(a, b):
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g."""
    if not a and not b:
        raise ZeroDivisionError("gcd of zero polynomials")
    var_src = (a or b)[0].variables
    one = RationalFunction.constant(var_src, Scalar.one())
    zero = RationalFunction.constant(var_src, Scalar.zero())
    r0, r1 = list(a), list(b)
    s0, s1 = [one], []
    t0, t1 = [], [one]
    while r1:
        q, r = udivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, usub(s0, umul(q, s1))
        t0, t1 = t1, usub(t0, umul(q, t1))
    # normalize so the gcd is monic
    lead = r0[-1]
    inv = one / lead
    return uscale(r0, inv), uscale(s0, inv), uscale(t0, inv)


def uinvert(a, modulus):
    """Inverse of a modulo `modulus`; raises if not coprime."""
    g, s, _ = ugcdex(a, modulus)
    if udeg(g) != 0:
        raise ZeroDivisionError("element is a zero-divisor modulo the modulus")
    inv_g = RationalFunction.constant(g[0].variables, Scalar.one()) / g[0]
    return trim([c * inv_g for c in s])


def from_poly_in(p: Polynomial, main_var: str, rest_vars):
    """Split a Polynomial into a univariate list over RF(rest_vars)."""
    rest_vars = tuple(rest_vars)
    i = p.variables.index(main_var)
    buckets: dict = {}
    for e, c in p.terms.items():
        k = e[i]
        re = tuple(x for j, x in enumerate(e) if j != i)
        b = buckets.setdefault(k, {})
        b[re] = b.get(re, Scalar.zero()) + c
    if not buckets:
        return []
    top = max(buckets)
    out = []
    for k in range(top + 1):
        terms = buckets.get(k, {})
        out.append(RationalFunction.from_poly(Polynomial(rest_vars, terms)))
    return trim(out)


def to_rf(p, main_var: str, full_vars) -> RationalFunction:
    """Reassemble a univariate list into a RationalFunction on full_vars."""
    full_vars = tuple(full_vars)
    acc = RationalFunction.constant(full_vars, Scalar.zero())
    v = RationalFunction.variable(full_vars, main_var)
    for k, c in enumerate(p):
        acc = acc + c.lift(full_vars) * v**k
    return acc


def newton_power_sums(p, count: int):
    """Power sums s_1..s_count of the roots of a monic-normalized p.

    p is a univariate list over a field; leading coefficient need not
    be 1 (it is divided out).  Newton's identities over the exact
    coefficient field.
    """
    n = udeg(p)
    if n <= 0:
        return []
    lead = p[-1]
    one = RationalFunction.constant(lead.variables, Scalar.one())
    # elementary symmetric functions with signs: p = lead * prod(z - r_i)
    e = [one]
    for k in range(1, n + 1):
        c = p[n - k] / lead
        if k % 2 == 1:
            c = -c
        e.append(c)
    zero = RationalFunction.constant(lead.variables, Scalar.zero())
    s = []
    for k in range(1, count + 1):
        acc = zero
        for i in range(1, min(k - 1, n) + 1):
            term = e[i] * s[k - i - 1]
            acc = acc + (term if i % 2 == 1 else -term)
        if k <= n:
            term = e[k] * RationalFunction.constant(lead.variables, Scalar.of(k))
            acc = acc + (term if k % 2 == 1 else -term)
        s.append(acc)
    return s
