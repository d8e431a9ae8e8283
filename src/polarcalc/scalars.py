"""Exact scalars: rationals with a formal transcendental TAU.

A Scalar is a finite Laurent ledger {tau_exponent: Fraction}.  TAU is
never evaluated numerically; it is carried through every computation so
that boundary degrees stay visible.  Division is only defined when the
divisor is a single TAU-monomial.
"""

from __future__ import annotations

from fractions import Fraction


class ScalarError(ArithmeticError):
    pass


class Scalar:
    """Finite sum  sum_k  c_k * TAU^k  with exact rational c_k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            coeffs = {}
        clean = {}
        for k, c in coeffs.items():
            c = Fraction(c)
            if c != 0:
                clean[int(k)] = c
        self.coeffs = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(value, tau_exp: int = 0) -> "Scalar":
        return Scalar({tau_exp: Fraction(value)})

    @staticmethod
    def zero() -> "Scalar":
        return Scalar({})

    @staticmethod
    def one() -> "Scalar":
        return Scalar({0: Fraction(1)})

    @staticmethod
    def tau(exp: int = 1) -> "Scalar":
        return Scalar({exp: Fraction(1)})

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == {0: Fraction(1)}

    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    def is_rational(self) -> bool:
        return not self.coeffs or set(self.coeffs) == {0}

    def rational_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_rational():
            raise ScalarError("scalar has nonzero TAU grade: %s" % self)
        return self.coeffs[0]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + c
        return Scalar(out)

    def __neg__(self) -> "Scalar":
        return Scalar({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return Scalar(out)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        if other.is_zero():
            raise ScalarError("division by zero scalar")
        if not other.is_monomial():
            raise ScalarError(
                "division only defined by a single TAU-monomial, got %s" % other
            )
        ((k, c),) = other.coeffs.items()
        return Scalar({j - k: d / c for j, d in self.coeffs.items()})

    def inverse(self) -> "Scalar":
        return Scalar.one() / self

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return (self ** (-n)).inverse()
        out = Scalar.one()
        for _ in range(n):
            out = out * self
        return out

    # -- structure -----------------------------------------------------

    def tau_exponents(self):
        return sorted(self.coeffs)

    def min_tau(self) -> int:
        if self.is_zero():
            return 0
        return min(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Scalar) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        return "Scalar(%s)" % str(self)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append("%s*TAU" % c if c != 1 else "TAU")
            else:
                parts.append("%s*TAU^%d" % (c, k) if c != 1 else "TAU^%d" % k)
        return " + ".join(parts).replace("+ -", "- ")


ZERO = Scalar.zero()
ONE = Scalar.one()
TAU = Scalar.tau()
