"""polarcalc: exact engine for polar chains, residues, and the cylinder homotopy."""

from .scalars import Scalar, ScalarError
from .polynomials import Polynomial, RationalFunction

__all__ = ["Scalar", "ScalarError", "Polynomial", "RationalFunction"]
