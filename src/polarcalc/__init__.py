"""polarcalc: exact engine for polar chains, residues, and the cylinder homotopy."""

from .polynomials import Polynomial, RationalFunction, ScalarError

__all__ = ["ScalarError", "Polynomial", "RationalFunction"]
