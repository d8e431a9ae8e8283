"""Run and verify one case of a workload against the engine's public API.

A runner is called as `runner(index, kind, payload)` with one item of
`inputs.generate` and returns `(ok, report)`: whether the engine's verdict
is exact, and a JSON-able report whose bytes feed the output digest.

Each case gets its own engine `random.Random`, derived from (seed, case
index) and separate from the input stream, so a change in how many probes
the engine draws cannot re-sample later inputs.

Traced functions are reached through their modules (`chains.make_triple`,
not an imported name), so the tracer's patches apply here too.
"""

import hashlib
import random
from fractions import Fraction

from polarcalc import chains, homotopy, session
from polarcalc.geometry import DivisorComponent, VarietyPoint, catalog_build
from polarcalc.maps import VarietyMap
from polarcalc.parsing import parse_form, parse_polynomial, parse_rational

from inputs import BASEPOINT


def engine_seed(seed, index):
    """Seed of the engine's random stream for one case."""
    digest = hashlib.sha256(b"engine:%d:%d" % (seed, index)).digest()
    return int.from_bytes(digest[:8], "big")


class DsqRunner:
    """Each case in a fresh session: `let A`, `let c`, `dsq c`."""

    def __init__(self, seed):
        self.seed = seed

    def __call__(self, index, kind, statements):
        state = session.Session(seed=engine_seed(self.seed, index))
        reports = [session.run_statement(state, s) for s in statements]
        return all(r["status"] == "ok" for r in reports), reports


class CylinderRunner:
    """Build the chain from text, then verify dh + hd = id - s*pi*."""

    def __init__(self, seed):
        self.seed = seed
        self.ambient = catalog_build("P1(t) x P1(z)")
        self.line = catalog_build("P1(t)")

    def _terms(self, spec, rng):
        if "points" in spec:
            return [
                chains.point_term(
                    self.ambient,
                    VarietyPoint.product_point([Fraction(t), Fraction(z)]),
                    parse_rational(w, ()).constant_value())
                for t, z, w in spec["points"]
            ]
        chart = self.line.main_chart
        section = VarietyMap(self.line, self.ambient, self.ambient.main_chart.id, {
            "t": parse_rational("t", chart.coords),
            "z": parse_rational(spec["section"], chart.coords),
        })
        form = parse_form(spec["form"], chart.coords, chart.id)
        poles = [
            DivisorComponent.from_chart_poly(
                self.line, chart.id, parse_polynomial(p, chart.coords))
            for p in spec["poles"]
        ]
        return [chains.make_triple(self.line, section, form, poles, rng)]

    def __call__(self, index, kind, spec):
        rng = random.Random(engine_seed(self.seed, index))
        chain = chains.PolarChain(self.ambient, self._terms(spec, rng))
        rep = homotopy.verify_homotopy_identity(chain, BASEPOINT, rng)
        return rep["zero"], {
            "zero": rep["zero"],
            "basepoint": rep["basepoint"],
            "records": rep["records"],
            "residual": session.describe_chain(rep["residual"]),
            "s_pi": session.describe_chain(rep["s_pi"]),
        }


RUNNERS = {"dsq-mix": DsqRunner, "cylinder": CylinderRunner}
