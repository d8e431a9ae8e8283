"""Self-tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from cases import RUNNERS  # noqa: E402
from inputs import WORKLOADS, generate  # noqa: E402
from tracer import FUNCTIONS, Tracer  # noqa: E402


def input_bytes(workload, seed, count):
    cases = generate(workload, seed)
    return json.dumps([next(cases) for _ in range(count)]).encode()


def test_same_seed_same_input_bytes():
    for workload in WORKLOADS:
        assert input_bytes(workload, 3, 40) == input_bytes(workload, 3, 40)
        assert input_bytes(workload, 3, 40) != input_bytes(workload, 4, 40)


def _bound_objects():
    """Every place a traced function is reachable from, with its object."""
    out = {}
    for name, module in sys.modules.items():
        if name == "polarcalc" or name.startswith("polarcalc."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for k, v in vars(value).items():
                        out[(name, attr, k)] = v
    return out


def test_uninstall_restores_originals():
    before = _bound_objects()
    tracer = Tracer()
    tracer.install()
    try:
        patched = _bound_objects()
    finally:
        tracer.uninstall()
    changed = [k for k in before if patched[k] is not before[k]]
    # every listed function, plus the modules that imported it by name
    assert len(changed) >= len(FUNCTIONS)
    after = _bound_objects()
    assert all(after[k] is before[k] for k in before)


def test_case_self_times_sum_to_root_span():
    tracer = Tracer()
    runner = RUNNERS["dsq-mix"](5)
    tracer.install()
    try:
        for index, kind, payload in generate("dsq-mix", 5):
            if index == 3:
                break
            with tracer.case(index):
                ok, _ = runner(index, kind, payload)
            assert ok
    finally:
        tracer.uninstall()
    own = tracer.self_times()
    roots, self_sums = {}, {}
    for sid, _, case, name_id, start, end, _ in tracer.spans:
        if name_id == 0:
            roots[case] = end - start
        self_sums[case] = self_sums.get(case, 0) + own[sid]
    assert sorted(roots) == list(range(3))
    assert all(roots[case] > 0 for case in roots)
    assert self_sums == roots
    metrics = tracer.metrics()
    assert metrics["session.run_statement.calls"][0] == 9
    assert metrics["chains.normalize_chain.calls"][0] > 0


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {name: unit for name, (_, unit) in Tracer().metrics().items()}
    emitted["trace.overhead"] = "ratio"
    assert listed == emitted
