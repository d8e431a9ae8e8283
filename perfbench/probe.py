"""Set-up probe: from a fresh interpreter to the first case being ready.

    python3 perfbench/probe.py <workload> <seed>

Imports the engine and the workload's runner, builds the first input and
prints `ready`.  `run.py` times this from process start to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cases import RUNNERS  # noqa: E402
from inputs import generate  # noqa: E402

workload, seed = sys.argv[1], int(sys.argv[2])
RUNNERS[workload](seed)
next(generate(workload, seed))
print("ready", flush=True)
