#!/usr/bin/env python3
"""Print the seconds and minor page faults per step of ``recloop.run``.

    python3 scripts/step_faults.py ROOT

Imports ``recloop`` from ``ROOT/src`` with BLAS at one thread and runs
``run`` with master seed 1 and no metric steps, so only the steps are
measured, on two synthetic worlds of seed 1: 300 steps of the desk world
(n=100, m=1000, c=10, 1000 links) and 4 steps of a platform-size one
(n=5000, m=2000, c=28, 50000 links). One step of each world runs first, to
fault in what every later step shares. The fault count is this process's
``ru_minflt`` (``resource.getrusage(RUSAGE_SELF)``) across the run.
"""

import os
import resource
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before numpy loads its BLAS

WORLDS = (("desk", dict(n=100, m=1000, c=10, link_count=1000), 300),
          ("platform-size", dict(n=5000, m=2000, c=28, link_count=50000), 4))


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[1]).resolve()
    sys.path.insert(0, str(root / "src"))
    import recloop

    if not Path(recloop.__file__).resolve().is_relative_to(root / "src"):
        print(f"imported recloop from {recloop.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 2
    params = recloop.ModelParams()
    for name, world, steps in WORLDS:
        catalog, states, graph = recloop.generate_synthetic(**world, seed=1)
        recloop.run(states, catalog, graph, params, 1, metric_schedule=[])
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        recloop.run(states, catalog, graph, params, steps, metric_schedule=[],
                    master_seed=1)
        seconds = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        print(f"{name}: {steps} steps in {seconds:.3f} s, "
              f"{seconds / steps * 1e3:.2f} ms and {faults / steps:,.0f} minor faults "
              "per step")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
