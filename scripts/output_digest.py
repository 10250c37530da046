#!/usr/bin/env python3
"""Print the sha256 of every seed-1 output file of the benchmark workloads.

    OPENBLAS_NUM_THREADS=1 python3 scripts/output_digest.py ROOT WORK

Runs the seed-1 configuration of each strategy of the ``desk``,
``mitigation`` and ``platform`` workloads with ``run_experiment`` imported
from ``ROOT/src``, writing inputs and outputs under WORK, and prints one
``<sha256>  <workload>/<strategy>/<file>`` line per ``metrics.csv`` and
``summary.json``. The configurations come from this checkout's
``perfbench/run.py::workload_spec`` and
``perfbench/workload.py::experiment_configs``. Two checkouts compare equal
when run one after the other with the same WORK: ``platform``'s summary
holds the absolute paths of its input files.
"""

import hashlib
import sys
from pathlib import Path

WORKLOADS = ("desk", "mitigation", "platform")
SEED = 1


def main(argv) -> int:
    root, work = Path(argv[1]).resolve(), Path(argv[2]).resolve()
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path[:0] = [str(root / "src"), str(perfbench)]
    import recloop
    from run import workload_spec
    from workload import experiment_configs

    if not Path(recloop.__file__).resolve().is_relative_to(root / "src"):
        print(f"imported recloop from {recloop.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 2
    for workload in WORKLOADS:
        spec = workload_spec(workload, SEED, work)
        for strategy, config in experiment_configs(spec):
            out = work / "out" / workload / strategy
            recloop.run_experiment(config, out)
            for name in ("metrics.csv", "summary.json"):
                digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
                print(f"{digest}  {workload}/{strategy}/{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
