#!/usr/bin/env python3
"""Print the sha256 of every seed-1 output file of the benchmark workloads.

    OPENBLAS_NUM_THREADS=1 python3 scripts/output_digest.py ROOT WORK
    python3 scripts/output_digest.py ROOT WORK --against OTHER_ROOT

Runs the seed-1 configuration of each strategy of the ``desk``,
``mitigation`` and ``platform`` workloads with ``run_experiment`` imported
from ``ROOT/src``, writing inputs and outputs under WORK, and prints one
``<sha256>  <workload>/<strategy>/<file>`` line per ``metrics.csv`` and
``summary.json``. The configurations come from this checkout's
``perfbench/run.py::workload_spec`` and
``perfbench/workload.py::experiment_configs``. Two checkouts compare equal
when run one after the other with the same WORK: ``platform``'s summary
holds the absolute paths of its input files.

With ``--against OTHER_ROOT`` it does that comparison: it runs ROOT and then
OTHER_ROOT in subprocesses, each with BLAS at one thread and the same WORK,
prints ``<sha256 of ROOT>  <sha256 of OTHER_ROOT>  <file>`` per file, names
the files that differ on standard error and exits 1 if any does.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("desk", "mitigation", "platform")
SEED = 1


def digests(root: Path, work: Path) -> int:
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


def compare(roots: list[Path], work: Path) -> int:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    tables = []
    for root in roots:
        proc = subprocess.run([sys.executable, __file__, str(root), str(work)],
                              capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            print(f"{root}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 2
        lines = proc.stdout.splitlines()
        tables.append(dict(reversed(line.split("  ")) for line in lines))
    mine, other = tables
    names = list(mine) + [name for name in other if name not in mine]
    differ = [name for name in names if mine.get(name) != other.get(name)]
    for name in names:
        print(f"{mine.get(name, '-'):64}  {other.get(name, '-'):64}  {name}")
    for name in differ:
        print(f"differs: {name}", file=sys.stderr)
    print(f"{len(differ)} of {len(names)} files differ", file=sys.stderr)
    return 1 if differ else 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path)
    parser.add_argument("work", type=Path)
    parser.add_argument("--against", type=Path, metavar="OTHER_ROOT")
    args = parser.parse_args(argv[1:])
    root, work = args.root.resolve(), args.work.resolve()
    if args.against is None:
        return digests(root, work)
    return compare([root, args.against.resolve()], work)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
