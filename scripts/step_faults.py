#!/usr/bin/env python3
"""Print the seconds and minor page faults per step of ``recloop.run``.

    python3 scripts/step_faults.py ROOT [WORLD ...]

Imports ``recloop`` from ``ROOT/src`` with BLAS at one thread and runs
``run`` with master seed 1 and no metric steps, so only the steps are
measured, on these worlds (all of them by default):

- ``desk``: 300 steps of the desk world (n=100, m=1000, c=10, 1000 links);
- ``desk-dpp``: 50 steps of the desk world under
  ``DiversityRerankHooks(0.501, 1000)``, the dpp re-rank of whole-catalog
  pools;
- ``platform-size``: 4 steps of n=5000, m=2000, c=28, 50000 links;
- ``wide``: 4 steps of the ``SyntheticSpec`` default world (n=1000,
  m=10000, c=10, 10000 links);
- ``ciao-size``: 1 step of n=7375 users, 15 random trust links each, and
  105,114 items with the category mix of ``perfbench/ciao.py`` (c=28).

All but ``ciao-size`` are ``generate_synthetic`` worlds of seed 1. One step of
each world runs first, to fault in what every later step shares. The fault
count is this process's ``ru_minflt`` (``resource.getrusage(RUSAGE_SELF)``)
across the run; the peak is its ``ru_maxrss`` after the world.
"""

import os
import resource
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before numpy loads its BLAS

DESK = dict(n=100, m=1000, c=10, link_count=1000)
WORLDS = {"desk": (DESK, 300),
          "desk-dpp": (DESK, 50),
          "platform-size": (dict(n=5000, m=2000, c=28, link_count=50000), 4),
          "wide": (dict(n=1000, m=10000, c=10, link_count=10000), 4),
          "ciao-size": (dict(n=7375, m=105114, c=28, link_count=15), 1)}


def ciao_size_world(recloop, n, m, c, link_count):
    """The ``perfbench/ciao.py`` category mix at m items, n random unit users
    and ``link_count`` random trust links per user."""
    import numpy as np

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import ciao

    ciao.ITEMS, ciao.CATEGORIES = m, c
    sets = ciao._category_sets(np.random.default_rng(ciao.CATALOG_SEED))
    rng = np.random.default_rng(1)
    U = rng.standard_normal((c, n))
    edges = np.stack([np.repeat(np.arange(n), link_count),
                      rng.integers(0, n, n * link_count)], axis=1)
    return (recloop.ItemCatalog.from_category_sets(sets, c),
            recloop.UserStates(U / np.linalg.norm(U, axis=0)),
            recloop.build_social_graph(edges, n))


def main(argv) -> int:
    names = argv[2:] or list(WORLDS)
    if len(argv) < 2 or not set(names) <= set(WORLDS):
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
    for name in names:
        world, steps = WORLDS[name]
        hooks = None
        if name == "desk-dpp":
            from recloop.mitigation import DiversityRerankHooks
            hooks = DiversityRerankHooks(0.501, 1000)
        if name == "ciao-size":
            catalog, states, graph = ciao_size_world(recloop, **world)
        else:
            catalog, states, graph = recloop.generate_synthetic(**world, seed=1)
        recloop.run(states, catalog, graph, params, 1, metric_schedule=[],
                    hooks=hooks)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        recloop.run(states, catalog, graph, params, steps, metric_schedule=[],
                    hooks=hooks, master_seed=1)
        seconds = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{name}: {steps} steps in {seconds:.3f} s, "
              f"{seconds / steps * 1e3:.2f} ms and {faults / steps:,.0f} minor faults "
              f"per step, peak {peak:.0f} MB", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
