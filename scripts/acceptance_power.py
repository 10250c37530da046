#!/usr/bin/env python3
"""Print how often C7's and C8's stochastic clauses pass under other draws.

    python3 scripts/acceptance_power.py ROOT [--offsets K]

Reruns the statistics of ``tests/test_acceptance.py``'s C7 (echo-chamber
trend) and C8 (mitigation direction) with ``recloop`` imported from
``ROOT/src``: the same ten desk worlds (``generate_synthetic`` seeds 1-10),
with the master seed of world s set to s + 1000 k for k = 0 .. K-1. k = 0
gives the test's own draws. The worlds, seeds, parameters, statistics and
bounds are read from this checkout's ``tests/test_acceptance.py``, so the
script cannot drift from the test. Each offset makes 70 desk runs of 300
steps, spread over two worker processes with BLAS at one thread.

Prints one line of statistics per offset, then each clause's pass rate and
the spread (min, median, max) of each statistic. C7's rank correlations are
given over the window the test ranks (steps before RCE reaches its floor,
``rho_rce``/``rho_ra``) and over all 300 steps (``rho_*_full``, the clause
the test asserted before it ranked that window).
"""

import argparse
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before numpy loads its BLAS

TESTS = Path(__file__).resolve().parents[1] / "tests"
OFFSET_STEP = 1000


def desk_job(kind: str, name, seed: int, offset: int):
    """One desk run: the baseline or a strategy's (T, 2) series, or the final
    RCE at one of C7's alphas."""
    import test_acceptance as acc
    from recloop import ModelParams

    if kind == "baseline":
        return acc.desk_run(seed, seed_offset=offset)
    if kind == "alpha":
        return float(acc.desk_run(seed, ModelParams(alpha=name),
                                  seed_offset=offset)[-1, 0])
    return acc.strategy_run(name, seed, offset)


def jobs(acc, offset: int) -> list[tuple]:
    return ([("baseline", None, s, offset) for s in acc.DESK_SEEDS]
            + [("alpha", a, s, offset) for a in acc.C7_ALPHAS for s in acc.DESK_SEEDS]
            + [("strategy", name, s, offset) for name in acc.C8_STRATEGIES
               for s in acc.DESK_SEEDS])


def evaluate(acc, results: list) -> tuple[dict, dict]:
    """(statistics, clauses) of one offset from its ``jobs`` results."""
    import numpy as np

    seeds = len(acc.DESK_SEEDS)
    baseline = np.array(results[:seeds])
    finals = {a: float(np.mean(results[seeds * (1 + k):seeds * (2 + k)]))
              for k, a in enumerate(acc.C7_ALPHAS)}
    at = seeds * (1 + len(acc.C7_ALPHAS))
    strategies = {name: np.array(results[at + seeds * k:at + seeds * (k + 1)])
                  for k, name in enumerate(acc.C8_STRATEGIES)}
    c7 = acc.c7_statistics(baseline.mean(axis=0), finals)
    clauses = {f"c7_{k}": v for k, v in acc.c7_clauses(c7).items()}
    clauses["c7_rce_falls_full"] = c7["rho_rce_full"] <= -acc.C7_RHO
    clauses["c7_ra_rises_full"] = c7["rho_ra_full"] >= acc.C7_RHO
    gains, pvals = acc.c8_statistics(baseline, strategies)
    clauses.update({f"c8_{k}": v for k, v in acc.c8_clauses(gains, pvals).items()})
    stats = {k: c7[k] for k in ("t_floor", "rho_rce", "rho_ra", "rho_rce_full",
                                "rho_ra_full", "final_low_alpha", "final_high_alpha")}
    stats.update({f"gain_{k}": v for k, v in gains.items()})
    stats.update({f"p_{k}": v for k, v in pvals.items()})
    return stats, clauses


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path)
    parser.add_argument("--offsets", type=int, default=12)
    args = parser.parse_args(argv[1:])
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(TESTS)]
    import recloop
    import test_acceptance as acc

    if not Path(recloop.__file__).resolve().is_relative_to(root / "src"):
        print(f"imported recloop from {recloop.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 2
    offsets = [OFFSET_STEP * k for k in range(args.offsets)]
    work = [jobs(acc, offset) for offset in offsets]
    with ProcessPoolExecutor(2) as pool:
        pending = [pool.map(desk_job, *zip(*batch)) for batch in work]
        rows = []
        for offset, results in zip(offsets, pending):
            stats, clauses = evaluate(acc, list(results))
            rows.append((stats, clauses))
            failed = [k for k, ok in clauses.items() if not ok]
            print(f"offset {offset}: " + ", ".join(
                f"{k} {v:.4g}" for k, v in stats.items())
                + f"; failed: {', '.join(failed) or 'none'}", flush=True)
    print(f"\npass rates over {len(rows)} master-seed offsets:")
    for name in rows[0][1]:
        passed = sum(clauses[name] for _, clauses in rows)
        print(f"  {name}: {passed}/{len(rows)}")
    print("statistics (min, median, max):")
    for name in rows[0][0]:
        values = [stats[name] for stats, _ in rows]
        print(f"  {name}: {min(values):.4g}, {statistics.median(values):.4g}, "
              f"{max(values):.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
