"""The recloop benchmark: one workload, timed end to end or layer by layer.

    python3 perfbench/run.py --workload {desk,mitigation,platform} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; ``recloop`` is imported from its ``src``.
The workload's inputs depend on ``--seed`` alone. Each round runs the whole
workload in a fresh process (``workload.py``), and rounds repeat until
``--seconds`` have passed, with at least two of them so that the outputs
of one round can be compared byte for byte with another's. The last line of
standard output is one JSON object: ``correct``, ``attempted`` and ``failed``
(counted over every check of every round) and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, each the median over
the rounds. With ``--trace 1`` untraced and traced rounds alternate, and the
metrics are the per-layer self times and counters, each the mean over the
traced rounds, together with the traced wall time, the part of it no span
covers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tokenize
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
MIN_ROUNDS = 2
DEADLINE_S = 170.0       # start no optional round that could end past this
BLAS_THREADS = "1"

DESK_WORLD = dict(n=100, m=1000, c=10, links=1000)
MITIGATION_STEPS = 50
# Knobs of scripts/run_mitigation_comparison.py.
STRATEGIES = [
    ("ua_alpha", dict(strategy="ua_alpha", sigma=10.0)),
    ("fua", dict(strategy="fua", rho=0.02)),
    ("dpp", dict(strategy="dpp", theta=0.501, candidate_count=1000)),
    ("sar", dict(strategy="sar", omega=10.0, sar_strict_denominator=True)),
]
PLATFORM_STEPS = 2

# Span names of workload.py; each self time is reported as "<span>_s".
SPANS = [
    "dynamics.step", "dynamics.sample", "dynamics.stream",
    "metrics.record", "metrics.rce", "metrics.ra", "metrics.nd", "metrics.pdv",
    "metrics.ts_at_k",
    "mitigation.rerank", "mitigation.social_matrix", "mitigation.user_alphas",
    "mitigation.update_weights", "mitigation.dispersions",
    "experiment.build_dataset", "experiment.generate_synthetic",
    "experiment.ingest_interactions", "experiment.initial_users",
    "experiment.ingest_trust", "experiment.summarize", "experiment.output",
    "catalog.build_social_graph", "catalog.from_category_sets",
    "theory.build_operators", "theory.fixed_point", "cli.import",
]
CALLS = {
    "dynamics.step_calls": "dynamics.step",
    "dynamics.sample_calls": "dynamics.sample",
    "dynamics.stream_calls": "dynamics.stream",
    "metrics.record_calls": "metrics.record",
    "mitigation.rerank_calls": "mitigation.rerank",
    "experiment.build_dataset_calls": "experiment.build_dataset",
    "experiment.ingest_calls": "experiment.ingest_interactions",
}
# Counters the workload's probes keep in traced rounds.
COUNTERS = {
    "dynamics.sampled_items": "sampled_items",
    "metrics.pdv_pairs": "pdv_pairs",
    "experiment.ingest_rows": "ingest_rows",
    "theory.fixed_point_unknowns": "fixed_point_unknowns",
}


def workload_spec(name: str, seed: int, work: Path) -> dict:
    """The configuration a round runs, made from the workload and the seed."""
    spec = dict(workload=name, src=str(ROOT / "src"), seeds=[seed], h=20,
                metric_every=None, ts_k=50, fixed_point_reps=5,
                rows=dict(items=0, interactions=0, trust=0),
                dataset=dict(synthetic=DESK_WORLD))
    if name == "desk":
        spec.update(steps=300, metric_steps=[0, 150, 299],
                    strategies=[dict(name="none", knobs={})])
    elif name == "mitigation":
        spec.update(steps=MITIGATION_STEPS, metric_steps=[0, MITIGATION_STEPS - 1],
                    strategies=[dict(name=k, knobs=v) for k, v in STRATEGIES])
    elif name == "platform":
        import numpy as np
        from ciao import write_ciao

        data = write_ciao(work / "inputs", seed)
        edges_path = work / "inputs" / "edges.npy"
        np.save(edges_path, data.edges)
        spec.update(
            seeds=[seed, seed + 1], steps=PLATFORM_STEPS, metric_every=1, ts_k=None,
            metric_steps=[PLATFORM_STEPS - 1], fixed_point_reps=7,
            strategies=[dict(name="none", knobs={})],
            rows=dict(items=data.item_rows, interactions=data.interaction_rows,
                      trust=data.trust_rows),
            dataset=dict(
                kind="ciao", items=str(data.items_path),
                interactions=str(data.interactions_path), trust=str(data.trust_path),
                category_sets=[list(s) for s in data.category_sets],
                edges=str(edges_path),
                expected=dict(users=data.users, items=data.items,
                              edges=int(len(data.edges)),
                              self_loops=data.self_loop_rows)))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return spec


def run_round(spec_path: Path, round_dir: Path, traced: bool, budget_s: float) -> dict:
    round_dir.mkdir(parents=True)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    spawn_ns = time.perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), str(spec_path), str(round_dir),
         "1" if traced else "0", str(spawn_ns)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=budget_s)
    (round_dir / "stderr.txt").write_text(proc.stderr, encoding="utf-8")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"round in {round_dir} exited with {proc.returncode}")
    result = json.loads((round_dir / "result.json").read_text(encoding="utf-8"))
    result["traced"] = traced
    return result


def output_files(round_dir: Path, spec: dict) -> list[Path]:
    return [round_dir / s["name"] / f for s in spec["strategies"]
            for f in ("metrics.csv", "summary.json")]


def source_lines(src: Path) -> int:
    """Code lines under ``src``: no blank lines, comments or docstrings."""
    total = 0
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
                first = node.body[0]
                docstrings.update(range(first.lineno, first.end_lineno + 1))
        code = set()
        skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                tokenize.DEDENT, tokenize.ENDMARKER}
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in skip:
                code.update(range(tok.start[0], tok.end[0] + 1))
        total += len(code - docstrings)
    return total


def end_to_end(rounds: list[dict]) -> dict:
    def median(key):
        return statistics.median(r[key] for r in rounds)

    values = {
        "wall_s": (median("wall_s"), "s"),
        "setup_s": (median("setup_s"), "s"),
        "user_steps_per_s": (
            statistics.median(r["user_steps"] / r["run_s"] for r in rounds), "1/s"),
        "fixed_point_s": (
            statistics.median(s for r in rounds for s in r["fixed_point_s"]), "s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
        "src_lines": (source_lines(ROOT / "src" / "recloop"), "lines"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(rounds: list[dict]) -> dict:
    traced = [r["trace"] | {"wall_s": r["wall_s"]} for r in rounds if r["traced"]]
    plain_wall = statistics.fmean(r["wall_s"] for r in rounds if not r["traced"])

    def mean(get):
        return statistics.fmean(get(t) for t in traced)

    values = {}
    for span in SPANS:
        values[f"{span}_s"] = (mean(lambda t: t["self_s"].get(span, 0.0)), "s")
    for name, span in CALLS.items():
        values[name] = (mean(lambda t: t["calls"].get(span, 0)), "count")
    for name, key in COUNTERS.items():
        values[name] = (mean(lambda t: t[key]), "count")
    values["dynamics.slate_yield"] = (
        mean(lambda t: t["slate_items"]) / mean(lambda t: t["sampled_items"]), "ratio")
    wall = mean(lambda t: t["wall_s"])
    values["trace.wall_s"] = (wall, "s")
    values["trace.uncovered_s"] = (mean(lambda t: t["wall_s"] - t["root_s"]), "s")
    values["trace.overhead_s"] = (wall - plain_wall, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk", "mitigation", "platform"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not (ROOT / "src" / "recloop" / "__init__.py").is_file():
        print(f"no recloop sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    work = OUT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = workload_spec(args.workload, args.seed, work)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")

    rounds: list[dict] = []
    while True:
        elapsed = time.perf_counter() - started
        if len(rounds) >= MIN_ROUNDS and (
                elapsed >= args.seconds
                or elapsed + rounds[-1]["wall_s"] * 1.5 > DEADLINE_S):
            break
        traced = bool(args.trace) and len(rounds) % 2 == 1
        try:
            rounds.append(run_round(spec_path, work / f"round{len(rounds)}", traced,
                                    max(DEADLINE_S + 5.0 - elapsed, 10.0)))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark aborted: {exc}", file=sys.stderr)
            return 1

    tally: dict[str, list[int]] = {}
    for r in rounds:
        for name, (attempted, failed) in r["checks"].items():
            entry = tally.setdefault(name, [0, 0])
            entry[0] += attempted
            entry[1] += failed
    # Each round's outputs against the previous round's, the first against the last.
    determinism = tally.setdefault("byte_identical_outputs", [0, 0])
    for k in range(len(rounds)):
        for a, b in zip(output_files(work / f"round{k}", spec),
                        output_files(work / f"round{(k - 1) % len(rounds)}", spec)):
            determinism[0] += 1
            if a.read_bytes() != b.read_bytes():
                determinism[1] += 1
                print(f"check failed: {a} differs from {b}", file=sys.stderr)

    attempted = sum(a for a, _ in tally.values())
    failed = sum(f for _, f in tally.values())
    for name, (a, f) in sorted(tally.items()):
        print(f"{name}: {a - f}/{a} passed")
    metrics = per_layer(rounds) if args.trace else end_to_end(rounds)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
