"""One round of a benchmark workload, in a fresh process.

    python3 workload.py SPEC_JSON ROUND_DIR TRACE SPAWN_NS

Imports ``recloop`` (timed), runs ``run_experiment`` once per strategy of the
spec with ROUND_DIR as output directory, solves the linearized fixed point
of the workload's world, and writes ``fixed_point.npy`` last. Then, outside
the timed part, it checks what the program produced and writes
``result.json``. SPAWN_NS is the parent's ``time.perf_counter_ns()`` just
before it started this process (a system-wide monotonic clock), so the
round's wall time counts the interpreter's start as well.

With TRACE=1 the public names of each layer are wrapped in spans, the spans
are written to ``spans.csv`` and their self times go into the result.
"""

import json
import resource
import sys
import time
from pathlib import Path

from spans import Tracer, patch

# Parameters of verify.check_fixed_point, used for every fixed-point solve.
FIXED_POINT_PARAMS = dict(alpha=1.0, beta=1.0, gamma=0.5, epsilon=0.2, eta=0.05)


class Probes:
    """What the wrapped calls hand back, for the checks and the counters."""

    def __init__(self, spec):
        self.spec = spec
        self.strategy = None
        self.run_calls = 0               # within the current strategy
        self.steps = []                  # (strategy, U(t), slates)
        self.records = []                # (U(t), slates, settings, record)
        self.alpha_sums = []             # (sum of user alphas, alpha0)
        self.datasets = []               # (catalog, states, graph)
        self.dropped = []
        self.setup_s = 0.0
        self.run_s = 0.0
        self.user_steps = 0
        self.sampled_items = 0
        self.slate_items = 0
        self.pdv_pairs = 0
        self.ingest_rows = 0
        self.unknowns = 0

    def step(self, a, result, seconds):
        slates = result[1].slate_items
        self.steps.append((self.strategy, a["states"].user_matrix, slates))
        self.slate_items += slates.size

    def record(self, a, result, seconds):
        if self.run_calls == 0 and a["t"] in self.spec["metric_steps"]:
            self.records.append((a["states"].user_matrix, a["slate_matrix"],
                                 a["settings"], result))

    def alphas(self, a, result, seconds):
        self.alpha_sums.append((float(result.sum()), a["params"].alpha))

    def dataset(self, a, result, seconds):
        self.datasets.append(result)
        self.setup_s += seconds

    def trust(self, a, result, seconds):
        self.dropped.append(result[1])
        self.ingest_rows += self.spec["rows"]["trust"]

    def interactions(self, a, result, seconds):
        self.ingest_rows += self.spec["rows"]["items"] + self.spec["rows"]["interactions"]

    def run(self, a, result, seconds):
        self.run_calls += 1
        self.run_s += seconds
        self.user_steps += a["initial_states"].n * a["T"]

    def sample(self, a, result, seconds):
        self.sampled_items += result.size

    def pdv(self, a, result, seconds):
        n = getattr(a["states"], "user_matrix", a["states"]).shape[1]
        self.pdv_pairs += n * (n - 1) // 2 if result[2] is None else result[2]

    def fixed_point(self, a, result, seconds):
        self.unknowns = result.size


def install(probes: Probes, tracer):
    """Wrap each layer's public names where the program looks them up."""
    from recloop import catalog, dynamics, experiment, metrics, mitigation, theory

    traced = tracer is not None
    p = probes
    patch(experiment, "run", probe=p.run, named=True)
    patch(experiment, "build_dataset", tracer, "experiment.build_dataset",
          p.dataset, named=True)
    patch(experiment, "generate_synthetic", tracer, "experiment.generate_synthetic")
    patch(experiment, "ingest_interactions", tracer, "experiment.ingest_interactions",
          p.interactions if traced else None)
    patch(experiment, "build_initial_users", tracer, "experiment.initial_users")
    patch(experiment, "ingest_trust", tracer, "experiment.ingest_trust", p.trust)
    patch(experiment, "build_social_graph", tracer, "catalog.build_social_graph")
    patch(experiment, "summarize", tracer, "experiment.summarize")
    patch(experiment, "_write_metrics_csv", tracer, "experiment.output")
    patch(experiment, "_write_json", tracer, "experiment.output")
    patch(catalog.ItemCatalog, "from_category_sets", tracer, "catalog.from_category_sets")

    patch(dynamics, "simulate_step", tracer, "dynamics.step", p.step, named=True)
    patch(dynamics, "sample_without_replacement", tracer, "dynamics.sample",
          p.sample if traced else None)
    patch(dynamics.StreamSplitter, "user_stream", tracer, "dynamics.stream")
    patch(dynamics, "compute_metrics_record", tracer, "metrics.record", p.record,
          named=True)
    patch(metrics, "rce", tracer, "metrics.rce")
    patch(metrics, "ra_with_diagnostics", tracer, "metrics.ra")
    patch(metrics, "nd", tracer, "metrics.nd")
    patch(metrics, "pdv_with_mode", tracer, "metrics.pdv",
          p.pdv if traced else None, named=True)
    patch(metrics, "ts_at_k", tracer, "metrics.ts_at_k")

    patch(mitigation, "dispersions", tracer, "mitigation.dispersions")
    for cls in (dynamics.StrategyHooks, *dynamics.StrategyHooks.__subclasses__()):
        for method in ("rerank", "social_matrix", "user_alphas", "update_weights"):
            if method in vars(cls):
                probe = p.alphas if (method == "user_alphas"
                                     and cls is mitigation.AdaptiveAlphaHooks) else None
                patch(cls, method, tracer, f"mitigation.{method}", probe, named=True)

    patch(theory, "build_operators", tracer, "theory.build_operators")
    patch(theory, "fixed_point", tracer, "theory.fixed_point",
          p.fixed_point if traced else None)


def experiment_configs(spec):
    from recloop import ExperimentConfig, MitigationConfig, SyntheticSpec

    data = spec["dataset"]
    base = dict(seeds=tuple(spec["seeds"]), steps=spec["steps"],
                metric_every=spec["metric_every"], ts_k=spec["ts_k"])
    if "synthetic" in data:
        base["synthetic"] = SyntheticSpec(**data["synthetic"])
    else:
        base.update(items_file=data["items"], interactions_file=data["interactions"],
                    trust_file=data["trust"], dataset_kind=data["kind"])
    for strategy in spec["strategies"]:
        yield strategy["name"], ExperimentConfig(
            mitigation=MitigationConfig(**strategy["knobs"]), **base)


def run_checks(spec, probes: Probes, out: Path, star) -> dict[str, list[int]]:
    """Evaluate every check; returns {check: [attempted, failed]}."""
    import numpy as np
    import checks

    tally: dict[str, list[int]] = {}

    def count(name, ok):
        entry = tally.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += 0 if ok else 1
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)

    data = spec["dataset"]
    catalog, _, graph = probes.datasets[0]
    if "synthetic" in data:
        cats = checks.Categories(catalog.category_sets, catalog.c)
        edges = np.asarray(graph.edge_array)
    else:
        cats = checks.Categories([tuple(s) for s in data["category_sets"]], catalog.c)
        edges = np.load(data["edges"])

    h = spec["h"]
    category_of = np.array([s[0] for s in catalog.category_sets])
    for strategy, U, slates in probes.steps:
        count("slates", checks.slates_ok(slates, U.shape[1], h, catalog.m))
        if strategy == "dpp":
            count("dpp_first_item", checks.dpp_first_ok(U, slates[:, 0], category_of))

    for U, slates, settings, record in probes.records:
        oracle = checks.metric_oracles(U, slates, cats, edges,
                                       settings.ts_k, settings.ra_threshold)
        for name, expected in oracle.items():
            count(f"metric_{name}", checks.metric_matches(
                name, getattr(record, name), expected))

    for total, alpha0 in probes.alpha_sums:
        count("ua_alpha_budget", checks.alpha_sum_ok(total, alpha0))

    if spec["workload"] == "desk":
        rce_falls, ra_rises = checks.echo_chamber(out / "none" / "metrics.csv",
                                                  spec["steps"])
        count("echo_rce_falls", rce_falls)
        count("echo_ra_rises", ra_rises)

    if "expected" in data:
        want = data["expected"]
        for (cat_i, states_i, graph_i), dropped in zip(probes.datasets, probes.dropped):
            count("count_users", states_i.n == want["users"])
            count("count_items", cat_i.m == want["items"])
            count("count_edges", graph_i.num_edges == want["edges"])
            count("count_self_loops", dropped == want["self_loops"])

    count("fixed_point_residual", checks.fixed_point_ok(
        star, cats, edges, **FIXED_POINT_PARAMS))
    return tally


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    out = Path(argv[2])
    tracer = Tracer() if argv[3] == "1" else None
    spawn_ns = int(argv[4])

    # Nothing above imports numpy or scipy, so this times the whole import.
    start = time.perf_counter_ns()
    span = tracer.begin("cli.import") if tracer else -1
    import recloop
    if tracer:
        tracer.end(span)
    import_s = (time.perf_counter_ns() - start) / 1e9
    if not Path(recloop.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        print(f"imported recloop from {recloop.__file__}, not from {spec['src']}",
              file=sys.stderr)
        return 2
    import numpy as np
    from recloop import ModelParams, experiment, theory

    probes = Probes(spec)
    install(probes, tracer)
    for name, config in experiment_configs(spec):
        probes.strategy, probes.run_calls = name, 0
        experiment.run_experiment(config, out / name)

    catalog, _, graph = probes.datasets[0]
    params = ModelParams(**FIXED_POINT_PARAMS)
    solve_s = []
    for _ in range(spec["fixed_point_reps"]):
        t0 = time.perf_counter_ns()
        star = theory.fixed_point(theory.build_operators(catalog, graph, params))
        solve_s.append((time.perf_counter_ns() - t0) / 1e9)
    np.save(out / "fixed_point.npy", star)
    end_ns = time.perf_counter_ns()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "wall_s": (end_ns - spawn_ns) / 1e9,
        "setup_s": import_s + probes.setup_s,
        "run_s": probes.run_s,
        "user_steps": probes.user_steps,
        "fixed_point_s": solve_s,
        "peak_rss_mb": peak_rss_mb,
        "checks": run_checks(spec, probes, out, star),
    }
    if tracer:
        tracer.write(out / "spans.csv")
        self_s, calls, root_s = tracer.self_times()
        result["trace"] = {
            "self_s": self_s, "calls": dict(calls), "root_s": root_s,
            "sampled_items": probes.sampled_items, "slate_items": probes.slate_items,
            "pdv_pairs": probes.pdv_pairs, "ingest_rows": probes.ingest_rows,
            "fixed_point_unknowns": probes.unknowns,
        }
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
