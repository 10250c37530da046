"""The names other code reaches recloop by: the package's public surface, and
the layer names the benchmark's traced mode wraps."""

import os
import subprocess
import sys
import types
from pathlib import Path

import recloop

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "ConvergenceReport", "ExperimentConfig", "ItemCatalog", "MetricSettings",
    "MetricsRecord", "MitigationConfig", "ModelParams", "OperatorSet",
    "RunSummary", "SocialGraph", "StepLog", "StrategyHooks", "StreamSplitter",
    "SyntheticSpec", "Trajectory", "UserStates", "adaptive_alpha",
    "build_hooks", "build_operators", "build_social_graph",
    "compare_runs", "compute_metrics_record", "convergence_margin",
    "dispersions", "expected_entropy_series", "export_states",
    "fixed_point", "generate_synthetic", "homogenization_condition",
    "infinity_norm_bound", "ingest_interactions", "ingest_trust",
    "init_user_random", "linearized_expected_update", "matrix_step", "nd",
    "normalize_columns", "rce", "run", "run_experiment",
    "sample_without_replacement", "simulate_step",
    "steady_homogenization_check", "sweep", "ts_at_k",
]


def test_public_names_are_pinned():
    """Adding or removing a public name means editing this list."""
    names = sorted(name for name in dir(recloop) if not name.startswith("_")
                   and not isinstance(getattr(recloop, name), types.ModuleType))
    assert names == PUBLIC_NAMES


def test_benchmark_traced_mode_finds_every_layer_name():
    """``perfbench/run.py --trace 1`` wraps layers by name; a renamed or
    deleted name fails here rather than in a traced benchmark round."""
    code = ("import spans, workload; "
            "workload.install(workload.Probes({}), spans.Tracer())")
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
