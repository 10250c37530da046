"""Ingestion, synthetic generation, seeded runs, comparison, and export."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import recloop
from recloop import experiment
from recloop import (
    ExperimentConfig,
    ModelParams,
    RunSummary,
    SyntheticSpec,
    compare_runs,
    export_states,
    generate_synthetic,
    ingest_interactions,
    ingest_trust,
    run_experiment,
    sweep,
)
from recloop.catalog import UserStates
from recloop.experiment import build_initial_users
from recloop.errors import InvalidRequest, IoError, ParseError


@pytest.fixture
def dataset_dir(tmp_path):
    (tmp_path / "items.csv").write_text(
        "i1,0\n"
        "i2,1\n"
        "i3,0;1\n")
    (tmp_path / "interactions.csv").write_text(
        "alice,i1,5\n"
        "alice,i2,2\n"
        "bob,i3,3\n"
        "bob,i1,1\n")
    (tmp_path / "trust.csv").write_text(
        "alice,bob\n"
        "bob,alice\n"
        "alice,alice\n"
        "alice,bob\n")
    return tmp_path


class TestIngestInteractions:
    def test_rating_threshold(self, dataset_dir):
        result = ingest_interactions(dataset_dir / "interactions.csv",
                                     dataset_dir / "items.csv")
        assert result.n == 2
        alice, bob = result.user_index["alice"], result.user_index["bob"]
        assert result.positives[alice] == {0}
        assert result.negatives[alice] == {1}
        # rating exactly 3 counts as positive
        assert result.positives[bob] == {2}
        assert result.negatives[bob] == {0}

    def test_catalog_shape(self, dataset_dir):
        result = ingest_interactions(dataset_dir / "interactions.csv",
                                     dataset_dir / "items.csv")
        assert result.catalog.m == 3 and result.catalog.c == 2
        np.testing.assert_allclose(
            result.catalog.item_vectors[:, 2],
            [np.sqrt(0.5), np.sqrt(0.5)])

    def test_unknown_item_reports_line(self, dataset_dir):
        (dataset_dir / "bad.csv").write_text("alice,i1,5\nalice,zzz,4\n")
        with pytest.raises(ParseError) as err:
            ingest_interactions(dataset_dir / "bad.csv",
                                dataset_dir / "items.csv")
        assert err.value.line == 2

    def test_non_numeric_rating(self, dataset_dir):
        (dataset_dir / "bad.csv").write_text("alice,i1,good\n")
        with pytest.raises(ParseError) as err:
            ingest_interactions(dataset_dir / "bad.csv",
                                dataset_dir / "items.csv")
        assert err.value.line == 1

    def test_degenerate_history_substituted(self, dataset_dir):
        (dataset_dir / "cancel.csv").write_text(
            "alice,i1,5\nalice,i1,1\n")
        # the set representation keeps i1 in both sides -> cancellation
        result = ingest_interactions(dataset_dir / "cancel.csv",
                                     dataset_dir / "items.csv")
        states, substituted = build_initial_users(result)
        assert substituted == [0]
        assert abs(np.linalg.norm(states.user_matrix[:, 0]) - 1) <= 1e-12


class TestIngestTrust:
    def test_directed_edges_and_dedup(self, dataset_dir):
        result = ingest_interactions(dataset_dir / "interactions.csv",
                                     dataset_dir / "items.csv")
        graph, dropped = ingest_trust(dataset_dir / "trust.csv", result.n,
                                      result.user_index)
        assert graph.num_edges == 2
        assert dropped == 1

    def test_unknown_user(self, dataset_dir):
        (dataset_dir / "bad_trust.csv").write_text("alice,carol\n")
        result = ingest_interactions(dataset_dir / "interactions.csv",
                                     dataset_dir / "items.csv")
        with pytest.raises(ParseError) as err:
            ingest_trust(dataset_dir / "bad_trust.csv", result.n,
                         result.user_index)
        assert err.value.line == 1


class TestGenerateSynthetic:
    def test_reference_shape(self):
        catalog, states, graph = generate_synthetic(50, 200, 10, 100, 0)
        assert catalog.m == 200 and catalog.c == 10
        assert states.user_matrix.shape == (10, 50)
        assert graph.num_edges == 100
        assert catalog.all_single_category()
        np.testing.assert_allclose(
            np.linalg.norm(states.user_matrix, axis=0), 1.0, atol=1e-12)

    def test_deterministic_per_seed(self):
        a = generate_synthetic(20, 50, 5, 30, 3)
        b = generate_synthetic(20, 50, 5, 30, 3)
        np.testing.assert_array_equal(a[0].item_vectors, b[0].item_vectors)
        np.testing.assert_array_equal(a[1].user_matrix, b[1].user_matrix)
        np.testing.assert_array_equal(a[2].edge_array, b[2].edge_array)

    def test_zero_links_isolates_everyone(self):
        _, _, graph = generate_synthetic(10, 20, 4, 0, 1)
        assert graph.isolated.all()

    def test_normal_scale_shape_and_density(self):
        catalog, states, graph = generate_synthetic(1000, 10000, 10, 10000, 2)
        assert (catalog.m, catalog.c, states.n) == (10000, 10, 1000)
        assert graph.num_edges == 10000
        density = graph.num_edges / (1000 * 999)
        assert density == pytest.approx(0.01, rel=2e-3)
        assert catalog.category_mass.sum() == pytest.approx(10000, abs=1e-9)

    def test_infeasible_link_count(self):
        with pytest.raises(InvalidRequest):
            generate_synthetic(3, 10, 2, 7, 0)


def small_config(**overrides):
    base = dict(
        seeds=(1, 2, 3),
        steps=10,
        synthetic=SyntheticSpec(n=15, m=60, c=5, links=30),
        params=ModelParams(h=5),
        ts_k=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_row_counts_and_summary(self, tmp_path):
        config = small_config()
        summary = run_experiment(config, tmp_path)
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "t,seed,rce,ra,nd,pdv,ts_at_k"
        assert len(lines) == 1 + 3 * 10
        data = json.loads((tmp_path / "summary.json").read_text())
        assert data["k_used"] == 4
        assert set(data["stats"]) == {"rce", "ra", "nd", "pdv", "ts_at_k"}
        assert len(summary.stats["rce"].per_seed) == 3
        assert summary.stats["rce"].ci95 is not None

    def test_ci95_is_the_student_t_interval(self):
        import scipy.stats
        summary = run_experiment(small_config(), None)
        for stats in summary.stats.values():
            tcrit = scipy.stats.t.ppf(0.975, 2)
            assert stats.ci95 == tcrit * stats.std / np.sqrt(3)

    def test_byte_identical_reruns(self, tmp_path):
        config = small_config()
        run_experiment(config, tmp_path / "a")
        run_experiment(config, tmp_path / "b")
        for name in ("metrics.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_single_seed_has_no_ci(self, tmp_path):
        summary = run_experiment(small_config(seeds=(7,)), None)
        assert summary.stats["rce"].std is None
        assert summary.stats["rce"].ci95 is None

    def test_final_state_export(self, tmp_path):
        config = small_config(seeds=(1,), export_final_states=True)
        run_experiment(config, tmp_path)
        assert (tmp_path / "final_states_seed1.csv").exists()

    def test_file_dataset_ingested_once_for_all_seeds(self, dataset_dir,
                                                        monkeypatch):
        """A file-based dataset does not depend on the seed: one ingestion
        serves every seed, with the rows three 1-seed runs would write."""
        calls = []
        ingest = experiment.ingest_interactions
        monkeypatch.setattr(experiment, "ingest_interactions",
                            lambda *a: calls.append(a) or ingest(*a))
        files = dict(items_file=str(dataset_dir / "items.csv"),
                     interactions_file=str(dataset_dir / "interactions.csv"),
                     trust_file=str(dataset_dir / "trust.csv"))

        def config(seeds):
            return ExperimentConfig(seeds=seeds, steps=4,
                                    params=ModelParams(h=2), **files)

        run_experiment(config((4, 5, 6)), dataset_dir / "all")
        assert len(calls) == 1
        rows = ["t,seed,rce,ra,nd,pdv,ts_at_k\n"]
        for seed in (4, 5, 6):
            run_experiment(config((seed,)), dataset_dir / f"s{seed}")
            text = (dataset_dir / f"s{seed}" / "metrics.csv").read_text()
            rows.extend(text.splitlines(keepends=True)[1:])
        assert (dataset_dir / "all" / "metrics.csv").read_text() == "".join(rows)

    def test_seed_validation(self):
        with pytest.raises(InvalidRequest):
            small_config(seeds=())
        with pytest.raises(InvalidRequest):
            small_config(seeds=(1, 1))


class TestSweep:
    def test_axis_values_produce_summaries(self, tmp_path):
        config = small_config(seeds=(1, 2))
        results = sweep(config, "alpha", [0.0, 5.0], tmp_path)
        assert set(results) == {0.0, 5.0}
        assert (tmp_path / "alpha=0.0" / "summary.json").exists()
        assert (tmp_path / "sweep.csv").exists()

    def test_single_value_matches_run_experiment(self, tmp_path):
        config = small_config(seeds=(1, 2))
        swept = sweep(config, "beta", [2.0], None)[2.0]
        direct = run_experiment(
            dataclasses.replace(config,
                                params=dataclasses.replace(config.params,
                                                           beta=2.0)),
            None)
        assert swept.stats["rce"].per_seed == direct.stats["rce"].per_seed

    def test_gamma_domain_guard(self):
        with pytest.raises(InvalidRequest):
            sweep(small_config(), "gamma", [0.5, 1.5], None)

    def test_dataset_axis_regenerates_catalog(self, tmp_path):
        config = small_config(seeds=(1,))
        results = sweep(config, "c", [4, 6], None)
        assert results[4].config["synthetic"]["c"] == 4
        assert results[6].config["synthetic"]["c"] == 6

    def test_duplicate_values_rejected(self):
        with pytest.raises(InvalidRequest):
            sweep(small_config(), "alpha", [1.0, 1.0], None)

    def test_unknown_axis(self):
        with pytest.raises(InvalidRequest):
            sweep(small_config(), "h", [5, 10], None)


class TestCompareRuns:
    def test_identical_runs(self):
        config = small_config(seeds=(1, 2))
        a = run_experiment(config, None)
        b = run_experiment(config, None)
        rows = compare_runs(a, b)
        for row in rows:
            assert row.improvement_pct == 0.0
            assert row.p_value == pytest.approx(1.0)

    def test_direction_conventions(self):
        config = small_config(seeds=(1, 2))
        base = run_experiment(config, None)
        cand = dataclasses.replace(base)
        # doctor the candidate per-seed means: higher rce, higher pdv
        stats = dict(cand.stats)
        for name, scale in (("rce", 1.10), ("pdv", 1.10)):
            s = stats[name]
            stats[name] = dataclasses.replace(
                s, mean=s.mean * scale,
                per_seed=tuple(x * scale for x in s.per_seed))
        cand.stats = stats
        rows = {r.metric: r for r in compare_runs(cand, base)}
        assert rows["rce"].improvement_pct == pytest.approx(10.0)
        assert rows["pdv"].improvement_pct == pytest.approx(-10.0)
        assert rows["rce"].arrow == "up" and rows["pdv"].arrow == "down"

    def test_antisymmetry_for_same_magnitude(self):
        config = small_config(seeds=(1, 2))
        a = run_experiment(config, None)
        b = run_experiment(small_config(seeds=(4, 5)), None)
        ab = {r.metric: r.improvement_pct for r in compare_runs(a, b)}
        ba = {r.metric: r.improvement_pct for r in compare_runs(b, a)}
        for name in ab:
            denom_ab = abs(np.mean(b.stats[name].per_seed))
            denom_ba = abs(np.mean(a.stats[name].per_seed))
            assert ab[name] * denom_ab == pytest.approx(-ba[name] * denom_ba,
                                                        rel=1e-9)

    def test_single_seed_p_absent(self):
        a = run_experiment(small_config(seeds=(1,)), None)
        b = run_experiment(small_config(seeds=(2,)), None)
        rows = compare_runs(a, b)
        assert all(row.p_value is None for row in rows)

    def test_mismatched_schedules_rejected(self):
        a = run_experiment(small_config(seeds=(1,)), None)
        b = run_experiment(small_config(seeds=(2,), steps=5), None)
        with pytest.raises(InvalidRequest):
            compare_runs(a, b)

    def test_json_round_trip(self, tmp_path):
        a = run_experiment(small_config(seeds=(1, 2)), tmp_path)
        data = json.loads((tmp_path / "summary.json").read_text())
        again = RunSummary.from_json_dict(data)
        assert again.stats["nd"].per_seed == a.stats["nd"].per_seed
        assert again.schedule == a.schedule


class TestExportStates:
    def test_known_contents(self, tmp_path):
        states = UserStates(np.array([[2.0, 0.0], [0.0, 2.0]]), 0)
        path = tmp_path / "states.csv"
        export_states(states, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "user_id,coord_0,coord_1"
        assert lines[1] == "0,1.0,0.0"
        assert lines[2] == "1,0.0,1.0"

    def test_round_trip_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        states = UserStates(rng.standard_normal((6, 9)), 0)
        path = tmp_path / "states.csv"
        export_states(states, path)
        again = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1:].T
        normalized = states.user_matrix / np.linalg.norm(states.user_matrix,
                                                         axis=0)
        np.testing.assert_allclose(again, normalized, atol=1e-15)

    def test_unwritable_path(self, tmp_path):
        states = UserStates(np.eye(2), 0)
        with pytest.raises(IoError):
            export_states(states, tmp_path / "missing_dir" / "x.csv")


def test_import_leaves_scipy_stats_unloaded():
    """``import recloop`` defers scipy.stats, about 1 s of import time, to
    the across-seed statistics that use it."""
    env = dict(os.environ, PYTHONPATH=str(Path(recloop.__file__).parents[1]))
    code = "import sys, recloop; sys.exit('scipy.stats' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert done.returncode == 0


def test_multi_seed_run_leaves_scipy_stats_unloaded():
    """The across-seed interval takes its t quantile from scipy.special."""
    env = dict(os.environ, PYTHONPATH=str(Path(recloop.__file__).parents[1]))
    code = ("import sys, recloop as rl\n"
            "rl.run_experiment(rl.ExperimentConfig(seeds=(1, 2), steps=2, "
            "synthetic=rl.SyntheticSpec(n=6, m=20, c=3, links=6), "
            "params=rl.ModelParams(h=3), ts_k=2), None)\n"
            "sys.exit('scipy.stats' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert done.returncode == 0
