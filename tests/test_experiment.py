"""Ingestion, synthetic generation, seeded runs, comparison, and export."""

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from recloop.catalog import ItemCatalog, UserStates
from recloop.experiment import IngestResult, build_initial_users
from recloop.errors import InvalidRequest, IoError, ParseError

import oracles


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
        rows = zip(result.user.tolist(), result.item.tolist(),
                   result.positive.tolist())
        # rating exactly 3 counts as positive
        assert list(rows) == [(alice, 0, True), (alice, 1, False),
                              (bob, 2, True), (bob, 0, False)]

    def test_catalog_shape(self, dataset_dir):
        result = ingest_interactions(dataset_dir / "interactions.csv",
                                     dataset_dir / "items.csv")
        assert result.catalog.m == 3 and result.catalog.c == 2
        np.testing.assert_allclose(
            result.catalog.item_vectors[:, 2],
            [np.sqrt(0.5), np.sqrt(0.5)])

    def test_unsorted_and_repeated_categories_give_the_same_catalog(self, dataset_dir):
        """A category list is a set: listed out of order or with repeats, it
        gives the catalog of the sorted, distinct list."""
        (dataset_dir / "messy.csv").write_text("i1,0;0\ni2,1\ni3,1;0;1;;0\n")
        want = ingest_interactions(dataset_dir / "interactions.csv",
                                   dataset_dir / "items.csv").catalog
        got = ingest_interactions(dataset_dir / "interactions.csv",
                                  dataset_dir / "messy.csv").catalog
        assert got.item_vectors.tobytes() == want.item_vectors.tobytes()
        assert got.category_sets == ((0,), (1,), (0, 1))

    def test_unknown_item_reports_line(self, dataset_dir):
        (dataset_dir / "bad.csv").write_text("alice,i1,5\nalice,zzz,4\n")
        with pytest.raises(ParseError) as err:
            ingest_interactions(dataset_dir / "bad.csv",
                                dataset_dir / "items.csv")
        assert err.value.line == 2

    @pytest.mark.parametrize("row", ['alice,"i1",5', '"alice",i1,5',
                                     'alice,i1,"5"'])
    def test_quoted_field_rejected(self, dataset_dir, row):
        (dataset_dir / "bad.csv").write_text(f"alice,i1,5\n\n{row}\n")
        with pytest.raises(ParseError,
                           match="^line 3: quoted fields are not supported$"):
            ingest_interactions(dataset_dir / "bad.csv",
                                dataset_dir / "items.csv")

    def test_error_names_first_bad_line_before_undecodable_bytes(self, dataset_dir):
        (dataset_dir / "bad.csv").write_bytes(b"alice,i1,5\rbob,zz,1\nbob,i\xff1,4\n")
        with pytest.raises(ParseError, match="^line 2: unknown item 'zz'$"):
            ingest_interactions(dataset_dir / "bad.csv", dataset_dir / "items.csv")
        (dataset_dir / "bad.csv").write_bytes(b"alice,i1,5\rbob,i1,1\rbob,i\xff1,4\n")
        with pytest.raises(ParseError, match="^line 3: cannot decode b'\\\\xff'"):
            ingest_interactions(dataset_dir / "bad.csv", dataset_dir / "items.csv")

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


# Ids that strip to the same id, quotes that ``csv`` keeps as text, unknown
# ids, bad numbers and lines with the wrong field count.
USER_IDS = ["alice", " bob", "bob\t", "carol", 'd"e', ' "q']
ITEMS_TEXT = "i0,0\ni1,1\ni2,0;1\ni3,2\ni4,0\n"     # i0 and i4 cancel
RATING_ROW = st.builds("{},{},{}".format, st.sampled_from(USER_IDS),
                       st.sampled_from(["i0", "i1", "i2", "i3", "i4", " i2 ", "zz"]),
                       st.sampled_from(["1", "2", "3", "4", "5", "2.5", " 3 ",
                                        "nan", "x", "", ' "5"']))
TRUST_ROW = st.builds("{},{}".format, *[st.sampled_from(USER_IDS + ["dave"])] * 2)
ITEM_ROW = st.builds("{},{}".format, st.sampled_from(["i0", "i1", " i1", "i2"]),
                     st.sampled_from(["0", "1;2", "2;;0", "0;0", "1; 2", " 3 ",
                                      "", "x", "-1"]))
NOISE = st.sampled_from(["", "  ", "\t", ",", ",,", "a,b", "a,b,c,d", "alice"])
BLOCKS = st.sampled_from([1, 2, 7, experiment.BLOCK_LINES])


@st.composite
def csv_text(draw, row):
    """Lines of ``row`` and noise, each ended by \\n, \\r\\n or \\r, the last
    line's end sometimes left off."""
    lines = draw(st.lists(st.tuples(st.one_of(row, row, row, NOISE),
                                    st.sampled_from(["\n", "\r\n", "\r"])),
                          max_size=25))
    text = "".join(line + end for line, end in lines)
    if lines and draw(st.booleans()):
        text = text[:-len(lines[-1][1])]
    return text


def outcome(call, *args):
    """What ``call`` returns, or the type, message and line of its ParseError."""
    try:
        return call(*args)
    except ParseError as exc:
        return type(exc), str(exc), exc.line


def histories(result: IngestResult):
    """The category sets, user ids and per-user positive and negative item
    sets of an ingestion."""
    pos = [set() for _ in range(result.n)]
    neg = [set() for _ in range(result.n)]
    for u, j, positive in zip(result.user.tolist(), result.item.tolist(),
                              result.positive.tolist()):
        (pos if positive else neg)[u].add(j)
    assert list(result.user_index.values()) == list(range(result.n))
    return list(result.catalog.category_sets), list(result.user_index), pos, neg


class TestIngestMatchesRowReader:
    """Read in blocks of 1, 2, 7 or the default number of lines, a file gives
    what the row-at-a-time ``csv`` reader gives: the same ids, histories,
    starts and edges, or an error of the same type and message on the same
    line."""

    def files(self, tmp, **texts):
        paths = {}
        for name, text in {"items": ITEMS_TEXT, "interactions": "", **texts}.items():
            paths[name] = Path(tmp) / f"{name}.csv"
            paths[name].write_bytes(text.encode())
        return paths

    @given(text=csv_text(RATING_ROW), block=BLOCKS)
    @example(text="alice,i1,5\nbob,zz,x\na,b\ncarol,i1,y\n", block=2)
    @example(text="alice,i1,x\r\n\r\nbob,zz,5\n", block=1)
    @example(text="alice,i1,5\n\n   \nbob,i1\ncarol,zz,3\n", block=7)
    @example(text="alice,i0,5\r\ralice,i4,1\rbob,i1,5\rbob,i1,4\rbob,i1,1",
             block=1)
    @settings(max_examples=200, deadline=None)
    def test_interactions_and_initial_users(self, text, block):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(experiment, "BLOCK_LINES", block):
            paths = self.files(tmp, interactions=text)
            got = outcome(ingest_interactions, paths["interactions"], paths["items"])
            want = outcome(oracles.ingest_interactions, paths["interactions"],
                           paths["items"])
        if not isinstance(got, IngestResult):
            assert got == want
            return
        assert histories(got) == want
        states, substituted = build_initial_users(got)
        matrix, expected = oracles.build_initial_users(want[2], want[3], got.catalog)
        assert states.user_matrix.tobytes() == matrix.tobytes()
        assert substituted == expected

    @given(text=csv_text(ITEM_ROW), block=BLOCKS)
    @example(text="i0,0\ni1,x\ni0,1\n", block=1)
    @example(text="i0,0\r\n\r\ni1,\ni1,2\n", block=2)
    @settings(max_examples=150, deadline=None)
    def test_items(self, text, block):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(experiment, "BLOCK_LINES", block):
            paths = self.files(tmp, items=text)
            got = outcome(ingest_interactions, paths["interactions"], paths["items"])
            want = outcome(oracles.ingest_interactions, paths["interactions"],
                           paths["items"])
        assert (histories(got) if isinstance(got, IngestResult) else got) == want

    @given(text=csv_text(TRUST_ROW), block=BLOCKS)
    @example(text="alice,bob\nbob,bob\nalice,dave\nx\n", block=2)
    @example(text="alice,alice\r\ralice,bob\ralice,bob", block=7)
    @settings(max_examples=150, deadline=None)
    def test_trust(self, text, block):
        index = {"alice": 0, "bob": 1, "carol": 2, 'd"e': 3, '"q': 4}
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(experiment, "BLOCK_LINES", block):
            paths = self.files(tmp, trust=text)
            got = outcome(ingest_trust, paths["trust"], 5, index)
            want = outcome(oracles.ingest_trust, paths["trust"], 5, index)
        if isinstance(want[0], type):
            assert got == want
            return
        (graph, dropped), (expected, expected_dropped) = got, want
        assert dropped == expected_dropped
        np.testing.assert_array_equal(graph.edge_array, expected.edge_array)
        assert (graph.influence_matrix != expected.influence_matrix).nnz == 0

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 12),
           m=st.integers(1, 400), c=st.integers(1, 9), rows=st.integers(0, 3000),
           entries=st.sampled_from([1, 64, experiment.HISTORY_ENTRIES]))
    @settings(max_examples=60, deadline=None)
    def test_initial_users_from_long_histories(self, seed, n, m, c, rows, entries):
        """Histories longer than numpy's pairwise-sum block of 128 items,
        gathered in chunks of any size, sum as one user's history does."""
        rng = np.random.default_rng(seed)
        catalog = ItemCatalog.from_category_sets(
            [rng.choice(c, size=rng.integers(1, c + 1), replace=False)
             for _ in range(m)], c)
        user = rng.integers(0, n, rows if n else 0)
        item = rng.integers(0, m, user.size)
        positive = rng.random(user.size) < 0.6
        ingest = IngestResult(catalog, user, item, positive,
                              {str(i): i for i in range(n)})
        pos, neg = histories(ingest)[2:]
        with mock.patch.object(experiment, "HISTORY_ENTRIES", entries):
            states, substituted = build_initial_users(ingest)
        matrix, expected = oracles.build_initial_users(pos, neg, catalog)
        assert states.user_matrix.tobytes() == matrix.tobytes()
        assert substituted == expected


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

    @pytest.mark.parametrize("sizes, field", [
        ((0, 10, 2, 0), "n"), ((3, 0, 2, 0), "m"), ((3, 10, 0, 0), "c"),
        ((3, 10, 2, -1), "links")])
    def test_sizes_checked(self, sizes, field):
        with pytest.raises(InvalidRequest, match=f"^{field} must be >= "):
            generate_synthetic(*sizes, 0)

    @given(n=st.integers(2, 60), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_edges_match_pairwise_draws(self, n, data):
        """The edges are the first distinct non-self pairs drawn, batch by
        batch, as the pair-at-a-time loop keeps them."""
        full = n * (n - 1)
        links = data.draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        graph = generate_synthetic(n, 1, 1, links, seed)[2]
        assert set(map(tuple, graph.edge_array.tolist())) == \
            oracles.synthetic_edges(n, links, seed)


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

    @pytest.mark.parametrize("overrides, message", [
        (dict(items_file="i.csv", interactions_file="r.csv", trust_file="t.csv"),
         "exactly one of"),
        (dict(synthetic=None), "exactly one of"),
        (dict(dataset_kind="netflix"), "unknown dataset kind 'netflix'"),
    ], ids=["both-datasets", "no-dataset", "dataset-kind"])
    def test_config_validation(self, overrides, message):
        """The rejections no flag reaches: the CLI builds one dataset spec, and
        ``--dataset-kind`` checks its choices first."""
        with pytest.raises(InvalidRequest, match=message):
            small_config(**overrides)


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

    def test_no_values_rejected(self, tmp_path):
        with pytest.raises(InvalidRequest, match="at least one value"):
            sweep(small_config(), "alpha", [], tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_duplicate_values_rejected(self):
        with pytest.raises(InvalidRequest):
            sweep(small_config(), "alpha", [1.0, 1.0], None)

    def test_numpy_values_written_as_numbers(self, tmp_path):
        sweep(small_config(seeds=(1,), steps=2), "alpha", np.linspace(1.0, 2.0, 2),
              tmp_path)
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[1].startswith("alpha,1.0,0,rce,")
        assert {line.split(",")[1] for line in lines[1:]} == {"1.0", "2.0"}

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

    @staticmethod
    def with_values(summary, name, values):
        """``summary`` with the per-seed values of one metric replaced."""
        stats = dict(summary.stats)
        stats[name] = dataclasses.replace(stats[name], mean=float(np.mean(values)),
                                          per_seed=tuple(values))
        return dataclasses.replace(summary, stats=stats)

    def test_zero_baseline_mean_rejected(self):
        base = run_experiment(small_config(seeds=(1, 2)), None)
        with pytest.raises(InvalidRequest, match="baseline mean for rce is zero"):
            compare_runs(base, self.with_values(base, "rce", [0.0, 0.0]))

    def test_identical_constant_values_give_p_one(self):
        base = self.with_values(run_experiment(small_config(seeds=(1, 2)), None),
                                "ra", [0.5, 0.5])
        rows = {row.metric: row for row in compare_runs(base, base)}
        assert rows["ra"].p_value == 1.0
        assert rows["ra"].improvement_pct == 0.0

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
