"""Each benchmark check accepts the program's output and rejects a mutated one.

    python3 -m pytest -q perfbench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from recloop import theory  # noqa: E402
from recloop.catalog import ItemCatalog, ModelParams, UserStates, build_social_graph  # noqa: E402
from recloop.dynamics import run  # noqa: E402
from recloop.experiment import generate_synthetic  # noqa: E402
from recloop.metrics import MetricSettings, compute_metrics_record  # noqa: E402
from recloop.mitigation import DiversityRerankHooks, adaptive_alpha, dispersions  # noqa: E402
from spans import Tracer  # noqa: E402
from workload import FIXED_POINT_PARAMS as FIXED_POINT  # noqa: E402


@pytest.fixture(scope="module")
def world():
    """A small multi-category world after a few steps, with its last slates."""
    rng = np.random.default_rng(5)
    c, m, n = 6, 120, 60
    sets = [tuple(sorted(set(rng.choice(c, size=int(k), replace=False).tolist())))
            for k in rng.choice([1, 2, 3], size=m, p=[0.7, 0.2, 0.1])]
    catalog = ItemCatalog.from_category_sets(sets, c)
    edges = {(int(i), int(j)) for i, j in rng.integers(0, n, size=(300, 2)) if i != j}
    graph = build_social_graph(edges, n)
    states = UserStates(rng.standard_normal((c, n)), t=0)
    traj = run(states, catalog, graph, ModelParams(h=10), 5, keep_step_logs=True)
    return catalog, graph, traj


def test_metric_oracles_match_and_reject_shifted_pdv(world):
    catalog, graph, traj = world
    U = traj.final_states.user_matrix
    slates = traj.step_logs[-1].slate_items
    settings = MetricSettings(ts_k=7)
    record = compute_metrics_record(5, U, slates, catalog, graph, settings)
    cats = checks.Categories(catalog.category_sets, catalog.c)
    oracle = checks.metric_oracles(U, slates, cats, np.asarray(graph.edge_array),
                                   settings.ts_k, settings.ra_threshold)
    for name, expected in oracle.items():
        assert checks.metric_matches(name, getattr(record, name), expected), name
    assert not checks.metric_matches("pdv", record.pdv + 1e-6, oracle["pdv"])
    assert not checks.metric_matches("ts_at_k", record.ts_at_k + 1e-6, oracle["ts_at_k"])
    _, high = oracle["ra"]
    assert not checks.metric_matches("ra", high + 1.0 / slates.size, oracle["ra"])


def test_slate_check_rejects_repeated_and_foreign_items(world):
    catalog, _, traj = world
    slates = traj.step_logs[-1].slate_items.copy()
    n, h = slates.shape
    assert checks.slates_ok(slates, n, h, catalog.m)
    repeated = slates.copy()
    repeated[3, 1] = repeated[3, 0]
    assert not checks.slates_ok(repeated, n, h, catalog.m)
    foreign = slates.copy()
    foreign[0, 0] = catalog.m
    assert not checks.slates_ok(foreign, n, h, catalog.m)


def test_fixed_point_check_rejects_displaced_solution(world):
    catalog, graph, _ = world
    star = theory.fixed_point(theory.build_operators(
        catalog, graph, ModelParams(**FIXED_POINT)))
    cats = checks.Categories(catalog.category_sets, catalog.c)
    edges = np.asarray(graph.edge_array)
    assert checks.fixed_point_ok(star, cats, edges, **FIXED_POINT)
    assert not checks.fixed_point_ok(star + 1e-6, cats, edges, **FIXED_POINT)


def test_matrix_free_fixed_point_passes():
    catalog, _, graph = generate_synthetic(300, 400, 8, 900, seed=3)
    star = theory.fixed_point(theory.build_operators(
        catalog, graph, ModelParams(**FIXED_POINT)))
    assert star.size > theory.DENSE_SOLVE_LIMIT
    cats = checks.Categories(catalog.category_sets, catalog.c)
    assert checks.fixed_point_ok(star, cats, np.asarray(graph.edge_array), **FIXED_POINT)


def test_alpha_budget_rejects_scaled_temperatures(world):
    _, _, traj = world
    alphas = adaptive_alpha(dispersions(traj.final_states.user_matrix), 10.0, 5.0)
    assert checks.alpha_sum_ok(alphas, 5.0)
    assert not checks.alpha_sum_ok(alphas * 1.01, 5.0)


def test_dpp_first_item_is_lowest_id_of_top_category():
    catalog, states, _ = generate_synthetic(30, 200, 5, 60, seed=4)
    hooks = DiversityRerankHooks(theta=0.501)
    pool = np.random.default_rng(0).permutation(catalog.m)
    firsts = np.array([hooks.rerank(states.user_matrix[:, i], pool, catalog, 10)[0]
                       for i in range(states.n)])
    category_of = np.array([s[0] for s in catalog.category_sets])
    assert checks.dpp_first_ok(states.user_matrix, firsts, category_of)
    assert not checks.dpp_first_ok(states.user_matrix, firsts + 1, category_of)


def test_echo_chamber_reads_the_trend(tmp_path):
    path = tmp_path / "metrics.csv"
    rows = ["t,seed,rce,ra,nd,pdv,ts_at_k"]
    rows += [f"{t},1,{2.0 - t / 10},{t / 20},0,0,0" for t in range(20)]
    path.write_text("\n".join(rows) + "\n")
    assert checks.echo_chamber(path, 20) == (True, True)
    flat = ["t,seed,rce,ra,nd,pdv,ts_at_k"] + [f"{t},1,1.0,0.5,0,0,0" for t in range(20)]
    path.write_text("\n".join(flat) + "\n")
    assert checks.echo_chamber(path, 20) == (False, False)


def test_self_times_add_up_to_root_spans():
    tracer = Tracer()
    outer = tracer.begin("a")
    inner = tracer.begin("b")
    tracer.end(inner)
    tracer.end(outer)
    tracer.end(tracer.begin("b"))
    self_s, calls, root_s = tracer.self_times()
    assert calls == {"a": 1, "b": 2}
    assert sum(self_s.values()) == pytest.approx(root_s, abs=1e-12)
    assert all(v >= 0 for v in self_s.values())
