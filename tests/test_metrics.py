"""Echo-chamber / homogenization metric definitions against brute-force oracles."""

import numpy as np
import pytest

from recloop import (
    ItemCatalog,
    build_social_graph,
    category_entropy,
    dispersions,
    nd,
    pdv,
    ra,
    rce,
    ts_at_k,
)
from recloop.metrics import (
    MetricSettings,
    compute_metrics_record,
    pdv_with_mode,
    ra_with_diagnostics,
)
from recloop.errors import InvalidRequest, InvalidSlate, NoEdges

from oracles import dispersion


def catalog_ten():
    return ItemCatalog.from_category_sets([(o,) for o in range(10)] * 2, 10)


class TestCategoryEntropy:
    def test_single_category_slate_is_zero(self):
        cat = ItemCatalog.from_category_sets([(0,)] * 20, 10)
        assert category_entropy(np.arange(20), cat) == 0.0

    def test_uniform_slate_is_log_c(self):
        cat = catalog_ten()
        h = category_entropy(np.arange(20), cat)
        assert abs(h - np.log(10)) <= 1e-12

    def test_known_shares(self):
        cat = ItemCatalog.from_category_sets([(0,), (0,), (1,), (2,)], 3)
        h = category_entropy(np.array([0, 1, 2, 3]), cat)
        assert abs(h - 1.5 * np.log(2)) <= 1e-12

    def test_empty_slate_rejected(self):
        with pytest.raises(InvalidSlate):
            category_entropy(np.array([], dtype=int), catalog_ten())

    def test_multi_category_items_contribute_fractionally(self):
        cat = ItemCatalog.from_category_sets([(0, 1)], 2)
        assert abs(category_entropy(np.array([0]), cat) - np.log(2)) <= 1e-12


class TestRce:
    def test_identical_slates_equal_single_entropy(self):
        cat = catalog_ten()
        slates = np.tile(np.arange(20), (5, 1))
        assert abs(rce(slates, cat) - np.log(10)) <= 1e-12

    def test_mixed_population_averages(self):
        cat = catalog_ten()
        uniform = np.arange(20)
        concentrated = np.array([0, 10] * 10)   # both items category 0
        slates = np.stack([uniform, concentrated])
        assert abs(rce(slates, cat) - np.log(10) / 2) <= 1e-12


class TestRa:
    def test_perfect_alignment(self):
        cat = ItemCatalog.from_category_sets([(0,), (1,)], 2)
        users = np.array([[1.0], [0.0]])
        assert ra(users, np.array([[0, 0]]), cat) == 1.0

    def test_orthogonal_items(self):
        cat = ItemCatalog.from_category_sets([(0,), (1,)], 2)
        users = np.array([[1.0], [0.0]])
        assert ra(users, np.array([[1, 1]]), cat) == 0.0

    def test_boundary_at_sqrt_half(self):
        cat = ItemCatalog.from_category_sets([(0,), (1,)], 2)
        users = np.array([[np.sqrt(0.5)], [np.sqrt(0.5)]])
        assert ra(users, np.array([[0, 1]]), cat) == 1.0

    def test_zero_norm_user_excluded_and_counted(self):
        cat = ItemCatalog.from_category_sets([(0,), (1,)], 2)
        users = np.array([[1.0, 0.0], [0.0, 0.0]])
        value, excluded = ra_with_diagnostics(users, np.array([[0, 0], [0, 0]]), cat)
        assert value == 1.0
        assert excluded == 1


class TestNd:
    def test_identical_users(self):
        users = np.tile(np.array([[0.6], [0.8]]), (1, 3))
        g = build_social_graph({(0, 1), (1, 2)}, 3)
        assert nd(users, g) == 0.0

    def test_orthogonal_pair(self):
        users = np.array([[1.0, 0.0], [0.0, 1.0]])
        g = build_social_graph({(0, 1)}, 2)
        assert abs(nd(users, g) - np.sqrt(2)) <= 1e-12

    def test_three_user_mean(self):
        users = np.array([[1, 0, np.sqrt(0.5)], [0, 1, np.sqrt(0.5)]])
        g = build_social_graph({(0, 2), (1, 2)}, 3)
        assert abs(nd(users, g) - np.sqrt(2 - np.sqrt(2))) <= 1e-12

    def test_no_edges_raises(self):
        with pytest.raises(NoEdges):
            nd(np.eye(2), build_social_graph(set(), 2))


class TestPdv:
    def test_identical_users(self):
        users = np.tile(np.array([[0.6], [0.8]]), (1, 4))
        assert pdv(users) == 0.0

    def test_three_user_value(self):
        users = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert abs(pdv(users) - 4.0 / 9.0) <= 1e-12

    def test_needs_two_users(self):
        with pytest.raises(InvalidRequest):
            pdv(np.array([[1.0], [0.0]]))

    def test_exact_matches_brute_force_bitwise(self):
        rng = np.random.default_rng(0)
        for n in (2, 7, 50, 200):
            users = rng.standard_normal((5, n))
            dists = []
            un = users / np.linalg.norm(users, axis=0, keepdims=True)
            for i in range(n):
                for j in range(i + 1, n):
                    dists.append(np.sqrt(((un[:, j] - un[:, i]) ** 2).sum()))
            oracle = np.var(np.array(dists))
            assert pdv(users, mode="exact") == oracle

    def test_sampled_estimator_close_to_exact(self):
        rng = np.random.default_rng(1)
        users = rng.standard_normal((8, 2000))
        exact, _, _ = pdv_with_mode(users, "exact")
        sampled, mode, pairs = pdv_with_mode(users, "sampled", pairs=400_000,
                                             seed=7)
        assert mode == "sampled" and pairs == 400_000
        assert abs(sampled - exact) / exact <= 0.02


class TestTsAtK:
    def test_identical_users_score_one(self):
        users = np.tile(np.array([[0.6], [0.8]]), (1, 5))
        assert abs(ts_at_k(users, 3) - 1.0) <= 1e-12

    def test_orthogonal_users_score_zero(self):
        assert ts_at_k(np.eye(4), 1) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for n, k in ((10, 3), (50, 7), (100, 20)):
            users = rng.standard_normal((6, n))
            un = users / np.linalg.norm(users, axis=0, keepdims=True)
            gram = un.T @ un
            total = 0.0
            for i in range(n):
                sims = np.delete(gram[i], i)
                total += np.sort(sims)[-k:].mean()
            assert abs(ts_at_k(users, k) - total / n) <= 1e-12

    def test_k_out_of_range(self):
        users = np.eye(3)
        with pytest.raises(InvalidRequest):
            ts_at_k(users, 3)
        with pytest.raises(InvalidRequest):
            ts_at_k(users, 0)

    def test_non_increasing_in_k(self):
        rng = np.random.default_rng(3)
        users = rng.standard_normal((5, 40))
        values = [ts_at_k(users, k) for k in range(1, 40)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_chunking_does_not_change_result(self):
        rng = np.random.default_rng(4)
        users = rng.standard_normal((5, 57))
        assert ts_at_k(users, 9, chunk=8) == ts_at_k(users, 9, chunk=1024)


def one_dispersion(u):
    return float(dispersions(np.asarray(u, dtype=float)[:, None])[0])


class TestDispersion:
    def test_uniform_vector_is_zero(self):
        c = 9
        assert one_dispersion(np.full(c, 1 / np.sqrt(c))) <= 1e-15

    def test_basis_vector_c2(self):
        assert abs(one_dispersion([1.0, 0.0]) - 0.5) <= 1e-12

    def test_basis_vector_c4(self):
        assert abs(one_dispersion([1.0, 0, 0, 0]) - 0.75) <= 1e-12

    def test_normalizes_on_read(self):
        assert abs(one_dispersion([5.0, 0, 0, 0]) - 0.75) <= 1e-12

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        U = rng.standard_normal((6, 20))
        vec = dispersions(U)
        for i in range(20):
            assert abs(vec[i] - dispersion(U[:, i])) <= 1e-12


class TestRecordAssembly:
    def metric_record(self, perm=None):
        rng = np.random.default_rng(8)
        n, m, c, h = 12, 40, 5, 6
        sets = [(int(rng.integers(0, c)),) for _ in range(m)]
        cat = ItemCatalog.from_category_sets(sets, c)
        users = rng.standard_normal((c, n))
        edges = {(int(i), int(j)) for i, j in rng.integers(0, n, (30, 2))
                 if i != j}
        slates = np.stack([rng.choice(m, h, replace=False) for _ in range(n)])
        if perm is not None:
            users = users[:, perm]
            slates = slates[perm]
            edges = {(int(np.argwhere(perm == i)[0][0]),
                      int(np.argwhere(perm == j)[0][0])) for i, j in edges}
        graph = build_social_graph(edges, n)
        return compute_metrics_record(0, users, slates, cat, graph,
                                      MetricSettings(ts_k=4))

    def test_bounds_hold(self):
        rec = self.metric_record()
        assert 0 <= rec.rce <= np.log(5)
        assert 0 <= rec.ra <= 1
        assert 0 <= rec.nd <= 2
        assert rec.ts_at_k <= 1 + 1e-9
        assert rec.k_used == 4
        assert rec.pdv_mode == "exact"

    def test_permutation_invariance(self):
        base = self.metric_record()
        permuted = self.metric_record(perm=np.random.default_rng(9).permutation(12))
        for name in ("rce", "ra", "nd", "pdv", "ts_at_k"):
            assert getattr(base, name) == pytest.approx(getattr(permuted, name),
                                                        abs=1e-12)
