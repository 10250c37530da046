"""Echo-chamber / homogenization metric definitions against brute-force oracles."""

import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recloop import metrics, parallel
from recloop import (
    ItemCatalog,
    build_social_graph,
    dispersions,
    nd,
    rce,
    ts_at_k,
)
from recloop.metrics import (
    MetricSettings,
    compute_metrics_record,
    pdv_with_mode,
    ra_with_diagnostics,
)
from recloop.catalog import normalize_columns
from recloop.errors import InvalidRequest, InvalidSlate, NoEdges, NumericalError

from oracles import (
    dispersion,
    pairwise_distances_exact,
    pairwise_distances_rows,
    ts_at_k_blocks,
)


def catalog_ten():
    return ItemCatalog.from_category_sets([(o,) for o in range(10)] * 2, 10)


class TestCategoryEntropy:
    def test_single_category_slate_is_zero(self):
        cat = ItemCatalog.from_category_sets([(0,)] * 20, 10)
        assert rce(np.arange(20)[None], cat) == 0.0

    def test_uniform_slate_is_log_c(self):
        cat = catalog_ten()
        h = rce(np.arange(20)[None], cat)
        assert abs(h - np.log(10)) <= 1e-12

    def test_known_shares(self):
        cat = ItemCatalog.from_category_sets([(0,), (0,), (1,), (2,)], 3)
        h = rce(np.array([[0, 1, 2, 3]]), cat)
        assert abs(h - 1.5 * np.log(2)) <= 1e-12

    def test_empty_slate_rejected(self):
        with pytest.raises(InvalidSlate):
            rce(np.array([], dtype=int)[None], catalog_ten())

    def test_multi_category_items_contribute_fractionally(self):
        cat = ItemCatalog.from_category_sets([(0, 1)], 2)
        assert abs(rce(np.array([[0]]), cat) - np.log(2)) <= 1e-12


def three_items():
    return ItemCatalog.from_category_sets([(0,)] * 3, 1)


class TestSlateIds:
    """An id outside [0, m) is rejected by name, not read from the end of the
    catalog (a negative id) or raised as an untyped IndexError (id >= m)."""

    @pytest.mark.parametrize("slates, bad", [([[-1, 0]], -1), ([[0, 3]], 3),
                                             ([[0, 1], [2, 7], [-4, 0]], 7)])
    def test_rce_rejects_out_of_range_ids(self, slates, bad):
        with pytest.raises(InvalidSlate, match=rf"slate id {bad} outside \[0, 3\)"):
            rce(np.array(slates), three_items())

    @pytest.mark.parametrize("slates, bad", [([[-1, 0]], -1), ([[0, 3]], 3)])
    def test_ra_rejects_out_of_range_ids(self, slates, bad):
        with pytest.raises(InvalidSlate, match=rf"slate id {bad} outside \[0, 3\)"):
            ra_with_diagnostics(np.ones((1, 1)), np.array(slates), three_items())

    def test_ra_checks_ids_of_zero_norm_users_too(self):
        with pytest.raises(InvalidSlate, match="slate id -2"):
            ra_with_diagnostics(np.zeros((1, 1)), np.array([[-2, 0]]), three_items())


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
        assert ra_with_diagnostics(users, np.array([[0, 0]]), cat)[0] == 1.0

    def test_orthogonal_items(self):
        cat = ItemCatalog.from_category_sets([(0,), (1,)], 2)
        users = np.array([[1.0], [0.0]])
        assert ra_with_diagnostics(users, np.array([[1, 1]]), cat)[0] == 0.0

    def test_boundary_at_sqrt_half(self):
        cat = ItemCatalog.from_category_sets([(0,), (1,)], 2)
        users = np.array([[np.sqrt(0.5)], [np.sqrt(0.5)]])
        assert ra_with_diagnostics(users, np.array([[0, 1]]), cat)[0] == 1.0

    def test_zero_norm_user_excluded_and_counted(self):
        cat = ItemCatalog.from_category_sets([(0,), (1,)], 2)
        users = np.array([[1.0, 0.0], [0.0, 0.0]])
        value, excluded = ra_with_diagnostics(users, np.array([[0, 0], [0, 0]]), cat)
        assert value == 1.0
        assert excluded == 1

    def test_all_zero_users_score_zero(self):
        cat = ItemCatalog.from_category_sets([(0,), (1,)], 2)
        users = np.zeros((2, 3))
        assert ra_with_diagnostics(users, np.zeros((3, 2), int), cat) == (0.0, 3)


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
        assert pdv_with_mode(users)[0] == 0.0

    def test_three_user_value(self):
        users = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert abs(pdv_with_mode(users)[0] - 4.0 / 9.0) <= 1e-12

    def test_needs_two_users(self):
        with pytest.raises(InvalidRequest):
            pdv_with_mode(np.array([[1.0], [0.0]]))

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidRequest, match="unknown pdv mode 'fast'"):
            pdv_with_mode(np.eye(2), "fast")

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
            assert pdv_with_mode(users, mode="exact")[0] == oracle

    @settings(max_examples=60, deadline=None)
    @given(c=st.integers(1, 40), n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1),
           duplicates=st.floats(0.0, 0.5), zeros=st.floats(0.0, 0.3))
    def test_exact_is_variance_of_oracle_distances(self, c, n, seed, duplicates, zeros):
        """Distances and PDV equal, bit for bit, the row-by-row oracle's,
        with near-duplicate users (1 ulp apart) and zero users mixed in."""
        rng = np.random.default_rng(seed)
        users = rng.standard_normal((c, n))
        twins = rng.random(n) < duplicates
        users[:, twins] = np.nextafter(users[:, rng.integers(0, n, twins.sum())], np.inf)
        users[:, rng.random(n) < zeros] = 0.0
        oracle = pairwise_distances_rows(normalize_columns(users))
        np.testing.assert_array_equal(
            metrics._pairwise_distances_exact(normalize_columns(users)), oracle)
        assert pdv_with_mode(users, mode="exact")[0] == np.var(oracle)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e100, 1e100), min_size=1, max_size=500))
    def test_in_place_variance_is_np_var(self, values):
        """Bit-equal to np.var, and computed in the buffer it is given."""
        x = np.array(values)
        d = x.copy()
        assert metrics._variance_in_place(d) == np.var(x)
        np.testing.assert_array_equal(d, (x - x.mean()) ** 2)

    @settings(max_examples=60, deadline=None)
    @given(c=st.integers(1, 40), n=st.integers(2, 50), pairs=st.integers(1, 300),
           entries=st.integers(1, 160), workers=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_sampled_blocks_do_not_change_result(self, c, n, pairs, entries, workers,
                                                 seed):
        """Sampled PDV in blocks of pairs, on 1 to 3 workers, equals, bit for
        bit, the variance of the norms of all sampled differences taken at once."""
        users = np.random.default_rng(seed).standard_normal((c, n))
        rng = np.random.default_rng(seed + 1)     # the pair draws pdv_with_mode makes
        ii = rng.integers(0, n, size=pairs)
        jj = rng.integers(0, n - 1, size=pairs)
        jj = jj + (jj >= ii)
        un = normalize_columns(users)
        whole = np.var(np.linalg.norm(un[:, ii] - un[:, jj], axis=0))
        assert pdv_with_mode(users, "sampled", pairs=pairs, seed=seed + 1)[0] == whole
        with mock.patch.object(metrics, "PAIR_ENTRIES", entries), \
                mock.patch.object(parallel, "usable_cpus", lambda: workers):
            assert pdv_with_mode(users, "sampled", pairs=pairs, seed=seed + 1)[0] == whole

    def test_sampled_estimator_close_to_exact(self):
        rng = np.random.default_rng(1)
        users = rng.standard_normal((8, 2000))
        exact, _, _ = pdv_with_mode(users, "exact")
        sampled, mode, pairs = pdv_with_mode(users, "sampled", pairs=400_000,
                                             seed=7)
        assert mode == "sampled" and pairs == 400_000
        assert abs(sampled - exact) / exact <= 0.02


class TestBlockedExactPdv:
    """Exact PDV in blocks of rows gives, bit for bit, the row-by-row loop's
    distances, whatever the block budget and the number of workers."""

    @settings(max_examples=100, deadline=None)
    @given(c=st.integers(1, 40), n=st.integers(2, 60), workers=st.integers(1, 3),
           data=st.data())
    def test_any_block_budget_equals_row_loop(self, c, n, workers, data):
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        entries = data.draw(st.integers(1, 2 * c * n), label="entries")
        rng = np.random.default_rng(seed)
        users = rng.standard_normal((c, n))
        twins = rng.random(n) < 0.3
        users[:, twins] = np.nextafter(users[:, rng.integers(0, n, twins.sum())], np.inf)
        users[:, rng.random(n) < 0.2] = 0.0
        un = normalize_columns(users)
        with mock.patch.object(metrics, "PDV_BLOCK_ENTRIES", entries), \
                mock.patch.object(metrics, "SPLIT_ENTRIES", 1), \
                mock.patch.object(parallel, "usable_cpus", lambda: workers):
            np.testing.assert_array_equal(metrics._pairwise_distances_exact(un),
                                          pairwise_distances_exact(un))

    def test_final_pair_is_summed_pairwise(self):
        """At c = 8 numpy sums a lone (c, 1) column pairwise. In this world that
        rounds the final pair differently from an in-order sum, so a block that
        took row n-2 in with row n-3 would change its distance."""
        un = normalize_columns(np.random.default_rng(0).standard_normal((8, 3)))
        squares = (un[:, 2] - un[:, 1]) ** 2
        in_order = 0.0
        for x in squares:
            in_order += x
        assert np.sqrt(np.add.reduce(squares)) != np.sqrt(in_order)
        dists = metrics._pairwise_distances_exact(un)
        np.testing.assert_array_equal(dists, pairwise_distances_exact(un))
        assert dists[-1] == np.sqrt(np.add.reduce(squares))


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

    def test_chunking_does_not_change_result(self, monkeypatch):
        rng = np.random.default_rng(4)
        users = rng.standard_normal((5, 57))
        whole = ts_at_k(users, 9)
        for entries in (8 * 57, 1):          # 8-row blocks; 2-row blocks
            monkeypatch.setattr(metrics, "GRAM_ENTRIES", entries)
            assert ts_at_k(users, 9) == whole


class TestSplitKernels:
    """Exact PDV, TS@k and sampled PDV split over worker threads give, bit for
    bit, what the single-threaded loops give. The worker count and the split
    thresholds are patched, so small worlds take the split path on any CPU."""

    @settings(max_examples=60, deadline=None)
    @given(c=st.integers(1, 30), n=st.integers(2, 400), workers=st.sampled_from([2, 3]),
           seed=st.integers(0, 2**32 - 1))
    def test_exact_pdv_equals_single_thread_loop(self, c, n, workers, seed):
        users = np.random.default_rng(seed).standard_normal((c, n))
        un = normalize_columns(users)
        oracle = pairwise_distances_exact(un)
        with mock.patch.object(parallel, "usable_cpus", lambda: workers), \
                mock.patch.object(metrics, "SPLIT_ENTRIES", 1):
            np.testing.assert_array_equal(metrics._pairwise_distances_exact(un), oracle)
            assert pdv_with_mode(users, "exact")[0] == np.var(oracle)

    @settings(max_examples=60, deadline=None)
    @given(c=st.integers(1, 30), n=st.integers(2, 400), workers=st.sampled_from([2, 3]),
           data=st.data())
    def test_ts_at_k_equals_single_thread_loop(self, c, n, workers, data):
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        users = np.random.default_rng(seed).standard_normal((c, n))
        k = data.draw(st.integers(1, n - 1), label="k")
        entries = data.draw(st.integers(1, n * n), label="entries")
        with mock.patch.object(parallel, "usable_cpus", lambda: workers), \
                mock.patch.object(metrics, "GRAM_ENTRIES", entries):
            assert ts_at_k(users, k) == ts_at_k_blocks(users, k, entries)

    def test_desk_size_calls_start_no_thread(self, monkeypatch):
        users = np.random.default_rng(6).standard_normal((10, 100))
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: pytest.fail("a thread was started"))
        pdv_with_mode(users)
        ts_at_k(users, 20)

    def test_split_calls_leave_no_thread_behind(self, monkeypatch):
        users = np.random.default_rng(7).standard_normal((6, 90))
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
        monkeypatch.setattr(metrics, "SPLIT_ENTRIES", 1)
        monkeypatch.setattr(metrics, "GRAM_ENTRIES", 90 * 8)
        monkeypatch.setattr(metrics, "PAIR_ENTRIES", 6 * 40)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: started.append(self) or start(self))
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            calls = [lambda: pdv_with_mode(users, "exact")[0], lambda: ts_at_k(users, 9),
                     lambda: pdv_with_mode(users, "sampled", pairs=500)[0]]
            values = []
            for call in calls:
                started.clear()
                values.append(call())
                assert started and threading.active_count() == before
        finally:
            sys.setswitchinterval(interval)
        assert values[0] == np.var(pairwise_distances_exact(normalize_columns(users)))
        assert values[1] == ts_at_k_blocks(users, 9, 90 * 8)

    def test_worker_error_is_raised_and_no_thread_left(self):
        def kernel(lo, hi, scratch):
            if lo > 0:
                raise NumericalError(f"rows {lo}-{hi}")
        before = threading.active_count()
        with pytest.raises(NumericalError, match="rows 2-4"):
            parallel.run_split(kernel, range(5), 2, lambda: None)
        assert threading.active_count() == before


class TestNormalizeColumns:
    def test_overflowing_norm_raises(self):
        """A column whose squares overflow raises instead of reading as zero;
        one just below keeps its direction."""
        np.testing.assert_array_equal(normalize_columns(np.array([[1e150], [0.0]])),
                                      [[1.0], [0.0]])
        with pytest.raises(NumericalError, match="overflow"):
            normalize_columns(np.array([[1.0, 1e200], [0.0, 0.0]]))


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
        assert rec.pdv_mode == "exact"

    def test_permutation_invariance(self):
        base = self.metric_record()
        permuted = self.metric_record(perm=np.random.default_rng(9).permutation(12))
        for name in ("rce", "ra", "nd", "pdv", "ts_at_k"):
            assert getattr(base, name) == pytest.approx(getattr(permuted, name),
                                                        abs=1e-12)
