"""The four mitigation strategies: pure ops and their engine hooks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recloop as rl
from recloop import (
    ItemCatalog,
    ModelParams,
    UserStates,
    adaptive_alpha,
    build_hooks,
    build_social_graph,
    dpp_rerank,
)
from recloop.dynamics import _social_matrix, simulate_step
from recloop.metrics import category_entropy, dispersions
from recloop.mitigation import (
    DiversityRerankHooks,
    MitigationConfig,
    SocialReweightHooks,
    _reweighted_influence,
)
from recloop.errors import InvalidRequest

from oracles import (
    dpp_hook_reference,
    dpp_rerank_reference,
    fua_weight,
    sar_social_representation,
)


class TestAdaptiveAlpha:
    def test_equal_dispersions_split_budget_evenly(self):
        alphas = adaptive_alpha(np.full(4, 0.3), 10.0, 5.0)
        np.testing.assert_allclose(alphas, 5.0 / 4)

    def test_worked_two_user_example(self):
        alphas = adaptive_alpha(np.array([0.25, 0.5]), 1.0, 3.0)
        np.testing.assert_allclose(alphas, [2.0, 1.0])

    def test_sigma_zero_ignores_dispersion(self):
        alphas = adaptive_alpha(np.array([0.1, 0.7, 0.4]), 0.0, 6.0)
        np.testing.assert_allclose(alphas, 2.0)

    def test_zero_dispersion_floored(self):
        alphas = adaptive_alpha(np.array([0.0, 0.5]), 10.0, 5.0)
        assert np.all(np.isfinite(alphas))
        assert alphas[0] > alphas[1]

    def test_large_sigma_no_overflow(self):
        alphas = adaptive_alpha(np.array([1e-9, 0.9, 0.5]), 50.0, 5.0)
        assert np.all(np.isfinite(alphas))
        assert abs(alphas.sum() - 5.0) <= 1e-12

    @given(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=40),
           st.floats(0.0, 20.0))
    @settings(max_examples=60)
    def test_budget_conserved(self, dis, sigma):
        alphas = adaptive_alpha(np.array(dis), sigma, 5.0)
        assert abs(alphas.sum() - 5.0) <= 1e-12
        assert np.all(alphas >= 0)


class TestFuaWeight:
    def test_rho_zero_recovers_signs(self):
        assert fua_weight(1, 0.0) == 1.0
        assert fua_weight(-1, 0.0) == -1.0

    def test_reference_rho(self):
        assert fua_weight(1, 0.02) == 0.98
        assert fua_weight(-1, 0.02) == -1.02

    def test_negative_rho(self):
        assert fua_weight(1, -0.01) == 1.01
        assert fua_weight(-1, -0.01) == -0.99

    def test_bad_sign(self):
        with pytest.raises(InvalidRequest):
            fua_weight(0, 0.1)

    def test_rho_zero_trajectory_equals_unmitigated(self):
        rng = np.random.default_rng(0)
        cat = ItemCatalog.from_category_sets(
            [(int(rng.integers(0, 3)),) for _ in range(20)], 3)
        graph = build_social_graph({(0, 1), (1, 0)}, 2)
        U = rng.standard_normal((3, 2))
        params = ModelParams(h=4)
        plain = UserStates(U.copy(), 0)
        hooked = UserStates(U.copy(), 0)
        hooks = build_hooks(MitigationConfig(strategy="fua", rho=0.0), params)
        for _ in range(5):
            plain, _ = simulate_step(plain, cat, graph, params, 7)
            hooked, _ = simulate_step(hooked, cat, graph, params, 7, hooks)
        np.testing.assert_array_equal(plain.user_matrix, hooked.user_matrix)


class TestDppRerank:
    def make_catalog(self):
        return ItemCatalog.from_category_sets(
            [(0,), (0,), (1,), (1,), (2,), (2,)], 3)

    def test_theta_zero_is_pure_relevance(self):
        cat = self.make_catalog()
        u = np.array([0.1, 0.9, 0.3])
        picks = dpp_rerank(u, np.arange(6), cat, 0.0, 4)
        rel = cat.item_vectors.T @ u
        oracle = np.argsort(-rel, kind="stable")[:4]
        np.testing.assert_array_equal(np.sort(picks), np.sort(oracle))
        # first pick is the argmax, ties to the lowest item index
        assert picks[0] == 2

    def test_theta_one_hand_trace(self):
        cat = ItemCatalog.from_category_sets([(0,), (0,), (1,)], 2)
        picks = dpp_rerank(np.array([0.3, 0.2]), np.array([0, 1, 2]), cat,
                           1.0, 2)
        np.testing.assert_array_equal(picks, [0, 2])

    def test_h_one_is_argmax_relevance(self):
        cat = self.make_catalog()
        u = np.array([0.0, 0.2, 0.9])
        picks = dpp_rerank(u, np.arange(6), cat, 0.7, 1)
        np.testing.assert_array_equal(picks, [4])

    def test_pool_too_small(self):
        with pytest.raises(InvalidRequest):
            dpp_rerank(np.zeros(3), np.array([0, 1]), self.make_catalog(),
                       0.5, 3)

    def test_duplicate_candidates_rejected(self):
        with pytest.raises(InvalidRequest):
            dpp_rerank(np.zeros(3), np.array([0, 0, 1]), self.make_catalog(),
                       0.5, 2)

    def test_diversity_gain_in_expectation(self):
        """theta just above 0.5 yields at least the relevance-only category
        entropy on average over random users and catalogs."""
        rng = np.random.default_rng(1)
        gains = []
        for _ in range(120):
            c = 6
            cat = ItemCatalog.from_category_sets(
                [(int(rng.integers(0, c)),) for _ in range(60)], c)
            u = rng.standard_normal(c)
            u /= np.linalg.norm(u)
            pool = rng.choice(60, size=40, replace=False)
            diverse = dpp_rerank(u, pool, cat, 0.501, 10)
            relevant = dpp_rerank(u, pool, cat, 0.0, 10)
            gains.append(category_entropy(diverse, cat)
                         - category_entropy(relevant, cat))
        assert np.mean(gains) > 0


def multi_category_catalog(m, c, seed):
    """Items of one to three categories, so item vectors have 1/sqrt(k) entries."""
    rng = np.random.default_rng(seed)
    return ItemCatalog.from_category_sets(
        [tuple(rng.choice(c, size=rng.integers(1, min(c, 3) + 1), replace=False))
         for _ in range(m)], c)


def random_pools(rng, b, K, m):
    """One unsorted pool of K distinct items per row, as the race leaves it."""
    return np.array([rng.permutation(m)[:K] for _ in range(b)])


class TestBatchedRerank:
    """The hook re-ranks a (b, K) block of pools in one greedy pass; each row
    must equal the one-user selection bit for bit."""

    M, C, H = 90, 6, 8

    def block_users(self, rng, b):
        """A C-ordered (c, n) matrix whose column slice the engine hands over:
        an all-zero user and users scaled far from unit norm among them."""
        U = rng.standard_normal((self.C, b + 3))
        U[:, 1] = 0.0
        U[:, 2] *= 1e-160          # u.u underflows to 0: left unnormalized
        U[:, 3] *= 1e-7
        U[:, 4] *= 1e9
        U[:, 5] *= 1e150
        return U[:, 1:b + 1]

    def assert_matches_reference(self, catalog, U, pools, theta, h):
        hooks = DiversityRerankHooks(theta)
        got = hooks.rerank(U, pools, catalog, h)
        want = np.array([dpp_hook_reference(U[:, r], pools[r], catalog, theta, h)
                         for r in range(U.shape[1])])
        assert got.shape == (U.shape[1], h)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("theta", [0.0, 0.501, 1.0])
    @pytest.mark.parametrize("K", [H, M // 3, M])
    def test_block_matches_per_user_selection(self, theta, K):
        rng = np.random.default_rng(int(theta * 1000) + K)
        catalog = multi_category_catalog(self.M, self.C, seed=K)
        U = self.block_users(rng, 12)
        pools = random_pools(rng, 12, K, self.M)
        self.assert_matches_reference(catalog, U, pools, theta, self.H)

    @pytest.mark.parametrize("K", [1, 30, 90])
    def test_single_item_slates(self, K):
        rng = np.random.default_rng(K)
        catalog = multi_category_catalog(self.M, self.C, seed=3)
        U = self.block_users(rng, 9)
        self.assert_matches_reference(catalog, U, random_pools(rng, 9, K, self.M),
                                      0.501, 1)

    def test_ties_break_to_lowest_id_in_every_row(self):
        """Single-category items tie exactly; each row keeps the lowest id."""
        rng = np.random.default_rng(4)
        catalog = ItemCatalog.from_category_sets(
            [(int(rng.integers(0, 3)),) for _ in range(40)], 3)
        U = np.abs(rng.standard_normal((3, 10)))
        for K in (5, 17, 40):
            self.assert_matches_reference(catalog, U, random_pools(rng, 10, K, 40),
                                          0.501, 5)

    @pytest.mark.parametrize("m", [6, 30, 31])
    def test_equal_multi_category_items_tie_exactly(self, m):
        """Items with the same two categories must score bit-equal wherever
        they sit in the catalog; BLAS kernels round tail rows differently,
        so only the per-user layout keeps the lowest-id tie-break."""
        rng = np.random.default_rng(m)
        catalog = ItemCatalog.from_category_sets(
            [((0, 1), (1, 2))[int(rng.integers(0, 2))] for _ in range(m)], 3)
        U = rng.standard_normal((3, 16)) * rng.choice([1e-3, 1.0, 1e4], size=16)
        for K in (m, m - 1, 3):
            self.assert_matches_reference(catalog, U, random_pools(rng, 16, K, m),
                                          0.501, 3)

    @given(m=st.integers(2, 60), c=st.integers(1, 7), b=st.integers(1, 9),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_blocks_match(self, m, c, b, data):
        h = data.draw(st.integers(1, min(m, 10)))
        K = data.draw(st.sampled_from(sorted({h, max(h, m // 3), m})))
        theta = data.draw(st.sampled_from([0.0, 0.3, 0.501, 1.0]))
        seed = data.draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        catalog = multi_category_catalog(m, c, seed)
        U = rng.standard_normal((c, b)) * rng.choice([1e-5, 1.0, 1e5], size=b)
        self.assert_matches_reference(catalog, U, random_pools(rng, b, K, m),
                                      theta, h)

    def test_one_user_call_returns_one_slate(self):
        rng = np.random.default_rng(5)
        catalog = multi_category_catalog(self.M, self.C, seed=5)
        u = rng.standard_normal(self.C) * 3.0
        pool = rng.permutation(self.M)[:40]
        got = DiversityRerankHooks(0.501).rerank(u, pool, catalog, self.H)
        np.testing.assert_array_equal(
            got, dpp_hook_reference(u, pool, catalog, 0.501, self.H))

    @pytest.mark.parametrize("K", [8, 30, 90])
    def test_public_entry_point_matches_reference(self, K):
        """``dpp_rerank`` takes u as given (no normalization) and one pool."""
        rng = np.random.default_rng(K)
        catalog = multi_category_catalog(self.M, self.C, seed=6)
        for theta in (0.0, 0.501, 1.0):
            u = rng.standard_normal(self.C) * 7.0
            pool = rng.permutation(self.M)[:K]
            np.testing.assert_array_equal(
                dpp_rerank(u, pool, catalog, theta, self.H),
                dpp_rerank_reference(u, pool, catalog, theta, self.H))


class TestSarSocialRepresentation:
    def setup_method(self):
        self.graph = build_social_graph({(0, 1), (0, 2)}, 3)
        self.U = np.array([[0.0, 1.0, 0.0],
                           [0.0, 0.0, 1.0]])

    def test_omega_zero_recovers_plain_mean(self):
        dis = np.array([0.3, 0.8, 0.2])
        s = sar_social_representation(self.U, self.graph, 0, 0.4, 0.0, dis)
        expected = _social_matrix(self.U, self.graph, 0.4)[:, 0]
        np.testing.assert_allclose(s, expected, atol=1e-15)

    def test_weight_concentrates_on_low_dispersion_neighbor(self):
        dis = np.array([0.0, 0.0, 100.0])
        s = sar_social_representation(self.U, self.graph, 0, 0.0, 5.0, dis)
        np.testing.assert_allclose(s, self.U[:, 1], atol=1e-12)

    def test_worked_example(self):
        dis = np.array([0.0, 0.5, 0.75])
        s = sar_social_representation(self.U, self.graph, 0, 0.0, 2.0, dis)
        w = np.exp([-1.0, -1.5])
        w = w / w.sum()
        np.testing.assert_allclose(s, w[0] * self.U[:, 1] + w[1] * self.U[:, 2],
                                   atol=1e-12)

    def test_isolated_user_returns_own_vector(self):
        s = sar_social_representation(self.U, self.graph, 1, 0.3, 2.0,
                                      np.zeros(3))
        np.testing.assert_array_equal(s, self.U[:, 1])

    def test_strict_denominator_shrinks_by_neighbor_count(self):
        dis = np.array([0.0, 0.5, 0.75])
        loose = sar_social_representation(self.U, self.graph, 0, 0.0, 2.0, dis)
        strict = sar_social_representation(self.U, self.graph, 0, 0.0, 2.0,
                                           dis, strict_denominator=True)
        raw = np.exp([-1.0, -1.5])
        expected = (raw[0] * self.U[:, 1] + raw[1] * self.U[:, 2]) / (raw.sum() * 2)
        np.testing.assert_allclose(strict, expected, atol=1e-15)
        assert np.linalg.norm(strict) < np.linalg.norm(loose)

    def test_weights_form_convex_combination(self):
        rng = np.random.default_rng(2)
        n = 15
        edges = {(int(i), int(j)) for i, j in rng.integers(0, n, (60, 2))
                 if i != j}
        graph = build_social_graph(edges, n)
        dis = rng.uniform(0, 1, n)
        W = _reweighted_influence(graph, dis, 3.0, strict_denominator=False)
        arr = W.toarray()
        assert np.all(arr >= 0)
        np.testing.assert_allclose(arr.sum(axis=1), 1.0, atol=1e-12)


class TestHookWiring:
    def tiny(self):
        rng = np.random.default_rng(3)
        cat = ItemCatalog.from_category_sets(
            [(int(rng.integers(0, 4)),) for _ in range(30)], 4)
        graph = build_social_graph({(0, 1), (1, 2), (2, 0)}, 3)
        U = rng.standard_normal((4, 3))
        return cat, graph, UserStates(U, 0)

    def test_strategy_names_validated(self):
        with pytest.raises(InvalidRequest):
            MitigationConfig(strategy="unknown")

    def test_dpp_candidate_count_must_cover_h(self):
        cfg = MitigationConfig(strategy="dpp", candidate_count=3)
        with pytest.raises(InvalidRequest):
            build_hooks(cfg, ModelParams(h=5))

    def test_dpp_hook_returns_h_items(self):
        cat, graph, states = self.tiny()
        params = ModelParams(h=5)
        hooks = build_hooks(MitigationConfig(strategy="dpp",
                                             candidate_count=20), params)
        _, log = simulate_step(states, cat, graph, params, 1, hooks)
        assert log.slate_items.shape == (3, 5)
        for row in log.slate_items:
            assert len(set(row.tolist())) == 5

    def test_sar_hook_matches_per_user_op(self):
        cat, graph, states = self.tiny()
        params = ModelParams(gamma=0.4, h=5)
        hook = SocialReweightHooks(omega=2.5)
        social = hook.social_matrix(states.user_matrix, graph, params)
        dis = dispersions(states.user_matrix)
        for i in range(3):
            expected = sar_social_representation(states.user_matrix, graph, i,
                                                 0.4, 2.5, dis)
            np.testing.assert_allclose(social[:, i], expected, atol=1e-12)

    def test_ua_alpha_hook_uses_dispersion_budget(self):
        cat, graph, states = self.tiny()
        params = ModelParams(alpha=5.0, h=5)
        hooks = build_hooks(MitigationConfig(strategy="ua_alpha", sigma=2.0),
                            params)
        hooks.begin_step(states.user_matrix, cat, graph, params)
        alphas = hooks.user_alphas(states.user_matrix, params)
        assert abs(alphas.sum() - 5.0) <= 1e-12
        dis = dispersions(states.user_matrix)
        assert alphas[np.argmin(dis)] == alphas.max()
