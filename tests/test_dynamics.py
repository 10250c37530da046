"""The stochastic interaction round: slates, feedback, updates, trajectories."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recloop as rl
from recloop import dynamics
from recloop import (
    ItemCatalog,
    ModelParams,
    StreamSplitter,
    UserStates,
    build_social_graph,
    run,
    sample_without_replacement,
    simulate_step,
)
from recloop.dynamics import StrategyHooks, _feedback_pair, _social_matrix, _softmax
from recloop.errors import InvalidRequest, NumericalError
from recloop.mitigation import MitigationConfig, build_hooks


def single_category_catalog(counts):
    sets = []
    for cat, count in enumerate(counts):
        sets.extend([(cat,)] * count)
    return ItemCatalog.from_category_sets(sets, len(counts))


class TestSocialRepresentation:
    def setup_method(self):
        self.U = np.array([[1.0, 0.0], [0.0, 1.0]])
        self.graph = build_social_graph({(0, 1)}, 2)

    def social(self, i, gamma):
        return _social_matrix(self.U, self.graph, gamma)[:, i]

    def test_gamma_one_returns_own_vector(self):
        np.testing.assert_array_equal(self.social(0, 1.0), [1, 0])

    def test_gamma_zero_single_neighbor(self):
        np.testing.assert_array_equal(self.social(0, 0.0), [0, 1])

    def test_blend(self):
        np.testing.assert_allclose(self.social(0, 0.5), [0.5, 0.5])

    def test_isolated_user_gets_own_vector(self):
        np.testing.assert_array_equal(self.social(1, 0.0), [0, 1])

    @given(n=st.integers(1, 12), pairs=st.lists(
               st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40),
           gamma=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_columns_equal_neighbor_mean_from_edges(self, n, pairs, gamma, seed):
        """Each column is gamma * u_i + (1 - gamma) * the plain mean of the
        neighbors that ``edge_array`` lists for i (u_i itself if none)."""
        graph = build_social_graph({(i % n, j % n) for i, j in pairs}, n)
        U = np.random.default_rng(seed).standard_normal((3, n))
        social = _social_matrix(U, graph, gamma)
        for i in range(n):
            nb = graph.edge_array[graph.edge_array[:, 0] == i, 1]
            mean = U[:, nb].mean(axis=1) if nb.size else U[:, i]
            np.testing.assert_allclose(social[:, i],
                                       gamma * U[:, i] + (1 - gamma) * mean,
                                       rtol=0, atol=1e-12)


def softmax_slate(s, catalog, alpha):
    """The engine's recommendation distribution for one blended vector s."""
    with np.errstate(invalid="ignore"):
        return _softmax(alpha * (catalog.item_vectors.T @ np.asarray(s, dtype=float)))


class TestRecommendationDistribution:
    def test_alpha_zero_is_uniform(self):
        cat = single_category_catalog([3, 2])
        p = softmax_slate(np.array([0.3, -0.2]), cat, 0.0)
        np.testing.assert_allclose(p, 0.2)

    def test_two_item_logistic_value(self):
        cat = ItemCatalog.from_category_sets([(0,), (1,)], 2)
        p = softmax_slate(np.array([1.0, 0.0]), cat, 1.0)
        e = np.e
        np.testing.assert_allclose(p, [e / (e + 1), 1 / (e + 1)], atol=1e-12)

    def test_large_alpha_peaks_on_argmax(self):
        cat = single_category_catalog([1, 9])
        p = softmax_slate(np.array([1.0, 0.0]), cat, 1e3)
        assert p[0] > 0.999

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        cat = single_category_catalog([7, 5, 8])
        for _ in range(20):
            p = softmax_slate(rng.standard_normal(3), cat,
                              float(rng.uniform(0, 30)))
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_shift_invariance(self):
        """Softmax ignores a constant added to every score, so adding a
        multiple of the all-ones direction to s leaves p unchanged for
        single-category catalogs (it shifts every v_j.s equally)."""
        cat = single_category_catalog([4, 4, 4])
        s = np.array([0.5, -0.1, 0.3])
        p1 = softmax_slate(s, cat, 2.0)
        p2 = softmax_slate(s + 10.0, cat, 2.0)
        np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_nonfinite_scores_raise(self):
        cat = single_category_catalog([2, 2])
        with pytest.raises(NumericalError):
            softmax_slate(np.array([np.inf, 0.0]), cat, 1.0)


class TestSampleWithoutReplacement:
    def test_exhaustive_draw_is_permutation(self):
        rng = np.random.default_rng(1)
        p = np.full(6, 1 / 6)
        idx = sample_without_replacement(p, 6, rng)
        assert sorted(idx.tolist()) == list(range(6))

    def test_point_mass(self):
        rng = np.random.default_rng(2)
        idx = sample_without_replacement(np.array([1.0, 0.0, 0.0]), 1, rng)
        np.testing.assert_array_equal(idx, [0])

    def test_h_larger_than_m_rejected(self):
        with pytest.raises(InvalidRequest):
            sample_without_replacement(np.array([0.5, 0.5]), 3,
                                       np.random.default_rng(0))

    def test_padding_from_zero_mass_items(self):
        rng = np.random.default_rng(3)
        p = np.array([0.6, 0.4, 0.0, 0.0, 0.0])
        idx = sample_without_replacement(p, 4, rng)
        assert len(set(idx.tolist())) == 4
        assert {0, 1} <= set(idx.tolist())

    def test_deterministic_given_state(self):
        p = np.random.default_rng(5).dirichlet(np.ones(30))
        a = sample_without_replacement(p, 10, np.random.default_rng(9))
        b = sample_without_replacement(p, 10, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_rows_match_one_dimensional_calls(self):
        """Each row of a 2-D call draws what a 1-D call with a twin generator
        draws, padded rows (fewer than h positive entries) included."""
        rng = np.random.default_rng(11)
        p = rng.dirichlet(np.ones(30), size=6)
        p[1, 3:] = 0.0                       # 3 positive entries < h: padded
        p[4, :] = 0.0
        p[4, 7] = 1.0                        # point mass: padded
        p[1] /= p[1].sum()
        for block in (p, p[4:5]):
            for h in (1, 5, 30):
                rows = sample_without_replacement(
                    block, h, [np.random.default_rng(s) for s in range(len(block))])
                assert rows.shape == (len(block), h)
                for r, row in enumerate(block):
                    twin = np.random.default_rng(r)
                    np.testing.assert_array_equal(
                        rows[r], sample_without_replacement(row, h, twin))

    def test_inclusion_frequency_matches_expectation(self):
        """Empirical inclusion rates track h*p_j for a skewed distribution.

        The bound is Bonferroni-corrected across items (z = 4.4 keeps the
        whole-test false-failure rate near 1e-3).
        """
        rng = np.random.default_rng(7)
        m, h, trials = 40, 5, 20_000
        p = rng.dirichlet(np.full(m, 5.0))
        counts = np.zeros(m)
        for _ in range(trials):
            counts[sample_without_replacement(p, h, rng)] += 1
        freq = counts / trials
        # exact inclusion probabilities by brute force are unwieldy; h*p_j
        # carries an O((h-1) p_j^2) bias, so allow it in the tolerance
        expect = h * p
        bias = (h - 1) * p ** 2 + (h - 1) * p * expect
        sd = np.sqrt(expect * (1 - expect) / trials)
        assert np.all(np.abs(freq - expect) <= 4.4 * sd + bias)


def feedback_pair(d, beta, epsilon):
    """The engine's clamped (p_pos, p_neg) for one user-item dot product."""
    pos, neg = _feedback_pair(np.array([d]), beta, epsilon)
    return float(pos[0]), float(neg[0])


class TestFeedbackProbabilities:
    def test_symmetric_point_with_shift(self):
        assert feedback_pair(0.0, 5.0, 0.2) == (0.6, 0.4)

    def test_half_alignment_beta_one(self):
        assert feedback_pair(0.5, 1.0, 0.0) == (0.75, 0.25)

    def test_beta_zero_is_random(self):
        for d in (-0.9, -0.1, 0.4, 0.99):
            assert feedback_pair(d, 0.0, 0.0) == (0.5, 0.5)

    def test_pair_sums_to_one_preclamp(self):
        for d in np.linspace(-0.99, 0.99, 21):
            for beta in (0.0, 1.0, 2.0, 5.0, 10.0):
                for eps in (-0.4, 0.0, 0.3):
                    pos, neg = _feedback_pair(np.array([d]), beta, eps,
                                              clamp=False)
                    assert abs(pos[0] + neg[0] - 1.0) <= 1e-12

    def test_monotone_in_beta(self):
        betas = [0.0, 1.0, 2.0, 5.0, 10.0]
        for d in (0.1, 0.5, 0.9):
            vals = [feedback_pair(d, b, 0.0)[0] for b in betas]
            assert all(x <= y + 1e-15 for x, y in zip(vals, vals[1:]))
        for d in (-0.1, -0.5, -0.9):
            vals = [feedback_pair(d, b, 0.0)[0] for b in betas]
            assert all(x >= y - 1e-15 for x, y in zip(vals, vals[1:]))

    def test_mirror_symmetry_with_small_epsilon(self):
        eps = 0.1
        for d in (0.05, 0.3, 0.6):
            pos_d, _ = _feedback_pair(np.array([d]), 3.0, eps, clamp=False)
            pos_md, _ = _feedback_pair(np.array([-d]), 3.0, eps, clamp=False)
            assert abs((pos_d[0] + pos_md[0]) - (1.0 + eps)) <= 1e-12

    def test_clamped_pair_in_range(self):
        # eps pushes the raw pair out of [0,1] near |d| = 1
        pos, neg = feedback_pair(0.999999, 8.0, 0.5)
        assert 0.0 <= pos <= 1.0 and 0.0 <= neg <= 1.0
        assert abs(pos + neg - 1.0) <= 1e-12

    def test_huge_beta_and_out_of_range_dot_are_finite(self):
        pos, neg = feedback_pair(3.0, 200.0, 0.0)
        assert np.isfinite(pos) and np.isfinite(neg)
        assert pos == 1.0 and neg == 0.0


def one_user_step(u, category_sets, c, seed=0, **knobs):
    """One engine step of a single isolated user whose slate is the whole
    catalog (h = m), returning (new u, signs)."""
    catalog = ItemCatalog.from_category_sets(category_sets, c)
    params = ModelParams(h=catalog.m, **knobs)
    states = UserStates(np.array(u, dtype=float)[:, None], 0)
    new_states, log = simulate_step(states, catalog, build_social_graph(set(), 1),
                                    params, seed)
    return new_states.user_matrix[:, 0], log.signs[0]


class TestDrawFeedback:
    """beta = 0 makes p_pos = 1/2 + epsilon/2, whatever the dot product."""

    def test_certain_outcomes(self):
        sets = [(0,), (1,), (0, 1)]
        for eps, sign in ((1.0, 1), (-1.0, -1)):
            for seed in range(5):
                _, signs = one_user_step([0.6, -0.8], sets, 2, seed,
                                         beta=0.0, epsilon=eps)
                np.testing.assert_array_equal(signs, [sign] * 3)

    def test_frequency(self):
        catalog = single_category_catalog([10, 10])
        params = ModelParams(beta=0.0, epsilon=0.5, h=20)     # p_pos = 0.75
        n = 5000
        states = UserStates(np.tile([[0.6], [0.8]], (1, n)), 0)
        _, log = simulate_step(states, catalog, build_social_graph(set(), n),
                               params, 1)
        assert np.all(log.p_pos == 0.75)
        frac = np.mean(log.signs == 1)
        assert abs(frac - 0.75) <= 0.005


class TestUpdateUser:
    """u + (eta/h) * the signed sum of the slate's item vectors, no
    renormalization; the slate is the whole catalog."""

    def test_all_positive_same_item(self):
        new_u, _ = one_user_step([0.2, 0.3], [(0,)] * 3, 2, beta=0.0,
                                 epsilon=1.0, eta=0.1)
        np.testing.assert_allclose(new_u, [0.3, 0.3])

    def test_cancellation(self):
        """Opposite signs on two items of one category cancel exactly; with
        p_pos = 1/2 some of the first 20 seeds draw them."""
        u = np.array([0.2, 0.3])
        cancelled = 0
        for seed in range(20):
            new_u, signs = one_user_step(u, [(0,), (0,)], 2, seed, beta=0.0,
                                         epsilon=0.0, eta=0.5)
            expected = u + 0.25 * signs.sum() * np.array([1.0, 0.0])
            np.testing.assert_allclose(new_u, expected, rtol=0, atol=1e-15)
            if signs[0] != signs[1]:
                np.testing.assert_array_equal(new_u, u)
                cancelled += 1
        assert cancelled > 0

    def test_mixed_signs(self):
        """A huge beta makes p_pos 1 on the item u leans to and 0 on the other."""
        new_u, signs = one_user_step([0.001, -0.001], [(0,), (1,)], 2,
                                     beta=1e6, epsilon=0.0, eta=0.2)
        np.testing.assert_array_equal(signs, [1, -1])
        np.testing.assert_allclose(new_u, [0.101, -0.101])


def tiny_world(n=4, m=30, c=3, links=6, seed=0):
    rng = np.random.default_rng(seed)
    sets = [(int(rng.integers(0, c)),) for _ in range(m)]
    catalog = ItemCatalog.from_category_sets(sets, c)
    edges = set()
    while len(edges) < links:
        i, j = rng.integers(0, n, 2)
        if i != j:
            edges.add((int(i), int(j)))
    graph = build_social_graph(edges, n)
    U = rng.standard_normal((c, n))
    U /= np.linalg.norm(U, axis=0, keepdims=True)
    return catalog, graph, UserStates(U.copy(), 0)


def mixed_world(n, m, c, links, seed):
    """tiny_world with items of one to three categories."""
    catalog, graph, states = tiny_world(n=n, m=m, c=c, links=links, seed=seed)
    rng = np.random.default_rng(seed + 1)
    sets = [tuple(sorted(set(rng.integers(0, c, size=rng.integers(1, 4)))))
            for _ in range(m)]
    return ItemCatalog.from_category_sets(sets, c), graph, states


def reference_step(states, catalog, graph, params, rng, hooks=None):
    """The engine one user at a time: the reference the blocked step must
    match bit for bit (whole-step softmax, 1-D race, per-user feedback)."""
    splitter = dynamics._as_splitter(rng)
    hooks = hooks if hooks is not None else StrategyHooks()
    U = states.user_matrix
    V = catalog.item_vectors
    n, m, h = U.shape[1], catalog.m, params.h
    hooks.begin_step(U, catalog, graph, params)
    alphas = hooks.user_alphas(U, params)
    if alphas is None:
        alphas = np.full(n, params.alpha)
    social = hooks.social_matrix(U, graph, params)
    if social is None:
        social = _social_matrix(U, graph, params.gamma)
    logits = (V.T @ social) * alphas[None, :]
    e = np.exp(logits - logits.max(axis=0, keepdims=True))
    probs = e / e.sum(axis=0, keepdims=True)
    sample_size = h if hooks.candidate_count is None else \
        min(int(hooks.candidate_count), m)

    new_U = np.empty_like(U)
    slate_items = np.empty((n, h), dtype=np.int64)
    signs = np.empty((n, h), dtype=np.int8)
    p_pos = np.empty((n, h))
    padded = np.empty(n, dtype=bool)
    for i in range(n):
        stream = splitter.user_stream(states.t, i)
        padded[i] = int((probs[:, i] > 0).sum()) < sample_size
        items = sample_without_replacement(probs[:, i], sample_size, stream)
        reranked = hooks.rerank(U[:, i], items, catalog, h)
        if reranked is not None:
            items = np.asarray(reranked, dtype=np.int64)
        pos, _ = _feedback_pair(V[:, items].T @ U[:, i], params.beta,
                                params.epsilon)
        s = np.where(stream.random(h) < pos, 1, -1).astype(np.int8)
        new_U[:, i] = U[:, i] + (params.eta / h) * (
            V[:, items] @ hooks.update_weights(s))
        slate_items[i], signs[i], p_pos[i] = items, s, pos
    return new_U, slate_items, signs, p_pos, padded, probs


def assert_same_step(states, catalog, graph, params, seed, hooks=None):
    new_U, items, signs, p_pos, padded, probs = reference_step(
        states, catalog, graph, params, seed, hooks)
    new_states, log = simulate_step(states, catalog, graph, params, seed, hooks,
                                    record_probabilities=True)
    np.testing.assert_array_equal(log.slate_items, items)
    np.testing.assert_array_equal(log.signs, signs)
    np.testing.assert_array_equal(log.p_pos, p_pos)
    np.testing.assert_array_equal(log.padded, padded)
    np.testing.assert_array_equal(log.probabilities, probs)
    np.testing.assert_array_equal(new_states.user_matrix, new_U)
    assert new_states.user_matrix.flags.c_contiguous
    return log


STRATEGY_KNOBS = {
    "none": {},
    "ua_alpha": dict(sigma=10.0),
    "fua": dict(rho=0.02),
    "dpp": dict(theta=0.501, candidate_count=60),
    "sar": dict(omega=10.0, sar_strict_denominator=True),
}


class TestBlockedStep:
    @pytest.mark.parametrize("strategy", sorted(STRATEGY_KNOBS))
    def test_matches_per_user_reference(self, strategy):
        catalog, graph, states = mixed_world(n=23, m=150, c=4, links=60, seed=5)
        params = ModelParams(h=6)
        hooks = build_hooks(
            MitigationConfig(strategy=strategy, **STRATEGY_KNOBS[strategy]),
            params)
        for _ in range(3):
            assert_same_step(states, catalog, graph, params, 8, hooks)
            states, _ = simulate_step(states, catalog, graph, params, 8, hooks)

    def test_whole_catalog_pool_matches_reference(self):
        """A candidate_count of m or more makes every pool the whole catalog,
        which the re-rank reads in id order without gathering the pool."""
        catalog, graph, states = mixed_world(n=23, m=150, c=4, links=60, seed=6)
        params = ModelParams(h=6)
        for count in (150, 1000):
            hooks = build_hooks(MitigationConfig(strategy="dpp", theta=0.501,
                                                 candidate_count=count), params)
            step_states = states
            for _ in range(3):
                assert_same_step(step_states, catalog, graph, params, 8, hooks)
                step_states, _ = simulate_step(step_states, catalog, graph,
                                               params, 8, hooks)

    def test_softmax_underflow_pads_like_reference(self):
        """A huge alpha leaves most users fewer than h items of positive
        probability, so their slates take the zero-probability padding."""
        catalog, graph, states = mixed_world(n=17, m=40, c=3, links=20, seed=2)
        log = assert_same_step(states, catalog, graph,
                               ModelParams(alpha=5e4, h=8), 3)
        assert 0 < log.padded.sum() < 17

    @given(n=st.integers(1, 12), m=st.integers(8, 40), c=st.integers(1, 4),
           alpha=st.sampled_from([0.0, 5.0, 3e4]), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_block_size_changes_nothing(self, n, m, c, alpha, seed):
        """Counter-split streams make every draw independent of the blocking:
        a block constant worth 1, 2, 7 and n users gives bit-equal steps (a
        block holds two users or more unless n == 1)."""
        catalog, graph, states = mixed_world(n=n, m=m, c=c,
                                             links=min(n * (n - 1), 2 * n),
                                             seed=seed)
        params = ModelParams(alpha=alpha, h=min(5, m))
        saved = dynamics.BLOCK_ENTRIES
        outs = []
        try:
            for users in (1, 2, 7, n):
                dynamics.BLOCK_ENTRIES = users * m
                outs.append(simulate_step(states, catalog, graph, params, seed,
                                          record_probabilities=True))
        finally:
            dynamics.BLOCK_ENTRIES = saved
        (first_states, first), rest = outs[0], outs[1:]
        for new_states, log in rest:
            for name in ("slate_items", "signs", "p_pos", "padded",
                         "probabilities"):
                np.testing.assert_array_equal(getattr(log, name),
                                              getattr(first, name))
            np.testing.assert_array_equal(new_states.user_matrix,
                                          first_states.user_matrix)


class TestSimulateStep:
    def test_new_state_keeps_memory_order(self):
        """U(t+1) has the memory order of U(t) at any size; the metrics round
        by layout. (Adding a large transposed temporary reuses its buffer,
        which would make the sum F-ordered.)"""
        catalog, graph, states = tiny_world(n=5000, m=40, c=8, links=0)
        for U in (states.user_matrix, np.asfortranarray(states.user_matrix)):
            new_states, _ = simulate_step(UserStates(U, 0), catalog, graph,
                                          ModelParams(h=3), 1)
            assert new_states.user_matrix.flags.c_contiguous == \
                U.flags.c_contiguous

    def test_zero_rate_update_freezes_state(self):
        catalog, graph, states = tiny_world()
        params = ModelParams(beta=0.0, epsilon=0.0, eta=0.0, h=5)
        new_states, _ = simulate_step(states, catalog, graph, params, 0)
        np.testing.assert_array_equal(new_states.user_matrix, states.user_matrix)
        assert new_states.t == 1

    def test_single_item_forced_positive_loop(self):
        catalog = ItemCatalog.from_category_sets([(0,)], 2)
        graph = build_social_graph(set(), 1)
        # epsilon=1 with beta=0 pins p_pos at 1
        params = ModelParams(alpha=1.0, beta=0.0, epsilon=1.0, eta=0.1, h=1)
        states = UserStates(np.array([[0.0], [1.0]]), 0)
        for step in range(3):
            states, log = simulate_step(states, catalog, graph, params, 0)
            assert log.signs[0, 0] == 1
        np.testing.assert_allclose(states.user_matrix[:, 0], [0.3, 1.0])

    def test_bit_identical_step_logs_for_fixed_seed(self):
        catalog, graph, states = tiny_world()
        params = ModelParams(h=5)
        out = []
        for _ in range(2):
            _, log = simulate_step(states.copy(), catalog, graph, params,
                                   StreamSplitter(77), record_probabilities=True)
            out.append(log)
        np.testing.assert_array_equal(out[0].slate_items, out[1].slate_items)
        np.testing.assert_array_equal(out[0].signs, out[1].signs)
        np.testing.assert_array_equal(out[0].p_pos, out[1].p_pos)
        np.testing.assert_array_equal(out[0].probabilities[:, 2],
                                      out[1].probabilities[:, 2])

    def test_gamma_one_never_reads_graph(self):
        catalog, _, states = tiny_world()

        class ExplodingGraph:
            def __getattr__(self, name):
                raise AssertionError(f"graph attribute {name} was read")

        params = ModelParams(gamma=1.0, h=5)
        simulate_step(states, catalog, ExplodingGraph(), params, 0)

    def test_slate_shape_and_distinctness(self):
        catalog, graph, states = tiny_world()
        params = ModelParams(h=7)
        _, log = simulate_step(states, catalog, graph, params, 3)
        assert log.slate_items.shape == (4, 7)
        for row in log.slate_items:
            assert len(set(row.tolist())) == 7
        assert log.signs.shape == (4, 7)
        assert set(log.signs.ravel().tolist()) <= {-1, 1}

    def test_per_user_update_weights_hook_rejected(self):
        """update_weights gets the (n, h) signs of a whole step; a hook that
        returns weights of another shape is rejected by name."""
        catalog, graph, states = tiny_world()

        class MeanHooks(StrategyHooks):
            def update_weights(self, signs):
                return signs.mean(axis=0)

        with pytest.raises(InvalidRequest, match="update_weights"):
            simulate_step(states, catalog, graph, ModelParams(h=5), 0,
                          MeanHooks())

    @pytest.mark.parametrize("shape", ["one_slate", "long_slates"])
    def test_misshapen_rerank_hook_rejected(self, shape):
        """rerank gets a block's (b, K) pools and must return (b, h) slates:
        one user's (h,) slate or a slate of h + 1 items is rejected."""
        catalog, graph, states = tiny_world()

        class BadHooks(StrategyHooks):
            candidate_count = 8

            def rerank(self, u, candidate_items, catalog, h):
                if shape == "one_slate":
                    return candidate_items[0, :h]
                return candidate_items[:, :h + 1]

        with pytest.raises(InvalidRequest, match="rerank"):
            simulate_step(states, catalog, graph, ModelParams(h=5), 0, BadHooks())

    def test_h_exceeding_catalog_rejected(self):
        catalog, graph, states = tiny_world(m=5)
        with pytest.raises(InvalidRequest):
            simulate_step(states, catalog, graph, ModelParams(h=10), 0)

    def test_monte_carlo_mean_matches_exact_expectation(self):
        """Mean simulated update converges to the exact expectation built
        from the true without-replacement inclusion probabilities and the
        exact feedback law (estimated on the same sampler, separate seed)."""
        catalog, graph, states = tiny_world(n=1, m=12, c=3, links=0, seed=4)
        params = ModelParams(alpha=0.8, beta=1.5, epsilon=0.1, gamma=1.0,
                             eta=0.2, h=3)
        u = states.user_matrix[:, 0]
        p = softmax_slate(u, catalog, params.alpha)

        # inclusion probabilities for the race sampler, high-precision MC
        rng = np.random.default_rng(99)
        trials = 200_000
        keys = rng.exponential(size=(trials, catalog.m)) / p
        order = np.argpartition(keys, params.h - 1, axis=1)[:, :params.h]
        incl = np.zeros(catalog.m)
        np.add.at(incl, order.ravel(), 1.0)
        incl /= trials

        dots = catalog.item_vectors.T @ u
        pos, neg = _feedback_pair(dots, params.beta, params.epsilon)
        g = pos - neg
        expected = u + (params.eta / params.h) * (
            catalog.item_vectors @ (incl * g))

        reps = 100_000
        acc = np.zeros(3)
        for r in range(reps):
            new_states, _ = simulate_step(states, catalog, graph, params,
                                          StreamSplitter(r))
            acc += new_states.user_matrix[:, 0]
        mean_update = acc / reps
        # coordinate std of one update is ~eta/h per item; 4 standard errors
        spread = (params.eta / params.h) * np.sqrt(params.h)
        se = spread / np.sqrt(reps)
        np.testing.assert_allclose(mean_update, expected, atol=4.5 * se + 5e-5)


class TestRun:
    def test_t_zero_rejected(self):
        catalog, graph, states = tiny_world()
        with pytest.raises(InvalidRequest):
            run(states, catalog, graph, ModelParams(h=5), 0)

    def test_per_step_metric_records(self):
        catalog, graph, states = tiny_world()
        traj = run(states, catalog, graph, ModelParams(h=5), 3, master_seed=1)
        assert [r.t for r in traj.records] == [0, 1, 2]
        assert traj.final_states.t == 3

    def test_empty_schedule_skips_metrics(self):
        catalog, graph, states = tiny_world()
        traj = run(states, catalog, graph, ModelParams(h=5), 3,
                   metric_schedule=[], master_seed=1)
        assert traj.records == []

    def test_snapshots_and_logs(self):
        catalog, graph, states = tiny_world()
        traj = run(states, catalog, graph, ModelParams(h=5), 4,
                   metric_schedule=[1, 3], snapshot_steps=[0, 4],
                   keep_step_logs=True, master_seed=2)
        assert sorted(traj.snapshots) == [0, 4]
        assert len(traj.step_logs) == 4
        assert [r.t for r in traj.records] == [1, 3]

    def test_determinism_across_runs(self):
        catalog, graph, states = tiny_world()
        t1 = run(states, catalog, graph, ModelParams(h=5), 5, master_seed=42)
        t2 = run(states, catalog, graph, ModelParams(h=5), 5, master_seed=42)
        np.testing.assert_array_equal(t1.final_states.user_matrix,
                                      t2.final_states.user_matrix)
        assert [r.rce for r in t1.records] == [r.rce for r in t2.records]

    def test_t_prefix_of_longer_run_is_identical(self):
        """Counter-split streams make a T-step run a strict prefix of a
        longer run with the same master seed."""
        catalog, graph, states = tiny_world()
        short = run(states, catalog, graph, ModelParams(h=5), 3, master_seed=9)
        long = run(states, catalog, graph, ModelParams(h=5), 6, master_seed=9)
        assert [r.rce for r in short.records] == \
            [r.rce for r in long.records[:3]]
