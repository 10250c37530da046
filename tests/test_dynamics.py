"""The stochastic interaction round: slates, feedback, updates, trajectories."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from recloop.catalog import group_columns
from recloop.dynamics import (
    StrategyHooks,
    _feedback_pair,
    _group_weights,
    _social_matrix,
)
from recloop.errors import InvalidRequest, InvalidSlate, NumericalError, RecloopError
from recloop.mitigation import DiversityRerankHooks, MitigationConfig, build_hooks

from oracles import race


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
    """The engine's recommendation distribution over the items for one
    blended vector s: its group weights, spread over each group's items."""
    groups = catalog.groups
    with np.errstate(invalid="ignore"):
        w = _group_weights(np.asarray(s, dtype=float)[:, None], np.array([alpha]),
                           groups.vectors)[0]
    return w[groups.index] / (w @ groups.sizes)


def row_width(catalog, h, pool=None):
    """What ``simulate_step`` blocks users by: the numbers one user's row
    draws (slots, within-group uniforms, feedback) plus its pool."""
    pool = pool or h
    return int(np.minimum(catalog.groups.sizes, pool).sum()) + pool + h


def group_draws(p, h, seed):
    """The 1-D form's groups, weights and the uniforms its generator gives."""
    groups = group_columns(np.asarray(p, dtype=float)[None])
    S = int(np.minimum(groups.sizes, h).sum())
    return groups, groups.vectors, np.random.default_rng(seed).random((1, S + h))


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
        """Each row of a 2-D call draws what a one-row call on that row draws,
        padded rows included; the 1-D form is the one-row call on its groups
        of equal probability, with its generator's next S + h uniforms."""
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 7, size=30)
        groups = group_columns(labels[None].astype(float))
        w = rng.random((6, groups.sizes.size))
        w[1, 2:] = 0.0                        # few positive items: padded
        w[4] = 0.0
        w[4, 3] = 1.0
        for h in (1, 5, 30):
            S = int(np.minimum(groups.sizes, h).sum())
            draws = rng.random((6, S + h))
            rows = sample_without_replacement(w, h, draws, groups)
            assert rows.shape == (6, h)
            for r in range(6):
                np.testing.assert_array_equal(rows[r], sample_without_replacement(
                    w[r:r + 1], h, draws[r:r + 1], groups)[0])
        p = np.repeat(rng.dirichlet(np.ones(5)), 6)
        p[:6] = 0.0
        for h in (1, 8, 30):
            groups, w, draws = group_draws(p, h, 3)
            np.testing.assert_array_equal(
                sample_without_replacement(p, h, np.random.default_rng(3)),
                sample_without_replacement(w, h, draws, groups)[0])

    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 6), m=st.integers(1, 40), data=st.data(),
           seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 1.0),
           kinds=st.integers(1, 40))
    def test_batched_race_matches_oracle(self, rows, m, data, seed, zeros, kinds):
        """Row by row the one-user oracle's race over the same groups, padded
        rows, h = m, groups of one item and one-row blocks included."""
        h = data.draw(st.one_of(st.just(m), st.integers(1, m)))
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, kinds, size=m)
        groups = group_columns(labels[None].astype(float))
        w = rng.random((rows, groups.sizes.size)) ** 3
        w[rng.random(w.shape) < zeros] = 0.0
        S = int(np.minimum(groups.sizes, h).sum())
        draws = rng.random((rows, S + h))
        got = sample_without_replacement(w, h, draws, groups)
        for r in range(rows):
            np.testing.assert_array_equal(
                got[r], race(w[r, groups.index], h, draws[r], groups.index))

    def test_overflowing_keys_are_not_padding(self):
        """Positive probabilities so small that E / p overflows still rank
        before every zero-probability item: a row with h positive entries
        draws no pad, and a row with fewer draws one. Each matches the
        oracle."""
        p = np.zeros((4, 12))
        p[0, 6:] = 5e-324                    # 6 positive >= h
        p[1, :6] = 5e-324                    # the same, positive items first
        p[2, :2], p[2, 8:] = 0.5, 5e-324     # 6 positive >= h
        p[3, :2] = 0.5                       # 2 positive < h: padded
        for r, row in enumerate(p):
            got = sample_without_replacement(row, 4, np.random.default_rng([3, r]))
            _, _, draws = group_draws(row, 4, [3, r])
            np.testing.assert_array_equal(got, race(row, 4, draws[0]))
            positive = np.flatnonzero(row > 0)
            if positive.size >= 4:
                assert set(got.tolist()) <= set(positive.tolist())
            else:
                assert set(got[:positive.size].tolist()) == set(positive.tolist())

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
    catalog (h = m), in race order, returning (new u, signs by item id)."""
    catalog = ItemCatalog.from_category_sets(category_sets, c)
    params = ModelParams(h=catalog.m, **knobs)
    states = UserStates(np.array(u, dtype=float)[:, None], 0)
    new_states, log = simulate_step(states, catalog, build_social_graph(set(), 1),
                                    params, seed)
    return new_states.user_matrix[:, 0], log.signs[0][np.argsort(log.slate_items[0])]


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


def reference_step(states, catalog, graph, params, seed, hooks=None):
    """The engine one user at a time, from the documented row layout: the
    reference the blocked step must match bit for bit. The groups come from
    ``np.unique``, each user's race from the one-user oracle on its row,
    drawn from ``user_stream(t, i, width)`` alone, and its feedback from the
    rest of the row."""
    splitter = StreamSplitter(seed)
    hooks = hooks or StrategyHooks()
    U = states.user_matrix
    V = catalog.item_vectors
    n, m, h = U.shape[1], catalog.m, params.h
    _, first, labels, sizes = np.unique(V, axis=1, return_index=True,
                                        return_inverse=True, return_counts=True)
    rank = np.lexsort((first, -sizes))            # largest group first
    labels = np.argsort(rank)[labels.reshape(-1)]
    vectors = V[:, first[rank]]
    alphas = hooks.user_alphas(U, params)
    social = hooks.social_matrix(U, graph, params)
    logits = (social.T @ vectors) * alphas[:, None]
    weights = np.exp(logits - logits.max(axis=1, keepdims=True))
    pool = h if hooks.candidate_count is None else min(int(hooks.candidate_count), m)
    whole = hooks.candidate_count is not None and pool == m
    slots = int(np.minimum(sizes, pool).sum())
    width = h if whole else slots + pool + h

    new_U = np.empty_like(U)
    slate_items = np.empty((n, h), dtype=np.int64)
    signs = np.empty((n, h), dtype=np.int8)
    p_pos = np.empty((n, h))
    padded = np.empty(n, dtype=bool)
    for i in range(n):
        row = splitter.user_stream(states.t, i, width).random(width)
        w = weights[i, labels]
        padded[i] = int((w > 0).sum()) < pool
        if whole:
            items, feedback = np.arange(m), row
        else:
            items = race(w, pool, row[:slots + pool], labels)
            feedback = row[slots + pool:]
        items = np.asarray(hooks.rerank(U[:, i], items, catalog, h), dtype=np.int64)
        pos, _ = _feedback_pair(V[:, items].T @ U[:, i], params.beta,
                                params.epsilon)
        s = np.where(feedback < pos, 1, -1).astype(np.int8)
        new_U[:, i] = U[:, i] + (params.eta / h) * (
            V[:, items] @ hooks.update_weights(s))
        slate_items[i], signs[i], p_pos[i] = items, s, pos
    return new_U, slate_items, signs, p_pos, padded


def assert_same_step(states, catalog, graph, params, seed, hooks=None):
    new_U, items, signs, p_pos, padded = reference_step(
        states, catalog, graph, params, seed, hooks)
    new_states, log = simulate_step(states, catalog, graph, params, seed, hooks)
    np.testing.assert_array_equal(log.slate_items, items)
    np.testing.assert_array_equal(log.signs, signs)
    np.testing.assert_array_equal(log.p_pos, p_pos)
    np.testing.assert_array_equal(log.padded, padded)
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
        """A candidate_count of m or more makes every pool the whole catalog
        in id order, drawn from no race: each row holds the h feedback
        uniforms alone."""
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

    def test_whole_catalog_pool_draws_no_race(self, monkeypatch):
        """Under a whole-catalog pool the step never calls the race, and the
        hook gets every item in id order in every row."""
        catalog, graph, states = mixed_world(n=9, m=40, c=3, links=20, seed=4)
        pools = []

        class WholeHooks(StrategyHooks):
            candidate_count = 40

            def rerank(self, u, candidate_items, catalog, h):
                pools.append(np.array(candidate_items))
                return candidate_items[:, :h]

        def no_race(*args, **kwargs):
            raise AssertionError("the race ran for a whole-catalog pool")

        monkeypatch.setattr(dynamics, "sample_without_replacement", no_race)
        simulate_step(states, catalog, graph, ModelParams(h=5), 2, WholeHooks())
        assert pools
        for pool in pools:
            np.testing.assert_array_equal(pool, np.tile(np.arange(40), (len(pool), 1)))

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
        """Rows at fixed offsets of the step's stream make every draw
        independent of the blocking: a block constant worth 1, 2, 7 and n
        users gives bit-equal steps (a block holds two users or more unless
        n == 1). This holds for these small worlds (c <= 4); on larger
        multi-category catalogs a product in blocks of another shape can
        round a logit differently, so outputs are fixed only at the fixed
        ``BLOCK_ENTRIES``."""
        catalog, graph, states = mixed_world(n=n, m=m, c=c,
                                             links=min(n * (n - 1), 2 * n),
                                             seed=seed)
        params = ModelParams(alpha=alpha, h=min(5, m))
        saved = dynamics.BLOCK_ENTRIES
        outs = []
        try:
            for users in (1, 2, 7, n):
                dynamics.BLOCK_ENTRIES = users * row_width(catalog, params.h)
                outs.append(simulate_step(states, catalog, graph, params, seed))
        finally:
            dynamics.BLOCK_ENTRIES = saved
        (first_states, first), rest = outs[0], outs[1:]
        for new_states, log in rest:
            for name in ("slate_items", "signs", "p_pos", "padded"):
                np.testing.assert_array_equal(getattr(log, name),
                                              getattr(first, name))
            np.testing.assert_array_equal(new_states.user_matrix,
                                          first_states.user_matrix)


def log_arrays(log):
    return [log.slate_items, log.signs, log.p_pos, log.padded]


class TestStepScratch:
    """Steps taken in several user blocks, alone or by ``run``: no result
    depends on the blocks, and nothing a step returns or hands a hook is
    reused by the next."""

    M = 150

    def blocks_of(self, monkeypatch, catalog, users, pool=None):
        """Blocks of ``users`` users: four of 5 and a narrower last of 2."""
        monkeypatch.setattr(dynamics, "BLOCK_ENTRIES",
                            users * row_width(catalog, 6, pool))

    def world(self):
        return mixed_world(n=22, m=self.M, c=4, links=60, seed=5)

    @pytest.mark.parametrize("strategy", ["none", "dpp"])
    def test_run_matches_lone_steps(self, strategy, monkeypatch):
        catalog, graph, states = self.world()
        params = ModelParams(h=6)
        hooks = build_hooks(
            MitigationConfig(strategy=strategy, **STRATEGY_KNOBS[strategy]),
            params)
        self.blocks_of(monkeypatch, catalog, 5, hooks.candidate_count)
        traj = run(states, catalog, graph, params, 5, metric_schedule=[],
                   hooks=hooks, master_seed=8, keep_step_logs=True)
        for log in traj.step_logs:
            states, lone = simulate_step(states, catalog, graph, params, 8, hooks)
            for got, want in zip(log_arrays(log), log_arrays(lone)):
                np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(traj.final_states.user_matrix,
                                      states.user_matrix)

    def test_outputs_outlive_the_next_step(self, monkeypatch):
        """Step t's log, U(t+1) and the pools handed to ``rerank`` stay as
        they were when step t+1 runs."""
        catalog, graph, states = self.world()
        self.blocks_of(monkeypatch, catalog, 5, 10)
        params = ModelParams(h=6)
        pools = []

        class RecordingHooks(StrategyHooks):
            candidate_count = 10

            def rerank(self, u, candidate_items, catalog, h):
                pools.append(candidate_items)
                return candidate_items[:, :h]

        next_states, log = simulate_step(states, catalog, graph, params, 8,
                                         RecordingHooks())
        outputs = [next_states.user_matrix, *log_arrays(log), *pools]
        assert len(pools) == 5
        kept = [a.copy() for a in outputs]
        simulate_step(next_states, catalog, graph, params, 8, RecordingHooks())
        for before, after in zip(kept, outputs):
            np.testing.assert_array_equal(after, before)

    def test_race_gets_contiguous_disjoint_block_views(self, monkeypatch):
        """The step calls the module's ``sample_without_replacement`` once per
        block, the narrower last one included, with the block's (b, D)
        weights and its (b, S + K + h) rows of draws: C-contiguous arrays,
        none shared with another block."""
        catalog, graph, states = self.world()
        self.blocks_of(monkeypatch, catalog, 5)
        seen = []
        race_fn = dynamics.sample_without_replacement

        def spy(p, h, draws, groups=None):
            seen.append((p, draws))
            return race_fn(p, h, draws, groups)

        monkeypatch.setattr(dynamics, "sample_without_replacement", spy)
        simulate_step(states, catalog, graph, ModelParams(h=6), 8)
        D, width = catalog.groups.sizes.size, row_width(catalog, 6)
        assert [p.shape for p, _ in seen] == [(5, D)] * 4 + [(2, D)]
        assert [d.shape for _, d in seen] == [(5, width)] * 4 + [(2, width)]
        arrays = [a for pair in seen for a in pair]
        assert all(a.flags.c_contiguous for a in arrays)
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


class TestStressGrid:
    """Extreme parameters, 20 steps each, as ``run`` takes them."""

    @pytest.mark.parametrize("isolated", [False, True])
    def test_invariants_hold_at_every_step(self, isolated, monkeypatch):
        """U stays finite or a typed error is raised, slates hold distinct
        in-range items, p_pos lies in [0, 1], and ``padded`` equals a plain
        numpy count of positive probabilities below h. Single-category items
        make every score exact, and 12 categories of 40 items leave fewer
        than h items positive at a huge alpha, so padding is reached."""
        n, m, h = 12, 40, 5
        catalog, graph, states = tiny_world(n=n, m=m, c=12, links=24, seed=3)
        monkeypatch.setattr(dynamics, "BLOCK_ENTRIES",
                            5 * row_width(catalog, h))          # 5, 5, 2 users
        if isolated:
            graph = build_social_graph([], n)
        V = catalog.item_vectors
        padded_at_huge_alpha = 0
        for alpha, beta, epsilon, gamma in itertools.product(
                (0.0, 5.0, 3e4), (0.0, 20.0), (-1.0, 0.0, 1.0), (0.0, 1.0)):
            params = ModelParams(alpha=alpha, beta=beta, gamma=gamma,
                                 epsilon=epsilon, h=h)
            step_states = states
            for _ in range(20):
                U = step_states.user_matrix
                try:
                    step_states, log = simulate_step(step_states, catalog, graph,
                                                     params, 7)
                except RecloopError:
                    break
                assert np.isfinite(step_states.user_matrix).all()
                slates = log.slate_items
                assert ((0 <= slates) & (slates < m)).all()
                assert (np.diff(np.sort(slates, axis=1), axis=1) > 0).all()
                assert ((0 <= log.p_pos) & (log.p_pos <= 1)).all()
                logits = (V.T @ _social_matrix(U, graph, gamma)) * alpha
                e = np.exp(logits - logits.max(axis=0))
                probs = e / e.sum(axis=0)
                np.testing.assert_array_equal(log.padded,
                                              (probs > 0).sum(axis=0) < h)
                if alpha == 3e4:
                    padded_at_huge_alpha += int(log.padded.sum())
        assert padded_at_huge_alpha > 0


class TestUserStream:
    """Step t's draws are one stream; user i's row is the ``width`` numbers
    after the first i * width of it, so a block's rows are one call."""

    @settings(max_examples=80, deadline=None)
    @given(master=st.integers(0, 2**128 - 1), t=st.integers(0, 2**33),
           lo=st.integers(0, 200), size=st.integers(1, 40),
           width=st.integers(0, 60))
    @example(master=0, t=0, lo=0, size=1, width=1)
    @example(master=2**100, t=2**33, lo=200, size=40, width=60)
    def test_block_rows_are_user_rows(self, master, t, lo, size, width):
        splitter = StreamSplitter(master)
        block = splitter.user_stream(t, lo, width).random((size, width))
        whole = splitter.user_stream(t, 0, width).random((lo + size, width))
        np.testing.assert_array_equal(block, whole[lo:])
        for i, row in enumerate(block, start=lo):
            np.testing.assert_array_equal(
                row, splitter.user_stream(t, i, width).random(width))

    def test_is_seed_sequence_stream_advanced(self):
        """The PCG64 stream of SeedSequence((master, t)), advanced by i * width:
        a Python int, so the offset may pass 2**64."""
        splitter = StreamSplitter(5)
        far = splitter.user_stream(3, 2**40, 2**30).random(4)
        bits = np.random.PCG64(np.random.SeedSequence((5, 3)))
        bits.advance(2**70)
        np.testing.assert_array_equal(far, np.random.Generator(bits).random(4))

    @pytest.mark.parametrize("t, i, width", [(-1, 0, 3), (0, -1, 3), (0, 2, -3)])
    def test_negative_step_user_or_width_rejected(self, t, i, width):
        with pytest.raises(InvalidRequest, match=">= 0"):
            StreamSplitter(1).user_stream(t, i, width)


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
            _, log = simulate_step(states.copy(), catalog, graph, params, 77)
            out.append(log)
        np.testing.assert_array_equal(out[0].slate_items, out[1].slate_items)
        np.testing.assert_array_equal(out[0].signs, out[1].signs)
        np.testing.assert_array_equal(out[0].p_pos, out[1].p_pos)

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

    @pytest.mark.parametrize("bad", [-1, 20])
    def test_rerank_ids_outside_catalog_rejected(self, bad):
        """A slate id outside [0, m) from rerank is named, not read from the
        end of the catalog or raised as an untyped IndexError."""
        catalog, graph, states = tiny_world(m=20)

        class BadHooks(StrategyHooks):
            candidate_count = 8

            def rerank(self, u, candidate_items, catalog, h):
                items = candidate_items[:, :h].copy()
                items[-1, 2] = bad
                return items

        with pytest.raises(InvalidSlate, match=rf"slate id {bad} outside \[0, 20\)"):
            simulate_step(states, catalog, graph, ModelParams(h=5), 0, BadHooks())

    def test_candidate_pool_smaller_than_slate_rejected(self):
        """A hand-built re-rank hook whose pool is shorter than h would
        return repeated items that the shape check cannot see."""
        catalog, graph, states = tiny_world(m=20)
        with pytest.raises(InvalidRequest, match="candidate pool 5"):
            simulate_step(states, catalog, graph, ModelParams(h=10), 0,
                          DiversityRerankHooks(0.5, candidate_count=5))

    def test_negative_master_seed_rejected(self):
        with pytest.raises(InvalidRequest, match="master seed"):
            StreamSplitter(-1)

    def test_h_exceeding_catalog_rejected(self):
        catalog, graph, states = tiny_world(m=5)
        with pytest.raises(InvalidRequest):
            simulate_step(states, catalog, graph, ModelParams(h=10), 0)


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
                   metric_schedule=[1, 3], keep_step_logs=True, master_seed=2)
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
        """Streams keyed by (master, t) make a T-step run a strict prefix
        of a longer run with the same master seed."""
        catalog, graph, states = tiny_world()
        short = run(states, catalog, graph, ModelParams(h=5), 3, master_seed=9)
        long = run(states, catalog, graph, ModelParams(h=5), 6, master_seed=9)
        assert [r.rce for r in short.records] == \
            [r.rce for r in long.records[:3]]
