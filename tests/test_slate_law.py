"""The engine draws slates by the exact law of the model, at h > 1.

The model recommends h distinct items to a user by drawing one item at a
time from the softmax P over the catalog and renormalizing over the items
left, so an ordered slate (j_1, ..., j_h) has probability

    prod_r P_{j_r} / (1 - sum_{s < r} P_{j_s}).

When fewer than h items have positive probability (the softmax underflows
at a large alpha), the slate takes every positive item in that law and then
pads uniformly, in uniform order, from the items of probability 0. With
m <= 8 items every ordered slate can be enumerated. Summing over them gives
the exact mean and variance of the next state,

    E[u_i'] = u_i + (eta / h) sum_j pi_j (p_pos - p_neg)_ij v_j,

with pi_j the inclusion probability of item j. Everything here is computed
in plain numpy from the model's definitions, not from the engine's
functions. One ``simulate_step`` over R disjoint copies of a world gives R
independent slates and next states per user: their ordered-slate
frequencies are held to the law by a chi-square test, and their mean to the
exact mean by a Bonferroni z-band.
"""

import itertools
from statistics import NormalDist

import numpy as np
import scipy.stats

from recloop import (
    ItemCatalog,
    ModelParams,
    UserStates,
    build_social_graph,
    simulate_step,
)

COPIES = 20_000
ALPHA_FAMILY = 1e-3            # false alarm rate of the whole file


def world_shared_vectors():
    """Eight items in groups of 3, 2, 2 and 1 equal vectors; three users
    on a trust cycle, blended at gamma 0.5."""
    sets = [(0,), (1,), (0,), (2,), (1,), (0, 1), (0,), (0, 1)]
    U = np.array([[0.8, 0.1, -0.3], [0.2, 0.9, 0.5], [-0.5, 0.3, 0.7]])
    params = ModelParams(alpha=2.0, beta=2.0, gamma=0.5, epsilon=0.1, eta=0.1, h=3)
    return sets, 3, U / np.linalg.norm(U, axis=0), [(0, 1), (1, 2), (2, 0)], params


def world_underflow():
    """Seven single-category items; alpha = 1000 underflows the weights of
    every category a user does not lead in. User 0 leads in category 0 alone
    (2 items < h: padded), user 1 in none (all items equal), user 2 in
    categories 0 and 1 (5 items >= h)."""
    sets = [(0,), (1,), (2,), (0,), (1,), (2,), (1,)]
    U = np.array([[1.0, 1.0, 0.6], [0.0, 1.0, 0.599], [0.0, 1.0, -0.5]])
    params = ModelParams(alpha=1000.0, beta=1.0, gamma=1.0, epsilon=-0.2,
                         eta=0.1, h=4)
    return sets, 3, U / np.linalg.norm(U, axis=0), [], params


def item_matrix(sets, c):
    V = np.zeros((c, len(sets)))
    for j, cats in enumerate(sets):
        V[list(cats), j] = np.sqrt(1.0 / len(cats))
    return V


def softmax(U, V, edges, params):
    """(n, m) recommendation probabilities of each user."""
    P = []
    for i in range(U.shape[1]):
        trusted = [j for k, j in edges if k == i]
        mean = U[:, trusted].mean(axis=1) if trusted else U[:, i]
        s = params.gamma * U[:, i] + (1 - params.gamma) * mean
        logits = params.alpha * (V.T @ s)
        w = np.exp(logits - logits.max())
        P.append(w / w.sum())
    return np.array(P)


def slate_law(P, h):
    """{ordered slate: probability}: sequential draws over P, then a uniform
    pad once no positive item is left."""
    law = {}
    for slate in itertools.permutations(range(P.size), h):
        prob, left = 1.0, list(range(P.size))
        for j in slate:
            mass = P[left].sum()
            prob *= P[j] / mass if mass > 0 else 1.0 / len(left)
            left.remove(j)
        if prob > 0:
            law[slate] = prob
    return law


def feedback_drift(d, params):
    """E[sign] = p_pos - p_neg of the clamped, renormalized feedback law."""
    up, down = (1 + d) ** params.beta, (1 - d) ** params.beta
    pos = np.clip(up / (up + down) + params.epsilon / 2, 0, 1)
    neg = np.clip(down / (up + down) - params.epsilon / 2, 0, 1)
    return (pos - neg) / (pos + neg)


def next_state_moments(law, u, V, params):
    """Exact mean and per-coordinate variance of u' over the slate law."""
    g = feedback_drift(V.T @ u, params)
    step = params.eta / params.h
    mean, second = np.zeros_like(u), np.zeros_like(u)
    for slate, prob in law.items():
        items = list(slate)
        given = u + step * (V[:, items] @ g[items])
        spread = step ** 2 * ((1 - g[items] ** 2) * V[:, items] ** 2).sum(axis=1)
        mean += prob * given
        second += prob * (spread + given ** 2)
    return mean, second - mean ** 2


def run_copies(sets, c, U, edges, params):
    """One step over COPIES disjoint copies: (COPIES, n, h) slates, (c,
    COPIES, n) next states and (COPIES, n) padded flags."""
    n = U.shape[1]
    offsets = n * np.arange(COPIES)[:, None, None]
    pairs = (np.array(edges, dtype=np.int64).reshape(-1, 2)[None] + offsets)
    graph = build_social_graph(pairs.reshape(-1, 2), n * COPIES)
    catalog = ItemCatalog.from_category_sets(sets, c)
    new, log = simulate_step(UserStates(np.tile(U, COPIES)), catalog, graph,
                             params, 17)
    return (log.slate_items.reshape(COPIES, n, params.h),
            new.user_matrix.reshape(c, COPIES, n), log.padded.reshape(COPIES, n))


def chi_square_p(law, slates, m):
    """p-value of the slates' frequencies against the law; cells expected
    below 5 are pooled. A slate outside the law's support fails at once."""
    radix = m ** np.arange(slates.shape[1] - 1, -1, -1)
    codes, counts = np.unique(slates @ radix, return_counts=True)
    observed = dict(zip(codes.tolist(), counts.tolist()))
    support = {int(np.dot(s, radix)): p for s, p in law.items()}
    stray = sorted(set(observed) - set(support))
    assert not stray, f"slates the law gives probability 0: {stray[:5]}"
    expected = np.array(list(support.values())) * len(slates)
    seen = np.array([observed.get(code, 0) for code in support])
    small = expected < 5
    exp_cells = np.append(expected[~small], expected[small].sum())
    obs_cells = np.append(seen[~small], seen[small].sum())
    keep = exp_cells > 0
    stat = float(((obs_cells - exp_cells)[keep] ** 2 / exp_cells[keep]).sum())
    return float(scipy.stats.chi2.sf(stat, keep.sum() - 1))


def test_engine_draws_the_exact_slate_law():
    worlds = [world_shared_vectors(), world_underflow()]
    tests = sum(w[2].shape[1] for w in worlds)
    z_max = NormalDist().inv_cdf(1 - ALPHA_FAMILY / (4 * sum(
        w[2].size for w in worlds)))
    for sets, c, U, edges, params in worlds:
        V = item_matrix(sets, c)
        P = softmax(U, V, edges, params)
        slates, states, padded = run_copies(sets, c, U, edges, params)
        np.testing.assert_array_equal(
            padded, np.broadcast_to((P > 0).sum(axis=1) < params.h, padded.shape))
        for i in range(U.shape[1]):
            law = slate_law(P[i], params.h)
            p = chi_square_p(law, slates[:, i], len(sets))
            assert p > ALPHA_FAMILY / (2 * tests), (sets, i, p)
            mean, var = next_state_moments(law, U[:, i], V, params)
            sample = states[:, :, i].mean(axis=1)
            moving = var > 1e-20                  # the rest is rounding of 0
            z = (sample - mean)[moving] / np.sqrt(var[moving] / COPIES)
            assert np.abs(z).max(initial=0.0) < z_max, (sets, i, z)
            np.testing.assert_allclose(sample[~moving], mean[~moving], atol=1e-12)
