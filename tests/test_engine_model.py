"""The engine is the model the theory linearizes.

At h = 1 the expected next state of user i has a closed form,

    E[u_i'] = u_i + eta * sum_j P_ij (p_pos - p_neg)_ij v_j,

with P_i = softmax(alpha V^T s_i), s_i the gamma-blend of u_i with the mean
of its neighbors, and the clamped, renormalized feedback law of
(1 + v_j.u_i)^beta against (1 - v_j.u_i)^beta shifted by epsilon / 2. The
``exact_mean`` below writes that formula in plain numpy, one user at a time,
from the paper's definitions and not from the engine's functions. Check 1
holds the engine's one-step mean to it; check 2 holds the linearized theory
to it as the parameters shrink.
"""

from statistics import NormalDist

import numpy as np

from recloop import (
    ItemCatalog,
    ModelParams,
    UserStates,
    build_social_graph,
    linearized_expected_update,
    simulate_step,
)

C, COPIES = 4, 20_000
# Five users: a 3-cycle, a user trusting one of it and user 4, and user 4,
# isolated: the graph drops its self-pair.
EDGES = [(0, 1), (1, 2), (2, 0), (3, 0), (3, 4), (4, 4)]
N = 5


def small_world(seed=11):
    """A 20-item catalog mixing one-, two- and three-category items, and five
    unit users."""
    rng = np.random.default_rng(seed)
    sets = [tuple(rng.choice(C, size=int(k), replace=False))
            for k in rng.integers(1, 4, size=20)]
    U = rng.standard_normal((C, N))
    return ItemCatalog.from_category_sets(sets, C), U / np.linalg.norm(U, axis=0)


def exact_mean(U, V, params):
    """The closed-form E[U(t+1)] at h = 1, and the per-coordinate variance of
    one user's update, user by user."""
    a, b, g, e, eta = (params.alpha, params.beta, params.gamma,
                       params.epsilon, params.eta)
    mean, var = np.empty_like(U), np.empty_like(U)
    for i in range(U.shape[1]):
        u = U[:, i]
        trusted = [j for k, j in EDGES if k == i and j != i]
        s = g * u + (1 - g) * (U[:, trusted].mean(axis=1) if trusted else u)
        logits = a * (V.T @ s)
        P = np.exp(logits - logits.max())
        P /= P.sum()
        d = V.T @ u
        up, down = (1 + d) ** b, (1 - d) ** b
        pos = np.clip(up / (up + down) + e / 2, 0, 1)
        neg = np.clip(down / (up + down) - e / 2, 0, 1)
        drift = eta * (V * (P * (pos - neg) / (pos + neg))).sum(axis=1)
        mean[:, i] = u + drift
        var[:, i] = eta ** 2 * (V ** 2 * P).sum(axis=1) - drift ** 2
    return mean, var


# Each set moves a different part of the law: a mild bias, a strong bias with
# a negative leniency that clamps p_pos at 0, and a purely social blend.
PARAMS = [
    ModelParams(alpha=2.0, beta=3.0, gamma=0.3, epsilon=0.2, eta=0.1, h=1),
    ModelParams(alpha=5.0, beta=8.0, gamma=0.8, epsilon=-0.9, eta=0.1, h=1),
    ModelParams(alpha=1.0, beta=1.0, gamma=0.0, epsilon=0.5, eta=0.1, h=1),
]


def test_engine_mean_matches_exact_mean():
    """Check 1. One ``simulate_step`` over COPIES disjoint copies of the world
    gives COPIES independent draws of each user's next state. Their mean lies
    within a Bonferroni z-band (family-wise false alarm 1e-3 over every
    coordinate of every parameter set) of the exact mean."""
    catalog, U = small_world()
    big = np.tile(U, COPIES)                           # column r * N + i
    offsets = N * np.arange(COPIES)[:, None, None]
    graph = build_social_graph(
        (np.array(EDGES)[None] + offsets).reshape(-1, 2), N * COPIES)
    assert not catalog.all_single_category()
    assert graph.isolated.reshape(COPIES, N)[:, 4].all()
    z_max = NormalDist().inv_cdf(1 - 1e-3 / (2 * len(PARAMS) * U.size))
    for seed, params in enumerate(PARAMS):
        new, _ = simulate_step(UserStates(big), catalog, graph, params, seed)
        sample = new.user_matrix.reshape(C, COPIES, N).mean(axis=1)
        mean, var = exact_mean(U, catalog.item_vectors, params)
        z = (sample - mean) / np.sqrt(var / COPIES)
        assert np.abs(z).max() < z_max, (params, z)


def test_linearization_error_falls_as_the_cube_of_the_scale():
    """Check 2. With alpha, beta, epsilon and |u| all scaled by s, the update
    is O(s) and the terms the linearization drops are O(s^4), so the
    relative error of ``linearized_expected_update`` against the exact mean
    falls as s^3: its log-log slope approaches 3."""
    catalog, U = small_world()
    graph = build_social_graph(EDGES, N)
    base = dict(alpha=2.0, beta=3.0, epsilon=0.4)
    scales = [0.03, 0.01, 0.003, 0.001]
    errors = []
    for s in scales:
        params = ModelParams(**{k: s * v for k, v in base.items()},
                             gamma=0.3, eta=0.1, h=1)
        Us = s * U
        exact, _ = exact_mean(Us, catalog.item_vectors, params)
        linear = linearized_expected_update(Us, catalog, graph, params)
        errors.append(np.abs(exact - linear).max() / np.abs(exact - Us).max())
    slopes = np.diff(np.log(errors)) / np.diff(np.log(scales))
    np.testing.assert_allclose(slopes, 3.0, atol=0.1)
