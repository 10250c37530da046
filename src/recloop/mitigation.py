"""Four mitigation strategies, exposed as composable hooks on the engine.

Each strategy targets one override point: UA-alpha replaces the per-user
softmax temperature, FUA reweights the feedback update, DPP re-ranks an
oversampled candidate pool for diversity, and SAR reweights the neighbor
aggregation toward broad-interest users. Exactly one strategy is active per
run; combining them is out of scope.

Each hook works on a whole block of users or a whole step: the DPP re-rank
runs its greedy selection for every user of a block at once, one (b, S)
score matrix per pick over each pool's S = min(K, D) slots, one per group
of equal items; a one-user call of the hook is the one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .catalog import ItemCatalog, ModelParams, SocialGraph
from .dynamics import StrategyHooks, _social_matrix
from .errors import InvalidRequest
from .metrics import dispersions

STRATEGIES = ("none", "ua_alpha", "fua", "dpp", "sar")
DISPERSION_FLOOR = 1e-12


@dataclass(frozen=True)
class MitigationConfig:
    """Strategy selection and its intensity knobs.

    Defaults follow the reference configuration (sigma=10, rho=0.02,
    theta=0.501, omega=1000). ``sar_strict_denominator`` reproduces the
    printed aggregation rule that divides by sum(w) * |N_i|; the default is
    the normalized weighted mean, which recovers the plain neighbor mean at
    omega=0. UA-alpha shares one temperature budget alpha0 among all users;
    at sigma=10 that budget concentrates on the lowest-dispersion users (see
    ``adaptive_alpha``).
    """

    strategy: str = "none"
    sigma: float = 10.0
    rho: float = 0.02
    theta: float = 0.501
    omega: float = 1000.0
    candidate_count: int = 1000
    sar_strict_denominator: bool = False

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise InvalidRequest(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if self.candidate_count < 1:
            raise InvalidRequest("candidate_count must be >= 1")


def adaptive_alpha(dispersion_values: np.ndarray, sigma: float,
                   alpha0: float) -> np.ndarray:
    """Per-user temperatures alpha_i = phi_i / sum(phi) * alpha0, phi = (1/dis)^sigma.

    Computed in log space so sigma around 10 cannot overflow; zero
    dispersions are floored at 1e-12 before the power.

    At sigma=10 the power concentrates the budget on the few lowest-dispersion
    users: on the desk-scale synthetic worlds (n=100) 88-98% of users start
    with alpha_i < 0.01 * alpha0, which switches personalization off for
    them.
    """
    dis = np.maximum(np.asarray(dispersion_values, dtype=float), DISPERSION_FLOOR)
    log_phi = -sigma * np.log(dis)
    log_phi -= log_phi.max()
    w = np.exp(log_phi)
    return (w / w.sum()) * alpha0


def _greedy_select(users: np.ndarray, pools: np.ndarray, catalog: ItemCatalog,
                   theta: float, h: int) -> np.ndarray:
    """Greedy diversity-penalized selection of h items from each row's pool.

    users (b, c), pools (b, K) of distinct ids. The first pick maximizes
    relevance u.v; each later pick maximizes (1-theta) u.v - theta
    v.(normalized sum of chosen vectors). Ties break toward the lowest id.

    Items of one vector score alike, so the greedy runs over slots: one per
    group of equal items (``ItemCatalog.groups``) in the row's pool, in the
    catalog's group order, then dead slots up to S = min(K, D). A slot holds
    its group's vector and its next id, the group's lowest pool id not yet
    picked, or m once the group is used up (always, for a dead slot). Each
    pick takes the slot of highest score, equal scores by lowest next id,
    and advances it; a slot at m scores -inf. Stacked matmuls make per row
    the gemv (relevance, penalty) of a one-row call over its C-ordered
    (S, c) slot matrix and the ddot (chosen-sum norm), so no row depends on
    the others: BLAS rounds a gemv's row by its position and the matrix
    height. A pool of all m items is every group in every row: its slots
    are laid out once, from the catalog's members, and copied to each row.
    """
    b, K = pools.shape
    groups, m = catalog.groups, catalog.m
    # Each pool by group, then id; a whole-catalog pool is the catalog's
    # members in that order, one row for all.
    if K == m:
        key = (groups.index[groups.members] * m + groups.members)[None]
    else:
        key = np.sort(groups.index[pools] * m + pools, axis=1)
    R, key = len(key), key.ravel()
    group = key // m
    new = np.ones(key.size, dtype=bool)        # where a row's next group starts
    new[1:] = group[1:] != group[:-1]
    new[::K] = True
    slot = np.cumsum(new) - 1                  # each entry's slot, over all rows
    first = np.flatnonzero(new)                # each slot's first entry
    ids = np.full(key.size + first.size, m)    # each slot's ids, then m
    ids[np.arange(key.size) + slot] = key % m
    r = first // K
    col = slot[first] - slot[r * K]            # the slot's place in its row
    # Each slot's next id, as a place in ids; a dead slot's is the last m.
    at = np.full((R, min(K, groups.sizes.size)), ids.size - 1)
    at[r, col] = first + slot[first]
    slot_group = np.zeros_like(at)
    slot_group[r, col] = group[first]
    at = np.broadcast_to(at, (b, at.shape[1])).copy()
    vecs = np.ascontiguousarray(groups.vectors.T)[
        np.broadcast_to(slot_group, at.shape)]                       # (b, S, c)
    # A slot ranks by (score, -next id), its score -inf once its next id is
    # m: a complex argmax compares the two in turn.
    tie = np.zeros(ids.size, dtype=complex)
    tie.imag = -ids
    tie.real[ids == m] = -np.inf
    relevance = np.matmul(vecs, users[:, :, None])[:, :, 0]
    scaled = (1.0 - theta) * relevance
    cells, flat_at = np.arange(b) * at.shape[1], at.ravel()
    flat_vecs = vecs.reshape(-1, vecs.shape[2])
    picks = np.empty((b, h), dtype=np.int64)
    chosen_sum = np.zeros_like(users)
    for j in range(h):
        rank = tie.take(at)
        if j:
            norm = np.sqrt(np.matmul(chosen_sum[:, None, :], chosen_sum[:, :, None]))
            penalty = np.matmul(vecs, (chosen_sum / norm[:, 0])[:, :, None])[:, :, 0]
            rank.real += scaled - theta * penalty
        else:
            rank.real += relevance
        cell = cells + rank.argmax(axis=1)
        picks[:, j] = flat_at[cell]
        flat_at[cell] += 1
        chosen_sum += flat_vecs.take(cell, axis=0)
    return ids.take(picks)


class AdaptiveAlphaHooks(StrategyHooks):
    """Redistribute the temperature budget toward broad-interest users."""

    def __init__(self, sigma: float):
        self.sigma = sigma

    def user_alphas(self, user_matrix, params):
        return adaptive_alpha(dispersions(user_matrix), self.sigma, params.alpha)


class FeedbackAdjustmentHooks(StrategyHooks):
    """Shift update weights to emphasize negative feedback."""

    def __init__(self, rho: float):
        self.rho = rho

    def update_weights(self, signs):
        return np.where(signs > 0, 1.0 - self.rho, -1.0 - self.rho)


class DiversityRerankHooks(StrategyHooks):
    """Oversample a candidate pool and greedily re-rank it for diversity.

    Relevance is scored against the l2-normalized user vector so the
    diversity penalty stays commensurate as raw norms grow. ``rerank`` takes
    a block's (c, b) users and (b, K) pools and returns (b, h) slates; one
    user's (c,) vector and (K,) pool give one (h,) slate. Items of equal
    vector (one group of ``ItemCatalog.groups``) tie exactly, so a slate
    takes each group's items in increasing id order.
    """

    def __init__(self, theta: float, candidate_count: int = 1000):
        self.theta = theta
        self.candidate_count = candidate_count

    def rerank(self, u, candidate_items, catalog, h):
        one = np.ndim(u) == 1                  # one user: (c,) and (K,)
        users = np.ascontiguousarray(np.atleast_2d(np.transpose(u)), dtype=float)
        pools = np.atleast_2d(candidate_items)
        # The ddot of np.linalg.norm, one per contiguous user row.
        norm = np.sqrt(np.matmul(users[:, None, :], users[:, :, None]))[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            users = np.where(norm > 0, users / norm, users)
        picks = _greedy_select(users, pools, catalog, self.theta, h)
        return picks[0] if one else picks


class SocialReweightHooks(StrategyHooks):
    """Downweight extreme-interest neighbors during social aggregation."""

    def __init__(self, omega: float, strict_denominator: bool = False):
        self.omega = omega
        self.strict_denominator = strict_denominator

    def social_matrix(self, user_matrix, graph, params):
        return _social_matrix(user_matrix, graph, params.gamma, lambda: (
            _reweighted_influence(graph, dispersions(user_matrix), self.omega,
                                  self.strict_denominator)))


def _reweighted_influence(graph: SocialGraph, dis: np.ndarray, omega: float,
                          strict_denominator: bool) -> sp.csr_matrix:
    """The influence matrix with each neighbor weighted by exp(-omega * dis).

    Rows of one out-degree L form a (rows, L) block whose sums run along its
    contiguous last axis, pairwise per row as a one-row sum would. A strict
    row whose weights all underflow to 0 is shifted by its maximum first, as
    the default rule always is. Isolated users keep their self-loop.
    """
    base = graph.influence_matrix
    indptr, indices = base.indptr, base.indices
    data = np.ones_like(base.data)
    degree = np.diff(indptr)
    for length in np.unique(degree[~graph.isolated]).tolist():
        rows = np.flatnonzero((degree == length) & ~graph.isolated)
        at = indptr[rows, None] + np.arange(length)            # (rows, L)
        log_w = -omega * dis[indices[at]]
        if strict_denominator:
            w = np.exp(log_w)
            under = w.sum(axis=1) == 0
            w[under] = np.exp(log_w[under] - log_w[under].max(axis=1, keepdims=True))
            data[at] = w / (w.sum(axis=1) * length)[:, None]
        else:
            w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
            data[at] = w / w.sum(axis=1)[:, None]
    return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=base.shape)


def build_hooks(config: MitigationConfig, params: ModelParams) -> StrategyHooks:
    """Instantiate the hook set for the configured strategy."""
    if config.strategy == "none":
        return StrategyHooks()
    if config.strategy == "ua_alpha":
        return AdaptiveAlphaHooks(config.sigma)
    if config.strategy == "fua":
        return FeedbackAdjustmentHooks(config.rho)
    if config.strategy == "dpp":
        if config.candidate_count < params.h:
            raise InvalidRequest("candidate_count must be at least h")
        return DiversityRerankHooks(config.theta, config.candidate_count)
    if config.strategy == "sar":
        return SocialReweightHooks(config.omega, config.sar_strict_denominator)
    raise InvalidRequest(f"unknown strategy {config.strategy!r}")
