"""One interaction round per user: recommend, collect biased feedback, update.

Each operation of the loop has one batched implementation here: the social
blend (``_social_matrix``), the sampling race (``sample_without_replacement``),
the feedback law (``_feedback_pair``) and the stacked update inside
``simulate_step``. A step's draws are logged as arrays over users in
``StepLog``.

The engine is synchronous: every slate and every feedback draw in a step is
computed against the state snapshot at the start of the step, and the updated
matrix is written in a single pass afterwards. Items with one category set
share one vector, so the recommendation softmax is a law over the catalog's
D groups of equal items (``ItemCatalog.groups``), largest group first: a
user scores the D group vectors, and the race draws each slate item's group
and then the item, uniformly within its group. Users go through the scores,
the race and the re-rank hook in blocks of about ``BLOCK_ENTRIES // w``
users, where w is the ``width`` of one user's row (below), plus m for a
whole-catalog pool; feedback and the update are array work over the whole
step.

Randomness is split per (step, user): step t draws from the one PCG64
stream of ``SeedSequence((master, t))``, and user i's row is the ``width``
numbers after the first i * width of it (``StreamSplitter.user_stream``), so
a block of users draws its rows in one call. For a pool of K items (h, or
the hooks' ``candidate_count``) drawn from groups of k_g items, the row
holds ``width`` = S + K + h numbers:

- S = sum_g min(K, k_g) slot uniforms, one per (group, order) slot, order
  by order and then by group (see ``sample_without_replacement``);
- K within-group uniforms, one per pick of the pool, in pick order;
- the h feedback uniforms, one per slate position.

A pool of the whole catalog (``candidate_count`` >= m) is the catalog in id
order, and its row holds the h feedback uniforms alone (``width`` = h). So
every draw is independent of the blocking and of the hooks, which draw
nothing, and a T-step run is a prefix of a longer one. Floating-point
results need not be independent of the blocking: on a multi-category
catalog a matrix product can round a row differently in blocks of another
shape, so outputs are a pure function of (config, seeds) at the fixed
``BLOCK_ENTRIES`` and ``metrics.GRAM_ENTRIES``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .catalog import (ItemCatalog, ItemGroups, ModelParams, SocialGraph, UserStates,
                      group_columns, row_blocks)
from .errors import InvalidRequest, NumericalError
from .metrics import (MetricSettings, MetricsRecord, check_slate_ids,
                      compute_metrics_record)

FEEDBACK_DOT_CLAMP = 1.0 - 1e-9
BLOCK_ENTRIES = 1 << 19     # entries of one (block, width) array in simulate_step


class StreamSplitter:
    """Derives the random stream of every (step, user) pair.

    Step t draws from one PCG64 generator, seeded by
    ``SeedSequence((master, t))``. ``user_stream(t, i, width)`` is that
    stream advanced past the rows of users 0 .. i - 1, ``width`` numbers
    each (``random()`` takes one 64-bit output per double), so a block of
    users draws its rows in one call and per-user work can be reordered or
    parallelized without changing a single draw. ``simulate_step`` draws one
    row of ``width`` uniforms per user (the row layout is in the module
    docstring).
    """

    def __init__(self, master_seed: int):
        if master_seed < 0:
            raise InvalidRequest("master seed must be a non-negative integer")
        self.master_seed = int(master_seed)

    def user_stream(self, t: int, i: int, width: int) -> np.random.Generator:
        # A negative advance would hand back another user's row.
        if min(t, i, width) < 0:
            raise InvalidRequest(f"no stream for step {t}, user {i}, width {width}: "
                                 "each must be >= 0")
        bits = np.random.PCG64(np.random.SeedSequence((self.master_seed, t)))
        bits.advance(i * width)
        return np.random.Generator(bits)


def sample_without_replacement(p: np.ndarray, h: int, draws,
                               groups: ItemGroups | None = None) -> np.ndarray:
    """Draw h distinct items with sequential draw-and-renormalize semantics.

    The race runs over groups of items that share one weight (Efraimidis and
    Spirakis 2006): group g of k_g items and weight w_g has the order
    statistics of k_g keys E / w_g, so by Renyi's representation (1953) its
    j-th smallest key is sum_{i <= j} E_{g,i} / ((k_g - i) w_g), one
    exponential E per (group, order) slot. Each group has min(h, k_g) slots,
    S in all. The h smallest keys win, which is drawing one item at a time
    and renormalizing the remainder. A group of weight 0 races with weight
    1, after every key of positive weight, so a row with fewer than h
    items of positive weight is padded uniformly from the rest. Within a
    group the items are uniform without replacement: a group's t-th pick
    is the floor(U (k_g - t))-th of its items not yet picked, in id order.

    ``p`` is one of two forms:

    - (b, D) weights in [0, 1] of the D groups of ``groups`` (see
      ``ItemGroups``), one row per user, and ``draws`` the (b, S + h) uniform
      numbers of the rows. Row r's draws are laid out as S slot uniforms,
      slot (g, j) at ``sum_{i < j} D_i + g`` where D_i counts the groups
      with more than i items (order j first, then group), then h
      within-group uniforms, one per pick in pick order. A slot's
      exponential is ``-log1p(-U)``.
    - (m,) item probabilities and ``draws`` a generator: the items of equal
      probability form the groups, and the row's S + h uniforms are drawn
      from the generator in one call.

    Returns (b, h) item ids, each row in pick order, or (h,) for the 1-D form.
    """
    one = groups is None
    if one:
        p = np.asarray(p, dtype=float)
        if h > p.size:
            raise InvalidRequest(f"cannot draw {h} distinct items from {p.size}")
        groups = group_columns(p[None])
        p = groups.vectors
        draws = draws.random(int(np.minimum(groups.sizes, h).sum()) + h)[None]
    sizes = groups.sizes
    b, D = p.shape
    # Slots of order j belong to groups 0 .. D_j - 1: the groups come largest first.
    per_order = D - np.searchsorted(sizes[::-1], np.arange(min(h, sizes[0])),
                                    side="right")
    ends = np.cumsum(per_order)
    S = int(ends[-1])
    slot_group = np.arange(S) - np.repeat(ends - per_order, per_order)
    slot_order = np.repeat(np.arange(per_order.size), per_order)
    sums = np.negative(draws[:, :S])
    np.log1p(sums, out=sums)                        # -E
    sums /= sizes[slot_group] - slot_order
    if S == per_order.size * D:                     # every group has every order
        np.cumsum(sums.reshape(b, -1, D), axis=1, out=sums.reshape(b, -1, D))
    else:                                           # the same sums, order by order
        for j in range(1, per_order.size):
            lo, d = ends[j - 1], per_order[j]
            sums[:, lo:lo + d] += sums[:, lo - per_order[j - 1]:lo - per_order[j - 1] + d]
    # 2**900 w / sum stays a normal number, so keys tie within a group only
    # where the sums tie; one factor on every weight leaves the race alone.
    weights = (p * 2.0 ** 900)[:, slot_group]
    with np.errstate(divide="ignore", invalid="ignore"):
        keys = weights / sums                       # -w / sum: ascending as the keys
    zero = weights == 0
    if zero.any():
        keys[zero] = -sums[zero]                    # weight 1, after every w > 0
    # The h smallest keys, ties by slot: a group's picks come in slot order.
    picks = np.sort(np.argpartition(keys, h - 1, axis=1)[:, :h], axis=1)
    picks = np.take_along_axis(picks, np.argsort(
        np.take_along_axis(keys, picks, axis=1), axis=1, kind="stable"), axis=1)
    group = slot_group[picks]                       # (b, h), in pick order
    # A group's pick from slot j has at most j earlier picks of the group;
    # it takes the floor(U (k - j))-th of the items they left, and reverse
    # insertion turns that into its position among all the group's items.
    # Positions are kept as member indices, members[starts[g] + position]:
    # "same group and at or past pick t's position" is then one unsigned
    # comparison of the difference.
    first, size = groups.starts[group], sizes[group]
    chosen = first + (draws[:, S:S + h] * (size - slot_order[picks])).astype(np.int64)
    past = (first + size - chosen).view(np.uint64)  # span from pick t to its group's end
    position = chosen.copy()
    for t in range(h - 2, -1, -1):
        later = position[:, t + 1:]
        later += (later - chosen[:, t:t + 1]).view(np.uint64) < past[:, t:t + 1]
    items = groups.members[position]
    return items[0] if one else items


def _feedback_pair(dots: np.ndarray, beta: float, epsilon: float,
                   clamp: bool = True) -> tuple[np.ndarray, np.ndarray]:
    # np.minimum/np.maximum, not np.clip: same values, and np.clip's Python
    # wrapper costs more than the arithmetic on the few dots of a small step.
    d = np.minimum(np.maximum(dots, -FEEDBACK_DOT_CLAMP), FEEDBACK_DOT_CLAMP)
    # p_pos = (1+d)^b / ((1+d)^b + (1-d)^b) computed as 1/(1+r) with
    # r = ((1-d)/(1+d))^b; the ratio form cannot produce inf/inf.
    with np.errstate(over="ignore"):
        r = ((1.0 - d) / (1.0 + d)) ** beta
    base = 1.0 / (1.0 + r)
    p_pos = base + epsilon / 2.0
    p_neg = (1.0 - base) - epsilon / 2.0
    if not clamp:
        return p_pos, p_neg
    p_pos = np.minimum(np.maximum(p_pos, 0.0), 1.0)
    p_neg = np.minimum(np.maximum(p_neg, 0.0), 1.0)
    total = p_pos + p_neg
    return p_pos / total, p_neg / total


@dataclass
class StepLog:
    """Everything drawn during one step, as arrays over users."""

    slate_items: np.ndarray        # (n, h) int
    signs: np.ndarray              # (n, h) int8
    p_pos: np.ndarray              # (n, h) float
    padded: np.ndarray             # (n,) bool, slates padded from zero-mass items


class StrategyHooks:
    """The unmitigated model; strategies override one hook each.

    Every hook returns its value; nothing falls through on None.
    ``candidate_count`` widens the sampled pool (for re-ranking hooks).
    ``user_alphas`` gives the (n,) temperatures, alpha for every user here;
    ``social_matrix`` the (c, n) blended users that score the catalog;
    ``rerank`` is called once per user block, on the block's (c, b) user
    vectors and (b, K) pools, and must return (b, h) slates (here the pool
    itself). A pool is in pick order, except a pool of the whole catalog
    (``candidate_count`` >= m), which is the catalog in id order, drawn from
    no race, in every row. ``update_weights`` is called once per step, on
    the (n, h) sign matrix, and must return weights of that shape (here the
    signs). Hooks draw no random numbers, keep no state between calls and
    are pure functions of their arguments.
    """

    candidate_count: int | None = None

    def user_alphas(self, user_matrix: np.ndarray,
                    params: ModelParams) -> np.ndarray:
        return np.full(user_matrix.shape[1], params.alpha)

    def social_matrix(self, user_matrix: np.ndarray, graph: SocialGraph,
                      params: ModelParams) -> np.ndarray:
        return _social_matrix(user_matrix, graph, params.gamma)

    def rerank(self, u: np.ndarray, candidate_items: np.ndarray,
               catalog: ItemCatalog, h: int) -> np.ndarray:
        return candidate_items

    def update_weights(self, signs: np.ndarray) -> np.ndarray:
        return signs.astype(np.float64)


def _social_matrix(user_matrix: np.ndarray, graph: SocialGraph, gamma: float,
                   influence: Callable | None = None) -> np.ndarray:
    """Each column blends the user's vector with the mean of its neighbors'.

    The mean is a row of the influence matrix, so an isolated user's own
    vector stands in. ``influence``, if given, is called for a reweighted
    influence matrix in place of the graph's. At gamma 1 neither the graph
    nor ``influence`` is read.
    """
    if gamma == 1.0:
        return user_matrix
    matrix = graph.influence_matrix if influence is None else influence()
    neighbor_means = (matrix @ user_matrix.T).T
    return gamma * user_matrix + (1.0 - gamma) * neighbor_means


def _group_weights(social: np.ndarray, alphas: np.ndarray,
                   vectors: np.ndarray) -> np.ndarray:
    """(b, D) weights exp(L - max L) of the logits L = alpha_i G^T s_i of b
    users' (c, b) blended vectors s over the (c, D) group vectors G: each
    row is the recommendation softmax over the groups, up to its sum.
    Non-finite scores raise NumericalError."""
    logits = np.matmul(social.T, vectors)
    logits *= alphas[:, None]
    if not np.isfinite(logits).all():
        raise NumericalError("non-finite recommendation scores")
    logits -= logits.max(axis=1, keepdims=True)
    return np.exp(logits, out=logits)


def simulate_step(states: UserStates, catalog: ItemCatalog, graph: SocialGraph,
                  params: ModelParams, master_seed: int,
                  hooks: StrategyHooks | None = None) -> tuple[UserStates, StepLog]:
    """Run one synchronous interaction round for every user.

    All slates and feedback are computed against U(t); U(t+1) is assembled
    only after every user is processed. Each hook of ``hooks`` (default: the
    unmitigated ``StrategyHooks``) is called once per step, ``rerank`` once
    per user block. Returns U(t+1) and the step's ``StepLog``.

    Users score the catalog's groups of equal items (``ItemCatalog.groups``):
    user i's logits are alpha_i G^T s_i over the D group vectors G, and its
    group weights exp(logit - max logit). Each user draws one row of its
    (step, user) stream of ``StreamSplitter(master_seed)``, and a block of
    users draws its rows in one call: the S + K uniforms
    with which ``sample_without_replacement`` draws its pool of K items
    (h, or the hooks' ``candidate_count``), then its h feedback uniforms. A
    pool of the whole catalog (``candidate_count`` >= m) is the catalog in
    id order and draws nothing, so such a row holds the h feedback uniforms
    only.
    """
    splitter = StreamSplitter(master_seed)
    hooks = hooks or StrategyHooks()
    U = states.user_matrix
    V = catalog.item_vectors
    n, m, h = U.shape[1], catalog.m, params.h
    if h > m:
        raise InvalidRequest(f"list length h={h} exceeds item count m={m}")

    alphas = hooks.user_alphas(U, params)
    social = hooks.social_matrix(U, graph, params)

    pool = h
    if hooks.candidate_count is not None:
        pool = min(int(hooks.candidate_count), m)
        if pool < h:
            raise InvalidRequest(
                f"candidate pool {pool} smaller than list length {h}")
    groups = catalog.groups
    whole = hooks.candidate_count is not None and pool == m
    race = 0 if whole else int(np.minimum(groups.sizes, pool).sum()) + pool
    width = race + h

    slate_items = np.empty((n, h), dtype=np.int64)
    uniforms = np.empty((n, h))
    padded = np.empty(n, dtype=bool)

    for lo, hi in row_blocks(n, BLOCK_ENTRIES, width + (m if whole else 0)):
        b = hi - lo
        weights = _group_weights(social[:, lo:hi], alphas[lo:hi], groups.vectors)
        padded[lo:hi] = (weights > 0) @ groups.sizes < pool
        draws = splitter.user_stream(states.t, lo, width).random((b, width))
        uniforms[lo:hi] = draws[:, race:]
        if whole:
            pools = np.broadcast_to(np.arange(m), (b, m))
        else:
            pools = sample_without_replacement(weights, pool, draws, groups)
        items = np.asarray(hooks.rerank(U[:, lo:hi], pools, catalog, h),
                           dtype=np.int64)                  # draws nothing
        if items.shape != (b, h):
            raise InvalidRequest(f"rerank returned shape {items.shape} for users "
                                 f"{lo}..{hi - 1}, expected {(b, h)}")
        check_slate_ids(items, m)
        slate_items[lo:hi] = items

    # Per user, the same gemv as V[:, items].T @ u and V[:, items] @ w.
    slate_vectors = V[:, slate_items].transpose(1, 0, 2)        # (n, c, h)
    dots = np.matmul(slate_vectors.transpose(0, 2, 1), U.T[:, :, None])[:, :, 0]
    p_pos, _ = _feedback_pair(dots, params.beta, params.epsilon)
    signs = np.where(uniforms < p_pos, 1, -1).astype(np.int8)
    weights = hooks.update_weights(signs)
    if weights.shape != signs.shape:      # e.g. a hook written for one user's (h,)
        raise InvalidRequest(f"update_weights returned shape {weights.shape}, "
                             f"expected {signs.shape}")
    moves = np.matmul(slate_vectors, weights[:, :, None])[:, :, 0]
    # In the memory order of U: the metrics round differently by layout.
    new_U = np.add(U, (params.eta / h) * moves.T, out=np.empty_like(U))

    log = StepLog(slate_items=slate_items, signs=signs, p_pos=p_pos,
                  padded=padded)
    return UserStates(new_U, states.t + 1), log


@dataclass
class Trajectory:
    """Per-step metric records plus the step logs, when they were retained."""

    records: list[MetricsRecord]
    final_states: UserStates
    step_logs: list[StepLog] | None = None
    padded_slates: int = 0


def metric_steps(T: int, every: int | None = None) -> list[int]:
    """Every ``every``-th step of T, the final step always included. Without
    ``every``: every step through T=1000, every 10th step beyond."""
    if every is None:
        every = 1 if T <= 1000 else 10
    if every < 1:
        raise InvalidRequest("metric_every must be >= 1")
    steps = list(range(0, T, every))
    if steps[-1] != T - 1:
        steps.append(T - 1)
    return steps


def run(initial_states: UserStates, catalog: ItemCatalog, graph: SocialGraph,
        params: ModelParams, T: int,
        metric_schedule: Iterable[int] | None = None,
        hooks: StrategyHooks | None = None,
        master_seed: int = 0,
        settings: MetricSettings | None = None,
        keep_step_logs: bool = False) -> Trajectory:
    """Apply ``simulate_step`` T times, evaluating metrics on schedule.

    Metrics at step t are computed from U(t) together with the slates drawn
    at step t (before the update is applied), matching how the per-step
    series are reported.
    """
    if T < 1:
        raise InvalidRequest(f"need T >= 1, got {T}")
    schedule = set(metric_steps(T) if metric_schedule is None
                   else (int(s) for s in metric_schedule))
    if settings is None:
        settings = MetricSettings(ts_k=min(50, initial_states.n - 1))

    states = initial_states.copy()
    records: list[MetricsRecord] = []
    logs: list[StepLog] | None = [] if keep_step_logs else None
    padded = 0

    for t in range(T):
        new_states, log = simulate_step(states, catalog, graph, params,
                                        master_seed, hooks)
        padded += int(log.padded.sum())
        if t in schedule:
            records.append(compute_metrics_record(
                t, states, log.slate_items, catalog, graph, settings))
        if keep_step_logs:
            logs.append(log)
        states = new_states

    return Trajectory(records=records, final_states=states, step_logs=logs,
                      padded_slates=padded)
