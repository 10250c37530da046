"""One interaction round per user: recommend, collect biased feedback, update.

Each operation of the loop has one batched implementation here: the social
blend (``_social_matrix``), the softmax over the catalog (``_softmax``), the
sampling race (``sample_without_replacement``), the feedback law
(``_feedback_pair``) and the stacked update inside ``simulate_step``. A
step's draws are logged as arrays over users in ``StepLog``.

The engine is synchronous: every slate and every feedback draw in a step is
computed against the state snapshot at the start of the step, and the updated
matrix is written in a single pass afterwards. Users go through the softmax,
the sampling race and the re-rank hook in blocks of about
``BLOCK_ENTRIES // m`` users, so a step holds O(block * m) floats, never
O(n * m); feedback and the update are array work over the whole step.
Randomness is counter-split per (step, user) and each user's stream is drawn
in the same order whatever the block, so results are identical however the
users are blocked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .catalog import ItemCatalog, ModelParams, SocialGraph, UserStates
from .errors import InvalidRequest, NumericalError
from .metrics import MetricSettings, MetricsRecord, compute_metrics_record

FEEDBACK_DOT_CLAMP = 1.0 - 1e-9
BLOCK_ENTRIES = 1 << 19     # entries of one (m, block) array in simulate_step


class StreamSplitter:
    """Derives an independent random stream for every (step, user) pair.

    Built on seed-sequence hashing of (master, step, user), so per-user work
    can be reordered or parallelized without changing a single draw.
    """

    def __init__(self, master_seed: int):
        if master_seed < 0:
            raise InvalidRequest("master seed must be a non-negative integer")
        self.master_seed = int(master_seed)

    def user_stream(self, t: int, i: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=(self.master_seed, t, i))
        )


def _as_splitter(rng) -> StreamSplitter:
    if isinstance(rng, StreamSplitter):
        return rng
    return StreamSplitter(int(rng))


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over axis 0: of a vector, or of each column of a matrix."""
    if not np.isfinite(scores).all():
        raise NumericalError("non-finite recommendation scores")
    e = np.exp(scores - scores.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


def sample_without_replacement(p: np.ndarray, h: int, rng) -> np.ndarray:
    """Draw h distinct indices with sequential draw-and-renormalize semantics.

    Implemented as an exponential race: item j gets key E_j / p_j and the h
    smallest keys win, which is distributionally identical to drawing one
    item at a time and renormalizing the remainder. If fewer than h items
    have positive probability, the shortfall is padded uniformly from the
    zero-probability items (callers can detect this case by counting
    positive entries).

    A 2-D ``p`` holds one distribution per row and ``rng`` is then a
    sequence of one generator per row; row r of the (rows, h) result, and
    the draws it takes from ``rng[r]``, are those of the 1-D call on ``p[r]``.
    """
    p = np.asarray(p, dtype=float)
    m = p.shape[-1]
    if h > m:
        raise InvalidRequest(f"cannot draw {h} distinct items from {m}")
    if p.ndim == 2:
        return np.array([_race(row, h, g) for row, g in zip(p, rng)])
    return _race(p, h, rng)


def _race(p: np.ndarray, h: int, rng: np.random.Generator) -> np.ndarray:
    keys = rng.exponential(size=p.size)
    with np.errstate(divide="ignore"):
        keys = keys / p
    positive = p > 0
    n_pos = int(positive.sum())
    if n_pos >= h:
        idx = np.argpartition(keys, h - 1)[:h]
        return idx[np.argsort(keys[idx], kind="stable")]
    winners = np.flatnonzero(positive)
    winners = winners[np.argsort(keys[winners], kind="stable")]
    zeros = np.flatnonzero(~positive)
    pad = rng.choice(zeros, size=h - n_pos, replace=False)
    return np.concatenate([winners, pad])


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
    """Everything drawn during one step, as arrays over users.

    ``probabilities`` holds each user's softmax over the catalog as a column
    when the step was asked to record it, and is None otherwise.
    """

    t: int
    slate_items: np.ndarray        # (n, h) int
    signs: np.ndarray              # (n, h) int8
    p_pos: np.ndarray              # (n, h) float
    padded: np.ndarray             # (n,) bool, slates padded from zero-mass items
    probabilities: np.ndarray | None = None    # (m, n) float


class StrategyHooks:
    """Override points for mitigation strategies; the base class is a no-op.

    ``candidate_count`` widens the sampled pool (for re-ranking hooks);
    every other hook returns None to fall through to the default behavior.
    ``rerank`` is called once per user block, on the block's (c, b) user
    vectors and (b, K) sampled pools, and must return (b, h) slates;
    ``update_weights`` once per step, on the (n, h) sign matrix, and must
    return weights of that shape. Hooks draw no random numbers and must be
    pure given the state snapshot handed to ``begin_step``.
    """

    candidate_count: int | None = None

    def begin_step(self, user_matrix: np.ndarray, catalog: ItemCatalog,
                   graph: SocialGraph, params: ModelParams) -> None:
        pass

    def user_alphas(self, user_matrix: np.ndarray,
                    params: ModelParams) -> np.ndarray | None:
        return None

    def social_matrix(self, user_matrix: np.ndarray, graph: SocialGraph,
                      params: ModelParams) -> np.ndarray | None:
        return None

    def rerank(self, u: np.ndarray, candidate_items: np.ndarray,
               catalog: ItemCatalog, h: int) -> np.ndarray | None:
        return None

    def update_weights(self, signs: np.ndarray) -> np.ndarray:
        return signs.astype(np.float64)


def _social_matrix(user_matrix: np.ndarray, graph: SocialGraph,
                   gamma: float) -> np.ndarray:
    """Each column blends the user's vector with the mean of its neighbors'.

    The mean is a row of the influence matrix, so an isolated user's own
    vector stands in; at gamma 1 the graph is not read at all.
    """
    if gamma == 1.0:
        return user_matrix
    neighbor_means = (graph.influence_matrix @ user_matrix.T).T
    return gamma * user_matrix + (1.0 - gamma) * neighbor_means


def simulate_step(states: UserStates, catalog: ItemCatalog, graph: SocialGraph,
                  params: ModelParams, rng, hooks: StrategyHooks | None = None,
                  record_probabilities: bool = False) -> tuple[UserStates, StepLog]:
    """Run one synchronous interaction round for every user.

    All slates and feedback are computed against U(t); U(t+1) is assembled
    only after every user is processed. The provided ``rng`` is a master seed
    or StreamSplitter; each user consumes exactly one (step, user) stream:
    the race's exponentials, the pad choice of a padded slate, then the h
    feedback uniforms.
    """
    splitter = _as_splitter(rng)
    hooks = hooks if hooks is not None else StrategyHooks()
    U = states.user_matrix
    V = catalog.item_vectors
    n, m, h = U.shape[1], catalog.m, params.h
    if h > m:
        raise InvalidRequest(f"list length h={h} exceeds item count m={m}")

    hooks.begin_step(U, catalog, graph, params)

    alphas = hooks.user_alphas(U, params)
    if alphas is None:
        alphas = np.full(n, params.alpha)

    social = hooks.social_matrix(U, graph, params)
    if social is None:
        social = _social_matrix(U, graph, params.gamma)

    sample_size = h
    if hooks.candidate_count is not None:
        sample_size = min(int(hooks.candidate_count), m)
        if sample_size < h:
            raise InvalidRequest(
                f"candidate pool {sample_size} smaller than list length {h}")

    slate_items = np.empty((n, h), dtype=np.int64)
    uniforms = np.empty((n, h))
    padded = np.empty(n, dtype=bool)
    probabilities = np.empty((m, n)) if record_probabilities else None

    # Blocks of about BLOCK_ENTRIES // m users. None has a single user unless
    # n == 1: a one-column matmul (gemv) and column sum round differently, and
    # no user's probabilities may depend on the blocking.
    starts = range(0, max(n - 1, 1), max(2, BLOCK_ENTRIES // m))
    for lo, hi in zip(starts, [*starts[1:], n]):
        probs = _softmax((V.T @ social[:, lo:hi]) * alphas[None, lo:hi])   # (m, block)
        padded[lo:hi] = (probs > 0).sum(axis=0) < sample_size
        if probabilities is not None:
            probabilities[:, lo:hi] = probs
        streams = [splitter.user_stream(states.t, i) for i in range(lo, hi)]
        pools = sample_without_replacement(probs.T, sample_size, streams)
        for stream, row in zip(streams, uniforms[lo:hi]):
            stream.random(out=row)
        reranked = hooks.rerank(U[:, lo:hi], pools, catalog, h)   # draws nothing
        items = pools if reranked is None else np.asarray(reranked, dtype=np.int64)
        if items.shape != (hi - lo, h):
            raise InvalidRequest(f"rerank returned shape {items.shape} for users "
                                 f"{lo}..{hi - 1}, expected {(hi - lo, h)}")
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

    log = StepLog(t=states.t, slate_items=slate_items, signs=signs,
                  p_pos=p_pos, padded=padded, probabilities=probabilities)
    return UserStates(new_U, states.t + 1), log


@dataclass
class Trajectory:
    """Per-step metric records plus whatever logs/snapshots were retained."""

    records: list[MetricsRecord]
    final_states: UserStates
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)
    step_logs: list[StepLog] | None = None
    padded_slates: int = 0


def default_metric_schedule(T: int) -> list[int]:
    """Every step through T=1000, every 10th step beyond, final step always."""
    if T <= 1000:
        return list(range(T))
    steps = list(range(0, T, 10))
    if steps[-1] != T - 1:
        steps.append(T - 1)
    return steps


def run(initial_states: UserStates, catalog: ItemCatalog, graph: SocialGraph,
        params: ModelParams, T: int,
        metric_schedule: Iterable[int] | None = None,
        hooks: StrategyHooks | None = None,
        master_seed: int = 0,
        settings: MetricSettings | None = None,
        snapshot_steps: Iterable[int] = (),
        keep_step_logs: bool = False) -> Trajectory:
    """Apply ``simulate_step`` T times, evaluating metrics on schedule.

    Metrics at step t are computed from U(t) together with the slates drawn
    at step t (before the update is applied), matching how the per-step
    series are reported.
    """
    if T < 1:
        raise InvalidRequest(f"need T >= 1, got {T}")
    schedule = set(default_metric_schedule(T) if metric_schedule is None
                   else (int(s) for s in metric_schedule))
    snap_at = set(int(s) for s in snapshot_steps)
    if settings is None:
        settings = MetricSettings(ts_k=min(50, initial_states.n - 1))

    splitter = _as_splitter(master_seed)
    states = initial_states.copy()
    records: list[MetricsRecord] = []
    snapshots: dict[int, np.ndarray] = {}
    logs: list[StepLog] | None = [] if keep_step_logs else None
    padded = 0

    for t in range(T):
        if t in snap_at:
            snapshots[t] = states.user_matrix.copy()
        new_states, log = simulate_step(states, catalog, graph, params,
                                        splitter, hooks)
        padded += int(log.padded.sum())
        if t in schedule:
            records.append(compute_metrics_record(
                t, states, log.slate_items, catalog, graph, settings))
        if keep_step_logs:
            logs.append(log)
        states = new_states

    if T in snap_at:
        snapshots[T] = states.user_matrix.copy()
    return Trajectory(records=records, final_states=states,
                      snapshots=snapshots, step_logs=logs,
                      padded_slates=padded)
