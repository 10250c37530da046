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
``BLOCK_ENTRIES // m`` users, never all n at once; the race runs once per
block, over a (block, m) key matrix, and feedback and the update are array
work over the whole step. A block's scores, softmaxed in place, and its race
keys live in one flat scratch of 2 * m * block floats (about
2 * ``BLOCK_ENTRIES``, 8 MB, unless m is so large that a block's two or
three users exceed it), which ``run`` allocates once and every step reuses,
so a step does not fault fresh pages in for them. Randomness is
counter-split per (step, user): each user draws from the PCG64 stream of
``SeedSequence((master, t, i))``, and ``StreamSplitter.block_streams``
hashes the seeds of a whole block at once, bit for bit. Each user's stream
is drawn in the same order whatever the block (the race's exponentials,
the pad choice of a padded slate, then the feedback uniforms), so every
draw is independent of the blocking. Floating-point results need not be:
on a multi-category catalog a matrix product can round a row differently
in blocks of another shape, so outputs are a pure function of (config,
seeds) at the fixed ``BLOCK_ENTRIES`` and ``metrics.GRAM_ENTRIES``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .catalog import ItemCatalog, ModelParams, SocialGraph, UserStates, row_blocks
from .errors import InvalidRequest, NumericalError
from .metrics import MetricSettings, MetricsRecord, compute_metrics_record

FEEDBACK_DOT_CLAMP = 1.0 - 1e-9
BLOCK_ENTRIES = 1 << 19     # entries of one (m, block) array in simulate_step


class StreamSplitter:
    """Derives an independent random stream for every (step, user) pair.

    ``user_stream(t, i)`` defines the stream: a PCG64 generator seeded by
    ``SeedSequence((master, t, i))``, so per-user work can be reordered or
    parallelized without changing a single draw. ``block_streams`` builds
    the same generators for a block of users, hashing the block's seeds in
    one pass of uint32 array arithmetic instead of one ``SeedSequence`` each.
    """

    def __init__(self, master_seed: int):
        if master_seed < 0:
            raise InvalidRequest("master seed must be a non-negative integer")
        self.master_seed = int(master_seed)

    def user_stream(self, t: int, i: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=(self.master_seed, t, i))
        )

    def block_streams(self, t: int, lo: int, hi: int) -> list[np.random.Generator]:
        """``[self.user_stream(t, i) for i in range(lo, hi)]``, bit for bit."""
        if t < 0 or not 0 <= lo <= hi <= 1 << 32:
            raise InvalidRequest(f"no stream for step {t}, users {lo}..{hi - 1}: "
                                 "users lie in [0, 2**32), steps are >= 0")
        users = np.arange(lo, hi, dtype=np.uint32)
        prefix = _uint32_words(self.master_seed) + _uint32_words(t)
        entropy = [np.full(users.size, w, dtype=np.uint32) for w in prefix] + [users]
        return [np.random.Generator(np.random.PCG64(_SeedWords(words)))
                for words in _seed_state(entropy)]


# SeedSequence's constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_POOL_SIZE = 4


class _SeedWords(ISeedSequence):
    """Hands PCG64 the words that ``SeedSequence.generate_state`` would give."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _uint32_words(x: int) -> list[int]:
    """The 32-bit words of x, low first, as SeedSequence splits an int (0 is [0])."""
    return [x >> shift & 0xFFFFFFFF for shift in range(0, max(x.bit_length(), 1), 32)]


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix; each call moves the hash constant on one step."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _seed_state(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for many users.

    ``entropy`` lists the entropy's uint32 words, each an array over users;
    returns (users, 4) uint64. This is ``mix_entropy`` over a pool of 4,
    then ``generate_state``, in uint32 array arithmetic, which wraps as
    numpy's compiled code does.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[k] if k < len(entropy) else np.zeros_like(entropy[0]))
            for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(pool[k % _POOL_SIZE]) for k in range(2 * _POOL_SIZE)]
    return np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over axis 0: of a vector, or of each column of a matrix.

    Works in place: ``scores`` (float64) is overwritten by the probabilities
    and returned. Non-finite scores raise before anything is written.
    """
    if not np.isfinite(scores).all():
        raise NumericalError("non-finite recommendation scores")
    scores -= scores.max(axis=0, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=0, keepdims=True)
    return scores


def sample_without_replacement(p: np.ndarray, h: int, rng,
                               keys: np.ndarray | None = None) -> np.ndarray:
    """Draw h distinct indices with sequential draw-and-renormalize semantics.

    Implemented as an exponential race (Efraimidis and Spirakis 2006): item j
    gets key E_j / p_j and the h smallest keys win, which is distributionally
    identical to drawing one item at a time and renormalizing the remainder.
    If fewer than h items have positive probability, the shortfall is padded
    uniformly from the zero-probability items (callers can detect this case
    by counting positive entries).

    A 2-D ``p`` holds one distribution per row and ``rng`` is then a sequence
    of one generator per row. The race runs once over the whole (rows, m) key
    matrix, but row r of the (rows, h) result, and the draws it takes from
    ``rng[r]`` (m exponentials, then the pad choice of a padded row), are
    those of the 1-D call on ``p[r]``, which is the one-row case. ``keys``,
    if given, is a C-contiguous float64 array of p's shape that the race
    overwrites with its keys instead of allocating them; it must not overlap
    ``p``. The draws and the result do not depend on it.
    """
    p = np.asarray(p, dtype=float)
    m = p.shape[-1]
    if h > m:
        raise InvalidRequest(f"cannot draw {h} distinct items from {m}")
    if p.ndim == 1:
        return sample_without_replacement(
            p[None], h, [rng], None if keys is None else keys[None])[0]
    keys = np.empty(p.shape) if keys is None else keys
    for row, stream in zip(keys, rng):
        stream.standard_exponential(out=row)
    with np.errstate(divide="ignore", over="ignore"):   # inf keys: p 0 or tiny
        keys /= p
    idx = np.argpartition(keys, h - 1, axis=1)[:, :h]
    out = np.take_along_axis(idx, np.argsort(np.take_along_axis(keys, idx, axis=1),
                                             axis=1, kind="stable"), axis=1)
    # A row with fewer than h positive items has drawn one that is not
    # positive, so only such a row is counted.
    for r in np.flatnonzero(~(np.take_along_axis(p, idx, axis=1) > 0).all(axis=1)):
        positive = p[r] > 0
        winners = np.flatnonzero(positive)
        if winners.size < h:
            winners = winners[np.argsort(keys[r, winners], kind="stable")]
            pad = rng[r].choice(np.flatnonzero(~positive), size=h - winners.size,
                                replace=False)
            out[r] = np.concatenate([winners, pad])
    return out


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
    vectors and (b, K) sampled pools, and must return (b, h) slates (here the
    pool itself); ``update_weights`` once per step, on the (n, h) sign
    matrix, and must return weights of that shape (here the signs). Hooks
    draw no random numbers, keep no state between calls and are pure
    functions of their arguments.
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


def _block_scratch(n: int, m: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """``scratch`` if it holds the 2 * m * block floats of the largest user
    block of ``simulate_step`` (its scores, then its race keys), else a new
    flat float64 array of that size."""
    size = 2 * m * max(hi - lo for lo, hi in row_blocks(n, BLOCK_ENTRIES, m))
    if (scratch is None or scratch.size < size or scratch.dtype != np.float64
            or not scratch.flags.c_contiguous):
        return np.empty(size)
    return scratch


def simulate_step(states: UserStates, catalog: ItemCatalog, graph: SocialGraph,
                  params: ModelParams, master_seed: int,
                  hooks: StrategyHooks | None = None,
                  scratch: np.ndarray | None = None) -> tuple[UserStates, StepLog]:
    """Run one synchronous interaction round for every user.

    All slates and feedback are computed against U(t); U(t+1) is assembled
    only after every user is processed. Each user consumes exactly one
    (step, user) stream of ``StreamSplitter(master_seed)``, built with the
    rest of its block by ``block_streams``: the race's exponentials, the pad
    choice of a padded slate, then the h feedback uniforms. Each hook of
    ``hooks`` (default: the unmitigated ``StrategyHooks``) is called once
    per step, ``rerank`` once per user block. Returns U(t+1) and the step's
    ``StepLog``.

    Each block's (m, b) scores, softmaxed in place, and the race's (b, m)
    keys are C-contiguous views of one flat float64 ``scratch``, which
    ``run`` allocates once and passes to every step. Without one, or with
    one too small for the blocks, the step allocates its own. Nothing the
    step returns or hands a hook is a view of it, and its contents never
    change a result.
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

    sample_size = h
    if hooks.candidate_count is not None:
        sample_size = min(int(hooks.candidate_count), m)
        if sample_size < h:
            raise InvalidRequest(
                f"candidate pool {sample_size} smaller than list length {h}")

    slate_items = np.empty((n, h), dtype=np.int64)
    uniforms = np.empty((n, h))
    padded = np.empty(n, dtype=bool)

    scratch = _block_scratch(n, m, scratch)
    for lo, hi in row_blocks(n, BLOCK_ENTRIES, m):
        b = hi - lo
        scores = np.matmul(V.T, social[:, lo:hi], out=scratch[:m * b].reshape(m, b))
        scores *= alphas[None, lo:hi]
        probs = _softmax(scores)                                # (m, block)
        padded[lo:hi] = (probs > 0).sum(axis=0) < sample_size
        streams = splitter.block_streams(states.t, lo, hi)
        pools = sample_without_replacement(probs.T, sample_size, streams,
                                           scratch[m * b:2 * m * b].reshape(b, m))
        for stream, row in zip(streams, uniforms[lo:hi]):
            stream.random(out=row)
        items = np.asarray(hooks.rerank(U[:, lo:hi], pools, catalog, h),
                           dtype=np.int64)                  # draws nothing
        if items.shape != (b, h):
            raise InvalidRequest(f"rerank returned shape {items.shape} for users "
                                 f"{lo}..{hi - 1}, expected {(b, h)}")
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
    series are reported. One step scratch (see ``simulate_step``) is
    allocated for the run and reused by every step.
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
    scratch = _block_scratch(states.n, catalog.m)

    for t in range(T):
        new_states, log = simulate_step(states, catalog, graph, params,
                                        master_seed, hooks, scratch=scratch)
        padded += int(log.padded.sum())
        if t in schedule:
            records.append(compute_metrics_record(
                t, states, log.slate_items, catalog, graph, settings))
        if keep_step_logs:
            logs.append(log)
        states = new_states

    return Trajectory(records=records, final_states=states, step_logs=logs,
                      padded_slates=padded)
