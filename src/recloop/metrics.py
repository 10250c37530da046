"""Echo-chamber and homogenization metrics over state snapshots.

All five metrics read the l2-normalized view of the user matrix; the raw
(unnormalized) state is never mutated. Slates enter as an (n, h) integer
matrix of item indices.

The O(n^2) kernels (exact PDV, TS@k and sampled PDV) split their rows, Gram
blocks or pair blocks into one contiguous range per CPU this process may use
(``parallel.run_split``), each range on its own thread with scratch the
caller allocates. Each range writes only its own slice of one output buffer,
and every row, Gram block and pair keeps the shapes and memory layout of the
single-threaded loop, so every value is bit for bit what one thread computes,
whatever the number of CPUs. Small worlds run on the calling thread: exact
PDV below ``SPLIT_ENTRIES`` entries of the (c, n) matrix, and TS@k or sampled
PDV with a single block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import parallel
from .catalog import ItemCatalog, SocialGraph, UserStates, normalize_columns, row_blocks
from .errors import InvalidRequest, InvalidSlate, NoEdges, NumericalError

PDV_EXACT_LIMIT = 5000
PDV_DEFAULT_PAIRS = 2_000_000
PDV_DEFAULT_SEED = 1729
PDV_MODES = ("auto", "exact", "sampled")
GRAM_ENTRIES = 1 << 22     # entries of one (rows, n) Gram block in ts_at_k
PAIR_ENTRIES = 1 << 22     # entries of one (c, pairs) block of sampled PDV
SPLIT_ENTRIES = 1 << 16    # exact PDV splits its rows from c * n entries on;
                           # narrower rows wait longer for the GIL than they compute


def _as_matrix(states) -> np.ndarray:
    if isinstance(states, UserStates):
        return states.user_matrix
    return np.asarray(states, dtype=float)


def _entropy_from_counts(counts: np.ndarray) -> np.ndarray:
    totals = counts.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / totals
        terms = np.where(p > 0, p * np.log(p), 0.0)
    return -terms.sum(axis=1)


def rce(slate_matrix: np.ndarray, catalog: ItemCatalog) -> float:
    """Mean category entropy of all users' slates, with 0*ln(0) := 0.

    A k-category item contributes 1/k mass to each of its categories (the
    squared coordinate of its vector), so a slate's shares always total its
    length and single-category slates reduce to integer counting. One slate
    is the one-row matrix ``slate[None]``.
    """
    slates = np.asarray(slate_matrix, dtype=int)
    if slates.ndim != 2 or slates.shape[1] == 0:
        raise InvalidSlate("expected an (n, h) slate matrix with h >= 1")
    v2 = catalog.item_vectors ** 2
    counts = v2[:, slates].sum(axis=2).T          # (n, c)
    return float(_entropy_from_counts(counts).mean())


def ra_with_diagnostics(states, slate_matrix: np.ndarray, catalog: ItemCatalog,
                        threshold: float = 0.7) -> tuple[float, int]:
    """Fraction of (user, item) pairs whose normalized-user/item score exceeds
    the threshold, and the count of zero-norm users excluded from it."""
    matrix = _as_matrix(states)
    slates = np.asarray(slate_matrix, dtype=int)
    norms = np.linalg.norm(matrix, axis=0)
    keep = norms > 0
    excluded = int((~keep).sum())
    if not keep.any():
        return 0.0, excluded
    un = normalize_columns(matrix)[:, keep]
    vecs = catalog.item_vectors[:, slates[keep]]   # (c, n_keep, h)
    dots = np.einsum("cn,cnh->nh", un, vecs)
    return float((dots > threshold).mean()), excluded


def nd(states, graph: SocialGraph) -> float:
    """Mean Euclidean distance between normalized endpoints of every stored edge."""
    if graph.num_edges == 0:
        raise NoEdges("neighbor distance requires at least one social edge")
    un = normalize_columns(_as_matrix(states))
    src = graph.edge_array[:, 0]
    dst = graph.edge_array[:, 1]
    return float(np.linalg.norm(un[:, src] - un[:, dst], axis=0).mean())


def _pairwise_distances_exact(un: np.ndarray) -> np.ndarray:
    """All i<j distances in lexicographic pair order, matching a nested loop,
    written row by row into one buffer; from ``SPLIT_ENTRIES`` entries of un
    on, the rows are split over the CPUs. Each row's (c, n-1-i) differences
    stay C-ordered, so its columns are summed sequentially, as in a
    single-threaded loop."""
    c, n = un.shape
    out = np.empty(n * (n - 1) // 2)
    starts = [i * (2 * n - i - 1) // 2 for i in range(n)]   # pairs of the rows before i

    def pair_rows(a, b, buf):
        for i in range(a, b):
            k = n - 1 - i
            diffs = np.subtract(un[:, i + 1:], un[:, i:i + 1], out=buf[:c * k].reshape(c, k))
            np.add.reduce(np.square(diffs, out=diffs), axis=0, out=out[starts[i]:starts[i + 1]])
        done = out[starts[a]:starts[b]]
        np.sqrt(done, out=done)

    workers = parallel.usable_cpus() if un.size >= SPLIT_ENTRIES else 1
    parallel.run_split(pair_rows, starts, workers, lambda: np.empty(c * (n - 1)))
    return out


def _variance_in_place(d: np.ndarray) -> float:
    """``np.var(d)`` of a 1-D array, bit for bit, overwriting ``d``."""
    d -= d.sum(keepdims=True) / d.size
    return float(np.square(d, out=d).sum() / d.size)


def pdv_with_mode(states, mode: str = "auto", pairs: int = PDV_DEFAULT_PAIRS,
                  seed: int = PDV_DEFAULT_SEED) -> tuple[float, str, int | None]:
    """Population variance of pairwise normalized distances.

    Exact over all n(n-1)/2 pairs up to n=5000 (or on request); beyond that a
    uniform pair sample with a fixed seed estimates it, in blocks of about
    ``PAIR_ENTRIES // workers`` coordinates, so the blocks in flight on all
    workers together hold about ``PAIR_ENTRIES``. Returns the value, the mode
    actually used, and the number of sampled pairs (None when exact).
    """
    matrix = _as_matrix(states)
    n = matrix.shape[1]
    if n < 2:
        raise InvalidRequest("pairwise distance variance needs n >= 2 users")
    if mode not in PDV_MODES:
        raise InvalidRequest(f"unknown pdv mode {mode!r}")
    if mode == "auto":
        mode = "exact" if n <= PDV_EXACT_LIMIT else "sampled"
    if mode == "exact":
        dists = _pairwise_distances_exact(normalize_columns(matrix))
        return _variance_in_place(dists), "exact", None
    c = matrix.shape[0]
    users = normalize_columns(matrix, out=np.empty((n, c)).T).T    # (n, c), C-ordered
    rng = np.random.default_rng(seed)
    ii = rng.integers(0, n, size=pairs)
    jj = rng.integers(0, n - 1, size=pairs)
    jj = jj + (jj >= ii)
    dists = np.empty(pairs)
    workers = parallel.usable_cpus()
    blocks = row_blocks(pairs, PAIR_ENTRIES // workers, c)
    width = max(hi - lo for lo, hi in blocks)

    # A block is gathered as (pairs, c) rows, the transpose of an F-ordered
    # (c, pairs) block, so every pair's squares are summed in the order
    # np.linalg.norm sums them, whatever the block. Every index is in range;
    # mode="clip" lets np.take write into the buffer without a temporary.
    def pair_blocks(a, b, bufs):
        for lo, hi in blocks[a:b]:
            diffs = np.take(users, ii[lo:hi], axis=0, out=bufs[0][:hi - lo], mode="clip")
            diffs -= np.take(users, jj[lo:hi], axis=0, out=bufs[1][:hi - lo], mode="clip")
            np.add.reduce(np.square(diffs, out=diffs).T, axis=0, out=dists[lo:hi])

    parallel.run_split(pair_blocks, range(len(blocks) + 1), workers,
                       lambda: np.empty((2, width, c)))
    return _variance_in_place(np.sqrt(dists, out=dists)), "sampled", int(pairs)


def ts_at_k(states, k: int) -> float:
    """Mean inner product between each user and its k most similar users.

    Similarity is the inner product of normalized vectors; self-similarity is
    excluded (otherwise every user would contribute a constant 1/k term). The
    Gram matrix is formed in blocks of about ``GRAM_ENTRIES`` entries, one
    contiguous range of blocks per worker thread. The blocks do not depend on
    the worker count: BLAS rounds the edge tiles of a product by its shape (at
    n = 2,100 some entries of 998-row blocks differ in the last bit from those
    of 1,997-row blocks), and numpy forms a whole-matrix block as a symmetric
    rank-k update.
    """
    matrix = _as_matrix(states)
    n = matrix.shape[1]
    if k < 1 or k >= n:
        raise InvalidRequest(f"need 1 <= k <= n-1, got k={k}, n={n}")
    un = normalize_columns(matrix)
    per_user = np.empty(n)
    blocks = row_blocks(n, GRAM_ENTRIES, n)
    width = max(hi - lo for lo, hi in blocks)

    def gram_blocks(a, b, buf):
        for lo, hi in blocks[a:b]:
            gram = np.matmul(un[:, lo:hi].T, un, out=buf[:hi - lo])   # (hi - lo, n)
            gram[np.arange(hi - lo), np.arange(lo, hi)] = -np.inf
            gram.partition(n - k, axis=1)
            gram[:, n - k:].sort(axis=1)           # fixed summation order
            per_user[lo:hi] = gram[:, n - k:].mean(axis=1)

    parallel.run_split(gram_blocks, range(len(blocks) + 1), parallel.usable_cpus(),
                       lambda: np.empty((width, n)))
    return float(per_user.mean())


def dispersions(matrix: np.ndarray) -> np.ndarray:
    """Column-wise dispersion of a (c, n) matrix, normalized on read."""
    un = normalize_columns(np.asarray(matrix, dtype=float))
    return ((un - un.mean(axis=0, keepdims=True)) ** 2).sum(axis=0)


@dataclass(frozen=True)
class MetricSettings:
    """Evaluation knobs shared by every metric record of a run."""

    ts_k: int
    ra_threshold: float = 0.7
    pdv_mode: str = "auto"


@dataclass(frozen=True)
class MetricsRecord:
    """One step's metric values plus the evaluation metadata."""

    t: int
    rce: float
    ra: float
    nd: float
    pdv: float
    ts_at_k: float
    pdv_mode: str
    pdv_pairs: int | None = None
    ra_excluded: int = 0


def compute_metrics_record(t: int, states, slate_matrix: np.ndarray,
                           catalog: ItemCatalog, graph: SocialGraph,
                           settings: MetricSettings) -> MetricsRecord:
    matrix = _as_matrix(states)
    rce_val = rce(slate_matrix, catalog)
    ra_val, ra_excl = ra_with_diagnostics(matrix, slate_matrix, catalog,
                                          settings.ra_threshold)
    nd_val = nd(matrix, graph)
    pdv_val, pdv_mode_used, pdv_pairs = pdv_with_mode(matrix, settings.pdv_mode)
    ts_val = ts_at_k(matrix, settings.ts_k)
    _check_record_bounds(rce_val, ra_val, nd_val, ts_val, catalog.c)
    return MetricsRecord(
        t=t, rce=rce_val, ra=ra_val, nd=nd_val, pdv=pdv_val, ts_at_k=ts_val,
        pdv_mode=pdv_mode_used, pdv_pairs=pdv_pairs, ra_excluded=ra_excl,
    )


def _check_record_bounds(rce_val, ra_val, nd_val, ts_val, c):
    tol = 1e-9
    if not (-tol <= rce_val <= math.log(c) + tol):
        raise NumericalError(f"rce {rce_val} outside [0, ln {c}]")
    if not (-tol <= ra_val <= 1 + tol):
        raise NumericalError(f"ra {ra_val} outside [0, 1]")
    if not (-tol <= nd_val <= 2 + tol):
        raise NumericalError(f"nd {nd_val} outside [0, 2]")
    if ts_val > 1 + 1e-9:
        raise NumericalError(f"ts_at_k {ts_val} exceeds 1")
