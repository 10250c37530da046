"""Echo-chamber and homogenization metrics over state snapshots.

All five metrics read the l2-normalized view of the user matrix; the raw
(unnormalized) state is never mutated. Slates enter as an (n, h) integer
matrix of item indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import ItemCatalog, SocialGraph, UserStates, normalize_columns
from .errors import InvalidRequest, InvalidSlate, NoEdges, NumericalError

PDV_EXACT_LIMIT = 5000
PDV_DEFAULT_PAIRS = 2_000_000
PDV_DEFAULT_SEED = 1729


def _as_matrix(states) -> np.ndarray:
    if isinstance(states, UserStates):
        return states.user_matrix
    return np.asarray(states, dtype=float)


def category_entropy(slate_items: np.ndarray, catalog: ItemCatalog) -> float:
    """Entropy of the slate's category shares, with 0*ln(0) := 0.

    A k-category item contributes 1/k mass to each of its categories (the
    squared coordinate of its vector), so shares always total the slate
    length and single-category slates reduce to integer counting.
    """
    items = np.asarray(slate_items, dtype=int).ravel()
    if items.size == 0:
        raise InvalidSlate("cannot compute entropy of an empty slate")
    counts = (catalog.item_vectors[:, items] ** 2).sum(axis=1)
    return _entropy_from_counts(counts[None, :])[0]


def _entropy_from_counts(counts: np.ndarray) -> np.ndarray:
    totals = counts.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / totals
        terms = np.where(p > 0, p * np.log(p), 0.0)
    return -terms.sum(axis=1)


def rce(slate_matrix: np.ndarray, catalog: ItemCatalog) -> float:
    """Mean category entropy of all users' slates."""
    slates = np.asarray(slate_matrix, dtype=int)
    if slates.ndim != 2 or slates.shape[1] == 0:
        raise InvalidSlate("expected an (n, h) slate matrix with h >= 1")
    v2 = catalog.item_vectors ** 2
    counts = v2[:, slates].sum(axis=2).T          # (n, c)
    return float(_entropy_from_counts(counts).mean())


def ra(states, slate_matrix: np.ndarray, catalog: ItemCatalog,
       threshold: float = 0.7) -> float:
    """Fraction of (user, item) pairs whose normalized-user/item score exceeds the threshold."""
    value, _ = ra_with_diagnostics(states, slate_matrix, catalog, threshold)
    return value


def ra_with_diagnostics(states, slate_matrix: np.ndarray, catalog: ItemCatalog,
                        threshold: float = 0.7) -> tuple[float, int]:
    """RA value plus the count of zero-norm users excluded from the average."""
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
    """All i<j distances in lexicographic pair order, matching a nested loop."""
    n = un.shape[1]
    chunks = []
    for i in range(n - 1):
        diffs = un[:, i + 1:] - un[:, i:i + 1]
        chunks.append(np.sqrt((diffs ** 2).sum(axis=0)))
    return np.concatenate(chunks) if chunks else np.zeros(0)


def pdv(states, mode: str = "auto", pairs: int = PDV_DEFAULT_PAIRS,
        seed: int = PDV_DEFAULT_SEED) -> float:
    value, _, _ = pdv_with_mode(states, mode, pairs, seed)
    return value


def pdv_with_mode(states, mode: str = "auto", pairs: int = PDV_DEFAULT_PAIRS,
                  seed: int = PDV_DEFAULT_SEED) -> tuple[float, str, int | None]:
    """Population variance of pairwise normalized distances.

    Exact over all n(n-1)/2 pairs up to n=5000 (or on request); beyond that a
    uniform pair sample with a fixed seed estimates it. Returns the value, the
    mode actually used, and the number of sampled pairs (None when exact).
    """
    matrix = _as_matrix(states)
    n = matrix.shape[1]
    if n < 2:
        raise InvalidRequest("pairwise distance variance needs n >= 2 users")
    if mode not in ("auto", "exact", "sampled"):
        raise InvalidRequest(f"unknown pdv mode {mode!r}")
    if mode == "auto":
        mode = "exact" if n <= PDV_EXACT_LIMIT else "sampled"
    un = normalize_columns(matrix)
    if mode == "exact":
        dists = _pairwise_distances_exact(un)
        return float(np.var(dists)), "exact", None
    rng = np.random.default_rng(seed)
    ii = rng.integers(0, n, size=pairs)
    jj = rng.integers(0, n - 1, size=pairs)
    jj = jj + (jj >= ii)
    dists = np.linalg.norm(un[:, ii] - un[:, jj], axis=0)
    return float(np.var(dists)), "sampled", int(pairs)


def ts_at_k(states, k: int, chunk: int = 1024) -> float:
    """Mean inner product between each user and its k most similar users.

    Similarity is the inner product of normalized vectors; self-similarity is
    excluded (otherwise every user would contribute a constant 1/k term).
    """
    matrix = _as_matrix(states)
    n = matrix.shape[1]
    if k < 1 or k >= n:
        raise InvalidRequest(f"need 1 <= k <= n-1, got k={k}, n={n}")
    un = normalize_columns(matrix)
    per_user = np.empty(n)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        gram = un[:, start:stop].T @ un            # (rows, n)
        rows = np.arange(start, stop)
        gram[np.arange(stop - start), rows] = -np.inf
        top = np.partition(gram, n - k, axis=1)[:, n - k:]
        top.sort(axis=1)                           # fixed summation order
        per_user[start:stop] = top.mean(axis=1)
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
    pdv_pairs: int = PDV_DEFAULT_PAIRS
    pdv_seed: int = PDV_DEFAULT_SEED


@dataclass(frozen=True)
class MetricsRecord:
    """One step's metric values plus the evaluation metadata."""

    t: int
    rce: float
    ra: float
    nd: float
    pdv: float
    ts_at_k: float
    k_used: int
    pdv_mode: str
    pdv_pairs: int | None = None
    pdv_seed: int | None = None
    ra_excluded: int = 0


def compute_metrics_record(t: int, states, slate_matrix: np.ndarray,
                           catalog: ItemCatalog, graph: SocialGraph,
                           settings: MetricSettings) -> MetricsRecord:
    matrix = _as_matrix(states)
    rce_val = rce(slate_matrix, catalog)
    ra_val, ra_excl = ra_with_diagnostics(matrix, slate_matrix, catalog,
                                          settings.ra_threshold)
    nd_val = nd(matrix, graph)
    pdv_val, pdv_mode_used, pdv_pairs = pdv_with_mode(
        matrix, settings.pdv_mode, settings.pdv_pairs, settings.pdv_seed)
    ts_val = ts_at_k(matrix, settings.ts_k)
    _check_record_bounds(rce_val, ra_val, nd_val, ts_val, catalog.c)
    return MetricsRecord(
        t=t, rce=rce_val, ra=ra_val, nd=nd_val, pdv=pdv_val, ts_at_k=ts_val,
        k_used=settings.ts_k, pdv_mode=pdv_mode_used, pdv_pairs=pdv_pairs,
        pdv_seed=settings.pdv_seed if pdv_mode_used == "sampled" else None,
        ra_excluded=ra_excl,
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
