"""Correctness checks, computed apart from the program.

Each check takes plain arrays and returns True when the program's output
holds. The metric oracles recompute the five metrics with other means than
``recloop.metrics``: bincounted slate categories for RCE, a threshold band
for RA, ``scipy.spatial.distance.pdist`` for PDV and a full sort for TS@k.
The fixed-point check applies X + Y U + Z U S~^T with operators and an
influence matrix built here from the item categories and trust edges.
"""

from __future__ import annotations

import csv
import statistics

import numpy as np
import scipy.sparse as sp

METRIC_RTOL = 1e-9           # relative to 1 + |oracle|
RA_BAND = 1e-12              # dots this close to the threshold may go either way
FIXED_POINT_RTOL = 1e-10     # the residual bound fixed_point promises
ALPHA_RTOL = 1e-9


def slates_ok(slates: np.ndarray, n: int, h: int, m: int) -> bool:
    """Every row holds h distinct item ids in [0, m)."""
    slates = np.asarray(slates)
    if slates.shape != (n, h):
        return False
    ordered = np.sort(slates, axis=1)
    return bool(ordered[:, 0].min() >= 0 and ordered[:, -1].max() < m
                and (np.diff(ordered, axis=1) > 0).all())


class Categories:
    """Item category lists in flat form, for bincounts over slates."""

    def __init__(self, category_sets, c: int):
        sizes = np.array([len(s) for s in category_sets], dtype=np.int64)
        self.c = c
        self.sizes = sizes
        self.starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        self.flat = np.array([o for s in category_sets for o in s], dtype=np.int64)

    def slate_counts(self, slates: np.ndarray) -> np.ndarray:
        """(n, c) category shares of each slate; a k-category item adds 1/k."""
        n, h = slates.shape
        items = slates.ravel()
        k = self.sizes[items]
        offsets = np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)
        cats = self.flat[np.repeat(self.starts[items], k) + offsets]
        users = np.repeat(np.repeat(np.arange(n), h), k)
        weights = np.repeat(1.0 / k, k)
        return np.bincount(users * self.c + cats, weights=weights,
                           minlength=n * self.c).reshape(n, self.c)

    def item_vectors(self) -> np.ndarray:
        """(c, m) unit item vectors: sqrt(1/k) on each of the k categories."""
        m = self.sizes.size
        V = np.zeros((self.c, m))
        owners = np.repeat(np.arange(m), self.sizes)
        V[self.flat, owners] = np.sqrt(1.0 / self.sizes[owners])
        return V


def _unit_columns(U: np.ndarray) -> np.ndarray:
    norms = np.sqrt((U * U).sum(axis=0))
    return U / np.where(norms > 0, norms, 1.0)


def metric_oracles(U: np.ndarray, slates: np.ndarray, cats: Categories,
                   edges: np.ndarray, ts_k: int,
                   ra_threshold: float) -> dict[str, float | tuple[float, float]]:
    """Independent values of RCE, RA (as a band), ND, PDV and TS@k."""
    from scipy.spatial.distance import pdist

    n, h = slates.shape
    shares = cats.slate_counts(slates) / h
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(shares > 0, shares * np.log(shares), 0.0)
    un = _unit_columns(np.asarray(U, dtype=float))

    V = cats.item_vectors()
    keep = np.sqrt((U * U).sum(axis=0)) > 0
    dots = np.einsum("ci,cih->ih", un[:, keep], V[:, slates[keep]])
    total = max(dots.size, 1)
    ra_band = (float((dots > ra_threshold + RA_BAND).sum()) / total,
               float((dots > ra_threshold - RA_BAND).sum()) / total)

    diffs = un[:, edges[:, 0]] - un[:, edges[:, 1]]
    nd = float(np.sqrt((diffs * diffs).sum(axis=0)).mean())

    pdv = float(np.var(pdist(un.T)))

    top_means = np.empty(n)
    for lo in range(0, n, 512):
        gram = un[:, lo:lo + 512].T @ un
        rows = np.arange(gram.shape[0])
        gram[rows, rows + lo] = -np.inf
        top_means[lo:lo + 512] = np.sort(gram, axis=1)[:, n - ts_k:].mean(axis=1)

    return {"rce": float(-terms.sum(axis=1).mean()), "ra": ra_band, "nd": nd,
            "pdv": pdv, "ts_at_k": float(top_means.mean())}


def metric_matches(name: str, value: float, oracle) -> bool:
    if name == "ra":
        low, high = oracle
        return low - 1e-15 <= value <= high + 1e-15
    return abs(value - oracle) <= METRIC_RTOL * (1.0 + abs(oracle))


def alpha_sum_ok(alphas: np.ndarray, alpha0: float) -> bool:
    """The per-user temperatures share the budget alpha0 exactly."""
    return abs(float(np.sum(alphas)) - alpha0) <= ALPHA_RTOL * alpha0


def dpp_first_ok(U: np.ndarray, first_items: np.ndarray,
                 category_of: np.ndarray) -> bool:
    """Single-category catalog, pool = catalog: the first pick of each slate
    is the lowest-id item of the category where the user's vector peaks."""
    present = np.bincount(category_of, minlength=U.shape[0]) > 0
    top = np.argmax(np.where(present[:, None], U, -np.inf), axis=0)
    lowest = np.full(U.shape[0], -1)
    categories, first = np.unique(category_of, return_index=True)
    lowest[categories] = first
    return bool(np.array_equal(lowest[top], np.asarray(first_items)))


def influence_matrix(edges: np.ndarray, n: int) -> sp.csr_matrix:
    """Row-stochastic S~ from distinct non-self edges; isolated users keep
    a unit self-loop row."""
    src, dst = edges[:, 0], edges[:, 1]
    degree = np.bincount(src, minlength=n)
    lonely = np.flatnonzero(degree == 0)
    rows = np.concatenate([src, lonely])
    cols = np.concatenate([dst, lonely])
    vals = np.concatenate([1.0 / degree[src], np.ones(lonely.size)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def fixed_point_ok(star: np.ndarray, cats: Categories, edges: np.ndarray,
                   alpha: float, beta: float, gamma: float, epsilon: float,
                   eta: float) -> bool:
    """U* is fixed by X + Y U + Z U S~^T within 1e-10 (1 + ||U*||_inf)."""
    c, n = star.shape
    V = cats.item_vectors()
    m = V.shape[1]
    vvt = V @ V.T
    vsum = V.sum(axis=1)
    outer = np.outer(vsum, vsum)
    aeg = alpha * epsilon * gamma
    ae1g = alpha * epsilon * (1 - gamma)
    X = (eta * epsilon / m) * vsum[:, None]
    Y = np.eye(c) + (eta * (aeg + beta) / m) * vvt - (eta * aeg / m ** 2) * outer
    Z = (eta * ae1g / m) * vvt - (eta * ae1g / m ** 2) * outer
    S = influence_matrix(edges, n)
    image = X + Y @ star + (S @ (Z @ star).T).T
    residual = float(np.max(np.abs(image - star)))
    return residual <= FIXED_POINT_RTOL * (1.0 + float(np.max(np.abs(star))))


def echo_chamber(metrics_csv, steps: int) -> tuple[bool, bool]:
    """Mean RCE falls and mean RA rises from the first to the last tenth."""
    tenth = max(1, steps // 10)
    first = {"rce": [], "ra": []}
    last = {"rce": [], "ra": []}
    with open(metrics_csv, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            t = int(row["t"])
            for name in ("rce", "ra"):
                if t < tenth:
                    first[name].append(float(row[name]))
                elif t >= steps - tenth:
                    last[name].append(float(row[name]))
    return (statistics.fmean(last["rce"]) < statistics.fmean(first["rce"]),
            statistics.fmean(last["ra"]) > statistics.fmean(first["ra"]))
