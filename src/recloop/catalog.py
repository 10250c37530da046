"""Item catalogs, user initialization, model parameters, and the social graph.

Items live in a c-dimensional category space: an item tagged with k categories
has value sqrt(1/k) on each of those coordinates and 0 elsewhere, so every
item vector has unit Euclidean norm. Users start as unit vectors (from
interaction history or random init) and evolve unnormalized afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (
    DegenerateHistory,
    IndexOutOfRange,
    InvalidItem,
    InvalidRequest,
)

UNIT_NORM_TOL = 1e-12


def build_item_vector(categories: Iterable[int], c: int) -> np.ndarray:
    """Unit vector with sqrt(1/k) on each of the item's k category coordinates."""
    cats = sorted(set(int(x) for x in categories))
    if not cats:
        raise InvalidItem("item must belong to at least one category")
    if cats[0] < 0 or cats[-1] >= c:
        raise IndexOutOfRange(f"category index out of range for c={c}: {cats}")
    v = np.zeros(c)
    v[cats] = np.sqrt(1.0 / len(cats))
    return v


@dataclass(frozen=True)
class ItemCatalog:
    """The c x m item matrix plus per-item category sets and category masses.

    ``category_mass[o]`` is the summed o-th coordinate over all item vectors;
    for an all-single-category catalog it equals the integer item count of
    category o. Immutable after construction and safe to share across workers.
    """

    item_vectors: np.ndarray                      # c x m, columns unit norm
    category_sets: tuple[tuple[int, ...], ...]    # per item
    category_mass: np.ndarray                     # length c
    m: int
    c: int

    def __post_init__(self):
        self.item_vectors.flags.writeable = False
        self.category_mass.flags.writeable = False

    @classmethod
    def from_category_sets(
        cls, category_sets: Sequence[Iterable[int]], c: int
    ) -> "ItemCatalog":
        sets = tuple(tuple(sorted(set(int(x) for x in s))) for s in category_sets)
        m = len(sets)
        vectors = np.zeros((c, m))
        for j, cats in enumerate(sets):
            vectors[:, j] = build_item_vector(cats, c)
        return cls(
            item_vectors=vectors,
            category_sets=sets,
            category_mass=vectors.sum(axis=1),
            m=m,
            c=c,
        )

    def all_single_category(self) -> bool:
        return all(len(s) == 1 for s in self.category_sets)


def init_user_from_history(
    positives: Iterable[int], negatives: Iterable[int], catalog: ItemCatalog
) -> np.ndarray:
    """Normalized difference of positive and negative item-vector sums.

    Raises DegenerateHistory when the difference vector (nearly) cancels,
    e.g. identical positive and negative sets; callers that substitute a
    random init must log the substitution.
    """
    pos = np.asarray(sorted(set(int(j) for j in positives)), dtype=int)
    neg = np.asarray(sorted(set(int(j) for j in negatives)), dtype=int)
    for idx in (pos, neg):
        if idx.size and (idx[0] < 0 or idx[-1] >= catalog.m):
            raise IndexOutOfRange(f"item index out of range for m={catalog.m}")
    diff = np.zeros(catalog.c)
    if pos.size:
        diff += catalog.item_vectors[:, pos].sum(axis=1)
    if neg.size:
        diff -= catalog.item_vectors[:, neg].sum(axis=1)
    norm = float(np.linalg.norm(diff))
    if norm < UNIT_NORM_TOL:
        raise DegenerateHistory("interaction history cancels to a zero vector")
    return diff / norm


def init_user_random(seed, c: int) -> np.ndarray:
    """Standard-normal draw scaled to unit norm; deterministic for a fixed seed.

    ``seed`` may be anything ``numpy.random.default_rng`` accepts (int,
    SeedSequence, Generator).
    """
    if c < 1:
        raise InvalidRequest(f"need c >= 1, got {c}")
    rng = np.random.default_rng(seed)
    while True:
        v = rng.standard_normal(c)
        norm = float(np.linalg.norm(v))
        if norm >= UNIT_NORM_TOL:
            return v / norm


@dataclass(frozen=True)
class SocialGraph:
    """Directed trust graph with the row-stochastic influence matrix.

    ``edge_array`` holds the (truster, trusted) pairs; user i's neighbors are
    the CSR row i of ``influence_matrix``, which is diag(S 1)^-1 S stored
    sparse. Users without neighbors are flagged isolated and get a unit
    self-loop row so that the social blend degrades gracefully to the user's
    own vector.
    """

    n: int
    edge_array: np.ndarray                 # (E, 2) deduplicated, lexicographic
    influence_matrix: sp.csr_matrix
    isolated: np.ndarray                   # bool, length n

    def __post_init__(self):
        self.edge_array.flags.writeable = False
        self.isolated.flags.writeable = False

    @property
    def num_edges(self) -> int:
        return int(self.edge_array.shape[0])


def build_social_graph(edges: Iterable[tuple[int, int]], n: int) -> SocialGraph:
    """Build the deduplicated edge array and the row-stochastic influence matrix.

    Accepts ordered pairs (i, j) meaning i trusts j. Duplicates are
    deduplicated and self-pairs ignored; isolated users receive a self-loop
    influence row.
    """
    pairs = set()
    for i, j in edges:
        i, j = int(i), int(j)
        if i < 0 or i >= n or j < 0 or j >= n:
            raise IndexOutOfRange(f"edge ({i},{j}) out of range for n={n}")
        if i != j:
            pairs.add((i, j))
    if pairs:
        edge_array = np.array(sorted(pairs), dtype=np.int64)
    else:
        edge_array = np.zeros((0, 2), dtype=np.int64)

    srcs, dsts = edge_array[:, 0], edge_array[:, 1]
    degree = np.bincount(srcs, minlength=n)
    isolated = degree == 0
    loops = np.flatnonzero(isolated)
    rows = np.concatenate([srcs, loops])
    cols = np.concatenate([dsts, loops])
    vals = np.concatenate([1.0 / degree[srcs], np.ones(loops.size)])
    # The CSR conversion keeps each row's entries in input order: the sorted
    # edges, or an isolated user's single self-loop.
    influence = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))

    return SocialGraph(
        n=n,
        edge_array=edge_array,
        influence_matrix=influence,
        isolated=isolated,
    )


@dataclass(frozen=True)
class ModelParams:
    """Model knobs: softmax temperature, bias strengths, social blend, update rate.

    ``eta`` is allowed to be 0 (a zero-rate update freezes the state); the
    paper never pins its value, so 0.1 is the configuration default.
    """

    alpha: float = 5.0     # softmax temperature >= 0
    beta: float = 5.0      # confirmation-bias exponent >= 0
    gamma: float = 0.5     # self-weight in [0, 1]
    epsilon: float = 0.0   # leniency shift in [-1, 1]
    eta: float = 0.1       # update rate >= 0
    h: int = 20            # recommendation list length >= 1

    def __post_init__(self):
        fields = (self.alpha, self.beta, self.gamma, self.epsilon, self.eta)
        if not all(np.isfinite(fields)):
            raise InvalidRequest("model parameters must be finite")
        if self.alpha < 0:
            raise InvalidRequest("alpha must be >= 0")
        if self.beta < 0:
            raise InvalidRequest("beta must be >= 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise InvalidRequest("gamma must lie in [0, 1]")
        if not -1.0 <= self.epsilon <= 1.0:
            raise InvalidRequest("epsilon must lie in [-1, 1]")
        if self.eta < 0:
            raise InvalidRequest("eta must be >= 0")
        if self.h < 1:
            raise InvalidRequest("h must be >= 1")


@dataclass
class UserStates:
    """The c x n user matrix plus the step counter.

    Columns are unit vectors at t=0; the dynamics never renormalize, so
    columns at t>0 are unnormalized and the metrics normalize them on read
    (``normalize_columns``).
    """

    user_matrix: np.ndarray
    t: int = 0

    @property
    def n(self) -> int:
        return self.user_matrix.shape[1]

    @property
    def c(self) -> int:
        return self.user_matrix.shape[0]

    def copy(self) -> "UserStates":
        return UserStates(self.user_matrix.copy(), self.t)


def normalize_columns(matrix: np.ndarray) -> np.ndarray:
    """Column-wise unit normalization; all-zero columns are left as zeros."""
    norms = np.linalg.norm(matrix, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    return matrix / safe
