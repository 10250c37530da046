"""Item catalogs, user initialization, model parameters, and the social graph.

Items live in a c-dimensional category space: an item tagged with k categories
has value sqrt(1/k) on each of those coordinates and 0 elsewhere, so every
item vector has unit Euclidean norm and the (c, m) item matrix holds every
fact about the items. Users start as unit vectors (from
interaction history or random init) and evolve unnormalized afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (
    IndexOutOfRange,
    InvalidItem,
    InvalidRequest,
    NumericalError,
    ParseError,
)

UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True)
class ItemCatalog:
    """The c x m item matrix, the catalog's only stored state.

    Every other item fact is read from it: ``c`` and ``m`` are its shape,
    ``category_mass[o]`` is the summed o-th coordinate over all item vectors
    (for an all-single-category catalog, the integer item count of category
    o), ``category_sets`` is its nonzero pattern, and ``groups`` its equal
    columns, derived on first use and then kept. Immutable after
    construction and safe to share across workers.
    """

    item_vectors: np.ndarray                      # c x m, columns unit norm

    def __post_init__(self):
        self.item_vectors.flags.writeable = False

    @property
    def c(self) -> int:
        return self.item_vectors.shape[0]

    @property
    def m(self) -> int:
        return self.item_vectors.shape[1]

    @property
    def category_mass(self) -> np.ndarray:
        return self.item_vectors.sum(axis=1)

    @property
    def category_sets(self) -> tuple[tuple[int, ...], ...]:
        """Each item's sorted categories, as tuples of ints."""
        items, cats = np.nonzero(self.item_vectors.T)
        ends = np.bincount(items, minlength=self.m).cumsum().tolist()
        return tuple(tuple(cats[lo:hi].tolist()) for lo, hi in zip([0, *ends], ends))

    @classmethod
    def from_category_sets(cls, category_sets: Sequence[Iterable[int]],
                           c: int) -> "ItemCatalog":
        """The catalog whose item j has sqrt(1/k) on each of its k distinct
        categories, in one vectorized pass: ids may repeat and come in any
        order. The first item in input order with no categories raises
        InvalidItem, or with an id outside [0, c) IndexOutOfRange, naming
        its index and categories."""
        sets = list(map(tuple, category_sets))
        sizes = np.fromiter(map(len, sets), np.int64, len(sets))
        flat = np.fromiter(chain.from_iterable(sets), np.int64, sizes.sum())
        item = np.repeat(np.arange(len(sets)), sizes)
        bad = sizes == 0
        bad[item[(flat < 0) | (flat >= c)]] = True
        if bad.any():
            j = int(np.argmax(bad))
            error = IndexOutOfRange if sets[j] else InvalidItem
            raise error(f"item {j} has categories {sorted(set(map(int, sets[j])))}"
                        f"; it needs at least one, each in [0, {c})")
        mask = np.zeros((c, len(sets)), dtype=bool)
        mask[flat, item] = True
        return cls(np.where(mask, np.sqrt(1.0 / mask.sum(axis=0)), 0.0))

    def all_single_category(self) -> bool:
        return bool((np.count_nonzero(self.item_vectors, axis=0) == 1).all())

    @cached_property
    def groups(self) -> "ItemGroups":
        """The items grouped by equal vector (equal category set), derived
        from the matrix on first use and kept with the catalog."""
        return group_columns(self.item_vectors)


@dataclass(frozen=True)
class ItemGroups:
    """The columns of a matrix grouped by equal value.

    Group g holds ``sizes[g]`` columns with the vector ``vectors[:, g]``:
    the columns ``members[starts[g]:starts[g] + sizes[g]]``, in id order.
    The largest group comes first, and groups of equal size are ordered by
    their lowest id. ``index[j]`` is column j's group.
    """

    index: np.ndarray          # (m,)
    vectors: np.ndarray        # (r, D)
    sizes: np.ndarray          # (D,), non-increasing
    members: np.ndarray        # (m,)
    starts: np.ndarray         # (D,)


def group_columns(matrix: np.ndarray) -> ItemGroups:
    """Group the m columns of an (r, m) matrix by equal value."""
    m = matrix.shape[1]
    order = np.lexsort(matrix[::-1])       # lexicographic, equal columns by id
    ordered = matrix[:, order]
    new = np.ones(m, dtype=bool)
    new[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    starts = np.flatnonzero(new)
    sizes = np.diff(starts, append=m)
    rank = np.lexsort((order[starts], -sizes))
    sizes = sizes[rank]
    new_starts = np.cumsum(sizes) - sizes
    members = order[np.repeat(starts[rank] - new_starts, sizes) + np.arange(m)]
    index = np.empty(m, dtype=np.int64)
    index[members] = np.repeat(np.arange(sizes.size), sizes)
    return ItemGroups(index=index, vectors=matrix[:, members[new_starts]],
                      sizes=sizes, members=members, starts=new_starts)


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

    Accepts ordered pairs (i, j) meaning i trusts j, or an (E, 2) array of
    them. Duplicates are deduplicated and self-pairs ignored; isolated users
    receive a self-loop influence row. Input that is not (i, j) integer pairs
    raises ParseError; IndexOutOfRange names the first out-of-range edge in
    input order.
    """
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        pairs = np.asarray(edges, dtype=np.int64)
        pairs = pairs.reshape(len(edges), -1 if len(edges) else 2)
        if pairs.shape[1] != 2:
            raise ValueError(f"got {edges[0]!r}")
    except (TypeError, ValueError) as exc:
        raise ParseError(f"edges must be (i, j) integer pairs: {exc}") from exc
    bad = ((pairs < 0) | (pairs >= n)).any(axis=1)
    if bad.any():
        i, j = pairs[np.argmax(bad)]
        raise IndexOutOfRange(f"edge ({i},{j}) out of range for n={n}")
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    # Sorted i*n + j keys are the pairs in lexicographic order.
    keys = np.sort(pairs[:, 0] * n + pairs[:, 1])
    keys = keys[np.diff(keys, prepend=-1) != 0]
    edge_array = np.stack(np.divmod(keys, n), axis=1)

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
        if isinstance(self.h, bool) or not isinstance(self.h, (int, np.integer)):
            raise InvalidRequest(f"h must be an integer, not {self.h!r}")
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

    def copy(self) -> "UserStates":
        return UserStates(self.user_matrix.copy(), self.t)


def normalize_columns(matrix: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Column-wise unit normalization, into ``out`` when given; all-zero
    columns are left as zeros. A column whose norm overflows (entries above
    about 1e154) raises NumericalError instead of normalizing to zeros."""
    norms = np.linalg.norm(matrix, axis=0)
    if np.isinf(norms).any():
        raise NumericalError("user vector norm overflows float64")
    safe = np.where(norms > 0, norms, 1.0)
    return np.divide(matrix, safe, out=out)


def row_blocks(n: int, entries: int, width: int) -> list[tuple[int, int]]:
    """Bounds (lo, hi) of consecutive blocks of about ``entries // width`` of
    n rows. No block has a single row unless n == 1: the last block takes a
    one-row remainder, because a one-row matmul (gemv) or one-column reduction
    rounds differently. Blocks of other shapes can still round a row's
    product differently (gemm edge tiles), so results are a pure function of
    the inputs only at a fixed ``entries``."""
    starts = range(0, max(n - 1, 1), max(2, entries // width))
    return list(zip(starts, [*starts[1:], n]))
