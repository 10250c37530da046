"""Scalar, one-user forms of batched operations, the item-at-a-time catalog
build, the single-threaded loops
of the pairwise metric kernels, the row-at-a-time dataset reader, the
pair-at-a-time synthetic edge draw and the general Kronecker form of the
closed-form fixed point: the references tests check the program's kernels
against. The program never calls them."""

import csv

import numpy as np
import scipy.sparse as sp

from recloop import UserStates
from recloop.catalog import (
    UNIT_NORM_TOL,
    ItemCatalog,
    SocialGraph,
    build_social_graph,
    init_user_random,
    normalize_columns,
    row_blocks,
)
from recloop.errors import IndexOutOfRange, InvalidItem, InvalidRequest, ParseError
from recloop.experiment import FALLBACK_INIT_TAG


def catalog_reference(category_sets, c: int):
    """The item matrix, category masses and sorted category sets, built one
    item at a time with sqrt(1/k) on each of an item's k categories; the
    first bad item raises."""
    sets = tuple(tuple(sorted(set(int(x) for x in s))) for s in category_sets)
    vectors = np.zeros((c, len(sets)))
    for j, cats in enumerate(sets):
        if not cats:
            raise InvalidItem("item must belong to at least one category")
        if cats[0] < 0 or cats[-1] >= c:
            raise IndexOutOfRange(f"category index out of range for c={c}: {cats}")
        vectors[cats, j] = np.sqrt(1.0 / len(cats))
    return vectors, vectors.sum(axis=1), sets


def fua_weight(sign: int, rho: float) -> float:
    """Update weight for a feedback sign: +1 -> 1-rho, -1 -> -1-rho."""
    if sign == 1:
        return 1.0 - rho
    if sign == -1:
        return -1.0 - rho
    raise InvalidRequest(f"sign must be +1 or -1, got {sign}")


def dpp_rerank_reference(u: np.ndarray, candidate_items: np.ndarray,
                         catalog: ItemCatalog, theta: float, h: int) -> np.ndarray:
    """The greedy selection for one user over the distinct vectors of its
    pool, one norm and gemv per pick. Each distinct vector is scored once; a
    pick takes the best score, equal scores by the lowest unpicked id, and
    that id. A gemv rounds a row by its position and the matrix height, so
    the vectors stand in the catalog's group order (``ItemCatalog.groups``)
    as rows of a C-ordered (min(K, D), c) matrix, zero rows last: the layout
    the hook scores a row in."""
    cands = np.sort(np.asarray(candidate_items, dtype=np.int64))
    distinct, which = np.unique(catalog.item_vectors[:, cands], axis=1,
                                return_inverse=True)
    members = [cands[which == d] for d in range(distinct.shape[1])]
    order = np.argsort([catalog.groups.index[ids[0]] for ids in members])
    members = [members[d] for d in order]
    vecs = np.zeros((min(cands.size, catalog.groups.sizes.size), catalog.c))
    vecs[:len(members)] = distinct[:, order].T
    relevance = vecs @ np.asarray(u, dtype=float)

    picks = []
    chosen_sum = np.zeros(catalog.c)
    scores = relevance
    for j in range(h):
        if j:
            direction = chosen_sum / np.linalg.norm(chosen_sum)
            scores = (1.0 - theta) * relevance - theta * (vecs @ direction)
        left = [d for d in range(len(members)) if members[d].size]
        best = max(left, key=lambda d: (scores[d], -members[d][0]))
        picks.append(members[best][0])
        members[best] = members[best][1:]
        chosen_sum += vecs[best]
    return np.array(picks, dtype=np.int64)


def dpp_rerank_items(u: np.ndarray, candidate_items: np.ndarray,
                     catalog: ItemCatalog, theta: float, h: int) -> np.ndarray:
    """The greedy selection for one user, one score per pool item, ties by
    the lowest id. Equal vectors can score 1 ulp apart at other rows of the
    gemv, so this is the selection only where every score is exact: on
    single-category catalogs."""
    cands = np.sort(np.asarray(candidate_items, dtype=np.int64))
    vecs = catalog.item_vectors[:, cands]      # (c, K)
    relevance = vecs.T @ np.asarray(u, dtype=float)

    chosen = np.zeros(cands.size, dtype=bool)
    first = int(np.argmax(relevance))
    chosen[first] = True
    picks = [first]
    chosen_sum = vecs[:, first].copy()
    for _ in range(1, h):
        direction = chosen_sum / np.linalg.norm(chosen_sum)
        scores = (1.0 - theta) * relevance - theta * (vecs.T @ direction)
        scores[chosen] = -np.inf
        nxt = int(np.argmax(scores))
        chosen[nxt] = True
        picks.append(nxt)
        chosen_sum += vecs[:, nxt]
    return cands[np.array(picks)]


def dpp_hook_reference(u: np.ndarray, candidate_items: np.ndarray,
                       catalog: ItemCatalog, theta: float, h: int,
                       select=dpp_rerank_reference) -> np.ndarray:
    """The re-rank hook for one user: ``select`` with relevance against the
    unit user vector."""
    norm = np.linalg.norm(u)
    un = u / norm if norm > 0 else u
    return select(un, candidate_items, catalog, theta, h)


def sar_social_representation(states, graph: SocialGraph, i: int, gamma: float,
                              omega: float, dispersion_values: np.ndarray,
                              strict_denominator: bool = False) -> np.ndarray:
    """Social blend with neighbors reweighted by exp(-omega * dispersion).

    The default normalizes by the weight sum (a proper convex combination,
    recovering the plain neighbor mean at omega=0); the strict variant
    divides by sum(w) * |N_i| as printed in the aggregation rule.
    """
    matrix = states.user_matrix if isinstance(states, UserStates) else np.asarray(states, dtype=float)
    u = matrix[:, i]
    if gamma == 1.0 or graph.isolated[i]:
        return u.copy()
    nb = graph.edge_array[graph.edge_array[:, 0] == i, 1]
    dis = np.asarray(dispersion_values, dtype=float)[nb]
    log_w = -omega * dis
    w = np.exp(log_w - log_w.max())
    if strict_denominator:
        raw = np.exp(log_w)
        denom = raw.sum() * len(nb)
        if denom == 0:
            raise InvalidRequest("strict denominator underflowed to zero")
        agg = (matrix[:, nb] @ raw) / denom
    else:
        agg = (matrix[:, nb] @ w) / w.sum()
    return gamma * u + (1.0 - gamma) * agg


def dispersion(u: np.ndarray) -> float:
    """Squared deviation of the normalized vector from its coordinate mean."""
    v = np.asarray(u, dtype=float)
    norm = np.linalg.norm(v)
    if norm > 0:
        v = v / norm
    return float(((v - v.mean()) ** 2).sum())


def influence_reference(edge_array: np.ndarray, n: int):
    """Isolated flags and influence matrix built one user at a time from the
    deduplicated, lexicographically sorted edge array."""
    neighbor_lists = [edge_array[edge_array[:, 0] == i, 1] for i in range(n)]
    isolated = np.array([len(nb) == 0 for nb in neighbor_lists], dtype=bool)
    rows, cols, vals = [], [], []
    for i, nb in enumerate(neighbor_lists):
        if len(nb) == 0:
            rows.append(i)
            cols.append(i)
            vals.append(1.0)
        else:
            w = 1.0 / len(nb)
            rows.extend([i] * len(nb))
            cols.extend(nb.tolist())
            vals.extend([w] * len(nb))
    influence = sp.csr_matrix(
        (np.array(vals), (np.array(rows), np.array(cols))), shape=(n, n))
    return isolated, influence


def pairwise_distances_rows(un: np.ndarray) -> np.ndarray:
    """All i<j column distances in lexicographic pair order, one row of pairs
    at a time, each row its own array, joined at the end."""
    n = un.shape[1]
    chunks = []
    for i in range(n - 1):
        diffs = un[:, i + 1:] - un[:, i:i + 1]
        chunks.append(np.sqrt((diffs ** 2).sum(axis=0)))
    return np.concatenate(chunks) if chunks else np.zeros(0)


def pairwise_distances_exact(un: np.ndarray) -> np.ndarray:
    """All i<j column distances in lexicographic pair order, row by row on
    one thread into one buffer, square roots taken at the end."""
    n = un.shape[1]
    out = np.empty(n * (n - 1) // 2)
    for i in range(n - 1):
        diffs = un[:, i + 1:] - un[:, i:i + 1]
        lo = i * (2 * n - i - 1) // 2              # pairs of the rows before i
        np.add.reduce(np.square(diffs, out=diffs), axis=0, out=out[lo:lo + n - 1 - i])
    return np.sqrt(out, out=out)


def ts_at_k_blocks(users: np.ndarray, k: int, entries: int = 1 << 22) -> float:
    """TS@k with the Gram matrix formed block after block on one thread, each
    block about ``entries`` entries."""
    un = normalize_columns(np.asarray(users, dtype=float))
    n = un.shape[1]
    per_user = np.empty(n)
    for lo, hi in row_blocks(n, entries, n):
        gram = un[:, lo:hi].T @ un                 # (hi - lo, n)
        gram[np.arange(hi - lo), np.arange(lo, hi)] = -np.inf
        gram.partition(n - k, axis=1)
        gram[:, n - k:].sort(axis=1)               # fixed summation order
        per_user[lo:hi] = gram[:, n - k:].mean(axis=1)
    return float(per_user.mean())


def race(p: np.ndarray, h: int, row: np.ndarray, labels=None) -> np.ndarray:
    """The group race for one distribution, one slot and one pick at a time.

    The items of one label (default: of one probability) form a group, of
    weight the probability of its items. Groups come largest first, equal
    sizes by lowest item; slot (g, j), j < min(h, k_g), is numbered by j
    and then g. ``row`` holds the S slot uniforms, then one uniform per
    pick. Slot (g, j)'s key is sum_{i <= j} E_i / ((k_g - i) w_g) with
    E = -log1p(-U); a group of weight 0 ranks after every positive key, by
    its sums alone. The h smallest keys win, ties by slot, and the pick from
    slot (g, j) is the floor(U (k_g - j))-th of g's items still unpicked, in
    id order. Returns the h items in pick order."""
    p = np.asarray(p, dtype=float)
    labels = p.tolist() if labels is None else list(labels)
    members: dict = {}
    for item, label in enumerate(labels):
        members.setdefault(label, []).append(item)
    groups = sorted(members.values(), key=lambda ids: (-len(ids), ids[0]))
    depth = [min(h, len(ids)) for ids in groups]
    slots = [(g, j) for j in range(max(depth)) for g in range(len(groups))
             if j < depth[g]]
    minus_e = np.log1p(-np.asarray(row[:len(slots)]))
    sums = {}
    for s, (g, j) in enumerate(slots):
        step = minus_e[s] / (len(groups[g]) - j)
        sums[g, j] = step if j == 0 else sums[g, j - 1] + step

    def rank(s):
        g, j = slots[s]
        w = p[groups[g][0]]
        if w == 0:
            return (1, -sums[g, j], s)
        with np.errstate(divide="ignore"):
            return (0, (w * 2.0 ** 900) / sums[g, j], s)

    winners = sorted(range(len(slots)), key=rank)[:h]
    unpicked = [list(ids) for ids in groups]
    out = []
    for r, s in enumerate(winners):
        g, j = slots[s]
        out.append(unpicked[g].pop(int(row[len(slots) + r] * (len(groups[g]) - j))))
    return np.array(out, dtype=np.int64)


def vec(U: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization (Fortran order)."""
    return np.asarray(U).reshape(-1, order="F")


def unvec(x: np.ndarray, c: int, n: int) -> np.ndarray:
    return np.asarray(x).reshape((c, n), order="F")


def kronecker_fixed_point(ops) -> tuple[np.ndarray, float]:
    """Fixed point of U = x 1^T + Y U + Z U S~^T from the dense nc x nc system
    (I - I (x) Y - S~ (x) Z) vec(U) = vec(x 1^T), with the system's 1-norm
    condition. I - I (x) Y is formed first, so a Z far below Y's unit
    diagonal is not rounded away. The solution is meaningless when the
    condition is infinite."""
    c, n = ops.Y.shape[0], ops.S_tilde.shape[0]
    A = ((np.eye(n * c) - np.kron(np.eye(n), ops.Y))
         - np.kron(ops.S_tilde.toarray(), ops.Z))
    cond = float(np.linalg.cond(A, 1))
    if not np.isfinite(cond):
        return np.full((c, n), np.nan), cond
    b = vec(np.repeat(ops.x[:, None], n, axis=1))
    return unvec(np.linalg.solve(A, b), c, n), cond


def read_rows(path, expected_fields: int):
    """(line number, stripped fields) of each non-blank row, one ``csv`` row
    at a time."""
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    with handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != expected_fields:
                raise ParseError(
                    f"expected {expected_fields} fields, got {len(row)}",
                    line=lineno)
            yield lineno, [f.strip() for f in row]


def ingest_interactions(interactions_path, items_path):
    """(category sets, user ids, per-user positive and negative item sets),
    one row at a time."""
    item_index: dict[str, int] = {}
    category_sets: list[tuple[int, ...]] = []
    for lineno, (item_id, cats_field) in read_rows(items_path, 2):
        if item_id in item_index:
            raise ParseError(f"duplicate item id {item_id!r}", line=lineno)
        try:
            cats = tuple(sorted({int(tok) for tok in cats_field.split(";") if tok}))
        except ValueError as exc:
            raise ParseError(f"bad category list {cats_field!r}", line=lineno) from exc
        if not cats:
            raise ParseError(f"item {item_id!r} has no categories", line=lineno)
        if min(cats) < 0:
            raise ParseError(f"negative category in {cats_field!r}", line=lineno)
        item_index[item_id] = len(item_index)
        category_sets.append(cats)
    if not item_index:
        raise ParseError(f"no items found in {items_path}")

    user_ids: list[str] = []
    user_index: dict[str, int] = {}
    positives: list[set[int]] = []
    negatives: list[set[int]] = []
    for lineno, (user_id, item_id, rating_field) in read_rows(interactions_path, 3):
        if item_id not in item_index:
            raise ParseError(f"unknown item {item_id!r}", line=lineno)
        try:
            rating = float(rating_field)
        except ValueError as exc:
            raise ParseError(f"non-numeric rating {rating_field!r}", line=lineno) from exc
        if user_id not in user_index:
            user_index[user_id] = len(user_ids)
            user_ids.append(user_id)
            positives.append(set())
            negatives.append(set())
        u = user_index[user_id]
        j = item_index[item_id]
        (positives if rating >= 3 else negatives)[u].add(j)
    return category_sets, user_ids, positives, negatives


def ingest_trust(trust_path, n: int, user_index: dict[str, int]):
    """(graph, dropped self-loop rows), one trust row at a time."""
    edges = []
    dropped = 0
    for lineno, (src, dst) in read_rows(trust_path, 2):
        if src not in user_index or dst not in user_index:
            raise ParseError(f"unknown user in trust row ({src},{dst})",
                             line=lineno)
        i, j = user_index[src], user_index[dst]
        if i == j:
            dropped += 1
            continue
        edges.append((i, j))
    return build_social_graph(edges, n), dropped


def init_user_from_history(positives, negatives, catalog: ItemCatalog):
    """Normalized difference of positive and negative item-vector sums, or
    None when it (nearly) cancels."""
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
        return None
    return diff / norm


def build_initial_users(positives, negatives, catalog: ItemCatalog):
    """(c, n) start matrix and substituted users, one user at a time."""
    n = len(positives)
    matrix = np.empty((catalog.c, n))
    substituted = []
    for i in range(n):
        u = init_user_from_history(positives[i], negatives[i], catalog)
        if u is None:
            u = init_user_random(
                np.random.SeedSequence(entropy=(FALLBACK_INIT_TAG, i)), catalog.c)
            substituted.append(i)
        matrix[:, i] = u
    return matrix, substituted


def reweighted_influence(graph: SocialGraph, dis: np.ndarray, omega: float,
                         strict_denominator: bool) -> sp.csr_matrix:
    """SAR's influence matrix one row at a time. A strict row whose weights
    all underflow is shifted by its maximum first."""
    base = graph.influence_matrix
    indptr, indices = base.indptr, base.indices
    data = np.empty_like(base.data)
    for i in range(graph.n):
        lo, hi = indptr[i], indptr[i + 1]
        cols = indices[lo:hi]
        if graph.isolated[i]:
            data[lo:hi] = 1.0
            continue
        log_w = -omega * dis[cols]
        if strict_denominator:
            raw = np.exp(log_w)
            if raw.sum() == 0:
                raw = np.exp(log_w - log_w.max())
            data[lo:hi] = raw / (raw.sum() * len(cols))
        else:
            w = np.exp(log_w - log_w.max())
            data[lo:hi] = w / w.sum()
    return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=base.shape)


def synthetic_edges(n: int, link_count: int, seed: int) -> set[tuple[int, int]]:
    """``generate_synthetic``'s edge set, one drawn pair at a time: the first
    ``link_count`` distinct non-self pairs of its link stream."""
    link_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[2])
    edges: set[tuple[int, int]] = set()
    while len(edges) < link_count:
        need = link_count - len(edges)
        src = link_rng.integers(0, n, size=2 * need + 8)
        dst = link_rng.integers(0, n, size=2 * need + 8)
        for i, j in zip(src, dst):
            if i != j:
                edges.add((int(i), int(j)))
                if len(edges) == link_count:
                    break
    return edges
