"""Scalar, one-user forms of batched operations: the references tests check
the engine's kernels against. The engine never calls them."""

import numpy as np
import scipy.sparse as sp

from recloop import UserStates
from recloop.catalog import ItemCatalog, SocialGraph
from recloop.errors import InvalidRequest


def fua_weight(sign: int, rho: float) -> float:
    """Update weight for a feedback sign: +1 -> 1-rho, -1 -> -1-rho."""
    if sign == 1:
        return 1.0 - rho
    if sign == -1:
        return -1.0 - rho
    raise InvalidRequest(f"sign must be +1 or -1, got {sign}")


def dpp_rerank_reference(u: np.ndarray, candidate_items: np.ndarray,
                         catalog: ItemCatalog, theta: float, h: int) -> np.ndarray:
    """The greedy selection one user at a time, one norm and gemv per pick."""
    cands = np.asarray(candidate_items, dtype=np.int64)
    order = np.argsort(cands, kind="stable")   # argmax then prefers low item ids
    cands = cands[order]
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
                       catalog: ItemCatalog, theta: float, h: int) -> np.ndarray:
    """The re-rank hook for one user: relevance against the unit user vector."""
    norm = np.linalg.norm(u)
    un = u / norm if norm > 0 else u
    return dpp_rerank_reference(un, candidate_items, catalog, theta, h)


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
