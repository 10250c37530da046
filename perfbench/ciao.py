"""Ciao-shaped CSV inputs for the ``platform`` workload, made from a seed.

The three files follow the formats ``recloop.experiment`` ingests:

* ``items.csv``:        ``item_id,category_ids`` (ids ``;``-separated)
* ``interactions.csv``: ``user_id,item_id,rating``
* ``trust.csv``:        ``truster_id,trustee_id``

The catalog (item ids and categories) is the same for every seed, as a
platform's catalog is; the seed draws the users, their ratings and their
trust rows. The fixed-point solve on this world depends on the catalog
alone, and the GMRES iteration count moved from 23 to 31 across five
catalog draws, which would move ``fixed_point_s`` with the seed.

Besides writing the files, ``write_ciao`` returns what the generator put in
them, so the workload can check the program's ingestion against it: the
first-seen user order, the item category sets, the distinct trust edges in
internal indices and the number of self-loop rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

USERS = 5000
ITEMS = 2000
CATEGORIES = 28
MEAN_RATINGS = 38          # per user, as in Ciao
MEAN_TRUST = 15            # trust rows per user, as in Ciao
DUPLICATE_SHARE = 0.03     # trust rows repeated verbatim
SELF_LOOP_SHARE = 0.01     # trust rows i -> i
CATALOG_SEED = 2000


@dataclass(frozen=True)
class CiaoData:
    """What the generator wrote, in the program's internal indexing."""

    items_path: Path
    interactions_path: Path
    trust_path: Path
    category_sets: tuple[tuple[int, ...], ...]   # per internal item index
    users: int
    items: int
    item_rows: int
    interaction_rows: int
    trust_rows: int
    edges: np.ndarray              # (E, 2) distinct non-self pairs, sorted
    self_loop_rows: int


def _category_sets(rng: np.random.Generator) -> list[tuple[int, ...]]:
    # Skewed category popularity; every category owns at least one item.
    popularity = 1.0 / np.arange(1, CATEGORIES + 1) ** 0.8
    popularity /= popularity.sum()
    sizes = rng.choice([1, 2, 3], size=ITEMS, p=[0.8, 0.15, 0.05])
    sets = []
    for j, k in enumerate(sizes):
        cats = set(rng.choice(CATEGORIES, size=int(k), replace=False, p=popularity).tolist())
        if j < CATEGORIES:
            cats.add(j)
        sets.append(tuple(sorted(cats)))
    return sets


def write_ciao(out_dir, seed: int) -> CiaoData:
    """Write the three CSVs for ``seed`` into ``out_dir`` and describe them."""
    fixed = np.random.default_rng(CATALOG_SEED)
    category_sets = _category_sets(fixed)
    item_ids = fixed.choice(10 * ITEMS, size=ITEMS, replace=False) + 1

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC1A0)))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    user_ids = rng.choice(10 * USERS, size=USERS, replace=False) + 1

    # Ratings: distinct items per user, drawn by item popularity; Ciao
    # ratings are mostly positive.
    item_pop = rng.pareto(1.5, size=ITEMS) + 1.0
    item_pop /= item_pop.sum()
    counts = np.clip(rng.poisson(MEAN_RATINGS - 1, size=USERS) + 1, 1, ITEMS)
    rows_u, rows_j = [], []
    for u, k in enumerate(counts):
        rows_u.append(np.full(k, u))
        rows_j.append(rng.choice(ITEMS, size=int(k), replace=False, p=item_pop))
    rated_u = np.concatenate(rows_u)
    rated_j = np.concatenate(rows_j)
    ratings = rng.choice([1, 2, 3, 4, 5], size=rated_u.size,
                         p=[0.06, 0.08, 0.16, 0.35, 0.35])
    order = rng.permutation(rated_u.size)
    rated_u, rated_j, ratings = rated_u[order], rated_j[order], ratings[order]

    # Internal user index = first appearance in the interactions file.
    _, first = np.unique(rated_u, return_index=True)
    internal = np.empty(USERS, dtype=np.int64)
    internal[rated_u[np.sort(first)]] = np.arange(USERS)

    # Trust: out-degree around MEAN_TRUST, trustees by preferential weight,
    # plus verbatim duplicates and self-loops.
    degree = rng.poisson(MEAN_TRUST, size=USERS)
    user_pop = rng.pareto(1.2, size=USERS) + 1.0
    user_pop /= user_pop.sum()
    src = np.repeat(np.arange(USERS), degree)
    dst = rng.choice(USERS, size=src.size, p=user_pop)
    dup = rng.choice(src.size, size=int(DUPLICATE_SHARE * src.size), replace=False)
    loops = rng.choice(USERS, size=int(SELF_LOOP_SHARE * src.size), replace=False)
    src = np.concatenate([src, src[dup], loops])
    dst = np.concatenate([dst, dst[dup], loops])
    order = rng.permutation(src.size)
    src, dst = src[order], dst[order]

    items_path = out / "items.csv"
    interactions_path = out / "interactions.csv"
    trust_path = out / "trust.csv"
    items_path.write_text("".join(
        f"{item_ids[j]},{';'.join(map(str, cats))}\n"
        for j, cats in enumerate(category_sets)), encoding="utf-8")
    interactions_path.write_text("".join(
        f"{user_ids[u]},{item_ids[j]},{r}\n"
        for u, j, r in zip(rated_u.tolist(), rated_j.tolist(), ratings.tolist())),
        encoding="utf-8")
    trust_path.write_text("".join(
        f"{user_ids[a]},{user_ids[b]}\n"
        for a, b in zip(src.tolist(), dst.tolist())), encoding="utf-8")

    self_rows = src == dst
    pairs = np.stack([internal[src[~self_rows]], internal[dst[~self_rows]]], axis=1)
    edges = np.unique(pairs, axis=0)
    return CiaoData(
        items_path=items_path, interactions_path=interactions_path,
        trust_path=trust_path, category_sets=tuple(category_sets),
        users=USERS, items=ITEMS, item_rows=ITEMS,
        interaction_rows=int(rated_u.size), trust_rows=int(src.size),
        edges=edges, self_loop_rows=int(self_rows.sum()))
