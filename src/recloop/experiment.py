"""Dataset ingestion, synthetic generation, seeded replication, and file export.

File formats are plain headerless UTF-8 CSV:

* items:         ``item_id,category_ids`` (category ids semicolon-separated)
* interactions:  ``user_id,item_id,rating``  (rating >= 3 counts as positive)
* trust:         ``truster_id,trustee_id``

Internal user and item indices are contiguous and assigned in first-seen
order. Every output artefact is a pure function of (config, seeds): reruns
are byte-identical.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .catalog import (
    ItemCatalog,
    ModelParams,
    SocialGraph,
    UserStates,
    build_social_graph,
    init_user_from_history,
    init_user_random,
    normalize_columns,
)
from .dynamics import Trajectory, default_metric_schedule, run
from .errors import DegenerateHistory, InvalidRequest, IoError, ParseError
from .metrics import MetricSettings
from .mitigation import MitigationConfig, build_hooks

logger = logging.getLogger(__name__)

TS_K_DEFAULTS = {"ciao": 300, "epinions": 900, "synthetic": 50}
METRIC_NAMES = ("rce", "ra", "nd", "pdv", "ts_at_k")
# Higher is better for the first three, lower for the last two.
METRIC_ARROWS = {"rce": 1, "ra": 1, "nd": 1, "pdv": -1, "ts_at_k": -1}
FALLBACK_INIT_TAG = 9001   # entropy tag for degenerate-history substitutions
SWEEP_AXES = ("alpha", "beta", "gamma", "epsilon", "m", "links", "c")


@dataclass(frozen=True)
class SyntheticSpec:
    n: int = 1000
    m: int = 10000
    c: int = 10
    links: int = 10000


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs: dataset, parameters, strategy, and schedule."""

    seeds: tuple[int, ...]
    steps: int = 300
    synthetic: SyntheticSpec | None = None
    items_file: str | None = None
    interactions_file: str | None = None
    trust_file: str | None = None
    dataset_kind: str = "synthetic"
    params: ModelParams = field(default_factory=ModelParams)
    mitigation: MitigationConfig = field(default_factory=MitigationConfig)
    metric_every: int | None = None
    ts_k: int | None = None
    burn_in: int = 0
    export_final_states: bool = False
    pdv_mode: str = "auto"

    def __post_init__(self):
        if not self.seeds:
            raise InvalidRequest("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise InvalidRequest("seeds must be distinct")
        if self.steps < 1:
            raise InvalidRequest("steps must be >= 1")
        file_based = self.items_file is not None
        if file_based == (self.synthetic is not None):
            raise InvalidRequest(
                "configure exactly one of synthetic spec or dataset files")
        if file_based and (self.interactions_file is None or self.trust_file is None):
            raise InvalidRequest(
                "file-based runs need items, interactions, and trust files")
        if self.dataset_kind not in TS_K_DEFAULTS:
            raise InvalidRequest(f"unknown dataset kind {self.dataset_kind!r}")
        if self.burn_in < 0 or self.burn_in >= self.steps:
            raise InvalidRequest("burn_in must lie in [0, steps)")


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

@dataclass
class IngestResult:
    catalog: ItemCatalog
    positives: list[set[int]]       # per internal user index
    negatives: list[set[int]]
    user_ids: list[str]             # internal index -> original id
    item_ids: list[str]
    user_index: dict[str, int]
    item_index: dict[str, int]

    @property
    def n(self) -> int:
        return len(self.user_ids)


def _read_rows(path, expected_fields: int):
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


def ingest_interactions(interactions_path, items_path) -> IngestResult:
    """Parse the item and interaction files into a catalog plus histories.

    Ratings greater than or equal to 3 land in the positive set, the rest in
    the negative set. Internal indices follow first-seen order.
    """
    item_ids: list[str] = []
    item_index: dict[str, int] = {}
    category_sets: list[tuple[int, ...]] = []
    max_cat = -1
    for lineno, (item_id, cats_field) in _read_rows(items_path, 2):
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
        item_index[item_id] = len(item_ids)
        item_ids.append(item_id)
        category_sets.append(cats)
        max_cat = max(max_cat, cats[-1])
    if not item_ids:
        raise ParseError(f"no items found in {items_path}")
    catalog = ItemCatalog.from_category_sets(category_sets, max_cat + 1)

    user_ids: list[str] = []
    user_index: dict[str, int] = {}
    positives: list[set[int]] = []
    negatives: list[set[int]] = []
    for lineno, (user_id, item_id, rating_field) in _read_rows(interactions_path, 3):
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
    return IngestResult(catalog=catalog, positives=positives, negatives=negatives,
                        user_ids=user_ids, item_ids=item_ids,
                        user_index=user_index, item_index=item_index)


def ingest_trust(trust_path, n: int,
                 user_index: dict[str, int] | None = None) -> tuple[SocialGraph, int]:
    """Parse trust rows into a social graph; returns (graph, dropped self-loops).

    With a ``user_index`` mapping, ids are translated; otherwise they must be
    integers below n. Unknown users raise ParseError; duplicate edges are
    deduplicated downstream.
    """
    edges = []
    dropped = 0
    for lineno, (src, dst) in _read_rows(trust_path, 2):
        if user_index is not None:
            if src not in user_index or dst not in user_index:
                raise ParseError(f"unknown user in trust row ({src},{dst})",
                                 line=lineno)
            i, j = user_index[src], user_index[dst]
        else:
            try:
                i, j = int(src), int(dst)
            except ValueError as exc:
                raise ParseError(f"non-integer user id ({src},{dst})",
                                 line=lineno) from exc
            if i >= n or j >= n or i < 0 or j < 0:
                raise ParseError(f"unknown user in trust row ({src},{dst})",
                                 line=lineno)
        if i == j:
            dropped += 1
            continue
        edges.append((i, j))
    if dropped:
        logger.warning("dropped %d self-loop trust rows", dropped)
    return build_social_graph(edges, n), dropped


def build_initial_users(ingest: IngestResult) -> tuple[UserStates, list[int]]:
    """Seed each user from history; degenerate histories fall back to random init.

    Substituted users are logged and returned so the caller can audit them.
    """
    c = ingest.catalog.c
    matrix = np.empty((c, ingest.n))
    substituted: list[int] = []
    for i in range(ingest.n):
        try:
            matrix[:, i] = init_user_from_history(
                ingest.positives[i], ingest.negatives[i], ingest.catalog)
        except DegenerateHistory:
            matrix[:, i] = init_user_random(
                np.random.SeedSequence(entropy=(FALLBACK_INIT_TAG, i)), c)
            substituted.append(i)
    if substituted:
        logger.warning("substituted random init for %d degenerate histories: %s",
                       len(substituted), substituted[:20])
    return UserStates(matrix, t=0), substituted


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------

def generate_synthetic(n: int, m: int, c: int, link_count: int,
                       seed: int) -> tuple[ItemCatalog, UserStates, SocialGraph]:
    """Single-category items, random unit users, and uniform random links.

    Fully determined by the seed: categories, user vectors, and the edge set
    each come from an independent child stream.
    """
    if link_count > n * (n - 1):
        raise InvalidRequest(
            f"cannot place {link_count} distinct ordered links among {n} users")
    root = np.random.SeedSequence(seed)
    cat_ss, user_ss, link_ss = root.spawn(3)

    cat_rng = np.random.default_rng(cat_ss)
    categories = cat_rng.integers(0, c, size=m)
    catalog = ItemCatalog.from_category_sets([(int(o),) for o in categories], c)

    matrix = np.empty((c, n))
    for i, child in enumerate(user_ss.spawn(n)):
        matrix[:, i] = init_user_random(child, c)
    states = UserStates(matrix, t=0)

    link_rng = np.random.default_rng(link_ss)
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
    graph = build_social_graph(edges, n)
    return catalog, states, graph


# ---------------------------------------------------------------------------
# Runs, summaries, comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricStats:
    mean: float
    std: float | None
    ci95: float | None
    per_seed: tuple[float, ...]


@dataclass
class RunSummary:
    """Across-seed statistics plus the seed-averaged per-step series."""

    seeds: tuple[int, ...]
    steps: int
    schedule: tuple[int, ...]
    burn_in: int
    k_used: int
    pdv_mode: str
    stats: dict[str, MetricStats]
    series: dict[str, tuple[float, ...]]      # keyed by metric name
    config: dict

    def to_json_dict(self) -> dict:
        return {
            "seeds": list(self.seeds),
            "steps": self.steps,
            "schedule": list(self.schedule),
            "burn_in": self.burn_in,
            "k_used": self.k_used,
            "pdv_mode": self.pdv_mode,
            "stats": {
                name: {
                    "mean": s.mean,
                    "std": s.std,
                    "ci95": s.ci95,
                    "per_seed": list(s.per_seed),
                }
                for name, s in self.stats.items()
            },
            "series": {name: list(vals) for name, vals in self.series.items()},
            "config": self.config,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunSummary":
        """Inverse of ``to_json_dict``; a malformed summary raises ParseError."""
        if not isinstance(data, dict):
            raise ParseError(f"summary must be a JSON object, not {type(data).__name__}")
        try:
            return cls(
                seeds=tuple(data["seeds"]),
                steps=int(data["steps"]),
                schedule=tuple(data["schedule"]),
                burn_in=int(data["burn_in"]),
                k_used=int(data["k_used"]),
                pdv_mode=data["pdv_mode"],
                stats={
                    name: MetricStats(
                        mean=s["mean"], std=s["std"], ci95=s["ci95"],
                        per_seed=tuple(float(x) for x in s["per_seed"]))
                    for name, s in ((name, data["stats"][name])
                                    for name in METRIC_NAMES)
                },
                series={name: tuple(vals) for name, vals in data["series"].items()},
                config=data["config"],
            )
        except KeyError as exc:
            raise ParseError(f"summary lacks key {exc.args[0]!r}") from exc
        except (TypeError, ValueError, AttributeError) as exc:
            raise ParseError(f"malformed summary: {exc}") from exc


def _metric_schedule(config: ExperimentConfig) -> list[int]:
    if config.metric_every is None:
        return default_metric_schedule(config.steps)
    if config.metric_every < 1:
        raise InvalidRequest("metric_every must be >= 1")
    steps = list(range(0, config.steps, config.metric_every))
    if steps[-1] != config.steps - 1:
        steps.append(config.steps - 1)
    return steps


def build_dataset(config: ExperimentConfig,
                  seed: int) -> tuple[ItemCatalog, UserStates, SocialGraph]:
    """Materialize the dataset for one seed.

    Synthetic worlds depend on the seed; a file-based dataset does not (its
    fallback initial users are keyed by user index alone).
    """
    if config.synthetic is not None:
        s = config.synthetic
        return generate_synthetic(s.n, s.m, s.c, s.links, seed)
    ingest = ingest_interactions(config.interactions_file, config.items_file)
    states, _ = build_initial_users(ingest)
    graph, _ = ingest_trust(config.trust_file, ingest.n, ingest.user_index)
    return ingest.catalog, states, graph


def _resolve_ts_k(config: ExperimentConfig, n: int) -> int:
    k = config.ts_k if config.ts_k is not None else TS_K_DEFAULTS[config.dataset_kind]
    return max(1, min(k, n - 1))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def run_experiment(config: ExperimentConfig,
                   out_dir=None) -> RunSummary:
    """Run every seed, aggregate mean +/- 95% CI, and write the artefact files.

    Writes ``metrics.csv`` (t,seed,rce,ra,nd,pdv,ts_at_k), ``summary.json``,
    and per-seed final-state dumps when requested. With ``out_dir=None``
    nothing is written and only the summary is returned.
    """
    schedule = _metric_schedule(config)
    trajectories: dict[int, Trajectory] = {}
    k_used = None
    # ``run`` copies the initial states and only reads the catalog and graph,
    # so one ingestion of a file-based dataset serves every seed.
    shared = None if config.synthetic else build_dataset(config, config.seeds[0])
    for seed in config.seeds:
        catalog, states, graph = shared or build_dataset(config, seed)
        k_used = _resolve_ts_k(config, states.n)
        settings = MetricSettings(ts_k=k_used, pdv_mode=config.pdv_mode)
        hooks = build_hooks(config.mitigation, config.params)
        trajectories[seed] = run(
            states, catalog, graph, config.params, config.steps,
            metric_schedule=schedule, hooks=hooks, master_seed=seed,
            settings=settings)

    summary = summarize(config, schedule, k_used, trajectories)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_metrics_csv(out / "metrics.csv", config.seeds, trajectories)
        _write_json(out / "summary.json", summary.to_json_dict())
        if config.export_final_states:
            for seed in config.seeds:
                export_states(trajectories[seed].final_states,
                              out / f"final_states_seed{seed}.csv")
    return summary


def summarize(config: ExperimentConfig, schedule: Sequence[int], k_used: int,
              trajectories: dict[int, Trajectory]) -> RunSummary:
    kept = [t for t in schedule if t >= config.burn_in]
    stats: dict[str, MetricStats] = {}
    series: dict[str, tuple[float, ...]] = {}
    per_metric_rows = {}
    for name in METRIC_NAMES:
        rows = np.array([
            [getattr(rec, name) for rec in trajectories[seed].records]
            for seed in config.seeds
        ])                                        # (seeds, len(schedule))
        per_metric_rows[name] = rows
        keep_mask = np.isin(np.array(schedule), kept)
        per_seed = rows[:, keep_mask].mean(axis=1)
        mean = float(per_seed.mean())
        if len(config.seeds) >= 2:
            import scipy.stats      # deferred: it costs about 1 s of import time
            std = float(per_seed.std(ddof=1))
            tcrit = float(scipy.stats.t.ppf(0.975, len(config.seeds) - 1))
            ci95 = tcrit * std / math.sqrt(len(config.seeds))
        else:
            std = None
            ci95 = None
        stats[name] = MetricStats(mean=mean, std=std, ci95=ci95,
                                  per_seed=tuple(float(x) for x in per_seed))
        series[name] = tuple(float(x) for x in rows.mean(axis=0))

    pdv_modes = {rec.pdv_mode for seed in config.seeds
                 for rec in trajectories[seed].records}
    return RunSummary(
        seeds=config.seeds,
        steps=config.steps,
        schedule=tuple(schedule),
        burn_in=config.burn_in,
        k_used=k_used,
        pdv_mode=",".join(sorted(pdv_modes)),
        stats=stats,
        series=series,
        config=_logical_config(config),
    )


def _logical_config(config: ExperimentConfig) -> dict:
    data = dataclasses.asdict(config)
    data["seeds"] = list(config.seeds)
    return data


def _write_metrics_csv(path, seeds, trajectories):
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t", "seed", "rce", "ra", "nd", "pdv", "ts_at_k"])
            for seed in seeds:
                for rec in trajectories[seed].records:
                    writer.writerow([
                        rec.t, seed, _fmt(rec.rce), _fmt(rec.ra), _fmt(rec.nd),
                        _fmt(rec.pdv), _fmt(rec.ts_at_k)])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _write_json(path, data):
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


@dataclass(frozen=True)
class ImprovementRow:
    metric: str
    arrow: str
    baseline_mean: float
    candidate_mean: float
    improvement_pct: float
    p_value: float | None


def compare_runs(candidate: RunSummary,
                 baseline: RunSummary) -> list[ImprovementRow]:
    """Per-metric improvement table with Welch t-test p-values across seeds.

    Improvement sign follows each metric's direction (up for rce/ra/nd, down
    for pdv/ts_at_k). Requires matching metric schedules and seed counts.
    """
    if candidate.schedule != baseline.schedule or \
            len(candidate.seeds) != len(baseline.seeds):
        raise InvalidRequest(
            "runs must share the metric schedule and seed count to compare")
    rows = []
    for name in METRIC_NAMES:
        cand = np.array(candidate.stats[name].per_seed)
        base = np.array(baseline.stats[name].per_seed)
        direction = METRIC_ARROWS[name]
        if base.mean() == 0:
            raise InvalidRequest(f"baseline mean for {name} is zero")
        pct = direction * (cand.mean() - base.mean()) / abs(base.mean()) * 100.0
        if len(cand) < 2:
            p = None
        elif np.allclose(cand, base) and cand.std() == 0 and base.std() == 0:
            p = 1.0
        else:
            import scipy.stats
            p = float(scipy.stats.ttest_ind(cand, base, equal_var=False).pvalue)
            if math.isnan(p):
                p = 1.0
        rows.append(ImprovementRow(
            metric=name,
            arrow="up" if direction > 0 else "down",
            baseline_mean=float(base.mean()),
            candidate_mean=float(cand.mean()),
            improvement_pct=float(pct),
            p_value=p,
        ))
    return rows


def sweep(config: ExperimentConfig, axis: str, values: Sequence,
          out_dir=None) -> dict:
    """Run the base config once per axis value, holding everything else fixed.

    Parameter axes modify ModelParams; m/links/c regenerate the synthetic
    dataset spec. Emits per-value artefacts in ``<axis>=<value>`` subfolders
    plus a long-format ``sweep.csv`` for plotting.
    """
    if axis not in SWEEP_AXES:
        raise InvalidRequest(f"unknown sweep axis {axis!r}")
    values = list(values)
    if len(set(values)) != len(values):
        raise InvalidRequest("sweep values must be distinct")
    if axis in ("m", "links", "c") and config.synthetic is None:
        raise InvalidRequest(f"axis {axis!r} requires a synthetic dataset")

    results: dict = {}
    rows = []
    for value in values:
        if axis in ("alpha", "beta", "gamma", "epsilon"):
            new_params = dataclasses.replace(config.params, **{axis: float(value)})
            sub = dataclasses.replace(config, params=new_params)
        else:
            new_spec = dataclasses.replace(config.synthetic, **{axis: int(value)})
            sub = dataclasses.replace(config, synthetic=new_spec)
        sub_dir = None if out_dir is None else Path(out_dir) / f"{axis}={value}"
        summary = run_experiment(sub, sub_dir)
        results[value] = summary
        for name in METRIC_NAMES:
            for t, mean_val in zip(summary.schedule, summary.series[name]):
                rows.append((axis, value, t, name, mean_val))

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        try:
            with open(out / "sweep.csv", "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(["axis", "value", "t", "metric", "seed_mean"])
                for row in rows:
                    writer.writerow([row[0], _fmt(row[1]), row[2], row[3],
                                     _fmt(row[4])])
        except OSError as exc:
            raise IoError(f"cannot write sweep.csv: {exc}") from exc
    return results


def export_states(states: UserStates, path) -> None:
    """Write the normalized user matrix as ``user_id,coord_0..coord_{c-1}``."""
    un = normalize_columns(states.user_matrix)
    c, n = un.shape
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["user_id"] + [f"coord_{o}" for o in range(c)])
            for i in range(n):
                writer.writerow([i] + [repr(float(x)) for x in un[:, i]])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_states(path) -> UserStates:
    """Read a matrix produced by ``export_states``."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            if not header or header[0] != "user_id":
                raise ParseError(f"unexpected header in {path}")
            for row in reader:
                rows.append([float(x) for x in row[1:]])
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return UserStates(np.array(rows).T, t=0)
