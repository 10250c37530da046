"""Dataset ingestion, synthetic generation, seeded replication, and file export.

File formats are plain headerless UTF-8 CSV:

* items:         ``item_id,category_ids`` (category ids semicolon-separated)
* interactions:  ``user_id,item_id,rating``  (rating >= 3 counts as positive)
* trust:         ``truster_id,trustee_id``

Fields are split at every comma and stripped of surrounding whitespace;
quoting is not supported, and a field that starts with ``"`` is an error.
Lines end with \\n, \\r\\n or \\r, and a line with no comma and nothing but
whitespace is skipped. Each error names its 1-based line, the first bad
line of the file. A file is read in blocks of ``BLOCK_LINES`` lines, each
split and checked as a whole, and ingestion keeps one array row per rating
rather than Python sets per user.

Internal user and item indices are contiguous and assigned in first-seen
order. Every output artefact is a pure function of (config, seeds): reruns
are byte-identical. Every CSV file is written by ``_write_csv``: a float as
its repr, an int as its str and None as an empty field, with \r\n line ends.
(The synthetic ``interactions.csv`` is the one exception: ``np.savetxt``, \n
line ends.) A failed write of any output file raises IoError naming the path.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import itertools
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .catalog import (
    UNIT_NORM_TOL,
    ItemCatalog,
    ModelParams,
    SocialGraph,
    UserStates,
    build_social_graph,
    init_user_random,
    normalize_columns,
)
from .dynamics import Trajectory, metric_steps, run
from .errors import IndexOutOfRange, InvalidRequest, IoError, ParseError
from .metrics import MetricSettings
from .mitigation import MitigationConfig, build_hooks

logger = logging.getLogger(__name__)

TS_K_DEFAULTS = {"ciao": 300, "epinions": 900, "synthetic": 50}
METRIC_NAMES = ("rce", "ra", "nd", "pdv", "ts_at_k")
# Higher is better for the first three, lower for the last two.
METRIC_ARROWS = {"rce": 1, "ra": 1, "nd": 1, "pdv": -1, "ts_at_k": -1}
FALLBACK_INIT_TAG = 9001   # entropy tag for degenerate-history substitutions
BLOCK_LINES = 1 << 16      # \n-ended lines of a dataset file parsed at once
HISTORY_ENTRIES = 1 << 20  # entries of one (c, histories, L) gather of item vectors
PARAM_AXES = ("alpha", "beta", "gamma", "epsilon")     # ModelParams fields
SWEEP_AXES = PARAM_AXES + ("m", "links", "c")            # and SyntheticSpec fields


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
        missing = [name for name in ("interactions_file", "trust_file")
                   if getattr(self, name) is None]
        if file_based and missing:
            raise InvalidRequest(f"file-based runs need {' and '.join(missing)}")
        if self.dataset_kind not in TS_K_DEFAULTS:
            raise InvalidRequest(f"unknown dataset kind {self.dataset_kind!r}")
        if self.burn_in < 0 or self.burn_in >= self.steps:
            raise InvalidRequest("burn_in must lie in [0, steps)")
        if self.ts_k is not None and self.ts_k < 1:
            raise InvalidRequest(f"ts_k must be >= 1, got {self.ts_k}")


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

@dataclass
class IngestResult:
    """The catalog, and one row per rating: its user, item and sign."""

    catalog: ItemCatalog
    user: np.ndarray                # (R,) internal user index
    item: np.ndarray                # (R,) internal item index
    positive: np.ndarray            # (R,) bool: rating >= 3
    user_index: dict[str, int]      # original id -> internal index

    @property
    def n(self) -> int:
        return len(self.user_index)


def _universal(text: str) -> str:
    """``text`` with the line ends of text mode: \\r\\n and \\r become \\n."""
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _read_blocks(path, expected_fields: int):
    """Yield (line numbers, columns) per block of up to ``BLOCK_LINES`` lines.

    Each block gives its rows' 1-based line numbers (an int array) and one
    list of stripped values per field. A line with no comma and nothing but
    whitespace is skipped. A block's rows are yielded up to its first
    malformed line, which then raises ParseError: a field that starts with a
    quote, the wrong field count or bytes that are not UTF-8.
    """
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    done = 0                         # lines in the blocks before this one
    with handle:
        while chunk := b"".join(itertools.islice(handle, BLOCK_LINES)):
            try:
                text, undecodable = _universal(chunk.decode("utf-8")), None
            except UnicodeDecodeError as exc:
                # Parse the lines before the undecodable one, then raise.
                text = _universal(chunk[:exc.start].decode("utf-8"))
                undecodable = ParseError(
                    f"cannot decode {chunk[exc.start:exc.end]!r} as UTF-8: "
                    f"{exc.reason}", line=done + text.count("\n") + 1)
                text = text[:text.rfind("\n") + 1]
            lines = text.split("\n")
            if not lines[-1]:
                lines.pop()          # the end of the last line, not a line
            odd = np.array([line.count(",") != expected_fields - 1 for line in lines],
                           dtype=bool)
            blank = np.zeros(len(lines), dtype=bool)
            for i in np.flatnonzero(odd).tolist():
                blank[i] = "," not in lines[i] and not lines[i].strip()
            quoted = np.zeros(len(lines), dtype=bool)
            if '"' in text:
                quoted[:] = [line.startswith('"') or ',"' in line for line in lines]
            bad = quoted | (odd & ~blank)
            stop = _first(bad)
            rows = np.flatnonzero(~blank[:stop])
            fields = ",".join([lines[i] for i in rows.tolist()]).split(",")
            values = list(map(str.strip, fields)) if rows.size else []
            yield done + 1 + rows, [values[f::expected_fields]
                                    for f in range(expected_fields)]
            if stop < len(lines):
                line = done + stop + 1
                if quoted[stop]:
                    raise ParseError("quoted fields are not supported", line=line)
                raise ParseError(f"expected {expected_fields} fields, "
                                 f"got {lines[stop].count(',') + 1}", line=line)
            if undecodable is not None:
                raise undecodable
            done += len(lines)


def _indices(index: dict[str, int], ids: list[str]) -> np.ndarray:
    """Each id's index, -1 for an id ``index`` lacks."""
    return np.fromiter(map(index.get, ids, itertools.repeat(-1)), np.int64, len(ids))


def _first(mask: np.ndarray) -> int:
    """Position of the first true entry, or the length when there is none."""
    return int(np.argmax(mask)) if mask.any() else mask.size


def _changes(values: np.ndarray) -> np.ndarray:
    """Mask of the entries that differ from the one before; the first does."""
    mask = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=mask[1:])
    return mask


def _is_float(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def ingest_interactions(interactions_path, items_path) -> IngestResult:
    """Parse the item and interaction files into a catalog plus histories.

    Ratings greater than or equal to 3 are positive, the rest negative.
    Internal indices follow first-seen order.
    """
    item_index: dict[str, int] = {}
    category_sets: list[list[int]] = []       # as listed: the build ignores order
    max_cat = -1
    for linenos, (ids, cats_fields) in _read_blocks(items_path, 2):
        for lineno, item_id, cats_field in zip(linenos.tolist(), ids, cats_fields):
            if item_id in item_index:
                raise ParseError(f"duplicate item id {item_id!r}", line=lineno)
            try:
                cats = [int(tok) for tok in cats_field.split(";") if tok]
            except ValueError as exc:
                raise ParseError(f"bad category list {cats_field!r}",
                                 line=lineno) from exc
            if not cats:
                raise ParseError(f"item {item_id!r} has no categories", line=lineno)
            if min(cats) < 0:
                raise ParseError(f"negative category in {cats_field!r}", line=lineno)
            item_index[item_id] = len(item_index)
            category_sets.append(cats)
            max_cat = max(max_cat, *cats)
    if not item_index:
        raise ParseError(f"no items found in {items_path}")
    catalog = ItemCatalog.from_category_sets(category_sets, max_cat + 1)

    user_index: dict[str, int] = {}
    users, items = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    positives = [np.zeros(0, dtype=bool)]
    for linenos, (user_ids, item_ids, ratings) in _read_blocks(interactions_path, 3):
        item = _indices(item_index, item_ids)
        unknown = _first(item < 0)
        try:
            rating = np.fromiter(map(float, ratings), float, len(ratings))
            bad = len(ratings)
        except ValueError:
            bad = next(r for r, field in enumerate(ratings) if not _is_float(field))
        if unknown < len(item_ids) and unknown <= bad:
            raise ParseError(f"unknown item {item_ids[unknown]!r}",
                             line=int(linenos[unknown]))
        if bad < len(ratings):
            raise ParseError(f"non-numeric rating {ratings[bad]!r}",
                             line=int(linenos[bad]))
        for user_id in dict.fromkeys(user_ids):
            user_index.setdefault(user_id, len(user_index))
        users.append(_indices(user_index, user_ids))
        items.append(item)
        positives.append(rating >= 3)
    return IngestResult(catalog=catalog, user=np.concatenate(users),
                        item=np.concatenate(items), positive=np.concatenate(positives),
                        user_index=user_index)


def ingest_trust(trust_path, n: int,
                 user_index: dict[str, int]) -> tuple[SocialGraph, int]:
    """Parse trust rows into a social graph; returns (graph, dropped self-loops).

    Ids are translated through ``user_index`` (n users); unknown users raise
    ParseError, and duplicate edges are deduplicated downstream.
    """
    blocks = [np.zeros((0, 2), np.int64)]
    dropped = 0
    for linenos, (srcs, dsts) in _read_blocks(trust_path, 2):
        pairs = np.stack([_indices(user_index, srcs), _indices(user_index, dsts)],
                         axis=1)
        bad = _first((pairs < 0).any(axis=1))
        if bad < len(srcs):
            raise ParseError(f"unknown user in trust row ({srcs[bad]},{dsts[bad]})",
                             line=int(linenos[bad]))
        loops = pairs[:, 0] == pairs[:, 1]
        dropped += int(loops.sum())
        blocks.append(pairs[~loops])
    if dropped:
        logger.warning("dropped %d self-loop trust rows", dropped)
    return build_social_graph(np.concatenate(blocks), n), dropped


def build_initial_users(ingest: IngestResult) -> tuple[UserStates, list[int]]:
    """Seed each user from history; degenerate histories fall back to random init.

    A user starts at the normalized difference of the sums of its distinct
    positive and its distinct negative item vectors. Where that difference
    (nearly) cancels, the user gets a random start keyed by its index;
    substituted users are logged and returned so the caller can audit them.
    """
    catalog = ingest.catalog
    c, m, n = catalog.c, catalog.m, ingest.n
    if ingest.item.size and not 0 <= ingest.item.min() <= ingest.item.max() < m:
        raise IndexOutOfRange(f"item index out of range for m={m}")
    # Distinct (user, sign, item) keys in order: each history's items ascend,
    # as the sorted sets that were summed one user at a time.
    keys = ingest.user * (2 * m)
    keys += ingest.item
    np.add(keys, m, out=keys, where=ingest.positive)
    keys.sort()
    keys = keys[_changes(keys)]
    item = keys % m
    keys //= m                               # 2 * user + positive
    starts = np.flatnonzero(_changes(keys))
    lengths = np.diff(starts, append=keys.size)
    history = keys[starts]
    del keys                                 # R entries the gathers do not need
    sums = np.zeros((c, 2 * n))
    # A (c, histories, L) gather of item vectors keeps c as its contiguous
    # axis, as the (c, L) gather ``V[:, items]`` of one history does, so numpy
    # reduces L the same way in both: each history's items added in order.
    for length in np.unique(lengths).tolist():
        group = lengths == length
        first, owner = starts[group], history[group]
        step = max(1, HISTORY_ENTRIES // (c * length))
        for lo in range(0, first.size, step):
            at = first[lo:lo + step, None] + np.arange(length)
            sums[:, owner[lo:lo + step]] = catalog.item_vectors[:, item[at]].sum(axis=2)
    diff = sums[:, 1::2] - sums[:, 0::2]
    rows = np.ascontiguousarray(diff.T)
    # The ddot of np.linalg.norm, one per contiguous user row.
    norm = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]))[:, 0, 0]
    substituted = np.flatnonzero(norm < UNIT_NORM_TOL).tolist()
    norm[substituted] = 1.0
    matrix = diff / norm
    for i in substituted:
        matrix[:, i] = init_user_random(
            np.random.SeedSequence(entropy=(FALLBACK_INIT_TAG, i)), c)
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
    each come from an independent child stream. The edges are the first
    ``link_count`` distinct non-self pairs the link stream draws.
    """
    for name, value, low in (("n", n, 1), ("m", m, 1), ("c", c, 1),
                             ("links", link_count, 0)):
        if value < low:
            raise InvalidRequest(f"{name} must be >= {low}, got {value}")
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
    keys = np.zeros(0, np.int64)          # distinct i*n + j, in first-drawn order
    while keys.size < link_count:
        need = link_count - keys.size
        src = link_rng.integers(0, n, size=2 * need + 8)
        dst = link_rng.integers(0, n, size=2 * need + 8)
        keys = np.concatenate([keys, (src * n + dst)[src != dst]])
        first = np.sort(np.unique(keys, return_index=True)[1])
        keys = keys[first[:link_count]]
    graph = build_social_graph(np.stack(np.divmod(keys, n), axis=1), n)
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

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunSummary":
        """Inverse of ``dataclasses.asdict``; a malformed summary raises ParseError."""
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
    return min(k, n - 1)


def run_experiment(config: ExperimentConfig,
                   out_dir=None) -> RunSummary:
    """Run every seed, aggregate mean +/- 95% CI, and write the artefact files.

    Writes ``metrics.csv`` (t,seed,rce,ra,nd,pdv,ts_at_k), ``summary.json``,
    and per-seed final-state dumps when requested. With ``out_dir=None``
    nothing is written and only the summary is returned.
    """
    schedule = metric_steps(config.steps, config.metric_every)
    trajectories: dict[int, Trajectory] = {}
    k_used = None
    # ``run`` copies the initial states and only reads the catalog and graph,
    # so one ingestion of a file-based dataset serves every seed.
    shared = None if config.synthetic else build_dataset(config, config.seeds[0])
    for seed in config.seeds:
        catalog, states, graph = shared or build_dataset(config, seed)
        if graph.num_edges == 0:
            raise InvalidRequest("the social graph has no edges (links 0, or only "
                                 "self-loop trust rows); neighbor distance needs one")
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
        _write_json(out / "summary.json", dataclasses.asdict(summary))
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
    for name in METRIC_NAMES:
        rows = np.array([
            [getattr(rec, name) for rec in trajectories[seed].records]
            for seed in config.seeds
        ])                                        # (seeds, len(schedule))
        keep_mask = np.isin(np.array(schedule), kept)
        per_seed = rows[:, keep_mask].mean(axis=1)
        mean = float(per_seed.mean())
        if len(config.seeds) >= 2:
            import scipy.special    # deferred: only multi-seed runs need it
            std = float(per_seed.std(ddof=1))
            tcrit = float(scipy.special.stdtrit(len(config.seeds) - 1, 0.975))
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
        config=dataclasses.asdict(config),
    )


@contextlib.contextmanager
def _output_file(path, newline=None):
    """``open(path, "w")``, UTF-8; an OSError in opening or writing becomes
    IoError naming the path."""
    try:
        with open(path, "w", newline=newline, encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _write_csv(path, rows, header=None):
    """Write ``header`` (when given) and then ``rows`` as CSV lines."""
    with _output_file(path, newline="") as handle:
        writer = csv.writer(handle)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def _write_metrics_csv(path, seeds, trajectories):
    _write_csv(path, ([rec.t, seed, *(getattr(rec, name) for name in METRIC_NAMES)]
                      for seed in seeds for rec in trajectories[seed].records),
               ["t", "seed", *METRIC_NAMES])


def _write_json(path, data):
    with _output_file(path) as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


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
    if not values:
        raise InvalidRequest("sweep needs at least one value")
    if len(set(values)) != len(values):
        raise InvalidRequest("sweep values must be distinct")
    if axis not in PARAM_AXES and config.synthetic is None:
        raise InvalidRequest(f"axis {axis!r} requires a synthetic dataset")

    results: dict = {}
    rows = []
    for value in values:
        if axis in PARAM_AXES:
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
        _write_csv(out / "sweep.csv", rows,
                   ["axis", "value", "t", "metric", "seed_mean"])
    return results


def export_states(states: UserStates, path) -> None:
    """Write the normalized user matrix as ``user_id,coord_0..coord_{c-1}``."""
    un = normalize_columns(states.user_matrix)
    _write_csv(path, ([i, *col] for i, col in enumerate(un.T.tolist())),
               ["user_id", *(f"coord_{o}" for o in range(un.shape[0]))])

