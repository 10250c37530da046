"""Command-line interface: simulate, sweep, compare, synth, verify-theory.

The run flags are read from the config dataclasses: each field has one flag
of its type, and the flag's dest is the field's name (``FIELD_OF`` lists the
three that differ). A JSON config file may supply any flag under its dest
(explicit flags win), ``seed`` and ``out_dir`` included, so a file can
describe a whole run; each value is converted with its flag's type and
choices, and a key that names no flag is a validation error. Exit codes:
0 success, 2 validation error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import typing
from pathlib import Path

import numpy as np

from .catalog import ModelParams
from .errors import (
    IndexOutOfRange,
    InvalidItem,
    InvalidRequest,
    ParseError,
    RecloopError,
)
from .experiment import (
    PARAM_AXES,
    SWEEP_AXES,
    TS_K_DEFAULTS,
    ExperimentConfig,
    RunSummary,
    SyntheticSpec,
    _output_file,
    _write_csv,
    _write_json,
    compare_runs,
    export_states,
    generate_synthetic,
    run_experiment,
    sweep,
)
from .metrics import PDV_MODES
from .mitigation import MitigationConfig, STRATEGIES
from .verify import run_verification

VALIDATION_ERRORS = (InvalidRequest, ParseError, InvalidItem, IndexOutOfRange,
                     ValueError)
# Flag dests that name their field differently.
FIELD_OF = {"seed": "seeds", "export_states": "export_final_states",
            "sar_strict": "sar_strict_denominator"}
CHOICES = {"dataset_kind": tuple(TS_K_DEFAULTS), "pdv_mode": PDV_MODES,
           "strategy": STRATEGIES}
REQUIRED = ("seed", "out_dir")     # from a flag or the config file
HELP = {"n": "synthetic user count", "m": "synthetic item count",
        "c": "synthetic category count", "links": "synthetic social link count",
        "export_final_states": "dump per-seed final states"}


def _add_field_flags(group, cls) -> None:
    """One flag per scalar field of ``cls``, typed as the field: a bool field
    is a switch, and ``X | None`` takes X."""
    dest_of = {name: dest for dest, name in FIELD_OF.items()}
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        kind = next(t for t in typing.get_args(hints[f.name]) or [hints[f.name]]
                    if t is not type(None))
        if f.name == "seeds" or dataclasses.is_dataclass(kind):
            continue
        flag = "--" + dest_of.get(f.name, f.name).replace("_", "-")
        if kind is bool:
            group.add_argument(flag, action="store_true", default=None,
                               help=HELP.get(f.name))
        else:
            group.add_argument(flag, type=kind, choices=CHOICES.get(f.name),
                               help=HELP.get(f.name))


def _run_parser(sub, name: str, help: str, func) -> argparse.ArgumentParser:
    """A subcommand taking every run flag, ``--config``, ``--seed`` and
    ``--out-dir``; the last two may come from the config file instead."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--config", help="JSON file supplying any of these flags")
    for title, cls in (("dataset", SyntheticSpec), ("run", ExperimentConfig),
                       ("model parameters", ModelParams),
                       ("mitigation", MitigationConfig)):
        _add_field_flags(p.add_argument_group(title), cls)
    p.add_argument("--seed", help="comma-separated master seeds, e.g. 1,2,3")
    p.add_argument("--out-dir")
    p.set_defaults(func=functools.partial(func, p))
    return p


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise InvalidRequest(f"bad seed list {text!r}") from exc
    if not seeds:
        raise InvalidRequest("empty seed list")
    return seeds


def _file_value(action: argparse.Action, key: str, value):
    """A config-file value converted as its flag converts the command line:
    a switch takes a JSON bool, any other flag a string or a number (not a
    bool), and ``seed`` also a list of seeds."""
    if key == "seed" and isinstance(value, list):
        value = ",".join(map(str, value))
    switch = action.nargs == 0
    if isinstance(value, bool) != switch or not isinstance(value, (int, float, str)):
        raise InvalidRequest(f"config key {key!r} takes "
                             f"{'true or false' if switch else 'a string or number'}, "
                             f"not {json.dumps(value)}")
    if switch:
        return value
    try:
        value = (action.type or str)(str(value))
    except ValueError as exc:
        raise InvalidRequest(f"config key {key!r}: {exc}") from exc
    if action.choices is not None and value not in action.choices:
        raise InvalidRequest(f"config key {key!r} must be one of "
                             f"{tuple(action.choices)}, not {value!r}")
    return value


def _merge_config_file(parser: argparse.ArgumentParser,
                       args: argparse.Namespace) -> dict:
    """The config file's keys, each the dest of a flag (e.g. ``ts_k``), under
    the flags given on the command line; any other file key is rejected."""
    merged: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as handle:
                merged = json.load(handle)
        except OSError as exc:
            raise InvalidRequest(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidRequest(f"bad JSON in {args.config}: {exc}") from exc
        if not isinstance(merged, dict):
            raise InvalidRequest(f"config {args.config} must hold a JSON object")
        actions = {action.dest: action for action in parser._actions
                   if action.dest not in ("config", "help")}
        unknown = sorted(set(merged) - set(actions))
        if unknown:
            raise InvalidRequest(f"unknown key(s) {', '.join(map(repr, unknown))} "
                                 f"in config {args.config}")
        merged = {key: _file_value(actions[key], key, value)
                  for key, value in merged.items()}
    for key, value in vars(args).items():
        if key in ("config", "command", "func") or value is None:
            continue
        merged[key] = value
    for key in REQUIRED:
        if key not in merged:
            parser.error(f"the following arguments are required: "
                         f"--{key.replace('_', '-')} (or config key {key!r})")
    return merged


def _config_from_dict(data: dict) -> ExperimentConfig:
    """The config whose fields the keys of ``data`` name, through
    ``FIELD_OF``; an absent key leaves its field's default."""
    values = {FIELD_OF.get(key, key): value for key, value in data.items()}
    values["seeds"] = _parse_seeds(values["seeds"])

    def build(cls, **nested):
        return cls(**{f.name: values[f.name] for f in dataclasses.fields(cls)
                      if f.name in values}, **nested)

    synthetic = build(SyntheticSpec) if values.get("items_file") is None else None
    return build(ExperimentConfig, synthetic=synthetic, params=build(ModelParams),
                 mitigation=build(MitigationConfig))


def _cmd_simulate(parser, args) -> int:
    merged = _merge_config_file(parser, args)
    summary = run_experiment(_config_from_dict(merged), merged["out_dir"])
    print(f"wrote {Path(merged['out_dir']) / 'metrics.csv'} and summary.json")
    for name, stats in summary.stats.items():
        ci = f" +/- {stats.ci95:.4g}" if stats.ci95 is not None else ""
        print(f"  {name:8s} time-avg mean = {stats.mean:.6g}{ci}")
    return 0


def _cmd_sweep(parser, args) -> int:
    merged = _merge_config_file(parser, args)
    kind = float if args.axis in PARAM_AXES else int
    values = [kind(tok) for tok in args.values.split(",") if tok.strip()]
    results = sweep(_config_from_dict(merged), args.axis, values, merged["out_dir"])
    print(f"swept {args.axis} over {values}: {len(results)} summaries "
          f"under {merged['out_dir']}")
    return 0


def _read_summary(path: str) -> RunSummary:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read summary {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON in {path}: {exc}") from exc
    return RunSummary.from_json_dict(data)


def _cmd_compare(args) -> int:
    candidate = _read_summary(args.candidate)
    baseline = _read_summary(args.baseline)
    rows = compare_runs(candidate, baseline)
    header = f"{'metric':10s} {'dir':5s} {'baseline':>12s} {'candidate':>12s} " \
             f"{'improv%':>9s} {'p-value':>8s}"
    print(header)
    for row in rows:
        p = "n/a" if row.p_value is None else f"{row.p_value:.3f}"
        print(f"{row.metric:10s} {row.arrow:5s} {row.baseline_mean:12.6f} "
              f"{row.candidate_mean:12.6f} {row.improvement_pct:9.2f} {p:>8s}")
    if args.out:
        _write_json(args.out, [dataclasses.asdict(row) for row in rows])
    return 0


def _synthetic_ratings(U: np.ndarray, category: np.ndarray, seed: int):
    """(user, item, rating) columns sorted by user, then item.

    User i rates min(round(20 |u_ic|), size of category c) distinct items of
    each category c, 5 where u_ic > 0 and 1 where u_ic < 0, so the history
    start of user i points along u_i up to rounding. The items are drawn from
    the fourth child of ``seed``; ``generate_synthetic`` uses the first three.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[3])
    users, items = [], []
    for c, row in enumerate(U):
        pool = np.flatnonzero(category == c)
        counts = np.minimum(np.rint(20 * np.abs(row)), pool.size)
        for lo in range(0, row.size, 4096):
            block = counts[lo:lo + 4096, None]
            picks = np.argsort(rng.random((block.size, pool.size)), axis=1)
            who, rank = np.nonzero(np.arange(pool.size) < block)
            users.append(who + lo)
            items.append(pool[picks[who, rank]])
    order = np.lexsort((np.concatenate(items), np.concatenate(users)))
    users, items = np.concatenate(users)[order], np.concatenate(items)[order]
    return users, items, np.where(U[category[items], users] > 0, 5, 1)


def _cmd_synth(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    catalog, states, graph = generate_synthetic(
        args.n, args.m, args.c, args.links, args.seed)
    category = catalog.item_vectors.argmax(axis=0)
    ratings = _synthetic_ratings(states.user_matrix, category, args.seed)
    with _output_file(out / "interactions.csv", newline="") as handle:
        np.savetxt(handle, np.column_stack(ratings), fmt="%d", delimiter=",")
    _write_csv(out / "items.csv", enumerate(category.tolist()))
    _write_csv(out / "trust.csv", graph.edge_array.tolist())
    export_states(states, out / "users.csv")
    print(f"wrote items.csv ({catalog.m} items), interactions.csv "
          f"({ratings[0].size} ratings), trust.csv ({graph.num_edges} links), "
          f"users.csv ({states.n} users) to {out}")
    return 0


def _cmd_verify_theory(args) -> int:
    results = run_verification(seed=args.seed, quick=args.quick)
    failed = 0
    for res in results:
        tag = "PASS" if res.ok else "FAIL"
        print(f"[{tag}] {res.name}: {res.detail}")
        failed += 0 if res.ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recloop",
        description="Closed-loop recommender-user dynamics simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    _run_parser(sub, "simulate", "run one configuration", _cmd_simulate)
    p_sweep = _run_parser(sub, "sweep", "vary one axis, rerun per value", _cmd_sweep)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values")

    p_cmp = sub.add_parser("compare", help="improvement table of two summaries")
    p_cmp.add_argument("--candidate", required=True)
    p_cmp.add_argument("--baseline", required=True)
    p_cmp.add_argument("--out", help="also write the table as JSON")
    p_cmp.set_defaults(func=_cmd_compare)

    p_synth = sub.add_parser("synth", help="emit a synthetic dataset to disk")
    _add_field_flags(p_synth, SyntheticSpec)
    p_synth.set_defaults(**dataclasses.asdict(SyntheticSpec()))
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--out-dir", required=True)
    p_synth.set_defaults(func=_cmd_synth)

    p_ver = sub.add_parser("verify-theory", help="numerical theory checks")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--quick", action="store_true")
    p_ver.set_defaults(func=_cmd_verify_theory)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VALIDATION_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (RecloopError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
