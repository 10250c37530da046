"""Command-line interface: simulate, sweep, compare, synth, verify-theory.

Flags mirror the experiment configuration; a JSON config file may supply any
flag (explicit flags win). Exit codes: 0 success, 2 validation error,
1 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from .catalog import ModelParams
from .errors import (
    IndexOutOfRange,
    InvalidItem,
    InvalidRequest,
    IoError,
    ParseError,
    RecloopError,
)
from .experiment import (
    ExperimentConfig,
    RunSummary,
    SyntheticSpec,
    compare_runs,
    export_states,
    generate_synthetic,
    run_experiment,
    sweep,
)
from .mitigation import MitigationConfig, STRATEGIES
from .verify import run_verification

VALIDATION_ERRORS = (InvalidRequest, ParseError, InvalidItem, IndexOutOfRange,
                     ValueError)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file supplying any of these flags")
    ds = p.add_argument_group("dataset")
    ds.add_argument("--n", type=int, help="synthetic user count")
    ds.add_argument("--m", type=int, help="synthetic item count")
    ds.add_argument("--c", type=int, help="synthetic category count")
    ds.add_argument("--links", type=int, help="synthetic social link count")
    ds.add_argument("--items-file")
    ds.add_argument("--interactions-file")
    ds.add_argument("--trust-file")
    ds.add_argument("--dataset-kind", choices=("synthetic", "ciao", "epinions"))
    mp = p.add_argument_group("model parameters")
    mp.add_argument("--alpha", type=float)
    mp.add_argument("--beta", type=float)
    mp.add_argument("--gamma", type=float)
    mp.add_argument("--epsilon", type=float)
    mp.add_argument("--eta", type=float)
    mp.add_argument("--h", type=int)
    rn = p.add_argument_group("run")
    rn.add_argument("--steps", type=int)
    rn.add_argument("--metric-every", type=int)
    rn.add_argument("--ts-k", type=int)
    rn.add_argument("--burn-in", type=int)
    rn.add_argument("--pdv-mode", choices=("auto", "exact", "sampled"))
    rn.add_argument("--export-states", action="store_true", default=None,
                    help="dump per-seed final states")
    mt = p.add_argument_group("mitigation")
    mt.add_argument("--strategy", choices=STRATEGIES)
    mt.add_argument("--sigma", type=float)
    mt.add_argument("--rho", type=float)
    mt.add_argument("--theta", type=float)
    mt.add_argument("--omega", type=float)
    mt.add_argument("--candidate-count", type=int)
    mt.add_argument("--sar-strict", action="store_true", default=None)
    mt.add_argument("--ua-rescale-by-n", action="store_true", default=None)


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError as exc:
        raise InvalidRequest(f"bad seed list {text!r}") from exc
    if not seeds:
        raise InvalidRequest("empty seed list")
    return seeds


def _merge_config_file(args: argparse.Namespace) -> dict:
    merged: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as handle:
                merged.update(json.load(handle))
        except OSError as exc:
            raise InvalidRequest(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidRequest(f"bad JSON in {args.config}: {exc}") from exc
    for key, value in vars(args).items():
        if key in ("config", "command", "func") or value is None:
            continue
        merged[key] = value
    return merged


def _config_from_dict(data: dict) -> ExperimentConfig:
    params = ModelParams(
        alpha=float(data.get("alpha", 5.0)),
        beta=float(data.get("beta", 5.0)),
        gamma=float(data.get("gamma", 0.5)),
        epsilon=float(data.get("epsilon", 0.0)),
        eta=float(data.get("eta", 0.1)),
        h=int(data.get("h", 20)),
    )
    mitigation = MitigationConfig(
        strategy=data.get("strategy", "none"),
        sigma=float(data.get("sigma", 10.0)),
        rho=float(data.get("rho", 0.02)),
        theta=float(data.get("theta", 0.501)),
        omega=float(data.get("omega", 1000.0)),
        candidate_count=int(data.get("candidate_count", 1000)),
        sar_strict_denominator=bool(data.get("sar_strict", False)),
        ua_rescale_by_n=bool(data.get("ua_rescale_by_n", False)),
    )
    synthetic = None
    if data.get("items_file") is None:
        synthetic = SyntheticSpec(
            n=int(data.get("n", 1000)),
            m=int(data.get("m", 10000)),
            c=int(data.get("c", 10)),
            links=int(data.get("links", 10000)),
        )
    seeds = data.get("seed")
    if seeds is None:
        raise InvalidRequest("--seed is required")
    if isinstance(seeds, (int, str)):
        seeds = _parse_seeds(str(seeds))
    else:
        seeds = tuple(int(s) for s in seeds)
    return ExperimentConfig(
        seeds=seeds,
        steps=int(data.get("steps", 300)),
        synthetic=synthetic,
        items_file=data.get("items_file"),
        interactions_file=data.get("interactions_file"),
        trust_file=data.get("trust_file"),
        dataset_kind=data.get("dataset_kind", "synthetic"),
        params=params,
        mitigation=mitigation,
        metric_every=data.get("metric_every"),
        ts_k=data.get("ts_k"),
        burn_in=int(data.get("burn_in", 0)),
        export_final_states=bool(data.get("export_states", False)),
        pdv_mode=data.get("pdv_mode", "auto"),
    )


def _cmd_simulate(args) -> int:
    data = _merge_config_file(args)
    config = _config_from_dict(data)
    summary = run_experiment(config, args.out_dir)
    print(f"wrote {Path(args.out_dir) / 'metrics.csv'} and summary.json")
    for name, stats in summary.stats.items():
        ci = f" +/- {stats.ci95:.4g}" if stats.ci95 is not None else ""
        print(f"  {name:8s} time-avg mean = {stats.mean:.6g}{ci}")
    return 0


def _cmd_sweep(args) -> int:
    data = _merge_config_file(args)
    config = _config_from_dict(data)
    values = [float(tok) if args.axis in ("alpha", "beta", "gamma", "epsilon")
              else int(tok) for tok in args.values.split(",") if tok.strip()]
    results = sweep(config, args.axis, values, args.out_dir)
    print(f"swept {args.axis} over {values}: {len(results)} summaries "
          f"under {args.out_dir}")
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
        payload = [dataclasses.asdict(row) for row in rows]
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


def _cmd_synth(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    catalog, states, graph = generate_synthetic(
        args.n, args.m, args.c, args.links, args.seed)
    with open(out / "items.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        for j, cats in enumerate(catalog.category_sets):
            writer.writerow([j, ";".join(str(o) for o in cats)])
    with open(out / "trust.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        for i, j in graph.edge_array:
            writer.writerow([int(i), int(j)])
    export_states(states, out / "users.csv")
    print(f"wrote items.csv ({catalog.m} items), trust.csv "
          f"({graph.num_edges} links), users.csv ({states.n} users) to {out}")
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

    p_sim = sub.add_parser("simulate", help="run one configuration")
    _add_common_flags(p_sim)
    p_sim.add_argument("--seed", required=True,
                       help="comma-separated master seeds, e.g. 1,2,3")
    p_sim.add_argument("--out-dir", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="vary one axis, rerun per value")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--seed", required=True)
    p_sweep.add_argument("--out-dir", required=True)
    p_sweep.add_argument("--axis", required=True,
                         choices=("alpha", "beta", "gamma", "epsilon",
                                  "m", "links", "c"))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = sub.add_parser("compare", help="improvement table of two summaries")
    p_cmp.add_argument("--candidate", required=True)
    p_cmp.add_argument("--baseline", required=True)
    p_cmp.add_argument("--out", help="also write the table as JSON")
    p_cmp.set_defaults(func=_cmd_compare)

    p_synth = sub.add_parser("synth", help="emit a synthetic dataset to disk")
    p_synth.add_argument("--n", type=int, default=1000)
    p_synth.add_argument("--m", type=int, default=10000)
    p_synth.add_argument("--c", type=int, default=10)
    p_synth.add_argument("--links", type=int, default=10000)
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
    except (RecloopError, IoError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
