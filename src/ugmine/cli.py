"""Command-line interface: mine, oracle-check, gen, featurize, evaluate, stats.

Exit codes: 0 success, 1 runtime/data failure, 2 usage error. Output is
deterministic given identical flags and inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import random
import sys

import numpy as np

from .classify import evaluate, export_csv, featurize
from .distribution import (
    EXPECTATION,
    MEASURE_KINDS,
    PHI_PROBABILITY,
    MeasureSpec,
    joint_distribution,
    measure_value,
    support_distribution,
)
from .graphs import (
    CertainGraph,
    Dataset,
    DatasetFormatError,
    Subgraph,
    parse_dataset,
    serialize_dataset,
    union_graph,
)
from .miner import MiningConfig, MiningResult, mine, mine_exhaustive
from .oracle import DEFAULT_MAX_WORLDS, WorldCountError, oracle_joint, oracle_measure
from .scores import SCORE_KINDS, ScoreFunction
from .synth import PRESETS, dataset_stats, make_preset

PHI_DEFAULTS = {"hsic": 0.03, "gtest": 200.0, "ratio": 1.0, "conf": 0.5}


class UsageError(Exception):
    """Invalid flag combination or unusable input path."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise UsageError(message)


def _json_value(x: float) -> float | str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def _add_dataset_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="dataset JSON file")


def _add_measure_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--measure", choices=MEASURE_KINDS, default="phi-pr")
    p.add_argument("--score", choices=SCORE_KINDS, default="ratio")
    p.add_argument("--phi", type=float, default=None, help="phi threshold (phi-pr only)")
    p.add_argument("--cap-epsilon", type=float, default=None, help="score cap 1/eps; 0 disables")


def _add_mining_args(p: argparse.ArgumentParser) -> None:
    _add_measure_args(p)
    p.add_argument("--top", type=int, default=100, help="number of features to keep")
    p.add_argument("--min-sup", type=float, default=0.2, help="minimum expected frequency")
    p.add_argument("--max-edges", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ugmine",
        description="Discriminative subgraph mining over uncertain graph datasets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine top-t discriminative subgraph features")
    _add_dataset_arg(p)
    _add_mining_args(p)
    p.add_argument("--no-prune", action="store_true", help="run the exhaustive reference search")
    p.add_argument("--out", help="write the JSON feature list here instead of stdout")

    p = sub.add_parser("oracle-check", help="compare the DP route against brute-force worlds")
    _add_dataset_arg(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_measure_args(p)
    p.add_argument("--max-worlds", type=int, default=DEFAULT_MAX_WORLDS)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--preset", choices=PRESETS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--planted-prob-pos", type=float, help="default 0.9; not for fig2")
    p.add_argument("--planted-prob-neg", type=float, help="default 0.1; not for fig2")
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("featurize", help="export containment-probability features as CSV")
    _add_dataset_arg(p)
    p.add_argument("--features", required=True, help="JSON feature list (mine output)")
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("evaluate", help="mine + classify over repeated stratified splits")
    _add_dataset_arg(p)
    _add_mining_args(p)
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("stats", help="dataset summary statistics")
    _add_dataset_arg(p)
    return parser


def _load_dataset(path: str) -> Dataset:
    if not os.path.isfile(path):
        raise UsageError(f"input file not found: {path}")
    with open(path, "rb") as fh:
        return parse_dataset(fh.read())


def _measure_and_score(args: argparse.Namespace) -> tuple[MeasureSpec, ScoreFunction]:
    """The measure and score of ``_add_measure_args``, with their defaults."""
    if args.phi is not None and args.measure != PHI_PROBABILITY:
        raise UsageError("--phi only applies to the phi-pr measure")
    if args.phi is not None and math.isnan(args.phi):
        raise UsageError("--phi must be a number")
    if args.cap_epsilon is not None and not 0.0 <= args.cap_epsilon < math.inf:
        raise UsageError("--cap-epsilon must be finite and >= 0")
    phi = None
    if args.measure == PHI_PROBABILITY:
        phi = args.phi if args.phi is not None else PHI_DEFAULTS[args.score]
    if args.cap_epsilon is not None:
        cap = args.cap_epsilon
    elif args.measure == EXPECTATION and args.score in ("ratio", "gtest"):
        cap = 0.01  # expectation is fragile to +inf scores; cap by default
    else:
        cap = 0.0
    return MeasureSpec(args.measure, phi), ScoreFunction(args.score, cap)


def _mining_config(args: argparse.Namespace) -> MiningConfig:
    measure, score = _measure_and_score(args)
    if args.top < 1:
        raise UsageError("--top must be >= 1")
    if not 0.0 <= args.min_sup <= 1.0:
        raise UsageError("--min-sup must lie in [0, 1]")
    if args.max_edges is not None and args.max_edges < 1:
        raise UsageError("--max-edges must be >= 1")
    return MiningConfig(
        t=args.top,
        min_sup=args.min_sup,
        measure=measure,
        score=score,
        max_edges=args.max_edges,
    )


def _feature_payload(result: MiningResult, cfg: MiningConfig) -> dict:
    return {
        "measure": cfg.measure.kind,
        "phi": None if cfg.measure.phi is None else _json_value(cfg.measure.phi),
        "score": cfg.score.kind,
        "cap_epsilon": cfg.score.cap_epsilon,
        "min_sup": cfg.min_sup,
        "top": cfg.t,
        "features": [
            {
                "rank": i + 1,
                "edges": [[u, v] for u, v in f.subgraph.edges],
                "measure_value": _json_value(f.measure_value),
                "exp_freq": f.exp_freq,
            }
            for i, f in enumerate(result.features)
        ],
        "stats": {
            "nodes_evaluated": result.stats.nodes_evaluated,
            "frequency_pruned": result.stats.frequency_pruned,
            "bound_pruned": result.stats.bound_pruned,
        },
    }


def _emit(data: str | bytes, out: str | None) -> None:
    """Write ``data`` to stdout, or to the file ``out`` when one is given."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    if out is None:
        sys.stdout.write(data.decode("utf-8"))
    else:
        with open(out, "wb") as fh:
            fh.write(data)


def _run_mine(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.input)
    cfg = _mining_config(args)
    result = (mine_exhaustive if args.no_prune else mine)(dataset, cfg)
    print(f"{'rank':>4}  {'measure':>14}  {'exp_freq':>10}  edges")
    for i, f in enumerate(result.features):
        edges = " ".join(f"({u},{v})" for u, v in f.subgraph.edges)
        print(f"{i + 1:>4}  {f.measure_value:>14.6g}  {f.exp_freq:>10.6g}  {edges}")
    print(
        f"# evaluated {result.stats.nodes_evaluated} nodes, "
        f"pruned {result.stats.frequency_pruned} by frequency, "
        f"{result.stats.bound_pruned} by bound"
    )
    payload = json.dumps(_feature_payload(result, cfg), indent=1) + "\n"
    _emit(payload, args.out)
    return 0


def _random_connected_subgraph(
    rng: random.Random, edges: list, universe: CertainGraph
) -> Subgraph:
    sub = {rng.choice(edges)}
    target = rng.randint(1, 3)
    while len(sub) < target:
        frontier = universe.extensions(sub)
        if not frontier:
            break
        sub.add(rng.choice(frontier))
    return Subgraph(tuple(sorted(sub)))


def _run_oracle_check(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if args.max_worlds < 1:
        raise UsageError("--max-worlds must be >= 1")
    measure, score = _measure_and_score(args)
    dataset = _load_dataset(args.input)
    if dataset.n_pos < 1 or dataset.n_neg < 1:
        raise UsageError("oracle-check needs both classes present")

    universe = union_graph(dataset)
    edges = sorted(universe.edges)
    if not edges:
        print("0/0 matched (empty union graph)")
        return 0

    rng = random.Random(args.seed)
    matched = 0
    for _ in range(args.trials):
        g = _random_connected_subgraph(rng, edges, universe)
        pos = support_distribution(g, dataset.pos)
        neg = support_distribution(g, dataset.neg)
        bf_joint = oracle_joint(g, dataset, args.max_worlds)
        ok = bool(np.max(np.abs(joint_distribution(pos, neg) - bf_joint)) <= 1e-9)
        dp_m = measure_value(pos, neg, score, measure)
        bf_m = oracle_measure(g, dataset, measure, score, args.max_worlds)
        if math.isinf(dp_m) or math.isinf(bf_m):
            ok = ok and dp_m == bf_m
        else:
            ok = ok and abs(dp_m - bf_m) <= 1e-9
        matched += ok
    print(f"{matched}/{args.trials} matched")
    return 0 if matched == args.trials else 1


def _run_gen(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    planted = {}
    for flag, key, p in (
        ("--planted-prob-pos", "planted_prob_pos", args.planted_prob_pos),
        ("--planted-prob-neg", "planted_prob_neg", args.planted_prob_neg),
    ):
        if p is None:
            continue
        if args.preset == "fig2":
            raise UsageError(f"{flag} does not apply to --preset fig2")
        if not 0.0 < p <= 1.0:
            raise UsageError(f"{flag} must lie in (0, 1]")
        planted[key] = p
    dataset = make_preset(args.preset, seed=args.seed, **planted)
    _emit(serialize_dataset(dataset), args.out)
    return 0


def _load_features(path: str) -> list[Subgraph]:
    if not os.path.isfile(path):
        raise UsageError(f"features file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        # ValueError covers bad UTF-8, bad JSON and an integer of more digits
        # than int() converts; RecursionError, JSON nested too deep
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: malformed JSON: {exc}") from exc
    raw = obj.get("features") if isinstance(obj, dict) else obj
    if not isinstance(raw, list):
        raise ValueError(f"{path}: features must be a list")
    features = []
    for k, item in enumerate(raw):
        pairs = item.get("edges") if isinstance(item, dict) else None
        # exact type tests: bool subclasses int, but JSON true/false are no integers
        if not isinstance(pairs, list) or not all(
            isinstance(pair, list) and len(pair) == 2 and all(type(n) is int for n in pair)
            for pair in pairs
        ):
            raise ValueError(
                f"{path}: feature {k}: expected an \"edges\" list of [u, v] integer pairs"
            )
        try:
            features.append(Subgraph.from_edges(pairs))
        except ValueError as exc:
            raise ValueError(f"{path}: feature {k}: {exc}") from exc
    return features


def _run_featurize(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.input)
    features = _load_features(args.features)
    if not features:
        raise UsageError("features file holds no features")
    _emit(export_csv(featurize(dataset, features)), args.out)
    return 0


def _run_evaluate(args: argparse.Namespace) -> int:
    if args.repeats < 1:
        raise UsageError("--repeats must be >= 1")
    if not 0.0 < args.train_fraction < 1.0:
        raise UsageError("--train-fraction must lie strictly between 0 and 1")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    dataset = _load_dataset(args.input)
    cfg = _mining_config(args)
    report = evaluate(
        dataset,
        cfg,
        repeats=args.repeats,
        train_fraction=args.train_fraction,
        seed=args.seed,
    )
    print(f"{'repeat':>6}  {'error':>8}  {'f1':>8}")
    for i, (e, f) in enumerate(zip(report.error_rates, report.f1_scores)):
        print(f"{i:>6}  {e:>8.4f}  {f:>8.4f}")
    print(f"error rate: {report.mean_error:.4f} +- {report.std_error:.4f}")
    print(f"f1 score:   {report.mean_f1:.4f} +- {report.std_f1:.4f}")
    payload = {
        "repeats": args.repeats,
        "train_fraction": args.train_fraction,
        "seed": args.seed,
        **dataclasses.asdict(report),
    }
    _emit(json.dumps(payload, indent=1) + "\n", args.out)
    return 0


def _run_stats(args: argparse.Namespace) -> int:
    payload = dataclasses.asdict(dataset_stats(_load_dataset(args.input)))
    sys.stdout.write(json.dumps(payload, indent=1) + "\n")
    return 0


_RUNNERS = {
    "mine": _run_mine,
    "oracle-check": _run_oracle_check,
    "gen": _run_gen,
    "featurize": _run_featurize,
    "evaluate": _run_evaluate,
    "stats": _run_stats,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _RUNNERS[args.command](args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DatasetFormatError, WorldCountError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
