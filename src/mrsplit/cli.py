"""Command-line entry point: split graphs, trace rank-one distance over
deep stacks, verify the theorem suites, and run the training comparison.

Exit codes: 0 success, 1 verification failure, 2 usage or I/O error. All
subcommands are deterministic given identical arguments and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .diagnostics import run_full_suite
from .graph import GraphError, load_edge_list
from .ordering import order_by
from .split import split_edges, split_summary
from .trainer import ModelConfig, TaskParams, compare_base_vs_split, make_synthetic_task
from .trajectories import TraceConfig, rod_trace

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_split(args: argparse.Namespace) -> int:
    try:
        with open(args.input, "rb") as fh:
            g = load_edge_list(fh, format=args.format, undirected=args.undirected)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    scores = order_by(
        args.ordering, g, args.seed, ppr_alpha=args.ppr_alpha, ppr_iters=args.ppr_iters
    )
    mrg = split_edges(g, scores)
    payload = split_summary(mrg)
    payload["seed"] = args.seed
    _write_text(args.output, _json_dumps(payload))
    return EXIT_OK


def cmd_rod_trace(args: argparse.Namespace) -> int:
    config = TraceConfig(
        variants=tuple(args.variants.split(",")),
        num_graphs=args.graphs,
        layers=args.layers,
        dim=args.dim,
        ordering=args.ordering,
        seed=args.seed,
    )
    traces = rod_trace(config)
    lines = ["iter,variant,rod_mean,dirichlet_mean"]
    for it in range(config.layers):
        for variant in config.variants:
            r = traces[variant]["rod_mean"][it]
            e = traces[variant]["dirichlet_mean"][it]
            lines.append(f"{it + 1},{variant},{r!r},{e!r}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    reports = run_full_suite(seed=args.seed, trials=args.trials)
    bundle = {
        "seed": args.seed,
        "trials": args.trials,
        "reports": [r.to_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    if args.trials == 0:
        bundle["warning"] = "trials=0: vacuous pass"
    _write_text(args.output, _json_dumps(bundle))
    if not bundle["all_passed"]:
        for r in reports:
            if not r.passed:
                print(
                    f"verification failed: {r.theorem} "
                    f"({r.failures}/{r.trials} trials)",
                    file=sys.stderr,
                )
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    task = make_synthetic_task(
        TaskParams(count=args.count, seed=args.seed)
    )
    config = ModelConfig(
        variant=args.variant,
        layers=args.layers,
        width=args.dim,
        ordering=args.ordering,
        residual=args.residual,
        jk=args.jk,
        lr=args.lr,
        epochs=args.epochs,
    )
    seeds = tuple(range(args.model_seeds))
    outcome = compare_base_vs_split(task, config, seeds=seeds)
    lines = ["variant,seed,epoch,train_mae"]
    for run in outcome["runs"]:
        for epoch, mae in enumerate(run["base_trace"]):
            lines.append(f"{outcome['base_variant']},{run['seed']},{epoch},{mae!r}")
        for epoch, mae in enumerate(run["mrs_trace"]):
            lines.append(f"{outcome['mrs_variant']},{run['seed']},{epoch},{mae!r}")
    winner = outcome["mrs_variant"] if outcome["mrs_wins_all"] else "mixed"
    finals = [
        f"seed {r['seed']}: {outcome['base_variant']}={r['base_final']!r} "
        f"{outcome['mrs_variant']}={r['mrs_final']!r}"
        for r in outcome["runs"]
    ]
    lines.append(f"# summary: winner={winner}; " + "; ".join(finals))
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Puts "error:" first in a usage error, as in every other exit-2 message."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"error: {self.prog}: {message}\n{self.format_usage()}")


def _seed(text: str) -> int:
    """The type of every --seed: numpy accepts only non-negative integer seeds."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mrsplit",
        description="Split graphs into acyclic edge relations, run "
        "multi-relational message passing, and verify its rank guarantees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_split = sub.add_parser("split", help="partition a graph's edges")
    p_split.add_argument("--input", required=True)
    p_split.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p_split.add_argument("--undirected", action="store_true")
    p_split.add_argument(
        "--ordering", choices=("random", "features", "ppr", "degree"),
        default="degree",
    )
    p_split.add_argument("--seed", type=_seed, default=0)
    p_split.add_argument("--ppr-alpha", type=float, default=0.1)
    p_split.add_argument("--ppr-iters", type=int, default=15)
    p_split.add_argument("--output", default="-")
    p_split.set_defaults(func=cmd_split)

    p_trace = sub.add_parser(
        "rod-trace", help="rank-one distance over deep layer stacks"
    )
    p_trace.add_argument("--variants", default="gcn,mrs_gcn,sage,mrs_sage")
    p_trace.add_argument("--graphs", type=int, default=50)
    p_trace.add_argument("--layers", type=int, default=128)
    p_trace.add_argument("--dim", type=int, default=16)
    p_trace.add_argument("--ordering", choices=("degree", "random"), default="degree")
    p_trace.add_argument("--seed", type=_seed, default=0)
    p_trace.add_argument("--output", default="-")
    p_trace.set_defaults(func=cmd_rod_trace)

    p_verify = sub.add_parser("verify", help="run the theorem suites")
    p_verify.add_argument("--seed", type=_seed, default=0)
    p_verify.add_argument("--trials", type=int, default=500)
    p_verify.add_argument("--output", default="-")
    p_verify.set_defaults(func=cmd_verify)

    p_train = sub.add_parser(
        "train", help="base vs split training comparison on the synthetic task"
    )
    p_train.add_argument("--variant", choices=("gcn", "sage"), default="gcn")
    p_train.add_argument("--count", type=int, default=128)
    p_train.add_argument("--layers", type=int, default=4)
    p_train.add_argument("--dim", type=int, default=32)
    p_train.add_argument(
        "--ordering", choices=("random", "features", "ppr", "degree"),
        default="degree",
    )
    p_train.add_argument("--residual", action="store_true")
    p_train.add_argument("--jk", choices=("none", "cat", "max"), default="none")
    p_train.add_argument("--lr", type=float, default=0.3)
    p_train.add_argument("--epochs", type=int, default=300)
    p_train.add_argument("--seed", type=_seed, default=0)
    p_train.add_argument("--model-seeds", type=int, default=3)
    p_train.add_argument("--output", default="-")
    p_train.set_defaults(func=cmd_train)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:  # pragma: no cover - console script shim
    raise SystemExit(main())
