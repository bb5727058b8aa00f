"""Command-line entry point: split graphs, trace rank-one distance over
deep stacks, verify the theorem suites, and run the training comparison.

Exit codes: 0 success, 1 verification failure, 2 usage or I/O error. All
subcommands are deterministic given identical arguments and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from typing import Optional

from .diagnostics import run_full_suite
from .graph import GraphError, load_edge_list
from .ordering import ORDERINGS, PPR_ALPHA, PPR_ITERS, order_by
from .split import split_edges, split_json
from .trainer import ModelConfig, TaskParams, compare_base_vs_split, make_synthetic_task
from .trajectories import DEFAULT_VARIANTS, TRACE_ORDERINGS, TraceConfig, rod_trace

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2


def _open_output(path: str):
    """The --output stream as a context manager: stdout for "-", else path
    opened for writing. rod-trace, verify and train open it before their
    main work, so an unwritable path fails at once. split opens it only
    once its text is built, so --output may name --input and a failed split
    leaves no file behind."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def cmd_split(args: argparse.Namespace) -> int:
    try:
        with open(args.input, "rb") as fh:
            g = load_edge_list(fh, format=args.format, undirected=args.undirected)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    scores = order_by(
        args.ordering, g, args.seed,
        ppr_alpha=args.ppr_alpha, ppr_iters=args.ppr_iters,
    )
    text = split_json(split_edges(g, scores), args.seed)
    with _open_output(args.output) as fh:
        fh.write(text)
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
    with _open_output(args.output) as fh:
        traces = rod_trace(config)
        lines = ["iter,variant,rod_mean,dirichlet_mean"]
        for it in range(config.layers):
            for variant in config.variants:
                r = traces[variant]["rod_mean"][it]
                e = traces[variant]["dirichlet_mean"][it]
                lines.append(f"{it + 1},{variant},{float(r)!r},{float(e)!r}")
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    with _open_output(args.output) as fh:
        reports = run_full_suite(seed=args.seed, trials=args.trials)
        failed = [r for r in reports if not r.passed]
        bundle = {
            "seed": args.seed,
            "trials": args.trials,
            "reports": [r.to_dict() for r in reports],
            "all_passed": not failed,
        }
        if args.trials == 0:
            bundle["warning"] = "trials=0: vacuous pass"
        fh.write(json.dumps(bundle, indent=2, sort_keys=True) + "\n")
    for r in failed:
        print(
            f"verification failed: {r.theorem} ({r.failures}/{r.trials} trials)",
            file=sys.stderr,
        )
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    params = TaskParams(count=args.count, seed=args.seed)
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
    with _open_output(args.output) as fh:
        seeds = tuple(range(args.model_seeds))
        pairs = compare_base_vs_split(make_synthetic_task(params), config, seeds)
        results = [result for pair in pairs for result in pair]
        for result in results:
            if result.diverged:
                print(
                    f"error: {result.config.variant} diverged at model seed "
                    f"{result.config.seed}: the training loss became non-finite; "
                    f"try a smaller --lr than {args.lr!r}",
                    file=sys.stderr,
                )
                return EXIT_USAGE
        lines = ["variant,seed,epoch,train_mae"]
        for result in results:
            lines.extend(
                f"{result.config.variant},{result.config.seed},{epoch},{mae!r}"
                for epoch, mae in enumerate(result.trace)
            )
        split_wins = all(split.final_mae < base.final_mae for base, split in pairs)
        winner = pairs[0][1].config.variant if split_wins else "mixed"
        finals = [
            f"seed {base.config.seed}: {base.config.variant}={base.final_mae!r} "
            f"{split.config.variant}={split.final_mae!r}"
            for base, split in pairs
        ]
        lines.append(f"# summary: winner={winner}; " + "; ".join(finals))
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Puts "error:" first in a usage error, as in every other exit-2 message."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"error: {self.prog}: {message}\n{self.format_usage()}")


def _non_negative_int(text: str) -> int:
    """The type of every --seed (numpy accepts only non-negative integer
    seeds), of --ppr-iters and of --trials."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return int(text)


def _checked(parse, ok, rule: str):
    """An argparse type: text that parse() accepts and whose value passes
    ok(), else a usage error naming the rule. NaN fails every comparison."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            pass
        else:
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {rule}, got {text!r}")

    return convert


_ppr_alpha = _checked(float, lambda a: 0.0 <= a <= 1.0, "a finite number in [0, 1]")
_lr = _checked(float, lambda lr: 0.0 < lr < math.inf, "a finite number > 0")
_positive_int = _checked(int, lambda k: k >= 1, "an integer >= 1")


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
    # features needs a feature matrix, which an edge list does not carry.
    split_orderings = tuple(m for m in ORDERINGS if m != "features")
    p_split.add_argument("--ordering", choices=split_orderings, default="degree")
    p_split.add_argument("--seed", type=_non_negative_int, default=0)
    p_split.add_argument("--ppr-alpha", type=_ppr_alpha, default=PPR_ALPHA)
    p_split.add_argument("--ppr-iters", type=_non_negative_int, default=PPR_ITERS)
    p_split.add_argument("--output", default="-")
    p_split.set_defaults(func=cmd_split)

    p_trace = sub.add_parser(
        "rod-trace", help="rank-one distance over deep layer stacks"
    )
    p_trace.add_argument("--variants", default=",".join(DEFAULT_VARIANTS))
    p_trace.add_argument("--graphs", type=int, default=50)
    p_trace.add_argument("--layers", type=int, default=128)
    p_trace.add_argument("--dim", type=int, default=16)
    p_trace.add_argument("--ordering", choices=TRACE_ORDERINGS, default="degree")
    p_trace.add_argument("--seed", type=_non_negative_int, default=0)
    p_trace.add_argument("--output", default="-")
    p_trace.set_defaults(func=cmd_rod_trace)

    p_verify = sub.add_parser("verify", help="run the theorem suites")
    p_verify.add_argument("--seed", type=_non_negative_int, default=0)
    p_verify.add_argument("--trials", type=_non_negative_int, default=500)
    p_verify.add_argument("--output", default="-")
    p_verify.set_defaults(func=cmd_verify)

    p_train = sub.add_parser(
        "train", help="base vs split training comparison on the synthetic task"
    )
    p_train.add_argument("--variant", choices=("gcn", "sage"), default="gcn")
    p_train.add_argument("--count", type=int, default=128)
    p_train.add_argument("--layers", type=int, default=4)
    p_train.add_argument("--dim", type=int, default=32)
    p_train.add_argument("--ordering", choices=ORDERINGS, default="degree")
    p_train.add_argument("--residual", action="store_true")
    p_train.add_argument("--jk", choices=("none", "cat", "max"), default="none")
    p_train.add_argument("--lr", type=_lr, default=0.3)
    p_train.add_argument("--epochs", type=int, default=300)
    p_train.add_argument("--seed", type=_non_negative_int, default=0)
    p_train.add_argument("--model-seeds", type=_positive_int, default=3)
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
    except OSError as exc:  # split reads its input under a handler of its own
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:  # pragma: no cover - console script shim
    raise SystemExit(main())
