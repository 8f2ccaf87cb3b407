"""Command-line front end: learn from user data, simulate, benchmark.

Exit codes: 0 success, 2 malformed input or configuration, 3 algorithm
failure. User errors never produce a traceback.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import secrets
import sys
from pathlib import Path

from . import bench
from .data import InvalidData, counts_from_csv, counts_to_csv, outlier_filter
from .graphs import (
    GraphError,
    edges_to_text,
    ordering_from_text,
    ordering_to_text,
)
from .learn import or_lpgm_detailed, or_ppgm_detailed
from .scores import pk2_detailed
from .simulate import SimConfig, simulate

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_ALGORITHM = 3

#: The learners `learn` runs: every bench algorithm that takes a config.
ALGOS = tuple(a.replace("_", "-") for a, (cfg, _) in bench.ALGORITHMS.items() if cfg is not None)


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_BAD_INPUT):
        super().__init__(message)
        self.code = code


#: learn flags that configure the learner: every option key of a bench
#: algorithm. A flag left unset keeps the learner's default.
_LEARNER_FLAGS = sorted(set().union(*(keys for _, keys in bench.ALGORITHMS.values())))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="countdag",
        description="Structure learning of DAGs from count data with a known ordering.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    learn = sub.add_parser("learn", help="estimate a DAG from a counts CSV")
    learn.add_argument("--counts", required=True, help="counts CSV (optional header)")
    learn.add_argument("--ordering", required=True,
                       help="one line of comma-separated column labels, earliest first")
    learn.add_argument("--algo", choices=ALGOS, default="or-ppgm")
    learn.add_argument("--alpha", type=float, default=None, help="significance level")
    learn.add_argument("--alpha-b", type=float, default=None,
                       help="exponent b for the schedule 2(1-Phi(n^b))")
    learn.add_argument("--m", type=int, default=None,
                       help="max conditioning-set cardinality (or-ppgm)")
    learn.add_argument("--max-parents", type=int, default=None,
                       help="parent cap for the score search")
    learn.add_argument("--out", default=None, help="edge-list output path (default stdout)")
    learn.add_argument("--report", default=None, help="JSON report output path")
    learn.add_argument("--filter-outliers", action="store_true",
                       help="drop rows with entries beyond 3 sd of the column mean")
    # Accepted and ignored: the learners run serially.
    learn.add_argument("--threads", type=int, help=argparse.SUPPRESS)

    simulate = sub.add_parser("simulate", help="generate a benchmark graph and dataset")
    simulate.add_argument("--kind", choices=("scale_free", "hub", "erdos_renyi"),
                          required=True)
    simulate.add_argument("--p", type=int, required=True)
    simulate.add_argument("--n", type=int, required=True)
    simulate.add_argument("--seed", type=int, default=None,
                          help="RNG seed (default: random, printed)")
    simulate.add_argument("--er-gamma", type=float, default=0.2)
    simulate.add_argument("--hub-count", type=int, default=2)
    simulate.add_argument("--sf-power", type=float, default=0.01)
    simulate.add_argument("--sf-zero-appeal", type=float, default=None)
    simulate.add_argument("--root-log-rate", type=float, default=0.0)
    simulate.add_argument("--out-prefix", required=True,
                          help="writes PREFIX.counts.csv, PREFIX.truth.edges, "
                               "PREFIX.weights.csv, PREFIX.ordering.txt")

    bench_p = sub.add_parser("bench", help="run a Monte-Carlo experiment from JSON config")
    bench_p.add_argument("--config", required=True, help="experiment JSON path")
    bench_p.add_argument("--out-prefix", default=None,
                         help="also write PREFIX.csv and PREFIX.json")
    bench_p.add_argument("--threads", type=int, default=1,
                         help="worker processes running replicates (default 1)")

    return parser


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of ``path``, without a leading byte-order mark."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {what} {path!r}: {exc}") from exc


def _write_text(path: str, text: str, what: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {what} {path!r}: {exc}") from exc


def _check_writable(path: str, what: str) -> None:
    """Fail before any work runs if ``path``'s directory cannot take a file."""
    directory = Path(path).parent
    if not (directory.is_dir() and os.access(directory, os.W_OK)):
        raise CliError(
            f"cannot write {what} {path!r}: {str(directory)!r} is not a writable directory"
        )


def _learner(args: argparse.Namespace) -> bench.LearnerSpec:
    options = {k: v for k in _LEARNER_FLAGS if (v := getattr(args, k)) is not None}
    if "alpha" in options and "alpha_b" in options:
        raise CliError("give only one of --alpha / --alpha-b")
    _, keys = bench.ALGORITHMS[args.algo.replace("-", "_")]
    if "alpha" in keys and "alpha_b" not in options:
        options.setdefault("alpha", 0.05)
    try:
        return bench.learner_from_dict({"algo": args.algo, **options})
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def cmd_learn(args: argparse.Namespace) -> int:
    spec = _learner(args)
    try:
        data = counts_from_csv(_read_text(args.counts, "counts CSV"))
    except (InvalidData, GraphError) as exc:  # GraphError: repeated column labels
        raise CliError(f"counts CSV {args.counts!r}: {exc}") from exc
    try:
        ordering = ordering_from_text(
            _read_text(args.ordering, "ordering file"), data.column_labels()
        )
    except GraphError as exc:
        raise CliError(f"ordering file {args.ordering!r}: {exc}") from exc

    for path, what in ((args.out, "edge list"), (args.report, "report")):
        if path:
            _check_writable(path, what)

    dropped = 0
    if args.filter_outliers:
        try:
            data, dropped = outlier_filter(data)
        except InvalidData as exc:
            raise CliError(f"outlier filter: {exc}") from exc

    # Looked up when called, so a name rebound in this module is the one run.
    runners = {"or_ppgm": or_ppgm_detailed, "or_lpgm": or_lpgm_detailed,
               "pkbic": pk2_detailed, "pkaic": pk2_detailed}
    try:
        dag, learned = runners[spec.algo](data, ordering, spec.config)
    except (InvalidData, GraphError) as exc:
        raise CliError(f"learning failed: {exc}", EXIT_ALGORITHM) from exc

    labels = data.column_labels()
    report = {
        "algorithm": args.algo,
        "n": data.n,
        "p": data.p,
        "rows_dropped_by_outlier_filter": dropped,
        **learned.as_json(labels),
        "edges": [{"from": labels[t], "to": labels[s]} for t, s in sorted(dag.edges)],
    }

    edge_text = edges_to_text(dag)
    if args.out:
        _write_text(args.out, edge_text, "edge list")
    else:
        sys.stdout.write(edge_text)
    if args.report:
        _write_text(args.report, json.dumps(report, indent=2, allow_nan=False) + "\n", "report")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else secrets.randbits(63)
    try:
        cfg = SimConfig(
            graph_kind=args.kind,
            p=args.p,
            n=args.n,
            seed=seed,
            er_gamma=args.er_gamma,
            hub_count=args.hub_count,
            sf_power=args.sf_power,
            sf_zero_appeal=args.sf_zero_appeal,
            root_log_rate=args.root_log_rate,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    print(f"seed: {seed}")

    try:
        wdag, ordering, data = simulate(cfg)
    except Exception as exc:  # RowRejectionLimit or numeric trouble
        raise CliError(f"sampling failed: {exc}", EXIT_ALGORITHM) from exc

    prefix = args.out_prefix
    dag, labels = wdag.dag, wdag.dag.labels
    _write_text(f"{prefix}.counts.csv", counts_to_csv(data), "counts CSV")
    _write_text(f"{prefix}.truth.edges", edges_to_text(dag), "edge list")
    weight_lines = ["t,s,theta"]
    weight_lines += [
        f"{labels[t]},{labels[s]},{wdag.weights[(t, s)]!r}" for t, s in sorted(dag.edges)
    ]
    _write_text(f"{prefix}.weights.csv", "\n".join(weight_lines) + "\n", "weights CSV")
    _write_text(f"{prefix}.ordering.txt", ordering_to_text(ordering, labels), "ordering file")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    if args.threads < 1:
        raise CliError(f"--threads must be >= 1, got {args.threads}")
    raw = _read_text(args.config, "experiment config")
    try:
        exp = bench.experiment_from_dict(json.loads(raw))
    except (json.JSONDecodeError, ValueError, TypeError) as exc:
        raise CliError(f"experiment config {args.config!r}: {exc}") from exc
    if args.out_prefix:
        _check_writable(args.out_prefix, "results")
    print(f"seed: {exp.sim.seed}")
    try:
        result = bench.run(exp, threads=args.threads).aggregate()
    except RuntimeError as exc:
        raise CliError(str(exc), EXIT_ALGORITHM) from exc
    rows = bench.table_rows([result])
    sys.stdout.write(bench.render_text(rows))
    if args.out_prefix:
        _write_text(f"{args.out_prefix}.csv", bench.render_csv(rows), "table CSV")
        payload = dataclasses.asdict(result)
        payload["learners"] = payload.pop("summaries")
        _write_text(f"{args.out_prefix}.json",
                    json.dumps(payload, indent=2, allow_nan=False) + "\n", "results JSON")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    handlers = {"learn": cmd_learn, "simulate": cmd_simulate, "bench": cmd_bench}
    try:
        return handlers[args.subcommand](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # noqa: BLE001 - no tracebacks on user data
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ALGORITHM


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
