"""Command-line interface.

Subcommands: design, sample-prior, decode, bounds, experiment,
mismatch-graph, mismatch-lambda.  Exit codes: 0 success, 1 usage error,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional

from . import bounds as bounds_mod
from .decoders import decode, decoder_spec
from .harness import (PRESETS, ExperimentConfig, blocks_csv, blocks_json, emit,
                      render_report, run_experiment, run_graph_mismatch,
                      run_lambda_mismatch)
from .milp import NumericalError
from .prior import (IsingPrior, build_block, build_grid, gibbs_sample,
                    load_edge_list, subsample_vertices)
from .rng import RNG_ID
from .testing import (OutcomeVector, bernoulli_design, design_from_text,
                      design_to_csv, design_to_json)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


def _write(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _graph_from_args(args):
    if args.grid:
        return build_grid(args.grid[0], args.grid[1])
    if args.block:
        return build_block(*args.block)
    if args.edge_list:
        g = load_edge_list(args.edge_list)
        if args.subsample is not None:
            g = subsample_vertices(g, args.subsample, args.seed)
        return g
    raise UsageError("specify a graph via --grid, --block, or --edge-list")


def _add_graph_flags(sub):
    sub.add_argument("--grid", type=int, nargs=2, metavar=("ROWS", "COLS"))
    sub.add_argument("--block", type=int, nargs=4,
                     metavar=("BLOCKS_R", "BLOCKS_C", "BLOCK_ROWS", "BLOCK_COLS"))
    sub.add_argument("--edge-list", type=str)
    sub.add_argument("--subsample", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gtprior",
                     description="Group-testing simulation and decoding with "
                                 "Ising priors")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--format", choices=("csv", "json"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="emit a Bernoulli test design")
    p.set_defaults(run=_cmd_design)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)

    p = sub.add_parser("sample-prior", help="Gibbs-sample a defectivity vector")
    p.set_defaults(run=_cmd_sample_prior)
    _add_graph_flags(p)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--sweeps", type=int, default=1000)

    p = sub.add_parser("decode", help="decode outcomes against a design")
    p.set_defaults(run=_cmd_decode)
    p.add_argument("--design", type=str, required=True,
                   help="design file (CSV or JSON serialization)")
    p.add_argument("--outcomes", type=str, required=True,
                   help="outcome bitstring/JSON, or @file")
    p.add_argument("--decoder", choices=("sparsity", "ising-map"), required=True)
    p.add_argument("--relaxed", action="store_true")
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--eta", type=float, default=None)
    _add_graph_flags(p)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--phi", type=float, default=None)

    p = sub.add_parser("bounds", help="evaluate the test-count bound formulas")
    p.set_defaults(run=_cmd_bounds)
    p.add_argument("--alpha-star", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--grid", type=str, default=None,
                   help="comma-separated m values for rate-curve rows")

    for name in ("experiment", "mismatch-graph", "mismatch-lambda"):
        p = sub.add_parser(name)
        p.set_defaults(run=_cmd_experiment if name == "experiment" else _cmd_mismatch)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--preset", type=str, default=None,
                       choices=sorted(PRESETS))
        if name == "experiment":
            p.add_argument("--dump-trials", action="store_true")
        if name == "mismatch-graph":
            p.add_argument("--fractions", type=str, required=True)
        if name == "mismatch-lambda":
            p.add_argument("--lambdas", type=str, required=True)
    return parser


def _load_config(args) -> ExperimentConfig:
    if args.config:
        return ExperimentConfig.from_json_file(args.config)
    if args.preset:
        return ExperimentConfig.from_dict(PRESETS[args.preset])
    raise UsageError("supply --config FILE or --preset NAME")


def _cmd_design(args) -> None:
    design = bernoulli_design(args.t, args.n, args.p, args.seed)
    text = design_to_csv(design) if args.format == "csv" else \
        design_to_json(design) + "\n"
    _write(text, args.out)


def _cmd_sample_prior(args) -> None:
    graph = _graph_from_args(args)
    prior = IsingPrior.uniform(graph, args.lam, args.phi)
    u = gibbs_sample(prior, args.sweeps, args.seed)
    if args.format == "csv":
        _write(u.to_string() + "\n", args.out)
    else:
        _write(json.dumps({"bits": u.to_string(), "n": u.n, "k": u.k,
                           "sweeps": args.sweeps, "seed": args.seed,
                           "rng": RNG_ID}) + "\n", args.out)


def _read_outcomes(token: str) -> OutcomeVector:
    if token.startswith("@"):
        with open(token[1:], "r", encoding="utf-8") as fh:
            token = fh.read()
    return OutcomeVector.parse(token)


def _cmd_decode(args) -> None:
    with open(args.design, "r", encoding="utf-8") as fh:
        design = design_from_text(fh.read())
    y = _read_outcomes(args.outcomes)
    prior = None
    family = args.decoder.replace("-", "_")
    if family == "ising_map":
        graph = _graph_from_args(args)
        if args.lam is None or args.phi is None:
            raise UsageError("ising-map decoding requires --lam and --phi")
        prior = IsingPrior.uniform(graph, args.lam, args.phi)
    spec = decoder_spec(family, args.relaxed, args.rho, args.eta, prior)
    result = decode(spec, design, y)
    _write(json.dumps(result.to_json_dict(), indent=2) + "\n", args.out)


def _cmd_bounds(args) -> None:
    if args.grid:
        ms = [float(v) for v in args.grid.split(",") if v]
        rows = bounds_mod.emit_rate_curves([(m, m) for m in ms])
        if args.format == "csv":
            _write(bounds_mod.rate_curves_csv(rows), args.out)
        else:
            _write(json.dumps(rows, indent=2) + "\n", args.out)
        return
    if args.alpha_star is None or args.beta is None:
        raise UsageError("supply --alpha-star and --beta (or --grid)")
    query = bounds_mod.BoundQuery(alpha_star=args.alpha_star, beta=args.beta,
                                  nu=args.nu, n=args.n, k=args.k)
    res = bounds_mod.evaluate(query)
    payload = {"alpha_star": args.alpha_star, "beta": args.beta,
               **dataclasses.asdict(res)}
    _write(json.dumps(payload, indent=2) + "\n", args.out)


def _cmd_experiment(args) -> None:
    config = _load_config(args)
    report = run_experiment(config)
    if args.out:
        emit(report, args.format, args.out, include_trials=args.dump_trials)
    else:
        sys.stdout.write(render_report(report, args.format, args.dump_trials))


def _cmd_mismatch(args) -> None:
    config = _load_config(args)
    if args.command == "mismatch-graph":
        values = [float(v) for v in args.fractions.split(",") if v]
        blocks = run_graph_mismatch(config, values)
        label = "fraction"
    else:
        values = [float(v) for v in args.lambdas.split(",") if v]
        blocks = run_lambda_mismatch(config, values)
        label = "lambda"
    text = blocks_csv(blocks, label) if args.format == "csv" else \
        blocks_json(blocks, label)
    _write(text, args.out)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.run(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
