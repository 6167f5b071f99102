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
from .core import records_csv
from .decoders import decode, decoder_spec
from .harness import (GRAPH_FIELDS, PRESETS, ExperimentConfig, GraphConfig,
                      blocks_csv, blocks_json, emit, render_report, run_experiment,
                      run_graph_mismatch, run_lambda_mismatch)
from .milp import NumericalError
from .prior import IsingPrior, gibbs_sample
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


def _given(args, dests) -> list:
    """The flags, as typed, of the ``dests`` that ``args`` sets."""
    return ["--" + d.replace("_", "-") for d in dests if getattr(args, d) is not None]


def _prior_from_args(args) -> IsingPrior:
    """The uniform Ising prior of --lam/--phi on the graph flags' graph, built
    as a config's: the flags' dests are the kinds of GRAPH_FIELDS."""
    if args.subsample is not None and args.edge_list is None:
        raise UsageError("--subsample needs --edge-list")
    kind = next((kind for kind in GRAPH_FIELDS if getattr(args, kind) is not None), None)
    if kind is None or args.lam is None or args.phi is None:
        raise UsageError("an Ising prior needs --lam, --phi and --grid, --block or --edge-list")
    values = (args.edge_list, args.subsample) if kind == "edge_list" else getattr(args, kind)
    graph = GraphConfig(kind, **dict(zip(GRAPH_FIELDS[kind], values))).build(args.seed)
    return IsingPrior.uniform(graph, args.lam, args.phi)


def _numbers(text: str) -> list:
    """A non-empty comma-separated list of numbers; empty items are skipped."""
    values = [float(v) for v in text.split(",") if v]
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, not {text!r}")
    return values


def _add_graph_flags(sub):
    graph = sub.add_mutually_exclusive_group()
    graph.add_argument("--grid", type=int, nargs=2, metavar=("ROWS", "COLS"))
    graph.add_argument("--block", type=int, nargs=4,
                       metavar=("BLOCKS_R", "BLOCKS_C", "BLOCK_ROWS", "BLOCK_COLS"))
    graph.add_argument("--edge-list", type=str)
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
    p.add_argument("--grid", type=_numbers, default=None,
                   help="comma-separated m values for rate-curve rows")

    for name in ("experiment", "mismatch-graph", "mismatch-lambda"):
        p = sub.add_parser(name)
        p.set_defaults(run=_cmd_experiment if name == "experiment" else _cmd_mismatch)
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--config", type=str)
        source.add_argument("--preset", choices=sorted(PRESETS))
        if name == "experiment":
            p.add_argument("--dump-trials", action="store_true")
        if name == "mismatch-graph":
            p.add_argument("--fractions", type=_numbers, required=True)
        if name == "mismatch-lambda":
            p.add_argument("--lambdas", type=_numbers, required=True)
    return parser


def _load_config(args) -> ExperimentConfig:
    return (ExperimentConfig.from_dict(PRESETS[args.preset]) if args.preset
            else ExperimentConfig.from_json_file(args.config))


def _cmd_design(args) -> None:
    design = bernoulli_design(args.t, args.n, args.p, args.seed)
    text = design_to_csv(design) if args.format == "csv" else \
        design_to_json(design) + "\n"
    _write(text, args.out)


def _cmd_sample_prior(args) -> None:
    u = gibbs_sample(_prior_from_args(args), args.sweeps, args.seed)
    _write(u.to_string() + "\n" if args.format == "csv" else
           json.dumps({"bits": u.to_string(), "n": u.n, "k": u.k, "sweeps": args.sweeps,
                       "seed": args.seed, "rng": RNG_ID}) + "\n", args.out)


def _read_outcomes(token: str) -> OutcomeVector:
    if token.startswith("@"):
        with open(token[1:], "r", encoding="utf-8") as fh:
            token = fh.read()
    return OutcomeVector.parse(token)


def _cmd_decode(args) -> None:
    with open(args.design, "r", encoding="utf-8") as fh:
        design = design_from_text(fh.read())
    y = _read_outcomes(args.outcomes)
    family = args.decoder.replace("-", "_")
    prior = _prior_from_args(args) if family == "ising_map" else None
    given = _given(args, (*GRAPH_FIELDS, "subsample", "lam", "phi"))
    if prior is None and given:
        raise UsageError(f"sparsity decoding takes no {'/'.join(given)}")
    spec = decoder_spec(family, args.relaxed, args.rho, args.eta, prior)
    result = decode(spec, design, y)
    _write(json.dumps(result.to_json_dict(), indent=2) + "\n", args.out)


def _cmd_bounds(args) -> None:
    point = _given(args, ("alpha_star", "beta", "nu", "n", "k"))
    if args.grid is not None:
        if point:
            raise UsageError(f"bounds --grid takes no {'/'.join(point)}")
        rows = bounds_mod.emit_rate_curves([(m, m) for m in args.grid])
        _write(records_csv(bounds_mod.RateCurveRow, rows) if args.format == "csv" else
               json.dumps([dataclasses.asdict(r) for r in rows], indent=2) + "\n", args.out)
        return
    if args.alpha_star is None or args.beta is None:
        raise UsageError("supply --alpha-star and --beta (or --grid)")
    res = bounds_mod.evaluate(bounds_mod.BoundQuery(args.alpha_star, args.beta,
                                                    args.nu, args.n, args.k))
    _write(json.dumps(dataclasses.asdict(res), indent=2) + "\n", args.out)


def _cmd_experiment(args) -> None:
    report = run_experiment(_load_config(args))
    if args.out:
        emit(report, args.format, args.out, include_trials=args.dump_trials)
    else:
        sys.stdout.write(render_report(report, args.format, args.dump_trials))


def _cmd_mismatch(args) -> None:
    if args.command == "mismatch-graph":
        blocks, label = run_graph_mismatch(_load_config(args), args.fractions), "fraction"
    else:
        blocks, label = run_lambda_mismatch(_load_config(args), args.lambdas), "lambda"
    text = blocks_csv(blocks, label) if args.format == "csv" else \
        blocks_json(blocks, label)
    _write(text, args.out)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.format == "csv" and (args.command == "decode"
                                     or (args.command == "bounds" and args.grid is None)):
            raise UsageError(f"{args.command} has no CSV form; use --format json")
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
