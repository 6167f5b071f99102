"""Experiment orchestration: trial loops over (tests, noise level, decoder),
mismatch sweeps, seeding discipline, and CSV/JSON report emission.

Seeding contract: with base seed B, the truth vector is Gibbs-sampled from
derive_seed(B, "truth"); trial i uses design seed derive_seed(B, "design", i)
(identical across decoders, noise levels, and test counts) and noise seed
derive_seed(B, "noise", i, rho).  Reports are therefore byte-identical
across reruns except for wall-time fields.

Decode failures (any solver status other than optimal: infeasible models
under mismatch, or a node limit hit even when it left an incumbent) are
recorded with the fp_rate = fn_rate = 1.0 convention, flagged in the trial
dump and counted in the row's failures; they are never silently dropped.

Report columns are the fields of :class:`AggregateRow` (summary) and
:class:`TrialRecord` (trial dump) in declaration order; ``include_times``
drops ``time_s``, and CSV cells write booleans as 0/1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from typing import Callable, List, Optional, Sequence, Tuple

from .core import DefectivityVector, count_fp_fn
from .decoders import decode, decoder_spec
from .prior import (IsingPrior, ItemGraph, build_block, build_grid,
                    gibbs_sample, load_edge_list, perturb_edges,
                    subsample_vertices)
from .rng import RNG_ID, derive_seed
from .testing import bernoulli_design, run_tests


@dataclass(frozen=True)
class GraphConfig:
    """Graph specification: grid dims, block dims, or an edge-list file with
    optional vertex subsampling."""

    kind: str
    rows: int = 0
    cols: int = 0
    blocks_r: int = 0
    blocks_c: int = 0
    block_rows: int = 0
    block_cols: int = 0
    path: str = ""
    subsample: Optional[int] = None

    def build(self, base_seed: int) -> ItemGraph:
        if self.kind == "grid":
            return build_grid(self.rows, self.cols)
        if self.kind == "block":
            return build_block(self.blocks_r, self.blocks_c,
                               self.block_rows, self.block_cols)
        if self.kind == "edge_list":
            g = load_edge_list(self.path)
            if self.subsample is not None:
                g = subsample_vertices(g, self.subsample,
                                       derive_seed(base_seed, "subsample"))
            return g
        raise ValueError(f"unknown graph kind {self.kind!r}")

    def to_dict(self) -> dict:
        if self.kind == "grid":
            return {"kind": "grid", "rows": self.rows, "cols": self.cols}
        if self.kind == "block":
            return {"kind": "block", "blocks_r": self.blocks_r,
                    "blocks_c": self.blocks_c, "block_rows": self.block_rows,
                    "block_cols": self.block_cols}
        return {"kind": "edge_list", "path": self.path,
                "subsample": self.subsample}

    @classmethod
    def from_dict(cls, obj: dict) -> "GraphConfig":
        return cls(**obj)


@dataclass(frozen=True)
class DecoderConfig:
    """One decoder to run; lam/phi/eta override the true prior parameters
    (used by the mismatch sweeps)."""

    family: str
    relaxed: bool = False
    eta: Optional[float] = None
    lam: Optional[float] = None
    phi: Optional[float] = None

    def to_dict(self) -> dict:
        return {"family": self.family, "relaxed": self.relaxed,
                "eta": self.eta, "lam": self.lam, "phi": self.phi}

    @classmethod
    def from_dict(cls, obj: dict) -> "DecoderConfig":
        return cls(**obj)


@dataclass(frozen=True)
class ExperimentConfig:
    graph: GraphConfig
    lam: float
    phi: float
    tests: tuple
    decoders: tuple
    truth_sweeps: int = 1000
    p: Optional[float] = None  # None means ln2 / k_realized
    rho: tuple = (0.0,)
    trials: int = 1
    base_seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        object.__setattr__(self, "tests", tuple(int(t) for t in self.tests))
        object.__setattr__(self, "rho", tuple(float(r) for r in self.rho))
        decs = tuple(d if isinstance(d, DecoderConfig) else DecoderConfig.from_dict(d)
                     for d in self.decoders)
        object.__setattr__(self, "decoders", decs)

    def to_dict(self) -> dict:
        return {
            "graph": self.graph.to_dict(),
            "lam": self.lam,
            "phi": self.phi,
            "truth_sweeps": self.truth_sweeps,
            "tests": list(self.tests),
            "p": self.p,
            "rho": list(self.rho),
            "decoders": [d.to_dict() for d in self.decoders],
            "trials": self.trials,
            "base_seed": self.base_seed,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        obj = dict(obj)
        obj["graph"] = GraphConfig.from_dict(obj["graph"])
        obj["decoders"] = tuple(DecoderConfig.from_dict(d) for d in obj["decoders"])
        obj["tests"] = tuple(obj["tests"])
        obj["rho"] = tuple(obj.get("rho", [0.0]))
        return cls(**obj)

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


PRESETS = {
    # Full-scale protocols (hours with the bundled dense solver; provided
    # for completeness, not CI).
    "full-grid-28": {
        "graph": {"kind": "grid", "rows": 28, "cols": 28},
        "lam": 0.5, "phi": 0.006, "truth_sweeps": 1000,
        "tests": [100, 200, 300, 400, 500], "p": None,
        "rho": [0.0, 0.01], "trials": 50, "base_seed": 1,
        "decoders": [
            {"family": "sparsity", "relaxed": False},
            {"family": "sparsity", "relaxed": True},
            {"family": "ising_map", "relaxed": False},
            {"family": "ising_map", "relaxed": True},
        ],
    },
    "full-block-28": {
        "graph": {"kind": "block", "blocks_r": 4, "blocks_c": 4,
                  "block_rows": 7, "block_cols": 7},
        "lam": 0.6, "phi": 0.035, "truth_sweeps": 1000,
        "tests": [100, 200, 300, 400, 500], "p": None,
        "rho": [0.0, 0.01], "trials": 50, "base_seed": 1,
        "decoders": [
            {"family": "sparsity", "relaxed": False},
            {"family": "sparsity", "relaxed": True},
            {"family": "ising_map", "relaxed": False},
            {"family": "ising_map", "relaxed": True},
        ],
    },
    # Desk-scale default.
    "ci-grid-10": {
        "graph": {"kind": "grid", "rows": 10, "cols": 10},
        "lam": 0.5, "phi": 0.006, "truth_sweeps": 1000,
        "tests": [60], "p": None, "rho": [0.0], "trials": 10, "base_seed": 5,
        "decoders": [
            {"family": "sparsity", "relaxed": False},
            {"family": "ising_map", "relaxed": False},
        ],
    },
}


@dataclass(frozen=True)
class TrialRecord:
    t: int
    rho: float
    decoder: str
    relaxed: bool
    trial: int
    fp: int
    fn: int
    fp_rate: float
    fn_rate: float
    time_s: float
    status: str
    design_seed: int


@dataclass(frozen=True)
class AggregateRow:
    t: int
    rho: float
    decoder: str
    relaxed: bool
    fp_rate: float
    fn_rate: float
    time_s: float
    trials: int
    failures: int


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple
    trial_records: tuple
    metadata: dict


def _columns(record_type, include_times: bool = True) -> tuple:
    """Report columns of a record type: its fields, in declaration order."""
    return tuple(f.name for f in fields(record_type)
                 if include_times or f.name != "time_s")


CSV_COLUMNS = _columns(AggregateRow)


def sample_truth(config: ExperimentConfig, graph: Optional[ItemGraph] = None
                 ) -> DefectivityVector:
    """The fixed truth vector shared by every trial of a run."""
    if graph is None:
        graph = config.graph.build(config.base_seed)
    prior = IsingPrior.uniform(graph, config.lam, config.phi)
    return gibbs_sample(prior, config.truth_sweeps,
                        derive_seed(config.base_seed, "truth"))


def run_experiment(config: ExperimentConfig,
                   design_factory: Optional[Callable] = None,
                   decoder_graph: Optional[ItemGraph] = None,
                   decoder_priors: Optional[dict] = None) -> ExperimentReport:
    """Run the full trial protocol and aggregate the error metrics.

    ``design_factory(t, n, p, seed)`` is a test hook replacing Bernoulli
    designs.  ``decoder_graph``/``decoder_priors`` let the mismatch sweeps
    hand decoders an assumed prior differing from the truth's.
    """
    truth_graph = config.graph.build(config.base_seed)
    truth = sample_truth(config, truth_graph)
    k = truth.k
    if config.p is None and k == 0:
        raise ValueError("sampled truth has no defectives; set an explicit p")
    p = config.p if config.p is not None else math.log(2.0) / k
    q = k / truth.n if truth.n else 0.0
    factory = design_factory or (lambda t, n, pp, seed: bernoulli_design(t, n, pp, seed))

    graph_for_decoding = decoder_graph if decoder_graph is not None else truth_graph
    records: List[TrialRecord] = []
    for t in config.tests:
        for rho in config.rho:
            for dec in config.decoders:
                if decoder_priors is not None and dec in decoder_priors:
                    assumed = decoder_priors[dec]
                else:
                    assumed = IsingPrior.uniform(
                        graph_for_decoding,
                        dec.lam if dec.lam is not None else config.lam,
                        dec.phi if dec.phi is not None else config.phi)
                spec = decoder_spec(dec.family, dec.relaxed, rho, dec.eta,
                                    assumed, q)
                for trial in range(config.trials):
                    dseed = derive_seed(config.base_seed, "design", trial)
                    design = factory(t, truth.n, p, dseed)
                    y = run_tests(design, truth, spec.noise,
                                  derive_seed(config.base_seed, "noise", trial, rho))
                    result = decode(spec, design, y)
                    if result.solver_status != "optimal":
                        records.append(TrialRecord(
                            t, rho, dec.family, dec.relaxed, trial,
                            fp=0, fn=0, fp_rate=1.0, fn_rate=1.0,
                            time_s=result.wall_time,
                            status=f"failed:{result.solver_status}",
                            design_seed=dseed))
                        continue
                    rep = count_fp_fn(truth, result.estimate, result.wall_time)
                    records.append(TrialRecord(
                        t, rho, dec.family, dec.relaxed, trial,
                        fp=rep.fp, fn=rep.fn,
                        fp_rate=rep.fp_rate if rep.fp_rate is not None else 0.0,
                        fn_rate=rep.fn_rate if rep.fn_rate is not None else 0.0,
                        time_s=rep.wall_time, status="ok", design_seed=dseed))
    rows = _aggregate(records, config.trials)
    metadata = {
        "config": config.to_dict(),
        "rng": RNG_ID,
        "seed_derivation": "blake2b-8 over 'v1|base|label|parts'",
        "truth_k": k,
        "p_used": p,
        "n": truth.n,
    }
    return ExperimentReport(tuple(rows), tuple(records), metadata)


def _aggregate(records: Sequence[TrialRecord], trials: int) -> List[AggregateRow]:
    keys = []
    groups = {}
    for r in records:
        key = (r.t, r.rho, r.decoder, r.relaxed)
        if key not in groups:
            groups[key] = []
            keys.append(key)
        groups[key].append(r)
    rows = []
    for key in keys:
        grp = groups[key]
        rows.append(AggregateRow(
            t=key[0], rho=key[1], decoder=key[2], relaxed=key[3],
            fp_rate=sum(g.fp_rate for g in grp) / len(grp),
            fn_rate=sum(g.fn_rate for g in grp) / len(grp),
            time_s=sum(g.time_s for g in grp) / len(grp),
            trials=len(grp),
            failures=sum(1 for g in grp if g.status != "ok"),
        ))
    return rows


def run_graph_mismatch(config: ExperimentConfig, fractions: Sequence[float]
                       ) -> List[Tuple[float, ExperimentReport]]:
    """Decode with edge-perturbed graphs; the truth always uses the true graph.

    The fraction-0 block is bit-identical to the baseline experiment.
    """
    out = []
    true_graph = config.graph.build(config.base_seed)
    for fraction in fractions:
        if not (0.0 <= fraction <= 0.5):
            raise ValueError("mismatch fractions must lie in [0, 0.5]")
        mismatched = perturb_edges(true_graph, fraction,
                                   derive_seed(config.base_seed, "perturb",
                                               float(fraction)))
        report = run_experiment(config, decoder_graph=mismatched)
        out.append((fraction, report))
    return out


def run_lambda_mismatch(config: ExperimentConfig, lambda_values: Sequence[float]
                        ) -> List[Tuple[float, ExperimentReport]]:
    """Decode with assumed edge strengths differing from the truth's."""
    out = []
    for lam in lambda_values:
        if lam <= 0:
            raise ValueError("lambda values must be positive")
        mism = replace(config, decoders=tuple(
            replace(d, lam=float(lam)) for d in config.decoders))
        report = run_experiment(mism)
        out.append((float(lam), report))
    return out


def _cell(value) -> str:
    return str(int(value)) if isinstance(value, bool) else str(value)


def _csv(record_type, records, include_times: bool = True) -> str:
    cols = _columns(record_type, include_times)
    lines = [",".join(cols)]
    lines.extend(",".join(_cell(getattr(r, c)) for c in cols) for r in records)
    return "\n".join(lines) + "\n"


def report_csv(report: ExperimentReport, include_times: bool = True) -> str:
    """Deterministic CSV body; drop the wall-time column for byte-level
    reproducibility comparisons."""
    return _csv(AggregateRow, report.rows, include_times)


def trials_csv(report: ExperimentReport) -> str:
    return _csv(TrialRecord, report.trial_records)


def report_json(report: ExperimentReport, include_trials: bool = False,
                include_times: bool = True) -> str:
    def dicts(record_type, records):
        cols = _columns(record_type, include_times)
        return [{c: getattr(r, c) for c in cols} for r in records]

    body = {"rows": dicts(AggregateRow, report.rows), "metadata": report.metadata}
    if include_trials:
        body["trials"] = dicts(TrialRecord, report.trial_records)
    return json.dumps(body, indent=2) + "\n"


def emit(report: ExperimentReport, fmt: str, path: str,
         include_trials: bool = False) -> None:
    """Write the report as CSV or JSON with a stable column order."""
    if fmt == "csv":
        text = report_csv(report)
        if include_trials:
            text += "# trials\n" + trials_csv(report)
    elif fmt == "json":
        text = report_json(report, include_trials=include_trials)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def blocks_csv(blocks: Sequence[Tuple[float, ExperimentReport]], label: str) -> str:
    """Concatenated per-block CSV, each block preceded by '# <label>=<value>'."""
    parts = []
    for value, report in blocks:
        parts.append(f"# {label}={value!r}\n" + report_csv(report))
    return "".join(parts)


def blocks_json(blocks: Sequence[Tuple[float, ExperimentReport]], label: str) -> str:
    out = [{label: value, "report": json.loads(report_json(report))}
           for value, report in blocks]
    return json.dumps(out, indent=2) + "\n"
