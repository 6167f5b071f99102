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

The config schema is the field order of :class:`ExperimentConfig`,
:class:`GraphConfig` (``kind`` plus that kind's fields) and
:class:`DecoderConfig`.  Every config, from JSON or Python, is checked at
construction (:func:`~gtprior.core.check_fields`): an unknown or missing key,
a wrongly typed or out-of-range value or a graph field of another kind is a
ValueError.

Report columns are the fields of :class:`AggregateRow` (summary) and
:class:`TrialRecord` (trial dump) in declaration order; ``include_times``
drops ``time_s``, and CSV cells write booleans as 0/1.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import List, Optional, Sequence, Tuple

from .core import DefectivityVector, check_fields, check_json_field, count_fp_fn
from .decoders import decode, decoder_spec
from .prior import (IsingPrior, ItemGraph, build_block, build_grid,
                    gibbs_sample, load_edge_list, perturb_edges,
                    subsample_vertices)
from .rng import RNG_ID, derive_seed
from .testing import NoiseSpec, bernoulli_design, run_tests


# Each graph kind's fields, in order: its JSON keys after "kind", its builder's args.
_GRAPH_FIELDS = {
    "grid": ("rows", "cols"),
    "block": ("blocks_r", "blocks_c", "block_rows", "block_cols"),
    "edge_list": ("path", "subsample"),
}


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

    def __post_init__(self):
        check_fields(self)
        if self.kind not in _GRAPH_FIELDS:
            raise ValueError(f"unknown graph kind {self.kind!r}")
        stray = [f.name for f in fields(self)[1:]  # after kind
                 if f.name not in _GRAPH_FIELDS[self.kind]
                 and getattr(self, f.name) != f.default]
        if stray:
            raise ValueError(f"GraphConfig: a {self.kind} graph takes no {stray}")

    def build(self, base_seed: int) -> ItemGraph:
        if self.kind == "edge_list":
            g = load_edge_list(self.path)
            if self.subsample is not None:
                g = subsample_vertices(g, self.subsample,
                                       derive_seed(base_seed, "subsample"))
            return g
        builder = build_grid if self.kind == "grid" else build_block
        return builder(*(getattr(self, name) for name in _GRAPH_FIELDS[self.kind]))

    def to_dict(self) -> dict:
        return {"kind": self.kind,
                **{name: getattr(self, name) for name in _GRAPH_FIELDS[self.kind]}}


@dataclass(frozen=True)
class DecoderConfig:
    """One decoder to run; lam/phi/eta override the true prior parameters
    (used by the mismatch sweeps)."""

    family: str
    relaxed: bool = False
    eta: Optional[float] = None
    lam: Optional[float] = None
    phi: Optional[float] = None

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """An experiment; its fields, in this order, are the JSON config schema."""

    graph: GraphConfig
    lam: float
    phi: float
    truth_sweeps: int = 1000
    tests: Tuple[int, ...]
    p: Optional[float] = None  # None means ln2 / k_realized
    rho: Tuple[float, ...] = (0.0,)
    decoders: Tuple[DecoderConfig, ...]
    trials: int = 1
    base_seed: int = 0

    def __post_init__(self):
        check_fields(self)
        # Range checks run here, before any truth is sampled or test decoded.
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.truth_sweeps < 1:
            raise ValueError("truth_sweeps must be >= 1")
        if any(t < 0 for t in self.tests):
            raise ValueError(f"tests must be >= 0, got {list(self.tests)}")
        if self.p is not None and not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        for rho in self.rho:
            NoiseSpec.at(rho)  # the noise-level rule that decoding applies
        # Report rows print rho, so an int noise level is stored as a float.
        object.__setattr__(self, "rho", tuple(float(r) for r in self.rho))

    def to_dict(self) -> dict:
        """The JSON form: every field in declaration order, tuples as lists."""
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "graph": self.graph.to_dict(), "tests": list(self.tests),
                "rho": list(self.rho), "decoders": [asdict(d) for d in self.decoders]}

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        return check_json_field("ExperimentConfig", obj, cls)

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
                   decoder_graph: Optional[ItemGraph] = None) -> ExperimentReport:
    """Run the full trial protocol and aggregate the error metrics.

    ``decoder_graph`` lets the graph-mismatch sweep hand decoders an assumed
    prior differing from the truth's.
    """
    truth_graph = config.graph.build(config.base_seed)
    truth = sample_truth(config, truth_graph)
    k = truth.k
    if config.p is None and k == 0:
        raise ValueError("sampled truth has no defectives; set an explicit p")
    p = config.p if config.p is not None else math.log(2.0) / k
    q = k / truth.n if truth.n else 0.0

    graph_for_decoding = decoder_graph if decoder_graph is not None else truth_graph
    assumed = [IsingPrior.uniform(graph_for_decoding,
                                  dec.lam if dec.lam is not None else config.lam,
                                  dec.phi if dec.phi is not None else config.phi)
               for dec in config.decoders]
    # specs[r][d]: decoder d at noise level rho[r]
    specs = [[decoder_spec(dec.family, dec.relaxed, rho, dec.eta, prior, q)
              for dec, prior in zip(config.decoders, assumed)] for rho in config.rho]
    # Trial i's design serves every decoder and noise level, and its outcomes
    # at one noise level every decoder, so each is drawn once.  Records are
    # put back in (t, rho, decoder, trial) order.
    keyed = []
    for ti, t in enumerate(config.tests):
        for trial in range(config.trials):
            dseed = derive_seed(config.base_seed, "design", trial)
            design = bernoulli_design(t, truth.n, p, dseed)
            for ri, (rho, rho_specs) in enumerate(zip(config.rho, specs)):
                y = None
                for di, (dec, spec) in enumerate(zip(config.decoders, rho_specs)):
                    if y is None:
                        y = run_tests(design, truth, spec.noise,
                                      derive_seed(config.base_seed, "noise", trial, rho))
                    result = decode(spec, design, y)
                    if result.solver_status == "optimal":
                        rep = count_fp_fn(truth, result.estimate)
                        # rates are None when the truth has no defectives
                        scores = rep.fp, rep.fn, rep.fp_rate or 0.0, rep.fn_rate or 0.0
                        status = "ok"
                    else:
                        scores = (0, 0, 1.0, 1.0)
                        status = f"failed:{result.solver_status}"
                    keyed.append(((ti, ri, di, trial), TrialRecord(
                        t, rho, dec.family, dec.relaxed, trial, *scores,
                        time_s=result.wall_time, status=status, design_seed=dseed)))
    records = [rec for _, rec in sorted(keyed, key=lambda item: item[0])]
    metadata = {
        "config": config.to_dict(),
        "rng": RNG_ID,
        "seed_derivation": "blake2b-8 over 'v1|base|label|parts'",
        "truth_k": k,
        "p_used": p,
        "n": truth.n,
    }
    return ExperimentReport(tuple(_aggregate(records)), tuple(records), metadata)


def _aggregate(records: Sequence[TrialRecord]) -> List[AggregateRow]:
    """One row per (t, rho, decoder, relaxed), in first-seen order."""
    groups = {}
    for r in records:
        groups.setdefault((r.t, r.rho, r.decoder, r.relaxed), []).append(r)
    return [AggregateRow(
        *key,
        fp_rate=sum(g.fp_rate for g in grp) / len(grp),
        fn_rate=sum(g.fn_rate for g in grp) / len(grp),
        time_s=sum(g.time_s for g in grp) / len(grp),
        trials=len(grp),
        failures=sum(1 for g in grp if g.status != "ok"),
    ) for key, grp in groups.items()]


def run_graph_mismatch(config: ExperimentConfig, fractions: Sequence[float]
                       ) -> List[Tuple[float, ExperimentReport]]:
    """Decode with edge-perturbed graphs; the truth always uses the true graph.

    Every fraction is checked before the first run.  The fraction-0 block is
    bit-identical to the baseline experiment.
    """
    if not all(0.0 <= fraction <= 0.5 for fraction in fractions):
        raise ValueError("mismatch fractions must lie in [0, 0.5]")
    true_graph = config.graph.build(config.base_seed)
    return [(fraction, run_experiment(config, decoder_graph=perturb_edges(
                true_graph, fraction,
                derive_seed(config.base_seed, "perturb", float(fraction)))))
            for fraction in fractions]


def run_lambda_mismatch(config: ExperimentConfig, lambda_values: Sequence[float]
                        ) -> List[Tuple[float, ExperimentReport]]:
    """Decode with assumed edge strengths differing from the truth's; every
    value is checked before the first run."""
    if any(lam <= 0 for lam in lambda_values):
        raise ValueError("lambda values must be positive")
    return [(float(lam), run_experiment(replace(config, decoders=tuple(
                replace(d, lam=float(lam)) for d in config.decoders))))
            for lam in lambda_values]


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


def render_report(report: ExperimentReport, fmt: str,
                  include_trials: bool = False) -> str:
    """The report as CSV or JSON text with a stable column order; CSV appends
    the trial dump after a ``# trials`` line."""
    if fmt == "csv":
        text = report_csv(report)
        if include_trials:
            text += "# trials\n" + trials_csv(report)
        return text
    if fmt == "json":
        return report_json(report, include_trials=include_trials)
    raise ValueError(f"unknown format {fmt!r}")


def emit(report: ExperimentReport, fmt: str, path: str,
         include_trials: bool = False) -> None:
    """Write :func:`render_report` text to ``path``."""
    text = render_report(report, fmt, include_trials)
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
