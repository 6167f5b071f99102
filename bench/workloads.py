"""The benchmark's three workloads.

Each workload builds its fixed inputs at construction (the timed set-up),
then runs passes.  ``run_pass`` is the timed work; ``finish_pass`` (untimed,
right after each pass) checks the input-size pins and returns the pass's
determinism digest and the little that ``verify`` needs, so that what the
benchmark keeps does not grow the peak RSS with the number of passes;
``verify`` (untimed, after all passes) checks every output against an
independent oracle and returns the failure count and model shapes.

Seeds.  Every workload has a protocol seed: the preset's own ``base_seed``
(ci-grid-10: 5; full-grid-28 and full-block-28: 1) or, for lp-grid-14, 5.
It draws the truth.  The work of a B&B or simplex solve depends on the
whole instance, so ci-grid-10 and lp-grid-14 take every input from the
protocol seed, and their numbers compare only at the same protocol seed.
On a 2-vCPU Xeon at 2.1 GHz: ci-grid-10 took 5.9 s to 35 s per pass over
base seeds 0-7, and at seed 5 its ising_map ILPs take 1 to 13 B&B nodes
per trial; lp-grid-14 took 13 s to 18 s per pass over design seeds at a
fixed truth.  Some seeds also make the protocol itself fail: a truth with
k/n >= 0.5 has no default noisy sparsity flip penalty.  prep-28 does the
same amount of work for any design, so its designs and channel noise come
from the run seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import traceback
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

import oracle


class PinError(RuntimeError):
    """A workload's fixed input size changed."""


def _pin(what: str, got, expected) -> None:
    if got != expected:
        raise PinError(f"{what} is {got!r}, pinned to {expected!r}")


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _config_sizes(cfg, n: int) -> dict:
    return {"n": n, "tests": cfg.tests, "rho": cfg.rho, "trials": cfg.trials,
            "truth_sweeps": cfg.truth_sweeps,
            "decoders": tuple((d.family, d.relaxed) for d in cfg.decoders)}


def _call(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


@dataclass
class Decode:
    """One decode captured at the harness -> decoders boundary."""

    spec: object
    design: object
    y: object
    result: object


@dataclass
class Verification:
    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)
    shapes: dict = field(default_factory=lambda: {"rows": 0, "vars": 0, "nnz": 0, "bytes": 0})

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def add_shape(self, model) -> None:
        for k, v in oracle.model_shape(model).items():
            self.shapes[k] += v


class _CapturedDecodes:
    """Rebinds ``harness.decode`` to record each call's inputs and result."""

    def __init__(self, harness, out: list):
        self.harness, self.out = harness, out

    def __enter__(self):
        self.orig = orig = self.harness.decode

        def capture(spec, design, y, *args, **kwargs):
            result = orig(spec, design, y, *args, **kwargs)
            self.out.append(Decode(spec, design, y, result))
            return result

        self.harness.decode = capture

    def __exit__(self, *exc):
        self.harness.decode = self.orig


class _DecodeWorkload:
    """Shared verification of workloads whose operations are decodes."""

    def check_decodes(self, decodes: List[Decode]) -> None:
        _pin(f"{self.name} decodes per pass", len(decodes), self.decodes_per_pass)

    def verify(self, kept) -> Verification:
        v = Verification()
        build_model = self.gt["decoders"].build_model
        for p, decodes in enumerate(kept):
            for d in decodes:
                v.attempted += 1
                model = build_model(d.spec, d.design, d.y)
                if p == 0:
                    v.add_shape(model)
                reason = oracle.check_decode(model, d.result)
                if reason:
                    v.fail(f"pass {p} {d.spec.family} relaxed={d.spec.relaxed} "
                           f"rho={d.spec.noise.rho}: {reason}")
        return v


class CiGrid10(_DecodeWorkload):
    """``gtprior --format json --out <tmp> experiment --preset ci-grid-10
    --dump-trials`` in-process through ``gtprior.cli.main``."""

    name = "ci-grid-10"
    decodes_per_pass = 20
    sizes = {"n": 100, "tests": (60,), "rho": (0.0,), "trials": 10, "truth_sweeps": 1000,
             "decoders": (("sparsity", False), ("ising_map", False))}

    def __init__(self, gt, seed: int, protocol_seed: Optional[int], out_dir: str):
        self.gt = gt
        harness = gt["harness"]
        preset = dict(harness.PRESETS[self.name])
        self.protocol_seed = preset["base_seed"] if protocol_seed is None else protocol_seed
        cfg = harness.ExperimentConfig.from_dict({**preset, "base_seed": self.protocol_seed})
        _pin(f"{self.name} sizes", _config_sizes(cfg, cfg.graph.build(cfg.base_seed).n), self.sizes)
        self.report_path = f"{out_dir}/{self.name}-report.json"
        if protocol_seed is None:
            source = ["--preset", self.name]
        else:
            config_path = f"{out_dir}/{self.name}-config.json"
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump(cfg.to_dict(), fh)
            source = ["--config", config_path]
        self.argv = ["--format", "json", "--out", self.report_path,
                     "experiment", *source, "--dump-trials"]

    def run_pass(self, tracer):
        decodes: List[Decode] = []
        with _CapturedDecodes(self.gt["harness"], decodes):
            rc = _call(tracer, "cli.main", self.gt["cli"].main, self.argv)
        if rc != 0:
            raise RuntimeError(f"gtprior exited with {rc}")
        return decodes

    def finish_pass(self, decodes):
        self.check_decodes(decodes)
        with open(self.report_path, "r", encoding="utf-8") as fh:
            body = json.load(fh)
        _pin(f"{self.name} report n", body["metadata"]["n"], self.sizes["n"])
        for rec in body["rows"] + body["trials"]:
            rec.pop("time_s", None)
        return _digest(body), decodes


LP_GRID_14 = {
    "graph": {"kind": "grid", "rows": 14, "cols": 14},
    "lam": 0.5, "phi": 0.006, "truth_sweeps": 1000,
    "tests": [60], "p": None, "rho": [0.0, 0.01], "trials": 1, "base_seed": 5,
    "decoders": [{"family": "sparsity", "relaxed": True},
                 {"family": "ising_map", "relaxed": True}],
}


class LpGrid14(_DecodeWorkload):
    """``harness.run_experiment`` on a 14x14 grid whose decodes are single
    relaxed LPs, then the deterministic report body."""

    name = "lp-grid-14"
    decodes_per_pass = 4
    sizes = {"n": 196, "tests": (60,), "rho": (0.0, 0.01), "trials": 1, "truth_sweeps": 1000,
             "decoders": (("sparsity", True), ("ising_map", True))}

    def __init__(self, gt, seed: int, protocol_seed: Optional[int], out_dir: str):
        self.gt = gt
        harness = gt["harness"]
        self.protocol_seed = LP_GRID_14["base_seed"] if protocol_seed is None else protocol_seed
        self.config = harness.ExperimentConfig.from_dict(
            {**LP_GRID_14, "base_seed": self.protocol_seed})
        _pin(f"{self.name} sizes",
             _config_sizes(self.config, self.config.graph.build(self.protocol_seed).n), self.sizes)

    def run_pass(self, tracer):
        harness = self.gt["harness"]
        decodes: List[Decode] = []
        with _CapturedDecodes(harness, decodes):
            report = _call(tracer, "harness.experiment", harness.run_experiment, self.config)
        body = _call(tracer, "harness.report", harness.report_json, report,
                     include_trials=True, include_times=False)
        return decodes, report.metadata["n"], body

    def finish_pass(self, raw):
        decodes, n, body = raw
        self.check_decodes(decodes)
        _pin(f"{self.name} report n", n, self.sizes["n"])
        return hashlib.sha256(body.encode()).hexdigest(), decodes


class Prep28:
    """Everything full-grid-28 and full-block-28 do before their first
    solve: truth sampling, a design and channel outcomes per (t, rho), and
    both model families per (t, rho).  No solver runs."""

    name = "prep-28"
    presets = ("full-grid-28", "full-block-28")
    families = ("sparsity", "ising_map")
    sizes = {"n": 784, "tests": (100, 200, 300, 400, 500), "rho": (0.0, 0.01),
             "truth_sweeps": 1000, "families": ("ising_map", "sparsity")}

    def __init__(self, gt, seed: int, protocol_seed: Optional[int], out_dir: str):
        self.gt = gt
        self.seed = seed
        harness, prior_mod = gt["harness"], gt["prior"]
        self.cases = []
        for name in self.presets:
            preset = harness.PRESETS[name]
            base = preset["base_seed"] if protocol_seed is None else protocol_seed
            cfg = harness.ExperimentConfig.from_dict({**preset, "base_seed": base})
            graph = cfg.graph.build(base)
            _pin(f"{name} sizes", {
                "n": graph.n, "tests": cfg.tests, "rho": cfg.rho,
                "truth_sweeps": cfg.truth_sweeps,
                "families": tuple(sorted({d.family for d in cfg.decoders}))}, self.sizes)
            self.cases.append((name, cfg, graph, prior_mod.IsingPrior.uniform(graph, cfg.lam, cfg.phi)))
        self.protocol_seed = base

    def _noise(self, rho):
        testing = self.gt["testing"]
        return testing.NoiseSpec("symmetric", rho) if rho > 0 else testing.NoiseSpec()

    def _spec(self, family, rho, prior, q):
        """The spec run_experiment derives for a non-relaxed decoder."""
        dec = self.gt["decoders"]
        noise = self._noise(rho)
        eta = None
        if noise.is_noisy:
            eta = dec.map_flip_penalty(rho) if family == "ising_map" else dec.sparsity_flip_penalty(rho, q)
        return dec.DecoderSpec(family=family, relaxed=False, noise=noise, eta=eta,
                               prior=prior if family == "ising_map" else None)

    def _build(self, decoders, family, rho, prior, q, pair):
        return decoders.build_model(self._spec(family, rho, prior, q), *pair)

    def _inputs(self, harness, cfg, truth, t, rho):
        """Design and outcomes of (t, rho), drawn from the run seed."""
        rng = self.gt["rng"]
        p = cfg.p if cfg.p is not None else math.log(2.0) / truth.k
        design = harness.bernoulli_design(t, truth.n, p, rng.derive_seed(self.seed, "design", 0))
        y = harness.run_tests(design, truth, self._noise(rho),
                              rng.derive_seed(self.seed, "noise", 0, rho))
        return design, y

    def run_pass(self, tracer):
        """Returns (ops attempted, errors of the ops that raised, outputs).
        ``outputs`` holds, per preset, the truth and for each (t, rho) the
        design, outcomes and (family, rows, vars) of each model built.  The
        tracer needs no explicit calls here: every call goes through a
        hooked module attribute."""
        harness, decoders = self.gt["harness"], self.gt["decoders"]
        attempted = 0
        errors = []
        outputs = []

        def op(fn, *args):
            nonlocal attempted
            attempted += 1
            try:
                return fn(*args)
            except Exception as exc:  # an operation that raises is a failed operation
                errors.append(f"{fn.__name__}: {exc!r}")
                traceback.print_exc(file=sys.stderr)
                return None

        for name, cfg, graph, prior in self.cases:
            truth = op(harness.sample_truth, cfg, graph)
            if truth is None:
                continue
            q = truth.k / truth.n
            cases = {}
            for t in cfg.tests:
                for rho in cfg.rho:
                    pair = op(self._inputs, harness, cfg, truth, t, rho)
                    attempted += 1  # design and channel count as two operations
                    if pair is None:
                        continue
                    built = []
                    for family in self.families:
                        model = op(self._build, decoders, family, rho, prior, q, pair)
                        if model is not None:
                            built.append((family, model.num_rows, model.num_vars))
                        del model
                    cases[(t, rho)] = (*pair, tuple(built))
            outputs.append((name, truth, cases))
        return attempted, errors, outputs

    @staticmethod
    def _digest(outputs) -> str:
        h = hashlib.sha256()
        for name, truth, cases in outputs:
            h.update(f"{name}|{truth.to_string()}".encode())
            for (t, rho), (design, y, built) in sorted(cases.items()):
                h.update(f"{t}|{rho}|{built}|".encode())
                h.update(design.matrix.tobytes())
                h.update(bytes(y.y))
        return h.hexdigest()

    def finish_pass(self, raw):
        """The digest, and the pass without its designs and outcomes."""
        attempted, errors, outputs = raw
        digest = self._digest(outputs)
        built = [(name, truth, {key: case[2] for key, case in cases.items()})
                 for name, truth, cases in outputs]
        return digest, (attempted, errors, built, digest)

    def verify(self, kept) -> Verification:
        """Regenerate the last pass's inputs from its truths, require the
        pass digest back, and check every model it built at the truth."""
        v = Verification()
        for attempted, errors, _, _ in kept:
            v.attempted += attempted
            for err in errors:
                v.fail(err)
        harness = self.gt["harness"]
        cases_by_name = {c[0]: c for c in self.cases}
        _, _, built_last, digest = kept[-1]
        regenerated = []
        for name, truth, built in built_last:
            _, cfg, _, prior = cases_by_name[name]
            truth_arr = truth.to_numpy().astype(np.int64)
            q = truth.k / truth.n
            cases = {}
            for (t, rho), families in sorted(built.items()):
                design, y = self._inputs(harness, cfg, truth, t, rho)
                cases[(t, rho)] = (design, y, families)
                for family, _, _ in families:
                    spec = self._spec(family, rho, prior, q)
                    model = self.gt["decoders"].build_model(spec, design, y)
                    v.add_shape(model)
                    reason = oracle.check_truth_point(model, spec, design.matrix,
                                                      y.to_numpy(), truth_arr)
                    if reason:
                        for _ in kept:  # the same build ran in every pass
                            v.fail(f"{name} t={t} rho={rho} {family}: {reason}")
                    del model
            regenerated.append((name, truth, cases))
        if self._digest(regenerated) != digest:
            v.fail("designs or outcomes differ when regenerated from the same seeds")
        return v


WORKLOADS = {w.name: w for w in (CiGrid10, LpGrid14, Prep28)}
