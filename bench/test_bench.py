"""Tests of the benchmark itself: ``python3 -m pytest bench/test_bench.py``."""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gtprior import decoders, harness, milp  # noqa: E402
from gtprior.prior import IsingPrior, build_grid, gibbs_sample  # noqa: E402
from gtprior.testing import NoiseSpec, bernoulli_design, run_tests  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _instance(family, relaxed, rho):
    prior = IsingPrior.uniform(build_grid(3, 4), 0.5, 0.3)
    truth = gibbs_sample(prior, 50, 3)
    design = bernoulli_design(8, 12, 0.2, 4)
    noise = NoiseSpec("symmetric", rho) if rho else NoiseSpec()
    y = run_tests(design, truth, noise, 5)
    eta = decoders.map_flip_penalty(rho) if rho else None
    spec = decoders.DecoderSpec(family=family, relaxed=relaxed, noise=noise, eta=eta,
                                prior=prior if family == "ising_map" else None)
    return spec, design, y, truth


@pytest.mark.parametrize("family", ["sparsity", "ising_map"])
@pytest.mark.parametrize("relaxed", [False, True])
def test_oracle_counts_perturbed_objective_as_failed(family, relaxed):
    spec, design, y, _ = _instance(family, relaxed, 0.1)
    result = decoders.decode(spec, design, y)
    captured = [workloads.Decode(spec, design, y, result)]
    wl = workloads._DecodeWorkload()
    wl.gt = {"decoders": decoders}
    assert wl.verify([captured]).failed == 0

    off = dataclasses.replace(result, objective_value=result.objective_value + 1e-3)
    v = wl.verify([[workloads.Decode(spec, design, y, off)]])
    assert (v.attempted, v.failed) == (1, 1) and "HiGHS" in v.reasons[0]

    capped = dataclasses.replace(result, solver_status="node_limit")
    assert oracle.check_decode(decoders.build_model(spec, design, y), capped) == "status node_limit"


@pytest.mark.parametrize("family", ["sparsity", "ising_map"])
@pytest.mark.parametrize("rho", [0.0, 0.1])
def test_truth_point_check(family, rho):
    spec, design, y, truth = _instance(family, False, rho)
    model = decoders.build_model(spec, design, y)
    bits = truth.to_numpy().astype(np.int64)
    assert oracle.check_truth_point(model, spec, design.matrix, y.to_numpy(), bits) is None
    shifted = dataclasses.replace(model, objective_constant=model.objective_constant + 1.0)
    assert "closed form" in oracle.check_truth_point(shifted, spec, design.matrix,
                                                     y.to_numpy(), bits)


def test_tracer_self_time_and_absent_hooks():
    ticks = iter(range(100))
    mod = type("M", (), {})()
    tracer = tracing.Tracer({m: mod for m in ("harness", "decoders", "milp", "cli")},
                            clock=lambda: float(next(ticks)))
    with tracer:  # no hooked attribute exists on ``mod``: nothing to rebind
        pass
    inner = lambda: None  # noqa: E731
    outer = lambda: tracer.call("decoders.build", inner)  # noqa: E731
    tracer.call("decoders.decode", outer)  # decode [0, 3], build [1, 2]
    m = tracing.layer_metrics(tracer.spans, 0, 2, pass_wall=4.0)
    assert m["decoders.decode_s"] == 3.0
    assert m["decoders.build_s"] == 1.0
    assert m["decoders.decode_self_s"] == 2.0
    assert m["trace.uncovered_frac"] == 0.25
    assert m["milp.bb_nodes"] == 0.0


def test_tracer_restores_names():
    gt = {"harness": harness, "decoders": decoders, "milp": milp,
          "cli": __import__("gtprior.cli", fromlist=["cli"])}
    before = decoders.build_model
    with tracing.Tracer(gt):
        assert decoders.build_model is not before
    assert decoders.build_model is before


def test_changed_preset_fails_the_pin(monkeypatch, tmp_path):
    gt = {"harness": harness}
    workloads.CiGrid10(gt, 0, None, str(tmp_path))
    monkeypatch.setitem(harness.PRESETS, "ci-grid-10",
                        {**harness.PRESETS["ci-grid-10"], "trials": 5})
    with pytest.raises(workloads.PinError, match="trials"):
        workloads.CiGrid10(gt, 0, None, str(tmp_path))


def test_fails_without_source_tree(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "prep-28", "--seed", "0",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode != 0 and out.stdout == ""
