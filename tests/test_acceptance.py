"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import math

import numpy as np

from gtprior.bounds import (achievability_coefficient, converse_coefficient,
                            inner_max_objective, mi_asymptotic, optimal_nu,
                            rate_limit_at)
from gtprior.core import DefectiveSet, DefectivityVector
from gtprior.decoders import (CandidateFamily, DecoderSpec, brute_force_map,
                              build_model, decode,
                              info_density, ising_objective_offset,
                              map_flip_penalty, map_score, threshold_decode)
from gtprior.harness import (DecoderConfig, ExperimentConfig, GraphConfig,
                             report_csv, report_json, run_experiment)
from gtprior.milp import MilpModel, feasibility_violation, solve_ilp, solve_lp
from gtprior.prior import (IsingPrior, ItemGraph, build_grid, config_chunks,
                           exact_marginals, gibbs_marginal_estimate,
                           log_unnormalized_prob)
from gtprior.rng import generator
from gtprior.testing import (NoiseSpec, OutcomeVector, TestDesign,
                             bernoulli_design, run_tests)

LN2 = math.log(2.0)


def criterion(num, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:2d} {tag}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def random_ising_instance(rng, rho):
    n = int(rng.integers(6, 13))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    ne = int(rng.integers(0, 15))
    idx = rng.choice(len(pairs), size=min(ne, len(pairs)), replace=False)
    graph = ItemGraph(n, tuple(pairs[i] for i in idx))
    prior = IsingPrior.uniform(graph, float(rng.uniform(0.0, 1.5)),
                               float(rng.uniform(0.0, 1.0)))
    t = int(rng.integers(4, 21))
    design = bernoulli_design(t, n, float(rng.uniform(0.1, 0.5)),
                              seed=int(rng.integers(2**31)))
    truth = DefectivityVector(tuple(int(v) for v in rng.integers(0, 2, n)))
    noise = NoiseSpec.at(rho)
    y = run_tests(design, truth, noise, seed=int(rng.integers(2**31)))
    return prior, design, noise, y


def test_criterion_1_map_equivalence():
    rng = np.random.default_rng(20240101)
    worst = 0.0
    for trial in range(200):
        rho = 0.05 if trial % 2 else 0.0
        prior, design, noise, y = random_ising_instance(rng, rho)
        eta = map_flip_penalty(rho) if rho else None
        res = decode(DecoderSpec("ising_map", noise=noise, eta=eta,
                                 prior=prior), design, y)
        bf = brute_force_map(design, y, prior, noise)
        assert (bf is None) == res.failed
        if bf is not None:
            gap = abs(res.objective_value -
                      (-map_score(prior, bf, design, y, noise)))
            worst = max(worst, gap)
    criterion(1, "ising_map ILP objective equals brute-force MAP on 200 "
                 "fuzzed instances (<= 1e-7)", worst <= 1e-7,
              f"worst gap {worst:.2e}")


def test_criterion_2_linearization_identity():
    rng = np.random.default_rng(20240102)
    worst = 0.0
    for n in (2, 4, 7, 10):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        ne = int(rng.integers(1, min(12, len(pairs)) + 1))
        idx = rng.choice(len(pairs), size=ne, replace=False)
        graph = ItemGraph(n, tuple(pairs[i] for i in idx))
        prior = IsingPrior(graph, rng.uniform(-1.0, 1.5, ne),
                           rng.uniform(0.0, 1.0, n))
        design = TestDesign(np.zeros((0, n), dtype=np.uint8))
        model = build_model(DecoderSpec("ising_map", prior=prior), design,
                            OutcomeVector(()))
        offset = ising_objective_offset(prior)
        for bits in itertools.product((0, 1), repeat=n):
            w = [bits[a] * bits[b] for a, b in graph.edges]
            x = np.array(list(bits) + w, dtype=float)
            lin = float(model.objective @ x)
            quad = -log_unnormalized_prob(prior, DefectivityVector(bits))
            worst = max(worst, abs(lin - quad - offset))
    criterion(2, "linearized and quadratic objectives differ by a fixed "
                 "constant over all binary assignments (< 1e-10)",
              worst < 1e-10, f"max deviation {worst:.2e}")


def test_criterion_3_gibbs_marginals():
    prior = IsingPrior.uniform(build_grid(3, 3), 0.5, 0.006)
    est = gibbs_marginal_estimate(prior, 50_000, 2000, seed=33)
    exact = exact_marginals(prior)
    dev = float(np.abs(est - exact).max())
    criterion(3, "Gibbs marginals on the 3x3 grid at (0.5, 0.006) match "
                 "exact enumeration (< 0.02)", dev < 0.02,
              f"max deviation {dev:.4f}")


def test_criterion_4_bound_fixed_points():
    nu_gap = abs(optimal_nu(1.0) - LN2)
    rate, _ = rate_limit_at(1.0)
    rate_gap = abs(rate - 1.0)
    conv_ok = all(converse_coefficient(a, b) == 0.0
                  for a in (0.3, 0.5, 0.8, 0.9)
                  for b in (0.1, 0.3, 0.5) if a >= b)
    coef, _ = achievability_coefficient(0.3, 0.999, nu=LN2)
    achiev_gap = abs(coef - 1.0)
    ok = nu_gap <= 1e-6 and rate_gap <= 1e-6 and conv_ok and achiev_gap < 0.01
    criterion(4, "bound fixed points: optimal_nu(1)=ln2, rate_S(1)=1, "
                 "vacuous converse, beta->1 coefficient -> 1", ok,
              f"nu gap {nu_gap:.1e}, rate gap {rate_gap:.1e}, "
              f"achiev gap {achiev_gap:.4f}")


def test_criterion_5_inner_max_validation():
    rng = np.random.default_rng(20240105)
    ok = True
    for _ in range(50):
        a = float(rng.uniform(0.02, 0.98))
        b = float(rng.uniform(0.02, 0.98))
        nu = float(rng.uniform(0.2, 2.5))
        m = max(a, b)
        grid = np.linspace(a, 1.0, 201)
        vals = np.array([inner_max_objective(al, b, nu) for al in grid])
        at_m = inner_max_objective(m, b, nu)
        step = (1.0 - a) / 200
        ok &= vals.max() <= at_m * (1 + 1e-9)
        ok &= abs(float(grid[int(vals.argmax())]) - m) <= step + 1e-12
    criterion(5, "grid search confirms the inner max over alpha sits at "
                 "max(alpha*, beta) for 50 random triples", ok)


def test_criterion_6_info_density_calibration():
    k = 50
    p = LN2 / k
    gen = generator(20240106)
    worst = 0.0
    details = []
    for alpha in (0.2, 0.5, 1.0):
        tau = int(round(alpha * k))
        s_dif = DefectiveSet(tuple(range(tau)), k)
        s_eq = DefectiveSet(tuple(range(tau, k)), k)
        total = 0.0
        tests = 0
        for _ in range(5):  # 5 chunks of 2e5 tests = 1e6 simulated tests
            chunk = 200_000
            x = (gen.random((chunk, k)) < p).astype(np.uint8)
            design = TestDesign(x, bernoulli_p=p)
            y = OutcomeVector(tuple(int(v) for v in (x.sum(axis=1) >= 1)))
            total += info_density(design, y, s_dif, s_eq, p)
            tests += chunk
        mean = total / tests
        gap = abs(mean - mi_asymptotic(alpha, LN2))
        details.append(f"alpha={alpha}: gap {gap:.4f}")
        worst = max(worst, gap)
    criterion(6, "mean per-test information density over 1e6 tests matches "
                 "the asymptotic formula (+-0.005 bits)", worst <= 0.005,
              "; ".join(details))


def test_criterion_7_threshold_decoder_smoke():
    family = CandidateFamily.from_members(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], n=10)
    p = LN2 / family.k
    rates = {}
    for t in (10, 60):
        errs = 0
        gen = generator(20240107)
        for _ in range(200):
            truth = family.sets[int(gen.integers(len(family.sets)))]
            design = bernoulli_design(t, family.n, p,
                                      seed=int(gen.integers(2**63)))
            y = run_tests(design, truth.to_vector(), NoiseSpec())
            got = threshold_decode(family, design, y, d_max=0, delta=0.01)
            if got is None or got.members != truth.members:
                errs += 1
        rates[t] = errs / 200
    ok = rates[60] <= 0.10 and rates[60] < rates[10]
    criterion(7, "threshold decoder: error rate <= 10% at t=60 and strictly "
                 "below the t=10 rate (200 trials)", ok,
              f"t=60: {rates[60]:.3f}, t=10: {rates[10]:.3f}")


def test_criterion_8_qualitative_figure_reproduction():
    config = ExperimentConfig(
        graph=GraphConfig(kind="grid", rows=10, cols=10),
        lam=0.5, phi=0.006, truth_sweeps=1000,
        tests=(60,), p=None, rho=(0.0,),
        decoders=(DecoderConfig("sparsity"), DecoderConfig("ising_map")),
        trials=20, base_seed=5)
    report = run_experiment(config)
    fn = {row.decoder: row.fn_rate for row in report.rows}
    ok = fn["ising_map"] <= fn["sparsity"] + 1e-12
    criterion(8, "10x10 grid, t=60, 20 paired trials: ising_map ILP mean FN/k "
                 "<= sparsity ILP mean FN/k", ok,
              f"ising {fn['ising_map']:.3f} vs sparsity {fn['sparsity']:.3f}")


def test_criterion_9_solver_soundness():
    rng = np.random.default_rng(20240109)
    exact = 0
    lp_checked = 0
    ok = True
    for _ in range(500):
        n = int(rng.integers(1, 17))
        m = int(rng.integers(0, 11))
        c = rng.integers(-5, 6, n).astype(float)
        a = rng.integers(-5, 6, (m, n)).astype(float)
        rel = tuple(("<=", "==", ">=")[i] for i in rng.integers(0, 3, m))
        xr = rng.integers(0, 2, n)
        b = (a @ xr + rng.integers(-2, 3, m)).astype(float) if m else np.zeros(0)
        model = MilpModel.from_dense(c, np.zeros(n), np.ones(n), a, rel, b,
                                     np.ones(n, dtype=bool))
        points = np.concatenate([*config_chunks(n, "criterion 9")]).astype(float)
        feasible = points[feasibility_violation(model, points) <= 1e-9]
        best = float((feasible @ c).min()) if len(feasible) else None
        sol = solve_ilp(model)
        if best is None:
            ok &= sol.status == "infeasible"
        else:
            ok &= sol.status == "optimal" and sol.objective_value == best
            exact += 1
        lp = solve_lp(model)
        if lp.status == "optimal":
            ok &= feasibility_violation(model, lp.x) <= 1e-9
            lp_checked += 1
    criterion(9, "500 fuzzed 0/1 ILPs match exhaustive enumeration exactly; "
                 "optimal LP solutions pass the 1e-9 feasibility re-check",
              ok, f"{exact} feasible ILPs, {lp_checked} LP re-checks")


def test_criterion_10_reproducibility():
    config = ExperimentConfig(
        graph=GraphConfig(kind="grid", rows=2, cols=3),
        lam=0.4, phi=0.1, truth_sweeps=200,
        tests=(8,), p=None, rho=(0.0, 0.01),
        decoders=(DecoderConfig("sparsity", eta=2.0),
                  DecoderConfig("ising_map")),
        trials=3, base_seed=77)
    a = run_experiment(config)
    b = run_experiment(config)
    ok = (report_csv(a, include_times=False) == report_csv(b, include_times=False)
          and report_json(a, include_times=False) ==
          report_json(b, include_times=False))
    criterion(10, "repeated experiment runs are byte-identical excluding "
                  "wall-time fields", ok)
