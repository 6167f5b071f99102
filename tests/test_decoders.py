import math

import numpy as np
import pytest

from gtprior.core import DefectiveSet, DefectivityVector
from gtprior.decoders import (CandidateFamily, DecoderSpec, ModelViolationError,
                              brute_force_map, build_model, decode,
                              decoder_spec, info_density,
                              ising_objective_offset, map_flip_penalty,
                              map_score, n_tau_counts, n_tilde_max,
                              round_relaxed, sparsity_flip_penalty,
                              threshold_decode)
from gtprior.milp import MilpModel, solve_ilp, solve_lp
from gtprior.prior import (IsingPrior, ItemGraph, build_grid, gibbs_sample,
                           log_unnormalized_prob)
from gtprior.rng import generator
from gtprior.testing import (NoiseSpec, OutcomeVector, TestDesign,
                             bernoulli_design, noiseless_outcomes, run_tests)
from helpers import highs, vec


def design_of(rows):
    return TestDesign(np.array(rows, dtype=np.uint8))


def random_instance(rng, n_range=(6, 13), max_edges=14, t_range=(4, 21),
                    rho=0.0):
    n = int(rng.integers(*n_range))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    ne = int(rng.integers(0, min(max_edges, len(pairs)) + 1))
    idx = rng.choice(len(pairs), size=ne, replace=False)
    graph = ItemGraph(n, tuple(pairs[i] for i in idx))
    prior = IsingPrior.uniform(graph, float(rng.uniform(0.0, 1.5)),
                               float(rng.uniform(0.0, 1.0)))
    t = int(rng.integers(*t_range))
    design = bernoulli_design(t, n, float(rng.uniform(0.1, 0.5)),
                              seed=int(rng.integers(2**31)))
    truth = DefectivityVector(tuple(int(v) for v in rng.integers(0, 2, n)))
    noise = NoiseSpec.at(rho)
    y = run_tests(design, truth, noise, seed=int(rng.integers(2**31)))
    return prior, design, truth, noise, y


class TestSparsityModel:
    def test_all_negative_forces_zero(self):
        design = design_of([[1, 1, 0], [0, 1, 1]])
        sol = solve_ilp(build_model(DecoderSpec("sparsity"), design,
                                    OutcomeVector((0, 0))))
        assert sol.objective_value == 0.0
        assert (sol.x == 0).all()

    def test_forced_unique_optimum(self):
        design = design_of([[1, 1, 0], [0, 1, 1]])
        sol = solve_ilp(build_model(DecoderSpec("sparsity"), design,
                                    OutcomeVector((1, 0))))
        assert sol.objective_value == 1.0
        assert tuple(sol.x) == (1.0, 0.0, 0.0)

    def test_noisy_contradictory_tests(self):
        design = design_of([[1], [1]])
        spec = DecoderSpec("sparsity", noise=NoiseSpec("symmetric", 0.1), eta=2.0)
        model = build_model(spec, design, OutcomeVector((1, 0)))
        sol = solve_ilp(model)
        assert sol.objective_value == 2.0
        assert sol.x[0] == 0.0  # u=(0) with the positive test flipped

    def test_noiseless_estimate_satisfies_constraints(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            prior, design, truth, noise, y = random_instance(rng)
            res = decode(DecoderSpec("sparsity"), design, y)
            assert not res.failed
            got = noiseless_outcomes(design, res.estimate)
            assert (got == y.to_numpy()).all()

    def test_relaxed_bound(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            prior, design, truth, noise, y = random_instance(rng)
            lp = solve_lp(build_model(DecoderSpec("sparsity", relaxed=True, noise=noise),
                                      design, y))
            ilp = solve_ilp(build_model(DecoderSpec("sparsity", noise=noise), design, y))
            assert lp.objective_value <= ilp.objective_value + 1e-9


class TestIsingLinearization:
    def test_lambda_zero_reduces_to_scaled_sparsity(self):
        rng = np.random.default_rng(42)
        graph = build_grid(2, 3)
        prior = IsingPrior.uniform(graph, 0.0, 0.25)
        design = bernoulli_design(8, 6, 0.4, seed=4)
        truth = vec(1, 0, 0, 1, 0, 0)
        y = run_tests(design, truth, NoiseSpec())
        ising = solve_ilp(build_model(DecoderSpec("ising_map", prior=prior), design, y))
        sparse = solve_ilp(build_model(DecoderSpec("sparsity"), design, y))
        # objective(u) = 2*phi*sum(u) up to the documented constant
        assert ising.objective_value + ising_objective_offset(prior) == \
            pytest.approx(2 * 0.25 * sparse.objective_value)

    def test_linearized_minus_quadratic_is_constant(self):
        graph = ItemGraph(2, ((0, 1),))
        prior = IsingPrior.uniform(graph, 0.5, 0.1)
        design = TestDesign(np.zeros((0, 2), dtype=np.uint8))
        model = build_model(DecoderSpec("ising_map", prior=prior), design,
                            OutcomeVector(()))
        diffs = set()
        for u0 in (0, 1):
            for u1 in (0, 1):
                x = np.array([u0, u1, u0 * u1], dtype=float)
                lin = float(model.objective @ x)
                quad = -log_unnormalized_prob(prior, vec(u0, u1))
                diffs.add(round(lin - quad, 12))
        assert diffs == {round(ising_objective_offset(prior), 12)}

    def test_ilp_matches_brute_force_on_grid(self):
        graph = build_grid(3, 3)
        prior = IsingPrior.uniform(graph, 0.5, 0.1)
        rng = np.random.default_rng(43)
        truth = gibbs_sample(prior, 200, seed=17)
        design = bernoulli_design(10, 9, 0.3, seed=18)
        y = run_tests(design, truth, NoiseSpec())
        res = decode(DecoderSpec("ising_map", prior=prior), design, y)
        bf = brute_force_map(design, y, prior, NoiseSpec())
        assert res.objective_value == pytest.approx(
            -map_score(prior, bf, design, y, NoiseSpec()), abs=1e-9)


def three_row_model(model, design, prior):
    """``model`` with every edge's full McCormick triple (w <= u_a, w <= u_b,
    u_a + u_b - w <= 1) in place of the rows the builder kept by sign."""
    n, t, edges = design.n, design.t, prior.graph.edges
    rows = np.zeros((3 * len(edges), model.num_vars))
    for k, (a, b) in enumerate(edges):
        rows[3 * k, [n + k, a]] = 1.0, -1.0
        rows[3 * k + 1, [n + k, b]] = 1.0, -1.0
        rows[3 * k + 2, [a, b, n + k]] = 1.0, 1.0, -1.0
    return MilpModel.from_dense(
        model.objective, model.lower, model.upper,
        np.vstack([model.a_matrix[:t], rows]),
        model.relations[:t] + ("<=",) * len(rows),
        np.concatenate([model.rhs[:t], np.tile([0.0, 0.0, 1.0], len(edges))]),
        model.integer_mask, model.objective_constant)


class TestMcCormickBySign:
    """The builder keeps only the McCormick rows an edge's lambda sign can
    make bind; on priors with per-edge lambda of either sign and exact
    zeros, the ILP still equals brute-force MAP and the relaxed LP the LP
    over all three rows."""

    def test_mixed_sign_priors_match_brute_force_and_three_rows(self):
        rng = np.random.default_rng(44)
        signs = set()
        for trial in range(48):
            rho = 0.05 if trial % 2 else 0.0
            _, design, _, noise, y = random_instance(rng, n_range=(5, 11), rho=rho)
            pairs = [(a, b) for a in range(design.n) for b in range(a + 1, design.n)]
            idx = rng.choice(len(pairs), size=int(rng.integers(1, 11)), replace=False)
            lam = rng.uniform(-1.5, 1.5, idx.size) * (rng.random(idx.size) > 0.2)
            prior = IsingPrior(ItemGraph(design.n, tuple(pairs[i] for i in idx)),
                               lam, rng.uniform(-1.0, 1.0, design.n))
            signs |= set(np.sign(prior.lam).tolist())
            eta = map_flip_penalty(rho) if rho else None
            res = decode(DecoderSpec("ising_map", noise=noise, eta=eta, prior=prior),
                         design, y)
            bf = brute_force_map(design, y, prior, noise)
            assert (bf is None) == res.failed
            if bf is not None:
                assert res.objective_value == pytest.approx(
                    -map_score(prior, bf, design, y, noise), abs=1e-7)
            relaxed = build_model(DecoderSpec("ising_map", relaxed=True, noise=noise,
                                              eta=eta, prior=prior), design, y)
            lp = solve_lp(relaxed)
            if lp.status == "optimal":
                status, want = highs(three_row_model(relaxed, design, prior))
                assert status == 0
                assert lp.objective_value == pytest.approx(want, rel=1e-7, abs=1e-7)
        assert signs == {-1.0, 0.0, 1.0}


class TestModelLayout:
    """Exact row order, relations, rhs and coefficients of both builders on a
    3-item triangle with one positive and one negative test.  Its edges have
    lambda > 0 (two McCormick rows), lambda = 0 (none) and lambda < 0 (one).
    Branch and bound explores rows in this order, so the layout is part of
    the output."""

    design = design_of([[1, 1, 0], [0, 1, 1]])
    y = OutcomeVector((1, 0))
    # edges in canonical order (0, 1), (0, 2), (1, 2)
    prior = IsingPrior(ItemGraph(3, ((0, 1), (0, 2), (1, 2))),
                       np.array([0.5, 0.0, -0.25]), np.array([0.125, 0.25, 0.375]))
    # family, noisy -> (objective, a_matrix, relations, rhs)
    expected = {
        ("sparsity", False): (
            [1, 1, 1],
            [[1, 1, 0],
             [0, 1, 1]],
            (">=", "=="), [1, 0]),
        ("sparsity", True): (
            [1, 1, 1, 2, 2],
            [[1, 1, 0, 1, 0],
             [0, 1, 1, 0, -2]],
            (">=", "<="), [1, 0]),
        # columns u0 u1 u2 | w01 w02 w12
        ("ising_map", False): (
            [1.25, 1.0, 0.25, -2.0, 0.0, 1.0],
            [[1, 1, 0, 0, 0, 0],
             [0, 1, 1, 0, 0, 0],
             [-1, 0, 0, 1, 0, 0],
             [0, -1, 0, 1, 0, 0],
             [0, 1, 1, 0, 0, -1]],
            (">=", "==", "<=", "<=", "<="),
            [1, 0, 0, 0, 1]),
        # columns u0 u1 u2 | w01 w02 w12 | xi0 xi1
        ("ising_map", True): (
            [1.25, 1.0, 0.25, -2.0, 0.0, 1.0, 2, 2],
            [[1, 1, 0, 0, 0, 0, 1, 0],
             [0, 1, 1, 0, 0, 0, 0, -2],
             [-1, 0, 0, 1, 0, 0, 0, 0],
             [0, -1, 0, 1, 0, 0, 0, 0],
             [0, 1, 1, 0, 0, -1, 0, 0]],
            (">=", "<=", "<=", "<=", "<="),
            [1, 0, 0, 0, 1]),
    }

    @pytest.mark.parametrize("family,noisy", sorted(expected))
    def test_layout(self, family, noisy):
        noise = NoiseSpec("symmetric", 0.1) if noisy else NoiseSpec()
        spec = DecoderSpec(family, relaxed=noisy, noise=noise,
                           eta=2.0 if noisy else None,
                           prior=self.prior if family == "ising_map" else None)
        model = build_model(spec, self.design, self.y)
        c, a, rel, b = self.expected[(family, noisy)]
        assert np.array_equal(model.objective, np.array(c, dtype=float))
        assert np.array_equal(model.a_matrix, np.array(a, dtype=float))
        assert model.relations == rel
        assert np.array_equal(model.rhs, np.array(b, dtype=float))
        assert np.array_equal(model.lower, np.zeros(len(c)))
        assert np.array_equal(model.upper, np.ones(len(c)))
        assert np.array_equal(model.integer_mask, np.full(len(c), not noisy))

    def test_objective_constant(self):
        spec = DecoderSpec("ising_map", prior=self.prior)
        model = build_model(spec, self.design, self.y)
        assert model.objective_constant == -1.0  # -(sum lam + sum phi)
        assert build_model(DecoderSpec("sparsity"), self.design,
                           self.y).objective_constant == 0.0

    def test_mismatched_sizes_are_rejected(self):
        spec = DecoderSpec("ising_map", prior=self.prior)
        with pytest.raises(ValueError, match="test count"):
            build_model(spec, self.design, OutcomeVector((1, 0, 0)))
        with pytest.raises(ValueError, match="test count"):
            build_model(DecoderSpec("sparsity"), self.design, OutcomeVector((1,)))
        with pytest.raises(ValueError, match="item count"):
            build_model(spec, design_of([[1, 1, 0, 0], [0, 1, 1, 0]]), self.y)

    def test_largest_full_grid_28_build_stays_small(self):
        # The noisy ising_map model at t=500 is 3524x2796 with about 11k
        # nonzeros; as a dense matrix it alone would take 79 MB.
        import tracemalloc

        from gtprior.harness import PRESETS, ExperimentConfig, sample_truth

        config = ExperimentConfig.from_dict(PRESETS["full-grid-28"])
        graph = config.graph.build(config.base_seed)
        truth = sample_truth(config, graph)
        design = bernoulli_design(500, truth.n, math.log(2.0) / truth.k, seed=3)
        y = run_tests(design, truth, NoiseSpec("symmetric", 0.01), seed=4)
        spec = decoder_spec("ising_map", False, 0.01, None,
                            IsingPrior.uniform(graph, config.lam, config.phi))
        tracemalloc.start()
        try:
            model = build_model(spec, design, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (model.num_rows, model.num_vars) == (3524, 2796)
        assert peak < 4 * 2 ** 20


class TestDecode:
    def test_all_negative_yields_zero_vector(self):
        design = bernoulli_design(6, 5, 0.4, seed=19)
        y = OutcomeVector((0,) * 6)
        res = decode(DecoderSpec("sparsity"), design, y)
        assert res.estimate == vec(0, 0, 0, 0, 0)

    def test_rounding_rule(self):
        assert round_relaxed(np.array([0.2, 0.7, 0.5])) == (0, 1, 1)

    def test_relaxed_decode_returns_binary_estimate(self):
        rng = np.random.default_rng(44)
        prior, design, truth, noise, y = random_instance(rng)
        res = decode(DecoderSpec("ising_map", relaxed=True, prior=prior),
                     design, y)
        assert not res.failed
        assert set(res.estimate.bits) <= {0, 1}

    def test_infeasible_decode_failure(self):
        # Item 0 is in a negative test, so the positive test is uncoverable.
        design = design_of([[1], [1]])
        y = OutcomeVector((0, 1))
        res = decode(DecoderSpec("sparsity"), design, y)
        assert res.failed and res.estimate is None
        assert res.solver_status == "infeasible"

    def test_result_serialization(self):
        design = design_of([[1, 0], [0, 1]])
        res = decode(DecoderSpec("sparsity"), design, OutcomeVector((1, 0)))
        obj = res.to_json_dict()
        assert obj["estimate"] == "10"
        assert obj["decoder"]["family"] == "sparsity"
        assert obj["solver_status"] == "optimal"

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DecoderSpec("ising_map")  # missing prior
        with pytest.raises(ValueError):
            DecoderSpec("sparsity", noise=NoiseSpec("symmetric", 0.1))  # no eta
        with pytest.raises(ValueError):
            DecoderSpec("unknown")

    def test_eta_defaults(self):
        assert map_flip_penalty(0.05) == pytest.approx(math.log(0.95 / 0.05))
        got = sparsity_flip_penalty(0.01, 0.1)
        assert got == pytest.approx(math.log(99) / math.log(9))

    def test_decoder_spec_derivation(self):
        prior = IsingPrior.uniform(build_grid(2, 2), 0.5, 0.1)
        clean = decoder_spec("ising_map", False, 0.0, None, prior)
        assert clean.noise == NoiseSpec() and clean.eta is None
        noisy = decoder_spec("ising_map", True, 0.05, None, prior)
        assert noisy.noise == NoiseSpec("symmetric", 0.05)
        assert noisy.eta == map_flip_penalty(0.05) and noisy.prior is prior
        sparse = decoder_spec("sparsity", False, 0.01, None, prior, 0.1)
        assert sparse.eta == sparsity_flip_penalty(0.01, 0.1)
        assert sparse.prior is None
        assert decoder_spec("sparsity", False, 0.01, 3.0, None).eta == 3.0
        for q in (None, 0.0, 0.5):
            with pytest.raises(ValueError):
                decoder_spec("sparsity", False, 0.01, None, None, q)

    @pytest.mark.parametrize("rho", [-0.1, float("nan"), 0.5])
    def test_decoder_spec_rejects_noise_level_outside_range(self, rho):
        for eta in (None, 2.0):
            with pytest.raises(ValueError, match=r"rho must lie in \[0, 0.5\)"):
                decoder_spec("sparsity", False, rho, eta, None, 0.1)


class TestBruteForceMap:
    def test_all_negative_sparse_max(self):
        design = design_of([[1, 1, 0], [0, 1, 1]])
        prior = IsingPrior.uniform(ItemGraph(3, ()), 0.0, 0.5)
        got = brute_force_map(design, OutcomeVector((0, 0)), prior, NoiseSpec())
        assert got == vec(0, 0, 0)

    def test_edge_term_dominates(self):
        prior = IsingPrior.uniform(ItemGraph(2, ((0, 1),)), 10.0, 0.1)
        design = design_of([[1, 0]])
        got = brute_force_map(design, OutcomeVector((1,)), prior, NoiseSpec())
        assert got == vec(1, 1)

    def test_noiseless_no_feasible_vector(self):
        design = design_of([[1], [1]])
        prior = IsingPrior.uniform(ItemGraph(1, ()), 0.0, 0.1)
        assert brute_force_map(design, OutcomeVector((0, 1)), prior,
                               NoiseSpec()) is None

    def test_lexicographic_tie_break(self):
        # Empty prior, no tests: every vector ties; lexicographically
        # smallest is all-zeros.
        prior = IsingPrior.uniform(ItemGraph(3, ()), 0.0, 0.0)
        design = TestDesign(np.zeros((0, 3), dtype=np.uint8))
        got = brute_force_map(design, OutcomeVector(()), prior, NoiseSpec())
        assert got == vec(0, 0, 0)

    def test_matches_ilp_on_random_instances(self):
        rng = np.random.default_rng(45)
        for trial in range(60):
            rho = 0.05 if trial % 2 else 0.0
            prior, design, truth, noise, y = random_instance(
                rng, n_range=(6, 11), rho=rho)
            eta = map_flip_penalty(rho) if rho else None
            res = decode(DecoderSpec("ising_map", noise=noise, eta=eta,
                                     prior=prior), design, y)
            bf = brute_force_map(design, y, prior, noise)
            assert (bf is None) == res.failed
            if bf is not None:
                assert res.objective_value == pytest.approx(
                    -map_score(prior, bf, design, y, noise), abs=1e-7)

    def test_budget_guard(self):
        prior = IsingPrior.uniform(ItemGraph(21, ()), 0.0, 0.0)
        design = TestDesign(np.zeros((0, 21), dtype=np.uint8))
        with pytest.raises(ValueError):
            brute_force_map(design, OutcomeVector(()), prior, NoiseSpec())


class TestInfoDensity:
    def test_eq_hit_contributes_zero(self):
        design = design_of([[1, 1, 0]])
        s_dif = DefectiveSet((0,), 3)
        s_eq = DefectiveSet((1,), 3)
        assert info_density(design, OutcomeVector((1,)), s_dif, s_eq, 0.3) == 0.0

    def test_negative_test_value(self):
        # No s_eq item, s_dif item excluded, Y=0: density -tau*log2(1-p).
        design = design_of([[0, 0, 1]])
        s_dif = DefectiveSet((0,), 3)
        s_eq = DefectiveSet((1,), 3)
        p = 0.3
        got = info_density(design, OutcomeVector((0,)), s_dif, s_eq, p)
        assert got == pytest.approx(-math.log2(1 - p))

    def test_positive_test_value(self):
        design = design_of([[1, 0, 0]])
        s_dif = DefectiveSet((0,), 3)
        s_eq = DefectiveSet((1,), 3)
        p = 0.3
        got = info_density(design, OutcomeVector((1,)), s_dif, s_eq, p)
        assert got == pytest.approx(-math.log2(1 - (1 - p)))

    def test_model_violation_rejected(self):
        design = design_of([[0, 0, 1]])
        s_dif = DefectiveSet((0,), 3)
        s_eq = DefectiveSet((1,), 3)
        with pytest.raises(ModelViolationError):
            info_density(design, OutcomeVector((1,)), s_dif, s_eq, 0.3)

    def test_overlap_rejected(self):
        design = design_of([[1, 1]])
        with pytest.raises(ValueError):
            info_density(design, OutcomeVector((1,)), DefectiveSet((0,), 2),
                         DefectiveSet((0,), 2), 0.3)


class TestThresholdDecoder:
    def family(self):
        return CandidateFamily.from_members(
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], n=10)

    def test_n_tau_counts(self):
        fam = self.family()
        assert n_tau_counts(fam).tolist() == [1, 2, 3]

    def test_n_tilde_max(self):
        fam = self.family()
        assert n_tilde_max(fam, 0) == 1
        assert n_tilde_max(fam, fam.k) == len(fam.sets)

    def test_beta_exponent(self):
        fam = self.family()
        expect = math.log2(5) / (2 * math.log2(5))
        assert fam.beta() == pytest.approx(expect)

    def test_singleton_family_always_returned(self):
        fam = CandidateFamily.from_members([(2, 5)], n=8)
        design = bernoulli_design(4, 8, 0.3, seed=50)
        y = run_tests(design, fam.sets[0].to_vector(), NoiseSpec())
        got = threshold_decode(fam, design, y, d_max=0)
        assert got == fam.sets[0]

    def test_dmax_k_with_singleton_is_certain(self):
        fam = CandidateFamily.from_members([(1, 3)], n=8)
        design = bernoulli_design(2, 8, 0.4, seed=51)
        y = run_tests(design, fam.sets[0].to_vector(), NoiseSpec())
        assert threshold_decode(fam, design, y, d_max=fam.k) == fam.sets[0]

    def test_smoke_error_rates(self):
        fam = self.family()
        p = math.log(2) / fam.k
        errors = {}
        for t in (10, 60):
            errs = 0
            gen = generator(999)
            for _ in range(100):
                truth = fam.sets[int(gen.integers(len(fam.sets)))]
                design = bernoulli_design(t, fam.n, p,
                                          seed=int(gen.integers(2**63)))
                y = run_tests(design, truth.to_vector(), NoiseSpec())
                got = threshold_decode(fam, design, y, d_max=0, delta=0.01)
                if got is None or got.members != truth.members:
                    errs += 1
            errors[t] = errs / 100
        assert errors[60] <= 0.10
        assert errors[60] < errors[10]

    def test_all_pairs_family_low_error_at_t60(self):
        # All 2-subsets of {0..4} in a universe of 8 items.
        import itertools
        fam = CandidateFamily.from_members(
            list(itertools.combinations(range(5), 2)), n=8)
        p = math.log(2) / fam.k
        errs = 0
        gen = generator(77)
        for _ in range(200):
            truth = fam.sets[int(gen.integers(len(fam.sets)))]
            design = bernoulli_design(60, fam.n, p,
                                      seed=int(gen.integers(2**63)))
            y = run_tests(design, truth.to_vector(), NoiseSpec())
            got = threshold_decode(fam, design, y, d_max=0, delta=0.01)
            if got is None or got.members != truth.members:
                errs += 1
        assert errs / 200 < 0.10

    def test_family_validation(self):
        with pytest.raises(ValueError):
            CandidateFamily.from_members([(0, 1), (0, 1)], n=5)
        with pytest.raises(ValueError):
            CandidateFamily.from_members([(0, 1), (2,)], n=5)
