import hashlib
import math
import warnings

import numpy as np
import pytest

from gtprior.core import DefectivityVector
from gtprior.harness import PRESETS, ExperimentConfig, sample_truth
from gtprior.prior import (IsingPrior, ItemGraph, build_block, build_grid,
                           exact_marginals, gibbs_marginal_estimate,
                           gibbs_sample, gibbs_sample_ensemble, load_edge_list,
                           log_unnormalized_prob, log_unnormalized_prob_many,
                           perturb_edges, subsample_vertices)
from gtprior.rng import generator


def vec(*bits):
    return DefectivityVector(tuple(bits))


def random_graph(rng, n_max, max_edges=None):
    """A graph on 1..n_max vertices with a uniform random edge set of at most
    ``max_edges(n)`` edges (any number when None)."""
    n = int(rng.integers(1, n_max + 1))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    cap = len(pairs) if max_edges is None else min(len(pairs), max_edges(n))
    chosen = rng.choice(len(pairs), int(rng.integers(0, cap + 1)), replace=False)
    return ItemGraph(n, tuple(pairs[i] for i in chosen))


def scalar_gibbs(prior, sweeps, seed):
    """The systematic scan written site by site: the reference for the kernel."""
    gen = generator(seed)
    s = np.where(gen.random(prior.n) < 0.5, -1.0, 1.0)
    nbrs = prior.graph.neighbor_lists()
    for _ in range(sweeps):
        draws = gen.random(prior.n)
        for j in range(prior.n):
            h = sum(prior.lam[e] * s[jp] for jp, e in nbrs[j]) - prior.phi[j]
            try:
                p1 = 1.0 / (1.0 + math.exp(-2.0 * h))
            except OverflowError:
                p1 = 0.0
            s[j] = 1.0 if draws[j] < p1 else -1.0
    return (s > 0).astype(np.uint8)


class TestLogProb:
    def test_empty_energy(self):
        prior = IsingPrior.uniform(ItemGraph(3, ()), 0.7, 0.0)
        for bits in [(0, 0, 0), (1, 0, 1), (1, 1, 1)]:
            assert log_unnormalized_prob(prior, vec(*bits)) == 0.0

    def test_single_edge(self):
        prior = IsingPrior.uniform(ItemGraph(2, ((0, 1),)), 0.5, 0.0)
        assert log_unnormalized_prob(prior, vec(1, 1)) == pytest.approx(0.5)
        assert log_unnormalized_prob(prior, vec(1, 0)) == pytest.approx(-0.5)

    def test_edge_plus_field(self):
        prior = IsingPrior.uniform(ItemGraph(2, ((0, 1),)), 0.5, 0.1)
        assert log_unnormalized_prob(prior, vec(1, 1)) == pytest.approx(0.3)

    def test_dimension_mismatch(self):
        prior = IsingPrior.uniform(ItemGraph(2, ()), 0.0, 0.0)
        with pytest.raises(ValueError):
            log_unnormalized_prob(prior, vec(1, 0, 0))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        graph = ItemGraph(6, ((0, 1), (1, 2), (2, 5), (3, 4)))
        prior = IsingPrior(graph, rng.normal(size=4), rng.normal(size=6))
        configs = rng.integers(0, 2, (50, 6))
        many = log_unnormalized_prob_many(prior, configs)
        for row, val in zip(configs, many):
            s = 2.0 * row - 1.0
            loop = -float(prior.phi @ s) + sum(
                prior.lam[e] * s[j] * s[jp] for e, (j, jp) in enumerate(graph.edges))
            assert val == pytest.approx(loop)
            assert log_unnormalized_prob(prior, vec(*row)) == pytest.approx(loop)

    def test_single_flip_matches_local_field(self):
        # Flipping one bit changes the log-probability by the local field.
        rng = np.random.default_rng(4)
        graph = build_grid(3, 3)
        prior = IsingPrior(graph, rng.normal(size=graph.num_edges),
                           rng.normal(size=9))
        nbrs = graph.neighbor_lists()
        for _ in range(1000):
            bits = list(rng.integers(0, 2, 9))
            j = int(rng.integers(9))
            before = log_unnormalized_prob(prior, vec(*bits))
            flipped = list(bits)
            flipped[j] = 1 - flipped[j]
            after = log_unnormalized_prob(prior, vec(*flipped))
            s_new = 2.0 * flipped[j] - 1.0
            local = sum(prior.lam[e] * (2.0 * bits[jp] - 1.0) for jp, e in nbrs[j])
            expected = 2.0 * s_new * (local - prior.phi[j])
            assert after - before == pytest.approx(expected, abs=1e-9)


class TestExactMarginals:
    def test_no_interactions_no_field(self):
        prior = IsingPrior.uniform(ItemGraph(4, ()), 0.0, 0.0)
        assert exact_marginals(prior) == pytest.approx([0.5] * 4)

    def test_common_field(self):
        prior = IsingPrior.uniform(ItemGraph(3, ()), 0.0, 0.5)
        expected = 1.0 / (1.0 + math.exp(1.0))  # e^{-phi} / (e^{phi} + e^{-phi})
        assert exact_marginals(prior) == pytest.approx([expected] * 3)
        assert expected == pytest.approx(0.26894, abs=1e-5)

    def test_two_site_agreement_probability(self):
        prior = IsingPrior.uniform(ItemGraph(2, ((0, 1),)), 1.0, 0.0)
        assert exact_marginals(prior) == pytest.approx([0.5, 0.5])
        # agreement probability from direct state enumeration
        weights = {bits: math.exp(log_unnormalized_prob(prior, vec(*bits)))
                   for bits in [(0, 0), (0, 1), (1, 0), (1, 1)]}
        z = sum(weights.values())
        agree = (weights[(0, 0)] + weights[(1, 1)]) / z
        assert agree == pytest.approx(math.e / (math.e + math.exp(-1)), abs=1e-12)
        assert agree == pytest.approx(0.88080, abs=1e-5)

    def test_disconnected_components_factorize(self):
        full = IsingPrior.uniform(ItemGraph(4, ((0, 1), (2, 3))), 0.8, 0.2)
        part = IsingPrior.uniform(ItemGraph(2, ((0, 1),)), 0.8, 0.2)
        got = exact_marginals(full)
        want = exact_marginals(part)
        assert got == pytest.approx(np.concatenate([want, want]))

    def test_budget_guard(self):
        prior = IsingPrior.uniform(ItemGraph(21, ()), 0.0, 0.0)
        with pytest.raises(ValueError):
            exact_marginals(prior)


class TestGibbs:
    def test_deterministic_given_seed(self):
        prior = IsingPrior.uniform(build_grid(3, 3), 0.5, 0.006)
        a = gibbs_sample(prior, 50, seed=123)
        b = gibbs_sample(prior, 50, seed=123)
        assert a == b
        assert gibbs_sample(prior, 50, seed=124) != a or True  # different seed allowed to differ

    def test_ensemble_deterministic(self):
        prior = IsingPrior.uniform(build_grid(2, 2), 0.3, 0.1)
        a = gibbs_sample_ensemble(prior, 20, 8, seed=5)
        b = gibbs_sample_ensemble(prior, 20, 8, seed=5)
        assert (a == b).all()

    def test_independent_sites_strong_field(self):
        # With no edges the chain mixes immediately; fraction of ones matches
        # the closed form 1/(1+e^{2 phi}).
        prior = IsingPrior.uniform(ItemGraph(20, ()), 0.0, 5.0)
        states = gibbs_sample_ensemble(prior, 100, 1000, seed=11)
        frac = states.mean()
        assert abs(frac - 1.0 / (1.0 + math.exp(10.0))) < 0.01

    def test_small_grid_marginals_match_exact(self):
        prior = IsingPrior.uniform(build_grid(3, 3), 0.5, 0.006)
        est = gibbs_marginal_estimate(prior, 2000, 2000, seed=21)
        exact = exact_marginals(prior)
        assert np.abs(est - exact).max() < 0.02

    def test_extreme_field_does_not_overflow(self):
        # |h| ~ 400 overflows math.exp; the conditional is then exactly 0.
        prior = IsingPrior.uniform(build_grid(3, 3), 0.1, 400.0)
        u = gibbs_sample(prior, 10, 1)
        assert u.n == 9 and u.k == 0

    @pytest.mark.parametrize("name, graph, digest", [
        ("ci-grid-10", None,
         "7e0cd1ae004ed0d08bb7ac4e4900f24e7a8ea5b432289ce38b00c7077d1a5db1"),
        ("full-grid-28", None,
         "8883a294e62b2dc08670b7921633474148f35535058d44344e3290a1d463ae8f"),
        ("full-block-28", None,
         "aedc2bca121e10b3cb408ce2f4dc3525effa78f46c7d0f646a715f7b218ae737"),
        ("ci-grid-10", {"kind": "grid", "rows": 14, "cols": 14},  # lp-grid-14
         "643ed061e71c8b8f473a8448d03d9470c316e3233f43e7f8eb6aabdd1166d5a7"),
    ])
    def test_preset_truths_are_pinned(self, name, graph, digest):
        config = dict(PRESETS[name], **({"graph": graph} if graph else {}))
        bits = sample_truth(ExperimentConfig.from_dict(config)).to_numpy()
        assert hashlib.sha256(bits.tobytes()).hexdigest() == digest

    def test_kernel_matches_scalar_scan(self):
        rng = np.random.default_rng(44)
        for _ in range(40):
            graph = random_graph(rng, 30, max_edges=lambda n: 3 * n)
            prior = IsingPrior(graph, rng.normal(size=graph.num_edges),
                               rng.normal(size=graph.n) * rng.choice([1.0, 800.0]))
            sweeps, seed = int(rng.integers(1, 20)), int(rng.integers(1 << 30))
            want = scalar_gibbs(prior, sweeps, seed)
            assert (gibbs_sample(prior, sweeps, seed).to_numpy() == want).all()
            assert (gibbs_sample_ensemble(prior, sweeps, 1, seed)[0] == want).all()

    def test_extreme_field_ensemble_does_not_warn(self):
        prior = IsingPrior.uniform(build_grid(3, 3), 0.1, 400.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = gibbs_sample_ensemble(prior, 10, 4, seed=1)
        assert states.shape == (4, 9) and not states.any()

    def test_sweeps_validation(self):
        prior = IsingPrior.uniform(ItemGraph(2, ()), 0.0, 0.0)
        with pytest.raises(ValueError):
            gibbs_sample(prior, 0, seed=1)


class TestGraphBuilders:
    def test_grid_1x1(self):
        g = build_grid(1, 1)
        assert g.n == 1 and g.num_edges == 0

    def test_grid_2x2(self):
        g = build_grid(2, 2)
        assert g.n == 4 and g.num_edges == 4

    def test_grid_28x28(self):
        g = build_grid(28, 28)
        assert g.n == 784 and g.num_edges == 1512

    def test_grid_edge_count_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            r, c = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            g = build_grid(r, c)
            assert g.num_edges == r * (c - 1) + c * (r - 1)

    def test_grid_rejects_zero(self):
        with pytest.raises(ValueError):
            build_grid(0, 3)

    def test_block_single_equals_grid(self):
        assert build_block(1, 1, 2, 2).edges == build_grid(2, 2).edges

    def test_block_4x4_of_7x7(self):
        g = build_block(4, 4, 7, 7)
        assert g.n == 784 and g.num_edges == 16 * (7 * 6 * 2)

    def test_block_two_paths(self):
        g = build_block(2, 1, 1, 3)
        assert g.n == 6 and g.num_edges == 4
        # no edge crosses the block boundary at index 3
        assert all(not (j < 3 <= jp) for j, jp in g.edges)

    def test_graph_invariants(self):
        with pytest.raises(ValueError):
            ItemGraph(3, ((1, 1),))
        with pytest.raises(ValueError):
            ItemGraph(3, ((0, 1), (1, 0)))
        with pytest.raises(ValueError):
            ItemGraph(2, ((0, 2),))


class TestEdgeListIO:
    def test_parse_simple(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        g = load_edge_list(path)
        assert g.n == 3 and g.num_edges == 2

    def test_header_comments_and_dedup(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a comment\nn 5\n0 1\n1 0\n2 3\n")
        g = load_edge_list(path)
        assert g.n == 5 and g.num_edges == 2

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\nnot an edge\n")
        with pytest.raises(ValueError, match="line 2"):
            load_edge_list(path)

    def test_self_loop_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 0\n")
        with pytest.raises(ValueError, match="self-loop"):
            load_edge_list(path)

    def test_subsample_identity(self):
        g = build_grid(3, 3)
        h = subsample_vertices(g, g.n, seed=0)
        assert h.edges == g.edges

    def test_subsample_triangle(self):
        g = ItemGraph(3, ((0, 1), (1, 2), (0, 2)))
        h = subsample_vertices(g, 2, seed=9)
        assert h.n == 2 and h.num_edges == 1  # any pair induces one edge

    def test_subsample_deterministic(self):
        g = build_grid(4, 4)
        assert subsample_vertices(g, 7, seed=3).edges == \
            subsample_vertices(g, 7, seed=3).edges

    def test_subsample_too_many(self):
        with pytest.raises(ValueError):
            subsample_vertices(build_grid(2, 2), 5, seed=0)


class TestPerturbEdges:
    def test_fraction_zero_identity(self):
        g = build_grid(3, 3)
        assert perturb_edges(g, 0.0, seed=1) is g

    def test_fraction_one_on_2x2_rejected(self):
        # K4 has 6 pairs, the grid uses 4, so only 2 non-edges exist.
        with pytest.raises(ValueError):
            perturb_edges(build_grid(2, 2), 1.0, seed=1)

    def test_count_audit_28x28(self):
        g = build_grid(28, 28)
        h = perturb_edges(g, 0.5, seed=2)
        assert h.num_edges == g.num_edges == 1512
        removed = set(g.edges) - set(h.edges)
        added = set(h.edges) - set(g.edges)
        assert len(removed) == len(added) == 756

    def test_no_duplicates_or_self_loops(self):
        g = build_grid(4, 4)
        for seed in range(5):
            h = perturb_edges(g, 0.25, seed=seed)
            assert len(set(h.edges)) == h.num_edges == g.num_edges
            assert all(j != jp for j, jp in h.edges)

    def test_deterministic(self):
        g = build_grid(4, 4)
        assert perturb_edges(g, 0.25, seed=5).edges == \
            perturb_edges(g, 0.25, seed=5).edges

    @staticmethod
    def reference(g, fraction, seed):
        """The perturbation computed from an explicit list of every non-edge."""
        r = int(round(fraction * g.num_edges))
        if r == 0:
            return g.edges
        edge_set = set(g.edges)
        non_edges = [(j, jp) for j in range(g.n) for jp in range(j + 1, g.n)
                     if (j, jp) not in edge_set]
        if r > len(non_edges):
            return f"cannot add {r} edges: only {len(non_edges)} non-edges exist"
        gen = generator(seed)
        drop = set(gen.choice(g.num_edges, size=r, replace=False).tolist())
        kept = [e for i, e in enumerate(g.edges) if i not in drop]
        kept.extend(non_edges[int(i)]
                    for i in gen.choice(len(non_edges), size=r, replace=False))
        return ItemGraph(g.n, tuple(kept)).edges

    def test_matches_non_edge_enumeration(self):
        rng = np.random.default_rng(9)
        for _ in range(150):
            g = random_graph(rng, 24)
            fraction = float(rng.choice([0.1, 0.5, 1.0, rng.random()]))
            seed = int(rng.integers(1000))
            want = self.reference(g, fraction, seed)
            if isinstance(want, str):
                with pytest.raises(ValueError, match=want):
                    perturb_edges(g, fraction, seed)
            else:
                assert perturb_edges(g, fraction, seed).edges == want

    def test_large_sparse_graph(self):
        g = ItemGraph(200_000, tuple((j, j + 1) for j in range(199_999)))
        h = perturb_edges(g, 0.5, seed=3)
        assert h.num_edges == g.num_edges
        assert len(set(h.edges) - set(g.edges)) == 100_000
