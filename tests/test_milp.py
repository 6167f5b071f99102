import itertools

import numpy as np
import pytest

from gtprior import milp
from gtprior.milp import (MilpModel, NumericalError, dump_model,
                          feasibility_violation, solve_ilp, solve_lp)


def model(c, A, rel, b, lo=None, hi=None, integer=False):
    c = np.asarray(c, dtype=float)
    n = c.size
    return MilpModel(
        objective=c,
        lower=np.zeros(n) if lo is None else np.asarray(lo, dtype=float),
        upper=np.ones(n) if hi is None else np.asarray(hi, dtype=float),
        a_matrix=np.asarray(A, dtype=float).reshape(len(rel), n),
        relations=tuple(rel),
        rhs=np.asarray(b, dtype=float),
        integer_mask=np.full(n, integer),
    )


def random_model(rng, n_max=16, integer=True):
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(0, 11))
    c = rng.integers(-5, 6, n).astype(float)
    a = rng.integers(-5, 6, (m, n)).astype(float)
    rel = [("<=", "==", ">=")[i] for i in rng.integers(0, 3, m)]
    xr = rng.integers(0, 2, n)
    b = (a @ xr + rng.integers(-2, 3, m)).astype(float) if m else np.zeros(0)
    return model(c, a, rel, b, integer=integer)


def highs(m, integer=False):
    """(scipy status, objective incl. constant) of ``m`` under HiGHS:
    ``linprog`` for the relaxation, ``milp`` when ``integer``."""
    opt = pytest.importorskip("scipy.optimize")
    rel = np.array(m.relations)
    a, b = m.a_matrix, m.rhs
    if integer:
        lb = np.where(rel == "<=", -np.inf, b)
        ub = np.where(rel == ">=", np.inf, b)
        res = opt.milp(m.objective, integrality=m.integer_mask.astype(int),
                       bounds=opt.Bounds(m.lower, m.upper),
                       constraints=opt.LinearConstraint(a, lb, ub),
                       options={"mip_rel_gap": 0.0})
    else:
        le, ge, eq = rel == "<=", rel == ">=", rel == "=="
        a_ub = np.vstack([a[le], -a[ge]])
        b_ub = np.concatenate([b[le], -b[ge]])
        res = opt.linprog(m.objective, A_ub=a_ub if a_ub.size else None,
                          b_ub=b_ub if a_ub.size else None,
                          A_eq=a[eq] if eq.any() else None,
                          b_eq=b[eq] if eq.any() else None,
                          bounds=np.column_stack([m.lower, m.upper]),
                          method="highs")
    fun = None if res.status else float(res.fun) + m.objective_constant
    return res.status, fun


def enumerate_optimum(m):
    """Brute-force 0/1 optimum; None when infeasible."""
    points = np.array(list(itertools.product((0.0, 1.0), repeat=m.num_vars)))
    feasible = points[feasibility_violation(m, points) <= 1e-9]
    if not len(feasible):
        return None
    return float((feasible @ m.objective).min()) + m.objective_constant


class TestSolveLp:
    def test_single_variable_floor(self):
        s = solve_lp(model([1.0], [[1.0]], [">="], [0.3]))
        assert s.status == "optimal"
        assert s.x[0] == pytest.approx(0.3)
        assert s.objective_value == pytest.approx(0.3)

    def test_objective_unique_even_when_x_is_not(self):
        s = solve_lp(model([1.0, 1.0], [[1.0, 1.0]], [">="], [1.0]))
        assert s.objective_value == pytest.approx(1.0)

    def test_two_variable_vertex(self):
        s = solve_lp(model([-1.0, -2.0], [[1.0, 1.0]], ["<="], [1.5]))
        assert s.objective_value == pytest.approx(-2.5)
        assert s.x == pytest.approx([0.5, 1.0])

    def test_infeasible(self):
        s = solve_lp(model([1.0], [[1.0], [1.0]], ["<=", ">="], [0.2, 0.8]))
        assert s.status == "infeasible"

    def test_nonzero_lower_bounds(self):
        s = solve_lp(model([1.0, 1.0], [[1.0, 1.0]], [">="], [1.0],
                           lo=[0.4, 0.0], hi=[1.0, 1.0]))
        assert s.objective_value == pytest.approx(1.0)
        assert s.x[0] >= 0.4 - 1e-12

    def test_degenerate_duplicated_rows_terminate(self):
        rows = [[1.0, 1.0, 0.0]] * 8 + [[0.0, 1.0, 1.0]] * 8
        s = solve_lp(model([1, 1, 1], rows, [">="] * 16, [1.0] * 16))
        assert s.status == "optimal"
        assert s.objective_value == pytest.approx(1.0)

    def test_nan_point_fails_the_recheck(self, monkeypatch):
        monkeypatch.setattr(milp, "_simplex",
                            lambda *args: ("optimal", np.array([np.nan, 0.0])))
        with pytest.raises(NumericalError):
            solve_lp(model([1.0, 1.0], [[1.0, 1.0]], ["<="], [1.0]))


class TestFeasibilityViolation:
    m = model([1.0, 1.0], [[1.0, 1.0]], ["<="], [1.0])

    def test_nan_point_is_infinitely_infeasible(self):
        assert feasibility_violation(self.m, np.array([np.nan, 0.0])) == np.inf

    def test_nan_batch_row_is_infinitely_infeasible(self):
        got = feasibility_violation(self.m, np.array([[0.5, 0.0],
                                                      [0.0, np.nan],
                                                      [1.0, 1.0]]))
        assert got.tolist() == [0.0, np.inf, 0.5]


class TestSolveIlp:
    def test_rounding_up_forced(self):
        s = solve_ilp(model([1.0], [[1.0]], [">="], [0.3], integer=True))
        assert s.x[0] == 1.0 and s.objective_value == 1.0

    def test_integral_relaxation_matches_lp(self):
        m = model([1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]], [">=", ">="], [1.0, 1.0],
                  integer=True)
        assert solve_ilp(m).objective_value == pytest.approx(
            solve_lp(m).objective_value)

    def test_triangle_cover(self):
        m = model([1, 1, 1], [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
                  [">="] * 3, [1, 1, 1], integer=True)
        assert solve_ilp(m).objective_value == 2.0

    def test_node_limit_reports_status(self):
        # Odd-cycle cover: the LP optimum is all-halves, so branching is needed.
        m = model([1, 1, 1], [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
                  [">="] * 3, [1, 1, 1], integer=True)
        s = solve_ilp(m, node_limit=1)
        assert s.status == "node_limit"

    def test_fuzz_against_enumeration(self):
        rng = np.random.default_rng(100)
        for _ in range(200):
            m = random_model(rng, n_max=12)
            want = enumerate_optimum(m)
            got = solve_ilp(m)
            if want is None:
                assert got.status == "infeasible"
            else:
                assert got.status == "optimal"
                assert got.objective_value == want
                assert feasibility_violation(m, got.x) <= 1e-9

    def test_relaxation_bound(self):
        rng = np.random.default_rng(101)
        checked = 0
        for _ in range(100):
            m = random_model(rng, n_max=10)
            lp = solve_lp(m)
            ilp = solve_ilp(m)
            if ilp.status == "optimal":
                assert lp.status == "optimal"
                assert lp.objective_value <= ilp.objective_value + 1e-9
                checked += 1
        assert checked > 20

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(102)
        for _ in range(30):
            m = random_model(rng, n_max=8, integer=False)
            if m.num_rows < 2:
                continue
            base = solve_lp(m)
            perm = rng.permutation(m.num_rows)
            m2 = MilpModel(m.objective, m.lower, m.upper, m.a_matrix[perm],
                           tuple(m.relations[i] for i in perm), m.rhs[perm],
                           m.integer_mask)
            other = solve_lp(m2)
            assert base.status == other.status
            if base.status == "optimal":
                assert abs(base.objective_value - other.objective_value) <= 1e-8

    def test_scipy_cross_check(self):
        rng = np.random.default_rng(103)
        for _ in range(60):
            m = random_model(rng, n_max=12, integer=False)
            status, fun = highs(m)
            mine = solve_lp(m)
            if status == 0:
                assert mine.status == "optimal"
                assert mine.objective_value == pytest.approx(fun, abs=1e-7)
            elif status == 2:
                assert mine.status == "infeasible"


class TestKernelDifferential:
    """The pivot kernel against HiGHS on dense, general-bound LPs and on a
    real decoder ILP whose branch-and-bound search is pinned."""

    def test_dense_general_bound_lps_match_highs(self):
        rng = np.random.default_rng(104)
        seen = set()
        for trial in range(200):
            n = int(rng.integers(1, 13))
            m = int(rng.integers(0, 11))
            a = rng.normal(size=(m, n))
            if trial % 2:  # sparse integer rows, keeping some fully dense
                a = np.where(rng.random((m, n)) < 0.5, 0.0,
                             rng.integers(-5, 6, (m, n)))
                a[rng.random(m) < 0.3] = rng.integers(1, 6, n)
            lo = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 2.0, n), 0.0)
            hi = lo + rng.uniform(0.0, 3.0, n)
            rel = [("<=", "==", ">=")[i] for i in rng.integers(0, 3, m)]
            shift = np.where(rng.random(m) < 0.5, 0.0, rng.normal(size=m))
            b = a @ rng.uniform(lo, hi) + shift
            mdl = model(rng.normal(size=n), a, rel, b, lo=lo, hi=hi)
            status, fun = highs(mdl)
            mine = solve_lp(mdl)
            assert status in (0, 2)
            assert mine.status == ("optimal" if status == 0 else "infeasible")
            if status == 0:
                assert abs(mine.objective_value - fun) <= 1e-7 * max(1.0, abs(fun))
                assert (mine.x >= lo).all() and (mine.x <= hi).all()
            seen.add(mine.status)
        assert seen == {"optimal", "infeasible"}

    def test_ci_grid_ising_map_search_is_pinned(self):
        from gtprior.decoders import DecoderSpec, build_model
        from gtprior.harness import PRESETS, ExperimentConfig, sample_truth
        from gtprior.prior import IsingPrior
        from gtprior.rng import derive_seed
        from gtprior.testing import NoiseSpec, bernoulli_design, run_tests

        config = ExperimentConfig.from_dict(PRESETS["ci-grid-10"])  # seed 5
        graph = config.graph.build(config.base_seed)
        truth = sample_truth(config, graph)
        design = bernoulli_design(60, truth.n, np.log(2.0) / truth.k,
                                  derive_seed(config.base_seed, "design", 1))
        y = run_tests(design, truth, NoiseSpec(),
                      derive_seed(config.base_seed, "noise", 1, 0.0))
        prior = IsingPrior.uniform(graph, config.lam, config.phi)
        mdl = build_model(DecoderSpec("ising_map", prior=prior), design, y)
        sol = solve_ilp(mdl)
        assert sol.status == "optimal" and sol.nodes_explored == 13
        status, fun = highs(mdl, integer=True)
        assert status == 0
        assert abs(sol.objective_value - fun) <= 1e-7 * max(1.0, abs(fun))


class TestModelValidation:
    def test_bounds_must_be_finite_and_ordered(self):
        with pytest.raises(ValueError):
            model([1.0], [[1.0]], ["<="], [1.0], lo=[0.5], hi=[0.2])
        with pytest.raises(ValueError):
            model([1.0], [[1.0]], ["<="], [1.0], lo=[0.0], hi=[np.inf])

    def test_bad_relation(self):
        with pytest.raises(ValueError):
            model([1.0], [[1.0]], ["<"], [1.0])

    def test_integer_vars_need_01_bounds(self):
        m = model([1.0], np.zeros((0, 1)), [], [], lo=[0.0], hi=[0.7],
                  integer=True)
        with pytest.raises(ValueError):
            solve_ilp(m)

    def test_dump_model_mentions_everything(self):
        m = model([1.0, -2.0], [[1.0, 1.0]], ["<="], [1.5], integer=True)
        text = dump_model(m)
        assert "minimize" in text and "<= 1.5" in text and "int" in text
