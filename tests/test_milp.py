import numpy as np
import pytest

from gtprior import milp
from gtprior.milp import (MilpModel, NumericalError, dump_model,
                          feasibility_violation, solve_ilp, solve_lp)
from gtprior.prior import config_chunks
from helpers import highs


def model(c, A, rel, b, lo=None, hi=None, integer=False):
    c = np.asarray(c, dtype=float)
    n = c.size
    return MilpModel.from_dense(
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


def enumerate_optimum(m):
    """Brute-force 0/1 optimum; None when infeasible."""
    points = np.concatenate([*config_chunks(m.num_vars, "enumerate_optimum")]).astype(float)
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
        monkeypatch.setattr(milp._Tableau, "point", lambda self: np.array([np.nan, 0.0]))
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

    def test_nan_node_point_fails_the_recheck(self, monkeypatch):
        monkeypatch.setattr(milp._Tableau, "point", lambda self: np.array([np.nan, 0.0]))
        with pytest.raises(NumericalError):
            solve_ilp(model([1.0, 1.0], [[1.0, 1.0]], ["<="], [1.0], integer=True))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("integer", [False, True])
    def test_non_finite_matrix_entry_raises(self, bad, integer):
        a = np.array([[1.0, 1.0, 1.0], [1.0, bad, 0.0], [0.0, 1.0, 1.0]])
        m = model([1.0, 2.0, -1.0], a, [">=", "<=", "=="], [1.0, 0.5, 1.0],
                  integer=integer)
        with pytest.raises(NumericalError):
            solve_lp(m)
        with pytest.raises(NumericalError):
            solve_ilp(m, node_limit=1000)

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
            m2 = MilpModel.from_dense(m.objective, m.lower, m.upper, m.a_matrix[perm],
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


class TestIntegerRowCheck:
    @pytest.mark.parametrize("coef, rhs", [(1.0, 2.5), (2.0, 3.0)])
    def test_fractional_multiple_is_infeasible_at_the_root(self, coef, rhs):
        rng = np.random.default_rng(7)
        m = model(rng.integers(-5, 6, 24), np.full((1, 24), coef), ["=="], [rhs],
                  integer=True)
        got = solve_ilp(m, node_limit=1000)
        assert got.status == "infeasible" and got.nodes_explored == 0
        assert highs(m, integer=True)[0] == 2  # HiGHS: infeasible

    def test_continuous_or_attainable_rows_still_branch(self):
        m = model([1.0, 1.0, 0.0], [[1.0, 1.0, 1.0]], ["=="], [2.5])
        m = MilpModel.from_dense(m.objective, m.lower, m.upper, m.a_matrix, m.relations,
                                 m.rhs, np.array([True, True, False]))
        got = solve_ilp(m)
        assert got.status == "optimal" and got.objective_value == 2.0
        got = solve_ilp(model([1.0, 1.0], [[2.0, 3.0]], ["=="], [5.0], integer=True))
        assert got.status == "optimal" and got.objective_value == 2.0


class TestEmptyRows:
    """Rows with no coefficients read "0 rel rhs": an unsatisfiable one makes
    the model infeasible, a satisfiable one is dropped."""

    @pytest.mark.parametrize("rel, rhs, feasible", [
        ("<=", -1.0, False), (">=", 1.0, False), ("==", 0.5, False),
        ("<=", 1.0, True), (">=", -1.0, True), ("==", 0.0, True)])
    @pytest.mark.parametrize("beside_real_rows", [False, True])
    def test_empty_row_matches_highs(self, rel, rhs, feasible, beside_real_rows):
        rows, rels, b = [[0.0, 0.0]], [rel], [rhs]
        if beside_real_rows:
            rows = [[1.0, 1.0]] + rows + [[1.0, -1.0]]
            rels, b = [">="] + rels + ["<="], [1.0] + b + [-0.5]
        m = model([1.0, 2.0], rows, rels, b)
        got = solve_lp(m)
        status, fun = highs(m)
        assert status == (0 if feasible else 2)
        assert got.status == ("optimal" if feasible else "infeasible")
        if feasible:
            assert got.objective_value == pytest.approx(fun, abs=1e-9)


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

    @pytest.mark.parametrize("trial, nodes", [
        (0, 1), (1, 39), (2, 1), (3, 1), (4, 1), (5, 1), (6, 3), (7, 3), (8, 1),
        (9, 1)])
    def test_ci_grid_ising_map_search_is_pinned(self, trial, nodes):
        from gtprior.harness import PRESETS

        mdl = protocol_model(PRESETS["ci-grid-10"], 60, 0.0, trial, relaxed=False)
        sol = solve_ilp(mdl)
        assert sol.status == "optimal" and sol.nodes_explored == nodes
        if trial == 1:  # warm starts: a few dual simplex iterations per node
            assert 0 < sol.pivots < 10 * nodes
        status, fun = highs(mdl, integer=True)
        assert status == 0
        assert abs(sol.objective_value - fun) <= 1e-7 * max(1.0, abs(fun))

    def test_sparse_sign_lps_match_highs(self, monkeypatch):
        # 0/+-1 rows cancel exactly in the basis inverse, leaving the
        # roundoff that each pivot drops from its row.
        monkeypatch.setattr(milp, "_Tableau", PivotChecked)
        rng = np.random.default_rng(116)
        seen, dropped = set(), 0
        for _ in range(150):
            n = int(rng.integers(2, 31))
            m = int(rng.integers(1, 31))
            a = np.where(rng.random((m, n)) < rng.uniform(0.1, 0.5),
                         rng.choice([-1.0, 1.0], (m, n)), 0.0)
            rel = [("<=", ">=")[i] for i in rng.integers(0, 2, m)]
            hi = np.where(rng.random(n) < 0.7, 1.0, rng.integers(1, 4, n))
            b = a @ rng.integers(0, 2, n) + rng.integers(-1, 2, m)
            mdl = model(rng.integers(-3, 4, n), a, rel, b, hi=hi)
            tab = PivotChecked(mdl, mdl.lower, mdl.upper)
            mine = milp._solve_node(tab)
            assert_update_invariants(tab)
            dropped += tab.dropped
            status, fun = highs(mdl)
            assert mine.status == ("optimal" if status == 0 else "infeasible")
            if status == 0:
                assert abs(mine.objective_value - fun) <= 1e-7 * max(1.0, abs(fun))
                assert abs(solve_lp(mdl).objective_value - fun) <= 1e-7 * max(1.0, abs(fun))
            seen.add(mine.status)
        assert seen == {"optimal", "infeasible"}
        assert dropped > 0


def protocol_model(config, t, rho, trial, relaxed):
    """The ising_map model of ``trial`` at ``t`` tests and noise ``rho`` on
    the truth of the experiment ``config`` (a preset-style dict)."""
    from gtprior.decoders import build_model, decoder_spec
    from gtprior.harness import ExperimentConfig, sample_truth
    from gtprior.prior import IsingPrior
    from gtprior.rng import derive_seed
    from gtprior.testing import bernoulli_design, run_tests

    config = ExperimentConfig.from_dict(config)
    graph = config.graph.build(config.base_seed)
    truth = sample_truth(config, graph)
    design = bernoulli_design(t, truth.n, np.log(2.0) / truth.k,
                              derive_seed(config.base_seed, "design", trial))
    prior = IsingPrior.uniform(graph, config.lam, config.phi)
    spec = decoder_spec("ising_map", relaxed, rho, None, prior, truth.k / truth.n)
    y = run_tests(design, truth, spec.noise,
                  derive_seed(config.base_seed, "noise", trial, rho))
    return build_model(spec, design, y)


class PivotChecked(milp._Tableau):
    """A tableau that checks, after each pivot, that the row of the inverse
    the pivot divided holds no nonzero below the drop tolerance.
    ``dropped`` counts its pivots whose row lost an entry to it."""

    dropped = 0

    def pivot(self, r, q, alpha, to_lower):
        before = np.count_nonzero(self.binv_t[:, r])
        super().pivot(r, q, alpha, to_lower)
        prow = self.binv_t[:, r]
        assert not ((prow != 0) & (np.abs(prow) < milp._DROP_TOL)).any()
        self.dropped += np.count_nonzero(prow) < before


def assert_update_invariants(tab):
    """The stored inverse times every basic column is the identity within
    1e-9 and each steepest-edge weight is its row's squared norm within 1e-8
    relative."""
    m = tab.model.num_rows
    eye = np.array([tab.column(q) for q in tab.basis]).reshape(m, m).T
    assert np.abs(eye - np.eye(m)).max(initial=0.0) <= 1e-9
    norms = np.einsum("ij,ij->j", tab.binv_t, tab.binv_t)
    assert np.allclose(tab.weights, norms, rtol=1e-8, atol=0)


LP_GRID_14 = {"graph": {"kind": "grid", "rows": 14, "cols": 14}, "lam": 0.5, "phi": 0.006,
              "truth_sweeps": 1000, "tests": [60], "p": None, "rho": [0.01], "trials": 1,
              "base_seed": 5, "decoders": [{"family": "ising_map", "relaxed": True}]}


class TestPivotUpdate:
    """Each pivot drops roundoff from its row of the inverse and carries the
    steepest-edge weights by recurrence; the inverse and the weights must
    still match their definitions after a large noisy LP and a noisy ILP."""

    @pytest.mark.parametrize("trial", [0, 1])
    def test_noisy_14x14_relaxed_lp(self, monkeypatch, trial):
        # Trial 1 is where a pivot row's weight taken as w_r / piv^2, not as
        # its exact norm, drifted 2.4e-8 from its row's norm.
        monkeypatch.setattr(milp, "_Tableau", PivotChecked)
        mdl = protocol_model(LP_GRID_14, 60, 0.01, trial, relaxed=True)
        pre = milp._presolve(mdl, np.zeros(mdl.num_vars, dtype=bool))
        tab = PivotChecked(pre.model, pre.model.lower, pre.model.upper)
        sol = milp._solve_node(tab)
        assert sol.status == "optimal" and sol.pivots > 500
        assert_update_invariants(tab)
        status, fun = highs(mdl)
        assert status == 0
        assert abs(pre.postsolve(mdl, sol, milp.FEASIBILITY_TOL).objective_value - fun) <= (
            1e-7 * max(1.0, abs(fun)))

    def test_noisy_10x10_ilp(self, monkeypatch):
        from gtprior.harness import PRESETS

        solve_node = milp._solve_node
        solved = []

        def checked(tab):
            sol = solve_node(tab)
            solved.append(sol.pivots)
            assert_update_invariants(tab)
            return sol

        monkeypatch.setattr(milp, "_Tableau", PivotChecked)
        monkeypatch.setattr(milp, "_solve_node", checked)
        mdl = protocol_model(PRESETS["ci-grid-10"], 50, 0.05, 32, relaxed=False)
        sol = solve_ilp(mdl)
        assert sol.status == "optimal" and sol.nodes_explored == len(solved) > 30
        assert sum(solved) > 500
        status, fun = highs(mdl, integer=True)
        assert status == 0
        assert abs(sol.objective_value - fun) <= 1e-7 * max(1.0, abs(fun))


def fuzzed_mixed_model(rng):
    """A mixed 0/1-integer model with ``==`` rows and nonzero lower bounds
    on continuous columns; its rhs is met by a random point, plus a shift."""
    n = int(rng.integers(2, 11))
    k = int(rng.integers(1, 9))
    integer = rng.random(n) < 0.6
    lo = np.where(integer | (rng.random(n) < 0.4), 0.0, rng.uniform(0.0, 2.0, n))
    hi = np.where(integer, 1.0, lo + rng.uniform(0.5, 3.0, n))
    a = np.where(rng.random((k, n)) < 0.4, 0.0, rng.integers(-5, 6, (k, n)))
    a = a * np.where(rng.random((k, n)) < 0.3, rng.uniform(0.5, 2.0, (k, n)), 1.0)
    rel = [("<=", "==", ">=")[i] for i in rng.integers(0, 3, k)]
    point = np.where(integer, rng.integers(0, 2, n), rng.uniform(lo, hi))
    b = a @ point + np.where(rng.random(k) < 0.6, 0.0, rng.normal(size=k))
    return MilpModel.from_dense(rng.normal(size=n), lo, hi, a, tuple(rel), b, integer)


class TestBranching:
    def test_near_ties_branch_on_the_lowest_index(self):
        # Columns 1 and 3 sit a last bit above and below 0.5; column 3 is
        # nearer, but a tie within rounding goes to the lower index.
        x = np.array([0.2, np.nextafter(0.5, 1.0), 0.9, np.nextafter(0.5, 0.0), 0.45])
        assert milp._branch_column(x, np.arange(5)) == 1
        assert milp._branch_column(x, np.array([2, 3, 4])) == 3
        assert milp._branch_column(x, np.array([0, 4])) == 4


class TestWarmStarts:
    """Branch-and-bound nodes continue from their parent's basis; each must
    answer as a cold solve at its own bounds and as HiGHS."""

    def test_warm_started_nodes_match_cold_solves_and_highs(self, monkeypatch):
        nodes = []  # (tableau, its bounds when the node was solved, answer)
        solve_node = milp._solve_node

        def recording(tab):
            n = tab.model.num_vars
            lo, hi = tab.lo[:n].copy(), tab.hi[:n].copy()
            sol = solve_node(tab)
            nodes.append((tab, lo, hi, sol))
            return sol

        monkeypatch.setattr(milp, "_solve_node", recording)
        rng = np.random.default_rng(107)
        continued = rebuilt = infeasible = 0
        for _ in range(150):
            nodes.clear()
            solve_ilp(fuzzed_mixed_model(rng))
            for i, (tab, lo, hi, warm) in enumerate(nodes):
                m = tab.model
                if not m.num_vars:  # the presolve fixed every column
                    continue
                cold = solve_node(milp._Tableau(m, lo, hi))
                assert warm.status == cold.status
                at_node = MilpModel.from_dense(m.objective, lo, hi, m.a_matrix, m.relations,
                                               m.rhs, m.integer_mask, m.objective_constant)
                status, fun = highs(at_node)
                assert status == (0 if warm.status == "optimal" else 2)
                if status == 0:
                    for got in (warm.objective_value, cold.objective_value):
                        assert abs(got - fun) <= 1e-7 * max(1.0, abs(fun))
                if i:
                    continued += tab is nodes[i - 1][0]
                    rebuilt += tab is not nodes[i - 1][0]
                infeasible += warm.status == "infeasible"
        assert continued > 50 and rebuilt > 50 and infeasible > 40

    def test_moved_nonbasic_bound_matches_a_cold_solve(self):
        # Branching fixes a basic column; set_bounds must also carry a
        # nonbasic column, and the basic values with it, to a new bound.
        rng = np.random.default_rng(108)
        moved = 0
        for _ in range(100):
            m = fuzzed_mixed_model(rng)
            tab = milp._Tableau(m, m.lower, m.upper)
            if milp._solve_node(tab).status != "optimal":
                continue
            n = m.num_vars
            free = np.flatnonzero(~tab.in_basis[:n] & (tab.lo[:n] < tab.hi[:n]))
            if not free.size:
                continue
            j = free[0]
            lo, hi = tab.lo[:n].copy(), tab.hi[:n].copy()
            lo[j] = hi[j] = lo[j] if tab.at_upper[j] else hi[j]  # the other bound
            tab.set_bounds(lo, hi)
            warm, cold = milp._solve_node(tab), milp._solve_node(milp._Tableau(m, lo, hi))
            assert warm.status == cold.status
            if cold.status == "optimal":
                assert abs(warm.objective_value - cold.objective_value) <= 1e-9 * max(
                    1.0, abs(cold.objective_value))
                moved += 1
        assert moved > 30

    def test_corrupted_infeasibility_certificate_raises(self):
        # x0 + x1 >= 1 holds at x = (1, 0); negating row 0 of the basis
        # inverse makes the simplex see no column that can repair the violated
        # slack, and the rows aggregated with those multipliers prove nothing.
        m = model([1.0, 1.0], [[1.0, 1.0]], [">="], [1.0])
        tab = milp._Tableau(m, m.lower, m.upper)
        tab.binv_t[:, 0] *= -1.0
        with pytest.raises(NumericalError, match="certificate"):
            milp._solve_node(tab)


class TestTableauConstruction:
    """The slack basis and every kept basis are built on one path, from the
    model's CSR arrays only, and the tableau is the basis inverse alone."""

    @staticmethod
    def fuzzed(rng, trial):
        """A fuzzed mixed model for an odd ``trial``, else a decoder model."""
        return fuzzed_mixed_model(rng) if trial % 2 else fuzzed_decoder_model(rng, trial // 2)

    @classmethod
    def solved_tableaus(cls, rng, count):
        """Tableaus after a dual simplex run, half on fuzzed mixed models and
        half on fuzzed decoder models, each after one more run at a branch's
        bounds when its first ended optimal."""
        for trial in range(count):
            m = cls.fuzzed(rng, trial)
            tab = milp._Tableau(m, m.lower, m.upper)
            if milp._solve_node(tab).status == "optimal":
                yield tab
                n = m.num_vars
                j = int(rng.integers(n))
                lo, hi = tab.lo[:n].copy(), tab.hi[:n].copy()
                lo[j] = hi[j] = lo[j] if rng.random() < 0.5 else hi[j]
                tab.set_bounds(lo, hi)
                milp._solve_node(tab)
            yield tab

    def test_kept_basis_reproduces_the_live_tableau(self):
        rng = np.random.default_rng(111)
        kept = 0
        for live in self.solved_tableaus(rng, 300):
            m, n = live.model, live.model.num_vars
            tab = milp._Tableau(m, live.lo[:n], live.hi[:n], live.start())
            assert np.array_equal(tab.basis, live.basis)
            # A fixed column may rest at either of its equal bounds.
            assert np.array_equal(tab._nonbasic_values(), live._nonbasic_values())
            for name in ("binv_t", "d", "x_b"):
                assert np.allclose(getattr(tab, name), getattr(live, name), rtol=0, atol=1e-9)
            kept += bool((live.basis < n).any())
        assert kept > 200

    def test_slack_basis_is_the_csr_scatter(self):
        rng = np.random.default_rng(112)
        for trial in range(200):
            m = self.fuzzed(rng, trial)
            n, rows = m.num_vars, m.num_rows
            want = np.zeros((rows, n + rows))
            want[m.row_ids(), m.indices] = m.data
            want[:, n:] = np.eye(rows)
            tab = milp._Tableau(m, m.lower, m.upper)
            # Bit for bit, signs of 0 too.
            assert tab.binv_t.tobytes() == np.eye(rows).tobytes()
            for r in range(rows):
                assert tab.row(r).tobytes() == want[r].tobytes()

    def test_pivot_row_and_entering_column_match_a_dense_solve(self):
        rng = np.random.default_rng(114)
        kept = 0
        for tab in self.solved_tableaus(rng, 200):
            m = tab.model
            a_i = np.hstack([m.a_matrix, np.eye(m.num_rows)])
            want = np.linalg.solve(a_i[:, tab.basis], a_i)
            for r in range(m.num_rows):
                assert np.allclose(tab.row(r), want[r], rtol=0, atol=1e-9)
            for q in range(a_i.shape[1]):
                assert np.allclose(tab.column(q), want[:, q], rtol=0, atol=1e-9)
            kept += bool((tab.basis < m.num_vars).any())
        assert kept > 150

    @pytest.mark.parametrize("t, n, grid_rows", [(30, 40, 4), (200, 100, 10)],
                             ids=["heap", "mapped"])
    def test_tableau_holds_only_the_basis_inverse(self, t, n, grid_rows):
        rng = np.random.default_rng(115)
        m = decoder_model("ising_map", rng.random((t, n)) < 0.2, rng.integers(0, 2, t),
                          rho=0.05, relaxed=True, rows=grid_rows)
        rows, total = m.num_rows, m.num_rows + m.num_vars
        # The larger inverse gets its own memory map; both answer as HiGHS.
        assert (8 * rows * rows > milp._SLICE_BYTES) == (t == 200)
        tab = milp._Tableau(m, m.lower, m.upper)
        assert tab.binv_t.tobytes() == np.eye(rows).tobytes()
        sol = milp._solve_node(tab)
        status, fun = highs(m)
        assert sol.status == "optimal" and status == 0
        assert abs(sol.objective_value - fun) <= 1e-7 * max(1.0, abs(fun))
        arrays = [v for v in vars(tab).values() if isinstance(v, np.ndarray)]
        assert [a.shape for a in arrays if a.ndim > 1] == [(rows, rows)]
        # Beside the m x m inverse: vectors over the columns and the nonzeros.
        assert sum(a.nbytes for a in arrays) <= 8 * (rows * rows + 6 * total + m.data.size)

    def test_search_never_reads_the_dense_matrix(self, monkeypatch):
        def no_dense(model):
            raise AssertionError("the solver read MilpModel.a_matrix")

        kept = []

        class Counting(milp._Tableau):
            def __init__(self, model, lo, hi, start=None):
                kept.append(start is not None)
                super().__init__(model, lo, hi, start)

        monkeypatch.setattr(MilpModel, "a_matrix", property(no_dense))
        monkeypatch.setattr(milp, "_Tableau", Counting)
        rng = np.random.default_rng(113)
        for trial in range(200):
            m = self.fuzzed(rng, trial)
            assert solve_ilp(m).status in ("optimal", "infeasible")
        assert sum(kept) > 25
        with pytest.raises(AssertionError, match="a_matrix"):
            m.a_matrix

    def test_singular_kept_basis_raises(self):
        # Both structural columns basic on rows (1, 1) and (2, 2).
        m = model([1.0, 1.0], [[1.0, 1.0], [2.0, 2.0]], ["<=", "<="], [1.0, 2.0])
        start = np.array([0, 1]), np.zeros(4, dtype=bool)
        with pytest.raises(NumericalError, match="kept basis is singular"):
            milp._Tableau(m, m.lower, m.upper, start)


def decoder_model(family, matrix, y, rho=0.0, relaxed=False, lam=0.5, phi=0.1,
                  rows=1, eta=1.5):
    """A decoder model of ``family`` for a 0/1 design ``matrix`` and outcomes
    ``y``; ising_map uses a ``rows`` x (n / rows) grid prior."""
    from gtprior.decoders import DecoderSpec, build_model
    from gtprior.prior import IsingPrior, build_grid
    from gtprior.testing import NoiseSpec, OutcomeVector, TestDesign

    matrix = np.asarray(matrix, dtype=np.uint8)
    design, out = TestDesign(matrix), OutcomeVector(tuple(y))
    noise = NoiseSpec.at(rho)
    prior = None
    if family == "ising_map":
        prior = IsingPrior.uniform(build_grid(rows, matrix.shape[1] // rows), lam, phi)
    spec = DecoderSpec(family, relaxed=relaxed, noise=noise, eta=eta if rho else None,
                       prior=prior)
    return build_model(spec, design, out)


def fuzzed_decoder_model(rng, trial):
    """A small decoder model: the family, and noise or none, by ``trial``."""
    family = ("sparsity", "ising_map")[trial % 2]
    rows = int(rng.integers(1, 3))
    n = rows * int(rng.integers(2, 5))
    t = int(rng.integers(1, 9))
    matrix = (rng.random((t, n)) < rng.uniform(0.15, 0.6)).astype(np.uint8)
    if rng.random() < 0.5:  # outcomes of a random truth, else random
        y = (matrix @ (rng.random(n) < 0.3) > 0).astype(int)
    else:
        y = rng.integers(0, 2, t)
    rho = 0.0 if trial % 4 < 2 else 0.05
    return decoder_model(family, matrix, y, rho=rho, relaxed=bool(rng.random() < 0.5),
                         lam=float(rng.choice([-1, 1]) * rng.uniform(0.1, 1.0)),
                         phi=float(rng.uniform(-1.0, 1.0)), rows=rows,
                         eta=float(rng.uniform(0.5, 3.0)))


def fuzzed_general_model(rng, trial):
    """A mixed model with fixed columns and single-entry rows; every third
    ``trial`` has real coefficients."""
    n = int(rng.integers(1, 11))
    k = int(rng.integers(0, 9))
    integer = rng.random(n) < 0.5
    lo = np.where(integer | (rng.random(n) < 0.4), 0.0, rng.uniform(0.0, 2.0, n))
    hi = np.where(integer, 1.0, lo + np.where(rng.random(n) < 0.15, 0.0,
                                              rng.uniform(0.0, 3.0, n)))
    a = np.where(rng.random((k, n)) < 0.5, 0.0, rng.integers(-5, 6, (k, n)))
    if trial % 3 == 0:  # real coefficients
        a = a * rng.uniform(0.5, 2.0, (k, n))
    single = rng.random(k) < 0.2
    a[single] = 0.0
    a[single, rng.integers(0, n, int(single.sum()))] = rng.integers(1, 4, int(single.sum()))
    rel = [("<=", "==", ">=")[i] for i in rng.integers(0, 3, k)]
    point = np.where(integer, rng.integers(0, 2, n), rng.uniform(lo, hi))
    shift = np.where(rng.random(k) < 0.6, 0.0, rng.normal(size=k))
    b = a @ point + shift
    return MilpModel.from_dense(rng.normal(size=n), lo, hi, a, tuple(rel), b, integer)


def assert_matches_references(m):
    """solve_lp against the simplex on the unreduced model and HiGHS, and
    solve_ilp against scipy's milp; returns the presolve's reduced shape."""
    lp = solve_lp(m)
    node = milp._solve_node(milp._Tableau(m, m.lower, m.upper))
    status, fun = highs(m)
    assert status in (0, 2)
    assert lp.status == node.status == ("optimal" if status == 0 else "infeasible")
    if status == 0:
        for got in (lp.objective_value, node.objective_value):
            assert abs(got - fun) <= 1e-7 * max(1.0, abs(fun))
        assert feasibility_violation(m, lp.x) <= milp.FEASIBILITY_TOL
    ilp = solve_ilp(m)
    status, fun = highs(m, integer=True)
    assert status in (0, 2)
    assert ilp.status == ("optimal" if status == 0 else "infeasible")
    if status == 0:
        assert abs(ilp.objective_value - fun) <= 1e-7 * max(1.0, abs(fun))
        assert feasibility_violation(m, ilp.x) <= 1e-7
        assert (ilp.x[m.integer_mask] == np.round(ilp.x[m.integer_mask])).all()
    assert lp.model_shape == ilp.model_shape == milp.ModelShape(
        m.num_rows, m.num_vars, int(np.count_nonzero(m.a_matrix)))
    return lp.presolved_shape, ilp.presolved_shape


class TestPresolve:
    """The root presolve: the group-testing fixings it derives, conflicts it
    proves, and solve_lp/solve_ilp against the unreduced simplex, HiGHS and
    scipy's milp on fuzzed decoder and general models."""

    def test_negative_test_items_are_0_and_lone_candidate_is_1(self):
        # Test 0 = {0, 1} is negative (COMP: items 0, 1 are 0); test 1 =
        # {1, 2} is positive and item 2 is its only candidate left (DD: 1).
        # Item 3 is in no test, so its cost 1 fixes it at 0.
        for relaxed in (False, True):
            m = decoder_model("sparsity", [[1, 1, 0, 0], [0, 1, 1, 0]], [0, 1],
                              relaxed=relaxed)
            pre = milp._presolve(m, m.integer_mask)
            assert not pre.free.any()
            assert pre.x.tolist() == [0.0, 0.0, 1.0, 0.0]
            assert pre.shapes[1] == milp.ModelShape(0, 0, 0)
            for sol in (solve_lp(m), solve_ilp(m)):
                assert sol.x.tolist() == [0.0, 0.0, 1.0, 0.0]
                assert sol.objective_value == 1.0

    def test_edge_product_is_fixed_with_its_endpoints(self):
        # Path 0-1-2: item 0 is in a negative test, items 1 and 2 are each
        # alone in a positive test, so w01 = u0 u1 = 0 and w12 = u1 u2 = 1.
        m = decoder_model("ising_map", [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                          [0, 1, 1], lam=0.7, phi=0.2)
        pre = milp._presolve(m, m.integer_mask)
        assert not pre.free.any()
        assert pre.x.tolist() == [0.0, 1.0, 1.0, 0.0, 1.0]
        assert pre.shapes[1] == milp.ModelShape(0, 0, 0)
        sol = solve_ilp(m)
        assert sol.status == "optimal" and sol.nodes_explored == 1
        assert sol.objective_value == pytest.approx(highs(m, integer=True)[1], abs=1e-12)

    @pytest.mark.parametrize("integer", [False, True], ids=["lp", "ilp"])
    @pytest.mark.parametrize("cost,at_upper", [(-2.0, True), (3.0, False), (0.0, False)],
                             ids=["negative", "positive", "zero"])
    def test_rowless_column_is_fixed_at_the_bound_its_cost_picks(self, cost, at_upper,
                                                                 integer):
        # x1 is in no row; x0 + x2 >= 1 implies nothing, so it is kept.
        lo, hi = ([0.0] * 3, [1.0] * 3) if integer else ([0.0, 0.5, 0.0], [1.0, 1.5, 1.0])
        m = model([1.0, cost, 2.0], [[1.0, 0.0, 1.0]], [">="], [1.0], lo=lo, hi=hi,
                  integer=integer)
        want = hi[1] if at_upper else lo[1]
        pre = milp._presolve(m, m.integer_mask)
        assert pre.free.tolist() == [True, False, True] and pre.x[1] == want
        assert pre.shapes[1] == milp.ModelShape(1, 2, 2)
        sol = solve_ilp(m) if integer else solve_lp(m)
        assert sol.x.tolist() == [1.0, want, 0.0]
        assert sol.objective_value == pytest.approx(highs(m, integer)[1], abs=1e-12)

    @pytest.mark.parametrize("m", [
        # Item 0 is both in a negative and alone in a positive test.
        decoder_model("sparsity", [[1, 1], [1, 0]], [0, 1]),
        decoder_model("ising_map", [[1, 1], [1, 0]], [0, 1], relaxed=True),
        # x0 <= 0.3 from one row and x0 >= 0.6 from another.
        model([1.0, 1.0], [[1.0, 1.0], [2.0, -1.0]], ["<=", ">="], [0.3, 1.2],
              integer=False),
    ], ids=["sparsity", "ising-relaxed", "general"])
    def test_propagated_conflict_is_infeasible_at_the_root(self, m):
        assert milp._presolve(m, m.integer_mask).model is None
        for sol in (solve_lp(m), solve_ilp(m)):
            assert sol.status == "infeasible" and sol.nodes_explored == 0
            assert sol.x is None and sol.presolved_shape is None
        assert highs(m)[0] == 2 and highs(m, integer=True)[0] == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_entry_in_a_fixed_column_raises(self, bad):
        # x0 is fixed to 0 by row 0, so the bad entry would never reach the
        # simplex; the presolve still refuses the matrix.
        m = model([1.0, 1.0], [[1.0, 0.0], [bad, 1.0]], ["==", "<="], [0.0, 1.0])
        for solve in (solve_lp, solve_ilp):
            with pytest.raises(NumericalError):
                solve(m)

    def test_unchanged_model_is_solved_as_given(self):
        m = decoder_model("ising_map", [[1, 1, 0, 0], [0, 0, 1, 1]], [1, 1],
                          rho=0.05, rows=2)
        pre = milp._presolve(m, m.integer_mask)
        assert pre.model is m and pre.shapes[0] == pre.shapes[1]

    def test_fuzzed_decoder_models_match_references(self):
        rng = np.random.default_rng(105)
        reduced = infeasible = 0
        for trial in range(300):
            m = fuzzed_decoder_model(rng, trial)
            lp_shape, ilp_shape = assert_matches_references(m)
            reduced += lp_shape is not None and lp_shape.vars < m.num_vars
            infeasible += lp_shape is None
        assert reduced > 80 and infeasible > 20

    def test_fuzzed_general_models_match_references(self):
        rng = np.random.default_rng(106)
        reduced = infeasible = 0
        for trial in range(300):
            m = fuzzed_general_model(rng, trial)
            lp_shape, ilp_shape = assert_matches_references(m)
            reduced += lp_shape is not None and (lp_shape.vars < m.num_vars
                                                 or lp_shape.rows < m.num_rows)
            infeasible += ilp_shape is None
        assert reduced > 100 and infeasible > 50


def dense_violation(m, x):
    """``feasibility_violation`` of the ``(N, num_vars)`` points ``x`` by its
    definition, on the dense matrix."""
    ax = x @ m.a_matrix.T
    rel, b = np.asarray(m.relations), m.rhs
    rows = np.where(rel == "<=", ax - b, np.where(rel == ">=", b - ax, np.abs(ax - b)))
    worst = np.concatenate([m.lower - x, x - m.upper, rows / (1.0 + np.abs(b)),
                            np.zeros((len(x), 1))], axis=1).max(axis=1)
    return np.where(np.isnan(worst), np.inf, worst)


class TestCsrStorage:
    """The constraint matrix is held as CSR arrays only; the dense matrix is
    a view built on access."""

    @staticmethod
    def csr_model(indptr, indices, data, n=3):
        m = max(len(indptr) - 1, 0)
        return MilpModel(np.zeros(n), np.zeros(n), np.ones(n), indptr, indices, data,
                         ("<=",) * m, np.ones(m), np.zeros(n, dtype=bool))

    def test_nonzeros_come_in_dense_order(self):
        a = np.array([[0.0, 2.0, 0.0, -1.0], [0.0] * 4, [3.0, 0.0, 0.5, 0.0]])
        m = MilpModel.from_dense(np.zeros(4), np.zeros(4), np.ones(4), a, ("<=",) * 3,
                                 np.ones(3), np.zeros(4, dtype=bool))
        assert m.indptr.tolist() == [0, 2, 2, 4]
        assert m.indices.tolist() == [1, 3, 0, 2]
        assert m.data.tolist() == [2.0, -1.0, 3.0, 0.5]
        ri, cj = np.nonzero(a)
        assert np.array_equal(m.row_ids(), ri) and np.array_equal(m.indices, cj)
        dense = m.a_matrix
        assert np.array_equal(dense, a) and not dense.flags.writeable

    def test_triplets_are_sorted_and_zeros_dropped(self):
        indptr, indices, data = milp.csr_arrays([1, 0, 1, 0], [0, 2, 2, 1],
                                                [3.0, 1.0, 0.0, 2.0], 3)
        assert indptr.tolist() == [0, 2, 3, 3]
        assert indices.tolist() == [1, 2, 0]
        assert data.tolist() == [2.0, 1.0, 3.0]

    def test_columns_may_restart_in_each_row(self):
        m = self.csr_model([0, 2, 3], [1, 2, 0], [1.0, -1.0, 2.0])
        assert m.a_matrix.tolist() == [[0.0, 1.0, -1.0], [2.0, 0.0, 0.0]]

    @pytest.mark.parametrize("indptr, indices, data, match", [
        ([1, 2], [0, 1], [1.0, 1.0], "start at 0"),
        ([], [], [], "start at 0"),
        ([0, 2, 1, 2], [0, 1], [1.0, 1.0], "not decrease"),
        ([0, 1], [0, 1], [1.0, 1.0], "end at"),
        ([0, 3], [0, 1], [1.0, 1.0], "end at"),
        ([0, 2], [0, 1], [1.0], "end at"),
        ([0, 2], [0, 3], [1.0, 1.0], r"lie in \[0, num_vars\)"),
        ([0, 2], [-1, 1], [1.0, 1.0], r"lie in \[0, num_vars\)"),
        ([0, 2], [1, 0], [1.0, 1.0], "increase strictly"),
        ([0, 2], [1, 1], [1.0, 1.0], "increase strictly"),
        ([0, 2], [0.0, 1.0], [1.0, 1.0], "integers"),
        ([0, 2], [0, 1], [1.0, 0.0], "nonzero"),
    ], ids=["first-not-0", "empty", "decreasing", "short", "long", "data-length",
            "col-too-large", "col-negative", "cols-decreasing", "col-repeated",
            "float-indices", "explicit-zero"])
    def test_bad_csr_arrays_are_rejected(self, indptr, indices, data, match):
        with pytest.raises(ValueError, match=match):
            self.csr_model(indptr, indices, data)

    @pytest.mark.parametrize("kind", ["decoder", "general"])
    def test_fuzzed_models_round_trip_and_match_dense_violations(self, kind):
        rng = np.random.default_rng(109 if kind == "decoder" else 110)
        fuzzed = fuzzed_decoder_model if kind == "decoder" else fuzzed_general_model
        for trial in range(300):
            m = fuzzed(rng, trial)
            back = MilpModel.from_dense(m.objective, m.lower, m.upper, m.a_matrix,
                                        m.relations, m.rhs, m.integer_mask,
                                        m.objective_constant)
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(back, name), getattr(m, name))
            n = m.num_vars
            points = rng.uniform(m.lower - 0.5, m.upper + 0.5, (6, n))
            points[1] = rng.integers(0, 2, n)
            points[2] = np.clip(points[2], m.lower, m.upper)
            points[3, rng.integers(n)] = np.nan
            got = feasibility_violation(m, points)
            assert np.allclose(got, dense_violation(m, points), rtol=1e-12, atol=1e-12)
            assert got[3] == np.inf
            if (m.data == np.round(m.data)).all():  # integers sum exactly in any order
                assert got[1] == dense_violation(m, points[1:2])[0]
            assert [feasibility_violation(m, p) for p in points] == got.tolist()


class TestModelValidation:
    def test_bounds_must_be_finite_and_ordered(self):
        with pytest.raises(ValueError):
            model([1.0], [[1.0]], ["<="], [1.0], lo=[0.5], hi=[0.2])
        with pytest.raises(ValueError):
            model([1.0], [[1.0]], ["<="], [1.0], lo=[0.0], hi=[np.inf])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_objective_and_rhs_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            model([1.0, bad], [[1.0, 1.0]], ["<="], [1.0])
        with pytest.raises(ValueError, match="finite"):
            model([1.0, 1.0], [[1.0, 1.0]], ["<="], [bad])

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
