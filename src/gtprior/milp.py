"""Self-contained LP/ILP solver: bounded-variable primal simplex plus
branch-and-bound for 0/1 integer programs.

This is the shared optimization substrate for every decoder.  Models are
bounded-variable linear programs (minimize c.x) with <=, ==, >= rows and
optional 0/1 integrality marks.

Implementation notes and defaults:

* Two-phase tableau simplex over shifted variables (x - lo), with
  nonbasic variables resting at either bound.  Dantzig pricing switches to
  Bland's rule after 10 * (rows + cols) iterations so degenerate models
  (decoder LPs have many identical rows) still terminate.
* The dense tableau is stored transposed (one contiguous array per column),
  and each pivot applies its rank-1 update only to the columns where the
  pivot row is nonzero.  Decoder pivot rows are mostly zero, and a skipped
  column would only have had +-0 subtracted, so the pivot sequence and
  every returned ``x`` are those of the full dense update.
* Branch-and-bound branches on the integer variable whose fractional part is
  closest to 0.5, explores depth-first, and orders the two children so the
  branch nearest the parent LP value is taken first.
* ``solve_lp`` and ``solve_ilp`` first run one exact presolve at the root
  (never at branch-and-bound nodes).  It takes the constraint nonzeros
  once as (row, column, value) triplets and propagates activity bounds
  until nothing changes: a row's least and greatest activity over the
  current bounds imply a bound on each of its columns.  Integer columns
  round their implied bounds with the integrality tolerance; a continuous
  column is only ever fixed, when its implied interval closes.  In group
  testing this is COMP (an item in a negative test is 0), DD (the lone
  candidate of a positive test is 1) and the fixing of each edge
  product with its endpoints.  Fixed columns are dropped, their values
  folded into the rhs and the objective constant, and rows that hold for
  every point of the tightened bounds (or that no free column touches) are
  dropped too, so the simplex never sees an empty row.  Bounds that
  conflict, or a row that no point of the bounds satisfies, prove the model
  infeasible with 0 nodes.  A model the presolve leaves unchanged is solved
  as given, with no copy.
* Postsolve scatters the reduced solution back into a full-length point
  and re-checks it against the original model (at the feasibility
  tolerance for an LP, at 1e-7 for an incumbent); the reported objective
  is computed on the original model.
* Before the root node, branch-and-bound checks every ``==`` row of the
  presolved model whose nonzeros are integers on integer variables only:
  the row's value is then a multiple of the gcd of its coefficients, so a
  rhs that is not (within the feasibility tolerance) proves the model
  infeasible with 0 nodes.  Rows touching a continuous variable are
  skipped.
* Tolerances are fixed: feasibility 1e-9, integrality 1e-6, bound-pruning
  1e-7.
* Every LP solve, the root relaxation and each branch-and-bound node alike,
  goes through one certified solve: an optimal point is re-checked for
  feasibility against the model before it is used, and an incumbent is
  re-checked after rounding.  Irrecoverable numerical trouble raises
  :class:`NumericalError` rather than returning a silently wrong answer;
  that includes a non-finite constraint matrix (caught by the presolve)
  and a simplex ray, which finite bounds rule out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

FEASIBILITY_TOL = 1e-9
INTEGRALITY_TOL = 1e-6
PRUNE_TOL = 1e-7

_RELATIONS = ("<=", "==", ">=")


class NumericalError(RuntimeError):
    """Raised when the solver cannot certify its answer numerically."""


@dataclass(frozen=True)
class MilpModel:
    """Bounded-variable linear program with optional 0/1 integrality marks.

    ``objective_constant`` is a constant added to c.x when reporting
    objective values (used by model builders that drop constant terms).
    """

    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    a_matrix: np.ndarray
    relations: tuple
    rhs: np.ndarray
    integer_mask: np.ndarray
    objective_constant: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float).reshape(-1)
        lo = np.asarray(self.lower, dtype=float).reshape(-1)
        hi = np.asarray(self.upper, dtype=float).reshape(-1)
        n = c.shape[0]
        a = np.asarray(self.a_matrix, dtype=float)
        if a.size == 0:
            a = a.reshape(0, n)
        if a.ndim != 2 or a.shape[1] != n:
            raise ValueError("constraint matrix width must equal num_vars")
        b = np.asarray(self.rhs, dtype=float).reshape(-1)
        rel = tuple(self.relations)
        mask = np.asarray(self.integer_mask, dtype=bool).reshape(-1)
        if lo.shape[0] != n or hi.shape[0] != n or mask.shape[0] != n:
            raise ValueError("bounds and integer_mask must match num_vars")
        if b.shape[0] != a.shape[0] or len(rel) != a.shape[0]:
            raise ValueError("rhs/relations must match the constraint count")
        if any(r not in _RELATIONS for r in rel):
            raise ValueError(f"relations must be one of {_RELATIONS}")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("bounds must be finite")
        if not (np.isfinite(c).all() and np.isfinite(b).all()):
            raise ValueError("objective and rhs must be finite")
        if (lo < 0).any() or (lo > hi).any():
            raise ValueError("need 0 <= lo <= hi for every variable")
        for arr in (c, lo, hi, a, b, mask):
            arr.flags.writeable = False
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "relations", rel)
        object.__setattr__(self, "rhs", b)
        object.__setattr__(self, "integer_mask", mask)

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def num_rows(self) -> int:
        return self.a_matrix.shape[0]


@dataclass(frozen=True)
class ModelShape:
    """Constraint rows, variables and constraint nonzeros of a model."""

    rows: int
    vars: int
    nnz: int


@dataclass(frozen=True)
class MilpSolution:
    """Solver outcome: status in {optimal, infeasible, node_limit}.

    ``model_shape`` is the shape of the model as given and
    ``presolved_shape`` the shape the simplex ran on (None when the presolve
    proved the model infeasible); a single node solve sets neither.
    """

    status: str
    x: Optional[np.ndarray]
    objective_value: Optional[float]
    nodes_explored: int = 0
    model_shape: Optional[ModelShape] = None
    presolved_shape: Optional[ModelShape] = None


def feasibility_violation(model: MilpModel,
                          x: np.ndarray) -> float | np.ndarray:
    """Largest scaled constraint/bound violation of ``x`` (0 when feasible).

    Row ``i`` contributes its violation divided by ``1 + |rhs_i|``.  ``x`` is
    one point of length ``num_vars`` (returns a float) or an ``(N,
    num_vars)`` batch (returns one violation per point).  A point with a NaN
    coordinate is infinitely infeasible, so every ``> tol`` check rejects it.
    """
    x = np.asarray(x, dtype=float)
    worst = np.maximum(np.max(model.lower - x, axis=-1, initial=0.0),
                       np.max(x - model.upper, axis=-1, initial=0.0))
    if model.num_rows:
        ax = model.a_matrix @ x if x.ndim == 1 else x @ model.a_matrix.T
        rel = np.asarray(model.relations)
        b = model.rhs
        v = np.where(rel == "<=", ax - b,
                     np.where(rel == ">=", b - ax, np.abs(ax - b)))
        worst = np.maximum(worst, np.max(v / (1.0 + np.abs(b)), axis=-1,
                                         initial=0.0))
    worst = np.where(np.isnan(worst), np.inf, worst)
    return float(worst) if x.ndim == 1 else worst


def dump_model(model: MilpModel) -> str:
    """Plain-text dump (objective row, bounds, constraint rows) for external
    cross-checking."""
    lines = []
    terms = " + ".join(f"{model.objective[j]:g}*x{j}" for j in range(model.num_vars))
    lines.append(f"minimize {terms} + {model.objective_constant:g}")
    for j in range(model.num_vars):
        tag = " int" if model.integer_mask[j] else ""
        lines.append(f"x{j} in [{model.lower[j]:g}, {model.upper[j]:g}]{tag}")
    for i in range(model.num_rows):
        row = model.a_matrix[i]
        terms = " + ".join(f"{row[j]:g}*x{j}" for j in np.flatnonzero(row))
        lines.append(f"{terms or '0'} {model.relations[i]} {model.rhs[i]:g}")
    return "\n".join(lines) + "\n"


def _simplex(model: MilpModel, lo, hi):
    """Two-phase bounded-variable simplex on min c.x, A x rel b, lo<=x<=hi
    for the rows and objective of ``model`` and the bounds ``lo``, ``hi``.

    Returns (status, x) with status in {optimal, infeasible}.
    """
    c, a = model.objective, model.a_matrix
    n = c.shape[0]
    ub = hi - lo
    b_eff = model.rhs - a @ lo
    rel = np.asarray(model.relations, dtype=str)
    sense = (rel == "<=").astype(np.intp) - (rel == ">=")  # +1 <=, 0 ==, -1 >=
    m = a.shape[0]

    # Negate rows with negative rhs (and their sense), then give every
    # inequality a slack (+1 for <=, -1 for >=) and every row that is not <=
    # an artificial, both in row order.
    neg = b_eff < 0
    np.negative(b_eff, out=b_eff, where=neg)
    np.negative(sense, out=sense, where=neg)
    slack_rows = np.flatnonzero(sense != 0)
    art_rows = np.flatnonzero(sense != 1)
    n_slack, n_art = slack_rows.size, art_rows.size
    total = n + n_slack + n_art
    slack_cols = n + np.arange(n_slack)
    art_cols = n + n_slack + np.arange(n_art)
    # Transposed tableau: tab_t[j, i] is row i, column j, so each column
    # (the entering one, or one the pivot row touches) is contiguous.
    tab_t = np.zeros((total, m))
    tab_t[:n] = a.T
    np.negative(tab_t[:n], out=tab_t[:n], where=neg)
    tab_t[slack_cols, slack_rows] = sense[slack_rows]
    tab_t[art_cols, art_rows] = 1.0
    col_ub = np.concatenate([ub, np.full(n_slack + n_art, np.inf)])
    is_art = np.zeros(total, dtype=bool)
    is_art[art_cols] = True
    basis = np.empty(m, dtype=np.intp)
    basis[slack_rows] = slack_cols
    basis[art_rows] = art_cols

    x_b = b_eff.copy()
    at_upper = np.zeros(total, dtype=bool)
    in_basis = np.zeros(total, dtype=bool)
    in_basis[basis] = True

    # Reduced-cost rows for both phases, updated by pivots.
    z2 = np.zeros(total)
    z2[:n] = c
    z1 = np.zeros(total)
    if n_art:
        # Row-major copy, so the sum runs in the same order as on the
        # untransposed tableau.
        z1 -= np.ascontiguousarray(tab_t[:, art_rows].T).sum(axis=0)
        z1[is_art] = 0.0

    tol_d = 1e-9
    tol_piv = 1e-10
    scale = 1.0 + (np.abs(b_eff).max() if m else 0.0)
    bland_after = 10 * (m + total)
    max_iter = 200 * (m + total) + 20000

    def infeasibility():
        mask = is_art[basis]
        return float(x_b[mask].sum()) if mask.any() else 0.0

    def run_phase(z, phase):
        nonlocal x_b
        iters = 0
        while True:
            if phase == 1 and infeasibility() <= FEASIBILITY_TOL * scale:
                return
            cand_low = (~in_basis) & (~at_upper) & (col_ub > tol_piv) & (z < -tol_d)
            cand_up = (~in_basis) & at_upper & (z > tol_d)
            if not (cand_low.any() or cand_up.any()):
                return
            if iters > max_iter:
                raise NumericalError("simplex iteration limit exceeded")
            bland = iters > bland_after
            if bland:
                idx = np.flatnonzero(cand_low | cand_up)
                e = int(idx[0])
            else:
                viol = np.where(cand_low, -z, 0.0) + np.where(cand_up, z, 0.0)
                e = int(np.argmax(viol))
            sigma = -1.0 if at_upper[e] else 1.0
            col = tab_t[e]
            move = sigma * col
            # Ratio test: basic vars blocked at either bound, or the entering
            # variable flips to its opposite bound.
            limits = np.full(m, np.inf)
            down = move > tol_piv
            limits[down] = x_b[down] / move[down]
            up = move < -tol_piv
            if up.any():
                ub_b = col_ub[basis[up]]
                gaps = ub_b - x_b[up]
                lim = np.where(np.isfinite(ub_b), gaps / (-move[up]), np.inf)
                limits[up] = lim
            row_min = float(limits.min()) if m else np.inf
            delta = min(row_min, col_ub[e])
            if not np.isfinite(delta):
                # Every variable is bounded, so a ray is numerical trouble.
                raise NumericalError("simplex found no blocking row or bound")
            delta = max(delta, 0.0)
            if col_ub[e] <= row_min + 1e-12 and np.isfinite(col_ub[e]):
                # Bound flip: no basis change.
                x_b -= move * col_ub[e]
                at_upper[e] = not at_upper[e]
                iters += 1
                continue
            tie = np.flatnonzero(limits <= delta + 1e-12)
            if tie.size == 0:
                raise NumericalError("ratio test failed to find a blocking row")
            if bland:
                r = int(tie[np.argmin(basis[tie])])
            else:
                r = int(tie[np.argmax(np.abs(col[tie]))])
            piv = tab_t[e, r]
            if abs(piv) < tol_piv:
                raise NumericalError("pivot element vanished")
            leaving = basis[r]
            x_b -= move * delta
            at_upper[leaving] = move[r] < 0  # blocked at upper bound
            enter_val = (col_ub[e] - delta) if at_upper[e] else delta
            prow = tab_t[:, r]
            prow /= piv
            factors = tab_t[e].copy()
            factors[r] = 0.0
            # Rank-1 update restricted to the pivot row's nonzero columns:
            # every other column would have +-0 subtracted.
            cols = prow.nonzero()[0]
            tab_t[cols] -= np.multiply.outer(prow[cols], factors)
            for zz in (z1, z2):
                f = zz[e]
                if f:
                    zz -= f * prow
            in_basis[leaving] = False
            in_basis[e] = True
            at_upper[e] = False
            basis[r] = e
            x_b[r] = enter_val
            np.clip(x_b, 0.0, None, out=x_b)
            iters += 1

    if infeasibility() > FEASIBILITY_TOL * scale:
        run_phase(z1, phase=1)
        if infeasibility() > 1e-7 * scale:
            return "infeasible", None
    col_ub[is_art] = 0.0  # artificials may never re-enter

    run_phase(z2, phase=2)
    x_full = np.where(at_upper & np.isfinite(col_ub), col_ub, 0.0)
    x_full[basis] = x_b
    return "optimal", lo + x_full[:n]


def _solve_node(model: MilpModel, lo: np.ndarray, hi: np.ndarray) -> MilpSolution:
    """The LP over ``model``'s rows at the bounds ``lo``, ``hi``; an optimal
    point has passed the feasibility re-check against ``model``."""
    status, x = _simplex(model, lo, hi)
    if status != "optimal":
        return MilpSolution(status, None, None)
    if feasibility_violation(model, x) > FEASIBILITY_TOL:
        raise NumericalError("optimal LP solution failed the feasibility re-check")
    return MilpSolution("optimal", x, float(model.objective @ x) + model.objective_constant)


@dataclass(frozen=True)
class _Presolved:
    """The root presolve of a model: the reduced model (None when the
    presolve proved the model infeasible), a full-length point holding the
    values of the fixed columns, the mask of the columns the reduced model
    keeps, and the shapes before and after."""

    model: Optional[MilpModel]
    x: Optional[np.ndarray]
    free: Optional[np.ndarray]
    shapes: tuple

    def postsolve(self, original: MilpModel, sol: MilpSolution,
                  tol: float) -> MilpSolution:
        """``sol`` of the reduced model as a solution of ``original``: its
        point scattered to full length, re-checked against ``original`` at
        ``tol`` and given ``original``'s objective."""
        if sol.x is None:
            return MilpSolution(sol.status, None, None, sol.nodes_explored, *self.shapes)
        x = self.x.copy()
        x[self.free] = sol.x
        if feasibility_violation(original, x) > tol:
            raise NumericalError("postsolved point failed the feasibility "
                                 "re-check against the original model")
        obj = float(original.objective @ x) + original.objective_constant
        return MilpSolution(sol.status, x, obj, sol.nodes_explored, *self.shapes)


def _presolve(model: MilpModel, integral: np.ndarray) -> _Presolved:
    """Propagate activity bounds to a fixed point, then drop the fixed
    columns and the rows that can no longer be violated.

    ``integral`` marks the columns whose implied bounds are rounded (the
    integer columns for an ILP, none for an LP relaxation).
    """
    a, b = model.a_matrix, model.rhs
    m, n = a.shape
    ri, cj = np.nonzero(a)
    av = a[ri, cj]
    if not np.isfinite(av).all():
        raise NumericalError("constraint matrix has a non-finite entry")
    shape = ModelShape(m, n, ri.size)
    rel = np.asarray(model.relations, dtype=str)
    has_le, has_ge = rel != ">=", rel != "<="
    row_tol = FEASIBILITY_TOL * (1.0 + np.abs(b))  # feasibility_violation's scale
    pos = av > 0
    lo, hi = model.lower, model.upper
    while True:
        min_act = np.bincount(ri, av * np.where(pos, lo[cj], hi[cj]), minlength=m)
        max_act = np.bincount(ri, av * np.where(pos, hi[cj], lo[cj]), minlength=m)
        if ((has_le & (min_act - b > row_tol)) | (has_ge & (b - max_act > row_tol))).any():
            return _Presolved(None, None, None, (shape, None))
        # Per nonzero, the room its row leaves above its least (below its
        # greatest) activity, divided by the coefficient.  Clamping at 0
        # keeps roundoff from implying a conflict that no row has on its own.
        up = np.where(has_le, np.maximum(b - min_act, 0.0), np.inf)[ri] / av
        dn = np.where(has_ge, np.minimum(b - max_act, 0.0), -np.inf)[ri] / av
        new_hi, new_lo = hi.copy(), lo.copy()
        np.minimum.at(new_hi, cj, lo[cj] + np.where(pos, up, dn))
        np.maximum.at(new_lo, cj, hi[cj] + np.where(pos, dn, up))
        new_hi = np.where(integral, np.floor(new_hi + INTEGRALITY_TOL), new_hi)
        new_lo = np.where(integral, np.ceil(new_lo - INTEGRALITY_TOL), new_lo)
        if (new_lo - new_hi > FEASIBILITY_TOL).any():
            return _Presolved(None, None, None, (shape, None))
        # A continuous column keeps its bounds until its interval closes.
        closed = new_hi - new_lo <= FEASIBILITY_TOL
        fixed_at = np.clip(0.5 * (new_lo + new_hi), lo, hi)
        new_lo = np.where(integral, new_lo, np.where(closed, fixed_at, lo))
        new_hi = np.where(integral, new_hi, np.where(closed, fixed_at, hi))
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi

    free = lo < hi
    x = np.where(free, 0.0, lo)
    free_nz = free[cj]
    redundant = (np.bincount(ri, free_nz, minlength=m) == 0) | (
        (~has_le | (max_act <= b)) & (~has_ge | (min_act >= b)))
    if free.all() and not redundant.any():
        return _Presolved(model, x, free, (shape, shape))
    rows, cols = np.flatnonzero(~redundant), np.flatnonzero(free)
    reduced = MilpModel(
        objective=model.objective[cols],
        lower=lo[cols],
        upper=hi[cols],
        a_matrix=a[np.ix_(rows, cols)],
        relations=tuple(rel[rows].tolist()),
        rhs=(b - np.bincount(ri, av * x[cj], minlength=m))[rows],
        integer_mask=model.integer_mask[cols],
        objective_constant=model.objective_constant + float(model.objective @ x),
    )
    kept_nnz = int((free_nz & ~redundant[ri]).sum())
    return _Presolved(reduced, x, free, (shape, ModelShape(rows.size, cols.size, kept_nnz)))


def solve_lp(model: MilpModel) -> MilpSolution:
    """Solve the continuous relaxation (integer marks ignored).

    The returned solution, when optimal, has passed an independent
    feasibility re-check against ``model`` at ``FEASIBILITY_TOL``.
    """
    pre = _presolve(model, np.zeros(model.num_vars, dtype=bool))
    if pre.model is None:
        sol = MilpSolution("infeasible", None, None)
    else:
        sol = _solve_node(pre.model, pre.model.lower, pre.model.upper)
    return pre.postsolve(model, sol, FEASIBILITY_TOL)


def _integer_row_infeasible(model: MilpModel) -> bool:
    """True when some ``==`` row has integer coefficients on integer variables
    only and a rhs that is no integer multiple of their gcd."""
    eq = np.flatnonzero(np.asarray(model.relations) == "==")
    a = model.a_matrix[eq]
    nz = a != 0
    whole = (a == np.round(a)) & (np.abs(a) <= 2.0 ** 53)
    ok = nz.any(axis=1) & ~(nz & ~model.integer_mask).any(axis=1) & whole.all(axis=1)
    if not ok.any():
        return False
    g = np.gcd.reduce(np.abs(a[ok]).astype(np.int64), axis=1)
    b = model.rhs[eq[ok]]
    return bool((np.abs(b - g * np.round(b / g)) > FEASIBILITY_TOL).any())


def solve_ilp(model: MilpModel, node_limit: int = 200_000) -> MilpSolution:
    """Branch-and-bound over the LP relaxation for 0/1 integer variables,
    on the presolved model; an incumbent is re-checked against ``model``."""
    int_idx = np.flatnonzero(model.integer_mask)
    if not np.isin(np.stack([model.lower, model.upper])[:, int_idx], (0.0, 1.0)).all():
        raise ValueError("integer variables must have 0/1 bounds")
    pre = _presolve(model, model.integer_mask)
    if pre.model is None or _integer_row_infeasible(pre.model):
        sol = MilpSolution("infeasible", None, None)
    else:
        sol = _branch_and_bound(pre.model, node_limit)
    return pre.postsolve(model, sol, 1e-7)


def _branch_and_bound(model: MilpModel, node_limit: int) -> MilpSolution:
    """Depth-first branch-and-bound from ``model``'s own bounds."""
    int_idx = np.flatnonzero(model.integer_mask)
    c = model.objective
    best_x = None
    best_obj = np.inf
    nodes = 0
    stack = [(model.lower.copy(), model.upper.copy())]
    while stack:
        if nodes >= node_limit:
            obj = best_obj if best_x is not None else None
            return MilpSolution("node_limit", best_x, obj, nodes)
        lo, hi = stack.pop()
        sol = _solve_node(model, lo, hi)
        nodes += 1
        if sol.status == "infeasible":
            continue
        if sol.objective_value >= best_obj - PRUNE_TOL:
            continue
        x = sol.x
        frac = np.abs(x[int_idx] - np.round(x[int_idx]))
        if frac.max(initial=0.0) <= INTEGRALITY_TOL:
            x_r = x.copy()
            x_r[int_idx] = np.round(x_r[int_idx])
            if feasibility_violation(model, x_r) <= 1e-7:
                obj = float(c @ x_r) + model.objective_constant
                if obj < best_obj:
                    best_obj = obj
                    best_x = x_r
                continue
            j = int(int_idx[np.argmax(frac)])
        else:
            fractional = frac > INTEGRALITY_TOL
            cands = int_idx[fractional]
            dist = np.abs((x[cands] - np.floor(x[cands])) - 0.5)
            j = int(cands[np.argmin(dist)])
        near = int(round(float(np.clip(x[j], 0.0, 1.0))))
        for val in (1 - near, near):  # LIFO: nearest branch explored first
            lo_c, hi_c = lo.copy(), hi.copy()
            lo_c[j] = hi_c[j] = float(val)
            stack.append((lo_c, hi_c))
    if best_x is None:
        return MilpSolution("infeasible", None, None, nodes)
    return MilpSolution("optimal", best_x, best_obj, nodes)
