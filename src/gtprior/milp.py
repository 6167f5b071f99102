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
* Tolerances (all overridable): feasibility 1e-9, integrality 1e-6,
  bound-pruning 1e-7.
* Solutions reported optimal are re-checked for feasibility before being
  returned; irrecoverable numerical trouble raises :class:`NumericalError`
  rather than returning a silently wrong answer.
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
class MilpSolution:
    """Solver outcome: status in {optimal, infeasible, unbounded, node_limit}."""

    status: str
    x: Optional[np.ndarray]
    objective_value: Optional[float]
    nodes_explored: int = 0


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


def _simplex(c, a, rel, b, lo, hi, feas_tol):
    """Two-phase bounded-variable simplex on min c.x, A x rel b, lo<=x<=hi.

    Returns (status, x) with status in {optimal, infeasible, unbounded}.
    """
    n = c.shape[0]
    ub = hi - lo
    shift = a @ lo if a.shape[0] else np.zeros(0)
    b_eff = b - shift

    # Drop rows with no coefficients after checking their satisfiability.
    keep, rels = [], []
    for i in range(a.shape[0]):
        if np.any(a[i]):
            keep.append(i)
            rels.append(rel[i])
        else:
            r, rhs_i = rel[i], b_eff[i]
            bad = ((r == "<=" and rhs_i < -feas_tol)
                   or (r == ">=" and rhs_i > feas_tol)
                   or (r == "==" and abs(rhs_i) > feas_tol))
            if bad:
                return "infeasible", None
    a = a[keep]
    b_eff = b_eff[keep]
    m = a.shape[0]

    # Normalize to nonnegative rhs, then append slack/surplus and artificials.
    rows = []
    senses = []
    for i in range(m):
        row, rhs_i, r = a[i], b_eff[i], rels[i]
        if rhs_i < 0:
            row, rhs_i = -row, -rhs_i
            r = {"<=": ">=", ">=": "<=", "==": "=="}[r]
        rows.append(row)
        senses.append(r)
        b_eff[i] = rhs_i
    n_slack = sum(1 for r in senses if r != "==")
    n_art = sum(1 for r in senses if r != "<=")
    total = n + n_slack + n_art
    # Transposed tableau: tab_t[j, i] is row i, column j, so each column
    # (the entering one, or one the pivot row touches) is contiguous.
    tab_t = np.zeros((total, m))
    if m:
        tab_t[:n] = np.vstack(rows).T
    col_ub = np.concatenate([ub, np.full(n_slack + n_art, np.inf)])
    is_art = np.zeros(total, dtype=bool)
    basis = np.empty(m, dtype=np.intp)
    s_at, a_at = n, n + n_slack
    for i, r in enumerate(senses):
        if r == "<=":
            tab_t[s_at, i] = 1.0
            basis[i] = s_at
            s_at += 1
        elif r == ">=":
            tab_t[s_at, i] = -1.0
            s_at += 1
            tab_t[a_at, i] = 1.0
            is_art[a_at] = True
            basis[i] = a_at
            a_at += 1
        else:
            tab_t[a_at, i] = 1.0
            is_art[a_at] = True
            basis[i] = a_at
            a_at += 1

    x_b = b_eff.copy()
    at_upper = np.zeros(total, dtype=bool)
    in_basis = np.zeros(total, dtype=bool)
    in_basis[basis] = True

    # Reduced-cost rows for both phases, updated by pivots.
    z2 = np.zeros(total)
    z2[:n] = c
    z1 = np.zeros(total)
    art_rows = [i for i in range(m) if is_art[basis[i]]]
    if art_rows:
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
            if phase == 1 and infeasibility() <= feas_tol * scale:
                return "done"
            cand_low = (~in_basis) & (~at_upper) & (col_ub > tol_piv) & (z < -tol_d)
            cand_up = (~in_basis) & at_upper & (z > tol_d)
            if not (cand_low.any() or cand_up.any()):
                return "done"
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
                return "unbounded"
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

    if infeasibility() > feas_tol * scale:
        status = run_phase(z1, phase=1)
        if status == "unbounded":
            raise NumericalError("phase-1 reported unbounded")
        if infeasibility() > 1e-7 * scale:
            return "infeasible", None
    col_ub[is_art] = 0.0  # artificials may never re-enter

    status = run_phase(z2, phase=2)
    if status == "unbounded":
        return "unbounded", None

    x_full = np.where(at_upper & np.isfinite(col_ub), col_ub, 0.0)
    x_full[basis] = x_b
    return "optimal", lo + x_full[:n]


def _lp_arrays(c, a, rel, b, lo, hi, constant, feas_tol):
    status, x = _simplex(c, a, rel, b, lo, hi, feas_tol)
    if status != "optimal":
        return MilpSolution(status, None, None)
    return MilpSolution("optimal", x, float(c @ x) + constant)


def solve_lp(model: MilpModel, feas_tol: float = FEASIBILITY_TOL) -> MilpSolution:
    """Solve the continuous relaxation (integer marks ignored).

    The returned solution, when optimal, has passed an independent
    feasibility re-check at ``feas_tol``.
    """
    sol = _lp_arrays(model.objective, model.a_matrix, model.relations, model.rhs,
                     model.lower, model.upper, model.objective_constant, feas_tol)
    if sol.status == "optimal" and feasibility_violation(model, sol.x) > feas_tol:
        raise NumericalError("optimal LP solution failed the feasibility re-check")
    return sol


def solve_ilp(model: MilpModel, node_limit: int = 200_000,
              int_tol: float = INTEGRALITY_TOL, prune_tol: float = PRUNE_TOL,
              feas_tol: float = FEASIBILITY_TOL) -> MilpSolution:
    """Branch-and-bound over the LP relaxation for 0/1 integer variables."""
    int_idx = np.flatnonzero(model.integer_mask)
    for j in int_idx:
        if model.lower[j] not in (0.0, 1.0) or model.upper[j] not in (0.0, 1.0):
            raise ValueError("integer variables must have 0/1 bounds")
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
        sol = _lp_arrays(c, model.a_matrix, model.relations, model.rhs, lo, hi,
                         model.objective_constant, feas_tol)
        nodes += 1
        if sol.status == "infeasible":
            continue
        if sol.status != "optimal":
            raise NumericalError(f"LP relaxation returned {sol.status}")
        if sol.objective_value >= best_obj - prune_tol:
            continue
        x = sol.x
        frac = np.abs(x[int_idx] - np.round(x[int_idx])) if int_idx.size else \
            np.zeros(0)
        if not int_idx.size or frac.max(initial=0.0) <= int_tol:
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
            fractional = frac > int_tol
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
    if feasibility_violation(model, best_x) > 1e-7:
        raise NumericalError("incumbent failed the feasibility re-check")
    return MilpSolution("optimal", best_x, best_obj, nodes)
