"""Independent checks of the program's outputs.

* :func:`check_decode` re-solves a decode's model with scipy HiGHS
  (``milp`` for integer models, ``linprog`` for relaxed ones) and compares
  objectives, ``objective_constant`` included.
* :func:`check_truth_point` evaluates a freshly built model at the true
  defectivity vector with plain numpy: the point must be feasible and its
  objective must equal the closed-form value (defectives count, or the
  negative Ising log-probability, plus the flip penalty when noisy).

scipy is imported lazily, after timing has stopped.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

OBJ_TOL = 1e-6  # relative objective tolerance against HiGHS: |a-b| <= tol * max(1, |b|)
FEAS_TOL = 1e-9  # scaled row/bound violation allowed at the truth point


def _row_bounds(model):
    rel = np.array(model.relations)
    b = model.rhs
    lb = np.where((rel == ">=") | (rel == "=="), b, -np.inf)
    ub = np.where((rel == "<=") | (rel == "=="), b, np.inf)
    return lb, ub


def highs_objective(model) -> tuple:
    """(status, objective incl. objective_constant) of ``model`` under HiGHS."""
    from scipy.optimize import Bounds, LinearConstraint, linprog, milp

    c = model.objective
    if model.integer_mask.any():
        lb, ub = _row_bounds(model)
        res = milp(c, integrality=model.integer_mask.astype(int),
                   bounds=Bounds(model.lower, model.upper),
                   constraints=LinearConstraint(model.a_matrix, lb, ub),
                   options={"mip_rel_gap": 0.0})
    else:
        rel = np.array(model.relations)
        a, b = model.a_matrix, model.rhs
        le, ge, eq = rel == "<=", rel == ">=", rel == "=="
        a_ub = np.vstack([a[le], -a[ge]])
        b_ub = np.concatenate([b[le], -b[ge]])
        res = linprog(c, A_ub=a_ub if a_ub.size else None,
                      b_ub=b_ub if a_ub.size else None,
                      A_eq=a[eq] if eq.any() else None,
                      b_eq=b[eq] if eq.any() else None,
                      bounds=np.column_stack([model.lower, model.upper]),
                      method="highs")
    if res.status != 0:
        return f"highs:{res.status}", None
    return "optimal", float(res.fun) + model.objective_constant


def check_decode(model, result) -> Optional[str]:
    """None when the decode ``result`` of ``model`` is optimal and matches
    HiGHS, else the reason."""
    if result.solver_status != "optimal" or result.objective_value is None:
        return f"status {result.solver_status}"
    status, ref = highs_objective(model)
    if ref is None:
        return f"oracle {status}"
    if abs(result.objective_value - ref) > OBJ_TOL * max(1.0, abs(ref)):
        return f"objective {result.objective_value!r} != HiGHS {ref!r}"
    return None


def check_truth_point(model, spec, design_matrix: np.ndarray, y: np.ndarray,
                      truth: np.ndarray) -> Optional[str]:
    """None when ``model`` (built for ``spec``) is feasible at the truth with
    the closed-form objective, else the reason."""
    n = truth.shape[0]
    u = truth.astype(float)
    clean = (design_matrix.astype(np.int64) @ truth.astype(np.int64) > 0).astype(np.uint8)
    noisy = spec.noise.is_noisy
    if not noisy and not np.array_equal(clean, y):
        return "noiseless outcomes differ from the OR of the included defectives"
    flips = (clean != y).astype(float)
    parts = [u]
    expected = float(truth.sum())
    if spec.family == "ising_map":
        prior = spec.prior
        edges = np.array(prior.graph.edges, dtype=np.intp).reshape(-1, 2)
        parts.append(u[edges[:, 0]] * u[edges[:, 1]])
        s = 2.0 * u - 1.0
        log_p = float(prior.lam @ (s[edges[:, 0]] * s[edges[:, 1]]) - prior.phi @ s)
        expected = -log_p
    if noisy:
        parts.append(flips)
        expected += spec.eta * float(flips.sum())
    x = np.concatenate(parts)
    if x.shape[0] != model.num_vars:
        return f"model has {model.num_vars} vars, truth point has {x.shape[0]}"
    lb, ub = _row_bounds(model)
    ax = model.a_matrix @ x
    scale = 1.0 + np.abs(model.rhs)
    worst = max(float(np.max((lb - ax) / scale, initial=0.0)),
                float(np.max((ax - ub) / scale, initial=0.0)),
                float(np.max(model.lower - x, initial=0.0)),
                float(np.max(x - model.upper, initial=0.0)))
    if worst > FEAS_TOL:
        return f"truth point violates the model by {worst!r}"
    obj = float(model.objective @ x) + model.objective_constant
    if not math.isclose(obj, expected, rel_tol=1e-9, abs_tol=1e-9):
        return f"objective at the truth {obj!r} != closed form {expected!r}"
    return None


def model_shape(model) -> dict:
    """Rows, vars, constraint nonzeros, and the bytes of every array the
    model holds (computed from ``nbytes``, not measured)."""
    arrays = [getattr(model, f.name) for f in dataclasses.fields(model)]
    return {"rows": model.num_rows, "vars": model.num_vars,
            "nnz": int(np.count_nonzero(model.a_matrix)),
            "bytes": int(sum(a.nbytes for a in arrays if isinstance(a, np.ndarray)))}
