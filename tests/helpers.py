"""Helpers shared by the test modules: a defectivity vector from its bits,
and the scipy HiGHS reference solve of a model."""

import numpy as np
import pytest

from gtprior.core import DefectivityVector


def vec(*bits):
    return DefectivityVector(tuple(bits))


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
