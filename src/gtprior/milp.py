"""Self-contained LP/ILP solver: a bounded dual simplex plus
branch-and-bound for 0/1 integer programs.

This is the shared optimization substrate for every decoder.  Models are
bounded-variable linear programs (minimize c.x) with <=, ==, >= rows and
optional 0/1 integrality marks.

Implementation notes and defaults:

* A model holds its constraint matrix only as CSR (compressed sparse row)
  arrays (:class:`MilpModel`); the presolve, the re-checks and the simplex
  read its nonzeros, and ``MilpModel.a_matrix`` is a dense view for oracles
  and tests only.
* One bounded dual simplex solves every LP (Koberstein, *The dual simplex
  method*, 2005, ch. 3).  Each row gets a slack (``A x + s = b``, with
  ``s >= 0`` for ``<=``, ``s <= 0`` for ``>=`` and ``s = 0`` for ``==``),
  and every structural column is boxed, so the slack basis is dual
  feasible once each nonbasic column rests at the bound its cost sign
  picks: there is no phase 1.  The leaving row has the largest bound
  violation relative to the norm of its row of the basis inverse (dual
  steepest edge); the ratio test flips boxed columns to their
  other bound while the leaving variable stays out of bounds, then takes
  the largest pivot among the ratios within the dual tolerance (Harris).
  After ``10 * (rows + cols)`` iterations both choices go by least index
  (Bland's rule for the dual), so degenerate models still terminate.
* The simplex is revised, and ``_Tableau`` alone knows how the basis is
  stored: its only dense array is the transposed basis inverse (rows x
  rows; above 1 MB in its own anonymous map).  The pivot row is row ``r``
  of the inverse times ``[A I]`` (one ``bincount`` over the nonzeros), the
  entering column is ``B^-1 a_q`` (from a column-major index built once per
  model), and bound flips and new bounds move the basic values by ``B^-1
  (A dx)`` on one path (``_Tableau.set_bounds``).  ``_Tableau.pivot`` makes
  every basis change: reduced costs, basic values, the basis swap, and a
  rank-1 update that touches only the rows of the inverse where its row
  ``r`` is nonzero.  Entries of the divided row ``r`` below 1e-13 are
  dropped first: they are roundoff left by exact cancellations (on the
  noisy decoder LPs every real entry is above 1e-3), and each would cost a
  row of the update.  The steepest-edge weights follow by recurrence
  (Forrest & Goldfarb, 1992); no updated row is re-normed.  The simplex
  loop only prices and runs the ratio test.  The noisy ``full-grid-28``
  t=100 relaxed ``ising_map`` LP (3124 rows) takes about 10 s and 3452
  pivots on one core of a 2-vCPU Xeon.
* An ``infeasible`` answer is certified: the row the dual simplex could not
  repair is aggregated again from the original rows with its row of the
  basis inverse, and its least (or greatest) value over the bounds, each
  slack also bounded by its row's activity, must miss the aggregated rhs.
* Branch-and-bound branches on the integer variable whose fractional part
  is closest to 0.5 (the lowest-indexed one within 1e-9 of the closest, so
  last-bit rounding does not move the tree), explores depth-first, and
  takes first the child nearest the parent LP value.  Each node starts
  from its parent's optimal basis, still dual feasible with one column
  fixed: the child popped right after its parent continues on the live
  inverse, and any other child refactors the kept basis by inverting its
  block of basic structural columns.
* ``solve_lp`` and ``solve_ilp`` first run one exact presolve at the root
  (never at nodes): activity bounds are propagated over the nonzeros until
  nothing changes, integer columns rounding implied bounds with the
  integrality tolerance and a continuous column fixed only when its
  implied interval closes.  In group testing this is COMP (an item in a
  negative test is 0), DD (the lone candidate of a positive test is 1) and
  the fixing of each edge product with its endpoints.  Rows that hold over
  the tightened bounds, or that no free column touches, are dropped; a
  free column that no kept row touches is fixed at the bound its cost
  picks (upper for a negative cost, else lower).  Fixed columns are folded
  into the rhs and the objective constant.  Conflicting bounds, or a row
  that no point of the bounds satisfies, prove the model infeasible with 0
  nodes; an unchanged model is solved as given.  Postsolve scatters the
  reduced solution back and re-checks it against the original model (at
  the feasibility tolerance for an LP, at 1e-7 for an incumbent).
* Before the root node, an ``==`` row of the presolved model with integer
  coefficients on integer variables only, whose rhs is no multiple of the
  gcd of its coefficients (within the feasibility tolerance), proves the
  model infeasible with 0 nodes.
* Tolerances are fixed: feasibility 1e-9, integrality 1e-6, bound-pruning
  1e-7; in the dual simplex, primal 0.5e-9, dual and pivot 1e-9, and 1e-13
  for the entries dropped from a divided pivot row.
* Every LP solve, root or node, is certified: an optimal point is
  re-checked against the model before it is used, and an incumbent after
  rounding.  Numerical trouble raises :class:`NumericalError` rather than
  returning a silently wrong answer: a non-finite constraint matrix
  (caught by the presolve), a failed infeasibility certificate or a kept
  basis that has become singular.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

FEASIBILITY_TOL = 1e-9
INTEGRALITY_TOL = 1e-6
PRUNE_TOL = 1e-7
_PRIMAL_TOL = 0.5 * FEASIBILITY_TOL
_DUAL_TOL = 1e-9
_PIVOT_TOL = 1e-9
_WEIGHT_FLOOR = 1e-12
_DROP_TOL = 1e-13  # entries of a divided pivot row below this are roundoff
_SLICE_BYTES = 1 << 20  # the size that sliced temporaries are kept to

_RELATIONS = ("<=", "==", ">=")


class NumericalError(RuntimeError):
    """Raised when the solver cannot certify its answer numerically."""


@dataclass(frozen=True)
class MilpModel:
    """Bounded-variable linear program with optional 0/1 integrality marks.

    The constraint matrix is held in CSR (compressed sparse row) form only:
    row ``i`` has the nonzeros ``data[indptr[i]:indptr[i + 1]]`` in the
    columns ``indices[indptr[i]:indptr[i + 1]]``, which increase strictly
    within a row, so the nonzeros come in the order ``np.nonzero`` walks
    the dense matrix.  :meth:`from_dense` builds a model from a dense
    matrix and :attr:`a_matrix` is the dense view.

    ``objective_constant`` is a constant added to c.x when reporting
    objective values (used by model builders that drop constant terms).
    """

    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    relations: tuple
    rhs: np.ndarray
    integer_mask: np.ndarray
    objective_constant: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float).reshape(-1)
        lo = np.asarray(self.lower, dtype=float).reshape(-1)
        hi = np.asarray(self.upper, dtype=float).reshape(-1)
        n = c.shape[0]
        indptr = _index_array("indptr", self.indptr)
        indices = _index_array("indices", self.indices)
        data = np.asarray(self.data, dtype=float).reshape(-1)
        b = np.asarray(self.rhs, dtype=float).reshape(-1)
        rel = tuple(self.relations)
        mask = np.asarray(self.integer_mask, dtype=bool).reshape(-1)
        if lo.shape[0] != n or hi.shape[0] != n or mask.shape[0] != n:
            raise ValueError("bounds and integer_mask must match num_vars")
        if not indptr.size or indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if (np.diff(indptr) < 0).any():
            raise ValueError("indptr must not decrease")
        if indptr[-1] != indices.size or data.size != indices.size:
            raise ValueError("indptr must end at the number of nonzeros, the "
                             "length of indices and data")
        if b.shape[0] != indptr.size - 1 or len(rel) != indptr.size - 1:
            raise ValueError("rhs/relations must match the constraint count")
        if ((indices < 0) | (indices >= n)).any():
            raise ValueError("column indices must lie in [0, num_vars)")
        ri = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
        if ((ri[1:] == ri[:-1]) & (indices[1:] <= indices[:-1])).any():
            raise ValueError("column indices must increase strictly within each row")
        if (data == 0).any():
            raise ValueError("constraint entries must be nonzero")
        if any(r not in _RELATIONS for r in rel):
            raise ValueError(f"relations must be one of {_RELATIONS}")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("bounds must be finite")
        if not (np.isfinite(c).all() and np.isfinite(b).all()):
            raise ValueError("objective and rhs must be finite")
        if (lo < 0).any() or (lo > hi).any():
            raise ValueError("need 0 <= lo <= hi for every variable")
        object.__setattr__(self, "relations", rel)
        for name, arr in (("objective", c), ("lower", lo), ("upper", hi), ("indptr", indptr),
                          ("indices", indices), ("data", data), ("rhs", b),
                          ("integer_mask", mask)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_dense(cls, objective, lower, upper, a_matrix, relations, rhs,
                   integer_mask, objective_constant: float = 0.0) -> "MilpModel":
        """The model whose constraint matrix is the dense ``a_matrix``: its
        nonzeros (a NaN counts as one) are stored, its zeros are not."""
        n = np.asarray(objective).reshape(-1).shape[0]
        a = np.asarray(a_matrix, dtype=float)
        if a.size == 0:
            a = a.reshape(0, n)
        if a.ndim != 2 or a.shape[1] != n:
            raise ValueError("constraint matrix width must equal num_vars")
        ri, cj = np.nonzero(a)
        indptr, indices, data = csr_arrays(ri, cj, a[ri, cj], a.shape[0])
        return cls(objective, lower, upper, indptr, indices, data, relations, rhs,
                   integer_mask, objective_constant)

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def num_rows(self) -> int:
        return self.rhs.shape[0]

    def row_ids(self) -> np.ndarray:
        """The row of each nonzero, as ``np.nonzero`` gives it for the dense
        matrix."""
        return np.repeat(np.arange(self.num_rows), np.diff(self.indptr))

    @cached_property
    def columns(self) -> tuple:
        """``(colptr, rows, values)``: the nonzeros by column, built once."""
        order = np.argsort(self.indices, kind="stable")
        colptr = np.searchsorted(self.indices[order], np.arange(self.num_vars + 1))
        return colptr, self.row_ids()[order], self.data[order]

    @property
    def a_matrix(self) -> np.ndarray:
        """A new read-only dense constraint matrix, for oracles and tests."""
        a = np.zeros((self.num_rows, self.num_vars))
        a[self.row_ids(), self.indices] = self.data
        a.flags.writeable = False
        return a


def _block(model: MilpModel, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``model``'s constraint matrix at ``np.ix_(rows, cols)`` as a new dense
    array: one ``np.zeros`` and one scatter of the nonzeros it holds."""
    at_row, at_col = np.full(model.num_rows, -1), np.full(model.num_vars, -1)
    at_row[rows], at_col[cols] = np.arange(rows.size), np.arange(cols.size)
    i, j = at_row[model.row_ids()], at_col[model.indices]
    keep = (i >= 0) & (j >= 0)
    a = np.zeros((rows.size, cols.size))
    a[i[keep], j[keep]] = model.data[keep]
    return a


def _index_array(name: str, values) -> np.ndarray:
    """``values`` as a flat ``intp`` array; any dtype but an integer one is a
    ValueError naming ``name``."""
    arr = np.asarray(values).reshape(-1)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, not {arr.dtype}")
    return arr.astype(np.intp)


def csr_arrays(rows, cols, values, num_rows: int) -> tuple:
    """``(indptr, indices, data)`` of the matrix with ``num_rows`` rows
    whose entries are the ``(row, column, value)`` triplets: sorted by row,
    then column, with zero values dropped.  A repeated position is kept
    twice, which :class:`MilpModel` rejects."""
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    values = np.asarray(values, dtype=float)
    keep = values != 0
    rows, cols, values = rows[keep], cols[keep], values[keep]
    if ((rows < 0) | (rows >= num_rows)).any():
        raise ValueError("row indices must lie in [0, num_rows)")
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=num_rows))])
    return indptr, cols[order], values[order]


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
    ``pivots`` counts the dual simplex iterations, summed over the root and
    every branch-and-bound node.
    """

    status: str
    x: Optional[np.ndarray]
    objective_value: Optional[float]
    nodes_explored: int = 0
    model_shape: Optional[ModelShape] = None
    presolved_shape: Optional[ModelShape] = None
    pivots: int = 0


def _row_activity(model: MilpModel, x: np.ndarray) -> np.ndarray:
    """``A x`` for each point of the ``(N, num_vars)`` batch ``x``, each
    row's products summed in column order, a slice of points at a time so
    that the ``(points, nnz)`` temporaries stay small."""
    m, nnz = model.num_rows, model.data.size
    ri = model.row_ids()
    out = np.empty((x.shape[0], m))
    step = max(1, _SLICE_BYTES // (16 * max(nnz, 1)))
    for first in range(0, x.shape[0], step):
        part = x[first:first + step]
        k = part.shape[0]
        slots = (np.arange(k)[:, None] * m + ri).ravel()
        prods = (part[:, model.indices] * model.data).ravel()
        out[first:first + k] = np.bincount(slots, prods, minlength=k * m).reshape(k, m)
    return out


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
        ax = _row_activity(model, np.atleast_2d(x)).reshape(*x.shape[:-1], model.num_rows)
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
        nz = slice(model.indptr[i], model.indptr[i + 1])
        terms = " + ".join(f"{v:g}*x{j}" for j, v in zip(model.indices[nz], model.data[nz]))
        lines.append(f"{terms or '0'} {model.relations[i]} {model.rhs[i]:g}")
    return "\n".join(lines) + "\n"


def _activity_range(ri, cj, av, m: int, lo, hi) -> tuple:
    """Least and greatest activity of each of the ``m`` rows with the
    nonzeros ``(ri, cj, av)`` over the bounds ``lo``, ``hi``."""
    pos = av > 0
    return (np.bincount(ri, av * np.where(pos, lo[cj], hi[cj]), minlength=m),
            np.bincount(ri, av * np.where(pos, hi[cj], lo[cj]), minlength=m))


class _Tableau:
    """A basis of ``model``'s rows at the structural bounds ``lo``, ``hi``,
    with its inverse, reduced costs and basic values.

    Each row gets one slack, ``A x + s = b``, with ``s`` in ``[0, inf)`` for
    ``<=``, ``(-inf, 0]`` for ``>=`` and ``[0, 0]`` for ``==``, so the slack
    columns start as the identity.  ``start`` is a ``(basis, at_upper)``
    pair kept from an earlier solve, or None for the slack basis; either is
    factored on one path from the model's CSR arrays.  Every boxed nonbasic
    column whose reduced cost is not zero rests at the bound its sign picks,
    so the slack basis, and a basis that was optimal at other bounds, are
    dual feasible.  The one dense array is ``binv_t``, the transposed basis
    inverse (m x m): row ``k`` is ``B^-1 e_k``, column ``r`` row ``r`` of it.
    Nothing outside this class reads it: :meth:`pivot` makes every basis
    change and :meth:`set_bounds` every move of the nonbasic columns.
    """

    def __init__(self, model: MilpModel, lo, hi, start=None):
        m, n = model.num_rows, model.num_vars
        rel = np.asarray(model.relations, dtype=str)
        self.model = model
        self.row_ids = model.row_ids()
        self.lo = np.concatenate([lo, np.where(rel == ">=", -np.inf, 0.0)])
        self.hi = np.concatenate([hi, np.where(rel == "<=", np.inf, 0.0)])
        self.pivots = 0
        if start is None:
            start = n + np.arange(m), np.zeros(n + m, dtype=bool)
        self.basis, at_upper = start[0].copy(), start[1].copy()
        # With the basic structural columns S, the basic slacks' rows t and
        # the other rows r, B = [[A_rS, 0], [A_tS, I]] up to order and B^-1 =
        # [[A_rS^-1, 0], [-A_tS A_rS^-1, I]]: only A_rS (0x0 for the slack
        # basis) is inverted.
        pos_s, pos_t = np.flatnonzero(self.basis < n), np.flatnonzero(self.basis >= n)
        rows_t = self.basis[pos_t] - n
        rows_r = np.flatnonzero(np.bincount(rows_t, minlength=m) == 0)
        cols_s = self.basis[pos_s]
        try:
            inv_rs = np.linalg.inv(_block(model, rows_r, cols_s))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("kept basis is singular") from exc
        # An inverse larger than the sliced temporaries gets its own zero-filled
        # anonymous map, so no small allocation can pin its place in the heap
        # and grow a long run's heap; a smaller one reuses heap pages.
        self.binv_t = (np.zeros((m, m)) if 8 * m * m <= _SLICE_BYTES else
                       np.frombuffer(mmap.mmap(-1, 8 * m * m), count=m * m).reshape(m, m))
        self.binv_t[np.ix_(rows_r, pos_s)] = inv_rs.T
        self.binv_t[np.ix_(rows_r, pos_t)] = -(_block(model, rows_t, cols_s) @ inv_rs).T
        self.binv_t[rows_t, pos_t] = 1.0
        self.weights = np.einsum("ij,ij->j", self.binv_t, self.binv_t)
        self.in_basis = np.zeros(n + m, dtype=bool)
        self.in_basis[self.basis] = True
        cost = np.concatenate([model.objective, np.zeros(m)])
        self.d = cost - self._combine(self.binv_t @ cost[self.basis])
        self.d[self.basis] = 0.0
        boxed = np.isfinite(self.lo) & np.isfinite(self.hi) & ~self.in_basis
        self.at_upper = np.where(boxed & (np.abs(self.d) > _DUAL_TOL), self.d < 0, at_upper)
        self.x_b = model.rhs @ self.binv_t
        self.move(self._nonbasic_values())

    def _combine(self, y) -> np.ndarray:
        """``y^T [A I]``: the rows combined with the multipliers ``y``."""
        model = self.model
        return np.concatenate([np.bincount(model.indices, model.data * y[self.row_ids],
                                           minlength=model.num_vars), y])

    def row(self, r: int) -> np.ndarray:
        """Row ``r`` of ``B^-1 [A I]``, exact in the basic columns."""
        alpha = self._combine(self.binv_t[:, r])
        alpha[self.basis] = 0.0
        alpha[self.basis[r]] = 1.0
        return alpha

    def column(self, q: int) -> np.ndarray:
        """Column ``q`` of ``B^-1 [A I]``, from column ``q``'s nonzeros."""
        if q >= self.model.num_vars:
            return self.binv_t[q - self.model.num_vars].copy()
        colptr, rows, values = self.model.columns
        nz = slice(colptr[q], colptr[q + 1])
        return values[nz] @ self.binv_t[rows[nz]]

    def move(self, moved) -> None:
        """Carry the basic values along as the nonbasic columns move by
        ``moved`` (over all n + m columns): ``x_b -= B^-1 [A I] moved``."""
        model = self.model
        v = np.bincount(self.row_ids, model.data * moved[model.indices],
                        minlength=model.num_rows) + moved[model.num_vars:]
        k = np.flatnonzero(v)
        self.x_b -= v[k] @ self.binv_t[k]

    def _nonbasic_values(self) -> np.ndarray:
        """Every column at its resting bound, with 0 for the basic ones."""
        x = np.where(self.at_upper, self.hi, self.lo)
        x[self.basis] = 0.0
        return x

    def start(self) -> tuple:
        """The ``(basis, at_upper)`` pair that rebuilds this basis."""
        return self.basis.copy(), self.at_upper.copy()

    def set_bounds(self, lo, hi, flip=None) -> None:
        """Move to the bounds ``lo``, ``hi`` (structural, or over all n + m
        columns) with the nonbasic columns ``flip``, if any, at their other
        bound.  The basic values follow the nonbasic columns that move; a
        basic one may leave its bounds, which the dual simplex then repairs."""
        old = self._nonbasic_values()
        self.lo[:lo.size], self.hi[:hi.size] = lo, hi
        if flip is not None:
            self.at_upper[flip] = ~self.at_upper[flip]
        self.move(self._nonbasic_values() - old)

    def point(self) -> np.ndarray:
        """The structural values of the basic solution."""
        x = np.where(self.at_upper, self.hi, self.lo)
        x[self.basis] = self.x_b
        return x[:self.model.num_vars]

    def pivot(self, r: int, q: int, alpha, to_lower: bool) -> None:
        """Column ``q`` enters the basis at row ``r``, whose basic variable
        leaves at its lower (``to_lower``) or upper bound; ``alpha`` is
        tableau row ``r``.  Updates the reduced costs, the basic values, the
        basis, its inverse and the steepest-edge weights."""
        d, x_b, binv_t, weights = self.d, self.x_b, self.binv_t, self.weights
        lo, hi, at_upper, basis = self.lo, self.hi, self.at_upper, self.basis
        piv = alpha[q]
        if (d[q] < 0) != at_upper[q]:
            d[q] = 0.0  # drop a reduced cost within the tolerance of the wrong sign
        d -= (d[q] / piv) * alpha
        d[q] = 0.0
        p = basis[r]
        theta = (x_b[r] - (lo[p] if to_lower else hi[p])) / piv
        enter = (hi[q] if at_upper[q] else lo[q]) + theta
        col = self.column(q)
        x_b -= theta * col
        x_b[r] = enter
        at_upper[p], at_upper[q] = not to_lower, False
        self.in_basis[p], self.in_basis[q] = False, True
        basis[r] = q
        prow = binv_t[:, r]  # row r of the basis inverse
        prow /= piv
        # Exact cancellations leave roundoff far below any real entry; drop
        # it, so that the update below skips the rows it would touch.
        prow[np.abs(prow) < _DROP_TOL] = 0.0
        col[r] = 0.0
        # Rank-1 update of the rows where row r of the inverse is nonzero
        # (any other would have +-0 subtracted), a slice at a time to keep
        # temporaries small.  The steepest-edge weights follow by the
        # recurrence w_j += c_j (c_j |p|^2 - 2 p . (row j of B^-1)), with p
        # the divided row r and c the entering column, the products taken
        # before each slice is updated.  Row r's own weight is |p|^2, exact:
        # w_r / piv^2 would carry w_r's accumulated error along.
        rows = prow.nonzero()[0]
        vals = prow[rows]
        dots = np.zeros(basis.size)
        slice_rows = max(1, _SLICE_BYTES // (8 * basis.size))
        for first in range(0, rows.size, slice_rows):
            part, p_part = rows[first:first + slice_rows], vals[first:first + slice_rows]
            block = binv_t[part]
            dots += np.einsum("i,ij->j", p_part, block)
            block -= np.multiply.outer(p_part, col)
            binv_t[part] = block
        norm2 = np.einsum("i,i->", vals, vals)
        weights += col * (col * norm2 - 2.0 * dots)
        weights[r] = norm2
        np.maximum(weights, _WEIGHT_FLOOR, out=weights)
        self.pivots += 1

    def certify_infeasible(self, r: int, to_lower: bool) -> None:
        """Raise NumericalError unless tableau row ``r``, whose basic
        variable cannot reach its lower (``to_lower``) or upper bound, proves
        the rows infeasible at the bounds once aggregated again from the
        original rows with the row's multipliers."""
        model, b, n = self.model, self.model.rhs, self.model.num_vars
        lo, hi = self.lo[:n], self.hi[:n]
        y = self.binv_t[:, r]  # row r of the basis inverse
        # Each slack s = b - A x is also bounded by its row's activity.
        min_act, max_act = _activity_range(self.row_ids, model.indices, model.data,
                                           b.size, lo, hi)
        s_lo = np.maximum(self.lo[n:], b - max_act)
        s_hi = np.minimum(self.hi[n:], b - min_act)
        if (s_lo - s_hi > FEASIBILITY_TOL * (1.0 + np.abs(b))).any():
            return  # a row that no point within the bounds satisfies
        coef = self._combine(y)
        z_lo = np.concatenate([lo, np.minimum(s_lo, s_hi)])
        z_hi = np.concatenate([hi, s_hi])
        rhs = float(y @ b)
        if to_lower:  # the row's least value over the bounds exceeds rhs
            terms = np.minimum(coef * z_lo, coef * z_hi)
            gap = terms.sum() - rhs
        else:
            terms = np.maximum(coef * z_lo, coef * z_hi)
            gap = rhs - terms.sum()
        if not gap > 1e-12 * (1.0 + abs(rhs) + np.abs(terms).sum()):
            raise NumericalError("infeasibility certificate failed its re-check")


def _solve_node(tab: _Tableau) -> MilpSolution:
    """Bounded dual simplex over ``tab``'s model rows at its bounds, from its
    dual feasible basis, updating ``tab`` in place.  An optimal point has
    passed the feasibility re-check against the model, an infeasible answer
    ``tab.certify_infeasible``."""
    basis, d, weights, x_b = tab.basis, tab.d, tab.weights, tab.x_b
    lo, hi, at_upper, in_basis = tab.lo, tab.hi, tab.at_upper, tab.in_basis
    m, total = basis.size, lo.size
    movable = lo < hi  # a fixed column never enters
    bland_after = 10 * (m + total)
    max_iter = 200 * (m + total) + 20000
    before = tab.pivots
    while m:
        iters = tab.pivots - before
        below = lo[basis] - x_b
        viol = np.maximum(below, x_b - hi[basis])
        bland = iters > bland_after
        if bland:
            rows = np.flatnonzero(viol > _PRIMAL_TOL)
            if not rows.size:
                break
            r = int(rows[np.argmin(basis[rows])])
        else:
            # Dual steepest edge: the violation over the norm of its row of
            # the basis inverse.
            r = int(np.argmax(np.where(viol > _PRIMAL_TOL, viol * viol / weights, 0.0)))
            if viol[r] <= _PRIMAL_TOL:
                break
        if iters > max_iter:
            raise NumericalError("dual simplex iteration limit exceeded")
        to_lower = bool(below[r] > 0)
        alpha = tab.row(r)
        # gain > 0: moving the column off its bound moves the leaving
        # variable toward its violated bound.
        gain = np.where(at_upper, alpha, -alpha)
        if not to_lower:
            np.negative(gain, out=gain)
        cand = np.flatnonzero(movable & ~in_basis & (gain > _PIVOT_TOL))
        # Dual ratio test: the entering column's reduced cost reaches 0 first.
        step = np.where(at_upper[cand], -d[cand], d[cand])
        g = gain[cand]
        ratio = np.maximum(step, 0.0) / g
        # Bound flipping (never under Bland's rule): pass every breakpoint
        # whose column can flip to its other bound while the leaving variable
        # stays out of bounds.  No candidate, or none left, proves the rows
        # infeasible.
        order = np.argsort(ratio, kind="stable")
        room = np.cumsum(g[order] * (hi - lo)[cand[order]])
        k = 0 if bland else int(np.searchsorted(room, viol[r] - _PRIMAL_TOL))
        if k == cand.size:
            tab.certify_infeasible(r, to_lower)
            return MilpSolution("infeasible", None, None, pivots=tab.pivots - before)
        if bland:
            q = int(cand[np.flatnonzero(ratio <= ratio.min() + 1e-12)[0]])
        else:
            # Harris among the rest: the largest pivot within the
            # tolerance-widened least ratio.
            rest = order[k:]
            ok = step[rest] / g[rest] <= ((step[rest] + _DUAL_TOL) / g[rest]).min()
            q = int(cand[rest[ok][np.argmax(g[rest[ok]])]])
            if k:
                tab.set_bounds(lo, hi, cand[order[:k]])
        tab.pivot(r, q, alpha, to_lower)
    model, x = tab.model, tab.point()
    if feasibility_violation(model, x) > FEASIBILITY_TOL:
        raise NumericalError("optimal LP solution failed the feasibility re-check")
    return MilpSolution("optimal", x, float(model.objective @ x) + model.objective_constant,
                        pivots=tab.pivots - before)


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
            return MilpSolution(sol.status, None, None, sol.nodes_explored, *self.shapes,
                                pivots=sol.pivots)
        x = self.x.copy()
        x[self.free] = sol.x
        if feasibility_violation(original, x) > tol:
            raise NumericalError("postsolved point failed the feasibility "
                                 "re-check against the original model")
        obj = float(original.objective @ x) + original.objective_constant
        return MilpSolution(sol.status, x, obj, sol.nodes_explored, *self.shapes,
                            pivots=sol.pivots)


def _presolve(model: MilpModel, integral: np.ndarray) -> _Presolved:
    """Propagate activity bounds to a fixed point, drop the rows that can no
    longer be violated, fix each column no kept row touches at the bound its
    cost picks, and drop the fixed columns.

    ``integral`` marks the columns whose implied bounds are rounded (the
    integer columns for an ILP, none for an LP relaxation).
    """
    b = model.rhs
    m, n = model.num_rows, model.num_vars
    ri, cj, av = model.row_ids(), model.indices, model.data
    if not np.isfinite(av).all():
        raise NumericalError("constraint matrix has a non-finite entry")
    shape = ModelShape(m, n, ri.size)
    rel = np.asarray(model.relations, dtype=str)
    has_le, has_ge = rel != ">=", rel != "<="
    row_tol = FEASIBILITY_TOL * (1.0 + np.abs(b))  # feasibility_violation's scale
    pos = av > 0
    lo, hi = model.lower, model.upper
    while True:
        min_act, max_act = _activity_range(ri, cj, av, m, lo, hi)
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
    free_nz = free[cj]
    redundant = (np.bincount(ri, free_nz, minlength=m) == 0) | (
        (~has_le | (max_act <= b)) & (~has_ge | (min_act >= b)))
    # A free column that no kept row touches is bounded by its box alone:
    # fix it at the bound its cost picks.
    loose = free & (np.bincount(cj, ~redundant[ri], minlength=n) == 0)
    lo = np.where(loose & (model.objective < 0), hi, lo)
    free &= ~loose
    x = np.where(free, 0.0, lo)
    if free.all() and not redundant.any():
        return _Presolved(model, x, free, (shape, shape))
    rows, cols = np.flatnonzero(~redundant), np.flatnonzero(free)
    # The kept rows' nonzeros in the kept columns, renumbered; filtering
    # keeps them in row, then column order.
    kept = free_nz & ~redundant[ri]
    reduced = MilpModel(
        objective=model.objective[cols],
        lower=lo[cols],
        upper=hi[cols],
        indptr=np.concatenate([[0], np.cumsum(np.bincount(ri[kept], minlength=m)[rows])]),
        indices=(np.cumsum(free) - 1)[cj[kept]],
        data=av[kept],
        relations=tuple(rel[rows].tolist()),
        rhs=(b - np.bincount(ri, av * x[cj], minlength=m))[rows],
        integer_mask=model.integer_mask[cols],
        objective_constant=model.objective_constant + float(model.objective @ x),
    )
    return _Presolved(reduced, x, free,
                      (shape, ModelShape(rows.size, cols.size, reduced.data.size)))


def solve_lp(model: MilpModel) -> MilpSolution:
    """Solve the continuous relaxation (integer marks ignored); an optimal
    point has passed a feasibility re-check against ``model``."""
    pre = _presolve(model, np.zeros(model.num_vars, dtype=bool))
    if pre.model is None:
        sol = MilpSolution("infeasible", None, None)
    else:
        sol = _solve_node(_Tableau(pre.model, pre.model.lower, pre.model.upper))
    return pre.postsolve(model, sol, FEASIBILITY_TOL)


def _integer_row_infeasible(model: MilpModel) -> bool:
    """True when some ``==`` row has integer coefficients on integer variables
    only and a rhs that is no integer multiple of their gcd."""
    ri, cj, av = model.row_ids(), model.indices, model.data
    counts = np.diff(model.indptr)
    bad = ~model.integer_mask[cj] | (av != np.round(av)) | (np.abs(av) > 2.0 ** 53)
    ok = ((np.asarray(model.relations) == "==") & (counts > 0)
          & (np.bincount(ri, bad, minlength=counts.size) == 0))
    if not ok.any():
        return False
    rows = np.flatnonzero(ok)
    # The nonzeros of the rows kept, one segment per row, in row order.
    g = np.gcd.reduceat(np.abs(av[ok[ri]]).astype(np.int64),
                        np.cumsum(counts[rows]) - counts[rows])
    b = model.rhs[rows]
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


def _branch_column(x: np.ndarray, cands: np.ndarray) -> int:
    """The first of the increasing ``cands`` whose fractional part is within
    1e-9 of the least distance to 0.5, so last-bit rounding cannot move it."""
    dist = np.abs((x[cands] - np.floor(x[cands])) - 0.5)
    return int(cands[np.flatnonzero(dist <= dist.min() + 1e-9)[0]])


def _branch_and_bound(model: MilpModel, node_limit: int) -> MilpSolution:
    """Depth-first branch-and-bound from ``model``'s own bounds.

    Each stack entry keeps its parent's final basis: the child popped right
    after its parent continues on the live tableau, any other child
    rebuilds its tableau from the kept basis.
    """
    int_idx = np.flatnonzero(model.integer_mask)
    c = model.objective
    best_x, best_obj = None, np.inf
    nodes = pivots = 0
    tab = live = None
    stack = [(model.lower, model.upper, None)]
    while stack:
        if nodes >= node_limit:
            obj = best_obj if best_x is not None else None
            return MilpSolution("node_limit", best_x, obj, nodes, pivots=pivots)
        lo, hi, start = stack.pop()
        if live is not None and start is live:
            tab.set_bounds(lo, hi)
        else:
            tab = None  # freed before its successor is built
            tab = _Tableau(model, lo, hi, start)
        live = None
        sol = _solve_node(tab)
        nodes += 1
        pivots += sol.pivots
        if sol.status == "infeasible" or sol.objective_value >= best_obj - PRUNE_TOL:
            continue
        x = sol.x
        frac = np.abs(x[int_idx] - np.round(x[int_idx]))
        if frac.max(initial=0.0) <= INTEGRALITY_TOL:
            x_r = x.copy()
            x_r[int_idx] = np.round(x_r[int_idx])
            if feasibility_violation(model, x_r) <= 1e-7:
                obj = float(c @ x_r) + model.objective_constant
                if obj < best_obj:
                    best_obj, best_x = obj, x_r
                continue
            j = int(int_idx[np.argmax(frac)])
        else:
            j = _branch_column(x, int_idx[frac > INTEGRALITY_TOL])
        near = int(round(float(np.clip(x[j], 0.0, 1.0))))
        live = tab.start()
        for val in (1 - near, near):  # LIFO: nearest branch explored first
            lo_c, hi_c = lo.copy(), hi.copy()
            lo_c[j] = hi_c[j] = float(val)
            stack.append((lo_c, hi_c, live))
    if best_x is None:
        return MilpSolution("infeasible", None, None, nodes, pivots=pivots)
    return MilpSolution("optimal", best_x, best_obj, nodes, pivots=pivots)
