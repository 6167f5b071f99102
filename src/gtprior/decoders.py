"""Decoding rules for group tests with (or without) an Ising prior.

Families:

* ``sparsity`` -- minimize the number of defectives consistent with the
  outcomes (plus a weighted flip count when noisy); the classic (I)LP
  decoder that ignores graph structure.
* ``ising_map`` -- exact MAP under the Ising prior, written as an integer
  linear program by linearizing each product u_j*u_j' with an auxiliary
  edge variable w.  Only the McCormick rows its cost can make bind are
  kept: u_j >= w and u_j' >= w for an attractive edge (lambda > 0, so w
  wants to be large), u_j + u_j' - w <= 1 for a repulsive one (lambda < 0),
  and none for lambda = 0.

Either family can be relaxed to a box-constrained LP and rounded (ties at
0.5 round to 1, the defective side).  A brute-force MAP oracle and the
information-theoretic threshold decoder complete the set.

Noisy constraint detail: for a negative test the flip indicator is encoded
as sum_j X_ij u_j <= (test size) * xi_i with xi_i binary, so that xi_i = 1
exactly when the noiseless outcome would have been positive.  An equality
encoding (sum = xi_i) would additionally forbid two defectives from sharing
a negative test, breaking exact MAP equivalence.

Model layout: variables are u (n), then one w per edge (ising_map), then
xi (t, noisy only); rows are the t outcome rows in test order, then each
edge's two, one or no rows in edge order.  One builder,
:func:`build_model`, derives either family's model from its
:class:`DecoderSpec`: it emits the constraint nonzeros as (row, column,
value) triplets, one block per kind (the design's nonzeros, the xi
diagonal, the McCormick rows of each edge sign), and the model keeps them
as CSR arrays, so no dense matrix is ever allocated; :func:`decoder_spec`
derives the noise model and the default flip penalty eta from the noise
level.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .core import DefectiveSet, DefectivityVector, approx_distance
from .milp import MilpModel, ModelShape, csr_arrays, solve_ilp, solve_lp
from .prior import (_CHUNK_BITS, _ENUM_LIMIT, IsingPrior, _config_chunk,
                    log_unnormalized_prob_many)
from .testing import NoiseSpec, OutcomeVector, TestDesign


class ModelViolationError(ValueError):
    """An observed outcome has probability zero under the assumed model."""


def map_flip_penalty(rho: float) -> float:
    """MAP flip-penalty weight log((1-rho)/rho) for symmetric noise."""
    if not (0.0 < rho < 0.5):
        raise ValueError("rho must lie in (0, 0.5)")
    return math.log((1.0 - rho) / rho)


def sparsity_flip_penalty(rho: float, q: float) -> float:
    """Sparsity-decoder flip weight log((1-rho)/rho) / log((1-q)/q)."""
    if not (0.0 < q < 0.5):
        raise ValueError("defectivity probability q must lie in (0, 0.5)")
    return map_flip_penalty(rho) / math.log((1.0 - q) / q)


@dataclass(frozen=True)
class DecoderSpec:
    """Which decoding rule to run and with what parameters."""

    family: str  # "sparsity" | "ising_map"
    relaxed: bool = False
    noise: NoiseSpec = NoiseSpec()
    eta: Optional[float] = None
    prior: Optional[IsingPrior] = None

    def __post_init__(self):
        if self.family not in ("sparsity", "ising_map"):
            raise ValueError(f"unknown decoder family {self.family!r}")
        if self.family == "ising_map" and self.prior is None:
            raise ValueError("ising_map decoding requires a prior")
        if self.noise.is_noisy:
            if self.eta is None or not math.isfinite(self.eta) or self.eta <= 0:
                raise ValueError("noisy decoding requires a finite eta > 0")


def decoder_spec(family: str, relaxed: bool, rho: float, eta: Optional[float],
                 prior: Optional[IsingPrior],
                 q: Optional[float] = None) -> DecoderSpec:
    """The spec for decoding outcomes of symmetric noise level ``rho``.

    A noisy decode without an explicit ``eta`` gets the MAP flip penalty
    (ising_map) or the sparsity flip weight for the truth's defectivity
    rate ``q`` (sparsity; without a ``q`` in (0, 0.5) there is no default
    and this raises ValueError).  ``prior`` is kept for ising_map only.
    """
    noise = NoiseSpec.at(rho)
    if noise.is_noisy and eta is None:
        if family == "ising_map":
            eta = map_flip_penalty(rho)
        elif q is None or not (0.0 < q < 0.5):
            raise ValueError(
                f"noisy sparsity decoding needs eta: it has no default without "
                f"a truth defectivity rate k/n in (0, 0.5) (got {q})")
        else:
            eta = sparsity_flip_penalty(rho, q)
    return DecoderSpec(family=family, relaxed=relaxed, noise=noise, eta=eta,
                       prior=prior if family == "ising_map" else None)


@dataclass(frozen=True)
class CandidateFamily:
    """An explicit family of same-size candidate defective sets."""

    sets: tuple
    k: int

    def __post_init__(self):
        sets = tuple(self.sets)
        if not sets:
            raise ValueError("family must be non-empty")
        if any(s.k != self.k for s in sets):
            raise ValueError("all family members must have the common size k")
        if len({s.members for s in sets}) != len(sets):
            raise ValueError("family members must be distinct")
        if len({s.n for s in sets}) != 1:
            raise ValueError("family members must share the ambient n")
        object.__setattr__(self, "sets", sets)

    @property
    def n(self) -> int:
        return self.sets[0].n

    @classmethod
    def from_members(cls, members: Sequence[Sequence[int]], n: int) -> "CandidateFamily":
        sets = tuple(DefectiveSet(tuple(m), n) for m in members)
        return cls(sets, sets[0].k)

    def beta(self) -> float:
        """log2|S| / (k log2(n/k)), the prior-information exponent."""
        return math.log2(len(self.sets)) / (self.k * math.log2(self.n / self.k))


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of a decode: the estimate (None on failure), the model
    objective at the optimum, and solve diagnostics, among them the model's
    shape as built and after the solver's presolve and the dual simplex
    iterations over every LP solved."""

    estimate: Optional[DefectivityVector]
    objective_value: Optional[float]
    solver_status: str
    nodes: int
    wall_time: float
    spec: DecoderSpec
    model_shape: Optional[ModelShape] = None
    presolved_shape: Optional[ModelShape] = None
    pivots: int = 0

    @property
    def failed(self) -> bool:
        return self.estimate is None

    def to_json_dict(self) -> dict:
        return {
            "estimate": None if self.estimate is None else self.estimate.to_string(),
            "objective_value": self.objective_value,
            "solver_status": self.solver_status,
            "nodes": self.nodes,
            "wall_time": self.wall_time,
            "model_shape": self.model_shape and asdict(self.model_shape),
            "presolved_shape": self.presolved_shape and asdict(self.presolved_shape),
            "pivots": self.pivots,
            "decoder": {
                "family": self.spec.family,
                "relaxed": self.spec.relaxed,
                "noise": {"kind": self.spec.noise.kind, "rho": self.spec.noise.rho},
                "eta": self.spec.eta,
            },
        }


def ising_objective_offset(prior: IsingPrior) -> float:
    """Constant separating the linearized objective from the quadratic one:
    linear(u, w=u_j*u_j') == quadratic(u) + offset for every binary u."""
    return float(prior.lam.sum() + prior.phi.sum())


def round_relaxed(values: np.ndarray) -> tuple:
    """Round each coordinate to the nearer of {0, 1}; ties at 0.5 go to 1."""
    return tuple(int(v) for v in (np.asarray(values, dtype=float) >= 0.5))


def build_model(spec: DecoderSpec, design: TestDesign, y: OutcomeVector) -> MilpModel:
    """The (I)LP that ``spec`` decodes outcomes ``y`` of ``design`` with.

    The objective is sum u_j for sparsity.  For ising_map it is the exact
    linearization of the Ising MAP quadratic program: at any binary point
    c.x equals the negative Ising log-probability plus
    :func:`ising_objective_offset`, which ``objective_constant`` subtracts
    back out, so reported objective values are directly the negative
    unnormalized log-posterior.  A noisy spec adds eta * sum xi_i.

    The rows are the outcome rows of C_noiseless (or of its noisy variant),
    then the linearization rows of each edge k, in edge order, for w = n + k.
    Only the McCormick rows that can bind at an optimum are emitted
    (Padberg, *The boolean quadric polytope*, 1989): ``w <= u_a`` and
    ``w <= u_b`` when w's cost is negative (lambda > 0), ``u_a + u_b - w <=
    1`` when it is positive (lambda < 0), and no row when it is 0.  Moving
    w alone toward the bound its cost picks never raises the objective and
    ends on a point that meets the dropped rows too (w = u_a * u_b at
    binary u), so the ILP and its LP relaxation keep their optimal values.
    """
    prior, ising, noisy = spec.prior, spec.family == "ising_map", spec.noise.is_noisy
    if ising and prior.n != design.n:
        raise ValueError("prior and design disagree on the item count")
    if design.t != y.t:
        raise ValueError("design and outcomes disagree on the test count")
    edges = np.array(prior.graph.edges if ising else (), dtype=np.intp).reshape(-1, 2)
    n, t, ne = design.n, design.t, edges.shape[0]
    xi = n + ne  # the first xi column
    nv = xi + t if noisy else xi
    c = np.zeros(nv)
    if ising:
        c[:n] = 2.0 * prior.phi
        # np.add.at is unbuffered: a shared endpoint adds its edges' terms in
        # edge order, so the rounding is fixed.
        np.add.at(c, edges.ravel(), np.repeat(2.0 * prior.lam, 2))
        c[n:xi] = -4.0 * prior.lam
        objective_constant = -ising_objective_offset(prior)
    else:
        c[:n] = 1.0
        objective_constant = 0.0
    if noisy:
        c[xi:] = spec.eta

    neg = y.to_numpy() == 0
    cw = c[n:xi]
    per_edge = 2 * (cw < 0) + (cw > 0)
    first = t + np.cumsum(per_edge) - per_edge
    nr = t + int(per_edge.sum())
    rels = np.full(nr, "<=")
    rels[:t] = np.where(neg, "<=" if noisy else "==", ">=")
    rhs = np.zeros(nr)
    rhs[:t] = ~neg
    # (row, column, value) triplets, one block per kind of nonzero.
    ti, tj = np.nonzero(design.matrix)
    rows, cols, vals = [ti], [tj], [design.matrix[ti, tj].astype(float)]
    if noisy:
        tests = np.arange(t)
        rows.append(tests)
        cols.append(xi + tests)
        vals.append(np.where(neg, -np.bincount(ti, vals[0], minlength=t), 1.0))
    k = np.flatnonzero(per_edge == 2)
    r, w = first[k], n + k
    rows += [r, r, r + 1, r + 1]
    cols += [w, edges[k, 0], w, edges[k, 1]]
    vals += [np.full(k.size, v) for v in (1.0, -1.0, 1.0, -1.0)]
    k = np.flatnonzero(per_edge == 1)
    r = first[k]
    rows += [r, r, r]
    cols += [edges[k, 0], edges[k, 1], n + k]
    vals += [np.full(k.size, v) for v in (1.0, 1.0, -1.0)]
    rhs[r] = 1.0
    indptr, indices, data = csr_arrays(np.concatenate(rows), np.concatenate(cols),
                                       np.concatenate(vals), nr)
    return MilpModel(
        objective=c,
        lower=np.zeros(nv),
        upper=np.ones(nv),
        indptr=indptr,
        indices=indices,
        data=data,
        relations=tuple(rels.tolist()),
        rhs=rhs,
        integer_mask=np.full(nv, not spec.relaxed),
        objective_constant=objective_constant,
    )


def decode(spec: DecoderSpec, design: TestDesign, y: OutcomeVector) -> DecodeResult:
    """Build the model for ``spec``, solve it, and round if relaxed.

    Auxiliary variables (edge products, flip indicators) are discarded.
    An infeasible model (possible in noiseless mode only under model
    mismatch) yields an explicit failure result, not an estimate.
    """
    model = build_model(spec, design, y)
    start = time.perf_counter()
    if spec.relaxed:
        sol = solve_lp(model)
    else:
        sol = solve_ilp(model)
    wall = time.perf_counter() - start
    estimate = None if sol.x is None else DefectivityVector(round_relaxed(sol.x[:design.n]))
    return DecodeResult(estimate, sol.objective_value, sol.status, sol.nodes_explored,
                        wall, spec, sol.model_shape, sol.presolved_shape, sol.pivots)


def map_score(prior: IsingPrior, u: DefectivityVector, design: TestDesign,
              y: OutcomeVector, noise: NoiseSpec) -> float:
    """Unnormalized log-posterior score maximized by the MAP decoder.

    Noiseless: log prior when u is outcome-consistent, else -inf.
    Noisy: log prior + (#flips) * log(rho / (1-rho)).
    """
    if u.n != prior.n:
        raise ValueError(f"dimension mismatch: u.n={u.n}, prior n={prior.n}")
    if design.n != u.n:
        raise ValueError(f"dimension mismatch: design n={design.n}, u.n={u.n}")
    return float(_posterior_scores(prior, u.to_numpy()[None], design, y, noise)[0])


def _posterior_scores(prior: IsingPrior, configs: np.ndarray, design: TestDesign,
                      y: OutcomeVector, noise: NoiseSpec) -> np.ndarray:
    """:func:`map_score` of each row of a ``(configs, n)`` 0/1 array."""
    scores = log_unnormalized_prob_many(prior, configs)
    clean = configs.astype(np.int64) @ design.matrix.astype(np.int64).T >= 1
    mismatch = clean != y.to_numpy()
    if noise.is_noisy:
        return scores + math.log(noise.rho / (1.0 - noise.rho)) * mismatch.sum(axis=1)
    return np.where(mismatch.any(axis=1), -np.inf, scores)


def brute_force_map(design: TestDesign, y: OutcomeVector, prior: IsingPrior,
                    noise: NoiseSpec) -> Optional[DefectivityVector]:
    """Exhaustive MAP decoder over all 2^n vectors (n <= 20).

    Ties break to the lexicographically smallest vector.  In the noiseless
    case with no outcome-consistent vector the decode fails (None).
    """
    n = design.n
    if n > _ENUM_LIMIT:
        raise ValueError(f"brute_force_map needs n <= {_ENUM_LIMIT}, got {n}")
    if prior.n != n:
        raise ValueError("prior and design disagree on the item count")
    best_score = -math.inf
    best_bits = None
    chunk = 1 << min(n, _CHUNK_BITS)
    for start in range(0, 1 << n, chunk):
        configs = _config_chunk(n, start, min(start + chunk, 1 << n))
        scores = _posterior_scores(prior, configs, design, y, noise)
        i = int(np.argmax(scores))
        if scores[i] > best_score:
            best_score = float(scores[i])
            best_bits = tuple(int(v) for v in configs[i])
    if best_score == -math.inf:
        return None
    return DefectivityVector(best_bits)


def info_density(design: TestDesign, y: OutcomeVector, s_dif: DefectiveSet,
                 s_eq: DefectiveSet, p: float) -> float:
    """Noiseless information density of the outcomes for a candidate
    partition, summed over tests (bits).

    The numerator conditions on the realized columns of s_dif and s_eq; the
    denominator marginalizes s_dif over fresh Bernoulli(p) inclusions:
    P(Y=1 | x_seq) = 1 if the test hits s_eq, else 1 - (1-p)^|s_dif|.
    """
    if set(s_dif.members) & set(s_eq.members):
        raise ValueError("s_dif and s_eq must be disjoint")
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie in (0, 1)")
    x = design.matrix
    y_arr = y.to_numpy().astype(bool)
    hit_dif = x[:, list(s_dif.members)].any(axis=1)
    hit_eq = x[:, list(s_eq.members)].any(axis=1)
    if ((hit_dif | hit_eq) != y_arr).any():
        raise ModelViolationError("observed outcome has zero probability under "
                                  "the noiseless model for this candidate")
    return _density_sum(y_arr, hit_eq, s_dif.k, p)


def _density_sum(y_arr, hit_eq, tau, p):
    """Sum of per-test densities given consistency (numerator = 1)."""
    q = (1.0 - p) ** tau
    free = ~hit_eq  # tests hitting s_eq contribute exactly 0
    pos = int((free & y_arr).sum())
    neg = int((free & ~y_arr).sum())
    total = 0.0
    if pos:
        total += pos * (-math.log2(1.0 - q))
    if neg:
        total += neg * (-math.log2(q))
    return total


def n_tau_counts(family: CandidateFamily) -> np.ndarray:
    """N_tau for tau = 0..k: the worst-case number of family members at each
    distance from some member (pairwise distances over the explicit family)."""
    k = family.k
    counts = np.zeros((len(family.sets), k + 1), dtype=np.int64)
    for i, si in enumerate(family.sets):
        for sj in family.sets:
            counts[i, approx_distance(si, sj)] += 1
    return counts.max(axis=0)


def n_tilde_max(family: CandidateFamily, d_max: int) -> int:
    """max over all size-k sets S of |{S' in family : d(S, S') <= d_max}|
    (the unconstrained-decoder variant; enumerates all k-subsets, small n only)."""
    n, k = family.n, family.k
    if math.comb(n, k) > 2_000_000:
        raise ValueError("n_tilde_max enumeration budget exceeded")
    members = [set(s.members) for s in family.sets]
    best = 0
    for combo in combinations(range(n), k):
        s = set(combo)
        near = sum(1 for sp in members
                   if max(len(s - sp), len(sp - s)) <= d_max)
        best = max(best, near)
    return best


def threshold_decode(family: CandidateFamily, design: TestDesign,
                     y: OutcomeVector, d_max: int, delta: float = 0.01,
                     p: Optional[float] = None) -> Optional[DefectiveSet]:
    """Information-theoretic threshold decoder (noiseless, explicit family).

    A candidate s is accepted when, for every partition (s_dif, s_eq) of s
    with |s_dif| > d_max, the summed information density reaches the
    threshold gamma_tau = log2(k * N_tau / delta), tau = |s_dif| (the
    threshold is vacuous when N_tau = 0).  Returns the unique accepted
    candidate; zero or several accepted candidates is a declared decoding
    error, reported as None.
    """
    k = family.k
    if k > 12 or len(family.sets) > 200:
        raise ValueError("threshold_decode is limited to k <= 12 and |family| <= 200")
    if family.n != design.n:
        raise ValueError("family and design disagree on the item count")
    if p is None:
        p = design.bernoulli_p
    if p is None or not (0.0 < p < 1.0):
        raise ValueError("threshold_decode needs the design's Bernoulli parameter")
    if delta <= 0:
        raise ValueError("delta must be positive")
    n_tau = n_tau_counts(family)
    gammas = {}
    for tau in range(d_max + 1, k + 1):
        gammas[tau] = (math.log2(k * int(n_tau[tau]) / delta)
                       if n_tau[tau] > 0 else -math.inf)
    x = design.matrix
    y_arr = y.to_numpy().astype(bool)
    satisfiers = []
    for s in family.sets:
        inc = x[:, list(s.members)].astype(bool)  # (t, k) membership hits
        consistent = bool((inc.any(axis=1) == y_arr).all())
        accepted = True
        for tau in range(d_max + 1, k + 1):
            gamma = gammas[tau]
            for dif_pos in combinations(range(k), tau):
                if not consistent:
                    density = -math.inf
                else:
                    eq_pos = [i for i in range(k) if i not in dif_pos]
                    hit_eq = inc[:, eq_pos].any(axis=1)
                    density = _density_sum(y_arr, hit_eq, tau, p)
                if not density >= gamma:
                    accepted = False
                    break
            if not accepted:
                break
        if accepted:
            satisfiers.append(s)
    if len(satisfiers) == 1:
        return satisfiers[0]
    return None
