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
from dataclasses import asdict, dataclass, field
from itertools import combinations, islice
from typing import Optional, Sequence

import numpy as np

from .core import DefectiveSet, DefectivityVector
from .milp import MilpModel, ModelShape, csr_arrays, solve_ilp, solve_lp
from .prior import IsingPrior, config_chunks, log_unnormalized_prob_many
from .testing import NoiseSpec, OutcomeVector, TestDesign


_SLICE_CELLS = 1 << 18  # the cells of one (chunk, k, |S|) overlap temporary


class ModelViolationError(ValueError):
    """An observed outcome has probability zero under the assumed model."""


def check_family(family: str) -> None:
    """Raise ValueError unless ``family`` names a decoder family."""
    if family not in ("sparsity", "ising_map"):
        raise ValueError(f"unknown decoder family {family!r}")


def check_eta(eta: Optional[float]) -> None:
    """Raise ValueError unless ``eta`` is None or a finite flip penalty > 0."""
    if eta is not None and not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be a finite flip penalty > 0, got {eta}")


def _check_sizes(name: str, n: int, design: TestDesign, y: OutcomeVector) -> None:
    """Every decoder entry point's size check: n items of ``name`` and y's tests."""
    if n != design.n:
        raise ValueError(f"{name} and design disagree on the item count")
    if y.t != design.t:
        raise ValueError("design and outcomes disagree on the test count")


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
        check_family(self.family)
        check_eta(self.eta)
        if self.family == "ising_map" and self.prior is None:
            raise ValueError("ising_map decoding requires a prior")
        if self.noise.is_noisy and self.eta is None:
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
    """An explicit family of same-size candidate defective sets and its
    read-only (|S|, n) 0/1 ``membership`` matrix, from which every family
    quantity below takes one distance, d(S, S') = k - |S & S'|."""

    sets: tuple
    membership: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sets = tuple(self.sets)
        if not sets:
            raise ValueError("family must be non-empty")
        if any(s.k != sets[0].k for s in sets):
            raise ValueError("all family members must have the common size k")
        if len({s.members for s in sets}) != len(sets):
            raise ValueError("family members must be distinct")
        if len({s.n for s in sets}) != 1:
            raise ValueError("family members must share the ambient n")
        object.__setattr__(self, "sets", sets)
        m = np.zeros((len(sets), sets[0].n), dtype=np.int64)
        np.put_along_axis(m, np.array([s.members for s in sets], dtype=np.intp), 1, axis=1)
        m.flags.writeable = False
        object.__setattr__(self, "membership", m)

    @property
    def n(self) -> int:
        return self.sets[0].n

    @property
    def k(self) -> int:
        return self.sets[0].k

    @classmethod
    def from_members(cls, members: Sequence[Sequence[int]], n: int) -> "CandidateFamily":
        return cls(tuple(DefectiveSet(tuple(m), n) for m in members))

    def beta(self) -> float:
        """log2|S| / (k log2(n/k)), the prior-information exponent."""
        return math.log2(len(self.sets)) / (self.k * math.log2(self.n / self.k))


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of a decode: the estimate (None when the solve found no
    point), the model objective at the optimum, and solve diagnostics, among
    them the model's shape as built and after the solver's presolve and the
    dual simplex iterations over every LP solved."""

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
        """True unless the solve was optimal, even if it kept an incumbent."""
        return self.solver_status != "optimal"

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
    _check_sizes("prior", prior.n if ising else design.n, design, y)
    edges = np.array(prior.graph.edges if ising else (), dtype=np.intp).reshape(-1, 2)
    n, t, ne = design.n, design.t, edges.shape[0]
    xi = n + ne  # the first xi column
    nv = xi + t if noisy else xi
    c = np.zeros(nv)
    if ising:
        with np.errstate(over="ignore", invalid="ignore"):
            c[:n] = 2.0 * prior.phi
            # np.add.at is unbuffered: a shared endpoint adds its edges' terms
            # in edge order, so the rounding is fixed.
            np.add.at(c, edges.ravel(), np.repeat(2.0 * prior.lam, 2))
            c[n:xi] = -4.0 * prior.lam
            objective_constant = -ising_objective_offset(prior)
        if not (np.isfinite(c).all() and np.isfinite(objective_constant)):
            raise ValueError("lam and phi are too large: the ising_map objective "
                             "overflows")
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
    _check_sizes("prior", prior.n, design, y)
    _check_sizes("u", u.n, design, y)
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
    chunks = config_chunks(design.n, "brute_force_map")
    _check_sizes("prior", prior.n, design, y)
    best_score, best_bits = -math.inf, None
    for configs in chunks:
        scores = _posterior_scores(prior, configs, design, y, noise)
        i = int(np.argmax(scores))
        if scores[i] > best_score:
            best_score = float(scores[i])
            best_bits = tuple(int(v) for v in configs[i])
    return None if best_bits is None else DefectivityVector(best_bits)


def info_density(design: TestDesign, y: OutcomeVector, s_dif: DefectiveSet,
                 s_eq: DefectiveSet, p: float) -> float:
    """Noiseless information density of the outcomes for a candidate
    partition, summed over tests (bits).

    The numerator conditions on the realized columns of s_dif and s_eq; the
    denominator marginalizes s_dif over fresh Bernoulli(p) inclusions:
    P(Y=1 | x_seq) = 1 if the test hits s_eq, else 1 - (1-p)^|s_dif|.
    """
    _check_sizes("s_dif", s_dif.n, design, y)
    _check_sizes("s_eq", s_eq.n, design, y)
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
    free = ~hit_eq  # tests hitting s_eq contribute exactly 0
    return _density(int((free & y_arr).sum()), int((free & ~y_arr).sum()), s_dif.k, p)


def _density(pos: int, neg: int, tau: int, p: float) -> float:
    """The summed density of an outcome-consistent candidate (numerator 1)
    whose s_eq misses ``pos`` positive and ``neg`` negative tests, with
    |s_dif| = tau; it grows with ``pos``."""
    q = (1.0 - p) ** tau
    total = 0.0
    if pos:
        total += pos * (-math.log2(1.0 - q))
    if neg:
        total += neg * (-math.log2(q))
    return total


def _distance_chunks(family: CandidateFamily, subsets):
    """d(S, S') from each size-k index tuple S in ``subsets`` to every family
    member S', in (chunk, |S|) blocks whose (chunk, k, |S|) temporary has at
    most ``_SLICE_CELLS`` cells (or one row)."""
    m, k = family.membership, family.k
    step = max(1, _SLICE_CELLS // (max(k, 1) * len(m)))
    subsets = iter(subsets)
    while chunk := list(islice(subsets, step)):
        yield k - m.T[np.array(chunk, dtype=np.intp)].sum(axis=1)


def n_tau_counts(family: CandidateFamily) -> np.ndarray:
    """N_tau for tau = 0..k: the worst-case number of family members at each
    distance from some member (pairwise distances over the explicit family)."""
    counts = np.zeros(family.k + 1, dtype=np.int64)
    for d in _distance_chunks(family, (s.members for s in family.sets)):
        at = (d[:, :, None] == np.arange(family.k + 1)).sum(axis=1)  # (chunk, k + 1)
        counts = np.maximum(counts, at.max(axis=0))
    return counts


def n_tilde_max(family: CandidateFamily, d_max: int) -> int:
    """max over all size-k sets S of |{S' in family : d(S, S') <= d_max}|
    (the unconstrained-decoder variant; enumerates all k-subsets, small n only)."""
    n, k = family.n, family.k
    if math.comb(n, k) > 2_000_000:
        raise ValueError("n_tilde_max enumeration budget exceeded")
    return max(int((d <= d_max).sum(axis=1).max())
               for d in _distance_chunks(family, combinations(range(n), k)))


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
    _check_sizes("family", family.n, design, y)
    p = design.bernoulli_p if p is None else p
    if p is None or not (0.0 < p < 1.0):
        raise ValueError("threshold_decode needs the design's Bernoulli parameter")
    if delta <= 0:
        raise ValueError("delta must be positive")
    gammas = {tau: math.log2(k * int(count) / delta) if count > 0 else -math.inf
              for tau, count in enumerate(n_tau_counts(family)) if tau > d_max}
    m, y_arr = family.membership, y.to_numpy().astype(bool)
    inc = design.matrix[:, np.nonzero(m)[1].reshape(len(m), k)]  # (t, |S|, k) hits
    consistent = (inc.any(axis=2) == y_arr[:, None]).all(axis=0)
    # A consistent candidate's density grows with the positive tests its s_eq
    # misses (negative tests miss all of s), so each tau needs only the s_eq
    # of size k - tau that misses fewest; an inconsistent one's is -inf.
    # missed[s, c]: the positive tests hitting no member of s outside bitmask
    # c, i.e. missed by s_eq = s minus c.  Each test is counted at the bitmask
    # of the members it hits, and each c sums the counts of its submasks.
    hits = inc[y_arr] @ (1 << np.arange(k)) + (np.arange(len(m)) << k)
    missed = np.bincount(hits.ravel(), minlength=len(m) << k).reshape(len(m), -1)
    for j in range(k):
        half = missed.reshape(len(m), -1, 2, 1 << j)
        half[:, :, 1] += half[:, :, 0]
    dif_size = (np.arange(1 << k)[:, None] >> np.arange(k) & 1).sum(axis=1)
    least = {tau: missed[:, dif_size == tau].min(axis=1) for tau in gammas}
    neg = int((~y_arr).sum())
    accepted = [s for i, s in enumerate(family.sets) if all(
        (_density(int(least[tau][i]), neg, tau, p) if consistent[i] else -math.inf) >= gamma
        for tau, gamma in gammas.items())]
    return accepted[0] if len(accepted) == 1 else None
