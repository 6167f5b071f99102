"""Decoding rules for group tests with (or without) an Ising prior.

Families:

* ``sparsity`` -- minimize the number of defectives consistent with the
  outcomes (plus a weighted flip count when noisy); the classic (I)LP
  decoder that ignores graph structure.
* ``ising_map`` -- exact MAP under the Ising prior, written as an integer
  linear program by linearizing each product u_j*u_j' with an auxiliary
  edge variable constrained by u_j >= w, u_j' >= w, u_j + u_j' - w <= 1.

Either family can be relaxed to a box-constrained LP and rounded (ties at
0.5 round to 1, the defective side).  A brute-force MAP oracle and the
information-theoretic threshold decoder complete the set.

Noisy constraint detail: for a negative test the flip indicator is encoded
as sum_j X_ij u_j <= (test size) * xi_i with xi_i binary, so that xi_i = 1
exactly when the noiseless outcome would have been positive.  An equality
encoding (sum = xi_i) would additionally forbid two defectives from sharing
a negative test, breaking exact MAP equivalence.

Model layout: variables are u (n), then one w per edge (ising_map), then
xi (t, noisy only); rows are the t outcome rows in test order, then three
rows per edge.  Both builders fill one preallocated dense matrix by block
and index writes; :func:`decoder_spec` derives the noise model and the
default flip penalty eta from the noise level.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .core import DefectiveSet, DefectivityVector, approx_distance
from .milp import MilpModel, ModelShape, solve_ilp, solve_lp
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
    noise = NoiseSpec("symmetric", rho) if rho > 0 else NoiseSpec()
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
    shape as built and after the solver's presolve."""

    estimate: Optional[DefectivityVector]
    objective_value: Optional[float]
    solver_status: str
    nodes: int
    wall_time: float
    spec: DecoderSpec
    model_shape: Optional[ModelShape] = None
    presolved_shape: Optional[ModelShape] = None

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
            "decoder": {
                "family": self.spec.family,
                "relaxed": self.spec.relaxed,
                "noise": {"kind": self.spec.noise.kind, "rho": self.spec.noise.rho},
                "eta": self.spec.eta,
            },
        }


def _assemble(design: TestDesign, y: OutcomeVector, c: np.ndarray,
              xi_offset: Optional[int], edges: np.ndarray, relaxed: bool,
              objective_constant: float = 0.0) -> MilpModel:
    """Binary model with objective ``c`` over the outcome rows of
    C_noiseless (xi_offset None) or the noisy variant, then the three
    linearization rows of edge k (w <= u_a, w <= u_b, u_a + u_b - w <= 1)
    at rows t+3k, t+3k+1, t+3k+2 with w = n + k."""
    n, t, nv, ne = design.n, design.t, c.shape[0], edges.shape[0]
    neg = y.to_numpy() == 0
    a = np.zeros((t + 3 * ne, nv))
    a[:t, :n] = design.matrix
    rels = np.full(t + 3 * ne, "<=")
    rels[:t] = np.where(neg, "==" if xi_offset is None else "<=", ">=")
    rhs = np.zeros(t + 3 * ne)
    rhs[:t] = ~neg
    if xi_offset is not None:
        tests = np.arange(t)
        a[tests, xi_offset + tests] = np.where(neg, -a[:t, :n].sum(axis=1), 1.0)
    r, w = t + 3 * np.arange(ne), n + np.arange(ne)
    ua, ub = edges[:, 0], edges[:, 1]
    a[r, w], a[r, ua] = 1.0, -1.0
    a[r + 1, w], a[r + 1, ub] = 1.0, -1.0
    a[r + 2, ua], a[r + 2, ub], a[r + 2, w] = 1.0, 1.0, -1.0
    rhs[r + 2] = 1.0
    return MilpModel(
        objective=c,
        lower=np.zeros(nv),
        upper=np.ones(nv),
        a_matrix=a,
        relations=tuple(rels.tolist()),
        rhs=rhs,
        integer_mask=np.full(nv, not relaxed),
        objective_constant=objective_constant,
    )


def build_sparsity_model(design: TestDesign, y: OutcomeVector, noise: NoiseSpec,
                         eta: Optional[float] = None,
                         relaxed: bool = False) -> MilpModel:
    """Model: minimize sum u_j (+ eta * sum xi_i when noisy) over the
    outcome-consistency constraints."""
    if design.t != y.t:
        raise ValueError("design and outcomes disagree on the test count")
    noisy = noise.is_noisy
    if noisy and (eta is None or eta <= 0):
        raise ValueError("noisy sparsity model requires eta > 0")
    n, t = design.n, design.t
    c = np.ones(n + t if noisy else n)
    if noisy:
        c[n:] = eta
    return _assemble(design, y, c, n if noisy else None,
                     np.zeros((0, 2), dtype=np.intp), relaxed)


def ising_objective_offset(prior: IsingPrior) -> float:
    """Constant separating the linearized objective from the quadratic one:
    linear(u, w=u_j*u_j') == quadratic(u) + offset for every binary u."""
    return float(prior.lam.sum() + prior.phi.sum())


def build_ising_linearized_model(design: TestDesign, y: OutcomeVector,
                                 prior: IsingPrior, noise: NoiseSpec,
                                 eta: Optional[float] = None,
                                 relaxed: bool = False) -> MilpModel:
    """Exact linearization of the Ising MAP integer quadratic program.

    Variables are u (n), one w per edge, and xi (t, noisy only).  At any
    binary point the objective c.x equals the negative Ising log-probability
    plus :func:`ising_objective_offset`; the model's ``objective_constant``
    subtracts that offset back out, so reported objective values are directly
    the negative unnormalized log-posterior.
    """
    if prior.n != design.n:
        raise ValueError("prior and design disagree on the item count")
    if design.t != y.t:
        raise ValueError("design and outcomes disagree on the test count")
    noisy = noise.is_noisy
    if noisy and (eta is None or eta <= 0):
        raise ValueError("noisy ising model requires eta > 0")
    n, t = design.n, design.t
    edges = np.array(prior.graph.edges, dtype=np.intp).reshape(-1, 2)
    ne = edges.shape[0]
    nv = n + ne + (t if noisy else 0)

    c = np.zeros(nv)
    c[:n] = 2.0 * prior.phi
    # np.add.at is unbuffered: a shared endpoint adds its edges' terms in
    # edge order, so the rounding is fixed.
    np.add.at(c, edges.ravel(), np.repeat(2.0 * prior.lam, 2))
    c[n:n + ne] = -4.0 * prior.lam
    if noisy:
        c[n + ne:] = eta
    return _assemble(design, y, c, n + ne if noisy else None, edges, relaxed,
                     -ising_objective_offset(prior))


def round_relaxed(values: np.ndarray) -> tuple:
    """Round each coordinate to the nearer of {0, 1}; ties at 0.5 go to 1."""
    return tuple(int(v) for v in (np.asarray(values, dtype=float) >= 0.5))


def build_model(spec: DecoderSpec, design: TestDesign, y: OutcomeVector) -> MilpModel:
    if spec.family == "sparsity":
        return build_sparsity_model(design, y, spec.noise, spec.eta, spec.relaxed)
    return build_ising_linearized_model(design, y, spec.prior, spec.noise,
                                        spec.eta, spec.relaxed)


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
                        wall, spec, sol.model_shape, sol.presolved_shape)


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
