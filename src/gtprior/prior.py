"""Ising-model priors over item graphs.

Construction helpers (grid, block, edge list, perturbation), the
unnormalized log-probability, systematic-scan Gibbs sampling, and exact
marginals by full enumeration for small n.

The model over u in {0,1}^n, written via s = 2u - 1 in {-1,+1}^n, is

    P(u) proportional to exp( sum_edges lam_e * s_j * s_j'  -  sum_j phi_j * s_j )

so a common phi > 0 favors sparse (mostly 0) vectors and a common lam > 0
favors agreement across edges.  Negative edge strengths are allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DefectivityVector
from .rng import generator

_ENUM_LIMIT = 20  # full-enumeration budget for exact_marginals / brute force
_CHUNK_BITS = 16


@dataclass(frozen=True)
class ItemGraph:
    """Undirected simple graph on n vertices; each edge stored once as (lo, hi)."""

    n: int
    edges: tuple

    def __post_init__(self):
        canon = []
        for e in self.edges:
            j, jp = int(e[0]), int(e[1])
            if j == jp:
                raise ValueError(f"self-loop at vertex {j}")
            if not (0 <= j < self.n and 0 <= jp < self.n):
                raise ValueError(f"edge ({j},{jp}) out of range for n={self.n}")
            canon.append((min(j, jp), max(j, jp)))
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbor_lists(self):
        """Per-vertex list of (neighbor, edge index) pairs."""
        nbrs = [[] for _ in range(self.n)]
        for idx, (j, jp) in enumerate(self.edges):
            nbrs[j].append((jp, idx))
            nbrs[jp].append((j, idx))
        return nbrs


@dataclass(frozen=True)
class IsingPrior:
    """Ising prior: graph plus per-edge strengths and per-vertex fields."""

    graph: ItemGraph
    lam: np.ndarray  # length |edges|
    phi: np.ndarray  # length n

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float).reshape(-1)
        phi = np.asarray(self.phi, dtype=float).reshape(-1)
        if lam.shape[0] != self.graph.num_edges:
            raise ValueError("lam length must equal the edge count")
        if phi.shape[0] != self.graph.n:
            raise ValueError("phi length must equal the vertex count")
        if not (np.isfinite(lam).all() and np.isfinite(phi).all()):
            raise ValueError("lam and phi must be finite")
        lam.flags.writeable = False
        phi.flags.writeable = False
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "phi", phi)

    @classmethod
    def uniform(cls, graph: ItemGraph, lam: float, phi: float) -> "IsingPrior":
        """Common edge strength and common field for every vertex."""
        return cls(graph, np.full(graph.num_edges, float(lam)),
                   np.full(graph.n, float(phi)))

    @property
    def n(self) -> int:
        return self.graph.n


def log_unnormalized_prob(prior: IsingPrior, u: DefectivityVector) -> float:
    """log P(u) + log Z for the Ising prior."""
    if u.n != prior.n:
        raise ValueError(f"dimension mismatch: u.n={u.n}, prior n={prior.n}")
    return float(log_unnormalized_prob_many(prior, u.to_numpy()[None])[0])


def _config_chunk(n: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the lexicographic enumeration of {0,1}^n.

    Row v has bit j equal to bit (n-1-j) of v, so increasing v walks the
    tuples (u_0, ..., u_{n-1}) in lexicographic order.
    """
    vals = np.arange(start, stop, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((vals[:, None] >> shifts[None, :]) & 1).astype(np.int8)


def log_unnormalized_prob_many(prior: IsingPrior, configs: np.ndarray) -> np.ndarray:
    """Vectorized log_unnormalized_prob over the rows of a 0/1 matrix."""
    s = 2.0 * np.asarray(configs).astype(float) - 1.0
    out = -(s @ prior.phi)
    if prior.graph.num_edges:
        ej = np.array([e[0] for e in prior.graph.edges])
        ek = np.array([e[1] for e in prior.graph.edges])
        out += (s[:, ej] * s[:, ek]) @ prior.lam
    return out


def exact_marginals(prior: IsingPrior) -> np.ndarray:
    """P(u_j = 1) for every vertex, by full enumeration (n <= 20 only)."""
    n = prior.n
    if n > _ENUM_LIMIT:
        raise ValueError(f"exact_marginals needs n <= {_ENUM_LIMIT}, got {n}")
    log_z = -np.inf
    log_m = np.full(n, -np.inf)
    chunk = 1 << min(n, _CHUNK_BITS)
    for start in range(0, 1 << n, chunk):
        configs = _config_chunk(n, start, min(start + chunk, 1 << n))
        lw = log_unnormalized_prob_many(prior, configs)
        top = lw.max()
        log_z = np.logaddexp(log_z, top + math.log(np.exp(lw - top).sum()))
        for j in range(n):
            mask = configs[:, j] == 1
            if mask.any():
                block = lw[mask]
                bt = block.max()
                log_m[j] = np.logaddexp(log_m[j], bt + math.log(np.exp(block - bt).sum()))
    return np.exp(log_m - log_z)


def gibbs_sample(prior: IsingPrior, sweeps: int, seed: int) -> DefectivityVector:
    """Systematic-scan Gibbs sampling, deterministic given (prior, sweeps, seed).

    The chain starts uniform over {0,1}^n (n uniform draws), then each sweep
    visits sites 0..n-1 in order, consuming one uniform draw per site
    (drawn per sweep as a block of n).  The conditional at site j is
    P(u_j = 1 | rest) = 1 / (1 + exp(-2 h_j)) with local field
    h_j = sum_{j' ~ j} lam_{jj'} s_{j'} - phi_j.
    """
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    n = prior.n
    gen = generator(seed)
    s = np.where(gen.random(n) < 0.5, -1.0, 1.0)
    nbrs = prior.graph.neighbor_lists()
    nbr_idx = [np.array([p[0] for p in lst], dtype=np.intp) for lst in nbrs]
    nbr_lam = [np.array([prior.lam[p[1]] for p in lst]) for lst in nbrs]
    phi = prior.phi
    for _ in range(sweeps):
        draws = gen.random(n)
        for j in range(n):
            h = float(nbr_lam[j] @ s[nbr_idx[j]]) - phi[j] if len(nbr_idx[j]) \
                else -phi[j]
            try:
                p1 = 1.0 / (1.0 + math.exp(-2.0 * h))
            except OverflowError:  # h < ~-355: exactly IEEE 1 / (1 + inf)
                p1 = 0.0
            assert 0.0 <= p1 <= 1.0  # conditional probabilities sum to 1
            s[j] = 1.0 if draws[j] < p1 else -1.0
    return DefectivityVector.from_array(((s > 0).astype(int)))


def gibbs_sample_ensemble(prior: IsingPrior, sweeps: int, num_chains: int,
                          seed: int) -> np.ndarray:
    """Final states of ``num_chains`` independent Gibbs chains, shape (chains, n).

    All chains share one PCG64 stream (one block of uniforms per sweep), which
    makes the ensemble deterministic given (prior, sweeps, num_chains, seed)
    and keeps large ensembles fast; chains are mutually independent but do not
    bitwise-match single-chain :func:`gibbs_sample` runs.
    """
    states, _ = _gibbs_ensemble(prior, sweeps, num_chains, seed, burn_in=None)
    return states


def gibbs_marginal_estimate(prior: IsingPrior, sweeps: int, num_chains: int,
                            seed: int, burn_in: Optional[int] = None) -> np.ndarray:
    """Empirical P(u_j = 1) from an ensemble run, time-averaged after burn-in.

    ``burn_in`` defaults to half the sweeps.  Averaging the post-burn-in
    states of every chain gives a far lower-variance estimate than final
    states alone.
    """
    if burn_in is None:
        burn_in = sweeps // 2
    if not (0 <= burn_in < sweeps):
        raise ValueError("burn_in must lie in [0, sweeps)")
    _, marg = _gibbs_ensemble(prior, sweeps, num_chains, seed, burn_in=burn_in)
    return marg


def _gibbs_ensemble(prior, sweeps, num_chains, seed, burn_in):
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    if num_chains < 1:
        raise ValueError("num_chains must be >= 1")
    n = prior.n
    gen = generator(seed)
    s = np.where(gen.random((num_chains, n)) < 0.5, -1.0, 1.0)
    nbrs = prior.graph.neighbor_lists()
    nbr_idx = [np.array([p[0] for p in lst], dtype=np.intp) for lst in nbrs]
    nbr_lam = [np.array([prior.lam[p[1]] for p in lst]) for lst in nbrs]
    phi = prior.phi
    acc = np.zeros(n)
    kept = 0
    for sweep in range(sweeps):
        draws = gen.random((num_chains, n))
        for j in range(n):
            if len(nbr_idx[j]):
                h = s[:, nbr_idx[j]] @ nbr_lam[j] - phi[j]
            else:
                h = np.full(num_chains, -phi[j])
            p1 = 1.0 / (1.0 + np.exp(-2.0 * h))
            s[:, j] = np.where(draws[:, j] < p1, 1.0, -1.0)
        if burn_in is not None and sweep >= burn_in:
            acc += (s > 0).sum(axis=0)
            kept += 1
    states = (s > 0).astype(np.uint8)
    marg = acc / (kept * num_chains) if kept else None
    return states, marg


def build_grid(rows: int, cols: int) -> ItemGraph:
    """Grid graph: vertex r*cols + c, edges to right and down neighbors."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return ItemGraph(rows * cols, tuple(edges))


def build_block(blocks_r: int, blocks_c: int, block_rows: int,
                block_cols: int) -> ItemGraph:
    """Disjoint grid blocks; vertex index is block-major then row-major.

    Block (br, bc) occupies indices [(br*blocks_c + bc) * block_rows*block_cols,
    ...) and is internally a block_rows x block_cols grid; there are no edges
    between blocks.
    """
    if min(blocks_r, blocks_c, block_rows, block_cols) < 1:
        raise ValueError("block dimensions must be positive")
    per = block_rows * block_cols
    cell = build_grid(block_rows, block_cols)
    edges = []
    for b in range(blocks_r * blocks_c):
        off = b * per
        edges.extend((j + off, jp + off) for j, jp in cell.edges)
    return ItemGraph(blocks_r * blocks_c * per, tuple(edges))


def load_edge_list(path) -> ItemGraph:
    """Parse an ASCII edge list: one "j j'" pair per line, 0-indexed.

    Lines starting with '#' are ignored.  n is 1 + max index unless an
    optional header line "n <count>" appears.  Duplicate edges are
    deduplicated silently; self-loops and malformed lines are errors that
    report the offending line number.
    """
    edges = set()
    declared_n = None
    max_idx = -1
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "n" and len(parts) == 2:
                try:
                    declared_n = int(parts[1])
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}: bad header {line!r}")
                continue
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'j j\\'', got {line!r}")
            try:
                j, jp = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-integer vertex in {line!r}")
            if j == jp:
                raise ValueError(f"{path}: line {lineno}: self-loop at {j}")
            if j < 0 or jp < 0:
                raise ValueError(f"{path}: line {lineno}: negative vertex index")
            edges.add((min(j, jp), max(j, jp)))
            max_idx = max(max_idx, j, jp)
    n = declared_n if declared_n is not None else max_idx + 1
    if n < 0:
        n = 0
    return ItemGraph(n, tuple(sorted(edges)))


def subsample_vertices(g: ItemGraph, m: int, seed: int) -> ItemGraph:
    """Induced subgraph on m uniformly chosen vertices.

    Kept vertices are re-indexed 0..m-1 preserving their sorted original
    order.  Deterministic given seed.
    """
    if m > g.n:
        raise ValueError(f"cannot keep {m} of {g.n} vertices")
    gen = generator(seed)
    keep = np.sort(gen.choice(g.n, size=m, replace=False))
    index = {int(v): i for i, v in enumerate(keep)}
    edges = tuple((index[j], index[jp]) for j, jp in g.edges
                  if j in index and jp in index)
    return ItemGraph(m, edges)


def perturb_edges(g: ItemGraph, fraction: float, seed: int) -> ItemGraph:
    """Remove round(fraction*|E|) random edges and add as many random non-edges.

    The edge count is preserved; self-loops and duplicates cannot appear.
    Rejected when the graph has fewer non-edges than removals.  Deterministic
    given seed; fraction 0 returns the graph unchanged.
    """
    if not (0.0 <= fraction <= 1.0):
        raise ValueError("fraction must lie in [0, 1]")
    r = int(round(fraction * g.num_edges))
    if r == 0:
        return g
    edge_set = set(g.edges)
    non_edges = [(j, jp) for j in range(g.n) for jp in range(j + 1, g.n)
                 if (j, jp) not in edge_set]
    if r > len(non_edges):
        raise ValueError(f"cannot add {r} edges: only {len(non_edges)} non-edges exist")
    gen = generator(seed)
    drop = set(gen.choice(g.num_edges, size=r, replace=False).tolist())
    kept = [e for i, e in enumerate(g.edges) if i not in drop]
    added_idx = gen.choice(len(non_edges), size=r, replace=False)
    kept.extend(non_edges[int(i)] for i in added_idx)
    return ItemGraph(g.n, tuple(kept))
