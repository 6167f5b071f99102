"""Ising-model priors over item graphs.

Construction helpers (grid, block, edge list, perturbation), the
unnormalized log-probability, systematic-scan Gibbs sampling, and exact
marginals by full enumeration for small n.

The model over u in {0,1}^n, written via s = 2u - 1 in {-1,+1}^n, is

    P(u) proportional to exp( sum_edges lam_e * s_j * s_j'  -  sum_j phi_j * s_j )

so a common phi > 0 favors sparse (mostly 0) vectors and a common lam > 0
favors agreement across edges.  Negative edge strengths are allowed.

All Gibbs sampling runs through one kernel that updates a whole level of
sites at once.  level(j) is 0 when j has no smaller-index neighbour and
otherwise 1 + the largest level among those neighbours, so sites on one
level share no edge, every smaller-index neighbour of j lies on a lower
level and every larger-index one on a higher level.  Updating the levels
in increasing order therefore reads exactly the values the scan 0..n-1
reads, and consumes the same uniform draws (one block of n per sweep, read
through the level permutation): the result is the systematic scan, bit for
bit, for one chain or many.  A grid has rows + cols - 1 levels.  The
state is held as (n, chains) in level order, so each level is a slice;
its local fields sum the neighbour terms over the leading axis of a
(degree, sites, chains) array, left to right in ``neighbor_lists`` order,
padded with zero strengths to the level's own largest degree.
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
    states, _ = _gibbs_chains(prior, sweeps, 1, seed, burn_in=None)
    return DefectivityVector.from_array(states[0])


def gibbs_sample_ensemble(prior: IsingPrior, sweeps: int, num_chains: int,
                          seed: int) -> np.ndarray:
    """Final states of ``num_chains`` independent Gibbs chains, shape (chains, n).

    All chains share one PCG64 stream (one ``(chains, n)`` block of uniforms
    per sweep), so the ensemble is deterministic given (prior, sweeps,
    num_chains, seed).  A one-chain ensemble is :func:`gibbs_sample`; with
    more chains, chain 0 reads other draws and no longer matches it.
    """
    states, _ = _gibbs_chains(prior, sweeps, num_chains, seed, burn_in=None)
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
    _, marg = _gibbs_chains(prior, sweeps, num_chains, seed, burn_in=burn_in)
    return marg


def _level_schedule(prior: IsingPrior):
    """Level order, its inverse, and per level (start, stop, neighbour
    positions, lam, phi) in ``neighbor_lists`` order, zero-lam padded."""
    nbrs = prior.graph.neighbor_lists()
    level = np.zeros(prior.n, dtype=np.intp)
    for j, lst in enumerate(nbrs):
        level[j] = max((level[jp] + 1 for jp, _ in lst if jp < j), default=0)
    order = np.argsort(level, kind="stable")
    pos = np.argsort(order)
    stops = np.cumsum(np.bincount(level))
    sched = []
    for start, stop in zip(np.r_[0, stops[:-1]], stops):
        sites = order[start:stop]
        idx = np.zeros((max(len(nbrs[j]) for j in sites), len(sites)), dtype=np.intp)
        lam = np.zeros(idx.shape + (1,))
        for c, j in enumerate(sites):
            for d, (jp, e) in enumerate(nbrs[j]):
                idx[d, c], lam[d, c, 0] = pos[jp], prior.lam[e]
        sched.append((start, stop, idx, lam, prior.phi[sites][:, None]))
    return order, pos, sched


def _gibbs_chains(prior, sweeps, num_chains, seed, burn_in):
    """(final states, post-burn-in marginals or None), level by level."""
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    if num_chains < 1:
        raise ValueError("num_chains must be >= 1")
    order, pos, sched = _level_schedule(prior)
    gen = generator(seed)
    s = np.where(gen.random((num_chains, prior.n)) < 0.5, -1.0, 1.0)[:, order].T.copy()
    acc = np.zeros(prior.n)
    kept = 0
    with np.errstate(over="ignore"):  # exp overflow gives p1 = 1/(1+inf) = 0
        for sweep in range(sweeps):
            draws = gen.random((num_chains, prior.n))[:, order].T
            for start, stop, idx, lam, phi in sched:
                h = np.add.reduce(lam * s.take(idx, axis=0), axis=0) - phi
                p1 = 1.0 / (1.0 + np.exp(-2.0 * h))
                s[start:stop] = np.where(draws[start:stop] < p1, 1.0, -1.0)
            if burn_in is not None and sweep >= burn_in:
                acc += (s > 0).sum(axis=1)
                kept += 1
    states = (s[pos] > 0).T.astype(np.uint8)
    marg = acc[pos] / (kept * num_chains) if kept else None
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
    n, m = g.n, g.num_edges
    total = n * (n - 1) // 2 - m
    if r > total:
        raise ValueError(f"cannot add {r} edges: only {total} non-edges exist")
    gen = generator(seed)
    drop = set(gen.choice(m, size=r, replace=False).tolist())
    kept = [e for i, e in enumerate(g.edges) if i not in drop]
    added_idx = gen.choice(total, size=r, replace=False)
    # Non-edge i is the i-th pair (j, jp), j < jp, in lexicographic order
    # that is not an edge.  Row j holds free[j] of them; within the row,
    # column jp steps over every forward edge whose preceding non-edge
    # count (``before``, non-decreasing in edge order) is <= i.
    lo, hi = np.array(g.edges, dtype=np.int64).reshape(-1, 2).T
    fwd = np.bincount(lo, minlength=n)
    free = np.arange(n - 1, -1, -1) - fwd
    row_start = np.cumsum(free) - free
    edge_start = np.cumsum(fwd) - fwd
    before = row_start[lo] + (hi - lo - 1) - (np.arange(m) - edge_start[lo])
    j = np.searchsorted(row_start + free, added_idx, side="right")
    jp = (j + 1 + added_idx - row_start[j]
          + np.searchsorted(before, added_idx, side="right") - edge_start[j])
    kept.extend(zip(j.tolist(), jp.tolist()))
    return ItemGraph(g.n, tuple(kept))
