"""Bernoulli test-design generation and the noiseless / symmetric-noise
group-testing channels.

A t x n design is stored as uint8, and neither the design nor the channel
makes a t x n copy wider than that: :func:`bernoulli_design` draws its
uniforms in row slices of at most ``_SLICE_BYTES`` and writes each
comparison into the preallocated design, :class:`TestDesign` checks a bool
or integer matrix by its min and max, and :func:`noiseless_outcomes` ORs
only the truth's support columns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Tuple, get_type_hints

import numpy as np

from .core import DefectivityVector, binary_entries, check_json_field, parse_bits
from .rng import RNG_ID, generator

_SLICE_BYTES = 1 << 16  # the size that a design's float64 uniforms are drawn in


@dataclass(frozen=True)
class TestDesign:
    """t x n binary inclusion matrix plus its Bernoulli-parameter provenance."""

    matrix: np.ndarray
    bernoulli_p: Optional[float] = None
    seed: Optional[int] = None

    def __post_init__(self):
        mat = np.asarray(self.matrix)
        if mat.ndim != 2:
            raise ValueError("design matrix must be 2-dimensional")
        # Checked before the cast, which would wrap 256 to 0 and cut 0.7 to 0.
        if not _is_binary(mat):
            raise ValueError("design entries must be 0 or 1")
        mat = mat.astype(np.uint8, copy=False)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        if self.bernoulli_p is not None and not (0.0 <= self.bernoulli_p <= 1.0):
            raise ValueError("bernoulli_p must lie in [0, 1]")

    @property
    def t(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


def _is_binary(mat: np.ndarray) -> bool:
    """True when every entry equals 0 or 1, as ``np.isin(mat, (0, 1))`` tests;
    a bool or integer matrix is checked by its min and max, without a copy."""
    if mat.dtype.kind in "biu":
        return mat.size == 0 or bool(mat.min() >= 0 and mat.max() <= 1)
    return bool(((mat == 0) | (mat == 1)).all())


@dataclass(frozen=True)
class OutcomeVector:
    """Binary outcomes of t tests."""

    y: tuple

    def __post_init__(self):
        object.__setattr__(self, "y", binary_entries("outcomes", self.y))

    @property
    def t(self) -> int:
        return len(self.y)

    def to_numpy(self) -> np.ndarray:
        return np.array(self.y, dtype=np.uint8)

    def to_string(self) -> str:
        return "".join(str(v) for v in self.y)

    @classmethod
    def parse(cls, text: str) -> "OutcomeVector":
        """Accept either the compact 0/1 string or a JSON array."""
        return cls(parse_bits("outcomes", text))


@dataclass(frozen=True)
class NoiseSpec:
    """Test noise model: noiseless, or each outcome flipped with probability rho."""

    kind: str = "noiseless"
    rho: float = 0.0

    def __post_init__(self):
        if self.kind not in ("noiseless", "symmetric"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "symmetric" and not (0.0 <= self.rho < 0.5):
            raise ValueError("rho must lie in [0, 0.5)")
        if self.kind == "noiseless" and self.rho:
            raise ValueError("noiseless noise cannot carry rho")

    @classmethod
    def at(cls, rho: float) -> "NoiseSpec":
        """The noise of symmetric level ``rho``: noiseless at 0, and otherwise
        symmetric, so a rho outside [0, 0.5) or NaN is a ValueError."""
        return cls("symmetric", rho) if rho != 0 else cls()

    @property
    def is_noisy(self) -> bool:
        """True when outcomes can actually flip (symmetric with rho > 0)."""
        return self.kind == "symmetric" and self.rho > 0.0


def bernoulli_design(t: int, n: int, p: float, seed: int) -> TestDesign:
    """i.i.d. Bernoulli(p) test matrix; deterministic given seed."""
    if t < 0 or n < 1:
        raise ValueError("need t >= 0 and n >= 1")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    gen = generator(seed)
    mat = np.empty((t, n), dtype=np.uint8)
    # PCG64 hands out the same doubles whether drawn at once or in slices.
    step = max(1, _SLICE_BYTES // (8 * n))
    for first in range(0, t, step):
        rows = mat[first:first + step]
        np.less(gen.random(rows.shape), p, out=rows)
    return TestDesign(mat, bernoulli_p=p, seed=seed)


def noiseless_outcomes(design: TestDesign, u: DefectivityVector) -> np.ndarray:
    """Per-test OR of the included defectives, as a uint8 array."""
    if design.n != u.n:
        raise ValueError(f"dimension mismatch: design n={design.n}, u.n={u.n}")
    support = np.flatnonzero(u.to_numpy())
    return design.matrix[:, support].any(axis=1).astype(np.uint8)


def run_tests(design: TestDesign, u: DefectivityVector, noise: NoiseSpec,
              seed: Optional[int] = None) -> OutcomeVector:
    """Apply the group-testing channel; symmetric noise flips each outcome
    independently with probability rho using ``seed``."""
    y = noiseless_outcomes(design, u)
    if noise.is_noisy:
        if seed is None:
            raise ValueError("symmetric noise requires a seed")
        flips = generator(seed).random(design.t) < noise.rho
        y = y ^ flips.astype(np.uint8)
    return OutcomeVector(tuple(y.tolist()))


def design_to_json(design: TestDesign) -> str:
    return json.dumps({
        "t": design.t,
        "n": design.n,
        "p": design.bernoulli_p,
        "seed": design.seed,
        "rng": RNG_ID,
        "matrix": design.matrix.tolist(),
    })


def design_to_csv(design: TestDesign) -> str:
    """Row-major 0/1 CSV with a '#'-prefixed metadata header line."""
    p = "" if design.bernoulli_p is None else repr(design.bernoulli_p)
    seed = "" if design.seed is None else str(design.seed)
    lines = [f"# t={design.t} n={design.n} p={p} seed={seed} rng={RNG_ID}"]
    lines.extend(",".join(str(int(v)) for v in row) for row in design.matrix)
    return "\n".join(lines) + "\n"


def design_from_text(text: str) -> TestDesign:
    """Parse either the JSON or the CSV design serialization."""
    text = text.strip()
    if text.startswith("{"):
        obj = json.loads(text)
        if "matrix" not in obj:
            raise ValueError("design JSON has no 'matrix'")
        hints = get_type_hints(TestDesign)
        matrix = check_json_field("design matrix", obj["matrix"], Tuple[Tuple[int, ...], ...])
        p = check_json_field("design p", obj.get("p"), hints["bernoulli_p"])
        seed = check_json_field("design seed", obj.get("seed"), hints["seed"])
        return TestDesign(np.array(matrix), bernoulli_p=None if p is None else float(p),
                          seed=seed)
    p = None
    seed = None
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if token.startswith("p=") and token[2:]:
                    p = float(token[2:])
                elif token.startswith("seed=") and token[5:]:
                    seed = int(token[5:])
            continue
        rows.append([int(v) for v in line.split(",")])
    return TestDesign(np.array(rows), bernoulli_p=p, seed=seed)
