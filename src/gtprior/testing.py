"""Bernoulli test-design generation and the noiseless / symmetric-noise
group-testing channels."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, get_type_hints

import numpy as np

from .core import DefectivityVector, check_json_field
from .rng import RNG_ID, generator


@dataclass(frozen=True)
class TestDesign:
    """t x n binary inclusion matrix plus its Bernoulli-parameter provenance."""

    matrix: np.ndarray
    bernoulli_p: Optional[float] = None
    seed: Optional[int] = None

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.uint8)
        if mat.ndim != 2:
            raise ValueError("design matrix must be 2-dimensional")
        if not np.isin(mat, (0, 1)).all():
            raise ValueError("design entries must be 0 or 1")
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


@dataclass(frozen=True)
class OutcomeVector:
    """Binary outcomes of t tests."""

    y: tuple

    def __post_init__(self):
        y = tuple(int(v) for v in self.y)
        if any(v not in (0, 1) for v in y):
            raise ValueError("outcomes must be 0 or 1")
        object.__setattr__(self, "y", y)

    @property
    def t(self) -> int:
        return len(self.y)

    def to_numpy(self) -> np.ndarray:
        return np.array(self.y, dtype=np.uint8)

    def to_string(self) -> str:
        return "".join(str(v) for v in self.y)

    @classmethod
    def parse(cls, text: str) -> "OutcomeVector":
        text = text.strip()
        if text.startswith("["):
            return cls(tuple(json.loads(text)))
        return cls(tuple(int(c) for c in text))


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
    mat = (gen.random((t, n)) < p).astype(np.uint8)
    return TestDesign(mat, bernoulli_p=p, seed=seed)


def noiseless_outcomes(design: TestDesign, u: DefectivityVector) -> np.ndarray:
    """Per-test OR of the included defectives, as a uint8 array."""
    if design.n != u.n:
        raise ValueError(f"dimension mismatch: design n={design.n}, u.n={u.n}")
    return (design.matrix @ u.to_numpy().astype(np.int64) >= 1).astype(np.uint8)


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
    return OutcomeVector(tuple(int(v) for v in y))


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
        p = check_json_field("design p", obj.get("p"), hints["bernoulli_p"])
        seed = check_json_field("design seed", obj.get("seed"), hints["seed"])
        return TestDesign(np.array(obj["matrix"], dtype=np.uint8),
                          bernoulli_p=None if p is None else float(p), seed=seed)
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
    return TestDesign(np.array(rows, dtype=np.uint8), bernoulli_p=p, seed=seed)
