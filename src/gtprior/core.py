"""Domain types shared by all modules: defectivity vectors, defective sets,
the approximate-recovery distance, and the error metrics reported in
experiments.

Items are 0-indexed throughout.  All types are immutable values and all
operations are pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, is_dataclass
from typing import Iterable, Optional, Union, get_args, get_origin

import numpy as np


@dataclass(frozen=True)
class DefectivityVector:
    """Binary status of n items; 1 marks a defective item."""

    bits: tuple

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("defectivity entries must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def k(self) -> int:
        """Number of defective items."""
        return sum(self.bits)

    def to_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def to_numpy(self) -> np.ndarray:
        return np.array(self.bits, dtype=np.uint8)

    def support(self) -> "DefectiveSet":
        return DefectiveSet(tuple(j for j, b in enumerate(self.bits) if b), self.n)

    @classmethod
    def from_string(cls, text: str) -> "DefectivityVector":
        text = text.strip()
        if not all(c in "01" for c in text):
            raise ValueError("defectivity string must contain only 0/1")
        return cls(tuple(int(c) for c in text))

    @classmethod
    def from_json(cls, text: str) -> "DefectivityVector":
        return cls(tuple(json.loads(text)))

    @classmethod
    def parse(cls, text: str) -> "DefectivityVector":
        """Accept either the compact 0/1 string or a JSON array."""
        text = text.strip()
        if text.startswith("["):
            return cls.from_json(text)
        return cls.from_string(text)

    @classmethod
    def from_array(cls, arr: Iterable[int]) -> "DefectivityVector":
        return cls(tuple(int(v) for v in arr))


@dataclass(frozen=True)
class DefectiveSet:
    """A set of defective item indices inside an ambient universe of n items."""

    members: tuple
    n: int

    def __post_init__(self):
        members = tuple(sorted(int(j) for j in self.members))
        if len(set(members)) != len(members):
            raise ValueError("defective set indices must be distinct")
        if members and (members[0] < 0 or members[-1] >= self.n):
            raise ValueError("defective set indices must lie in [0, n)")
        object.__setattr__(self, "members", members)

    @property
    def k(self) -> int:
        return len(self.members)

    def to_vector(self) -> DefectivityVector:
        bits = [0] * self.n
        for j in self.members:
            bits[j] = 1
        return DefectivityVector(tuple(bits))


@dataclass(frozen=True)
class ErrorReport:
    """False positive / false negative counts and their k-normalized rates.

    Rates are ``None`` when the truth has no defectives (k = 0); the counts
    are still valid.
    """

    fp: int
    fn: int
    fp_rate: Optional[float]
    fn_rate: Optional[float]


def count_fp_fn(truth: DefectivityVector, estimate: DefectivityVector) -> ErrorReport:
    """Count false positives/negatives of ``estimate`` against ``truth``.

    fp = items marked defective that are not; fn = defectives missed.
    Rates divide by the truth's k and are ``None`` when k = 0.
    """
    if truth.n != estimate.n:
        raise ValueError(f"dimension mismatch: truth n={truth.n}, estimate n={estimate.n}")
    fp = sum(1 for a, b in zip(truth.bits, estimate.bits) if b == 1 and a == 0)
    fn = sum(1 for a, b in zip(truth.bits, estimate.bits) if b == 0 and a == 1)
    k = truth.k
    if k == 0:
        return ErrorReport(fp, fn, None, None)
    return ErrorReport(fp, fn, fp / k, fn / k)


def approx_distance(a: DefectiveSet, b: DefectiveSet) -> int:
    """Approximate-recovery distance max(|a \\ b|, |b \\ a|).

    Symmetric, zero iff the sets coincide, and for equal-size sets equal to
    the common one-sided difference size.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: a.n={a.n}, b.n={b.n}")
    sa, sb = set(a.members), set(b.members)
    return max(len(sa - sb), len(sb - sa))


def check_json_field(name: str, value, hint):
    """``value``, read from a JSON file for a field annotated ``hint``, after
    a type check; a value of the wrong type is a ValueError naming ``name``.

    A bool field takes only a bool, an int field an int that is not a bool,
    a float field also an int, and a str field a str.  ``Optional[X]`` also
    takes null.  ``Tuple[X, ...]`` takes a list (returned as a tuple) whose
    elements are checked as X.  A dataclass field takes an instance or a
    JSON object, which the dataclass checks when it is built from it.
    """
    if get_origin(hint) is Union:  # Optional[X]
        return None if value is None else check_json_field(name, value, get_args(hint)[0])
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be a list, not {type(value).__name__}: {value!r}")
        return tuple(check_json_field(f"{name}[{i}]", v, get_args(hint)[0])
                     for i, v in enumerate(value))
    if is_dataclass(hint):
        ok = isinstance(value, (hint, dict))
    elif hint in (int, float):
        ok = isinstance(value, (int, hint)) and not isinstance(value, bool)
    else:
        ok = isinstance(value, hint)
    if not ok:
        want = "a JSON object" if is_dataclass(hint) else hint.__name__
        raise ValueError(f"{name} must be {want}, not {type(value).__name__}: {value!r}")
    return value
