"""Domain types shared by all modules: defectivity vectors, defective sets,
the approximate-recovery distance, the error metrics reported in
experiments, the config type check and the CSV emitter of record types.

Items are 0-indexed throughout.  All types are immutable values and all
operations are pure.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import Iterable, Optional, Tuple, Union, get_args, get_origin, get_type_hints

import numpy as np


@dataclass(frozen=True)
class DefectivityVector:
    """Binary status of n items; 1 marks a defective item."""

    bits: tuple

    def __post_init__(self):
        object.__setattr__(self, "bits", binary_entries("defectivity entries", self.bits))

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
    def parse(cls, text: str) -> "DefectivityVector":
        """Accept either the compact 0/1 string or a JSON array."""
        return cls(parse_bits("defectivity entries", text))

    @classmethod
    def from_array(cls, arr: Iterable[int]) -> "DefectivityVector":
        return cls(tuple(arr))


@dataclass(frozen=True)
class DefectiveSet:
    """A set of defective item indices inside an ambient universe of n items."""

    members: tuple
    n: int

    def __post_init__(self):
        bad = [j for j in self.members if not _is_int(j)]
        if bad:  # a bool, a float or anything else is not cast to an int
            raise ValueError(f"defective set indices must be ints, not "
                             f"{type(bad[0]).__name__}: {bad[0]!r}")
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


def _is_int(v) -> bool:
    """True for an int or a numpy integer; a bool is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def binary_entries(name: str, values: Iterable) -> tuple:
    """``values`` as a tuple of Python ints, each 0 or 1; a bool, a float or
    anything else that is not an int or numpy integer is a ValueError naming
    ``name``, not cast to an int."""
    values = tuple(values)
    for v in values:
        if not _is_int(v) or v not in (0, 1):
            raise ValueError(f"{name} must be 0 or 1 ints, not "
                             f"{type(v).__name__}: {v!r}")
    return tuple(int(v) for v in values)


def parse_bits(name: str, text: str) -> tuple:
    """The entries of ``text``, a compact 0/1 string or a JSON array of
    ints, as a tuple of ints; surrounding whitespace is ignored.

    A string with any character other than 0 or 1 is a ValueError naming
    ``name``, and so is an array element that is not an int
    (:func:`check_json_field`); the caller checks that the ints are 0 or 1.
    """
    text = text.strip()
    if text.startswith("["):
        return check_json_field(name, json.loads(text), Tuple[int, ...])
    if not set(text) <= {"0", "1"}:
        raise ValueError(f"{name} must be a 0/1 string or a JSON array, not {text!r}")
    return tuple(int(c) for c in text)


def check_json_field(name: str, value, hint):
    """``value``, given for a field annotated ``hint``, after a type check; a
    value of the wrong type is a ValueError naming ``name``.  Every config,
    from JSON or Python, is checked so at construction (:func:`check_fields`).

    A bool field takes only a bool, an int field an int or numpy integer but
    no bool (returned as a Python int), a float field also such an int, and a
    str field a str.  ``Optional[X]`` also takes null.  ``Tuple[X, ...]``
    takes a list (returned as a tuple) of Xs.  A dataclass field takes an
    instance, or a JSON object without unknown or missing keys, built into one.
    """
    if get_origin(hint) is Union:  # Optional[X]
        return None if value is None else check_json_field(name, value, get_args(hint)[0])
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be a list, not {type(value).__name__}: {value!r}")
        return tuple(check_json_field(f"{name}[{i}]", v, get_args(hint)[0])
                     for i, v in enumerate(value))
    if hint in (int, float) and _is_int(value):
        return int(value)
    if is_dataclass(hint) and isinstance(value, dict):
        unknown = sorted(map(str, value.keys() - {f.name for f in fields(hint)}))
        missing = [f.name for f in fields(hint) if f.default is MISSING and f.name not in value]
        if unknown or missing:
            raise ValueError(f"{hint.__name__}: unknown keys {unknown}, missing keys {missing}")
        return hint(**value)
    if hint is int or not isinstance(value, hint):
        want = "a JSON object" if is_dataclass(hint) else hint.__name__
        raise ValueError(f"{name} must be {want}, not {type(value).__name__}: {value!r}")
    return value


def record_columns(record_type, include_times: bool = True) -> tuple:
    """A record type's fields in declaration order, less ``time_s`` unless
    ``include_times``: the columns of its reports."""
    return tuple(f.name for f in fields(record_type) if include_times or f.name != "time_s")


def records_csv(record_type, records, include_times: bool = True) -> str:
    """``records`` as CSV in :func:`record_columns` order, a bool as 0/1."""
    cols = record_columns(record_type, include_times)
    lines = [cols] + [[getattr(r, c) for c in cols] for r in records]
    return "".join(",".join(str(int(v)) if isinstance(v, bool) else str(v) for v in line)
                   + "\n" for line in lines)


def check_fields(obj) -> None:
    """Re-store each field of the frozen dataclass ``obj`` as
    :func:`check_json_field` returns it for the field's annotation."""
    hints = get_type_hints(type(obj))
    for f in fields(obj):
        value = check_json_field(f"{type(obj).__name__}.{f.name}", getattr(obj, f.name),
                                 hints[f.name])
        object.__setattr__(obj, f.name, value)
