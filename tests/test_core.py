import itertools

import numpy as np
import pytest

from gtprior.core import (DefectiveSet, DefectivityVector, approx_distance,
                          count_fp_fn)
from helpers import vec


class TestCountFpFn:
    def test_identical_vectors(self):
        r = count_fp_fn(vec(1, 0, 1), vec(1, 0, 1))
        assert (r.fp, r.fn) == (0, 0)

    def test_direct_count(self):
        r = count_fp_fn(vec(1, 0, 1), vec(0, 1, 1))
        assert (r.fp, r.fn) == (1, 1)
        assert r.fp_rate == 0.5 and r.fn_rate == 0.5

    def test_complement_case(self):
        r = count_fp_fn(vec(0, 0, 0, 1), vec(1, 1, 1, 0))
        assert (r.fp, r.fn) == (3, 1)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            count_fp_fn(vec(1, 0), vec(1, 0, 0))

    def test_zero_k_rates_flagged(self):
        r = count_fp_fn(vec(0, 0), vec(1, 0))
        assert r.fp == 1 and r.fn == 0
        assert r.fp_rate is None and r.fn_rate is None

    def test_self_comparison_is_zero_everywhere(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            u = DefectivityVector(tuple(rng.integers(0, 2, rng.integers(1, 12))))
            r = count_fp_fn(u, u)
            assert (r.fp, r.fn) == (0, 0)


class TestApproxDistance:
    def test_identity(self):
        a = DefectiveSet((1, 2), 6)
        assert approx_distance(a, a) == 0

    def test_overlap(self):
        assert approx_distance(DefectiveSet((1, 2), 6), DefectiveSet((2, 3), 6)) == 1

    def test_unequal_sizes(self):
        assert approx_distance(DefectiveSet((1, 2), 6), DefectiveSet((3, 4, 5), 6)) == 3

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            approx_distance(DefectiveSet((0,), 3), DefectiveSet((0,), 4))

    def test_symmetry_and_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = 8
            a = DefectiveSet(tuple(rng.choice(n, rng.integers(0, 5), replace=False)), n)
            b = DefectiveSet(tuple(rng.choice(n, rng.integers(0, 5), replace=False)), n)
            assert approx_distance(a, b) == approx_distance(b, a)
            assert (approx_distance(a, b) == 0) == (a.members == b.members)

    def test_triangle_inequality_on_equal_size_sets(self):
        # All triples of 2-subsets of a 5-element universe.
        subsets = [DefectiveSet(c, 5) for c in itertools.combinations(range(5), 2)]
        for a, b, c in itertools.product(subsets, repeat=3):
            assert approx_distance(a, c) <= approx_distance(a, b) + approx_distance(b, c)

    def test_equal_size_distance_equals_one_sided_difference(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n, k = 10, 4
            a = set(rng.choice(n, k, replace=False).tolist())
            b = set(rng.choice(n, k, replace=False).tolist())
            d = approx_distance(DefectiveSet(tuple(a), n), DefectiveSet(tuple(b), n))
            assert d == len(a - b) == len(b - a)


class TestSerialization:
    def test_string_round_trip(self):
        u = DefectivityVector.parse("0110")
        assert u.to_string() == "0110"
        assert u.bits == (0, 1, 1, 0)

    def test_json_round_trip(self):
        u = DefectivityVector.parse("[0, 1, 1, 0]")
        assert u == DefectivityVector.parse("0110")

    def test_bad_entries_rejected(self):
        with pytest.raises(ValueError):
            DefectivityVector((0, 2))
        with pytest.raises(ValueError):
            DefectivityVector.parse("012")

    @pytest.mark.parametrize("bits", [(0.9, 1), (True, 0), (0, np.bool_(True)),
                                      (np.float64(1.0),), ("1",), (None,)])
    def test_entries_other_than_integer_0_or_1_rejected(self, bits):
        with pytest.raises(ValueError, match="0 or 1"):
            DefectivityVector(bits)

    def test_integer_entries_become_python_ints(self):
        for u in (DefectivityVector((np.int64(1), np.uint8(0))),
                  DefectivityVector.from_array(np.array([1, 0], dtype=np.int8))):
            assert u.bits == (1, 0) and all(type(b) is int for b in u.bits)
        with pytest.raises(ValueError):
            DefectivityVector.from_array(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            DefectivityVector.parse("[true, 0]")

    def test_support_round_trip(self):
        u = vec(1, 0, 0, 1, 1)
        s = u.support()
        assert s.members == (0, 3, 4)
        assert s.to_vector() == u

    def test_defective_set_validation(self):
        with pytest.raises(ValueError):
            DefectiveSet((0, 0), 3)
        with pytest.raises(ValueError):
            DefectiveSet((3,), 3)

    @pytest.mark.parametrize("members", [(0.7, True), (2.9,), (True,), (np.bool_(True),),
                                         (np.float64(1.0),), ("1",), (None,)])
    def test_defective_set_members_other_than_integers_rejected(self, members):
        with pytest.raises(ValueError, match="ints"):
            DefectiveSet(members, 3)

    def test_defective_set_integer_members_become_python_ints(self):
        s = DefectiveSet((np.int64(2), np.uint8(0)), 3)
        assert s.members == (0, 2) and all(type(j) is int for j in s.members)
