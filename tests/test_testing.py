import math

import numpy as np
import pytest

from gtprior.core import DefectivityVector
from gtprior.testing import (NoiseSpec, OutcomeVector, TestDesign,
                             bernoulli_design, design_from_text, design_to_csv,
                             design_to_json, noiseless_outcomes, run_tests)
from helpers import vec


class TestBernoulliDesign:
    def test_p_zero_all_zero(self):
        d = bernoulli_design(5, 7, 0.0, seed=1)
        assert d.matrix.sum() == 0

    def test_p_one_all_one(self):
        d = bernoulli_design(5, 7, 1.0, seed=1)
        assert d.matrix.sum() == 35

    def test_density_law_of_large_numbers(self):
        p = math.log(2) / 10
        d = bernoulli_design(200, 200, p, seed=77)
        assert abs(d.matrix.mean() - 0.0693) < 0.01

    def test_deterministic_and_provenance(self):
        a = bernoulli_design(4, 4, 0.3, seed=9)
        b = bernoulli_design(4, 4, 0.3, seed=9)
        assert (a.matrix == b.matrix).all()
        assert a.bernoulli_p == 0.3 and a.seed == 9

    def test_bad_p_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_design(2, 2, 1.5, seed=0)


class TestRunTests:
    def test_all_zero_truth(self):
        d = bernoulli_design(6, 5, 0.5, seed=3)
        y = run_tests(d, vec(0, 0, 0, 0, 0), NoiseSpec())
        assert y.y == (0,) * 6

    def test_identity_design_reproduces_truth(self):
        d = TestDesign(np.eye(5, dtype=np.uint8))
        u = vec(1, 0, 1, 1, 0)
        assert run_tests(d, u, NoiseSpec()).y == u.bits

    def test_or_evaluation(self):
        d = TestDesign(np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8))
        assert run_tests(d, vec(1, 0, 0), NoiseSpec()).y == (1, 0)

    def test_dimension_mismatch(self):
        d = bernoulli_design(3, 4, 0.5, seed=0)
        with pytest.raises(ValueError):
            run_tests(d, vec(1, 0), NoiseSpec())

    def test_monotonicity_of_noiseless_channel(self):
        # Adding a defective never turns a positive test negative.
        rng = np.random.default_rng(8)
        for _ in range(1000):
            n = int(rng.integers(2, 10))
            d = bernoulli_design(int(rng.integers(1, 8)), n, 0.4,
                                 seed=int(rng.integers(2**31)))
            bits = rng.integers(0, 2, n)
            u = DefectivityVector(tuple(bits))
            zeros = np.flatnonzero(bits == 0)
            if not zeros.size:
                continue
            more = bits.copy()
            more[int(rng.choice(zeros))] = 1
            y0 = noiseless_outcomes(d, u)
            y1 = noiseless_outcomes(d, DefectivityVector(tuple(more)))
            assert (y1 >= y0).all()

    def test_rho_zero_equals_noiseless(self):
        d = bernoulli_design(50, 20, 0.2, seed=5)
        u = DefectivityVector(tuple(np.random.default_rng(5).integers(0, 2, 20)))
        clean = run_tests(d, u, NoiseSpec())
        silent = run_tests(d, u, NoiseSpec("symmetric", 0.0), seed=42)
        assert clean.y == silent.y

    def test_empirical_flip_rate(self):
        d = TestDesign(np.zeros((100_000, 2), dtype=np.uint8))
        y = run_tests(d, vec(0, 0), NoiseSpec("symmetric", 0.01), seed=13)
        assert abs(np.mean(y.y) - 0.01) < 0.003

    def test_noise_requires_seed(self):
        d = bernoulli_design(3, 2, 0.5, seed=1)
        with pytest.raises(ValueError):
            run_tests(d, vec(0, 1), NoiseSpec("symmetric", 0.1))


class TestNoiseSpec:
    def test_rho_range(self):
        with pytest.raises(ValueError):
            NoiseSpec("symmetric", 0.5)
        with pytest.raises(ValueError):
            NoiseSpec("symmetric", -0.01)

    def test_is_noisy(self):
        assert not NoiseSpec().is_noisy
        assert not NoiseSpec("symmetric", 0.0).is_noisy
        assert NoiseSpec("symmetric", 0.01).is_noisy


class TestDesignSerialization:
    def test_csv_round_trip(self):
        d = bernoulli_design(4, 6, 0.3, seed=11)
        back = design_from_text(design_to_csv(d))
        assert (back.matrix == d.matrix).all()
        assert back.bernoulli_p == d.bernoulli_p and back.seed == d.seed

    def test_json_round_trip(self):
        d = bernoulli_design(3, 5, 0.25, seed=12)
        back = design_from_text(design_to_json(d))
        assert (back.matrix == d.matrix).all()
        assert back.bernoulli_p == d.bernoulli_p

    def test_outcome_parse(self):
        assert OutcomeVector.parse("0110").y == (0, 1, 1, 0)
        assert OutcomeVector.parse("[0, 1]").y == (0, 1)

    @pytest.mark.parametrize("text", ["01 01", "012", "[2]", "[true, 0]", "[[1]]",
                                      "[0.7]", "{}"])
    def test_outcomes_and_defectivity_parse_alike(self, text):
        with pytest.raises(ValueError) as outcome_error:
            OutcomeVector.parse(text)
        with pytest.raises(ValueError) as vector_error:
            DefectivityVector.parse(text)
        assert str(vector_error.value).startswith("defectivity entries")
        assert str(outcome_error.value).replace("outcomes", "defectivity entries") == \
            str(vector_error.value)
        assert OutcomeVector.parse(" 0110\n").y == DefectivityVector.parse("[0, 1, 1, 0]").bits

    @pytest.mark.parametrize("y", [(0.7, True), (True,), (np.bool_(False),),
                                   (np.float64(0.0),), ("1",)])
    def test_outcome_entries_other_than_integer_0_or_1_rejected(self, y):
        with pytest.raises(ValueError, match="0 or 1"):
            OutcomeVector(y)

    def test_outcome_integer_entries_become_python_ints(self):
        y = OutcomeVector((np.int64(1), np.uint8(0), 1))
        assert y.y == (1, 0, 1) and all(type(v) is int for v in y.y)

    @pytest.mark.parametrize("text", ["[[1]]", "[true, 0]", "[0.7]", "[1, null]"])
    def test_outcome_parse_rejects_non_integers(self, text):
        with pytest.raises(ValueError):
            OutcomeVector.parse(text)

    @pytest.mark.parametrize("entries", [[[256, 0]], [[0.7, 1]], [[-1, 0]]])
    def test_design_entries_are_checked_before_the_cast(self, entries):
        with pytest.raises(ValueError, match="0 or 1"):
            TestDesign(np.array(entries))

    @pytest.mark.parametrize("text", ['{"matrix": [[256, 0]]}', '{"matrix": [[0.7, 1]]}',
                                      "256,0\n", "0,1\n1,256\n"])
    def test_design_text_rejects_entries_other_than_0_or_1(self, text):
        with pytest.raises(ValueError):
            design_from_text(text)
