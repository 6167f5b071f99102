import math
import tracemalloc

import numpy as np
import pytest

from gtprior.core import DefectivityVector
from gtprior.rng import generator
from gtprior.testing import (_SLICE_BYTES, NoiseSpec, OutcomeVector, TestDesign,
                             bernoulli_design, design_from_text, design_to_csv,
                             design_to_json, noiseless_outcomes, run_tests)
from helpers import vec


def traced_peak(fn, *args):
    """The tracemalloc peak of ``fn(*args)`` above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


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

    def test_equals_one_shot_reference(self):
        # The reference draws every uniform at once; the design draws them in
        # row slices, so t runs across several slice boundaries here.
        rng = np.random.default_rng(21)
        cases = [(0, 5, 0.5), (3, 4, 0.0), (3, 4, 1.0), (1, 1, 0.5)]
        for _ in range(40):
            n = int(rng.integers(1, 300))
            rows_per_slice = max(1, _SLICE_BYTES // (8 * n))
            t = int(rng.integers(0, 4 * rows_per_slice + 2))
            cases.append((t, n, float(rng.choice([0.0, 1.0, rng.random()]))))
        for t, n, p in cases:
            seed = int(rng.integers(2**63))
            ref = (generator(seed).random((t, n)) < p).astype(np.uint8)
            got = bernoulli_design(t, n, p, seed)
            assert got.matrix.dtype == np.uint8 and got.matrix.shape == (t, n)
            assert np.array_equal(got.matrix, ref), (t, n, p, seed)

    def test_design_allocates_little_beyond_itself(self):
        # 500 x 784 uint8 is 392,000 bytes; one-shot float64 uniforms would be 3.1 MB.
        assert traced_peak(bernoulli_design, 500, 784, 0.05, 3) < 2 * 392_000


    def test_design_keeps_its_own_matrix(self):
        a = np.zeros((2, 2), np.uint8)
        d = TestDesign(a)
        a[0, 0] = 1  # the caller's array stays writable ...
        assert d.matrix[0, 0] == 0  # ... and the write does not reach the design
        view = a.view()
        view.flags.writeable = False  # read-only, but its base is not
        d = TestDesign(view)
        a[1, 1] = 1
        assert d.matrix.tolist() == [[1, 0], [0, 0]] and not d.matrix.flags.writeable


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

    def test_outcomes_equal_matmul_reference(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            t, n = int(rng.integers(0, 40)), int(rng.integers(1, 30))
            d = bernoulli_design(t, n, float(rng.random()), int(rng.integers(2**31)))
            for bits in (np.zeros(n, int), np.ones(n, int), rng.integers(0, 2, n)):
                u = DefectivityVector(tuple(bits))
                ref = (d.matrix.astype(np.int64) @ bits.astype(np.int64) >= 1).astype(np.uint8)
                got = noiseless_outcomes(d, u)
                assert got.dtype == np.uint8 and np.array_equal(got, ref)

    def test_channel_allocates_no_wide_copy(self):
        d = bernoulli_design(500, 784, 0.05, 3)
        u = DefectivityVector(tuple(int(i % 50 == 0) for i in range(784)))
        assert traced_peak(run_tests, d, u, NoiseSpec()) < 100_000
        assert traced_peak(run_tests, d, u, NoiseSpec("symmetric", 0.01), 7) < 100_000

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

    @pytest.mark.parametrize("rho", [-0.1, 0.5, 0.7, float("nan"), float("inf")])
    def test_level_outside_range_rejected(self, rho):
        with pytest.raises(ValueError, match=r"rho must lie in \[0, 0.5\)"):
            NoiseSpec.at(rho)

    def test_level_zero_is_noiseless(self):
        assert NoiseSpec.at(0.0) == NoiseSpec.at(0) == NoiseSpec()
        assert NoiseSpec.at(0.01) == NoiseSpec("symmetric", 0.01)

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

    @pytest.mark.parametrize("write", [design_to_json, design_to_csv], ids=["json", "csv"])
    def test_design_with_no_tests_round_trips(self, write):
        back = design_from_text(write(bernoulli_design(0, 3, 0.5, seed=1)))
        assert back.matrix.shape == (0, 3)
        assert (back.bernoulli_p, back.seed) == (0.5, 1)

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

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int8, np.int64, np.float64])
    def test_design_check_agrees_with_isin(self, dtype):
        rng = np.random.default_rng(41)
        values = np.array([0, 1, 0.0, 1.0, -0.0, 0.7, -1, 2, 255, 256, -128,
                           np.nan, np.inf, -np.inf])
        for _ in range(200):
            entries = rng.choice(values, size=(int(rng.integers(0, 4)), int(rng.integers(1, 4))))
            if rng.random() < 0.5:
                entries = np.clip(entries, 0, 1)
            with np.errstate(invalid="ignore"):
                mat = entries.astype(dtype)
            if np.isin(mat, (0, 1)).all():
                assert np.array_equal(TestDesign(mat).matrix, mat)
            else:
                with pytest.raises(ValueError, match="0 or 1"):
                    TestDesign(mat)

    @pytest.mark.parametrize("text", ['{"matrix": [[256, 0]]}', '{"matrix": [[0.7, 1]]}',
                                      "256,0\n", "0,1\n1,256\n"])
    def test_design_text_rejects_entries_other_than_0_or_1(self, text):
        with pytest.raises(ValueError):
            design_from_text(text)

    @pytest.mark.parametrize("text", [
        '{"t": 5, "n": 9, "p": 0.5, "seed": 1, "matrix": [[0, 1], [1, 1]]}',
        '{"t": 2, "n": 3, "matrix": [[0, 1], [1, 1]]}',
        "# t=7 n=3 p=0.5 seed=1 rng=numpy:PCG64\n0,1\n1,1\n",
        "# t=2 n=1\n0,1\n1,1\n",
    ], ids=["json-t-and-n", "json-n", "csv-t-and-n", "csv-n"])
    def test_declared_size_must_match_the_matrix(self, text):
        with pytest.raises(ValueError, match="design declares"):
            design_from_text(text)

    def test_declared_size_is_optional(self):
        for text in ('{"matrix": [[0, 1], [1, 1]]}', "0,1\n1,1\n", "# p=0.5\n0,1\n1,1\n"):
            assert design_from_text(text).matrix.tolist() == [[0, 1], [1, 1]]
