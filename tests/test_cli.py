import json
import math

import numpy as np
import pytest

from gtprior.cli import main
from gtprior.testing import design_from_text


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDesignCommand:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "--seed", "3", "design", "--t", "4",
                           "--n", "6", "--p", "0.25")
        assert code == 0
        obj = json.loads(out)
        assert obj["t"] == 4 and obj["n"] == 6 and obj["rng"] == "numpy:PCG64"

    def test_csv_file_output(self, tmp_path, capsys):
        path = tmp_path / "design.csv"
        code, _, _ = run(capsys, "--seed", "3", "--out", str(path),
                         "--format", "csv", "design", "--t", "3", "--n", "5",
                         "--p", "0.5")
        assert code == 0
        design = design_from_text(path.read_text())
        assert design.t == 3 and design.n == 5

    def test_usage_error_exit_1(self, capsys):
        code, _, err = run(capsys, "design", "--t", "4")  # missing --n/--p
        assert code == 1


class TestSamplePriorCommand:
    def test_grid_sample(self, capsys):
        code, out, _ = run(capsys, "--seed", "5", "sample-prior", "--grid", "3",
                           "3", "--lam", "0.5", "--phi", "0.006",
                           "--sweeps", "50")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["bits"]) == 9 and set(obj["bits"]) <= {"0", "1"}

    def test_extreme_field(self, capsys):
        code, out, _ = run(capsys, "--seed", "1", "sample-prior", "--grid", "3",
                           "3", "--lam", "0.1", "--phi", "400",
                           "--sweeps", "10")
        assert code == 0
        assert json.loads(out)["bits"] == "0" * 9

    def test_missing_graph_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "sample-prior", "--lam", "1", "--phi", "1")
        assert code == 1


class TestDecodeCommand:
    def test_round_trip(self, tmp_path, capsys):
        dpath = tmp_path / "design.json"
        run(capsys, "--seed", "9", "--out", str(dpath), "design", "--t", "8",
            "--n", "9", "--p", "0.3")
        design = design_from_text(dpath.read_text())
        truth = np.zeros(9, dtype=np.uint8)
        truth[[1, 4]] = 1
        y = (design.matrix @ truth >= 1).astype(int)
        ystr = "".join(str(v) for v in y)
        code, out, _ = run(capsys, "decode", "--design", str(dpath),
                           "--outcomes", ystr, "--decoder", "ising-map",
                           "--grid", "3", "3", "--lam", "0.5", "--phi", "0.1")
        assert code == 0
        obj = json.loads(out)
        assert obj["solver_status"] == "optimal"
        assert len(obj["estimate"]) == 9

    def test_outcomes_from_file(self, tmp_path, capsys):
        dpath = tmp_path / "design.json"
        run(capsys, "--seed", "9", "--out", str(dpath), "design", "--t", "4",
            "--n", "4", "--p", "0.5")
        ypath = tmp_path / "y.txt"
        ypath.write_text("0000")
        code, out, _ = run(capsys, "decode", "--design", str(dpath),
                           "--outcomes", f"@{ypath}", "--decoder", "sparsity")
        assert code == 0
        assert json.loads(out)["estimate"] == "0000"

    def test_noisy_sparsity_needs_eta(self, tmp_path, capsys):
        dpath = tmp_path / "design.json"
        run(capsys, "--seed", "9", "--out", str(dpath), "design", "--t", "4",
            "--n", "4", "--p", "0.5")
        code, _, _ = run(capsys, "decode", "--design", str(dpath),
                         "--outcomes", "0000", "--decoder", "sparsity",
                         "--rho", "0.05")
        assert code == 1


class TestBoundsCommand:
    def test_point_query(self, capsys):
        code, out, _ = run(capsys, "bounds", "--alpha-star", "0.1", "--beta",
                           "0.5", "--nu", str(math.log(2)))
        assert code == 0
        obj = json.loads(out)
        assert obj["coefficient"] == pytest.approx(0.8105032108421304)
        assert obj["converse"] == pytest.approx(0.4)

    def test_grid_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "bounds", "--grid",
                           "0.5,1.0")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3 and lines[0].startswith("alpha_star")

    def test_missing_args(self, capsys):
        code, _, _ = run(capsys, "bounds")
        assert code == 1


class TestExperimentCommands:
    def config_file(self, tmp_path):
        config = {
            "graph": {"kind": "grid", "rows": 2, "cols": 2},
            "lam": 0.4, "phi": 0.1, "truth_sweeps": 100,
            "tests": [5], "p": None, "rho": [0.0],
            "decoders": [{"family": "sparsity"}],
            "trials": 2, "base_seed": 4,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return str(path)

    def test_experiment_csv(self, tmp_path, capsys):
        code, out, _ = run(capsys, "--format", "csv", "experiment",
                           "--config", self.config_file(tmp_path))
        assert code == 0
        assert out.startswith("t,rho,decoder,relaxed,")

    def test_mismatch_graph_blocks(self, tmp_path, capsys):
        code, out, _ = run(capsys, "--format", "csv", "mismatch-graph",
                           "--config", self.config_file(tmp_path),
                           "--fractions", "0,0.5")
        assert code == 0
        assert out.count("# fraction=") == 2

    def test_mismatch_lambda_blocks(self, tmp_path, capsys):
        code, out, _ = run(capsys, "--format", "csv", "mismatch-lambda",
                           "--config", self.config_file(tmp_path),
                           "--lambdas", "0.1,0.4")
        assert code == 0
        assert out.count("# lambda=") == 2

    def test_config_required(self, capsys):
        code, _, _ = run(capsys, "experiment")
        assert code == 1

    def test_missing_file_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "experiment", "--config", "/nonexistent.json")
        assert code == 1


class TestExitCodes:
    def test_numerical_failure_maps_to_2(self, monkeypatch, capsys):
        import gtprior.cli as cli_mod
        from gtprior.milp import NumericalError

        def boom(args):
            raise NumericalError("synthetic")

        monkeypatch.setattr(cli_mod, "_cmd_bounds", boom)
        code, _, err = run(capsys, "bounds", "--alpha-star", "0.5", "--beta",
                           "0.5")
        assert code == 2
        assert "numerical failure" in err
