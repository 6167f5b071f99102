import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gtprior
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

    @pytest.mark.parametrize("graph", [
        ["--grid", "3", "3", "--block", "1", "1", "2", "2"],
        ["--grid", "3", "3", "--edge-list", "graph.txt"],
        ["--block", "1", "1", "2", "2", "--edge-list", "graph.txt"],
    ], ids=["grid-block", "grid-edge-list", "block-edge-list"])
    def test_two_graphs_are_usage_error(self, capsys, graph):
        code, _, err = run(capsys, "--seed", "5", "sample-prior", *graph,
                           "--lam", "0.5", "--phi", "0.006")
        assert code == 1
        assert err.startswith("error:") and "not allowed with" in err

    @pytest.mark.parametrize("graph", [["--grid", "3", "3"], ["--block", "1", "1", "2", "2"]])
    def test_subsample_without_edge_list_is_usage_error(self, capsys, graph):
        code, _, err = run(capsys, "--seed", "5", "sample-prior", *graph,
                           "--subsample", "2", "--lam", "0.5", "--phi", "0.006")
        assert code == 1
        assert err.startswith("error:") and "--edge-list" in err


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
        assert isinstance(obj["pivots"], int) and obj["nodes"] >= 1

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

    @pytest.mark.parametrize("body", [
        {"t": 1, "n": 2, "p": 0.5},
        {"matrix": [[0, 1]], "p": "half"},
    ], ids=["no-matrix", "string-p"])
    def test_malformed_design_json_is_usage_error(self, tmp_path, capsys, body):
        dpath = tmp_path / "design.json"
        dpath.write_text(json.dumps(body))
        code, _, err = run(capsys, "decode", "--design", str(dpath),
                           "--outcomes", "0", "--decoder", "sparsity")
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("body", [
        {"matrix": [[0, 1]], "p": [0.5]},
        {"matrix": [[0, 1]], "p": 0.5, "seed": "7"},
        {"matrix": [[256, 0]]},
        {"matrix": [[0.7, 1]]},
        {"matrix": [[True, 0]]},
        {"matrix": [0, 1]},
    ], ids=["list-p", "string-seed", "entry-256", "fractional-entry", "bool-entry",
            "flat-matrix"])
    def test_wrongly_typed_design_value_is_usage_error(self, tmp_path, capsys, body):
        dpath = tmp_path / "design.json"
        dpath.write_text(json.dumps(body))
        code, _, err = run(capsys, "decode", "--design", str(dpath),
                           "--outcomes", "0", "--decoder", "sparsity")
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("cells", ["256,0", "0.7,1", "-1,0"])
    def test_bad_csv_design_entry_is_usage_error(self, tmp_path, capsys, cells):
        dpath = tmp_path / "design.csv"
        dpath.write_text(f"# t=1 n=2\n{cells}\n")
        code, _, err = run(capsys, "decode", "--design", str(dpath),
                           "--outcomes", "0", "--decoder", "sparsity")
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("outcomes", ["[[1]]", "[true, 0]", "[0.7]", "[2]", "2", "0 1"])
    def test_bad_outcomes_are_usage_error(self, tmp_path, capsys, outcomes):
        dpath = tmp_path / "design.json"
        dpath.write_text(json.dumps({"matrix": [[1, 0]]}))
        code, _, err = run(capsys, "decode", "--design", str(dpath),
                           "--outcomes", outcomes, "--decoder", "sparsity")
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    def test_decode_reports_model_shapes(self, tmp_path, capsys):
        # Test 0 = {0, 1} is negative and test 1 = {1, 2} positive: the
        # presolve fixes items 0-2, and item 3, in no test, at its cost's
        # bound 0, leaving nothing.
        dpath = tmp_path / "design.json"
        dpath.write_text(json.dumps({"matrix": [[1, 1, 0, 0], [0, 1, 1, 0]]}))
        code, out, _ = run(capsys, "decode", "--design", str(dpath),
                           "--outcomes", "01", "--decoder", "sparsity")
        assert code == 0
        obj = json.loads(out)
        assert obj["estimate"] == "0010"
        assert obj["model_shape"] == {"rows": 2, "vars": 4, "nnz": 4}
        assert obj["presolved_shape"] == {"rows": 0, "vars": 0, "nnz": 0}
        assert obj["pivots"] == 0  # no row is left for the simplex

    @pytest.mark.parametrize("flags", [
        ["--grid", "3", "3", "--subsample", "2", "--lam", "0.5", "--phi", "0.1"],
        ["--block", "1", "1", "2", "2"], ["--edge-list", "graph.txt"],
        ["--subsample", "2"], ["--lam", "0.5"], ["--phi", "0.1"],
    ], ids=["all", "block", "edge-list", "subsample", "lam", "phi"])
    def test_sparsity_with_prior_flags_is_usage_error(self, tmp_path, capsys, flags):
        dpath = tmp_path / "design.json"
        dpath.write_text(json.dumps({"matrix": [[1, 0]]}))
        code, _, err = run(capsys, "decode", "--design", str(dpath),
                           "--outcomes", "0", "--decoder", "sparsity", *flags)
        assert code == 1
        assert err.startswith("error:") and flags[0] in err

    def test_noisy_sparsity_needs_eta(self, tmp_path, capsys):
        dpath = tmp_path / "design.json"
        run(capsys, "--seed", "9", "--out", str(dpath), "design", "--t", "4",
            "--n", "4", "--p", "0.5")
        code, _, _ = run(capsys, "decode", "--design", str(dpath),
                         "--outcomes", "0000", "--decoder", "sparsity",
                         "--rho", "0.05")
        assert code == 1

    @pytest.mark.parametrize("rho", ["-0.2", "nan"])
    def test_noise_level_outside_range_is_usage_error(self, tmp_path, capsys, rho):
        dpath = tmp_path / "design.json"
        dpath.write_text(json.dumps({"matrix": [[1, 0], [0, 1]]}))
        code, out, err = run(capsys, "decode", "--design", str(dpath), "--outcomes", "10",
                             "--decoder", "sparsity", "--eta", "2", "--rho", rho)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "rho must lie in [0, 0.5)" in err


def test_cli_import_loads_no_scipy():
    # scipy is a test extra only; the program itself stays numpy-only.
    src = str(Path(gtprior.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, gtprior.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("dump", [[], ["--dump-trials"]])
    def test_stdout_matches_out_file(self, tmp_path, capsys, monkeypatch, fmt, dump):
        import gtprior.cli as cli_mod
        from gtprior.harness import ExperimentConfig, run_experiment

        config = self.config_file(tmp_path)
        report = run_experiment(ExperimentConfig.from_json_file(config))
        monkeypatch.setattr(cli_mod, "run_experiment", lambda cfg: report)
        code, out, _ = run(capsys, "--format", fmt, "experiment", "--config",
                           config, *dump)
        assert code == 0
        path = tmp_path / "report"
        code, _, _ = run(capsys, "--format", fmt, "--out", str(path),
                         "experiment", "--config", config, *dump)
        assert code == 0
        assert out.encode() == path.read_bytes()

    @pytest.mark.parametrize("command, values", [("mismatch-graph", "--fractions"),
                                                 ("mismatch-lambda", "--lambdas")])
    def test_mismatch_rejects_dump_trials(self, tmp_path, capsys, command, values):
        code, _, err = run(capsys, command, "--config", self.config_file(tmp_path),
                           values, "0", "--dump-trials")
        assert code == 1 and "--dump-trials" in err

    @pytest.mark.parametrize("edit", [
        lambda c: {**c, "trails": 3},
        lambda c: {**c, "graph": {"kind": "grid", "colz": 2}},
        lambda c: {k: v for k, v in c.items() if k != "graph"},
        lambda c: [1, 2, 3],
    ], ids=["unknown-key", "unknown-graph-key", "missing-graph", "array"])
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, edit):
        path = Path(self.config_file(tmp_path))
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        code, _, err = run(capsys, "experiment", "--config", str(path))
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        {"decoders": [{"family": "sparsity", "relaxed": "no"}]},
        {"trials": "3"},
        {"tests": 60},
    ], ids=["relaxed-str", "trials-str", "tests-int"])
    def test_wrongly_typed_config_value_is_usage_error(self, tmp_path, capsys, edit):
        path = Path(self.config_file(tmp_path))
        path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
        code, _, err = run(capsys, "experiment", "--config", str(path))
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

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
