import json
import re
from pathlib import Path

import numpy as np
import pytest

from gtprior import harness
from gtprior.core import DefectivityVector
from gtprior.decoders import DecodeResult
from gtprior.harness import (CSV_COLUMNS, AggregateRow, DecoderConfig,
                             ExperimentConfig, ExperimentReport, GraphConfig,
                             PRESETS, TrialRecord, blocks_csv, emit,
                             report_csv, report_json, run_experiment,
                             run_graph_mismatch, run_lambda_mismatch,
                             sample_truth, trials_csv)
from gtprior.rng import derive_seed
from gtprior.testing import TestDesign


def small_config(**overrides):
    base = dict(
        graph=GraphConfig(kind="grid", rows=2, cols=3),
        lam=0.4,
        phi=0.1,
        truth_sweeps=200,
        tests=(8,),
        p=None,
        rho=(0.0,),
        # explicit eta: tiny dense truths leave the k/n default undefined
        decoders=(DecoderConfig("sparsity", eta=2.0), DecoderConfig("ising_map")),
        trials=3,
        base_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def identity_factory(t, n, p, seed):
    assert t == n
    return TestDesign(np.eye(n, dtype=np.uint8), bernoulli_p=p, seed=seed)


def node_limited_decode(spec, design, y):
    """A decode that hit its node limit with an all-zero incumbent."""
    estimate = DefectivityVector((0,) * design.n)
    return DecodeResult(estimate, 0.0, "node_limit", 7, 0.0, spec)


class TestRunExperiment:
    def test_identity_design_is_exact(self, monkeypatch):
        monkeypatch.setattr(harness, "bernoulli_design", identity_factory)
        config = small_config(tests=(6,), decoders=(DecoderConfig("sparsity"),),
                              trials=1, base_seed=3)
        report = run_experiment(config)
        row = report.rows[0]
        assert row.fp_rate == 0.0 and row.fn_rate == 0.0

    def test_reproducible_body(self):
        config = small_config(rho=(0.0, 0.01), trials=2)
        a = run_experiment(config)
        b = run_experiment(config)
        assert report_csv(a, include_times=False) == \
            report_csv(b, include_times=False)
        assert report_json(a, include_times=False) == \
            report_json(b, include_times=False)

    def test_design_shared_across_decoders_and_noise(self):
        config = small_config(rho=(0.0, 0.01), trials=2)
        report = run_experiment(config)
        by_trial = {}
        for rec in report.trial_records:
            by_trial.setdefault((rec.t, rec.trial), set()).add(rec.design_seed)
        for seeds in by_trial.values():
            assert len(seeds) == 1  # identical across decoders and rho
        # and the seed matches the documented derivation
        for rec in report.trial_records:
            assert rec.design_seed == derive_seed(config.base_seed, "design",
                                                  rec.trial)

    def test_means_match_trial_records(self):
        config = small_config(trials=4)
        report = run_experiment(config)
        for row in report.rows:
            recs = [r for r in report.trial_records
                    if (r.t, r.rho, r.decoder, r.relaxed) ==
                    (row.t, row.rho, row.decoder, row.relaxed)]
            assert len(recs) == config.trials == row.trials
            assert row.fp_rate == pytest.approx(np.mean([r.fp_rate for r in recs]))
            assert row.fn_rate == pytest.approx(np.mean([r.fn_rate for r in recs]))

    def test_ising_fn_no_worse_than_sparsity(self):
        # Paired trials on a 3x3 grid at the default grid parameters.
        config = ExperimentConfig(
            graph=GraphConfig(kind="grid", rows=3, cols=3),
            lam=0.5, phi=0.006, truth_sweeps=500, tests=(20,), p=None,
            rho=(0.0,),
            decoders=(DecoderConfig("sparsity"), DecoderConfig("ising_map")),
            trials=20, base_seed=2)
        report = run_experiment(config)
        fn = {row.decoder: row.fn_rate for row in report.rows}
        assert fn["ising_map"] <= fn["sparsity"] + 1e-12

    def test_node_limit_incumbent_is_a_failure(self, monkeypatch):
        monkeypatch.setattr(harness, "decode", node_limited_decode)
        report = run_experiment(small_config(trials=2))
        assert all(r.status == "failed:node_limit"
                   for r in report.trial_records)
        assert all(r.fp_rate == r.fn_rate == 1.0 for r in report.trial_records)
        assert all(row.failures == row.trials == 2 for row in report.rows)

    def test_failures_reach_the_summary_csv(self, monkeypatch):
        monkeypatch.setattr(harness, "decode", node_limited_decode)
        lines = report_csv(run_experiment(small_config(trials=1))).splitlines()
        assert lines[0].split(",")[-1] == "failures"
        assert len(lines) == 3
        assert all(line.split(",")[-1] == "1" for line in lines[1:])

    def test_zero_defective_truth_needs_explicit_p(self):
        config = small_config(phi=8.0, base_seed=1)  # heavily sparse prior
        if sample_truth(config).k == 0:
            with pytest.raises(ValueError):
                run_experiment(config)
        explicit = small_config(phi=8.0, base_seed=1, p=0.3)
        report = run_experiment(explicit)
        assert report.rows  # runs fine with explicit p

    def test_metadata_records_rng_and_config(self):
        config = small_config(trials=1)
        report = run_experiment(config)
        assert report.metadata["rng"] == "numpy:PCG64"
        assert report.metadata["config"]["trials"] == 1


class TestMismatch:
    def test_fraction_zero_identical_to_baseline(self):
        config = small_config(trials=2)
        baseline = run_experiment(config)
        blocks = run_graph_mismatch(config, [0.0, 0.25])
        assert blocks[0][0] == 0.0
        assert report_csv(blocks[0][1], include_times=False) == \
            report_csv(baseline, include_times=False)
        assert len(blocks) == 2

    def test_graph_mismatch_same_trial_seeds(self):
        config = small_config(trials=2)
        blocks = run_graph_mismatch(config, [0.0, 0.25, 0.5])
        seeds = [tuple(r.design_seed for r in rep.trial_records)
                 for _, rep in blocks]
        assert seeds[0] == seeds[1] == seeds[2]

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            run_graph_mismatch(small_config(), [0.75])

    @pytest.mark.parametrize("sweep, values", [
        (run_graph_mismatch, [0.0, 0.75]),
        (run_lambda_mismatch, [0.5, -1.0]),
    ])
    def test_every_value_checked_before_the_first_run(self, monkeypatch, sweep,
                                                      values):
        calls = []
        monkeypatch.setattr(harness, "run_experiment",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError):
            sweep(small_config(), values)
        assert calls == []

    def test_lambda_match_is_baseline(self):
        config = small_config(trials=2)
        baseline = run_experiment(config)
        blocks = run_lambda_mismatch(config, [config.lam])
        assert report_csv(blocks[0][1], include_times=False) == \
            report_csv(baseline, include_times=False)

    def test_lambda_grid_structure(self):
        blocks = run_lambda_mismatch(small_config(trials=1), [0.01, 0.4, 2.0])
        assert [v for v, _ in blocks] == [0.01, 0.4, 2.0]

    def test_blocks_csv_labels(self):
        blocks = run_lambda_mismatch(small_config(trials=1), [0.4])
        text = blocks_csv(blocks, "lambda")
        assert text.startswith("# lambda=0.4")

    def trend_config(self):
        return ExperimentConfig(
            graph=GraphConfig(kind="grid", rows=4, cols=4),
            lam=0.5, phi=0.006, truth_sweeps=500, tests=(10,), p=None,
            rho=(0.0,), decoders=(DecoderConfig("ising_map"),),
            trials=10, base_seed=5)

    def test_graph_mismatch_degrades_gracefully(self):
        # Paired trials: FN at fraction 0 <= FN at fraction 0.5 (non-strict).
        blocks = run_graph_mismatch(self.trend_config(), [0.0, 0.5])
        assert blocks[0][1].rows[0].fn_rate <= blocks[1][1].rows[0].fn_rate + 1e-12

    def test_lambda_overestimate_does_not_reduce_fn(self):
        # FN non-decreasing from the true lambda to 4x the true lambda.
        blocks = run_lambda_mismatch(self.trend_config(), [0.5, 2.0])
        assert blocks[0][1].rows[0].fn_rate <= blocks[1][1].rows[0].fn_rate + 1e-12


class TestEmission:
    def test_header_only_for_empty_report(self):
        from gtprior.harness import ExperimentReport
        empty = ExperimentReport((), (), {})
        assert report_csv(empty) == ",".join(CSV_COLUMNS) + "\n"

    def test_csv_round_trip(self, tmp_path):
        config = small_config(trials=1)
        report = run_experiment(config)
        path = tmp_path / "report.csv"
        emit(report, "csv", str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        first = dict(zip(CSV_COLUMNS, lines[1].split(",")))
        row = report.rows[0]
        assert int(first["t"]) == row.t
        assert float(first["fp_rate"]) == row.fp_rate
        assert float(first["fn_rate"]) == row.fn_rate
        assert int(first["trials"]) == row.trials

    def test_json_round_trip(self, tmp_path):
        config = small_config(trials=1)
        report = run_experiment(config)
        path = tmp_path / "report.json"
        emit(report, "json", str(path), include_trials=True)
        obj = json.loads(path.read_text())
        assert len(obj["rows"]) == len(report.rows)
        assert len(obj["trials"]) == len(report.trial_records)
        assert obj["metadata"]["rng"] == "numpy:PCG64"

    def test_row_count_audit(self):
        config = small_config(tests=(6, 8), rho=(0.0, 0.01), trials=1)
        report = run_experiment(config)
        assert len(report.rows) == 2 * 2 * len(config.decoders)

    def test_trials_csv_has_status(self):
        report = run_experiment(small_config(trials=1))
        assert "status" in trials_csv(report).splitlines()[0]


class TestReportFormat:
    """Exact report bodies of a hand-built two-row, two-trial report."""

    report = ExperimentReport(
        rows=(AggregateRow(8, 0.0, "sparsity", False, 0.25, 0.0, 0.5, 1, 0),
              AggregateRow(8, 0.01, "ising_map", True, 1.0, 1.0, 0.125, 1, 1)),
        trial_records=(
            TrialRecord(8, 0.0, "sparsity", False, 0, 1, 0, 0.25, 0.0, 0.5,
                        "ok", 123),
            TrialRecord(8, 0.01, "ising_map", True, 0, 0, 0, 1.0, 1.0, 0.125,
                        "failed:node_limit", 123)),
        metadata={"n": 4, "rng": "numpy:PCG64"})
    rows = [
        {"t": 8, "rho": 0.0, "decoder": "sparsity", "relaxed": False,
         "fp_rate": 0.25, "fn_rate": 0.0, "time_s": 0.5, "trials": 1,
         "failures": 0},
        {"t": 8, "rho": 0.01, "decoder": "ising_map", "relaxed": True,
         "fp_rate": 1.0, "fn_rate": 1.0, "time_s": 0.125, "trials": 1,
         "failures": 1},
    ]
    trials = [
        {"t": 8, "rho": 0.0, "decoder": "sparsity", "relaxed": False,
         "trial": 0, "fp": 1, "fn": 0, "fp_rate": 0.25, "fn_rate": 0.0,
         "time_s": 0.5, "status": "ok", "design_seed": 123},
        {"t": 8, "rho": 0.01, "decoder": "ising_map", "relaxed": True,
         "trial": 0, "fp": 0, "fn": 0, "fp_rate": 1.0, "fn_rate": 1.0,
         "time_s": 0.125, "status": "failed:node_limit", "design_seed": 123},
    ]

    @staticmethod
    def body(rows, trials):
        return json.dumps({"rows": rows,
                           "metadata": {"n": 4, "rng": "numpy:PCG64"},
                           "trials": trials}, indent=2) + "\n"

    def test_json_with_trials(self):
        assert report_json(self.report, include_trials=True) == \
            self.body(self.rows, self.trials)

    def test_json_without_times(self):
        def untimed(dicts):
            return [{k: v for k, v in d.items() if k != "time_s"} for d in dicts]

        assert report_json(self.report, include_trials=True,
                           include_times=False) == \
            self.body(untimed(self.rows), untimed(self.trials))

    def test_trials_csv(self):
        assert trials_csv(self.report) == (
            "t,rho,decoder,relaxed,trial,fp,fn,fp_rate,fn_rate,time_s,status,"
            "design_seed\n"
            "8,0.0,sparsity,0,0,1,0,0.25,0.0,0.5,ok,123\n"
            "8,0.01,ising_map,1,0,0,0,1.0,1.0,0.125,failed:node_limit,123\n")

    def test_summary_csv(self):
        assert report_csv(self.report) == (
            "t,rho,decoder,relaxed,fp_rate,fn_rate,time_s,trials,failures\n"
            "8,0.0,sparsity,0,0.25,0.0,0.5,1,0\n"
            "8,0.01,ising_map,1,1.0,1.0,0.125,1,1\n")
        assert report_csv(self.report, include_times=False) == (
            "t,rho,decoder,relaxed,fp_rate,fn_rate,trials,failures\n"
            "8,0.0,sparsity,0,0.25,0.0,1,0\n"
            "8,0.01,ising_map,1,1.0,1.0,1,1\n")


class TestConfigIO:
    def test_json_file_round_trip(self, tmp_path):
        config = small_config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        back = ExperimentConfig.from_json_file(str(path))
        assert back == config

    def test_presets_parse(self):
        for name, preset in PRESETS.items():
            config = ExperimentConfig.from_dict(preset)
            assert config.trials >= 1

    @pytest.mark.parametrize("obj, names", [
        ({**PRESETS["ci-grid-10"], "trails": 3}, "'trails'"),
        ({**PRESETS["ci-grid-10"], "graph": {"kind": "grid", "colz": 3}}, "'colz'"),
        ({k: v for k, v in PRESETS["ci-grid-10"].items() if k != "graph"}, "'graph'"),
        ([1, 2, 3], "JSON object"),
        ({**PRESETS["ci-grid-10"], "decoders": [{"family": "sparsity", "eat": 1}]},
         "'eat'"),
    ], ids=["unknown-key", "unknown-graph-key", "missing-graph", "array",
            "unknown-decoder-key"])
    def test_malformed_config_is_a_value_error(self, obj, names):
        with pytest.raises(ValueError, match=names):
            ExperimentConfig.from_dict(obj)

    @pytest.mark.parametrize("edit, message", [
        ({"decoders": [{"family": "sparsity", "relaxed": "no"}]},
         "DecoderConfig.relaxed must be bool, not str"),
        ({"trials": "3"}, "ExperimentConfig.trials must be int, not str"),
        ({"trials": True}, "ExperimentConfig.trials must be int, not bool"),
        ({"tests": 60}, "ExperimentConfig.tests must be a list, not int"),
        ({"tests": [60.5]}, r"ExperimentConfig.tests\[0\] must be int"),
        ({"lam": "0.5"}, "ExperimentConfig.lam must be float, not str"),
        ({"graph": {"kind": "grid", "rows": 10.0, "cols": 10}},
         "GraphConfig.rows must be int, not float"),
        ({"graph": "grid"}, "ExperimentConfig.graph must be a JSON object"),
    ], ids=["bool-from-str", "int-from-str", "int-from-bool", "tuple-from-int",
            "int-element-from-float", "float-from-str", "graph-int-from-float",
            "graph-from-str"])
    def test_wrongly_typed_config_value_is_a_value_error(self, edit, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict({**PRESETS["ci-grid-10"], **edit})

    @pytest.mark.parametrize("edit, message", [
        ({"tests": (6.7,)}, r"ExperimentConfig.tests\[0\] must be int, not float"),
        ({"tests": (True,)}, r"ExperimentConfig.tests\[0\] must be int, not bool"),
        ({"rho": ("0.01",)}, r"ExperimentConfig.rho\[0\] must be float, not str"),
        ({"rho": (False,)}, r"ExperimentConfig.rho\[0\] must be float, not bool"),
        ({"lam": "0.5"}, "ExperimentConfig.lam must be float, not str"),
        ({"base_seed": 1.5}, "ExperimentConfig.base_seed must be int, not float"),
        ({"trials": True}, "ExperimentConfig.trials must be int, not bool"),
        ({"p": "x"}, "ExperimentConfig.p must be float, not str"),
        ({"truth_sweeps": 10.0}, "ExperimentConfig.truth_sweeps must be int, not float"),
    ], ids=["tests-float", "tests-bool", "rho-str", "rho-bool", "lam-str",
            "base-seed-float", "trials-bool", "p-str", "truth-sweeps-float"])
    def test_python_built_config_values_are_not_cast(self, edit, message):
        fields = {**PRESETS["ci-grid-10"], **edit}
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**fields)

    @pytest.mark.parametrize("edit, message", [
        ({"tests": [8, -1]}, r"tests must be >= 0"),
        ({"p": 1.5}, r"p must lie in \[0, 1\]"),
        ({"p": -0.1}, r"p must lie in \[0, 1\]"),
        ({"p": float("nan")}, r"p must lie in \[0, 1\]"),
        ({"rho": [0.0, 0.7]}, r"rho must lie in \[0, 0.5\)"),
        ({"rho": [-0.1]}, r"rho must lie in \[0, 0.5\)"),
        ({"rho": [float("nan")]}, r"rho must lie in \[0, 0.5\)"),
        ({"truth_sweeps": 0}, r"truth_sweeps must be >= 1"),
    ], ids=["tests-negative", "p-above-1", "p-negative", "p-nan", "rho-0.7",
            "rho-negative", "rho-nan", "truth-sweeps-0"])
    def test_out_of_range_value_is_rejected_before_any_work(self, monkeypatch, edit,
                                                             message):
        calls = []
        for name in ("sample_truth", "bernoulli_design", "run_tests", "decode"):
            def counted(*args, _name=name, _real=getattr(harness, name)):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(harness, name, counted)
        # Through JSON text, which parses NaN.
        text = json.dumps({**small_config().to_dict(), **edit})
        with pytest.raises(ValueError, match=message):
            run_experiment(ExperimentConfig.from_dict(json.loads(text)))
        with pytest.raises(ValueError, match=message):
            small_config(**{k: tuple(v) if isinstance(v, list) else v
                            for k, v in edit.items()})
        assert calls == []

    @pytest.mark.parametrize("cls, kwargs, message", [
        (GraphConfig, {"kind": "grid", "rows": 3.5, "cols": 3},
         "GraphConfig.rows must be int, not float"),
        (DecoderConfig, {"family": "sparsity", "relaxed": "no"},
         "DecoderConfig.relaxed must be bool, not str"),
        (DecoderConfig, {"family": "sparsity", "eta": "1"},
         "DecoderConfig.eta must be float, not str"),
    ], ids=["graph-rows-float", "decoder-relaxed-str", "decoder-eta-str"])
    def test_python_built_graph_and_decoder_values_are_not_cast(self, cls, kwargs,
                                                                message):
        with pytest.raises(ValueError, match=message):
            cls(**kwargs)

    def test_numpy_ints_are_stored_as_python_ints(self):
        config = ExperimentConfig(**{**PRESETS["ci-grid-10"], "tests": (np.int64(60),),
                                     "graph": GraphConfig("grid", rows=np.int64(3), cols=3)})
        assert type(config.tests[0]) is int and type(config.graph.rows) is int
        assert json.loads(json.dumps(config.to_dict()))["graph"]["rows"] == 3

    @pytest.mark.parametrize("graph, names", [
        ({"kind": "grid", "rows": 10, "cols": 10, "path": "x.txt", "block_rows": 7},
         "'block_rows', 'path'"),
        ({"kind": "edge_list", "path": "graph.txt", "rows": 3}, "'rows'"),
    ], ids=["grid-with-path-and-block-rows", "edge-list-with-rows"])
    def test_graph_field_of_another_kind_is_a_value_error(self, graph, names):
        with pytest.raises(ValueError, match=f"a {graph['kind']} graph takes no .*{names}"):
            ExperimentConfig.from_dict({**PRESETS["ci-grid-10"], "graph": graph})
        with pytest.raises(ValueError, match=names):
            GraphConfig(**graph)

    def test_config_types_accept_json_forms(self):
        config = ExperimentConfig.from_dict({**PRESETS["ci-grid-10"], "lam": 1,
                                             "rho": [0, 0.01], "p": 0.05})
        assert config.lam == 1 and config.rho == (0.0, 0.01) and config.p == 0.05
        assert config.tests == (60,) and isinstance(config.decoders, tuple)

    def test_readme_schema_example_round_trips(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"### Experiment config schema\n\n```json\n(.*?)```",
                          readme, re.S).group(1)
        example = json.loads(block)
        config = ExperimentConfig.from_dict(example)
        assert ExperimentConfig.from_dict(config.to_dict()) == config
        assert list(config.to_dict()) == list(example)
        assert config.to_dict()["graph"] == example["graph"]


DECODER_NULLS = """\
      "eta": null,
      "lam": null,
      "phi": null"""

SCHEMA_PINS = {
    "ci-grid-10": (ExperimentConfig.from_dict(PRESETS["ci-grid-10"]), """\
{
  "graph": {
    "kind": "grid",
    "rows": 10,
    "cols": 10
  },
  "lam": 0.5,
  "phi": 0.006,
  "truth_sweeps": 1000,
  "tests": [
    60
  ],
  "p": null,
  "rho": [
    0.0
  ],
  "decoders": [
    {
      "family": "sparsity",
      "relaxed": false,
""" + DECODER_NULLS + """
    },
    {
      "family": "ising_map",
      "relaxed": false,
""" + DECODER_NULLS + """
    }
  ],
  "trials": 10,
  "base_seed": 5
}"""),
    "block": (ExperimentConfig(
        graph=GraphConfig(kind="block", blocks_r=2, blocks_c=3, block_rows=4,
                          block_cols=5),
        lam=0.6, phi=0.035, tests=(20, 40),
        decoders=(DecoderConfig("ising_map", relaxed=True, eta=1.5, lam=0.3),)), """\
{
  "graph": {
    "kind": "block",
    "blocks_r": 2,
    "blocks_c": 3,
    "block_rows": 4,
    "block_cols": 5
  },
  "lam": 0.6,
  "phi": 0.035,
  "truth_sweeps": 1000,
  "tests": [
    20,
    40
  ],
  "p": null,
  "rho": [
    0.0
  ],
  "decoders": [
    {
      "family": "ising_map",
      "relaxed": true,
      "eta": 1.5,
      "lam": 0.3,
      "phi": null
    }
  ],
  "trials": 1,
  "base_seed": 0
}"""),
    "edge-list-subsample": (ExperimentConfig(
        graph=GraphConfig(kind="edge_list", path="graph.txt", subsample=12),
        lam=1, phi=0.5, tests=(8,), p=0.25, rho=(0.0, 0.01),
        decoders=(DecoderConfig("sparsity", phi=2.0),), trials=4, base_seed=9), """\
{
  "graph": {
    "kind": "edge_list",
    "path": "graph.txt",
    "subsample": 12
  },
  "lam": 1,
  "phi": 0.5,
  "truth_sweeps": 1000,
  "tests": [
    8
  ],
  "p": 0.25,
  "rho": [
    0.0,
    0.01
  ],
  "decoders": [
    {
      "family": "sparsity",
      "relaxed": false,
      "eta": null,
      "lam": null,
      "phi": 2.0
    }
  ],
  "trials": 4,
  "base_seed": 9
}"""),
    "edge-list": (ExperimentConfig.from_dict({
        "graph": {"kind": "edge_list", "path": "graph.txt"}, "lam": 0.5,
        "phi": 0.1, "tests": [8], "decoders": [{"family": "sparsity"}]}), """\
{
  "graph": {
    "kind": "edge_list",
    "path": "graph.txt",
    "subsample": null
  },
  "lam": 0.5,
  "phi": 0.1,
  "truth_sweeps": 1000,
  "tests": [
    8
  ],
  "p": null,
  "rho": [
    0.0
  ],
  "decoders": [
    {
      "family": "sparsity",
      "relaxed": false,
""" + DECODER_NULLS + """
    }
  ],
  "trials": 1,
  "base_seed": 0
}"""),
}


@pytest.mark.parametrize("name", sorted(SCHEMA_PINS))
def test_config_json_text_is_pinned(name):
    config, text = SCHEMA_PINS[name]
    assert json.dumps(config.to_dict(), indent=2) == text
