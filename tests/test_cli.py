import dataclasses
import json
import math
import os

import numpy as np
import pytest

from latindex import cli
from latindex.config import MIN_SIMULATED_UNITS, SimulateSettings, load_config
from latindex.errors import ValidationError
from latindex.serialize import read_delimited
from latindex.simulate import generate_fixture


@pytest.fixture
def pipeline_config(tmp_path):
    cfg = {
        "survey_path": str(tmp_path / "survey.csv"),
        "province_path": str(tmp_path / "provinces.csv"),
        "frame_path": str(tmp_path / "frame.csv"),
        "output_dir": str(tmp_path / "out"),
        "simulate": {"seed": 21, "n_units": 400},
        "em": {"max_iter": 500, "tol": 1e-6, "ridge": 1e-4},
        "ebp": {"B": 40, "seed": 5, "statistic": "median", "rescale_estimates": False},
        "lqmm": {"taus": [0.5], "bootstrap_B": 50, "seed": 9, "restarts": 2},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run(command, config_path):
    return cli.main([command, "--config", config_path])


def corrupt(path, line, column, value, blank_lines=0):
    """Set one field of a comma-delimited file and put blank lines above its row.

    line counts from 1 (the header). Returns the line the edited row moves to.
    """
    lines = open(path).read().splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    fields = lines[line - 1].rstrip("\n").split(",")
    fields[header.index(column)] = value
    lines[line - 1 : line] = ["\n"] * blank_lines + [",".join(fields) + "\n"]
    open(path, "w").writelines(lines)
    return line + blank_lines


def assert_validation_error(capsys, *names):
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and "Traceback" not in err
    for name in names:
        assert name in err


class TestShowConfig:
    def test_prints_full_defaults(self, capsys):
        assert cli.main(["show-config"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["quadrature_order"] == 61
        assert doc["em"] == {"max_iter": 500, "tol": 1e-06, "ridge": 0.0001}
        assert doc["lqmm"]["taus"] == [0.25, 0.5, 0.75]
        assert doc["ebp"]["B"] == 500

    def test_unknown_config_key_fails_validation(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"no_such_key": 1}')
        assert cli.main(["show-config", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"lqmm": {"taus": [0.5',  # truncated file
            '{"lqmm": {"taus": [0.5, "high"]}}',
            '{"lqmm": {"bootstrap_B": 10}}',
            '{"ebp": {"B": 0}}',
            '{"quadrature_order": "61"}',
            '{"em": {"tol": "x"}}',
            '{"lqmm": {"taus": []}}',
            '{"lqmm": {"restarts": 0}}',
            '{"em": {"max_iter": 0}}',
            '{"simulate": {"n_units": 100}}',
            '{"simulate": {"n_units": "x"}}',
            '{"simulate": {"n_units": 1.5e3}}',
            '{"quadrature_order": true}',
            '{"lqmm": {"seed": true}}',
            '{"ebp": {"seed": -1}}',
            '{"lqmm": {"seed": -1}}',
            '{"simulate": {"seed": -1}}',
            '{"flags": {"reml": "no"}}',
            '{"flags": {"weighted_summaries": 1}}',
            '{"ebp": {"rescale_estimates": null}}',
            '{"output_dir": 5}',
            '{"lqmm": {"taus": [0.25, 0.25]}}',
            '{"lqmm": {"taus": [0.5, 0.5000001]}}',
        ],
        ids=[
            "truncated-json",
            "non-numeric-tau",
            "bootstrap-B-below-50",
            "ebp-B-zero",
            "string-quadrature-order",
            "string-em-tol",
            "empty-taus",
            "restarts-zero",
            "em-max-iter-zero",
            "n-units-below-floor",
            "string-n-units",
            "float-n-units",
            "bool-quadrature-order",
            "bool-seed",
            "negative-ebp-seed",
            "negative-lqmm-seed",
            "negative-simulate-seed",
            "string-reml-flag",
            "int-weighted-summaries-flag",
            "null-rescale-estimates-flag",
            "int-output-dir",
            "repeated-tau",
            "taus-sharing-a-file-tag",
        ],
    )
    def test_bad_config_exits_2_without_traceback(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert cli.main(["show-config", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("validation error: ")

    def test_taus_sharing_a_file_tag_are_named(self, tmp_path, capsys):
        # fit-lqmm names its files by f"{tau:g}": these two would write one set.
        path = tmp_path / "bad.json"
        path.write_text('{"lqmm": {"taus": [0.25, 0.5, 0.5000001]}}')
        assert cli.main(["show-config", "--config", str(path)]) == 2
        assert "file tag(s) 0.5\n" in capsys.readouterr().err

    def test_removed_quantile_base_flag_is_an_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "old.json"
        path.write_text('{"flags": {"quantile_base": "rates"}}')
        assert cli.main(["show-config", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "validation error: unknown config key(s): quantile_base\n"


class TestSimulateAndFeatures:
    def test_fixture_floor_is_the_config_floor(self):
        generate_fixture(SimulateSettings(n_units=MIN_SIMULATED_UNITS))
        with pytest.raises(ValidationError, match=f"at least {MIN_SIMULATED_UNITS}"):
            generate_fixture(SimulateSettings(n_units=MIN_SIMULATED_UNITS - 1))

    def test_simulate_writes_three_files(self, pipeline_config):
        assert run("simulate", pipeline_config) == 0
        cfg = load_config(pipeline_config)
        for path in (cfg.survey_path, cfg.province_path, cfg.frame_path):
            assert os.path.exists(path)
        header, rows = read_delimited(cfg.province_path)
        assert len(rows) == 110

    def test_simulate_is_deterministic(self, pipeline_config):
        cfg = load_config(pipeline_config)
        assert run("simulate", pipeline_config) == 0
        first = open(cfg.survey_path, "rb").read()
        assert run("simulate", pipeline_config) == 0
        assert open(cfg.survey_path, "rb").read() == first

    def test_features_emits_13_items(self, pipeline_config):
        assert run("simulate", pipeline_config) == 0
        assert run("features", pipeline_config) == 0
        cfg = load_config(pipeline_config)
        header, rows = read_delimited(os.path.join(cfg.output_dir, "items.csv"))
        assert len(header) == 2 + 13
        assert header[2:6] == ["foreign_0.25", "foreign_0.5", "foreign_0.75", "foreign_1"]
        assert len(rows) == 400

    def test_features_rerun_is_byte_identical(self, pipeline_config):
        assert run("simulate", pipeline_config) == 0
        assert run("features", pipeline_config) == 0
        cfg = load_config(pipeline_config)
        items = os.path.join(cfg.output_dir, "items.csv")
        first = open(items, "rb").read()
        assert run("features", pipeline_config) == 0
        assert open(items, "rb").read() == first

    def test_corrupt_row_exits_2_naming_the_line(self, pipeline_config, capsys):
        assert run("simulate", pipeline_config) == 0
        cfg = load_config(pipeline_config)
        corrupt(cfg.survey_path, 6, "sampling_weight", "-1.0")
        assert run("features", pipeline_config) == 2
        assert ":6" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "file, column, value, message",
        [
            ("survey_path", "sampling_weight", "-1.0", "sampling_weight must be positive"),
            ("province_path", "population_units", "-4", "negative population size"),
        ],
    )
    def test_blank_lines_count_in_line_numbers(
        self, pipeline_config, capsys, file, column, value, message
    ):
        assert run("simulate", pipeline_config) == 0
        path = getattr(load_config(pipeline_config), file)
        line = corrupt(path, 7, column, value, blank_lines=2)
        assert run("features", pipeline_config) == 2
        assert_validation_error(capsys, f"{path}:{line}: {message}")

    @pytest.mark.parametrize(
        "file, column", [("province_path", "f_p"), ("survey_path", "foreign_enrolled_count")]
    )
    def test_non_finite_number_exits_2_naming_line_and_column(
        self, pipeline_config, capsys, file, column
    ):
        assert run("simulate", pipeline_config) == 0
        path = getattr(load_config(pipeline_config), file)
        corrupt(path, 5, column, "nan")
        assert run("features", pipeline_config) == 2
        assert_validation_error(capsys, f"{path}:5: column {column!r} is not a finite number: 'nan'")

    def test_repeated_unit_id_exits_2_naming_both_lines(self, pipeline_config, capsys):
        assert run("simulate", pipeline_config) == 0
        path = load_config(pipeline_config).survey_path
        first = open(path).readlines()[1].split(",")[0]
        corrupt(path, 3, "unit_id", first)
        assert run("features", pipeline_config) == 2
        assert_validation_error(capsys, f"{path}:3: unit_id {first!r} repeats the unit of line 2")

    def test_missing_file_exits_2(self, pipeline_config):
        assert run("features", pipeline_config) == 2


class TestFitStages:
    @pytest.fixture
    def after_ltm(self, pipeline_config):
        assert run("simulate", pipeline_config) == 0
        assert run("features", pipeline_config) == 0
        assert run("fit-ltm", pipeline_config) == 0
        return pipeline_config

    def test_fit_ltm_outputs(self, after_ltm, capsys):
        cfg = load_config(after_ltm)
        model = json.loads(open(os.path.join(cfg.output_dir, "ltm_model.json")).read())
        assert list(model.keys()) == ["items", "loglik", "converged", "iterations"]
        assert model["converged"] is True
        assert model["iterations"] <= 500
        assert len(model["items"]) == 13
        scores = json.loads(open(os.path.join(cfg.output_dir, "scores.json")).read())
        scaled = [u["scaled"] for u in scores["units"]]
        assert min(scaled) == 0.0
        assert max(scaled) == 1.0

    def test_fit_ltm_rerun_identical_bytes(self, after_ltm):
        cfg = load_config(after_ltm)
        model_path = os.path.join(cfg.output_dir, "ltm_model.json")
        first = open(model_path, "rb").read()
        assert run("fit-ltm", after_ltm) == 0
        assert open(model_path, "rb").read() == first

    def test_fit_ebp_covers_every_province(self, after_ltm):
        assert run("fit-ebp", after_ltm) == 0
        cfg = load_config(after_ltm)
        _, rows = read_delimited(os.path.join(cfg.output_dir, "ebp_provinces.csv"))
        assert len(rows) == 110
        by_domain = {r["domain"]: r for r in rows}
        assert "p110" in by_domain  # the deliberately unsampled province
        assert math.isfinite(float(by_domain["p110"]["estimate"]))

    def test_fit_ebp_mc_sd_shrinks_with_B(self, after_ltm, tmp_path):
        cfg_doc = json.loads(open(after_ltm).read())
        out = []
        for B in (40, 80):
            cfg_doc["ebp"]["B"] = B
            path = tmp_path / f"cfg_{B}.json"
            path.write_text(json.dumps(cfg_doc))
            assert run("fit-ebp", str(path)) == 0
            cfg = load_config(str(path))
            _, rows = read_delimited(os.path.join(cfg.output_dir, "ebp_provinces.csv"))
            sds = [float(r["mc_sd"]) for r in rows if float(r["mc_sd"]) > 0]
            out.append(np.mean(sds))
        ratio = out[1] / out[0]
        assert ratio == pytest.approx(1 / math.sqrt(2), rel=0.2)

    def test_fit_lqmm_outputs_one_table_per_tau(self, after_ltm):
        assert run("fit-lqmm", after_ltm) == 0
        cfg = load_config(after_ltm)
        fit_path = os.path.join(cfg.output_dir, "lqmm_fit_tau_0.5.csv")
        header, rows = read_delimited(fit_path)
        assert header == ["tau", "term", "estimate", "std_error", "ci_low", "ci_high"]
        assert [r["term"] for r in rows] == ["private", "public"]
        est = {r["term"]: float(r["estimate"]) for r in rows}
        assert est["private"] < est["public"]
        for r in rows:
            assert float(r["ci_low"]) <= float(r["estimate"]) <= float(r["ci_high"])

    def test_fit_lqmm_constant_scores_exit_2(self, after_ltm, capsys):
        cfg = load_config(after_ltm)
        path = os.path.join(cfg.output_dir, "scores.json")
        doc = json.loads(open(path).read())
        for unit in doc["units"]:
            unit["scaled"] = 0.5
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
        assert run("fit-lqmm", after_ltm) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and "constant" in err
        assert not os.path.exists(os.path.join(cfg.output_dir, "lqmm_fit_tau_0.5.csv"))

    def test_fit_lqmm_non_converged_base_fit_exit_3(self, after_ltm, capsys, monkeypatch):
        real_fit = cli.fit_lqmm

        def stalled(*args, **kwargs):
            return dataclasses.replace(real_fit(*args, **kwargs), converged=False)

        monkeypatch.setattr(cli, "fit_lqmm", stalled)
        assert run("fit-lqmm", after_ltm) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ") and "did not converge" in err
        cfg = load_config(after_ltm)
        assert not any(name.startswith("lqmm_") for name in os.listdir(cfg.output_dir))

    def test_fit_lqmm_conditional_minus_marginal_is_region_effect(self, after_ltm):
        assert run("fit-lqmm", after_ltm) == 0
        cfg = load_config(after_ltm)
        _, marg = read_delimited(os.path.join(cfg.output_dir, "lqmm_pred_marginal_tau_0.5.csv"))
        marg_by_term = {r["titularity"]: float(r["point"]) for r in marg}
        _, cond = read_delimited(
            os.path.join(cfg.output_dir, "lqmm_pred_conditional_tau_0.5.csv")
        )
        for r in cond:
            diff = float(r["point"]) - marg_by_term[r["titularity"]]
            assert diff == pytest.approx(float(r["region_effect"]), abs=1e-12)

    def test_report_one_row_per_province(self, after_ltm):
        assert run("fit-ebp", after_ltm) == 0
        assert run("report", after_ltm) == 0
        cfg = load_config(after_ltm)
        _, rows = read_delimited(os.path.join(cfg.output_dir, "report.csv"))
        assert len(rows) == 110
        by_p = {r["province"]: r for r in rows}
        assert by_p["p110"]["direct_median"] == "missing"
        assert by_p["p110"]["ebp_estimate"] != "missing"
        # Saturated province: direct and EBP medians coincide exactly.
        assert by_p["p001"]["direct_median"] == by_p["p001"]["ebp_estimate"]

    def test_truncated_scores_exit_2(self, after_ltm, capsys):
        cfg = load_config(after_ltm)
        path = os.path.join(cfg.output_dir, "scores.json")
        text = open(path).read()
        open(path, "w").write(text[: len(text) // 2])
        assert run("fit-ebp", after_ltm) == 2
        assert_validation_error(capsys, path)

    def test_non_numeric_item_weight_exits_2_naming_the_line(self, after_ltm, capsys):
        cfg = load_config(after_ltm)
        path = os.path.join(cfg.output_dir, "items.csv")
        corrupt(path, 4, "weight", "heavy")
        assert run("fit-ltm", after_ltm) == 2
        assert_validation_error(capsys, f"{path}:4", "'weight'", "'heavy'")

    def test_non_numeric_ebp_estimate_exits_2_naming_the_line(self, after_ltm, capsys):
        assert run("fit-ebp", after_ltm) == 0
        cfg = load_config(after_ltm)
        path = os.path.join(cfg.output_dir, "ebp_provinces.csv")
        corrupt(path, 3, "estimate", "n/a")
        assert run("report", after_ltm) == 2
        assert_validation_error(capsys, f"{path}:3", "'estimate'", "'n/a'")

    def test_blank_lines_count_in_item_matrix_line_numbers(self, after_ltm, capsys):
        cfg = load_config(after_ltm)
        path = os.path.join(cfg.output_dir, "items.csv")
        line = corrupt(path, 4, "weight", "heavy", blank_lines=3)
        assert run("fit-ltm", after_ltm) == 2
        assert_validation_error(capsys, f"{path}:{line}: column 'weight'")

    def test_non_binary_item_cell_exits_2_naming_the_line(self, after_ltm, capsys):
        cfg = load_config(after_ltm)
        path = os.path.join(cfg.output_dir, "items.csv")
        corrupt(path, 5, "meal", "0.5")
        assert run("fit-ltm", after_ltm) == 2
        assert_validation_error(capsys, f"{path}:5: column 'meal' must be 0, 1 or empty")

    @pytest.mark.parametrize(
        "column, value", [("estimate_clamped", "banana"), ("mc_sd", "oops"), ("estimate", "inf")]
    )
    def test_unparsable_ebp_cell_exits_2_naming_the_line(self, after_ltm, capsys, column, value):
        assert run("fit-ebp", after_ltm) == 0
        cfg = load_config(after_ltm)
        path = os.path.join(cfg.output_dir, "ebp_provinces.csv")
        corrupt(path, 6, column, value)
        assert run("report", after_ltm) == 2
        assert_validation_error(capsys, f"{path}:6: column {column!r}", repr(value))

    def test_repeated_ebp_domain_exits_2(self, after_ltm, capsys):
        assert run("fit-ebp", after_ltm) == 0
        cfg = load_config(after_ltm)
        path = os.path.join(cfg.output_dir, "ebp_provinces.csv")
        lines = open(path).readlines()
        open(path, "a").write(lines[1])
        assert run("report", after_ltm) == 2
        domain = lines[1].split(",")[0]
        assert_validation_error(capsys, f"{path}:{len(lines) + 1}: repeated domain {domain!r}")

    def test_ebp_domain_outside_province_file_exits_2(self, after_ltm, capsys):
        assert run("fit-ebp", after_ltm) == 0
        cfg = load_config(after_ltm)
        path = os.path.join(cfg.output_dir, "ebp_provinces.csv")
        lines = open(path).readlines()
        open(path, "a").write("p999," + lines[1].split(",", 1)[1])
        assert run("report", after_ltm) == 2
        assert_validation_error(capsys, f"{path}:{len(lines) + 1}: domain 'p999' is not in the province file")
        assert not os.path.exists(os.path.join(cfg.output_dir, "report.csv"))

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("titularity", "municipal", "unknown titularity 'municipal'"),
            ("service_type", "nursery", "unknown service_type 'nursery'"),
            ("province", "p999", "province 'p999' not in the province file"),
        ],
    )
    def test_bad_frame_row_exits_2_naming_the_line(self, after_ltm, capsys, column, value, message):
        cfg = load_config(after_ltm)
        corrupt(cfg.frame_path, 9, column, value)
        assert run("fit-ebp", after_ltm) == 2
        assert_validation_error(capsys, f"{cfg.frame_path}:9: {message}")

    def test_ebp_table_without_mc_sd_exits_2(self, after_ltm, capsys):
        assert run("fit-ebp", after_ltm) == 0
        cfg = load_config(after_ltm)
        path = os.path.join(cfg.output_dir, "ebp_provinces.csv")
        lines = open(path).read().splitlines(keepends=True)
        open(path, "w").writelines(",".join(line.split(",")[:3]) + "\n" for line in lines)
        assert run("report", after_ltm) == 2
        assert_validation_error(capsys, path, "mc_sd")

    def test_report_without_ebp_exits_2(self, after_ltm, capsys):
        assert run("report", after_ltm) == 2
        assert "fit-ebp" in capsys.readouterr().err
