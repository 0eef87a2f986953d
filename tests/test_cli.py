"""End-to-end command-line workflows on temp directories."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from survformer import cli
from survformer import data as D
from survformer import training as T
from survformer.cli import run
from survformer.model import INFER_CHUNK, MAX_PARAMETERS, load_checkpoint


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def synth_args(tmp_path, name="data.csv", n=150, seed=7):
    out = tmp_path / name
    return out, [
        "synth", "--n", str(n), "--events", "2", "--dim", "3",
        "--censoring", "0.2", "--seed", str(seed), "--out", str(out),
    ]


def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "max_epochs": 3, "batch_size": 32, "embed_dim": 8, "heads": 2,
        "layers": 1, "hidden_size": 8, "time_bins": 4, "seed": 5,
    }))
    return path


def rewrite_row(path, index, edit):
    """Replace data row ``index`` (CSV line index + 2) by ``edit(row)``."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[index + 1] = edit(rows[index + 1])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def categorical(**entries):
    """A checkpoint edit that puts a categorical field, valid but for
    ``entries``, before the numerical ones."""
    field = {"name": "c", "vocabulary": {"a": 0, "b": 1}, "mode": "a", **entries}
    return lambda payload: payload["schema"]["categorical"].append(field)


def checkpoint_edit(edit):
    """The argv of ``eval`` on the checkpoint after ``edit``."""
    def argv(tmp_path, data, ckpt):
        payload = json.loads(ckpt.read_text())
        edit(payload)
        ckpt.write_text(json.dumps(payload))
        return ["eval", "--data", str(data), "--checkpoint", str(ckpt), "--out", str(tmp_path / "out")]
    return argv


def config_file(payload):
    """The argv of ``train`` with ``payload`` as its config file."""
    def argv(tmp_path, data, ckpt):
        (tmp_path / "settings.json").write_text(json.dumps(payload))
        return ["train", "--data", str(data), "--config", str(tmp_path / "settings.json"),
                "--checkpoint", str(tmp_path / "out")]
    return argv


def one_error_line(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


class TestSynth:
    def test_deterministic_byte_identical(self, tmp_path):
        out1, args1 = synth_args(tmp_path, "a.csv")
        out2, args2 = synth_args(tmp_path, "b.csv")
        assert run(args1) == 0 and run(args2) == 0
        assert read_bytes(out1) == read_bytes(out2)
        assert read_bytes(tmp_path / "a.propensities.csv") == read_bytes(
            tmp_path / "b.propensities.csv"
        )

    def test_train_outputs_byte_identical_under_fixed_seed(self, tmp_path):
        data, args = synth_args(tmp_path)
        assert run(args) == 0
        config = tiny_config(tmp_path)
        outputs = []
        for name in ("m1.json", "m2.json"):
            ckpt = tmp_path / name
            assert run([
                "train", "--data", str(data), "--config", str(config),
                "--checkpoint", str(ckpt),
            ]) == 0
            outputs.append((read_bytes(ckpt), read_bytes(tmp_path / f"{name}.history.json")))
        assert outputs[0] == outputs[1]

    def test_sidecar_has_one_probability_row_per_record(self, tmp_path):
        out, args = synth_args(tmp_path, n=40)
        assert run(args) == 0
        with open(tmp_path / "data.propensities.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["pi_1", "pi_2"]
        assert len(rows) == 41
        values = np.array([[float(v) for v in r] for r in rows[1:]])
        np.testing.assert_allclose(values.sum(axis=1), 1.0, atol=1e-9)


class TestPipeline:
    @pytest.fixture()
    def trained(self, tmp_path):
        data, args = synth_args(tmp_path)
        assert run(args) == 0
        ckpt = tmp_path / "model.json"
        assert run([
            "train", "--data", str(data), "--config", str(tiny_config(tmp_path)),
            "--checkpoint", str(ckpt),
        ]) == 0
        return tmp_path, data, ckpt

    def test_train_writes_checkpoint_and_history(self, trained):
        tmp_path, _, ckpt = trained
        assert ckpt.exists()
        history = json.loads((tmp_path / "model.json.history.json").read_text())
        assert history["best_epoch"] >= 0
        payload = json.loads(ckpt.read_text())
        assert payload["format"] == "survformer-checkpoint-v1"
        assert payload["extra"]["propensity"] is not None

    def test_eval_reports_two_event_blocks(self, trained):
        tmp_path, data, ckpt = trained
        metrics = tmp_path / "metrics.json"
        assert run([
            "eval", "--data", str(data), "--checkpoint", str(ckpt), "--out", str(metrics),
        ]) == 0
        report = json.loads(metrics.read_text())
        assert [b["event"] for b in report["events"]] == [1, 2]
        assert report["quantiles"] == [0.25, 0.5, 0.75]
        for block in report["events"]:
            for h in block["horizons"]:
                assert 0.0 <= h["ctd"] <= 1.0

    def test_eval_is_deterministic(self, trained):
        tmp_path, data, ckpt = trained
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        run(["eval", "--data", str(data), "--checkpoint", str(ckpt), "--out", str(m1)])
        run(["eval", "--data", str(data), "--checkpoint", str(ckpt), "--out", str(m2)])
        assert read_bytes(m1) == read_bytes(m2)

    def test_predict_at_time_zero_gives_unit_survival(self, trained):
        tmp_path, data, ckpt = trained
        curves = tmp_path / "curves.csv"
        assert run([
            "predict", "--data", str(data), "--checkpoint", str(ckpt),
            "--times", "0", "--out", str(curves),
        ]) == 0
        with open(curves) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 150
        for row in rows:
            assert float(row["survival_event_1"]) == 1.0
            assert float(row["survival_event_2"]) == 1.0

    def test_predict_multiple_times_row_count(self, trained):
        tmp_path, data, ckpt = trained
        curves = tmp_path / "c2.csv"
        assert run([
            "predict", "--data", str(data), "--checkpoint", str(ckpt),
            "--times", "0,1.5,3", "--out", str(curves),
        ]) == 0
        with open(curves) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 450  # records x times; events are columns

    def test_attention_export_is_labeled_and_stochastic_rows(self, trained):
        tmp_path, data, ckpt = trained
        out = tmp_path / "att.json"
        assert run([
            "attention", "--data", str(data), "--checkpoint", str(ckpt),
            "--row", "3", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["row"] == 3
        assert payload["maps"], "expected at least one map"
        for m in payload["maps"]:
            assert m["labels"] == ["x1", "x2", "x3"]
            weights = np.asarray(m["weights"])
            np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-6)

    def test_attention_row_out_of_range_fails_cleanly(self, trained, capsys):
        tmp_path, data, ckpt = trained
        code = run([
            "attention", "--data", str(data), "--checkpoint", str(ckpt),
            "--row", "10000", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 1
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("drop, named", [
        (lambda p: p.pop("config"), "lacks config"),
        (lambda p: p["params"].pop("cs0.w1"), "lacks parameters cs0.w1"),
        (lambda p: p["params"].clear(), "lacks parameters embed.num and 26 more"),
        (lambda p: p["extra"].pop("columns"), "lacks extra.columns"),
        (lambda p: p["extra"].pop("censoring"), "lacks extra.censoring"),
        (lambda p: p["extra"]["columns"].pop("event"), "lacks extra.columns.event"),
        (lambda p: p.update(extra=None), "lacks extra.columns"),
    ], ids=["config", "parameter", "every-parameter", "extra-columns", "extra-censoring", "extra-event-column",
            "extra-null"])
    def test_eval_rejects_incomplete_checkpoint(self, trained, capsys, drop, named):
        tmp_path, data, ckpt = trained
        payload = json.loads(ckpt.read_text())
        drop(payload)
        ckpt.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert named in one_error_line(capsys)
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("edit, named", [
        (lambda p: p["extra"].update(split=None), "extra.split must be an object, got None"),
        (lambda p: p["extra"].update(censoring=None), "extra.censoring must be an object, got None"),
        (lambda p: p["extra"]["columns"].update(numerical=None),
         "extra.columns.numerical must be a list of strings, got None"),
        (lambda p: p["extra"]["columns"].update(categorical=[1]),
         "extra.columns.categorical must be a list of strings"),
        (lambda p: p["extra"]["columns"].update(event=["event"]), "extra.columns.event must be a string"),
        (lambda p: p["extra"]["split"].update(fractions=[0.6, 0.4]),
         "extra.split.fractions must be a list of three finite numbers"),
        (lambda p: p["extra"]["split"].update(seed=-1), "extra.split.seed must be a nonnegative integer"),
        (lambda p: p["extra"]["censoring"].pop("values"), "lacks extra.censoring.values"),
        (lambda p: p["extra"]["censoring"]["values"].pop(),
         "extra.censoring.values must be as long as extra.censoring.times"),
        (lambda p: p["grid"].__setitem__(0, {}), "every grid entry must be a finite number, got {}"),
        (lambda p: p["params"].update({"sr.w": {}}),
         "every entry of parameter 'sr.w' must be a finite number, got {}"),
        (lambda p: p["schema"]["numerical"][0].update(mean="abc"),
         "schema.numerical[0].mean must be a finite number, got 'abc'"),
        (lambda p: p["schema"]["numerical"][0].update(std=None),
         "schema.numerical[0].std must be a finite number, got None"),
        (lambda p: p["schema"]["numerical"][0].update(std=0), "schema.numerical[0].std must be positive, got 0"),
        (lambda p: p.update(params=5), "params must be an object, got 5"),
        (lambda p: p.update(grid=[p["grid"]]), "cut points must be a list of finite"),
        (lambda p: p["schema"]["numerical"][0].update(name=5), "schema.numerical[0].name must be a string, got 5"),
        (categorical(name=["c"]), "schema.categorical[0].name must be a string, got ['c']"),
        (categorical(vocabulary={"a": 0, "b": 1, "c": 1}), "schema.categorical[0].vocabulary must be a map of "
         "strings onto the indices 0..n-1, got {'a': 0, 'b': 1, 'c': 1}"),
        (categorical(vocabulary={"a": 1, "b": 2}), "schema.categorical[0].vocabulary must be a map"),
        (categorical(vocabulary={"a": 0, "b": "x"}), "schema.categorical[0].vocabulary must be a map"),
        (categorical(vocabulary={"a": 0, "b": True}), "schema.categorical[0].vocabulary must be a map"),
        (categorical(vocabulary={"a": 0, "b": 1.0}), "schema.categorical[0].vocabulary must be a map"),
        (categorical(vocabulary=["a", "b"]), "schema.categorical[0].vocabulary must be a map"),
        (categorical(mode=5), "schema.categorical[0].mode must be a key of its vocabulary, got 5"),
        (categorical(mode="z"), "schema.categorical[0].mode must be a key of its vocabulary, got 'z'"),
        (lambda p: p["extra"]["censoring"]["times"].reverse(),
         "extra.censoring.times must be a strictly increasing list of finite numbers"),
        (lambda p: p["extra"]["censoring"]["times"].__setitem__(1, p["extra"]["censoring"]["times"][0]),
         "extra.censoring.times must be a strictly increasing list of finite numbers"),
        (lambda p: p["extra"]["censoring"]["values"].reverse(),
         "extra.censoring.values must be a nonincreasing list of numbers in [0, 1]"),
        (lambda p: p["extra"]["censoring"]["values"].__setitem__(0, 1.5),
         "extra.censoring.values must be a nonincreasing list of numbers in [0, 1]"),
        (lambda p: p["extra"]["censoring"]["values"].__setitem__(-1, -0.25),
         "extra.censoring.values must be a nonincreasing list of numbers in [0, 1]"),
    ], ids=["split-null", "censoring-null", "numerical-null", "categorical-ints", "event-list",
            "two-fractions", "negative-seed", "censoring-values-absent", "censoring-values-short",
            "grid-object", "parameter-object", "mean-text", "std-null", "std-zero", "params-number",
            "grid-nested", "numerical-name-number", "categorical-name-list", "vocabulary-shared-index",
            "vocabulary-from-one", "vocabulary-text-index", "vocabulary-bool-index",
            "vocabulary-float-index", "vocabulary-list", "mode-number", "mode-unknown",
            "censoring-times-reversed", "censoring-times-repeated", "censoring-values-reversed",
            "censoring-value-above-one", "censoring-value-negative"])
    def test_eval_rejects_mistyped_checkpoint_extra(self, trained, capsys, edit, named):
        tmp_path, data, ckpt = trained
        payload = json.loads(ckpt.read_text())
        edit(payload)
        ckpt.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert named in one_error_line(capsys)
        assert not (tmp_path / "m.json").exists()

    def test_long_checkpoint_value_is_cut_in_the_error_line(self, trained, capsys):
        tmp_path, data, ckpt = trained
        payload = json.loads(ckpt.read_text())
        # a censoring estimate of 3,000 steps, as a 20k-record training fold gives, reversed
        payload["extra"]["censoring"] = {"times": np.linspace(3000.0, 1.0, 3000).tolist(), "values": [1.0] * 3000}
        ckpt.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "m.json")])
        assert code == 1
        line = one_error_line(capsys)
        assert len(line) < 300 and line.endswith("...")
        assert "extra.censoring.times must be a strictly increasing list" in line

    @pytest.mark.parametrize("argv, named", [
        (checkpoint_edit(categorical(vocabulary={**{f"level-{i}": i for i in range(200)}, "level-7": "x"})),
         "schema.categorical[0].vocabulary must be a map of strings onto the indices 0..n-1, got {"),
        (checkpoint_edit(lambda p: p.update(params=list(p["params"].values()))), "params must be an object, got ["),
        (checkpoint_edit(categorical(mode="m" * 5000)), "schema.categorical[0].mode must be a key of its vocabulary"),
        (config_file({"gamma_initial": [0.5] * 5000}), "gamma_initial must be a list of two finite numbers, got ["),
        (config_file([1.0] * 5000), "a config must be a JSON object, got [1.0, 1.0"),
        (config_file({f"setting_{i}": 1 for i in range(2000)}), "unknown config fields: ['setting_0', "),
        (lambda tmp_path, data, ckpt: ["predict", "--data", str(data), "--checkpoint", str(ckpt),
                                       "--times=" + "1," * 3000 + "x", "--out", str(tmp_path / "out")],
         "--times must list finite nonnegative query times, got '1,1,"),
        (lambda tmp_path, data, ckpt: rewrite_row(data, 5, lambda row: ["9" * 5000, *row[1:]]) or
         ["predict", "--data", str(data), "--checkpoint", str(ckpt), "--times=1", "--out", str(tmp_path / "out")],
         "bad covariate value at line 7: non-numeric or non-finite value '9999"),
    ], ids=["vocabulary", "params", "mode", "gamma-initial", "config-list", "unknown-fields", "times", "cell"])
    def test_oversized_value_is_cut_in_the_error_line(self, trained, capsys, argv, named):
        tmp_path, data, ckpt = trained
        argv = argv(tmp_path, data, ckpt)
        capsys.readouterr()
        assert run(argv) == 1
        line = one_error_line(capsys)
        assert len(line) < 300 and "..." in line and named in line, line
        assert not (tmp_path / "out").exists()

    def test_predict_and_attention_ignore_label_cells(self, trained):
        tmp_path, data, ckpt = trained
        outputs = []
        for name in ("clean", "bad-label"):
            if name == "bad-label":
                rewrite_row(data, 4, lambda row: row[:-1] + ["x"])  # the event cell on line 6
            curves, maps = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            assert run(["predict", "--data", str(data), "--checkpoint", str(ckpt),
                        "--times", "0.5,2", "--out", str(curves)]) == 0
            assert run(["attention", "--data", str(data), "--checkpoint", str(ckpt),
                        "--row", "4", "--out", str(maps)]) == 0
            outputs.append((read_bytes(curves), read_bytes(maps)))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command, flags", [
        ("eval", []), ("predict", ["--times", "0.5"]), ("attention", []),
    ], ids=["eval", "predict", "attention"])
    @pytest.mark.parametrize("cut, where", [(float("nan"), 0), (float("inf"), -1)], ids=["nan-first", "inf-last"])
    def test_nonfinite_grid_cut_is_rejected(self, trained, capsys, command, flags, cut, where):
        tmp_path, data, ckpt = trained
        payload = json.loads(ckpt.read_text())
        payload["grid"][where] = cut
        ckpt.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run([command, "--data", str(data), "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "out"), *flags])
        assert code == 1
        assert f"every grid entry must be a finite number, got {cut!r}" in one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flags", [
        ("eval", ["--fold", "all"]), ("predict", ["--times", "1"]), ("attention", ["--row", "5"]),
    ])
    def test_overflowing_covariate_names_a_nonfinite_output(self, trained, capsys, recwarn, command, flags):
        tmp_path, data, ckpt = trained
        rewrite_row(data, 5, lambda row: ["1e300", *row[1:]])
        capsys.readouterr()
        code = run([command, "--data", str(data), "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "out"), *flags])
        assert code == 1
        assert "error: non-finite network output: " in one_error_line(capsys)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flags", [
        ("eval", ["--fold", "all"]), ("predict", ["--times", "1"]), ("attention", []),
    ])
    def test_header_only_csv_reports_no_data_rows(self, trained, capsys, command, flags):
        tmp_path, data, ckpt = trained
        empty = tmp_path / "empty.csv"
        empty.write_text(data.read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        code = run([command, "--data", str(empty), "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "out"), *flags])
        assert code == 1
        assert f"{empty}: no data rows" in one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flags", [
        ("train", []), ("eval", []), ("predict", ["--times", "1"]), ("attention", []),
    ])
    def test_cell_over_the_csv_field_limit_is_one_error_line(self, trained, capsys, command, flags):
        tmp_path, data, ckpt = trained
        rewrite_row(data, 2, lambda row: ["1" * 200_000, *row[1:]])
        capsys.readouterr()
        checkpoint = tmp_path / "new.json" if command == "train" else ckpt
        code = run([command, "--data", str(data), "--checkpoint", str(checkpoint), "--out", str(tmp_path / "out"),
                    *flags])
        assert code == 1
        line = one_error_line(capsys)
        assert f"{data}: line 4: field larger than field limit" in line and len(line) < 300, line
        assert not (tmp_path / "out").exists()

    def test_eval_rejects_censoring_survival_that_vanishes_before_an_event(self, trained, capsys):
        tmp_path, data, ckpt = trained
        payload = json.loads(ckpt.read_text())
        censoring = payload["extra"]["censoring"]
        censoring["values"] = [0.0] * len(censoring["times"])
        ckpt.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run(["eval", "--data", str(data), "--checkpoint", str(ckpt), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "censoring survival vanished before an event time" in one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    def test_predict_rejects_checkpoint_without_columns(self, trained, capsys):
        tmp_path, data, ckpt = trained
        payload = json.loads(ckpt.read_text())
        del payload["extra"]["columns"]
        ckpt.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run(["predict", "--data", str(data), "--checkpoint", str(ckpt),
                    "--times", "1", "--out", str(tmp_path / "c.csv")])
        assert code == 1
        assert "lacks extra.columns" in one_error_line(capsys)

    @pytest.mark.parametrize("width", [2, 6], ids=["short", "long"])
    def test_predict_rejects_row_with_wrong_cell_count(self, trained, capsys, width):
        tmp_path, data, ckpt = trained
        rewrite_row(data, 5, lambda row: (row + ["1"])[:width])
        capsys.readouterr()
        code = run(["predict", "--data", str(data), "--checkpoint", str(ckpt),
                    "--times", "1", "--out", str(tmp_path / "c.csv")])
        assert code == 1
        line = one_error_line(capsys)
        assert f"line 7 has {width} cells, the header has 5" in line and str(data) in line

    def test_eval_rejects_label_above_the_model_event_count(self, trained, capsys):
        tmp_path, data, ckpt = trained
        rewrite_row(data, 5, lambda row: row[:-1] + ["3"])
        capsys.readouterr()
        code = run(["eval", "--data", str(data), "--checkpoint", str(ckpt), "--fold", "all",
                    "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "event label 3 exceeds the model's K=2" in one_error_line(capsys)
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("times", ["nan,2", "-1", "inf", "", "1,abc"],
                             ids=["nan", "negative", "inf", "empty", "text"])
    def test_predict_rejects_bad_query_times(self, trained, capsys, times):
        tmp_path, data, ckpt = trained
        capsys.readouterr()
        code = run(["predict", "--data", str(data), "--checkpoint", str(ckpt),
                    f"--times={times}", "--out", str(tmp_path / "c.csv")])
        assert code == 1
        assert "--times" in one_error_line(capsys)
        assert not (tmp_path / "c.csv").exists()

    def test_eval_names_the_csv_line_of_a_bad_test_fold_cell(self, trained, capsys):
        tmp_path, data, ckpt = trained
        _, _, test_rows = D.split(list(range(150)), (0.6, 0.1, 0.3), 5)
        assert test_rows.index(5) != 5  # the fold position would name another line
        rewrite_row(data, 5, lambda row: [row[0], "inf", *row[2:]])
        capsys.readouterr()
        code = run(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "m.json")])
        assert code == 1
        line = one_error_line(capsys)
        assert re.search(r"\bline 7\b", line) and "numerical column 'x2'" in line, line

    def test_propensity_floor_below_0_05_reaches_training(self, tmp_path):
        # one training-fold record of this table has a fitted propensity below
        # 0.05 for its own event, so its IPS weight depends on the floor
        data, args = synth_args(tmp_path, seed=3)
        assert run(args) == 0
        params = []
        for floor in (0.01, 0.05):
            config, ckpt = tiny_config(tmp_path), tmp_path / f"floor{floor}.json"
            config.write_text(json.dumps({**json.loads(config.read_text()), "propensity_floor": floor}))
            assert run(["train", "--data", str(data), "--config", str(config), "--checkpoint", str(ckpt)]) == 0
            params.append(json.loads(ckpt.read_text())["params"])
        assert params[0] != params[1]


class TestCurvesFile:
    @pytest.mark.parametrize("events", [1, 2])
    def test_bytes_equal_per_cell_repr_of_predict(self, tmp_path, events):
        # one record past a full chunk, so the writer crosses a chunk boundary
        data, args = synth_args(tmp_path, n=INFER_CHUNK + 1)
        args[args.index("--events") + 1] = str(events)
        assert run(args) == 0
        ckpt, curves = tmp_path / "model.json", tmp_path / "curves.csv"
        assert run(["train", "--data", str(data), "--config", str(tiny_config(tmp_path)),
                    "--checkpoint", str(ckpt)]) == 0
        assert run(["predict", "--data", str(data), "--checkpoint", str(ckpt),
                    "--times", "0,0.37,1.5,1e3", "--out", str(curves)]) == 0

        model, extra = load_checkpoint(ckpt)
        columns = D.ColumnSpec(extra["columns"]["numerical"], extra["columns"]["categorical"], None, None)
        records = D.transform_rows(model.schema, D.read_raw_csv(data, columns), columns)
        times = np.array([0.0, 0.37, 1.5, 1e3])
        values = T.predict(model, records, times)
        lines = ["record,time," + ",".join(f"survival_event_{k + 1}" for k in range(events))]
        for i in range(len(records)):
            for ti in range(times.size):
                cells = [repr(float(values[i, k, ti])) for k in range(events)]
                lines.append(",".join([str(i), repr(float(times[ti]))] + cells))
        assert read_bytes(curves) == ("\n".join(lines) + "\n").encode()


class TestErrorPaths:
    def test_missing_required_flag_exits_nonzero_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["train"])
        assert exc.value.code != 0
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code != 0

    def test_missing_data_file_reports_error(self, tmp_path, capsys):
        code = run(["train", "--data", str(tmp_path / "nope.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_eval_with_no_comparable_pairs_exits_nonzero(self, tmp_path, capsys):
        data, args = synth_args(tmp_path)
        assert run(args) == 0
        ckpt = tmp_path / "model.json"
        assert run([
            "train", "--data", str(data), "--config", str(tiny_config(tmp_path)),
            "--checkpoint", str(ckpt),
        ]) == 0
        # all-censored file: no events, so no comparable pairs anywhere
        censored = tmp_path / "censored.csv"
        with open(data) as fh:
            rows = list(csv.reader(fh))
        with open(censored, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(rows[0])
            for row in rows[1:]:
                writer.writerow(row[:-1] + ["0"])
        code = run([
            "eval", "--data", str(censored), "--checkpoint", str(ckpt),
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "event" in err

    def test_train_on_header_only_csv_reports_no_data_rows(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("x0,x1,duration,event\n")
        code = run(["train", "--data", str(data), "--checkpoint", str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "no data rows" in err[0]


class TestLabelColumns:
    """The duration and event labels must name two columns: one column read
    as both would leak the event into the duration, or the duration into
    the events, and make the real label column a covariate."""

    @pytest.fixture()
    def data(self, tmp_path):
        # durations in [1, 3), so cast to int they are valid event labels
        rng = np.random.default_rng(3)
        path = tmp_path / "data.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "x2", "duration", "event"])
            x, t, e = rng.standard_normal((200, 2)).tolist(), rng.uniform(1, 3, 200).tolist(), rng.integers(0, 3, 200)
            writer.writerows([*map(repr, row), repr(t_i), e_i] for row, t_i, e_i in zip(x, t, e.tolist()))
        return path

    @pytest.mark.parametrize("flag, name", [("--event-col", "duration"), ("--duration-col", "event")])
    def test_train_rejects_one_column_as_both_labels(self, tmp_path, data, capsys, flag, name):
        ckpt = tmp_path / "m.json"
        code = run(["train", "--data", str(data), "--config", str(tiny_config(tmp_path)),
                    "--checkpoint", str(ckpt), flag, name])
        assert code == 1
        assert one_error_line(capsys) == (f"error: the duration and event labels must name different columns, "
                                          f"both name {name!r}")
        assert not ckpt.exists()

    @pytest.mark.parametrize("command", [["eval"], ["predict", "--times", "1"]], ids=["eval", "predict"])
    def test_a_checkpoint_naming_one_column_as_both_labels_is_one_error_line(self, tmp_path, data, capsys,
                                                                             command):
        ckpt = tmp_path / "m.json"
        assert run(["train", "--data", str(data), "--config", str(tiny_config(tmp_path)),
                    "--checkpoint", str(ckpt)]) == 0
        payload = json.loads(ckpt.read_text())
        payload["extra"]["columns"]["event"] = "duration"
        ckpt.write_text(json.dumps(payload))
        capsys.readouterr()
        out = tmp_path / "out"
        assert run([*command, "--data", str(data), "--checkpoint", str(ckpt), "--out", str(out)]) == 1
        assert one_error_line(capsys) == ("error: the duration and event labels must name different columns, "
                                          "both name 'duration'")
        assert not out.exists()


class TestByteOrderMark:
    """A CSV saved with a UTF-8 byte-order mark (Excel's "CSV UTF-8") reads
    as the same file without it: the mark is not part of the first header
    name."""

    @pytest.fixture()
    def plain(self, tmp_path):
        data, args = synth_args(tmp_path, n=300)
        assert run(args) == 0
        return data

    @staticmethod
    def copies(tmp_path, plain, first):
        """The synth file with column ``first`` moved to the front, without
        and with a byte-order mark."""
        with open(plain, newline="") as fh:
            rows = list(csv.reader(fh))
        j = rows[0].index(first)
        lines = "".join(",".join([row[j], *row[:j], *row[j + 1:]]) + "\r\n" for row in rows)
        paths = tmp_path / f"{first}_plain.csv", tmp_path / f"{first}_bom.csv"
        paths[0].write_bytes(lines.encode())
        paths[1].write_bytes(b"\xef\xbb\xbf" + lines.encode())
        return paths

    @pytest.mark.parametrize("first", ["x1", "duration"])
    def test_train_writes_the_checkpoint_of_the_file_without_the_mark(self, tmp_path, plain, first):
        checkpoints = []
        for data in self.copies(tmp_path, plain, first):
            checkpoints.append(tmp_path / f"{data.stem}.json")
            assert run(["train", "--data", str(data), "--config", str(tiny_config(tmp_path)),
                        "--checkpoint", str(checkpoints[-1])]) == 0
        assert read_bytes(checkpoints[0]) == read_bytes(checkpoints[1])
        assert json.loads(checkpoints[1].read_text())["extra"]["columns"]["numerical"] == ["x1", "x2", "x3"]

    def test_eval_and_predict_read_a_file_with_the_mark(self, tmp_path, plain):
        ckpt = tmp_path / "model.json"
        assert run(["train", "--data", str(plain), "--config", str(tiny_config(tmp_path)),
                    "--checkpoint", str(ckpt)]) == 0
        for command in (["eval"], ["predict", "--times", "0.5,1"]):
            outputs = []
            for data in self.copies(tmp_path, plain, "x1"):
                outputs.append(tmp_path / f"{command[0]}_{data.stem}")
                assert run([*command, "--data", str(data), "--checkpoint", str(ckpt),
                            "--out", str(outputs[-1])]) == 0
            assert read_bytes(outputs[0]) == read_bytes(outputs[1])

    def test_a_config_with_the_mark_trains_to_the_checkpoint_of_the_config_without(self, tmp_path, plain):
        config = tiny_config(tmp_path)
        marked = tmp_path / "bom_config.json"
        marked.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
        checkpoints = [tmp_path / "plain.json", tmp_path / "bom.json"]
        for path, ckpt in zip((config, marked), checkpoints):
            assert run(["train", "--data", str(plain), "--config", str(path), "--checkpoint", str(ckpt)]) == 0
        assert read_bytes(checkpoints[0]) == read_bytes(checkpoints[1])

    def test_a_checkpoint_with_the_mark_evaluates_and_predicts_as_the_checkpoint_without(self, tmp_path, plain):
        ckpt, marked = tmp_path / "model.json", tmp_path / "bom_model.json"
        assert run(["train", "--data", str(plain), "--config", str(tiny_config(tmp_path)),
                    "--checkpoint", str(ckpt)]) == 0
        marked.write_bytes(b"\xef\xbb\xbf" + ckpt.read_bytes())
        for command in (["eval"], ["predict", "--times", "0.5,1"]):
            outputs = []
            for path in (ckpt, marked):
                outputs.append(tmp_path / f"{command[0]}_{path.stem}")
                assert run([*command, "--data", str(plain), "--checkpoint", str(path),
                            "--out", str(outputs[-1])]) == 0
            assert read_bytes(outputs[0]) == read_bytes(outputs[1])

    @pytest.mark.parametrize("role", ["config", "checkpoint"])
    @pytest.mark.parametrize("content, problem", [
        (b"x1,x2\n1,2\n", "Expecting value: line 1 column 1"),
        (b'{"max_epochs": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
    ], ids=["csv", "not-utf8", "too-deep"])
    def test_a_file_that_cannot_be_read_as_utf8_json_is_one_error_line_naming_it(self, tmp_path, plain, capsys,
                                                                                 role, content, problem):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        if role == "config":
            argv = ["train", "--data", str(plain), "--config", str(bad), "--checkpoint", str(tmp_path / "m.json")]
        else:
            argv = ["eval", "--data", str(plain), "--checkpoint", str(bad), "--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert run(argv) == 1
        line = one_error_line(capsys)
        assert line.startswith(f"error: {role} {bad} cannot be read as UTF-8 JSON: {problem}"), line


class TestBadArguments:
    @pytest.fixture()
    def data(self, tmp_path):
        data, args = synth_args(tmp_path)
        assert run(args) == 0
        return data

    def train(self, tmp_path, data, *extra, **overrides):
        config = tiny_config(tmp_path)
        config.write_text(json.dumps({**json.loads(config.read_text()), **overrides}))
        return run(["train", "--data", str(data), "--config", str(config),
                    "--checkpoint", str(tmp_path / "m.json"), *extra])

    def test_zero_heads_in_config_is_one_error_line(self, tmp_path, data, capsys):
        capsys.readouterr()
        assert self.train(tmp_path, data, heads=0) == 1
        assert "heads must be positive" in one_error_line(capsys)

    def test_eval_on_checkpoint_with_zero_heads_is_one_error_line(self, tmp_path, data, capsys):
        assert self.train(tmp_path, data) == 0
        ckpt = tmp_path / "m.json"
        payload = json.loads(ckpt.read_text())
        payload["config"]["heads"] = 0
        ckpt.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "metrics.json")])
        assert code == 1
        assert "heads must be positive" in one_error_line(capsys)

    @pytest.mark.parametrize("body, named", [
        ('{"batch_size": "a"}', "batch_size"),
        ('{"batch_size": 1.5}', "batch_size"),
        ('{"max_epochs": 1e400}', "max_epochs"),
        ('{"embed_dim": 16.0}', "embed_dim"),
        ('{"gamma_initial": 3}', "gamma_initial"),
        ('{"gamma_initial": [1]}', "gamma_initial"),
        ('{"gamma_initial": [1, "a"]}', "gamma_initial"),
        ('{"learning_rate": "nan"}', "learning_rate"),
        ("3", "JSON object"),
        ("null", "JSON object"),
        ('{"learning_rate": NaN}', "learning_rate"),
        ('{"propensity_l2": -5}', "propensity_l2"),
        ('{"anneal_horizon": -3}', "anneal_horizon"),
        ('{"weight_decay": -1}', "weight_decay"),
        ('{"propensity_floor": 0}', "propensity_floor"),
        ('{"propensity_floor": 2}', "propensity_floor"),
        ('{"propensity_renormalize": "yes"}', "propensity_renormalize"),
        ('{"heads": true}', "heads"),
        ('{"time_bins": 1}', "time_bins"),
    ])
    def test_bad_config_value_is_one_error_line_naming_it(self, tmp_path, data, capsys, body, named):
        payload = json.loads(body)
        capsys.readouterr()
        if isinstance(payload, dict):
            code = self.train(tmp_path, data, **payload)
        else:
            (tmp_path / "raw.json").write_text(body)
            code = run(["train", "--data", str(data), "--config", str(tmp_path / "raw.json"),
                        "--checkpoint", str(tmp_path / "m.json")])
        assert code == 1
        assert named in one_error_line(capsys)
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("overrides, named", [
        ({"hidden_size": 2**44}, f"parameter enc0.ffn0 of shape (8, {2**44})"),
        ({"embed_dim": 10**21}, f"parameter embed.num of shape (3, {10**21})"),
        ({"time_bins": 10**21}, f"the time_bins grid of shape ({10**21},)"),
        ({"time_bins": 10**21, "grid_scheme": "uniform"}, f"the time_bins grid of shape ({10**21},)"),
    ], ids=["hidden_size", "embed_dim", "time_bins", "time_bins-uniform"])
    def test_setting_too_large_to_allocate_is_one_error_line_naming_it(self, tmp_path, data, capsys,
                                                                        overrides, named):
        # every first array needs more than 2**47 bytes, so none is allocated
        capsys.readouterr()
        assert self.train(tmp_path, data, **overrides) == 1
        line = one_error_line(capsys)
        assert f"error: cannot allocate {named}" == line and len(line) < 300, line
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("setting, value", [("ffn_depth", 10**21), ("head_layers", 10**21), ("layers", 10**9)])
    def test_setting_asking_for_too_many_parameter_arrays_is_one_error_line_naming_it(self, tmp_path, data, capsys,
                                                                                      setting, value):
        # every array of the ``layers`` case is small: only its count stops the draws
        capsys.readouterr()
        assert self.train(tmp_path, data, **{setting: value}) == 1
        line = one_error_line(capsys)
        assert line == f"error: {setting}={value} asks for more than {MAX_PARAMETERS} parameter arrays", line
        assert not (tmp_path / "m.json").exists()

    def test_memory_error_is_one_error_line(self, tmp_path, data, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 2.00 PiB for an array")

        monkeypatch.setattr(T, "train", exhausted)
        capsys.readouterr()
        assert self.train(tmp_path, data) == 1
        assert one_error_line(capsys) == "error: Unable to allocate 2.00 PiB for an array"

    def test_covariate_declared_twice_is_one_error_line(self, tmp_path, data, capsys):
        capsys.readouterr()
        assert self.train(tmp_path, data, "--numerical", "x1", "--categorical", "x1") == 1
        assert one_error_line(capsys) == "error: covariate field names must be unique, got 'x1' more than once"

    def test_header_naming_a_covariate_twice_is_one_error_line(self, tmp_path, data, capsys):
        with open(data, newline="") as fh:
            rows = list(csv.reader(fh))
        twice = tmp_path / "twice.csv"
        with open(twice, "w", newline="") as fh:
            csv.writer(fh).writerows([["x2", *row] if i == 0 else [row[0], *row] for i, row in enumerate(rows)])
        capsys.readouterr()
        assert self.train(tmp_path, twice) == 1
        assert one_error_line(capsys) == "error: covariate field names must be unique, got 'x2' more than once"

    def test_negative_seed_flag_is_one_error_line(self, tmp_path, data, capsys):
        capsys.readouterr()
        assert self.train(tmp_path, data, "--seed=-1") == 1
        assert "seed must be nonnegative" in one_error_line(capsys)

    @pytest.mark.parametrize("field, value", [("heads", "2"), ("time_bins", None), ("layers", True)])
    def test_eval_on_checkpoint_with_mistyped_config_names_the_field(self, tmp_path, data, capsys,
                                                                      field, value):
        assert self.train(tmp_path, data) == 0
        ckpt = tmp_path / "m.json"
        payload = json.loads(ckpt.read_text())
        payload["config"][field] = value
        ckpt.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "metrics.json")])
        assert code == 1
        assert f"{field} must be an integer" in one_error_line(capsys)

    def test_train_config_of_a_checkpoint_reproduces_it(self, tmp_path, data):
        settings = {"learning_rate": 0.002, "weight_decay": 0.0003, "batch_size": 40, "max_epochs": 4,
                    "patience": 2, "anneal_horizon": 2, "gamma_initial": [0.5, 0.25], "embed_dim": 6,
                    "heads": 3, "layers": 1, "ffn_depth": 3, "hidden_size": 7, "head_layers": 1,
                    "time_bins": 5, "grid_scheme": "uniform", "propensity_floor": 0.1,
                    "propensity_renormalize": True, "propensity_l2": 0.001, "seed": 9}
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert self.train(tmp_path, data, "--checkpoint", str(first), **settings) == 0
        train_config = json.loads(first.read_text())["extra"]["train_config"]
        assert train_config == settings and list(train_config) == list(settings)
        config = tmp_path / "again.json"
        config.write_text(json.dumps(train_config))
        assert run(["train", "--data", str(data), "--config", str(config),
                    "--checkpoint", str(second)]) == 0
        assert read_bytes(first) == read_bytes(second)

    @pytest.mark.parametrize("l2, code", [(0, 1), (1e-4, 0)])
    def test_unpenalized_separable_events_are_one_error_line(self, tmp_path, capsys, l2, code):
        # the separable fixture of the propensity tests: x = -1 ends in event 1, x = 1 in event 2
        data = tmp_path / "separable.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "duration", "event"])
            writer.writerows([x, 0.05 * (i + 1), event]
                             for i, (x, event) in enumerate([(-1.0, 1)] * 20 + [(1.0, 2)] * 20))
        capsys.readouterr()
        assert self.train(tmp_path, data, propensity_l2=l2) == code
        if code:
            assert "propensity fit for event 1: no convergence" in one_error_line(capsys)
            assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("l2, code", [(0, 1), (1e-4, 0)])
    def test_unpenalized_one_class_level_is_one_error_line(self, tmp_path, capsys, l2, code):
        # every record at level "c" ends in event 1; the other levels mix both events
        rng = np.random.default_rng(0)
        data = tmp_path / "level.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "x2", "level", "duration", "event"])
            for i in range(200):
                level = "abc"[rng.integers(0, 3)]
                event = 1 if level == "c" else int(rng.integers(1, 3))
                writer.writerow([*rng.standard_normal(2), level, 0.05 * (i + 1), event])
        capsys.readouterr()
        assert self.train(tmp_path, data, propensity_l2=l2) == code
        if code:
            line = one_error_line(capsys)
            assert "propensity fit: every record with design column" in line and "holds event 1" in line
            assert "propensity_l2 must be above 0" in line
            assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("fractions", ["0.6,0.4", "nan,0.5,0.5", "0.6,0.1,0.3,0", "a,b,c", ""])
    def test_bad_fractions_name_the_flag(self, tmp_path, data, capsys, fractions):
        capsys.readouterr()
        assert self.train(tmp_path, data, f"--fractions={fractions}") == 1
        assert "--fractions" in one_error_line(capsys)
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("quantiles", ["", "nan", "0.5,1.5", "x"])
    def test_bad_quantiles_name_the_flag(self, tmp_path, data, capsys, quantiles):
        assert self.train(tmp_path, data) == 0
        capsys.readouterr()
        code = run(["eval", "--data", str(data), "--checkpoint", str(tmp_path / "m.json"),
                    f"--quantiles={quantiles}", "--out", str(tmp_path / "metrics.json")])
        assert code == 1
        assert "--quantiles" in one_error_line(capsys)
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize("n", [0, -3])
    def test_synth_without_records_names_n(self, tmp_path, capsys, n):
        out, args = synth_args(tmp_path, n=n)
        capsys.readouterr()
        assert run(args) == 1
        assert "--n" in one_error_line(capsys)
        assert not out.exists()


    @pytest.mark.parametrize("flag, value", [("--dim", "0"), ("--events", "-2")])
    def test_synth_without_covariates_or_events_names_the_flag(self, tmp_path, capsys, flag, value):
        out, args = synth_args(tmp_path)
        args[args.index(flag) + 1] = value
        capsys.readouterr()
        assert run(args) == 1
        assert flag in one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1.5", "nan", "-0.1"])
    def test_synth_censoring_outside_zero_one_names_the_flag_and_value(self, tmp_path, capsys, value):
        out, args = synth_args(tmp_path)
        args[args.index("--censoring") + 1] = value
        capsys.readouterr()
        assert run(args) == 1
        assert one_error_line(capsys) == f"error: --censoring must be a rate in [0, 1), got {float(value)!r}"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--n", "1000000000000"), ("--events", "1000000000000"), ("--dim", "100000000000"),
    ])
    def test_synth_count_too_large_to_allocate_names_the_flag_and_value(self, tmp_path, capsys, flag, value):
        # the first array sized by each needs terabytes, so none is allocated
        out, args = synth_args(tmp_path)
        args[args.index(flag) + 1] = value
        capsys.readouterr()
        assert run(args) == 1
        line = one_error_line(capsys)
        assert line.startswith("error: cannot allocate --n ") and f"{flag} {value}" in line, line
        assert not out.exists()

    def test_synth_negative_seed_names_the_flag_and_value(self, tmp_path, capsys):
        out, args = synth_args(tmp_path, seed=-1)
        capsys.readouterr()
        assert run(args) == 1
        assert one_error_line(capsys) == "error: --seed must be nonnegative, got -1"
        assert not out.exists()

    def test_huge_event_label_is_one_error_line_naming_it(self, tmp_path, capsys):
        # every 7th of the first 59 records labelled 1e12: the labels claim
        # 1e12 event types, of which the training fold holds events 1 and 2
        data, args = synth_args(tmp_path, n=300)
        assert run(args) == 0
        relabelled = range(0, 59, 7)
        for i in relabelled:
            rewrite_row(data, i, lambda row: row[:-1] + ["1000000000000"])
        train_rows = D.split(range(300), (0.6, 0.1, 0.3), 5)[0]  # the fractions and seed ``train`` uses
        line = min(i + 2 for i in relabelled if i in train_rows)
        capsys.readouterr()
        assert self.train(tmp_path, data) == 1
        assert one_error_line(capsys) == (f"error: event label 1000000000000 at line {line} asks for "
                                          f"1000000000000 event types, but no training record has event 3")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("flag, names, label", [
        ("--numerical", "duration,x1", "duration"),
        ("--categorical", "event", "event"),
    ])
    def test_label_column_declared_as_covariate_is_rejected(self, tmp_path, data, capsys,
                                                            flag, names, label):
        capsys.readouterr()
        assert self.train(tmp_path, data, flag, names) == 1
        assert repr(label) in one_error_line(capsys)
        assert not (tmp_path / "m.json").exists()


class TestCorruptInput:
    @pytest.mark.parametrize("column, value, named", [
        ("x1", "nan", "numerical column 'x1'"),
        ("x3", "inf", "numerical column 'x3'"),
        ("duration", "nan", "duration column 'duration'"),
        ("duration", "inf", "duration column 'duration'"),
        ("event", "1.9", "non-integral value '1.9' in event column 'event'"),
    ])
    def test_train_names_the_bad_cell(self, tmp_path, capsys, column, value, named):
        data, args = synth_args(tmp_path)
        assert run(args) == 0
        with open(data, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows[::5]:
            row[column] = value
        with open(data, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        capsys.readouterr()
        code = run(["train", "--data", str(data), "--config", str(tiny_config(tmp_path)),
                    "--checkpoint", str(tmp_path / "m.json")])
        assert code == 1
        line = one_error_line(capsys)
        assert named in line and "line " in line

    @pytest.mark.parametrize("index, fold", [(9, 0), (2, 1)], ids=["train-fold", "validation-fold"])
    def test_train_names_the_csv_line_of_a_bad_cell(self, tmp_path, capsys, index, fold):
        data, args = synth_args(tmp_path)
        assert run(args) == 0
        rows = D.split(list(range(150)), (0.6, 0.1, 0.3), 5)[fold]  # tiny_config's seed
        assert index in rows and rows.index(index) != index
        rewrite_row(data, index, lambda row: ["nan", *row[1:]])
        capsys.readouterr()
        code = run(["train", "--data", str(data), "--config", str(tiny_config(tmp_path)),
                    "--checkpoint", str(tmp_path / "m.json")])
        assert code == 1
        line = one_error_line(capsys)
        assert re.search(rf"\bline {index + 2}\b", line) and "numerical column 'x1'" in line, line

    def test_a_bad_cell_in_the_test_fold_lets_train_finish_and_eval_name_it(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(D, "READ_CHUNK", 3)  # the bad cell's chunk also holds training records
        data, args = synth_args(tmp_path)
        assert run(args) == 0
        index = D.split(list(range(150)), (0.6, 0.1, 0.3), 5)[2][0]  # tiny_config's seed
        rewrite_row(data, index, lambda row: [row[0], "inf", *row[2:]])
        ckpt = tmp_path / "m.json"
        assert run(["train", "--data", str(data), "--config", str(tiny_config(tmp_path)),
                    "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert run(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "metrics.json")]) == 1
        assert one_error_line(capsys) == (f"error: bad covariate value at line {index + 2}: non-numeric or "
                                          f"non-finite value 'inf' in numerical column 'x2'")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_train_names_the_earliest_of_two_bad_cells_whatever_the_split_seed(self, tmp_path, capsys, seed):
        data, args = synth_args(tmp_path)
        assert run(args) == 0
        fold = D.split(list(range(150)), (0.6, 0.1, 0.3), seed)[0]
        late, early = fold[0], min(fold)
        assert late > early  # the fold holds the later line first
        rewrite_row(data, late, lambda row: ["inf", *row[1:]])
        rewrite_row(data, early, lambda row: [*row[:2], "nan", *row[3:]])
        for _ in range(2):
            capsys.readouterr()
            code = run(["train", "--data", str(data), "--config", str(tiny_config(tmp_path)),
                        "--seed", str(seed), "--checkpoint", str(tmp_path / "m.json")])
            assert code == 1
            line = one_error_line(capsys)
            assert re.search(rf"\bline {early + 2}\b", line) and "numerical column 'x3'" in line, line

    def test_train_names_an_earlier_bad_label_before_a_later_bad_covariate(self, tmp_path, capsys):
        data, args = synth_args(tmp_path)
        assert run(args) == 0
        fold = D.split(list(range(150)), (0.6, 0.1, 0.3), 0)[0]
        early, late = min(fold), max(fold)
        rewrite_row(data, early, lambda row: [*row[:-1], "1.5"])
        rewrite_row(data, late, lambda row: ["nan", *row[1:]])
        capsys.readouterr()
        code = run(["train", "--data", str(data), "--config", str(tiny_config(tmp_path)),
                    "--seed", "0", "--checkpoint", str(tmp_path / "m.json")])
        assert code == 1
        line = one_error_line(capsys)
        assert f"line {early + 2}: non-integral value '1.5' in event column 'event'" in line, line

    @pytest.mark.parametrize("flags, named", [
        (["--numerical", "x1,x3", "--categorical", "x2"], "numerical column 'x1'"),
        (["--numerical", "x3", "--categorical", "x1,x2"], "categorical column 'x1'"),
    ], ids=["numerical", "categorical"])
    def test_column_with_no_observed_training_value_is_one_error_line(self, tmp_path, capsys, flags, named):
        data, args = synth_args(tmp_path)
        assert run(args) == 0
        for index in D.split(list(range(150)), (0.6, 0.1, 0.3), 5)[0]:  # tiny_config's seed
            rewrite_row(data, index, lambda row: ["", *row[1:]])
        capsys.readouterr()
        code = run(["train", "--data", str(data), "--config", str(tiny_config(tmp_path)), *flags,
                    "--checkpoint", str(tmp_path / "m.json")])
        assert code == 1
        assert one_error_line(capsys) == f"error: {named} has no observed values"

    @pytest.mark.parametrize("width", [2, 6], ids=["short", "long"])
    def test_train_rejects_row_with_wrong_cell_count(self, tmp_path, capsys, width):
        data, args = synth_args(tmp_path)
        assert run(args) == 0
        rewrite_row(data, 5, lambda row: (row + ["1"])[:width])
        capsys.readouterr()
        code = run(["train", "--data", str(data), "--config", str(tiny_config(tmp_path)),
                    "--checkpoint", str(tmp_path / "m.json")])
        assert code == 1
        line = one_error_line(capsys)
        assert f"line 7 has {width} cells, the header has 5" in line and str(data) in line


# Runs one command as ``survformer`` does and prints its exit code and which
# of numpy's ``ma`` and ``random`` modules the process imported.
CHILD = """import json, sys
from survformer.cli import run
code = run(sys.argv[1:])
print(json.dumps([code, sorted({'numpy.ma', 'numpy.random'} & set(sys.modules))]))
"""


class TestImportedModules:
    """Each command runs in a fresh process, so a numpy module it imports
    costs every run. No command imports ``numpy.ma``; only those that split
    records (``train``, ``eval`` of one fold) or draw parameters (``train``)
    import ``numpy.random``."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        # a categorical column, so that a propensity_l2 = 0 train judges the
        # one-hot design columns for separation
        root = tmp_path_factory.mktemp("imports")
        data, args = synth_args(root, n=300)
        assert run(args) == 0
        with open(data, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(data, "w", newline="") as fh:
            csv.writer(fh).writerows([row + (["g"] if i == 0 else ["abc"[i % 3]]) for i, row in enumerate(rows)])
        config = tiny_config(root)  # root / "config.json"
        (root / "config-l2-0.json").write_text(json.dumps({**json.loads(config.read_text()), "propensity_l2": 0}))
        assert run(["train", "--data", str(data), "--config", str(config),
                    "--checkpoint", str(root / "m.json")]) == 0
        return root

    @pytest.mark.parametrize("argv, imports", [
        (["train", "--config=config.json", "--checkpoint=t.json"], ["numpy.random"]),
        (["train", "--config=config-l2-0.json", "--checkpoint=t0.json"], ["numpy.random"]),
        (["eval", "--checkpoint=m.json", "--out=metrics.json"], ["numpy.random"]),
        (["eval", "--checkpoint=m.json", "--fold=all", "--out=all.json"], []),
        (["predict", "--checkpoint=m.json", "--times=0.5,1", "--out=curves.csv"], []),
        (["attention", "--checkpoint=m.json", "--row=2", "--out=attention.json"], []),
    ], ids=["train", "train-l2-0", "eval", "eval-all", "predict", "attention"])
    def test_a_command_imports_only_the_numpy_modules_it_uses(self, files, argv, imports):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", CHILD, *argv, "--data=data.csv"], cwd=files, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == [0, imports], done.stdout


HEAP_CHILD = """import json, resource, sys
import numpy as np
from survformer.cli import keep_freed_heap, run
size = int(sys.argv[1])
if sys.argv[2] == "entry" and not keep_freed_heap():
    print(json.dumps(None))
    sys.exit()
if sys.argv[2] == "run":
    assert run(sys.argv[3:]) == 0

def minor_faults_of_a_round():  # about 8 MiB as arrays of `size` float64s
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(size) for _ in range(1024 * 1024 // size)]
    del arrays
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

print(json.dumps([minor_faults_of_a_round(), minor_faults_of_a_round()]))
"""

# 64 KiB arrays sit below glibc's default mmap threshold, 1 MiB arrays above it
ARRAY_SIZES = pytest.mark.parametrize("size", [8192, 131072], ids=["64KiB", "1MiB"])


class TestHeapTopPad:
    """The command-line entry keeps glibc's freed heap top mapped, so a
    batch's or chunk's temporaries reuse the pages the last one faulted in,
    small arrays and large ones alike; ``run`` leaves the host process's
    allocator as it found it."""

    def rounds(self, *argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", HEAP_CHILD, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    @pytest.mark.skipif(sys.platform == "win32", reason="resource is POSIX only")
    @ARRAY_SIZES
    def test_the_entry_setting_keeps_freed_pages_for_the_next_round(self, size):
        faults = self.rounds(str(size), "entry")
        if faults is None:
            pytest.skip("libc has no mallopt")
        first, second = faults
        assert first > 1000 and second < first / 10, faults

    @pytest.mark.skipif(sys.platform == "win32", reason="resource is POSIX only")
    @ARRAY_SIZES
    def test_run_leaves_the_allocator_alone(self, tmp_path, size):
        first, second = self.rounds(str(size), "run", "synth", "--n", "20", "--out", str(tmp_path / "data.csv"))
        assert first > 1000 and second > first / 2, (first, second)

    def test_main_applies_the_setting_before_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "keep_freed_heap", lambda: calls.append("keep_freed_heap"))
        monkeypatch.setattr(cli, "run", lambda argv=None: calls.append("run") or 0)
        with pytest.raises(SystemExit) as stop:
            cli.main()
        assert stop.value.code == 0 and calls == ["keep_freed_heap", "run"]
