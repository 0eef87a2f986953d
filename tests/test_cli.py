"""End-to-end command-line workflows on temp directories."""

import csv
import json

import numpy as np
import pytest

from survformer.cli import run


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
    ], ids=["config", "parameter"])
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
