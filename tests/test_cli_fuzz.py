"""The CLI exit contract under malformed input: ``train``, ``eval``,
``predict`` and ``attention`` on corrupted CSV bodies and arbitrary flag
values, the last three on checkpoints with one entry retyped or dropped, and
``train`` on configs with mistyped values, either write their documented
output and exit 0, or print one ``error:`` line and exit 1. A traceback fails
the test."""

import contextlib
import copy
import csv
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from survformer import training as T
from survformer.cli import run

# Cells that break parsing, imputation, ranges or the CSV structure.
NASTY_CELLS = [
    "", " ", "nan", "inf", "-inf", "-1", "0", "1e400", "1e-320", "abc", "1_0", "0x1A", "3.5",
    "2", "-0", '"', "a,b", "line\nbreak", "é", "\x00", "﻿1", "9" * 30,
]
JUNK_TAILS = ['"unterminated', "\n\n", ",,,,", "x1,x2\n", "\r\n1,2,3,4,5\r\n"]
TINY_CONFIG = {"max_epochs": 1, "batch_size": 32, "embed_dim": 4, "heads": 1, "layers": 1,
               "hidden_size": 4, "time_bins": 3, "seed": 2}
FLAG_TEXT = st.text(alphabet="0123456789.,-+e naifx_", max_size=12)
# A few values of each JSON type: null, boolean, number, string, array,
# object; among them a 5,000-character string and a 5,000-element list.
JSON_VALUES = [None, True, False, 0, -1, 2.5, 1e308, "", "x", "1", "x" * 5000, [], [0], [[1.0]], [0] * 5000,
               {}, {"a": 1}]
ERROR_LINE_BOUND = 300  # characters; an error line quotes at most 120 of a value
DROP = object()


def json_type(value):
    """The JSON type of a decoded value; a tuple is an array."""
    return next(kind for kind in (bool, (int, float), str, (list, tuple), dict, type(None))
                if isinstance(value, kind))


def retyped(value):
    """A value of another JSON type than ``value``."""
    return st.sampled_from([v for v in JSON_VALUES if json_type(v) != json_type(value)])


def flag_values(*valid):
    """A flag value: mostly one of ``valid``, else arbitrary text."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid), FLAG_TEXT)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A valid 60-record table, a tiny config and a checkpoint trained on them."""
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "base.csv"
    assert run(["synth", "--n", "60", "--events", "2", "--dim", "3", "--seed", "4",
                "--out", str(data)]) == 0
    config = root / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    checkpoint = root / "model.json"
    assert run(["train", "--data", str(data), "--config", str(config),
                "--checkpoint", str(checkpoint)]) == 0
    with open(data, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return root, config, checkpoint, header, rows


@st.composite
def csv_bodies(draw, header, rows):
    """The base table with a few rows kept, some cells, rows or header names
    corrupted, and sometimes junk after the last row or undecodable bytes."""
    header = list(header)
    if draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, len(header) - 1))
        header[i] = draw(st.sampled_from(["", header[0], header[-1], "x9", "event "]))
    rows = [list(r) for r in rows[: draw(st.just(len(rows)) | st.integers(0, len(rows)))]]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(["cell", "cell", "drop", "extra", "blank"]))
        if kind == "cell" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(NASTY_CELLS))
        elif kind == "drop" and row:
            row.pop()
        elif kind == "extra":
            row.append("1")
        else:
            row.clear()
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows([header, *rows])
    body = (out.getvalue() + (draw(st.sampled_from(JUNK_TAILS)) if draw(st.booleans()) else "")).encode("utf-8")
    return body + b"\xff\xfe" if draw(st.integers(0, 9)) == 0 else body


def assert_exit_contract(argv, output):
    """Run the CLI in-process; it writes ``output`` and reports it, or gives
    exactly one ``error:`` line, shorter than ``ERROR_LINE_BOUND``, and exit
    code 1."""
    if output.exists():
        output.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == [] and output.exists() and f"wrote {output}" in out.getvalue(), (argv, lines)
    else:
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), (argv, code, lines)
        assert len(lines[0]) < ERROR_LINE_BOUND, (argv, lines)


def columns_flag(header):
    """A --numerical or --categorical value: absent, or some names, real or not."""
    names = st.lists(st.sampled_from([*header, "nope", ""]), max_size=3).map(",".join)
    return st.one_of(st.none(), st.none(), names)


FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(data=st.data())
def test_train_keeps_the_exit_contract(base, data):
    root, config, _, header, rows = base
    path = root / "train.csv"
    path.write_bytes(data.draw(csv_bodies(header, rows), label="body"))
    argv = ["train", "--data", str(path), "--config", str(config),
            "--checkpoint", str(root / "fuzzed.json")]
    for flag, value in (
        ("--fractions", flag_values("0.6,0.2,0.2", "0.5,0.25,0.25")),
        ("--numerical", columns_flag(header)),
        ("--categorical", columns_flag(header)),
        ("--seed", st.none() | st.integers(-3, 2**70).map(str)),
    ):
        drawn = data.draw(value, label=flag)
        if drawn is not None:
            argv.append(f"{flag}={drawn}")
    assert_exit_contract(argv, root / "fuzzed.json")


@FUZZ
@given(data=st.data())
def test_predict_keeps_the_exit_contract(base, data):
    root, _, checkpoint, header, rows = base
    path = root / "predict.csv"
    path.write_bytes(data.draw(csv_bodies(header, rows), label="body"))
    times = data.draw(flag_values("0.5", "0,1.5,3"), label="--times")
    out = root / "curves.csv"
    assert_exit_contract(["predict", "--data", str(path), "--checkpoint", str(checkpoint),
                          f"--times={times}", "--out", str(out)], out)


@FUZZ
@given(data=st.data())
def test_eval_keeps_the_exit_contract(base, data):
    root, _, checkpoint, header, rows = base
    path = root / "eval.csv"
    path.write_bytes(data.draw(csv_bodies(header, rows), label="body"))
    quantiles = data.draw(flag_values("0.25,0.5,0.75", "0.5", "0,1"), label="--quantiles")
    fold = data.draw(st.sampled_from(["test", "validation", "train", "all"]), label="--fold")
    out = root / "metrics.json"
    assert_exit_contract(["eval", "--data", str(path), "--checkpoint", str(checkpoint),
                          f"--quantiles={quantiles}", f"--fold={fold}", "--out", str(out)], out)


@FUZZ
@given(data=st.data())
def test_attention_keeps_the_exit_contract(base, data):
    root, _, checkpoint, header, rows = base
    path = root / "attention.csv"
    path.write_bytes(data.draw(csv_bodies(header, rows), label="body"))
    row = data.draw(st.integers(-2, len(rows) + 1) | st.integers(-2**70, 2**70), label="--row")
    out = root / "attention.json"
    assert_exit_contract(["attention", "--data", str(path), "--checkpoint", str(checkpoint),
                          f"--row={row}", "--out", str(out)], out)


@st.composite
def mutated_checkpoints(draw, payload):
    """The checkpoint with one entry, at any depth, dropped or replaced by a
    JSON value of another type."""
    payload = copy.deepcopy(payload)
    holder, key, node = None, None, payload
    while isinstance(node, (dict, list)) and node and (holder is None or draw(st.booleans())):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        holder, node = node, node[key]
    value = draw(st.just(DROP) | retyped(node))
    if value is DROP:
        del holder[key]
    else:
        holder[key] = value
    return payload


@FUZZ
@given(data=st.data())
@pytest.mark.parametrize("command", ["eval", "predict", "attention"])
def test_mutated_checkpoints_keep_the_exit_contract(base, data, command):
    root, _, checkpoint, _, _ = base
    path = root / f"{command}-mutated.json"
    path.write_text(json.dumps(data.draw(mutated_checkpoints(json.loads(checkpoint.read_text())))))
    out = root / f"{command}-out"
    flags = {"eval": [], "predict": ["--times=0,1.5"], "attention": ["--row=1"]}[command]
    assert_exit_contract([command, "--data", str(root / "base.csv"), "--checkpoint", str(path),
                          *flags, "--out", str(out)], out)


@FUZZ
@given(data=st.data())
def test_train_on_mistyped_configs_keeps_the_exit_contract(base, data):
    root, _, _, _, _ = base
    config = dict(TINY_CONFIG)
    defaults = T.TrainConfig().to_dict()
    for key in data.draw(st.lists(st.sampled_from(sorted(defaults)), min_size=1, max_size=3, unique=True)):
        config[key] = data.draw(retyped(config.get(key, defaults[key])), label=key)
    path = root / "mistyped.json"
    path.write_text(json.dumps(config))
    out = root / "mistyped-model.json"
    assert_exit_contract(["train", "--data", str(root / "base.csv"), "--config", str(path),
                          "--checkpoint", str(out)], out)
