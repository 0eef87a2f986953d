"""``tools/peak_rss.py``: one command in-process, its exit code passed
through and a last stdout line of JSON with the process's own peak and
minor page faults."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from survformer.cli import run

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is read from /proc")


def peak_rss(*argv):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "peak_rss.py"), *argv],
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    path = tmp_path_factory.mktemp("peak") / "synth.csv"
    assert run(["synth", "--n", "80", "--dim", "2", "--seed", "3", "--out", str(path)]) == 0
    return path


def test_a_good_command_reports_its_exit_code_time_and_peak(data, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_epochs": 1, "embed_dim": 4, "heads": 1, "layers": 1, "hidden_size": 4}))
    argv = ["train", "--data", str(data), "--config", str(config), "--checkpoint", str(tmp_path / "m.json")]
    done = peak_rss(*argv)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["argv"] == argv and report["exit"] == 0
    assert report["seconds"] > 0 and report["vmhwm_mb"] > 10  # numpy alone holds more
    assert isinstance(report["minflt"], int) and report["minflt"] > 1000  # importing numpy alone faults more pages
    assert (tmp_path / "m.json").exists()


def test_a_failing_command_passes_its_exit_code_through(data, tmp_path):
    done = peak_rss("train", "--data", str(data), "--numerical", "nope", "--checkpoint", str(tmp_path / "m.json"))
    assert done.returncode == 1
    assert done.stderr.strip() == f"error: column 'nope' not found in {data}"
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["exit"] == 1 and report["vmhwm_mb"] > 0 and report["minflt"] > 0
