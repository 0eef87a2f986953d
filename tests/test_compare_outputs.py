"""Smoke test of ``tools/compare_outputs.py`` on one shrunken workload."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FLAGS = ["--workloads", "fit-2k", "--n", "300", "--set", "max_epochs=2"]


def compare(other):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "compare_outputs.py"), str(other), *FLAGS],
                          capture_output=True, text=True)


def test_a_tree_matches_itself_and_a_changed_output_is_named(tmp_path):
    same = compare(ROOT / "src")
    assert same.returncode == 0, same.stdout + same.stderr
    lines = same.stdout.splitlines()
    assert len(lines) == 7 and all(line.endswith(" same") for line in lines[:-1]), lines
    assert lines[-1] == "all outputs identical"

    # a copy whose attention.json is indented differently
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "survformer" / "cli.py"
    text = cli.read_text()
    assert text.count("indent=2") == 3
    cli.write_text(text.replace('"maps": maps}, fh, indent=2)', '"maps": maps}, fh, indent=1)'))
    changed = compare(tmp_path / "src")
    assert changed.returncode == 1
    differing = [line for line in changed.stdout.splitlines() if line.endswith("DIFFERENT")]
    assert differing and all(" attention.json: " in line for line in differing), changed.stdout
