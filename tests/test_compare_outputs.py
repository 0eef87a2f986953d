"""``tools/compare_outputs.py``: a smoke test on one shrunken workload, and
its report of how far a differing file's numbers moved."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from compare_outputs import difference  # noqa: E402

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
    # the same numbers in the same structure: the size line says the change is nil
    sizes = [line for line in changed.stdout.splitlines() if " largest |difference| " in line]
    assert len(sizes) == len(differing) and all(" attention.json: largest |difference| 0 over " in line
                                                for line in sizes), changed.stdout


@pytest.mark.parametrize("a, b, report", [
    ('{"p": [1.0, -2.5], "n": 3, "s": "x"}', '{"p": [1.0, -2.5000000000000004], "n": 3, "s": "x"}',
     "largest |difference| 4.44e-16 over 3 numbers, relative 1.78e-16"),
    ('{"p": [1.0, NaN], "ok": true}', '{"p": [1.0, NaN], "ok": true}',
     "largest |difference| 0 over 2 numbers, relative 0"),
    ('{"p": [1.0, 2.0]}', '{"p": [1.0, NaN]}', "largest |difference| inf over 2 numbers, relative inf"),
    # a 1-ulp move of a validation loss near 2.6e4 is large absolutely and tiny relatively;
    # a move off zero is the reverse
    ('{"val": [26317.25, 0.0]}', '{"val": [26317.250000000004, 1e-300]}',
     "largest |difference| 3.64e-12 over 2 numbers, relative 1"),
    ('{"val": [26317.25]}', '{"val": [26317.250000000004]}',
     "largest |difference| 3.64e-12 over 1 numbers, relative 1.38e-16"),
    ('{"p": [1.0, 2.0]}', '{"p": [1.0, 2.0, 3.0]}', "structure differs"),
    ('{"p": 1.0, "q": 2.0}', '{"q": 2.0, "p": 1.0}', "structure differs"),
    ('{"p": 1.0, "s": "x"}', '{"p": 1.0, "s": "y"}', "structure differs"),
    ('{"ok": true}', '{"ok": 1}', "structure differs"),
], ids=["last-bit", "nan-equal", "nan-differs", "ulp-and-zero", "ulp-of-large", "length", "key-order", "string",
        "bool-is-no-number"])
def test_difference_walks_json_numbers_in_order(tmp_path, a, b, report):
    (tmp_path / "a.json").write_text(a)
    (tmp_path / "b.json").write_text(b)
    assert difference(tmp_path / "a.json", tmp_path / "b.json") == report


def test_difference_reads_the_numeric_cells_of_a_csv(tmp_path):
    header = "record,time,survival_event_1\n"
    (tmp_path / "a.csv").write_text(header + "0,1.5,0.9\n1,1.5,0.75\n")
    (tmp_path / "b.csv").write_text(header + "0,1.5,0.9\n1,1.5,0.7500000000000001\n")
    (tmp_path / "c.csv").write_text(header.replace("event_1", "event_2") + "0,1.5,0.9\n1,1.5,0.75\n")
    (tmp_path / "d.csv").write_text(header + "0,1.5,0.9\n")
    assert difference(tmp_path / "a.csv", tmp_path / "b.csv") == \
        "largest |difference| 1.11e-16 over 6 numbers, relative 1.48e-16"
    assert difference(tmp_path / "a.csv", tmp_path / "c.csv") == "structure differs"
    assert difference(tmp_path / "a.csv", tmp_path / "d.csv") == "structure differs"
