"""Check that two source trees of survformer write byte-identical outputs.

    python tools/compare_outputs.py OTHER_SRC --seeds 11 1 2 3
    python tools/compare_outputs.py ../parent/src --workloads fit-2k --set layers=0

For each perfbench workload and seed, the workload's CSV is drawn by
``perfbench/workloads.py`` (``--n`` shrinks it) and the CLI runs ``train``,
``eval`` on the test fold and on ``--fold all``, ``predict`` and
``attention`` on it, once with this checkout's ``src`` and once with
``OTHER_SRC``, each in its own directory. ``--set key=value`` overrides one
training setting of the workload's config (the value is JSON). One line per
output file gives the workload, seed, file, both digests and whether they
match. A file that differs gets a second line with the size of the change:
the largest absolute difference over its numbers (a JSON file's numbers in
document order, a CSV file's numeric cells) and the largest difference
relative to the larger magnitude of the two values, or that the two files
differ in structure (anything but those numbers, or how many there are).
The exit status is 1 when any file differs or any command fails.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
from workloads import WORKLOADS, generate, write_csv  # noqa: E402

OUTPUTS = ("model.json", "model.json.history.json", "metrics.json", "metrics_all.json", "curves.csv",
           "attention.json")


def commands(times):
    """The CLI runs of one pipeline, in order, inside its directory."""
    return [
        ["train", "--data", "data.csv", "--config", "config.json", "--checkpoint", "model.json"],
        ["eval", "--data", "data.csv", "--checkpoint", "model.json", "--out", "metrics.json"],
        ["eval", "--data", "data.csv", "--checkpoint", "model.json", "--fold", "all", "--out", "metrics_all.json"],
        ["predict", "--data", "data.csv", "--checkpoint", "model.json", "--times", ",".join(map(repr, times)),
         "--out", "curves.csv"],
        ["attention", "--data", "data.csv", "--checkpoint", "model.json", "--out", "attention.json"],
    ]


def run_pipeline(src, workdir, times):
    """Run every command with ``src`` first on the import path; returns the
    first failure's message, or None."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    for args in commands(times):
        proc = subprocess.run([sys.executable, "-m", "survformer.cli", *args], cwd=workdir, env=env,
                              capture_output=True, text=True)
        if proc.returncode:
            return f"{src}: {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return None


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16] if path.is_file() else "absent"


def split_numbers(node, values):
    """``node``, a parsed JSON value, with every number replaced by the type
    ``float`` and appended to ``values``, in document order; an object
    becomes the tuple of its (key, value) pairs, so its key order counts."""
    if isinstance(node, dict):
        return tuple((key, split_numbers(value, values)) for key, value in node.items())
    if isinstance(node, list):
        return [split_numbers(value, values) for value in node]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        values.append(float(node))
        return float
    return node


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return cell


def numbers(path):
    """The numbers of an output file and the rest of it: a JSON file's
    numbers, or a CSV file's cells that ``float()`` reads, in order, and the
    file with each of them replaced by the type ``float``."""
    with open(path, encoding="utf-8", newline="") as fh:
        parsed = [list(map(_number, row)) for row in csv.reader(fh)] if path.suffix == ".csv" else json.load(fh)
    values = []
    return values, split_numbers(parsed, values)


def difference(a, b):
    """How far output file ``b`` lies from ``a``: the largest absolute
    difference over their numbers and the largest relative to the larger
    magnitude of each pair, or that their structure differs."""
    (x, rest_a), (y, rest_b) = numbers(a), numbers(b)
    if rest_a != rest_b:
        return "structure differs"
    x, y = np.array(x), np.array(y)
    same = (x == y) | (np.isnan(x) & np.isnan(y))
    with np.errstate(invalid="ignore", divide="ignore"):
        gap = np.where(same, 0.0, np.nan_to_num(np.abs(x - y), nan=np.inf))
        relative = np.where(same, 0.0, np.nan_to_num(gap / np.maximum(np.abs(x), np.abs(y)), nan=np.inf))
    return (f"largest |difference| {gap.max(initial=0.0):.3g} over {len(x)} numbers, "
            f"relative {relative.max(initial=0.0):.3g}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="the other tree's src directory")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11])
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--n", type=int, default=None, help="records per workload (default: its own)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one training setting; the value is JSON")
    args = parser.parse_args(argv)
    overrides = {}
    for item in args.set:
        key, _, value = item.partition("=")
        overrides[key] = json.loads(value)
    sides = {"this": ROOT / "src", "other": args.other.resolve()}
    differ = False
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        for name in args.workloads:
            workload = WORKLOADS[name]
            if args.n is not None:
                workload = dataclasses.replace(workload, n=args.n)
            for seed in args.seeds:
                header, rows, times = generate(workload, seed)
                digests = {}
                for side, src in sides.items():
                    workdir = Path(tmp, name, str(seed), side)
                    workdir.mkdir(parents=True)
                    write_csv(workdir / "data.csv", header, rows)
                    (workdir / "config.json").write_text(json.dumps({**workload.config, **overrides}))
                    failure = run_pipeline(src, workdir, times)
                    if failure:
                        print(f"{name} seed {seed}: {failure}")
                        differ = True
                    digests[side] = [digest(workdir / out) for out in OUTPUTS]
                for out, a, b in zip(OUTPUTS, digests["this"], digests["other"]):
                    same = a == b and a != "absent"
                    differ |= not same
                    print(f"{name} seed {seed} {out}: {a} {b} {'same' if same else 'DIFFERENT'}")
                    if not same and "absent" not in (a, b):
                        paths = [Path(tmp, name, str(seed), side, out) for side in sides]
                        print(f"{name} seed {seed} {out}: {difference(*paths)}")
    print("outputs differ" if differ else "all outputs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
