"""Run one ``survformer`` command in this process and report its peak memory.

    python tools/peak_rss.py predict --data big.csv --checkpoint model.json --times 1,2 --out curves.csv

The command runs through ``survformer.cli.run``, imported from this
checkout's ``src``, after the heap setting that ``python -m survformer.cli``
applies (``keep_freed_heap``), with BLAS pinned to one thread unless the
environment says otherwise; the script exits with the command's exit code.
The last line of standard output is JSON: the command, its exit code, its
wall seconds, the process's own peak resident set in MB (``VmHWM`` from
``/proc/self/status``, so Linux only) and its minor page faults
(``minflt``), both read after the command returns.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")  # before numpy loads

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from survformer.cli import keep_freed_heap, run  # noqa: E402


def peak_mb():
    """This process's peak resident set so far, in MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    return int(kb) / 1024


def main(argv):
    keep_freed_heap()
    start = time.perf_counter()
    try:
        code = run(argv)
    except SystemExit as stop:  # argparse's usage errors
        code = stop.code
    seconds = time.perf_counter() - start
    minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    print(json.dumps({"argv": argv, "exit": code, "seconds": round(seconds, 3), "vmhwm_mb": round(peak_mb(), 1),
                      "minflt": minflt}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
