"""Command-line entry: the argument parser, ``run`` and ``main``. It imports
no numpy and no other survformer module, so ``--help`` and usage errors
start without them; ``run`` loads the commands (``commands.py``) once the
command line has parsed.
"""

import argparse
import ctypes
import sys


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="survformer",
        description="Discrete-time survival analysis with an attention encoder over tabular covariates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic competing-risks dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--events", type=int, default=2)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--censoring", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="synthetic.csv")

    p = sub.add_parser("train", help="fit a model on a CSV dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="JSON file of training settings")
    p.add_argument("--checkpoint", default="model.json")
    p.add_argument("--out", default=None, help="history JSON (default: <checkpoint>.history.json)")
    p.add_argument("--duration-col", default="duration")
    p.add_argument("--event-col", default="event")
    p.add_argument("--numerical", default=None, help="comma-separated numerical columns (default: inferred)")
    p.add_argument("--categorical", default=None, help="comma-separated categorical columns (default: inferred)")
    p.add_argument("--fractions", default="0.6,0.1,0.3", help="train,validation,test fractions")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p = sub.add_parser("eval", help="report concordance on a data fold")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default="metrics.json")
    p.add_argument("--quantiles", default="0.25,0.5,0.75")
    p.add_argument("--fold", choices=["test", "validation", "train", "all"], default="test")

    p = sub.add_parser("predict", help="write survival curves for records")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--times", required=True, help="comma-separated query times")
    p.add_argument("--out", default="curves.csv")

    p = sub.add_parser("attention", help="export attention maps for one record")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--row", type=int, default=0)
    p.add_argument("--out", default="attention.json")

    return parser


def run(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        from .commands import _COMMANDS

        return _COMMANDS[args.command](args)
    except (ValueError, RuntimeError, OSError, MemoryError) as err:
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 1


# glibc hands the freed top of its heap back to the kernel once it passes
# 128 KiB, so every training batch and 256-record inference chunk faults its
# temporaries' pages in again, as often as where unrelated allocations happen
# to sit decides. Keeping up to 64 MiB of freed top mapped lets the next batch
# or chunk reuse those pages. Setting the pad also freezes glibc's dynamic
# mmap threshold wherever it stands, which would leave every array above it
# mapped and faulted anew on each use, so the threshold is pinned at 32 MiB,
# the ceiling the dynamic one climbs to on 64-bit builds (32-bit ones refuse
# it). Only the command-line entry sets them: ``run`` and the package leave
# the host process's allocator alone.
M_TOP_PAD, M_MMAP_THRESHOLD = -2, -3
HEAP_TOP_PAD = 64 << 20
MMAP_THRESHOLD = 32 << 20


def keep_freed_heap():
    """Set glibc's mmap threshold and heap top pad; False where libc has no
    ``mallopt`` (macOS, Windows) or refuses the threshold, and nothing
    changes."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1 and mallopt(M_TOP_PAD, HEAP_TOP_PAD) == 1


def main():
    keep_freed_heap()
    sys.exit(run())


if __name__ == "__main__":
    main()
