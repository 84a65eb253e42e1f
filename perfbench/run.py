"""Run one benchmark workload of the emdp package and print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload freq-unbounded --seed 1 --seconds 20 --trace 0

The package is imported from the checkout's ``src`` directory. The last line
of standard output is the result, a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment, sample counts and any failure messages. ``--trace 1`` reports
the per-layer metrics of a traced pass instead of the end-to-end metrics and
writes its spans under ``perfbench/out``.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from pathlib import Path

# One client, one thread: BLAS must not add threads of its own. These must be
# set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# Pin glibc's malloc so that large temporaries reuse heap memory. By default
# the mmap threshold moves after the first large free and the heap is trimmed
# past a threshold that moves with it, so whether a temporary of a few MB costs
# fresh page faults depends on the heap's history: the same release ran at
# either of two speeds, 40% apart, from one run to the next.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
try:
    _libc = ctypes.CDLL(None)
    _libc.mallopt(M_MMAP_THRESHOLD, 64 << 20)
    _libc.mallopt(M_TRIM_THRESHOLD, 256 << 20)
except (OSError, AttributeError):  # not glibc
    pass

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"  # span files of traced runs
WORKLOAD_NAMES = ("freq-unbounded", "linear-local", "audit-tiny")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    if not (SRC / "emdp" / "__init__.py").is_file():
        print(f"error: the emdp sources are missing ({SRC / 'emdp'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import emdp

    if Path(emdp.__file__).resolve().parent != SRC / "emdp":
        print(f"error: imported emdp from {emdp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from emdpbench import WORKLOADS, harness

    result, info = harness.run(WORKLOADS, args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
