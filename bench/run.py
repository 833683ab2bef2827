"""manumap benchmark: run one workload's CLI job in a loop and print its metrics.

    python3 bench/run.py --workload sphere-both --seed 1 --seconds 20 --trace 0

Each job runs the workload's command sequence through ``manumap.cli.main``
in this process, exactly as typed on the command line, with ``--workers``
set to the number of usable cores.  Jobs repeat until ``--seconds`` have
passed (at least one job), and every job's outputs are checked.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced loop, then one job with a span around every layer call, and prints
the per-layer metrics.  The last line of standard output is the result as
one JSON object; the line before it is a summary with the sample counts and
the output digest.  Both are also written under bench/results/.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "manumap" / "__init__.py").is_file():
        print(f"error: no manumap sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness  # imports numpy and the whole manumap package

    import_s = time.perf_counter() - t_start
    return harness.run(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
