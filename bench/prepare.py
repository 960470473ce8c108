"""Set-up step of one benchmark run, in a process of its own.

run.py starts this script several times and reports the median time as
``setup_s``: interpreter start, imports, input generation and, for
toy2d-predict, training the models the timed runs load.

    python3 bench/prepare.py --workload toy2d-predict --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the run's inputs")
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    workloads.ensure_src_on_path(ROOT)
    import ueprobe.cli  # noqa: F401  (the import is part of set-up)

    workloads.prepare(args.workload, args.seed, args.out, tiny=args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
