"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-interp-stream \
        [--seed 0] [--seconds 20] [--trace 0|1]

The last line of standard output is the result as one JSON object.  The
program is imported from the checkout's ``src/``; without it the run
stops with exit code 2 before measuring anything.
"""

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (default: the pinned seed, 0)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="time budget of the measured repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer ledger instead of end-to-end")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: no program sources under %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import perf_runner
    import perf_workloads

    if args.workload not in perf_workloads.WORKLOADS:
        print("perfbench: unknown workload %r; available: %s"
              % (args.workload, ", ".join(perf_workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    return perf_runner.main(args)


if __name__ == "__main__":
    sys.exit(main())
