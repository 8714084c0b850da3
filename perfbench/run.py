"""The repository benchmark: one workload per run, outputs checked.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` measures the per-layer metrics (see ``layers.py``).  The
last line of standard output is the JSON result; the lines before it
list the configuration and every metric by name, with its unit.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import sys

import common

WORKLOADS = ("serve-small", "serve-sessions", "solve-paper", "fleet-city")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    common.require_source()
    config = common.machine(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.workload == "fleet-city":
        import fleet

        outcome = fleet.run(args.seed, args.seconds, bool(args.trace))
    else:
        import serve_load

        scratch = common.scratch_dir()
        try:
            outcome = serve_load.run(
                args.workload, args.seed, args.seconds, scratch, bool(args.trace)
            )
        finally:
            common.remove_scratch(scratch)
    common.emit(outcome, config)
    return 0


if __name__ == "__main__":
    sys.exit(main())
