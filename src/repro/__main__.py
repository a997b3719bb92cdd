"""Command-line entry point: run paper experiments by name.

Usage::

    python -m repro list | all | table1 | fig3 ... [--quick]
    python -m repro chaos|verify|repair|rebalance|protocols ... [--json]
    python -m repro trace|metrics|bench|scale|sweep ...
    python -m repro <command> --help

Every command is an entry of :mod:`repro.harness.registry`, which
declares its flags, run and render functions, default seeds and, for
``rebalance`` and ``protocols``, the golden file its fingerprints are
checked against (:mod:`repro.goldens`).  The same entries back the
sweep farm (``sweep`` and ``--parallel N``).
"""

from __future__ import annotations

import argparse
import sys
import time

from .harness.registry import FIGURES, REGISTRY

__all__ = ["main", "EXPERIMENTS"]

#: The paper's figure and table experiments, by name.
EXPERIMENTS = {exp.name: exp for exp in FIGURES}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = REGISTRY.get(argv[0]) if argv else None
    if command is not None and command.main is not None:
        return command.main(command, command.parser().parse_args(argv[1:]))
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's evaluation tables and figures.")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["all", "list"],
                        help="experiment to run (or 'all' / 'list')")
    parser.add_argument("--quick", action="store_true",
                        help="smaller runs (~5x faster, coarser tails)")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        print("\n".join(sorted(EXPERIMENTS)))
        return 0
    names = (sorted(EXPERIMENTS) if args.experiment == "all"
             else [args.experiment])
    for name in names:
        start = time.time()
        for table in EXPERIMENTS[name].run(args.quick):
            table.print()
        print(f"\n[{name} finished in {time.time() - start:.1f}s wall]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
