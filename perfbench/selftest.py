#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

For each workload, one short pass of the CLI loop must pass the checks as
printed, and each planted fault (plants.py) must make them fail. Exits 1 if
any case goes the wrong way.
"""

from __future__ import annotations

import io
import sys

import run

# Faults each workload's checks must catch. A REMOVED line at all is a fault
# on the workloads built never to conflict.
CASES = {
    "materialize": ("dropped-atom", "spurious-atom", "home-later", "unjustified-removal"),
    "guarded": ("dropped-atom", "spurious-atom", "home-later", "unjustified-removal"),
    "repair": ("dropped-atom", "spurious-atom", "home-later", "unjustified-removal",
               "hidden-removal"),
}
SLIDES = 15


def main():
    run.load_program()
    from rlwindow import cli

    import check
    import plants

    wrong = 0
    for name, faults in CASES.items():
        inputs = run.prepare(name, seed=0, slides=SLIDES)
        out, err = io.StringIO(), io.StringIO()
        status = cli.run(inputs.config, out, err)

        def verdict(text):
            return check.check_output(text, inputs.referee, inputs.extents, inputs.workload,
                                      stderr=err.getvalue(), exit_status=status)

        clean = verdict(out.getvalue())
        print(f"{name:12s} {'clean':20s} {'accepted' if clean.ok else 'REJECTED'}")
        if not clean.ok:
            wrong += 1
            print("  ", clean.problems or sorted(clean.failed.items())[:3])
        for fault in faults:
            planted = verdict(plants.PLANTS[fault](out.getvalue(), inputs.referee))
            reason = planted.problems[:1] or [m for _, m in sorted(planted.failed.items())[:1]]
            print(f"{name:12s} {fault:20s} {'rejected' if not planted.ok else 'ACCEPTED'}"
                  f"  {reason[0] if reason else ''}")
            if planted.ok:
                wrong += 1
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
