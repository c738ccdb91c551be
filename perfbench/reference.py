#!/usr/bin/env python3
"""Reference figures for the README, measured once, not by every run.

    python3 perfbench/reference.py [--seed 1]

For each workload it prints:
- the median time of one incremental window (slide plus rendering) against
  the median time of building the same full-width window from scratch with
  the engine's public calls and rendering it, and their ratio;
- the median time per window of the CLI loop at several window widths.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import statistics
import sys
from pathlib import Path
from time import perf_counter

import run

WIDTHS = (10, 20, 30, 60)
REBUILDS = 15  # windows rebuilt from scratch per workload
PASSES = 3  # passes of the CLI loop per figure; the median pass counts


def rebuild_ms(inputs):
    """Median time to build and render one full window from scratch."""
    from rlwindow.ontology import parse_tbox, unfold_negative_inclusions
    from rlwindow.repair import add_abox_with_repair
    from rlwindow.stream import Timestamp, WindowExtent, parse_stream
    from rlwindow.window import WindowModel

    tbox = parse_tbox(Path(inputs.config.tbox_path).read_text())
    ntbox = unfold_negative_inclusions(tbox, inputs.config.unfold_depth)
    stream = parse_stream(Path(inputs.config.stream_path).read_text())
    step = max(1, len(inputs.extents) // REBUILDS)
    times = []
    for start, end in inputs.extents[::step][:REBUILDS]:
        t0 = perf_counter()
        wm = WindowModel(WindowExtent(Timestamp.of(start), Timestamp.of(end)))
        for box in stream:
            if wm.extent.contains(box.timestamp):
                if inputs.config.repair:
                    add_abox_with_repair(wm, box, tbox, ntbox)
                else:
                    wm.add_abox(box, tbox)
        lines = [f"{a.atom} @ {{{','.join(str(t) for t in sorted(a.home_timestamps))}}}"
                 for a in wm.attributed_atoms()]
        io.StringIO().write("\n".join(lines))
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def window_ms(config):
    """Median time per window of the CLI loop, written to a file as in a run."""
    from rlwindow import cli

    medians = []
    for _ in range(PASSES):
        q = run.run_pass(cli.run, config, run.WORK / "reference.out")
        medians.append(statistics.median(b - a for a, b in zip(q.stamps, q.stamps[1:])))
    return statistics.median(medians) * 1e3


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    run.load_program()
    from rlwindow.stream import Timestamp

    import workloads

    for name in workloads.WORKLOADS:
        inputs = run.prepare(name, args.seed)
        incr = window_ms(inputs.config)
        scratch = rebuild_ms(inputs)
        print(f"{name}: incremental window {incr:.1f} ms, from-scratch window "
              f"{scratch:.1f} ms, ratio {incr / scratch:.3f}")
        for width in WIDTHS:
            config = dataclasses.replace(inputs.config, width=Timestamp.of(width),
                                         origin=Timestamp.of(width))
            print(f"  width {width:3d}: {window_ms(config):.1f} ms per window")
    return 0


if __name__ == "__main__":
    sys.exit(main())
