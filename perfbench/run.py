#!/usr/bin/env python3
"""Benchmark of the rlwindow command-line run loop, `rlwindow.cli.run`.

Run from the root of the repository:

    python3 perfbench/run.py --workload materialize --seed 1 --seconds 30 --trace 0

The run generates a TBox and a stream file from the seed, then calls
`cli.run` in-process on them again and again (one pass each) for at least
`--seconds` seconds and at least two passes. Output goes to a file through a
writer that stamps each WINDOW block as it arrives; the loop is closed, since
`cli.run` starts the next window as soon as it has written the last one.
After the timed passes, the first pass's output is checked against the naive
chase (see check.py) and every later pass must print the same blocks. The
last line of standard output is one JSON object with `correct`, `attempted`
and `failed` (windows) and `metrics`: the end-to-end metrics with
`--trace 0`; with `--trace 1`, traced and untraced passes alternate and the
metrics are the per-layer ones of the traced passes (see tracing.py).

The process re-executes itself once with PYTHONHASHSEED=0, so that every run
of a seed does the same work.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
MIN_PASSES = 2


def load_program():
    """Import rlwindow from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import rlwindow
    except ImportError:
        sys.exit(f"error: no rlwindow package under {src}")
    if Path(rlwindow.__file__).resolve().parent.parent != src:
        sys.exit(f"error: rlwindow was imported from {rlwindow.__file__}, not {src}")


@dataclass
class Inputs:
    config: object
    ticks: list
    extents: list
    referee: object
    workload: object


def prepare(name, seed, slides=None):
    """Write the workload's TBox and stream under WORK; return what runs and checks them."""
    from rlwindow.cli import RunConfig
    from rlwindow.ontology import parse_tbox
    from rlwindow.stream import Timestamp

    import check

    workload = workloads.WORKLOADS[name]
    if slides is None:
        slides = workloads.SLIDES
    ticks = workloads.make_stream(workload, seed, slides)
    WORK.mkdir(exist_ok=True)
    tbox_path = WORK / f"{name}.tbox"
    stream_path = WORK / f"{name}.stream"
    tbox_path.write_text(workload.tbox)
    stream_path.write_text(workloads.stream_text(ticks))
    config = RunConfig(
        tbox_path=str(tbox_path), stream_path=str(stream_path),
        width=Timestamp.of(workloads.WIDTH), slide=Timestamp.of(workloads.SLIDE),
        origin=Timestamp.of(workloads.WIDTH), repair=workload.repair,
        unfold_depth=workloads.UNFOLD_DEPTH, emit="window")
    extents = check.expected_extents(len(ticks), workloads.WIDTH, workloads.SLIDE)
    return Inputs(config, ticks, extents, check.Referee(ticks, parse_tbox(workload.tbox)),
                  workload)


class BlockClock:
    """A file writer that stamps each window block as it arrives."""

    def __init__(self, f):
        self.f = f
        self.stamps = []

    def write(self, text):
        if text.startswith("WINDOW "):
            self.stamps.append(perf_counter())
        return self.f.write(text)


@dataclass
class Pass:
    started: float
    stamps: list
    finished: float
    status: int
    stderr: str
    traced: bool


def run_pass(run, config, path, traced=False):
    err = io.StringIO()
    with open(path, "w") as f:
        clock = BlockClock(f)
        started = perf_counter()
        status = run(config, clock, err)
        finished = perf_counter()
    return Pass(started, clock.stamps, finished, status, err.getvalue(), traced)


def block_digests(path):
    """A digest of each window block in an output file, read line by line so
    that comparing passes adds nothing to the process's peak memory."""
    digests, h = [], hashlib.sha1()
    with open(path) as f:
        for line in f:
            if line == "\n":
                digests.append(h.digest())
                h = hashlib.sha1()
            else:
                h.update(line.encode())
    return digests


def pass_figures(q, atoms_after_first):
    """(window_ms_p50, window_ms_tail, atoms/s) of one pass; the tail is the
    90th percentile, the highest with ten of a pass's intervals beyond it."""
    intervals = [b - a for a, b in zip(q.stamps, q.stamps[1:])]
    return (statistics.median(intervals) * 1e3,
            statistics.quantiles(intervals, n=10)[-1] * 1e3,
            atoms_after_first / (q.stamps[-1] - q.stamps[0]))


def end_to_end(passes, atoms_after_first, peak_rss_mib):
    """Each timing is the median over the run's passes of that pass's figure,
    so a pass slowed by a burst of load on the machine does not move it."""
    p50, tail, rate = zip(*(pass_figures(q, atoms_after_first) for q in passes))
    return {
        "setup_s": (statistics.median(q.stamps[0] - q.started for q in passes), "s"),
        "window_ms_p50": (statistics.median(p50), "ms"),
        "window_ms_tail": (statistics.median(tail), "ms"),
        "atoms_per_s": (statistics.median(rate), "atoms/s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


def measure(inputs, seconds, trace, tracer):
    """Run passes for `seconds` (at least MIN_PASSES); with `trace`, every
    second pass is traced. Returns the passes and, for each, the windows
    whose block differs from the first pass's."""
    from rlwindow import cli

    import tracing

    traced_run = tracer.wrap(tracing.RUN, cli.run)
    name = inputs.workload.name
    passes, differs = [], []
    first_digests = None
    deadline = perf_counter() + seconds
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        path = WORK / (f"{name}.out" if not passes else f"{name}.later.out")
        if trace and len(passes) % 2 == 1:
            with tracer.installed():
                passes.append(run_pass(traced_run, inputs.config, path, traced=True))
        else:
            passes.append(run_pass(cli.run, inputs.config, path))
        digests = block_digests(path)
        if first_digests is None:
            first_digests = digests
        differs.append({k for k in range(len(inputs.extents))
                        if k >= len(digests) or k >= len(first_digests)
                        or digests[k] != first_digests[k]})
    return passes, differs


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--plant", help="plant this fault in the first pass's output "
                   "before checking it (see plants.py); the run must then fail")
    args = p.parse_args(argv)

    load_program()
    import check
    import plants
    import tracing

    if args.plant is not None and args.plant not in plants.PLANTS:
        p.error(f"--plant must be one of {', '.join(plants.PLANTS)}")
    inputs = prepare(args.workload, args.seed)
    first_end = inputs.extents[0][1]
    atoms_after_first = sum(len(atoms) for t, atoms in inputs.ticks
                            if first_end < t <= inputs.extents[-1][1])
    tracer = tracing.Tracer()
    passes, differs = measure(inputs, args.seconds, args.trace, tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    text = (WORK / f"{args.workload}.out").read_text()
    if args.plant is not None:
        text = plants.PLANTS[args.plant](text, inputs.referee)
    first = passes[0]
    verdict = check.check_output(text, inputs.referee, inputs.extents, inputs.workload,
                                 stderr=first.stderr, exit_status=first.status)
    for q in passes[1:]:
        if q.status != first.status or q.stderr != first.stderr:
            verdict.problems.append("a later pass ended differently from the first")
    windows = len(inputs.extents)
    failed = sum(len(verdict.failed.keys() | d) for d in differs)
    if verdict.problems:
        failed = windows * len(passes)
    correct = failed == 0
    for k, message in sorted(verdict.failed.items())[:5]:
        print(f"window {k}: {message}", file=sys.stderr)
    for message in verdict.problems:
        print(message, file=sys.stderr)

    if all(len(q.stamps) == windows for q in passes):
        if args.trace:
            traced = [q for q in passes if q.traced]
            plain = [q for q in passes if not q.traced]
            metrics = tracer.metrics(len(traced))
            metrics["trace.overhead"] = (
                statistics.median(q.finished - q.started for q in traced)
                / statistics.median(q.finished - q.started for q in plain), "ratio")
        else:
            metrics = end_to_end(passes, atoms_after_first, peak_rss_mib)
    else:
        metrics = {}
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes of {windows} windows, "
          f"{failed} failed", file=sys.stderr)
    for q in passes:
        if len(q.stamps) == windows:
            p50, p90, rate = pass_figures(q, atoms_after_first)
            print(f"  pass{' (traced)' if q.traced else ''}: setup {q.stamps[0] - q.started:.4f} s,"
                  f" p50 {p50:.3f} ms, p90 {p90:.3f} ms, {rate:.1f} atoms/s", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": windows * len(passes),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())
