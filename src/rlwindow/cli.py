"""Command-line driver: the continuous run loop and a micro-benchmark.

Exit statuses: 0 clean run, 1 oracle mismatch, 2 halted on an inconsistent
window, 3 unreadable input or standard output closed early, 4 malformed
input, 5 internal engine refusal (budget or oracle cap).
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import chain

from .errors import EngineError, ParseError, UnexpectedInconsistency
from .ontology import parse_tbox, unfold_negative_inclusions
from .oracle import cross_check
from .repair import add_abox_with_repair
from .stream import Timestamp, WindowSpec, parse_stream, window_extents
from .synth import bench_workload
from .window import WindowModel

EXIT_OK = 0
EXIT_ORACLE_MISMATCH = 1
EXIT_INCONSISTENT = 2
EXIT_IO = 3
EXIT_PARSE = 4
EXIT_ENGINE = 5


@dataclass
class RunConfig:
    tbox_path: str
    stream_path: str
    width: Timestamp
    slide: Timestamp
    origin: Timestamp
    repair: bool = False
    unfold_depth: int = 3
    emit: str = "window"
    check_oracle: bool = False
    skip_inconsistent: bool = False


class _Labels(dict):
    """Printed text of each timestamp, formatted on first use."""

    def __missing__(self, ts):
        text = self[ts] = str(ts)
        return text


class WindowLines:
    """The printed line of each atom of a window, in atom order, brought up
    to date from each slide's change set instead of re-rendered whole.

    Holds one line per atom and the sorted list of the atoms. update
    re-renders the line of each changed atom the model still holds and
    drops the line of each one it no longer holds; an atom outside the
    change set kept its homes, so its line still stands.
    """

    def __init__(self):
        self.labels = _Labels()
        self.line = {}
        self.atoms = []

    def update(self, wm, changed):
        line, atoms, label = self.line, self.atoms, self.labels.__getitem__
        for atom in changed:
            homes = wm.homes(atom)
            if homes:
                if atom not in line:
                    insort(atoms, atom)
                line[atom] = f"{atom} @ {{{','.join(map(label, sorted(homes)))}}}"
            elif atom in line:
                del line[atom]
                del atoms[bisect_left(atoms, atom)]

    def lines(self):
        return map(self.line.__getitem__, self.atoms)


def run(config, out=None, err=None):
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        with open(config.tbox_path, encoding="utf-8") as f:
            tbox_text = f.read()
        with open(config.stream_path, encoding="utf-8") as f:
            stream_text = f.read()
    except OSError as e:
        print(f"error: {e}", file=err)
        return EXIT_IO
    except UnicodeDecodeError as e:
        print(f"parse error: {f.name}: {e}", file=err)
        return EXIT_PARSE
    try:
        tbox = parse_tbox(tbox_text)
        stream = parse_stream(stream_text)
        spec = WindowSpec(config.width, config.slide, config.origin)
        if config.unfold_depth < 0:
            raise ValueError("unfold depth must be nonnegative")
        if config.emit not in ("window", "diff"):
            raise ValueError(f"emit must be 'window' or 'diff', not {config.emit!r}")
    except ParseError as e:
        print(f"parse error: {e}", file=err)
        return EXIT_PARSE
    except ValueError as e:
        print(f"error: {e}", file=err)
        return EXIT_PARSE

    try:
        ntbox = unfold_negative_inclusions(tbox, config.unfold_depth)
    except EngineError as e:
        print(f"error: {e}", file=err)
        return EXIT_ENGINE

    if not stream or stream[-1].timestamp < spec.origin:
        return EXIT_OK
    extents = window_extents(spec, stream[-1].timestamp)

    hook = None
    if config.repair:
        def hook(model, box):
            return add_abox_with_repair(model, box, tbox)[1]

    # A failed slide leaves the model as it was, so after an inconsistent
    # window the run slides on from the last consistent one.
    first = next(extents)
    wm = WindowModel(first)
    rendered = WindowLines()
    prev_atoms = set()  # the atoms of the last window printed in diff mode
    try:
        for extent in chain((first,), extents):
            lines = [f"WINDOW {extent}"]
            try:
                report = wm.slide(stream, extent, tbox, repair=hook)
            except UnexpectedInconsistency as exc:
                lines.append("INCONSISTENT")
                print("\n".join(lines), file=out)
                print(file=out)
                if config.skip_inconsistent:
                    continue
                print(f"error: window {extent} is inconsistent: {exc}", file=err)
                return EXIT_INCONSISTENT

            if config.emit == "window":
                rendered.update(wm, report.changed)
                lines.extend(rendered.lines())
                lines.extend(f"REMOVED {rendered.labels[occ.timestamp]} {occ.atom}"
                             for occ in report.removals)
            else:
                gone = sorted(a for a in report.changed if a in prev_atoms and not wm.homes(a))
                new = sorted(a for a in report.changed if a not in prev_atoms and wm.homes(a))
                lines.extend(f"- {a}" for a in gone)
                lines.extend(f"+ {a}" for a in new)
                prev_atoms.difference_update(gone)
                prev_atoms.update(new)
            print("\n".join(lines), file=out)
            print(file=out)

            if config.check_oracle:
                verdict = cross_check(wm, stream, extent, tbox, ntbox)
                if not verdict.match:
                    print(verdict.render(), file=err)
                    return EXIT_ORACLE_MISMATCH
    except EngineError as e:
        print(f"error: {e}", file=err)
        return EXIT_ENGINE
    return EXIT_OK


@dataclass
class BenchRow:
    window_end: Timestamp
    incr_micros: int
    scratch_micros: int


@dataclass
class BenchResult:
    rows: list[BenchRow]
    mismatches: int

    @property
    def median_incr(self):
        return statistics.median(r.incr_micros for r in self.rows)

    @property
    def median_scratch(self):
        return statistics.median(r.scratch_micros for r in self.rows)

    @property
    def ratio(self):
        return self.median_incr / self.median_scratch

    def render_csv(self):
        lines = ["window_end,incr_micros,scratch_micros"]
        lines.extend(f"{r.window_end},{r.incr_micros},{r.scratch_micros}"
                     for r in self.rows)
        lines.append(
            f"# windows={len(self.rows)} mismatches={self.mismatches} "
            f"median_incr_micros={self.median_incr:.0f} "
            f"median_scratch_micros={self.median_scratch:.0f} "
            f"ratio={self.ratio:.3f}")
        return "\n".join(lines)


def _check_bench_args(seed, overlap, timestamps, atoms_per_tick):
    """Raise ValueError for bench arguments it cannot run."""
    if seed is None:
        raise ValueError("bench requires a seed")
    if timestamps < 2:
        raise ValueError(f"bench needs at least 2 timestamps, not {timestamps}")
    if atoms_per_tick < 0:
        raise ValueError(f"atoms per tick must be at least 0, not {atoms_per_tick}")
    if not 0 <= overlap < 100:
        raise ValueError(f"overlap must be at least 0 and below 100, not {overlap:g}")


def bench(seed, overlap=90.0, timestamps=200, atoms_per_tick=20):
    """Time incremental slides against from-scratch rebuilds on a generated
    workload of timestamps ticks, in windows a quarter of it wide that
    overlap by overlap percent, also checking the two routes produce the
    same atoms with the same homes. Arguments it cannot run raise ValueError
    before anything is built."""
    _check_bench_args(seed, overlap, timestamps, atoms_per_tick)
    tbox, stream = bench_workload(seed, n_ticks=timestamps, atoms_per_tick=atoms_per_tick)
    width = Timestamp.of(max(1, timestamps // 4))
    slide_micros = max(1, round(width.micros * (1 - overlap / 100)))
    spec = WindowSpec(width, Timestamp(slide_micros), width)
    extents = window_extents(spec, stream[-1].timestamp)

    rows = []
    mismatches = 0
    first = next(extents)
    wm = WindowModel(first)
    for extent in chain((first,), extents):
        t0 = time.perf_counter_ns()
        wm.slide(stream, extent, tbox)
        incr = (time.perf_counter_ns() - t0) // 1000

        t0 = time.perf_counter_ns()
        scratch = WindowModel(extent)
        scratch.slide(stream, extent, tbox)
        scr = (time.perf_counter_ns() - t0) // 1000

        rows.append(BenchRow(extent.end, incr, scr))
        mismatches += wm.occurrences() != scratch.occurrences()
    return BenchResult(rows, mismatches)


def _timestamp_arg(text):
    try:
        return Timestamp.parse(text)
    except ParseError as e:
        raise argparse.ArgumentTypeError(str(e))


def main(argv=None):
    """Run the command line and return its exit status. A reader that closes
    standard output early, as head does, ends the run with EXIT_IO."""
    try:
        status = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point standard output at the null device, so that the flush at
        # interpreter exit cannot fail again with a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    return status


def _main(argv):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["bench"]:
        p = argparse.ArgumentParser(prog="rlwindow bench")
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--overlap", type=float, default=90.0,
                       help="window overlap as a percentage")
        p.add_argument("--timestamps", type=int, default=200)
        p.add_argument("--atoms-per-tick", type=int, default=20)
        a = p.parse_args(argv[1:])
        try:
            _check_bench_args(a.seed, a.overlap, a.timestamps, a.atoms_per_tick)
        except ValueError as e:
            p.error(str(e))
        print(bench(a.seed, a.overlap, a.timestamps, a.atoms_per_tick).render_csv())
        return EXIT_OK

    p = argparse.ArgumentParser(prog="rlwindow")
    p.add_argument("--tbox", required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--width", type=_timestamp_arg, required=True)
    p.add_argument("--slide", type=_timestamp_arg, required=True)
    p.add_argument("--origin", type=_timestamp_arg, required=True)
    p.add_argument("--repair", action="store_true")
    p.add_argument("--unfold-depth", type=int, default=3)
    p.add_argument("--emit", choices=["window", "diff"], default="window")
    p.add_argument("--check-oracle", action="store_true")
    p.add_argument("--skip-inconsistent", action="store_true")
    a = p.parse_args(argv)
    config = RunConfig(tbox_path=a.tbox, stream_path=a.stream, width=a.width,
                       slide=a.slide, origin=a.origin, repair=a.repair,
                       unfold_depth=a.unfold_depth, emit=a.emit,
                       check_oracle=a.check_oracle,
                       skip_inconsistent=a.skip_inconsistent)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
