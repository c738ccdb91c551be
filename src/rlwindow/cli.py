"""Command-line driver: the continuous run loop and a micro-benchmark.

Exit statuses: 0 clean run, 1 oracle mismatch, 2 halted on an inconsistent
window, 3 unreadable input, 4 malformed input, 5 internal engine refusal
(budget or oracle cap).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from bisect import bisect_left, insort
from dataclasses import dataclass

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
    seed: int | None = None
    # benchmark knobs
    overlap: float = 90.0
    timestamps: int = 200
    atoms_per_tick: int = 20


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
    change set kept its homes, so its line still stands. A model built by
    sliding a new WindowModel lists every atom as changed, so it needs a
    new, empty WindowLines.
    """

    def __init__(self, labels):
        self.labels = labels
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
        with open(config.tbox_path) as f:
            tbox_text = f.read()
        with open(config.stream_path) as f:
            stream_text = f.read()
    except OSError as e:
        print(f"error: {e}", file=err)
        return EXIT_IO
    try:
        tbox = parse_tbox(tbox_text)
        stream = parse_stream(stream_text)
        spec = WindowSpec(config.width, config.slide, config.origin)
        if config.unfold_depth < 0:
            raise ValueError("unfold depth must be nonnegative")
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
    if config.repair and not ntbox.is_exact:
        print("WARNING: negative inclusion unfolding truncated at depth "
              f"{config.unfold_depth}; repairs are sound only up to that "
              "derivation depth", file=err)

    if not stream:
        return EXIT_OK
    horizon = stream[-1].timestamp
    extents = window_extents(spec, horizon) if horizon >= spec.origin else []

    hook = None
    if config.repair:
        def hook(model, box):
            return add_abox_with_repair(model, box, tbox, ntbox)[1]

    wm = None
    prev_atoms = set()  # the atoms of the last window printed in diff mode
    labels = _Labels()
    try:
        for extent in extents:
            lines = [f"WINDOW {extent}"]
            rebuilt = wm is None
            try:
                if rebuilt:
                    wm = WindowModel(extent)
                    rendered = WindowLines(labels)
                report = wm.slide(stream, extent, tbox, repair=hook)
            except UnexpectedInconsistency as exc:
                lines.append("INCONSISTENT")
                print("\n".join(lines), file=out)
                print(file=out)
                wm = None
                if config.skip_inconsistent:
                    continue
                print(f"error: window {extent} is inconsistent: {exc}", file=err)
                return EXIT_INCONSISTENT

            if config.emit == "window":
                rendered.update(wm, report.changed)
                lines.extend(rendered.lines())
                for occ in sorted(report.removals, key=lambda o: o.sort_key):
                    lines.append(f"REMOVED {labels[occ.timestamp]} {occ.atom}")
            else:
                # After a rebuild the diff is against the last printed
                # window, which the change set of a new model does not see.
                candidates = report.changed | prev_atoms if rebuilt else report.changed
                gone = sorted(a for a in candidates if a in prev_atoms and not wm.homes(a))
                new = sorted(a for a in candidates if a not in prev_atoms and wm.homes(a))
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


def bench(config):
    """Time incremental slides against from-scratch rebuilds on a generated
    workload, also checking the two routes produce the same atoms."""
    if config.seed is None:
        raise ValueError("bench requires a seed")
    tbox, stream = bench_workload(config.seed, n_ticks=config.timestamps,
                                  atoms_per_tick=config.atoms_per_tick)
    width = Timestamp.of(max(1, config.timestamps // 4))
    slide_micros = max(1, round(width.micros * (1 - config.overlap / 100)))
    spec = WindowSpec(width, Timestamp(slide_micros), width)
    extents = window_extents(spec, stream[-1].timestamp)

    rows = []
    mismatches = 0
    wm = None
    for extent in extents:
        t0 = time.perf_counter_ns()
        if wm is None:
            wm = WindowModel(extent)
        wm.slide(stream, extent, tbox)
        incr = (time.perf_counter_ns() - t0) // 1000

        t0 = time.perf_counter_ns()
        scratch = WindowModel(extent)
        scratch.slide(stream, extent, tbox)
        scr = (time.perf_counter_ns() - t0) // 1000

        rows.append(BenchRow(extent.end, incr, scr))
        if (frozenset(wm.window_interpretation().atoms())
                != frozenset(scratch.window_interpretation().atoms())):
            mismatches += 1
    return BenchResult(rows, mismatches)


def _timestamp_arg(text):
    try:
        return Timestamp.parse(text)
    except ParseError as e:
        raise argparse.ArgumentTypeError(str(e))


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["bench"]:
        p = argparse.ArgumentParser(prog="rlwindow bench")
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--overlap", type=float, default=90.0,
                       help="window overlap as a percentage")
        p.add_argument("--timestamps", type=int, default=200)
        p.add_argument("--atoms-per-tick", type=int, default=20)
        a = p.parse_args(argv[1:])
        config = RunConfig(tbox_path="", stream_path="",
                           width=Timestamp.of(1), slide=Timestamp.of(1),
                           origin=Timestamp.of(0), seed=a.seed,
                           overlap=a.overlap, timestamps=a.timestamps,
                           atoms_per_tick=a.atoms_per_tick)
        print(bench(config).render_csv())
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
