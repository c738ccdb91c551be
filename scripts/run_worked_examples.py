#!/usr/bin/env python3
"""Walk the canned scenarios end to end and print what the engine does.

Covers the four behaviors the suite gates exactly: home-timestamp
attribution over a growing-then-sliding window, conflict detection and
newest-first resolution, timestamps acting as trust levels, and the
car-pedals repair during a slide.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rlwindow.ontology import format_tbox, parse_tbox
from rlwindow.oracle import cross_check, preferred_repairs
from rlwindow.repair import add_abox_with_repair
from rlwindow.stream import (ConceptAtom, MomentaryABox, Timestamp,
                             WindowExtent, parse_stream)
from rlwindow.window import WindowModel


def ts(v):
    return Timestamp.of(v)


def show_window(wm):
    for att in wm.attributed_atoms():
        homes = ",".join(str(t) for t in sorted(att.home_timestamps))
        print(f"  {att.atom} @ {{{homes}}}  ({att.origin})")


def banner(title):
    print()
    print(f"== {title} " + "=" * max(0, 60 - len(title)))


def sliding_attribution():
    banner("home timestamps under a sliding window")
    tbox = parse_tbox("A & C < D\nB & D < E\n")
    stream = parse_stream("1 A(a)\n1 B(a)\n2 C(a)\n3 A(a)\n4 B(a)\n")
    print("ontology:")
    print("  " + format_tbox(tbox).strip().replace("\n", "\n  "))

    wm = WindowModel(WindowExtent(ts(1), ts(2)))
    for box in stream[:2]:
        wm.add_abox(box, tbox)
    print("window [1, 2]:")
    show_window(wm)

    for extent in (WindowExtent(ts(1), ts(3)), WindowExtent(ts(2), ts(4))):
        wm.slide(stream, extent, tbox)
        print(f"window {extent}:")
        show_window(wm)

    verdict = cross_check(wm, stream, wm.extent, tbox)
    print(verdict.render())


def conflict_resolution():
    banner("newest-first conflict resolution")
    tbox = parse_tbox("A & B & C < bot\nB & D < bot")
    wm = WindowModel(WindowExtent(ts(1), ts(3)))
    wm.add_abox(MomentaryABox(ts(1), frozenset({ConceptAtom("A", "a")})), tbox)
    wm.add_abox(MomentaryABox(ts(2), frozenset({ConceptAtom("B", "a")})), tbox)
    incoming = MomentaryABox(ts(3), frozenset({ConceptAtom("C", "a"),
                                               ConceptAtom("D", "a")}))

    wm, report = add_abox_with_repair(wm, incoming, tbox)
    for c in report.conflicts:
        members = ", ".join(str(o) for o in sorted(c.occurrences, key=lambda o: o.sort_key))
        oldest = ", ".join(str(o) for o in sorted(c.min_set, key=lambda o: o.sort_key))
        print(f"  conflict {{{members}}} — oldest slice {{{oldest}}}")
    print("  resolution removes:", ", ".join(str(o) for o in sorted(report.removed,
                                                                    key=lambda o: o.sort_key)))
    survivors = ", ".join(str(o) for o in sorted(wm.asserted_occurrences(),
                                                 key=lambda o: o.sort_key))
    print(f"  surviving assertions: {{{survivors}}}")
    print(f"  overdeleted {report.overdeleted}, rederived {report.rederived}")


def trust_levels():
    banner("timestamps as trust levels")
    tbox = parse_tbox("A & C < bot\nB & C < bot")
    wm = WindowModel(WindowExtent(ts(1), ts(2)))
    wm.add_abox(MomentaryABox(ts(1), frozenset({ConceptAtom("A", "a"),
                                                ConceptAtom("B", "a")})), tbox)
    wm, report = add_abox_with_repair(
        wm, MomentaryABox(ts(2), frozenset({ConceptAtom("C", "a")})), tbox)
    print("  removed:", ", ".join(str(o) for o in sorted(report.removed,
                                                         key=lambda o: o.sort_key)))
    print("  entailed:", ", ".join(str(a) for a in sorted(
        wm.window_interpretation().atoms(), key=lambda a: a.sort_key)))

    repairs = preferred_repairs([{ConceptAtom("A", "a"), ConceptAtom("B", "a")},
                                 {ConceptAtom("C", "a")}], tbox)
    rendered = [" | ".join(str(a) for a in sorted(r, key=lambda a: a.sort_key)) or "(empty)"
                for r in repairs]
    print("  level-based repairs of the same pool:", "; ".join(sorted(rendered)))


def pedal_repair():
    banner("sliding repair on the car-pedals stream")
    tbox = parse_tbox("GasPedalPressed & BreaksPressed < bot\n")
    stream = parse_stream("0 GasPedalPressed(x)\n"
                          "1 GasPedalPressed(x)\n"
                          "3 BreaksPressed(x)\n"
                          "4 BreaksPressed(x)\n"
                          "4 ClutchPressed(x)\n")
    wm = WindowModel(WindowExtent(ts(0), ts(2)))
    for box in stream:
        if wm.extent.contains(box.timestamp):
            wm.add_abox(box, tbox)
    hook = lambda model, box: add_abox_with_repair(model, box, tbox)[1]
    for end in (3, 4):
        extent = WindowExtent(ts(end - 2), ts(end))
        report = wm.slide(stream, extent, tbox, repair=hook)
        print(f"window {extent}: +{report.added_occurrences} assertions, "
              f"-{report.expired_occurrences} expired, "
              f"removed {[str(o) for o in report.removals] or 'nothing'}")
        show_window(wm)


if __name__ == "__main__":
    sliding_attribution()
    conflict_resolution()
    trust_levels()
    pedal_repair()
