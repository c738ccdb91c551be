#!/usr/bin/env python3
"""Seeded equivalence fuzzing of the incremental engine against the oracles.

Modes:
  materialization  windows sliding by one tick and by two, under a TBox
                   without negative inclusions, whose slides ingest their
                   fresh ticks with one fixpoint, and under one with a
                   single negative inclusion, whose slides add them tick by
                   tick: each slide's outcome (occurrences, or the text of
                   the error it raised) vs a window built tick by tick from
                   scratch, and its atoms vs the canonical model
  repair           repaired survivor sets vs the definitional window repair,
                   and the repaired materialization (atoms and homes) vs a
                   window built from scratch out of the survivors, re-checked
                   after every slide (suffix stability); then random
                   retractions under a cyclic TBox vs the same rebuild;
                   then ticks under a cyclic TBox, where conflicts run
                   through derivation chains of any depth: each tick must
                   leave survivors the chase finds consistent, and a
                   materialization equal to a rebuild of them
  rewrite          flattened negative bodies vs chase inconsistency

Exits non-zero if any case disagrees, printing the offending seed.
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rlwindow.errors import UnexpectedInconsistency
from rlwindow.interpretation import (Inconsistent, canonical_model,
                                     eval_concept, standard_interpretation)
from rlwindow.ontology import unfold_negative_inclusions
from rlwindow.oracle import definitional_window_repair, naive_window_materialization
from rlwindow.repair import add_abox_with_repair, apply_repair
from rlwindow.stream import (MomentaryABox, Timestamp, WindowExtent, WindowSpec,
                             window_abox, window_extents)
from rlwindow.synth import random_stream, random_tbox
from rlwindow.window import WindowModel


def check_materialization(seed):
    stream = random_stream(seed + 1, n_ticks=8, atoms_per_tick=4)
    for n_negative in (0, 1):
        tbox = random_tbox(seed, n_axioms=8, n_negative=n_negative, acyclic=False)
        for slide in (1, 2):
            spec = WindowSpec(Timestamp.of(3), Timestamp.of(slide), Timestamp.of(3))
            wm = None
            for extent in window_extents(spec, stream[-1].timestamp):
                if wm is None:
                    wm = WindowModel(extent)
                try:
                    wm.slide(stream, extent, tbox)
                    got = wm.occurrences()
                except UnexpectedInconsistency as e:
                    got = str(e)
                try:
                    want = _scratch_window(window_abox(stream, extent), extent, tbox).occurrences()
                except UnexpectedInconsistency as e:
                    want = str(e)
                where = f"{n_negative} negative, slide {slide}: window {extent}"
                if got != want:
                    return f"{where} diverges from a tick-by-tick build"
                expect = naive_window_materialization(stream, extent, tbox)
                if isinstance(expect, Inconsistent) != isinstance(got, str):
                    return f"{where} and the chase disagree on consistency"
                if (not isinstance(got, str)
                        and frozenset(wm.window_interpretation().atoms()) != frozenset(expect.atoms())):
                    return f"{where} diverges from the canonical model"
    return None


def _exact_tbox(seed):
    tbox = random_tbox(seed, n_concepts=5, n_roles=2, n_axioms=5, n_negative=2)
    ntbox = unfold_negative_inclusions(tbox, 16)
    return (tbox, ntbox) if ntbox.is_exact else None


def check_repair(seed):
    return (_check_repaired_slides(seed) or _check_retraction(seed)
            or _check_truncated_ticks(seed))


def _check_repaired_slides(seed):
    made = _exact_tbox(seed)
    if made is None:
        return None
    tbox, _ = made
    stream = random_stream(seed + 1, n_ticks=4, atoms_per_tick=2,
                           n_individuals=2, n_concepts=5, n_roles=2)
    spec = WindowSpec(Timestamp.of(2), Timestamp.of(1), Timestamp.of(2))
    hook = lambda model, box: add_abox_with_repair(model, box, tbox)[1]
    wm = None
    for extent in window_extents(spec, stream[-1].timestamp):
        if wm is None:
            wm = WindowModel(extent)
        wm.slide(stream, extent, tbox, repair=hook)
        survivors = wm.asserted_occurrences()
        if survivors != set(definitional_window_repair(stream, extent, tbox)):
            return f"survivors at {extent} diverge from the definitional repair"
        if wm.occurrences() != _scratch_window(survivors, extent, tbox).occurrences():
            return f"materialization at {extent} diverges from a rebuild of the survivors"
    return None


def _check_retraction(seed):
    """Retract random assertions from one window; the exact TBoxes above
    hardly ever leave a retracted consequence with a second derivation, a
    cyclic one often does."""
    tbox = random_tbox(seed, n_axioms=8, n_negative=0, acyclic=False)
    stream = random_stream(seed + 1, n_ticks=5, atoms_per_tick=4)
    extent = WindowExtent(Timestamp.of(0), Timestamp.of(4))
    wm = WindowModel(extent)
    wm.slide(stream, extent, tbox)
    rng = random.Random(seed)
    removed = [o for o in sorted(wm.asserted_occurrences(), key=lambda o: o.sort_key)
               if rng.random() < 0.3]
    apply_repair(wm, removed, tbox)
    if wm.occurrences() != _scratch_window(wm.asserted_occurrences(), extent, tbox).occurrences():
        return "retraction diverges from a rebuild of the survivors"
    return None


def _check_truncated_ticks(seed):
    """Add ticks one by one under a cyclic TBox, whose negative-inclusion
    rewrite often never closes; repair does not read it. A raise is a
    failure too."""
    tbox = random_tbox(seed, n_concepts=4, n_roles=2, n_axioms=6, n_negative=2,
                       acyclic=False)
    stream = random_stream(seed + 1, n_ticks=6, atoms_per_tick=3,
                           n_individuals=2, n_concepts=4, n_roles=2)
    extent = WindowExtent(Timestamp.of(0), Timestamp.of(5))
    wm = WindowModel(extent)
    for box in stream:
        try:
            add_abox_with_repair(wm, box, tbox)
        except UnexpectedInconsistency:
            return f"tick {box.timestamp} raised UnexpectedInconsistency"
        survivors = wm.asserted_occurrences()
        if isinstance(canonical_model({o.atom for o in survivors}, tbox), Inconsistent):
            return f"survivors after tick {box.timestamp} violate a negative inclusion"
        if wm.occurrences() != _scratch_window(survivors, extent, tbox).occurrences():
            return f"materialization after tick {box.timestamp} diverges from a rebuild"
    return None


def _scratch_window(survivors, extent, tbox):
    """A window built tick by tick from the given asserted occurrences."""
    by_ts = {}
    for o in survivors:
        by_ts.setdefault(o.timestamp, set()).add(o.atom)
    scratch = WindowModel(extent)
    for t in sorted(by_ts):
        scratch.add_abox(MomentaryABox(t, frozenset(by_ts[t])), tbox)
    return scratch


def check_rewrite(seed):
    made = _exact_tbox(seed)
    if made is None:
        return None
    tbox, ntbox = made
    box = random_stream(seed + 1, n_ticks=1, atoms_per_tick=6,
                        n_individuals=2, n_concepts=5, n_roles=2)[0]
    plain = standard_interpretation(box.atoms)
    flagged = any(eval_concept(body, plain) for body in ntbox.flattened_negatives)
    clashes = isinstance(canonical_model(box.atoms, tbox), Inconsistent)
    if flagged != clashes:
        return "flattened bodies and the chase disagree"
    return None


CHECKS = {
    "materialization": check_materialization,
    "repair": check_repair,
    "rewrite": check_rewrite,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=sorted(CHECKS), default="materialization")
    parser.add_argument("--cases", type=int, default=500)
    parser.add_argument("--seed0", type=int, default=0,
                        help="first seed; cases use seed0, seed0+2, ...")
    args = parser.parse_args(argv)

    check = CHECKS[args.mode]
    failures = 0
    start = time.perf_counter()
    for i in range(args.cases):
        seed = args.seed0 + 2 * i
        problem = check(seed)
        if problem:
            failures += 1
            print(f"seed {seed}: {problem}")
    elapsed = time.perf_counter() - start
    print(f"{args.mode}: {args.cases} cases, {failures} failures, {elapsed:.2f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
