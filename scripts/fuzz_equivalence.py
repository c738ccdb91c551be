#!/usr/bin/env python3
"""Seeded equivalence fuzzing of the incremental engine against the oracles.

Modes:
  materialization  sliding windows vs from-scratch canonical models
  repair           repaired survivor sets vs the definitional window repair,
                   re-checked after every slide (suffix stability)
  rewrite          flattened negative bodies vs chase inconsistency

Exits non-zero if any case disagrees, printing the offending seed.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rlwindow.interpretation import (Inconsistent, canonical_model,
                                     eval_concept, standard_interpretation)
from rlwindow.ontology import unfold_negative_inclusions
from rlwindow.oracle import definitional_window_repair, naive_window_materialization
from rlwindow.repair import add_abox_with_repair
from rlwindow.stream import Timestamp, WindowSpec, window_extents
from rlwindow.synth import random_stream, random_tbox
from rlwindow.window import WindowModel


def check_materialization(seed):
    tbox = random_tbox(seed, n_axioms=8, n_negative=0, acyclic=False)
    stream = random_stream(seed + 1, n_ticks=8, atoms_per_tick=4)
    spec = WindowSpec(Timestamp.of(3), Timestamp.of(1), Timestamp.of(3))
    wm = None
    for extent in window_extents(spec, stream[-1].timestamp):
        if wm is None:
            wm = WindowModel(extent)
        wm.slide(stream, extent, tbox)
        expect = naive_window_materialization(stream, extent, tbox)
        if frozenset(wm.window_interpretation().atoms()) != frozenset(expect.atoms()):
            return f"window {extent} diverges from the canonical model"
    return None


def _exact_tbox(seed):
    tbox = random_tbox(seed, n_concepts=5, n_roles=2, n_axioms=5, n_negative=2)
    ntbox = unfold_negative_inclusions(tbox, 16)
    return (tbox, ntbox) if ntbox.is_exact else None


def check_repair(seed):
    made = _exact_tbox(seed)
    if made is None:
        return None  # counted as skipped by the caller via None-with-flag
    tbox, ntbox = made
    stream = random_stream(seed + 1, n_ticks=4, atoms_per_tick=2,
                           n_individuals=2, n_concepts=5, n_roles=2)
    spec = WindowSpec(Timestamp.of(2), Timestamp.of(1), Timestamp.of(2))
    hook = lambda model, box: add_abox_with_repair(model, box, tbox, ntbox)[1]
    wm = None
    for extent in window_extents(spec, stream[-1].timestamp):
        if wm is None:
            wm = WindowModel(extent)
        wm.slide(stream, extent, tbox, repair=hook)
        if wm.asserted_occurrences() != set(definitional_window_repair(stream, extent, tbox)):
            return f"survivors at {extent} diverge from the definitional repair"
    return None


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
