"""End-to-end acceptance gates.

Every test prints exactly one PASS/FAIL line naming the behavior it checks,
with the measured runtime, then asserts correctness and the time budget.
Run with ``pytest tests/test_acceptance.py -s -v`` to see the lines live.
"""

import time

from conftest import (GOLDEN_PEDALS_REPAIRED, GOLDEN_WORKED_WINDOWS,
                      PEDALS_STREAM_TEXT, PEDALS_TBOX_TEXT,
                      WORKED_STREAM_TEXT, WORKED_TBOX_TEXT,
                      atoms_of, box, catom, ext, occ, provisional_model, ts)
from rlwindow import cli
from rlwindow.interpretation import (Inconsistent, canonical_model,
                                     eval_concept, standard_interpretation)
from rlwindow.ontology import parse_tbox, unfold_negative_inclusions
from rlwindow.oracle import (definitional_window_repair,
                             naive_window_materialization, preferred_repairs)
from rlwindow.repair import (add_abox_with_repair, find_conflicts,
                             resolve_conflicts)
from rlwindow.stream import WindowSpec, window_extents
from rlwindow.synth import random_stream, random_tbox
from rlwindow.window import WindowModel


def gate(name, ok, elapsed, budget, detail):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} {name}: {detail} [{elapsed:.2f}s of {budget:.0f}s budget]")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name} exceeded its {budget:.0f}s budget"


def _exact_cases(n, make):
    """First n seeds whose generated TBox reaches the exact rewrite."""
    out, seed = [], 0
    while len(out) < n:
        tbox = random_tbox(seed, n_concepts=5, n_roles=2, n_axioms=5, n_negative=2)
        ntbox = unfold_negative_inclusions(tbox, 16)
        if ntbox.is_exact:
            out.append(make(seed, tbox, ntbox))
        seed += 1
    return out, seed


def test_worked_stream_attributions(tmp_path, capsys):
    start = time.perf_counter()
    tbox = tmp_path / "tbox.txt"
    stream = tmp_path / "stream.txt"
    tbox.write_text(WORKED_TBOX_TEXT)
    stream.write_text(WORKED_STREAM_TEXT)
    code = cli.main(["--tbox", str(tbox), "--stream", str(stream),
                     "--width", "2", "--slide", "1", "--origin", "2"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    ok = code == 0 and out == GOLDEN_WORKED_WINDOWS
    gate("worked-stream attributions", ok, elapsed, 1.0,
         "3 windows, derived facts homed at oldest support, exact output")


def test_conflict_resolution_example():
    start = time.perf_counter()
    tbox = parse_tbox("A & B & C < bot\nB & D < bot")
    wm = WindowModel(ext(1, 3))
    wm.add_abox(box(1, catom("A", "a")), tbox)
    wm.add_abox(box(2, catom("B", "a")), tbox)
    incoming = box(3, catom("C", "a"), catom("D", "a"))

    provisional, bindings = provisional_model(wm.asserted_occurrences(), incoming, tbox)
    conflicts = find_conflicts(provisional, incoming, tbox, bindings)
    found = {c.occurrences for c in conflicts}
    expected = {
        frozenset({occ(catom("A", "a"), 1), occ(catom("B", "a"), 2),
                   occ(catom("C", "a"), 3)}),
        frozenset({occ(catom("B", "a"), 2), occ(catom("D", "a"), 3)}),
    }
    removed = resolve_conflicts(conflicts)
    wm, report = add_abox_with_repair(wm, incoming, tbox)
    survivors = wm.asserted_occurrences()
    elapsed = time.perf_counter() - start

    ok = (found == expected
          and removed == frozenset({occ(catom("B", "a"), 2)})
          and report.removed == removed
          and survivors == {occ(catom("A", "a"), 1), occ(catom("C", "a"), 3),
                            occ(catom("D", "a"), 3)})
    gate("conflict resolution", ok, elapsed, 1.0,
         "two conflicts, removal {B(a)@2}, survivors {A@1, C@3, D@3}")


def test_preference_levels_example(disjoint_tbox):
    start = time.perf_counter()
    wm = WindowModel(ext(1, 2))
    wm.add_abox(box(1, catom("A", "a"), catom("B", "a")), disjoint_tbox)
    wm, _ = add_abox_with_repair(wm, box(2, catom("C", "a")), disjoint_tbox)
    entailed = atoms_of(wm.window_interpretation())

    repairs = preferred_repairs([{catom("A", "a"), catom("B", "a")},
                                 {catom("C", "a")}], disjoint_tbox)
    elapsed = time.perf_counter() - start
    ok = entailed == {catom("C", "a")} and repairs == {frozenset({catom("C", "a")})}
    gate("preference levels", ok, elapsed, 1.0,
         "newest level wins: entailed {C(a)}, unique repair {C(a)}")


def test_pedal_removal_example(tmp_path, capsys):
    start = time.perf_counter()
    tbox = tmp_path / "tbox.txt"
    stream = tmp_path / "stream.txt"
    tbox.write_text(PEDALS_TBOX_TEXT)
    stream.write_text(PEDALS_STREAM_TEXT)
    code = cli.main(["--tbox", str(tbox), "--stream", str(stream),
                     "--width", "2", "--slide", "1", "--origin", "2", "--repair"])
    captured = capsys.readouterr()
    elapsed = time.perf_counter() - start
    ok = (code == 0
          and captured.out == GOLDEN_PEDALS_REPAIRED
          and "INCONSISTENT" not in captured.out
          and captured.err == "")
    gate("pedal removal", ok, elapsed, 1.0,
         "GasPedalPressed(x)@1 removed at window [1, 3], no inconsistency")


def test_incremental_equals_scratch_bulk():
    start = time.perf_counter()
    spec = WindowSpec(ts(3), ts(1), ts(3))
    cases = windows = mismatches = 0
    for seed in range(1000):
        tbox = random_tbox(seed, n_axioms=8, n_negative=0, acyclic=False)
        stream = random_stream(seed + 1, n_ticks=8, atoms_per_tick=4)
        wm = None
        for extent in window_extents(spec, stream[-1].timestamp):
            if wm is None:
                wm = WindowModel(extent)
                for b in stream:
                    if extent.contains(b.timestamp):
                        wm.add_abox(b, tbox)
            else:
                wm.slide(stream, extent, tbox)
            expect = naive_window_materialization(stream, extent, tbox)
            windows += 1
            if atoms_of(wm.window_interpretation()) != atoms_of(expect):
                mismatches += 1
        cases += 1
    elapsed = time.perf_counter() - start
    gate("incremental vs from-scratch", mismatches == 0, elapsed, 60.0,
         f"{cases} streams, {windows} windows, {mismatches} mismatches")


def test_expiry_equals_rebuild_bulk():
    start = time.perf_counter()
    cases = mismatches = 0
    for seed in range(500):
        tbox = random_tbox(seed, n_axioms=8, n_negative=0, acyclic=False)
        stream = random_stream(seed + 1, n_ticks=8, atoms_per_tick=4)
        cut = seed % 6 + 1
        wm = WindowModel(ext(0, 7))
        for b in stream:
            wm.add_abox(b, tbox)
        wm.drop_before(ts(cut))
        scratch = WindowModel(ext(cut, 7))
        for b in stream:
            if b.timestamp >= ts(cut):
                scratch.add_abox(b, tbox)
        cases += 1
        if wm.window_interpretation() != scratch.window_interpretation():
            mismatches += 1
    elapsed = time.perf_counter() - start
    gate("expiry vs rebuild", mismatches == 0, elapsed, 30.0,
         f"{cases} drops, {mismatches} mismatches")


def _repair_mismatches(tbox, stream):
    """(windows, windows whose repair differs from the definitional one) of
    a repaired run over windows of width 2, sliding by 1."""
    hook = lambda model, b: add_abox_with_repair(model, b, tbox)[1]
    windows = mismatches = 0
    wm = None
    for extent in window_extents(WindowSpec(ts(2), ts(1), ts(2)), stream[-1].timestamp):
        if wm is None:
            wm = WindowModel(extent)
            for b in stream:
                if extent.contains(b.timestamp):
                    add_abox_with_repair(wm, b, tbox)
        else:
            wm.slide(stream, extent, tbox, repair=hook)
        windows += 1
        if wm.asserted_occurrences() != set(
                definitional_window_repair(stream, extent, tbox)):
            mismatches += 1
    return windows, mismatches


def _small_stream(seed):
    return random_stream(seed + 1, n_ticks=4, atoms_per_tick=2,
                         n_individuals=2, n_concepts=5, n_roles=2)


def test_repair_equals_definitional_bulk():
    start = time.perf_counter()
    cases, seeds_used = _exact_cases(
        500, lambda seed, tbox, ntbox: (tbox, _small_stream(seed)))
    windows = mismatches = 0
    for tbox, stream in cases:
        w, m = _repair_mismatches(tbox, stream)
        windows, mismatches = windows + w, mismatches + m
    elapsed = time.perf_counter() - start
    gate("repair vs definitional repair", mismatches == 0, elapsed, 120.0,
         f"500 exact-rewrite cases from {seeds_used} seeds, "
         f"{windows} windows incl. slide suffixes, {mismatches} mismatches")


def test_repair_equals_definitional_cyclic_bulk():
    # Repair reads conflicts off the closure, so it is exact whether or not
    # the negative-inclusion rewrite closes: most of these rewrites are
    # truncated at depth 1.
    start = time.perf_counter()
    windows = mismatches = truncated = 0
    for seed in range(500):
        tbox = random_tbox(seed, n_concepts=5, n_roles=2, n_axioms=5, n_negative=2,
                           acyclic=False)
        truncated += not unfold_negative_inclusions(tbox, 1).is_exact
        w, m = _repair_mismatches(tbox, _small_stream(seed))
        windows, mismatches = windows + w, mismatches + m
    elapsed = time.perf_counter() - start
    gate("cyclic repair vs definitional repair", mismatches == 0, elapsed, 120.0,
         f"500 cyclic TBoxes, {truncated} rewrites truncated at depth 1, "
         f"{windows} windows incl. slide suffixes, {mismatches} mismatches")


def test_normal_form_soundness_bulk():
    start = time.perf_counter()

    def make(seed, tbox, ntbox):
        b = random_stream(seed + 1, n_ticks=1, atoms_per_tick=6,
                          n_individuals=2, n_concepts=5, n_roles=2)[0]
        return tbox, ntbox, b

    cases, seeds_used = _exact_cases(500, make)
    mismatches = 0
    for tbox, ntbox, b in cases:
        plain = standard_interpretation(b.atoms)
        flags_clash = any(eval_concept(body, plain)
                          for body in ntbox.flattened_negatives)
        chase_clash = isinstance(canonical_model(b.atoms, tbox), Inconsistent)
        if flags_clash != chase_clash:
            mismatches += 1
    elapsed = time.perf_counter() - start
    gate("rewrite flags exactly the chase clashes", mismatches == 0, elapsed, 30.0,
         f"500 exact-rewrite ABoxes from {seeds_used} seeds, {mismatches} mismatches")


def test_incremental_speedup_bench():
    start = time.perf_counter()
    result = cli.bench(7, overlap=90.0, timestamps=200, atoms_per_tick=20)
    elapsed = time.perf_counter() - start
    print(result.render_csv())
    ratio = result.ratio
    bar = 0.5
    status = "PASS" if ratio <= bar else "FAIL"
    print(f"{status} incremental speedup: median ratio {ratio:.3f} vs bar {bar} "
          f"(motivational, not asserted) [{elapsed:.2f}s]")
    # hard gate: the benchmark must run and the two engines must agree
    assert result.rows, "benchmark produced no windows"
    assert result.mismatches == 0, "incremental and scratch runs disagreed"
