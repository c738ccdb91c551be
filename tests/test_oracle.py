import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import atoms_of, box, build_window, catom, ext, occ, ratom, ts
from rlwindow.errors import CapExceeded
from rlwindow.interpretation import Inconsistent, canonical_model
from rlwindow.ontology import parse_tbox, unfold_negative_inclusions
from rlwindow.oracle import (cross_check, definitional_window_repair,
                             maximal_consistent_subsets,
                             naive_window_materialization, preferred_repairs)
from rlwindow.stream import parse_stream
from rlwindow.synth import random_stream, random_tbox
from rlwindow.window import WindowModel


# -- from-scratch materialization ----------------------------------------------

def test_naive_materialization_of_the_worked_stream(worked_tbox, worked_stream):
    got = naive_window_materialization(worked_stream, ext(1, 2), worked_tbox)
    assert atoms_of(got) == {catom(n, "a") for n in "ABCDE"}
    got = naive_window_materialization(worked_stream, ext(2, 4), worked_tbox)
    assert atoms_of(got) == {catom(n, "a") for n in "ABCDE"}


def test_naive_materialization_of_an_empty_window(worked_tbox, worked_stream):
    got = naive_window_materialization(worked_stream, ext(10, 11), worked_tbox)
    assert got.is_empty


def test_naive_materialization_reports_inconsistency(pedals_tbox, pedals_stream):
    got = naive_window_materialization(pedals_stream, ext(0, 4), pedals_tbox)
    assert isinstance(got, Inconsistent)


# -- maximal consistent subsets under the newer-first order ---------------------

def test_newer_fact_beats_two_older_ones(disjoint_tbox):
    pool = {occ(catom("A", "a"), 1), occ(catom("B", "a"), 1), occ(catom("C", "a"), 2)}
    got = maximal_consistent_subsets(pool, disjoint_tbox)
    assert got == {frozenset({occ(catom("C", "a"), 2)})}


def test_consistent_pool_is_its_own_maximum(worked_tbox):
    pool = {occ(catom("A", "a"), 1), occ(catom("C", "a"), 2)}
    assert maximal_consistent_subsets(pool, worked_tbox) == {frozenset(pool)}


def test_equally_old_rivals_give_two_maximal_sets():
    tbox = parse_tbox("A & C < bot")
    a1, c1 = occ(catom("A", "a"), 1), occ(catom("C", "a"), 1)
    got = maximal_consistent_subsets({a1, c1}, tbox)
    assert got == {frozenset({a1}), frozenset({c1})}


def test_subset_enumeration_refuses_large_pools(worked_tbox):
    pool = {occ(catom(f"A{i}", "a"), 1) for i in range(17)}
    with pytest.raises(CapExceeded):
        maximal_consistent_subsets(pool, worked_tbox)


def test_maximality_respects_derived_clashes():
    # B alone forces A via the definition, so {B, C} is not consistent even
    # though no asserted pair matches the negative body directly.
    tbox = parse_tbox("B < A\nA & C < bot")
    b1, c2 = occ(catom("B", "a"), 1), occ(catom("C", "a"), 2)
    got = maximal_consistent_subsets({b1, c2}, tbox)
    assert got == {frozenset({c2})}


# -- definitional window repair --------------------------------------------------

def test_definitional_repair_of_the_conflicting_stream():
    tbox = parse_tbox("A & B & C < bot\nB & D < bot")
    stream = parse_stream("1 A(a)\n2 B(a)\n3 C(a)\n3 D(a)\n")
    got = definitional_window_repair(stream, ext(1, 3), tbox)
    assert got == {occ(catom("A", "a"), 1),
                   occ(catom("C", "a"), 3),
                   occ(catom("D", "a"), 3)}


def test_definitional_repair_keeps_consistent_streams_whole(worked_tbox, worked_stream):
    got = definitional_window_repair(worked_stream, ext(1, 4), worked_tbox)
    assert got == {o for b in worked_stream for o in b.occurrences()}


def test_definitional_repair_keeps_both_newer_copies():
    tbox = parse_tbox("A & C < bot")
    stream = parse_stream("1 A(a)\n2 C(a)\n3 C(a)\n")
    got = definitional_window_repair(stream, ext(1, 3), tbox)
    assert got == {occ(catom("C", "a"), 2), occ(catom("C", "a"), 3)}


def test_definitional_repair_refuses_large_pools():
    tbox = parse_tbox("A & B < bot")
    atoms = ["A(a)", "B(a)"] + [f"C{i}(a)" for i in range(1, 16)]
    stream = parse_stream("".join(f"0 {a}\n" for a in atoms))
    with pytest.raises(CapExceeded, match="17 occurrences exceed the cap of 16"):
        definitional_window_repair(stream, ext(-1, 0), tbox)


def test_definitional_repair_respects_the_extent():
    tbox = parse_tbox("A & C < bot")
    stream = parse_stream("1 A(a)\n2 C(a)\n")
    got = definitional_window_repair(stream, ext(2, 3), tbox)
    assert got == {occ(catom("C", "a"), 2)}


# -- preferred repairs of a prioritized ABox -------------------------------------

def test_trusted_level_wins(disjoint_tbox):
    levels = [{catom("A", "a"), catom("B", "a")}, {catom("C", "a")}]
    assert preferred_repairs(levels, disjoint_tbox) == {frozenset({catom("C", "a")})}


def test_consistent_abox_is_its_own_repair(worked_tbox):
    levels = [{catom("A", "a")}, {catom("C", "a")}]
    got = preferred_repairs(levels, worked_tbox)
    assert got == {frozenset({catom("A", "a"), catom("C", "a")})}


def test_single_level_reduces_to_plain_maximality():
    tbox = parse_tbox("A & C < bot")
    got = preferred_repairs([{catom("A", "a"), catom("C", "a")}], tbox)
    assert got == {frozenset({catom("A", "a")}), frozenset({catom("C", "a")})}


def test_preferred_repairs_refuse_large_aboxes(worked_tbox):
    levels = [{catom(f"A{i}", "a") for i in range(17)}]
    with pytest.raises(CapExceeded):
        preferred_repairs(levels, worked_tbox)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_levels_by_timestamp_mirror_the_window_order(seed):
    # With every atom occurring at exactly one tick, trust levels built from
    # the ticks (oldest least trusted) pick out the same repairs as the
    # newer-first order over the timestamped pool.
    rng = random.Random(seed)
    tbox = random_tbox(seed, n_concepts=5, n_roles=2, n_axioms=4, n_negative=2)
    vocab = [catom(f"A{i}", x) for i in range(5) for x in ("x0", "x1")]
    vocab += [ratom(f"r{i}", "x0", "x1") for i in range(2)]
    chosen = rng.sample(vocab, k=rng.randrange(2, 7))
    stamped = {atom: rng.randrange(1, 4) for atom in chosen}
    pool = {occ(atom, t) for atom, t in stamped.items()}
    ticks = sorted({t for t in stamped.values()})
    levels = [{a for a, t in stamped.items() if t == tick} for tick in ticks]

    via_levels = preferred_repairs(levels, tbox)
    via_order = {frozenset(o.atom for o in s)
                 for s in maximal_consistent_subsets(pool, tbox)}
    assert via_levels == via_order


# -- cross-checking an engine state ----------------------------------------------

def test_cross_check_passes_on_the_worked_stream(worked_tbox, worked_stream):
    for extent in (ext(1, 2), ext(1, 3), ext(2, 4)):
        wm = build_window(extent, worked_stream, worked_tbox)
        verdict = cross_check(wm, worked_stream, extent, worked_tbox)
        assert verdict.match and verdict.diff == ()
        assert verdict.render() == f"oracle MATCH for window {extent}"


def test_cross_check_flags_a_corrupted_index(worked_tbox, worked_stream):
    wm = build_window(ext(1, 2), worked_stream, worked_tbox)
    with wm._atomic():
        wm._insert(catom("Ghost", "a"), ts(1))
    verdict = cross_check(wm, worked_stream, ext(1, 2), worked_tbox)
    assert not verdict.match
    assert any("Ghost" in line for line in verdict.diff)
    assert "MISMATCH" in verdict.render()


def test_cross_check_flags_unrepaired_survivors(pedals_tbox, pedals_stream):
    # Insert the clashing pedal readings directly, past the consistency guard;
    # the TBox has no positive axiom, so there is nothing to derive. The
    # verdict must call out both the repair gap and the matching negative body.
    ntbox = unfold_negative_inclusions(pedals_tbox, 3)
    wm = WindowModel(ext(0, 4))
    with wm._atomic():
        for b in pedals_stream:
            wm._ticks[b.timestamp] = b.atoms
            for o in b.occurrences():
                wm._insert(o.atom, o.timestamp)
    verdict = cross_check(wm, pedals_stream, ext(0, 4), pedals_tbox, ntbox)
    assert not verdict.match
    assert any("oracle repair drops it" in line for line in verdict.diff)
    assert any("negative body" in line for line in verdict.diff)


def test_cross_check_flags_a_missing_derived_atom(worked_tbox, worked_stream):
    wm = build_window(ext(1, 2), worked_stream, worked_tbox)
    with wm._atomic():
        wm._discard(catom("D", "a"), ts(1))
    verdict = cross_check(wm, worked_stream, ext(1, 2), worked_tbox)
    assert verdict.diff == ("engine is missing D(a)",)


def test_cross_check_flags_a_dropped_assertion(worked_tbox, worked_stream):
    wm = build_window(ext(1, 2), worked_stream, worked_tbox)
    wm._ticks[ts(2)] = frozenset()
    verdict = cross_check(wm, worked_stream, ext(1, 2), worked_tbox)
    assert "engine dropped C(a) @ 2, oracle repair keeps it" in verdict.diff


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_cross_check_passes_on_consistent_fuzz_cases(seed):
    tbox = random_tbox(seed, n_negative=0, acyclic=False)
    stream = random_stream(seed + 1, n_ticks=4, atoms_per_tick=3)
    wm = build_window(ext(0, 3), stream, tbox)
    verdict = cross_check(wm, stream, ext(0, 3), tbox)
    assert verdict.match, verdict.render()


# -- oracle-internal sanity -------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_intersection_of_maximal_subsets_is_consistent(seed):
    tbox = random_tbox(seed, n_concepts=5, n_roles=2, n_axioms=5, n_negative=2)
    stream = random_stream(seed + 1, n_ticks=3, atoms_per_tick=3,
                           n_individuals=2, n_concepts=5, n_roles=2)
    pool = {o for b in stream for o in b.occurrences()}
    if len(pool) > 8:
        pool = set(sorted(pool, key=lambda o: o.sort_key)[:8])
    maxes = maximal_consistent_subsets(pool, tbox)
    core = frozenset.intersection(*maxes)
    assert not isinstance(canonical_model({o.atom for o in core}, tbox), Inconsistent)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000),
       st.integers(min_value=1, max_value=3))
def test_definitional_repair_suffix_identity(seed, cut):
    tbox = random_tbox(seed, n_concepts=5, n_roles=2, n_axioms=5, n_negative=2)
    stream = random_stream(seed + 1, n_ticks=4, atoms_per_tick=2,
                           n_individuals=2, n_concepts=5, n_roles=2)
    whole = definitional_window_repair(stream, ext(0, 3), tbox)
    suffix = {o for o in whole if o.timestamp >= ts(cut)}
    assert suffix == definitional_window_repair(stream, ext(cut, 3), tbox)
