import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import atoms_of, box, build_window, catom, ext, occ, ts
from rlwindow.errors import EngineError, StaleTimestamp, UnexpectedInconsistency
from rlwindow.interpretation import (canonical_model, direct_sum, eval_concept,
                                     eval_role, satisfies)
from rlwindow.oracle import naive_window_materialization
from rlwindow.ontology import parse_tbox, unfold_negative_inclusions
from rlwindow.repair import add_abox_with_repair
from rlwindow.stream import Occurrence, Timestamp, WindowSpec, window_abox, window_extents
from rlwindow.synth import random_stream, random_tbox
from rlwindow.window import OccurrenceIndex, WindowModel, _minjoin


def homes_text(wm, atom):
    return sorted(str(t) for t in wm.homes(atom))


# -- the worked four-tick stream ----------------------------------------------

def test_first_window_attributions(worked_tbox, worked_stream):
    wm = build_window(ext(1, 2), worked_stream, worked_tbox)
    assert homes_text(wm, catom("D", "a")) == ["1"]
    assert homes_text(wm, catom("E", "a")) == ["1"]
    assert atoms_of(wm.window_interpretation()) == {catom(n, "a") for n in "ABCDE"}


def test_growing_window_adds_newer_attribution(worked_tbox, worked_stream):
    wm = build_window(ext(1, 2), worked_stream, worked_tbox)
    wm.slide(worked_stream, ext(1, 3), worked_tbox)
    assert homes_text(wm, catom("D", "a")) == ["1", "2"]
    assert homes_text(wm, catom("E", "a")) == ["1"]


def test_slide_rehomes_via_newer_support(worked_tbox, worked_stream):
    wm = build_window(ext(1, 3), worked_stream, worked_tbox)
    wm.slide(worked_stream, ext(2, 4), worked_tbox)
    assert homes_text(wm, catom("D", "a")) == ["2"]
    assert homes_text(wm, catom("E", "a")) == ["2"]
    assert atoms_of(wm.window_interpretation()) == {catom(n, "a") for n in "ABCDE"}


def test_entails_tracks_drops(worked_tbox, worked_stream):
    wm = build_window(ext(1, 2), worked_stream, worked_tbox)
    assert wm.entails(catom("E", "a"))
    wm2 = build_window(ext(1, 3), worked_stream, worked_tbox)
    wm2.drop_before(ts(2))
    assert not wm2.entails(catom("E", "a"))
    assert not wm2.entails(catom("Unseen", "a"))


def test_attributed_atoms_flag_origin(worked_tbox, worked_stream):
    wm = build_window(ext(1, 2), worked_stream, worked_tbox)
    by_atom = {a.atom: a for a in wm.attributed_atoms()}
    assert by_atom[catom("A", "a")].origin == "asserted"
    assert by_atom[catom("D", "a")].origin == "derived"
    assert by_atom[catom("A", "a")].asserted_at == frozenset({ts(1)})


# -- add_abox ----------------------------------------------------------------

def test_add_to_empty_equals_canonical_model(worked_tbox, worked_stream):
    wm = WindowModel(ext(1, 2))
    wm.add_abox(worked_stream[0], worked_tbox)
    expect = naive_window_materialization(worked_stream, ext(1, 1), worked_tbox)
    assert atoms_of(wm.window_interpretation()) == atoms_of(expect)


def test_add_empty_abox_keeps_interpretation(worked_tbox, worked_stream):
    wm = build_window(ext(1, 4), worked_stream, worked_tbox)
    before = wm.window_interpretation()
    wm2 = build_window(ext(1, 5), worked_stream, worked_tbox)
    wm2.add_abox(box(5), worked_tbox)
    assert wm2.window_interpretation() == before
    assert ts(5) in wm2.entry_timestamps
    assert wm2.entry_interpretation(ts(5)).is_empty


def test_add_rejects_stale_and_outside_timestamps(worked_tbox):
    wm = WindowModel(ext(1, 3))
    wm.add_abox(box(2, catom("A", "a")), worked_tbox)
    with pytest.raises(StaleTimestamp):
        wm.add_abox(box(2, catom("B", "a")), worked_tbox)
    with pytest.raises(StaleTimestamp):
        wm.add_abox(box(1, catom("B", "a")), worked_tbox)
    with pytest.raises(StaleTimestamp):
        wm.add_abox(box(9, catom("B", "a")), worked_tbox)


def test_add_raises_on_negative_inclusion():
    tbox = parse_tbox("A & B < bot")
    wm = WindowModel(ext(0, 2))
    wm.add_abox(box(1, catom("A", "a")), tbox)
    with pytest.raises(UnexpectedInconsistency):
        wm.add_abox(box(2, catom("B", "a")), tbox)


def test_failed_add_leaves_the_model_as_it_was():
    # The clash surfaces only in the second round, after D(a) was derived.
    tbox = parse_tbox("A < D\nD & B < bot")
    wm = WindowModel(ext(0, 2))
    wm.add_abox(box(1, catom("B", "a")), tbox)
    before = wm.copy()
    with pytest.raises(UnexpectedInconsistency):
        wm.add_abox(box(2, catom("A", "a"), catom("C", "a")), tbox)
    assert vars(wm) == vars(before)
    assert wm.entry_timestamps == [ts(1)]
    assert not wm.entails(catom("A", "a")) and not wm.entails(catom("D", "a"))
    assert wm.asserted_occurrences() == {occ(catom("B", "a"), 1)}


def test_failed_slide_undoes_expiry_and_earlier_ticks():
    tbox = parse_tbox("A & B < bot\nA < C")
    stream = [box(0, catom("A", "b")), box(1, catom("A", "a")),
              box(2, catom("A", "c")), box(3, catom("B", "a"))]
    wm = build_window(ext(0, 1), stream, tbox)
    before = wm.copy()
    with pytest.raises(UnexpectedInconsistency):
        wm.slide(stream, ext(1, 3), tbox)
    assert vars(wm) == vars(before)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_raising_operations_change_nothing(seed):
    tbox = random_tbox(seed, n_concepts=4, n_roles=2, n_axioms=6, n_negative=2,
                       acyclic=False)
    stream = random_stream(seed + 1, n_ticks=6, atoms_per_tick=3,
                           n_individuals=2, n_concepts=4, n_roles=2)
    wm = WindowModel(ext(0, 2))
    for b in stream[:3]:
        before = wm.copy()
        try:
            wm.add_abox(b, tbox)
        except UnexpectedInconsistency:
            assert vars(wm) == vars(before)
    before = wm.copy()
    try:
        wm.slide(stream, ext(2, 5), tbox)
    except UnexpectedInconsistency:
        assert vars(wm) == vars(before)


def test_same_round_derivations_share_the_tick():
    tbox = parse_tbox("A < B\nB < C")
    wm = WindowModel(ext(0, 1))
    wm.add_abox(box(1, catom("A", "a")), tbox)
    assert homes_text(wm, catom("B", "a")) == ["1"]
    assert homes_text(wm, catom("C", "a")) == ["1"]


# -- drop_before -------------------------------------------------------------

def test_drop_keeps_newer_entries(worked_tbox, worked_stream):
    wm = build_window(ext(1, 3), worked_stream, worked_tbox)
    wm.drop_before(ts(2))
    assert wm.entry_timestamps == [ts(2), ts(3)]
    assert atoms_of(wm.entry_interpretation(ts(2))) == {catom("C", "a"), catom("D", "a")}
    assert atoms_of(wm.entry_interpretation(ts(3))) == {catom("A", "a")}
    assert not wm.entails(catom("E", "a"))


def test_drop_noop_and_full(worked_tbox, worked_stream):
    wm = build_window(ext(1, 3), worked_stream, worked_tbox)
    snapshot = atoms_of(wm.window_interpretation())
    wm.drop_before(ts(0))
    assert atoms_of(wm.window_interpretation()) == snapshot
    wm.drop_before(ts(99))
    assert wm.window_interpretation().is_empty
    assert wm.entry_timestamps == []


def test_drop_equals_from_scratch(worked_tbox, worked_stream):
    wm = build_window(ext(1, 3), worked_stream, worked_tbox)
    wm.drop_before(ts(2))
    scratch = build_window(ext(2, 3), worked_stream, worked_tbox)
    assert atoms_of(wm.window_interpretation()) == atoms_of(scratch.window_interpretation())
    assert {o for o in wm.occurrences()} == {o for o in scratch.occurrences()}


def test_window_interpretation_is_entry_sum(worked_tbox, worked_stream):
    wm = build_window(ext(1, 4), worked_stream, worked_tbox)
    summed = direct_sum(*(i for _, i in wm.entries()))
    assert summed == wm.window_interpretation()


# -- slide -------------------------------------------------------------------

def test_slide_only_moves_forward(worked_tbox, worked_stream):
    wm = build_window(ext(1, 3), worked_stream, worked_tbox)
    with pytest.raises(ValueError):
        wm.slide(worked_stream, ext(0, 3), worked_tbox)
    with pytest.raises(ValueError):
        wm.slide(worked_stream, ext(1, 2), worked_tbox)


def test_slide_to_same_extent_is_noop(worked_tbox, worked_stream):
    wm = build_window(ext(1, 3), worked_stream, worked_tbox)
    before = atoms_of(wm.window_interpretation())
    report = wm.slide(worked_stream, ext(1, 3), worked_tbox)
    assert atoms_of(wm.window_interpretation()) == before
    assert report.added_occurrences == 0 and report.expired_occurrences == 0


def test_tumbling_slide_equals_scratch(worked_tbox, worked_stream):
    wm = build_window(ext(1, 2), worked_stream, worked_tbox)
    wm.slide(worked_stream, ext(3, 4), worked_tbox)
    scratch = build_window(ext(3, 4), worked_stream, worked_tbox)
    assert atoms_of(wm.window_interpretation()) == atoms_of(scratch.window_interpretation())


def test_slide_report_counts(worked_tbox, worked_stream):
    wm = build_window(ext(1, 2), worked_stream, worked_tbox)
    report = wm.slide(worked_stream, ext(2, 3), worked_tbox)
    assert report.extent == ext(2, 3)
    assert report.expired_occurrences > 0
    assert report.added_occurrences > 0
    assert report.removals == ()


class _ReadLog(list):
    """A list that records the index of every item read from it."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = []

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)

    def __iter__(self):
        raise AssertionError("the whole stream was walked")


def test_slide_reads_only_the_fresh_boxes():
    tbox = parse_tbox("A < B")
    n = 4096
    stream = _ReadLog(box(t, catom("A", f"x{t}")) for t in range(n))
    # A new model slid to its own extent loads the whole window. The slides
    # to 2000 and 3500 expire every loaded tick, so ingestion starts at the
    # new extent; ticks that slid past in one jump are neither ingested nor
    # read.
    wm = WindowModel(ext(491, 500))
    for end, fresh in ((500, 10), (501, 1), (503, 2), (2000, 10), (2003, 3), (3500, 10)):
        stream.reads.clear()
        report = wm.slide(stream, ext(end - 9, end), tbox)
        assert wm.entry_timestamps == [ts(t) for t in range(end - 9, end + 1)]
        assert report.added_occurrences == 2 * fresh
        assert len(stream.reads) <= 2 * n.bit_length() + fresh + 1


def test_one_tick_slide_discards_only_the_expired_bucket(monkeypatch):
    tbox = parse_tbox("A < B")
    n = 2000
    stream = [box(t, catom("A", f"x{t}")) for t in range(n + 3)]
    wm = WindowModel(ext(0, n - 1))
    wm.slide(stream, ext(0, n - 1), tbox)
    discarded = []
    discard = OccurrenceIndex.discard

    def logged(index, atom, t):
        discarded.append((index, t))
        return discard(index, atom, t)

    monkeypatch.setattr(OccurrenceIndex, "discard", logged)
    for end in range(n, n + 3):
        discarded.clear()
        report = wm.slide(stream, ext(end - n + 1, end), tbox)
        # A(x) and B(x) expire from the window, A(x) from the asserted index.
        assert report.expired_occurrences == 2
        assert sum(index is wm._index for index, _ in discarded) == report.expired_occurrences
        assert sum(index is wm._asserted for index, _ in discarded) == 1
        assert {t for _, t in discarded} == {ts(end - n)}



# -- change sets ---------------------------------------------------------------

def _homes_by_atom(wm):
    return {a.atom: a.home_timestamps for a in wm.attributed_atoms()}


def _homes_changed(before, after):
    return {a for a in before.keys() | after.keys() if before.get(a) != after.get(a)}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.booleans())
def test_slide_reports_every_atom_whose_homes_changed(seed, repair):
    # Cyclic TBoxes. With repair, the depth-1 rewrite lets some conflicts
    # through to the fixpoint, which raises; the run then starts over from a
    # new model, whose first slide must report every atom it holds.
    tbox = random_tbox(seed, n_concepts=4, n_roles=2, n_axioms=6, n_negative=2,
                       acyclic=False)
    ntbox = unfold_negative_inclusions(tbox, 1)
    hook = (lambda model, b: add_abox_with_repair(model, b, tbox, ntbox)[1]) if repair else None
    stream = random_stream(seed + 1, n_ticks=10, atoms_per_tick=3,
                           n_individuals=3, n_concepts=4, n_roles=2)
    wm = None
    for end in (3, 4, 5, 7, 8, 9):
        if wm is None:
            wm = WindowModel(ext(end - 3, end))
        before, homes = wm.copy(), _homes_by_atom(wm)
        try:
            report = wm.slide(stream, ext(end - 3, end), tbox, repair=hook)
        except EngineError:
            assert vars(wm) == vars(before)
            wm = None
            continue
        assert _homes_changed(homes, _homes_by_atom(wm)) <= report.changed


class _Planted(Exception):
    pass


def test_failed_slide_changes_nothing_and_a_retry_reports_its_atoms(worked_tbox, worked_stream):
    wm = WindowModel(ext(0, 2))
    wm.slide(worked_stream, ext(0, 2), worked_tbox)
    before, homes = wm.copy(), _homes_by_atom(wm)

    def planted(model, b):
        model.add_abox(b, worked_tbox)
        raise _Planted

    with pytest.raises(_Planted):
        wm.slide(worked_stream, ext(2, 4), worked_tbox, repair=planted)
    assert vars(wm) == vars(before)
    report = wm.slide(worked_stream, ext(2, 4), worked_tbox)
    # A, B, D and E are rehomed; C(a) keeps its home at 2.
    assert report.changed == _homes_changed(homes, _homes_by_atom(wm))
    assert report.changed == {catom(n, "a") for n in "ABDE"}


def test_nested_slide_reports_only_its_own_atoms(worked_tbox, worked_stream):
    # Inside an enclosing atomic block the journal already holds the first
    # slide's entries; the second slide reads only the ones after them.
    alone = WindowModel(ext(0, 2))
    want = [alone.slide(worked_stream, e, worked_tbox).changed for e in (ext(0, 2), ext(2, 4))]
    wm = WindowModel(ext(0, 2))
    with wm._atomic():
        got = [wm.slide(worked_stream, e, worked_tbox).changed for e in (ext(0, 2), ext(2, 4))]
    assert got == want
    assert want[0] == {catom(n, "a") for n in "ABCDE"}
    assert catom("C", "a") not in want[1]


# -- home timestamps ---------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_every_home_is_replayable_from_its_tick(seed):
    # Each home certifies a derivation from assertions at or after it, so
    # the chase over exactly those assertions must produce the atom.
    tbox = random_tbox(seed, n_negative=0, acyclic=False)
    stream = random_stream(seed + 1, n_ticks=6, atoms_per_tick=4)
    wm = build_window(ext(0, 5), stream, tbox)
    asserted = wm.asserted_occurrences()
    replayed = {}
    for o in wm.occurrences():
        if o.timestamp not in replayed:
            later = {a.atom for a in asserted if a.timestamp >= o.timestamp}
            replayed[o.timestamp] = canonical_model(later, tbox)
        assert satisfies(replayed[o.timestamp], o.atom), str(o)


@given(st.sets(st.integers(min_value=-50, max_value=50), min_size=1),
       st.sets(st.integers(min_value=-50, max_value=50), min_size=1))
def test_minjoin_is_the_pairwise_minimum(a, b):
    a = {Timestamp(x) for x in a}
    b = {Timestamp(y) for y in b}
    assert _minjoin(a, b) == {min(x, y) for x in a for y in b}


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_homes_and_bounds_stay_timestamps(seed):
    # Timestamp is an int subclass: a plain int slipping in would print as
    # raw micro-units.
    tbox = random_tbox(seed, n_negative=0, acyclic=False)
    stream = random_stream(seed + 1, n_ticks=6, atoms_per_tick=4)
    spec = WindowSpec(ts(3), ts(1), ts(3))
    wm = None
    for extent in window_extents(spec, stream[-1].timestamp):
        assert type(extent.start) is Timestamp and type(extent.end) is Timestamp
        if wm is None:
            wm = build_window(extent, stream, tbox)
        else:
            wm.slide(stream, extent, tbox)
        for att in wm.attributed_atoms():
            assert all(type(t) is Timestamp for t in att.home_timestamps)
            assert all(type(t) is Timestamp for t in att.asserted_at)
        assert all(type(o.timestamp) is Timestamp for o in wm.occurrences())


def _minimal_supports(atom, occurrences, tbox):
    occurrences = sorted(occurrences, key=lambda o: o.sort_key)
    supports = []
    for r in range(1, len(occurrences) + 1):
        for combo in itertools.combinations(occurrences, r):
            if any(set(s) <= set(combo) for s in supports):
                continue
            m = canonical_model({o.atom for o in combo}, tbox)
            if satisfies(m, atom):
                supports.append(combo)
    return supports


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_homes_cover_every_minimal_support(seed):
    # The property that makes expiry reasoning-free: whatever support a
    # derived atom has, a copy lives at that support's oldest tick, so
    # dropping other ticks cannot lose the atom.
    tbox = random_tbox(seed, n_concepts=4, n_roles=2, n_axioms=4, n_negative=0)
    stream = random_stream(seed + 1, n_ticks=4, atoms_per_tick=2,
                           n_individuals=2, n_concepts=4, n_roles=2)
    if sum(len(b.atoms) for b in stream) > 7:
        return
    wm = build_window(ext(0, 3), stream, tbox)
    asserted = wm.asserted_occurrences()
    for o in wm.occurrences():
        if o in asserted:
            continue
        for support in _minimal_supports(o.atom, asserted, tbox):
            min_ts = min(b.timestamp for b in support)
            assert min_ts in wm.homes(o.atom)


# -- incremental equals from-scratch -----------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_sliding_matches_naive_materialization(seed):
    tbox = random_tbox(seed, n_negative=0, acyclic=False)
    stream = random_stream(seed + 1, n_ticks=8, atoms_per_tick=4)
    spec = WindowSpec(ts(3), ts(1), ts(3))
    wm = None
    for extent in window_extents(spec, stream[-1].timestamp):
        if wm is None:
            wm = build_window(extent, stream, tbox)
        else:
            wm.slide(stream, extent, tbox)
        expect = naive_window_materialization(stream, extent, tbox)
        assert atoms_of(wm.window_interpretation()) == atoms_of(expect)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_fixpoint_leaves_no_rule_applicable(seed):
    tbox = random_tbox(seed, n_negative=0, acyclic=False)
    stream = random_stream(seed + 1, n_ticks=5, atoms_per_tick=4)
    wm = build_window(ext(0, 4), stream, tbox)
    interp = wm.window_interpretation()
    for ax in tbox.concept_inclusions:
        got = interp.concepts.get(ax.head, frozenset())
        assert eval_concept(ax.body, interp) <= got
    for ax in tbox.role_inclusions:
        got = interp.roles.get(ax.sup.name, frozenset())
        assert eval_role(ax.sub, interp) <= got


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000),
       st.integers(min_value=0, max_value=5))
def test_drop_commutes_with_scratch_rebuild(seed, cut):
    tbox = random_tbox(seed, n_negative=0, acyclic=False)
    stream = random_stream(seed + 1, n_ticks=6, atoms_per_tick=4)
    wm = build_window(ext(0, 5), stream, tbox)
    wm.drop_before(ts(cut))
    scratch = build_window(ext(cut, 5), stream, tbox)
    assert atoms_of(wm.window_interpretation()) == atoms_of(scratch.window_interpretation())
    assert wm.occurrences() == scratch.occurrences()
