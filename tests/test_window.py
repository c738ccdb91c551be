import itertools
from contextlib import nullcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (WORKED_TBOX_TEXT, atoms_of, box, build_window, catom, ext, occ,
                      ratom, ts)
from rlwindow import window
from rlwindow.errors import EngineError, StaleTimestamp, UnexpectedInconsistency
from rlwindow.interpretation import (canonical_model, direct_sum, eval_concept,
                                     eval_role, satisfies, standard_interpretation)
from rlwindow.oracle import naive_window_materialization
from rlwindow.ontology import (ConceptName, Conj, Exists, RoleInverse, RoleName, canonicalize,
                               format_axiom, parse_tbox)
from rlwindow.repair import add_abox_with_repair
from rlwindow.stream import (ConceptAtom, Occurrence, RoleAtom, Timestamp, WindowSpec,
                             window_extents)
from rlwindow.synth import random_stream, random_tbox
from rlwindow.window import OccurrenceIndex, WindowModel, _minjoin, _Probe, _role_atom


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


def test_homes_track_drops(worked_tbox, worked_stream):
    wm = build_window(ext(1, 2), worked_stream, worked_tbox)
    assert wm.homes(catom("E", "a"))
    wm2 = build_window(ext(1, 3), worked_stream, worked_tbox)
    wm2.drop_before(ts(2))
    assert not wm2.homes(catom("E", "a"))
    assert not wm2.homes(catom("Unseen", "a"))


def test_attributed_atoms_flag_origin(worked_tbox, worked_stream):
    wm = build_window(ext(1, 2), worked_stream, worked_tbox)
    by_atom = {a.atom: a for a in wm.attributed_atoms()}
    assert by_atom[catom("A", "a")].origin == "asserted"
    assert by_atom[catom("D", "a")].origin == "derived"
    assert by_atom[catom("A", "a")].asserted_at == frozenset({ts(1)})


# -- the occurrence index -----------------------------------------------------

_NODES = st.sampled_from("abc")
_INDEX_ATOMS = st.one_of(st.builds(catom, st.sampled_from("AB"), _NODES),
                         st.builds(ratom, st.sampled_from("rs"), _NODES, _NODES))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.booleans(), _INDEX_ATOMS, st.integers(0, 3)), max_size=40))
def test_index_agrees_with_a_plain_occurrence_set(calls):
    # Interleaved adds and discards, each followed by a brute-force scan of
    # a plain occurrence set for every reader of the index.
    index, reference = OccurrenceIndex(), set()
    for adding, atom, t in calls:
        o = Occurrence(atom, ts(t))
        if adding:
            assert index.add(*o) == (o not in reference)
            reference.add(o)
        else:
            assert index.discard(*o) == (o in reference)
            reference.discard(o)
        homes = {}
        for a, h in reference:
            homes.setdefault(a, set()).add(h)
        for a in {a for _, a, _ in calls}:
            assert index.homes(a) == homes.get(a, set())
        for name in "rs":
            pairs = {(a.subject, a.obj): h for a, h in homes.items()
                     if isinstance(a, RoleAtom) and a.role == name}
            for rexpr, image in ((RoleName(name), pairs),
                                 (RoleInverse(name), {(o, s): h for (s, o), h in pairs.items()})):
                for x in "abc":
                    assert dict(index.role_neighbors(rexpr, x)) == {
                        y: h for (x2, y), h in image.items() if x2 == x}
        inverse = {}
        for name, by_ind in index.concepts.items():
            for x, h in by_ind.items():
                for t in h:
                    inverse.setdefault(t, set()).add(ConceptAtom(name, x))
        for name, by_subj in index.fwd.items():
            for s, by_obj in by_subj.items():
                for o, h in by_obj.items():
                    assert h is index.rev[name][o][s]
                    for t in h:
                        inverse.setdefault(t, set()).add(RoleAtom(name, s, o))
        assert index.by_home == inverse
        assert index == OccurrenceIndex(reference)


# -- add_abox ----------------------------------------------------------------

def test_add_to_empty_equals_canonical_model(worked_tbox, worked_stream):
    wm = WindowModel(ext(1, 2))
    wm.add_abox(worked_stream[0], worked_tbox)
    expect = naive_window_materialization(worked_stream, ext(1, 1), worked_tbox)
    assert atoms_of(wm.window_interpretation()) == atoms_of(expect)


def test_a_body_of_1200_conjuncts_agrees_with_the_canonical_model():
    names = [f"N{i}" for i in range(1200)]
    tbox = parse_tbox(" & ".join(names) + " < H\nH & Z < bot\n")
    atoms = [catom(n, "a") for n in names] + [catom("Z", "b")]
    wm = WindowModel(ext(0, 2))
    wm.add_abox(box(0, *atoms[:600]), tbox)
    wm.add_abox(box(1, *atoms[600:]), tbox)
    assert atoms_of(wm.window_interpretation()) == atoms_of(canonical_model(atoms, tbox))
    assert homes_text(wm, catom("H", "a")) == ["0"]
    assert canonical_model(atoms + [catom("Z", "a")], tbox).binding == "a"
    with pytest.raises(UnexpectedInconsistency) as e:
        wm.add_abox(box(2, catom("Z", "a")), tbox)
    assert e.value.binding == "a"


def test_add_empty_abox_keeps_interpretation(worked_tbox, worked_stream):
    wm = build_window(ext(1, 4), worked_stream, worked_tbox)
    before = wm.window_interpretation()
    wm2 = build_window(ext(1, 5), worked_stream, worked_tbox)
    wm2.add_abox(box(5), worked_tbox)
    assert wm2.window_interpretation() == before
    assert ts(5) in wm2._ticks
    assert standard_interpretation(wm2._index.by_home.get(ts(5), ())).is_empty


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
    assert list(wm._ticks) == [ts(1)]
    assert not wm.homes(catom("A", "a")) and not wm.homes(catom("D", "a"))
    assert wm.asserted_occurrences() == {occ(catom("B", "a"), 1)}


def test_a_failed_add_raises_the_first_clash_of_the_whole_closure():
    # add_abox raises the clash its tick's closure records first: the first
    # round's, then the first axiom in order, then the smallest binding.
    # E & B comes first in the TBox and binds a, the smaller individual,
    # but E(a) is derived only in the second round.
    tbox = parse_tbox("E & B < bot\nD < E\nA & B < bot")
    wm = WindowModel(ext(0, 1))
    with pytest.raises(UnexpectedInconsistency) as e:
        wm.add_abox(box(0, catom("A", "b"), catom("B", "b"), catom("D", "a"),
                        catom("B", "a")), tbox)
    assert (format_axiom(e.value.axiom), e.value.binding) == ("A & B < bot", "b")


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
    assert list(wm._ticks) == [ts(2), ts(3)]
    assert wm._index.by_home[ts(2)] == {catom("C", "a"), catom("D", "a")}
    assert wm._index.by_home[ts(3)] == {catom("A", "a")}
    assert not wm.homes(catom("E", "a"))


def test_drop_noop_and_full(worked_tbox, worked_stream):
    wm = build_window(ext(1, 3), worked_stream, worked_tbox)
    snapshot = atoms_of(wm.window_interpretation())
    wm.drop_before(ts(0))
    assert atoms_of(wm.window_interpretation()) == snapshot
    wm.drop_before(ts(99))
    assert wm.window_interpretation().is_empty
    assert list(wm._ticks) == []


def test_drop_before_narrows_the_extent_to_the_cutoff():
    tbox = parse_tbox("A < B")
    wm = WindowModel(ext(0, 4))
    wm.add_abox(box(0, catom("A", "a")), tbox)
    wm.drop_before(ts(2))
    assert wm.extent == ext(2, 4)
    with pytest.raises(StaleTimestamp):
        wm.add_abox(box(1, catom("A", "b")), tbox)
    for cutoff in (0, 2, 5):  # not in (start, end]: the extent stays
        wm.drop_before(ts(cutoff))
        assert wm.extent == ext(2, 4)


def test_a_raising_expiry_changes_nothing(worked_tbox, worked_stream, monkeypatch):
    # A raise at the k-th discard of a direct drop_before, for every k up to
    # the discards of a clean expiry, must leave the model as it was.
    wm = build_window(ext(0, 4), worked_stream, worked_tbox)
    expired = wm.copy().drop_before(ts(3))
    discards = len(wm.occurrences() - expired.occurrences())
    assert discards > 1
    discard = OccurrenceIndex.discard
    for k in range(1, discards + 1):
        calls = []

        def planted(index, atom, t):
            calls.append(atom)
            if len(calls) == k:
                raise _Planted
            return discard(index, atom, t)

        before = wm.copy()
        with monkeypatch.context() as mp:
            mp.setattr(OccurrenceIndex, "discard", planted)
            with pytest.raises(_Planted):
                wm.drop_before(ts(3))
        assert vars(wm) == vars(before)
    assert vars(wm.drop_before(ts(3))) == vars(expired)


def test_drop_equals_from_scratch(worked_tbox, worked_stream):
    wm = build_window(ext(1, 3), worked_stream, worked_tbox)
    wm.drop_before(ts(2))
    scratch = build_window(ext(2, 3), worked_stream, worked_tbox)
    assert atoms_of(wm.window_interpretation()) == atoms_of(scratch.window_interpretation())
    assert {o for o in wm.occurrences()} == {o for o in scratch.occurrences()}


def test_window_interpretation_is_entry_sum(worked_tbox, worked_stream):
    wm = build_window(ext(1, 4), worked_stream, worked_tbox)
    summed = direct_sum(*(standard_interpretation(wm._index.by_home.get(t, ()))
                          for t in wm._ticks))
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
        assert list(wm._ticks) == [ts(t) for t in range(end - 9, end + 1)]
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
        # A(x) and B(x) expire from the window's one index, with their tick.
        assert report.expired_occurrences == 2
        assert [index for index, _ in discarded] == [wm._index] * report.expired_occurrences
        assert {t for _, t in discarded} == {ts(end - n)}
        assert next(iter(wm._ticks)) == ts(end - n + 1)



# -- change sets ---------------------------------------------------------------

def _homes_by_atom(wm):
    return {a.atom: a.home_timestamps for a in wm.attributed_atoms()}


def _homes_changed(before, after):
    return {a for a in before.keys() | after.keys() if before.get(a) != after.get(a)}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.booleans())
@example(9, True)  # the slide to [2, 5] rederives 2 occurrences
def test_slide_reports_every_atom_whose_homes_changed(seed, repair):
    # Cyclic TBoxes. Without repair, a clash raises; the run then starts
    # over from a new model, whose first slide must report every atom it
    # holds. The counts balance: the slide expires what is homed before its
    # start, and every other occurrence it removes is one repair overdeleted,
    # so rederived occurrences count as added.
    tbox = random_tbox(seed, n_concepts=4, n_roles=2, n_axioms=6, n_negative=2,
                       acyclic=False)
    repairs = []

    def hook(model, b):
        repairs.append(add_abox_with_repair(model, b, tbox)[1])
        return repairs[-1]

    stream = random_stream(seed + 1, n_ticks=10, atoms_per_tick=3,
                           n_individuals=3, n_concepts=4, n_roles=2)
    wm = None
    for end in (3, 4, 5, 7, 8, 9):
        if wm is None:
            wm = WindowModel(ext(end - 3, end))
        before, homes = wm.copy(), _homes_by_atom(wm)
        repairs.clear()
        try:
            report = wm.slide(stream, ext(end - 3, end), tbox,
                              repair=hook if repair else None)
        except EngineError:
            assert vars(wm) == vars(before)
            wm = None
            continue
        assert _homes_changed(homes, _homes_by_atom(wm)) <= report.changed
        assert report.expired_occurrences == sum(
            o.timestamp < ts(end - 3) for o in before.occurrences())
        assert len(wm.occurrences()) == (
            len(before.occurrences()) - report.expired_occurrences
            + report.added_occurrences - sum(rep.overdeleted for rep in repairs))


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


# -- batched slides ------------------------------------------------------------

def _seed_log(monkeypatch, seed_of):
    """Log seed_of(delta) for every _fixpoint call, in call order."""
    seeds = []
    fixpoint = WindowModel._fixpoint

    def logged(model, tbox, delta):
        seeds.append(seed_of(delta))
        return fixpoint(model, tbox, delta)

    monkeypatch.setattr(WindowModel, "_fixpoint", logged)
    return seeds


def test_a_multi_tick_slide_runs_one_fixpoint(worked_tbox, worked_stream, monkeypatch):
    # Without a negative inclusion a slide ingests its fresh ticks with one
    # fixpoint, inside an enclosing transaction or not. With one, even one
    # that never clashes, it adds them tick by tick.
    seeds = _seed_log(monkeypatch, len)
    guarded = parse_tbox(WORKED_TBOX_TEXT + "Z & Y < bot\n")
    for tbox, want in ((worked_tbox, [5]), (guarded, [2, 1, 1, 1])):
        for nested in (False, True):
            seeds.clear()
            wm = WindowModel(ext(0, 4))
            with wm._atomic() if nested else nullcontext():
                wm.slide(worked_stream, ext(0, 4), tbox)
            assert seeds == want


def test_a_clashing_first_tick_seeds_no_batch(monkeypatch):
    # Under a negative inclusion each fixpoint is seeded from one tick, so
    # the clash of the first tick raises before the other two are ingested.
    seeds = _seed_log(monkeypatch, lambda delta: {t for _, t in delta})
    tbox = parse_tbox("A & B < bot")
    stream = [box(1, catom("A", "z"), catom("B", "z")), box(2, catom("A", "a")),
              box(3, catom("B", "a"))]
    with pytest.raises(UnexpectedInconsistency):
        WindowModel(ext(1, 3)).slide(stream, ext(1, 3), tbox)
    assert seeds and all(len(ticks) <= 1 for ticks in seeds)


def _outcome(build):
    """What build() returns, or the text of the UnexpectedInconsistency it
    raised."""
    try:
        return build()
    except UnexpectedInconsistency as e:
        return str(e)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000),
       st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=1))
@example(9, [2, 3], 1)
def test_batched_slides_equal_tick_by_tick_slides(seed, steps, n_negative):
    # The referee builds each extent from scratch with add_abox, tick by
    # tick. Under a negative inclusion some windows clash: the slide must
    # then raise the referee's error and keep the last window, and the run
    # slides on from it.
    tbox = random_tbox(seed, n_concepts=4, n_roles=2, n_axioms=6, n_negative=n_negative,
                       acyclic=False)
    stream = random_stream(seed + 1, n_ticks=14, atoms_per_tick=3,
                           n_individuals=3, n_concepts=4, n_roles=2)
    wm = WindowModel(ext(-1, 3))
    end = 3
    for step in [0, *steps]:
        end += step
        extent = ext(end - 4, end)
        before = wm.copy()
        got = _outcome(lambda: wm.slide(stream, extent, tbox))
        want = _outcome(lambda: build_window(extent, stream, tbox))
        if isinstance(got, str):
            assert got == want
            assert vars(wm) == vars(before)
        else:
            assert wm._index == want._index
            assert wm._ticks == want._ticks
            assert wm.extent == want.extent


def test_a_clashing_slide_names_its_first_clashing_tick():
    # Tick 1 clashes at z, tick 2 at a. One fixpoint over both ticks meets
    # a first, by binding order; the slide adds them tick by tick, so it
    # names z and changes nothing.
    tbox = parse_tbox("A & B < bot")
    stream = [box(1, catom("A", "z"), catom("B", "z")), box(2, catom("A", "a"), catom("B", "a"))]
    probe = WindowModel(ext(1, 2))
    with probe._atomic():
        assert [x for _, x in probe._ingest(stream, tbox)] == ["a", "z"]
    wm = WindowModel(ext(1, 2))
    before = wm.copy()
    with pytest.raises(UnexpectedInconsistency) as e:
        wm.slide(stream, ext(1, 2), tbox)
    assert str(e.value) == "negative inclusion violated by 'z'"
    assert vars(wm) == vars(before)


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


# -- fresh instantiations ------------------------------------------------------

class _Flagged(_Probe):
    """The referee of fresh: the evaluator annotating each instantiation
    with its home and whether it uses a delta occurrence, carried through
    at over the whole index (fresh is not used)."""

    def __init__(self, index, delta):
        super().__init__(index, ())
        self.used = set(delta)

    def join(self, a, b):
        return {(min(h, k), u or v) for h, u in a for k, v in b}

    def concept_leaf(self, name, x, homes):
        return {(h, (ConceptAtom(name, x), h) in self.used) for h in homes}

    def role_leaf(self, rexpr, x, y, homes):
        atom = _role_atom(rexpr, x, y)
        return {(h, (atom, h) in self.used) for h in homes}


_FLAG_NODES = st.sampled_from("ab")
# (occurrence, in the delta) pairs: atoms with one to three homes each, so
# that an atom often has a delta home and an older one outside the delta.
_FLAG_DRAWS = st.lists(
    st.tuples(st.one_of(st.builds(catom, st.sampled_from("AB"), _FLAG_NODES),
                        st.builds(ratom, st.just("r"), _FLAG_NODES, _FLAG_NODES)),
              st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=3)),
    max_size=8).map(lambda rows: [(occ(atom, t), flagged)
                                  for atom, homes in rows for t, flagged in homes])
_FLAG_ROLES = st.sampled_from([RoleName("r"), RoleInverse("r")])
_FLAG_TERMS = st.recursive(
    st.sampled_from("AB").map(ConceptName),
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=4).map(lambda parts: Conj(tuple(parts))),
        st.builds(Exists, _FLAG_ROLES, inner)),
    max_leaves=6)
# Half the bodies are conjunctions at the top, where several parts are
# most often fresh at one individual.
_FLAG_BODIES = st.one_of(
    _FLAG_TERMS,
    st.lists(_FLAG_TERMS, min_size=2, max_size=4).map(lambda parts: Conj(tuple(parts)))
).map(canonicalize)


@settings(max_examples=300, deadline=None)
@given(_FLAG_DRAWS, _FLAG_BODIES)
@example([(occ(ratom("r", "a", "b"), 1), True), (occ(catom("A", "a"), 0), False),
          (occ(catom("A", "b"), 2), True)],
         Exists(RoleInverse("r"), ConceptName("A")))
@example([(occ(catom("A", "a"), 2), True), (occ(catom("B", "a"), 0), False),
          (occ(catom("B", "a"), 3), True)],
         Conj((ConceptName("A"), ConceptName("B"))))
@example([(occ(ratom("r", "a", "a"), 2), True), (occ(catom("A", "a"), 1), True),
          (occ(catom("B", "a"), 0), True), (occ(catom("C", "a"), 3), False)],
         canonicalize(Conj((ConceptName("A"), ConceptName("B"), ConceptName("C"),
                            Exists(RoleInverse("r"), ConceptName("A"))))))
def test_fresh_equals_the_flagged_instantiations_of_a_referee(drawn, body):
    # The delta is the flagged part of the index; the plain delta tables
    # swap a role pair for an inverse, so inverse roles and self-loops are
    # drawn, and several parts of a conjunction may be fresh at one x.
    index = OccurrenceIndex(o for o, _ in drawn)
    delta = [o for o, flagged in drawn if flagged]
    fresh, referee = _Probe(index, delta).fresh(body), _Flagged(index, delta)
    for x in "ab":
        assert fresh.get(x, set()) == {h for h, used in referee.at(body, x) if used}, x


def test_a_conjunction_fresh_in_every_part_shares_its_joins(monkeypatch):
    # n parts arriving at one binding: joining the other parts anew for each
    # fresh part would take n(n - 1) min-joins.
    n = 1200
    names = [f"N{i}" for i in range(n)]
    calls = []

    def counted(a, b):
        calls.append(None)
        return _minjoin(a, b)

    monkeypatch.setattr(window, "_minjoin", counted)
    wm = WindowModel(ext(0, 0)).add_abox(box(0, *(catom(name, "a") for name in names)),
                                         parse_tbox(" & ".join(names) + " < B\n"))
    assert homes_text(wm, catom("B", "a")) == ["0"]
    assert len(calls) <= 4 * n


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
