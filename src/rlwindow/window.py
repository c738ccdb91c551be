"""Incremental materialization over a sliding window of momentary ABoxes.

State is one index at occurrence granularity, where every atom in the window
carries the set of timestamps it is homed at (a role pair's one home set is
reached from either end of the pair), and the window's ticks, each with the
asserted atoms that survive at it and are homed there. Each public
mutation is one transaction: its index changes go to one journal, which
undoes them when it raises and from which a slide reads its report. A
derived atom is added at the minimum timestamp over the occurrences
instantiating some rule body for it, and every distinct instantiation
contributes its own minimum, so the atom may be homed at several ticks.
Because each home timestamp certifies a derivation using only occurrences
at that tick or later, expiring the oldest ticks is pure deletion and
requires no re-reasoning. The index buckets the atoms homed at each
timestamp, so expiry discards exactly the expired buckets, through the same
journaled removal as retraction, and costs what it removes.

Adding a momentary ABox runs a semi-naive fixpoint: each round only considers
rule-body instantiations that use at least one occurrence added in the
previous round, probing the rest of the body against the full index. A
round's delta is the plain list of (atom, timestamp) pairs the previous
round inserted, which the round keeps as plain tables of delta homes per
concept and per role. The round is _Probe, the engine's one rule-body
evaluator, annotated with homes here and with instantiations, the atoms of
each way to match a body, in conflict enumeration (repair._Instantiations).
Its one consequence walk serves the fixpoint, which inserts the homes the
index lacks, and overdeletion (repair._overdelete), which marks the homes it
holds. Each round also records where it instantiates a negative inclusion:
add_abox raises for the first such clash, and repair enumerates conflicts
at their bindings only. Without repair, a slide seeds one fixpoint with all
of its fresh ticks when the TBox has no negative inclusion, and adds them
tick by tick when it has one.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter, itemgetter

from .errors import StaleTimestamp, UnexpectedInconsistency
from .interpretation import Interpretation
from .ontology import ConceptInclusion, ConceptName, Conj, RoleInverse, RoleName
from .stream import (Atom, ConceptAtom, Occurrence, RoleAtom, Timestamp,
                     WindowExtent)


@dataclass(frozen=True)
class AttributedAtom:
    atom: Atom
    home_timestamps: frozenset[Timestamp]
    asserted_at: frozenset[Timestamp]

    @property
    def origin(self):
        return "asserted" if self.asserted_at else "derived"


@dataclass(frozen=True)
class SlideReport:
    """What one slide did, read off its journal. expired_occurrences counts
    the occurrences expiry discarded. added_occurrences counts every index
    insert of the slide: ingested assertions, their consequences, and the
    occurrences rederivation put back after a retraction. changed holds
    every atom whose home set the slide may have changed: each atom that
    gained or lost a home in the window's index, whether by expiry,
    ingestion, repair or rederivation. An atom outside it has the homes it
    had before the slide, so a reader can bring a rendering of the previous
    window up to date from it alone. Sliding a new model lists every atom of
    the window it builds. removals holds the occurrences repair retracted,
    ordered by sort_key: oldest first, then by atom."""

    extent: WindowExtent
    added_occurrences: int
    expired_occurrences: int
    removals: tuple[Occurrence, ...]
    changed: frozenset[Atom]


# ---------------------------------------------------------------------------
# timestamp-annotated evaluation
#
# An annotation is the set of achievable homes of a body instantiation: the
# minima reachable by choosing one occurrence per ground atom. A ground atom's
# annotation is its set of homes; joining two annotations takes min(h1, h2)
# over all pairs, and alternative instantiations merge by union.


def _minjoin(a, b):
    """{min(x, y) for x in a for y in b}, for non-empty a and b, in linear
    time. Every element of the operand whose max is smaller is a minimum,
    paired with the other's max, so that operand is copied whole; an element
    of the other is a minimum exactly when it is at most that max."""
    top_a, top_b = max(a), max(b)
    if top_b < top_a:
        a, b, top_a = b, a, top_b
    out = set(a)
    for y in b:
        if y <= top_a:
            out.add(y)
    return out


class OccurrenceIndex:
    """Home timestamps per concept atom and per role pair, and the atoms
    homed at each timestamp.

    concepts[A][x] is the home set of A(x). A role pair's home set is
    reachable both ways, as fwd[r][s][o] and rev[r][o][s], which are one set
    object, so a probe reads a pair's neighbours and homes with one lookup
    from either end. by_home buckets the atoms homed at each timestamp.
    add and discard are the only writers, so the buckets always invert the
    home sets, and discard is the only removal. Emptied entries and buckets
    are removed, so equal contents compare equal.
    """

    def __init__(self, occurrences=()):
        self.concepts: dict[str, dict[str, set[Timestamp]]] = {}
        self.fwd: dict[str, dict[str, dict[str, set[Timestamp]]]] = {}
        self.rev: dict[str, dict[str, dict[str, set[Timestamp]]]] = {}
        self.by_home: dict[Timestamp, set[Atom]] = {}
        for atom, ts in occurrences:
            self.add(atom, ts)

    def __eq__(self, other):
        return (isinstance(other, OccurrenceIndex)
                and (self.concepts, self.fwd, self.rev, self.by_home)
                == (other.concepts, other.fwd, other.rev, other.by_home))

    def homes(self, atom):
        if isinstance(atom, ConceptAtom):
            return self.concepts.get(atom.concept, {}).get(atom.individual, set())
        return self.fwd.get(atom.role, {}).get(atom.subject, {}).get(atom.obj, set())

    def add(self, atom, ts):
        """Insert one occurrence; True when it was not there yet."""
        if isinstance(atom, ConceptAtom):
            homes = self.concepts.setdefault(atom.concept, {}).setdefault(
                atom.individual, set())
        else:
            by_obj = self.fwd.setdefault(atom.role, {}).setdefault(atom.subject, {})
            homes = by_obj.get(atom.obj)
            if homes is None:
                homes = by_obj[atom.obj] = set()
                self.rev.setdefault(atom.role, {}).setdefault(atom.obj, {})[atom.subject] = homes
        if ts in homes:
            return False
        homes.add(ts)
        bucket = self.by_home.get(ts)
        if bucket is None:
            bucket = self.by_home[ts] = set()
        bucket.add(atom)
        return True

    def discard(self, atom, ts):
        """Remove one occurrence; True when it was there."""
        concept = isinstance(atom, ConceptAtom)
        if concept:
            homes = self.concepts.get(atom.concept, {}).get(atom.individual)
        else:
            homes = self.fwd.get(atom.role, {}).get(atom.subject, {}).get(atom.obj)
        if homes is None or ts not in homes:
            return False
        homes.discard(ts)
        bucket = self.by_home[ts]
        bucket.discard(atom)
        if not bucket:
            del self.by_home[ts]
        if homes:
            return True
        if concept:
            by_ind = self.concepts[atom.concept]
            del by_ind[atom.individual]
            if not by_ind:
                del self.concepts[atom.concept]
            return True
        for adj, a, b in ((self.fwd, atom.subject, atom.obj), (self.rev, atom.obj, atom.subject)):
            by_node = adj[atom.role]
            del by_node[a][b]
            if not by_node[a]:
                del by_node[a]
                if not by_node:
                    del adj[atom.role]
        return True

    def occurrences(self):
        return {Occurrence(atom, t) for t, atoms in self.by_home.items() for atom in atoms}

    def copy(self):
        return OccurrenceIndex(self.occurrences())

    def role_neighbors(self, rexpr, x):
        """(y, homes) for every pair putting x in the rexpr image."""
        adj = self.fwd if isinstance(rexpr, RoleName) else self.rev
        return adj.get(rexpr.name, {}).get(x, {}).items()


def _role_atom(rexpr, x, y):
    """The role atom that places the pair (x, y) in the image of rexpr."""
    if isinstance(rexpr, RoleInverse):
        return RoleAtom(rexpr.name, y, x)
    return RoleAtom(rexpr.name, x, y)


class _Probe:
    """One semi-naive round over an index that already holds the delta.

    delta is an iterable of (atom, timestamp) pairs, which the probe keeps
    as two plain tables of delta homes, concept -> {individual: homes} and
    role -> {(subject, object): homes}; a probe that never calls fresh
    passes ().

    at(expr, x) annotates the instantiations of expr at x over the whole
    index; fresh(expr) maps each x to the annotation of those that use a
    delta occurrence: a conjunction is the sum over its parts i of fresh
    part i x all of every other part, an existential fresh-role x filler
    plus role x fresh-filler. Both are memoized for the round on the node,
    which is interned, so its hash costs O(1) at any depth. fresh may repeat
    instantiations the index already derives; callers deduplicate.

    derivations(atom, tbox) annotates the one-step derivations of an atom
    over the whole index, for the backward check of rederivation and the
    conflict search's walk; it is memoized on the atom, so a probe serves
    one TBox.

    join and the two leaves are the annotation algebra; alternatives merge by
    union. Here a leaf is its home set, which must not be mutated, and join
    is the min-join, so an annotation is a set of achievable homes. A join
    returns a new set, which a merge may update in place.
    """

    def __init__(self, index, delta):
        self.index = index
        self.delta_concepts = {}
        self.delta_roles = {}
        for atom, ts in delta:
            if isinstance(atom, ConceptAtom):
                table, key = self.delta_concepts.setdefault(atom.concept, {}), atom.individual
            else:
                table, key = self.delta_roles.setdefault(atom.role, {}), (atom.subject, atom.obj)
            homes = table.get(key)
            if homes is None:
                table[key] = {ts}
            else:
                homes.add(ts)
        self._at = {}
        self._fresh = {}
        self._derivations = {}

    def join(self, a, b):
        return _minjoin(a, b)

    def concept_leaf(self, name, x, homes):
        return homes

    def role_leaf(self, rexpr, x, y, homes):
        return homes

    def at(self, expr, x):
        key = (expr, x)
        out = self._at.get(key)
        if out is not None:
            return out
        if isinstance(expr, ConceptName):
            homes = self.index.concepts.get(expr.name, {}).get(x)
            out = self.concept_leaf(expr.name, x, homes) if homes else set()
        elif isinstance(expr, Conj):
            out = self._join_at(expr.parts, x)
        else:
            out = set()
            for y, homes in self.index.role_neighbors(expr.role, x):
                filler = self.at(expr.filler, y)
                if filler:
                    out |= self.join(self.role_leaf(expr.role, x, y, homes), filler)
        self._at[key] = out
        return out

    def _join_at(self, parts, x):
        """The join of at(part, x) over the parts, in order; empty once one of them is."""
        out = self.at(parts[0], x)
        for part in parts[1:]:
            ann = self.at(part, x) if out else None
            out = self.join(out, ann) if ann else set()
        return out

    def _delta_pairs(self, rexpr):
        """(x, y, delta homes) for each delta pair putting (x, y) in the
        image of rexpr, whose role the delta holds."""
        pairs = self.delta_roles[rexpr.name].items()
        if isinstance(rexpr, RoleInverse):
            return [(o, s, homes) for (s, o), homes in pairs]
        return [(s, o, homes) for (s, o), homes in pairs]

    def fresh(self, expr):
        out = self._fresh.get(expr)
        if out is not None:
            return out
        if isinstance(expr, ConceptName):
            hits = self.delta_concepts.get(expr.name)
            out = {x: self.concept_leaf(expr.name, x, homes)
                   for x, homes in hits.items()} if hits else {}
        elif isinstance(expr, Conj):
            out = self._fresh_conj(expr.parts)
        else:
            out = {}
            role, filler = expr.role, expr.filler
            if role.name in self.delta_roles:
                for x, y, homes in self._delta_pairs(role):
                    ann = self.at(filler, y)
                    if ann:
                        ann = self.join(self.role_leaf(role, x, y, homes), ann)
                        have = out.get(x)
                        if have is None:
                            out[x] = ann
                        else:
                            have |= ann
            fillers = self.fresh(filler)
            if fillers:
                # The x with (x, y) in the role image: y's neighbours the other way.
                index = self.index
                back = (index.fwd if isinstance(role, RoleInverse)
                        else index.rev).get(role.name, {})
                for y, ann in fillers.items():
                    for x, homes in back.get(y, {}).items():
                        joined = self.join(self.role_leaf(role, x, y, homes), ann)
                        have = out.get(x)
                        if have is None:
                            out[x] = joined
                        else:
                            have |= joined
        self._fresh[expr] = out
        return out

    def _fresh_conj(self, parts):
        """fresh of the conjunction of parts: _fresh_at at each x fresh in
        some part, taken in part order."""
        maps = list(map(self.fresh, parts))
        out = {}
        for x in dict.fromkeys(chain.from_iterable(maps)):
            ann = self._fresh_at(parts, maps, x)
            if ann:
                out[x] = ann
        return out

    def _fresh_at(self, parts, maps, x):
        """fresh of the conjunction of parts at x, maps[k] holding fresh of
        part k, in one walk over the parts; empty once some part is empty at x.
        out sums the terms of the fresh parts so far, each joined with every
        later part. A fresh part's term joins its annotation with before,
        the join of the parts before it; held lists the parts since the
        first fresh one, which join into before only when another fresh part
        needs them. So the terms share their prefix joins, and n parts cost
        fewer than 4n joins however many of them are fresh."""
        before = out = None
        held = []
        for part, found in zip(parts, maps):
            new = found.get(x)
            if new is None:
                ann = self.at(part, x)
                if not ann:
                    return set()
                if out is None:
                    before = ann if before is None else self.join(before, ann)
                    continue
                out = self.join(out, ann)
            else:
                for p in held:
                    prev = self.at(p, x)
                    before = prev if before is None else self.join(before, prev)
                held = []
                term = new if before is None else self.join(before, new)
                # A part fresh at x is not empty at x.
                out = term if out is None else self.join(out, self.at(part, x)) | term
            held.append(part)
        return out

    def derivations(self, atom, tbox):
        """The annotation of atom's one-step derivations: its concept's
        bodies at its individual, or the leaves of the sub-role pairs that
        put its pair in its role."""
        out = self._derivations.get(atom)
        if out is not None:
            return out
        if isinstance(atom, ConceptAtom):
            x = atom.individual
            out = set().union(*(self.at(body, x) for body in tbox.bodies.get(atom.concept, ())))
        else:
            out, x, y = set(), atom.subject, atom.obj
            for sub in tbox.subroles.get(atom.role, ()):
                homes = self.index.homes(_role_atom(sub, x, y))
                if homes:
                    out |= self.role_leaf(sub, x, y, homes)
        self._derivations[atom] = out
        return out

    def consequences(self, tbox, present):
        """(head atom, homes) for the instantiations of the positive axioms
        that use a delta occurrence, keeping of their homes those the index
        holds for the atom when present is true and those it lacks
        otherwise; an atom with no home kept is left out, and one that two
        axioms derive may appear twice. Each axiom reads its head's home
        table once, and a head atom is built only for a kept home. The list
        is complete before the caller writes to the index."""
        index, out = self.index, []
        for ax in tbox.positive_axioms:
            if isinstance(ax, ConceptInclusion):
                hits = self.fresh(ax.body)
                if hits:
                    head, table = ax.head, index.concepts.get(ax.head, {})
                    for x, ann in hits.items():
                        have = table.get(x, ())
                        kept = ann.intersection(have) if present else ann.difference(have)
                        if kept:
                            out.append((ConceptAtom(head, x), kept))
            elif ax.sub.name in self.delta_roles:
                role, table = ax.sup.name, index.fwd.get(ax.sup.name, {})
                for x, y, homes in self._delta_pairs(ax.sub):
                    have = table.get(x, {}).get(y, ())
                    kept = homes.intersection(have) if present else homes.difference(have)
                    if kept:
                        out.append((RoleAtom(role, x, y), kept))
        return out


# ---------------------------------------------------------------------------
# the window model


class WindowModel:
    """Mutable materialized state of one window: one index of every
    occurrence, asserted or derived, and the window's momentary ABoxes as
    they survive repair. Single-writer; concurrent readers should work on a
    copy(). Every public mutation is all-or-nothing: when it raises, the
    model is left exactly as it was before the call.
    """

    def __init__(self, extent):
        self.extent = extent
        # The loaded ticks, oldest first, with their surviving asserted
        # atoms; a tick's set is replaced, never changed in place.
        self._ticks: dict[Timestamp, frozenset[Atom]] = {}
        self._index = OccurrenceIndex()  # every occurrence, asserted or derived
        # Undo entries (atom, timestamp, added) of the open transaction's
        # index changes, or None outside one.
        self._journal = None

    # The plain concept and role tables of the full index, for readers of
    # the model's state.

    @property
    def _concepts(self):
        return self._index.concepts

    @property
    def _roles(self):
        return {name: {(s, o): homes for s, by_obj in by_subj.items()
                       for o, homes in by_obj.items()}
                for name, by_subj in self._index.fwd.items()}

    # -- occurrence bookkeeping ------------------------------------------

    @property
    def homes(self):
        return self._index.homes

    def is_asserted(self, atom, ts):
        return atom in self._ticks.get(ts, ())

    # Index writes; each runs inside a transaction (_atomic) and journals
    # what it changed.

    def _insert(self, atom, ts):
        fresh = self._index.add(atom, ts)
        if fresh:
            self._journal.append((atom, ts, True))
        return fresh

    def _discard(self, atom, ts):
        if self._index.discard(atom, ts):
            self._journal.append((atom, ts, False))

    @contextmanager
    def _atomic(self):
        """Run the block as one transaction and yield its journal. The
        outermost block opens the journal and saves the ticks and the
        extent; if it raises, every journaled index change is undone and
        they are restored before the exception propagates. A nested block
        joins the open transaction: it only yields the same journal, and a
        raise inside it undoes the whole transaction once it leaves the
        outermost block."""
        if self._journal is not None:
            yield self._journal
            return
        journal = self._journal = []
        saved = (self.extent, dict(self._ticks))
        try:
            yield journal
        except BaseException:
            index = self._index
            for atom, ts, added in reversed(journal):
                if added:
                    index.discard(atom, ts)
                else:
                    index.add(atom, ts)
            self.extent, self._ticks = saved
            raise
        finally:
            self._journal = None

    # -- views -------------------------------------------------------------

    def occurrences(self):
        return self._index.occurrences()

    def asserted_occurrences(self):
        return {Occurrence(atom, t) for t, atoms in self._ticks.items() for atom in atoms}

    def attributed_atoms(self):
        """Every atom of the window with its homes, in atom sort order."""
        rows = [(ConceptAtom(name, x), homes)
                for name, by_ind in self._concepts.items()
                for x, homes in by_ind.items()]
        rows.extend((RoleAtom(name, *pair), homes)
                    for name, by_pair in self._roles.items()
                    for pair, homes in by_pair.items())
        rows.sort(key=itemgetter(0))
        return [AttributedAtom(atom, frozenset(homes),
                               frozenset(t for t in homes if self.is_asserted(atom, t)))
                for atom, homes in rows]

    def window_interpretation(self):
        concepts = {n: set(by_ind) for n, by_ind in self._concepts.items()}
        roles = {n: set(by_pair) for n, by_pair in self._roles.items()}
        return Interpretation(concepts, roles)

    def copy(self):
        dup = WindowModel(self.extent)
        dup._ticks = dict(self._ticks)
        dup._index = self._index.copy()
        return dup

    # -- reasoning ----------------------------------------------------------

    def _fixpoint(self, tbox, delta):
        """Close the index under the positive axioms, semi-naive from
        delta, the seed (atom, timestamp) pairs, which the index must
        already hold. Each round also records the negative inclusions it
        instantiates with a fresh occurrence, as (axiom, binding) clashes in
        round, axiom and binding order. On an index without a clash before
        the seed, every binding of the closure's clashes is recorded.
        Returns (occurrences inserted, clashes)."""
        inserted = 0
        clashes = []
        while delta:
            probe = _Probe(self._index, delta)
            for ax in tbox.negative_inclusions:
                hit = probe.fresh(ax.body)
                if hit:
                    clashes.extend((ax, x) for x in sorted(hit))
            delta = []
            for atom, homes in probe.consequences(tbox, False):
                for h in homes:
                    if self._insert(atom, h):
                        delta.append((atom, h))
            inserted += len(delta)
        return inserted, clashes

    def _ingest(self, boxes, tbox):
        """Append momentary ABoxes, each newer than the last, and close the
        index under the positive axioms with one fixpoint seeded with all of
        their atoms. Derived facts gain homes at the minimum timestamp of
        each new instantiation; nothing already present is touched. Returns
        the clashes the fixpoint recorded, the first being the first
        round's, the first axiom in order, the smallest binding. Run inside
        an atomic block."""
        seed = []
        for abox in boxes:
            ts, newest = abox.timestamp, next(reversed(self._ticks), None)
            if newest is not None and ts <= newest:
                raise StaleTimestamp(f"ABox at {ts} is not newer than loaded entry {newest}")
            if not self.extent.contains(ts):
                raise StaleTimestamp(f"ABox at {ts} outside window {self.extent}")
            self._ticks[ts] = frozenset(abox.atoms)
            seed.extend((atom, ts) for atom in abox.atoms if self._insert(atom, ts))
        return self._fixpoint(tbox, seed)[1]

    def add_abox(self, abox, tbox):
        """Append one momentary ABox and restore the materialization (see
        _ingest). Raises UnexpectedInconsistency for the first clash."""
        with self._atomic():
            clashes = self._ingest([abox], tbox)
            if clashes:
                raise UnexpectedInconsistency(*clashes[0])
        return self

    def drop_before(self, cutoff):
        """Expire every tick and every occurrence homed before the cutoff.
        Pure deletion: every surviving home certifies a derivation among
        survivors. The expired buckets are discarded occurrence by
        occurrence, the same journaled removal that retraction uses."""
        with self._atomic():
            self._ticks = {t: atoms for t, atoms in self._ticks.items() if t >= cutoff}
            by_home = self._index.by_home
            for t in [t for t in by_home if t < cutoff]:
                for atom in list(by_home[t]):
                    self._discard(atom, t)
            if self.extent.start < cutoff <= self.extent.end:
                self.extent = WindowExtent(cutoff, self.extent.end)
        return self

    def slide(self, stream, new_extent, tbox, repair=None):
        """Advance to a newer extent: expire, then ingest the fresh ticks in
        order. The stream is a sequence of momentary ABoxes in increasing
        timestamp order. The fresh boxes are those of the new extent newer
        than the newest entry that survives expiry, or all of the new
        extent's boxes when none does, so sliding a new
        WindowModel(extent) to its own extent builds that window. They are
        found by bisection, so a slide reads O(log n) boxes besides the ones
        it ingests. The optional repair hook takes (model, abox), resolves
        conflicts, adds the abox and returns a report whose removed field is
        read.

        Without repair, the ingest rule depends on the TBox alone. With no
        negative inclusion nothing can clash, and a window's closure does
        not depend on the order its ticks arrive in, so one fixpoint takes
        all the fresh ticks. With negative inclusions each tick goes through
        add_abox, so a clashing slide raises the error of its first clashing
        tick.

        The report is read off the slide's own journal entries, those after
        the ones an enclosing transaction already holds: expiry wrote the
        expired discards, the inserts are the added occurrences, and the
        atoms of all of them are the changed set. Changes to the ticks alone
        are left out, since an atom's printed line shows only its homes."""
        if new_extent.start < self.extent.start or new_extent.end < self.extent.end:
            raise ValueError("windows only slide forward")
        key = attrgetter("timestamp")
        newest = next(reversed(self._ticks), None)
        first = (bisect_right(stream, newest, key=key)
                 if newest is not None and newest >= new_extent.start
                 else bisect_left(stream, new_extent.start, key=key))
        fresh = stream[first:bisect_right(stream, new_extent.end, lo=first, key=key)]
        removals = []
        with self._atomic() as journal:
            start = len(journal)
            self.drop_before(new_extent.start)
            expired = len(journal) - start
            self.extent = new_extent
            if repair is not None:
                for box in fresh:
                    removals.extend(repair(self, box).removed)
            elif tbox.negative_inclusions:
                for box in fresh:
                    self.add_abox(box, tbox)
            else:
                self._ingest(fresh, tbox)
            entries = journal[start:]
        return SlideReport(
            extent=new_extent,
            added_occurrences=sum(map(itemgetter(2), entries)),
            expired_occurrences=expired,
            removals=tuple(sorted(removals, key=attrgetter("sort_key"))),
            changed=frozenset(map(itemgetter(0), entries)))
