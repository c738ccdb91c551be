"""Incremental materialization over a sliding window of momentary ABoxes.

State is one index at occurrence granularity, where every atom in the window
carries the set of timestamps it is homed at, and the window's ticks, each
with the asserted atoms that survive at it and are homed there. Mutations
journal their index changes. A derived atom is added at the minimum
timestamp over the occurrences instantiating some rule body for it, and
every distinct instantiation contributes its own minimum, so the atom may be
homed at several ticks. Because each home timestamp certifies a derivation
using only occurrences at that tick or later, expiring the oldest ticks is
pure deletion and requires no re-reasoning. The index buckets the atoms
homed at each timestamp, so expiry discards exactly the expired buckets,
through the same journaled removal as retraction, and costs what it removes.

Adding a momentary ABox runs a semi-naive fixpoint: each round only considers
rule-body instantiations that use at least one occurrence added in the
previous round, probing the rest of the body against the full index. That
round is _Probe, the engine's one rule-body evaluator, annotated with homes
here and with instantiations, the atoms of each way to match a body, in
conflict enumeration (repair._Instantiations). Each round also records
where it instantiates a negative inclusion: add_abox raises for the first
such clash, and repair enumerates conflicts at their bindings only.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter, itemgetter

from .errors import StaleTimestamp, UnexpectedInconsistency
from .interpretation import Interpretation
from .ontology import (ConceptInclusion, ConceptName, Conj, RoleInverse, RoleName,
                       invert_role)
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


@dataclass
class SlideReport:
    """What one slide did. changed holds every atom whose home set the slide
    may have changed: each atom that gained or lost a home in the window's
    index, whether by expiry, ingestion, repair or rederivation. An atom
    outside it has the homes it had before the slide, so a reader can bring
    a rendering of the previous window up to date from it alone. Sliding a
    new model lists every atom of the window it builds. removals holds the
    occurrences repair retracted, ordered by sort_key: oldest first, then by
    atom."""

    extent: WindowExtent
    added_occurrences: int = 0
    expired_occurrences: int = 0
    removals: tuple[Occurrence, ...] = ()
    conflicts: int = 0
    changed: frozenset[Atom] = frozenset()


# ---------------------------------------------------------------------------
# timestamp-annotated evaluation
#
# An annotation is the set of achievable homes of a body instantiation: the
# minima reachable by choosing one occurrence per ground atom. A ground atom's
# annotation is its set of homes; joining two annotations takes min(h1, h2)
# over all pairs, and alternative instantiations merge by union.


def _minjoin(a, b):
    """{min(x, y) for x in a for y in b}, for non-empty a and b, in linear
    time: x is a minimum exactly when some y is at least x, that is when x
    is at most max(b), and likewise for y."""
    top_a, top_b = max(a), max(b)
    return {x for x in a if x <= top_b} | {y for y in b if y <= top_a}


def _merge(out, key, ann):
    """Union a freshly built annotation into out[key]."""
    have = out.get(key)
    if have is None:
        out[key] = ann
    else:
        have |= ann


class OccurrenceIndex:
    """Home timestamps per concept and role atom, with role adjacency both
    ways, and the atoms homed at each timestamp.

    The engine's one index shape: a window's occurrences and the delta of a
    semi-naive round are each held in one. add and discard are the only
    writers, so the by-home buckets always invert the home tables, and
    discard is the only removal. Emptied entries and buckets are removed, so
    equal contents compare equal.
    """

    def __init__(self, occurrences=()):
        self.concepts: dict[str, dict[str, set[Timestamp]]] = {}
        self.roles: dict[str, dict[tuple[str, str], set[Timestamp]]] = {}
        self.fwd: dict[str, dict[str, set[str]]] = {}
        self.rev: dict[str, dict[str, set[str]]] = {}
        self.by_home: dict[Timestamp, set[Atom]] = {}
        for occ in occurrences:
            self.add(occ.atom, occ.timestamp)

    def __eq__(self, other):
        return (isinstance(other, OccurrenceIndex)
                and (self.concepts, self.roles, self.fwd, self.rev, self.by_home)
                == (other.concepts, other.roles, other.fwd, other.rev, other.by_home))

    def homes(self, atom):
        if isinstance(atom, ConceptAtom):
            return self.concepts.get(atom.concept, {}).get(atom.individual, set())
        return self.roles.get(atom.role, {}).get((atom.subject, atom.obj), set())

    def add(self, atom, ts):
        """Insert one occurrence; True when it was not there yet."""
        if isinstance(atom, ConceptAtom):
            homes = self.concepts.setdefault(atom.concept, {}).setdefault(
                atom.individual, set())
        else:
            homes = self.roles.setdefault(atom.role, {}).setdefault(
                (atom.subject, atom.obj), set())
            if not homes:
                self.fwd.setdefault(atom.role, {}).setdefault(atom.subject, set()).add(atom.obj)
                self.rev.setdefault(atom.role, {}).setdefault(atom.obj, set()).add(atom.subject)
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
        if isinstance(atom, ConceptAtom):
            table, name, key = self.concepts, atom.concept, atom.individual
        else:
            table, name, key = self.roles, atom.role, (atom.subject, atom.obj)
        by_key = table.get(name, {})
        homes = by_key.get(key)
        if homes is None or ts not in homes:
            return False
        homes.discard(ts)
        bucket = self.by_home[ts]
        bucket.discard(atom)
        if not bucket:
            del self.by_home[ts]
        if not homes:
            del by_key[key]
            if table is self.roles:
                self._unlink(name, *key)
            if not by_key:
                del table[name]
        return True

    def _unlink(self, name, s, o):
        for adj, a, b in ((self.fwd, s, o), (self.rev, o, s)):
            by_node = adj[name]
            by_node[a].discard(b)
            if not by_node[a]:
                del by_node[a]
                if not by_node:
                    del adj[name]

    def occurrences(self):
        return {Occurrence(atom, t) for t, atoms in self.by_home.items() for atom in atoms}

    def size(self):
        """Number of occurrences held."""
        return sum(map(len, self.by_home.values()))

    def copy(self):
        return OccurrenceIndex(self.occurrences())

    def role_matches(self, rexpr):
        """(x, y, homes) for every pair of the index in the rexpr image."""
        pairs = self.roles.get(rexpr.name, {}).items()
        if isinstance(rexpr, RoleInverse):
            return [(o, s, homes) for (s, o), homes in pairs]
        return [(s, o, homes) for (s, o), homes in pairs]

    def role_neighbors(self, rexpr, x):
        """(y, homes) for every pair putting x in the rexpr image."""
        name = rexpr.name
        if isinstance(rexpr, RoleName):
            return [(o, self.roles[name][(x, o)])
                    for o in self.fwd.get(name, {}).get(x, ())]
        return [(s, self.roles[name][(s, x)])
                for s in self.rev.get(name, {}).get(x, ())]


def _role_atom(rexpr, x, y):
    """The role atom that places the pair (x, y) in the image of rexpr."""
    if isinstance(rexpr, RoleInverse):
        return RoleAtom(rexpr.name, y, x)
    return RoleAtom(rexpr.name, x, y)


class _Probe:
    """One semi-naive round over an index that already holds the delta.

    at(expr, x) annotates the instantiations of expr at x over the whole
    index; fresh(expr) maps each x to the annotation of those that use a
    delta occurrence: a conjunction is fresh-left x all-right plus all-left x
    fresh-right, an existential fresh-role x filler plus role x fresh-filler.
    Both are memoized for the round on id(expr), since hashing a nested
    expression walks all of it. fresh may repeat instantiations the index
    already derives; callers deduplicate.

    derivations(atom, tbox) annotates the one-step derivations of an atom
    over the whole index, for the backward check of rederivation and the
    conflict search's walk; it is memoized on the atom, so a probe serves
    one TBox.

    join and the two leaves are the annotation algebra; alternatives merge by
    union. Here a leaf is its home set, which must not be mutated, and join
    is the min-join, so an annotation is a set of achievable homes.
    """

    def __init__(self, index, delta):
        self.index = index
        self.delta = delta
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
        key = (id(expr), x)
        out = self._at.get(key)
        if out is not None:
            return out
        if isinstance(expr, ConceptName):
            homes = self.index.concepts.get(expr.name, {}).get(x)
            out = self.concept_leaf(expr.name, x, homes) if homes else set()
        elif isinstance(expr, Conj):
            out = set()
            left = self.at(expr.left, x)
            if left:
                right = self.at(expr.right, x)
                if right:
                    out = self.join(left, right)
        else:
            out = set()
            for y, homes in self.index.role_neighbors(expr.role, x):
                filler = self.at(expr.filler, y)
                if filler:
                    out |= self.join(self.role_leaf(expr.role, x, y, homes), filler)
        self._at[key] = out
        return out

    def fresh(self, expr):
        out = self._fresh.get(id(expr))
        if out is not None:
            return out
        out = {}
        if isinstance(expr, ConceptName):
            for x, homes in self.delta.concepts.get(expr.name, {}).items():
                out[x] = self.concept_leaf(expr.name, x, homes)
        elif isinstance(expr, Conj):
            for x, ann in self.fresh(expr.left).items():
                other = self.at(expr.right, x)
                if other:
                    _merge(out, x, self.join(ann, other))
            for x, ann in self.fresh(expr.right).items():
                other = self.at(expr.left, x)
                if other:
                    _merge(out, x, self.join(other, ann))
        else:
            role = expr.role
            for x, y, homes in self.delta.role_matches(role):
                filler = self.at(expr.filler, y)
                if filler:
                    _merge(out, x, self.join(self.role_leaf(role, x, y, homes), filler))
            inverse = invert_role(role)
            for y, ann in self.fresh(expr.filler).items():
                for x, homes in self.index.role_neighbors(inverse, y):
                    _merge(out, x, self.join(self.role_leaf(role, x, y, homes), ann))
        self._fresh[id(expr)] = out
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

    def consequences(self, tbox):
        """(head atom, annotation) for the instantiations of the positive
        axioms that use a delta occurrence."""
        for ax in tbox.positive_axioms:
            if isinstance(ax, ConceptInclusion):
                for x, ann in self.fresh(ax.body).items():
                    yield ConceptAtom(ax.head, x), ann
            else:
                for x, y, homes in self.delta.role_matches(ax.sub):
                    yield RoleAtom(ax.sup.name, x, y), self.role_leaf(ax.sub, x, y, homes)


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
        # Undo entries (atom, timestamp, added) of the open atomic block's
        # index changes, or None outside one.
        self._journal = None

    # The plain concept and role tables of the full index, for readers of
    # the model's state.

    @property
    def _concepts(self):
        return self._index.concepts

    @property
    def _roles(self):
        return self._index.roles

    @property
    def entry_timestamps(self):
        """The loaded ticks, oldest first."""
        return list(self._ticks)

    # -- occurrence bookkeeping ------------------------------------------

    def homes(self, atom):
        return self._index.homes(atom)

    def is_asserted(self, atom, ts):
        return atom in self._ticks.get(ts, ())

    def _insert(self, atom, ts):
        fresh = self._index.add(atom, ts)
        if fresh and self._journal is not None:
            self._journal.append((atom, ts, True))
        return fresh

    def _discard(self, atom, ts):
        if self._index.discard(atom, ts) and self._journal is not None:
            self._journal.append((atom, ts, False))

    @contextmanager
    def _atomic(self):
        """Run the block all-or-nothing: if it raises, every index change it
        journaled is undone and the ticks and the extent are restored before
        the exception propagates. A nested block is a savepoint: it shares
        the outermost block's journal, and when it raises it undoes and
        drops only its own suffix of it, so an enclosing block that catches
        the exception goes on and may commit. Yields the journal."""
        outer = self._journal
        journal = self._journal = [] if outer is None else outer
        start = len(journal)
        saved = (self.extent, dict(self._ticks))
        try:
            yield journal
        except BaseException:
            index = self._index
            for atom, ts, added in reversed(journal[start:]):
                if added:
                    index.discard(atom, ts)
                else:
                    index.add(atom, ts)
            del journal[start:]
            self.extent, self._ticks = saved
            raise
        finally:
            self._journal = outer

    # -- views -------------------------------------------------------------

    def occurrences(self):
        return self._index.occurrences()

    def asserted_occurrences(self):
        return {Occurrence(atom, t) for t, atoms in self._ticks.items() for atom in atoms}

    def attributed_atoms(self):
        """Every atom of the window with its homes, in atom sort order."""
        rows = [(ConceptAtom(name, x), homes)
                for name, by_ind in self._index.concepts.items()
                for x, homes in by_ind.items()]
        rows.extend((RoleAtom(name, *pair), homes)
                    for name, by_pair in self._index.roles.items()
                    for pair, homes in by_pair.items())
        rows.sort(key=itemgetter(0))
        return [AttributedAtom(atom, frozenset(homes),
                               frozenset(t for t in homes if self.is_asserted(atom, t)))
                for atom, homes in rows]

    def window_interpretation(self):
        concepts = {n: set(by_ind) for n, by_ind in self._concepts.items()}
        roles = {n: set(by_pair) for n, by_pair in self._roles.items()}
        return Interpretation(concepts, roles)

    def entry_interpretation(self, ts):
        concepts, roles = {}, {}
        for atom in self._index.by_home.get(ts, ()):
            if isinstance(atom, ConceptAtom):
                concepts.setdefault(atom.concept, set()).add(atom.individual)
            else:
                roles.setdefault(atom.role, set()).add((atom.subject, atom.obj))
        return Interpretation(concepts, roles)

    def entries(self):
        return [(t, self.entry_interpretation(t)) for t in self._ticks]

    def entails(self, atom):
        return bool(self.homes(atom))

    def copy(self):
        dup = WindowModel(self.extent)
        dup._ticks = dict(self._ticks)
        dup._index = self._index.copy()
        return dup

    # -- reasoning ----------------------------------------------------------

    def _fixpoint(self, tbox, delta):
        """Close the index under the positive axioms, semi-naive from the
        seed occurrences in the OccurrenceIndex delta, which the index must
        already hold. Each round also records the negative inclusions it
        instantiates with a fresh occurrence, as (axiom, binding) clashes in
        round, axiom and binding order. On an index without a clash before
        the seed, every binding of the closure's clashes is recorded.
        Returns (occurrences inserted, clashes)."""
        inserted = 0
        clashes = []
        while delta.size():
            probe = _Probe(self._index, delta)
            for ax in tbox.negative_inclusions:
                hit = probe.fresh(ax.body)
                if hit:
                    clashes.extend((ax, x) for x in sorted(hit))
            additions = []
            for atom, homes in probe.consequences(tbox):
                have = self._index.homes(atom)
                additions.extend((atom, h) for h in homes if h not in have)
            delta = OccurrenceIndex()
            for atom, h in additions:
                if self._insert(atom, h):
                    delta.add(atom, h)
            inserted += delta.size()
        return inserted, clashes

    def _ingest(self, abox, tbox):
        """Append one momentary ABox, newest in the window, and close the
        index under the positive axioms. Derived facts gain homes at the
        minimum timestamp of each new instantiation; nothing already present
        is touched. Returns the clashes the fixpoint recorded. Run inside an
        atomic block."""
        ts, newest = abox.timestamp, next(reversed(self._ticks), None)
        if newest is not None and ts <= newest:
            raise StaleTimestamp(f"ABox at {ts} is not newer than loaded entry {newest}")
        if not self.extent.contains(ts):
            raise StaleTimestamp(f"ABox at {ts} outside window {self.extent}")
        self._ticks[ts] = frozenset(abox.atoms)
        seed = OccurrenceIndex()
        for atom in abox.atoms:
            if self._insert(atom, ts):
                seed.add(atom, ts)
        return self._fixpoint(tbox, seed)[1]

    def add_abox(self, abox, tbox):
        """Append one momentary ABox and restore the materialization (see
        _ingest). Raises UnexpectedInconsistency for the first clash: the
        first round, the first axiom in order, the smallest binding."""
        with self._atomic():
            clashes = self._ingest(abox, tbox)
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
        than the newest loaded entry, or all of the new extent's boxes when
        no entry is loaded, so sliding a new WindowModel(extent) to its own
        extent builds that window. They are found by bisection, so a slide
        reads O(log n) boxes besides the ones it ingests. The optional
        repair hook takes (model, abox), resolves conflicts, adds the abox
        and returns a repair.RepairReport, whose removed, conflicts,
        overdeleted and rederived fields are read.

        The report's changed set is read from the undo journal when the
        slide succeeds: the atoms of its entries, each a change to the
        window's index. Changes to the ticks alone are left out, since an
        atom's printed line shows only its homes, and so are the entries of
        nested blocks that rolled back, which drop their own entries."""
        if new_extent.start < self.extent.start or new_extent.end < self.extent.end:
            raise ValueError("windows only slide forward")
        with self._atomic() as journal:
            start = len(journal)
            report = self._slide(stream, new_extent, tbox, repair)
            report.changed = frozenset(entry[0] for entry in journal[start:])
        return report

    def _slide(self, stream, new_extent, tbox, repair):
        report = SlideReport(extent=new_extent)
        before = self._index.size()
        self.drop_before(new_extent.start)
        self.extent = new_extent
        after = self._index.size()
        report.expired_occurrences = before - after

        removals = []
        repair_shrink = 0
        key = attrgetter("timestamp")
        # Ticks that survived expiry are inside the new extent.
        newest = next(reversed(self._ticks), None)
        first = (bisect_right(stream, newest, key=key) if newest is not None
                 else bisect_left(stream, new_extent.start, key=key))
        for i in range(first, len(stream)):
            box = stream[i]
            if box.timestamp > new_extent.end:
                break
            if repair is not None:
                rep = repair(self, box)
                removals.extend(rep.removed)
                report.conflicts += len(rep.conflicts)
                # retractions of older entries shrink the store mid-ingestion;
                # count additions gross of that, not net
                repair_shrink += rep.overdeleted - rep.rederived
            else:
                self.add_abox(box, tbox)
        report.added_occurrences = self._index.size() - after + repair_shrink
        report.removals = tuple(sorted(removals, key=attrgetter("sort_key")))
        return report
