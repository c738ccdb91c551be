"""Incremental materialization over a sliding window of momentary ABoxes.

State is kept at occurrence granularity: every atom in the window carries the
set of timestamps it is homed at. Asserted atoms live at their assertion
ticks. A derived atom is added at the minimum timestamp over the occurrences
instantiating some rule body for it, and every distinct instantiation
contributes its own minimum, so the atom may be homed at several ticks.
Because each home timestamp certifies a derivation using only occurrences at
that tick or later, expiring the oldest ticks is pure deletion and requires
no re-reasoning.

Adding a momentary ABox runs a semi-naive fixpoint: each round only considers
rule-body instantiations that use at least one occurrence added in the
previous round, probing the rest of the body against the full index.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from .errors import StaleTimestamp, UnexpectedInconsistency
from .interpretation import Interpretation
from .ontology import ConceptInclusion, ConceptName, Conj, RoleInverse, RoleName
from .stream import (Atom, ConceptAtom, Occurrence, RoleAtom, Timestamp,
                     WindowExtent)

LOG_CAP = 100_000


@dataclass(frozen=True)
class AttributedAtom:
    atom: Atom
    home_timestamps: frozenset[Timestamp]
    asserted_at: frozenset[Timestamp]

    @property
    def origin(self):
        return "asserted" if self.asserted_at else "derived"


@dataclass(frozen=True)
class Derivation:
    rule: object
    body: tuple[Occurrence, ...]
    head: Occurrence


@dataclass
class SlideReport:
    extent: WindowExtent
    added_occurrences: int = 0
    expired_occurrences: int = 0
    removals: tuple[Occurrence, ...] = ()
    conflicts: int = 0


# ---------------------------------------------------------------------------
# timestamp-annotated evaluation
#
# An annotation maps an achievable home timestamp to one sample witness, the
# tuple of occurrences instantiating the body. Joining two annotations takes
# min(h1, h2) over all pairs, which is exactly the set of minima reachable by
# choosing one occurrence per ground atom.


def _atom_ann(atom, timestamps):
    return {t: (Occurrence(atom, t),) for t in sorted(timestamps)}


def _minjoin(a, b):
    out = {}
    for h1 in sorted(a):
        for h2 in sorted(b):
            h = h1 if h1 <= h2 else h2
            if h not in out:
                out[h] = a[h1] + b[h2]
    return out


def _merge_ann(dst, src):
    for h in sorted(src):
        if h not in dst:
            dst[h] = src[h]


class OccurrenceIndex:
    """Home timestamps per concept and role atom, with role adjacency both
    ways.

    The engine's one index shape: a window's occurrences, its asserted
    occurrences and the delta of a semi-naive round are each held in one.
    Emptied entries are removed, so equal contents compare equal.
    """

    def __init__(self, occurrences=()):
        self.concepts: dict[str, dict[str, set[Timestamp]]] = {}
        self.roles: dict[str, dict[tuple[str, str], set[Timestamp]]] = {}
        self.fwd: dict[str, dict[str, set[str]]] = {}
        self.rev: dict[str, dict[str, set[str]]] = {}
        for occ in occurrences:
            self.add(occ.atom, occ.timestamp)

    def __eq__(self, other):
        return (isinstance(other, OccurrenceIndex)
                and (self.concepts, self.roles, self.fwd, self.rev)
                == (other.concepts, other.roles, other.fwd, other.rev))

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
        return True

    def discard(self, atom, ts):
        """Remove one occurrence; True when it was there."""
        if isinstance(atom, ConceptAtom):
            by_ind = self.concepts.get(atom.concept, {})
            homes = by_ind.get(atom.individual)
            if homes is None or ts not in homes:
                return False
            homes.discard(ts)
            if not homes:
                del by_ind[atom.individual]
                if not by_ind:
                    del self.concepts[atom.concept]
            return True
        by_pair = self.roles.get(atom.role, {})
        homes = by_pair.get((atom.subject, atom.obj))
        if homes is None or ts not in homes:
            return False
        homes.discard(ts)
        if not homes:
            del by_pair[(atom.subject, atom.obj)]
            self._unlink(atom.role, atom.subject, atom.obj)
            if not by_pair:
                del self.roles[atom.role]
        return True

    def _unlink(self, name, s, o):
        for adj, a, b in ((self.fwd, s, o), (self.rev, o, s)):
            by_node = adj[name]
            by_node[a].discard(b)
            if not by_node[a]:
                del by_node[a]
                if not by_node:
                    del adj[name]

    def drop_before(self, cutoff):
        """Remove every occurrence homed before the cutoff; return them."""
        dropped = []
        for name in list(self.concepts):
            by_ind = self.concepts[name]
            for x in list(by_ind):
                homes = by_ind[x]
                old = [t for t in homes if t < cutoff]
                if old:
                    homes.difference_update(old)
                    atom = ConceptAtom(name, x)
                    dropped.extend(Occurrence(atom, t) for t in old)
                    if not homes:
                        del by_ind[x]
            if not by_ind:
                del self.concepts[name]
        for name in list(self.roles):
            by_pair = self.roles[name]
            for pair in list(by_pair):
                homes = by_pair[pair]
                old = [t for t in homes if t < cutoff]
                if old:
                    homes.difference_update(old)
                    atom = RoleAtom(name, *pair)
                    dropped.extend(Occurrence(atom, t) for t in old)
                    if not homes:
                        del by_pair[pair]
                        self._unlink(name, *pair)
            if not by_pair:
                del self.roles[name]
        return dropped

    def occurrences(self):
        out = set()
        for name, by_ind in self.concepts.items():
            for x, homes in by_ind.items():
                atom = ConceptAtom(name, x)
                out.update(Occurrence(atom, t) for t in homes)
        for name, by_pair in self.roles.items():
            for (s, o), homes in by_pair.items():
                atom = RoleAtom(name, s, o)
                out.update(Occurrence(atom, t) for t in homes)
        return out

    def size(self):
        """Number of occurrences held."""
        return (sum(len(h) for m in self.concepts.values() for h in m.values())
                + sum(len(h) for m in self.roles.values() for h in m.values()))

    def copy(self):
        dup = OccurrenceIndex()
        dup.concepts = {n: {x: set(h) for x, h in m.items()}
                        for n, m in self.concepts.items()}
        dup.roles = {n: {p: set(h) for p, h in m.items()}
                     for n, m in self.roles.items()}
        dup.fwd = {n: {s: set(o) for s, o in m.items()} for n, m in self.fwd.items()}
        dup.rev = {n: {o: set(s) for o, s in m.items()} for n, m in self.rev.items()}
        return dup

    def role_matches(self, rexpr):
        """(x, y, atom, timestamps) with the pair oriented per rexpr."""
        out = []
        for (s, o), tss in self.roles.get(rexpr.name, {}).items():
            atom = RoleAtom(rexpr.name, s, o)
            if isinstance(rexpr, RoleInverse):
                out.append((o, s, atom, tss))
            else:
                out.append((s, o, atom, tss))
        return sorted(out, key=lambda r: (r[0], r[1]))

    def role_neighbors(self, rexpr, x):
        """(y, atom, homes) for every pair putting x in the rexpr image."""
        name = rexpr.name
        if isinstance(rexpr, RoleName):
            return [(o, RoleAtom(name, x, o), self.roles[name][(x, o)])
                    for o in sorted(self.fwd.get(name, {}).get(x, ()))]
        return [(s, RoleAtom(name, s, x), self.roles[name][(s, x)])
                for s in sorted(self.rev.get(name, {}).get(x, ()))]

    def role_sources(self, rexpr, y):
        """(x, atom, homes) for every pair linking x to the filler member y."""
        name = rexpr.name
        if isinstance(rexpr, RoleName):
            return [(s, RoleAtom(name, s, y), self.roles[name][(s, y)])
                    for s in sorted(self.rev.get(name, {}).get(y, ()))]
        return [(o, RoleAtom(name, y, o), self.roles[name][(y, o)])
                for o in sorted(self.fwd.get(name, {}).get(y, ()))]


class _Probe:
    """Full-index evaluation with per-round memoization."""

    def __init__(self, index):
        self.index = index
        self.memo = {}

    def concept_at(self, expr, x):
        key = (expr, x)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if isinstance(expr, ConceptName):
            homes = self.index.concepts.get(expr.name, {}).get(x)
            out = _atom_ann(ConceptAtom(expr.name, x), homes) if homes else {}
        elif isinstance(expr, Conj):
            left = self.concept_at(expr.left, x)
            out = {}
            if left:
                right = self.concept_at(expr.right, x)
                if right:
                    out = _minjoin(left, right)
        else:
            out = {}
            for y, atom, homes in self.index.role_neighbors(expr.role, x):
                filler = self.concept_at(expr.filler, y)
                if filler:
                    _merge_ann(out, _minjoin(_atom_ann(atom, homes), filler))
        self.memo[key] = out
        return out


def _delta_concept(expr, probe, delta):
    """Annotated members of expr whose instantiation uses a delta occurrence.

    May also report instantiations already derivable without the delta; the
    caller deduplicates against the index, so that is harmless.
    """
    if isinstance(expr, ConceptName):
        out = {}
        for x in sorted(delta.concepts.get(expr.name, {})):
            tss = delta.concepts[expr.name][x]
            out[x] = _atom_ann(ConceptAtom(expr.name, x), tss)
        return out
    if isinstance(expr, Conj):
        out = {}
        for x, ann in _delta_concept(expr.left, probe, delta).items():
            other = probe.concept_at(expr.right, x)
            if other:
                _merge_ann(out.setdefault(x, {}), _minjoin(ann, other))
        for x, ann in _delta_concept(expr.right, probe, delta).items():
            other = probe.concept_at(expr.left, x)
            if other:
                _merge_ann(out.setdefault(x, {}), _minjoin(other, ann))
        return out
    out = {}
    for x, y, atom, tss in delta.role_matches(expr.role):
        filler = probe.concept_at(expr.filler, y)
        if filler:
            _merge_ann(out.setdefault(x, {}), _minjoin(_atom_ann(atom, tss), filler))
    for y, ann in _delta_concept(expr.filler, probe, delta).items():
        for x, atom, homes in probe.index.role_sources(expr.role, y):
            _merge_ann(out.setdefault(x, {}), _minjoin(_atom_ann(atom, homes), ann))
    return out


def _delta_role(rexpr, delta):
    out = {}
    for x, y, atom, tss in delta.role_matches(rexpr):
        out[(x, y)] = _atom_ann(atom, tss)
    return out


# ---------------------------------------------------------------------------
# the window model


class WindowModel:
    """Mutable materialized state of one window. Single-writer; concurrent
    readers should work on a copy().

    Every public mutation is all-or-nothing: when it raises, the model is
    left exactly as it was before the call.
    """

    def __init__(self, extent):
        self.extent = extent
        self.entry_timestamps: list[Timestamp] = []
        self._index = OccurrenceIndex()  # every occurrence, asserted or derived
        self._asserted = OccurrenceIndex()  # the asserted occurrences only
        self.derivation_log: list[Derivation] = []
        self.log_overflow = False
        # Undo entries (index, atom, timestamp, added) of the open atomic
        # block, or None outside one.
        self._journal = None

    # The plain concept and role tables of the full index, for readers of
    # the model's state.

    @property
    def _concepts(self):
        return self._index.concepts

    @property
    def _roles(self):
        return self._index.roles

    # -- occurrence bookkeeping ------------------------------------------

    def homes(self, atom):
        return self._index.homes(atom)

    def _insert(self, atom, ts, asserted):
        fresh = self._index.add(atom, ts)
        if fresh and self._journal is not None:
            self._journal.append((self._index, atom, ts, True))
        if asserted and self._asserted.add(atom, ts) and self._journal is not None:
            self._journal.append((self._asserted, atom, ts, True))
        return fresh

    def _discard(self, index, atom, ts):
        if index.discard(atom, ts) and self._journal is not None:
            self._journal.append((index, atom, ts, False))

    def _delete_occurrence(self, atom, ts):
        self._discard(self._index, atom, ts)

    @contextmanager
    def _atomic(self):
        """Run the block all-or-nothing: if it raises, every index change,
        the entries, the extent and the log are rolled back before the
        exception propagates. A nested block rolls back with the outermost."""
        if self._journal is not None:
            yield
            return
        journal = self._journal = []
        saved = (self.extent, list(self.entry_timestamps), self.derivation_log,
                 len(self.derivation_log), self.log_overflow)
        try:
            yield
        except BaseException:
            for index, atom, ts, added in reversed(journal):
                if added:
                    index.discard(atom, ts)
                else:
                    index.add(atom, ts)
            self.extent, self.entry_timestamps, log, length, self.log_overflow = saved
            # Appends went to the saved list; filtering made a new one.
            del log[length:]
            self.derivation_log = log
            raise
        finally:
            self._journal = None

    def _log(self, rule, body, head):
        if len(self.derivation_log) >= LOG_CAP:
            self.log_overflow = True
            return
        self.derivation_log.append(Derivation(rule, body, head))

    # -- views -------------------------------------------------------------

    def occurrences(self):
        return self._index.occurrences()

    def asserted_occurrences(self):
        return self._asserted.occurrences()

    def attributed(self, atom):
        homes = self.homes(atom)
        if not homes:
            return None
        return AttributedAtom(
            atom=atom,
            home_timestamps=frozenset(homes),
            asserted_at=frozenset(self._asserted.homes(atom)),
        )

    def attributed_atoms(self):
        seen = {o.atom for o in self.occurrences()}
        return [self.attributed(a) for a in sorted(seen, key=lambda a: a.sort_key)]

    def window_interpretation(self):
        concepts = {n: set(by_ind) for n, by_ind in self._concepts.items()}
        roles = {n: set(by_pair) for n, by_pair in self._roles.items()}
        return Interpretation(concepts, roles)

    def entry_interpretation(self, ts):
        concepts, roles = {}, {}
        for n, by_ind in self._concepts.items():
            ext = {x for x, homes in by_ind.items() if ts in homes}
            if ext:
                concepts[n] = ext
        for n, by_pair in self._roles.items():
            ext = {p for p, homes in by_pair.items() if ts in homes}
            if ext:
                roles[n] = ext
        return Interpretation(concepts, roles)

    def entries(self):
        return [(t, self.entry_interpretation(t)) for t in self.entry_timestamps]

    def entails(self, atom):
        return bool(self.homes(atom))

    def copy(self):
        dup = WindowModel(self.extent)
        dup.entry_timestamps = list(self.entry_timestamps)
        dup._index = self._index.copy()
        dup._asserted = self._asserted.copy()
        dup.derivation_log = list(self.derivation_log)
        dup.log_overflow = self.log_overflow
        return dup

    # -- reasoning ----------------------------------------------------------

    def _check_negatives(self, tbox, delta, probe):
        for ax in tbox.negative_inclusions:
            hit = _delta_concept(ax.body, probe, delta)
            if hit:
                raise UnexpectedInconsistency(ax, min(hit))

    def _fixpoint(self, tbox, delta_occurrences, check_negatives=True):
        """Close the index under the positive axioms, semi-naive from the
        given seed occurrences. Returns every occurrence inserted."""
        inserted = []
        delta = list(delta_occurrences)
        while delta:
            dindex = OccurrenceIndex(delta)
            probe = _Probe(self._index)
            if check_negatives:
                self._check_negatives(tbox, dindex, probe)
            additions = []
            for ax in tbox.positive_axioms:
                if isinstance(ax, ConceptInclusion):
                    res = _delta_concept(ax.body, probe, dindex)
                    for x in sorted(res):
                        known = self._index.concepts.get(ax.head, {}).get(x, ())
                        for h in sorted(res[x]):
                            if h not in known:
                                additions.append(
                                    (ax, ConceptAtom(ax.head, x), h, res[x][h]))
                else:
                    res = _delta_role(ax.sub, dindex)
                    for (x, y) in sorted(res):
                        known = self._index.roles.get(ax.sup.name, {}).get((x, y), ())
                        for h in sorted(res[(x, y)]):
                            if h not in known:
                                additions.append(
                                    (ax, RoleAtom(ax.sup.name, x, y), h, res[(x, y)][h]))
            delta = []
            for rule, atom, h, witness in additions:
                if self._insert(atom, h, asserted=False):
                    occ = Occurrence(atom, h)
                    self._log(rule, witness, occ)
                    delta.append(occ)
            inserted.extend(delta)
        return inserted

    def add_abox(self, abox, tbox):
        """Append one momentary ABox, newest in the window, and restore the
        materialization. Derived facts gain homes at the minimum timestamp of
        each new instantiation; nothing already present is touched."""
        ts = abox.timestamp
        if self.entry_timestamps and ts <= self.entry_timestamps[-1]:
            raise StaleTimestamp(
                f"ABox at {ts} is not newer than loaded entry {self.entry_timestamps[-1]}")
        if not self.extent.contains(ts):
            raise StaleTimestamp(f"ABox at {ts} outside window {self.extent}")
        with self._atomic():
            self.entry_timestamps.append(ts)
            seed = []
            for atom in sorted(abox.atoms, key=lambda a: a.sort_key):
                if self._insert(atom, ts, asserted=True):
                    seed.append(Occurrence(atom, ts))
            self._fixpoint(tbox, seed)
        return self

    def drop_before(self, cutoff):
        """Expire every occurrence homed before the cutoff. Pure deletion:
        every surviving home certifies a derivation among survivors."""
        self.entry_timestamps = [t for t in self.entry_timestamps if t >= cutoff]
        for index in (self._index, self._asserted):
            dropped = index.drop_before(cutoff)
            if self._journal is not None:
                self._journal.extend((index, o.atom, o.timestamp, False) for o in dropped)
        self.derivation_log = [d for d in self.derivation_log
                               if d.head.timestamp >= cutoff]
        if self.extent.start < cutoff <= self.extent.end:
            self.extent = WindowExtent(cutoff, self.extent.end)
        return self

    def slide(self, stream, new_extent, tbox, repair=None):
        """Advance to a newer extent: expire, then ingest the fresh ticks in
        order. The optional repair hook takes (model, abox) and is expected to
        resolve conflicts and add the abox, returning a report with removals."""
        if new_extent.start < self.extent.start or new_extent.end < self.extent.end:
            raise ValueError("windows only slide forward")
        with self._atomic():
            return self._slide(stream, new_extent, tbox, repair)

    def _slide(self, stream, new_extent, tbox, repair):
        report = SlideReport(extent=new_extent)
        before = self._index.size()
        old_end = self.extent.end
        self.drop_before(new_extent.start)
        self.extent = new_extent
        after = self._index.size()
        report.expired_occurrences = before - after

        removals = []
        repair_shrink = 0
        for box in stream:
            if box.timestamp <= old_end or box.timestamp > new_extent.end:
                continue
            if box.timestamp < new_extent.start:
                continue
            if repair is not None:
                rep = repair(self, box)
                removals.extend(sorted(rep.removed, key=lambda o: o.sort_key))
                report.conflicts += len(rep.conflicts)
                # retractions of older entries shrink the store mid-ingestion;
                # count additions gross of that, not net
                repair_shrink += getattr(rep, "overdeleted", 0) - getattr(rep, "rederived", 0)
            else:
                self.add_abox(box, tbox)
        report.added_occurrences = self._index.size() - after + repair_shrink
        report.removals = tuple(removals)
        return report


# Functional aliases matching the operation names used elsewhere.


def init_window_model(extent):
    return WindowModel(extent)


def add_abox(wm, abox, tbox):
    return wm.add_abox(abox, tbox)


def drop_before(wm, cutoff):
    return wm.drop_before(cutoff)


def slide(wm, stream, new_extent, tbox, repair=None):
    return wm, wm.slide(stream, new_extent, tbox, repair=repair)


def window_interpretation(wm):
    return wm.window_interpretation()


def entails(wm, atom):
    return wm.entails(atom)
