"""Recency-based inconsistency repair at occurrence granularity.

A conflict set is a minimally inconsistent set of asserted occurrences: it
matches one of the flattened negative bodies under the plain asserted facts,
and no proper subset does. Resolution prefers newer information, by one rule
applied rank by rank: the conflicts whose oldest members are most recent shed
their oldest slices, except a slice that another slice of the same rank
strictly contains, and every conflict that contains a shed slice is dropped
before older conflicts get a say. Removals are permanent for the life of the
stream.
A tick is ingested first, and conflicts are enumerated only at the bindings
where its fixpoint instantiated a negative inclusion, by the materializer's
evaluator, window._Probe, annotating each instantiation with its supports
instead of its homes. A tick without such a clash enumerates nothing.

Removing an asserted occurrence retracts its consequences by overdeletion and
rederivation: every derived occurrence reachable through a derivation that
used a removed or marked occurrence is marked, and the marks are deleted.
Only marked occurrences can come back, since removal only shrinks the set of
body instantiations and unmarked occurrences are never deleted. A backward
check restores each marked occurrence that some positive axiom still derives
in one step from the survivors, and the ordinary semi-naive rounds run from
the restored ones to bring back the rest (the backward/forward check of Motik
et al., AAAI 2015, refining DRed, Gupta et al., SIGMOD 1993). A fact with
surviving support returns only at the homes it still achieves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .ontology import RoleInverse
from .stream import ConceptAtom, MomentaryABox, Occurrence, RoleAtom
from .window import OccurrenceIndex, _Probe


@dataclass(frozen=True)
class ConflictSet:
    occurrences: frozenset[Occurrence]
    violated_body: object
    binding: str

    @cached_property
    def min_timestamp(self):
        return min(o.timestamp for o in self.occurrences)

    @cached_property
    def min_set(self):
        oldest = self.min_timestamp
        return frozenset(o for o in self.occurrences if o.timestamp == oldest)


@dataclass
class RepairReport:
    removed: frozenset[Occurrence]
    conflicts: tuple[ConflictSet, ...]
    overdeleted: int = 0
    rederived: int = 0


# ---------------------------------------------------------------------------
# conflict enumeration


class _Supports(_Probe):
    """The materializer's evaluator, annotating with supports: the sets of
    occurrences placing x in expr under the plain facts. A leaf is annotated
    with its singleton supports and a join pairs supports by union, so
    fresh(body) holds the supports that use a delta occurrence. Non-minimal
    supports are filtered by the caller.
    """

    def join(self, a, b):
        return {lhs | rhs for lhs in a for rhs in b}

    def concept_leaf(self, name, x, homes):
        atom = ConceptAtom(name, x)
        return {frozenset({Occurrence(atom, t)}) for t in homes}

    def role_leaf(self, rexpr, x, y, homes):
        s, o = (y, x) if isinstance(rexpr, RoleInverse) else (x, y)
        atom = RoleAtom(rexpr.name, s, o)
        return {frozenset({Occurrence(atom, t)}) for t in homes}


def find_conflicts(current, incoming, ntbox, bindings=None):
    """The minimal conflicts that use at least one incoming occurrence.

    A conflict is an occurrence-set instantiation of a flattened negative
    body over the asserted occurrences `current` (an OccurrenceIndex, or any
    iterable of occurrences) plus the incoming ABox. Only instantiations
    that use an incoming occurrence are enumerated, and one is dropped when
    a smaller such instantiation (from any body) is contained in it.
    Distinct timestamped copies of the same atoms give distinct conflicts.

    Supports are enumerated only at the roots in `bindings`, which must hold
    the binding of every such instantiation: the engine passes the bindings
    where the tick's fixpoint clashed. When omitted, they are the roots at
    which one home-annotated pass finds a flattened body instantiated with
    an incoming occurrence.

    The incoming occurrences are added to `current` for the enumeration and
    the ones it did not already hold are taken out again before returning,
    also when the enumeration raises.

    When `current` is conflict-free, every conflict of the union uses an
    incoming occurrence, so the result is exactly the minimally inconsistent
    subsets of the union. That always holds on the engine path: survivors of
    earlier repairs and of expiry are conflict-free.
    """
    if not isinstance(current, OccurrenceIndex):
        current = OccurrenceIndex(current)
    arriving = incoming.occurrences()
    added = [o for o in arriving if current.add(o.atom, o.timestamp)]
    bodies = ntbox.flattened_negatives
    try:
        if bindings is None:
            probe = _Probe(current, OccurrenceIndex(arriving))
            bindings = {x for body in bodies for x in probe.fresh(body)}
        roots = sorted(bindings)
        supports = _Supports(current, OccurrenceIndex())
        found = {}  # support -> (body, binding) of its first instantiation
        for body in bodies:
            for x in roots:
                for supp in supports.at(body, x):
                    if not supp.isdisjoint(arriving):
                        found.setdefault(supp, (body, x))
    finally:
        for o in added:
            current.discard(o.atom, o.timestamp)
    minimal = [ConflictSet(occurrences=supp, violated_body=body, binding=x)
               for supp, (body, x) in found.items()
               if not any(other < supp for other in found)]
    minimal.sort(key=lambda c: sorted(o.sort_key for o in c.occurrences))
    return minimal


# ---------------------------------------------------------------------------
# resolution


def resolve_conflicts(conflicts):
    """Pick the occurrences to retract, newest conflicts first, by one rule.

    Each round takes the live conflicts whose oldest timestamp is the
    newest, sheds each of their oldest slices (min_set) that no other slice
    of that rank strictly undercuts, and discharges every live conflict that
    contains a shed slice. A conflict with a unique oldest member sheds just
    that member, since a singleton is never undercut. Returns the union of
    the shed slices.
    """
    removed = set()
    live = list(conflicts)
    while live:
        newest = max(c.min_timestamp for c in live)
        slices = {c.min_set for c in live if c.min_timestamp == newest}
        shed = [s for s in slices if not any(other < s for other in slices)]
        for s in shed:
            removed |= s
        live = [c for c in live if not any(s <= c.occurrences for s in shed)]
    return frozenset(removed)


# ---------------------------------------------------------------------------
# applying removals to a materialized window


def apply_repair(wm, removed, tbox):
    """Retract asserted occurrences and restore the materialization.

    Marks spread through any derivation using a removed or marked
    occurrence, and marked occurrences are deleted unless still asserted.
    Rederivation then looks at marked occurrences only: a backward check
    restores those a positive axiom still derives in one step from the
    survivors, and semi-naive rounds from the restored occurrences bring
    back the ones whose surviving derivations use other restored marks.
    Each fact keeps exactly the homes it still achieves.
    Returns (overdeleted, rederived) occurrence counts.
    """
    removed = set(removed)
    for occ in removed:
        if occ.timestamp not in wm._asserted.homes(occ.atom):
            raise ValueError(f"{occ} is not an asserted occurrence of this window")
    with wm._atomic():
        for occ in removed:
            wm._discard(wm._asserted, occ.atom, occ.timestamp)
        marked = _overdelete(wm, removed, tbox)
        for occ in marked:
            wm._discard(wm._index, occ.atom, occ.timestamp)
        restored = _backward_check(wm, marked, tbox)
        seed = OccurrenceIndex()
        for atom, h in restored:
            wm._insert(atom, h, asserted=False)
            seed.add(atom, h)
        rederived = len(restored) + wm._fixpoint(tbox, seed)[0]
    return len(marked), rederived


def _backward_check(wm, marked, tbox):
    """The marked occurrences that a positive axiom derives in one step from
    the window's index: (atom, h) where h is an achievable home of a body
    with head atom. The index is only read, so one probe serves them all."""
    probe = _Probe(wm._index, OccurrenceIndex())
    restored = []
    for occ in marked:
        atom, h = occ
        if isinstance(atom, ConceptAtom):
            x = atom.individual
            if any(h in probe.at(body, x) for body in tbox.bodies.get(atom.concept, ())):
                restored.append(occ)
        elif any(h in wm._index.homes(_sub_atom(sub, atom))
                 for sub in tbox.subroles.get(atom.role, ())):
            restored.append(occ)
    return restored


def _sub_atom(sub, atom):
    """The atom of role expression sub that places the role atom's pair in it."""
    if isinstance(sub, RoleInverse):
        return RoleAtom(sub.name, atom.obj, atom.subject)
    return RoleAtom(sub.name, atom.subject, atom.obj)


def _overdelete(wm, removed, tbox):
    """The removed occurrences plus every derived, unasserted occurrence
    reachable from them through a derivation, by semi-naive rounds."""
    marked = set(removed)
    frontier = removed
    while frontier:
        probe = _Probe(wm._index, OccurrenceIndex(frontier))
        fresh = []
        for atom, homes in probe.consequences(tbox):
            have, asserted = wm.homes(atom), wm._asserted.homes(atom)
            for h in homes:
                occ = Occurrence(atom, h)
                if h in have and h not in asserted and occ not in marked:
                    marked.add(occ)
                    fresh.append(occ)
        frontier = fresh
    return marked


class _Unresolved(Exception):
    """A clash outlived the repair of a provisionally ingested tick."""


def add_abox_with_repair(wm, abox, tbox, ntbox):
    """Add the incoming ABox, resolving the conflicts it raises.

    The tick is ingested once, in a nested atomic block, and the fixpoint
    records where the closure instantiates a negative inclusion. A tick with
    no clash is done. Otherwise the conflicts are enumerated at the clash
    bindings only, resolved newest-first, and every removed occurrence, older
    or incoming, is retracted with its consequences from the provisional
    closure. If a recorded clash still holds then, which only a truncated
    rewrite allows, the block rolls back and the tick is replayed as
    retraction of the older removals followed by add_abox of the surviving
    incoming atoms, which raises UnexpectedInconsistency as add_abox does.
    Returns (wm, RepairReport).
    """
    with wm._atomic():
        try:
            with wm._atomic():
                clashes = wm._ingest(abox, tbox)
                if not clashes:
                    return wm, RepairReport(removed=frozenset(), conflicts=())
                conflicts = find_conflicts(wm._asserted, abox, ntbox,
                                           {x for _, x in clashes})
                removed = resolve_conflicts(conflicts)
                overdeleted, rederived = apply_repair(wm, removed, tbox)
                probe = _Probe(wm._index, OccurrenceIndex())
                if any(probe.at(ax.body, x) for ax, x in clashes):
                    raise _Unresolved
        except _Unresolved:
            existing = frozenset(o for o in removed if o.timestamp < abox.timestamp)
            overdeleted = rederived = 0
            if existing:
                overdeleted, rederived = apply_repair(wm, existing, tbox)
            dropped_now = {o.atom for o in removed if o.timestamp == abox.timestamp}
            surviving = MomentaryABox(abox.timestamp, frozenset(abox.atoms - dropped_now))
            wm.add_abox(surviving, tbox)
    return wm, RepairReport(
        removed=removed,
        conflicts=tuple(conflicts),
        overdeleted=overdeleted,
        rederived=rederived,
    )
