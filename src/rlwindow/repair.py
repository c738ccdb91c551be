"""Recency-based inconsistency repair at occurrence granularity.

A conflict set is a minimally inconsistent set of asserted occurrences: it
matches one of the flattened negative bodies under the plain asserted facts,
and no proper subset does. Resolution prefers newer information. Conflicts
whose oldest members are most recent are handled first; each sheds its oldest
occurrences, and anything those removals already resolve is dropped before
older conflicts get a say. Removals are permanent for the life of the stream.

Removing an asserted occurrence retracts its consequences by overdeletion and
rederivation: every derived occurrence reachable through a derivation that
used a removed or marked occurrence is marked, the marks are deleted, and the
fixpoint is re-run so facts with surviving support return, possibly homed at
a newer timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ontology import ConceptInclusion, ConceptName, Conj
from .stream import ConceptAtom, MomentaryABox, Occurrence, RoleAtom
from .window import OccurrenceIndex, _Probe, _delta_concept, _delta_role


@dataclass(frozen=True)
class ConflictSet:
    occurrences: frozenset[Occurrence]
    violated_body: object
    binding: str

    @property
    def min_timestamp(self):
        return min(o.timestamp for o in self.occurrences)

    @property
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


class _Supports:
    """Support enumeration over the union of a few occurrence indexes.

    A support of expr at x is a set of occurrences placing x in expr under
    the plain facts; non-minimal supports are filtered by the caller. Both
    enumerations are memoized for the life of the object, keyed by the
    identity of the expression: hashing a nested expression walks all of it.
    """

    def __init__(self, pools, delta):
        self.pools = pools
        self.delta = delta
        self._all = {}
        self._fresh = {}

    def at(self, expr, x):
        """Every support of expr at x."""
        key = (id(expr), x)
        out = self._all.get(key)
        if out is not None:
            return out
        if isinstance(expr, ConceptName):
            atom = ConceptAtom(expr.name, x)
            out = {frozenset({Occurrence(atom, t)}) for p in self.pools
                   for t in p.concepts.get(expr.name, {}).get(x, ())}
        elif isinstance(expr, Conj):
            out = set()
            left = self.at(expr.left, x)
            if left:
                right = self.at(expr.right, x)
                out = {lhs | rhs for lhs in left for rhs in right}
        else:
            out = set()
            for p in self.pools:
                for y, atom, homes in p.role_neighbors(expr.role, x):
                    fillers = self.at(expr.filler, y)
                    if not fillers:
                        continue
                    for t in homes:
                        role_occ = Occurrence(atom, t)
                        out.update(f | {role_occ} for f in fillers)
        self._all[key] = out
        return out

    def fresh(self, expr):
        """{x: the supports of expr at x that use a delta occurrence}.

        Semi-naive: one position of expr is matched against the delta and
        the rest against the pools. A conjunction is (fresh left x all
        right) plus (all left x fresh right); an existential is (fresh role
        x all filler) plus (any role x fresh filler), the second walked back
        from the filler member through the inverse role.
        """
        out = self._fresh.get(id(expr))
        if out is not None:
            return out
        out = {}
        if isinstance(expr, ConceptName):
            for x, tss in self.delta.concepts.get(expr.name, {}).items():
                atom = ConceptAtom(expr.name, x)
                out[x] = {frozenset({Occurrence(atom, t)}) for t in tss}
        elif isinstance(expr, Conj):
            for x, fresh in self.fresh(expr.left).items():
                right = self.at(expr.right, x)
                if right:
                    out.setdefault(x, set()).update(
                        lhs | rhs for lhs in fresh for rhs in right)
            for x, fresh in self.fresh(expr.right).items():
                left = self.at(expr.left, x)
                if left:
                    out.setdefault(x, set()).update(
                        lhs | rhs for lhs in left for rhs in fresh)
        else:
            for x, y, atom, tss in self.delta.role_matches(expr.role):
                fillers = self.at(expr.filler, y)
                if not fillers:
                    continue
                for t in tss:
                    role_occ = Occurrence(atom, t)
                    out.setdefault(x, set()).update(f | {role_occ} for f in fillers)
            for y, fresh in self.fresh(expr.filler).items():
                for p in self.pools:
                    for x, atom, homes in p.role_sources(expr.role, y):
                        for t in homes:
                            role_occ = Occurrence(atom, t)
                            out.setdefault(x, set()).update(f | {role_occ} for f in fresh)
        self._fresh[id(expr)] = out
        return out


def find_conflicts(current, incoming, ntbox):
    """The minimal conflicts that use at least one incoming occurrence.

    A conflict is an occurrence-set instantiation of a flattened negative
    body over the asserted occurrences `current` (an OccurrenceIndex, or any
    iterable of occurrences) plus the incoming ABox. Only instantiations
    that use an incoming occurrence are enumerated, and one is dropped when
    a smaller such instantiation (from any body) is contained in it.
    Distinct timestamped copies of the same atoms give distinct conflicts.

    When `current` is conflict-free, every conflict of the union uses an
    incoming occurrence, so the result is exactly the minimally inconsistent
    subsets of the union. That always holds on the engine path: survivors of
    earlier repairs and of expiry are conflict-free.
    """
    if not isinstance(current, OccurrenceIndex):
        current = OccurrenceIndex(current)
    delta = OccurrenceIndex(incoming.occurrences())
    supports = _Supports((current, delta), delta)
    found = {}  # support -> (body, binding) of its first instantiation
    for body in ntbox.flattened_negatives:
        by_binding = supports.fresh(body)
        for x in sorted(by_binding):
            for supp in by_binding[x]:
                found.setdefault(supp, (body, x))
    minimal = [ConflictSet(occurrences=supp, violated_body=body, binding=x)
               for supp, (body, x) in found.items()
               if not any(other < supp for other in found)]
    minimal.sort(key=lambda c: sorted(o.sort_key for o in c.occurrences))
    return minimal


# ---------------------------------------------------------------------------
# resolution


def resolve_conflicts(conflicts):
    """Pick the occurrences to retract, newest conflicts first.

    Conflicts are ranked by the timestamp of their oldest members; the most
    recent rank is processed each round. A conflict whose oldest member is
    unique sheds exactly that occurrence. Remaining conflicts of the rank
    shed their whole oldest slice when no smaller oldest slice in the rank
    undercuts it. Every conflict already touched by the removals so far is
    discharged before older ranks are considered.
    """
    removed = set()
    chosen_slices = []
    live = list(conflicts)
    while live:
        newest = max(c.min_timestamp for c in live)
        rank = [c for c in live if c.min_timestamp == newest]
        for c in rank:
            if len(c.min_set) == 1:
                removed |= c.min_set
        live = [c for c in live if not (c.occurrences & removed)]
        rank_slices = [c.min_set for c in rank]
        still_live = {id(c) for c in live}
        for c in rank:
            if id(c) not in still_live:
                continue
            if any(other < c.min_set for other in rank_slices):
                continue
            if c.min_set not in chosen_slices:
                chosen_slices.append(c.min_set)
        live = [c for c in live
                if not any(s <= c.occurrences for s in chosen_slices)]
    for s in chosen_slices:
        removed |= s
    return frozenset(removed)


# ---------------------------------------------------------------------------
# applying removals to a materialized window


def apply_repair(wm, removed, tbox):
    """Retract asserted occurrences and restore the materialization.

    Classic delete-and-rederive: marks spread through any derivation using a
    removed or marked occurrence, marked occurrences are deleted unless still
    asserted, and the fixpoint re-runs from the survivors so over-deleted
    facts come back, re-homed to their newest remaining support.
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
            wm._delete_occurrence(occ.atom, occ.timestamp)

        # Rederivation: one full pass finds marked occurrences with surviving
        # support, then the ordinary semi-naive rounds propagate from those.
        restored = wm._fixpoint(tbox, wm._index.copy(), check_negatives=False)
    return len(marked), restored


def _overdelete(wm, removed, tbox):
    """The removed occurrences plus every derived, unasserted occurrence
    reachable from them through a derivation, by semi-naive rounds."""
    marked = set(removed)
    frontier = removed
    while frontier:
        dindex = OccurrenceIndex(frontier)
        probe = _Probe(wm._index)
        fresh = []
        for ax in tbox.positive_axioms:
            if isinstance(ax, ConceptInclusion):
                res = _delta_concept(ax.body, probe, dindex)
                heads = [(ConceptAtom(ax.head, x), h)
                         for x in sorted(res) for h in sorted(res[x])]
            else:
                res = _delta_role(ax.sub, dindex)
                heads = [(RoleAtom(ax.sup.name, x, y), h)
                         for (x, y) in sorted(res) for h in sorted(res[(x, y)])]
            for atom, h in heads:
                occ = Occurrence(atom, h)
                if occ in marked:
                    continue
                if h not in wm.homes(atom):
                    continue
                if h in wm._asserted.homes(atom):
                    continue
                marked.add(occ)
                fresh.append(occ)
        frontier = fresh
    return marked


def add_abox_with_repair(wm, abox, tbox, ntbox):
    """Resolve the conflicts the incoming ABox raises, then add what survives.

    Occurrences removed from already-loaded entries are retracted with their
    consequences; occurrences removed from the incoming ABox simply never
    enter. Returns (wm, RepairReport).
    """
    with wm._atomic():
        conflicts = find_conflicts(wm._asserted, abox, ntbox)
        removed = resolve_conflicts(conflicts)
        existing = frozenset(o for o in removed if o.timestamp < abox.timestamp)
        overdeleted = rederived = 0
        if existing:
            overdeleted, rederived = apply_repair(wm, existing, tbox)
        dropped_now = {o.atom for o in removed if o.timestamp == abox.timestamp}
        surviving = MomentaryABox(abox.timestamp, frozenset(abox.atoms - dropped_now))
        wm.add_abox(surviving, tbox)
    return wm, RepairReport(
        removed=frozenset(removed),
        conflicts=tuple(conflicts),
        overdeleted=overdeleted,
        rederived=rederived,
    )
