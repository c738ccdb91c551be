"""Recency-based inconsistency repair at occurrence granularity.

A conflict set is a minimally inconsistent set of asserted occurrences. A
tick is ingested first, and conflicts are read off its closure where that
clashes, as minimal supports (why-provenance, Green et al., PODS 2007) of
the atoms the clashes depend on only (the relevance restriction of magic
sets, Bancilhon et al., PODS 1986); these absorb, so cyclic TBoxes are no
exception. Resolution prefers newer information, rank by rank: the conflicts
whose oldest members are newest shed their oldest slices, except a slice
another slice of the same rank strictly contains, and every conflict holding
a shed slice is dropped before older ones get a say. Removals are permanent.

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
from functools import cached_property, reduce

from .errors import UnexpectedInconsistency
from .stream import ConceptAtom, Occurrence
from .window import _Probe, _role_atom


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


class _Instantiations(_Probe):
    """The materializer's evaluator annotating with instantiations, one set
    of atoms per way of matching expr at x (fresh() is not used). A join
    unions them pairwise."""

    def join(self, a, b):
        return {lhs | rhs for lhs in a for rhs in b}

    def concept_leaf(self, name, x, homes):
        return {frozenset({ConceptAtom(name, x)})}

    def role_leaf(self, rexpr, x, y, homes):
        return {frozenset({_role_atom(rexpr, x, y)})}


def _derived(tbox, atom):
    """Whether some axiom derives atoms of atom's predicate, atom[0]."""
    return atom[0] in (tbox.bodies if isinstance(atom, ConceptAtom) else tbox.subroles)


def _singletons(wm, atom):
    """The singleton supports of atom's asserted occurrences in wm."""
    return {frozenset({Occurrence(atom, t)})
            for t in wm.homes(atom) if wm.is_asserted(atom, t)}


def _minimal(supports):
    """The supports that contain no other one."""
    if len({len(supp) for supp in supports}) < 2:
        return set(supports)
    out, smaller, size = set(), [], 0
    for supp in sorted(supports, key=len):
        if len(supp) > size:
            smaller, size = list(out), len(supp)
        if not any(other < supp for other in smaller):
            out.add(supp)
    return out


def _dependency_order(probe, tbox, roots):
    """The derived atoms among the roots and the ones they depend on, in a
    post-order walk with its own stack (chains can be window-long), and
    whether it met a cycle. A derived atom depends on the atoms of its
    one-step derivations, which the probe keeps."""
    order, open_, cyclic = [], {}, False  # open_[atom]: not finished yet
    stack = [(atom, False) for atom in roots]
    while stack:
        atom, expanded = stack.pop()
        if expanded:
            open_[atom] = False
            order.append(atom)
        elif atom in open_:
            cyclic = cyclic or open_[atom]  # an unfinished atom is an ancestor
        elif _derived(tbox, atom):
            open_[atom] = True
            stack.append((atom, True))
            stack.extend((dep, False) for dep in set().union(*probe.derivations(atom, tbox)))
    return order, cyclic


def find_conflicts(wm, incoming, tbox, bindings):
    """The minimal conflicts that use an incoming occurrence. The closure in
    wm instantiates the negative bodies at the bindings, and the derived
    atoms these depend on are walked back through their one-step
    derivations, each body matched once. In dependency order (again, in
    rounds, if these form a cycle), each derived atom's minimal supports are
    its asserted singletons plus, per derivation, the product of its atoms'
    supports; conflicts are the minimal such products over the negative
    instantiations. If wm held no conflict before the tick, these are its
    minimally inconsistent sets of asserted occurrences with an incoming
    one."""
    roots = sorted(bindings)
    probe = _Instantiations(wm._index, ())
    negatives = [(ax.body, x, probe.at(ax.body, x))
                 for ax in tbox.negative_inclusions for x in roots]
    order, cyclic = _dependency_order(
        probe, tbox, set().union(*(way for *_, ways in negatives for way in ways)))
    table = {}

    def supports(atom):
        return table.get(atom, ()) if _derived(tbox, atom) else _singletons(wm, atom)

    def products(ways):
        """The supports of each instantiation in ways, one per choice of a
        support for each of its atoms."""
        return set().union(*(reduce(probe.join, map(supports, way)) for way in ways))

    changed = True
    while changed:
        changed = False
        for atom in order:
            supps = _minimal(_singletons(wm, atom) | products(probe.derivations(atom, tbox)))
            if supps != table.get(atom):
                table[atom], changed = supps, cyclic
    arriving = incoming.occurrences()
    found = {}  # support -> (body, binding) of its first instantiation
    for body, x, ways in negatives:
        for supp in products(ways):
            if not supp.isdisjoint(arriving):
                found.setdefault(supp, (body, x))
    return sorted((ConflictSet(supp, *found[supp]) for supp in _minimal(found)),
                  key=lambda c: sorted(o.sort_key for o in c.occurrences))


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
        if not wm.is_asserted(occ.atom, occ.timestamp):
            raise ValueError(f"{occ} is not an asserted occurrence of this window")
    with wm._atomic():
        for occ in removed:
            wm._ticks[occ.timestamp] -= {occ.atom}
        marked = _overdelete(wm, removed, tbox)
        for occ in marked:
            wm._discard(occ.atom, occ.timestamp)
        restored = _backward_check(wm, marked, tbox)
        for atom, h in restored:
            wm._insert(atom, h)
        rederived = len(restored) + wm._fixpoint(tbox, restored)[0]
    return len(marked), rederived


def _backward_check(wm, marked, tbox):
    """The marked occurrences that a positive axiom derives in one step from
    the window's index: (atom, h) where h is an achievable home of one of
    atom's derivations. The index is only read, so one probe serves them
    all."""
    probe = _Probe(wm._index, ())
    return [occ for occ in marked if occ.timestamp in probe.derivations(occ.atom, tbox)]


def _overdelete(wm, removed, tbox):
    """The removed occurrences plus every derived, unasserted occurrence
    reachable from them through a derivation, by semi-naive rounds."""
    marked = set(removed)
    frontier = removed
    while frontier:
        probe = _Probe(wm._index, frontier)
        fresh = []
        for atom, homes in probe.consequences(tbox, True):
            for h in homes:
                occ = Occurrence(atom, h)
                if occ not in marked and not wm.is_asserted(atom, h):
                    marked.add(occ)
                    fresh.append(occ)
        frontier = fresh
    return marked


def add_abox_with_repair(wm, abox, tbox, ntbox=None):
    """Add the incoming ABox, resolving the conflicts it raises, all or
    nothing: the conflicts of a clashing closure are found at the clash
    bindings, resolved newest-first, and every removed occurrence, older or
    incoming, is retracted with its consequences. A clash left after that
    breaks an invariant: UnexpectedInconsistency. ntbox, the rewrite, is
    accepted for older callers and not read. Returns (wm, RepairReport)."""
    with wm._atomic():
        clashes = wm._ingest([abox], tbox)
        if not clashes:
            return wm, RepairReport(removed=frozenset(), conflicts=())
        conflicts = find_conflicts(wm, abox, tbox, {x for _, x in clashes})
        removed = resolve_conflicts(conflicts)
        overdeleted, rederived = apply_repair(wm, removed, tbox)
        probe = _Probe(wm._index, ())
        for ax, x in clashes:
            if probe.at(ax.body, x):
                raise UnexpectedInconsistency(ax, x)
    return wm, RepairReport(removed, tuple(conflicts), overdeleted, rederived)
