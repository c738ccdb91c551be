"""Interpretations over concept and role names, and the canonical model.

An interpretation maps names to extensions. The canonical model is computed
by a deliberately naive forward-chaining loop, re-evaluating every rule body
against the full extensions each round. The sliding-window engine never uses
this code path for its own bookkeeping, which keeps it usable as an
independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ontology import ConceptInclusion, ConceptName, Conj, NegativeInclusion, RoleInverse
from .stream import Atom, ConceptAtom, RoleAtom


@dataclass
class Interpretation:
    """Value-semantic extension maps. Empty extensions are dropped so that
    equality means equality of all nonempty extensions."""

    concepts: dict[str, frozenset[str]] = field(default_factory=dict)
    roles: dict[str, frozenset[tuple[str, str]]] = field(default_factory=dict)

    def __post_init__(self):
        self.concepts = {k: frozenset(v) for k, v in self.concepts.items() if v}
        self.roles = {k: frozenset(v) for k, v in self.roles.items() if v}

    @property
    def is_empty(self):
        return not self.concepts and not self.roles

    def atoms(self) -> set[Atom]:
        out = set()
        for name, ext in self.concepts.items():
            out |= {ConceptAtom(name, x) for x in ext}
        for name, ext in self.roles.items():
            out |= {RoleAtom(name, s, o) for s, o in ext}
        return out


@dataclass
class Inconsistent:
    """Witness that some negative inclusion fired."""

    axiom: NegativeInclusion
    binding: str


def standard_interpretation(atoms):
    """Exactly the asserted facts, nothing more."""
    concepts, roles = {}, {}
    for a in atoms:
        if isinstance(a, ConceptAtom):
            concepts.setdefault(a.concept, set()).add(a.individual)
        else:
            roles.setdefault(a.role, set()).add((a.subject, a.obj))
    return Interpretation(concepts, roles)


def direct_sum(*interps):
    """Per-name union of extensions; associative and commutative, with the
    empty interpretation as identity."""
    concepts, roles = {}, {}
    for i in interps:
        for name, ext in i.concepts.items():
            concepts.setdefault(name, set()).update(ext)
        for name, ext in i.roles.items():
            roles.setdefault(name, set()).update(ext)
    return Interpretation(concepts, roles)


def _eval_concept(expr, concepts, roles):
    if isinstance(expr, ConceptName):
        return set(concepts.get(expr.name, ()))
    if isinstance(expr, Conj):
        members = _eval_concept(expr.parts[0], concepts, roles)
        for part in expr.parts[1:]:
            members &= _eval_concept(part, concepts, roles) if members else set()
        return members
    pairs = _eval_role(expr.role, roles)
    fillers = _eval_concept(expr.filler, concepts, roles)
    return {s for s, o in pairs if o in fillers}


def _eval_role(rexpr, roles):
    pairs = roles.get(rexpr.name, ())
    if isinstance(rexpr, RoleInverse):
        return {(o, s) for s, o in pairs}
    return set(pairs)


def eval_concept(expr, interp):
    """Members of a concept expression under an interpretation."""
    return frozenset(_eval_concept(expr, interp.concepts, interp.roles))


def eval_role(rexpr, interp):
    """Pairs of a role expression; inverses swap the pair order."""
    return frozenset(_eval_role(rexpr, interp.roles))


def satisfies(interp, atom):
    if isinstance(atom, ConceptAtom):
        return atom.individual in interp.concepts.get(atom.concept, ())
    return (atom.subject, atom.obj) in interp.roles.get(atom.role, ())


def _violation(tbox, concepts, roles):
    for ax in tbox.negative_inclusions:
        members = _eval_concept(ax.body, concepts, roles)
        if members:
            return Inconsistent(ax, min(members))
    return None


def canonical_model(atoms, tbox):
    """Least model of the asserted atoms closed under the positive axioms,
    or an Inconsistent witness if a negative inclusion fires along the way.

    Negative inclusions are checked before the first round and after every
    round, so inconsistency is reported as soon as it is derivable.
    """
    concepts, roles = {}, {}
    for a in atoms:
        if isinstance(a, ConceptAtom):
            concepts.setdefault(a.concept, set()).add(a.individual)
        else:
            roles.setdefault(a.role, set()).add((a.subject, a.obj))

    bad = _violation(tbox, concepts, roles)
    if bad:
        return bad
    while True:
        changed = False
        for ax in tbox.positive_axioms:
            if isinstance(ax, ConceptInclusion):
                members = _eval_concept(ax.body, concepts, roles)
                ext = concepts.setdefault(ax.head, set())
                fresh = members - ext
                if fresh:
                    ext.update(fresh)
                    changed = True
            else:
                pairs = _eval_role(ax.sub, roles)
                ext = roles.setdefault(ax.sup.name, set())
                fresh = pairs - ext
                if fresh:
                    ext.update(fresh)
                    changed = True
        bad = _violation(tbox, concepts, roles)
        if bad:
            return bad
        if not changed:
            return Interpretation(concepts, roles)
