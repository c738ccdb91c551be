"""Seeded random TBoxes and streams for fuzzing and benchmarks."""

from __future__ import annotations

import random

from .ontology import (ConceptInclusion, ConceptName, Conj, Exists,
                       NegativeInclusion, RoleInclusion, RoleInverse,
                       RoleName, TBox)
from .stream import ConceptAtom, MomentaryABox, RoleAtom, Timestamp


def _concept_vocab(n):
    return [f"A{i}" for i in range(n)]


def _role_vocab(n):
    return [f"r{i}" for i in range(n)]


def _random_role(rng, roles):
    name = rng.choice(roles)
    return RoleInverse(name) if rng.random() < 0.3 else RoleName(name)


def _random_body(rng, concepts, roles, depth):
    kind = rng.random()
    if depth <= 0 or kind < 0.45:
        return ConceptName(rng.choice(concepts))
    if kind < 0.75:
        return Conj((_random_body(rng, concepts, roles, depth - 1),
                     _random_body(rng, concepts, roles, depth - 1)))
    return Exists(_random_role(rng, roles),
                  _random_body(rng, concepts, roles, depth - 1))


def random_tbox(seed, n_concepts=6, n_roles=3, n_axioms=8, n_negative=2,
                acyclic=True, max_depth=2):
    """A small random TBox.

    With acyclic=True the positive concept inclusions only define A_i from
    strictly lower-numbered names, and a role inclusion only defines r_i
    from a strictly higher-numbered role (inversion aside), so every defined
    name has a finite unfolding and the negative closure is exact.
    """
    rng = random.Random(seed)
    concepts = _concept_vocab(n_concepts)
    roles = _role_vocab(n_roles)
    axioms = []
    for _ in range(n_axioms):
        if roles and rng.random() < 0.2:
            sub = _random_role(rng, roles)
            sup = _random_role(rng, roles)
            if acyclic:
                keep = roles.index(sub.name) > roles.index(sup.name)
            else:
                keep = sub != sup
            if keep:
                axioms.append(RoleInclusion(sub, sup))
            continue
        if acyclic:
            head_i = rng.randrange(1, n_concepts)
            head = concepts[head_i]
            body_pool = concepts[:head_i]
        else:
            head = rng.choice(concepts)
            body_pool = concepts
        axioms.append(ConceptInclusion(_random_body(rng, body_pool, roles, max_depth), head))
    for _ in range(n_negative):
        axioms.append(NegativeInclusion(Conj((_random_body(rng, concepts, roles, 1),
                                              _random_body(rng, concepts, roles, 1)))))
    return TBox(axioms)


def random_stream(seed, n_ticks=6, atoms_per_tick=3, n_individuals=4,
                  n_concepts=6, n_roles=3, start=0, step=1, exact=False):
    """A stream of momentary ABoxes at ticks start, start+step, ...

    Each tick draws up to atoms_per_tick atoms (exactly that many draws with
    exact=True; duplicates still collapse).
    """
    rng = random.Random(seed)
    inds = [f"x{i}" for i in range(n_individuals)]
    concepts = _concept_vocab(n_concepts)
    roles = _role_vocab(n_roles)
    boxes = []
    ts = Timestamp.of(start)
    stride = Timestamp.of(step)
    for _ in range(n_ticks):
        atoms = set()
        count = atoms_per_tick if exact else rng.randrange(atoms_per_tick + 1)
        for _ in range(count):
            if roles and rng.random() < 0.4:
                atoms.add(RoleAtom(rng.choice(roles), rng.choice(inds),
                                   rng.choice(inds)))
            else:
                atoms.add(ConceptAtom(rng.choice(concepts), rng.choice(inds)))
        boxes.append(MomentaryABox(ts, frozenset(atoms)))
        ts = ts + stride
    return boxes


def bench_workload(seed, n_ticks=200, atoms_per_tick=8, n_individuals=40,
                   n_concepts=12, n_roles=4, n_axioms=20):
    """A larger consistent workload (no negative inclusions) for timing."""
    tbox = random_tbox(seed, n_concepts=n_concepts, n_roles=n_roles,
                       n_axioms=n_axioms, n_negative=0, acyclic=False)
    stream = random_stream(seed + 1, n_ticks=n_ticks,
                           atoms_per_tick=atoms_per_tick,
                           n_individuals=n_individuals,
                           n_concepts=n_concepts, n_roles=n_roles, exact=True)
    return tbox, stream
