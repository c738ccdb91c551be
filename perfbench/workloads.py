"""Seeded inputs for the benchmark workloads.

Every workload has a fixed TBox and a stream drawn from the seed: each tick
holds exactly ATOMS_PER_TICK distinct assertions, drawn independently, so two
seeds give streams of the same size and shape. The window is WIDTH ticks wide
(the closed extent [end - WIDTH, end] holds WIDTH + 1 ticks) and slides by one
tick; the first window is full width.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

WIDTH = 30
SLIDE = 1
ATOMS_PER_TICK = 20
# Windows after the first one; a pass of the CLI loop emits SLIDES + 1 blocks.
SLIDES = 100
UNFOLD_DEPTH = 8


# Cyclic: A1 -> A2 -> A4 -> A1, A5 <-> A7 and A1 -> A6 -> A8 -> A9 -> A10 ->
# A11 -> A1 feed each other, so homes spread along role chains and most
# derived atoms carry several home timestamps. The nested bodies make each
# new instantiation join several annotated sets.
MATERIALIZE_TBOX = """\
some r0 . A1 < A2
A2 & A3 < A4
some inv(r1) . A4 < A1
A5 & some r2 . A6 < A7
some r3 . A7 < A5
A0 & A8 < A9
some inv(r0) . A9 < A10
A10 < A11
A11 & A3 < A0
inv(r2) < inv(r3)
some r1 . A2 < A6
A6 & A1 < A8
some r0 . A5 < A3
some inv(r2) . A11 < A1
some r1 . A10 < A9
A2 & some r1 . (A4 & some r2 . A7) < A9
some inv(r0) . (A1 & A5) < A6
"""

# Two sorts of individuals, p* and q*, with disjoint vocabularies. Positive
# axioms stay inside a sort; every negative inclusion pairs the sorts, so the
# stream keeps matching one half of a negative body and never the other.
GUARDED_TBOX = """\
some rp0 . P0 < P2
P1 & P2 < P3
inv(rp0) < inv(rp1)
P3 & P4 < P5
some rq0 . Q0 < Q2
Q1 & Q2 < Q3
inv(rq0) < inv(rq1)
Q3 & Q4 < Q5
P3 & Q3 < bot
P5 & some rq1 . Q1 < bot
some rp1 . P2 & Q5 < bot
"""

# Devices whose state flips: a new On(d) contradicts an older Off(d) and the
# older one is retracted, with whatever was derived from it.
REPAIR_TBOX = """\
Heating < On
Cooling < On
Boost < Heating
some feeds . On < Powered
Powered & Sensor < Active
some monitors . Active < Alarm
inv(feeds) < inv(linkedTo)
some linkedTo . Fault < Alarm
On & Off < bot
Idle & Active < bot
Alarm & Off < bot
Fault & Active < bot
"""


class Clusters:
    """Individuals `{prefix}{i}` in `count` clusters of `size`. Role
    assertions only link individuals of one cluster, so a window is the union
    of many small, independent reasoning problems and the work per window
    varies little from one seed to the next."""

    def __init__(self, prefix, count, size):
        self.prefix, self.count, self.size = prefix, count, size

    def concept(self, rng, name):
        return (name, f"{self.prefix}{rng.randrange(self.count * self.size)}")

    def role(self, rng, name):
        base = rng.randrange(self.count) * self.size
        return (name, f"{self.prefix}{base + rng.randrange(self.size)}",
                f"{self.prefix}{base + rng.randrange(self.size)}")


_X = Clusters("x", 16, 5)


def _materialize_atom(rng):
    if rng.random() < 0.5:
        return _X.role(rng, f"r{rng.randrange(4)}")
    return _X.concept(rng, f"A{rng.randrange(12)}")


_SORTS = {"p": Clusters("p", 8, 5), "q": Clusters("q", 8, 5)}


def _guarded_atom(rng):
    sort = rng.choice("pq")
    if rng.random() < 0.4:
        return _SORTS[sort].role(rng, f"r{sort}{rng.randrange(2)}")
    return _SORTS[sort].concept(rng, f"{sort.upper()}{rng.randrange(6)}")


_D = Clusters("d", 10, 5)
_STATES = ("On", "Off", "Heating", "Cooling", "Boost", "Idle")


def _repair_atom(rng):
    u = rng.random()
    if u < 0.15:
        return _D.concept(rng, rng.choice(_STATES))
    if u < 0.35:
        return _D.concept(rng, rng.choice(("Sensor", "Fault")))
    if u < 0.7:
        return _D.role(rng, rng.choice(("feeds", "monitors")))
    return _D.concept(rng, f"Tag{rng.randrange(4)}")


@dataclass(frozen=True)
class Workload:
    name: str
    tbox: str
    repair: bool  # run with --repair
    conflicts: bool  # the stream contradicts itself, so REMOVED lines are due
    draw: Callable[[random.Random], tuple]


WORKLOADS = {
    "materialize": Workload("materialize", MATERIALIZE_TBOX, False, False, _materialize_atom),
    "guarded": Workload("guarded", GUARDED_TBOX, True, False, _guarded_atom),
    "repair": Workload("repair", REPAIR_TBOX, True, True, _repair_atom),
}


def make_stream(workload, seed, slides=SLIDES):
    """[(tick, sorted atom tuples)] for ticks 0 .. WIDTH + slides."""
    rng = random.Random(f"{workload.name}:{seed}")
    ticks = []
    for t in range(WIDTH + slides + 1):
        atoms = set()
        while len(atoms) < ATOMS_PER_TICK:
            atoms.add(workload.draw(rng))
        ticks.append((t, sorted(atoms)))
    return ticks


def atom_text(atom):
    return f"{atom[0]}({','.join(atom[1:])})"


def stream_text(ticks):
    return "".join(f"{t} {atom_text(a)}\n" for t, atoms in ticks for a in atoms)
