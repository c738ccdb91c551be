"""Shared builders for the test suite."""

from __future__ import annotations

import pytest

from rlwindow import stream
from rlwindow.ontology import parse_tbox
from rlwindow.repair import add_abox_with_repair
from rlwindow.stream import (ConceptAtom, MomentaryABox, Occurrence, RoleAtom,
                             Timestamp, WindowExtent, parse_stream)
from rlwindow.window import WindowModel


@pytest.fixture
def extents_built(monkeypatch):
    """The ends of the extents window_extents has built so far. Building a
    fourth fails the test at once, so extents built ahead of use show fast
    however many the horizon spans."""
    built = []

    def counted(start, end):
        built.append(end)
        assert len(built) <= 3, "window_extents built extents ahead of use"
        return WindowExtent(start, end)

    monkeypatch.setattr(stream, "WindowExtent", counted)
    return built


def ts(value):
    return Timestamp.of(value)


def ext(start, end):
    return WindowExtent(ts(start), ts(end))


def catom(name, ind):
    return ConceptAtom(name, ind)


def ratom(name, s, o):
    return RoleAtom(name, s, o)


def occ(atom, t):
    return Occurrence(atom, ts(t))


def box(t, *atoms):
    return MomentaryABox(ts(t), frozenset(atoms))


def build_window(extent, stream, tbox, repair=False):
    """Materialize one extent from scratch, optionally with repair."""
    wm = WindowModel(extent)
    for b in stream:
        if extent.contains(b.timestamp):
            if repair:
                add_abox_with_repair(wm, b, tbox)
            else:
                wm.add_abox(b, tbox)
    return wm


def provisional_model(current, incoming, tbox):
    """The model a repairing add hands to find_conflicts: the asserted
    occurrences current closed under tbox, clashes and all, with the
    incoming ABox ingested on top. Returns (model, clash bindings)."""
    wm = WindowModel(WindowExtent(min([o.timestamp for o in current] + [incoming.timestamp]),
                                  incoming.timestamp))
    for t in sorted({o.timestamp for o in current}):
        wm._ticks[t] = frozenset(o.atom for o in current if o.timestamp == t)
    with wm._atomic():
        for o in current:
            wm._insert(o.atom, o.timestamp)
        wm._fixpoint(tbox, current)
        clashes = wm._ingest([incoming], tbox)
    return wm, {x for _, x in clashes}


def atoms_of(interp):
    return frozenset(interp.atoms())


WORKED_TBOX_TEXT = "A & C < D\nB & D < E\n"
WORKED_STREAM_TEXT = "1 A(a)\n1 B(a)\n2 C(a)\n3 A(a)\n4 B(a)\n"
PEDALS_TBOX_TEXT = "GasPedalPressed & BreaksPressed < bot\n"
PEDALS_STREAM_TEXT = ("0 GasPedalPressed(x)\n"
                      "1 GasPedalPressed(x)\n"
                      "3 BreaksPressed(x)\n"
                      "4 BreaksPressed(x)\n"
                      "4 ClutchPressed(x)\n")

GOLDEN_WORKED_WINDOWS = """\
WINDOW [0, 2]
A(a) @ {1}
B(a) @ {1}
C(a) @ {2}
D(a) @ {1}
E(a) @ {1}

WINDOW [1, 3]
A(a) @ {1,3}
B(a) @ {1}
C(a) @ {2}
D(a) @ {1,2}
E(a) @ {1}

WINDOW [2, 4]
A(a) @ {3}
B(a) @ {4}
C(a) @ {2}
D(a) @ {2}
E(a) @ {2}

"""

GOLDEN_PEDALS_REPAIRED = """\
WINDOW [0, 2]
GasPedalPressed(x) @ {0,1}

WINDOW [1, 3]
BreaksPressed(x) @ {3}
REMOVED 1 GasPedalPressed(x)

WINDOW [2, 4]
BreaksPressed(x) @ {3,4}
ClutchPressed(x) @ {4}

"""


@pytest.fixture
def worked_tbox():
    return parse_tbox(WORKED_TBOX_TEXT)


@pytest.fixture
def worked_stream():
    return parse_stream(WORKED_STREAM_TEXT)


@pytest.fixture
def pedals_tbox():
    return parse_tbox(PEDALS_TBOX_TEXT)


@pytest.fixture
def pedals_stream():
    return parse_stream(PEDALS_STREAM_TEXT)


@pytest.fixture
def disjoint_tbox():
    return parse_tbox("A & C < bot\nB & C < bot\n")
