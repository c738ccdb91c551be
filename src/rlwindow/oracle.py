"""Brute-force reference implementations used to cross-check the engine.

Everything here is deliberately exhaustive and stays off the incremental code
paths: consistency means running the naive canonical-model construction on an
occurrence set's atoms against the original TBox, and subset enumeration is
literal. Sizes are capped; past the cap the oracle refuses rather than lies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded
from .interpretation import (Inconsistent, canonical_model, eval_concept,
                             standard_interpretation)
from .stream import WindowExtent, window_abox

SUBSET_CAP = 16


@dataclass
class OracleVerdict:
    subject: WindowExtent
    match: bool
    diff: tuple[str, ...]

    def render(self):
        status = "MATCH" if self.match else "MISMATCH"
        lines = [f"oracle {status} for window {self.subject}"]
        lines.extend("  " + d for d in self.diff)
        return "\n".join(lines)


def naive_window_materialization(stream, extent, tbox):
    """Canonical model of all atoms inside the extent, timestamps forgotten."""
    atoms = {o.atom for o in window_abox(stream, extent)}
    return canonical_model(atoms, tbox)


class _ConsistencyMemo:
    def __init__(self, tbox):
        self.tbox = tbox
        self.cache = {}

    def consistent(self, occurrences):
        atoms = frozenset(o.atom for o in occurrences)
        hit = self.cache.get(atoms)
        if hit is None:
            hit = not isinstance(canonical_model(atoms, self.tbox), Inconsistent)
            self.cache[atoms] = hit
        return hit


def _window_le(u, v):
    """Newer-timestamps-first containment order over occurrence sets.

    u is below v when they agree on every tick, or when at the newest tick
    where they differ u's slice is strictly inside v's.
    """
    if u == v:
        return True
    ticks = sorted({o.timestamp for o in u | v}, reverse=True)
    for t in ticks:
        us = {o for o in u if o.timestamp == t}
        vs = {o for o in v if o.timestamp == t}
        if us != vs:
            return us < vs
    return True


def _subsets(items):
    items = sorted(items, key=lambda o: o.sort_key)
    n = len(items)
    for mask in range(1 << n):
        yield frozenset(items[i] for i in range(n) if mask >> i & 1)


def maximal_consistent_subsets(occurrences, tbox, cap=SUBSET_CAP, _memo=None):
    """All consistent subsets not dominated under the newer-first order."""
    occurrences = set(occurrences)
    if len(occurrences) > cap:
        raise CapExceeded(f"{len(occurrences)} occurrences exceed the cap of {cap}")
    memo = _memo or _ConsistencyMemo(tbox)
    consistent = [s for s in _subsets(occurrences) if memo.consistent(s)]
    # Plain-containment maximality first: it is implied by the window order,
    # and it cuts the candidate list down to an antichain.
    consistent.sort(key=len, reverse=True)
    set_maximal = []
    for s in consistent:
        if not any(s < bigger for bigger in set_maximal):
            set_maximal.append(s)
    out = set()
    for s in set_maximal:
        if not any(s != v and _window_le(s, v) for v in set_maximal):
            out.add(s)
    return out


def definitional_window_repair(stream, extent, tbox, cap=SUBSET_CAP):
    """Tick-by-tick repair of the window, straight from the definition.

    At each tick the kept set is replaced by the intersection of all maximal
    consistent subsets (under the newer-first order) of what was kept so far
    plus the tick's assertions.
    """
    memo = _ConsistencyMemo(tbox)
    kept = frozenset()
    for box in stream:
        if not extent.contains(box.timestamp):
            continue
        pool = kept | box.occurrences()
        if len(pool) > cap:
            raise CapExceeded(f"{len(pool)} occurrences exceed the cap of {cap}")
        if memo.consistent(pool):
            kept = pool
            continue
        maxes = maximal_consistent_subsets(pool, tbox, cap=cap, _memo=memo)
        kept = frozenset.intersection(*maxes)
    return kept


def _pref_le(u, v, levels):
    """Priority-respecting containment: strict gain at some level, equality
    at every higher level."""
    if u == v:
        return True
    for i in reversed(range(len(levels))):
        us = u & levels[i]
        vs = v & levels[i]
        if us != vs:
            return us < vs
    return True


def preferred_repairs(levels, tbox, cap=SUBSET_CAP):
    """Maximal consistent subsets of a prioritized ABox, later levels being
    more trusted. levels is an ordered partition, least trusted first."""
    levels = [frozenset(p) for p in levels]
    atoms = frozenset().union(*levels) if levels else frozenset()
    if len(atoms) > cap:
        raise CapExceeded(f"{len(atoms)} atoms exceed the cap of {cap}")
    consistent = []
    items = sorted(atoms, key=lambda a: a.sort_key)
    for mask in range(1 << len(items)):
        s = frozenset(items[i] for i in range(len(items)) if mask >> i & 1)
        if not isinstance(canonical_model(s, tbox), Inconsistent):
            consistent.append(s)
    out = set()
    for s in consistent:
        if not any(s != v and _pref_le(s, v, levels) for v in consistent):
            out.add(s)
    return out


def cross_check(wm, stream, extent, tbox, ntbox=None):
    """Compare a window model against the oracles.

    Checks the materialization (engine window interpretation vs the naive
    canonical model of its own surviving assertions) and the repair (engine
    survivors vs the definitional repair of the raw stream on this extent).
    With an exact ntbox, also confirms no flattened negative body matches the
    survivors.
    """
    survivors = frozenset(wm.asserted_occurrences())
    engine_atoms = frozenset(wm.window_interpretation().atoms())

    naive = canonical_model({o.atom for o in survivors}, tbox)
    diff = []
    if isinstance(naive, Inconsistent):
        diff.append(f"surviving assertions are inconsistent: {naive.binding}")
    else:
        expected_atoms = frozenset(naive.atoms())
        for a in sorted(expected_atoms - engine_atoms, key=lambda a: a.sort_key):
            diff.append(f"engine is missing {a}")
        for a in sorted(engine_atoms - expected_atoms, key=lambda a: a.sort_key):
            diff.append(f"engine has extra {a}")

    expected_repair = definitional_window_repair(stream, extent, tbox)
    for o in sorted(expected_repair - survivors, key=lambda o: o.sort_key):
        diff.append(f"engine dropped {o}, oracle repair keeps it")
    for o in sorted(survivors - expected_repair, key=lambda o: o.sort_key):
        diff.append(f"engine kept {o}, oracle repair drops it")

    if ntbox is not None and ntbox.is_exact:
        plain = standard_interpretation({o.atom for o in survivors})
        for body in ntbox.flattened_negatives:
            members = eval_concept(body, plain)
            if members:
                diff.append(f"survivors still match a negative body at {min(members)}")
                break

    return OracleVerdict(
        subject=extent,
        match=not diff,
        diff=tuple(diff),
    )
