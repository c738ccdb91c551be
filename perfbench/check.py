"""Independent checks of the CLI's `--emit window` output.

The referee is the naive chase `rlwindow.interpretation.canonical_model`,
applied to assertions taken straight from the generated stream, never to
the engine's own state. A window fails its check when:

- its atoms differ from the chase of the assertions it keeps (all of the
  extent's assertions without repair; the survivors with repair);
- a home lies outside the extent or is not a tick of the stream, or a kept
  assertion is missing from its atom's homes;
- on a sampled window, for some tick c of the window, the atoms with a home
  at or after c differ from the chase of the kept assertions at or after c
  (the property that makes expiry pure deletion);
- it has a REMOVED line on a workload that is built never to conflict;
- with repair, the kept assertions are inconsistent, or a REMOVED occurrence
  is not an assertion of the extent, is removed twice, or has no conflict
  among the assertions at or after its tick as they stood when it was
  removed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from rlwindow.interpretation import Inconsistent, canonical_model
from rlwindow.stream import ConceptAtom, RoleAtom, Timestamp

# Every SAMPLE_EVERY-th window, and the last, gets the per-tick home check.
SAMPLE_EVERY = 5


@dataclass
class Block:
    start: int
    end: int
    homes: dict = field(default_factory=dict)  # atom text -> tuple of ticks
    removed: list = field(default_factory=list)  # (tick, atom text)
    inconsistent: bool = False


@dataclass
class Verdict:
    failed: dict = field(default_factory=dict)  # window index -> first problem
    problems: list = field(default_factory=list)  # run-level problems

    @property
    def ok(self):
        return not self.failed and not self.problems

    def fail(self, k, message):
        self.failed.setdefault(k, message)


def _tick(text):
    micros = Timestamp.parse(text).micros
    if micros % 1_000_000:
        raise ValueError(f"timestamp {text} is not a whole tick")
    return micros // 1_000_000


def split_blocks(text):
    """Window blocks as text, in order; each block ends with its blank line."""
    return [b + "\n\n" for b in text.split("\n\n") if b.strip()]


def parse_block(chunk):
    lines = chunk.strip("\n").split("\n")
    head = lines[0]
    if not (head.startswith("WINDOW [") and head.endswith("]")):
        raise ValueError(f"bad block header {head!r}")
    start, end = head[len("WINDOW ["):-1].split(", ")
    block = Block(_tick(start), _tick(end))
    for line in lines[1:]:
        if line == "INCONSISTENT":
            block.inconsistent = True
        elif line.startswith("REMOVED "):
            _, ts, atom = line.split(" ", 2)
            block.removed.append((_tick(ts), atom))
        else:
            atom, homes = line.rsplit(" @ ", 1)
            if atom in block.homes:
                raise ValueError(f"atom {atom} listed twice")
            block.homes[atom] = tuple(_tick(h) for h in homes.strip("{}").split(","))
    return block


def _atom(t):
    return ConceptAtom(t[0], t[1]) if len(t) == 2 else RoleAtom(*t)


class Referee:
    """The naive chase over the generated stream, as atom texts."""

    def __init__(self, ticks, tbox):
        self.tbox = tbox
        self.by_tick = {t: {(t, str(_atom(a))): _atom(a) for a in atoms}
                        for t, atoms in ticks}

    def occurrences(self, start, end):
        """{(tick, atom text): atom} for the assertions inside [start, end]."""
        out = {}
        for t in range(start, end + 1):
            out.update(self.by_tick.get(t, {}))
        return out

    def chase(self, occurrences):
        """Atom texts of the chase, or None when it is inconsistent."""
        model = canonical_model(set(occurrences.values()), self.tbox)
        if isinstance(model, Inconsistent):
            return None
        return {str(a) for a in model.atoms()}


def _since(occurrences, c):
    return {k: a for k, a in occurrences.items() if k[0] >= c}


def check_output(text, referee, extents, workload, stderr, exit_status):
    """Check one run's output; extents are the expected (start, end) ticks.

    If the workload's stream is built not to conflict, any REMOVED line
    fails its window; if it is built to conflict, the run must remove at
    least one occurrence of an older tick, so that retraction really ran.
    """
    repair, removals = workload.repair, workload.conflicts
    verdict = Verdict()
    if exit_status != 0:
        verdict.problems.append(f"exit status {exit_status}")
    if stderr:
        verdict.problems.append(f"stderr: {stderr.strip()[:200]}")
    chunks = split_blocks(text)
    for k in range(len(chunks), len(extents)):
        verdict.fail(k, "window missing")
    removed_so_far = set()
    kept_before = {}
    older_removals = 0
    for k, chunk in enumerate(chunks[:len(extents)]):
        try:
            block = parse_block(chunk)
        except ValueError as e:
            verdict.fail(k, f"unparsable block: {e}")
            continue
        start, end = extents[k]
        if (block.start, block.end) != (start, end):
            verdict.fail(k, f"extent [{block.start}, {block.end}], expected [{start}, {end}]")
            continue
        if block.inconsistent:
            verdict.fail(k, "INCONSISTENT")
            continue
        if block.removed and not removals:
            verdict.fail(k, "REMOVED line on a workload without conflicts")
            continue
        inside = referee.occurrences(start, end)
        if repair:
            if k == 0:
                # The first window is built tick by tick, but its removals are
                # reported together: judge each against every assertion of the
                # extent at or after it, a superset of what stood at the time.
                stood = inside
            else:
                prev_end = extents[k - 1][1]
                stood = {key: a for key, a in kept_before.items() if key[0] >= start}
                stood.update(referee.occurrences(prev_end + 1, end))
            for key in block.removed:
                if key not in inside:
                    verdict.fail(k, f"REMOVED {key[0]} {key[1]} is not an assertion of the window")
                elif key in removed_so_far:
                    verdict.fail(k, f"REMOVED {key[0]} {key[1]} twice")
                elif referee.chase(_since(stood, key[0])) is not None:
                    verdict.fail(k, f"REMOVED {key[0]} {key[1]} without a conflict at or after it")
                if k > 0 and key[0] < end:
                    older_removals += 1
            removed_so_far.update(block.removed)
            kept = {key: a for key, a in inside.items() if key not in removed_so_far}
            kept_before = kept
        else:
            kept = inside
        expected = referee.chase(kept)
        if expected is None:
            verdict.fail(k, "the kept assertions are inconsistent")
            continue
        emitted = set(block.homes)
        if emitted != expected:
            missing = sorted(expected - emitted)[:3]
            extra = sorted(emitted - expected)[:3]
            verdict.fail(k, f"atoms differ from the chase: missing {missing}, spurious {extra}")
            continue
        ticks = {t for t, _ in inside}
        bad_home = next((a for a, hs in block.homes.items()
                         if any(h not in ticks for h in hs)), None)
        if bad_home is not None:
            verdict.fail(k, f"{bad_home} has a home outside the window's ticks")
            continue
        unhomed = next((key for key in kept if key[0] not in block.homes[key[1]]), None)
        if unhomed is not None:
            verdict.fail(k, f"{unhomed[1]} asserted at {unhomed[0]} lacks that home")
            continue
        if k % SAMPLE_EVERY == 0 or k == len(extents) - 1:
            for c in sorted(ticks):
                homed = {a for a, hs in block.homes.items() if max(hs) >= c}
                if homed != referee.chase(_since(kept, c)):
                    verdict.fail(k, f"atoms homed at or after {c} differ from the chase from {c}")
                    break
    if removals and not older_removals:
        verdict.problems.append("no occurrence of an older tick was removed")
    return verdict


def expected_extents(n_ticks, width, slide):
    """(start, end) of every window: the first ends at tick `width`."""
    return [(end - width, end) for end in range(width, n_ticks, slide)]
