"""Planted faults that show the output checks have teeth.

Each function takes the text of a run's output and the run's referee and
returns a copy of the text with one fault of one kind, the kind of output a
broken engine would print.
"""

from __future__ import annotations

from check import parse_block, split_blocks


def _edit(text, k, edit):
    chunks = split_blocks(text)
    lines = chunks[k].rstrip("\n").split("\n")
    edit(lines)
    chunks[k] = "\n".join(lines) + "\n\n"
    return "".join(chunks)


def _asserted(referee, block):
    return {a for _, a in referee.occurrences(block.start, block.end)}


def dropped_atom(text, referee):
    """The first atom of the first slid window goes missing."""
    return _edit(text, 1, lambda lines: lines.pop(1))


def spurious_atom(text, referee):
    """The first slid window gains an atom another window holds and it does not."""
    chunks = split_blocks(text)
    block = parse_block(chunks[1])
    for chunk in chunks[2:] + chunks[:1]:
        for atom in parse_block(chunk).homes:
            if atom not in block.homes:
                line = f"{atom} @ {{{block.end}}}"
                return _edit(text, 1, lambda lines: lines.insert(1, line))
    raise ValueError("no atom to plant")


def home_later(text, referee):
    """In the first window, a derived atom's only home moves one tick later."""
    block = parse_block(split_blocks(text)[0])
    asserted = _asserted(referee, block)
    for i, (atom, homes) in enumerate(block.homes.items(), start=1):
        if len(homes) == 1 and homes[0] < block.end and atom not in asserted:
            line = f"{atom} @ {{{homes[0] + 1}}}"
            return _edit(text, 0, lambda lines: lines.__setitem__(i, line))
    raise ValueError("no derived atom with a single early home")


def unjustified_removal(text, referee):
    """A slid window reports the removal of an assertion of its newest tick
    that conflicts with nothing."""
    chunks = split_blocks(text)
    for k in range(1, len(chunks)):
        block = parse_block(chunks[k])
        newest = referee.occurrences(block.end, block.end)
        if referee.chase(newest) is None:
            continue
        for key in sorted(newest):
            if key not in block.removed:
                line = f"REMOVED {key[0]} {key[1]}"
                return _edit(text, k, lambda lines: lines.append(line))
    raise ValueError("no consistent newest tick to plant a removal in")


def hidden_removal(text, referee):
    """A slid window retracts an older occurrence without reporting it."""
    chunks = split_blocks(text)
    for k in range(1, len(chunks)):
        block = parse_block(chunks[k])
        for t, atom in block.removed:
            if t < block.end:
                line = f"REMOVED {t} {atom}"
                return _edit(text, k, lambda lines: lines.remove(line))
    raise ValueError("no removal of an older occurrence to hide")


PLANTS = {
    "dropped-atom": dropped_atom,
    "spurious-atom": spurious_atom,
    "home-later": home_later,
    "unjustified-removal": unjustified_removal,
    "hidden-removal": hidden_removal,
}
