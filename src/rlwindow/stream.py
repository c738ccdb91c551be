"""Timestamped assertions, momentary ABoxes, streams, and window extents.

Timestamps are fixed-point numbers with six fractional digits stored as
an integer count of micro-units, so ordering and window arithmetic are
exact and two distinct stream ticks always differ by at least one unit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import OutOfOrder, ParseError

MICROS = 1_000_000  # fixed-point scale, six fractional digits

_TS_RE = re.compile(r"^[+-]?\d+(?:\.\d{1,6})?$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class Timestamp(int):
    """A time as a whole number of micro-units. Comparison, hashing and
    sorting are the native integer ones; text and sums keep the type."""

    __slots__ = ()

    def __new__(cls, micros):
        return super().__new__(cls, micros)

    @property
    def micros(self):
        return int(self)

    @classmethod
    def parse(cls, text, line=None):
        text = text.strip()
        if not _TS_RE.match(text):
            raise ParseError(f"bad timestamp {text!r}", line=line)
        neg = text.startswith("-")
        body = text.lstrip("+-")
        if "." in body:
            whole, frac = body.split(".")
        else:
            whole, frac = body, ""
        micros = int(whole) * MICROS + int(frac.ljust(6, "0"))
        return cls(-micros if neg else micros)

    @classmethod
    def of(cls, value):
        """Coerce an int (whole units), str, or Timestamp."""
        if isinstance(value, Timestamp):
            return value
        if isinstance(value, int):
            return cls(value * MICROS)
        if isinstance(value, str):
            return cls.parse(value)
        raise TypeError(f"cannot make a Timestamp from {value!r}")

    def __str__(self):
        sign = "-" if self < 0 else ""
        whole, frac = divmod(abs(self), MICROS)
        if frac == 0:
            return f"{sign}{whole}"
        return f"{sign}{whole}.{frac:06d}".rstrip("0")

    def __repr__(self):
        return f"Timestamp(micros={int(self)})"

    def __add__(self, other):
        return Timestamp(int(self) + other)

    def __sub__(self, other):
        return Timestamp(int(self) - other)


class ConceptAtom(NamedTuple):
    """A unary assertion. Atoms are tuples: they hash and compare natively,
    and sorting them, concept and role atoms mixed, orders them by
    predicate name, then arguments. A concept atom never equals a role
    atom, since the two have different lengths."""

    concept: str
    individual: str

    @property
    def sort_key(self):
        return self

    def __str__(self):
        return f"{self.concept}({self.individual})"


class RoleAtom(NamedTuple):
    """A binary assertion. The role name is never an inverse; callers
    normalize inverses away by swapping the arguments."""

    role: str
    subject: str
    obj: str

    @property
    def sort_key(self):
        return self

    def __str__(self):
        return f"{self.role}({self.subject},{self.obj})"


Atom = ConceptAtom | RoleAtom


class Occurrence(NamedTuple):
    atom: Atom
    timestamp: Timestamp

    @property
    def sort_key(self):
        return (self.timestamp, self.atom)

    def __str__(self):
        return f"{self.atom} @ {self.timestamp}"


@dataclass(frozen=True)
class MomentaryABox:
    timestamp: Timestamp
    atoms: frozenset[Atom]

    def occurrences(self):
        return {Occurrence(a, self.timestamp) for a in self.atoms}


@dataclass(frozen=True)
class WindowExtent:
    start: Timestamp
    end: Timestamp

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"window extent start {self.start} after end {self.end}")

    def contains(self, ts):
        return self.start <= ts <= self.end

    def __str__(self):
        return f"[{self.start}, {self.end}]"


@dataclass(frozen=True)
class WindowSpec:
    width: Timestamp
    slide: Timestamp
    origin: Timestamp

    def __post_init__(self):
        if self.width <= 0 or self.slide <= 0:
            raise ValueError("window width and slide must be positive")
        if self.slide > self.width:
            raise ValueError("slide must not exceed width")


def parse_atom(text, line=None):
    """Parse 'A(a)' or 'R(a,b)'."""
    text = text.strip()
    m = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)\(([^)]*)\)$", text)
    if not m:
        raise ParseError(f"bad atom {text!r}", line=line)
    pred, inner = m.group(1), m.group(2)
    args = [a.strip() for a in inner.split(",")]
    if any(not _NAME_RE.match(a) for a in args):
        raise ParseError(f"bad atom arguments in {text!r}", line=line)
    if len(args) == 1:
        return ConceptAtom(pred, args[0])
    if len(args) == 2:
        return RoleAtom(pred, args[0], args[1])
    raise ParseError(f"atom {text!r} has {len(args)} arguments, expected 1 or 2", line=line)


def parse_stream(text):
    """Parse a stream file into momentary ABoxes, strictly increasing in time.

    Each non-comment line is 'TIMESTAMP atom'. Consecutive lines with the
    same timestamp are grouped into one momentary ABox; once a later
    timestamp is seen, returning to an earlier one is an OutOfOrder error.
    """
    boxes = []
    cur_ts = None
    cur_atoms = set()

    def flush():
        if cur_ts is not None:
            boxes.append(MomentaryABox(cur_ts, frozenset(cur_atoms)))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ParseError(f"expected 'TIMESTAMP atom', got {raw.strip()!r}", line=lineno)
        ts = Timestamp.parse(parts[0], line=lineno)
        atom = parse_atom(parts[1], line=lineno)
        if cur_ts is None or ts > cur_ts:
            flush()
            cur_ts = ts
            cur_atoms = {atom}
        elif ts == cur_ts:
            cur_atoms.add(atom)
        else:
            raise OutOfOrder(
                f"timestamp {ts} after {cur_ts}", line=lineno)
    flush()
    return boxes


def window_extents(spec, horizon):
    """All window extents [origin + k*slide - width, origin + k*slide]
    whose end does not pass the horizon, in order."""
    if horizon < spec.origin:
        raise ValueError("horizon precedes the window origin")
    out = []
    k = 0
    while True:
        end = Timestamp(spec.origin + k * spec.slide)
        if end > horizon:
            break
        out.append(WindowExtent(end - spec.width, end))
        k += 1
    return out


def window_abox(stream, extent):
    """Every occurrence of the stream that falls inside the closed extent."""
    out = set()
    for box in stream:
        if extent.contains(box.timestamp):
            out |= box.occurrences()
    return out
