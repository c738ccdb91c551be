"""Concept and role expressions, TBox parsing, and negative-inclusion rewriting.

The supported fragment has three axiom shapes: a concept body included in a
concept name, a concept body included in bottom, and a role (or inverse role)
included in a role (or inverse role). Bodies are built from concept names,
conjunction, and existential restrictions over possibly inverted roles.

Expressions are kept in a canonical form, conjunctions flattened, sorted and
deduplicated, double inverses stripped, so structural equality is semantic
equality up to commutativity and idempotence of conjunction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import BudgetExceeded, ParseError, RLViolation
from .stream import _NAME

# A name, a punctuation mark, or (no group matched) an unexpected character;
# whitespace matches nothing and is skipped.
_TOKEN_RE = re.compile(rf"({_NAME})|([&<.()])|\S")
_RESERVED = {"bot", "some", "inv"}


# ---------------------------------------------------------------------------
# expressions


@dataclass(frozen=True)
class RoleName:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class RoleInverse:
    name: str

    def __str__(self):
        return f"inv({self.name})"


RoleExpr = RoleName | RoleInverse


def invert_role(role):
    if isinstance(role, RoleName):
        return RoleInverse(role.name)
    return RoleName(role.name)


@dataclass(frozen=True)
class ConceptName:
    name: str


@dataclass(frozen=True)
class Conj:
    """Canonically, two or more distinct parts, none a Conj, in struct_key order."""

    parts: tuple["ConceptExpr", ...]


@dataclass(frozen=True)
class Exists:
    role: RoleExpr
    filler: "ConceptExpr"


ConceptExpr = ConceptName | Conj | Exists


def struct_key(expr):
    """Total structural order used for canonical sorting."""
    if isinstance(expr, ConceptName):
        return (0, expr.name)
    if isinstance(expr, Exists):
        rk = (0, expr.role.name) if isinstance(expr.role, RoleName) else (1, expr.role.name)
        return (1, rk, struct_key(expr.filler))
    return (2, tuple(struct_key(c) for c in expr.parts))


def canonicalize(expr):
    """Flatten nested conjunctions with a stack, canonicalize fillers, sort
    and deduplicate the parts; a single part stands alone."""
    parts, stack = [], [expr]
    while stack:
        c = stack.pop()
        if isinstance(c, Conj):
            stack.extend(c.parts)
        elif isinstance(c, Exists):
            parts.append(Exists(c.role, canonicalize(c.filler)))
        else:
            parts.append(c)
    parts.sort(key=struct_key)
    parts = [c for i, c in enumerate(parts) if i == 0 or c != parts[i - 1]]
    return parts[0] if len(parts) == 1 else Conj(tuple(parts))


# ---------------------------------------------------------------------------
# axioms and TBoxes


@dataclass(frozen=True)
class ConceptInclusion:
    body: ConceptExpr
    head: str


@dataclass(frozen=True)
class NegativeInclusion:
    body: ConceptExpr


@dataclass(frozen=True)
class RoleInclusion:
    sub: RoleExpr
    sup: RoleExpr


def canonical_axiom(ax):
    """Canonicalize bodies; normalize role inclusions so the superrole is a
    plain name (inverting both sides leaves the axiom's meaning unchanged)."""
    if isinstance(ax, ConceptInclusion):
        return ConceptInclusion(canonicalize(ax.body), ax.head)
    if isinstance(ax, NegativeInclusion):
        return NegativeInclusion(canonicalize(ax.body))
    sub, sup = ax.sub, ax.sup
    if isinstance(sup, RoleInverse):
        sub, sup = invert_role(sub), invert_role(sup)
    return RoleInclusion(sub, sup)


class TBox:
    """An ordered, duplicate-free collection of canonicalized axioms.

    Order is kept for deterministic rule iteration; equality is by axiom set.
    The axioms are grouped once, on construction: by shape, into
    concept_inclusions, negative_inclusions, role_inclusions and
    positive_axioms (the concept and role inclusions in axiom order), and by
    what they define, into bodies (concept head -> the bodies included in
    it) and subroles (superrole name -> its sub-role expressions).
    """

    def __init__(self, axioms):
        seen = []
        for ax in axioms:
            ax = canonical_axiom(ax)
            if ax not in seen:
                seen.append(ax)
        self.axioms = tuple(seen)
        self.concept_inclusions = tuple(a for a in seen if isinstance(a, ConceptInclusion))
        self.negative_inclusions = tuple(a for a in seen if isinstance(a, NegativeInclusion))
        self.role_inclusions = tuple(a for a in seen if isinstance(a, RoleInclusion))
        self.positive_axioms = tuple(a for a in seen if not isinstance(a, NegativeInclusion))
        self.bodies, self.subroles = {}, {}
        for ax in self.concept_inclusions:
            self.bodies[ax.head] = self.bodies.get(ax.head, ()) + (ax.body,)
        for ax in self.role_inclusions:
            self.subroles[ax.sup.name] = self.subroles.get(ax.sup.name, ()) + (ax.sub,)

    def __eq__(self, other):
        return isinstance(other, TBox) and frozenset(self.axioms) == frozenset(other.axioms)

    def __hash__(self):
        return hash(frozenset(self.axioms))

    def __repr__(self):
        return f"TBox({len(self.axioms)} axioms)"


# ---------------------------------------------------------------------------
# parsing

# axiom  := concept "<" head | role "<" role
# concept:= term ("&" term)*
# term   := NAME | "some" role "." term | "(" concept ")"
# role   := NAME | "inv(" NAME ")"
# head   := NAME | "bot"
#
# A bare NAME < NAME line is read as a concept inclusion. Role inclusions
# are recognized by an inv(...) marker on either side; a plain subrole axiom
# is written with both sides inverted (same meaning, see canonical_axiom).


class _Tokens:
    def __init__(self, line_text, lineno):
        self.lineno = lineno
        self.toks = []  # (kind, value, col)
        for m in _TOKEN_RE.finditer(line_text):
            if m.lastindex is None:
                raise ParseError(f"unexpected character {m[0]!r}", line=lineno, col=m.start() + 1)
            self.toks.append(("NAME" if m.lastindex == 1 else m[0], m[0], m.start() + 1))
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None, None)

    def next(self, expect=None):
        kind, value, col = self.peek()
        if kind is None:
            raise ParseError("unexpected end of line", line=self.lineno)
        if expect is not None and kind != expect:
            raise ParseError(f"expected {expect!r}, got {value!r}", line=self.lineno, col=col)
        self.pos += 1
        return kind, value, col

    def end(self, what):
        if self.pos < len(self.toks):
            raise ParseError(f"trailing input after {what}", line=self.lineno,
                             col=self.toks[self.pos][2])


def _parse_role(tk):
    kind, value, col = tk.next("NAME")
    if value == "inv":
        tk.next("(")
        _, inner, icol = tk.next("NAME")
        if inner in _RESERVED:
            raise ParseError(f"{inner!r} is reserved", line=tk.lineno, col=icol)
        tk.next(")")
        return RoleInverse(inner)
    if value in _RESERVED:
        raise ParseError(f"{value!r} is reserved", line=tk.lineno, col=col)
    return RoleName(value)


def _parse_concept(tk):
    """One loop over the terms. The stack holds, innermost last, the parts
    of each open parenthesis (the whole concept at the bottom) and each
    `some` role still waiting for its filler, so nesting costs no frames."""
    stack = [[]]
    while True:
        if tk.peek()[0] == "(":
            tk.next("(")
            stack.append([])
            continue
        _, value, col = tk.next("NAME")
        if value == "some":
            stack.append(_parse_role(tk))
            tk.next(".")
            continue
        if value == "inv":
            raise ParseError("inv(...) is a role, not a concept", line=tk.lineno, col=col)
        if value in _RESERVED:
            raise ParseError(f"{value!r} is reserved", line=tk.lineno, col=col)
        term = ConceptName(value)
        while True:
            while not isinstance(stack[-1], list):
                term = Exists(stack.pop(), term)
            stack[-1].append(term)
            if tk.peek()[0] == "&":
                tk.next("&")
                break
            parts = stack.pop()
            term = parts[0] if len(parts) == 1 else Conj(tuple(parts))
            if not stack:
                return term
            tk.next(")")


def _parse_axiom_line(line_text, lineno):
    tk = _Tokens(line_text, lineno)
    # A role inclusion when either side starts with inv(
    if tk.peek()[1] == "inv":
        sub = _parse_role(tk)
        tk.next("<")
    else:
        body = _parse_concept(tk)
        tk.next("<")
        _, value, col = tk.peek()
        if value == "bot":
            tk.next()
            tk.end("bot")
            return NegativeInclusion(body)
        if value != "inv":
            head = _parse_concept(tk)
            tk.end("axiom")
            if not isinstance(head, ConceptName):
                raise RLViolation("inclusion head must be a single concept name", line=lineno)
            return ConceptInclusion(body, head.name)
        # NAME < inv(Q): the left side must be a bare name acting as a role
        if not isinstance(body, ConceptName):
            raise ParseError("role inclusion needs a role on the left", line=lineno, col=col)
        sub = RoleName(body.name)
    sup = _parse_role(tk)
    tk.end("role inclusion")
    return RoleInclusion(sub, sup)


def parse_tbox(text):
    axioms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        axioms.append(_parse_axiom_line(line, lineno))
    return TBox(axioms)


# ---------------------------------------------------------------------------
# printing


def format_concept(expr):
    if isinstance(expr, ConceptName):
        return expr.name
    if isinstance(expr, Exists):
        filler = format_concept(expr.filler)
        if isinstance(expr.filler, Conj):
            filler = f"({filler})"
        return f"some {expr.role} . {filler}"
    return " & ".join(format_concept(c) for c in expr.parts)


def format_axiom(ax):
    if isinstance(ax, ConceptInclusion):
        return f"{format_concept(ax.body)} < {ax.head}"
    if isinstance(ax, NegativeInclusion):
        return f"{format_concept(ax.body)} < bot"
    # Canonical role inclusions have a plain-name superrole. A plain-name
    # subrole is printed with both sides inverted so the line re-parses as a
    # role inclusion rather than a concept inclusion.
    if isinstance(ax.sub, RoleInverse):
        return f"inv({ax.sub.name}) < {ax.sup.name}"
    return f"inv({ax.sub.name}) < inv({ax.sup.name})"


def format_tbox(tbox):
    return "\n".join(format_axiom(a) for a in tbox.axioms) + "\n"


# ---------------------------------------------------------------------------
# negative-inclusion rewriting


@dataclass(frozen=True)
class NormalizedTBox:
    """Every rewritten body of every negative inclusion, once each, in
    canonical order, and whether each inclusion's rewrite closed within the
    depth budget."""

    flattened_negatives: tuple[ConceptExpr, ...]
    is_exact: bool


def _single_substitutions(expr, tbox):
    """Rewrite one occurrence of one defined name per result.

    One occurrence at a time keeps mixed forms reachable: in a body using a
    defined name twice, one use may be satisfied by a direct assertion and
    the other by a derivation, and both readings must survive flattening.
    """
    out = []
    if isinstance(expr, ConceptName):
        out.extend(tbox.bodies.get(expr.name, ()))
    elif isinstance(expr, Conj):
        for i, part in enumerate(expr.parts):
            for sub in _single_substitutions(part, tbox):
                out.append(Conj(expr.parts[:i] + (sub,) + expr.parts[i + 1:]))
    else:
        for sub in tbox.subroles.get(expr.role.name, ()):
            role = sub if isinstance(expr.role, RoleName) else invert_role(sub)
            out.append(Exists(role, expr.filler))
        for filler in _single_substitutions(expr.filler, tbox):
            out.append(Exists(expr.role, filler))
    return out


def _substitution_pass(frontier, known, tbox, limit):
    """The new bodies of one substitution pass over the frontier, added to
    known, stopping once there are limit of them."""
    fresh = []
    for b in sorted(frontier, key=struct_key):
        for cand in _single_substitutions(b, tbox):
            cand = canonicalize(cand)
            if cand not in known:
                known.add(cand)
                fresh.append(cand)
                if len(fresh) == limit:
                    return fresh
    return fresh


BODY_CAP = 10_000  # bodies one negative inclusion may rewrite into


def unfold_negative_inclusions(tbox, max_depth):
    """Rewrite each negative inclusion into a set of bodies that can be
    matched against asserted atoms alone.

    Every defined concept name (the head of some concept inclusion) and every
    defined role name (the superrole of some role inclusion) is repeatedly
    replaced by its defining bodies (tbox.bodies and tbox.subroles), keeping
    the unreplaced form as well since the name may also be asserted directly.
    When a substitution pass adds nothing new the set is closed; if max_depth
    passes still produce new bodies for some inclusion the result is not
    exact and deeper derivations can escape detection. More than BODY_CAP
    bodies for one inclusion raises BudgetExceeded, as soon as a kept pass
    reaches that many.
    """
    found = {}
    is_exact = True
    for neg in tbox.negative_inclusions:
        bodies = [canonicalize(neg.body)]
        known = set(bodies)
        frontier = list(bodies)
        for rounds in range(max_depth + 1):
            # The pass after max_depth is only a peek for one new body, and
            # is discarded.
            peek = rounds == max_depth
            fresh = _substitution_pass(frontier, known, tbox,
                                       1 if peek else BODY_CAP + 1 - len(bodies))
            if not fresh:
                break
            if peek:
                is_exact = False
                break
            bodies.extend(fresh)
            frontier = fresh
            if len(bodies) > BODY_CAP:
                raise BudgetExceeded(
                    f"negative inclusion rewrite exceeded {BODY_CAP} bodies")
        found.update(dict.fromkeys(bodies))
    return NormalizedTBox(tuple(sorted(found, key=struct_key)), is_exact)
