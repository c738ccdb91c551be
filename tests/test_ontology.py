import gc
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlwindow import ontology
from rlwindow.errors import BudgetExceeded, ParseError, RLViolation
from rlwindow.ontology import (ConceptInclusion, ConceptName, Conj, Exists,
                               NegativeInclusion, RoleInclusion, RoleInverse,
                               RoleName, TBox, format_axiom,
                               format_tbox, parse_tbox, unfold_negative_inclusions)
from rlwindow.synth import random_tbox


def C(name):
    return ConceptName(name)


def conj(*parts):
    return Conj(parts)


# -- parsing -----------------------------------------------------------------

def test_parse_worked_tbox():
    tbox = parse_tbox("A & C < D\nB & D < E")
    assert tbox == TBox([ConceptInclusion(conj(C("A"), C("C")), "D"),
                         ConceptInclusion(conj(C("B"), C("D")), "E")])


def test_parse_empty():
    assert parse_tbox("") == TBox([])


def test_parse_exists_and_inverse_role_axioms():
    tbox = parse_tbox("some R . (A & B) < bot\ninv(P) < Q")
    assert tbox == TBox([
        NegativeInclusion(Exists(RoleName("R"), conj(C("A"), C("B")))),
        RoleInclusion(RoleInverse("P"), RoleName("Q")),
    ])


def test_parse_plain_subrole_spelled_with_inverses():
    # P included in Q, both plain, is written with both sides inverted.
    tbox = parse_tbox("inv(P) < inv(Q)")
    assert tbox.role_inclusions == (RoleInclusion(RoleName("P"), RoleName("Q")),)


def test_parse_role_inclusion_with_inverse_superrole_normalizes():
    # R included in inv(S) means inv(R) included in S.
    tbox = parse_tbox("R < inv(S)")
    assert tbox.role_inclusions == (RoleInclusion(RoleInverse("R"), RoleName("S")),)


def test_bare_name_inclusion_is_a_concept_inclusion():
    tbox = parse_tbox("P < Q")
    assert tbox.axioms == (ConceptInclusion(C("P"), "Q"),)


def test_parse_comments_and_blank_lines():
    tbox = parse_tbox("# rules\n\nA < B  # subsumption\n")
    assert tbox.axioms == (ConceptInclusion(C("A"), "B"),)


def test_complex_head_rejected():
    with pytest.raises(RLViolation):
        parse_tbox("A < B & C")
    with pytest.raises(RLViolation):
        parse_tbox("A < some R . B")


def test_reserved_words_rejected_as_names():
    for bad in ["bot < A", "A & some < B", "inv < A", "A < some inv . B"]:
        with pytest.raises(ParseError):
            parse_tbox(bad)


def test_malformed_lines_report_position():
    with pytest.raises(ParseError) as e:
        parse_tbox("A < B\nA &\n")
    assert e.value.line == 2
    for text, message in [
            ("A ! B", "unexpected character '!' at line 1, col 3"),
            ("(A & B < C", "expected ')', got '<' at line 1, col 8"),
            ("A < (B", "unexpected end of line at line 1"),
            ("A < B C", "trailing input after axiom at line 1, col 7"),
            ("A) < B", "expected '<', got ')' at line 1, col 2"),
            ("A <", "unexpected end of line at line 1"),
            ("some r A < B", "expected '.', got 'A' at line 1, col 8"),
            ("inv(some) < inv(Q)", "'some' is reserved at line 1, col 5"),
            ("some bot . A < B", "'bot' is reserved at line 1, col 6"),
            ("A & inv(P) < B", "inv(...) is a role, not a concept at line 1, col 5"),
            ("inv(P) < inv(Q) X", "trailing input after role inclusion at line 1, col 17"),
            ("P < inv(Q) X", "trailing input after role inclusion at line 1, col 12"),
            ("A & B < inv(Q)", "role inclusion needs a role on the left at line 1, col 9"),
            ("A & B < bot C", "trailing input after bot at line 1, col 13")]:
        with pytest.raises(ParseError) as e:
            parse_tbox(text)
        assert str(e.value) == message, text
    # B & B builds to the node B, and is still no single name.
    for text in ["A < B & C", "A < B & B", "A < (B & B)"]:
        with pytest.raises(RLViolation) as e:
            parse_tbox(text)
        assert str(e.value) == "inclusion head must be a single concept name at line 1", text


def test_parentheses_nest_past_the_recursion_limit():
    deep = "(" * 5000 + "A & some r . (B)" + ")" * 5000
    assert parse_tbox(deep + " < C") == parse_tbox("A & some r . B < C")
    assert parse_tbox("(" * 5000 + "A" + ")" * 5000 + " < inv(Q)").role_inclusions == (
        RoleInclusion(RoleInverse("A"), RoleName("Q")),)
    with pytest.raises(ParseError) as e:
        parse_tbox(deep[:-1] + " < C")
    assert str(e.value) == f"expected ')', got '<' at line 1, col {len(deep) + 1}"


def test_a_some_chain_past_the_recursion_limit_reads():
    # Each node is built once, from interned children, so no step of the
    # build or of the TBox's deduplication walks the chain.
    body = parse_tbox("some r . " * 5000 + "A < B").axioms[0].body
    depth = 0
    while isinstance(body, Exists):
        body, depth = body.filler, depth + 1
    assert (depth, body) == (5000, C("A"))


# -- the reader against an independent reference ------------------------------
#
# The character-loop reader that the token-pattern reader replaced, kept
# here as a referee: a recursive descent over tokens found one character at
# a time, with its own name pattern and its own end checks. A conjunction
# stays a list of its terms until the line is read, so a head such as
# `B & B` is rejected by its shape before it builds to the node B.

_REF_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_REF_RESERVED = {"bot", "some", "inv"}


class _RefTokens:
    def __init__(self, line_text, lineno):
        self.lineno = lineno
        self.toks = []  # (kind, value, col)
        i = 0
        while i < len(line_text):
            ch = line_text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "&<.()":
                self.toks.append((ch, ch, i + 1))
                i += 1
                continue
            m = _REF_NAME_RE.match(line_text, i)
            if not m:
                raise ParseError(f"unexpected character {ch!r}", line=lineno, col=i + 1)
            self.toks.append(("NAME", m.group(0), i + 1))
            i = m.end()
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

    @property
    def done(self):
        return self.pos >= len(self.toks)


def _ref_parse_role(tk):
    kind, value, col = tk.next("NAME")
    if value == "inv":
        tk.next("(")
        _, inner, icol = tk.next("NAME")
        if inner in _REF_RESERVED:
            raise ParseError(f"{inner!r} is reserved", line=tk.lineno, col=icol)
        tk.next(")")
        return RoleInverse(inner)
    if value in _REF_RESERVED:
        raise ParseError(f"{value!r} is reserved", line=tk.lineno, col=col)
    return RoleName(value)


def _ref_parse_term(tk):
    kind, value, col = tk.peek()
    if kind == "(":
        tk.next("(")
        inner = _ref_parse_concept(tk)
        tk.next(")")
        return inner
    kind, value, col = tk.next("NAME")
    if value == "some":
        role = _ref_parse_role(tk)
        tk.next(".")
        return Exists(role, _ref_node(_ref_parse_term(tk)))
    if value == "inv":
        raise ParseError("inv(...) is a role, not a concept", line=tk.lineno, col=col)
    if value in _REF_RESERVED:
        raise ParseError(f"{value!r} is reserved", line=tk.lineno, col=col)
    return ConceptName(value)


def _ref_parse_concept(tk):
    parts = [_ref_parse_term(tk)]
    while tk.peek()[0] == "&":
        tk.next("&")
        parts.append(_ref_parse_term(tk))
    return parts[0] if len(parts) == 1 else parts


def _ref_node(term):
    return Conj(tuple(map(_ref_node, term))) if isinstance(term, list) else term


def _ref_parse_axiom_line(line_text, lineno):
    tk = _RefTokens(line_text, lineno)
    if tk.peek()[1] == "inv":
        sub = _ref_parse_role(tk)
        tk.next("<")
        sup = _ref_parse_role(tk)
        if not tk.done:
            raise ParseError("trailing input after role inclusion", line=lineno,
                             col=tk.peek()[2])
        return RoleInclusion(sub, sup)
    body = _ref_parse_concept(tk)
    tk.next("<")
    kind, value, col = tk.peek()
    if kind == "NAME" and value == "inv":
        if not isinstance(body, ConceptName):
            raise ParseError("role inclusion needs a role on the left", line=lineno, col=col)
        sup = _ref_parse_role(tk)
        if not tk.done:
            raise ParseError("trailing input after role inclusion", line=lineno,
                             col=tk.peek()[2])
        return RoleInclusion(RoleName(body.name), sup)
    if kind == "NAME" and value == "bot":
        tk.next()
        if not tk.done:
            raise ParseError("trailing input after bot", line=lineno, col=tk.peek()[2])
        return NegativeInclusion(_ref_node(body))
    head = _ref_parse_concept(tk)
    if not tk.done:
        raise ParseError("trailing input after axiom", line=lineno, col=tk.peek()[2])
    if not isinstance(head, ConceptName):
        raise RLViolation("inclusion head must be a single concept name", line=lineno)
    return ConceptInclusion(_ref_node(body), head.name)


def _outcome(read):
    """What a reader makes of one line: its axioms, or its exception's type,
    message, line and column."""
    try:
        return read()
    except ParseError as e:
        return type(e), str(e), e.line, e.col


_LINE_TOKENS = ["A", "B", "r", "some", "inv", "bot", "(", ")", "&", "<", ".", " ",
                "\t", "1", "!", "\u00e9", "inv(", "inv(r)", "some r ."]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_LINE_TOKENS), min_size=1, max_size=12).map("".join))
@example("some r . (A & B) & C < D")
@example("((A)) < B")
@example("A < B & B")
@example("A & A < inv(r)")
@example("(A & B < C")
def test_the_reader_agrees_with_a_character_loop_reference(line):
    def reference():
        stripped = line.strip()
        return TBox([_ref_parse_axiom_line(stripped, 1)] if stripped else []).axioms

    assert _outcome(lambda: parse_tbox(line).axioms) == _outcome(reference)


def test_duplicate_axioms_collapse():
    tbox = parse_tbox("A & B < D\nB & A < D")
    assert len(tbox.axioms) == 1


# -- canonical form ----------------------------------------------------------

def test_canonicalize_sorts_flattens_dedupes():
    # Canonical as built: sorted, flat and deduplicated, one node per structure.
    assert Conj((Conj((C("B"), C("A"))), Conj((C("B"), C("A"))))) is Conj((C("A"), C("B")))


def test_canonicalize_recurses_into_fillers():
    r = RoleName("R")
    assert Exists(r, Conj((C("B"), C("A")))) is Exists(r, Conj((C("A"), C("B"))))


def test_canonicalize_idempotent():
    e = Conj((Exists(RoleInverse("r"), C("X")), Conj((C("A"), C("A")))))
    assert Conj(e.parts) is e


def test_a_conjunction_is_one_flat_tuple_of_parts():
    tbox = parse_tbox("C & (A & B) & some r . (B & A) < D")
    assert tbox.axioms == (ConceptInclusion(
        conj(C("A"), C("B"), C("C"), Exists(RoleName("r"), conj(C("A"), C("B")))), "D"),)


def test_canonicalize_flattens_conjunctions_nested_past_the_recursion_limit():
    nested = C("A0")
    for i in range(1, 2000):
        nested = Conj((C(f"A{i}"), nested))
    assert nested is Conj(tuple(C(f"A{i}") for i in range(2000)))
    assert len(nested.parts) == 2000


def _names():
    return st.sampled_from(["A", "B", "C", "D"])


def _concepts(depth=2):
    base = _names().map(ConceptName)
    if depth == 0:
        return base
    sub = _concepts(depth - 1)
    role = st.sampled_from(["r", "s"]).flatmap(
        lambda n: st.sampled_from([RoleName(n), RoleInverse(n)]))
    return st.one_of(base,
                     st.tuples(sub, sub).map(Conj),
                     st.tuples(role, sub).map(lambda p: Exists(*p)))


@given(_concepts(), _concepts())
def test_canonicalize_commutative(a, b):
    assert Conj((a, b)) is Conj((b, a))


def test_a_finished_rewrite_leaves_the_live_node_table_as_it_found_it():
    def rewrite():
        tbox = parse_tbox("some R . B < B\nA & B < bot\nA & C < D\nD & some S . (E & F) < bot")
        return len(unfold_negative_inclusions(tbox, 4).flattened_negatives)

    gc.collect()
    before = len(ontology._LIVE)
    assert rewrite() == 7
    gc.collect()
    assert len(ontology._LIVE) == before


# -- round-trip --------------------------------------------------------------

@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10_000))
def test_format_parse_round_trip(seed):
    tbox = random_tbox(seed, n_negative=2, acyclic=False)
    assert parse_tbox(format_tbox(tbox)) == tbox


def test_format_examples():
    tbox = parse_tbox("some R . (A & B) < bot")
    assert format_axiom(tbox.axioms[0]) == "some R . (A & B) < bot"
    tbox = parse_tbox("inv(P) < inv(Q)")
    assert format_axiom(tbox.axioms[0]) == "inv(P) < inv(Q)"
    tbox = parse_tbox("inv(P) < Q")
    assert format_axiom(tbox.axioms[0]) == "inv(P) < Q"


# -- negative-inclusion rewriting --------------------------------------------

def test_unfold_through_one_definition():
    tbox = parse_tbox("A & C < D\nD & F < bot")
    ntbox = unfold_negative_inclusions(tbox, 2)
    assert ntbox.is_exact
    assert set(ntbox.flattened_negatives) == {
        conj(C("D"), C("F")),
        conj(C("A"), C("C"), C("F")),
    }
    # Through a chain of two definitions the rewrite closes at depth 2.
    chain = parse_tbox("A & C < D\nB & D < E\nE & F < bot")
    assert not unfold_negative_inclusions(chain, 1).is_exact
    assert unfold_negative_inclusions(chain, 2).is_exact
    assert unfold_negative_inclusions(chain, 4).is_exact


def test_unfold_nothing_to_do():
    ntbox = unfold_negative_inclusions(parse_tbox("A & B < bot"), 0)
    assert ntbox.is_exact
    assert ntbox.flattened_negatives == (conj(C("A"), C("B")),)
    assert unfold_negative_inclusions(parse_tbox("A & C < bot"), 3).is_exact


def test_unfold_recursive_truncates():
    tbox = parse_tbox("some R . B < B\nA & B < bot")
    ntbox = unfold_negative_inclusions(tbox, 3)
    r = RoleName("R")
    expected = {
        conj(C("A"), C("B")),
        conj(C("A"), Exists(r, C("B"))),
        conj(C("A"), Exists(r, Exists(r, C("B")))),
        conj(C("A"), Exists(r, Exists(r, Exists(r, C("B"))))),
    }
    assert set(ntbox.flattened_negatives) == expected
    assert not ntbox.is_exact
    assert not unfold_negative_inclusions(tbox, 5).is_exact
    # One truncated inclusion makes the whole rewrite inexact.
    mixed = parse_tbox("some R . B < B\nA & B < bot\nC & D < bot")
    assert not unfold_negative_inclusions(mixed, 3).is_exact


def test_unfold_role_definitions():
    # Superrole in the negative body unfolds through its subroles, keeping
    # the original reading.
    tbox = parse_tbox("inv(P) < inv(Q)\nA & some Q . B < bot")
    ntbox = unfold_negative_inclusions(tbox, 2)
    assert ntbox.is_exact
    assert set(ntbox.flattened_negatives) == {
        conj(C("A"), Exists(RoleName("Q"), C("B"))),
        conj(C("A"), Exists(RoleName("P"), C("B"))),
    }


def test_unfold_inverse_use_of_defined_role():
    # Q used inverted: the subrole substitutes in inverted as well.
    tbox = parse_tbox("inv(P) < inv(Q)\nsome inv(Q) . A < bot")
    ntbox = unfold_negative_inclusions(tbox, 2)
    assert set(ntbox.flattened_negatives) == {
        Exists(RoleInverse("Q"), C("A")),
        Exists(RoleInverse("P"), C("A")),
    }


def test_unfold_multiple_definitions_multiply():
    tbox = parse_tbox("A < E\nB < E\nE & F < bot")
    ntbox = unfold_negative_inclusions(tbox, 1)
    assert ntbox.is_exact
    assert set(ntbox.flattened_negatives) == {
        conj(C("E"), C("F")),
        conj(C("A"), C("F")),
        conj(C("B"), C("F")),
    }


def test_unfold_budget(monkeypatch):
    # Eight independent two-way choices multiply out well past a tiny cap.
    lines = [f"X{i} < Y{i}\nZ{i} < Y{i}" for i in range(8)]
    body = " & ".join(f"Y{i}" for i in range(8))
    tbox = parse_tbox("\n".join(lines) + f"\n{body} < bot")
    monkeypatch.setattr(ontology, "BODY_CAP", 50)
    with pytest.raises(BudgetExceeded) as e:
        unfold_negative_inclusions(tbox, 10)
    assert str(e.value) == "negative inclusion rewrite exceeded 50 bodies"


def test_unfold_monotone_in_depth():
    tbox = parse_tbox("some R . B < B\nA & B < bot")
    prev = set()
    for depth in range(5):
        cur = set(unfold_negative_inclusions(tbox, depth).flattened_negatives)
        assert prev <= cur
        prev = cur


def test_unfold_deterministic():
    tbox = parse_tbox("A < E\nB < E\nsome r . E < F\nE & F < bot")
    a = unfold_negative_inclusions(tbox, 3)
    b = unfold_negative_inclusions(tbox, 3)
    assert a.flattened_negatives == b.flattened_negatives
    assert a.is_exact and b.is_exact


def test_flattened_negatives_are_built_once():
    # A & C is a body of both inclusions, and is listed once.
    ntbox = unfold_negative_inclusions(parse_tbox("A < B\nB & C < bot\nA & C < bot"), 1)
    bodies = ntbox.flattened_negatives
    assert bodies is ntbox.flattened_negatives
    assert bodies == (conj(C("A"), C("C")), conj(C("B"), C("C")))
