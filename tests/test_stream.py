import re
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import box, catom, ext, occ, ratom, ts
from rlwindow.errors import OutOfOrder, ParseError
from rlwindow.stream import (MICROS, ConceptAtom, RoleAtom, Timestamp,
                             WindowExtent, WindowSpec, parse_atom,
                             parse_stream, window_abox, window_extents)


# -- timestamps --------------------------------------------------------------

def test_timestamp_parse_whole():
    assert Timestamp.parse("3").micros == 3 * MICROS


def test_timestamp_parse_fraction():
    assert Timestamp.parse("1.5").micros == 1_500_000
    assert Timestamp.parse("-0.25").micros == -250_000
    assert Timestamp.parse("+3.100000").micros == 3_100_000


def test_timestamp_canonical_text():
    assert str(Timestamp.parse("3.100000")) == "3.1"
    assert str(Timestamp.parse("3.000000")) == "3"
    assert str(Timestamp.parse("-2.050")) == "-2.05"


def test_timestamp_rejects_bad_text():
    for bad in ["", "1.2345678", "1e3", "..", "1.", "one", "+-1"]:
        with pytest.raises(ParseError) as e:
            Timestamp.parse(bad)
        assert str(e.value) == f"bad timestamp {bad!r}"


def test_timestamp_arithmetic_and_order():
    assert ts(2) - ts("0.5") == ts("1.5")
    assert ts(1) + ts(1) == ts(2)
    assert ts("-1") < ts("0.000001") < ts(1)


def test_timestamp_sums_keep_the_type_and_text():
    total = Timestamp.of(3) + Timestamp.of(1)
    assert type(total) is Timestamp and str(total) == "4"
    assert type(total - Timestamp.of(1)) is Timestamp
    assert repr(Timestamp.parse("1.5")) == "Timestamp(micros=1500000)"
    assert Timestamp(micros=7) == Timestamp(7)


@given(st.integers(min_value=-10**15, max_value=10**15))
def test_timestamp_text_round_trip(micros):
    t = Timestamp(micros)
    assert Timestamp.parse(str(t)) == t


@given(st.integers(min_value=-10**12, max_value=10**12),
       st.integers(min_value=-10**12, max_value=10**12))
def test_timestamp_order_matches_micros(a, b):
    assert (Timestamp(a) < Timestamp(b)) == (a < b)


# -- atoms -------------------------------------------------------------------

def test_parse_atom_shapes():
    assert parse_atom("A(a)") == catom("A", "a")
    assert parse_atom("R(a, b)") == ratom("R", "a", "b")
    # Any Unicode whitespace may pad a name, as str.strip() would drop it.
    assert parse_atom(" R(\u3000a ,\xa0b\u2003) ") == ratom("R", "a", "b")


def test_parse_atom_rejects_bad_arity():
    for text, message in [
            ("R(a,b,c)", "atom 'R(a,b,c)' has 3 arguments, expected 1 or 2"),
            ("A()", "bad atom arguments in 'A()'"),
            ("A(a, 1b)", "bad atom arguments in 'A(a, 1b)'"),
            ("A(a", "bad atom 'A(a'"),
            ("A(a) B(a)", "bad atom 'A(a) B(a)'")]:
        with pytest.raises(ParseError) as e:
            parse_atom(text)
        assert str(e.value) == message


def test_atom_text():
    assert str(catom("A", "a")) == "A(a)"
    assert str(ratom("R", "a", "b")) == "R(a,b)"
    assert str(occ(catom("A", "a"), 1)) == "A(a) @ 1"


# -- stream files ------------------------------------------------------------

def test_parse_stream_groups_equal_timestamps():
    boxes = parse_stream("1 A(a)\n1 B(a)\n2 C(a)")
    assert boxes == [box(1, catom("A", "a"), catom("B", "a")),
                     box(2, catom("C", "a"))]


def test_parse_stream_empty():
    assert parse_stream("") == []


def test_parse_stream_rejects_decreasing_timestamps():
    with pytest.raises(OutOfOrder):
        parse_stream("2 R(a,b)\n1 A(a)")


def test_parse_stream_skips_comments_and_blanks():
    boxes = parse_stream("# header\n\n1 A(a)  # trailing # and more\n")
    assert boxes == [box(1, catom("A", "a"))]


def test_parse_stream_rejects_malformed_lines():
    with pytest.raises(ParseError) as e:
        parse_stream("1 A(a)\nnonsense\n")
    assert e.value.line == 2


def test_parse_stream_shares_equal_atoms():
    (one,), (two,), (three,), (four,) = (b.atoms for b in parse_stream(
        "1 A(a)\n2 A(a)\n3 R( a, b)\n4 R(a,b)"))
    assert one is two and three is four


_REF_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_REF_ATOM = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\(([^)]*)\)$")
_REF_TS = re.compile(r"^[+-]?\d+(?:\.\d{1,6})?$")


def _reference_timestamp(text, line):
    """A timestamp read by checking its shape, then stripping the sign and
    splitting at the point, independently of Timestamp.parse."""
    text = text.strip()
    if not _REF_TS.match(text):
        raise ParseError(f"bad timestamp {text!r}", line=line)
    body = text.lstrip("+-")
    whole, frac = body.split(".") if "." in body else (body, "")
    micros = int(whole) * MICROS + int(frac.ljust(6, "0"))
    return Timestamp(-micros if text.startswith("-") else micros)


def _reference_atom(text, line):
    """An atom read by splitting its arguments at commas, independently of
    parse_atom."""
    text = text.strip()
    m = _REF_ATOM.match(text)
    if not m:
        raise ParseError(f"bad atom {text!r}", line=line)
    args = [a.strip() for a in m.group(2).split(",")]
    if any(not _REF_NAME.match(a) for a in args):
        raise ParseError(f"bad atom arguments in {text!r}", line=line)
    if len(args) == 1:
        return ConceptAtom(m.group(1), args[0])
    if len(args) == 2:
        return RoleAtom(m.group(1), args[0], args[1])
    raise ParseError(f"atom {text!r} has {len(args)} arguments, expected 1 or 2", line=line)


def _reference_parse(text):
    """A stream file parsed line by line, with no cache and with readers of
    its own for timestamps and atoms. Gives the grouped boxes, or (type,
    message, line) of the first error."""
    boxes = []
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ParseError(f"expected 'TIMESTAMP atom', got {raw.strip()!r}", line=lineno)
            t = _reference_timestamp(parts[0], lineno)
            atom = _reference_atom(parts[1], lineno)
            if boxes and t < boxes[-1][0]:
                raise OutOfOrder(f"timestamp {t} after {boxes[-1][0]}", line=lineno)
            if not boxes or t > boxes[-1][0]:
                boxes.append((t, set()))
            boxes[-1][1].add(atom)
    except ParseError as e:
        return type(e), str(e), e.line
    return [box(t, *atoms) for t, atoms in boxes]


def _outcome(text):
    try:
        return parse_stream(text)
    except ParseError as e:
        return type(e), str(e), e.line


# Stream texts that are mostly well formed, with noise: ticks written
# plainly, signed, padded or with a zero fraction, or in Arabic-Indic and
# fullwidth digits, which Timestamp.parse also reads; timestamps it rejects;
# names and arities parse_atom rejects; Unicode whitespace, which stripping
# and splitting treat as space; comments, blank lines, and CRLF ends. Equal
# timestamp and atom texts recur often, so the per-call caches are hit, and
# texts that differ only in spacing meet in one interned atom.
_good_names = st.sampled_from(["A", "B", "r", "_x", "a1"])
_bad_names = st.sampled_from(["1a", "a-b", "é", ""])
_good_pads = st.sampled_from(["", " ", "\t", " \t "])
_bad_pads = st.sampled_from(["\u3000", "\xa0", "\u2003"])
_bad_ts = st.sampled_from(["1.1234567", "1e3", "..", "1.", "-", "one", "1:2"])


def _ts_text(tick, noisy):
    plain = st.sampled_from([str(tick), f"+{tick}", f"0{tick}", f"{tick}.0", f"{tick}.000000"])
    if not noisy:
        return plain
    return st.one_of(plain, st.sampled_from([chr(0x660 + tick), chr(0xFF10 + tick)]), _bad_ts)


@st.composite
def _atom_text(draw, noisy):
    names = st.one_of(_good_names, _bad_names) if noisy else _good_names
    pads = st.one_of(_good_pads, _bad_pads) if noisy else _good_pads
    arity = draw(st.integers(min_value=0, max_value=3) if noisy
                 else st.integers(min_value=1, max_value=2))
    inner = ",".join(draw(pads) + draw(names) + draw(pads) for _ in range(arity))
    tail = draw(st.sampled_from([""] * 16 + [")", " x", ",", " B(a)"]))
    return f"{draw(names)}({inner}){tail}"


@st.composite
def _line(draw, tick):
    kind = draw(st.sampled_from(["good"] * 6 + ["noisy", "comment", "blank", "bare"]))
    noisy = kind == "noisy"
    pads = _good_pads if kind == "good" else st.one_of(_good_pads, _bad_pads)
    if kind == "comment":
        return draw(pads) + "# " + draw(_atom_text(noisy))
    if kind == "blank":
        return draw(pads)
    if kind == "bare":
        return draw(pads) + draw(st.one_of(_ts_text(tick, noisy), _atom_text(noisy)))
    seps = st.sampled_from([" ", "\t", " \t", "\u3000", "\xa0", ""] if noisy else [" ", "\t"])
    comment = draw(st.sampled_from(["", "", " # note", "#", "\t# 1 A(a)"]))
    return (draw(pads) + draw(_ts_text(tick, noisy)) + draw(seps) + draw(_atom_text(noisy))
            + draw(pads) + comment)


@st.composite
def _stream_texts(draw):
    """Lines whose ticks mostly stay or step forward, and now and then go
    back one, each ended by LF or CRLF."""
    tick, text = 0, ""
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        tick = min(4, max(0, tick + draw(st.sampled_from([0, 0, 1, 1, 2, -1]))))
        text += draw(_line(tick)) + draw(st.sampled_from(["\n", "\r\n"]))
    return text


@settings(max_examples=400, deadline=None)
@given(_stream_texts())
@example("1 A(a)\r\n1\tR( a , b )  # c\r\n\u0662 B(a)\n3\u3000C(a)\n2 A(a)\n")
@example("0 A(a)\n1 A(a,b,c)\n")
@example("0 A(a)\n\n 1.1234567 A(a)\n")
@example("0 R(\u3000a,\xa0b\u2003)\n0 R(a, b)\n1 A(a ,)\n")
def test_parse_stream_agrees_with_a_line_by_line_reference(text):
    # Reading each line with one pattern, caching timestamp and atom texts
    # per call, and interning atoms must not change the result: the boxes,
    # or the error with its message and line, are those of an uncached
    # line-by-line reference that splits timestamps and atoms apart itself.
    # Equal atoms share one tuple.
    got = _outcome(text)
    assert got == _reference_parse(text)
    if isinstance(got, list):
        atoms = [a for b in got for a in b.atoms]
        assert len(set(map(id, atoms))) == len(set(atoms))


# -- windows -----------------------------------------------------------------

def test_window_extents_sliding():
    spec = WindowSpec(ts(2), ts(1), ts(2))
    assert list(window_extents(spec, ts(4))) == [ext(0, 2), ext(1, 3), ext(2, 4)]


def test_window_extents_tumbling_single():
    spec = WindowSpec(ts(5), ts(5), ts(5))
    assert list(window_extents(spec, ts(5))) == [ext(0, 5)]


def test_window_extents_initial_only():
    spec = WindowSpec(ts(2), ts(1), ts(0))
    assert list(window_extents(spec, ts(0))) == [ext(-2, 0)]


def test_window_extents_are_lazy(extents_built):
    # Nothing is built ahead: of a horizon 10^6 slides past the origin,
    # taking three extents builds those three alone.
    spec = WindowSpec(ts(2), ts(1), ts(0))
    extents = window_extents(spec, ts(10**6))
    assert extents_built == []
    assert list(islice(extents, 3)) == [ext(-2, 0), ext(-1, 1), ext(0, 2)]
    assert extents_built == [ts(0), ts(1), ts(2)]


def test_window_extents_requires_horizon_after_origin():
    with pytest.raises(ValueError):
        window_extents(WindowSpec(ts(2), ts(1), ts(5)), ts(4))


def test_window_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec(ts(1), ts(2), ts(0))  # slide wider than the window
    with pytest.raises(ValueError):
        WindowSpec(ts(0), ts(0), ts(0))


def test_window_extent_closed_bounds():
    e = ext(1, 3)
    assert e.contains(ts(1)) and e.contains(ts(3))
    assert not e.contains(ts("0.999999")) and not e.contains(ts("3.000001"))
    with pytest.raises(ValueError):
        ext(3, 1)


def test_window_abox_selects_closed_interval():
    stream = parse_stream("1 A(a)\n2 B(a)\n3 C(a)\n4 D(a)")
    got = window_abox(stream, ext(2, 3))
    assert got == {occ(catom("B", "a"), 2), occ(catom("C", "a"), 3)}


def test_occurrence_sort_key_orders_time_first():
    a = occ(catom("Z", "z"), 1)
    b = occ(catom("A", "a"), 2)
    assert sorted([b, a], key=lambda o: o.sort_key) == [a, b]


_names = st.sampled_from(["A", "B", "r", "s"])
_inds = st.sampled_from(["a", "b", "c"])
_atoms = st.one_of(st.builds(catom, _names, _inds), st.builds(ratom, _names, _inds, _inds))


def _field_key(atom):
    if isinstance(atom, ConceptAtom):
        return (atom.concept, atom.individual)
    return (atom.role, atom.subject, atom.obj)


@given(st.lists(_atoms, max_size=12))
def test_atoms_of_either_kind_sort_by_their_fields_and_never_meet(atoms):
    # Atoms are tuples, so they sort by themselves: the concept atom A(a)
    # and the role atom A(a,a) share a name and a first argument and must
    # still come out in field order, and never be equal.
    assert sorted(atoms) == sorted(atoms, key=_field_key)
    for c in atoms:
        for r in atoms:
            if isinstance(c, ConceptAtom) and isinstance(r, RoleAtom):
                assert c != r and r != c
    c, r = catom("A", "a"), ratom("A", "a", "a")
    assert c != r and len({c, r}) == 2 and sorted([r, c]) == [c, r]
