import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import box, catom, ext, occ, ratom, ts
from rlwindow.errors import OutOfOrder, ParseError
from rlwindow.stream import (MICROS, Timestamp, WindowExtent, WindowSpec,
                             parse_atom, parse_stream, window_abox,
                             window_extents)


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
    for bad in ["", "1.2345678", "1e3", "..", "1.", "one"]:
        with pytest.raises(ParseError):
            Timestamp.parse(bad)


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


def test_parse_atom_rejects_bad_arity():
    with pytest.raises(ParseError):
        parse_atom("R(a,b,c)")
    with pytest.raises(ParseError):
        parse_atom("A()")
    with pytest.raises(ParseError):
        parse_atom("A(a")


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
    boxes = parse_stream("# header\n\n1 A(a)  # trailing\n")
    assert boxes == [box(1, catom("A", "a"))]


def test_parse_stream_rejects_malformed_lines():
    with pytest.raises(ParseError) as e:
        parse_stream("1 A(a)\nnonsense\n")
    assert e.value.line == 2


# -- windows -----------------------------------------------------------------

def test_window_extents_sliding():
    spec = WindowSpec(ts(2), ts(1), ts(2))
    assert window_extents(spec, ts(4)) == [ext(0, 2), ext(1, 3), ext(2, 4)]


def test_window_extents_tumbling_single():
    spec = WindowSpec(ts(5), ts(5), ts(5))
    assert window_extents(spec, ts(5)) == [ext(0, 5)]


def test_window_extents_initial_only():
    spec = WindowSpec(ts(2), ts(1), ts(0))
    assert window_extents(spec, ts(0)) == [ext(-2, 0)]


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
