"""graph6 codec: frozen decodes, strict error handling, round trips."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_labeled_graphs, relabel
from test_connected_sets import graphs

from cographmean import canonical_graph, emit_graph6, from_edge_list, parse_graph6
from cographmean.enumeration import _graph_classes
from cographmean.errors import (
    MalformedHeader,
    OrderOutOfRange,
    TrailingGarbage,
    TruncatedBits,
)
from cographmean.graph import MAX_ORDER, Graph, _triangle_adj, _triangle_code


# values frozen by decoding the bit layout by hand:
# '@' is order 1; 'Bw' sets all three bits of order 3 (the triangle);
# 'Bg' is 101000, the path 0-1-2; 'C~' sets all six bits of order 4.
def test_frozen_decodes():
    assert parse_graph6("@") == from_edge_list(1, [])
    assert parse_graph6("Bw") == from_edge_list(3, [(0, 1), (0, 2), (1, 2)])
    assert parse_graph6("Bg") == from_edge_list(3, [(0, 1), (1, 2)])
    assert parse_graph6("C~") == from_edge_list(
        4, [(u, v) for u in range(4) for v in range(u + 1, 4)]
    )


def test_frozen_five_vertex_decode():
    # 0100101001 00 packs to bytes Q, c
    g = parse_graph6("DQc")
    assert sorted(g.edges()) == [(0, 2), (0, 4), (1, 3), (3, 4)]


def test_frozen_encodes():
    assert emit_graph6(from_edge_list(1, [])) == "@"
    assert emit_graph6(from_edge_list(3, [(0, 1), (1, 2)])) == "Bg"
    assert emit_graph6(from_edge_list(3, [(0, 1), (0, 2), (1, 2)])) == "Bw"


def test_extended_header_orders_63_and_64():
    for n in (63, 64):
        g = from_edge_list(n, [(i, i + 1) for i in range(n - 1)])
        text = emit_graph6(g)
        assert text.startswith("~")
        assert parse_graph6(text) == g


def test_header_errors():
    with pytest.raises(MalformedHeader):
        parse_graph6("")
    with pytest.raises(MalformedHeader):
        parse_graph6("\x1f")  # below the printable range
    with pytest.raises(MalformedHeader):
        parse_graph6("~?")  # extended header cut short
    with pytest.raises(OrderOutOfRange):
        parse_graph6("~~??????")  # the eight-byte header of order 0
    with pytest.raises(OrderOutOfRange):
        parse_graph6("?")  # order 0


def _eight_byte_header(n: int) -> str:
    return "~~" + "".join(chr(63 + (n >> k & 63)) for k in (30, 24, 18, 12, 6, 0))


def test_eight_byte_header_reads_like_the_shorter_forms():
    for n in (2, 63, 64):
        g = from_edge_list(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
        text = emit_graph6(g)
        body = text[1:] if n <= 62 else text[4:]
        assert parse_graph6(_eight_byte_header(n) + body) == g
    # the eight- and four-byte forms of the one-edge graph of order 2
    assert parse_graph6("~~?????A_") == parse_graph6("~??A_") == parse_graph6("A_")


def test_eight_byte_header_errors():
    for k in range(6):
        with pytest.raises(MalformedHeader, match="shorter than eight bytes"):
            parse_graph6("~~" + "?" * k)
    with pytest.raises(MalformedHeader, match="outside the graph6 range"):
        parse_graph6("~~???\x7f??")
    with pytest.raises(MalformedHeader, match="outside the graph6 range"):
        parse_graph6("~?\x1f?")
    assert _eight_byte_header(258048) == "~~???~??"
    with pytest.raises(OrderOutOfRange):
        parse_graph6("~~???~??")
    with pytest.raises(OrderOutOfRange):
        parse_graph6(_eight_byte_header(65) + "?" * 344)


def test_body_errors():
    with pytest.raises(TruncatedBits):
        parse_graph6("B")  # order 3 needs one data byte
    with pytest.raises(TruncatedBits):
        parse_graph6("D" + "Q")  # order 5 needs two
    with pytest.raises(TrailingGarbage):
        parse_graph6("BwW")  # extra byte
    with pytest.raises(TrailingGarbage):
        parse_graph6("Bx")  # 111001: nonzero padding bit
    with pytest.raises(TruncatedBits):
        parse_graph6("B\x05")  # body byte outside the printable range


def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return from_edge_list(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])


def test_triangle_code_round_trips_at_every_order():
    rng = random.Random(0x7C0DE)
    for n in range(1, MAX_ORDER + 1):
        for p in (0.1, 0.5, 0.9):
            g = _random_graph(rng, n, p)
            code = _triangle_code(n, g.adj)
            assert code >> n * (n - 1) // 2 == 0
            assert _triangle_adj(n, code) == g.adj


def test_nonzero_padding_is_rejected_at_every_padding_width():
    # n(n-1)/2 mod 6 is only ever 0, 1, 3 or 4, so the padding is 0, 5, 3 or 2 bits.
    rng = random.Random(0x9AD)
    widths = set()
    for n in range(1, MAX_ORDER + 1):
        nbits = n * (n - 1) // 2
        g = _random_graph(rng, n, 0.5)
        text = emit_graph6(g)
        assert parse_graph6(text) == g
        for bit in range(-nbits % 6):
            widths.add(nbits % 6)
            bad = text[:-1] + chr(63 + (ord(text[-1]) - 63 ^ 1 << bit))
            with pytest.raises(TrailingGarbage, match="nonzero padding bits"):
                parse_graph6(bad)
    assert widths == {1, 3, 4}


def test_round_trip_all_labeled_graphs_order_up_to_4():
    for n in range(1, 5):
        for g in all_labeled_graphs(n):
            assert parse_graph6(emit_graph6(g)) == g


@pytest.mark.parametrize("n", range(1, 7))
def test_round_trip_all_classes(n):
    for adj in _graph_classes(n):
        g = Graph(n, adj)
        assert parse_graph6(emit_graph6(g)) == g


# The canonical form of a sparse 14-vertex graph can take seconds: the
# search branches over every order of a tied independent prefix.
@settings(deadline=None, max_examples=50)
@given(st.data())
def test_round_trip_and_canonical_form_of_random_graphs(data):
    g = data.draw(graphs(st.integers(1, 14)))
    h = relabel(g, data.draw(st.permutations(range(g.order))))
    assert parse_graph6(emit_graph6(g)) == g
    c = canonical_graph(g)
    assert canonical_graph(h) == c
    assert canonical_graph(c) == c
    assert parse_graph6(emit_graph6(c)) == c
    assert c.degree_sequence() == g.degree_sequence()
