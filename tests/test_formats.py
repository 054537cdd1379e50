import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import graphs
from vertexnim import (
    Graph,
    GraphFormatError,
    complete_graph,
    edge_slots,
    from_edge_mask,
    from_graph6,
    load_graph,
    parse_graph,
    path_graph,
    serialize_graph,
    to_graph6,
)


class TestParseGraph:
    def test_path(self):
        assert parse_graph("3 2\n0 1\n1 2") == path_graph(3)

    def test_single_vertex(self):
        assert parse_graph("1 0") == Graph(1)

    def test_empty_graph(self):
        assert parse_graph("0 0") == Graph(0)

    def test_comments_and_blanks(self):
        text = "# a path\n\n3 2\n0 1\n# middle\n\n1 2\n"
        assert parse_graph(text) == path_graph(3)

    def test_self_loop_names_line(self):
        with pytest.raises(GraphFormatError, match="line 2: self-loop"):
            parse_graph("2 1\n0 0")

    def test_duplicate_edge_names_line(self):
        with pytest.raises(GraphFormatError, match="line 3: duplicate"):
            parse_graph("2 2\n0 1\n1 0")

    def test_vertex_out_of_range_names_line(self):
        with pytest.raises(GraphFormatError, match="line 2: vertex out of range"):
            parse_graph("2 1\n0 2")

    def test_malformed_header(self):
        with pytest.raises(GraphFormatError, match="line 1: expected header"):
            parse_graph("banana")

    def test_non_numeric_edge(self):
        with pytest.raises(GraphFormatError, match="line 2: expected edge"):
            parse_graph("2 1\na b")

    def test_missing_edges(self):
        with pytest.raises(GraphFormatError, match="declares 2 edges, found 1"):
            parse_graph("3 2\n0 1")

    def test_extra_edges(self):
        with pytest.raises(GraphFormatError, match="line 3: more than"):
            parse_graph("3 1\n0 1\n1 2")

    def test_empty_input(self):
        with pytest.raises(GraphFormatError, match="empty input"):
            parse_graph("   \n# nothing\n")

    def test_vertex_limit(self):
        assert parse_graph("255 0\n") == Graph(255)
        with pytest.raises(GraphFormatError, match="line 2: 256 vertices exceed"):
            parse_graph("# big\n256 0\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("banana", "line 1: expected header 'n m', got 'banana'"),
            ("\n 3 2 1 \n", "line 2: expected header 'n m', got '3 2 1'"),
            ("# c\n\tx\t2\t\n", "line 2: expected header 'n m', got 'x\\t2'"),
            ("3 -1\n", "line 1: negative count in header"),
            ("# big\n256 0\n", "line 2: 256 vertices exceed the limit of 255"),
            ("3 1\n0 1\n1 2", "line 3: more than the 1 edges declared in the header"),
            ("2 1\n a b \n", "line 2: expected edge 'u v', got 'a b'"),
            ("3 1\n0 1 2\n", "line 2: expected edge 'u v', got '0 1 2'"),
            ("3 1\n 0 1 # c\n", "line 2: expected edge 'u v', got '0 1 # c'"),
            ("3 1\n  7\n", "line 2: expected edge 'u v', got '7'"),
            ("2 1\n0 2", "line 2: vertex out of range 0..1 in edge (0, 2)"),
            ("2 1\n-1 0", "line 2: vertex out of range 0..1 in edge (-1, 0)"),
            ("2 1\n0 0", "line 2: self-loop at vertex 0"),
            ("2 2\n0 1\n  # c\n1 0", "line 4: duplicate edge (1, 0)"),
            ("   \n# nothing\n", "line 1: empty input, expected header 'n m'"),
            ("", "line 1: empty input, expected header 'n m'"),
            ("# c\n3 2\n0 1", "line 2: header declares 2 edges, found 1"),
        ],
    )
    def test_error_messages_are_pinned(self, text, message):
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        assert str(info.value) == message

    def test_huge_header_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(GraphFormatError, match="limit of 255"):
                parse_graph("1000000000 0\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@given(graphs(max_n=8))
def test_edge_list_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


class TestGraph6:
    # K3 and K4 are standard fixtures for the encoding
    def test_known_strings(self):
        assert to_graph6(complete_graph(3)) == "Bw"
        assert to_graph6(complete_graph(4)) == "C~"
        assert to_graph6(path_graph(4)) == "Ch"
        assert to_graph6(Graph(1)) == "@"
        assert to_graph6(Graph(0)) == "?"

    def test_encode_refuses_more_vertices_than_the_long_form_holds(self):
        with pytest.raises(ValueError) as info:
            to_graph6(Graph(258048))
        assert str(info.value) == "graph6 encoding for n=258048 not supported (max 258047)"

    def test_decode_known_strings(self):
        assert from_graph6("Bw") == complete_graph(3)
        assert from_graph6("Ch") == path_graph(4)

    def test_header_tolerated(self):
        assert from_graph6(">>graph6<<Bw") == complete_graph(3)

    def test_sparse6_rejected(self):
        with pytest.raises(GraphFormatError, match="sparse6"):
            from_graph6(":Fa@x^")

    def test_digraph6_rejected(self):
        with pytest.raises(GraphFormatError, match="digraph6"):
            from_graph6("&B\\o")

    def test_bad_character(self):
        with pytest.raises(GraphFormatError, match="invalid graph6 character"):
            from_graph6("B w")

    def test_wrong_length(self):
        with pytest.raises(GraphFormatError, match="expected"):
            from_graph6("Bww")

    def test_nonzero_padding(self):
        # n=3 has 3 slot bits; the low 3 bits of the body must be zero
        with pytest.raises(GraphFormatError, match="padding"):
            from_graph6("B" + chr(63 + 0b000111))

    def test_empty(self):
        with pytest.raises(GraphFormatError, match="empty"):
            from_graph6("   ")

    def test_long_form_round_trip(self):
        g = path_graph(70)
        encoded = to_graph6(g)
        assert encoded.startswith("~")
        assert from_graph6(encoded) == g

    def test_vertex_limit(self):
        assert from_graph6(to_graph6(Graph(255))) == Graph(255)
        with pytest.raises(GraphFormatError, match="count 256 exceeds the limit"):
            from_graph6(to_graph6(Graph(256)))

    def test_comment_before_graph6(self):
        assert from_graph6("# comment\n\nCh\n") == path_graph(4)

    @given(graphs(max_n=8))
    def test_round_trip(self, g):
        assert from_graph6(to_graph6(g)) == g

    @pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64, 255])
    @pytest.mark.parametrize("p", [0.05, 0.5, 0.95])
    def test_round_trip_seeded(self, n, p):
        rng = random.Random(n * 100 + int(p * 100))
        mask = sum(1 << s for s in range(n * (n - 1) // 2) if rng.random() < p)
        g = from_edge_mask(n, mask)
        encoded = to_graph6(g)
        # from 63 vertices up the count takes the long form
        assert encoded.startswith("~") == (n >= 63)
        assert from_graph6(encoded) == g

    @pytest.mark.parametrize(
        "text, message",
        [
            ("B w", "invalid graph6 character ' '"),
            ("A\x7f", "invalid graph6 character '\\x7f'"),
            ("Bww", "graph6 body has 2 characters, expected 1 for n=3"),
            ("~?@B", "graph6 body has 0 characters, expected 369 for n=67"),
            ("B" + chr(63 + 0b000111), "nonzero padding bits in graph6 body"),
            ("A" + chr(63 + 0b000001), "nonzero padding bits in graph6 body"),
            (":Fa@x^", "sparse6 input is not supported"),
            (";Fa@x^", "sparse6 input is not supported"),
            ("&B\\o", "digraph6 input is not supported"),
            ("~~??????", "graph6 vertex counts above 258047 not supported"),
            ("~??", "truncated graph6 vertex count"),
        ],
    )
    def test_refusal_messages_are_pinned(self, text, message):
        with pytest.raises(GraphFormatError) as info:
            from_graph6(text)
        assert str(info.value) == message

    def test_large_decodes_leave_nothing_cached(self):
        rng = random.Random(255)
        strings = [
            to_graph6(from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2)))
            for n in range(200, 256)
        ]
        # building the strings may have cached these sizes' slot tables
        edge_slots.cache_clear()
        for s in strings:
            from_graph6(s)
        assert edge_slots.cache_info().currsize == 0


class TestGraph6Interop:
    def test_matches_reference_encoder(self):
        nx = pytest.importorskip("networkx")
        import random

        rng = random.Random(0)
        for _ in range(100):
            n = rng.randint(0, 12)
            mask = rng.randrange(1 << (n * (n - 1) // 2)) if n > 1 else 0
            from vertexnim import from_edge_mask

            g = from_edge_mask(n, mask)
            ref_graph = nx.Graph()
            ref_graph.add_nodes_from(range(n))
            ref_graph.add_edges_from(g.edges())
            ref = nx.to_graph6_bytes(ref_graph, header=False).decode().strip()
            assert to_graph6(g) == ref
            assert from_graph6(ref) == g


class TestLoadGraph:
    def test_sniffs_edge_list(self):
        assert load_graph("3 2\n0 1\n1 2") == path_graph(3)

    def test_sniffs_graph6(self):
        assert load_graph("Bw\n") == complete_graph(3)

    def test_sniffs_graph6_after_comment(self):
        assert load_graph("# comment\nCh\n") == path_graph(4)

    def test_empty(self):
        with pytest.raises(GraphFormatError):
            load_graph("")
