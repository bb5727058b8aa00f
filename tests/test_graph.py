"""Graph construction, edge-list ingestion, and DAG utilities."""

import copy
import io
import json
import math
import pickle
from decimal import Decimal
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mrsplit.ensembles import random_connected_dag, random_connected_graph
from mrsplit.graph import (
    Graph,
    GraphError,
    disjoint_union,
    graph_from_pairs,
    in_degrees,
    is_dag,
    _loaded_graph,
    load_edge_list,
    longest_path_length,
    out_degrees,
    reverse,
)


def chain(n):
    return graph_from_pairs(n, [(i, i + 1) for i in range(n - 1)])


def arcs(g):
    """The arcs of g as (src, dst, weight) tuples, in arc order."""
    return list(zip(g.src.tolist(), g.dst.tolist(), g.w.tolist()))


def pairs(g):
    return {(s, d) for s, d, _ in arcs(g)}


class TestGraphInvariants:
    def test_rejects_negative_node_count(self):
        with pytest.raises(GraphError):
            graph_from_pairs(-1, [])

    @pytest.mark.parametrize(
        "n, name",
        [(2.5, "float"), (3.0, "float"), (np.float64(3.0), "float64"), ("3", "str"),
         (None, "NoneType"), (True, "bool"), (np.True_, "bool")],
    )
    def test_rejects_non_integer_node_count(self, n, name):
        # Accepted, n=2.5 would fail later in order_degree with a TypeError,
        # and n=3.0 would compare equal to the graph with n=3.
        with pytest.raises(GraphError, match=f"node count must be an integer, not {name}$"):
            Graph(n=n, src=[0], dst=[1], w=[1.0])

    @pytest.mark.parametrize("n", [3, np.int64(3), np.int32(3), np.uint8(3), np.intp(3)])
    def test_integer_node_count_is_stored_as_int(self, n):
        g = Graph(n=n, src=[0], dst=[1], w=[1.0])
        assert type(g.n) is int and g.n == 3
        assert g == Graph(n=3, src=[0], dst=[1], w=[1.0])
        assert hash(g) == hash(Graph(n=3, src=[0], dst=[1], w=[1.0]))
        assert type(copy.deepcopy(g).n) is int

    def test_rejects_out_of_range_index(self):
        with pytest.raises(GraphError, match="out of range"):
            graph_from_pairs(2, [(0, 2, 1.0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError, match="duplicate"):
            graph_from_pairs(2, [(0, 1, 1.0), (0, 1, 2.0)])

    def test_self_loops_permitted(self):
        g = graph_from_pairs(1, [(0, 0, 1.0)])
        assert arcs(g) == [(0, 0, 1.0)]

    def test_empty_graph(self):
        g = graph_from_pairs(0, [])
        assert g.num_edges == 0
        assert Graph(n=2, src=np.array([]), dst=np.array([]), w=[]).num_edges == 0

    def test_list_and_array_construction_agree(self):
        listed = Graph(n=3, src=[0, 1, 2], dst=[1, 2, 0], w=[1.0, 0.5, 2.0])
        arrays = Graph(
            n=3,
            src=np.array([0, 1, 2]),
            dst=np.array([1, 2, 0], dtype=np.int32),
            w=np.array([1.0, 0.5, 2.0]),
        )
        narrow = Graph(
            n=3,
            src=np.array([0, 1, 2], dtype=np.uint8),
            dst=np.array([1, 2, 0], dtype=np.int8),
            w=[1.0, 0.5, 2.0],
        )
        paired = graph_from_pairs(3, [(0, 1), (1, 2, 0.5), (2, 0, 2.0)])
        assert listed == arrays == narrow == paired
        assert hash(listed) == hash(arrays) == hash(narrow) == hash(paired)
        assert listed != graph_from_pairs(3, [(0, 1), (1, 2, 0.5), (2, 0, 3.0)])
        assert listed != graph_from_pairs(3, [(1, 2, 0.5), (0, 1), (2, 0, 2.0)])
        assert listed != Graph(n=4, src=[0, 1, 2], dst=[1, 2, 0], w=[1.0, 0.5, 2.0])
        assert listed != Graph(
            n=3, src=[0, 1, 2], dst=[1, 2, 0], w=[1.0, 0.5, 2.0], undirected=True
        )

    def test_arrays_are_read_only_copies(self):
        src = np.array([0, 1])
        g = Graph(n=2, src=src, dst=[1, 0], w=[1.0, 1.0])
        src[0] = 1
        assert g.src.tolist() == [0, 1]
        assert (g.src.dtype, g.dst.dtype, g.w.dtype) == (np.int64, np.int64, np.float64)
        for arr in (g.src, g.dst, g.w):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    @pytest.mark.parametrize(
        "copy_of", [lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy]
    )
    def test_copies_are_checked_and_read_only(self, copy_of):
        g = Graph(n=3, src=[0, 1], dst=[1, 2], w=[1.0, 0.5], undirected=True)
        h = copy_of(g)
        assert h == g
        for arr in (h.src, h.dst, h.w):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        # A graph that skipped its checks is checked when it is copied.
        bad = object.__new__(Graph)
        for name, value in (("n", 2), ("src", np.array([0, 0])), ("dst", np.array([1, 1])),
                            ("w", np.ones(2)), ("undirected", False)):
            object.__setattr__(bad, name, value)
        with pytest.raises(GraphError, match=r"duplicate edge \(0, 1\)"):
            copy_of(bad)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(GraphError, match="same length"):
            Graph(n=2, src=[0, 1], dst=[1], w=[1.0, 1.0])

    @pytest.mark.parametrize(
        "src, dst, name",
        [
            ([0.9, 1.5], [1, 2], "src"),
            ([0, 1], [1.2, 2.7], "dst"),
            (np.array([0.0, 1.0]), [1, 2], "src"),
            (np.array([np.nan, 0.0]), [1, 2], "src"),
            ([0, 1], [math.nan, 2], "dst"),
            ([True, 0], [1, 2], "src"),
            (np.array([0, 1]), np.array([True, False]), "dst"),
            ([0, np.float32(1.0)], [1, 2], "src"),
            ([Fraction(3, 2), 0], [1, 2], "src"),
            ([0, 1], [Decimal("1.5"), 2], "dst"),
            (["2", 0], [1, 2], "src"),
            ([0, 1], [b"2", 2], "dst"),
            ([np.bool_(True), 0], [1, 2], "src"),
        ],
    )
    def test_rejects_non_integer_indices(self, src, dst, name):
        # A cast would truncate 0.9 or Fraction(3, 2) to 0 or 1, wrap NaN to
        # -2**63, read a bool as 0 or 1 and parse "2" as node 2.
        with pytest.raises(GraphError, match=f"^{name} must hold integer indices, not "):
            Graph(n=3, src=src, dst=dst, w=[1.0, 1.0])

    def test_accepts_python_and_numpy_integer_indices(self):
        g = Graph(
            n=3, src=[0, np.int8(1), np.uint64(2)], dst=[1, 2, 0], w=[1, np.float32(0.5), 2.0]
        )
        assert arcs(g) == [(0, 1, 1.0), (1, 2, 0.5), (2, 0, 2.0)]

    @pytest.mark.parametrize(
        "w, types",
        [
            ([1.0, None], "NoneType"),
            (["2.5", 1.0], "str"),
            ([True, 1.0], "bool"),
            (np.array([True, False]), "bool"),
            ([Decimal("1.5"), Fraction(1, 2)], "Decimal, Fraction"),
        ],
    )
    def test_rejects_non_number_weights(self, w, types):
        # A cast would read None as NaN, "2.5" as 2.5 and True as 1.0.
        with pytest.raises(GraphError, match=f"^w must hold int or float weights, not {types}$"):
            Graph(n=3, src=[0, 1], dst=[1, 2], w=w)
        with pytest.raises(GraphError, match=f"^w must hold int or float weights, not {types}$"):
            graph_from_pairs(3, [(0, 1, w[0]), (1, 2, w[1])])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_weights(self, bad):
        for w in ([1.0, bad, 2.0], np.array([1.0, bad, 2.0])):
            with pytest.raises(GraphError, match=r"^edge \(1, 2\) has non-finite weight") as info:
                Graph(n=3, src=[0, 1, 2], dst=[1, 2, 0], w=w)
            assert info.value.arc == 1

    @pytest.mark.parametrize(
        "n, arc_list, message",
        [
            (2, [(0, 1), (0, 5), (0, 1)], r"edge \(0, 5\) out of range"),
            (2, [(0, 1), (0, 1), (0, 5)], r"duplicate edge \(0, 1\)"),
            (3, [(0, 7), (9, 0)], r"edge \(0, 7\) out of range"),
            (3, [(-1, 0), (0, 7)], r"edge \(-1, 0\) out of range"),
            (3, [(1, 0), (0, 1), (0, 1), (1, 0)], r"duplicate edge \(0, 1\)"),
            (3, [(1, 0), (0, 1), (1, 0), (0, 1)], r"duplicate edge \(1, 0\)"),
            # (0, 2) and (1, 0) share the key src * n + dst at n = 2.
            (2, [(0, 2), (1, 0)], r"edge \(0, 2\) out of range"),
        ],
    )
    def test_error_names_first_offending_arc(self, n, arc_list, message):
        with pytest.raises(GraphError, match=message):
            graph_from_pairs(n, arc_list)


class TestLoadEdgeList:
    def test_tsv_basic(self):
        g = load_edge_list(io.StringIO("0\t1\n1\t2\n"))
        assert g.n == 3
        assert pairs(g) == {(0, 1), (1, 2)}

    def test_tsv_empty_with_header(self):
        g = load_edge_list(io.StringIO("#n=4\n"))
        assert g.n == 4
        assert arcs(g) == []

    def test_tsv_duplicate_reports_line(self):
        with pytest.raises(GraphError, match="line 2"):
            load_edge_list(io.StringIO("0\t1\n0\t1\n"))

    def test_undirected_reverse_arc_reports_position(self):
        with pytest.raises(GraphError, match=r"line 3: duplicate edge \(1, 0\)"):
            load_edge_list(io.StringIO("0\t1\n1\t2\n1\t0\n"), undirected=True)
        with pytest.raises(GraphError, match=r"edge #2: duplicate edge \(1, 0\)"):
            load_edge_list(
                io.StringIO('{"edges": [[0, 1], [1, 2], [1, 0]], "undirected": true}'),
                format="json",
            )

    def test_undirected_expansion_order(self):
        g = load_edge_list(io.StringIO("0\t1\t2.0\n2\t2\n1\t2\n"), undirected=True)
        assert arcs(g) == [(0, 1, 2.0), (1, 0, 2.0), (2, 2, 1.0), (1, 2, 1.0), (2, 1, 1.0)]

    @pytest.mark.parametrize(
        "text, format",
        [
            ('{"n": 2147483648, "edges": []}', "json"),
            ('{"n": 1180591620717411303424, "edges": [[0, 1]]}', "json"),
            ("0\t99999999999999999999999\n", "tsv"),
        ],
    )
    def test_rejects_node_count_too_large_for_arc_keys(self, text, format):
        with pytest.raises(GraphError, match="node count"):
            load_edge_list(io.StringIO(text), format=format)

    def test_tsv_malformed_reports_line(self):
        with pytest.raises(GraphError, match="line 2"):
            load_edge_list(io.StringIO("0\t1\nnope\tx\n"))

    def test_tsv_weight_column(self):
        g = load_edge_list(io.StringIO("0\t1\t2.5\n"))
        assert arcs(g) == [(0, 1, 2.5)]

    def test_tsv_out_of_declared_range(self):
        with pytest.raises(GraphError, match="declared range"):
            load_edge_list(io.StringIO("#n=2\n0\t5\n"))

    def test_tsv_bytes_stream(self):
        g = load_edge_list(io.BytesIO(b"0\t1\n"))
        assert g.n == 2

    def test_tsv_undirected_expands(self):
        g = load_edge_list(io.StringIO("0\t1\n"), undirected=True)
        assert pairs(g) == {(0, 1), (1, 0)}
        assert g.undirected

    def test_json_basic(self):
        g = load_edge_list(
            io.StringIO('{"n": 3, "edges": [[0, 1], [1, 2, 0.5]]}'),
            format="json",
        )
        assert g.n == 3
        assert arcs(g) == [(0, 1, 1.0), (1, 2, 0.5)]

    def test_json_undirected_flag_in_payload(self):
        g = load_edge_list(
            io.StringIO('{"edges": [[0, 1]], "undirected": true}'),
            format="json",
        )
        assert pairs(g) == {(0, 1), (1, 0)}

    def test_json_malformed(self):
        with pytest.raises(GraphError, match="malformed JSON"):
            load_edge_list(io.StringIO("{"), format="json")

    def test_json_out_of_declared_range(self):
        with pytest.raises(GraphError):
            load_edge_list(
                io.StringIO('{"n": 1, "edges": [[0, 1]]}'), format="json"
            )

    def test_json_out_of_range_names_its_edge(self):
        with pytest.raises(GraphError) as info:
            load_edge_list(io.StringIO('{"n": 1, "edges": [[0, 1]]}'), format="json")
        assert str(info.value) == "edge #0: edge (0, 1) out of range for n=1"
        # Arc 3 of the expansion, after edge #1's self-loop, is edge #2's.
        payload = '{"n": 2, "undirected": true, "edges": [[0, 1], [1, 1], [0, 2]]}'
        with pytest.raises(GraphError) as info:
            load_edge_list(io.StringIO(payload), format="json")
        assert str(info.value) == "edge #2: edge (0, 2) out of range for n=2"

    def test_parse_fault_reported_before_earlier_duplicate(self):
        with pytest.raises(GraphError) as info:
            load_edge_list(io.StringIO("0\t1\n0\t1\nbad\n"))
        assert str(info.value) == "line 3: expected 2 or 3 fields, got 1"

    @pytest.mark.parametrize("index", [10**30, -(10**30), 2**63])
    @pytest.mark.parametrize("undirected", [False, True])
    @pytest.mark.parametrize("position", [0, 1])
    def test_json_index_beyond_int64_with_declared_n(self, index, undirected, position):
        edge = [0, index] if position else [index, 0]
        payload = json.dumps({"n": 5, "edges": [[0, 1], edge]})
        with pytest.raises(GraphError) as info:
            load_edge_list(io.StringIO(payload), format="json", undirected=undirected)
        assert str(info.value) == (
            "arcs do not fit int64/float64 arrays: Python int too large to convert to C long"
        )

    @pytest.mark.parametrize("format", ["tsv", "json"])
    def test_invalid_utf8_is_a_graph_error_naming_its_line(self, format):
        with pytest.raises(GraphError, match=r"^line 2: invalid UTF-8"):
            load_edge_list(io.BytesIO(b"0\t1\n\xff\t2\n"), format=format)

    def test_invalid_utf8_reported_before_any_other_fault(self):
        with pytest.raises(GraphError, match=r"^line 3: invalid UTF-8"):
            load_edge_list(io.BytesIO(b"bad\n0\t1\n0\t1\xff\n"))

    @pytest.mark.parametrize("weight", ['"2.5"', "true", "false", "null", "[1]"])
    def test_json_weight_must_be_a_number(self, weight):
        payload = '{"edges": [[0, 1, 1.5], [1, 2, ' + weight + "]]}"
        with pytest.raises(GraphError) as info:
            load_edge_list(io.StringIO(payload), format="json")
        assert str(info.value) == f"edge #1: malformed weight {json.loads(weight)!r}"

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_json_integer_weight_beyond_float64_is_not_finite(self, sign):
        payload = '{"edges": [[0, 1, ' + sign + "9" * 400 + "]]}"
        with pytest.raises(GraphError) as info:
            load_edge_list(io.StringIO(payload), format="json")
        assert str(info.value) == f"edge #0: non-finite weight {sign}inf"

    @pytest.mark.parametrize(
        "payload",
        ["[" * 10_000 + "]" * 10_000, '{"edges": ' + "[" * 10_000 + "]" * 10_000 + "}"],
        ids=["nested-10000", "nested-edges-10000"],
    )
    def test_json_the_parser_cannot_read_is_malformed(self, payload):
        with pytest.raises(GraphError, match="^malformed JSON graph: "):
            load_edge_list(io.StringIO(payload), format="json")

    def test_json_integer_and_float_weights_load_as_float64(self):
        payload = '{"edges": [[0, 1, 2], [1, 2, 0.5], [2, 0, -3]]}'
        g = load_edge_list(io.StringIO(payload), format="json")
        assert g.w.tolist() == [2.0, 0.5, -3.0]

    def test_undirected_node_count_checked_before_int64(self):
        with pytest.raises(GraphError, match="node count"):
            load_edge_list(io.StringIO("0\t99999999999999999999999\n"), undirected=True)

    def test_unknown_format(self):
        with pytest.raises(GraphError):
            load_edge_list(io.StringIO(""), format="csv")

    @pytest.mark.parametrize("text", ["0\t1\tnan\n", "0\t1\tinf\n", "0\t1\t-inf\n"])
    def test_tsv_rejects_non_finite_weight(self, text):
        with pytest.raises(GraphError, match="non-finite"):
            load_edge_list(io.StringIO(text))

    @pytest.mark.parametrize(
        "payload, undirected",
        [
            ('{"edges": [[0, 1, NaN]]}', False),
            ('{"edges": [[0, 1, Infinity]]}', False),
            ('{"edges": [[0, 1, null]]}', False),
            ('{"edges": [[0, 1.7]]}', False),
            ('{"edges": [[true, 0]]}', False),
            ('{"n": 2.5, "edges": [[0, 1]]}', False),
            ('{"n": true, "edges": [[0, 0]]}', False),
            ('{"edges": 3}', False),
            ('{"edges": [[0, 1]], "undirected": "yes"}', False),
            ('{"edges": [[0, 1]], "undirected": 1}', False),
            ('{"edges": [[0, 1]], "undirected": false}', True),
        ],
    )
    def test_json_rejects_malformed_values(self, payload, undirected):
        with pytest.raises(GraphError):
            load_edge_list(io.StringIO(payload), format="json", undirected=undirected)


class TestReverse:
    def test_chain(self):
        g = reverse(chain(3))
        assert pairs(g) == {(1, 0), (2, 1)}

    def test_empty(self):
        assert reverse(graph_from_pairs(0, [])).n == 0

    def test_involution(self):
        g = graph_from_pairs(4, [(0, 1), (2, 1), (3, 0)], undirected=False)
        assert reverse(reverse(g)) == g


class TestDisjointUnion:
    def test_offsets_each_part_s_nodes_and_keeps_arc_order(self):
        first = graph_from_pairs(3, [(0, 1, 2.0), (2, 1, -1.0), (1, 1, 0.5)])
        lone = graph_from_pairs(1, [])
        last = chain(4)
        g = disjoint_union([first, lone, last, first])
        assert g.n == 3 + 1 + 4 + 3
        want = arcs(first) + [(s + 4, d + 4, w) for s, d, w in arcs(last)]
        want += [(s + 8, d + 8, w) for s, d, w in arcs(first)]
        assert arcs(g) == want
        assert g.src.dtype == g.dst.dtype == np.int64 and g.w.dtype == np.float64

    def test_one_part_is_the_part(self):
        g = graph_from_pairs(3, [(0, 1), (1, 0)], undirected=True)
        assert disjoint_union([g]) == g

    def test_undirected_only_when_every_part_is(self):
        sym = graph_from_pairs(2, [(0, 1), (1, 0)], undirected=True)
        assert disjoint_union([sym, sym]).undirected
        assert not disjoint_union([sym, chain(2)]).undirected

    def test_no_parts_and_edgeless_parts(self):
        with pytest.raises(ValueError):
            disjoint_union([])
        g = disjoint_union([graph_from_pairs(0, []), graph_from_pairs(2, [])])
        assert g.n == 2 and g.num_edges == 0

    def test_is_dag_and_longest_path_of_the_parts(self):
        rng = np.random.default_rng(3)
        dags = [random_connected_dag(rng, int(rng.integers(2, 12))) for _ in range(6)]
        g = disjoint_union(dags)
        assert is_dag(g)[0]
        assert longest_path_length(g) == max(map(longest_path_length, dags))
        assert not is_dag(disjoint_union(dags + [graph_from_pairs(1, [(0, 0)])]))[0]


class TestIsDag:
    def test_chain_topo_order(self):
        assert is_dag(chain(3)) == (True, [0, 1, 2])

    def test_two_cycle(self):
        g = graph_from_pairs(2, [(0, 1), (1, 0)])
        assert is_dag(g) == (False, None)

    def test_bidirected_triangle(self):
        g = graph_from_pairs(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
        assert is_dag(g) == (False, None)

    def test_self_loop_counts_as_cycle(self):
        g = graph_from_pairs(1, [(0, 0)])
        assert is_dag(g)[0] is False

    def test_topo_order_respects_edges(self):
        g = graph_from_pairs(5, [(3, 1), (1, 4), (3, 0), (0, 4), (2, 4)])
        acyclic, order = is_dag(g)
        assert acyclic
        pos = {node: k for k, node in enumerate(order)}
        for src, dst, _ in arcs(g):
            assert pos[src] < pos[dst]

    def test_reverse_preserves_acyclicity(self):
        g = graph_from_pairs(4, [(0, 1), (1, 2), (0, 3)])
        assert is_dag(reverse(g))[0] == is_dag(g)[0]


class TestLongestPath:
    def test_chain(self):
        assert longest_path_length(chain(3)) == 2

    def test_edgeless(self):
        assert longest_path_length(graph_from_pairs(4, [])) == 0

    def test_diamond(self):
        g = graph_from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert longest_path_length(g) == 2

    def test_requires_dag(self):
        with pytest.raises(GraphError):
            longest_path_length(graph_from_pairs(2, [(0, 1), (1, 0)]))

    def test_matches_path_enumeration_on_random_dags(self):
        # Brute force: walk every directed path from every node.
        rng = np.random.default_rng(2024)
        for _ in range(50):
            g = random_connected_dag(rng, int(rng.integers(2, 16)))
            succ = {i: [d for s, d, _ in arcs(g) if s == i] for i in range(g.n)}

            def longest_from(node):
                return max((1 + longest_from(nxt) for nxt in succ[node]), default=0)

            assert longest_path_length(g) == max(longest_from(i) for i in range(g.n))

    def test_order_is_the_lowest_index_first_topological_order(self):
        # At each step the order takes the lowest-index node all of whose
        # in-neighbors are already placed.
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_connected_dag(rng, int(rng.integers(2, 16)))
            acyclic, order = is_dag(g)
            assert acyclic
            placed: set[int] = set()
            for node in order:
                ready = [
                    i for i in range(g.n) if i not in placed
                    and all(s in placed for s, d, _ in arcs(g) if d == i)
                ]
                assert node == min(ready)
                placed.add(node)
            assert len(order) == g.n


class TestDegrees:
    def test_in_out_vectors(self):
        g = chain(3)
        assert list(in_degrees(g)) == [0, 1, 1]
        assert list(out_degrees(g)) == [1, 1, 0]


def reference_random_connected_graph(rng, n, extra_edges):
    """random_connected_graph with one integers() call per tree parent."""
    pairs = set()
    order = rng.permutation(n)
    for idx in range(1, n):
        a = int(order[idx])
        b = int(order[rng.integers(0, idx)])
        pairs.add((min(a, b), max(a, b)))
    attempts = 0
    target = len(pairs) + extra_edges
    while len(pairs) < target and attempts < 50 * (extra_edges + 1):
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a != b:
            pairs.add((min(a, b), max(a, b)))
        attempts += 1
    src, dst = [], []
    for a, b in sorted(pairs):
        src += [a, b]
        dst += [b, a]
    return Graph(n=n, src=src, dst=dst, w=np.ones(len(src)), undirected=True)


def reference_random_connected_dag(rng, n):
    """random_connected_dag as a random connected graph whose arcs are then
    kept along a random node permutation in a second Graph."""
    base = random_connected_graph(rng, n, extra_edges=max(1, n // 8))
    rank = rng.permutation(n)
    pos = np.empty(n, dtype=np.int64)
    pos[rank] = np.arange(n)
    keep = pos[base.src] < pos[base.dst]
    return Graph(n=n, src=base.src[keep], dst=base.dst[keep], w=base.w[keep])


class TestRandomConnectedDag:
    @settings(max_examples=200)
    @given(st.integers(0, 2**32), st.integers(1, 60))
    def test_equals_the_two_graph_build_and_leaves_the_same_generator_state(self, seed, n):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert random_connected_dag(rng, n) == reference_random_connected_dag(ref_rng, n)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("seed", range(4))
    def test_a_run_of_draws_from_one_generator(self, seed):
        # The verify suites draw many DAGs from one generator in turn.
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in (1, 2, 6, 24, 5, 20, 100):
            assert random_connected_dag(rng, n) == reference_random_connected_dag(ref_rng, n)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestRandomConnectedGraph:
    @settings(max_examples=200)
    @given(st.integers(0, 2**32), st.integers(1, 40), st.integers(0, 45))
    def test_equals_scalar_loop_and_leaves_the_same_generator_state(self, seed, n, extra):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert random_connected_graph(rng, n, extra) == reference_random_connected_graph(
            ref_rng, n, extra
        )
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("n, extra", [(1, 3), (2, 5), (3, 4), (4, 30), (6, 40)])
    @pytest.mark.parametrize("seed", range(5))
    def test_attempt_cap_when_extra_edges_exceed_the_free_pairs(self, n, extra, seed):
        # The tree leaves fewer than `extra` free pairs, so both loops stop at
        # the attempt cap of 50 * (extra + 1) draws, not at the edge target.
        assert n * (n - 1) // 2 - (n - 1) < extra
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert random_connected_graph(rng, n, extra) == reference_random_connected_graph(
            ref_rng, n, extra
        )
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def reference_load_edge_list(source, format="tsv", undirected=False):
    """The loader as it was before Graph became its only duplicate check: a
    dict from (src, dst) to weight, checked as each edge is parsed."""

    def add_arc(arcs, where, src, dst, weight, undirected):
        if (src, dst) in arcs:
            raise GraphError(f"{where}: duplicate edge ({src}, {dst})")
        arcs[(src, dst)] = weight
        if undirected and src != dst:
            arcs[(dst, src)] = weight

    def loaded_graph(arcs, n, undirected):
        src, dst = zip(*arcs) if arcs else ((), ())
        if n is None:
            n = 1 + max(src + dst, default=-1)
        return Graph(n=n, src=src, dst=dst, w=list(arcs.values()), undirected=undirected)

    def is_int(x):
        return isinstance(x, int) and not isinstance(x, bool)

    arcs = {}
    if format == "tsv":
        declared_n = None
        for lineno, line in enumerate(source, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if lineno == 1 and line.startswith("#n="):
                    try:
                        declared_n = int(line[3:])
                    except ValueError:
                        raise GraphError(f"line 1: malformed node count header {line!r}")
                    if declared_n < 0:
                        raise GraphError(f"line 1: negative node count {declared_n}")
                continue
            parts = line.split("\t")
            if len(parts) not in (2, 3):
                raise GraphError(f"line {lineno}: expected 2 or 3 fields, got {len(parts)}")
            try:
                src, dst = int(parts[0]), int(parts[1])
                weight = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError as exc:
                raise GraphError(f"line {lineno}: malformed edge {line!r}") from exc
            if not math.isfinite(weight):
                raise GraphError(f"line {lineno}: non-finite weight {parts[2]!r}")
            if src < 0 or dst < 0:
                raise GraphError(f"line {lineno}: negative node index")
            if declared_n is not None and (src >= declared_n or dst >= declared_n):
                raise GraphError(f"line {lineno}: index out of declared range n={declared_n}")
            add_arc(arcs, f"line {lineno}", src, dst, weight, undirected)
        return loaded_graph(arcs, declared_n, undirected)
    try:
        data = json.loads(source.read())
    except json.JSONDecodeError as exc:
        raise GraphError(f"malformed JSON graph: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("edges"), list):
        raise GraphError("JSON graph must be an object with an 'edges' list")
    file_undirected = data.get("undirected", undirected)
    if not isinstance(file_undirected, bool):
        raise GraphError("JSON 'undirected' must be true or false")
    if undirected and not file_undirected:
        raise GraphError("JSON graph says undirected=false but undirected was requested")
    for k, item in enumerate(data["edges"]):
        if not isinstance(item, (list, tuple)) or len(item) not in (2, 3):
            raise GraphError(f"edge #{k}: expected [src, dst] or [src, dst, weight]")
        src, dst = item[0], item[1]
        if not (is_int(src) and is_int(dst)):
            raise GraphError(f"edge #{k}: node indices must be integers")
        try:
            weight = float(item[2]) if len(item) == 3 else 1.0
        except (TypeError, ValueError) as exc:
            raise GraphError(f"edge #{k}: malformed weight {item[2]!r}") from exc
        if not math.isfinite(weight):
            raise GraphError(f"edge #{k}: non-finite weight {weight!r}")
        add_arc(arcs, f"edge #{k}", src, dst, weight, file_undirected)
    n = data.get("n")
    if "n" in data and not is_int(n):
        raise GraphError("JSON 'n' must be an integer")
    return loaded_graph(arcs, n, file_undirected)


# Items that each hold one parsing fault, and lines that hold no edge.
BAD_TSV_LINES = ["0\t1\t2\t3", "a\tb", "0\t1\tinf", "7"]
BAD_JSON_EDGES = [[0], [0, 1.5], [0, 1, "x"], [0, 1, None], [0, 1, math.inf]]
SKIPPED_TSV_LINES = ["", "  ", "# comment", "#n=1"]


@st.composite
def edge_list_inputs(draw):
    """(text, format, undirected, faults, range_edge) for a small edge list.

    faults counts the faults in the input: parsing faults, duplicates and
    out-of-range indices. range_edge is k when the one fault is JSON edge
    #k out of range, which only load_edge_list names, else None.
    """
    fmt = draw(st.sampled_from(["tsv", "json"]))
    undirected = draw(st.booleans())
    index = st.sampled_from([-1] + list(range(8)) * 3)  # -1 is a rare fault
    edge = st.tuples(
        index, index, st.one_of(st.none(), st.sampled_from([0.5, 2.0, -1.0]))
    )
    bad = st.sampled_from(BAD_TSV_LINES if fmt == "tsv" else BAD_JSON_EDGES)
    kinds = [edge, edge, edge, bad.map(lambda b: ("bad", b))]
    if fmt == "tsv":
        kinds.append(st.sampled_from(SKIPPED_TSV_LINES).map(lambda x: ("skip", x)))
    items = draw(st.lists(st.one_of(kinds), max_size=6))
    declared = draw(st.sampled_from([None] * 5 + list(range(10)) + ["x", -2]))
    if declared is None and items[:1] == [("skip", "#n=1")]:
        items[0] = ("skip", "# comment")  # on line 1 it would be a header
    flag = draw(st.sampled_from([None, False, True])) if fmt == "json" else None

    faults, range_edge = 0, None
    if declared in ("x", -2):
        faults += 1
    if undirected and flag is False:
        faults += 1
    effective = undirected if flag is None else flag
    if isinstance(declared, int):
        n = declared
    else:
        n = 1 + max((max(item[:2]) for item in items if len(item) == 3), default=-1)
    seen = set()
    for k, item in enumerate(items):
        if len(item) == 2:
            faults += item[0] == "bad"
            continue
        s, d, _ = item
        if min(s, d) < 0 or max(s, d) >= n:
            faults += 1
            range_edge = k
            if fmt == "tsv":
                continue  # a parsing fault in TSV, so never an arc
        faults += (s, d) in seen
        seen.update({(s, d), (d, s)} if effective else {(s, d)})
    if fmt == "tsv" or faults != 1:
        range_edge = None

    def edge_json(item):
        s, d, w = item
        return [s, d] if w is None else [s, d, w]

    def edge_line(item):
        s, d, w = item
        return f"{s}\t{d}" if w is None else f"{s}\t{d}\t{w!r}"

    if fmt == "tsv":
        lines = [] if declared is None else [f"#n={declared}"]
        lines += [item[1] if len(item) == 2 else edge_line(item) for item in items]
        text = "".join(line + "\n" for line in lines)
    else:
        obj = {"edges": [item[1] if len(item) == 2 else edge_json(item) for item in items]}
        if declared is not None:
            obj["n"] = declared
        if flag is not None:
            obj["undirected"] = flag
        text = json.dumps(obj)
    return text, fmt, undirected, faults, range_edge


def _outcome(loader, text, fmt, undirected):
    stream = io.BytesIO(text) if isinstance(text, bytes) else io.StringIO(text)
    try:
        return loader(stream, fmt, undirected), None
    except GraphError as exc:
        return None, str(exc)


@settings(max_examples=400, deadline=None)
@given(edge_list_inputs())
def test_loader_matches_dict_reference(case):
    text, fmt, undirected, faults, range_edge = case
    got, got_error = _outcome(load_edge_list, text, fmt, undirected)
    want, want_error = _outcome(reference_load_edge_list, text, fmt, undirected)
    if faults == 0:
        assert got_error is None and want_error is None
        assert got == want
        return
    assert got_error is not None and want_error is not None
    if faults == 1:
        prefix = "" if range_edge is None else f"edge #{range_edge}: "
        assert got_error == prefix + want_error


def reference_load_tsv(text: str, undirected: bool) -> Graph:
    """The TSV loader as one Python step per line, before the array pass."""
    src, dst, w, lines = [], [], [], []
    declared_n: Optional[int] = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if lineno == 1 and line.startswith("#n="):
                try:
                    declared_n = int(line[3:])
                except ValueError:
                    raise GraphError(f"line 1: malformed node count header {line!r}")
                if declared_n < 0:
                    raise GraphError(f"line 1: negative node count {declared_n}")
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise GraphError(f"line {lineno}: expected 2 or 3 fields, got {len(parts)}")
        try:
            s, d = int(parts[0]), int(parts[1])
            weight = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise GraphError(f"line {lineno}: malformed edge {line!r}") from exc
        if not math.isfinite(weight):
            raise GraphError(f"line {lineno}: non-finite weight {parts[2]!r}")
        if s < 0 or d < 0:
            raise GraphError(f"line {lineno}: negative node index")
        if declared_n is not None and (s >= declared_n or d >= declared_n):
            raise GraphError(
                f"line {lineno}: index out of declared range n={declared_n}"
            )
        src.append(s)
        dst.append(d)
        w.append(weight)
        lines.append(lineno)
    return _loaded_graph(src, dst, w, declared_n, undirected, lambda k: f"line {lines[k]}")


# Tokens and lines for tsv_texts. The BAD_ lists hold parse faults; the
# others parse. Plain indices are the ones the array pass reads, odd ones
# int() reads but the array pass leaves to the per-line parse (sign,
# underscore, Arabic-Indic and fullwidth digits, a 19-digit 2, a space),
# and long ones (18, 19 and 25 digits) are beyond any node count.
PLAIN_INDICES = [str(k) for k in range(30)] + ["007", "0" * 17 + "4"]
ODD_INDICES = ["+3", "-0", "1_0", "\u0663", "\uff11", "0" * 18 + "2", " 2"]
LONG_INDICES = ["9" * 18, "1" + "0" * 18, "9" * 19, "9" * 25]
BAD_INDICES = ["-1", "x", ""]
WEIGHTS = ["0.5", "2", "-1.5", "+2", "1E3", ".5", "1_5.0", " 3 "]
BAD_WEIGHTS = ["inf", "-inf", "nan", "1e400", "0x1", "x", "\u00e9"]
HEADER_COUNTS = ["30", "64", " 40", "+40", "4_0", "3", "0"]
BAD_HEADER_COUNTS = ["x", "-2", "9" * 19]
OTHER_LINES = ["", "  ", "\t", "# comment", "#n=2", "\t1\t2", "1\t2\t\t"]
BAD_LINES = ["1", "1\t2\t3\t4"]


@st.composite
def tsv_texts(draw):
    """TSV text whose lines mix what the array pass reads with everything it
    leaves to the per-line parse. Half the texts draw no bad token or line,
    so that a wrong parse is not hidden behind a later fault; indices out of
    a declared range can still occur there, and long ones in a quarter."""
    bad = draw(st.booleans())
    long = draw(st.integers(0, 3)) == 0
    index = st.sampled_from(
        PLAIN_INDICES + ODD_INDICES * 2 + LONG_INDICES * long + BAD_INDICES * bad
    )
    weight = st.sampled_from([None] * 8 + WEIGHTS + BAD_WEIGHTS * bad)

    @st.composite
    def edge_line(draw):
        w = draw(weight)
        return "\t".join([draw(index), draw(index)] + ([] if w is None else [w]))

    header = st.sampled_from(HEADER_COUNTS + BAD_HEADER_COUNTS * bad).map(lambda c: f"#n={c}")
    others = st.sampled_from(OTHER_LINES + BAD_LINES * bad)
    lines = draw(st.lists(st.one_of([edge_line()] * 6 + [header, others]), max_size=10))
    if draw(st.booleans()):
        lines.insert(0, draw(header))
    lead = st.sampled_from(["", "", "", " "])
    trail = st.sampled_from(["", "", "", " ", "\r", " \r"])  # "\r" makes a "\r\n" ending
    text = "\n".join(draw(lead) + line + draw(trail) for line in lines)
    if draw(st.booleans()):
        text += "\n"  # else the last line ends without a newline
    if bad and draw(st.integers(0, 2)) == 0:
        text = "\ufeff" + text
    return text


@settings(max_examples=600, deadline=None)
@given(tsv_texts(), st.booleans())
@example("9" * 19 + "\t1\n", False)
@example("#n=30\n1\t" + "9" * 19 + "\n2\t3\n", False)
@example("0" * 18 + "7\t" + "9" * 18 + "\n", False)
@example("1\t2\t0.5\r\n3\t4\r\n+3\t1\t2\n5\t-0\t2\n", True)
def test_tsv_loader_matches_per_line_reference(text, undirected):
    def reference(source, fmt, undirected):
        return reference_load_tsv(source.read(), undirected)

    want = _outcome(reference, text, "tsv", undirected)
    assert _outcome(load_edge_list, text, "tsv", undirected) == want
    assert _outcome(load_edge_list, text.encode("utf-8"), "tsv", undirected) == want
