import itertools

import pytest

from jetfibers.cli import _an_graph, main
from jetfibers.d4 import d4_maximal_intersections
from jetfibers.graphs import (
    IntersectionGraph,
    build_graph,
    component_graph,
    isomorphic,
    resolution_graph,
    to_dot,
)


def test_build_path():
    g = build_graph(["Z1", "Z2", "Z3"], [("Z1", "Z2"), ("Z2", "Z3")])
    assert g.vertices == ("Z1", "Z2", "Z3")
    assert g.degree("Z2") == 2


def test_build_star():
    g = build_graph(["Z0", "Z1", "Z2", "Z3"], [("Z0", "Z1"), ("Z0", "Z2"), ("Z0", "Z3")])
    assert g.degree_multiset() == (1, 1, 1, 3)


def test_build_isolated_vertex():
    g = build_graph(["Z1"], [])
    assert g.vertices == ("Z1",) and not g.edges


def test_build_rejects_bad_edges():
    with pytest.raises(ValueError):
        build_graph(["Z1"], [("Z1", "Z1")])
    with pytest.raises(ValueError):
        build_graph(["Z1"], [("Z1", "Z9")])
    with pytest.raises(ValueError):
        build_graph(["Z1", "Z1"], [])


def test_edges_deduplicate():
    g = build_graph(["a", "b"], [("a", "b"), ("b", "a")])
    assert len(g.edges) == 1


def test_resolution_graphs():
    path = resolution_graph("An", 5)
    assert len(path.vertices) == 5 and len(path.edges) == 4
    star = resolution_graph("D4")
    assert star.degree_multiset() == (1, 1, 1, 3)
    single = resolution_graph("An", 1)
    assert len(single.vertices) == 1 and not single.edges
    with pytest.raises(ValueError):
        resolution_graph("E8")
    with pytest.raises(ValueError):
        resolution_graph("An")


def test_isomorphic_accepts_relabelled_path():
    g = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    h = build_graph(["u", "v", "w"], [("v", "u"), ("u", "w")])
    assert isomorphic(g, h)


def test_isomorphic_rejects_path_vs_star():
    path4 = build_graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    star4 = build_graph("abcd", [("a", "b"), ("a", "c"), ("a", "d")])
    assert not isomorphic(path4, star4)


def test_isomorphic_needs_matching_sizes():
    assert not isomorphic(build_graph("ab", []), build_graph("abc", []))


def test_isomorphic_is_an_equivalence_on_fixtures():
    fixtures = [
        build_graph("abc", [("a", "b"), ("b", "c")]),
        build_graph("xyz", [("y", "x"), ("y", "z")]),
        build_graph("abcd", [("a", "b"), ("a", "c"), ("a", "d")]),
        build_graph("pqrs", [("q", "p"), ("q", "r"), ("q", "s")]),
        build_graph("ab", [("a", "b")]),
    ]
    for g in fixtures:
        assert isomorphic(g, g)
    for g, h in itertools.permutations(fixtures, 2):
        assert isomorphic(g, h) == isomorphic(h, g)
    for g, h, k in itertools.permutations(fixtures, 3):
        if isomorphic(g, h) and isomorphic(h, k):
            assert isomorphic(g, k)


def test_dot_single_vertex():
    assert to_dot(build_graph(["Z1"], [])) == 'graph {\n  "Z1";\n}\n'


def test_dot_edge_line():
    assert to_dot(build_graph(["Z1", "Z2"], [("Z1", "Z2")])) == (
        'graph {\n  "Z1";\n  "Z2";\n  "Z1" -- "Z2";\n}\n'
    )


def test_dot_star_deterministic():
    g = build_graph(
        ["Z0", "Z1", "Z2", "Z3"], [("Z0", "Z3"), ("Z0", "Z1"), ("Z0", "Z2")]
    )
    assert to_dot(g) == (
        'graph {\n  "Z0";\n  "Z1";\n  "Z2";\n  "Z3";\n'
        '  "Z0" -- "Z1";\n  "Z0" -- "Z2";\n  "Z0" -- "Z3";\n}\n'
    )


def test_json_dict_sorted():
    g = build_graph(["Z2", "Z1"], [("Z2", "Z1")])
    assert g.to_json_dict() == {"vertices": ["Z1", "Z2"], "edges": [["Z1", "Z2"]]}


def test_an_fiber_graphs_are_paths():
    for n in range(1, 7):
        for m in range(n, 2 * n + 5):
            g = _an_graph(n, m)
            assert isomorphic(g, resolution_graph("An", n)), (n, m)


def test_an_fiber_graph_validates_order(capsys):
    with pytest.raises(ValueError):
        _an_graph(3, 2)
    assert main(["an", "graph", "--n", "3", "--m", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need m >= n, got m=2, n=3" in captured.err


def test_d4_fiber_graph_edge_set_is_order_independent():
    expected = frozenset({("Z0", "Z1"), ("Z0", "Z2"), ("Z0", "Z3")})
    for m in (5, 6, 7, 8):
        pairs, report = d4_maximal_intersections(m)
        assert report.verified
        g = component_graph(range(4), pairs)
        assert g.edges == expected
        assert isomorphic(g, resolution_graph("D4"))
