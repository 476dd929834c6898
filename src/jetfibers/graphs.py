"""Intersection graphs and resolution graphs.

Vertices are component labels; an edge joins two components exactly when
their intersection is maximal among all pairwise intersections.  For the
surfaces here that machinery produces a path (A-series) or a star (D4),
which the isomorphism test compares against the corresponding resolution
graph.  The module is graph theory only: the maximal pairs come from the
surface modules, and the commands hand them to ``component_graph``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IntersectionGraph:
    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def degree(self, v: str) -> int:
        return sum(1 for e in self.edges if v in e)

    def degree_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self.degree(v) for v in self.vertices))

    def adjacent(self, a: str, b: str) -> bool:
        return _edge(a, b) in self.edges

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [list(e) for e in sorted(self.edges)],
        }


def _edge(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def build_graph(labels, pairs) -> IntersectionGraph:
    """Graph on the given labels with one edge per maximal pair."""
    vertices = tuple(sorted(str(v) for v in labels))
    seen = set(vertices)
    if len(seen) != len(vertices):
        raise ValueError("duplicate vertex labels")
    edges = set()
    for a, b in pairs:
        a, b = str(a), str(b)
        if a == b:
            raise ValueError(f"self-loop at {a!r}")
        if a not in seen or b not in seen:
            raise ValueError(f"edge ({a!r}, {b!r}) references a missing vertex")
        edges.add(_edge(a, b))
    return IntersectionGraph(vertices, frozenset(edges))


def component_graph(indices, pairs) -> IntersectionGraph:
    """Graph on the components Z<i>, i in indices, with one edge per pair."""
    return build_graph([f"Z{i}" for i in indices], [(f"Z{i}", f"Z{j}") for i, j in pairs])


def resolution_graph(kind: str, n: int | None = None) -> IntersectionGraph:
    """The minimal-resolution dual graph: a path for the A-series, the
    star with three rays for D4."""
    if kind == "An":
        if n is None or n < 1:
            raise ValueError("A-series resolution graphs need n >= 1")
        labels = [f"E{i}" for i in range(1, n + 1)]
        return build_graph(labels, [(f"E{i}", f"E{i+1}") for i in range(1, n)])
    if kind == "D4":
        return build_graph(
            ["E0", "E1", "E2", "E3"], [("E0", "E1"), ("E0", "E2"), ("E0", "E3")]
        )
    raise ValueError(f"unknown resolution graph kind {kind!r}")


def isomorphic(g: IntersectionGraph, h: IntersectionGraph) -> bool:
    """Exact isomorphism test: degree-multiset filter, then backtracking
    over degree-respecting assignments.  Fine for the handful of vertices
    these graphs have."""
    if len(g.vertices) != len(h.vertices) or len(g.edges) != len(h.edges):
        return False
    if g.degree_multiset() != h.degree_multiset():
        return False

    gv = list(g.vertices)
    hv = list(h.vertices)

    def extend(mapping: dict, used: set, k: int) -> bool:
        if k == len(gv):
            return True
        a = gv[k]
        for b in hv:
            if b in used or g.degree(a) != h.degree(b):
                continue
            if all(
                g.adjacent(a, prev) == h.adjacent(b, mapping[prev])
                for prev in mapping
            ):
                mapping[a] = b
                used.add(b)
                if extend(mapping, used, k + 1):
                    return True
                del mapping[a]
                used.remove(b)
        return False

    return extend({}, set(), 0)


def to_dot(g: IntersectionGraph) -> str:
    """Deterministic DOT text: vertices sorted, then sorted edges."""
    lines = ["graph {"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for a, b in sorted(g.edges):
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
