"""Metric and structural graph properties.

Implements the graph vocabulary of Section 2 of the paper: paths,
connectivity, distance ``d(p, q)``, eccentricity ``ec(p)``, diameter ``D``,
centers, trees/rings recognition, and Property 1 (a tree has one center or
two neighboring centers).
"""

from __future__ import annotations

from collections import deque

from repro.errors import GraphError
from repro.graphs.graph import Graph

__all__ = [
    "bfs_distances",
    "all_pairs_distances",
    "is_connected",
    "connected_components",
    "distance",
    "eccentricity",
    "eccentricities",
    "diameter",
    "radius",
    "centers",
    "is_tree",
    "is_ring",
    "is_path_graph",
    "leaves",
    "internal_nodes",
    "is_bipartite",
    "shortest_path",
    "tree_center_split",
]

_UNREACHED = -1


def bfs_distances(graph: Graph, source: int) -> list[int]:
    """Distances from ``source`` to every node; ``-1`` if unreachable."""
    dist = [_UNREACHED] * graph.num_nodes
    dist[source] = 0
    queue: deque[int] = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if dist[v] == _UNREACHED:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def all_pairs_distances(graph: Graph) -> list[list[int]]:
    """Distance matrix via one BFS per node; ``-1`` marks unreachable pairs."""
    return [bfs_distances(graph, s) for s in graph.nodes]


def is_connected(graph: Graph) -> bool:
    """Whether the graph is connected (single node counts as connected)."""
    return _UNREACHED not in bfs_distances(graph, 0)


def connected_components(graph: Graph) -> list[list[int]]:
    """Connected components as sorted node lists, ordered by smallest node."""
    unseen = set(graph.nodes)
    components: list[list[int]] = []
    while unseen:
        root = min(unseen)
        dist = bfs_distances(graph, root)
        component = sorted(v for v in graph.nodes if dist[v] != _UNREACHED)
        components.append(component)
        unseen.difference_update(component)
    return components


def distance(graph: Graph, u: int, v: int) -> int:
    """``d(u, v)``; raises :class:`GraphError` if ``v`` is unreachable."""
    d = bfs_distances(graph, u)[v]
    if d == _UNREACHED:
        raise GraphError(f"nodes {u} and {v} are not connected")
    return d


def eccentricity(graph: Graph, node: int) -> int:
    """``ec(node) = max_q d(node, q)``; requires a connected graph."""
    dist = bfs_distances(graph, node)
    if _UNREACHED in dist:
        raise GraphError("eccentricity undefined on a disconnected graph")
    return max(dist)


def eccentricities(graph: Graph) -> list[int]:
    """Eccentricity of every node of a connected graph."""
    return [eccentricity(graph, v) for v in graph.nodes]


def diameter(graph: Graph) -> int:
    """``D = max_p ec(p)``."""
    return max(eccentricities(graph))


def radius(graph: Graph) -> int:
    """``min_p ec(p)``."""
    return min(eccentricities(graph))


def centers(graph: Graph) -> list[int]:
    """Nodes of minimum eccentricity, sorted ascending."""
    eccs = eccentricities(graph)
    best = min(eccs)
    return [v for v in graph.nodes if eccs[v] == best]


def is_tree(graph: Graph) -> bool:
    """Connected and acyclic (``|E| = N - 1``)."""
    return graph.num_edges == graph.num_nodes - 1 and is_connected(graph)


def is_ring(graph: Graph) -> bool:
    """Connected, ``N >= 3`` and every node of degree exactly two."""
    if graph.num_nodes < 3:
        return False
    if any(graph.degree(v) != 2 for v in graph.nodes):
        return False
    return is_connected(graph)


def is_path_graph(graph: Graph) -> bool:
    """A tree whose maximum degree is at most two (a chain)."""
    return is_tree(graph) and graph.max_degree <= 2


def leaves(graph: Graph) -> list[int]:
    """Nodes of degree one (the paper's tree leaves)."""
    return [v for v in graph.nodes if graph.degree(v) == 1]


def internal_nodes(graph: Graph) -> list[int]:
    """Nodes of degree greater than one."""
    return [v for v in graph.nodes if graph.degree(v) > 1]


def is_bipartite(graph: Graph) -> bool:
    """Two-colorability via BFS layering (works per component)."""
    color = [_UNREACHED] * graph.num_nodes
    for start in graph.nodes:
        if color[start] != _UNREACHED:
            continue
        color[start] = 0
        queue: deque[int] = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if color[v] == _UNREACHED:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def shortest_path(graph: Graph, source: int, target: int) -> list[int]:
    """One shortest path from ``source`` to ``target`` (inclusive)."""
    parent: dict[int, int] = {source: source}
    queue: deque[int] = deque([source])
    while queue:
        u = queue.popleft()
        if u == target:
            break
        for v in graph.neighbors(u):
            if v not in parent:
                parent[v] = u
                queue.append(v)
    if target not in parent:
        raise GraphError(f"nodes {source} and {target} are not connected")
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def tree_center_split(graph: Graph) -> tuple[list[int], bool]:
    """Centers of a tree and whether there are two (adjacent) of them.

    Returns ``(centers, has_two)``.  Property 1 of the paper guarantees a
    tree has one center or two neighboring centers; this helper also raises
    :class:`GraphError` when that invariant is violated (i.e. when the input
    is not a tree).
    """
    if not is_tree(graph):
        raise GraphError("tree_center_split requires a tree")
    cs = centers(graph)
    if len(cs) == 1:
        return cs, False
    if len(cs) == 2 and graph.has_edge(cs[0], cs[1]):
        return cs, True
    raise GraphError(
        f"Property 1 violated: centers {cs} on a supposed tree"
    )  # pragma: no cover - unreachable on real trees
