"""Undirected-graph combinatorics: complements, cliques, complete subsets, components.

Graphs are immutable values over contiguous node ids 0..node_count-1.  Node sets
are exposed as frozensets; internally everything runs on integer bitmasks, which
keeps the complete-subset lattice enumeration cheap at the scales this package
targets (well under 63 nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable

NodeSet = frozenset[int]


def _mask_of(nodes: Iterable[int]) -> int:
    m = 0
    for v in nodes:
        m |= 1 << v
    return m


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _set_of(mask: int) -> NodeSet:
    return frozenset(_bits(mask))


def _neighborhood(adj: tuple[int, ...], mask: int) -> int:
    """OR of the adjacency masks over the nodes of mask: N(mask)."""
    out = 0
    while mask:
        low = mask & -mask
        out |= adj[low.bit_length() - 1]
        mask ^= low
    return out


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; edges stored once as (i, j) with i < j."""

    node_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.node_count < 0:
            raise ValueError("node_count must be non-negative")
        for i, j in self.edges:
            if not (0 <= i < j < self.node_count):
                raise ValueError(f"edge ({i},{j}) out of range or not canonical")

    @staticmethod
    def from_edges(node_count: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, canonicalizing each pair to (min, max)."""
        canon = set()
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            canon.add((min(i, j), max(i, j)))
        return Graph(node_count, frozenset(canon))

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        masks = [0] * self.node_count
        for i, j in self.edges:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return tuple(masks)

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def neighbors(self, v: int) -> NodeSet:
        return _set_of(self.adjacency_masks[v])

    def is_complete_set(self, nodes: Iterable[int]) -> bool:
        """True when the nodes are pairwise adjacent (empty and singleton sets count)."""
        ns = list(nodes)
        return all(self.has_edge(i, j) for i, j in combinations(ns, 2))


def complement(g: Graph) -> Graph:
    """Graph with exactly the edges absent from g (no self-loops)."""
    edges = {
        (i, j)
        for i, j in combinations(range(g.node_count), 2)
        if (i, j) not in g.edges
    }
    return Graph(g.node_count, frozenset(edges))


def induced_subgraph(g: Graph, nodes: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by `nodes`, relabeled to 0..k-1.

    Returns the relabeled graph and the map from new ids back to original ids
    (new id i corresponds to original id map[i]); original ids are taken in
    ascending order.  The empty node set yields the empty graph.
    """
    order = sorted(set(nodes))
    for v in order:
        if not 0 <= v < g.node_count:
            raise ValueError(f"node {v} out of range")
    pos = {v: i for i, v in enumerate(order)}
    edges = {
        (pos[i], pos[j]) for i, j in g.edges if i in pos and j in pos
    }
    return Graph(len(order), frozenset(edges)), tuple(order)


def maximal_cliques(g: Graph) -> list[NodeSet]:
    """All maximal cliques, each sorted ascending, listed in lexicographic order.

    Bron-Kerbosch with pivoting (the pivot is the lowest id in P | X) on an
    explicit stack of sub-problems, so a clique of any size costs no recursion.
    """
    if g.node_count == 0:
        return []
    adj = g.adjacency_masks
    out: list[int] = []
    stack = [(0, (1 << g.node_count) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        if p == 0 and x == 0:
            out.append(r)
            continue
        pivot = ((p | x) & -(p | x)).bit_length() - 1
        cand = p & ~adj[pivot]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            stack.append((r | low, p & adj[v], x & adj[v]))
            p &= ~low
            x |= low
            cand ^= low
    return sorted((_set_of(m) for m in out), key=lambda s: tuple(sorted(s)))


def _complete_within(adj: tuple[int, ...], within: int) -> list[int]:
    """Bitmask of every nonempty complete subset of the nodes in `within`, in
    grow order: each set is extended only by higher nodes adjacent to all of it,
    so the search visits exactly the complete subsets, each once."""
    found: list[int] = []

    def grow(mask: int, cand: int) -> None:
        while cand:
            low = cand & -cand
            cand ^= low
            found.append(mask | low)
            grow(mask | low, cand & adj[low.bit_length() - 1])

    grow(0, within)
    return found


@lru_cache(maxsize=4096)
def _complete_masks(g: Graph) -> tuple[int, ...]:
    """Bitmask of every nonempty complete subset, ordered by size, then
    lexicographically.  Each graph is enumerated once; every consumer reads
    this tuple."""
    found = _complete_within(g.adjacency_masks, (1 << g.node_count) - 1)
    return tuple(sorted(found, key=lambda m: (m.bit_count(), _bits(m))))


def complete_subsets(g: Graph, min_size: int) -> list[NodeSet]:
    """Every subset inducing a complete subgraph, with cardinality >= min_size.

    Ordered by size, then lexicographically.  The empty set is never included.
    """
    if min_size < 1:
        raise ValueError("min_size must be >= 1")
    return [_set_of(m) for m in _complete_masks(g) if m.bit_count() >= min_size]


def connected_components(g: Graph) -> list[NodeSet]:
    """Connected components, listed by their smallest node id."""
    adj = g.adjacency_masks
    unseen = (1 << g.node_count) - 1
    comps: list[int] = []
    while unseen:
        comp = unseen & -unseen
        frontier = comp
        while frontier:
            frontier = _neighborhood(adj, frontier) & unseen & ~comp
            comp |= frontier
        comps.append(comp)
        unseen &= ~comp
    return [_set_of(c) for c in comps]
