"""Undirected-graph combinatorics: complements, cliques, complete subsets, components.

A graph is its adjacency masks over node ids 0..n-1, Python ints of any width.
`Graph(adj)` takes symmetric masks and checks only their range and self-bits;
`Graph.from_edges` validates an edge list.  Node sets are exposed as frozensets;
internally everything runs on bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
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
    """Simple undirected graph: adj[v] is the bitmask of v's neighbours."""

    adj: tuple[int, ...]

    def __post_init__(self):
        for v, mask in enumerate(self.adj):
            if mask >> len(self.adj) or mask >> v & 1:
                raise ValueError(f"node {v}: neighbour mask out of range or with a self-loop")

    @staticmethod
    def from_edges(node_count: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from (i, j) pairs in either order; a repeated pair counts once.

        Raises ValueError on a negative node count, a self-loop or a node out of range.
        """
        if node_count < 0:
            raise ValueError("node_count must be non-negative")
        adj = [0] * node_count
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < node_count and 0 <= j < node_count):
                raise ValueError(f"edge ({i},{j}) out of range")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return Graph(tuple(adj))

    @property
    def node_count(self) -> int:
        return len(self.adj)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Every edge once, as (i, j) with i < j."""
        return frozenset(
            (i, j) for i, mask in enumerate(self.adj) for j in _bits(mask >> i + 1 << i + 1)
        )

    def neighbors(self, v: int) -> NodeSet:
        return _set_of(self.adj[v])

    def is_complete_set(self, nodes: Iterable[int]) -> bool:
        """True when the nodes are pairwise adjacent (empty and singleton sets
        count); False when some node is not in the graph."""
        ns = set(nodes)
        if not all(0 <= v < len(self.adj) for v in ns):
            return False
        mask = _mask_of(ns)
        return all(not mask & ~self.adj[v] & ~(1 << v) for v in ns)


def complement(g: Graph) -> Graph:
    """Graph with exactly the edges absent from g (no self-loops)."""
    full = (1 << g.node_count) - 1
    return Graph(tuple(full ^ mask ^ 1 << v for v, mask in enumerate(g.adj)))


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
    within = _mask_of(order)
    adj = tuple(_mask_of(pos[u] for u in _bits(g.adj[v] & within)) for v in order)
    return Graph(adj), tuple(order)


def maximal_cliques(g: Graph) -> list[NodeSet]:
    """All maximal cliques, each sorted ascending, listed in lexicographic order.

    Bron-Kerbosch with pivoting (the pivot is the lowest id in P | X) on an
    explicit stack of sub-problems, so a clique of any size costs no recursion.
    """
    if g.node_count == 0:
        return []
    adj = g.adj
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
    return [_set_of(m) for m in sorted(out, key=_bits)]


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
    found = _complete_within(g.adj, (1 << g.node_count) - 1)
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
    adj = g.adj
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
