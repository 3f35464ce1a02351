"""Undirected-graph combinatorics: complements, cliques, complete subsets, components.

A graph is its adjacency masks over node ids 0..n-1, Python ints of any width.
`Graph(adj)` takes symmetric masks and checks only their range and self-bits;
`Graph.from_edges` validates an edge list.  Node sets are exposed as frozensets,
maximal cliques lazily in lexicographic order; internally everything is bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

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
        object.__setattr__(self, "_hash", hash(self.adj))  # the caches hash it on every lookup

    def __hash__(self) -> int:
        return self._hash

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


def maximal_cliques(g: Graph) -> Iterator[NodeSet]:
    """Every maximal clique, as a frozenset, lazily and in lexicographic order.

    Bron-Kerbosch on an explicit stack of (R, P, X): the lowest candidate v goes
    before its sibling (R, P - v, X + v), and R lies below every candidate, so
    the order holds by construction.  The sibling is dropped when v is adjacent
    to all of P - v, as v then stays in X (this keeps K_n linear).  No pivot is
    needed: classify walks every clique of G_S only after `identify` has listed
    every complete subset of it, and stops at the first complement 3-clique.
    """
    adj = g.adj
    stack = [(0, (1 << g.node_count) - 1, 0)] if g.node_count else []
    while stack:
        r, p, x = stack.pop()
        if not p | x:
            yield _set_of(r)
        elif p:
            low = p & -p
            v_adj = adj[low.bit_length() - 1]
            rest = p ^ low
            if rest & ~v_adj:
                stack.append((r, rest, x | low))
            stack.append((r | low, rest & v_adj, x & v_adj))


def _complete_within(adj: tuple[int, ...], within: int) -> list[int]:
    """Bitmask of every nonempty complete subset of the nodes in `within`, by size,
    then lexicographically: the sets of size k + 1 are those of size k, in order,
    each extended in ascending order by its candidates, the higher nodes of
    `within` adjacent to all of it.  A set comes only from itself less its
    highest node, so each is found once; each carries its candidate mask."""
    found: list[int] = []
    level = [(0, within)]
    while level:
        grown = []
        for mask, cand in level:
            while cand:
                low = cand & -cand
                cand ^= low
                grown.append((mask | low, cand & adj[low.bit_length() - 1]))
        found.extend(mask for mask, _ in grown)
        level = grown
    return found


def _complete_masks(g: Graph) -> tuple[int, ...]:
    """Bitmask of every nonempty complete subset, ordered by size, then
    lexicographically.  Each caller enumerates g once per call; `identify`
    keeps G_S's sets as the keys of `_neighborhoods`."""
    return tuple(_complete_within(g.adj, (1 << g.node_count) - 1))


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
