"""Structural identifiability engine.

Decides, from graph topology alone, whether the parametrization of a model with
one binary hidden node has full-rank Jacobian everywhere, almost everywhere, or
nowhere.  The workhorse notions are identifying sequences: chains of complete
subgraphs linked step-wise through complement edges.  Searches run as BFS over
the meta-graph of complete subsets with memoized reachability, so repeated
queries against the same graph are cheap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import LatentIsolatedError, ValidationError
from .graph import (
    Graph,
    NodeSet,
    _bits,
    _complete_masks,
    _mask_of,
    _set_of,
    complement,
    connected_components,
    induced_subgraph,
    maximal_cliques,
)
from .loglinear import LATENT, LatentModel

if TYPE_CHECKING:
    from .singular import SingularSystem


class Status(Enum):
    IDENTIFIED_EVERYWHERE = "identified_everywhere"
    GENERICALLY_IDENTIFIED = "generically_identified"
    NOT_IDENTIFIED = "not_identified"


@dataclass(frozen=True)
class SequenceCert:
    """A found identifying sequence: the target set and the full chain from it.

    kind "generalized": sizes are non-increasing and the chain ends in a
    singleton.  kind "plain": every element has the target's size except the
    last, which is strictly smaller; elements are pairwise distinct.
    """

    target: NodeSet
    chain: tuple[NodeSet, ...]
    kind: str

    def relabeled(self, mapping: Mapping[int, int]) -> "SequenceCert":
        return SequenceCert(
            target=frozenset(mapping[v] for v in self.target),
            chain=tuple(frozenset(mapping[v] for v in s) for s in self.chain),
            kind=self.kind,
        )

    def validate(self, g: Graph, node_map: Sequence[int] | None = None) -> None:
        """Raise ValidationError unless the chain is a valid sequence in g.

        When the cert was relabeled away from g's ids, pass node_map with
        node_map[local_id] = cert_id to translate back.
        """
        if node_map is None:
            chain = self.chain
            target = self.target
        else:
            inv = {orig: local for local, orig in enumerate(node_map)}
            chain = tuple(frozenset(inv[v] for v in s) for s in self.chain)
            target = frozenset(inv[v] for v in self.target)
        if not chain or chain[0] != target:
            raise ValidationError("chain must start at the target set")
        comp_adj = complement(g).adjacency_masks
        for s in chain:
            if not g.is_complete_set(s):
                raise ValidationError(f"chain element {sorted(s)} is not complete")
        for a, b in zip(chain, chain[1:]):
            b_mask = _mask_of(b)
            for i in a:
                if not comp_adj[i] & b_mask:
                    raise ValidationError(
                        f"node {i} has no complement neighbor in {sorted(b)}"
                    )
        if self.kind == "generalized":
            if len(target) <= 1:
                raise ValidationError("generalized sequences start from sets of size > 1")
            for a, b in zip(chain, chain[1:]):
                if len(b) > len(a):
                    raise ValidationError("sizes must be non-increasing")
            if len(chain[-1]) != 1:
                raise ValidationError("generalized sequences must end in a singleton")
        elif self.kind == "plain":
            k = len(target)
            if k < 2:
                raise ValidationError("plain sequences start from sets of size >= 2")
            if len(chain) < 2:
                raise ValidationError("plain sequences have at least two elements")
            for s in chain[:-1]:
                if len(s) != k:
                    raise ValidationError("all elements before the last must have the target size")
            if len(chain[-1]) >= k:
                raise ValidationError("the last element must be strictly smaller")
            if len(set(chain)) != len(chain):
                raise ValidationError("chain elements must be pairwise distinct")
        else:
            raise ValidationError(f"unknown sequence kind {self.kind!r}")

    def is_valid(self, g: Graph, node_map: Sequence[int] | None = None) -> bool:
        try:
            self.validate(g, node_map)
        except ValidationError:
            return False
        return True


@dataclass(frozen=True)
class Verdict:
    """Classification outcome plus the structural evidence behind it.

    Node sets are reported in the model's own ids; `s_graph` is the observed
    subgraph induced on S with local ids 0..|S|-1 and `s_node_map[local] = id`.
    Sequence certificates are stated in model ids and can be re-checked against
    `s_graph` via `cert.validate(s_graph, s_node_map)`.
    """

    status: Status
    s_nodes: NodeSet
    t1_nodes: NodeSet
    s_graph: Graph
    s_node_map: tuple[int, ...]
    m_clique: NodeSet | None
    clique_certs: tuple[tuple[NodeSet, "SequenceCert | None"], ...]
    failing_sets: tuple[NodeSet, ...]
    singular_system: "SingularSystem | None"
    probe_only: bool

    @property
    def failed_cliques(self) -> tuple[NodeSet, ...]:
        return tuple(c for c, cert in self.clique_certs if cert is None)


def latent_partition(m: LatentModel) -> tuple[NodeSet, NodeSet]:
    """Split the observed nodes into S (adjacent to the hidden node) and T1 (not).

    Raises LatentIsolatedError when no observed node touches the hidden one.
    """
    s = m.graph.neighbors(LATENT)
    t1 = m.observed_set - s
    if not s:
        raise LatentIsolatedError("no observed node is adjacent to the hidden node")
    return s, t1


def _covers(comp_adj: tuple[int, ...], i_mask: int, j_mask: int) -> bool:
    """True when every node of i_mask has a complement neighbor inside j_mask."""
    m = i_mask
    while m:
        low = m & -m
        if not comp_adj[low.bit_length() - 1] & j_mask:
            return False
        m ^= low
    return True


@lru_cache(maxsize=4096)
def _generalized_ok(g: Graph) -> frozenset[int]:
    """Complete sets from which some non-increasing chain reaches a singleton."""
    comp_adj = complement(g).adjacency_masks
    sets_ = _complete_masks(g)
    ok = {m for m in sets_ if m.bit_count() == 1}
    work = list(ok)
    while work:
        j = work.pop()
        nj = j.bit_count()
        for i in sets_:
            if i not in ok and i.bit_count() >= nj and _covers(comp_adj, i, j):
                ok.add(i)
                work.append(i)
    return frozenset(ok)


@lru_cache(maxsize=4096)
def _plain_ok(g: Graph) -> frozenset[int]:
    """Complete sets of size >= 2 admitting an equal-size-then-smaller chain."""
    comp_adj = complement(g).adjacency_masks
    sets_ = _complete_masks(g)
    ok: set[int] = set()
    max_k = max((m.bit_count() for m in sets_), default=0)
    for k in range(2, max_k + 1):
        smaller = [m for m in sets_ if m.bit_count() < k]
        same = [m for m in sets_ if m.bit_count() == k]
        layer: set[int] = set()
        work: list[int] = []
        for i in same:
            if any(_covers(comp_adj, i, j) for j in smaller):
                layer.add(i)
                work.append(i)
        while work:
            j = work.pop()
            for i in same:
                if i not in layer and _covers(comp_adj, i, j):
                    layer.add(i)
                    work.append(i)
        ok |= layer
    return frozenset(ok)


def find_generalized_sequence(g_s: Graph, c0: NodeSet) -> SequenceCert | None:
    """Shortest generalized identifying sequence for the complete set c0, or None.

    BFS over complete subsets of size <= |c0|; successor candidates are tried
    in canonical (size, lexicographic) order, so ties resolve deterministically.
    """
    c0 = frozenset(c0)
    if len(c0) <= 1:
        raise ValueError("the target set must have more than one node")
    if not g_s.is_complete_set(c0):
        raise ValueError(f"{sorted(c0)} is not complete")
    start = _mask_of(c0)
    if start not in _generalized_ok(g_s):
        return None
    comp_adj = complement(g_s).adjacency_masks
    states = [m for m in _complete_masks(g_s) if m.bit_count() <= len(c0)]
    parent: dict[int, int | None] = {start: None}
    queue: deque[int] = deque([start])
    while queue:
        cur = queue.popleft()
        if cur.bit_count() == 1:
            chain = []
            node: int | None = cur
            while node is not None:
                chain.append(_set_of(node))
                node = parent[node]
            chain.reverse()
            return SequenceCert(target=c0, chain=tuple(chain), kind="generalized")
        cur_size = cur.bit_count()
        for j in states:
            if j not in parent and j.bit_count() <= cur_size and _covers(comp_adj, cur, j):
                parent[j] = cur
                queue.append(j)
    return None


def find_identifying_sequence(g_s: Graph, i0: NodeSet) -> SequenceCert | None:
    """Shortest plain identifying sequence for the complete set i0, or None.

    Elements before the last keep the target's size; the chain ends at the
    first (canonical-order) complete set of smaller size reachable in one step.
    """
    i0 = frozenset(i0)
    k = len(i0)
    if k < 2:
        raise ValueError("the target set must have at least two nodes")
    if not g_s.is_complete_set(i0):
        raise ValueError(f"{sorted(i0)} is not complete")
    start = _mask_of(i0)
    if start not in _plain_ok(g_s):
        return None
    comp_adj = complement(g_s).adjacency_masks
    sets_ = _complete_masks(g_s)
    smaller = [m for m in sets_ if m.bit_count() < k]
    same = [m for m in sets_ if m.bit_count() == k]
    parent: dict[int, int | None] = {start: None}
    queue: deque[int] = deque([start])
    while queue:
        cur = queue.popleft()
        for j in smaller:
            if _covers(comp_adj, cur, j):
                chain = [_set_of(j)]
                node: int | None = cur
                while node is not None:
                    chain.append(_set_of(node))
                    node = parent[node]
                chain.reverse()
                return SequenceCert(target=i0, chain=tuple(chain), kind="plain")
        for j in same:
            if j not in parent and _covers(comp_adj, cur, j):
                parent[j] = cur
                queue.append(j)
    return None


def anchored_ordering(g_comp: Graph, c: NodeSet) -> list[int] | None:
    """Order all nodes starting with c, appending shortest-path groups.

    Works in the complement graph g_comp.  Every node outside c is placed after
    some neighbor of its shortest path toward c, so each placed node has a
    g_comp-neighbor earlier in the ordering (the pairing that makes the
    row-reordered Jacobian block triangular).  Returns None when some node has
    no path to c.

    Ties: among farthest unordered nodes pick the lowest id; shortest paths
    prefer the lowest-id predecessor at every hop.
    """
    c = frozenset(c)
    if not c:
        raise ValueError("c must be nonempty")
    for v in c:
        if not 0 <= v < g_comp.node_count:
            raise ValueError(f"node {v} out of range")
    n = g_comp.node_count
    dist: dict[int, int] = {v: 0 for v in c}
    parent: dict[int, int] = {}
    frontier = sorted(c)
    while frontier:
        nxt = []
        for u in frontier:
            for w in sorted(_bits(g_comp.adjacency_masks[u])):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = sorted(set(nxt))
    # lowest-id predecessor at each hop makes path reconstruction deterministic
    for v in range(n):
        if v in dist and dist[v] > 0:
            parent[v] = min(
                w for w in _bits(g_comp.adjacency_masks[v]) if dist.get(w) == dist[v] - 1
            )
    outside = [v for v in range(n) if v not in c]
    if any(v not in dist for v in outside):
        return None
    ordering = sorted(c)
    unordered = set(outside)
    while unordered:
        far = max(dist[v] for v in unordered)
        a = min(v for v in unordered if dist[v] == far)
        path = [a]
        while path[-1] not in c:
            path.append(parent[path[-1]])
        path.reverse()  # runs from c out to a
        cut = max(i for i, v in enumerate(path) if v not in unordered)
        b = path[cut]
        group = path[cut + 1 :]
        if b in c:
            ordering.extend(group)
        else:
            at = ordering.index(b)
            ordering[at + 1 : at + 1] = group
        unordered.difference_update(group)
    return ordering


def latent_class_check(n: int) -> bool:
    """Identifiability of the pure latent-class model with n observed variables."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n >= 3


def classify(m: LatentModel) -> Verdict:
    """Classify the model by the two graph conditions on the observed subgraph.

    With S the observed nodes adjacent to the hidden one: full rank everywhere
    iff (i) the complement of the induced graph on S has a clique of size >= 3
    and (ii) every clique of size > 1 in that induced graph has a generalized
    identifying sequence inside S.  When (i) fails the induced graph is either
    a single connected component (rank drops only on a numerically probed
    subset) or exactly two complete components (rank deficient everywhere).
    When only (ii) fails the explicit singular system is attached.
    """
    s_nodes, t1_nodes = latent_partition(m)
    g_s, node_map = induced_subgraph(m.graph, sorted(s_nodes))
    to_model = dict(enumerate(node_map))

    def in_model(local: Iterable[int]) -> NodeSet:
        return frozenset(to_model[v] for v in local)

    m_clique = next(
        (in_model(cl) for cl in maximal_cliques(complement(g_s)) if len(cl) >= 3), None
    )
    clique_certs: list[tuple[NodeSet, SequenceCert | None]] = []
    failing_sets: list[NodeSet] = []
    system = None
    probe_only = False
    if m_clique is None:
        # With no complement 3-clique, a disconnected G_S is two complete components.
        probe_only = len(connected_components(g_s)) == 1
        status = Status.GENERICALLY_IDENTIFIED if probe_only else Status.NOT_IDENTIFIED
    else:
        for cl in maximal_cliques(g_s):
            if len(cl) > 1:
                cert = find_generalized_sequence(g_s, cl)
                clique_certs.append((in_model(cl), cert.relabeled(to_model) if cert else None))
        status = Status.IDENTIFIED_EVERYWHERE
        if any(cert is None for _, cert in clique_certs):
            from .singular import full_system

            status = Status.GENERICALLY_IDENTIFIED
            plain_ok = _plain_ok(g_s)
            failing_sets = [
                in_model(_bits(c))
                for c in _complete_masks(g_s)
                if c.bit_count() > 1 and c not in plain_ok
            ]
            system = full_system(m)
    return Verdict(
        status=status,
        s_nodes=s_nodes,
        t1_nodes=t1_nodes,
        s_graph=g_s,
        s_node_map=node_map,
        m_clique=m_clique,
        clique_certs=tuple(clique_certs),
        failing_sets=tuple(failing_sets),
        singular_system=system,
        probe_only=probe_only,
    )
