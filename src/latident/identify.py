"""Structural identifiability engine.

Decides, from graph topology alone, whether the parametrization of a model with
one binary hidden node has full-rank Jacobian everywhere, almost everywhere, or
nowhere.  The workhorse notions are identifying sequences: chains of complete
subgraphs linked step-wise through complement edges.  A step from I to J needs
every node of I to have a complement neighbour in J; the complement is
symmetric, so that is the one mask test I <= N(J), with N(J) the OR of the
complement adjacency masks over J, read by every consumer from one table per
graph.  One memoized backward BFS over the meta-graph of complete subsets gives
every set that reaches an end its fewest steps to one; it skips every set
holding a node with no complement neighbour, as such a set lies in no N(J).  A
certificate is then walked forward off those step counts, so repeated queries
on a graph are cheap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce
from itertools import groupby
from operator import or_
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .errors import LatentIsolatedError, ValidationError
from .graph import (
    Graph,
    NodeSet,
    _bits,
    _complete_masks,
    _mask_of,
    _neighborhood,
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
    """A found identifying sequence: the chain from its target set, `chain[0]`.

    kind "generalized": sizes are non-increasing and the chain ends in a
    singleton.  kind "plain": every element has the target's size except the
    last, which is strictly smaller; elements are pairwise distinct.
    """

    chain: tuple[NodeSet, ...]
    kind: str

    def relabeled(self, mapping: Mapping[int, int] | Sequence[int]) -> "SequenceCert":
        return SequenceCert(tuple(frozenset(mapping[v] for v in s) for s in self.chain), self.kind)

    def validate(self, g: Graph, node_map: Sequence[int] | None = None) -> None:
        """Raise ValidationError unless the chain is a valid sequence in g.

        When the cert was relabeled away from g's ids, pass node_map with
        node_map[local_id] = cert_id to translate back.
        """
        if not self.chain:
            raise ValidationError("the chain is empty")
        if node_map is None:
            node_map = range(g.node_count)
        inv = {orig: local for local, orig in enumerate(node_map)}
        unknown = set().union(*self.chain) - inv.keys()
        if unknown:
            raise ValidationError(f"node {min(unknown)} is not a node of the graph")
        chain = tuple(frozenset(inv[v] for v in s) for s in self.chain)
        comp_adj = complement(g).adj
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
            if len(chain[0]) <= 1:
                raise ValidationError("generalized sequences start from sets of size > 1")
            for a, b in zip(chain, chain[1:]):
                if len(b) > len(a):
                    raise ValidationError("sizes must be non-increasing")
            if len(chain[-1]) != 1:
                raise ValidationError("generalized sequences must end in a singleton")
        elif self.kind == "plain":
            k = len(chain[0])
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


@dataclass(frozen=True)
class Verdict:
    """Classification outcome plus the structural evidence behind it.

    Node sets and sequence certificates are stated in the model's own ids; a
    certificate is re-checked on G_S by
    `cert.validate(*induced_subgraph(m.graph, sorted(s_nodes)))`.
    """

    status: Status
    s_nodes: NodeSet
    t1_nodes: NodeSet
    m_clique: NodeSet | None
    clique_certs: tuple[tuple[NodeSet, "SequenceCert | None"], ...]
    failing_sets: tuple[NodeSet, ...]
    singular_system: "SingularSystem | None"

    @property
    def probe_only(self) -> bool:
        """No complement 3-clique and G_S connected: no closed-form singular subset."""
        return self.status is Status.GENERICALLY_IDENTIFIED and self.m_clique is None

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


@lru_cache(maxsize=4096)
def _neighborhoods(g: Graph) -> Mapping[int, int]:
    """N(J), the OR of the complement adjacency masks over J, for every complete
    set J of g, in the order of `_complete_masks`."""
    comp_adj = complement(g).adj
    return MappingProxyType({j: _neighborhood(comp_adj, j) for j in _complete_masks(g)})


def _steps_to_end(
    nbhd: Mapping[int, int], pool: Iterable[int], steps: dict[int, int]
) -> dict[int, int]:
    """FIFO backward BFS from the seeds in `steps` (all at one step count):
    give every set of pool that reaches a seed its fewest steps, a step I -> J
    needing |I| >= |J| and I <= N(J).  Only sets not reached yet are scanned.
    The callers' pools leave out every set with a node outside `live`, the OR
    of every N(J), which holds the nodes with a complement neighbour: such a
    set lies in no N(J), so it can take no step."""
    queue = deque(steps)
    left = [i for i in pool if i not in steps]
    while queue and left:
        j = queue.popleft()
        nj, n_j, d = j.bit_count(), nbhd[j], steps[j] + 1
        reached = dict.fromkeys((i for i in left if i.bit_count() >= nj and not i & ~n_j), d)
        steps |= reached
        queue.extend(reached)
        left = [i for i in left if i not in reached]
    return steps


@lru_cache(maxsize=4096)
def _generalized_ok(g: Graph) -> Mapping[int, int]:
    """Complete sets from which some non-increasing chain reaches a singleton,
    each mapped to the fewest steps to one (singletons at 0)."""
    nbhd = _neighborhoods(g)
    seeds = {m: 0 for m in nbhd if m.bit_count() == 1}
    live = reduce(or_, nbhd.values(), 0)
    return MappingProxyType(_steps_to_end(nbhd, [i for i in nbhd if not i & ~live], seeds))


@lru_cache(maxsize=4096)
def _plain_ok(g: Graph) -> Mapping[int, int]:
    """Complete sets of size >= 2 admitting an equal-size-then-smaller chain,
    each mapped to the fewest steps to the first smaller set."""
    nbhd = _neighborhoods(g)
    live = reduce(or_, nbhd.values(), 0)
    steps: dict[int, int] = {}
    n_smaller: set[int] = set()  # N(J) of every complete J smaller than the current size
    for k, same in groupby(nbhd, key=int.bit_count):  # the sets come by size
        same = list(same)
        if k > 1:
            pool = [i for i in same if not i & ~live]
            seeds = {i: 1 for i in pool if any(not i & ~n_j for n_j in n_smaller)}
            steps |= _steps_to_end(nbhd, pool, seeds)
        n_smaller.update(map(nbhd.__getitem__, same))
    return MappingProxyType(steps)


def _failing_masks(g: Graph) -> list[int]:
    """Complete sets of size >= 2 with no plain identifying sequence, in
    (size, lexicographic) order: the sets that carry boundary equations."""
    plain_ok = _plain_ok(g)
    return [c for c in _neighborhoods(g) if c.bit_count() > 1 and c not in plain_ok]


def find_generalized_sequence(g_s: Graph, c0: NodeSet) -> SequenceCert | None:
    """Shortest generalized identifying sequence for the complete set c0, or None.

    Of the shortest chains, the first in canonical (size, lexicographic) order
    of its elements, walked off the step counts of `_generalized_ok`.
    """
    return _shortest_chain(g_s, frozenset(c0), _generalized_ok, 1, "generalized")


def find_identifying_sequence(g_s: Graph, i0: NodeSet) -> SequenceCert | None:
    """Shortest plain identifying sequence for the complete set i0, or None.

    Elements before the last keep the target's size and the last is smaller;
    of the shortest chains, the first in canonical (size, lexicographic) order
    of its elements, walked off the step counts of `_plain_ok`.
    """
    i0 = frozenset(i0)
    return _shortest_chain(g_s, i0, _plain_ok, len(i0) - 1, "plain")


def _shortest_chain(
    g_s: Graph, target: NodeSet, reach: Callable[[Graph], Mapping[int, int]],
    end_size: int, kind: str,
) -> SequenceCert | None:
    """Chain from the complete set `target` to a set of at most end_size nodes,
    or None when target is not in reach(g_s).  Each step I -> J takes the first
    complete J in canonical order with |J| <= |I|, I <= N(J) and one step fewer
    to go (0 for a set of at most end_size nodes), which is the lexicographically
    first shortest chain.
    """
    if len(target) < 2:
        raise ValueError("the target set must have at least two nodes")
    if not g_s.is_complete_set(target):
        raise ValueError(f"{sorted(target)} is not complete")
    steps = reach(g_s)
    cur = _mask_of(target)
    if cur not in steps:
        return None
    chain = [target]
    for left in reversed(range(steps[cur])):
        cur = next(
            j
            for j, n_j in _neighborhoods(g_s).items()
            if j.bit_count() <= cur.bit_count()
            and (0 if j.bit_count() <= end_size else steps.get(j)) == left
            and not cur & ~n_j
        )
        chain.append(_set_of(cur))
    return SequenceCert(tuple(chain), kind)


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

    def in_model(local: Iterable[int]) -> NodeSet:
        return frozenset(node_map[v] for v in local)

    m_clique = next((in_model(cl) for cl in maximal_cliques(complement(g_s)) if len(cl) >= 3), None)
    clique_certs: list[tuple[NodeSet, SequenceCert | None]] = []
    failing_sets: list[NodeSet] = []
    system = None
    if m_clique is None:
        # With no complement 3-clique, a disconnected G_S is two complete components.
        connected = len(connected_components(g_s)) == 1
        status = Status.GENERICALLY_IDENTIFIED if connected else Status.NOT_IDENTIFIED
    else:
        for cl in maximal_cliques(g_s):
            if len(cl) > 1:
                cert = find_generalized_sequence(g_s, cl)
                clique_certs.append((in_model(cl), cert.relabeled(node_map) if cert else None))
        status = Status.IDENTIFIED_EVERYWHERE
        if any(cert is None for _, cert in clique_certs):
            from .singular import _singular_system

            status = Status.GENERICALLY_IDENTIFIED
            failing = {c: in_model(_bits(c)) for c in _failing_masks(g_s)}
            failing_sets = list(failing.values())
            system = _singular_system(m, g_s, node_map, failing)
    return Verdict(
        status=status,
        s_nodes=s_nodes,
        t1_nodes=t1_nodes,
        m_clique=m_clique,
        clique_certs=tuple(clique_certs),
        failing_sets=tuple(failing_sets),
        singular_system=system,
    )
