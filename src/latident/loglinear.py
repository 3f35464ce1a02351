"""Hierarchical log-linear structure over a graph with one binary hidden node.

Builds the parameter index (one coordinate per complete subset and non-baseline
level combination, corner-point coding) and the 0/1 design matrix mapping
parameters to log expected cell counts.  Summing out the hidden variable is the
sum of the two hidden-level halves of a cell vector; `marginalization_matrix`
spells that sum out as the dense matrix L = [I I] for tests only.  `_core`
gives the model induced on the hidden node and its neighbours, whose Jacobian
has the model's rank deficit.

Cell stacking convention: the hidden variable A0 changes slowest, then A1, down
to An changing fastest (row-major order over (2, l1, ..., ln)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .errors import ValidationError
from .graph import Graph, NodeSet, _bits, _complete_masks, induced_subgraph

LATENT = 0


@dataclass(frozen=True)
class LatentModel:
    """Graph over nodes {0..n} with node 0 hidden and binary; levels[v] >= 2."""

    graph: Graph
    levels: tuple[int, ...]

    def __post_init__(self):
        if len(self.levels) != self.graph.node_count:
            raise ValidationError(
                f"levels has {len(self.levels)} entries for "
                f"{self.graph.node_count} nodes"
            )
        if self.graph.node_count < 2:
            raise ValidationError("model needs the hidden node and at least one observed node")
        if self.levels[LATENT] != 2:
            raise ValidationError("the hidden node must be binary")
        for v, l in enumerate(self.levels):
            if l < 2:
                raise ValidationError(f"node {v} has {l} levels; at least 2 required")

    @staticmethod
    def binary(graph: Graph) -> "LatentModel":
        """Model with every variable binary."""
        return LatentModel(graph, (2,) * graph.node_count)

    @property
    def observed_set(self) -> NodeSet:
        return frozenset(range(1, self.graph.node_count))

    @property
    def table_size(self) -> int:
        """Number of cells l of the observed marginal table."""
        return math.prod(self.levels[1:])


def _token(v: int, l: int) -> str:
    """Node v at level l in a coordinate name: "v" at level 1, "v:l" otherwise."""
    return str(v) if l == 1 else f"{v}:{l}"


@dataclass(frozen=True)
class ParamEntry:
    """One parameter coordinate: a complete subset plus a non-zero level per member.

    `nodes` is sorted ascending; `levels[i]` is the level (1..l_v-1) attached to
    `nodes[i]`.  The empty subset is the general mean.
    """

    nodes: tuple[int, ...]
    levels: tuple[int, ...]

    @cached_property
    def name(self) -> str:
        """Coordinate name, e.g. "mu", "b{0,2,5}"; level 1 is implied, others shown as v:l.

        Built on first use and kept on the entry.  Names are ASCII with no quote,
        backslash or control character, so a name's JSON string is the name in
        double quotes; the report writer relies on that."""
        if not self.nodes:
            return "mu"
        return "b{" + ",".join(map(_token, self.nodes, self.levels)) + "}"


@dataclass(frozen=True)
class ParamIndex:
    """Ordered parameter coordinates with a coordinate -> column lookup.

    The index of a model's core (`_core`) holds the core's ids in its entries
    and the model id of each core node in `node_ids`; `lookup` and `names` read
    coordinates in the model's ids, so a singular system is looked up as it is.
    """

    entries: tuple[ParamEntry, ...]
    node_ids: tuple[int, ...] | None = None

    @cached_property
    def lookup(self) -> dict[ParamEntry, int]:
        ids, entries = self.node_ids, self.entries
        if ids is not None:
            entries = (ParamEntry(tuple(ids[v] for v in e.nodes), e.levels) for e in entries)
        return {e: j for j, e in enumerate(entries)}

    @property
    def p(self) -> int:
        return len(self.entries)

    def names(self) -> list[str]:
        return [e.name for e in self.lookup]


def build_param_index(m: LatentModel) -> ParamIndex:
    """Index over exactly the complete subsets of the model graph.

    Deterministic order: by subset size, then lexicographically on the subset,
    then lexicographically on the level combination.  The total column count is
    sum over complete subsets I of prod_{v in I} (levels[v] - 1).
    """
    subsets = [(), *(tuple(_bits(c)) for c in _complete_masks(m.graph))]
    entries: list[ParamEntry] = []
    for nodes in subsets:
        for combo in product(*(range(1, m.levels[v]) for v in nodes)):
            entries.append(ParamEntry(nodes, combo))
    return ParamIndex(tuple(entries))


def param_count(m: LatentModel) -> int:
    """The column count p of `build_param_index(m)`, without listing the complete
    subsets I: they grow as in `graph._complete_within`, but the sets sharing a
    candidate mask are one weight, the sum of their products of levels[v] - 1
    over v in I.  A grown set has fewer candidates than its parent, so the masks
    are taken from the most bits to the fewest, each once all its weight is in."""
    adj, less = m.graph.adj, [l - 1 for l in m.levels]
    # by_size[k]: candidate mask of k bits -> weight; the empty set has every node
    by_size: list[dict[int, int]] = [{} for _ in adj] + [{(1 << len(adj)) - 1: 1}]
    p = 1
    for pending in reversed(by_size):
        for cand, weight in pending.items():
            while cand:
                low = cand & -cand
                cand ^= low
                v = low.bit_length() - 1
                grown, w = cand & adj[v], weight * less[v]
                p += w
                bucket = by_size[grown.bit_count()]
                bucket[grown] = bucket.get(grown, 0) + w
    return p


def _core(m: LatentModel) -> tuple[LatentModel, tuple[int, ...]]:
    """The core of m: the model induced on {0} | S, S the hidden node's
    neighbours, with the same levels; and the model id of each core node, in
    ascending order.

    The Jacobian has the same rank deficit p - rank on the core as on m, at
    every point whose coordinates holding the hidden node agree.

    Proof.  The Jacobian of mu_Y is diag(mu_Y) times that of log mu_Y, so the
    two have one rank.  A complete set holding the hidden node lies in {0} | S,
    so log mu_Y(x) = f(x) + G(x_S): f sums the coordinates over complete sets
    of observed nodes, and G = log sum_h exp(...) sums out h from the terms of
    the hidden coordinates, all functions of x_S.  The Jacobian's column space is
    F + span dG: F is spanned by the indicators 1[x_I = a] of the observed-only
    coordinates, which are linearly independent (a tensor basis under
    corner-point coding), and dG by the derivatives of G in the hidden
    coordinates.  So p - rank = p_hid - dim span dG + dim(F & span dG), with
    p_hid the number of hidden coordinates.  A function of F that depends on
    x_S only equals itself at x_v = 0 for v not in S, where every indicator with
    a node outside S vanishes (its levels are nonzero); so it lies in F_S, the
    span of the complete subsets of S.  Hence F & span dG = F_S & span dG.
    p_hid, dG and F_S are the same for the core, whose observed-only span is
    F_S itself, so the deficits agree.  A singular system holds hidden
    coordinates only, so a point of m lies on it exactly when the point's
    restriction to the core does, and the least deficit on the system is also
    the same for both.
    """
    g, ids = induced_subgraph(m.graph, [LATENT, *_bits(m.graph.adj[LATENT])])
    return LatentModel(g, tuple(m.levels[v] for v in ids)), ids


def design_cells(m: LatentModel, p: int) -> np.ndarray:
    """The zeroed (2, l1, ..., ln, p) cell array of the design matrix; raises
    ValidationError naming the shape (2l, p) when numpy cannot allocate it."""
    try:
        return np.zeros((2, *m.levels[1:], p))
    except (ValueError, MemoryError):  # too many axes, or too many cells to allocate
        raise ValidationError(
            f"design matrix of shape ({2 * m.table_size}, {p}) is too large"
        ) from None


def design_matrix(m: LatentModel, idx: ParamIndex) -> np.ndarray:
    """Corner-point 0/1 design matrix, shape (2l, p), C-contiguous float64.

    Entry (cell, (I, combo)) is 1 iff the cell's level of every v in I equals
    the combo's level for v; the empty-set column is all ones.  Column j is
    filled as one grid slice of the `design_cells` array: the axes of the nodes
    in I are fixed at the combo's levels, every other axis is free.
    """
    z = design_cells(m, idx.p)
    for j, e in enumerate(idx.entries):
        cell: list = [slice(None)] * (z.ndim - 1)
        for v, level in zip(e.nodes, e.levels):
            cell[v] = level
        z[(*cell, j)] = 1.0
    z = z.reshape(-1, idx.p)
    z.setflags(write=False)
    return z


def marginalization_matrix(m: LatentModel) -> np.ndarray:
    """(l, 2l) matrix summing out the hidden variable: two side-by-side identities.

    Reference definition of L for tests.  The numeric layer never forms it: it
    adds the two hidden-level halves of a cell vector instead, which gives the
    same numbers bit for bit.
    """
    l = m.table_size
    out = np.hstack([np.eye(l), np.eye(l)])
    out.setflags(write=False)
    return out
