"""Hierarchical log-linear structure over a graph with one binary hidden node.

Builds the parameter index (one coordinate per complete subset and non-baseline
level combination, corner-point coding) and the 0/1 design matrix mapping
parameters to log expected cell counts.  Summing out the hidden variable is the
sum of the two hidden-level halves of a cell vector; `marginalization_matrix`
spells that sum out as the dense matrix L = [I I] for tests only.

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
from .graph import Graph, NodeSet, _bits, _complete_masks, _complete_within, _mask_of

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
        parts = [
            str(v) if l == 1 else f"{v}:{l}" for v, l in zip(self.nodes, self.levels)
        ]
        return "b{" + ",".join(parts) + "}"


@dataclass(frozen=True)
class ParamIndex:
    """Ordered parameter coordinates with a coordinate -> column lookup."""

    entries: tuple[ParamEntry, ...]

    @cached_property
    def lookup(self) -> dict[ParamEntry, int]:
        return {e: j for j, e in enumerate(self.entries)}

    @property
    def p(self) -> int:
        return len(self.entries)

    def names(self) -> list[str]:
        return [e.name for e in self.entries]


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
    """The column count p of `build_param_index(m)`, without building the entries:
    1 for the general mean plus, over the complete subsets I, the product of
    levels[v] - 1 over the v in I (1 when every v in I is binary).  Counting
    needs no order, so the subsets are taken unsorted from the grow search."""
    less = [l - 1 for l in m.levels]
    multi = _mask_of(v for v, l in enumerate(less) if l > 1)
    found = _complete_within(m.graph.adj, (1 << m.graph.node_count) - 1)
    return 1 + sum(math.prod([less[v] for v in _bits(c & multi)]) for c in found)


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
