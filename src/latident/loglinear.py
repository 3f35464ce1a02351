"""Hierarchical log-linear structure over a graph with one binary hidden node.

Builds the parameter index (one coordinate per complete subset and non-baseline
level combination, corner-point coding) and the 0/1 design matrix mapping
parameters to log expected cell counts.  Summing out the hidden variable is the
sum of the two hidden-level halves of a cell vector; `marginalization_matrix`
spells that sum out as the dense matrix L = [I I] for tests only.  `_core`
gives the index of the model induced on the hidden node and its neighbours,
whose Jacobian has the model's rank deficit.

A coordinate is one int, its slot mask in model ids: node v at level l
(1..levels[v]-1) is bit v * w + l - 1, with one w per model (`LatentModel.width`),
so a binary model's slot masks are its complete node masks, and the general
mean `mu` is 0.  The index, a core's index, the singular system and every
report read this one form; a name is built only where it is written
(`_coordinate_name`).  One expansion (`_level_combinations`) turns a node mask
into its slot masks, for the index and the singular system alike.

Cell stacking convention: the hidden variable A0 changes slowest, then A1, down
to An changing fastest (row-major order over (2, l1, ..., ln)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, product
from typing import Callable, Iterator

import numpy as np

from .errors import ValidationError
from .graph import Graph, NodeSet, _bits, _complete_within, _mask_of, induced_subgraph

LATENT = 0
HIDDEN_SLOT = 1  # slot mask of the hidden node at its one level: bit 0 at every width


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

    @property
    def width(self) -> int:
        """Slots per node in the model's slot masks: the largest level count less one."""
        return max(self.levels) - 1


def _token(slot: int, width: int) -> str:
    """Slot `slot` at `width` in a coordinate name: node v as "v" at level 1, else "v:l"."""
    v, k = divmod(slot, width)
    return f"{v}:{k + 1}" if k else str(v)


def _coordinate_name(mask: int, width: int) -> str:
    """Name of the coordinate with slot mask `mask` at `width`, e.g. "mu",
    "b{0,2,5}"; level 1 is implied, others shown as v:l.

    Names are ASCII with no quote, backslash or control character, so a name's
    JSON string is the name in double quotes; the report writer relies on that."""
    if not mask:
        return "mu"
    if width == 1:  # each slot is its node at level 1; kept cheap for rank's p names
        return "b{" + ",".join(map(str, _bits(mask))) + "}"
    return "b{" + ",".join(_token(s, width) for s in _bits(mask)) + "}"


@dataclass(frozen=True)
class ParamIndex:
    """The model whose parameters these are, its coordinates as slot masks in
    column order, their width, a coordinate -> column lookup and the design
    matrix.  The numeric layer takes the index alone: the model fixes the
    design's cells and the Jacobian's row count, and `design` is built on first
    use and freed with the index.

    The index of a model's core (`_core`) holds the core model, the core's
    coordinates as slot masks of the whole model (its ids and its width) and
    the model id of each core node in `node_ids`, so a singular system is
    looked up as it is.
    """

    model: LatentModel
    entries: tuple[int, ...]
    width: int
    node_ids: tuple[int, ...] | None = None

    @cached_property
    def lookup(self) -> dict[int, int]:
        return {e: j for j, e in enumerate(self.entries)}

    @cached_property
    def design(self) -> np.ndarray:
        return design_matrix(self)

    @property
    def p(self) -> int:
        return len(self.entries)

    def names(self) -> list[str]:
        return [_coordinate_name(e, self.width) for e in self.entries]


def build_param_index(m: LatentModel, nodes: tuple[int, ...] | None = None) -> ParamIndex:
    """Index over m's coordinates (`param_entries`), or over those of the model
    m induces on `nodes` (the hidden node among them), kept as m's slot masks,
    with the nodes ascending as `node_ids`.  Raises ValidationError, before it
    lists any entry, when numpy cannot allocate the design matrix
    (`_design_cells`); `rank` lists a model's entries without it."""
    sub, within = m, -1
    if nodes is not None:
        g, nodes = induced_subgraph(m.graph, nodes)
        sub, within = LatentModel(g, tuple(m.levels[v] for v in nodes)), _mask_of(nodes)
    _design_cells(sub, param_count(sub))
    return ParamIndex(sub, param_entries(m, within), m.width, nodes)


def _level_combinations(m: LatentModel) -> Callable[[int], Iterator[int]]:
    """m's one expansion: a node mask in model ids to the slot masks of its level
    combinations, in column order.  A node's slot list is built on first use, so
    a node no mask holds costs nothing, whatever its level count."""
    w, levels = m.width, m.levels
    slots = cache(lambda v: [1 << v * w + k for k in range(levels[v] - 1)])
    return lambda mask: map(sum, product(*map(slots, _bits(mask))))


def param_entries(m: LatentModel, within: int = -1) -> tuple[int, ...]:
    """Slot mask of every coordinate of m on the nodes of `within` (a node mask,
    all nodes by default): by subset size, then lexicographically on the subset,
    then on the level combination (`_level_combinations`); p = sum over complete
    subsets I of prod_{v in I} (levels[v] - 1).  The order reads node ids only
    through their order, so the core's coordinates (`_core`) keep theirs among
    the model's.  A binary model's slot masks are its complete node masks."""
    subsets = _complete_within(m.graph.adj, within & (1 << m.graph.node_count) - 1)
    if m.width == 1:
        return (0, *subsets)
    return (0, *chain.from_iterable(map(_level_combinations(m), subsets)))


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


def _core(m: LatentModel) -> ParamIndex:
    """The index of m's core: the model induced on {0} | S, S the hidden node's
    neighbours, with the same levels; its coordinates as m's slot masks; and in
    `node_ids` the model id of each core node, in ascending order.

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
    return build_param_index(m, (LATENT, *_bits(m.graph.adj[LATENT])))


def _design_cells(m: LatentModel, p: int) -> np.ndarray:
    """The zeroed (2, l1, ..., ln, p) cell array of the design matrix; raises
    ValidationError naming the shape (2l, p) when numpy cannot allocate it."""
    try:
        return np.zeros((2, *m.levels[1:], p))
    except (ValueError, MemoryError):  # too many axes, or too many cells to allocate
        raise ValidationError(
            f"design matrix of shape ({2 * m.table_size}, {p}) is too large"
        ) from None


def design_matrix(idx: ParamIndex) -> np.ndarray:
    """Corner-point 0/1 design matrix of idx's model, shape (2l, p), C-contiguous float64.

    Entry (cell, (I, combo)) is 1 iff the cell's level of every v in I equals
    the combo's level for v; the empty-set column is all ones.  Column j is
    filled as one grid slice of the `_design_cells` array: the axes of the nodes
    in I, read off the slot mask's bits (through `node_ids` for a core), are
    fixed at the combo's levels, every other axis is free.
    """
    z = _design_cells(idx.model, idx.p)
    w = idx.width
    axis = {v: a for a, v in enumerate(idx.node_ids or range(z.ndim - 1))}
    for j, e in enumerate(idx.entries):
        cell: list = [slice(None)] * (z.ndim - 1)
        for s in _bits(e):
            cell[axis[s // w]] = s % w + 1
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
