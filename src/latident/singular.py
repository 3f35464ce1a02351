"""Explicit equations for the parameter subspaces where the Jacobian drops rank.

The boundary system: each complete set C with no plain identifying sequence gets
one equation per complete subset V0 of its complement boundary and per level
combination of the multi-level nodes involved.  With anchored the nodes of C
adjacent in G_S to all of V0, the coordinates of {0} | V0 | I over the subsets
I of anchored sum to zero.  Equations may share coordinates and may depend on
each other; `numeric` solves any such system, in model ids, by one exact
elimination over its integer rows (`_eliminate`) and draws points on it from the
echelon rows (`_sample`), for `sample_on_subspace` and `rank_on_system` alike.

A model's system is built from the observed context that `classify` already
holds (G_S, the subgraph on the hidden node's neighbours, and the failing sets);
`full_system` reads it off the verdict.  Only the complete subsets inside a
failing set's boundary are enumerated, by `graph`'s complete-subset walk, once
per distinct boundary.  The pair (V0, anchored) fixes the terms and the terms
fix the pair (V0 is the smallest term), so pairs are deduplicated, first
failing set kept as source.

An equation is kept as its generator, never as a list of terms: V0 and
anchored as slot masks in model ids (node v at level l is bit v * w + l - 1,
w the model's `width`, the layout of the parameter index), plus the source
set.  Each distinct local mask of G_S is mapped to model ids, and expanded by
`loglinear._level_combinations`, the index's own expansion, once.  The
coordinate of {0} | V0 | I is the OR of their slot masks with the hidden
node's slot, and the subsets of a slot mask come in the (size, lexicographic)
order of their nodes, which is column order.  An equation's `terms` are those
slot masks, which `numeric` looks up as they are; `render` names them, which
`locus` prints, while a report writes the generator itself (the name of
{0} | V0 and the anchored slots' tokens).  An equation is a named tuple, so it
carries no attribute dict.  The equations are sorted once, on a key read off
each generator (`_sort_key`) that orders them as their terms' sort keys do, by
the ranks of their distinct V0 and anchored masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import chain, combinations, product
from operator import and_
from typing import Callable, NamedTuple

import numpy as np

from .errors import NotApplicableError
from .graph import Graph, NodeSet, _bits, _complete_within, _mask_of, induced_subgraph
from .identify import Status, _neighborhoods, _plain_ok, classify, latent_partition
from .loglinear import HIDDEN_SLOT, LatentModel, ParamIndex, _coordinate_name, _level_combinations
from .numeric import _eliminate, _sample


def _subsets(mask: int) -> tuple[int, ...]:
    """Every subset of mask, the empty one first, in (size, lexicographic) order."""
    singles = [1 << v for v in _bits(mask)]
    return tuple(chain.from_iterable(
        map(sum, combinations(singles, r)) for r in range(len(singles) + 1)
    ))


class SingularEquation(NamedTuple):
    """Sum of the terms' coordinates equals zero; all coefficients are +1.

    Kept as its generator: `v0` and `anchored` are slot masks in model ids (see
    the module docstring) and `source_set` is the failing set the equation came
    from.  The terms are {0} | V0 | I over the subsets I of anchored, in column
    order, so the first is {0} | V0.  A report writes the generator instead, as
    `designated` and `anchored` (see cli._write_system).
    """

    v0: int
    anchored: int
    source_set: NodeSet

    @property
    def terms(self) -> tuple[int, ...]:
        """The terms' slot masks, in column order."""
        head = HIDDEN_SLOT | self.v0
        return tuple(head | s for s in _subsets(self.anchored))

    def render(self, width: int) -> str:
        """The equation as text, its terms named at the system's `width`."""
        return " + ".join(_coordinate_name(t, width) for t in self.terms) + " = 0"


@dataclass(frozen=True)
class SingularSystem:
    """Deduplicated equations, ordered by their terms' sort keys, and the width
    of their slot masks, the model's `width`."""

    equations: tuple[SingularEquation, ...]
    width: int


def locus_equations_for_set(m: LatentModel, i0: NodeSet) -> list[SingularEquation]:
    """Boundary equations for a complete set i0 with no plain identifying sequence.

    For every complete subset V0 of the complement boundary of i0: the
    coordinate of {0, V0} plus the coordinates of {0, I, V0} over the nonempty
    subsets I of i0 keeping V0 union I complete sum to zero.
    """
    i0 = frozenset(i0)
    g_s, node_map = induced_subgraph(m.graph, latent_partition(m)[0])
    if not i0 <= set(node_map):
        raise ValueError("i0 must consist of observed nodes adjacent to the hidden node")
    local = [node_map.index(v) for v in i0]
    if len(local) < 2 or not g_s.is_complete_set(local):
        raise ValueError(f"{sorted(i0)} is not a complete set of size >= 2")
    c_mask = _mask_of(local)
    if c_mask in _plain_ok(g_s):
        raise NotApplicableError(
            f"{sorted(i0)} has an identifying sequence; no locus equations apply"
        )
    return list(_singular_system(m, g_s, node_map, {c_mask: i0}).equations)


def _sort_key(
    v0: int, anchored: int, width: int, top: int, bits: Callable[[int], list[int]]
) -> tuple[int, ...]:
    """Sort key of the equation with slot masks v0 and anchored: the equations
    of a system sort on it as on their sequences of term keys (size, nodes,
    levels), the parameter index's column order.

    The key is |V0|, V0's nodes, V0's levels (left out when width is 1, as
    every level is then 1), anchored's slots ascending, each a (node, level)
    pair ordered node first, and last a terminator: -1 when |anchored| <= 1 and
    `top`, above every slot, when |anchored| >= 2.  `bits` gives a mask's set
    bits ascending.

    Proof.  Every term holds V0 and the first is {0} | V0, so the first terms
    compare on |V0|, V0's nodes, then V0's levels.  Past equal first terms the
    two equations share V0 and its levels, and terms V0 | I and V0 | J compare
    as I and J do on (size, nodes, levels): of equal-size node sets the lower
    in lexicographic order holds the least node of their symmetric difference,
    which is not in V0, and on equal node sets the first differing level is on
    a node of I.  The term sequences therefore compare as the subsets of
    anchored sets A and B in (size, lexicographic) order: the empty set, the
    singletons by slot, then the pairs and up.  Where the slot lists of A and B
    first differ at a position both have, the singletons there decide, as the
    key's slots do.  Where A's slots are a proper prefix of B's, A's next term
    is a pair when |A| >= 2, which follows B's next singleton (terminator above
    every slot), and A's sequence ends when |A| <= 1, a prefix of B's, which
    comes first (terminator below every slot).  Equal slot lists make equal
    generators, which deduplication leaves out.

    Keys whose |V0| are equal have V0 parts of one length, so keys compare on
    their V0 parts first and on their anchored parts next.  The key of
    (v0, 0) is v0's part and a constant, that of (0, anchored) a constant and
    anchored's part, so those keys rank the V0 and the anchored masks apart
    and the pairs of ranks sort as the keys do.
    """
    slots = bits(v0)
    if width > 1:
        slots = [s // width for s in slots] + [s % width for s in slots]
    return (v0.bit_count(), *slots, *bits(anchored), -1 if anchored.bit_count() < 2 else top)


def _singular_system(
    m: LatentModel, g_s: Graph, node_map: tuple[int, ...], failing: dict[int, NodeSet],
) -> SingularSystem:
    """Boundary equations of the failing sets (bitmasks of G_S's local ids, each
    mapped to its node set in model ids, the source set of its equations).

    A failing set C has one equation per complete subset V0 of its complement
    boundary, with terms {V0 | I : I <= anchored}, where anchored holds the nodes
    of C adjacent in G_S to all of V0.  The V0 are the complete subsets of the
    boundary only, in any order, and each distinct pair (V0, anchored) is kept
    once, with the first failing set that yields it as the source.  Each
    distinct local mask is mapped to model ids, and expanded to its slot masks
    (`loglinear._level_combinations`), once; a pair gives one generator per
    pair of its V0's and its anchored's slot masks.  The generators are sorted
    on `_sort_key`, through the ranks of the distinct V0 and anchored slot
    masks.  Each distinct boundary is enumerated once; a pair is keyed by the
    int v0 << n | anchored of local masks.
    """
    adj, nbhd, n = g_s.adj, _neighborhoods(g_s), len(node_map)
    bits = cache(_bits)  # each distinct mask's bits, read once
    common = cache(lambda v0: reduce(and_, map(adj.__getitem__, bits(v0))))
    within = cache(lambda bd_mask: _complete_within(adj, bd_mask))
    first: dict[int, NodeSet] = {}
    for c_mask, source_set in failing.items():
        for v0 in within(nbhd[c_mask] & ~c_mask):
            first.setdefault(v0 << n | c_mask & common(v0), source_set)
    low, width, model_bit = (1 << n) - 1, m.width, [1 << v for v in node_map]
    to_model = cache(lambda mask: sum(map(model_bit.__getitem__, bits(mask))))  # local -> model ids
    if width == 1:  # a binary node mask is its own slot mask
        gens = [(to_model(key >> n), to_model(key & low), source_set) for key, source_set in first.items()]
    else:
        # V0 lies in C's complement boundary and anchored in C: disjoint node sets,
        # so the level combinations of V0 | anchored are the pairs of their own
        combos = _level_combinations(m)
        expand = cache(lambda mask: tuple(combos(to_model(mask))))
        gens = [(v0, anchored, source_set) for key, source_set in first.items()
                for v0, anchored in product(expand(key >> n), expand(key & low))]
    top = m.graph.node_count * width
    v0s = sorted({gen[0] for gen in gens}, key=lambda v0: _sort_key(v0, 0, width, top, bits))
    anchs = sorted({gen[1] for gen in gens}, key=lambda a: _sort_key(0, a, width, top, bits))
    v0_rank = {v0: i * len(anchs) for i, v0 in enumerate(v0s)}
    anchored_rank = {a: i for i, a in enumerate(anchs)}
    gens.sort(key=lambda gen: v0_rank[gen[0]] + anchored_rank[gen[1]])
    return SingularSystem(tuple(SingularEquation(*gen) for gen in gens), width)


# Why a verdict of each status has no closed-form singular system: classify
# attaches one to every generically identified verdict that is not probe-only.
_NO_SYSTEM = {
    Status.IDENTIFIED_EVERYWHERE: "no singular system: identified_everywhere "
    "(every clique has a generalized identifying sequence)",
    Status.NOT_IDENTIFIED: "no singular system: not_identified (no 3-clique in the complement "
    "and G_S is two complete components: the rank is below p everywhere)",
    Status.GENERICALLY_IDENTIFIED: "no closed-form singular system: no 3-clique in the "
    "complement; probe candidate points with the rank command",
}


def full_system(m: LatentModel) -> SingularSystem:
    """The singular system that classify attaches to the model.

    Applies to models where the complement of the observed subgraph has a
    clique of size >= 3 but some clique of the observed subgraph has no
    generalized identifying sequence.  Otherwise raises NotApplicableError
    with the reason the verdict's case has no closed-form system.
    """
    verdict = classify(m)
    if verdict.singular_system is None:
        raise NotApplicableError(_NO_SYSTEM[verdict.status])
    return verdict.singular_system


def sample_on_subspace(sys: SingularSystem, idx: ParamIndex, seed) -> np.ndarray:
    """A parameter point with all coordinates nonzero satisfying every equation:
    the oracle's draw (`numeric._sample`) on the echelon rows of one exact
    integer elimination (`numeric._eliminate`).  Free coordinates follow the
    standard sampling law.  Raises InconsistentSystemError when the equations
    force a coordinate to zero; resamples, up to a cap, whenever a solved
    coordinate lands within 1e-6 of zero.
    """
    return _sample(_eliminate(sys, idx), idx.p, seed)
