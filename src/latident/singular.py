"""Explicit equations for the parameter subspaces where the Jacobian drops rank.

The boundary system: each complete set with no plain identifying sequence gets
one equation per complete subset of its complement boundary, expanded per level
combination.  Every equation is a sum of hidden-node interaction coordinates
set to zero, its terms in column order.  Equations may share coordinates and
may depend on each other; `sample_on_subspace` solves any such system by exact
elimination over its integer rows.

A model's system is built from the observed context that `classify` already
holds (G_S, the subgraph on the hidden node's neighbours, and the failing sets);
`full_system` reads it off the verdict.  Node sets stay bitmasks until the
equations are built.  For each failing set only the complete subsets
inside its boundary are enumerated, by the grow search of `graph`; the boundary
equation of V0 is fixed by the int pair (V0, anchored), so equations are
deduplicated on that pair, first failing set kept as source, before they are
expanded.  An equation records only its terms and that source set: V0 is its
smallest term.  A system builds one ParamEntry per distinct coordinate, which
every equation holding it shares, and sorts the equations once, on each
coordinate's (size, subset, levels) key, the parameter index's column order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from operator import itemgetter

import numpy as np

from .errors import InconsistentSystemError, NotApplicableError
from .graph import (
    Graph,
    NodeSet,
    _bits,
    _complete_within,
    _mask_of,
    _neighborhood,
    complement,
    induced_subgraph,
)
from .identify import _plain_ok, classify, latent_partition
from .loglinear import LATENT, LatentModel, ParamEntry, ParamIndex


@dataclass(frozen=True)
class SingularEquation:
    """Sum of the listed coordinates equals zero; all coefficients are +1.

    Every term's subset contains the hidden node.  The terms come in column
    order, so the first is {0} | V0, V0 the boundary subset the equation was
    built for; `source_set` is the failing set it came from.
    """

    terms: tuple[ParamEntry, ...]
    source_set: NodeSet

    def render(self) -> str:
        return " + ".join(t.name for t in self.terms) + " = 0"


@dataclass(frozen=True)
class SingularSystem:
    """Deduplicated equations, ordered by their terms' sort keys."""

    equations: tuple[SingularEquation, ...]

    def render(self) -> list[str]:
        return [eq.render() for eq in self.equations]


@lru_cache(maxsize=4096)
def _subsets(mask: int) -> tuple[int, ...]:
    """Every subset of mask, the empty one first, in (size, lexicographic) order."""
    singles = [1 << v for v in _bits(mask)]
    return tuple(sum(t) for r in range(len(singles) + 1) for t in combinations(singles, r))


class _Coordinates(dict):
    """A system's coordinates: one shared ParamEntry per distinct term, with its sort key.

    Maps a term mask (local ids of G_S) with every level at 1, or a pair (mask,
    levels) otherwise, to (entry, sort key), building each on first lookup.  The
    sort key is (len(nodes), nodes, levels), the order of `build_param_index`.
    """

    def __init__(self, m: LatentModel, node_map: tuple[int, ...]):
        super().__init__()
        self.node_map = node_map
        self.levels = [m.levels[v] for v in node_map]
        self.multi = _mask_of(i for i, l in enumerate(self.levels) if l > 2)

    def __missing__(self, key: int | tuple[int, tuple[int, ...]]) -> tuple[ParamEntry, tuple]:
        mask, levels = key if isinstance(key, tuple) else (key, None)
        nodes = (LATENT, *(self.node_map[v] for v in _bits(mask)))
        levels = levels or (1,) * len(nodes)
        hit = self[key] = (ParamEntry(nodes, levels), (len(nodes), nodes, levels))
        return hit


def _expand_equation(
    coords: _Coordinates, term_masks: list[int], source_set: NodeSet
) -> list[tuple[tuple, SingularEquation]]:
    """One equation per level combination of the multi-level nodes involved,
    each with its terms' sort keys.

    `term_masks` (observed parts, local ids of G_S) come in (size, lexicographic)
    order, which adding the hidden node keeps, so the terms need no sort; the
    last one is the union of all.  An equation over binary nodes only is a
    single equation at level 1 throughout.
    """
    multi = _bits(term_masks[-1] & coords.multi)
    if not multi:
        entries, keys = zip(*map(coords.__getitem__, term_masks))
        return [(keys, SingularEquation(entries, source_set))]
    out = []
    for combo in product(*(range(1, coords.levels[v]) for v in multi)):
        level_of = dict(zip(multi, combo))
        pairs = []
        for t in term_masks:
            levels = (1, *(level_of.get(v, 1) for v in _bits(t)))
            pairs.append(coords[(t, levels) if max(levels) > 1 else t])
        entries, keys = zip(*pairs)
        out.append((keys, SingularEquation(entries, source_set)))
    return out


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


def _singular_system(
    m: LatentModel, g_s: Graph, node_map: tuple[int, ...], failing: dict[int, NodeSet],
) -> SingularSystem:
    """Boundary equations of the failing sets (bitmasks of G_S's local ids, each
    mapped to its node set in model ids, the source set of its equations).

    A failing set C has one equation per complete subset V0 of its complement
    boundary, with terms {V0 | I : I <= anchored}, where anchored holds the nodes
    of C adjacent in G_S to all of V0.  The V0 are enumerated by growing complete
    sets inside the boundary only.  The pair (V0, anchored) fixes the terms and
    the terms fix the pair (V0 is the smallest term), so each distinct pair is
    expanded once, with the first failing set that yields it as the source.  The
    equations share one ParamEntry per distinct coordinate and are sorted on
    sort keys computed once per coordinate.
    """
    adj, comp_adj = g_s.adj, complement(g_s).adj
    first: dict[tuple[int, int], NodeSet] = {}
    for c_mask, source_set in failing.items():
        bd_mask = _neighborhood(comp_adj, c_mask) & ~c_mask
        for v0 in _complete_within(adj, bd_mask):
            anchored = c_mask
            for v in _bits(v0):
                anchored &= adj[v]
            first.setdefault((v0, anchored), source_set)
    coords = _Coordinates(m, node_map)
    keyed: list[tuple[tuple, SingularEquation]] = []
    for (v0, anchored), source_set in first.items():
        terms = [v0 | extra for extra in _subsets(anchored)]
        keyed.extend(_expand_equation(coords, terms, source_set))
    keyed.sort(key=itemgetter(0))
    return SingularSystem(equations=tuple(eq for _, eq in keyed))


def full_system(m: LatentModel) -> SingularSystem:
    """The singular system that classify attaches to the model.

    Applies to models where the complement of the observed subgraph has a
    clique of size >= 3 but some clique of the observed subgraph has no
    generalized identifying sequence; raises NotApplicableError otherwise.
    """
    verdict = classify(m)
    if verdict.singular_system is not None:
        return verdict.singular_system
    if verdict.m_clique is None:
        raise NotApplicableError(
            "no 3-clique in the complement; the singular set is probed numerically only"
        )
    raise NotApplicableError("every clique has a generalized identifying sequence")


def sample_on_subspace(sys: SingularSystem, idx: ParamIndex, seed) -> np.ndarray:
    """A parameter point with all coordinates nonzero satisfying every equation.

    Free coordinates follow the standard sampling law.  The equations are
    brought to echelon form by exact integer elimination: each row's lowest
    column is eliminated against the row pivoting on it, until the row is empty
    (dependent, dropped) or its lowest column is a new pivot.  Pivot columns are
    solved from the highest down, each from its row's other columns in column
    order; a row elimination never touched keeps every coefficient 1.  Raises
    InconsistentSystemError when a row reduces to one column, which forces that
    coordinate to zero; resamples, up to a cap, whenever a solved coordinate
    lands within 1e-6 of zero.
    """
    from .numeric import sample_beta

    missing = [t for eq in sys.equations for t in eq.terms if t not in idx.lookup]
    if missing:
        raise InconsistentSystemError(f"coordinate {missing[0].name} is not in the parameter index")
    pivots: dict[int, dict[int, int]] = {}  # lowest column -> its row, columns ascending
    for eq in sys.equations:
        row = dict.fromkeys(sorted(idx.lookup[t] for t in eq.terms), 1)
        while row and (d := next(iter(row))) in pivots:
            piv = pivots[d]
            a, b = piv[d], row[d]  # a * row - b * piv, exact in Python ints
            combined = ((c, a * row.get(c, 0) - b * piv.get(c, 0)) for c in sorted(row | piv))
            row = {c: x for c, x in combined if x}
        if len(row) == 1:
            raise InconsistentSystemError(f"the equations force {idx.entries[d].name} to zero")
        if row:
            pivots[d] = row
    rows = [list(pivots[d].items()) for d in sorted(pivots, reverse=True)]
    seed_key = list(seed) if isinstance(seed, (tuple, list)) else [seed]

    for attempt in range(100):
        beta = sample_beta(idx.p, seed_key + [attempt])
        for (d, a_d), *others in rows:
            value = 0.0
            for c, a in others:
                value -= a * beta[c]
            beta[d] = value / a_d
        if all(abs(beta[row[0][0]]) > 1e-6 for row in rows):
            return beta
    raise InconsistentSystemError(
        "could not sample a point with all coordinates nonzero; "
        "some equation may force a coordinate to zero"
    )
