"""Explicit equations for the parameter subspaces where the Jacobian drops rank.

Two generators: boundary equations attached to a complete set with no plain
identifying sequence (one equation per complete subset of its complement
boundary, expanded per level combination), and disconnection equations for
models whose complement observed graph is disconnected.  Every equation is a
sum of hidden-node interaction coordinates set to zero, with one coordinate
designated so points on the subspace can be sampled by solving for the
designated coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .errors import InconsistentSystemError, NotApplicableError
from .graph import (
    Graph,
    NodeSet,
    _bits,
    _complete_masks,
    _mask_of,
    _set_of,
    boundary_in,
    complement,
    complete_subsets,
    connected_components,
    induced_subgraph,
    is_connected,
    maximal_cliques,
)
from .identify import _generalized_ok, _plain_ok, latent_partition
from .loglinear import LATENT, LatentModel, ParamEntry, ParamIndex


@dataclass(frozen=True)
class EquationSource:
    """Where an equation came from: a failing set and boundary subset, or a
    nested pair of complete sets spanning two complement components."""

    kind: str  # "boundary" | "disconnection"
    base_set: NodeSet
    other_set: NodeSet


@dataclass(frozen=True)
class SingularEquation:
    """Sum of the listed coordinates equals zero; all coefficients are +1.

    Every term's subset contains the hidden node.  `designated` is the term a
    sampler solves for; it is always one of `terms`.
    """

    terms: tuple[ParamEntry, ...]
    designated: ParamEntry
    source: EquationSource

    def render(self) -> str:
        return " + ".join(t.name for t in self.terms) + " = 0"


@dataclass(frozen=True)
class SingularSystem:
    """Deduplicated, deterministically ordered equations; rank drop unknown
    unless externally established."""

    equations: tuple[SingularEquation, ...]
    expected_rank_drop_full: int | None = None

    def render(self) -> list[str]:
        return [eq.render() for eq in self.equations]


def _observed_context(m: LatentModel) -> tuple[Graph, tuple[int, ...], dict[int, int]]:
    s_nodes, _ = latent_partition(m)
    g_s, node_map = induced_subgraph(m.graph, sorted(s_nodes))
    to_local = {orig: local for local, orig in enumerate(node_map)}
    return g_s, node_map, to_local


def _expand_equation(
    m: LatentModel,
    subsets: list[NodeSet],
    designated_subset: NodeSet,
    source: EquationSource,
) -> list[SingularEquation]:
    """One equation per level combination of the observed nodes involved.

    `subsets` lists the observed part of each term (model ids); the hidden node
    is added to every term.  For an all-binary model this produces exactly one
    equation.
    """
    involved = sorted(set().union(*subsets))
    level_ranges = [range(1, m.levels[v]) for v in involved]
    out = []
    for combo in product(*level_ranges):
        level_of = dict(zip(involved, combo))

        def entry(obs: NodeSet) -> ParamEntry:
            nodes = tuple(sorted({LATENT, *obs}))
            return ParamEntry(
                nodes, tuple(1 if v == LATENT else level_of[v] for v in nodes)
            )

        terms = tuple(sorted((entry(s) for s in subsets), key=ParamEntry.sort_key))
        out.append(
            SingularEquation(
                terms=terms, designated=entry(designated_subset), source=source
            )
        )
    return out


def locus_equations_for_set(m: LatentModel, i0: NodeSet) -> list[SingularEquation]:
    """Boundary equations for a complete set i0 with no plain identifying sequence.

    For every complete subset V0 of the complement boundary of i0: the
    coordinate of {0, V0} plus the coordinates of {0, I, V0} over the nonempty
    subsets I of i0 keeping V0 union I complete sum to zero.  The {0, V0} term
    is designated.
    """
    i0 = frozenset(i0)
    g_s, node_map, to_local = _observed_context(m)
    if not i0 <= set(node_map):
        raise ValueError("i0 must consist of observed nodes adjacent to the hidden node")
    local = frozenset(to_local[v] for v in i0)
    if len(local) < 2 or not g_s.is_complete_set(local):
        raise ValueError(f"{sorted(i0)} is not a complete set of size >= 2")
    if _mask_of(local) in _plain_ok(g_s):
        raise NotApplicableError(
            f"{sorted(i0)} has an identifying sequence; no locus equations apply"
        )
    to_model = dict(enumerate(node_map))
    bd_mask = _mask_of(boundary_in(complement(g_s), local))
    adj = g_s.adjacency_masks
    equations: list[SingularEquation] = []
    for v0_mask in _complete_masks(g_s):
        if v0_mask & ~bd_mask:
            continue
        v0 = _set_of(v0_mask)
        anchored = [i for i in sorted(local) if adj[i] & v0_mask == v0_mask]
        subsets = [
            v0 | frozenset(extra)
            for r in range(len(anchored) + 1)
            for extra in combinations(anchored, r)
        ]
        source = EquationSource(
            kind="boundary",
            base_set=frozenset(to_model[v] for v in local),
            other_set=frozenset(to_model[v] for v in v0),
        )
        model_subsets = [frozenset(to_model[v] for v in s) for s in subsets]
        designated = frozenset(to_model[v] for v in v0)
        equations.extend(_expand_equation(m, model_subsets, designated, source))
    return _dedup(equations)


def disconnection_equations(m: LatentModel) -> list[SingularEquation]:
    """Equations tied to a disconnected complement of the observed subgraph.

    For complete sets I1, I2 inside two different complement components (their
    union is complete) and any complete S' with I1 strictly inside S' and S'
    inside the union: the coordinates of {0, I} over the subsets I of S' not
    contained in I1 sum to zero.  The {0, S'} term is designated.
    """
    g_s, node_map, _ = _observed_context(m)
    comp_s = complement(g_s)
    if is_connected(comp_s):
        raise NotApplicableError("the complement of the observed subgraph is connected")
    comps = connected_components(comp_s)
    all_complete = complete_subsets(g_s, 1)
    to_model = dict(enumerate(node_map))
    equations: list[SingularEquation] = []
    for comp_a, comp_b in product(comps, comps):
        if comp_a == comp_b:
            continue
        for i1 in (s for s in all_complete if s <= comp_a):
            for i2 in (s for s in all_complete if s <= comp_b):
                union = i1 | i2
                for s_prime in (s for s in all_complete if i1 < s <= union):
                    inner = [
                        frozenset(t)
                        for r in range(1, len(s_prime) + 1)
                        for t in combinations(sorted(s_prime), r)
                        if not frozenset(t) <= i1
                    ]
                    source = EquationSource(
                        kind="disconnection",
                        base_set=frozenset(to_model[v] for v in i1),
                        other_set=frozenset(to_model[v] for v in s_prime),
                    )
                    model_subsets = [
                        frozenset(to_model[v] for v in t) for t in inner
                    ]
                    designated = frozenset(to_model[v] for v in s_prime)
                    equations.extend(
                        _expand_equation(m, model_subsets, designated, source)
                    )
    return _dedup(equations)


def _dedup(equations: list[SingularEquation]) -> list[SingularEquation]:
    """Drop literal duplicates (same term set), keep first source, sort canonically."""
    seen: dict[tuple[ParamEntry, ...], SingularEquation] = {}
    for eq in equations:
        seen.setdefault(eq.terms, eq)
    return sorted(
        seen.values(),
        key=lambda eq: (eq.designated.sort_key(), tuple(t.sort_key() for t in eq.terms)),
    )


def full_system(m: LatentModel) -> SingularSystem:
    """Union of boundary equations over every complete set lacking a sequence.

    Applies to models where the complement of the observed subgraph has a
    clique of size >= 3 but some clique of the observed subgraph has no
    generalized identifying sequence; raises NotApplicableError otherwise.
    """
    g_s, node_map, _ = _observed_context(m)
    comp_s = complement(g_s)
    if not any(len(c) >= 3 for c in maximal_cliques(comp_s)):
        raise NotApplicableError(
            "no 3-clique in the complement; the singular set is probed numerically only"
        )
    gen_ok = _generalized_ok(g_s)
    if all(_mask_of(c) in gen_ok for c in maximal_cliques(g_s) if len(c) > 1):
        raise NotApplicableError("every clique has a generalized identifying sequence")
    plain_ok = _plain_ok(g_s)
    to_model = dict(enumerate(node_map))
    equations: list[SingularEquation] = []
    for c in _complete_masks(g_s):
        if c.bit_count() > 1 and c not in plain_ok:
            i0 = frozenset(to_model[v] for v in _bits(c))
            equations.extend(locus_equations_for_set(m, i0))
    return SingularSystem(equations=tuple(_dedup(equations)))


def sample_on_subspace(sys: SingularSystem, idx: ParamIndex, seed) -> np.ndarray:
    """A parameter point with all coordinates nonzero satisfying every equation.

    Free coordinates follow the standard sampling law; the designated
    coordinate of each equation is solved from the others (designated
    coordinates appearing in other equations are handled by one joint linear
    solve).  Resamples, up to a cap, whenever a solved coordinate lands within
    1e-6 of zero.
    """
    from .numeric import sample_beta

    designated_cols: list[int] = []
    for eq in sys.equations:
        if eq.designated not in eq.terms:
            raise InconsistentSystemError("designated coordinate missing from its equation")
        col = idx.lookup.get(eq.designated)
        if col is None:
            raise InconsistentSystemError(
                f"coordinate {eq.designated.name} is not in the parameter index"
            )
        designated_cols.append(col)
    if len(set(designated_cols)) != len(designated_cols):
        raise InconsistentSystemError(
            "designated coordinates are not distinct across equations"
        )
    col_to_eq = {c: e for e, c in enumerate(designated_cols)}
    d = len(sys.equations)
    seed_key = list(seed) if isinstance(seed, (tuple, list)) else [seed]

    for attempt in range(100):
        beta = sample_beta(idx.p, seed_key + [attempt])
        if d == 0:
            return beta
        a = np.zeros((d, d))
        b = np.zeros(d)
        for e, eq in enumerate(sys.equations):
            a[e, e] += 1.0
            for term in eq.terms:
                if term == eq.designated:
                    continue
                col = idx.lookup.get(term)
                if col is None:
                    raise InconsistentSystemError(
                        f"coordinate {term.name} is not in the parameter index"
                    )
                if col in col_to_eq:
                    a[e, col_to_eq[col]] += 1.0
                else:
                    b[e] -= beta[col]
        try:
            solved = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise InconsistentSystemError(
                "designated coordinates form a circular dependency"
            ) from exc
        if np.min(np.abs(solved)) > 1e-6:
            beta[designated_cols] = solved
            return beta
    raise InconsistentSystemError(
        "could not sample a point with all coordinates nonzero; "
        "some equation may force a coordinate to zero"
    )
