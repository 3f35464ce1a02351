import hashlib
from functools import cache

import numpy as np
import pytest

from latident import (
    Graph,
    InconsistentSystemError,
    LatentModel,
    NotApplicableError,
    SingularSystem,
    build_param_index,
    classify,
    full_system,
    generic_rank,
    jacobian,
    locus_equations_for_set,
    numeric_rank,
    rank_on_system,
    sample_on_subspace,
)
from latident import singular
from latident.singular import SingularEquation
from latident.loglinear import ParamEntry

from conftest import FIXTURE_NAMES, dense_model, hidden_over_all_graphs, load_model

TRIANGLE_PENDANTS_SYSTEM = {
    "b{0,2} + b{0,2,5} = 0",
    "b{0,3} + b{0,3,4} = 0",
    "b{0,6} + b{0,1,6} = 0",
}

K4_PENDANTS_SYSTEM = {
    "b{0,5} + b{0,4,5} = 0",
    "b{0,6} + b{0,4,6} = 0",
    "b{0,1} + b{0,1,4} = 0",
    "b{0,2} + b{0,2,4} = 0",
    "b{0,3} + b{0,3,4} = 0",
    "b{0,1,2} + b{0,1,2,4} = 0",
    "b{0,1,3} + b{0,1,3,4} = 0",
    "b{0,2,3} + b{0,2,3,4} = 0",
    "b{0,1,2,3} + b{0,1,2,3,4} = 0",
}


def test_locus_equations_triangle_pendants(triangle_pendants):
    eqs = locus_equations_for_set(triangle_pendants, frozenset({1, 4, 5}))
    assert {e.render() for e in eqs} == TRIANGLE_PENDANTS_SYSTEM


def test_locus_equations_k4_block(k4_pendants):
    eqs = locus_equations_for_set(k4_pendants, frozenset({1, 2, 3, 4}))
    assert {e.render() for e in eqs} == {
        "b{0,5} + b{0,4,5} = 0",
        "b{0,6} + b{0,4,6} = 0",
    }


def test_locus_equations_k4_pendant_edge(k4_pendants):
    eqs = locus_equations_for_set(k4_pendants, frozenset({4, 5}))
    assert {e.render() for e in eqs} == K4_PENDANTS_SYSTEM - {"b{0,5} + b{0,4,5} = 0"}


def test_locus_equations_not_applicable_with_sequence(k4_pendants):
    with pytest.raises(NotApplicableError):
        locus_equations_for_set(k4_pendants, frozenset({1, 2}))


def test_locus_equations_rejects_non_complete(k4_pendants):
    with pytest.raises(ValueError):
        locus_equations_for_set(k4_pendants, frozenset({1, 5}))


def test_full_system_triangle_pendants(triangle_pendants):
    system = full_system(triangle_pendants)
    assert {e.render() for e in system.equations} == TRIANGLE_PENDANTS_SYSTEM


def test_full_system_k4_pendants(k4_pendants):
    system = full_system(k4_pendants)
    assert {e.render() for e in system.equations} == K4_PENDANTS_SYSTEM
    assert len(system.equations) == 9


def test_full_system_not_applicable_when_identified(path5):
    with pytest.raises(NotApplicableError):
        full_system(path5)


@pytest.mark.parametrize(
    "name, message",
    [
        ("path5", "every clique has a generalized identifying sequence"),
        ("path3_isolated", "every clique has a generalized identifying sequence"),
        ("triangle_isolated", "no 3-clique in the complement"),
    ],
)
def test_full_system_not_applicable_names_the_failed_condition(name, message):
    with pytest.raises(NotApplicableError, match=message):
        full_system(load_model(name))


def test_each_distinct_equation_is_expanded_once(monkeypatch):
    calls = []
    original = singular._expand_equation

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(singular, "_expand_equation", counted)
    system = classify(dense_model(10)).singular_system
    assert len(calls) == len(system.equations) == 1105


def test_equal_coordinates_are_one_shared_entry():
    eqs = classify(dense_model(10)).singular_system.equations
    terms = [t for eq in eqs for t in eq.terms]
    assert len({id(t) for t in terms}) == len(set(terms)) < len(terms)


def test_full_system_sources_are_failing_sets(k4_pendants):
    # each failing set is built once: an equation's source set is the very
    # object the verdict lists
    for m in (k4_pendants, dense_model(10)):
        verdict = classify(m)
        failing_ids = {id(s) for s in verdict.failing_sets}
        for eq in verdict.singular_system.equations:
            assert id(eq.source_set) in failing_ids


@pytest.mark.parametrize(
    "model",
    [load_model(name) for name in FIXTURE_NAMES] + [dense_model(8), dense_model(9)],
    ids=FIXTURE_NAMES + ["dense8", "dense9"],
)
def test_full_system_is_union_over_failing_sets(model):
    verdict = classify(model)
    if verdict.singular_system is None:
        assert verdict.failing_sets == ()
        return
    first_seen = {}
    for s in verdict.failing_sets:
        for eq in locus_equations_for_set(model, s):
            first_seen.setdefault(eq.render(), (eq.source_set, eq.terms[0].nodes[1:]))
    system = full_system(model)
    assert {
        eq.render(): (eq.source_set, eq.terms[0].nodes[1:]) for eq in system.equations
    } == first_seen
    assert len(system.equations) == len(first_seen)
    assert system.equations == verdict.singular_system.equations


def test_equation_terms_exist_in_param_index(triangle_pendants, k4_pendants):
    for m in (triangle_pendants, k4_pendants):
        idx = build_param_index(m)
        for eq in full_system(m).equations:
            cols = [idx.lookup[t] for t in eq.terms]
            assert cols == sorted(set(cols))  # column order: terms[0] is the lowest
            for term in eq.terms:
                assert term in idx.lookup
                assert 0 in term.nodes


def test_sample_on_subspace_satisfies_system(triangle_pendants):
    idx = build_param_index(triangle_pendants)
    system = full_system(triangle_pendants)
    beta = sample_on_subspace(system, idx, seed=3)
    assert beta.shape == (idx.p,)
    assert np.min(np.abs(beta)) > 1e-6
    for eq in system.equations:
        assert abs(sum(beta[idx.lookup[t]] for t in eq.terms)) < 1e-12


def test_sample_on_subspace_k4_full_system_exact(k4_pendants):
    idx = build_param_index(k4_pendants)
    system = full_system(k4_pendants)
    for seed in range(5):
        beta = sample_on_subspace(system, idx, seed)
        for eq in system.equations:
            assert abs(sum(beta[idx.lookup[t]] for t in eq.terms)) < 1e-12


def test_sample_on_subspace_empty_system_is_unconstrained(path5):
    from latident import sample_beta

    idx = build_param_index(path5)
    beta = sample_on_subspace(SingularSystem(()), idx, seed=4)
    assert np.array_equal(beta, sample_beta(idx.p, [4, 0]))


def test_sample_on_subspace_deterministic(k4_pendants):
    idx = build_param_index(k4_pendants)
    system = full_system(k4_pendants)
    assert np.array_equal(
        sample_on_subspace(system, idx, 0), sample_on_subspace(system, idx, 0)
    )


def _toy_equation(*term_nodes):
    """All-binary equation with the terms in the order given."""
    terms = tuple(ParamEntry(nodes, (1,) * len(nodes)) for nodes in term_nodes)
    return SingularEquation(terms=terms, source_set=frozenset())


def _assert_on_system(beta, system, idx):
    assert np.min(np.abs(beta)) > 1e-6
    for eq in system.equations:
        assert abs(sum(beta[idx.lookup[t]] for t in eq.terms)) < 1e-12


def test_sample_on_subspace_eliminates_a_shared_lowest_column(path5):
    # both equations have b{0,1} as their lowest column; elimination pivots
    # the second on b{0,2,3}
    idx = build_param_index(path5)
    eq1 = _toy_equation((0, 1), (0, 1, 2))
    eq2 = _toy_equation((0, 1), (0, 2, 3))
    system = SingularSystem((eq1, eq2))
    for seed in range(3):
        _assert_on_system(sample_on_subspace(system, idx, seed), system, idx)


@pytest.mark.parametrize(
    "term_lists, name",
    [
        ([[(0, 2, 3)]], r"b\{0,2,3\}"),
        # b{0,1} + b{0,1,2} + b{0,2} minus the first equation leaves b{0,2}
        ([[(0, 1), (0, 1, 2)], [(0, 1), (0, 1, 2), (0, 2)]], r"b\{0,2\}"),
    ],
)
def test_sample_on_subspace_rejects_a_forced_zero(path5, term_lists, name):
    idx = build_param_index(path5)
    system = SingularSystem(tuple(_toy_equation(*terms) for terms in term_lists))
    with pytest.raises(InconsistentSystemError, match=rf"^the equations force {name} to zero$"):
        sample_on_subspace(system, idx, 0)


def test_sample_on_subspace_ignores_term_order(path5):
    idx = build_param_index(path5)
    in_order = [[(0, 1), (0, 1, 2), (0, 2, 3)], [(0, 1), (0, 3, 4)], [(0, 2), (0, 4, 5)]]
    systems = [
        SingularSystem(tuple(_toy_equation(*terms) for terms in term_lists))
        for term_lists in (in_order, [terms[::-1] for terms in in_order])
    ]
    for seed in range(3):
        ordered, reversed_ = (sample_on_subspace(s, idx, seed).tobytes() for s in systems)
        assert ordered == reversed_


def test_sample_on_subspace_ignores_equation_order(k4_pendants):
    idx = build_param_index(k4_pendants)
    system = full_system(k4_pendants)
    reverse = SingularSystem(system.equations[::-1])
    for seed in range(3):
        assert sample_on_subspace(reverse, idx, seed).tobytes() == (
            sample_on_subspace(system, idx, seed).tobytes()
        )


def test_multi_level_expansion_splits_per_level():
    base = load_model("triangle_pendants")
    m = LatentModel(base.graph, (2, 2, 3, 2, 2, 2, 2))
    system = full_system(m)
    assert set(system.render()) == {
        "b{0,2} + b{0,2,5} = 0",
        "b{0,2:2} + b{0,2:2,5} = 0",
        "b{0,3} + b{0,3,4} = 0",
        "b{0,6} + b{0,1,6} = 0",
    }
    idx = build_param_index(m)
    assert idx.p == 32
    assert generic_rank(m, trials=20, seed=0).rank == 32
    on_sub = rank_on_system(m, system, trials=20, seed=0)
    assert on_sub.rank == 31
    assert on_sub.unanimous


def test_multi_level_shared_lowest_column_drops_rank():
    # node 5 at 3 levels: two equations share their lowest column b{0,5}
    base = load_model("triangle_pendants")
    m = LatentModel(base.graph, (2, 2, 2, 2, 2, 3, 2))
    system = full_system(m)
    assert generic_rank(m, trials=20, seed=0).rank == build_param_index(m).p == 38
    on_sub = rank_on_system(m, system, trials=20, seed=0)
    assert on_sub.rank < 38
    assert on_sub.unanimous


def test_t1_extension_keeps_s_restricted_system(triangle_pendants):
    edges = sorted(triangle_pendants.graph.edges) + [(6, 7)]
    m = LatentModel.binary(Graph.from_edges(8, edges))
    verdict = classify(m)
    assert verdict.t1_nodes == frozenset({7})
    assert {e.render() for e in verdict.singular_system.equations} == TRIANGLE_PENDANTS_SYSTEM
    idx = build_param_index(m)
    assert generic_rank(m, trials=20, seed=0).rank == idx.p == 30
    assert rank_on_system(m, verdict.singular_system, trials=20, seed=0).rank == 29


# sha256 over each equation's text, first term's name and source, for every
# system; pinned from the implementation that sorted each equation's terms
# (dense12 and dense9_3lev from the one that filtered every complete subset
# against each boundary and built one ParamEntry per term occurrence).
SYSTEM_DIGESTS = {
    "path5": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "path3_isolated": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "triangle_isolated": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "triangle_pendants": (3, "0cd46667d05e88e64400532c71a6e4af8bfe1fb51cc96a941f4228d96a45011b"),
    "k4_pendants": (9, "e003417aa74ce350888a527a6817cfa3830a7bea04af86bd3493a6406bb253b6"),
    "clique_web9": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "dense8": (271, "aca7720bd3e4bce6f787b9e8d9c026203a629ef1a1fb38c3989dbbdfbcee50b6"),
    "dense9": (549, "9eb1b0b23149b072f412f820c3bd3e0ed6587f72d686afc2210080242cb9786f"),
    "dense10": (1105, "0276eeafa7d3d34c753373866edda4b66dd53ed305ea07a889020dd268f53455"),
    "pendants_2_3lev": (4, "d9b61b7bfe3a464aa26cb3ba3365add29462e4676d40d199ff0deb8ec1688bc0"),
    "pendants_5_3lev": (4, "240488a4e80d117433de8500a72411de75dbdad82b0d1029d10db0cc0eda2060"),
    "dense12": (4441, "64e91bfe791a29cce429ea0270ae975eaebc9a85b88a1ba05786582bc7df2973"),
    "dense9_3lev": (1011, "2b9f438c5d3c1e10ab98b51f208ff574523c26ee7ea6010d820da73cf758ae88"),
}


def _digest_model(name):
    if name.endswith("_3lev") and name.startswith("dense"):
        # nodes 1 and 4 at 3 levels: multi-level terms across a large system
        base = dense_model(int(name[5:].split("_")[0]))
        levels = list(base.levels)
        levels[1] = levels[4] = 3
        return LatentModel(base.graph, tuple(levels))
    if name.startswith("dense"):
        return dense_model(int(name[5:]))
    if name.startswith("pendants_"):
        levels = [2] * 7
        levels[int(name.split("_")[1])] = 3
        return LatentModel(load_model("triangle_pendants").graph, tuple(levels))
    return load_model(name)


def _hash_equations(h, equations):
    for eq in equations:
        keys = [(len(t.nodes), t.nodes, t.levels) for t in eq.terms]
        assert keys == sorted(keys)
        h.update(
            f"{eq.render()}|{eq.terms[0].name}|boundary|"
            f"{sorted(eq.source_set)}|{sorted(eq.terms[0].nodes[1:])}\n".encode()
        )


@pytest.mark.parametrize("name", list(SYSTEM_DIGESTS))
def test_singular_system_matches_pinned_digest(name):
    system = classify(_digest_model(name)).singular_system
    equations = system.equations if system is not None else ()
    h = hashlib.sha256()
    _hash_equations(h, equations)
    assert (len(equations), h.hexdigest()) == SYSTEM_DIGESTS[name]


def test_exhaustive_singular_systems_match_pinned_digest():
    # every labelled graph on k = 1..5 observed nodes, hidden node adjacent to
    # all, once all-binary and once with node 1 at 3 levels; one sha256 over
    # every system in that order, pinned before the disconnection generator and
    # the first-seen dedup were deleted
    h = hashlib.sha256()
    systems = equations = 0
    for g in hidden_over_all_graphs():
        binary = (2,) * g.node_count
        for levels in (binary, (2, 3) + binary[2:]):
            system = classify(LatentModel(g, levels)).singular_system
            if system is not None:
                systems += 1
                equations += len(system.equations)
                _hash_equations(h, system.equations)
    assert (systems, equations, h.hexdigest()) == (
        478,
        3018,
        "9b5ffc0e14aa72c028b64e46de275062d7a67b99e412cc9ed55b87abe3ee274f",
    )


@cache
def _exhaustive_groups():
    """The 478 systems above as (model, system, index) triples, grouped by shape:
    "forced_zero" holds a single-term equation, "distinct" has pairwise distinct
    lowest columns (the systems back-substitution could sample) and "shared"
    is the rest."""
    groups = {"distinct": [], "shared": [], "forced_zero": []}
    for g in hidden_over_all_graphs():
        binary = (2,) * g.node_count
        for levels in (binary, (2, 3) + binary[2:]):
            m = LatentModel(g, levels)
            system = classify(m).singular_system
            if system is None:
                continue
            eqs = system.equations
            if any(len(eq.terms) == 1 for eq in eqs):
                group = "forced_zero"
            elif len({eq.terms[0] for eq in eqs}) == len(eqs):
                group = "distinct"
            else:
                group = "shared"
            groups[group].append((m, system, build_param_index(m)))
    return groups


def _assert_boundary_subsets(m, system):
    # V0 checked against the graph, not against how it was built: a nonempty
    # complete set of S outside the source set, each node of it with a
    # non-neighbour in the source set
    g = m.graph
    s_nodes = classify(m).s_nodes
    for eq in system.equations:
        v0 = frozenset(eq.terms[0].nodes[1:])
        assert v0 and v0 <= s_nodes and g.is_complete_set(v0)
        assert not v0 & eq.source_set
        for v in v0:
            assert any(c not in g.neighbors(v) for c in eq.source_set)


def test_exhaustive_boundary_subsets_are_boundary_subsets():
    systems = [t for group in _exhaustive_groups().values() for t in group]
    assert len(systems) == 478
    for m, system, _ in systems:
        _assert_boundary_subsets(m, system)


def test_dense_boundary_subsets_are_boundary_subsets():
    m = dense_model(12)
    _assert_boundary_subsets(m, classify(m).singular_system)


def test_exhaustive_samples_match_pinned_digest():
    # per system with distinct lowest columns and t = 0, 1, 2 the bytes of the
    # point drawn with seed (0, t), pinned from the back-substitution sampler
    h = hashlib.sha256()
    systems = _exhaustive_groups()["distinct"]
    for _, system, idx in systems:
        for t in range(3):
            h.update(sample_on_subspace(system, idx, (0, t)).tobytes())
    assert (len(systems), h.hexdigest()) == (
        262,
        "b76398d0327f7404a8837cf7854f8b0753372c342bdc76cf68f33b1e434c0177",
    )


def test_exhaustive_shared_column_systems_drop_rank():
    # back-substitution raised on every one of these; each point now lies on
    # the system, has every coordinate nonzero and drops the Jacobian rank
    systems = _exhaustive_groups()["shared"]
    assert len(systems) == 196
    for m, system, idx in systems:
        for t in range(3):
            beta = sample_on_subspace(system, idx, (0, t))
            _assert_on_system(beta, system, idx)
            assert numeric_rank(jacobian(m, idx, beta)).rank < idx.p


def test_exhaustive_forced_zero_systems_raise():
    # a single-term equation b{0,V0} = 0 comes from a V0 with no anchored node
    systems = _exhaustive_groups()["forced_zero"]
    assert sorted(max(m.levels) for m, _, _ in systems) == [2] * 10 + [3] * 10
    message = r"^the equations force b\{[0-9,:]+\} to zero$"
    for _, system, idx in systems:
        with pytest.raises(InconsistentSystemError, match=message):
            sample_on_subspace(system, idx, (0, 0))
