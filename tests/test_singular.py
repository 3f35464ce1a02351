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
    disconnection_equations,
    full_system,
    generic_rank,
    locus_equations_for_set,
    rank_on_system,
    sample_on_subspace,
)
from latident.singular import EquationSource, SingularEquation
from latident.loglinear import ParamEntry

from conftest import FIXTURE_NAMES, dense_model, load_model

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
    assert system.expected_rank_drop_full is None


def test_full_system_k4_pendants(k4_pendants):
    system = full_system(k4_pendants)
    assert {e.render() for e in system.equations} == K4_PENDANTS_SYSTEM
    assert len(system.equations) == 9


def test_full_system_not_applicable_when_identified(path5):
    with pytest.raises(NotApplicableError):
        full_system(path5)


def test_full_system_sources_are_failing_sets(k4_pendants):
    system = full_system(k4_pendants)
    verdict = classify(k4_pendants)
    failing = set(verdict.failing_sets)
    for eq in system.equations:
        assert eq.source.kind == "boundary"
        assert eq.source.base_set in failing


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
            first_seen.setdefault(eq.render(), eq.source)
    system = full_system(model)
    assert {eq.render(): eq.source for eq in system.equations} == first_seen
    assert len(system.equations) == len(first_seen)
    assert system.equations == verdict.singular_system.equations


def test_equation_terms_exist_in_param_index(triangle_pendants, k4_pendants):
    for m in (triangle_pendants, k4_pendants):
        idx = build_param_index(m)
        for eq in full_system(m).equations:
            assert eq.designated in eq.terms
            for term in eq.terms:
                assert term in idx.lookup
                assert 0 in term.nodes


def test_disconnection_equations_bare_triangle():
    m = LatentModel.binary(
        Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    )
    eqs = disconnection_equations(m)
    rendered = {e.render() for e in eqs}
    assert "b{0,2} + b{0,1,2} = 0" in rendered
    assert all(e.source.kind == "disconnection" for e in eqs)


def test_disconnection_equations_smallest_instance():
    # two complement components {1},{2} joined by an observed edge
    m = LatentModel.binary(Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]))
    eqs = disconnection_equations(m)
    assert {e.render() for e in eqs} == {
        "b{0,1} + b{0,1,2} = 0",
        "b{0,2} + b{0,1,2} = 0",
    }


def test_disconnection_equations_not_applicable_when_connected(path5):
    with pytest.raises(NotApplicableError):
        disconnection_equations(path5)


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


def _toy_equation(nodes_a, nodes_b, designated_nodes):
    def entry(nodes):
        return ParamEntry(tuple(sorted(nodes)), (1,) * len(nodes))

    terms = tuple(sorted((entry(nodes_a), entry(nodes_b)), key=ParamEntry.sort_key))
    return SingularEquation(
        terms=terms,
        designated=entry(designated_nodes),
        source=EquationSource("boundary", frozenset(), frozenset()),
    )


def test_sample_on_subspace_rejects_duplicate_designated(path5):
    idx = build_param_index(path5)
    eq1 = _toy_equation((0, 1), (0, 1, 2), (0, 1))
    eq2 = _toy_equation((0, 1), (0, 2, 3), (0, 1))
    with pytest.raises(InconsistentSystemError):
        sample_on_subspace(SingularSystem((eq1, eq2)), idx, 0)


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


def test_multi_level_shared_designated_is_reported():
    base = load_model("triangle_pendants")
    m = LatentModel(base.graph, (2, 2, 2, 2, 2, 3, 2))
    system = full_system(m)
    idx = build_param_index(m)
    with pytest.raises(InconsistentSystemError):
        sample_on_subspace(system, idx, 0)


def test_t1_extension_keeps_s_restricted_system(triangle_pendants):
    edges = sorted(triangle_pendants.graph.edges) + [(6, 7)]
    m = LatentModel.binary(Graph.from_edges(8, edges))
    verdict = classify(m)
    assert verdict.t1_nodes == frozenset({7})
    assert {e.render() for e in verdict.singular_system.equations} == TRIANGLE_PENDANTS_SYSTEM
    idx = build_param_index(m)
    assert generic_rank(m, trials=20, seed=0).rank == idx.p == 30
    assert rank_on_system(m, verdict.singular_system, trials=20, seed=0).rank == 29
