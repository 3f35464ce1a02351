import hashlib
import math
from collections import Counter
from functools import cache
from itertools import combinations, product
from types import SimpleNamespace

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
    numeric_rank,
    rank_on_system,
)
from latident import singular
from latident.cli import main
from latident.graph import _bits
from latident.loglinear import _coordinate_name
from latident.singular import locus_equations_for_set, sample_on_subspace

from conftest import (
    FIXTURE_NAMES, dense_model, five_cycle_model, hidden_over_all_graphs, load_model, model_text,
)

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
    assert {e.render(1) for e in eqs} == TRIANGLE_PENDANTS_SYSTEM


def test_locus_equations_k4_block(k4_pendants):
    eqs = locus_equations_for_set(k4_pendants, frozenset({1, 2, 3, 4}))
    assert {e.render(1) for e in eqs} == {
        "b{0,5} + b{0,4,5} = 0",
        "b{0,6} + b{0,4,6} = 0",
    }


def test_locus_equations_k4_pendant_edge(k4_pendants):
    eqs = locus_equations_for_set(k4_pendants, frozenset({4, 5}))
    assert {e.render(1) for e in eqs} == K4_PENDANTS_SYSTEM - {"b{0,5} + b{0,4,5} = 0"}


def test_locus_equations_not_applicable_with_sequence(k4_pendants):
    with pytest.raises(NotApplicableError):
        locus_equations_for_set(k4_pendants, frozenset({1, 2}))


def test_locus_equations_rejects_non_complete(k4_pendants):
    with pytest.raises(ValueError):
        locus_equations_for_set(k4_pendants, frozenset({1, 5}))


def test_full_system_triangle_pendants(triangle_pendants):
    system = full_system(triangle_pendants)
    assert {e.render(system.width) for e in system.equations} == TRIANGLE_PENDANTS_SYSTEM


def test_full_system_k4_pendants(k4_pendants):
    system = full_system(k4_pendants)
    assert {e.render(system.width) for e in system.equations} == K4_PENDANTS_SYSTEM
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
        ("five_cycle", "no 3-clique in the complement"),
    ],
)
def test_full_system_not_applicable_names_the_failed_condition(tmp_path, capsys, name, message):
    m = five_cycle_model() if name == "five_cycle" else load_model(name)
    with pytest.raises(NotApplicableError, match=message) as info:
        full_system(m)
    reason = str(info.value)
    verdict = classify(m)
    if verdict.probe_only:
        assert reason.startswith("no closed-form singular system: ")
        assert "probe candidate points with the rank command" in reason
    else:
        assert reason.startswith(f"no singular system: {verdict.status.value} (")
        assert "probe" not in reason
    # locus gives the same reason on stderr, prints no equation and exits 0
    path = tmp_path / "m.model"
    path.write_text(model_text(m))
    assert main(["locus", str(path)]) == 0
    assert capsys.readouterr() == ("", reason + "\n")


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
    w = model.width
    first_seen = {}
    for s in verdict.failing_sets:
        for eq in locus_equations_for_set(model, s):
            first_seen.setdefault(eq.render(w), (eq.source_set, _nodes(eq.terms[0], w)[1:]))
    system = full_system(model)
    assert system.width == w
    assert {
        eq.render(w): (eq.source_set, _nodes(eq.terms[0], w)[1:]) for eq in system.equations
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
                assert term & 1  # the hidden node's slot


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
    beta = sample_on_subspace(SingularSystem((), 1), idx, seed=4)
    assert np.array_equal(beta, sample_beta(idx.p, [4, 0]))


def test_sample_on_subspace_deterministic(k4_pendants):
    idx = build_param_index(k4_pendants)
    system = full_system(k4_pendants)
    assert np.array_equal(
        sample_on_subspace(system, idx, 0), sample_on_subspace(system, idx, 0)
    )


def _toy_equation(*term_nodes):
    """All-binary equation with the terms in the order given, which no generator
    need yield: the sampler reads only an equation's terms, each the node mask
    of its nodes (a slot mask at width 1)."""
    return SimpleNamespace(terms=tuple(sum(1 << v for v in nodes) for nodes in term_nodes))


def _nodes(mask, width):
    """The nodes of a slot mask, ascending."""
    return tuple(s // width for s in _bits(mask))


def _term_key(mask, width):
    """A coordinate's sort key in column order: size, nodes, levels."""
    return (mask.bit_count(), _nodes(mask, width), tuple(s % width + 1 for s in _bits(mask)))


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
    system = SingularSystem((eq1, eq2), 1)
    for seed in range(3):
        _assert_on_system(sample_on_subspace(system, idx, seed), system, idx)


@pytest.mark.parametrize(
    "term_lists, name",
    [
        ([[(0, 2, 3)]], r"b\{0,2,3\}"),
        # b{0,1} + b{0,1,2} + b{0,2} minus the first equation leaves b{0,2}
        ([[(0, 1), (0, 1, 2)], [(0, 1), (0, 1, 2), (0, 2)]], r"b\{0,2\}"),
        # both rows pivot on a column of their own; only back-substituting the
        # second into the first leaves b{0,1} alone
        ([[(0, 1), (0, 2), (0, 3)], [(0, 2), (0, 3)]], r"b\{0,1\}"),
    ],
)
def test_sample_on_subspace_rejects_a_forced_zero(path5, term_lists, name):
    idx = build_param_index(path5)
    system = SingularSystem(tuple(_toy_equation(*terms) for terms in term_lists), 1)
    with pytest.raises(InconsistentSystemError, match=rf"^the equations force {name} to zero$"):
        sample_on_subspace(system, idx, 0)


def test_rank_on_system_rejects_a_coordinate_outside_the_index(path5, k4_pendants):
    # k4_pendants' first equation is b{0,1} + b{0,1,4}, and {1, 4} is no edge of path5
    message = r"^coordinate b\{0,1,4\} is not in the parameter index$"
    with pytest.raises(InconsistentSystemError, match=message):
        rank_on_system(build_param_index(path5), full_system(k4_pendants), trials=1, seed=0)
    # every equation is looked up before any is eliminated, so the missing
    # coordinate is named even after an equation that forces a zero
    forced_first = SingularSystem((_toy_equation((0, 2, 3)), _toy_equation((0, 1), (0, 1, 4))), 1)
    with pytest.raises(InconsistentSystemError, match=message):
        sample_on_subspace(forced_first, build_param_index(path5), 0)


def test_elimination_reads_each_equation_terms_once(monkeypatch, k4_pendants):
    from latident import SingularEquation, numeric

    reads = []
    terms = SingularEquation.terms

    def counted(eq):
        reads.append(eq)
        return terms.fget(eq)

    system = full_system(k4_pendants)
    idx = build_param_index(k4_pendants)
    monkeypatch.setattr(SingularEquation, "terms", property(counted))
    numeric._eliminate(system, idx)
    assert reads == list(system.equations)


def test_sample_on_subspace_ignores_term_order(path5):
    idx = build_param_index(path5)
    in_order = [[(0, 1), (0, 1, 2), (0, 2, 3)], [(0, 1), (0, 3, 4)], [(0, 2), (0, 4, 5)]]
    systems = [
        SingularSystem(tuple(_toy_equation(*terms) for terms in term_lists), 1)
        for term_lists in (in_order, [terms[::-1] for terms in in_order])
    ]
    for seed in range(3):
        ordered, reversed_ = (sample_on_subspace(s, idx, seed).tobytes() for s in systems)
        assert ordered == reversed_


def test_sample_on_subspace_ignores_equation_order(k4_pendants):
    idx = build_param_index(k4_pendants)
    system = full_system(k4_pendants)
    reverse = SingularSystem(system.equations[::-1], system.width)
    for seed in range(3):
        assert sample_on_subspace(reverse, idx, seed).tobytes() == (
            sample_on_subspace(system, idx, seed).tobytes()
        )


def test_rank_on_system_eliminates_once(monkeypatch, k4_pendants):
    from latident import numeric

    calls, points = [], []
    original = numeric._eliminate

    def counted(*args):
        calls.append(args)
        return original(*args)

    def recorded(idx, beta):
        points.append(beta.tobytes())
        return jacobian(idx, beta)

    monkeypatch.setattr(numeric, "_eliminate", counted)
    monkeypatch.setattr(numeric, "jacobian", recorded)
    system = full_system(k4_pendants)
    idx = build_param_index(k4_pendants)
    rank_on_system(idx, system, trials=5, seed=2)
    assert len(calls) == 1
    # every trial's point is the one sample_on_subspace draws for its key
    assert points == [sample_on_subspace(system, idx, (2, t)).tobytes() for t in range(5)]


def test_multi_level_expansion_splits_per_level():
    base = load_model("triangle_pendants")
    m = LatentModel(base.graph, (2, 2, 3, 2, 2, 2, 2))
    system = full_system(m)
    assert {eq.render(system.width) for eq in system.equations} == {
        "b{0,2} + b{0,2,5} = 0",
        "b{0,2:2} + b{0,2:2,5} = 0",
        "b{0,3} + b{0,3,4} = 0",
        "b{0,6} + b{0,1,6} = 0",
    }
    idx = build_param_index(m)
    assert idx.p == 32
    assert generic_rank(idx, trials=20, seed=0).rank == 32
    on_sub = rank_on_system(idx, system, trials=20, seed=0)
    assert on_sub.rank == 31
    assert on_sub.unanimous


def test_multi_level_shared_lowest_column_drops_rank():
    # node 5 at 3 levels: two equations share their lowest column b{0,5}
    base = load_model("triangle_pendants")
    m = LatentModel(base.graph, (2, 2, 2, 2, 2, 3, 2))
    system = full_system(m)
    idx = build_param_index(m)
    assert generic_rank(idx, trials=20, seed=0).rank == idx.p == 38
    on_sub = rank_on_system(idx, system, trials=20, seed=0)
    assert on_sub.rank < 38
    assert on_sub.unanimous


def test_t1_extension_keeps_s_restricted_system(triangle_pendants):
    edges = sorted(triangle_pendants.graph.edges) + [(6, 7)]
    m = LatentModel.binary(Graph.from_edges(8, edges))
    verdict = classify(m)
    assert verdict.t1_nodes == frozenset({7})
    assert {e.render(1) for e in verdict.singular_system.equations} == TRIANGLE_PENDANTS_SYSTEM
    idx = build_param_index(m)
    assert generic_rank(idx, trials=20, seed=0).rank == idx.p == 30
    assert rank_on_system(idx, verdict.singular_system, trials=20, seed=0).rank == 29


# sha256 over each equation's text, first term's name and source, for every
# system; pinned from the implementation that sorted each equation's terms
# (dense12 and dense9_3lev from the one that filtered every complete subset
# against each boundary and built one coordinate object per term occurrence).
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


def _hash_equations(h, system):
    w = system.width
    for eq in system.equations:
        keys = [_term_key(t, w) for t in eq.terms]
        assert keys == sorted(keys)
        h.update(
            f"{eq.render(w)}|{_coordinate_name(eq.terms[0], w)}|boundary|"
            f"{sorted(eq.source_set)}|{sorted(_nodes(eq.terms[0], w)[1:])}\n".encode()
        )


@pytest.mark.parametrize("name", list(SYSTEM_DIGESTS))
def test_singular_system_matches_pinned_digest(name):
    system = classify(_digest_model(name)).singular_system or SingularSystem((), 1)
    h = hashlib.sha256()
    _hash_equations(h, system)
    assert (len(system.equations), h.hexdigest()) == SYSTEM_DIGESTS[name]


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
                _hash_equations(h, system)
    assert (systems, equations, h.hexdigest()) == (
        478,
        3018,
        "9b5ffc0e14aa72c028b64e46de275062d7a67b99e412cc9ed55b87abe3ee274f",
    )


def _order_checked_models():
    """The exhaustive sweep, all-binary and with node 1 at 3 levels, the dense
    models of the digests above, and every graph on k <= 4 observed nodes,
    hidden node adjacent to all, with some observed node at 3 or 4 levels."""
    for g in hidden_over_all_graphs():
        binary = (2,) * g.node_count
        yield LatentModel(g, binary)
        yield LatentModel(g, (2, 3) + binary[2:])
    for n in (8, 9, 10):
        yield dense_model(n)
    for g in hidden_over_all_graphs():
        k = g.node_count - 1
        if k <= 4:
            for levels in product((2, 3, 4), repeat=k):
                if max(levels) > 2:
                    yield LatentModel(g, (2, *levels))


def test_equations_keep_sort_key_order_and_first_source():
    # against references built from the verdict and the graph: the equations
    # ascend on _sort_key and on their term-key sequences, no (V0, anchored)
    # pair comes twice, every pair the failing sets yield is there, once per
    # level combination of its multi-level nodes, and its source is the first
    # failing set that yields it
    systems = 0
    for m in _order_checked_models():
        verdict = classify(m)
        eqs = verdict.singular_system.equations if verdict.singular_system else ()
        if not eqs:
            continue
        systems += 1
        g, width = m.graph, verdict.singular_system.width
        assert width == max(m.levels) - 1
        top = g.node_count * width
        keys = [singular._sort_key(eq.v0, eq.anchored, width, top, _bits) for eq in eqs]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        terms = [[_term_key(t, width) for t in eq.terms] for eq in eqs]
        assert all(a < b for a, b in zip(terms, terms[1:]))
        assert len({(eq.v0, eq.anchored) for eq in eqs}) == len(eqs)
        first = {}
        for c in verdict.failing_sets:
            boundary = [v for v in sorted(verdict.s_nodes - c) if c - g.neighbors(v)]
            for r in range(1, len(boundary) + 1):
                for v0 in map(frozenset, combinations(boundary, r)):
                    if g.is_complete_set(v0):
                        anchored = frozenset(u for u in c if v0 <= g.neighbors(u))
                        first.setdefault((v0, anchored), c)
        count = Counter()
        for eq in eqs:
            pair = tuple(frozenset(_nodes(mask, width)) for mask in (eq.v0, eq.anchored))
            assert eq.source_set == first[pair]
            count[pair] += 1
        assert count == {pair: math.prod(m.levels[v] - 1 for v in pair[0] | pair[1]) for pair in first}
    assert systems == 801


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
        v0 = frozenset(_nodes(eq.terms[0], system.width)[1:])
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
            assert numeric_rank(jacobian(idx, beta)).rank < idx.p


def test_exhaustive_forced_zero_systems_raise():
    # a single-term equation b{0,V0} = 0 comes from a V0 with no anchored node
    systems = _exhaustive_groups()["forced_zero"]
    assert sorted(max(m.levels) for m, _, _ in systems) == [2] * 10 + [3] * 10
    message = r"^the equations force b\{[0-9,:]+\} to zero$"
    for _, system, idx in systems:
        with pytest.raises(InconsistentSystemError, match=message):
            sample_on_subspace(system, idx, (0, 0))
