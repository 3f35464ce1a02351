import hashlib
import random
import sys
from collections import Counter
from functools import cache
from itertools import combinations

import pytest

from latident import (
    Graph,
    LatentIsolatedError,
    LatentModel,
    SequenceCert,
    Status,
    ValidationError,
    classify,
    complement,
    connected_components,
    find_generalized_sequence,
    induced_subgraph,
    latent_partition,
    maximal_cliques,
)
from latident.graph import _bits, _mask_of, _set_of, complete_subsets
from latident.loglinear import _core, param_count
from latident.identify import (
    _complete_masks,
    _failing_masks,
    _generalized_ok,
    _neighborhoods,
    _plain_ok,
    find_identifying_sequence,
)

from conftest import (
    dense_model, five_cycle_model, hidden_over_all_graphs, load_model, sparse_model, star_model,
)


def observed_graph(name):
    m = load_model(name)
    return induced_subgraph(m.graph, sorted(m.observed_set))


def to_named(chain, node_map):
    return [sorted(node_map[v] for v in s) for s in chain]


# ---------------------------------------------------------------- partition


def test_latent_partition_path5(path5):
    s, t1 = latent_partition(path5)
    assert sorted(s) == [1, 2, 3, 4, 5]
    assert t1 == frozenset()


def test_latent_partition_with_t1():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (2, 3)])
    s, t1 = latent_partition(LatentModel.binary(g))
    assert sorted(s) == [1, 2]
    assert t1 == frozenset({3})


def test_latent_partition_isolated_hidden_node():
    g = Graph.from_edges(3, [(1, 2)])
    with pytest.raises(LatentIsolatedError):
        latent_partition(LatentModel.binary(g))


# ---------------------------------------------------------------- sequences


def test_generalized_sequence_on_path():
    g, node_map = observed_graph("path5")
    cert = find_generalized_sequence(g, frozenset({0, 1}))
    assert to_named(cert.chain, node_map) == [[1, 2], [4]]
    cert.validate(g)


def test_generalized_sequence_absent_for_triangle(triangle_pendants):
    g, node_map = observed_graph("triangle_pendants")
    local = frozenset({0, 3, 4})  # {1,4,5}
    assert find_generalized_sequence(g, local) is None


def test_generalized_sequence_on_clique_web():
    g, node_map = observed_graph("clique_web9")
    local = frozenset({0, 4, 7})  # {1,5,8}
    cert = find_generalized_sequence(g, local)
    assert cert is not None
    cert.validate(g)
    assert len(cert.chain[-1]) == 1


def test_generalized_sequence_input_validation():
    g, _ = observed_graph("path5")
    with pytest.raises(ValueError):
        find_generalized_sequence(g, frozenset({0}))
    with pytest.raises(ValueError):
        find_generalized_sequence(g, frozenset({0, 2}))  # {1,3} not complete


def test_identifying_sequence_on_path():
    g, node_map = observed_graph("path5")
    cert = find_identifying_sequence(g, frozenset({0, 1}))
    assert to_named(cert.chain, node_map) == [[1, 2], [4]]
    cert.validate(g)


def test_identifying_sequence_absent_cases():
    g, node_map = observed_graph("k4_pendants")
    assert find_identifying_sequence(g, frozenset({0, 3})) is None  # {1,4}
    assert find_identifying_sequence(g, frozenset({3, 4})) is None  # {4,5}
    assert find_identifying_sequence(g, frozenset({3, 5})) is None  # {4,6}


def test_identifying_sequence_present_off_hub():
    g, node_map = observed_graph("k4_pendants")
    cert = find_identifying_sequence(g, frozenset({0, 1}))  # {1,2}
    assert cert is not None
    cert.validate(g)


def test_consecutive_chain_elements_disjoint():
    # found plain sequences never share nodes between consecutive elements
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 7)
        edges = [
            (i, j)
            for i, j in combinations(range(n), 2)
            if rng.random() < 0.5
        ]
        g = Graph.from_edges(n, edges)
        for s in complete_subsets(g, 2):
            cert = find_identifying_sequence(g, s)
            if cert is None:
                continue
            cert.validate(g)
            for a, b in zip(cert.chain, cert.chain[1:]):
                assert not (a & b)


def test_sequence_cert_validate_rejects_broken_chains():
    g, _ = observed_graph("path5")
    bad = SequenceCert(
        chain=(frozenset({0, 1}), frozenset({1})),  # 1 is adjacent to 2
        kind="generalized",
    )
    with pytest.raises(ValidationError):
        bad.validate(g)


def test_sequence_cert_validate_rejects_unknown_node():
    g, node_map = observed_graph("path5")
    cert = SequenceCert(chain=(frozenset({1, 7}), frozenset({7})), kind="generalized")
    with pytest.raises(ValidationError, match="node 7"):
        cert.validate(g, (0, 1, 2))
    with pytest.raises(ValidationError):
        cert.validate(g, node_map)


# ---------------------------------------------------------------- classify


def test_classify_path5(path5):
    verdict = classify(path5)
    assert verdict.status is Status.IDENTIFIED_EVERYWHERE
    assert verdict.m_clique == frozenset({1, 3, 5})
    assert not verdict.probe_only
    assert len(verdict.clique_certs) == 4
    for clique, cert in verdict.clique_certs:
        assert cert is not None
        cert.validate(*induced_subgraph(path5.graph, sorted(verdict.s_nodes)))


def test_classify_triangle_isolated(triangle_isolated):
    verdict = classify(triangle_isolated)
    assert verdict.status is Status.NOT_IDENTIFIED
    assert verdict.singular_system is None


def test_classify_triangle_pendants(triangle_pendants):
    verdict = classify(triangle_pendants)
    assert verdict.status is Status.GENERICALLY_IDENTIFIED
    assert not verdict.probe_only
    assert verdict.failed_cliques == (frozenset({1, 4, 5}),)
    assert verdict.failing_sets == (frozenset({1, 4, 5}),)
    assert len(verdict.singular_system.equations) == 3


def test_classify_probe_only_on_five_cycle():
    verdict = classify(five_cycle_model())
    assert verdict.status is Status.GENERICALLY_IDENTIFIED
    assert verdict.probe_only
    assert verdict.singular_system is None


def test_classify_uses_s_restriction(path5):
    # pendant observed node not adjacent to the hidden one leaves the verdict alone
    edges = sorted(path5.graph.edges) + [(5, 6)]
    m = LatentModel.binary(Graph.from_edges(7, edges))
    verdict = classify(m)
    assert verdict.t1_nodes == frozenset({6})
    assert sorted(verdict.s_nodes) == [1, 2, 3, 4, 5]
    assert verdict.status is Status.IDENTIFIED_EVERYWHERE


def test_classify_latent_isolated_propagates():
    g = Graph.from_edges(3, [(1, 2)])
    with pytest.raises(LatentIsolatedError):
        classify(LatentModel.binary(g))


def test_classify_enumerates_complete_subsets_once(monkeypatch):
    # every consumer reads the sets that _neighborhoods keeps; none enumerates
    # them again or through complete_subsets
    calls, enumerated = [], []
    original = complete_subsets

    def counted(*args):
        calls.append(args)
        return original(*args)

    def counted_masks(g):
        enumerated.append(g)
        return _complete_masks(g)

    for name, module in list(sys.modules.items()):
        if name.startswith("latident") and getattr(module, "complete_subsets", None) is original:
            monkeypatch.setattr(module, "complete_subsets", counted)
    monkeypatch.setattr("latident.identify._complete_masks", counted_masks)
    _neighborhoods.cache_clear()
    verdict = classify(dense_model(10))
    assert len(verdict.failing_sets) > 100
    assert len(enumerated) == 1
    assert calls == []


def test_classify_builds_the_observed_context_once(monkeypatch):
    # the singular system reuses classify's G_S, N(J) table and failing sets;
    # from cold caches, one complement is built for the complement clique and
    # one for the N(J) table
    counts = Counter()

    def counted(name, original):
        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        return wrapper

    for original in (induced_subgraph, maximal_cliques, _failing_masks, complement):
        name = original.__name__
        wrapper = counted(name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("latident") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    for cache in (_neighborhoods, _generalized_ok, _plain_ok):
        cache.cache_clear()
    verdict = classify(dense_model(10))
    assert verdict.singular_system is not None
    assert counts == {
        "induced_subgraph": 1, "maximal_cliques": 2, "_failing_masks": 1, "complement": 2
    }


def test_classify_sparse_graph_stops_at_the_first_complement_clique(monkeypatch):
    # G_S has about 3 edges per node, so its complement's maximal cliques are
    # past counting; classify reads the first one of size >= 3 and stops there
    builds = Counter()
    walks = []

    def counted_complement(g):
        builds["complement"] += 1
        return complement(g)

    def recorded_cliques(g):
        walk = []
        walks.append((g, walk))
        for c in maximal_cliques(g):
            walk.append(c)
            yield c

    for original, wrapper in ((complement, counted_complement), (maximal_cliques, recorded_cliques)):
        name = original.__name__
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("latident") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    m = sparse_model(300)
    verdict = classify(m)
    assert verdict.status is Status.IDENTIFIED_EVERYWHERE
    assert builds["complement"] <= 2
    g_s, node_map = induced_subgraph(m.graph, sorted(verdict.s_nodes))
    (walk,) = [walk for g, walk in walks if g != g_s]
    assert [len(c) >= 3 for c in walk] == [False] * (len(walk) - 1) + [True]
    assert frozenset(node_map[v] for v in walk[-1]) == verdict.m_clique


def test_classify_covers_every_shape_hidden_adjacent_to_all():
    # every labelled graph on k = 1..5 observed nodes, hidden node adjacent to all
    seen = 0
    for g in hidden_over_all_graphs():
        observed = {(a, b) for a, b in g.edges if a}
        verdict = classify(LatentModel.binary(g))
        assert verdict.status in set(Status)
        comp_triangle = any(
            not {(a, b), (a, c), (b, c)} & observed
            for a, b, c in combinations(range(1, g.node_count), 3)
        )
        connected = len(connected_components(induced_subgraph(g, sorted(verdict.s_nodes))[0])) == 1
        expected = not connected and not comp_triangle
        assert (verdict.status is Status.NOT_IDENTIFIED) == expected, sorted(observed)
        assert verdict.probe_only == (connected and not comp_triangle), sorted(observed)
        seen += 1
    assert seen == 1099


def all_graphs_up_to_four_observed():
    """Every labelled graph on the hidden node 0 and observed nodes 1..k, k = 1..4,
    in which the hidden node has a neighbour: T1 nodes included."""
    for k in range(1, 5):
        pairs = list(combinations(range(k + 1), 2))
        for bits in range(1 << len(pairs)):
            edges = [pr for b, pr in enumerate(pairs) if bits >> b & 1]
            if any(a == 0 for a, _ in edges):
                yield Graph.from_edges(k + 1, edges)


def verdict_facts(verdict, label=lambda v: v):
    """Status, probe_only, S, T1 and the failing sets, each node mapped by label."""
    def relabel(nodes):
        return frozenset(map(label, nodes))

    return (
        verdict.status, verdict.probe_only, relabel(verdict.s_nodes), relabel(verdict.t1_nodes),
        frozenset(map(relabel, verdict.failing_sets)),
    )


def test_classify_is_invariant_under_relabelling_and_t1_nodes():
    # metamorphic: relabelling the observed nodes maps every verdict fact through
    # the permutation, and a T1 node (joined to an observed node, not to the
    # hidden one) changes neither the verdict nor the p of the core
    rng = random.Random(0)
    seen = 0
    for g in all_graphs_up_to_four_observed():
        k = g.node_count - 1
        verdict = classify(LatentModel.binary(g))
        label = [0, *rng.sample(range(1, k + 1), k)]
        relabelled = Graph.from_edges(k + 1, [(label[a], label[b]) for a, b in g.edges])
        assert verdict_facts(classify(LatentModel.binary(relabelled))) == verdict_facts(
            verdict, label.__getitem__
        ), (g.edges, label)
        t1_edge = (rng.randint(1, k), k + 1)
        with_t1 = LatentModel.binary(Graph.from_edges(k + 2, [*g.edges, t1_edge]))
        t1_verdict = classify(with_t1)
        assert (t1_verdict.status, t1_verdict.failing_sets) == (
            verdict.status, verdict.failing_sets
        ), g.edges
        assert param_count(_core(with_t1).model) == param_count(_core(LatentModel.binary(g)).model)
        seen += 1
    assert seen == 1023


def test_latent_class_stars_need_three_observers():
    assert classify(star_model(2)).status is Status.NOT_IDENTIFIED
    for n in (3, 4, 5):
        assert classify(star_model(n)).status is Status.IDENTIFIED_EVERYWHERE


def test_star_with_1100_observers_is_identified_everywhere():
    # G_S is edgeless, so its complement is K_1100: the complement 3-clique is
    # one maximal clique of all 1,100 nodes
    verdict = classify(star_model(1100))
    assert verdict.status is Status.IDENTIFIED_EVERYWHERE
    assert verdict.m_clique == frozenset(range(1, 1101))


def test_equivalence_of_sequence_notions_random_seven_nodes():
    # clique-level generalized sequences exist iff plain sequences exist for
    # every complete subset; spot-checked here on random 7-node graphs
    rng = random.Random(7)
    for _ in range(300):
        edges = [
            (i, j) for i, j in combinations(range(7), 2) if rng.random() < rng.uniform(0.2, 0.8)
        ]
        g = Graph.from_edges(7, edges)
        gen_ok = _generalized_ok(g)
        plain_ok = _plain_ok(g)
        a = all(
            _mask_of(c) in gen_ok for c in maximal_cliques(g) if len(c) > 1
        )
        b = all(_mask_of(s) in plain_ok for s in complete_subsets(g, 2))
        assert a == b


def test_existence_sets_agree_with_search():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(3, 7)
        edges = [
            (i, j) for i, j in combinations(range(n), 2) if rng.random() < 0.5
        ]
        g = Graph.from_edges(n, edges)
        gen_ok = _generalized_ok(g)
        plain_ok = _plain_ok(g)
        for s in complete_subsets(g, 2):
            cert = find_identifying_sequence(g, s)
            assert (cert is not None) == (_mask_of(s) in plain_ok)
            gcert = find_generalized_sequence(g, s)
            assert (gcert is not None) == (_mask_of(s) in gen_ok)
            if cert is not None:
                cert.validate(g)
            if gcert is not None:
                gcert.validate(g)


# Reference reachability: the fixpoints with the cover test done node by node,
# every node of i needing a complement neighbour inside j.


def _covers_per_bit(comp_adj, i, j):
    return all(comp_adj[v] & j for v in _bits(i))


def _generalized_ok_reference(g):
    comp_adj = complement(g).adj
    sets_ = _complete_masks(g)
    ok = {m for m in sets_ if m.bit_count() == 1}
    work = list(ok)
    while work:
        j = work.pop()
        for i in sets_:
            if i not in ok and i.bit_count() >= j.bit_count() and _covers_per_bit(comp_adj, i, j):
                ok.add(i)
                work.append(i)
    return frozenset(ok)


def _plain_ok_reference(g):
    comp_adj = complement(g).adj
    sets_ = _complete_masks(g)
    ok = set()
    for k in range(2, max((m.bit_count() for m in sets_), default=0) + 1):
        smaller = [m for m in sets_ if m.bit_count() < k]
        same = [m for m in sets_ if m.bit_count() == k]
        layer = {i for i in same if any(_covers_per_bit(comp_adj, i, j) for j in smaller)}
        work = list(layer)
        while work:
            j = work.pop()
            for i in same:
                if i not in layer and _covers_per_bit(comp_adj, i, j):
                    layer.add(i)
                    work.append(i)
        ok |= layer
    return frozenset(ok)


@cache
def _exhaustive_and_dense_gs():
    # every labelled graph on 1..5 nodes (the G_S of the 1,099 exhaustive
    # models) plus the G_S of the dense models
    graphs = []
    for k in range(1, 6):
        pairs = list(combinations(range(k), 2))
        for bits in range(1 << len(pairs)):
            graphs.append(Graph.from_edges(k, [pr for b, pr in enumerate(pairs) if bits >> b & 1]))
    assert len(graphs) == 1099
    for n in (8, 9, 10):
        m = dense_model(n)
        graphs.append(induced_subgraph(m.graph, sorted(latent_partition(m)[0]))[0])
    return graphs


def test_reachability_matches_per_bit_cover_reference():
    for g in _exhaustive_and_dense_gs():
        assert _generalized_ok(g).keys() == _generalized_ok_reference(g)
        assert _plain_ok(g).keys() == _plain_ok_reference(g)


def _steps_reference(g):
    """The step maps of `_generalized_ok` and `_plain_ok`, by a layered
    breadth-first search that scans every complete set at every layer, those
    holding a node with no complement neighbour included."""
    comp_adj = complement(g).adj
    sets_ = _complete_masks(g)
    nbhd = {}
    for j in sets_:  # by size, so j less its lowest node comes first
        nbhd[j] = nbhd.get(j & j - 1, 0) | comp_adj[(j & -j).bit_length() - 1]

    def search(pool, layer, d, steps):
        while layer:
            steps.update(dict.fromkeys(layer, d))
            layer = [
                i for i in pool if i not in steps
                and any(i.bit_count() >= j.bit_count() and not i & ~nbhd[j] for j in layer)
            ]
            d += 1
        return steps

    generalized = search(sets_, [j for j in sets_ if j.bit_count() == 1], 0, {})
    plain = {}
    for k in range(2, max((m.bit_count() for m in sets_), default=0) + 1):
        same = [m for m in sets_ if m.bit_count() == k]
        smaller = [nbhd[j] for j in sets_ if j.bit_count() < k]
        search(same, [i for i in same if any(not i & ~n_j for n_j in smaller)], 1, plain)
    return generalized, plain


def test_reachability_step_counts_match_unfiltered_reference():
    # the step counts, not only the members: every connected graph on 1..6
    # nodes, as criterion 7 enumerates them, and the G_S of the dense models
    graphs = []
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph.from_edges(n, [pr for b, pr in enumerate(pairs) if bits >> b & 1])
            if len(connected_components(g)) == 1:
                graphs.append(g)
    assert len(graphs) == 27476
    graphs += _exhaustive_and_dense_gs()[-3:]
    for g in graphs:
        assert (dict(_generalized_ok(g)), dict(_plain_ok(g))) == _steps_reference(g)
    _generalized_ok.cache_clear()
    _plain_ok.cache_clear()
    _neighborhoods.cache_clear()


SEARCHES = ((_generalized_ok, find_generalized_sequence), (_plain_ok, find_identifying_sequence))


def test_sequence_certificates_match_pinned_digest():
    # (target, chain, kind) or None from both searches for every complete set
    # of size >= 2; the digest was taken from the breadth-first search with a
    # parent map that the step-count walk replaced
    h = hashlib.sha256()
    for g in _exhaustive_and_dense_gs():
        for c in _complete_masks(g):
            if c.bit_count() < 2:
                continue
            for _, find in SEARCHES:
                cert = find(g, _set_of(c))
                if cert is not None:
                    cert = (sorted(cert.chain[0]), [sorted(s) for s in cert.chain], cert.kind)
                h.update(repr(cert).encode())
    assert h.hexdigest() == "d6d7d9af81051eb646889bb280789a297c3b9c38d712ca76af247741397e0178"


def test_sequence_certificates_take_the_cached_step_counts():
    for g in _exhaustive_and_dense_gs():
        for reach, find in SEARCHES:
            steps = reach(g)
            for c in _complete_masks(g):
                if c.bit_count() > 1:
                    cert = find(g, _set_of(c))
                    assert (cert is None) == (c not in steps)
                    if cert is not None:
                        assert len(cert.chain) - 1 == steps[c]
