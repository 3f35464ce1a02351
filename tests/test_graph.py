import random
from itertools import combinations

import pytest

from latident import (
    Graph,
    complement,
    connected_components,
    find_generalized_sequence,
    induced_subgraph,
    maximal_cliques,
)
from latident.graph import _complete_masks, _complete_within, _set_of, complete_subsets

PATH5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


def random_graph(rng: random.Random, n: int, density: float = 0.5) -> Graph:
    edges = [
        (i, j) for i, j in combinations(range(n), 2) if rng.random() < density
    ]
    return Graph.from_edges(n, edges)


def test_graph_rejects_self_loops_and_bad_edges():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(3, [(0, 1), (1, 1)])
    for bad in [(1, 3), (3, 0), (-1, 2), (1, -3)]:
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(3, [bad])
    with pytest.raises(ValueError, match="non-negative"):
        Graph.from_edges(-1, [])


def test_graph_masks_reject_self_bits_and_bits_beyond_the_node_count():
    assert Graph((0b10, 0b01)) == Graph.from_edges(2, [(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        Graph((0b01, 0b00))  # node 0 adjacent to itself
    with pytest.raises(ValueError):
        Graph((0b100, 0b00))  # node 2 of a 2-node graph
    with pytest.raises(ValueError):
        Graph((-1, 0))


# Pair-set forms of complement, induced_subgraph and is_complete_set: the
# references the mask versions are compared against.
def _complement_pairs(n, edges):
    return {(i, j) for i, j in combinations(range(n), 2) if (i, j) not in edges}


def _induced_pairs(edges, nodes):
    pos = {v: i for i, v in enumerate(sorted(set(nodes)))}
    return {(pos[i], pos[j]) for i, j in edges if i in pos and j in pos}


def _is_complete_pairs(edges, nodes):
    return all((min(i, j), max(i, j)) in edges for i, j in combinations(list(nodes), 2))


def test_mask_graph_matches_pair_set_reference():
    rng = random.Random(4)
    for n in range(11):
        for _ in range(6):
            g = random_graph(rng, n, density=rng.random())
            assert Graph.from_edges(n, g.edges) == g
            assert all(0 <= i < j < n for i, j in g.edges)
            comp = complement(g)
            assert comp.node_count == n
            assert comp.edges == _complement_pairs(n, g.edges)
            for mask in range(1 << n) if n <= 6 else rng.sample(range(1 << n), 64):
                nodes = {v for v in range(n) if mask >> v & 1}
                sub, node_map = induced_subgraph(g, nodes)
                assert node_map == tuple(sorted(nodes))
                assert sub.node_count == len(nodes)
                assert sub.edges == _induced_pairs(g.edges, nodes)
                assert g.is_complete_set(nodes) == _is_complete_pairs(g.edges, nodes)


def test_is_complete_set_is_false_off_the_graph():
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert g.is_complete_set({0, 1, 2})
    assert not g.is_complete_set({98, 99})
    assert not g.is_complete_set({1, 3})
    assert not g.is_complete_set({-1, 0})
    with pytest.raises(ValueError):
        find_generalized_sequence(g, {98, 99})


def test_complement_of_observed_path():
    # path 1-2-3-4-5 relabeled to 0..4
    comp = complement(PATH5)
    orig = {(i + 1, j + 1) for i, j in comp.edges}
    assert orig == {(1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5)}


def test_complement_of_complete_graph_is_empty():
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert complement(k3).edges == frozenset()


def test_complement_is_involution():
    rng = random.Random(0)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 8))
        assert complement(complement(g)) == g


def test_induced_subgraph_of_full_graph_restricts_edges():
    g = Graph.from_edges(
        6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]
    )
    sub, node_map = induced_subgraph(g, range(1, 6))
    assert node_map == (1, 2, 3, 4, 5)
    assert sub == PATH5


def test_induced_subgraph_degenerate_inputs():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    empty, empty_map = induced_subgraph(g, [])
    assert empty.node_count == 0 and empty_map == ()
    single, single_map = induced_subgraph(g, [1])
    assert single.node_count == 1 and single.edges == frozenset()
    assert single_map == (1,)


def test_maximal_cliques_of_path():
    cliques = maximal_cliques(PATH5)
    assert [tuple(sorted(c)) for c in cliques] == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_maximal_cliques_of_edgeless_graph():
    g = Graph.from_edges(4, [])
    assert [set(c) for c in maximal_cliques(g)] == [{0}, {1}, {2}, {3}]


def test_maximal_cliques_of_large_complete_graph_and_its_complement():
    # one clique of 1,100 nodes: as deep as Bron-Kerbosch goes, and over
    # Python's default recursion limit
    k = Graph.from_edges(1100, combinations(range(1100), 2))
    assert list(maximal_cliques(k)) == [frozenset(range(1100))]
    assert list(maximal_cliques(complement(k))) == [frozenset({v}) for v in range(1100)]


def _maximal_cliques_reference(g):
    """The maximal sets among every complete subset, in lexicographic order."""
    sets_ = [_set_of(m) for m in _complete_masks(g)]
    return sorted((c for c in sets_ if not any(c < d for d in sets_)), key=sorted)


def test_maximal_cliques_properties_random():
    rng = random.Random(1)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 8))
        cliques = list(maximal_cliques(g))
        covered = set()
        for c in cliques:
            assert g.is_complete_set(c)
            covered |= c
            for other in cliques:
                assert other == c or not c < other
        assert covered == set(range(g.node_count))
    # complete and in lexicographic order, on sparse and dense graphs alike
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 12), rng.uniform(0.1, 0.9))
        for h in (g, complement(g)):
            assert list(maximal_cliques(h)) == _maximal_cliques_reference(h)


def test_complete_subsets_triangle_pendants_shape():
    # triangle 1-4-5 with pendants 6-1, 2-5, 3-4, relabeled to 0-based
    g = Graph.from_edges(
        6, [(0, 3), (0, 4), (0, 5), (1, 4), (2, 3), (3, 4)]
    )
    named = {tuple(sorted(v + 1 for v in s)) for s in complete_subsets(g, 2)}
    assert named == {(1, 4), (1, 5), (1, 6), (2, 5), (3, 4), (4, 5), (1, 4, 5)}


def test_complete_subsets_k4_pendants_count():
    g = Graph.from_edges(
        6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (3, 5)]
    )
    sets = complete_subsets(g, 2)
    assert len(sets) == 13
    from_k4 = {s for s in sets if s <= {0, 1, 2, 3}}
    assert len(from_k4) == 11
    assert frozenset({3, 4}) in sets and frozenset({3, 5}) in sets


def test_complete_subsets_min_size_one_adds_singletons():
    g = PATH5
    with_singletons = complete_subsets(g, 1)
    without = complete_subsets(g, 2)
    assert len(with_singletons) == len(without) + 5
    assert with_singletons[:5] == [frozenset({v}) for v in range(5)]


def test_complete_subsets_min_size_validation():
    with pytest.raises(ValueError):
        complete_subsets(PATH5, 0)


def test_complete_subsets_match_clique_subsets():
    rng = random.Random(2)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 8))
        expected = set()
        for c in maximal_cliques(g):
            members = sorted(c)
            for r in range(2, len(members) + 1):
                expected.update(frozenset(t) for t in combinations(members, r))
        assert set(complete_subsets(g, 2)) == expected


def test_complete_subsets_brute_force_cross_check():
    # the reference sorts the brute-force sets by size, then sorted nodes:
    # the walk must yield that column order itself, on any `within` mask
    rng = random.Random(3)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.2, 0.9))
        brute = sorted(
            {
                frozenset(t)
                for r in range(1, g.node_count + 1)
                for t in combinations(range(g.node_count), r)
                if g.is_complete_set(t)
            },
            key=lambda s: (len(s), sorted(s)),
        )
        assert complete_subsets(g, 2) == [s for s in brute if len(s) >= 2]
        within = rng.getrandbits(g.node_count)
        assert [_set_of(m) for m in _complete_within(g.adj, within)] == [
            s for s in brute if s <= _set_of(within)
        ]


def test_is_connected_examples():
    comp = complement(PATH5)  # complement of the observed path is connected
    assert len(connected_components(comp)) == 1
    two_triangles = Graph.from_edges(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    )
    assert len(connected_components(two_triangles)) == 2
    assert len(connected_components(Graph.from_edges(1, []))) == 1


def test_connected_components_order():
    g = Graph.from_edges(5, [(1, 3), (2, 4)])
    comps = connected_components(g)
    assert [sorted(c) for c in comps] == [[0], [1, 3], [2, 4]]
