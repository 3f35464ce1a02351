"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np

from latident import (
    Graph,
    LatentModel,
    SingularSystem,
    Status,
    build_param_index,
    classify,
    complete_subsets,
    design_matrix,
    find_identifying_sequence,
    full_system,
    generic_rank,
    jacobian,
    maximal_cliques,
    mu_y,
    numeric_rank,
    rank_on_system,
    sample_beta,
)
from latident.graph import _mask_of
from latident.identify import _complete_masks, _generalized_ok, _plain_ok

from conftest import FIXTURE_NAMES, load_model, star_model


@contextmanager
def criterion(num, description):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL  {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {num:02d} PASS  {description}  [{elapsed:.2f}s]")


def enumerate_p(m: LatentModel) -> int:
    """Independent parameter count: raw subset enumeration over the edge set."""
    edges = m.graph.edges
    n = m.graph.node_count
    total = 1
    for r in range(1, n + 1):
        for nodes in itertools.combinations(range(n), r):
            if all(
                (min(a, b), max(a, b)) in edges
                for a, b in itertools.combinations(nodes, 2)
            ):
                total += math.prod(m.levels[v] - 1 for v in nodes)
    return total


def test_criterion_01_path_identified_everywhere():
    with criterion(1, "observed path: identified everywhere, generic rank 20"):
        start = time.monotonic()
        m = load_model("path5")
        verdict = classify(m)
        assert verdict.status is Status.IDENTIFIED_EVERYWHERE
        idx = build_param_index(m)
        assert enumerate_p(m) == 20
        assert idx.p == 20
        report = generic_rank(m, trials=50, seed=0)
        assert report.rank == 20
        assert time.monotonic() - start < 1.0


def test_criterion_02_triangle_pendants_locus():
    with criterion(2, "pendant triangle: 3-equation locus, ranks 28/27"):
        start = time.monotonic()
        m = load_model("triangle_pendants")
        verdict = classify(m)
        assert verdict.status is Status.GENERICALLY_IDENTIFIED
        system = full_system(m)
        assert {eq.render() for eq in system.equations} == {
            "b{0,2} + b{0,2,5} = 0",
            "b{0,3} + b{0,3,4} = 0",
            "b{0,6} + b{0,1,6} = 0",
        }
        assert len(system.equations) == 3
        generic = generic_rank(m, trials=50, seed=0)
        assert generic.rank == 28
        assert generic.unanimous and not generic.ambiguous
        on_sub = rank_on_system(m, system, trials=50, seed=0)
        assert on_sub.rank == 27
        assert on_sub.unanimous and not on_sub.ambiguous
        assert on_sub.gap is not None and on_sub.gap >= 1e3
        assert time.monotonic() - start < 5.0


def test_criterion_03_k4_pendants_partial_subspaces():
    with criterion(3, "pendant 4-clique: 9-equation locus, ranks 40/30/32/38"):
        start = time.monotonic()
        m = load_model("k4_pendants")
        system = full_system(m)
        expected = {
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
        assert {eq.render() for eq in system.equations} == expected
        idx = build_param_index(m)
        assert idx.p == 40
        assert generic_rank(m, trials=50, seed=0).rank == 40

        by_text = {eq.render(): eq for eq in system.equations}
        first = by_text["b{0,5} + b{0,4,5} = 0"]
        second = by_text["b{0,6} + b{0,4,6} = 0"]
        last_seven = tuple(
            eq for eq in system.equations if eq not in (first, second)
        )
        assert len(last_seven) == 7

        on_full = rank_on_system(m, system, trials=50, seed=0)
        assert on_full.rank == 30 and on_full.unanimous

        # rank falls by eight on the subspace shared by the 4-clique's failing
        # sets (its two boundary equations), and by two on the last seven
        drop8 = rank_on_system(
            m, SingularSystem((first, second)), trials=50, seed=0
        )
        assert drop8.rank == 32 and drop8.unanimous

        drop2 = rank_on_system(m, SingularSystem(last_seven), trials=50, seed=0)
        assert drop2.rank == 38 and drop2.unanimous
        assert time.monotonic() - start < 10.0


def test_criterion_04_clique_web_identified():
    with criterion(4, "nine-node clique web: identified, searched chains valid"):
        start = time.monotonic()
        m = load_model("clique_web9")
        verdict = classify(m)
        assert verdict.status is Status.IDENTIFIED_EVERYWHERE
        idx = build_param_index(m)
        report = generic_rank(m, trials=50, seed=0)
        assert report.rank == idx.p
        certs = {tuple(sorted(c)): cert for c, cert in verdict.clique_certs}
        for target in ((1, 5, 8), (1, 4, 6, 8)):
            cert = certs[target]
            assert cert is not None
            cert.validate(verdict.s_graph, verdict.s_node_map)
        assert time.monotonic() - start < 30.0


def test_criterion_05_two_complete_components_never_full_rank():
    with criterion(5, "triangle plus isolated node: rank deficient everywhere"):
        m = load_model("triangle_isolated")
        verdict = classify(m)
        assert verdict.status is Status.NOT_IDENTIFIED
        idx = build_param_index(m)
        report = generic_rank(m, trials=100, seed=0)
        assert all(r < idx.p for r in report.trial_ranks)


def test_criterion_06_latent_class_threshold():
    with criterion(6, "latent-class stars: not identified below three observers"):
        assert classify(star_model(2)).status is Status.NOT_IDENTIFIED
        for n in (3, 4, 5):
            m = star_model(n)
            assert classify(m).status is Status.IDENTIFIED_EVERYWHERE
            idx = build_param_index(m)
            assert generic_rank(m, trials=30, seed=0).rank == idx.p


def _connected(n: int, adj: list[int]) -> bool:
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        rest = frontier
        while rest:
            low = rest & -rest
            nxt |= adj[low.bit_length() - 1]
            rest ^= low
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def test_criterion_07_sequence_equivalence_exhaustive():
    with criterion(7, "clique condition equals complete-subset condition, all "
                      "connected graphs on up to six nodes"):
        checked = 0
        for n in range(1, 7):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                adj = [0] * n
                edges = []
                for k, (i, j) in enumerate(pairs):
                    if bits >> k & 1:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
                        edges.append((i, j))
                if not _connected(n, adj):
                    continue
                g = Graph.from_edges(n, edges)
                gen_ok = _generalized_ok(g)
                plain_ok = _plain_ok(g)
                cliques_covered = all(
                    _mask_of(c) in gen_ok
                    for c in maximal_cliques(g)
                    if len(c) > 1
                )
                subsets_covered = all(
                    _mask_of(s) in plain_ok for s in complete_subsets(g, 2)
                )
                assert cliques_covered == subsets_covered, edges
                if checked % 971 == 0:
                    # tie the bulk reachability sets back to the chain search
                    for s in complete_subsets(g, 2):
                        found = find_identifying_sequence(g, s)
                        assert (found is not None) == (_mask_of(s) in plain_ok)
                checked += 1
                if checked % 5000 == 0:
                    _generalized_ok.cache_clear()
                    _plain_ok.cache_clear()
                    _complete_masks.cache_clear()
        assert checked == 27476


def test_criterion_08_jacobian_against_finite_differences():
    with criterion(8, "analytic Jacobian matches central differences on every "
                      "fixture, 20 points each"):
        h = 1e-5
        for name in FIXTURE_NAMES:
            m = load_model(name)
            idx = build_param_index(m)
            for t in range(20):
                beta = sample_beta(idx.p, [100 + t, t])
                analytic = jacobian(m, idx, beta)
                worst = 0.0
                for j in range(idx.p):
                    step = np.zeros(idx.p)
                    step[j] = h
                    fd_col = (
                        mu_y(m, idx, beta + step) - mu_y(m, idx, beta - step)
                    ) / (2 * h)
                    col = analytic[:, j]
                    err = np.linalg.norm(col - fd_col) / np.linalg.norm(col)
                    worst = max(worst, err)
                assert worst <= 1e-6, (name, t, worst)


def test_criterion_09_edge_addition_restores_identifiability():
    with criterion(9, "adding one observed edge turns the pendant triangle "
                      "model identified everywhere"):
        base = load_model("triangle_pendants")
        edges = sorted(base.graph.edges) + [(2, 6)]
        m = LatentModel.binary(Graph.from_edges(7, edges))
        verdict = classify(m)
        assert verdict.status is Status.IDENTIFIED_EVERYWHERE
        idx = build_param_index(m)
        assert generic_rank(m, trials=30, seed=0).rank == idx.p


def test_criterion_10_multi_level_observable():
    with criterion(10, "three-level observer on the path model stays identified, "
                       "rank matches the recomputed count"):
        m = LatentModel(load_model("path5").graph, (2, 3, 2, 2, 2, 2))
        verdict = classify(m)
        assert verdict.status is Status.IDENTIFIED_EVERYWHERE
        idx = build_param_index(m)
        assert enumerate_p(m) == 24
        assert idx.p == 24
        z_rank = numeric_rank(design_matrix(m, idx))
        assert z_rank.rank == 24
        assert generic_rank(m, trials=30, seed=0).rank == 24


def test_criterion_11_observed_node_detached_from_hidden():
    with criterion(11, "pendant observer away from the hidden node: conditions "
                       "apply to S only, still identified"):
        base = load_model("path5")
        edges = sorted(base.graph.edges) + [(5, 6)]
        m = LatentModel.binary(Graph.from_edges(7, edges))
        verdict = classify(m)
        assert verdict.t1_nodes == frozenset({6})
        assert sorted(verdict.s_nodes) == [1, 2, 3, 4, 5]
        assert verdict.status is Status.IDENTIFIED_EVERYWHERE
        idx = build_param_index(m)
        report = generic_rank(m, trials=30, seed=0)
        assert report.rank == idx.p
