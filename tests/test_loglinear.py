import json
import math
import random
from itertools import combinations

import numpy as np
import pytest

from latident import (
    Graph,
    LatentModel,
    ParamEntry,
    ValidationError,
    build_param_index,
    design_matrix,
    marginalization_matrix,
    numeric_rank,
)

from latident.loglinear import param_count

from conftest import FIXTURE_NAMES, hidden_over_all_graphs, load_model

SINGLE_EDGE = LatentModel.binary(Graph.from_edges(2, [(0, 1)]))


def brute_force_p(m: LatentModel) -> int:
    """Independent count: enumerate all subsets, test completeness on raw edges."""
    n = m.graph.node_count
    total = 1  # empty subset
    for r in range(1, n + 1):
        for nodes in combinations(range(n), r):
            if m.graph.is_complete_set(nodes):
                total += math.prod(m.levels[v] - 1 for v in nodes)
    return total


def test_model_validation():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValidationError):
        LatentModel(g, (3, 2))  # hidden node must be binary
    with pytest.raises(ValidationError):
        LatentModel(g, (2, 1))  # one-level variable is degenerate
    with pytest.raises(ValidationError):
        LatentModel(g, (2,))  # wrong length
    with pytest.raises(ValidationError):
        LatentModel(Graph.from_edges(1, []), (2,))  # no observed node


def test_param_count_triangle_pendants():
    assert build_param_index(load_model("triangle_pendants")).p == 28


def test_param_count_k4_pendants():
    assert build_param_index(load_model("k4_pendants")).p == 40


def test_param_count_single_edge():
    idx = build_param_index(SINGLE_EDGE)
    assert idx.p == 4
    assert idx.names() == ["mu", "b{0}", "b{1}", "b{0,1}"]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_param_count_matches_brute_force(name):
    m = load_model(name)
    assert build_param_index(m).p == brute_force_p(m)


def test_param_count_multi_level():
    m = LatentModel(load_model("path5").graph, (2, 3, 2, 2, 2, 2))
    idx = build_param_index(m)
    assert idx.p == brute_force_p(m) == 24


def test_param_index_order_and_level_combos():
    m = LatentModel(Graph.from_edges(2, [(0, 1)]), (2, 4))
    idx = build_param_index(m)
    assert [e.name for e in idx.entries] == [
        "mu", "b{0}", "b{1}", "b{1:2}", "b{1:3}",
        "b{0,1}", "b{0,1:2}", "b{0,1:3}",
    ]
    sizes = [len(e.nodes) for e in idx.entries]
    assert sizes == sorted(sizes)


def test_param_index_hierarchy():
    idx = build_param_index(load_model("k4_pendants"))
    subsets = {e.nodes for e in idx.entries}
    for nodes in subsets:
        for r in range(len(nodes)):
            for sub in combinations(nodes, r):
                assert tuple(sub) in subsets


def test_design_matrix_single_edge():
    idx = build_param_index(SINGLE_EDGE)
    z = design_matrix(SINGLE_EDGE, idx)
    expected = np.array(
        [[1, 0, 0, 0], [1, 0, 1, 0], [1, 1, 0, 0], [1, 1, 1, 1]], dtype=float
    )
    assert np.array_equal(z, expected)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_design_matrix_basic_structure(name):
    m = load_model(name)
    idx = build_param_index(m)
    z = design_matrix(m, idx)
    assert z.shape == (2 * m.table_size, idx.p)
    assert np.array_equal(z[:, 0], np.ones(z.shape[0]))
    assert np.array_equal(z[0], np.eye(idx.p)[0])  # all-zero cell hits only the mean


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_design_matrix_full_column_rank(name):
    m = load_model(name)
    idx = build_param_index(m)
    report = numeric_rank(design_matrix(m, idx))
    assert report.rank == idx.p


def test_design_matrix_full_column_rank_multi_level():
    m = LatentModel(load_model("path5").graph, (2, 3, 2, 2, 2, 2))
    idx = build_param_index(m)
    assert numeric_rank(design_matrix(m, idx)).rank == idx.p == 24


def reference_design_matrix(m: LatentModel, idx) -> np.ndarray:
    """Per-column construction: list every cell's levels, then match each column."""
    dims = (2,) + tuple(m.levels[1:])
    cells = np.indices(dims).reshape(len(dims), -1).T
    z = np.empty((cells.shape[0], idx.p), dtype=float)
    for j, e in enumerate(idx.entries):
        if not e.nodes:
            z[:, j] = 1.0
        else:
            z[:, j] = np.all(cells[:, list(e.nodes)] == e.levels, axis=1)
    return z


MULTI_LEVEL_MODELS = {
    "star2_levels223": LatentModel(Graph.from_edges(3, [(0, 1), (0, 2)]), (2, 2, 3)),
    "edge_levels24": LatentModel(Graph.from_edges(2, [(0, 1)]), (2, 4)),
    "path5_levels3": LatentModel(load_model("path5").graph, (2, 3, 2, 2, 2, 2)),
    "triangle_pendants_levels234": LatentModel(
        load_model("triangle_pendants").graph, (2, 3, 2, 4, 2, 3, 2)
    ),
}


@pytest.mark.parametrize("name", FIXTURE_NAMES + list(MULTI_LEVEL_MODELS))
def test_design_matrix_matches_per_column_reference(name):
    m = MULTI_LEVEL_MODELS.get(name) or load_model(name)
    idx = build_param_index(m)
    z = design_matrix(m, idx)
    assert z.dtype == np.float64 and z.flags.c_contiguous
    assert np.array_equal(z, reference_design_matrix(m, idx))


def test_design_matrix_stacking_hidden_slowest():
    m = LatentModel(Graph.from_edges(3, [(0, 1), (0, 2)]), (2, 2, 3))
    idx = build_param_index(m)
    z = design_matrix(m, idx)
    assert z.shape == (12, idx.p)
    # each row's level of node v, read back from the main-effect columns of v
    cells = np.column_stack([
        sum(k * z[:, idx.lookup[ParamEntry((v,), (k,))]] for k in range(1, m.levels[v]))
        for v in range(3)
    ])
    # hidden level flips halfway, the last variable cycles fastest
    assert list(cells[:, 0]) == [0] * 6 + [1] * 6
    assert list(cells[:6, 2]) == [0, 1, 2, 0, 1, 2]
    assert list(cells[:6, 1]) == [0, 0, 0, 1, 1, 1]


def test_marginalization_matrix_small():
    m = LatentModel.binary(Graph.from_edges(2, [(0, 1)]))
    l_mat = marginalization_matrix(m)
    assert np.array_equal(l_mat, np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=float))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_marginalization_matrix_structure(name):
    m = load_model(name)
    l_mat = marginalization_matrix(m)
    l = m.table_size
    assert l_mat.shape == (l, 2 * l)
    assert np.array_equal(l_mat.sum(axis=1), np.full(l, 2.0))
    assert np.array_equal(l_mat @ np.ones(2 * l), np.full(l, 2.0))


def _random_models(count: int, seed: int):
    """Seeded models on 3..8 observed nodes: the hidden node misses some of
    them (T1 nodes) and some nodes take 3 or 4 levels."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 8)
        s_nodes = rng.sample(range(1, n + 1), rng.randint(1, n - 1))
        observed = [pr for pr in combinations(range(1, n + 1), 2) if rng.random() < 0.5]
        levels = (2, *(rng.choice((2, 2, 3, 4)) for _ in range(n)))
        yield LatentModel(Graph.from_edges(n + 1, [(0, v) for v in s_nodes] + observed), levels)


def test_param_count_matches_index():
    models = [
        *map(LatentModel.binary, hidden_over_all_graphs()),
        *map(load_model, FIXTURE_NAMES),
        *MULTI_LEVEL_MODELS.values(),
        *_random_models(200, seed=5),
    ]
    assert len(models) == 1099 + 6 + len(MULTI_LEVEL_MODELS) + 200
    assert sum(len(set(m.levels)) > 1 for m in models) > 150
    for m in models:
        assert param_count(m) == build_param_index(m).p, m


@pytest.mark.parametrize("name", FIXTURE_NAMES + list(MULTI_LEVEL_MODELS))
def test_coordinate_names_are_their_own_json_strings(name):
    # the report writer prints a name's JSON string as the name in quotes
    m = MULTI_LEVEL_MODELS.get(name) or load_model(name)
    for coordinate in build_param_index(m).names():
        assert json.dumps(coordinate) == f'"{coordinate}"'
