import itertools
import pathlib
import random

import pytest

from latident import Graph, LatentModel, parse_model

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"

FIXTURE_NAMES = [
    "path5",
    "path3_isolated",
    "triangle_isolated",
    "triangle_pendants",
    "k4_pendants",
    "clique_web9",
]


def model_path(name: str) -> str:
    return str(MODELS / f"{name}.model")


def load_model(name: str) -> LatentModel:
    return parse_model(model_path(name))


def model_text(m: LatentModel) -> str:
    """Canonical model-file text; parse_model reads it back as m."""
    lines = [f"nodes {m.graph.node_count}"]
    lines += [f"levels {v}={l}" for v, l in enumerate(m.levels) if l != 2]
    lines += [f"edge {i} {j}" for i, j in sorted(m.graph.edges)]
    return "\n".join(lines) + "\n"


def star_model(n: int) -> LatentModel:
    """Pure latent-class model: hidden node adjacent to n otherwise isolated nodes."""
    return LatentModel.binary(
        Graph.from_edges(n + 1, [(0, v) for v in range(1, n + 1)])
    )


def five_cycle_model() -> LatentModel:
    """Hidden node adjacent to an observed 5-cycle, whose complement is again a
    5-cycle with no triangle: the probe-only case."""
    edges = [(0, v) for v in range(1, 6)] + [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    return LatentModel.binary(Graph.from_edges(6, edges))


def k23_with_t1_model() -> LatentModel:
    """G_S = K_{2,3} with parts {2, 3} and {4, 5, 6}, plus T1 node 1 joined to 2:
    its singular system forces b{0,3,6} to zero."""
    edges = [(1, 2), *((0, v) for v in range(2, 7)), *itertools.product((2, 3), (4, 5, 6))]
    return LatentModel.binary(Graph.from_edges(7, edges))


def t1_clique_model(k: int) -> LatentModel:
    """Hidden node joined to node 1, node 1 to node 2, and T1 nodes 2..k+1
    forming a K_k: a core of p = 4 in a model of p = 2^k + 4."""
    clique = itertools.combinations(range(2, k + 2), 2)
    return LatentModel.binary(Graph.from_edges(k + 2, [(0, 1), (1, 2), *clique]))


def complete_model(levels: tuple[int, ...]) -> LatentModel:
    """Every pair of nodes adjacent: every subset is complete, so p = prod(levels)."""
    pairs = itertools.combinations(range(len(levels)), 2)
    return LatentModel(Graph.from_edges(len(levels), pairs), levels)


def dense_model(n: int) -> LatentModel:
    """K_n minus {1-2, 1-3, 2-3, 4-5, 6-7} on the observed nodes, hidden node
    adjacent to all: many complete subsets, most without a plain sequence."""
    removed = {(1, 2), (1, 3), (2, 3), (4, 5), (6, 7)}
    return LatentModel.binary(
        Graph.from_edges(
            n + 1,
            [pr for pr in itertools.combinations(range(n + 1), 2) if pr not in removed],
        )
    )


def sparse_model(n: int) -> LatentModel:
    """Hidden node adjacent to all n observed nodes, each observed node joined
    to 3 others drawn by random.Random(0): a sparse G_S whose complement's
    maximal cliques grow exponentially (hundreds of thousands at 60 nodes)."""
    rng = random.Random(0)
    observed = range(1, n + 1)
    edges = {(0, v) for v in observed}
    for v in observed:
        edges.update((min(u, v), max(u, v)) for u in rng.sample([u for u in observed if u != v], 3))
    return LatentModel.binary(Graph.from_edges(n + 1, edges))


def hidden_over_all_graphs():
    """Every labelled graph on observed nodes 1..k, k = 1..5, with the hidden
    node 0 adjacent to all of them: the 1,099 graphs of the exhaustive sweep."""
    for k in range(1, 6):
        pairs = list(itertools.combinations(range(1, k + 1), 2))
        for bits in range(1 << len(pairs)):
            observed = [pr for b, pr in enumerate(pairs) if bits >> b & 1]
            yield Graph.from_edges(k + 1, [(0, v) for v in range(1, k + 1)] + observed)


@pytest.fixture(scope="session")
def path5():
    return load_model("path5")


@pytest.fixture(scope="session")
def path3_isolated():
    return load_model("path3_isolated")


@pytest.fixture(scope="session")
def triangle_isolated():
    return load_model("triangle_isolated")


@pytest.fixture(scope="session")
def triangle_pendants():
    return load_model("triangle_pendants")


@pytest.fixture(scope="session")
def k4_pendants():
    return load_model("k4_pendants")


@pytest.fixture(scope="session")
def clique_web9():
    return load_model("clique_web9")


@pytest.fixture(scope="session")
def all_fixture_models():
    return {name: load_model(name) for name in FIXTURE_NAMES}
