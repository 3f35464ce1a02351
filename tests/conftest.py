import itertools
import pathlib

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


def star_model(n: int) -> LatentModel:
    """Pure latent-class model: hidden node adjacent to n otherwise isolated nodes."""
    return LatentModel.binary(
        Graph.from_edges(n + 1, [(0, v) for v in range(1, n + 1)])
    )


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
