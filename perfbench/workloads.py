"""Workload generators: each writes model files and lists the CLI calls to make.

Every generator is a pure function of the seed, so one seed always yields the
same files.  A workload is a list of `Job`s; a job's `size` is its model's
observed node count, and the jobs of the largest size are timed together as
`largest_model_s`.
"""

from __future__ import annotations

import itertools
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

# Verdicts of the fixtures in models/, copied by hand from the README table.
FIXTURE_VERDICTS = {
    "path5": "identified_everywhere",
    "path3_isolated": "identified_everywhere",
    "triangle_isolated": "not_identified",
    "triangle_pendants": "generically_identified",
    "k4_pendants": "generically_identified",
    "clique_web9": "identified_everywhere",
}

VERIFY = ("verify", "--trials", "3", "--seed", "0")
CLASSIFY = ("classify",)


@dataclass(frozen=True)
class Job:
    """One CLI call: `latident <command...> <path>` on a generated model."""

    group: str
    path: str
    command: tuple[str, ...]
    size: int

    def argv(self) -> list[str]:
        return [self.command[0], self.path, *self.command[1:]]


def _model_text(node_count: int, edges, levels: dict[int, int] | None = None) -> str:
    lines = [f"nodes {node_count}"]
    lines += [f"levels {v}={l}" for v, l in sorted((levels or {}).items())]
    lines += [f"edge {i} {j}" for i, j in sorted(edges)]
    return "\n".join(lines) + "\n"


class _Writer:
    """Writes model files under one directory, named in generation order."""

    def __init__(self, root: Path, rel_root: str):
        self.root = root
        self.rel_root = rel_root
        self.jobs: list[Job] = []

    def add(self, group: str, text: str, command: tuple[str, ...], size: int) -> None:
        name = f"{len(self.jobs):05d}_{group}.model"
        (self.root / name).write_text(text, encoding="utf-8")
        self.jobs.append(Job(group, f"{self.rel_root}/{name}", command, size))


def _exhaustive(w: _Writer) -> None:
    """Every labelled graph on observed nodes 1..k, hidden node adjacent to all, k = 1..5."""
    for k in range(1, 6):
        pairs = list(itertools.combinations(range(1, k + 1), 2))
        star = [(0, v) for v in range(1, k + 1)]
        for bits in range(1 << len(pairs)):
            chosen = [pr for b, pr in enumerate(pairs) if bits >> b & 1]
            w.add("exhaustive", _model_text(k + 1, star + chosen), VERIFY, k)


def _random_small(w: _Writer, rng: random.Random, count: int) -> None:
    """Small models with T1 nodes: 3-7 observed nodes, at least one not adjacent
    to the hidden node, observed edges at density 0.5, and one or two 3-level
    nodes in half of the models.

    Drawn once from a fixed seed and relabeled by the run's seed, as the
    ladders are: fresh draws per seed moved the slowest models, and with them
    `model_p99_ms`, by a third between seeds.
    """
    draw = random.Random("sweep_small models")
    for i in range(count):
        n = 3 + i % 5
        observed = list(range(1, n + 1))
        s_nodes = draw.sample(observed, draw.randint(1, n - 1))
        edges = [(0, v) for v in s_nodes]
        edges += [pr for pr in itertools.combinations(observed, 2) if draw.random() < 0.5]
        levels = {v: 3 for v in draw.sample(observed, (0, 1, 0, 2)[i % 4])}
        edges, levels = _relabeled(rng, n, edges, levels)
        w.add("drawn", _model_text(n + 1, edges, levels), VERIFY, n)


def _fixtures(w: _Writer, models_dir: Path) -> None:
    for name in FIXTURE_VERDICTS:
        text = (models_dir / f"{name}.model").read_text(encoding="utf-8")
        size = int(next(l.split()[1] for l in text.splitlines() if l.startswith("nodes"))) - 1
        w.add(f"fixture-{name}", text, VERIFY, size)


def _relabeled(rng: random.Random, n: int, edges, levels=None) -> tuple[list, dict]:
    """The same model with observed nodes 1..n permuted at random (0 stays hidden).

    Relabeling is all a seed changes in the drawn and ladder models: the files
    and reports differ between seeds, while the verdicts and the work do not.
    """
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    label = [0, *perm]
    new_edges = [tuple(sorted((label[i], label[j]))) for i, j in edges]
    return new_edges, {label[v]: l for v, l in (levels or {}).items()}


def _dense(w: _Writer, rng: random.Random) -> None:
    """K_n minus {1-2, 1-3, 2-3, 4-5, 6-7}, hidden node adjacent to all, n = 8..12."""
    removed = {(1, 2), (1, 3), (2, 3), (4, 5), (6, 7)}
    for n in range(8, 13):
        edges = [pr for pr in itertools.combinations(range(n + 1), 2) if pr not in removed]
        edges, _ = _relabeled(rng, n, edges)
        w.add(f"dense{n}", _model_text(n + 1, edges), CLASSIFY, n)


def _random_graph(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    """A uniform graph on nodes 0..n with round(density * C(n+1, 2)) edges.

    Draws where the hidden node has no neighbour are invalid models and are
    drawn again.
    """
    pairs = list(itertools.combinations(range(n + 1), 2))
    m = round(density * len(pairs))
    while True:
        edges = rng.sample(pairs, m)
        if any(i == 0 for i, _ in edges):
            return edges


def _numeric(w: _Writer, rng: random.Random) -> None:
    """Random graphs at edge density 0.3: one at n = 13, two per n = 12..9,
    and three variants with 3-level nodes.

    The graphs are drawn once, from a fixed seed, and the run's seed relabels
    them: at 12 models, fresh draws per seed would swing the verdict mix (and
    with it the Jacobian count and the oracle share) by a third between seeds.
    Largest first: the package caches each model's dense matrices, so the peak
    memory of a pass is then the largest model's own.
    """
    draw = random.Random("numeric_ladder graphs")
    for n in (13, 12, 12, 11, 11, 10, 10, 9, 9):
        edges, _ = _relabeled(rng, n, _random_graph(draw, n, 0.3))
        w.add(f"binary{n}", _model_text(n + 1, edges), VERIFY, n)
    for n, threes in ((10, 1), (9, 2), (8, 2)):
        edges = _random_graph(draw, n, 0.3)
        levels = {v: 3 for v in draw.sample(range(1, n + 1), threes)}
        edges, levels = _relabeled(rng, n, edges, levels)
        w.add(f"levels{n}", _model_text(n + 1, edges, levels), VERIFY, n)


def generate(workload: str, seed: int, out_dir: Path, rel_dir: str, models_dir: Path) -> list[Job]:
    """Write the workload's model files into out_dir (emptied first) and list its jobs."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    rng = random.Random(f"{workload}:{seed}")
    w = _Writer(out_dir, rel_dir)
    if workload == "sweep_small":
        _exhaustive(w)
        _fixtures(w, models_dir)
        _random_small(w, rng, 300)
    elif workload == "dense_locus":
        _dense(w, rng)
    elif workload == "numeric_ladder":
        _numeric(w, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return w.jobs
