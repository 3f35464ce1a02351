"""Model-file parsing, command dispatch, and structured reporting.

Model file grammar (one directive per line, '#' starts a comment):

    nodes N          total node count including the hidden node 0
    levels V=L       level count for node V (default 2; node 0 must stay 2)
    edge I J         undirected edge

Commands: classify (structural verdict only), verify (verdict plus numerical
cross-check), rank (raw rank oracle at one point), locus (singular equations
only).  Reports go to stdout as JSON; diagnostics to stderr.  Exit codes for
classify/verify: 0 identified everywhere, 2 generically identified, 3 not
identified, 1 any error.

A report is written as it is produced, with the bytes json.dumps(report,
indent=2) would give: the small blocks go through the encoder in one pass and
the singular system is written one equation at a time, so a large classify
holds the system in memory but not a second copy of it as text.
"""

from __future__ import annotations

import functools
import json
import operator
import sys
from typing import IO

import numpy as np

from .errors import DimensionMismatchError, LatidentError, ParseError, ValidationError
from .graph import Graph, NodeSet
from .identify import Status, Verdict, classify
from .loglinear import LatentModel, ParamIndex, build_param_index, design_cells, param_count
from .numeric import RankReport, generic_rank, jacobian, numeric_rank, rank_on_system, sample_beta
from .singular import SingularSystem

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_GENERIC = 2
EXIT_NOT_IDENTIFIED = 3

_STATUS_EXIT = {
    Status.IDENTIFIED_EVERYWHERE: EXIT_OK,
    Status.GENERICALLY_IDENTIFIED: EXIT_GENERIC,
    Status.NOT_IDENTIFIED: EXIT_NOT_IDENTIFIED,
}


def parse_model(source: str | IO[str]) -> LatentModel:
    """Parse a model file (path or open text stream) into a LatentModel."""
    try:
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = source.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {exc.start}: not valid UTF-8") from None
    node_count: int | None = None
    levels: dict[int, int] = {}
    edges: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword = fields[0]
        if keyword == "nodes":
            if node_count is not None:
                raise ParseError("duplicate nodes line", line_no)
            if len(fields) != 2 or not fields[1].isdecimal():
                raise ParseError("expected: nodes <count>", line_no)
            node_count = int(fields[1])
        elif keyword == "levels":
            if node_count is None:
                raise ParseError("levels before nodes line", line_no)
            if len(fields) != 2 or "=" not in fields[1]:
                raise ParseError("expected: levels <node>=<count>", line_no)
            v_str, _, l_str = fields[1].partition("=")
            if not v_str.isdecimal() or not l_str.isdecimal():
                raise ParseError("expected: levels <node>=<count>", line_no)
            v, l = int(v_str), int(l_str)
            if not 0 <= v < node_count:
                raise ValidationError(f"line {line_no}: node {v} out of range")
            if v in levels:
                raise ValidationError(f"line {line_no}: duplicate levels for node {v}")
            levels[v] = l
        elif keyword == "edge":
            if node_count is None:
                raise ParseError("edge before nodes line", line_no)
            if len(fields) != 3 or not fields[1].isdecimal() or not fields[2].isdecimal():
                raise ParseError("expected: edge <i> <j>", line_no)
            i, j = int(fields[1]), int(fields[2])
            if i == j:
                raise ValidationError(f"line {line_no}: self-loop at node {i}")
            if not (0 <= i < node_count and 0 <= j < node_count):
                raise ValidationError(f"line {line_no}: edge ({i},{j}) out of range")
            pair = (min(i, j), max(i, j))
            if pair in edges:
                raise ValidationError(f"line {line_no}: duplicate edge ({i},{j})")
            edges.add(pair)
        else:
            raise ParseError(f"unknown directive {keyword!r}", line_no)
    if node_count is None:
        raise ParseError("missing nodes line", None)
    level_tuple = tuple(levels.get(v, 2) for v in range(node_count))
    return LatentModel(Graph.from_edges(node_count, edges), level_tuple)


def _nodes(ns) -> list[int]:
    return sorted(ns)


def _verdict_block(verdict: Verdict) -> dict:
    return {
        "status": verdict.status.value,
        "probe_only": verdict.probe_only,
        "s_nodes": _nodes(verdict.s_nodes),
        "t1_nodes": _nodes(verdict.t1_nodes),
        "m_clique": _nodes(verdict.m_clique) if verdict.m_clique is not None else None,
        "cliques": [
            {
                "clique": _nodes(clique),
                "sequence": [_nodes(s) for s in cert.chain] if cert else None,
            }
            for clique, cert in verdict.clique_certs
        ],
        "failed_cliques": [_nodes(c) for c in verdict.failed_cliques],
        "failing_complete_sets": [_nodes(s) for s in verdict.failing_sets],
    }


def _rank_block(report: RankReport) -> dict:
    block = {
        "rank": report.rank,
        "p": report.p,
        "tolerance_used": report.tolerance_used,
        "gap": report.gap,
        "ambiguous": report.ambiguous,
        "singular_values": list(report.singular_values),
    }
    if report.trial_ranks is not None:
        block["trial_ranks"] = list(report.trial_ranks)
        block["modal_rank"] = report.modal_rank
        block["unanimous"] = report.unanimous
    return block


def _model_block(m: LatentModel, path: str) -> dict:
    return {
        "file": path,
        "nodes": m.graph.node_count,
        "levels": list(m.levels),
        "edges": [list(e) for e in sorted(m.graph.edges)],
    }


# Between two term names of an equation's "terms" list, at the list's depth.
_TERM_SEP = '",\n          "'


def _write_system(write, system: SingularSystem) -> None:
    """Write the singular_system block, one write per equation, with the bytes
    json.dumps(..., indent=2) gives it as the value of a top-level key.

    Each term's name is read once; its JSON string is the name in quotes (see
    ParamEntry.name).  Each distinct source set and boundary subset is encoded once.
    """
    encoded: dict[NodeSet | tuple[int, ...], str] = {}

    def node_list(ns: NodeSet | tuple[int, ...]) -> str:
        text = encoded.get(ns)
        if text is None:
            items = ",\n".join(f"          {v}" for v in _nodes(ns))
            text = encoded[ns] = f"[\n{items}\n        ]" if ns else "[]"
        return text

    names_of = operator.attrgetter("name")
    equations = system.equations
    write(f'{{\n    "equation_count": {len(equations)},\n    "equations": [')
    sep = "\n"
    for eq in equations:
        names = list(map(names_of, eq.terms))
        text = " + ".join(names)
        write(
            f'{sep}      {{\n        "text": "{text} = 0",\n'
            f'        "terms": [\n          "{_TERM_SEP.join(names)}"\n        ],\n'
            f'        "designated": "{names[0]}",\n'
            f'        "source_kind": "boundary",\n'
            f'        "source_set": {node_list(eq.source_set)},\n'
            f'        "source_boundary_subset": {node_list(eq.terms[0].nodes[1:])}\n      }}'
        )
        sep = ",\n"
    write("\n    ]" if equations else "]")
    write(',\n    "expected_rank_drop_full": null\n  }')  # schema 1 keeps the key; never computed


_INDENTED = json.JSONEncoder(indent=2)  # the encoder json.dumps(..., indent=2) builds per call
# The singular_system key as the report's text has it.  A JSON string escapes
# its quotes and newlines, so this text can be nothing but that key.
_SYSTEM_KEY = '\n  "singular_system": '


def _emit(report: dict) -> None:
    """Write the report to stdout with the bytes of print(json.dumps(report, indent=2)).

    The report goes through the encoder once with its singular system as null;
    _write_system writes the system in that null's place, straight from its
    equations.
    """
    system = report.get("singular_system")
    text = _INDENTED.encode({**report, "singular_system": None} if system else report)
    write = sys.stdout.write
    if system:
        head, text = text.split(_SYSTEM_KEY + "null")
        write(head + _SYSTEM_KEY)
        _write_system(write, system)
    write(text + "\n")


def cmd_classify(path: str) -> int:
    m = parse_model(path)
    verdict = classify(m)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "classify",
        "model": _model_block(m, path),
        "p": param_count(m),
        "verdict": _verdict_block(verdict),
        "singular_system": verdict.singular_system,
    }
    _emit(report)
    return _STATUS_EXIT[verdict.status]


def _check_seed_tol(seed: int, tol: float | None) -> None:
    if seed < 0:
        raise ValidationError("--seed must be >= 0")
    if tol is not None and not 0 < tol < np.inf:
        raise ValidationError("--tol must be finite and > 0")


def cmd_verify(path: str, trials: int, seed: int, tol: float | None) -> int:
    if trials < 1:
        raise ValidationError("--trials must be >= 1")
    _check_seed_tol(seed, tol)
    m = parse_model(path)
    verdict = classify(m)
    design_cells(m, param_count(m))  # refuses an oversized design before the index is built
    idx = build_param_index(m)
    generic = generic_rank(m, trials=trials, seed=seed, idx=idx, tol=tol)
    on_system = None
    if verdict.singular_system is not None:
        on_system = rank_on_system(
            m, verdict.singular_system, trials=trials, seed=seed, idx=idx, tol=tol
        )

    if verdict.status is Status.IDENTIFIED_EVERYWHERE:
        expectation = "generic rank equals p"
        consistent = generic.rank == idx.p
    elif verdict.status is Status.NOT_IDENTIFIED:
        expectation = "every sampled rank is below p"
        consistent = all(r < idx.p for r in generic.trial_ranks or ())
    elif verdict.probe_only:
        expectation = (
            "generic rank equals p; the singular subset has no closed form here, "
            "probe suspect points with the rank command"
        )
        consistent = generic.rank == idx.p
    else:
        expectation = "generic rank equals p and the on-subspace rank is below p"
        consistent = (
            generic.rank == idx.p
            and on_system is not None
            and on_system.rank < idx.p
        )

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "model": _model_block(m, path),
        "p": idx.p,
        "trials": trials,
        "seed": seed,
        "verdict": _verdict_block(verdict),
        "singular_system": verdict.singular_system,
        "generic_rank": _rank_block(generic),
        "on_subspace_rank": _rank_block(on_system) if on_system else None,
        "consistency": {"consistent": consistent, "expectation": expectation},
    }
    _emit(report)
    return _STATUS_EXIT[verdict.status]


def _load_beta(path: str, idx: ParamIndex) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            values = [float(tok) for tok in fh.read().split()]
        except ValueError as exc:  # the message names the token
            raise ValidationError(f"beta file: {exc}") from None
    if len(values) != idx.p:
        raise DimensionMismatchError(
            f"beta file has {len(values)} values, expected {idx.p}"
        )
    beta = np.array(values, dtype=float)
    if np.any(beta == 0.0):
        raise ValidationError("beta must have every coordinate nonzero")
    return beta


def cmd_rank(path: str, beta_path: str | None, seed: int, tol: float | None) -> int:
    _check_seed_tol(seed, tol)
    m = parse_model(path)
    design_cells(m, param_count(m))  # refuses an oversized design before the index is built
    idx = build_param_index(m)
    if beta_path is not None:
        beta = _load_beta(beta_path, idx)
        beta_source = {"kind": "file", "file": beta_path}
    else:
        beta = sample_beta(idx.p, [seed, 0])
        beta_source = {"kind": "sampled", "seed": seed}
    report_obj = numeric_rank(jacobian(m, idx, beta), tol=tol)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "rank",
        "model": _model_block(m, path),
        "p": idx.p,
        "beta_source": beta_source,
        "coordinates": idx.names(),
        "beta": [float(x) for x in beta],
        "rank": _rank_block(report_obj),
    }
    _emit(report)
    return EXIT_OK


def cmd_locus(path: str) -> int:
    m = parse_model(path)
    verdict = classify(m)
    if verdict.singular_system is None:
        if verdict.probe_only:
            print(
                "no closed-form singular system for this shape; "
                "probe candidate points with the rank command",
                file=sys.stderr,
            )
        else:
            print("no singular system: " + verdict.status.value, file=sys.stderr)
        return EXIT_OK
    for line in verdict.singular_system.render():
        print(line)
    return EXIT_OK


@functools.cache  # built once per process: parse_args leaves the parser unchanged
def _build_parser():
    import argparse  # here only, so `import latident` does not load argparse

    parser = argparse.ArgumentParser(
        prog="latident",
        description=(
            "Classify discrete graphical models with one binary hidden node by "
            "local identifiability and cross-check the verdict numerically."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="structural verdict only")
    p_classify.add_argument("file")

    p_verify = sub.add_parser("verify", help="verdict plus numerical cross-check")
    p_verify.add_argument("file")
    p_verify.add_argument("--trials", type=int, default=50)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tol", type=float, default=None)

    p_rank = sub.add_parser("rank", help="rank of the Jacobian at one point")
    p_rank.add_argument("file")
    group = p_rank.add_mutually_exclusive_group()
    group.add_argument("--beta", dest="beta_path", default=None)
    group.add_argument("--seed", type=int, default=0)
    p_rank.add_argument("--tol", type=float, default=None)

    p_locus = sub.add_parser("locus", help="print the singular equations only")
    p_locus.add_argument("file")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage exit is 2, which means "generically identified"
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        if args.command == "classify":
            return cmd_classify(args.file)
        if args.command == "verify":
            return cmd_verify(args.file, args.trials, args.seed, args.tol)
        if args.command == "rank":
            return cmd_rank(args.file, args.beta_path, args.seed, args.tol)
        if args.command == "locus":
            return cmd_locus(args.file)
        raise AssertionError(f"unhandled command {args.command}")
    except (LatidentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
