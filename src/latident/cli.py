"""Model-file parsing, command dispatch, and structured reporting.

Model file grammar (one directive per line, '#' starts a comment):

    nodes N          total node count including the hidden node 0
    levels V=L       level count for node V (default 2; node 0 must stay 2)
    edge I J         undirected edge

USAGE lists the commands and their options, whose names are spelled in full.
Reports go to stdout as JSON; diagnostics to stderr, where a malformed command
line gets USAGE and a `latident: error:` line.  Exit codes for classify/verify:
0 identified everywhere, 2 generically identified, 3 not identified, 1 any error.

A report is written as it is produced, with the bytes json.dumps(report,
indent=2) would give: the small blocks go through the encoder in one pass and
the singular system is written one equation at a time as its generator, the
designated coordinate and the anchored tokens (schema 3), so a report grows
with the equation count, not the term count.  Only locus expands the terms.
"""

from __future__ import annotations

import json
import sys
from functools import cache
from typing import IO

import numpy as np

from .errors import (
    DimensionMismatchError, LatidentError, NotApplicableError, ParseError, ValidationError,
)
from .graph import Graph, _bits
from .identify import Status, Verdict, classify
from .loglinear import (
    LatentModel, ParamIndex, _core, build_param_index, design_cells, param_count,
)
from .numeric import RankReport, generic_rank, jacobian, numeric_rank, rank_on_system, sample_beta
from .singular import SingularSystem, full_system

SCHEMA_VERSION = 3

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
    try:
        graph = Graph.from_edges(node_count, edges)
        return LatentModel(graph, tuple(levels.get(v, 2) for v in range(node_count)))
    except MemoryError:
        raise ValidationError(f"a model of {node_count} nodes is too large to hold") from None


def _verdict_block(verdict: Verdict) -> dict:
    return {
        "status": verdict.status.value,
        "probe_only": verdict.probe_only,
        "s_nodes": sorted(verdict.s_nodes),
        "t1_nodes": sorted(verdict.t1_nodes),
        "m_clique": sorted(verdict.m_clique) if verdict.m_clique is not None else None,
        "cliques": [
            {
                "clique": sorted(clique),
                "sequence": [sorted(s) for s in cert.chain] if cert else None,
            }
            for clique, cert in verdict.clique_certs
        ],
        "failed_cliques": [sorted(c) for c in verdict.failed_cliques],
        "failing_complete_sets": [sorted(s) for s in verdict.failing_sets],
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


def _json_list(items) -> str:
    """Texts of JSON values as json.dumps(..., indent=2) lists them as the value
    of an equation's key."""
    text = ",\n".join(f"          {item}" for item in items)
    return f"[\n{text}\n        ]" if text else "[]"


def _write_system(write, system: SingularSystem) -> None:
    """Write the singular_system block, one write per equation, with the bytes
    json.dumps(..., indent=2) gives it as the value of a top-level key.

    Each equation is written as its generator: the designated coordinate
    {0} | V0 and the anchored slots' tokens, read through the system's one
    coordinate table, so no term beyond the first is built.  A name's or a
    token's JSON string is itself in quotes (see ParamEntry.name).  Each
    distinct anchored mask, source set and boundary subset is encoded once.
    """
    equations = system.equations
    coords = equations[0].coords if equations else None
    source_list = cache(lambda ns: _json_list(sorted(ns)))
    anchored_list = cache(lambda slots: _json_list(f'"{coords.token(s)}"' for s in _bits(slots)))
    boundary_list = cache(lambda v0: _json_list(coords.entry(v0).nodes[1:]))
    write(f'{{\n    "equation_count": {len(equations)},\n    "equations": [')
    sep = "\n"
    for eq in equations:
        write(
            f'{sep}      {{\n        "designated": "{coords.name(eq.v0)}",\n'
            f'        "anchored": {anchored_list(eq.anchored)},\n'
            f'        "source_kind": "boundary",\n'
            f'        "source_set": {source_list(eq.source_set)},\n'
            f'        "source_boundary_subset": {boundary_list(eq.v0)}\n      }}'
        )
        sep = ",\n"
    write("\n    ]\n  }" if equations else "]\n  }")


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


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValidationError("--seed must be >= 0")


def cmd_verify(path: str, trials: int = 50, seed: int = 0) -> int:
    if trials < 1:
        raise ValidationError("--trials must be >= 1")
    _check_seed(seed)
    m = parse_model(path)
    verdict = classify(m)
    # The ranks are taken on the core, which has the model's rank deficit (see _core).
    core, ids = _core(m)
    design_cells(core, param_count(core))  # refuses an oversized design before the index is built
    idx = ParamIndex(build_param_index(core).entries, ids)
    generic = generic_rank(core, trials=trials, seed=seed, idx=idx)
    on_system = None
    if verdict.singular_system is not None:
        on_system = rank_on_system(core, verdict.singular_system, trials=trials, seed=seed, idx=idx)

    full = generic.rank == idx.p  # generic.rank is the top trial rank
    if verdict.status is Status.IDENTIFIED_EVERYWHERE:
        expectation = "generic rank equals p"
        consistent = full
    elif verdict.status is Status.NOT_IDENTIFIED:
        expectation = "every sampled rank is below p"
        consistent = not full
    elif verdict.probe_only:
        expectation = (
            "generic rank equals p; the singular subset has no closed form here, "
            "probe suspect points with the rank command"
        )
        consistent = full
    else:  # classify attaches a system to every such verdict
        expectation = "generic rank equals p and the on-subspace rank is below p"
        consistent = full and on_system.rank < idx.p

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "model": _model_block(m, path),
        "p": param_count(m),
        "core": {"nodes": list(ids), "p": idx.p},
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


def cmd_rank(path: str, beta_path: str | None = None, seed: int = 0) -> int:
    _check_seed(seed)
    m = parse_model(path)
    design_cells(m, param_count(m))  # refuses an oversized design before the index is built
    idx = build_param_index(m)
    if beta_path is not None:
        beta = _load_beta(beta_path, idx)
        beta_source = {"kind": "file", "file": beta_path}
    else:
        beta = sample_beta(idx.p, [seed, 0])
        beta_source = {"kind": "sampled", "seed": seed}
    report_obj = numeric_rank(jacobian(m, idx, beta))
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
    try:
        system = full_system(parse_model(path))
    except NotApplicableError as exc:
        print(exc, file=sys.stderr)
    else:
        for eq in system.equations:
            print(eq.render())
    return EXIT_OK


USAGE = """\
usage: latident classify <file>             structural verdict and evidence
       latident verify <file> [--trials N] [--seed S]
                                            verdict + numerical cross-check
       latident rank <file> [--beta <file> | --seed S]
                                            rank oracle at a single point
       latident locus <file>                singular equations, one per line
"""

# flag -> (parameter of cmd_<command>, type); an omitted option keeps the parameter's default
_OPTIONS = {"verify": {"--trials": ("trials", int), "--seed": ("seed", int)}, "classify": {},
            "rank": {"--beta": ("beta_path", str), "--seed": ("seed", int)}, "locus": {}}


def _read_argv(argv: list[str]) -> tuple[str, dict]:
    """The command argv names and its cmd_<command>'s keyword arguments, or ValueError."""
    if not argv or argv[0] not in _OPTIONS:
        raise ValueError(f"invalid command: {argv[0]!r}" if argv else "expected a command")
    command, tokens, kwargs, given, extra = argv[0], iter(argv[1:]), {}, {}, []
    for token in tokens:
        flag, has_value, value = token.partition("=")
        if flag in _OPTIONS[command]:
            if not has_value and (value := next(tokens, None)) is None:
                raise ValueError(f"argument {flag}: expected one argument")
            name, kind = _OPTIONS[command][flag]
            try:
                kwargs[name] = given[flag] = kind(value)
            except ValueError:
                raise ValueError(f"argument {flag}: invalid int value: {value!r}") from None
        elif token.startswith("-") or "path" in kwargs:
            extra.append(token)
        else:
            kwargs["path"] = token
    if command == "rank" and len(given) == 2:  # --beta or --seed, not both
        raise ValueError("argument {1}: not allowed with argument {0}".format(*given))
    if "path" not in kwargs:
        raise ValueError("the following arguments are required: file")
    if extra:
        raise ValueError(f"unrecognized arguments: {' '.join(extra)}")
    return command, kwargs


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(USAGE)
        return EXIT_OK
    try:
        command, kwargs = _read_argv(argv)
    except ValueError as exc:
        sys.stderr.write(f"{USAGE}latident: error: {exc}\n")
        return EXIT_ERROR
    # cmd_<command> is looked up at call time, so a wrapper bound to that name is called
    try:
        return globals()[f"cmd_{command}"](**kwargs)
    except (LatidentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError:
        print(f"error: out of memory in the {command} command", file=sys.stderr)
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
