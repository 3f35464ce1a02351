"""Model-file parsing, command dispatch, and structured reporting.

Model file grammar (one directive per line, '#' starts a comment):

    nodes N          total node count including the hidden node 0
    levels V=L       level count for node V (default 2; node 0 must stay 2)
    edge I J         undirected edge

USAGE lists the commands and their options, whose names are spelled in full.
Reports go to stdout as JSON; diagnostics to stderr, where a malformed command
line gets USAGE and a `latident: error:` line.  Exit codes for classify/verify:
0 identified everywhere, 2 generically identified, 3 not identified, 1 any error.

A report is written as it is produced, one top-level key at a time, with the
bytes json.dumps(report, indent=2) would give; json runs its pure-Python
encoder whenever it indents, so `_json` writes the small blocks instead.  A
coordinate, a slot mask in model ids (see loglinear), is named only where it is
written: a singular system one equation at a time as its generator, the
designated coordinate and the anchored tokens (since schema 3), so a report
grows with the equation count, not the term count, and rank's p names and point
a few thousand at a time.  Only locus expands the terms.
"""

from __future__ import annotations

import json
import sys
from functools import cache, reduce
from itertools import islice
from operator import or_
from typing import IO, Iterator

import numpy as np

from .errors import (
    DimensionMismatchError, LatidentError, NotApplicableError, ParseError, ValidationError,
)
from .graph import Graph, _bits
from .identify import Status, Verdict, classify, latent_partition
from .loglinear import (
    HIDDEN_SLOT, LatentModel, _coordinate_name, _core, _token, param_count, param_entries,
)
from .numeric import RankReport, generic_rank, jacobian, numeric_rank, rank_on_system, sample_beta
from .singular import SingularSystem, full_system

SCHEMA_VERSION = 4

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_GENERIC = 2
EXIT_NOT_IDENTIFIED = 3

_STATUS_EXIT = {
    Status.IDENTIFIED_EVERYWHERE: EXIT_OK,
    Status.GENERICALLY_IDENTIFIED: EXIT_GENERIC,
    Status.NOT_IDENTIFIED: EXIT_NOT_IDENTIFIED,
}


def _read_text(source: str | IO[str]) -> str:
    """A file's text (path or open text stream), a bad byte named by its offset."""
    try:
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = source.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {exc.start}: not valid UTF-8") from None
    return text.removeprefix("\ufeff")  # a byte order mark, as some editors write


def parse_model(source: str | IO[str]) -> LatentModel:
    """Parse a model file (path or open text stream) into a LatentModel."""
    node_count: int | None = None
    levels: dict[int, int] = {}
    edges: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(_read_text(source).splitlines(), start=1):
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
    except (MemoryError, OverflowError):  # OverflowError: more nodes than a list can index
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


def _json_list(texts: list[str], pad: str) -> str:
    """A list of JSON texts as json.dumps(..., indent=2) writes it at indent pad."""
    inner = f",\n{pad}  "
    return f"[\n{pad}  {inner.join(texts)}\n{pad}]" if texts else "[]"


def _json(value, pad: str) -> str:
    """The text json.dumps(..., indent=2) gives value at indent pad."""
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):  # json's spellings of inf, -inf and nan
        text = float.__repr__(value)
        return {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}.get(text, text)
    if isinstance(value, str):
        return json.dumps(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(f"{inner}{json.dumps(k)}: {_json(v, inner)}" for k, v in value.items())
        return f"{{\n{items}\n{pad}}}"
    return _json_list([_json(v, inner) for v in value], pad)


def _write_system(write, system: SingularSystem) -> None:
    """Write the singular_system block, one write per equation, with the bytes
    json.dumps(..., indent=2) gives it as the value of a top-level key.

    Each equation is written as its generator, named from its slot masks at
    the system's width: the designated coordinate {0} | V0 and the anchored
    slots' tokens, so no term beyond the first is named.  A name's or a token's
    JSON string is itself in quotes (see loglinear._coordinate_name).  The text
    before the anchored list and after the source set depends on V0 alone, so
    it is built once per V0, as each anchored and source list is once per mask.
    """
    equations, w = system.equations, system.width
    pad = " " * 8
    head = cache(lambda v0: '      {\n        "designated": '
                            f'"{_coordinate_name(HIDDEN_SLOT | v0, w)}",\n        "anchored": ')
    tail = cache(lambda v0: ',\n        "source_boundary_subset": '
                            f"{_json_list([str(s // w) for s in _bits(v0)], pad)}\n      }}")
    anchored_list = cache(lambda slots: _json_list([f'"{_token(s, w)}"' for s in _bits(slots)], pad))
    source_list = cache(lambda ns: _json_list(list(map(str, sorted(ns))), pad))
    middle = ',\n        "source_kind": "boundary",\n        "source_set": '
    write(f'{{\n    "equation_count": {len(equations)},\n    "equations": [')
    sep = "\n"
    for v0, anchored, source_set in equations:
        write(sep + head(v0) + anchored_list(anchored) + middle + source_list(source_set) + tail(v0))
        sep = ",\n"
    write("\n    ]\n  }" if equations else "]\n  }")


def _write_items(write, texts: Iterator[str]) -> None:
    """Write a top-level key's list, given as its items' JSON texts, a few thousand per write."""
    sep = "[\n    "
    while chunk := list(islice(texts, 4096)):
        write(sep + ",\n    ".join(chunk))
        sep = ",\n    "
    write("[]" if sep == "[\n    " else "\n  ]")


def _emit(report: dict) -> None:
    """Write the report to stdout with the bytes of print(json.dumps(report, indent=2)),
    one top-level key at a time, the singular system one equation at a time and
    an iterator, a list given as its items' JSON texts, in chunks (`_write_items`)."""
    write = sys.stdout.write
    sep = "{"
    for key, value in report.items():
        write(f'{sep}\n  "{key}": ')
        if isinstance(value, SingularSystem):
            _write_system(write, value)
        elif isinstance(value, Iterator):
            _write_items(write, value)
        else:
            write(_json(value, "  "))
        sep = ","
    write("\n}\n")


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
    idx = _core(m)
    generic = generic_rank(idx, trials=trials, seed=seed)
    on_system = None
    if verdict.singular_system is not None:
        on_system = rank_on_system(idx, verdict.singular_system, trials=trials, seed=seed)

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
        "core": {"nodes": list(idx.node_ids), "p": idx.p},
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


def _load_beta(path: str, p: int) -> np.ndarray:
    try:
        values = [float(tok) for tok in _read_text(path).split()]
    except (ParseError, ValueError) as exc:  # the message names the byte or the token
        raise ValidationError(f"beta file: {exc}") from None
    if len(values) != p:
        raise DimensionMismatchError(f"beta file has {len(values)} values, expected {p}")
    beta = np.array(values, dtype=float)
    if np.any(beta == 0.0):
        raise ValidationError("beta must have every coordinate nonzero")
    if not np.all(np.isfinite(beta)):  # the core's rank reads only the core's coordinates
        raise ValidationError("beta has non-finite coordinates")
    return beta


def cmd_rank(path: str, beta_path: str | None = None, seed: int = 0) -> int:
    """Rank the core, as verify does, at one point of the model's p coordinates (--beta
    or seed): the model's rank is p - core.p + rank.  Core and point precede the listing."""
    _check_seed(seed)
    m = parse_model(path)
    latent_partition(m)  # raises LatentIsolatedError: a model with no S has no core
    idx = _core(m)
    p = param_count(m)
    if beta_path is not None:
        beta = _load_beta(beta_path, p)
        beta_source = {"kind": "file", "file": beta_path}
    else:
        try:
            beta = sample_beta(p, [seed, 0])
        except ValueError:  # numpy holds fewer than 2^63 entries in an array
            raise ValidationError(f"a point of p = {p} coordinates is too large to draw") from None
        beta_source = {"kind": "sampled", "seed": seed}
    entries, w = param_entries(m), m.width
    inside = reduce(or_, idx.entries)  # every slot of the core's nodes
    cols = [j for j, e in enumerate(entries) if not e & ~inside]  # core order: see param_entries
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "rank",
        "model": _model_block(m, path),
        "p": p,
        "core": {"nodes": list(idx.node_ids), "p": idx.p},
        "beta_source": beta_source,
        # named as they are written; a name is its own JSON string, a finite float its repr
        "coordinates": (f'"{_coordinate_name(e, w)}"' for e in entries),
        "beta": map(float.__repr__, beta.tolist()),
        "rank": _rank_block(numeric_rank(jacobian(idx, beta[cols]))),
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
            print(eq.render(system.width))
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
