"""Spans and counters at the package's module boundaries, for the traced run only.

`install` replaces public functions of the latident modules, as module
attributes, with wrappers that record a span (name, start, end, parent) in
memory and update counters from the call's arguments and result.  Because the
modules import each other's functions by name, every module attribute bound to
the original function is replaced, not only the defining one.  Nothing in the
package is edited; the untraced runs never import this file.

Every `*_s` metric is self time: a span's duration minus the time its child
spans cover, summed over the pass.  The layers therefore split the pass time
without counting any interval twice.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute) -> metric whose self time the span adds to.
SPANS = {
    ("cli", "parse_model"): "cli.parse_s",
    ("cli", "cmd_classify"): "cli.report_s",
    ("cli", "cmd_verify"): "cli.report_s",
    ("identify", "classify"): "identify.classify_self_s",
    ("identify", "_generalized_ok"): "identify.reach_s",
    ("identify", "_plain_ok"): "identify.reach_s",
    ("identify", "find_generalized_sequence"): "identify.find_sequence_s",
    ("identify", "find_identifying_sequence"): "identify.find_sequence_s",
    ("graph", "complete_subsets"): "graph.complete_subsets_s",
    ("graph", "maximal_cliques"): "graph.maximal_cliques_s",
    ("graph", "complement"): "graph.complement_s",
    ("singular", "full_system"): "singular.full_system_s",
    ("singular", "locus_equations_for_set"): "singular.full_system_s",
    ("singular", "sample_on_subspace"): "singular.sample_on_subspace_s",
    ("loglinear", "build_param_index"): "loglinear.param_index_s",
    ("loglinear", "design_matrix"): "loglinear.design_s",
    ("loglinear", "marginalization_matrix"): "loglinear.design_s",
    ("numeric", "jacobian"): "numeric.jacobian_s",
    ("numeric", "numeric_rank"): "numeric.svd_s",
    ("numeric", "generic_rank"): "numeric.trial_loop_s",
    ("numeric", "rank_on_system"): "numeric.trial_loop_s",
}

ROOT = "cli.main_self_s"

COUNTERS = {
    "cli.report_bytes": "bytes",
    "graph.complete_subsets_calls": "count",
    "graph.complete_subsets_found": "count",
    "identify.reach_cache_hit_ratio": "share",
    "identify.reach_cache_lookups": "count",
    "singular.locus_set_calls": "count",
    "singular.equations": "count",
    "loglinear.matrix_bytes_computed": "bytes",
    "numeric.jacobian_calls": "count",
    "numeric.jacobian_flops_computed": "flop",
    "numeric.svd_calls": "count",
    "numeric.ambiguous_share": "share",
}

TIMES = tuple(dict.fromkeys([ROOT, *SPANS.values()]))


class Tracer:
    """In-memory span list plus counters for one pass in one process."""

    def __init__(self):
        self.spans: list[list] = []  # [metric, start, end, parent index, request]
        self.stack: list[int] = []
        self.request = -1
        self.counts: Counter = Counter()
        self.shapes: dict = {}  # model -> {"design": shape, "marginalization": shape}
        self._reach = []

    def span(self, metric: str, fn, after=None):
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            i = len(self.spans)
            self.spans.append([metric, perf_counter(), 0.0, parent, self.request])
            self.stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[i][2] = perf_counter()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, request: int, fn, *args):
        """Run one CLI call as the root span of request `request`."""
        self.request = request
        return self.span(ROOT, fn)(*args)

    # counter updates, keyed by the wrapped function's attribute name

    def _complete_subsets(self, args, result):
        self.counts["graph.complete_subsets_calls"] += 1
        self.counts["graph.complete_subsets_found"] += len(result)

    def _full_system(self, args, result):
        self.counts["singular.equations"] += len(result.equations)

    def _locus(self, args, result):
        self.counts["singular.locus_set_calls"] += 1

    def _matrix(self, kind):
        def after(args, result):
            self.counts["loglinear.matrix_bytes_computed"] += result.nbytes
            self.shapes.setdefault(args[0], {})[kind] = result.shape

        return after

    def _jacobian(self, args, result):
        # Floating-point operations computed from the shapes of the matrices
        # built for this model: eta = Z beta, the row scaling of Z, and L times
        # the scaled Z (no L term once no L matrix is built).
        m = args[0]
        rows, p = self.shapes.get(m, {}).get("design", (0, 0))
        l_rows, l_cols = self.shapes.get(m, {}).get("marginalization", (0, 0))
        self.counts["numeric.jacobian_calls"] += 1
        self.counts["numeric.jacobian_flops_computed"] += 3 * rows * p + 2 * l_rows * l_cols * p

    def _rank(self, args, result):
        self.counts["numeric.svd_calls"] += 1
        self.counts["ambiguous"] += bool(result.ambiguous)

    def install(self) -> None:
        """Replace every latident module attribute bound to a traced function."""
        import latident.cli  # noqa: F401  (imports every package module)

        after = {
            "complete_subsets": self._complete_subsets,
            "full_system": self._full_system,
            "locus_equations_for_set": self._locus,
            "design_matrix": self._matrix("design"),
            "marginalization_matrix": self._matrix("marginalization"),
            "jacobian": self._jacobian,
            "numeric_rank": self._rank,
        }
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "latident"]
        for (mod, attr), metric in SPANS.items():
            orig = getattr(sys.modules[f"latident.{mod}"], attr)
            wrapper = self.span(metric, orig, after.get(attr))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, name, wrapper)
            if attr in ("_generalized_ok", "_plain_ok"):
                self._reach.append(orig)

    def metrics(self, report_bytes: int) -> dict[str, float]:
        """Self time per layer metric and the counters, for the pass so far."""
        child_time = defaultdict(float)
        for metric, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = dict.fromkeys(TIMES, 0.0)
        for i, (metric, start, end, _, _) in enumerate(self.spans):
            out[metric] += end - start - child_time[i]
        hits = sum(f.cache_info().hits for f in self._reach)
        lookups = hits + sum(f.cache_info().misses for f in self._reach)
        svd_calls = self.counts["numeric.svd_calls"]
        out.update({k: self.counts[k] for k in COUNTERS})
        out["cli.report_bytes"] = report_bytes
        out["identify.reach_cache_lookups"] = lookups
        out["identify.reach_cache_hit_ratio"] = hits / lookups if lookups else 0.0
        out["numeric.ambiguous_share"] = self.counts["ambiguous"] / svd_calls if svd_calls else 0.0
        return out
