"""Independent linear-algebra oracle: Jacobian construction and numerical rank.

The Jacobian of the observed-table mean vector with respect to the log-linear
parameters is L diag(exp(Z beta)) Z; its column rank at a point decides local
identifiability there.  Every function here takes the parametrization as one
`ParamIndex`, which carries its model (the full model, or for `verify` the
core) and its design matrix Z (`idx.design`, built once per index and freed
with it).  L sums out the hidden variable.  It is applied as the sum of the two
hidden-level halves (rows 0..l-1 and l..2l-1 of the cell stacking) and never
formed: every entry of the dense product is that same two-term sum plus exact
zeros, so the result is bitwise the same.

Rank is measured by full SVD with one relative cut, max(rows, cols) * eps *
sigma_max, fixed in `numeric_rank` and reported as `tolerance_used`, and a gap
rule: when the singular values do not drop by at least 1e3 across the cut, the
report is flagged ambiguous instead of silently committing.  No caller can move
the cut; another cut can be read off the singular values a report lists.

Every point is drawn here, free or on a singular system.  Every stochastic
operation takes an explicit seed; trial t of a batch draws from the stream
keyed by (seed, t), so results do not depend on scheduling.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DimensionMismatchError,
    ExponentOverflowError,
    InconsistentSystemError,
    ValidationError,
)
from .loglinear import ParamIndex, _coordinate_name

SAFE_EXPONENT = 700.0
GAP_RULE = 1.0e3
_BETA_LOW, _BETA_HIGH = 0.5, 1.5


@dataclass(frozen=True)
class RankReport:
    """Numerical rank of one matrix, or the aggregate over sampled trials.

    For aggregates, `rank` is the maximum over trials (the generic rank under
    the polynomial-map argument), `singular_values`/`gap`/`ambiguous` describe
    the first trial achieving it, and `trial_ranks`/`modal_rank`/`unanimous`
    summarize the batch.
    """

    rank: int
    singular_values: tuple[float, ...]
    tolerance_used: float
    p: int
    gap: float | None
    ambiguous: bool
    trial_ranks: tuple[int, ...] | None = None
    modal_rank: int | None = None
    unanimous: bool | None = None


def sample_beta(p: int, seed) -> NDArray[np.float64]:
    """Parameter draw: each coordinate uniform on [-1.5,-0.5] union [0.5,1.5]."""
    rng = np.random.default_rng(seed)
    magnitudes = rng.uniform(_BETA_LOW, _BETA_HIGH, p)
    signs = 2 * rng.integers(0, 2, p) - 1
    return signs * magnitudes


def _cancel(row: dict[int, int], piv: dict[int, int], d: int) -> dict[int, int]:
    """piv[d] * row - row[d] * piv, exact in Python ints, less its zeros: column d cancels."""
    a, b = piv[d], row[d]
    combined = ((c, a * row.get(c, 0) - b * piv.get(c, 0)) for c in sorted(row | piv))
    return {c: x for c, x in combined if x}


def _eliminate(sys, idx: ParamIndex) -> list[list[tuple[int, int]]]:
    """The singular system's rows in echelon form, as (column, coefficient)
    pairs in column order, the rows by pivot column descending.

    Each row's lowest column is eliminated against the row pivoting on it,
    until the row is empty (dependent, dropped) or its lowest column is a new
    pivot.  A row elimination never touched keeps every coefficient 1.  Then,
    on a copy, each row, highest pivot first, has every higher pivot column
    eliminated: a row left with its pivot alone forces that coordinate to zero,
    and no other coordinate is forced to zero.
    """
    try:  # each equation's terms are read once, all looked up before any elimination
        rows = [dict.fromkeys(sorted(idx.lookup[t] for t in eq.terms), 1) for eq in sys.equations]
    except KeyError as exc:
        name = _coordinate_name(exc.args[0], idx.width)
        raise InconsistentSystemError(f"coordinate {name} is not in the parameter index") from None
    pivots: dict[int, dict[int, int]] = {}  # lowest column -> its row, columns ascending
    for row in rows:
        while row and (d := next(iter(row))) in pivots:
            row = _cancel(row, pivots[d], d)
        if len(row) == 1:
            name = _coordinate_name(idx.entries[d], idx.width)
            raise InconsistentSystemError(f"the equations force {name} to zero")
        if row:
            pivots[d] = row
    reduced: dict[int, dict[int, int]] = {}  # pivot -> its row with no other pivot, highest first
    for d in sorted(pivots, reverse=True):
        row = pivots[d]
        for c in [c for c in row if c in reduced]:
            row = _cancel(row, reduced[c], c)
        if len(row) == 1:
            name = _coordinate_name(idx.entries[d], idx.width)
            raise InconsistentSystemError(f"the equations force {name} to zero")
        reduced[d] = row
    return [list(pivots[d].items()) for d in reduced]


def _sample(rows: list[list[tuple[int, int]]], p: int, seed) -> np.ndarray:
    """A point on the echelon rows of `_eliminate`: the free coordinates drawn,
    each pivot column solved, from the highest down, from its row's other
    columns in column order."""
    seed_key = list(seed) if isinstance(seed, (tuple, list)) else [seed]
    for attempt in range(100):
        beta = sample_beta(p, seed_key + [attempt])
        for (d, a_d), *others in rows:
            value = 0.0
            for c, a in others:
                value -= a * beta[c]
            beta[d] = value / a_d
        if all(abs(beta[row[0][0]]) > 1e-6 for row in rows):
            return beta
    raise InconsistentSystemError(
        "could not sample a point with all coordinates nonzero; "
        "some equation may force a coordinate to zero"
    )


def _cell_means(idx: ParamIndex, beta: NDArray) -> tuple[np.ndarray, NDArray[np.float64]]:
    """Design matrix Z of idx's model and the full-table mean vector exp(Z beta)."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (idx.p,):
        raise DimensionMismatchError(
            f"beta has shape {beta.shape}, expected ({idx.p},)"
        )
    if not np.all(np.isfinite(beta)):
        raise ValidationError("beta has non-finite coordinates")
    z = idx.design
    eta = z @ beta
    if np.max(np.abs(eta)) > SAFE_EXPONENT:
        raise ExponentOverflowError("linear predictor exceeds the safe exponent range")
    return z, np.exp(eta)


def mu_y(idx: ParamIndex, beta: NDArray) -> NDArray[np.float64]:
    """Observed-table mean vector L exp(Z beta) of idx's model, shape (l,)."""
    _, w = _cell_means(idx, beta)
    l = idx.model.table_size
    return w[:l] + w[l:]


def jacobian(idx: ParamIndex, beta: NDArray) -> NDArray[np.float64]:
    """Jacobian of mu_y with respect to beta: L diag(exp(Z beta)) Z, shape (l, p),
    with l the table size of idx's model."""
    z, w = _cell_means(idx, beta)
    d = w[:, None] * z
    l = idx.model.table_size
    return d[:l] + d[l:]


def numeric_rank(mat: NDArray) -> RankReport:
    """Rank by full SVD: the count of singular values above the tolerance
    max(rows, cols) * machine epsilon * largest singular value.

    The cut must show a relative gap of at least 1e3, otherwise the report is
    flagged ambiguous.
    """
    mat = np.asarray(mat, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise ValidationError("matrix has non-finite entries")
    sv = np.linalg.svd(mat, compute_uv=False)
    smax = float(sv[0]) if sv.size else 0.0
    tol_used = max(mat.shape) * np.finfo(float).eps * smax
    rank = int(np.sum(sv > tol_used))
    gap = None
    ambiguous = False
    if 0 < rank < sv.size:
        below = float(sv[rank])
        gap = float(sv[rank - 1]) / below if below > 0 else float("inf")
        ambiguous = gap < GAP_RULE
    return RankReport(
        rank=rank,
        singular_values=tuple(sv.tolist()),
        tolerance_used=tol_used,
        p=mat.shape[1],
        gap=gap,
        ambiguous=ambiguous,
    )


def _trial_loop(idx: ParamIndex, trials: int, seed: int, make_draw) -> RankReport:
    """Rank idx's Jacobian at `draw((seed, t))` for t < trials and aggregate,
    where draw = make_draw() is made once, after the arguments are checked."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    draw = make_draw()
    reports = [numeric_rank(jacobian(idx, draw((seed, t)))) for t in range(trials)]
    ranks = tuple(r.rank for r in reports)
    best = max(reports, key=lambda r: r.rank)  # the first trial reaching the top rank
    counts = Counter(ranks)
    modal = min(counts, key=lambda r: (-counts[r], r))  # most frequent, ties to the lowest
    return replace(best, trial_ranks=ranks, modal_rank=modal, unanimous=len(counts) == 1)


def generic_rank(idx: ParamIndex, trials: int = 50, seed: int = 0) -> RankReport:
    """Maximum rank of idx's Jacobian over random parameter draws.

    A single full-rank point certifies full rank almost everywhere, so the
    maximum over trials estimates the generic rank; the modal rank and any
    disagreement across trials are reported alongside.
    """
    return _trial_loop(idx, trials, seed, lambda: partial(sample_beta, idx.p))


def rank_on_system(idx: ParamIndex, sys, trials: int = 50, seed: int = 0) -> RankReport:
    """Maximum rank of idx's Jacobian over draws constrained to a singular system.

    `_eliminate` brings the system, in model ids, to echelon form once on idx,
    which may be a core's index (`ParamIndex`), and `_sample` solves each
    trial's point from those rows, the point `sample_on_subspace` draws for that
    key.  All draws are expected to agree; `unanimous` records whether they did.
    """
    return _trial_loop(idx, trials, seed, lambda: partial(_sample, _eliminate(sys, idx), idx.p))
