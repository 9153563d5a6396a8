"""Nonparametric comparison of model rankings across split compositions.

Friedman test over a blocks-by-models score matrix, and pairwise Wilcoxon
signed-rank tests.  At the tiny sample sizes this package produces (five
compositions, five models) asymptotic p-values are unreliable, so both
tests default to exact enumeration below documented thresholds and label
which method produced the number.

References: M. Friedman, JASA 32 (1937); F. Wilcoxon, Biometrics Bull. 1
(1945); M. Hollander & D. A. Wolfe, Nonparametric Statistical Methods
(1973) for the worked examples used in the tests.
"""

from __future__ import annotations

import itertools
import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import InputError

FRIEDMAN_EXACT_MAX_BLOCKS = 8
FRIEDMAN_EXACT_MAX_MODELS = 5
WILCOXON_EXACT_MAX_N = 25


class TestResult(NamedTuple):
    statistic: float
    p_value: float
    method: str


def _avg_ranks(row: np.ndarray) -> np.ndarray:
    """Ranks 1..k with ties sharing their average rank."""
    _, inverse, counts = np.unique(row, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def _chi2_sf(x: float, df: int) -> float:
    """Chi-square upper tail for integer ``df``: Q(df/2, x/2) by its finite series,
    exp(-y) y^j / Gamma(j + 1) over j < df/2 for even df, and erfc(sqrt(y)) plus the
    same over half-integer j for odd df, with y = x/2.  All terms are positive; each
    is formed in log space, so a large x does not underflow the first term to 0."""
    y, j = x / 2.0, (0.5 if df % 2 else 0.0)
    if y == 0.0:
        return 1.0
    total = math.erfc(math.sqrt(y)) if df % 2 else 0.0
    for _ in range(df // 2):
        total += math.exp(j * math.log(y) - y - math.lgamma(j + 1.0))
        j += 1.0
    return total


def _normal_two_sided(z: float) -> float:
    """P(|Z| >= |z|) for a standard normal Z."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def _friedman_exact_p(ranks2: np.ndarray, t2_obs: int) -> float:
    """Exact permutation p-value over within-block rank assignments.

    ``ranks2`` holds doubled ranks (integers even with average-rank ties).
    The statistic ordering only depends on T2 = sum_j (R2_j - n(k+1))^2,
    which the enumeration tracks over all products of distinct per-block
    arrangements.  Column sums are exchangeable, so states collapse to
    sorted tuples.  Each sorted state is deduplicated by one int64 key,
    mixed-radix in base 2nk + 1 over its doubled sums (each at most 2nk),
    which orders states as the tuples themselves would sort.
    """
    n, k = ranks2.shape
    radix = (2 * n * k + 1) ** np.arange(k - 1, -1, -1, dtype=np.int64)
    states = np.zeros((1, k), dtype=np.int64)
    counts = np.ones(1, dtype=np.float64)
    for row in ranks2:
        perms = np.array(sorted(set(itertools.permutations(row))), dtype=np.int64)
        expanded = np.sort((states[:, None, :] + perms[None, :, :]).reshape(-1, k), axis=1)
        _, first, inverse = np.unique(expanded @ radix, return_index=True, return_inverse=True)
        states = expanded[first]
        counts = np.bincount(inverse, weights=np.repeat(counts, len(perms)), minlength=len(first))
    center = n * (k + 1)
    t2 = ((states - center) ** 2).sum(axis=1)
    total = counts.sum()
    return float(counts[t2 >= t2_obs].sum() / total)


def friedman_test(scores, method: str = "auto") -> TestResult:
    """Friedman rank test over a (blocks x models) score matrix.

    Lower scores rank better or worse alike; only within-block ranks enter.
    Ties get average ranks and the tie-corrected chi-square statistic is
    reported.  The p-value comes from exact enumeration when blocks <= 8
    and models <= 5 (or method="exact"), otherwise from the chi-square
    approximation with k-1 degrees of freedom.  A forced exact test whose
    state key (2nk + 1)^k would exceed int64 raises InputError.
    """
    m = np.asarray(scores, dtype=np.float64)
    if m.ndim != 2:
        raise InputError("friedman_test needs a 2-d score matrix")
    n, k = m.shape
    if n < 2 or k < 2:
        raise InputError(f"need at least 2 blocks and 2 models, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError("score matrix holds non-finite entries")
    if method not in ("auto", "exact", "approx"):
        raise InputError(f"unknown method {method!r}")

    ranks = np.vstack([_avg_ranks(row) for row in m])
    col_sums = ranks.sum(axis=0)
    a = float((ranks ** 2).sum())
    c = n * k * (k + 1) ** 2 / 4.0
    if a - c <= 0.0:
        warnings.warn("all blocks fully tied; Friedman test is degenerate", stacklevel=2)
        return TestResult(0.0, 1.0, "degenerate")
    stat = (k - 1) * float(((col_sums - n * (k + 1) / 2.0) ** 2).sum()) / (a - c)

    use_exact = method == "exact" or (
        method == "auto" and n <= FRIEDMAN_EXACT_MAX_BLOCKS and k <= FRIEDMAN_EXACT_MAX_MODELS)
    if use_exact:
        if (2 * n * k + 1) ** k > np.iinfo(np.int64).max:
            raise InputError(f"exact Friedman test on {n} blocks x {k} models would overflow "
                             "its int64 state key; use method=\"approx\"")
        ranks2 = np.rint(2.0 * ranks).astype(np.int64)
        t2_obs = int(((2 * col_sums - n * (k + 1)) ** 2).sum().round())
        return TestResult(stat, _friedman_exact_p(ranks2, t2_obs), "exact")
    return TestResult(stat, _chi2_sf(stat, k - 1), "chi-square")


def _wilcoxon_exact_p(ranks2: np.ndarray, w2: float) -> float:
    """Exact two-sided p for W+ on doubled ranks via subset-sum counting."""
    total = int(ranks2.sum())
    poly = np.zeros(total + 1)
    poly[0] = 1.0
    for r in ranks2:
        nxt = poly.copy()
        nxt[r:] += poly[:-r or None]
        poly = nxt
    n_outcomes = poly.sum()
    w2i = int(round(w2))
    p_low = poly[:w2i + 1].sum() / n_outcomes
    p_high = poly[w2i:].sum() / n_outcomes
    return float(min(1.0, 2.0 * min(p_low, p_high)))


def wilcoxon_signed_rank(a, b, method: str = "auto") -> TestResult:
    """Two-sided Wilcoxon signed-rank test for paired samples.

    Zero differences are dropped; ties in |difference| get average ranks.
    The statistic is W+, the rank sum of positive differences.  p comes
    from exact sign enumeration up to n = 25 remaining pairs (or
    method="exact"), else from the tie-corrected normal approximation with
    continuity correction.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise InputError("wilcoxon_signed_rank needs two equal-length 1-d samples")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InputError("paired samples hold non-finite entries")
    if method not in ("auto", "exact", "approx"):
        raise InputError(f"unknown method {method!r}")
    d = a - b
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        warnings.warn("all differences are zero; Wilcoxon test is degenerate", stacklevel=2)
        return TestResult(0.0, 1.0, "degenerate")
    if n < 5:
        raise InputError(f"need at least 5 nonzero differences, got {n}")

    ranks = _avg_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())

    use_exact = method == "exact" or (method == "auto" and n <= WILCOXON_EXACT_MAX_N)
    if use_exact:
        ranks2 = np.rint(2.0 * ranks).astype(np.int64)
        return TestResult(w_plus, _wilcoxon_exact_p(ranks2, 2.0 * w_plus), "exact")

    mu = n * (n + 1) / 4.0
    _, tie_counts = np.unique(np.abs(d), return_counts=True)
    var = n * (n + 1) * (2 * n + 1) / 24.0 - float(((tie_counts ** 3 - tie_counts)).sum()) / 48.0
    diff = w_plus - mu
    z = (diff - 0.5 * np.sign(diff)) / np.sqrt(var)
    return TestResult(w_plus, min(1.0, _normal_two_sided(z)), "normal")


# ---------------------------------------------------------------------------
# Comparison reports (score matrices over compositions)
# ---------------------------------------------------------------------------

def score_matrix(rows: dict) -> np.ndarray:
    """Build a blocks-by-models matrix from {model: [score per block]}.

    Every model needs a score for every block; ragged input raises with the
    missing cells listed.
    """
    models = sorted(rows)
    lengths = {m: len(rows[m]) for m in models}
    n = max(lengths.values(), default=0)
    missing = [f"{m}[{i}]" for m in models for i in range(n) if i >= lengths[m]]
    if missing:
        raise InputError(f"missing score cells: {', '.join(missing)}")
    return np.column_stack([np.asarray(rows[m], dtype=np.float64) for m in models])


def compare_models(rows: dict) -> dict:
    """Friedman plus pairwise Wilcoxon across models, each with method="auto".

    Returns {"models", "friedman": TestResult|None, "pairwise":
    {(m1, m2): TestResult}}; the Friedman entry is None with fewer than
    three models, where only the pairwise test is meaningful.
    """
    models = sorted(rows)
    matrix = score_matrix(rows)
    friedman = friedman_test(matrix) if len(models) >= 3 else None
    pairwise = {}
    for i, m1 in enumerate(models):
        for m2 in models[i + 1:]:
            pairwise[(m1, m2)] = wilcoxon_signed_rank(matrix[:, i], matrix[:, models.index(m2)])
    return {"models": models, "friedman": friedman, "pairwise": pairwise}
