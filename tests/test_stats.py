import numpy as np
import pytest
import scipy.stats as scipy_stats
from scipy.special import gammaincc, ndtr

from statefx import stats
from statefx.errors import InputError
from statefx.stats import (
    _avg_ranks,
    _chi2_sf,
    _normal_two_sided,
    compare_models,
    friedman_test,
    score_matrix,
    wilcoxon_signed_rank,
)

import oracles

RNG = np.random.default_rng(77)

# Hollander & Wolfe (1973), rounding-first-base times: 22 athletes x 3 methods.
# Published Friedman result: chi-square 11.1429 on 2 df, p = 0.003805.
ROUNDING_TIMES = np.array([
    [5.40, 5.50, 5.55], [5.85, 5.70, 5.75], [5.20, 5.60, 5.50], [5.55, 5.50, 5.40],
    [5.90, 5.85, 5.70], [5.45, 5.55, 5.60], [5.40, 5.40, 5.35], [5.45, 5.50, 5.35],
    [5.25, 5.15, 5.00], [5.85, 5.80, 5.70], [5.25, 5.20, 5.10], [5.65, 5.55, 5.45],
    [5.60, 5.35, 5.45], [5.05, 5.00, 4.95], [5.50, 5.50, 5.40], [5.45, 5.55, 5.50],
    [5.55, 5.55, 5.35], [5.45, 5.50, 5.55], [5.50, 5.45, 5.25], [5.65, 5.60, 5.40],
    [5.70, 5.65, 5.55], [6.30, 6.30, 6.25]])

# Hollander & Wolfe (1973), Hamilton depression scale for 9 patients at two
# visits.  Published Wilcoxon result: V = W+ = 40, two-sided exact p = 0.03906.
DEPRESSION_X = np.array([1.83, 0.50, 1.62, 2.48, 1.68, 1.88, 1.55, 3.06, 1.30])
DEPRESSION_Y = np.array([0.878, 0.647, 0.598, 2.05, 1.06, 1.29, 1.06, 3.14, 1.29])


# ---------------------------------------------------------------------------
# textbook examples
# ---------------------------------------------------------------------------

def test_friedman_textbook_rounding_times():
    res = friedman_test(ROUNDING_TIMES)
    assert res.statistic == pytest.approx(11.1429, abs=1e-3)
    assert res.p_value == pytest.approx(0.003805, abs=1e-3)
    assert res.method == "chi-square"  # 22 blocks exceeds the exact threshold


def test_wilcoxon_textbook_depression():
    res = wilcoxon_signed_rank(DEPRESSION_X, DEPRESSION_Y)
    assert res.statistic == pytest.approx(40.0, abs=1e-9)
    assert res.p_value == pytest.approx(0.03906, abs=1e-3)
    assert res.method == "exact"


# ---------------------------------------------------------------------------
# Friedman behavior
# ---------------------------------------------------------------------------

def test_friedman_identical_columns_degenerate():
    m = np.tile(RNG.normal(size=(6, 1)), (1, 4))
    with pytest.warns(UserWarning):
        res = friedman_test(m)
    assert res.statistic == 0.0 and res.p_value == 1.0


def test_friedman_dominant_model_small_p():
    # one model strictly best in every block, 5 blocks x 5 models
    m = RNG.uniform(1.0, 2.0, size=(5, 5))
    m[:, 2] = 0.5
    res = friedman_test(m)
    assert res.method == "exact"
    assert res.p_value < 0.05


def test_friedman_exact_matches_full_enumeration():
    for _ in range(5):
        m = RNG.normal(size=(3, 3))
        mine = friedman_test(m, method="exact")
        ref = oracles.friedman_exact_enum(m)
        assert mine.p_value == pytest.approx(ref, abs=1e-12)


def test_friedman_exact_enumeration_with_ties():
    m = RNG.integers(0, 3, size=(4, 3)).astype(float)  # heavy ties
    if np.all(m.max(axis=1) == m.min(axis=1)):
        m[0, 0] += 1.0
    mine = friedman_test(m, method="exact")
    ref = oracles.friedman_exact_enum(m)
    assert mine.p_value == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("tie", [False, True])
@pytest.mark.parametrize("shape", [(3, 4), (2, 5)], ids=["3x4", "2x5"])
def test_friedman_exact_matches_full_enumeration_wider(shape, tie):
    # 24^3 = 13,824 and 120^2 = 14,400 combinations pin the state key's
    # radix at four and five models
    m = np.random.default_rng(shape[1]).normal(size=shape)
    if tie:
        m[-1, 0] = m[-1, 1]
    mine = friedman_test(m, method="exact")
    ref = oracles.friedman_exact_enum(m)
    assert mine.p_value == pytest.approx(ref, abs=1e-12)


def test_friedman_exact_key_overflow_rejected(monkeypatch):
    def no_enumeration(ranks2, t2_obs):
        raise AssertionError("enumeration ran")

    monkeypatch.setattr(stats, "_friedman_exact_p", no_enumeration)
    # (2*37*7 + 1)^7 exceeds int64, (2*36*7 + 1)^7 fits
    rng = np.random.default_rng(37)
    with pytest.raises(InputError, match="approx"):
        friedman_test(rng.normal(size=(37, 7)), method="exact")
    with pytest.raises(AssertionError, match="enumeration ran"):
        friedman_test(rng.normal(size=(36, 7)), method="exact")


def test_friedman_statistic_matches_scipy():
    for _ in range(10):
        m = RNG.normal(size=(9, 4))
        mine = friedman_test(m, method="approx")
        ref = scipy_stats.friedmanchisquare(*m.T)
        assert mine.statistic == pytest.approx(ref.statistic, rel=1e-10)
        assert mine.p_value == pytest.approx(ref.pvalue, rel=1e-10)


def test_friedman_permutation_invariance():
    m = RNG.normal(size=(5, 4))
    base = friedman_test(m)
    for _ in range(5):
        perm = RNG.permutation(4)
        res = friedman_test(m[:, perm])
        assert res.statistic == pytest.approx(base.statistic, abs=1e-12)
        assert res.p_value == pytest.approx(base.p_value, abs=1e-12)


def test_friedman_monotone_transform_invariance():
    m = RNG.uniform(0.1, 5.0, size=(5, 4))
    base = friedman_test(m)
    for fn in (np.log, np.sqrt, lambda x: x ** 3, lambda x: 10 * x - 2):
        res = friedman_test(fn(m))
        assert res.statistic == pytest.approx(base.statistic, abs=1e-12)
        assert res.p_value == pytest.approx(base.p_value, abs=1e-12)


def test_friedman_exact_vs_chisquare_agreement():
    # with k = 3 the exact null distribution has large discrete atoms, so
    # the chi-square tail can sit a tenth away; this is exactly why the
    # package defaults to enumeration at small sizes
    worst = 0.0
    for seed in range(10):
        m = np.random.default_rng(seed).normal(size=(8, 3))
        e = friedman_test(m, method="exact").p_value
        a = friedman_test(m, method="approx").p_value
        worst = max(worst, abs(e - a))
    assert worst < 0.12


def test_friedman_shape_validation():
    with pytest.raises(InputError):
        friedman_test(np.zeros((1, 5)))
    with pytest.raises(InputError):
        friedman_test(np.zeros(5))


# ---------------------------------------------------------------------------
# Wilcoxon behavior
# ---------------------------------------------------------------------------

def test_wilcoxon_identical_samples_degenerate():
    a = RNG.normal(size=8)
    with pytest.warns(UserWarning):
        res = wilcoxon_signed_rank(a, a.copy())
    assert res.p_value == 1.0


def test_wilcoxon_n5_same_sign_floor():
    res = wilcoxon_signed_rank(np.arange(1.0, 6.0), np.zeros(5))
    assert res.p_value == pytest.approx(2.0 / 32.0)
    # five blocks can never push a pairwise two-sided p below 0.0625


def test_wilcoxon_exact_matches_enumeration():
    for _ in range(10):
        d = RNG.normal(size=8)
        a = RNG.normal(size=8)
        mine = wilcoxon_signed_rank(a, a - d, method="exact")
        ref = oracles.wilcoxon_exact_enum(d)
        assert mine.p_value == pytest.approx(ref, abs=1e-12)


def test_wilcoxon_exact_matches_scipy():
    for _ in range(20):
        a = RNG.normal(size=12)
        b = RNG.normal(size=12)
        mine = wilcoxon_signed_rank(a, b, method="exact")
        ref = scipy_stats.wilcoxon(a, b, mode="exact")
        assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-12)


def test_wilcoxon_exact_vs_normal_within_002():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=10)
        b = rng.normal(size=10)
        e = wilcoxon_signed_rank(a, b, method="exact").p_value
        n = wilcoxon_signed_rank(a, b, method="approx").p_value
        worst = max(worst, abs(e - n))
    assert worst < 0.02


def test_wilcoxon_monotone_transform_invariance():
    a = RNG.uniform(0.5, 3.0, size=9)
    b = RNG.uniform(0.5, 3.0, size=9)
    base = wilcoxon_signed_rank(a, b)
    # any strictly increasing map applied to both samples preserves the
    # sign pattern and |difference| ordering used by the ranks
    res = wilcoxon_signed_rank(2.0 * a + 1.0, 2.0 * b + 1.0)
    assert res.statistic == base.statistic
    assert res.p_value == base.p_value


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_wilcoxon_rejects_nonfinite_samples(bad):
    a = RNG.uniform(0.5, 3.0, size=9)
    b = RNG.uniform(0.5, 3.0, size=9)
    a_bad = a.copy()
    a_bad[4] = bad
    with pytest.raises(InputError, match="non-finite"):
        wilcoxon_signed_rank(a_bad, b)
    with pytest.raises(InputError, match="non-finite"):
        wilcoxon_signed_rank(b, a_bad)


def test_wilcoxon_too_few_nonzero():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(InputError):
        wilcoxon_signed_rank(a, np.zeros(4))


def test_avg_ranks_match_loop_oracle():
    for i in range(300):
        k = int(RNG.integers(1, 30))
        row = RNG.integers(0, 5, size=k).astype(np.float64) if i % 2 else RNG.normal(size=k)
        assert np.array_equal(_avg_ranks(row), oracles._rank_row(row)), row


# ---------------------------------------------------------------------------
# comparison assembly
# ---------------------------------------------------------------------------

def test_score_matrix_ragged_lists_missing_cells():
    with pytest.raises(InputError, match=r"b\[4\]"):
        score_matrix({"a": [1, 2, 3, 4, 5], "b": [1, 2, 3, 4]})


def test_compare_models_two_models_skips_friedman():
    rows = {"a": list(RNG.normal(size=6)), "b": list(RNG.normal(size=6))}
    out = compare_models(rows)
    assert out["friedman"] is None
    assert set(out["pairwise"]) == {("a", "b")}


def test_compare_models_full():
    rows = {m: list(RNG.normal(size=5)) for m in ("lstm", "ed", "lru", "s4d", "s6")}
    out = compare_models(rows)
    assert out["friedman"] is not None
    assert len(out["pairwise"]) == 10


# ---------------------------------------------------------------------------
# tail probabilities
# ---------------------------------------------------------------------------

def test_chi2_sf_matches_scipy():
    for df in range(1, 31):
        for x in np.linspace(0.0, 300.0, 601):
            ref = gammaincc(df / 2.0, x / 2.0)
            assert _chi2_sf(x, df) == pytest.approx(ref, rel=1e-12, abs=0.0), (df, x)


def test_chi2_sf_large_statistic_matches_scipy():
    # past x = 1416 the series' first factor exp(-x/2) is subnormal, so the
    # terms must be formed in log space to keep their relative precision
    checked = 0
    for df in (1, 2, 3, 10, 99, 100, 250, 500, 501, 750, 999, 1000):
        for x in np.linspace(1400.0, 3000.0, 17):
            ref = gammaincc(df / 2.0, x / 2.0)
            if ref > 1e-290:
                assert _chi2_sf(x, df) == pytest.approx(ref, rel=1e-11, abs=0.0), (df, x)
                checked += 1
    assert checked > 50


def test_normal_two_sided_matches_scipy():
    for z in np.linspace(-37.0, 37.0, 1481):
        ref = 2.0 * ndtr(-abs(z))
        assert _normal_two_sided(z) == pytest.approx(ref, rel=1e-12, abs=0.0), z
