"""The banded diagonal scan against a plain per-step loop, and its adjoint;
the LSTM family's state buffer against the scalar step oracles, and its
results under every input memory layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack
from scipy.signal import lfilter

from statefx import scans
from statefx.data import _rbj_lowpass, _rbj_peaking
from statefx.scans import diag_scan, diag_scan_backward, linear_filter, lstm_backward, lstm_forward

import oracles

EPS = np.finfo(np.float64).eps


def loop_scan(h0, a, pre):
    """h_t = a_t * h_{t-1} + pre_t, one step at a time."""
    H = np.empty_like(pre)
    h = h0.copy()
    for t in range(pre.shape[1]):
        h = (a if a.ndim == 1 else a[:, t]) * h + pre[:, t]
        H[:, t] = h
    return H


def loop_scan_backward(gh_read, H, h0, a):
    """Reverse-time loop: g_t = gh_read_t + conj(a_{t+1}) g_{t+1}, with the
    multiplier gradient g_pre * conj(h_prev), summed for a constant a."""
    B, L, n = gh_read.shape
    g_pre = np.empty_like(gh_read)
    g_a = np.empty_like(gh_read)
    carry = np.zeros((B, n), dtype=gh_read.dtype)
    for t in range(L - 1, -1, -1):
        gh = gh_read[:, t] + carry
        g_pre[:, t] = gh
        g_a[:, t] = gh * np.conj(H[:, t - 1] if t > 0 else h0)
        carry = np.conj(a if a.ndim == 1 else a[:, t]) * gh
    return g_pre, (g_a.sum(axis=(0, 1)) if a.ndim == 1 else g_a)


def make_case(seed, B, L, n, cplx, per_step, unit):
    """Random scan inputs with |a| <= 1; ``unit`` puts some |a| at exactly 1."""
    rng = np.random.default_rng(seed)
    shape = (B, L, n) if per_step else (n,)
    r = rng.uniform(0.0, 1.0, shape)
    if unit:
        r[..., ::2] = 1.0
    if cplx:
        a = r * np.exp(1j * rng.uniform(-np.pi, np.pi, shape))
        a[..., 1::3] = r[..., 1::3] * 1j  # |a| = r exactly, including 1
        pre = rng.normal(size=(B, L, n)) + 1j * rng.normal(size=(B, L, n))
        h0 = rng.normal(size=(B, n)) + 1j * rng.normal(size=(B, n))
    else:
        a = np.where(rng.uniform(size=shape) < 0.5, -r, r)
        pre = rng.normal(size=(B, L, n))
        h0 = rng.normal(size=(B, n))
    return a, pre, h0


def bound(L, h0, pre):
    # each step adds a few roundings of |h_t| <= |h0| + t max|pre| (|a| <= 1)
    return 8 * EPS * L * (np.abs(h0).max() + L * np.abs(pre).max())


cases = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 300),
                  st.integers(1, 6), st.booleans(), st.booleans(), st.booleans())


@settings(max_examples=60, deadline=None)
@given(cases)
def test_scan_matches_step_loop(case):
    seed, B, L, n, cplx, per_step, unit = case
    a, pre, h0 = make_case(seed, B, L, n, cplx, per_step, unit)
    ref = loop_scan(h0, a, pre)
    H = diag_scan(h0, a, pre)
    assert H.shape == pre.shape and H.dtype == ref.dtype
    np.testing.assert_allclose(H, ref, rtol=0, atol=bound(L, h0, pre))


@settings(max_examples=60, deadline=None)
@given(cases)
def test_adjoint_matches_reverse_loop(case):
    seed, B, L, n, cplx, per_step, unit = case
    a, pre, h0 = make_case(seed, B, L, n, cplx, per_step, unit)
    gh_read = make_case(seed + 1, B, L, n, cplx, per_step, unit)[1]
    H = loop_scan(h0, a, pre)
    ref_g, ref_a = loop_scan_backward(gh_read, H, h0, a)
    g_pre, g_a = diag_scan_backward(gh_read, H, h0, a)
    e_g = bound(L, 0 * h0, gh_read)
    np.testing.assert_allclose(g_pre, ref_g, rtol=0, atol=e_g)
    terms = 1 if per_step else B * L
    h_max = max(np.abs(H).max(), np.abs(h0).max())
    np.testing.assert_allclose(g_a, ref_a, rtol=0,
                               atol=2 * terms * (e_g + EPS * np.abs(ref_g).max()) * h_max)


@settings(max_examples=60, deadline=None)
@given(cases)
def test_adjoint_identity(case):
    # with A = I - S(a): Re<A^-1 p, g> = Re<p, A^-H g>
    seed, B, L, n, cplx, per_step, unit = case
    a, p, h0 = make_case(seed, B, L, n, cplx, per_step, unit)
    g = make_case(seed + 1, B, L, n, cplx, per_step, unit)[1]
    zero = np.zeros_like(h0)
    Ainv_p = diag_scan(zero, a, p.copy())
    AinvH_g, _ = diag_scan_backward(g.copy(), Ainv_p, zero, a)
    lhs = np.vdot(Ainv_p, g).real
    rhs = np.vdot(p, AinvH_g).real
    mag = np.vdot(np.abs(Ainv_p), np.abs(g)) + np.vdot(np.abs(p), np.abs(AinvH_g))
    assert abs(lhs - rhs) <= 8 * EPS * L * mag


@pytest.mark.parametrize("cplx", [False, True])
def test_scan_overwrites_lane_major_input_only(cplx):
    a, pre, h0 = make_case(5, 2, 40, 3, cplx, per_step=True, unit=False)
    time_major = pre.copy()
    H = diag_scan(h0, a, time_major)
    assert not np.shares_memory(H, time_major)
    np.testing.assert_array_equal(time_major, pre)
    lane_major = np.ascontiguousarray(pre.transpose(0, 2, 1)).transpose(0, 2, 1)
    H2 = diag_scan(h0, a, lane_major)
    assert np.shares_memory(H2, lane_major)
    np.testing.assert_array_equal(H2, H)


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("trans", ["N", "C"])
def test_banded_solve_bit_identical_to_scipy_linalg_lapack(cplx, trans):
    # scans loads LAPACK's banded solve from SciPy's compiled wrapper file
    rng = np.random.default_rng(9)
    band = np.asfortranarray(rng.uniform(-0.6, 0.6, (3, 500)))
    rhs = rng.standard_normal(500)
    if cplx:
        band = band + 1j * rng.uniform(-0.6, 0.6, band.shape)
        rhs = rhs + 1j * rng.standard_normal(500)
    ours, ref = (scans.ztbtrs, lapack.ztbtrs) if cplx else (scans.dtbtrs, lapack.dtbtrs)
    x, info = ours(band, rhs, "L", trans, "U")
    x_ref, info_ref = ref(band, rhs, "L", trans, "U")
    assert info == info_ref == 0
    np.testing.assert_array_equal(x, x_ref)
    assert not np.array_equal(x, rhs)


def _count_solver_calls(monkeypatch):
    """Wrap scans' LAPACK solvers; returns the list of (band bytes, rows) per call."""
    calls = []
    for name in ("dtbtrs", "ztbtrs"):
        solver = getattr(scans, name)
        monkeypatch.setattr(scans, name, lambda ab, b, *args, solver=solver:
                            calls.append((ab.nbytes, b.size)) or solver(ab, b, *args))
    return calls


def _one_band_solve(mults, rhs, trans):
    """(I - S) x = rhs over every lane at once: one band the size of all lanes
    and one LAPACK call, with zero multipliers where one lane meets the next."""
    kd = len(mults)
    band = np.zeros(rhs.shape + (kd + 1,), rhs.dtype)
    for k, m in enumerate(mults, 1):
        cut = max(rhs.shape[-1] - k, 0)
        np.negative(m, out=band[..., :cut, k])
    tbtrs = lapack.ztbtrs if rhs.dtype.kind == "c" else lapack.dtbtrs
    x, info = tbtrs(band.reshape(-1, kd + 1).T, rhs.reshape(-1), "L", trans, "U")
    assert info == 0
    return x.reshape(rhs.shape)


@pytest.mark.parametrize("trans", ["N", "C"])
@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("shape, per_lane", [
    ((5, 7, 3001), False),   # 35 lanes in blocks of 2 or 5 that 7 does not divide
    ((5, 7, 3001), True),
    ((3, 12, 2400), False),  # the training step's LRU/S4D lanes
    ((2, 1, 9000), True),    # one lane per block
    ((2, 3, 1), False),      # L = 1: no subdiagonal
    ((0, 12, 50), False),    # no lanes
    ((4, 6, 0), True)])      # no steps
def test_blocked_solve_bit_identical_to_one_band(shape, per_lane, cplx, trans, monkeypatch):
    calls = _count_solver_calls(monkeypatch)
    rng = np.random.default_rng(21)
    L = shape[-1]
    mshape = shape[:-1] + (max(L - 1, 0),) if per_lane else (shape[1], 1)
    m = rng.uniform(-0.95, 0.95, mshape)
    rhs = rng.standard_normal(shape)
    if cplx:
        m = m * np.exp(1j * rng.uniform(-np.pi, np.pi, mshape))
        rhs = rhs + 1j * rng.standard_normal(shape)
    x = rhs.copy()
    scans._solve([m], x, trans)
    assert np.array_equal(x, _one_band_solve([m], rhs, trans))
    if 2 * rhs.nbytes <= scans.BAND_BYTES:
        assert len(calls) == 1
    else:  # blocks of whole lanes, each band within BAND_BYTES unless it holds one lane
        assert len(calls) > 1 and sum(rows for _, rows in calls) == rhs.size
        assert all(band <= scans.BAND_BYTES or rows == L for band, rows in calls)


def test_blocked_solve_filters_one_long_signal_in_one_call(monkeypatch):
    # linear_filter's 1-d case with two subdiagonals has one lane: one band, one call
    calls = _count_solver_calls(monkeypatch)
    b, a = _rbj_lowpass(1000.0, 0.7, 48000)
    x = np.random.default_rng(8).uniform(-1.0, 1.0, 48000)
    y = linear_filter(b, a, x)
    assert calls == [(3 * 48000 * 8, 48000)]
    w = b[0] * x
    for k in range(1, len(b)):
        w[k:] += b[k] * x[:-k]
    assert np.array_equal(y, _one_band_solve([-ak for ak in a[1:]], w, "N"))


# ---------------------------------------------------------------------------
# IIR filter: the oracle effects' filters against scipy.signal.lfilter
# ---------------------------------------------------------------------------

FS = 48000


def one_pole(fc):
    a = 1.0 - np.exp(-2.0 * np.pi * fc / FS)
    return [a], [1.0, -(1.0 - a)]


# the corners of resonant_lowpass and peaking_eq, and the one-pole tones
ORACLE_FILTERS = (
    [pytest.param(*_rbj_lowpass(fc, q, FS), id=f"lowpass-{fc:g}-q{q:g}")
     for fc in (60.0, 23990.0) for q in (0.5, 8.0)]
    + [pytest.param(*_rbj_peaking(f, q, g, FS), id=f"peaking-{f:g}-{g:+g}dB-q{q:g}")
       for f in (100.0, 10000.0) for g in (-12.0, 12.0) for q in (0.5, 4.0)]
    + [pytest.param(*one_pole(fc), id=f"one_pole-{fc:g}") for fc in (500.0, 2000.0, 20000.0)])


@pytest.mark.parametrize("b,a", ORACLE_FILTERS)
def test_linear_filter_matches_lfilter(b, a):
    x = np.random.default_rng(9).uniform(-1.0, 1.0, 48000)
    for n in (0, 1, 2, 48000):
        y, ref = linear_filter(b, a, x[:n]), lfilter(b, a, x[:n])
        assert y.shape == ref.shape
        np.testing.assert_allclose(y, ref, rtol=0, atol=1e-9 * np.abs(ref).max(initial=0.0))
    # lanes along the last axis stay apart: each row is filtered from rest
    X = x[:3000].reshape(3, 1000)
    ref = lfilter(b, a, X)
    np.testing.assert_allclose(linear_filter(b, a, X), ref, rtol=0, atol=1e-9 * np.abs(ref).max())


# ---------------------------------------------------------------------------
# LSTM family: the time-major state buffer S (L + 1, B, 2n)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("merge", [False, True], ids=["lstm", "ed"])
def test_lstm_state_buffer_rows_follow_step_oracle(merge):
    # row 0 holds the entering [h | c], row t + 1 the state after step t, for
    # every lane; ED merges each entering row with its candidates first
    rng = np.random.default_rng(11)
    L, B, n = 40, 3, 8
    W, U, b = rng.normal(size=(4 * n, n)) * 0.5, rng.normal(size=(4 * n, 4)), rng.normal(size=4 * n)
    u = rng.normal(size=(L, B, 4))
    k = rng.normal(size=(L, B, 2 * n)) if merge else None
    h0, c0 = rng.normal(size=(2, B, n))
    S = lstm_forward(W, u @ U.T + b, h0, c0, k)
    assert S.shape == (L + 1, B, 2 * n)
    assert np.array_equal(S[0], np.concatenate([h0, c0], axis=1))
    for lane in range(B):
        h, c = h0[lane], c0[lane]
        for t in range(L):
            if merge:
                h, c = oracles.ed_merge_oracle(h, c, k[t, lane, :n], k[t, lane, n:])
            h, c = oracles.lstm_step_oracle(W, U, b, h, c, u[t, lane])
            np.testing.assert_allclose(S[t + 1, lane], np.concatenate([h, c]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("merge", [False, True], ids=["lstm", "ed"])
def test_lstm_backward_leaves_its_inputs_unchanged(merge):
    rng = np.random.default_rng(12)
    L, B, n = 30, 2, 8
    W = rng.normal(size=(4 * n, n)) * 0.5
    zin = rng.normal(size=(B, L, 4 * n)).swapaxes(0, 1)   # a time-major view, as the model passes it
    k = rng.normal(size=(L, B, 2 * n)) if merge else None
    S = lstm_forward(W, zin, *rng.normal(size=(2, B, n)), k)
    d_orec = rng.normal(size=(B, L, n)).swapaxes(0, 1)
    inputs = [a.copy() for a in (W, d_orec, zin, S) + ((k,) if merge else ())]
    first = lstm_backward(W, d_orec, zin, S, k)
    second = lstm_backward(W, d_orec, zin, S, k)
    assert all(np.array_equal(a, b) for a, b in zip(inputs, (W, d_orec, zin, S, k)))
    assert all((a is None and b is None) or np.array_equal(a, b) for a, b in zip(first, second))
    assert (first[1] is None) == (not merge)


def _layouts(a):
    """An (L, B, m) array in three memories: C-contiguous, a time-major view of
    (B, L, m) memory and a view of the feature-major (L, m, B) memory the model passes."""
    return (np.ascontiguousarray(a), np.ascontiguousarray(a.swapaxes(0, 1)).swapaxes(0, 1),
            np.ascontiguousarray(a.transpose(0, 2, 1)).transpose(0, 2, 1))


@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("merge", [False, True], ids=["lstm", "ed"])
def test_lstm_scans_bit_identical_under_every_input_layout(merge, B):
    rng = np.random.default_rng(13)
    L, n = 50, 8
    W = rng.normal(size=(4 * n, n)) * 0.5
    zin, k, d_orec = (rng.normal(size=(L, B, m)) for m in (4 * n, 2 * n, n))
    h0, c0 = rng.normal(size=(2, B, n))
    runs = []
    for zl, kl, dl in zip(_layouts(zin), _layouts(k), _layouts(d_orec)):
        kl = kl if merge else None
        S = lstm_forward(W, zl, h0, c0, kl)
        runs.append((S,) + lstm_backward(W, dl, zl, S, kl))
    for run in runs[1:]:
        assert all((a is None and b is None) or (a.shape == b.shape and np.array_equal(a, b))
                   for a, b in zip(runs[0], run))
