"""Recurrence scans: the gated LSTM/ED loops and the diagonal linear solve.

Only the stateful parts live here; everything batched across time
(projections, readouts, conditioning) stays in vectorized numpy in the
model and training modules.  The LSTM family steps one sample at a time.
The diagonal linear recurrences (LRU, S4D, S6) need no step loop: over all
(batch, state) lanes, h_t = a_t*h_{t-1} + p_t is one unit lower-bidiagonal
system (I - S(a)) h = p, solved by a single LAPACK banded triangular solve,
and its reverse-time adjoint is the same band solved transposed.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dtbtrs, ztbtrs

from .errors import NumericError

# No compiled backend exists; the benchmark's environment fingerprint reads this.
HAVE_NUMBA = False


def _sigmoid_np(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# LSTM / ED forward
# ---------------------------------------------------------------------------

def _lstm_fwd_numpy(W, zin, h0, c0, merge, ch, cc,
                    H, F, I, O, G, CP, TC, HP, HPR, CPR, want_cache):
    B, L, four_n = zin.shape
    n = four_n // 4
    Wt = W.T
    h, c = h0.copy(), c0.copy()
    for t in range(L):
        if merge:
            if want_cache:
                HPR[:, t] = h
                CPR[:, t] = c
            h = _sigmoid_np(h) * ch[:, t]
            c = _sigmoid_np(c) * cc[:, t]
        if want_cache:
            HP[:, t] = h
            CP[:, t] = c
        z = h @ Wt + zin[:, t]
        gates = _sigmoid_np(z[:, :3 * n])
        f, i, o = gates[:, :n], gates[:, n:2 * n], gates[:, 2 * n:]
        g = np.tanh(z[:, 3 * n:])
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        H[:, t] = h
        if want_cache:
            F[:, t] = f
            I[:, t] = i
            O[:, t] = o
            G[:, t] = g
            TC[:, t] = tc
    return h, c


def lstm_forward(W, zin, h0, c0, ch=None, cc=None, want_cache=False):
    """Run the gated scan; with ch/cc present, the ED state merge runs first.

    Returns (H, h_last, c_last, cache) where cache holds the per-step
    quantities backward needs (or None).
    """
    B, L, four_n = zin.shape
    n = four_n // 4
    merge = ch is not None
    shape = (B, L, n)
    H = np.empty(shape)
    F = I = O = G = CP = TC = HP = HPR = CPR = None
    if want_cache:
        F, I, O, G, CP, TC, HP = (np.empty(shape) for _ in range(7))
        if merge:
            HPR, CPR = np.empty(shape), np.empty(shape)
    h, c = _lstm_fwd_numpy(W, zin, h0, c0, merge, ch, cc,
                           H, F, I, O, G, CP, TC, HP, HPR, CPR, want_cache)
    cache = None
    if want_cache:
        cache = {"f": F, "i": I, "o": O, "g": G, "c_prev": CP, "tanh_c": TC, "h_prev": HP}
        if merge:
            cache["h_prev_raw"] = HPR
            cache["c_prev_raw"] = CPR
    return H, h, c, cache


# ---------------------------------------------------------------------------
# LSTM / ED backward
# ---------------------------------------------------------------------------

def _lstm_bwd_numpy(W, d_orec, F, I, O, G, CP, TC, merge, ch, cc, HPR, CPR,
                    d_z, d_ch, d_cc):
    B, L, n = d_orec.shape
    d_h = np.zeros((B, n))
    d_c = np.zeros((B, n))
    for t in range(L - 1, -1, -1):
        d_ht = d_orec[:, t] + d_h
        tc = TC[:, t]
        f = F[:, t]; i = I[:, t]; o = O[:, t]; g = G[:, t]
        d_o = d_ht * tc
        d_ct = d_c + d_ht * o * (1.0 - tc ** 2)
        d_zt = d_z[:, t]
        d_zt[:, 0:n] = d_ct * CP[:, t] * f * (1.0 - f)
        d_zt[:, n:2 * n] = d_ct * g * i * (1.0 - i)
        d_zt[:, 2 * n:3 * n] = d_o * o * (1.0 - o)
        d_zt[:, 3 * n:4 * n] = d_ct * i * (1.0 - g ** 2)
        d_h = d_zt @ W
        d_c = d_ct * f
        if merge:
            sh = _sigmoid_np(HPR[:, t])
            sc = _sigmoid_np(CPR[:, t])
            d_ch[:, t] = d_h * sh
            d_cc[:, t] = d_c * sc
            d_h = d_h * ch[:, t] * sh * (1.0 - sh)
            d_c = d_c * cc[:, t] * sc * (1.0 - sc)


def lstm_backward(W, d_orec, cache, ch=None, cc=None):
    """Reverse the gated scan; returns (d_z, d_ch, d_cc) with the encoder
    candidate gradients present only for the ED merge."""
    B, L, n = d_orec.shape
    merge = ch is not None
    d_z = np.empty((B, L, 4 * n))
    d_ch = np.empty((B, L, n)) if merge else None
    d_cc = np.empty((B, L, n)) if merge else None
    _lstm_bwd_numpy(W, d_orec,
                    cache["f"], cache["i"], cache["o"], cache["g"], cache["c_prev"], cache["tanh_c"],
                    merge, ch, cc, cache.get("h_prev_raw"), cache.get("c_prev_raw"), d_z, d_ch, d_cc)
    return d_z, d_ch, d_cc


# ---------------------------------------------------------------------------
# Diagonal linear scans (LRU / S4D: constant multiplier; S6: per-step multiplier)
# ---------------------------------------------------------------------------
#
# Arrays are shaped (B, L, n) but the solve wants lane-major memory, where
# each lane's L steps are contiguous: x.transpose(0, 2, 1) C-contiguous.
# Callers that build pre / gh_read that way get the result written in place.

def _lane_major(x, dtype):
    """(B, n, L) C-contiguous view of a (B, L, n) array; copies only if needed."""
    return np.ascontiguousarray(x.transpose(0, 2, 1), dtype=dtype)


def _solve(a_rest, rhs, trans):
    """Solve (I - S(a)) x = rhs in place over all lanes of a (B, n, L) array.

    S(a) puts a_t (t >= 1) on the subdiagonal within each lane; ``a_rest``
    holds those multipliers, broadcastable to (B, n, L - 1).  The band is
    built in LAPACK's Fortran layout, so no copy is made on the way in.
    """
    band = np.empty(rhs.shape + (2,), rhs.dtype)   # row 0 (unit diagonal) is never read
    np.negative(a_rest, out=band[..., :-1, 1])
    band[..., -1, 1] = 0.0                         # lanes do not couple
    tbtrs = ztbtrs if rhs.dtype.kind == "c" else dtbtrs
    # A complex matmul (OpenBLAS zgemm) can leave the upper AVX register
    # state dirty; the SSE-compiled solve then ran ~18x slower on an AVX-512
    # Xeon (22 ms against 1.2 ms at B=3, L=2400).  A vectorized numpy loop
    # ends with vzeroupper, which clears that state.
    np.add(np.zeros(64), 0.0)
    _, info = tbtrs(band.reshape(-1, 2).T, rhs.reshape(-1, 1), uplo="L", trans=trans,
                    diag="U", overwrite_b=1)
    if info != 0:
        raise NumericError(f"banded triangular solve failed (info={info})")


def _lanes(a):
    """Split the multiplier over (B, n, L) lanes into (a_0, a_1..a_{L-1}).

    ``a`` is (n,), constant in time, or (B, L, n), per step.
    """
    if a.ndim == 1:
        return a, a[:, None]
    A = a.transpose(0, 2, 1)
    return A[..., 0], A[..., 1:]


def diag_scan(h0, a, pre):
    """h_t = a_t * h_{t-1} + pre_t over every (batch, state) lane; returns H.

    ``h0`` is (B, n), ``pre`` (B, L, n) and ``a`` either (n,), constant in
    time, or (B, L, n), per step.  H comes back (B, L, n) in lane-major
    memory; when ``pre`` is lane-major already and of the result dtype, H
    is written over it.
    """
    a_0, a_rest = _lanes(a)
    P = _lane_major(pre, np.result_type(h0, a, pre))
    P[..., 0] += a_0 * h0
    _solve(a_rest, P, "N")
    return P.transpose(0, 2, 1)


def diag_scan_backward(gh_read, H, h0, a):
    """Adjoint of diag_scan: returns (g_pre, g_a).

    ``gh_read`` holds dL/dH from the read-out, ``H`` the forward states.
    g_pre solves the reverse-time scan g_t = gh_read_t + conj(a_{t+1}) g_{t+1},
    written over ``gh_read`` when it is lane-major.  g_a matches ``a``:
    summed over batch and time for a constant multiplier, per step
    otherwise.  Complex gradients are packed (dL/dRe + i dL/dIm).
    """
    G = _lane_major(gh_read, np.result_type(gh_read, H, a))
    _solve(_lanes(a)[1], G, "C")
    Hl = H.transpose(0, 2, 1)
    if a.ndim == 1:
        g_a = (np.einsum("bkt,bkt->k", G[..., 1:], np.conj(Hl[..., :-1]))
               + np.einsum("bk,bk->k", G[..., 0], np.conj(h0)))
        return G.transpose(0, 2, 1), g_a
    g_a = np.empty_like(G)
    np.multiply(G[..., 1:], np.conj(Hl[..., :-1]), out=g_a[..., 1:])
    g_a[..., 0] = G[..., 0] * np.conj(h0)
    return G.transpose(0, 2, 1), g_a.transpose(0, 2, 1)


# The benchmark tracer wraps these names; S6 runs through diag_scan above.
tv_scan = diag_scan
tv_scan_backward = diag_scan_backward
