"""Recurrence scans: the gated LSTM/ED loops and the banded linear solve.

Only the stateful parts live here; everything batched across time
(projections, readouts, conditioning) stays in vectorized numpy in the
model and training modules.  The LSTM family steps one sample at a time
and keeps only the hidden and cell sequences (H, C); its adjoint rebuilds
every gate from them in batch, so its reverse loop carries only (d_h, d_c).
Every linear recurrence needs no step loop: over all lanes it is one unit
lower-banded system (I - S) x = p, one LAPACK banded triangular solve.  The
diagonal ones (LRU/S4D: constant multiplier; S6: per-step) are the bidiagonal
case h_t = a_t*h_{t-1} + p_t, their adjoint the same band solved transposed;
the IIR filters of the data oracles have one subdiagonal per feedback tap.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dtbtrs, ztbtrs

from .errors import NumericError
from .numerics import sigmoid

# No compiled backend exists; the benchmark's environment fingerprint reads this.
HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# LSTM / ED
# ---------------------------------------------------------------------------

def lstm_forward(W, zin, h0, c0, ch=None, cc=None):
    """Run the gated scan; with ch/cc present, the ED state merge runs first.

    Returns (H, C), the hidden and cell states after every step, each
    (B, L, n).  Nothing else is kept: lstm_backward rebuilds the gates.
    """
    B, L, four_n = zin.shape
    n = four_n // 4
    H, C = np.empty((2, B, L, n))
    Wt = W.T
    h, c = h0, c0
    for t in range(L):
        if ch is not None:
            h = sigmoid(h) * ch[:, t]
            c = sigmoid(c) * cc[:, t]
        z = h @ Wt + zin[:, t]
        gates = sigmoid(z[:, :3 * n])
        g = np.tanh(z[:, 3 * n:])
        c = np.add(gates[:, :n] * c, gates[:, n:2 * n] * g, out=C[:, t])
        h = np.multiply(gates[:, 2 * n:], np.tanh(c), out=H[:, t])
    return H, C


def lstm_backward(W, d_orec, zin, H, C, h0, c0, ch=None, cc=None):
    """Reverse the gated scan from the forward states (H, C) alone.

    The states entering each step, the ED merge, the gates and the
    per-step coefficients of the adjoint are rebuilt in batch; the reverse
    loop only carries (d_h, d_c).  Returns (d_z, d_ch, d_cc, h_in): the
    gate pre-activation gradient (B, L, 4n), the encoder candidate
    gradients (ED only, else None) and the (merged) hidden states entering
    each step.  The work runs time-major, so each step reads contiguous
    rows; the results are (B, L, ...) views of that memory.
    """
    B, L, n = H.shape
    merge = ch is not None
    H, C, zin = H.swapaxes(0, 1), C.swapaxes(0, 1), zin.swapaxes(0, 1)
    h_in = np.concatenate([h0[None], H[:-1]])
    c_in = np.concatenate([c0[None], C[:-1]])
    if merge:
        ch, cc = ch.swapaxes(0, 1), cc.swapaxes(0, 1)
        sh, sc = sigmoid(h_in), sigmoid(c_in)
        h_in, c_in = sh * ch, sc * cc
    z = (h_in @ W.T + zin).reshape(L, B, 4, n)
    f, i, o = np.moveaxis(sigmoid(z[:, :, :3]), 2, 0)
    g = np.tanh(z[:, :, 3])
    tc = np.tanh(C)
    # d_z_t = [d_c_t * kf, d_c_t * ki, d_h_t * ko, d_c_t * kg] with
    # d_c_t = d_c + d_h_t * oc_t; kf, ki and kg take z's place, d_z takes theirs
    k = z
    np.multiply(c_in, f * (1.0 - f), out=k[:, :, 0])
    np.multiply(g, i * (1.0 - i), out=k[:, :, 1])
    np.multiply(i, 1.0 - g * g, out=k[:, :, 3])
    ko = tc * o * (1.0 - o)
    oc = o * (1.0 - tc * tc)
    # carried into the step before: d_h = (d_z_t @ W) * kh_t, d_c = d_c_t * kc_t
    if merge:
        fs = f * sc
        kc = fs * cc * (1.0 - sc)
        kh = sh * ch * (1.0 - sh)
    else:
        kc = f.copy()  # its own memory, so the gate array is freed below
    del z, c_in, f, i, o, g, tc
    D_C = np.empty((L, B, n))
    d_h, d_c = np.zeros((2, B, n))
    for t in range(L - 1, -1, -1):
        d_ht = d_orec[:, t] + d_h
        d_ct = np.add(d_c, d_ht * oc[t], out=D_C[t])
        d_zt = np.multiply(k[t], d_ct[:, None], out=k[t])
        np.multiply(ko[t], d_ht, out=d_zt[:, 2])
        d_h = d_zt.reshape(B, 4 * n) @ W
        if merge:
            d_h *= kh[t]
        d_c = d_ct * kc[t]
    d_z = k.reshape(L, B, 4 * n)
    del k, ko, oc, kc
    d_ch = d_cc = None
    if merge:
        d_ch, d_cc = ((d_z @ W) * sh).swapaxes(0, 1), (D_C * fs).swapaxes(0, 1)
    return d_z.swapaxes(0, 1), d_ch, d_cc, h_in.swapaxes(0, 1)


# ---------------------------------------------------------------------------
# Banded linear solves: the diagonal scans (LRU / S4D, S6) and the IIR filter
# ---------------------------------------------------------------------------
#
# Arrays are shaped (B, L, n) but the solve wants lane-major memory, where
# each lane's L steps are contiguous: x.transpose(0, 2, 1) C-contiguous.
# Callers that build pre / gh_read that way get the result written in place.

def _lane_major(x, *others):
    """(B, n, L) C-contiguous view of a (B, L, n) array, in the result dtype of
    x and ``others``; copies only if needed.  Lane-major complex128 is taken
    as it is, since no operand here promotes it further."""
    xt = x.transpose(0, 2, 1)
    if xt.dtype == np.complex128 and xt.flags.c_contiguous:
        return xt
    return np.ascontiguousarray(xt, np.result_type(x, *others))


def _solve(mults, rhs, trans):
    """Solve (I - S) x = rhs in place over all lanes of a (..., L) array.

    S is strictly lower banded within each lane: ``mults[k - 1]``, broadcastable to
    (..., L - k), holds its k-th subdiagonal, the multipliers of x_{t-k} in x_t.
    The band is built in LAPACK's Fortran layout, so no copy is made on the way in.
    """
    kd = len(mults)
    band = np.empty(rhs.shape + (kd + 1,), rhs.dtype)   # row 0 (unit diagonal) is never read
    for k, m in enumerate(mults, 1):
        cut = max(rhs.shape[-1] - k, 0)
        np.negative(m, out=band[..., :cut, k])
        band[..., cut:, k] = 0.0                       # lanes do not couple
    tbtrs = ztbtrs if rhs.dtype.kind == "c" else dtbtrs
    # A complex matmul (OpenBLAS zgemm) can leave the upper AVX register
    # state dirty; the SSE-compiled solve then ran ~18x slower on an AVX-512
    # Xeon (22 ms against 1.2 ms at B=3, L=2400).  A vectorized numpy loop
    # ends with vzeroupper, which clears that state.
    np.add(np.zeros(64), 0.0)
    # positional (uplo, trans, diag, overwrite_b): f2py parses keywords slower
    _, info = tbtrs(band.reshape(-1, kd + 1).T, rhs.reshape(-1, 1), "L", trans, "U", 1)
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
    P = _lane_major(pre, h0, a)
    P[..., 0] += a_0 * h0
    _solve([a_rest], P, "N")
    return P.transpose(0, 2, 1)


def diag_scan_backward(gh_read, H, h0, a):
    """Adjoint of diag_scan: returns (g_pre, g_a).

    ``gh_read`` holds dL/dH from the read-out, ``H`` the forward states.
    g_pre solves the reverse-time scan g_t = gh_read_t + conj(a_{t+1}) g_{t+1},
    written over ``gh_read`` when it is lane-major.  g_a matches ``a``:
    summed over batch and time for a constant multiplier, per step
    otherwise.  Complex gradients are packed (dL/dRe + i dL/dIm).
    """
    G = _lane_major(gh_read, H, a)
    _solve([_lanes(a)[1]], G, "C")
    Hl = H.transpose(0, 2, 1)
    if a.ndim == 1:
        g_a = (np.einsum("bkt,bkt->k", G[..., 1:], np.conj(Hl[..., :-1]))
               + np.einsum("bk,bk->k", G[..., 0], np.conj(h0)))
        return G.transpose(0, 2, 1), g_a
    g_a = np.empty_like(G)
    np.multiply(G[..., 1:], np.conj(Hl[..., :-1]), out=g_a[..., 1:])
    g_a[..., 0] = G[..., 0] * np.conj(h0)
    return G.transpose(0, 2, 1), g_a.transpose(0, 2, 1)


def linear_filter(b, a, x):
    """Filter ``x`` along its last axis by b(z)/a(z), with a[0] == 1, from rest.

    Direct form I: shifted adds form w = b * x, then y_t = w_t - sum_k a_k y_{t-k}
    is one band solve.  Equal to SciPy's lfilter (direct form II transposed) up to rounding.
    """
    x = np.asarray(x, dtype=np.float64)
    y = b[0] * x
    for k in range(1, min(len(b), x.shape[-1])):
        y[..., k:] += b[k] * x[..., :-k]
    _solve([-ak for ak in a[1:]], y, "N")
    return y


# The benchmark tracer wraps these names; S6 runs through diag_scan above.
tv_scan = diag_scan
tv_scan_backward = diag_scan_backward
