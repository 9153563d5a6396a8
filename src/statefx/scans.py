"""Recurrence scans: the gated LSTM/ED loops and the banded linear solve.

Only the stateful parts live here; everything batched across time
(projections, readouts, conditioning) stays in vectorized numpy in the
model and training modules.  The LSTM family steps one sample at a time
and keeps one state buffer S (L + 1, B, 2n): row 0 holds the entering
[h | c], row t + 1 the state after step t.  Its arrays keep these
time-major shapes but lie feature-major in memory, (L, features, B), so
that each step's gate rows, state halves and adjoint coefficients are
contiguous (·, B) blocks; inputs in any other layout give the same bits.
Its adjoint reads the states entering each step as views of S, rebuilds
every gate in batch and carries only (d_h, d_c) through its reverse loop.
Every linear recurrence needs no step loop: over all lanes it is one unit
lower-banded system, one LAPACK banded triangular solve.  The diagonal ones
(LRU/S4D: constant multiplier; S6: per-step) are the bidiagonal case
h_t = a_t*h_{t-1} + p_t, their adjoint the same band solved transposed;
the IIR filters of the data oracles have one subdiagonal per feedback tap.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np
from scipy.linalg.lapack import dtbtrs, ztbtrs

from .errors import NumericError
from .numerics import sigmoid

# No compiled backend exists; the benchmark's environment fingerprint reads this.
HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# LSTM / ED
# ---------------------------------------------------------------------------

def lstm_forward(W, zin, h0, c0, k=None):
    """Run the gated scan over gate inputs ``zin`` (L, B, 4n); returns S.

    For ED, ``k = [ch | cc]`` (L, B, 2n) holds the encoder candidates and
    each step first merges its entering row of S as sigmoid(S[t]) * k[t].
    S (L + 1, B, 2n) is a view of feature-major (L + 1, 2n, B) memory.
    """
    (L, B, _), n = zin.shape, W.shape[1]
    F = np.empty((L + 1, 2 * n, B))                     # S, feature-major
    F[0, :n], F[0, n:] = h0.T, c0.T
    z, sg, m = np.empty((4 * n, B)), np.empty((3 * n, B)), np.empty((2 * n, B))
    zs, g = z[:3 * n], z[3 * n:]
    f, i, o = sg[:n], sg[n:2 * n], sg[2 * n:]
    hm, cm = m[:n], m[n:]
    h, c = F[0, :n], F[0, n:]
    ks = repeat(None) if k is None else k.transpose(0, 2, 1)
    for zin_t, k_t, S_t, h_next, c_next in zip(zin.transpose(0, 2, 1), ks, F, F[1:, :n], F[1:, n:]):
        if k_t is not None:
            np.multiply(sigmoid(S_t, m), k_t, m)
            h, c = hm, cm
        np.dot(W, h, z)
        z += zin_t
        sigmoid(zs, sg)
        np.tanh(g, g)
        c = np.add(f * c, i * g, c_next)
        h = np.multiply(o, np.tanh(c), h_next)
    return F.transpose(0, 2, 1)


def lstm_backward(W, d_orec, zin, S, k=None):
    """Reverse the gated scan from lstm_forward's S alone.

    ``d_orec`` (L, B, n) is the gradient reaching the hidden states
    S[1:, :, :n].  The gates and the adjoint's per-step coefficients are
    rebuilt in batch into feature-major (L, ·, B) buffers, and the reverse
    loop writes only into buffers made before it.  Returns (d_z, d_ch, d_cc,
    h_in) as (L, B, ·) views of feature-major memory: the gate
    pre-activation gradient (L, B, 4n), the encoder candidate gradients (ED
    only, else None) and the (merged) hidden states entering each step.
    """
    L, B, n = d_orec.shape
    F = S.transpose(0, 2, 1)                            # (L + 1, 2n, B)
    sg = sigmoid(F[:-1]) if k is not None else None     # [sh | sc]
    m = sg * k.transpose(0, 2, 1) if k is not None else F[:-1]   # the states entering each step
    h_in, c_in = m[:, :n], m[:, n:]
    z = np.empty((L, 4, n, B))
    np.matmul(W, h_in, out=z.reshape(L, 4 * n, B))
    z += zin.transpose(0, 2, 1).reshape(L, 4, n, B)
    f, i, o = sigmoid(z[:, :3]).transpose(1, 0, 2, 3)
    g = np.tanh(z[:, 3], out=z[:, 3])
    # d_z_t = [d_c_t * kf, d_c_t * ki, d_h_t * ko, d_c_t * kg] with
    # d_c_t = d_c + d_h_t * oc_t; kf, ki and kg take z's place, d_z takes theirs
    np.multiply(c_in, f * (1.0 - f), out=z[:, 0])
    np.multiply(g, i * (1.0 - i), out=z[:, 1])
    np.multiply(i, 1.0 - g * g, out=z[:, 3])           # over g, after its last reader
    tc = np.tanh(F[1:, n:])
    flat = (L, n * B)                                   # each step's (n, B) block as one row
    ko = (tc * o * (1.0 - o)).reshape(flat)
    oc = o * (1.0 - tc * tc)
    # carried into the step before: d_h = (W.T @ d_z_t) * kh_t, d_c = d_c_t * kc_t
    kc, kh = f.reshape(flat), [None] * L                # f[t] is one contiguous block: a view
    if k is not None:
        kh = (h_in * (1.0 - sg[:, :n])).reshape(flat)
        kc = (c_in * (1.0 - sg[:, n:]) * f).reshape(flat)
        np.multiply(f, sg[:, n:], out=sg[:, n:])       # f * sc, the cell's share in d_cc
    # the carried adjoints as rows; only the d_o add and the product see d_h, d_ht as (n, B)
    d_h, d_ht = np.zeros((2, n, B))
    d_h_row, d_ht_row, d_c = d_h.reshape(-1), d_ht.reshape(-1), np.zeros(n * B)
    Wt = W.T
    # each d_c_t is written over oc_t, its last reader, so oc ends up holding them all
    for d_o, oc_t, ko_t, kc_t, kh_t, z_t in zip(d_orec[::-1].transpose(0, 2, 1), oc.reshape(flat)[::-1],
                                                ko[::-1], kc[::-1], kh[::-1], z.reshape(L, 4, n * B)[::-1]):
        np.add(d_o, d_h, d_ht)
        d_ct = np.multiply(d_ht_row, oc_t, oc_t)
        d_ct += d_c
        np.multiply(z_t, d_ct, z_t)
        np.multiply(ko_t, d_ht_row, z_t[2])
        np.dot(Wt, z_t.reshape(4 * n, B), d_h)
        if kh_t is not None:
            d_h_row *= kh_t
        np.multiply(d_ct, kc_t, d_c)
    d_z = z.reshape(L, 4 * n, B)
    d_ch = d_cc = None
    if k is not None:
        d_ch = (np.matmul(Wt, d_z) * sg[:, :n]).transpose(0, 2, 1)
        d_cc = np.multiply(oc, sg[:, n:], out=oc).transpose(0, 2, 1)
    return d_z.transpose(0, 2, 1), d_ch, d_cc, h_in.transpose(0, 2, 1)


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
