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

That solve is LAPACK's dtbtrs / ztbtrs, taken from SciPy's compiled LAPACK
wrapper ``scipy/linalg/_flapack``, loaded straight from its file.  Importing
the ``scipy.linalg`` package for it would cost each process about 150 ms
and 20 MB of RSS, mostly in what its init pulls in (numpy.f2py through the
array-API shim, numpy.testing, numpy.ma, importlib.metadata); the wrapper
alone is the same compiled code that ``scipy.linalg.lapack`` exports, so
the solutions are the same bits.  Should a SciPy release move that file,
the import of ``scipy.linalg.lapack`` is the fallback.
"""

from __future__ import annotations

import math
import os
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from itertools import repeat

import numpy as np

from .cells import sigmoid
from .errors import NumericError

# No compiled backend exists; the benchmark's environment fingerprint reads this.
HAVE_NUMBA = False

# Band bytes per LAPACK call of the banded solve: a block of lanes whose band
# stays in cache between being written and being read.
BAND_BYTES = 1 << 18


def _banded_solvers(scipy_dirs):
    """(dtbtrs, ztbtrs) from the ``linalg/_flapack`` extension in the first of
    ``scipy_dirs`` that has one, else from ``scipy.linalg.lapack``.

    The extension keeps its own dotted name: its init function is found by
    the last part, and Python files it in sys.modules under that name, where
    a later ``import scipy.linalg`` picks it up instead of loading it again.
    """
    for d in scipy_dirs:
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(d, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                spec = spec_from_file_location("scipy.linalg._flapack", path)
                flapack = module_from_spec(spec)
                spec.loader.exec_module(flapack)
                return flapack.dtbtrs, flapack.ztbtrs
    from scipy.linalg.lapack import dtbtrs, ztbtrs
    return dtbtrs, ztbtrs


dtbtrs, ztbtrs = _banded_solvers(find_spec("scipy").submodule_search_locations)


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
    rebuilt in batch into feature-major (L, ·, B) buffers, mostly in place,
    and the reverse loop writes only into buffers made before it; ``zin``
    and ``k`` are dropped once folded in, so a caller that passes them as
    temporaries frees them early.  Returns (d_z, d_ch, d_cc, h_in) as
    (L, B, ·) views of feature-major memory: the gate pre-activation
    gradient (L, B, 4n), the encoder candidate gradients (ED only, else
    None) and the (merged) hidden states entering each step.
    """
    L, B, n = d_orec.shape
    F = S.transpose(0, 2, 1)                            # (L + 1, 2n, B)
    merge = k is not None
    if merge:                                           # sigmoid(F[t]) * k[t]
        m = sigmoid(F[:-1], np.empty((L, 2 * n, B)))
        m *= k.transpose(0, 2, 1)
        del k
    else:
        m = F[:-1]                                      # the states entering each step
    h_in, c_in = m[:, :n], m[:, n:]
    z = np.empty((L, 4, n, B))
    np.matmul(W, h_in, out=z.reshape(L, 4 * n, B))
    z += zin.transpose(0, 2, 1).reshape(L, 4, n, B)
    del zin
    sigmoid(z[:, :3], z[:, :3])
    f, i, o, g = z.transpose(1, 0, 2, 3)                # (L, n, B) views
    np.tanh(g, g)
    if merge:                                           # [sh | sc], rebuilt now that zin is gone
        sg = sigmoid(F[:-1])
    # d_z_t = [d_c_t * kf, d_c_t * ki, d_h_t * ko, d_c_t * kg] with
    # d_c_t = d_c + d_h_t * oc_t.  kf, ki and kg take f, i and g's rows;
    # o's row is scratch once oc and ko are built, and d_z takes z's place.
    # Each product keeps the operand order of the plain expression, so the
    # coefficients are the same bits.
    flat = (L, n * B)                                   # each step's (n, B) block as one row
    oc, ko, kc = (np.empty((L, n, B)) for _ in range(3))
    np.tanh(F[1:, n:], ko)                              # tanh(c_t)
    np.multiply(ko, ko, oc)
    np.subtract(1.0, oc, oc)
    oc *= o                                             # o * (1 - tanh(c)^2)
    ko *= o
    np.subtract(1.0, o, o)
    ko *= o                                             # tanh(c) * o * (1 - o)
    np.subtract(1.0, i, kc)
    kc *= i
    kc *= g                                             # ki = g * (i * (1 - i)), parked in kc
    g *= g
    np.subtract(1.0, g, g)
    g *= i                                              # kg = i * (1 - g^2)
    np.copyto(i, kc)
    # carried into the step before: d_h = (W.T @ d_z_t) * kh_t, d_c = d_c_t * kc_t
    if not merge:
        np.copyto(kc, f)
        kh = [None] * L
    else:
        sh, sc = sg[:, :n], sg[:, n:]
        np.subtract(1.0, sc, kc)
        kc *= c_in
        kc *= f                                         # c_in * (1 - sc) * f
        sc *= f                                         # f * sc, the cell's share in d_cc
    np.subtract(1.0, f, o)
    o *= f
    np.multiply(c_in, o, f)                             # kf = c_in * (f * (1 - f))
    if merge:
        kh = c_in                                       # c_in's last reader was kf
        np.subtract(1.0, sh, kh)
        kh *= h_in                                      # h_in * (1 - sh)
        kh = kh.reshape(flat)
    # the carried adjoints as rows; only the d_o add and the product see d_h, d_ht as (n, B)
    d_h, d_ht = np.zeros((2, n, B))
    d_h_row, d_ht_row, d_c = d_h.reshape(-1), d_ht.reshape(-1), np.zeros(n * B)
    Wt = W.T
    # each d_c_t is written over oc_t, its last reader, so oc ends up holding them all
    for d_o, oc_t, ko_t, kc_t, kh_t, z_t in zip(d_orec[::-1].transpose(0, 2, 1), oc.reshape(flat)[::-1],
                                                ko.reshape(flat)[::-1], kc.reshape(flat)[::-1], kh[::-1],
                                                z.reshape(L, 4, n * B)[::-1]):
        np.add(d_o, d_h, d_ht)
        d_ct = np.multiply(d_ht_row, oc_t, oc_t)
        d_ct += d_c
        np.multiply(z_t, d_ct, z_t)
        np.multiply(ko_t, d_ht_row, z_t[2])
        np.dot(Wt, z_t.reshape(4 * n, B), d_h)
        if kh_t is not None:
            d_h_row *= kh_t
        np.multiply(d_ct, kc_t, d_c)
    ko = kc = kh = ko_t = kc_t = kh_t = None           # freed before ED's d_ch product
    d_z = z.reshape(L, 4 * n, B)
    d_ch = d_cc = None
    if merge:
        d_ch = np.matmul(Wt, d_z)
        d_ch *= sh
        d_ch = d_ch.transpose(0, 2, 1)
        d_cc = np.multiply(oc, sc, out=oc).transpose(0, 2, 1)
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
    """Solve (I - S) x = rhs in place over all lanes of a C-contiguous (..., L) array.

    S is strictly lower banded within each lane: ``mults[k - 1]``, broadcastable to
    (..., L - k), holds its k-th subdiagonal, the multipliers of x_{t-k} in x_t.
    The lanes go to LAPACK in blocks whose band fits in BAND_BYTES, through one
    band buffer in LAPACK's Fortran layout, so no copy is made on the way in;
    when every lane fits, that is one call.
    """
    kd, L = len(mults), rhs.shape[-1]
    tbtrs = ztbtrs if rhs.dtype.kind == "c" else dtbtrs
    # A complex matmul (OpenBLAS zgemm) can leave the upper AVX register
    # state dirty; the SSE-compiled solve then ran ~18x slower on an AVX-512
    # Xeon (22 ms against 1.2 ms at B=3, L=2400).  A vectorized numpy loop
    # ends with vzeroupper, which clears that state.
    np.add(np.zeros(64), 0.0)
    if rhs.ndim == 1 or rhs.nbytes * (kd + 1) <= BAND_BYTES:
        _band_solve(tbtrs, mults, rhs, np.empty(rhs.shape + (kd + 1,), rhs.dtype), trans)
        return
    lead, lane = rhs.shape[:-1], L * (kd + 1) * rhs.itemsize  # band bytes per lane
    # the first lead axis a whose trailing lanes fit; blocks run along axis a - 1
    a = next((a for a in range(1, len(lead)) if math.prod(lead[a:]) * lane <= BAND_BYTES), len(lead))
    step = max(1, BAND_BYTES // (math.prod(lead[a:]) * lane))
    band = np.empty((min(step, lead[a - 1]),) + lead[a:] + (L, kd + 1), rhs.dtype)
    mults = [np.broadcast_to(m, lead + (max(L - k, 0),)) for k, m in enumerate(mults, 1)]
    for head in np.ndindex(*lead[:a - 1]):
        for s in range(0, lead[a - 1], step):
            blk = head + (slice(s, s + step),)
            x = rhs[blk]
            _band_solve(tbtrs, [m[blk] for m in mults], x, band[:len(x)], trans)


def _band_solve(tbtrs, mults, x, band, trans):
    """One LAPACK call: solve x in place through ``band`` (x.shape + (kd + 1,)),
    filled here from the subdiagonals ``mults``; row 0 (the unit diagonal) is never read."""
    L = x.shape[-1]
    for k, m in enumerate(mults, 1):
        cut = max(L - k, 0)
        np.negative(m, out=band[..., :cut, k])
        band[..., cut:, k] = 0.0                       # lanes do not couple
    # positional (uplo, trans, diag, overwrite_b): f2py parses keywords slower
    _, info = tbtrs(band.reshape(-1, len(mults) + 1).T, x.reshape(-1, 1), "L", trans, "U", 1)
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
    h_prev = Hl[..., :-1]                               # conj would copy a real array
    np.multiply(G[..., 1:], np.conj(h_prev) if h_prev.dtype.kind == "c" else h_prev, out=g_a[..., 1:])
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
