"""Independent brute-force reference implementations used as test oracles.

Everything here is written from the defining formulas with scalar loops or
explicit DFT matrices, deliberately avoiding the package's code paths and
numpy's FFT.  Slow and obviously correct is the point.
"""

import cmath
import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# DFT / spectral
# ---------------------------------------------------------------------------

_DFT_CACHE = {}


def dft_matrix(n: int) -> np.ndarray:
    if n not in _DFT_CACHE:
        k = np.arange(n)
        _DFT_CACHE[n] = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return _DFT_CACHE[n]


def dft_direct(frame: np.ndarray) -> np.ndarray:
    """O(N^2) DFT by explicit matrix product, first half-spectrum."""
    n = len(frame)
    full = dft_matrix(n) @ frame.astype(np.complex128)
    return full[:n // 2 + 1]


def hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft_mag_oracle(signal, window_size, hop):
    n_frames = (len(signal) - window_size) // hop + 1
    w = hann(window_size)
    half = dft_matrix(window_size)[:window_size // 2 + 1]
    frames = np.stack([signal[f * hop:f * hop + window_size] * w for f in range(n_frames)])
    return np.abs(frames.astype(np.complex128) @ half.T)


def esr_oracle(y, y_hat):
    num = 0.0
    den = 0.0
    for a, b in zip(y, y_hat):
        num += (a - b) ** 2
        den += a ** 2
    return num / den


def nrmse_oracle(y, y_hat):
    n = len(y)
    rmse_err = math.sqrt(sum((a - b) ** 2 for a, b in zip(y, y_hat)) / n)
    rmse_y = math.sqrt(sum(a ** 2 for a in y) / n)
    return rmse_err / rmse_y


def spectral_flux_oracle(y, y_hat, window_size=2048, hop=512, floor=1e-7):
    my = stft_mag_oracle(y, window_size, hop)
    mh = stft_mag_oracle(y_hat, window_size, hop)
    num = 0.0
    den = 0.0
    for f in range(1, my.shape[0]):
        for b in range(my.shape[1]):
            fy = abs(my[f, b] - my[f - 1, b])
            fh = abs(mh[f, b] - mh[f - 1, b])
            num += abs(fy - fh)
            den += fy
    return num / max(den, floor)


def multires_stft_oracle(y, y_hat, windows=(256, 512, 1024), floor=1e-7):
    total = 0.0
    for m in windows:
        hop = m // 4
        my = stft_mag_oracle(y, m, hop)
        mh = stft_mag_oracle(y_hat, m, hop)
        num = 0.0
        den = 0.0
        log = 0.0
        cells = my.shape[0] * my.shape[1]
        for f in range(my.shape[0]):
            for b in range(my.shape[1]):
                num += abs(my[f, b] - mh[f, b])
                den += my[f, b]
                log += abs(math.log(max(my[f, b], floor)) - math.log(max(mh[f, b], floor)))
        total += num / max(den, floor) + log / cells
    return total


# ---------------------------------------------------------------------------
# Cell steps (scalar loops)
# ---------------------------------------------------------------------------

def _sig(x):
    return 1.0 / (1.0 + math.exp(-x))


def matvec_oracle(m, v):
    rows, cols = m.shape
    out = np.zeros(rows)
    for r in range(rows):
        acc = 0.0
        for c in range(cols):
            acc += m[r, c] * v[c]
        out[r] = acc
    return out


def project_oracle(W, b, window):
    return matvec_oracle(W, window) + b


def lstm_step_oracle(W, U, b, h, c, u):
    n = len(h)
    z = matvec_oracle(W, h) + matvec_oracle(U, u) + b
    f = np.array([_sig(z[j]) for j in range(n)])
    i = np.array([_sig(z[n + j]) for j in range(n)])
    o = np.array([_sig(z[2 * n + j]) for j in range(n)])
    g = np.array([math.tanh(z[3 * n + j]) for j in range(n)])
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    return h_new, c_new


def ed_encode_oracle(kernel_h, bias_h, kernel_c, bias_c, x_e, stride=4):
    k = len(kernel_h)
    n_out = (len(x_e) - k) // stride + 1
    ch = np.zeros(n_out)
    cc = np.zeros(n_out)
    for j in range(n_out):
        acc_h = bias_h
        acc_c = bias_c
        for t in range(k):
            acc_h += kernel_h[t] * x_e[j * stride + t]
            acc_c += kernel_c[t] * x_e[j * stride + t]
        ch[j] = acc_h
        cc[j] = acc_c
    return ch, cc


def ed_merge_oracle(h_prev, c_prev, cand_h, cand_c):
    h = np.array([_sig(h_prev[j]) * cand_h[j] for j in range(len(h_prev))])
    c = np.array([_sig(c_prev[j]) * cand_c[j] for j in range(len(c_prev))])
    return h, c


def lru_step_oracle(nu, theta, U_re, U_im, b_re, b_im, W_re, W_im, b_o, h, u):
    n = len(nu)
    m = len(u)
    lam = [cmath.exp(complex(-math.exp(nu[k]), theta[k])) for k in range(n)]
    gam = [math.sqrt(1.0 - math.exp(-2.0 * math.exp(nu[k]))) for k in range(n)]
    h_new = np.zeros(n, dtype=complex)
    for k in range(n):
        acc = complex(0.0)
        for j in range(m):
            acc += complex(U_re[k, j], U_im[k, j]) * u[j]
        h_new[k] = lam[k] * h[k] + gam[k] * acc + complex(b_re[k], b_im[k])
    o = np.zeros(W_re.shape[0])
    for j in range(W_re.shape[0]):
        acc = complex(0.0)
        for k in range(n):
            acc += complex(W_re[j, k], W_im[j, k]) * h_new[k]
        o[j] = acc.real + b_o[j]
    return h_new, o


def s4d_discretize_oracle(a_diag, B, delta):
    n, m = B.shape
    abar = np.zeros(n, dtype=complex)
    bbar = np.zeros((n, m), dtype=complex)
    for k in range(n):
        abar[k] = cmath.exp(delta[k] * a_diag[k])
        for j in range(m):
            bbar[k, j] = (abar[k] - 1.0) / a_diag[k] * B[k, j]
    return abar, bbar


def s4d_step_oracle(a_diag, delta, B, C, D, h, u):
    abar, bbar = s4d_discretize_oracle(a_diag, B, delta)
    n = len(h)
    h_new = np.zeros(n, dtype=complex)
    for k in range(n):
        acc = complex(0.0)
        for j in range(len(u)):
            acc += bbar[k, j] * u[j]
        h_new[k] = abar[k] * h[k] + acc
    o = np.zeros(C.shape[0])
    for j in range(C.shape[0]):
        acc = complex(0.0)
        for k in range(n):
            acc += C[j, k] * h_new[k]
        o[j] = acc.real + D[j] * u[j]
    return h_new, o


def s6_step_oracle(log_neg_a, W_delta, b_delta, W_B, b_B, W_C, b_C, D, h, u):
    n = len(log_neg_a)
    m = len(u)
    a = -np.exp(log_neg_a)
    zd = b_delta
    for j in range(m):
        zd += W_delta[j] * u[j]
    delta = math.log1p(math.exp(-abs(zd))) + max(zd, 0.0)
    bv = np.array([b_B[k] + sum(W_B[k, j] * u[j] for j in range(m)) for k in range(n)])
    cv = np.array([b_C[k] + sum(W_C[k, j] * u[j] for j in range(m)) for k in range(n)])
    h_new = np.zeros(n)
    for k in range(n):
        abar = math.exp(delta * a[k])
        bbar = (abar - 1.0) / a[k] * bv[k]
        h_new[k] = abar * h[k] + bbar * u[k // 2]
    o = np.zeros(m)
    for d in range(m):
        o[d] = cv[2 * d] * h_new[2 * d] + cv[2 * d + 1] * h_new[2 * d + 1] + D[d] * u[d]
    return h_new, o


def conditioning_oracle(film_W, film_b, glu_W, glu_b, o, p):
    if film_W is not None:
        z = matvec_oracle(film_W, p) + film_b
        theta, eta = z[:len(o)], z[len(o):]
        q = theta * o + eta
    else:
        q = o
    zg = matvec_oracle(glu_W, q) + glu_b
    q1, q2 = zg[:len(o)], zg[len(o):]
    ss = np.array([v / (1.0 + abs(v)) for v in q2])
    return q1 * ss


# ---------------------------------------------------------------------------
# Statistics (full enumeration)
# ---------------------------------------------------------------------------

def wilcoxon_exact_enum(d):
    """Two-sided exact p by enumerating all 2^n sign assignments."""
    d = np.asarray(d, dtype=float)
    d = d[d != 0]
    n = len(d)
    absd = np.abs(d)
    order = np.argsort(absd, kind="stable")
    ranks = np.empty(n)
    i = 0
    sv = absd[order]
    while i < n:
        j = i
        while j + 1 < n and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    w_obs = ranks[d > 0].sum()
    lows = 0
    highs = 0
    for mask in range(1 << n):
        w = sum(ranks[k] for k in range(n) if mask >> k & 1)
        if w <= w_obs + 1e-9:
            lows += 1
        if w >= w_obs - 1e-9:
            highs += 1
    total = 1 << n
    return min(1.0, 2.0 * min(lows / total, highs / total))


def friedman_exact_enum(matrix):
    """Exact p by enumerating every combination of within-block permutations.

    Only feasible for tiny matrices; complements the package's state
    enumeration with a literally exhaustive one.
    """
    m = np.asarray(matrix, dtype=float)
    n, k = m.shape
    ranks = np.vstack([_rank_row(row) for row in m])

    def t_stat(sums):
        c = n * (k + 1) / 2.0
        return sum((s - c) ** 2 for s in sums)

    t_obs = t_stat(ranks.sum(axis=0))
    block_perms = [sorted(set(itertools.permutations(ranks[b]))) for b in range(n)]
    count = 0
    total = 0
    for combo in itertools.product(*block_perms):
        sums = np.sum(combo, axis=0)
        total += 1
        if t_stat(sums) >= t_obs - 1e-9:
            count += 1
    return count / total


def _rank_row(row):
    order = np.argsort(row, kind="stable")
    ranks = np.empty(len(row))
    sv = row[order]
    i = 0
    while i < len(row):
        j = i
        while j + 1 < len(row) and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def compressor_oracle(x, fs, threshold_db, ratio, attack_ms, release_s):
    """Feed-forward compressor: a peak envelope with attack/release
    smoothing, one step per sample, then a static gain curve in dB."""
    a_att = 1.0 - np.exp(-1.0 / (fs * attack_ms / 1000.0))
    a_rel = 1.0 - np.exp(-1.0 / (fs * release_s))
    env = np.empty(len(x))
    e = 0.0
    for i, v in enumerate(np.abs(x)):
        e = e + (a_att if v > e else a_rel) * (v - e)
        env[i] = e
    env_db = 20.0 * np.log10(np.maximum(env, 1e-6))
    gain_db = np.minimum(0.0, (threshold_db - env_db) * (1.0 - 1.0 / ratio))
    return x * 10.0 ** (gain_db / 20.0)
