"""Model assembly: projection, recurrent layer, post-recurrent FC,
conditioning block, one-unit output layer, plus parameter/FLOPs accounting
and the checkpoint format.

Every architecture runs the same pipeline; what differs between them is
stated once.  ``ARCH`` gives each one's weight groups, layer widths, state
arrays and batched scan; LRU and S4D share one scan (see ``cells.DiagLti``).
Parameter names are ``"<prefix>.<field>"`` with the fields of the
``statefx.cells`` weight dataclasses.

Two inference routes exist on purpose.  ``forward_sample`` is the
per-sample reference: each layer's one-step equations on 1-d arrays,
calling nothing of the batched route.  ``forward_segment`` is the batched
fast path used for training, rendering and benchmarking.  They must agree
to float rounding; the streaming equivalence tests and the benchmark's
prefix check compare them.

The hand-written reverse mode sits next to the forward it reverses:
``Model._forward_full`` and each ``Model._scan_*`` return a pullback closed
over their own arrays (LRU and S4D differ only in their ``coeffs_vjp``).
Complex-valued chains use the packed convention g_z = dL/dRe(z) +
i*dL/dIm(z), under which a product w = a*b propagates as g_a = conj(b)*g_w
and a holomorphic f gives g_z = conj(f'(z))*g_{f(z)}.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import cells, scans
from .cells import (
    ED_SPLIT,
    LSTM_IN,
    LSTM_UNITS,
    SSM_IN,
    SSM_STATE,
    WINDOW_LEN,
    sigmoid,
    softplus,
    softsign,
)
from .errors import (
    CompatibilityError,
    DimensionError,
    FormatError,
    InputError,
    NumericError,
)

POST_UNITS = 4          # every variant reduces to 4 before conditioning
HIST_LEN = WINDOW_LEN - 1
MAX_COND_DIM = 64       # conditioning parameters FiLM reads; the largest oracle effect has 3
STEP_BLOCK = 128        # steps per block of _matmul_steps: 1 MB of (4n, 32)-lane gate rows

# Per-sample FLOPs reported in the reference comparison, used only as
# calibration constants for count_flops (see FLOPS_CONVENTION).
REFERENCE_FLOPS_TOTAL = {"lstm": 1160, "ed": 1048, "lru": 812, "s4d": 912, "s6": 984}
REFERENCE_FLOPS_CONDITIONING = 120
FLOPS_BUDGET = 1500

FLOPS_CONVENTION = "mac1-act6"
# mac1-act6: a real multiply-accumulate counts 1 (dense m->n costs n*(m+1)
# with the bias add); standalone real add/sub/mul/div count 1; transcendental
# evaluations (exp, tanh, sigmoid, softplus) count 6 and softsign counts 3;
# complex*complex multiply counts 4, complex add 2, real*complex multiply 2,
# and a complex MAC feeding a real accumulator counts 2.  Quantities fixed at
# inference time (LRU lambda/gamma, S4D discretization) are precomputed and
# not charged per sample; S6 re-discretizes every sample and is charged.


@dataclass
class ModelConfig:
    """Architecture choice plus conditioning size (0 to ``MAX_COND_DIM``)
    and sample rate."""

    architecture: str
    cond_dim: int = 0
    sample_rate: int = 48000

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise InputError(f"unknown architecture {self.architecture!r}; expected one of {ARCHITECTURES}")
        if not 0 <= self.cond_dim <= MAX_COND_DIM:
            raise InputError(f"cond_dim must lie in [0, {MAX_COND_DIM}], got {self.cond_dim}")


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(B, L, k), (B, L, u) -> (k, u): the sum over lanes and steps of the
    outer products a[i, t] b[i, t]^T, one BLAS matmul per lane.  Takes any
    strided layout (lane-major, a real part, a sliding window) as it is."""
    return (a.swapaxes(1, 2) @ b).sum(axis=0)


def _matmul_steps(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a @ b`` for (B, L, k) ``a`` into ``out`` (B, L, m), STEP_BLOCK steps at
    a time.  Into feature-major memory each lane writes one element per cache
    line, and its neighbours write the rest; a block keeps those lines in cache."""
    for t in range(0, a.shape[1], STEP_BLOCK):
        np.matmul(a[:, t:t + STEP_BLOCK], b, out=out[:, t:t + STEP_BLOCK])
    return out


def _per_substate(x: np.ndarray) -> np.ndarray:
    """(B, L, 6) -> (B, L, 12): each S6 channel repeated for its two substates,
    in lane-major memory like the scan's."""
    return np.repeat(x.transpose(0, 2, 1), 2, axis=1).transpose(0, 2, 1)


def _check_unit_range(p: np.ndarray) -> None:
    # NaN propagates through min/max and fails both comparisons; an empty
    # array has no extremes and nothing to reject
    if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):
        raise InputError("conditioning parameters must lie in [0, 1]")


@dataclass
class FlopsBreakdown:
    """Per-sample floating-point operation counts under FLOPS_CONVENTION."""

    projection: int
    recurrent_layer: int
    post_fc: int
    conditioning_block: int
    output_layer: int
    total: int
    convention: str
    reference_total: int
    reference_conditioning: int = REFERENCE_FLOPS_CONDITIONING

    @property
    def deviation_from_reference(self) -> float:
        return (self.total - self.reference_total) / self.reference_total


def _dense(n_out: int, n_in: int) -> int:
    return n_out * (n_in + 1)


_ACT = 6        # sigmoid / tanh / exp / softplus
_SOFTSIGN = 3
_CMUL = 4       # complex*complex
_CADD = 2
_RCMUL = 2      # real*complex
_RETERM = 2     # complex MAC into a real accumulator


def _conditioning_flops(cond_dim: int) -> int:
    glu = _dense(8, POST_UNITS) + POST_UNITS * _SOFTSIGN + POST_UNITS
    if cond_dim == 0:
        return glu
    film = _dense(8, cond_dim)
    affine = 2 * POST_UNITS  # theta*o then +eta
    return film + affine + glu


def _recurrent_flops(arch: str) -> int:
    if arch in ("lstm", "ed"):
        gates = _dense(4 * LSTM_UNITS, LSTM_UNITS + LSTM_IN)
        act = (3 * LSTM_UNITS + 2 * LSTM_UNITS) * _ACT   # 3 sigmoid gates, 2 tanh
        elem = 3 * LSTM_UNITS                            # c update and h product
        cell = gates + act + elem
        if arch == "lstm":
            return cell
        enc = 2 * (8 * cells.ED_KERNEL + 8)
        merge = 2 * LSTM_UNITS * _ACT + 2 * LSTM_UNITS   # sigmoid then product
        return enc + merge + cell
    if arch == "lru":
        scan = SSM_STATE * _CMUL + SSM_STATE * SSM_IN * _RCMUL + SSM_STATE * _RCMUL \
            + 2 * SSM_STATE * _CADD
        readout = SSM_IN * SSM_STATE * _RETERM + SSM_IN
        return scan + readout
    if arch == "s4d":
        scan = SSM_STATE * _CMUL + SSM_STATE * SSM_IN * _RCMUL + SSM_STATE * _CADD
        readout = SSM_IN * SSM_STATE * _RETERM + 2 * SSM_IN
        return scan + readout
    if arch == "s6":
        delta = _dense(1, SSM_IN) + _ACT
        maps = 2 * _dense(SSM_STATE, SSM_IN)
        abar = SSM_STATE + SSM_STATE * _ACT
        bbar = 3 * SSM_STATE
        scan = 2 * SSM_STATE
        readout = SSM_STATE + SSM_IN
        return delta + maps + abar + bbar + scan + readout
    raise InputError(f"unknown architecture {arch!r}")


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

class Model:
    """One of the five architectures with its weights.

    Weights live in ``params``, an ordered dict of named float64 arrays;
    the cells-level dataclasses are views over the same storage.
    """

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = params

    # -- construction -------------------------------------------------------

    @classmethod
    def init(cls, config: ModelConfig, seed: int = 0) -> "Model":
        rng = np.random.default_rng(seed)
        spec = ARCH[config.architecture]
        p: dict[str, np.ndarray] = {}

        def add(prefix, w):
            p.update((f"{prefix}.{f.name}", getattr(w, f.name)) for f in fields(w))

        add("proj", cells.Projection.init(rng, spec.proj_units, spec.proj_window))
        for prefix, view in spec.groups:
            add(prefix, view.init(rng))

        dense = [("post", POST_UNITS, spec.readout_units)]
        if config.cond_dim > 0:
            dense.append(("film", 2 * POST_UNITS, config.cond_dim))
        dense += [("glu", 2 * POST_UNITS, POST_UNITS), ("out", 1, POST_UNITS)]
        for prefix, units, width in dense:
            add(prefix, cells.Projection.init(rng, units, width))
        if config.cond_dim > 0:
            p["film.b"][:POST_UNITS] = 1.0  # FiLM starts as identity scaling
        p["glu.b"][POST_UNITS:] = 1.0  # gate starts half open: softsign(1) = 0.5
        p["out.W"] = p["out.W"].reshape(POST_UNITS)
        return cls(config, p)

    def copy(self) -> "Model":
        return Model(self.config, {k: v.copy() for k, v in self.params.items()})

    # -- weight views --------------------------------------------------------

    def weights(self, prefix: str):
        """The cells dataclass over the weights named ``<prefix>.*``
        ("proj" or one of the architecture's groups in ``ARCH``)."""
        view, names = _VIEWS[prefix]
        p = self.params
        return view(*[p[n] for n in names])

    def check_stability(self) -> None:
        """Run ``validate`` of every weight group whose class has one
        (|multiplier| < 1 for the diagonal-LTI layers)."""
        for prefix, view in ARCH[self.config.architecture].groups:
            if hasattr(view, "validate"):
                self.weights(prefix).validate()

    # -- state ----------------------------------------------------------------

    def init_state(self, batch: int = 1) -> dict[str, np.ndarray]:
        """Fresh per-stream state: recurrent contents plus 63 samples of history."""
        state: dict[str, np.ndarray] = {"hist": np.zeros((batch, HIST_LEN))}
        for name, width, dtype in ARCH[self.config.architecture].state:
            state[name] = np.zeros((batch, width), dtype=dtype)
        return state

    @staticmethod
    def copy_state(state: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in state.items()}

    # -- batched input check ---------------------------------------------------

    def _batch_inputs(self, state, x, p):
        """The checked (state, x, p) of one batched call as (x (B, L), p, squeeze):
        p None, (B, P) static or (B, L, P) scheduled; squeeze if x came in 1-d."""
        if state is None:
            raise InputError("state not initialized; call init_state() first")
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.ndim != 2:
            raise DimensionError("x must be 1-d or 2-d (batch, samples)")
        B, L = x.shape
        if state["h"].shape[0] != B:
            raise DimensionError(f"state batch {state['h'].shape[0]} != input batch {B}")
        P = self.config.cond_dim
        if P == 0:
            return x, None, squeeze
        if p is None:
            raise InputError(f"model expects {P} conditioning parameters, got none")
        p = np.asarray(p, dtype=np.float64)
        if p.shape == (P,):
            p = p[None].repeat(B, 0)
        elif p.shape == (B, P) or p.shape == (B, L, P):
            pass
        elif p.shape == (L, P) and B == 1:
            p = p[None]
        else:
            raise DimensionError(f"conditioning shape {p.shape} incompatible with P={P}, batch={B}")
        _check_unit_range(p)
        return x, p, squeeze

    # -- single-sample route ----------------------------------------------------

    def forward_sample(self, state: dict[str, np.ndarray], window: np.ndarray, p=None):
        """One output sample from one explicit 64-sample window (newest first).

        The per-sample reference: every layer's one-step equations on 1-d
        arrays, independent of the batched route.  The window history in
        ``state`` is neither read nor advanced here; use forward_segment
        for stream processing.
        """
        if state is None:
            raise InputError("state not initialized; call init_state() first")
        if state["h"].shape[0] != 1:
            raise InputError("forward_sample works on single-stream state (batch 1)")
        if not all(np.isfinite(v).all() for key, v in state.items() if key != "hist"):
            raise NumericError("the carried recurrent state holds a non-finite value")
        window = np.asarray(window, dtype=np.float64)
        if window.shape != (WINDOW_LEN,):
            raise DimensionError(f"window must have shape ({WINDOW_LEN},), got {window.shape}")
        P = self.config.cond_dim
        if P:
            p = np.asarray(() if p is None else p, dtype=np.float64).reshape(-1)
            if p.shape != (P,):
                raise DimensionError(f"p must have shape ({P},)")
            _check_unit_range(p)

        arch = self.config.architecture
        spec = ARCH[arch]
        prm = self.params
        new_state = self.copy_state(state)
        u = prm["proj.W"] @ window[:spec.proj_window] + prm["proj.b"]
        h = state["h"][0]
        if arch in ("lstm", "ed"):
            c = state["c"][0]
            if arch == "ed":  # encoder maps of the oldest half, gated by the previous states
                blocks = window[ED_SPLIT:].reshape(LSTM_UNITS, cells.ED_KERNEL)
                h = sigmoid(h) * (blocks @ prm["enc.kernel_h"] + prm["enc.bias_h"][0])
                c = sigmoid(c) * (blocks @ prm["enc.kernel_c"] + prm["enc.bias_c"][0])
            z = prm["lstm.W"] @ h + prm["lstm.U"] @ u + prm["lstm.b"]  # gates f, i, o; candidate
            f, i, o = sigmoid(z[:3 * LSTM_UNITS]).reshape(3, LSTM_UNITS)
            c = f * c + i * np.tanh(z[3 * LSTM_UNITS:])
            h = o_rec = o * np.tanh(c)
            new_state["c"] = c[None, :]
        elif arch == "s6":  # zero-order hold with the input's step size; two substates per channel
            w = self.weights("s6")
            a = w.a_diag()
            delta = softplus(float(w.W_delta @ u + w.b_delta[0]))
            abar = np.exp(delta * a)
            h = abar * h + (abar - 1.0) / a * (w.W_B @ u + w.b_B) * np.repeat(u, 2)
            o_rec = ((w.W_C @ u + w.b_C) * h).reshape(SSM_IN, 2).sum(axis=1) + w.D * u
        else:  # the equations of cells.DiagLti
            w = self.weights(arch)
            lti = w.LTI
            lam, s, M, b, C = cells.diag_lti_constants(w)
            pre = (s[:, None] * M) @ u
            if b is not None:
                pre += b
            h = lam * h + pre
            o_rec = np.real(C @ h)
            if lti.D:
                o_rec = o_rec + getattr(w, lti.D) * u
            if lti.b_o:
                o_rec = o_rec + getattr(w, lti.b_o)
        new_state["h"] = h[None, :]

        pre = prm["post.W"] @ o_rec + prm["post.b"]
        q = np.tanh(pre) if spec.post_tanh else pre
        if P:  # FiLM: q = theta * o_hat + eta
            z = prm["film.W"] @ p + prm["film.b"]
            q = z[:POST_UNITS] * q + z[POST_UNITS:]
        # GLU: o_c = q1 * softsign(q2)
        z = prm["glu.W"] @ q + prm["glu.b"]
        o_c = z[:POST_UNITS] * softsign(z[POST_UNITS:])
        y = float(prm["out.W"] @ o_c + prm["out.b"][0])
        return y, new_state

    # -- batched segment route ---------------------------------------------------

    def forward_segment(self, state: dict[str, np.ndarray], x: np.ndarray, p=None,
                        chunk: int = 65536):
        """Stream new samples through the model, carrying state.

        ``x`` is (L,) or (B, L) of new input samples; the 63 samples of
        context at the segment start come from the history held in
        ``state``.  Returns (y, new_state) with y shaped like x.  Output is
        equal to float rounding to L successive forward_sample calls on
        sliding windows.
        """
        x, pfull, squeeze = self._batch_inputs(state, x, p)
        if not isinstance(chunk, (int, np.integer)) or isinstance(chunk, bool) or chunk < 1:
            raise InputError(f"chunk must be a positive integer, got {chunk!r}")
        B, L = x.shape
        if L == 0:
            y = np.empty((B, 0))
            return (y[0] if squeeze else y), self.copy_state(state)

        ys = []
        cur = state
        for start in range(0, L, chunk):
            sl = slice(start, start + chunk)
            pc = pfull[:, sl] if pfull is not None and pfull.ndim == 3 else pfull
            y, cur, _ = self._forward_full(cur, x[:, sl], pc)
            ys.append(y)
        y = np.concatenate(ys, axis=1) if len(ys) > 1 else ys[0]
        return (y[0], cur) if squeeze else (y, cur)

    def _forward_full(self, state, x, p):
        """Batched forward over one contiguous chunk: (y (B, L), new_state, pullback).

        ``x`` and ``p`` come from ``_batch_inputs``.  ``pullback(d_y)``
        returns every weight's gradient in ``params`` order, for static
        ``p``; the incoming state is a constant.
        """
        cfg = self.config
        spec = ARCH[cfg.architecture]
        prm = self.params

        B, L = x.shape
        if state["hist"].shape != (B, HIST_LEN):  # the window view reads exactly this much
            raise DimensionError(f"state history {state['hist'].shape} != ({B}, {HIST_LEN})")
        if not all(np.count_nonzero(np.isfinite(v)) == v.size for v in state.values()):
            raise NumericError("the carried state holds a non-finite value")
        ext = np.concatenate([state["hist"], x], axis=1)
        # newest-first 64-sample windows, a (B, L, 64) view: win[:, n, k] is
        # ext[:, HIST_LEN + n - k], so win[:, n, 0] is sample n.  An empty
        # batch has no memory to offset into.
        win = np.ndarray((B, L, WINDOW_LEN), ext.dtype, ext, HIST_LEN * ext.itemsize * (B > 0),
                         (ext.strides[0], ext.itemsize, -ext.itemsize))
        u_seq = win[:, :, :spec.proj_window] @ prm["proj.W"].T + prm["proj.b"]

        o_rec, rec_state, scan_pullback = spec.scan(self, state, u_seq, win)
        new_state = {"hist": ext[:, -HIST_LEN:].copy(), **rec_state}

        post_pre = o_rec @ prm["post.W"].T + prm["post.b"]
        o_hat = np.tanh(post_pre) if spec.post_tanh else post_pre

        if cfg.cond_dim > 0:
            zf = p @ prm["film.W"].T + prm["film.b"]
            theta, eta = zf[..., :POST_UNITS], zf[..., POST_UNITS:]
            if zf.ndim == 2:  # static conditioning: broadcast over time
                theta, eta = theta[:, None, :], eta[:, None, :]
            q = theta * o_hat + eta
        else:
            q = o_hat
        zg = q @ prm["glu.W"].T + prm["glu.b"]
        q1, q2 = zg[..., :POST_UNITS], zg[..., POST_UNITS:]
        ss = softsign(q2)
        o_c = q1 * ss
        y = o_c @ prm["out.W"] + prm["out.b"][0]

        def pullback(d_y):
            g = {}
            # output layer: y = o_c @ W_out + b_out
            g["out.W"] = _gram(d_y[..., None], o_c)[0]
            g["out.b"] = np.array([d_y.sum()])
            d_oc = d_y[..., None] * prm["out.W"]

            # GLU: o_c = q1 * softsign(q2)
            d_q1 = d_oc * ss
            d_q2 = d_oc * q1 / (1.0 + np.abs(q2)) ** 2
            d_zg = np.concatenate([d_q1, d_q2], axis=-1)
            g["glu.W"] = _gram(d_zg, q)
            g["glu.b"] = d_zg.sum(axis=(0, 1))
            d_q = d_zg @ prm["glu.W"]

            # FiLM: q = theta * o_hat + eta (theta static per stream)
            if cfg.cond_dim > 0:
                d_theta = (d_q * o_hat).sum(axis=1)
                d_eta = d_q.sum(axis=1)
                d_zf = np.concatenate([d_theta, d_eta], axis=-1)
                g["film.W"] = d_zf.T @ p
                g["film.b"] = d_zf.sum(axis=0)
                d_ohat = d_q * theta
            else:
                d_ohat = d_q

            # post-recurrent FC (tanh for the linear-recurrence family)
            d_post = d_ohat * (1.0 - o_hat ** 2) if spec.post_tanh else d_ohat
            g["post.W"] = _gram(d_post, o_rec)
            g["post.b"] = d_post.sum(axis=(0, 1))
            # in o_rec's memory layout, so the LSTM family's adjoint reads it feature-major
            d_useq = scan_pullback(_matmul_steps(d_post, prm["post.W"], np.empty_like(o_rec)), g)

            g["proj.W"] = _gram(d_useq, win[:, :, :spec.proj_window])
            g["proj.b"] = d_useq.sum(axis=(0, 1))
            return {k: g[k] for k in prm}

        return y, new_state, pullback

    # -- per-architecture scans ---------------------------------------------------
    # Each returns o_rec (B, L, readout), the recurrent state at the chunk end
    # and pullback(d_orec, g): it adds the layer's weight gradients to g and
    # returns the gradient with respect to u_seq.
    #
    # The LSTM family keeps its per-step arrays (zin, k, S and d_orec, which
    # takes o_rec's layout) in time-major (L, B, ·) shapes over feature-major
    # (L, ·, B) memory, so every step of its scans reads and writes contiguous
    # (·, B) blocks; o_rec is a (B, L, n) view of S.  The weight-gradient
    # products read time-major copies instead, one BLAS call per lane.

    def _lstm_inputs(self, u_seq, win):
        """Gate inputs zin (L, B, 4n) and, for ED, the encoder candidates
        k = [ch | cc] (L, B, 2n), written straight into feature-major memory."""
        prm = self.params
        B, L, _ = u_seq.shape
        zin = np.empty((L, 4 * LSTM_UNITS, B))
        _matmul_steps(u_seq, prm["lstm.U"].T, zin.transpose(2, 0, 1))
        zin += prm["lstm.b"][:, None]
        if self.config.architecture != "ed":
            return zin.transpose(0, 2, 1), None
        blocks = win[:, :, ED_SPLIT:].reshape(B, L, LSTM_UNITS, cells.ED_KERNEL)
        k = np.empty((L, 2, LSTM_UNITS, B))
        for j, x in enumerate("hc"):
            np.add(blocks @ prm[f"enc.kernel_{x}"], prm[f"enc.bias_{x}"][0], out=k[:, j].transpose(2, 0, 1))
        return zin.transpose(0, 2, 1), k.reshape(L, 2 * LSTM_UNITS, B).transpose(0, 2, 1)

    def _scan_lstm_family(self, state, u_seq, win):
        prm = self.params
        zin, k = self._lstm_inputs(u_seq, win)
        S = scans.lstm_forward(prm["lstm.W"], zin, state["h"], state["c"], k)
        H = S[1:, :, :LSTM_UNITS].swapaxes(0, 1)

        def pullback(d_orec, g):
            # rebuilt rather than held, so a forward-only call frees them when the scan returns
            zin, k = self._lstm_inputs(u_seq, win)
            d_z, d_ch, d_cc, h_in = scans.lstm_backward(prm["lstm.W"], d_orec.swapaxes(0, 1), zin, S, k)
            del zin, k                                  # freed before the time-major copies
            d_z = np.ascontiguousarray(d_z).swapaxes(0, 1)
            g["lstm.W"] = _gram(d_z, np.ascontiguousarray(h_in).swapaxes(0, 1))
            g["lstm.U"] = _gram(d_z, u_seq)
            g["lstm.b"] = d_z.sum(axis=(0, 1))
            if d_ch is not None:
                # ED: unit o's candidate reads block o of the oldest half of each
                # window, so the kernel gradient sums the diagonal blocks of the product
                for x, d in (("h", d_ch), ("c", d_cc)):
                    G = _gram(d.swapaxes(0, 1), win[:, :, ED_SPLIT:])
                    g[f"enc.kernel_{x}"] = np.trace(G.reshape(LSTM_UNITS, LSTM_UNITS, cells.ED_KERNEL))
                    g[f"enc.bias_{x}"] = np.array([d.sum()])
            return d_z @ prm["lstm.U"]

        return H, {"h": H[:, -1].copy(), "c": S[-1, :, LSTM_UNITS:].copy()}, pullback

    # The linear-recurrence scans keep (B, L, n) shapes but allocate their
    # per-step arrays lane-major ((B, n, L) memory, seen through a transposed
    # view), so that scans.diag_scan solves in place and elementwise products
    # of those arrays stay lane-major too.  LRU and S4D share one diagonal-LTI
    # layer (see cells.DiagLti); only S6, whose coefficients vary per step, has its own.

    def _scan_diag_lti(self, state, u_seq, win):
        arch = self.config.architecture
        w = self.weights(arch)
        lti = w.LTI
        lam, s, M, b, C = cells.diag_lti_constants(w)
        Bbar = s[:, None] * M
        pre = Bbar @ u_seq.transpose(0, 2, 1)
        if b is not None:
            pre += b[:, None]
        H = scans.diag_scan(state["h"], lam, pre.transpose(0, 2, 1))
        o_rec = np.real(H @ C.T)
        if lti.D:
            o_rec = o_rec + getattr(w, lti.D) * u_seq
        if lti.b_o:
            o_rec = o_rec + getattr(w, lti.b_o)

        def pullback(d_orec, g):
            gf = {}  # gradients keyed by the weight view's field names
            # o = Re(C h) + D * u + b_o
            gC = _gram(d_orec, H)
            gf[lti.C + "_re"], gf[lti.C + "_im"] = gC.real.copy(), -gC.imag
            if lti.b_o:
                gf[lti.b_o] = d_orec.sum(axis=(0, 1))
            if lti.D:
                gf[lti.D] = (d_orec * u_seq).sum(axis=(0, 1))
            # lane-major like H, so the adjoint solve runs in place
            gh_read = (np.conj(C).T @ d_orec.transpose(0, 2, 1)).transpose(0, 2, 1)

            g_pre, g_lam = scans.diag_scan_backward(gh_read, H, state["h"], lam)

            # pre = (s * M) @ u + b
            if lti.b:
                gb = g_pre.sum(axis=(0, 1))
                gf[lti.b + "_re"], gf[lti.b + "_im"] = gb.real.copy(), gb.imag.copy()
            g_Bbar = _gram(g_pre, u_seq)
            gM = np.conj(s)[:, None] * g_Bbar
            gf[lti.M + "_re"], gf[lti.M + "_im"] = gM.real.copy(), gM.imag.copy()
            g_s = (np.conj(M) * g_Bbar).sum(axis=1)
            d_useq = (g_pre @ np.conj(Bbar)).real
            if lti.D:
                d_useq = d_useq + d_orec * getattr(w, lti.D)
            gf.update(w.coeffs_vjp(lam, s, g_lam, g_s))
            g.update((f"{arch}.{k}", v) for k, v in gf.items())
            return d_useq

        return o_rec, {"h": H[:, -1].copy()}, pullback

    def _scan_s6(self, state, u_seq, win):
        w = self.weights("s6")
        B, L, _ = u_seq.shape
        a = w.a_diag()
        ut = u_seq.transpose(0, 2, 1)
        zd = u_seq @ w.W_delta + w.b_delta[0]
        delta = softplus(zd)
        abar = np.exp(a[:, None] * delta[:, None, :]).transpose(0, 2, 1)
        Bv = (w.W_B @ ut + w.b_B[:, None]).transpose(0, 2, 1)
        Cv = (w.W_C @ ut + w.b_C[:, None]).transpose(0, 2, 1)
        # pre = bbar * u; the pullback rebuilds both factors instead of holding them
        pre = (abar - 1.0) / a * Bv * _per_substate(u_seq)
        H = scans.diag_scan(state["h"], abar, pre)
        o_rec = (Cv * H).reshape(B, L, SSM_IN, 2).sum(axis=3) + w.D * u_seq

        def pullback(d_orec, g):
            # lane-major like H, so the adjoint solve runs in place
            d_orep = _per_substate(d_orec)
            gCv = d_orep * H
            gh_read = d_orep * Cv
            g["s6.D"] = (d_orec * u_seq).sum(axis=(0, 1))
            d_useq = d_orec * w.D

            g_pre, g_abar_t = scans.diag_scan_backward(gh_read, H, state["h"], abar)

            s = (abar - 1.0) / a
            g_bbar = g_pre * _per_substate(u_seq)
            d_useq = d_useq + (g_pre * (s * Bv)).reshape(B, L, SSM_IN, 2).sum(axis=3)
            gBv = g_bbar * s
            gs = g_bbar * Bv
            g_abar_t = g_abar_t + gs / a
            gA = (gs * (-(abar - 1.0) / a ** 2)).sum(axis=(0, 1))

            gz = g_abar_t * abar
            gA = gA + (gz * delta[..., None]).sum(axis=(0, 1))
            g_delta = gz @ a
            g_zd = g_delta * sigmoid(zd)
            g["s6.W_delta"] = _gram(g_zd[..., None], u_seq)[0]
            g["s6.b_delta"] = np.array([g_zd.sum()])
            d_useq = d_useq + g_zd[..., None] * w.W_delta

            g["s6.W_B"] = _gram(gBv, u_seq)
            g["s6.b_B"] = gBv.sum(axis=(0, 1))
            d_useq = d_useq + gBv @ w.W_B
            g["s6.W_C"] = _gram(gCv, u_seq)
            g["s6.b_C"] = gCv.sum(axis=(0, 1))
            d_useq = d_useq + gCv @ w.W_C

            g["s6.log_neg_a"] = gA * a  # dA/d(log_neg_a) = -exp(.) = a
            return d_useq

        return o_rec, {"h": H[:, -1].copy()}, pullback

    # -- accounting ----------------------------------------------------------------

    def count_params(self) -> int:
        """Exact number of trainable scalars (complex pairs count as 2)."""
        return int(sum(v.size for v in self.params.values()))

    def count_flops(self) -> FlopsBreakdown:
        """Per-sample inference cost under FLOPS_CONVENTION.

        The reference totals from the comparison study are attached for
        calibration; the counting convention there is unknown, so agreement
        is expected only to within tens of percent.
        """
        cfg = self.config
        spec = ARCH[cfg.architecture]
        proj = _dense(spec.proj_units, spec.proj_window)
        rec = _recurrent_flops(cfg.architecture)
        post = _dense(POST_UNITS, spec.readout_units) + (POST_UNITS * _ACT if spec.post_tanh else 0)
        cond = _conditioning_flops(cfg.cond_dim)
        out = _dense(1, POST_UNITS)
        total = proj + rec + post + cond + out
        return FlopsBreakdown(
            projection=proj, recurrent_layer=rec, post_fc=post,
            conditioning_block=cond, output_layer=out, total=total,
            convention=FLOPS_CONVENTION,
            reference_total=REFERENCE_FLOPS_TOTAL[cfg.architecture],
        )


# ---------------------------------------------------------------------------
# What differs between the architectures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArchSpec:
    """How one architecture fills the shared pipeline."""

    groups: tuple[tuple[str, type], ...]      # (prefix, cells weight class) in RNG order after "proj"
    proj_units: int                           # projection output width
    proj_window: int                          # newest window samples the projection reads
    readout_units: int                        # recurrent readout width, the post-FC input
    post_tanh: bool                           # tanh after the post-FC
    state: tuple[tuple[str, int, type], ...]  # (name, width, dtype) of state besides "hist"
    scan: Callable                            # batched recurrent layer, a Model._scan_* method


_LSTM_STATE = (("h", LSTM_UNITS, np.float64), ("c", LSTM_UNITS, np.float64))

# The linear-recurrence variants get a tanh after the post-FC to make up for
# their activation-free recurrent layers; LSTM and ED stay linear.
ARCH = {
    "lstm": ArchSpec((("lstm", cells.LstmWeights),), LSTM_IN, WINDOW_LEN, LSTM_UNITS, False,
                     _LSTM_STATE, Model._scan_lstm_family),
    "ed": ArchSpec((("enc", cells.EdEncoder), ("lstm", cells.LstmWeights)), LSTM_IN, ED_SPLIT,
                   LSTM_UNITS, False, _LSTM_STATE, Model._scan_lstm_family),
    "lru": ArchSpec((("lru", cells.LruWeights),), SSM_IN, WINDOW_LEN, SSM_IN, True,
                    (("h", SSM_STATE, np.complex128),), Model._scan_diag_lti),
    "s4d": ArchSpec((("s4d", cells.S4dWeights),), SSM_IN, WINDOW_LEN, SSM_IN, True,
                    (("h", SSM_STATE, np.complex128),), Model._scan_diag_lti),
    "s6": ArchSpec((("s6", cells.S6Weights),), SSM_IN, WINDOW_LEN, SSM_IN, True,
                   (("h", SSM_STATE, np.float64),), Model._scan_s6),
}
ARCHITECTURES = tuple(ARCH)

# prefix -> (cells weight class, parameter names), built once: Model.weights
# runs on every streamed buffer.
_VIEWS = {prefix: (view, tuple(f"{prefix}.{f.name}" for f in fields(view)))
          for prefix, view in [("proj", cells.Projection)]
          + [g for spec in ARCH.values() for g in spec.groups]}


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = "statefx-checkpoint"
CHECKPOINT_VERSION = 1

_CONFIG_INT_FIELDS = ("cond_dim", "sample_rate")


@dataclass
class Checkpoint:
    """Weights + config + training history, serialized losslessly.

    File layout: an ASCII header of ``key=value`` lines (config, format
    version, best epoch) followed by one ``array=<name> <dim> <dim>...``
    line per array, an ``end`` line, then the raw array data concatenated
    in header order as little-endian float64.
    """

    config: ModelConfig
    params: dict[str, np.ndarray]
    history: dict[str, np.ndarray] = field(default_factory=dict)
    best_epoch: int = -1

    def to_model(self) -> Model:
        return Model(self.config, {k: v.copy() for k, v in self.params.items()})

    @classmethod
    def from_model(cls, model: Model, history: dict[str, np.ndarray] | None = None,
                   best_epoch: int = -1) -> "Checkpoint":
        return cls(model.config, {k: v.copy() for k, v in model.params.items()},
                   dict(history or {}), best_epoch)

    def save(self, path) -> None:
        buf = io.StringIO()
        buf.write(CHECKPOINT_MAGIC + "\n")
        buf.write(f"format_version={CHECKPOINT_VERSION}\n")
        buf.write(f"architecture={self.config.architecture}\n")
        for name in _CONFIG_INT_FIELDS:
            buf.write(f"{name}={getattr(self.config, name)}\n")
        buf.write(f"best_epoch={self.best_epoch}\n")
        arrays: list[tuple[str, np.ndarray]] = []
        for k, v in self.params.items():
            arrays.append((k, np.asarray(v, dtype=np.float64)))
        for k, v in sorted(self.history.items()):
            arrays.append((f"history.{k}", np.asarray(v, dtype=np.float64)))
        for name, arr in arrays:
            dims = " ".join(str(d) for d in arr.shape)
            buf.write(f"array={name} {dims}".rstrip() + "\n")
        buf.write("end\n")
        with open(path, "wb") as fh:
            fh.write(buf.getvalue().encode("ascii"))
            for _, arr in arrays:
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "Checkpoint":
        with open(path, "rb") as fh:
            blob = fh.read()
        nl = blob.find(b"\nend\n")
        if nl < 0:
            raise FormatError(f"{path}: missing header terminator; not a statefx checkpoint?")
        try:
            header = blob[:nl].decode("ascii").splitlines()
        except UnicodeDecodeError as e:
            raise FormatError(f"{path}: undecodable header: {e}") from None
        body = blob[nl + len(b"\nend\n"):]
        if not header or header[0] != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad magic line; not a statefx checkpoint")
        kv: dict[str, str] = {}
        specs: list[tuple[str, tuple[int, ...]]] = []
        try:
            for line in header[1:]:
                key, _, val = line.partition("=")
                if key == "array":
                    name, *dims = val.split()
                    specs.append((name, tuple(int(d) for d in dims)))
                else:
                    kv[key] = val
            version = int(kv.get("format_version", -1))
        except ValueError as e:
            raise FormatError(f"{path}: malformed header: {e}") from None
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported format version {kv.get('format_version')!r}")
        if any(d < 0 for _, shape in specs for d in shape):
            raise FormatError(f"{path}: negative array dimension in header")
        try:
            cfg_kwargs = {"architecture": kv["architecture"]}
            for name in _CONFIG_INT_FIELDS:
                cfg_kwargs[name] = int(kv[name])
            config = ModelConfig(**cfg_kwargs)
            best_epoch = int(kv.get("best_epoch", -1))
        except KeyError as e:
            raise FormatError(f"{path}: missing header field {e}") from None
        except ValueError as e:
            raise FormatError(f"{path}: bad header value: {e}") from None

        total = sum(math.prod(shape) for _, shape in specs)
        if len(body) != 8 * total:
            raise FormatError(f"{path}: expected {8 * total} bytes of array data, found {len(body)}"
                              " (truncated or corrupt)")
        flat = np.frombuffer(body, dtype="<f8")
        params: dict[str, np.ndarray] = {}
        history: dict[str, np.ndarray] = {}
        pos = 0
        for name, shape in specs:
            size = math.prod(shape)
            try:
                arr = flat[pos:pos + size].reshape(shape).copy()
            except ValueError as e:  # a dimension numpy cannot index, beside a zero one
                raise FormatError(f"{path}: bad shape {shape} for {name}: {e}") from None
            pos += size
            if name.startswith("history."):
                history[name[len("history."):]] = arr
            else:
                params[name] = arr
        expected = Model.init(config, seed=0).params
        if set(params) != set(expected):
            missing = set(expected) - set(params)
            extra = set(params) - set(expected)
            raise FormatError(f"{path}: parameter set mismatch (missing {sorted(missing)}, "
                              f"unexpected {sorted(extra)})")
        wrong = sorted(k for k, v in expected.items() if params[k].shape != v.shape)
        if wrong:
            raise FormatError(f"{path}: wrong array shape for {wrong}")
        bad = sorted(k for k, v in params.items() if not np.all(np.isfinite(v)))
        if bad:
            raise FormatError(f"{path}: non-finite values in {bad}")
        return cls(config, params, history, best_epoch)


def check_dataset_compat(model: Model, cond_dim: int, sample_rate: int) -> None:
    if model.config.cond_dim != cond_dim:
        raise CompatibilityError(
            f"model expects {model.config.cond_dim} conditioning parameters, dataset has {cond_dim}")
    if model.config.sample_rate != sample_rate:
        raise CompatibilityError(
            f"model sample rate {model.config.sample_rate} != dataset rate {sample_rate}")
