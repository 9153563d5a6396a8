"""Model assembly: projection, recurrent layer, post-recurrent FC,
conditioning block, one-unit output layer, plus parameter/FLOPs accounting
and the checkpoint format.

Two inference routes exist on purpose.  ``forward_sample`` composes the
single-stream step functions from ``statefx.cells`` one sample at a time.
``forward_segment`` is the batched fast path used for training, rendering
and benchmarking.  They must agree to float rounding; the streaming
equivalence tests pin that down.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
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
    EdEncoder,
    LruWeights,
    LstmState,
    LstmWeights,
    Projection,
    S4dWeights,
    S6Weights,
    SsmState,
    softplus,
)
from .errors import (
    CompatibilityError,
    DimensionError,
    FormatError,
    InputError,
)
from .numerics import softsign

ARCHITECTURES = ("lstm", "ed", "lru", "s4d", "s6")

POST_UNITS = 4          # every variant reduces to 4 before conditioning
HIST_LEN = WINDOW_LEN - 1

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
    """Architecture choice plus conditioning size and sample rate."""

    architecture: str
    cond_dim: int = 0
    sample_rate: int = 48000

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise InputError(f"unknown architecture {self.architecture!r}; expected one of {ARCHITECTURES}")
        if self.cond_dim < 0:
            raise InputError("cond_dim must be >= 0")

    @property
    def recurrent_units(self) -> int:
        return LSTM_UNITS if self.architecture in ("lstm", "ed") else SSM_STATE

    @property
    def proj_units(self) -> int:
        return LSTM_IN if self.architecture in ("lstm", "ed") else SSM_IN

    @property
    def proj_window(self) -> int:
        return ED_SPLIT if self.architecture == "ed" else WINDOW_LEN

    @property
    def readout_units(self) -> int:
        return LSTM_UNITS if self.architecture in ("lstm", "ed") else SSM_IN

    @property
    def post_tanh(self) -> bool:
        # The linear-recurrence variants get a tanh after the post-FC to make
        # up for their activation-free recurrent layers; LSTM and ED stay linear.
        return self.architecture in ("lru", "s4d", "s6")


@dataclass
class ConditioningBlock:
    """FiLM map (absent when cond_dim = 0) followed by a softsign GLU."""

    film_W: np.ndarray | None  # (8, P) or None
    film_b: np.ndarray | None  # (8,) or None
    glu_W: np.ndarray          # (8, 4)
    glu_b: np.ndarray          # (8,)


def conditioning_apply(cb: ConditioningBlock, o: np.ndarray, p: np.ndarray | None) -> np.ndarray:
    """Condition a 4-vector on normalized parameters.

    With parameters present: theta, eta = film(p); q = theta * o + eta;
    then q1, q2 = glu(q) and the result is q1 * softsign(q2).  Without
    parameters the FiLM stage is skipped and the GLU acts on ``o`` alone.
    Parameters must lie in [0, 1].
    """
    o = np.asarray(o, dtype=np.float64)
    if o.shape != (POST_UNITS,):
        raise DimensionError(f"o must have shape ({POST_UNITS},), got {o.shape}")
    if cb.film_W is not None:
        p = np.asarray(p, dtype=np.float64)
        if p.shape != (cb.film_W.shape[1],):
            raise DimensionError(f"p must have shape ({cb.film_W.shape[1]},), got {p.shape}")
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise InputError("conditioning parameters must lie in [0, 1]")
        z = cb.film_W @ p + cb.film_b
        q = z[:POST_UNITS] * o + z[POST_UNITS:]
    else:
        q = o
    zg = cb.glu_W @ q + cb.glu_b
    return zg[:POST_UNITS] * softsign(zg[POST_UNITS:])


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
        arch = config.architecture
        p: dict[str, np.ndarray] = {}

        proj = cells.init_projection(rng, config.proj_units, config.proj_window)
        p["proj.W"], p["proj.b"] = proj.W, proj.b

        if arch in ("lstm", "ed"):
            if arch == "ed":
                enc = cells.init_ed_encoder(rng)
                p["enc.kernel_h"], p["enc.bias_h"] = enc.kernel_h, enc.bias_h
                p["enc.kernel_c"], p["enc.bias_c"] = enc.kernel_c, enc.bias_c
            lstm = cells.init_lstm(rng)
            p["lstm.W"], p["lstm.U"], p["lstm.b"] = lstm.W, lstm.U, lstm.b
        elif arch == "lru":
            lru = cells.init_lru(rng)
            p["lru.nu"], p["lru.theta"] = lru.nu, lru.theta
            p["lru.U_re"], p["lru.U_im"] = lru.U_re, lru.U_im
            p["lru.b_re"], p["lru.b_im"] = lru.b_re, lru.b_im
            p["lru.W_re"], p["lru.W_im"], p["lru.b_o"] = lru.W_re, lru.W_im, lru.b_o
        elif arch == "s4d":
            s4d = cells.init_s4d(rng)
            p["s4d.log_neg_a_re"], p["s4d.a_im"] = s4d.log_neg_a_re, s4d.a_im
            p["s4d.log_delta"] = s4d.log_delta
            p["s4d.B_re"], p["s4d.B_im"] = s4d.B_re, s4d.B_im
            p["s4d.C_re"], p["s4d.C_im"], p["s4d.D"] = s4d.C_re, s4d.C_im, s4d.D
        else:
            s6 = cells.init_s6(rng)
            p["s6.log_neg_a"] = s6.log_neg_a
            p["s6.W_delta"], p["s6.b_delta"] = s6.W_delta, s6.b_delta
            p["s6.W_B"], p["s6.b_B"] = s6.W_B, s6.b_B
            p["s6.W_C"], p["s6.b_C"], p["s6.D"] = s6.W_C, s6.b_C, s6.D

        r = config.readout_units
        bound = 1.0 / np.sqrt(r)
        p["post.W"] = rng.uniform(-bound, bound, (POST_UNITS, r))
        p["post.b"] = np.zeros(POST_UNITS)

        if config.cond_dim > 0:
            bound = 1.0 / np.sqrt(config.cond_dim)
            p["film.W"] = rng.uniform(-bound, bound, (2 * POST_UNITS, config.cond_dim))
            b = np.zeros(2 * POST_UNITS)
            b[:POST_UNITS] = 1.0  # FiLM starts as identity scaling
            p["film.b"] = b

        bound = 1.0 / np.sqrt(POST_UNITS)
        p["glu.W"] = rng.uniform(-bound, bound, (2 * POST_UNITS, POST_UNITS))
        b = np.zeros(2 * POST_UNITS)
        b[POST_UNITS:] = 1.0  # gate starts half open: softsign(1) = 0.5
        p["glu.b"] = b

        p["out.W"] = rng.uniform(-bound, bound, POST_UNITS)
        p["out.b"] = np.zeros(1)
        return cls(config, p)

    def copy(self) -> "Model":
        return Model(self.config, {k: v.copy() for k, v in self.params.items()})

    # -- weight views --------------------------------------------------------

    def projection(self) -> Projection:
        return Projection(self.params["proj.W"], self.params["proj.b"])

    def lstm_weights(self) -> LstmWeights:
        return LstmWeights(self.params["lstm.W"], self.params["lstm.U"], self.params["lstm.b"])

    def ed_encoder(self) -> EdEncoder:
        return EdEncoder(self.params["enc.kernel_h"], self.params["enc.bias_h"],
                         self.params["enc.kernel_c"], self.params["enc.bias_c"])

    def lru_weights(self) -> LruWeights:
        p = self.params
        return LruWeights(p["lru.nu"], p["lru.theta"], p["lru.U_re"], p["lru.U_im"],
                          p["lru.b_re"], p["lru.b_im"], p["lru.W_re"], p["lru.W_im"], p["lru.b_o"])

    def s4d_weights(self) -> S4dWeights:
        p = self.params
        return S4dWeights(p["s4d.log_neg_a_re"], p["s4d.a_im"], p["s4d.log_delta"],
                          p["s4d.B_re"], p["s4d.B_im"], p["s4d.C_re"], p["s4d.C_im"], p["s4d.D"])

    def s6_weights(self) -> S6Weights:
        p = self.params
        return S6Weights(p["s6.log_neg_a"], p["s6.W_delta"], p["s6.b_delta"],
                         p["s6.W_B"], p["s6.b_B"], p["s6.W_C"], p["s6.b_C"], p["s6.D"])

    def conditioning_block(self) -> ConditioningBlock:
        if self.config.cond_dim > 0:
            return ConditioningBlock(self.params["film.W"], self.params["film.b"],
                                     self.params["glu.W"], self.params["glu.b"])
        return ConditioningBlock(None, None, self.params["glu.W"], self.params["glu.b"])

    def check_stability(self) -> None:
        """Verify |multiplier| < 1 for the diagonal-LTI layers (LRU/S4D)."""
        lti = DIAG_LTI.get(self.config.architecture)
        if lti is not None:
            lti.weights(self).validate()

    # -- state ----------------------------------------------------------------

    def init_state(self, batch: int = 1) -> dict[str, np.ndarray]:
        """Fresh per-stream state: recurrent contents plus 63 samples of history."""
        arch = self.config.architecture
        state: dict[str, np.ndarray] = {"hist": np.zeros((batch, HIST_LEN))}
        if arch in ("lstm", "ed"):
            state["h"] = np.zeros((batch, LSTM_UNITS))
            state["c"] = np.zeros((batch, LSTM_UNITS))
        elif arch in ("lru", "s4d"):
            state["h"] = np.zeros((batch, SSM_STATE), dtype=np.complex128)
        else:
            state["h"] = np.zeros((batch, SSM_STATE))
        return state

    @staticmethod
    def copy_state(state: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in state.items()}

    # -- conditioning helpers -------------------------------------------------

    def _check_p(self, p, batch: int, length: int):
        """Normalize p to (B, P) for static or (B, L, P) for scheduled values."""
        P = self.config.cond_dim
        if P == 0:
            return None
        if p is None:
            raise InputError(f"model expects {P} conditioning parameters, got none")
        p = np.asarray(p, dtype=np.float64)
        if p.ndim == 1 and p.shape == (P,):
            p = np.broadcast_to(p, (batch, P)).copy()
        elif p.ndim == 2 and p.shape == (batch, P):
            pass
        elif p.ndim == 2 and p.shape == (length, P) and batch == 1:
            p = p[None, :, :]
        elif p.ndim == 3 and p.shape == (batch, length, P):
            pass
        else:
            raise DimensionError(f"conditioning shape {p.shape} incompatible with P={P}, batch={batch}")
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise InputError("conditioning parameters must lie in [0, 1]")
        return p

    # -- single-sample route ----------------------------------------------------

    def forward_sample(self, state: dict[str, np.ndarray], window: np.ndarray, p=None):
        """One output sample from one explicit 64-sample window (newest first).

        Composes the reference step functions from statefx.cells.  The
        window history in ``state`` is neither read nor advanced here; use
        forward_segment for stream processing.
        """
        if state is None:
            raise InputError("state not initialized; call init_state() first")
        if state["h"].shape[0] != 1:
            raise InputError("forward_sample works on single-stream state (batch 1)")
        window = np.asarray(window, dtype=np.float64)
        if window.shape != (WINDOW_LEN,):
            raise DimensionError(f"window must have shape ({WINDOW_LEN},), got {window.shape}")
        P = self.config.cond_dim
        pvec = None
        if P:
            pvec = np.asarray(p, dtype=np.float64).reshape(-1) if p is not None else None
            if pvec is None or pvec.shape != (P,):
                raise DimensionError(f"p must have shape ({P},)")

        arch = self.config.architecture
        new_state = self.copy_state(state)
        if arch == "lstm":
            u = cells.project_input(self.projection(), window)
            st, o_rec = cells.lstm_step(self.lstm_weights(), LstmState(state["h"][0], state["c"][0]), u)
            new_state["h"], new_state["c"] = st.h[None, :], st.c[None, :]
        elif arch == "ed":
            u = cells.project_input(self.projection(), window[:ED_SPLIT])
            cand_h, cand_c = cells.ed_encode(self.ed_encoder(), window[ED_SPLIT:])
            merged = cells.ed_state_merge(LstmState(state["h"][0], state["c"][0]), cand_h, cand_c)
            st, o_rec = cells.lstm_step(self.lstm_weights(), merged, u)
            new_state["h"], new_state["c"] = st.h[None, :], st.c[None, :]
        elif arch == "lru":
            u = cells.project_input(self.projection(), window)
            st, o_rec = cells.lru_step(self.lru_weights(), cells.LruState(state["h"][0]), u)
            new_state["h"] = st.h[None, :]
        elif arch == "s4d":
            u = cells.project_input(self.projection(), window)
            st, o_rec = cells.s4d_step(self.s4d_weights(), SsmState(state["h"][0]), u)
            new_state["h"] = st.h[None, :]
        else:
            u = cells.project_input(self.projection(), window)
            st, o_rec = cells.s6_step(self.s6_weights(), SsmState(state["h"][0]), u)
            new_state["h"] = st.h[None, :]

        pre = self.params["post.W"] @ o_rec + self.params["post.b"]
        o_hat = np.tanh(pre) if self.config.post_tanh else pre
        o_c = conditioning_apply(self.conditioning_block(), o_hat, pvec)
        y = float(self.params["out.W"] @ o_c + self.params["out.b"][0])
        return y, new_state

    # -- batched segment route ---------------------------------------------------

    def forward_segment(self, state: dict[str, np.ndarray], x: np.ndarray, p=None,
                        chunk: int = 65536):
        """Stream new samples through the model, carrying state.

        ``x`` is (L,) or (B, L) of new input samples; the 63 samples of
        context at the segment start come from the history held in
        ``state``.  Returns (y, new_state) with y shaped like x.  Output is
        identical to L successive forward_sample calls on sliding windows.
        """
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
        pfull = self._check_p(p, B, L)
        if L == 0:
            y = np.empty((B, 0))
            return (y[0] if squeeze else y), self.copy_state(state)

        ys = []
        cur = state
        for start in range(0, L, chunk):
            sl = slice(start, min(start + chunk, L))
            pc = pfull
            if pfull is not None and pfull.ndim == 3:
                pc = pfull[:, sl, :]
            y, cur, _ = self._forward_full(cur, x[:, sl], pc, want_cache=False)
            ys.append(y)
        y = np.concatenate(ys, axis=1) if len(ys) > 1 else ys[0]
        return (y[0], cur) if squeeze else (y, cur)

    def _forward_full(self, state, x, p, want_cache: bool):
        """Batched forward over one contiguous chunk; optionally cache for backprop.

        ``p`` is already normalized: None, (B, P) static, or (B, L, P)
        scheduled.  Returns (y (B, L), new_state, cache or None).
        """
        cfg = self.config
        arch = cfg.architecture
        B, L = x.shape
        prm = self.params

        ext = np.concatenate([state["hist"], x], axis=1)
        win = np.lib.stride_tricks.sliding_window_view(ext, WINDOW_LEN, axis=1)[:, :, ::-1]

        if arch == "ed":
            u_seq = win[:, :, :ED_SPLIT] @ prm["proj.W"].T + prm["proj.b"]
        else:
            u_seq = win @ prm["proj.W"].T + prm["proj.b"]

        cache = {"x_ext": ext, "u_seq": u_seq} if want_cache else None
        new_state = {"hist": ext[:, -HIST_LEN:].copy()}

        if arch in ("lstm", "ed"):
            o_rec, hc = self._scan_lstm_family(arch, state, u_seq, win, cache)
            new_state["h"], new_state["c"] = hc
        elif arch in DIAG_LTI:
            o_rec, h_last = self._scan_diag_lti(DIAG_LTI[arch], state, u_seq, cache)
            new_state["h"] = h_last
        else:
            o_rec, h_last = self._scan_s6(state, u_seq, cache)
            new_state["h"] = h_last

        post_pre = o_rec @ prm["post.W"].T + prm["post.b"]
        o_hat = np.tanh(post_pre) if cfg.post_tanh else post_pre

        if cfg.cond_dim > 0:
            zf = p @ prm["film.W"].T + prm["film.b"]
            theta, eta = zf[..., :POST_UNITS], zf[..., POST_UNITS:]
            if zf.ndim == 2:  # static conditioning: broadcast over time
                theta, eta = theta[:, None, :], eta[:, None, :]
            q = theta * o_hat + eta
        else:
            theta = None
            q = o_hat
        zg = q @ prm["glu.W"].T + prm["glu.b"]
        q1, q2 = zg[..., :POST_UNITS], zg[..., POST_UNITS:]
        ss = q2 / (1.0 + np.abs(q2))
        o_c = q1 * ss
        y = o_c @ prm["out.W"] + prm["out.b"][0]

        if want_cache:
            cache.update(o_rec=o_rec, o_hat=o_hat, q=q, q1=q1, q2=q2, ss=ss,
                         o_c=o_c, y=y, p=p, theta=theta)
            if cfg.post_tanh:
                cache["post_pre"] = post_pre
        return y, new_state, cache

    # -- per-architecture scans ---------------------------------------------------

    def _scan_lstm_family(self, arch, state, u_seq, win, cache):
        prm = self.params
        B, L, _ = u_seq.shape
        zin = u_seq @ prm["lstm.U"].T + prm["lstm.b"]
        ch = cc = None
        if arch == "ed":
            blocks = win[:, :, ED_SPLIT:].reshape(B, L, 8, cells.ED_KERNEL)
            ch = blocks @ prm["enc.kernel_h"] + prm["enc.bias_h"][0]
            cc = blocks @ prm["enc.kernel_c"] + prm["enc.bias_c"][0]
        H, h, c, scan_cache = scans.lstm_forward(prm["lstm.W"], zin, state["h"], state["c"],
                                                 ch, cc, want_cache=cache is not None)
        if cache is not None:
            cache.update(scan_cache)
            if arch == "ed":
                cache.update(cand_h=ch, cand_c=cc)
        return H, (h, c)

    # The linear-recurrence scans keep (B, L, n) shapes but allocate their
    # per-step arrays lane-major ((B, n, L) memory, seen through a transposed
    # view), so that scans.diag_scan solves in place and elementwise products
    # of those arrays stay lane-major too.  LRU and S4D share one diagonal-LTI
    # layer (see DiagLti); only S6, whose coefficients vary per step, has its own.

    def _scan_diag_lti(self, lti, state, u_seq, cache):
        prm = self.params
        lam, s = lti.weights(self).coeffs()
        M = prm[lti.M + "_re"] + 1j * prm[lti.M + "_im"]
        Bbar = s[:, None] * M
        pre = Bbar @ u_seq.transpose(0, 2, 1)
        if lti.b:
            pre += (prm[lti.b + "_re"] + 1j * prm[lti.b + "_im"])[:, None]
        H = scans.diag_scan(state["h"], lam, pre.transpose(0, 2, 1))
        o_rec = np.real(H @ (prm[lti.C + "_re"] + 1j * prm[lti.C + "_im"]).T)
        if lti.D:
            o_rec = o_rec + prm[lti.D] * u_seq
        if lti.b_o:
            o_rec = o_rec + prm[lti.b_o]
        if cache is not None:
            cache.update(H=H, h0=state["h"].copy(), lam=lam, s=s, M=M, Bbar=Bbar)
        return o_rec, H[:, -1].copy()

    def _scan_s6(self, state, u_seq, cache):
        w = self.s6_weights()
        B, L, _ = u_seq.shape
        a = w.a_diag()
        ut = u_seq.transpose(0, 2, 1)
        zd = u_seq @ w.W_delta + w.b_delta[0]
        delta = softplus(zd)
        abar = np.exp(a[:, None] * delta[:, None, :]).transpose(0, 2, 1)
        Bv = (w.W_B @ ut + w.b_B[:, None]).transpose(0, 2, 1)
        bbar = (abar - 1.0) / a * Bv
        Cv = (w.W_C @ ut + w.b_C[:, None]).transpose(0, 2, 1)
        u_rep = np.repeat(ut, 2, axis=1).transpose(0, 2, 1)
        pre = bbar * u_rep
        H = scans.diag_scan(state["h"], abar, pre)
        o_rec = (Cv * H).reshape(B, L, SSM_IN, 2).sum(axis=3) + w.D * u_seq
        if cache is not None:
            cache.update(H=H, h0=state["h"].copy(), zd=zd, delta=delta,
                         abar=abar, Bv=Bv, bbar=bbar, Cv=Cv, u_rep=u_rep)
        return o_rec, H[:, -1].copy()

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
        proj = _dense(cfg.proj_units, cfg.proj_window)
        rec = _recurrent_flops(cfg.architecture)
        post = _dense(POST_UNITS, cfg.readout_units) + (POST_UNITS * _ACT if cfg.post_tanh else 0)
        cond = _conditioning_flops(cfg.cond_dim)
        out = _dense(1, POST_UNITS)
        total = proj + rec + post + cond + out
        return FlopsBreakdown(
            projection=proj, recurrent_layer=rec, post_fc=post,
            conditioning_block=cond, output_layer=out, total=total,
            convention=FLOPS_CONVENTION,
            reference_total=REFERENCE_FLOPS_TOTAL[cfg.architecture],
        )


@dataclass(frozen=True)
class DiagLti:
    """How LRU and S4D name their weights as one diagonal-LTI layer.

        h_t = lam * h_{t-1} + (s * M) u_t + b,   o_t = Re(C h_t) + D * u_t + b_o

    ``weights`` returns the architecture's cells view, whose ``coeffs()``
    maps its per-channel parameters to (lam, s).  M, C and b are complex,
    stored as ``<name>_re``/``<name>_im``; a term the layer lacks is None.
    """

    weights: Callable[[Model], LruWeights | S4dWeights]
    M: str
    C: str
    b: str | None = None
    b_o: str | None = None
    D: str | None = None


DIAG_LTI = {
    "lru": DiagLti(Model.lru_weights, M="lru.U", C="lru.W", b="lru.b", b_o="lru.b_o"),
    "s4d": DiagLti(Model.s4d_weights, M="s4d.B", C="s4d.C", D="s4d.D"),
}


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

        total = sum(int(np.prod(shape)) if shape else 1 for _, shape in specs)
        if len(body) != 8 * total:
            raise FormatError(f"{path}: expected {8 * total} bytes of array data, found {len(body)}"
                              " (truncated or corrupt)")
        flat = np.frombuffer(body, dtype="<f8")
        params: dict[str, np.ndarray] = {}
        history: dict[str, np.ndarray] = {}
        pos = 0
        for name, shape in specs:
            size = int(np.prod(shape)) if shape else 1
            arr = flat[pos:pos + size].reshape(shape).copy()
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


def save_checkpoint(model: Model, path, history=None, best_epoch: int = -1) -> None:
    Checkpoint.from_model(model, history, best_epoch).save(path)


def load_checkpoint(path) -> Model:
    return Checkpoint.load(path).to_model()


def check_dataset_compat(model: Model, cond_dim: int, sample_rate: int) -> None:
    if model.config.cond_dim != cond_dim:
        raise CompatibilityError(
            f"model expects {model.config.cond_dim} conditioning parameters, dataset has {cond_dim}")
    if model.config.sample_rate != sample_rate:
        raise CompatibilityError(
            f"model sample rate {model.config.sample_rate} != dataset rate {sample_rate}")
