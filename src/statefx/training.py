"""Stateful truncated backpropagation through time.

Training slices each recording into 2400-sample segments.  Recurrent state
carries across consecutive segments of the same stream, but gradients do
not: ``backward_segment`` differentiates the segment MSE with respect to
every weight while treating the incoming state as a constant, and hands
back a detached outgoing state.  The reverse-mode code here is written by
hand per recurrent layer (LSTM/ED, whose adjoint rebuilds the gates in batch
from the cached (H, C); the LRU/S4D diagonal-LTI layer with one
parameter-map VJP per architecture; S6); ``finite_difference_audit`` checks
it against central differences.

Complex-valued chains use the packed convention g_z = dL/dRe(z) +
i*dL/dIm(z), under which a product w = a*b propagates as g_a = conj(b)*g_w
and a holomorphic f gives g_z = conj(f'(z))*g_{f(z)}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import scans
from .cells import ED_KERNEL, ED_SPLIT, LSTM_UNITS, SSM_IN
from .errors import InputError, NumericError, StabilityError
from .model import ARCH, DIAG_LTI, Checkpoint, Model, windows
from .numerics import sigmoid

GradientSet = dict  # name -> array matching the weight's shape


# ---------------------------------------------------------------------------
# Loss and schedule
# ---------------------------------------------------------------------------

def loss_mse(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Mean squared difference between target and prediction."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise InputError(f"shape mismatch: {y.shape} vs {y_hat.shape}")
    if y.size == 0:
        raise InputError("loss_mse on empty input")
    return float(np.mean((y - y_hat) ** 2))


@dataclass
class TrainConfig:
    """Optimization protocol: Adam, clipped gradients, decayed rate, early stop.

    ``decay_mode`` selects how the exponential schedule lr = LR * base^e is
    applied: "staged" advances e once every ``decay_every`` epochs (default,
    keeps 200-epoch runs alive), "literal" advances it every epoch.
    """

    initial_lr: float = 3e-4
    decay_base: float = 0.25
    decay_mode: str = "staged"
    decay_every: int = 50
    max_epochs: int = 200
    patience: int = 10
    segment_len: int = 2400
    batch_size: int = 32
    clip_norm: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.decay_mode not in ("staged", "literal"):
            raise InputError(f"decay_mode must be 'staged' or 'literal', got {self.decay_mode!r}")
        for name in ("initial_lr", "decay_base", "decay_every", "max_epochs",
                     "segment_len", "batch_size", "clip_norm"):
            if getattr(self, name) <= 0:
                raise InputError(f"TrainConfig.{name} must be positive")
        if self.patience < 0:
            raise InputError("TrainConfig.patience must be >= 0")


def lr_at_epoch(cfg: TrainConfig, epoch: int) -> float:
    """Learning rate for a 0-based epoch index under cfg's decay mode."""
    if epoch < 0:
        raise InputError("epoch must be >= 0")
    e = epoch if cfg.decay_mode == "literal" else epoch // cfg.decay_every
    return cfg.initial_lr * cfg.decay_base ** e


@dataclass
class TrainHistory:
    """Per-epoch record of a run."""

    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_esr: list = field(default_factory=list)
    lr: list = field(default_factory=list)
    best_epoch: int = -1
    stop_epoch: int = -1

    def as_arrays(self) -> dict[str, np.ndarray]:
        return {
            "train_loss": np.asarray(self.train_loss, dtype=np.float64),
            "val_loss": np.asarray(self.val_loss, dtype=np.float64),
            "val_esr": np.asarray(self.val_esr, dtype=np.float64),
            "lr": np.asarray(self.lr, dtype=np.float64),
        }

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("epoch,train_loss,val_loss,val_esr,lr\n")
            for e in range(len(self.train_loss)):
                fh.write(f"{e},{self.train_loss[e]:.12g},{self.val_loss[e]:.12g},"
                         f"{self.val_esr[e]:.12g},{self.lr[e]:.12g}\n")


class TrainingDivergedError(NumericError):
    """Raised when a loss or gradient goes non-finite or the recurrence turns
    unstable; carries the history."""

    def __init__(self, message: str, history: TrainHistory):
        super().__init__(message)
        self.history = history


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def backward_segment(model: Model, state_in, segment, target, p=None):
    """Loss, exact gradients, and detached next state for one segment.

    ``segment`` and ``target`` are (L,) or (B, L); ``p`` is None or static
    per-stream conditioning ((P,) or (B, P)).  The incoming state is treated
    as a constant: gradients never cross a segment boundary.
    """
    x = np.asarray(segment, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x, t = x[None, :], t[None, :]
    if x.shape != t.shape:
        raise InputError(f"segment/target shapes differ: {x.shape} vs {t.shape}")
    B, L = x.shape
    if L == 0:
        raise InputError("backward_segment needs at least one sample")
    pn = model._check_p(p, B, L)
    if pn is not None and pn.ndim == 3:
        raise InputError("backward_segment supports static per-stream conditioning only")

    cache = {}
    y, state_out = model._forward_full(state_in, x, pn, cache)
    loss = loss_mse(t, y)
    if not np.isfinite(loss):
        raise NumericError("non-finite loss in backward_segment")
    d_y = 2.0 * (y - t) / y.size
    grads = _backward_from_cache(model, cache, d_y)
    bad = [k for k, g in grads.items() if not np.all(np.isfinite(g))]
    if bad:
        raise NumericError(f"non-finite gradient for {bad}")
    return loss, grads, state_out


def _backward_from_cache(model: Model, cache, d_y) -> GradientSet:
    prm = model.params
    cfg = model.config
    spec = ARCH[cfg.architecture]
    g: GradientSet = {}

    o_c, q1, q2, ss, q = cache["o_c"], cache["q1"], cache["q2"], cache["ss"], cache["q"]
    o_hat = cache["o_hat"]

    # output layer: y = o_c @ W_out + b_out
    g["out.W"] = np.einsum("bl,blk->k", d_y, o_c)
    g["out.b"] = np.array([d_y.sum()])
    d_oc = d_y[..., None] * prm["out.W"]

    # GLU: o_c = q1 * softsign(q2)
    d_q1 = d_oc * ss
    d_q2 = d_oc * q1 / (1.0 + np.abs(q2)) ** 2
    d_zg = np.concatenate([d_q1, d_q2], axis=-1)
    g["glu.W"] = np.einsum("blz,blk->zk", d_zg, q)
    g["glu.b"] = d_zg.sum(axis=(0, 1))
    d_q = d_zg @ prm["glu.W"]

    # FiLM: q = theta * o_hat + eta (theta static per stream)
    if cfg.cond_dim > 0:
        p = cache["p"]
        d_theta = (d_q * o_hat).sum(axis=1)
        d_eta = d_q.sum(axis=1)
        d_zf = np.concatenate([d_theta, d_eta], axis=-1)
        g["film.W"] = np.einsum("bz,bp->zp", d_zf, p)
        g["film.b"] = d_zf.sum(axis=0)
        d_ohat = d_q * cache["theta"]
    else:
        d_ohat = d_q

    # post-recurrent FC (tanh for the linear-recurrence family)
    d_post = d_ohat * (1.0 - o_hat ** 2) if spec.post_tanh else d_ohat
    o_rec = cache["o_rec"]
    g["post.W"] = np.einsum("blk,blr->kr", d_post, o_rec)
    g["post.b"] = d_post.sum(axis=(0, 1))
    d_orec = d_post @ prm["post.W"]

    win = windows(cache["x_ext"])
    d_useq = _BACKWARD[spec.scan](model, cache, win, d_orec, g)

    g["proj.W"] = np.einsum("blu,blw->uw", d_useq, win[:, :, :spec.proj_window])
    g["proj.b"] = d_useq.sum(axis=(0, 1))

    # canonical order, one gradient per weight
    return {k: g[k] for k in prm}


# Each reverses one Model._scan_*: it adds the recurrent layer's weight
# gradients to g and returns the gradient with respect to u_seq.

def _backward_lstm_family(model, cache, win, d_orec, g) -> np.ndarray:
    prm = model.params
    ch, cc = cache["cand_h"], cache["cand_c"]
    d_z, d_ch, d_cc, h_in = scans.lstm_backward(prm["lstm.W"], d_orec, cache["zin"], cache["H"],
                                                cache["C"], cache["h0"], cache["c0"], ch, cc)
    g["lstm.W"] = np.einsum("blz,blh->zh", d_z, h_in)
    g["lstm.U"] = np.einsum("blz,blu->zu", d_z, cache["u_seq"])
    g["lstm.b"] = d_z.sum(axis=(0, 1))
    if ch is not None:  # ED: the encoder maps the oldest half of each window
        blocks = win[:, :, ED_SPLIT:].reshape(win.shape[0], win.shape[1], LSTM_UNITS, ED_KERNEL)
        g["enc.kernel_h"] = np.einsum("blo,blof->f", d_ch, blocks)
        g["enc.bias_h"] = np.array([d_ch.sum()])
        g["enc.kernel_c"] = np.einsum("blo,blof->f", d_cc, blocks)
        g["enc.bias_c"] = np.array([d_cc.sum()])
    return d_z @ prm["lstm.U"]


def _backward_diag_lti(model, cache, win, d_orec, g) -> np.ndarray:
    arch = model.config.architecture
    lti, prm = DIAG_LTI[arch], model.params
    H, h0, u_seq = cache["H"], cache["h0"], cache["u_seq"]
    lam, s, M, Bbar = cache["lam"], cache["s"], cache["M"], cache["Bbar"]
    C = prm[lti.C + "_re"] + 1j * prm[lti.C + "_im"]

    # o = Re(C h) + D * u + b_o
    gC = (d_orec.transpose(0, 2, 1) @ H).sum(axis=0)
    g[lti.C + "_re"], g[lti.C + "_im"] = gC.real.copy(), -gC.imag
    if lti.b_o:
        g[lti.b_o] = d_orec.sum(axis=(0, 1))
    if lti.D:
        g[lti.D] = np.einsum("blu,blu->u", d_orec, u_seq)
    # lane-major like H, so the adjoint solve runs in place
    gh_read = (np.conj(C).T @ d_orec.transpose(0, 2, 1)).transpose(0, 2, 1)

    g_pre, g_lam = scans.diag_scan_backward(gh_read, H, h0, lam)

    # pre = (s * M) @ u + b
    if lti.b:
        gb = g_pre.sum(axis=(0, 1))
        g[lti.b + "_re"], g[lti.b + "_im"] = gb.real.copy(), gb.imag.copy()
    g_Bbar = (g_pre.transpose(0, 2, 1) @ u_seq).sum(axis=0)
    gM = np.conj(s)[:, None] * g_Bbar
    g[lti.M + "_re"], g[lti.M + "_im"] = gM.real.copy(), gM.imag.copy()
    g_s = (np.conj(M) * g_Bbar).sum(axis=1)
    d_useq = (g_pre @ np.conj(Bbar)).real
    if lti.D:
        d_useq = d_useq + d_orec * prm[lti.D]
    # Keep numpy loops after the last complex matmul: they clear the AVX
    # upper state that slows the SSE-compiled einsums (see scans._solve).
    _COEFFS_VJP[arch](model.weights(arch), lam, s, g_lam, g_s, g)
    return d_useq


def _lru_coeffs_vjp(w, lam, gamma, g_lam, g_gamma, g) -> None:
    # lambda = exp(-exp(nu) + i theta); gamma = sqrt(1 - exp(-2 exp(nu)))
    gw = np.conj(lam) * g_lam
    e_nu = np.exp(w.nu)
    g["lru.theta"] = gw.imag.copy()
    g["lru.nu"] = -gw.real * e_nu + g_gamma.real * (e_nu * np.exp(-2.0 * e_nu) / gamma)


def _s4d_coeffs_vjp(w, abar, s, g_abar, g_s, g) -> None:
    # abar = exp(delta * a); s = (abar - 1) / a
    a, delta = w.a_diag(), w.delta()
    g_abar = g_abar + g_s * np.conj(1.0 / a)
    gA = g_s * np.conj(-s / a)
    gz = np.conj(abar) * g_abar
    gA = gA + gz * delta
    g["s4d.log_neg_a_re"] = -gA.real * np.exp(w.log_neg_a_re)
    g["s4d.a_im"] = gA.imag.copy()
    g["s4d.log_delta"] = (np.conj(a) * gz).real * delta


_COEFFS_VJP = {"lru": _lru_coeffs_vjp, "s4d": _s4d_coeffs_vjp}


def _backward_s6(model, cache, win, d_orec, g) -> np.ndarray:
    w = model.weights("s6")
    H, h0, u_seq = cache["H"], cache["h0"], cache["u_seq"]
    zd, delta, abar = cache["zd"], cache["delta"], cache["abar"]
    Bv, bbar, Cv, u_rep = cache["Bv"], cache["bbar"], cache["Cv"], cache["u_rep"]
    a = w.a_diag()
    B, L, _ = u_seq.shape

    # lane-major like H, so the adjoint solve runs in place
    d_orep = np.repeat(d_orec.transpose(0, 2, 1), 2, axis=1).transpose(0, 2, 1)
    gCv = d_orep * H
    gh_read = d_orep * Cv
    g["s6.D"] = np.einsum("blu,blu->u", d_orec, u_seq)
    d_useq = d_orec * w.D

    g_pre, g_abar_t = scans.diag_scan_backward(gh_read, H, h0, abar)

    g_bbar = g_pre * u_rep
    d_useq = d_useq + (g_pre * bbar).reshape(B, L, SSM_IN, 2).sum(axis=3)

    s = (abar - 1.0) / a
    gBv = g_bbar * s
    gs = g_bbar * Bv
    g_abar_t = g_abar_t + gs / a
    gA = (gs * (-(abar - 1.0) / a ** 2)).sum(axis=(0, 1))

    gz = g_abar_t * abar
    gA = gA + (gz * delta[..., None]).sum(axis=(0, 1))
    g_delta = gz @ a
    g_zd = g_delta * sigmoid(zd)
    g["s6.W_delta"] = np.einsum("bl,blu->u", g_zd, u_seq)
    g["s6.b_delta"] = np.array([g_zd.sum()])
    d_useq = d_useq + g_zd[..., None] * w.W_delta

    g["s6.W_B"] = np.einsum("blk,blu->ku", gBv, u_seq)
    g["s6.b_B"] = gBv.sum(axis=(0, 1))
    d_useq = d_useq + gBv @ w.W_B
    g["s6.W_C"] = np.einsum("blk,blu->ku", gCv, u_seq)
    g["s6.b_C"] = gCv.sum(axis=(0, 1))
    d_useq = d_useq + gCv @ w.W_C

    g["s6.log_neg_a"] = gA * a  # dA/d(log_neg_a) = -exp(.) = a
    return d_useq


_BACKWARD = {Model._scan_lstm_family: _backward_lstm_family,
             Model._scan_diag_lti: _backward_diag_lti,
             Model._scan_s6: _backward_s6}


# ---------------------------------------------------------------------------
# Clipping and Adam
# ---------------------------------------------------------------------------

def grad_global_norm(grads: GradientSet) -> float:
    return float(np.sqrt(sum(float(np.sum(v * v)) for v in grads.values())))


def clip_grad_norm(grads: GradientSet, max_norm: float = 1.0) -> GradientSet:
    """Scale all gradients (in place) so the global L2 norm is <= max_norm."""
    norm = grad_global_norm(grads)
    if norm > max_norm:
        scale = max_norm / norm
        for v in grads.values():
            v *= scale
    return grads


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0

    @classmethod
    def for_model(cls, model: Model) -> "AdamState":
        return cls(m={k: np.zeros_like(p) for k, p in model.params.items()},
                   v={k: np.zeros_like(p) for k, p in model.params.items()})


def adam_update(params: dict, grads: GradientSet, moments: AdamState, lr: float,
                beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One bias-corrected Adam step, updating params in place."""
    moments.t += 1
    t = moments.t
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for k, p in params.items():
        gk = grads[k]
        moments.m[k] = beta1 * moments.m[k] + (1.0 - beta1) * gk
        moments.v[k] = beta2 * moments.v[k] + (1.0 - beta2) * gk * gk
        p -= lr * (moments.m[k] / bc1) / (np.sqrt(moments.v[k] / bc2) + eps)


# ---------------------------------------------------------------------------
# Streams and the training loop
# ---------------------------------------------------------------------------

@dataclass
class Stream:
    """One contiguous input/target span with its conditioning vector."""

    x: np.ndarray
    y: np.ndarray
    p: np.ndarray | None = None

    def __post_init__(self):
        if self.x.shape != self.y.shape:
            raise InputError("stream input/target lengths differ")


@dataclass
class TrainSplit:
    train: list
    val: list


def _stack_p(streams: list, cond_dim: int):
    if cond_dim == 0:
        return None
    return np.stack([s.p for s in streams])


def evaluate_streams(model: Model, streams: list, segment_len: int = 65536):
    """Streaming predictions with fresh state per stream.

    Streams of equal length are processed as one batch.  Returns
    (total squared error, total target energy, total MSE numerator count)
    folded into (mse, esr) over the whole set, plus the per-stream outputs.
    """
    outputs = [None] * len(streams)
    by_len: dict[int, list[int]] = {}
    for idx, s in enumerate(streams):
        by_len.setdefault(len(s.x), []).append(idx)
    sq_sum = 0.0
    energy = 0.0
    count = 0
    for length, idxs in by_len.items():
        xs = np.stack([streams[i].x for i in idxs])
        ps = _stack_p([streams[i] for i in idxs], model.config.cond_dim)
        state = model.init_state(batch=len(idxs))
        y, _ = model.forward_segment(state, xs, ps, chunk=segment_len)
        for row, i in enumerate(idxs):
            outputs[i] = y[row]
            d = streams[i].y - y[row]
            sq_sum += float(d @ d)
            energy += float(streams[i].y @ streams[i].y)
            count += length
    if count == 0:
        raise InputError("no samples to evaluate")
    mse = sq_sum / count
    esr = sq_sum / energy if energy > 0 else float("inf")
    return mse, esr, outputs


def train(model: Model, split: TrainSplit, cfg: TrainConfig, epoch_callback=None):
    """Run the full protocol and return (Checkpoint at best epoch, history).

    Minibatches group whole streams; consecutive segments of a stream are
    processed in order with carried state and one optimizer step per
    segment.  Validation runs after every epoch; early stopping triggers
    after ``patience`` epochs without a new best validation loss.
    ``epoch_callback(epoch, model, history)`` may return True to stop.
    """
    rng = np.random.default_rng(cfg.seed)
    moments = AdamState.for_model(model)
    history = TrainHistory()
    best_val = np.inf
    best_params = {k: v.copy() for k, v in model.params.items()}
    seg = cfg.segment_len

    usable = [s for s in split.train if len(s.x) >= seg]
    if not usable:
        raise InputError(f"no training stream holds a full {seg}-sample segment")

    for epoch in range(cfg.max_epochs):
        lr = lr_at_epoch(cfg, epoch)
        order = rng.permutation(len(usable))
        by_count: dict[int, list] = {}
        for idx in order:
            s = usable[idx]
            by_count.setdefault(len(s.x) // seg, []).append(s)

        total_loss = 0.0
        n_updates = 0
        for n_segs, streams in sorted(by_count.items()):
            for start in range(0, len(streams), cfg.batch_size):
                batch = streams[start:start + cfg.batch_size]
                xs = np.stack([s.x[:n_segs * seg] for s in batch])
                ys = np.stack([s.y[:n_segs * seg] for s in batch])
                ps = _stack_p(batch, model.config.cond_dim)
                state = model.init_state(batch=len(batch))
                for k in range(n_segs):
                    sl = slice(k * seg, (k + 1) * seg)
                    try:
                        loss, grads, state = backward_segment(model, state, xs[:, sl], ys[:, sl], ps)
                    except NumericError as e:
                        history.stop_epoch = epoch
                        raise TrainingDivergedError(str(e), history) from None
                    clip_grad_norm(grads, cfg.clip_norm)
                    adam_update(model.params, grads, moments, lr)
                    total_loss += loss
                    n_updates += 1
            try:
                model.check_stability()
            except StabilityError as e:
                history.stop_epoch = epoch
                raise TrainingDivergedError(str(e), history) from None

        mse_val, esr_val, _ = evaluate_streams(model, split.val)
        history.train_loss.append(total_loss / max(n_updates, 1))
        history.val_loss.append(mse_val)
        history.val_esr.append(esr_val)
        history.lr.append(lr)

        if not np.isfinite(mse_val):
            history.stop_epoch = epoch
            raise TrainingDivergedError("non-finite validation loss", history)

        if mse_val < best_val:
            best_val = mse_val
            history.best_epoch = epoch
            best_params = {k: v.copy() for k, v in model.params.items()}
        if epoch_callback is not None and epoch_callback(epoch, model, history):
            history.stop_epoch = epoch
            break
        if epoch - history.best_epoch > cfg.patience:
            history.stop_epoch = epoch
            break
    else:
        history.stop_epoch = cfg.max_epochs - 1

    model.params = {k: v.copy() for k, v in best_params.items()}
    ckpt = Checkpoint.from_model(model, history.as_arrays(), history.best_epoch)
    return ckpt, history


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------

def finite_difference_audit(model: Model, segment, target, p=None, eps: float = 1e-6,
                            max_coords_per_param: int | None = None, seed: int = 0):
    """Compare backward_segment to central finite differences.

    Perturbs every trainable scalar (or a random subset per array when
    ``max_coords_per_param`` caps it) by +/- eps and differentiates the
    segment MSE.  Relative error uses max(|g_fd|, |g_an|, 1e-6) in the
    denominator so structurally-zero gradients report exactly 0.  Returns
    (max relative error, {param: worst error}).
    """
    x = np.asarray(segment, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if x.ndim == 1:
        x, t = x[None, :], t[None, :]
    B, L = x.shape
    pn = model._check_p(p, B, L)
    state0 = model.init_state(batch=B)

    def loss_now() -> float:
        y, _ = model._forward_full(state0, x, pn)
        return loss_mse(t, y)

    _, grads, _ = backward_segment(model, state0, x, t, pn)
    rng = np.random.default_rng(seed)
    worst: dict[str, float] = {}
    for name, arr in model.params.items():
        flat = arr.reshape(-1)
        idxs = np.arange(flat.size)
        if max_coords_per_param is not None and flat.size > max_coords_per_param:
            idxs = rng.choice(flat.size, size=max_coords_per_param, replace=False)
        gflat = grads[name].reshape(-1)
        err = 0.0
        for j in idxs:
            keep = flat[j]
            flat[j] = keep + eps
            up = loss_now()
            flat[j] = keep - eps
            down = loss_now()
            flat[j] = keep
            fd = (up - down) / (2.0 * eps)
            denom = max(abs(fd), abs(gflat[j]), 1e-6)
            err = max(err, abs(fd - gflat[j]) / denom)
        worst[name] = err
    return max(worst.values()), worst
