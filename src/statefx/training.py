"""Stateful truncated backpropagation through time.

Training slices each recording into 2400-sample segments.  Recurrent state
carries across consecutive segments of the same stream, but gradients do
not: ``backward_segment`` differentiates the segment MSE with respect to
every weight while treating the incoming state as a constant, and hands
back a detached outgoing state.  Minibatches group whole streams; each
segment takes one Adam step on globally clipped gradients, the learning
rate decays exponentially, and validation after every epoch drives early
stopping.  The gradients come from the pullbacks in ``statefx.model``;
``finite_difference_audit`` checks them against central differences.
Both pass their inputs through the check ``Model.forward_segment`` makes
(a state, 1-d or 2-d samples, equal batches, conditioning shape and range),
so a malformed call raises the same typed error on every route.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericError, StabilityError, check_int
from .model import Checkpoint, Model

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


# The fixed protocol: lr = initial_lr * DECAY_BASE^e, global gradient norm
# clipped to CLIP_NORM, and Adam with the usual moments and epsilon.
DECAY_BASE = 0.25
DECAY_EVERY = 50
DECAY_MODES = ("staged", "literal")
CLIP_NORM = 1.0
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    """Optimization protocol: Adam, clipped gradients, decayed rate, early stop.

    ``decay_mode`` selects how the exponential schedule lr = LR * DECAY_BASE^e
    is applied: "staged" advances e once every ``DECAY_EVERY`` epochs
    (default, keeps 200-epoch runs alive), "literal" advances it every epoch.
    """

    initial_lr: float = 3e-4
    decay_mode: str = "staged"
    max_epochs: int = 200
    patience: int = 10
    segment_len: int = 2400
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.decay_mode not in DECAY_MODES:
            raise InputError(f"decay_mode must be one of {DECAY_MODES}, got {self.decay_mode!r}")
        if not 0 < self.initial_lr < np.inf:  # NaN fails too
            raise InputError("TrainConfig.initial_lr must be positive and finite")
        for name in ("max_epochs", "segment_len", "batch_size"):
            check_int(getattr(self, name), f"TrainConfig.{name}", 1)
        for name in ("patience", "seed"):
            check_int(getattr(self, name), f"TrainConfig.{name}")


def lr_at_epoch(cfg: TrainConfig, epoch: int) -> float:
    """Learning rate for a 0-based epoch index under cfg's decay mode."""
    if epoch < 0:
        raise InputError("epoch must be >= 0")
    e = epoch if cfg.decay_mode == "literal" else epoch // DECAY_EVERY
    return cfg.initial_lr * DECAY_BASE ** e


@dataclass
class TrainHistory:
    """Per-epoch record of a run: one value per epoch in each of ``SERIES``."""

    SERIES = ("train_loss", "val_loss", "val_esr", "lr")

    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_esr: list = field(default_factory=list)
    lr: list = field(default_factory=list)
    best_epoch: int = -1
    stop_epoch: int = -1

    def as_arrays(self) -> dict[str, np.ndarray]:
        return {name: np.asarray(getattr(self, name), dtype=np.float64) for name in self.SERIES}

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(("epoch",) + self.SERIES) + "\n")
            for e, row in enumerate(zip(*(getattr(self, name) for name in self.SERIES))):
                fh.write(",".join([str(e)] + [f"{v:.12g}" for v in row]) + "\n")


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
    per-stream conditioning ((P,) or (B, P)); they pass the input check of
    ``Model.forward_segment``, and ``target`` must match ``segment``.  The
    incoming state is treated as a constant: gradients never cross a
    segment boundary.
    """
    x, pn, squeeze = model._batch_inputs(state_in, segment, p)
    t = np.asarray(target, dtype=np.float64)
    if squeeze:
        t = t[None]
    if x.shape != t.shape:
        raise InputError(f"segment/target shapes differ: {x.shape} vs {t.shape}")
    if x.shape[1] == 0:
        raise InputError("backward_segment needs at least one sample")
    if pn is not None and pn.ndim == 3:
        raise InputError("backward_segment supports static per-stream conditioning only")

    y, state_out, pullback = model._forward_full(state_in, x, pn)
    loss = loss_mse(t, y)
    if not np.isfinite(loss):
        raise NumericError("non-finite loss in backward_segment")
    grads = pullback(2.0 * (y - t) / y.size)
    bad = [k for k, g in grads.items() if not np.all(np.isfinite(g))]
    if bad:
        raise NumericError(f"non-finite gradient for {bad}")
    return loss, grads, state_out


# ---------------------------------------------------------------------------
# Clipping and Adam
# ---------------------------------------------------------------------------

def grad_global_norm(grads: GradientSet) -> float:
    return float(np.sqrt(sum(float(np.sum(v * v)) for v in grads.values())))


def clip_grad_norm(grads: GradientSet) -> GradientSet:
    """Scale all gradients (in place) so the global L2 norm is <= CLIP_NORM."""
    norm = grad_global_norm(grads)
    if norm > CLIP_NORM:
        scale = CLIP_NORM / norm
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


def adam_update(params: dict, grads: GradientSet, moments: AdamState, lr: float) -> None:
    """One bias-corrected Adam step, updating params in place."""
    moments.t += 1
    t = moments.t
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for k, p in params.items():
        gk = grads[k]
        moments.m[k] = ADAM_BETA1 * moments.m[k] + (1.0 - ADAM_BETA1) * gk
        moments.v[k] = ADAM_BETA2 * moments.v[k] + (1.0 - ADAM_BETA2) * gk * gk
        p -= lr * (moments.m[k] / bc1) / (np.sqrt(moments.v[k] / bc2) + ADAM_EPS)


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


def evaluate_streams(model: Model, streams: list):
    """Streaming predictions with fresh state per stream.

    Returns (pooled MSE, pooled ESR, per-stream outputs): squared error and
    target energy are summed over every sample of every stream, and the ESR
    is ``inf`` when the targets hold no energy.  Streams of equal length run
    together, in batches of at most ``TrainConfig.batch_size`` (32) lanes.
    """
    outputs = [None] * len(streams)
    by_len: dict[int, list[int]] = {}
    for idx, s in enumerate(streams):
        by_len.setdefault(len(s.x), []).append(idx)
    batches = [idxs[a:a + TrainConfig.batch_size] for idxs in by_len.values()
               for a in range(0, len(idxs), TrainConfig.batch_size)]
    sq_sum = 0.0
    energy = 0.0
    count = 0
    for idxs in batches:
        xs = np.stack([streams[i].x for i in idxs])
        ps = _stack_p([streams[i] for i in idxs], model.config.cond_dim)
        state = model.init_state(batch=len(idxs))
        y, _ = model.forward_segment(state, xs, ps)
        for row, i in enumerate(idxs):
            outputs[i] = y[row]
            d = streams[i].y - y[row]
            sq_sum += float(d @ d)
            energy += float(streams[i].y @ streams[i].y)
            count += len(streams[i].x)
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
    best_params = model.copy().params
    seg = cfg.segment_len

    usable = [s for s in split.train if len(s.x) >= seg]
    if not usable:
        raise InputError(f"no training stream holds a full {seg}-sample segment")

    for epoch in range(cfg.max_epochs):
        history.stop_epoch = epoch
        lr = lr_at_epoch(cfg, epoch)
        order = rng.permutation(len(usable))
        by_count: dict[int, list] = {}
        for idx in order:
            s = usable[idx]
            by_count.setdefault(len(s.x) // seg, []).append(s)

        total_loss = 0.0
        n_updates = 0
        try:
            for n_segs, streams in sorted(by_count.items()):
                for start in range(0, len(streams), cfg.batch_size):
                    batch = streams[start:start + cfg.batch_size]
                    xs = np.stack([s.x[:n_segs * seg] for s in batch])
                    ys = np.stack([s.y[:n_segs * seg] for s in batch])
                    ps = _stack_p(batch, model.config.cond_dim)
                    state = model.init_state(batch=len(batch))
                    for k in range(n_segs):
                        sl = slice(k * seg, (k + 1) * seg)
                        loss, grads, state = backward_segment(model, state, xs[:, sl], ys[:, sl], ps)
                        clip_grad_norm(grads)
                        adam_update(model.params, grads, moments, lr)
                        total_loss += loss
                        n_updates += 1
                model.check_stability()
            mse_val, esr_val, _ = evaluate_streams(model, split.val)
            history.train_loss.append(total_loss / max(n_updates, 1))
            history.val_loss.append(mse_val)
            history.val_esr.append(esr_val)
            history.lr.append(lr)
            if not np.isfinite(mse_val):
                raise NumericError("non-finite validation loss")
        except (NumericError, StabilityError) as e:
            raise TrainingDivergedError(str(e), history) from None

        if mse_val < best_val:
            best_val = mse_val
            history.best_epoch = epoch
            best_params = model.copy().params
        if epoch_callback is not None and epoch_callback(epoch, model, history):
            break
        if epoch - history.best_epoch > cfg.patience:
            break

    model.params = best_params
    ckpt = Checkpoint.from_model(model, history.as_arrays(), history.best_epoch)
    return ckpt, history


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------

def finite_difference_audit(model: Model, segment, target, p=None, eps: float = 1e-6,
                            max_coords_per_param: int | None = None):
    """Compare backward_segment to central finite differences.

    Perturbs every trainable scalar (or a subset per array, drawn from a
    fixed seed, when ``max_coords_per_param`` caps it) by +/- eps and
    differentiates the segment MSE.  Relative error uses max(|g_fd|,
    |g_an|, 1e-6) in the denominator so structurally-zero gradients
    report exactly 0.  Returns (max relative error, {param: worst error}).
    The losses come from ``Model.forward_segment`` and the gradients from
    ``backward_segment``, so the audit makes the checks they make.
    """
    x = np.asarray(segment, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    state0 = model.init_state(batch=len(x) if x.ndim == 2 else 1)

    def loss_now() -> float:
        return loss_mse(t, model.forward_segment(state0, x, p)[0])

    _, grads, _ = backward_segment(model, state0, x, t, p)
    rng = np.random.default_rng(0)
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
