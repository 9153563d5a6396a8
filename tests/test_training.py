import tracemalloc

import numpy as np
import pytest

from statefx.data import build_dataset, get_effect, make_split_compositions, resolve_composition
from statefx.errors import DimensionError, InputError, NumericError, StabilityError
from statefx.model import ARCHITECTURES, Model, ModelConfig
from statefx.training import (
    AdamState,
    Stream,
    TrainConfig,
    TrainingDivergedError,
    TrainSplit,
    adam_update,
    backward_segment,
    clip_grad_norm,
    evaluate_streams,
    finite_difference_audit,
    grad_global_norm,
    loss_mse,
    lr_at_epoch,
    train,
)

RNG = np.random.default_rng(7)


# ---------------------------------------------------------------------------
# loss and schedule
# ---------------------------------------------------------------------------

def test_loss_mse_values():
    y = np.array([1.0, 0.0])
    assert loss_mse(y, y) == 0.0
    assert loss_mse(y, np.zeros(2)) == pytest.approx(0.5)
    a = RNG.normal(size=50)
    b = RNG.normal(size=50)
    assert loss_mse(3 * a, 3 * b) == pytest.approx(9 * loss_mse(a, b))
    with pytest.raises(InputError):
        loss_mse(np.array([]), np.array([]))


def test_lr_schedule_literal_formula():
    cfg = TrainConfig(decay_mode="literal")
    assert lr_at_epoch(cfg, 0) == pytest.approx(3e-4)
    assert lr_at_epoch(cfg, 1) == pytest.approx(7.5e-5)
    assert lr_at_epoch(cfg, 2) == pytest.approx(1.875e-5)


@pytest.mark.parametrize("field", ["initial_lr", "segment_len", "batch_size"])
@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
def test_train_config_rejects_nonpositive_or_nonfinite(field, value):
    with pytest.raises(InputError, match=field):
        TrainConfig(**{field: value})


MAKERS = {"TrainConfig": TrainConfig,
          "ModelConfig": lambda **kw: ModelConfig("lstm", **kw),
          "Model.init": lambda seed: Model.init(ModelConfig("lstm"), seed)}


@pytest.mark.parametrize("make, field, value", [
    ("TrainConfig", "segment_len", 2400.5), ("TrainConfig", "segment_len", True),
    ("TrainConfig", "batch_size", 2.5), ("TrainConfig", "max_epochs", 1.5),
    ("TrainConfig", "patience", 0.5), ("TrainConfig", "seed", 1.5), ("TrainConfig", "seed", -1),
    ("ModelConfig", "cond_dim", 1.5), ("ModelConfig", "cond_dim", True),
    ("ModelConfig", "sample_rate", 0), ("ModelConfig", "sample_rate", -1),
    ("ModelConfig", "sample_rate", 44100.5),
    ("Model.init", "seed", -1), ("Model.init", "seed", 0.5)])
def test_configs_reject_fractional_boolean_and_negative_counts(make, field, value):
    # checked on construction: these used to fail later with a raw TypeError
    # or ValueError, or (segment_len=True) to train on 1-sample segments
    with pytest.raises(InputError, match=field):
        MAKERS[make](**{field: value})
    MAKERS[make](**{field: np.int64(1)})  # numpy integers are integers


def test_lr_schedule_staged_default():
    cfg = TrainConfig()
    assert cfg.decay_mode == "staged"
    assert lr_at_epoch(cfg, 0) == lr_at_epoch(cfg, 49) == pytest.approx(3e-4)
    assert lr_at_epoch(cfg, 50) == pytest.approx(7.5e-5)
    assert lr_at_epoch(cfg, 150) == pytest.approx(3e-4 * 0.25 ** 3)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_zero_weight_model_gradient_structure():
    m = Model.init(ModelConfig("lstm", cond_dim=0), seed=0)
    for k in m.params:
        m.params[k][:] = 0.0
    x = RNG.uniform(-1, 1, 64)
    target = np.zeros(64)
    loss, grads, _ = backward_segment(m, m.init_state(1), x, target)
    assert loss == 0.0
    # y = b_out = 0 everywhere; d y / d b_out = 1, loss gradient = 2*mean(y - t) = 0
    assert np.allclose(grads["out.b"], 0.0)
    # every gradient must vanish at this all-zero stationary structure
    assert grad_global_norm(grads) == 0.0
    m.params["out.b"][0] = 0.5
    loss, grads, _ = backward_segment(m, m.init_state(1), x, target)
    assert loss == pytest.approx(0.25)
    assert grads["out.b"][0] == pytest.approx(2.0 * 0.5)


# with FiLM (ids as before) and without it ("-nofilm"), where the GLU
# gradient passes straight to the post-FC
@pytest.mark.parametrize("arch, cond_dim", [(a, c) for c in (2, 0) for a in ARCHITECTURES],
                         ids=[a + ("" if c else "-nofilm") for c in (2, 0) for a in ARCHITECTURES])
def test_gradients_match_finite_differences(arch, cond_dim):
    rng = np.random.default_rng(ARCHITECTURES.index(arch))  # fixed per architecture
    m = Model.init(ModelConfig(arch, cond_dim=cond_dim), seed=13)
    x = rng.uniform(-0.9, 0.9, 64)
    t = rng.uniform(-0.9, 0.9, 64)
    p = rng.uniform(0, 1, cond_dim) if cond_dim else None
    err, _ = finite_difference_audit(m, x, t, p, eps=1e-6)
    assert err < 1e-4, f"{arch}: max fd error {err:.3e}"


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_gradients_through_carried_state_match_finite_differences(arch):
    # two lanes entering with the state a previous segment left behind, so the
    # adjoint's use of the incoming state (the h0 term of a multiplier
    # gradient, the first step of a gate rebuild) and the sums over lanes
    # are exercised; finite_difference_audit starts from a zero state
    rng = np.random.default_rng(21)
    m = Model.init(ModelConfig(arch, cond_dim=2), seed=17)
    p = rng.uniform(0, 1, (2, 2))
    _, state = m.forward_segment(m.init_state(2), rng.uniform(-0.9, 0.9, (2, 300)), p)
    assert np.all(np.abs(state["h"]) > 0)
    x = rng.uniform(-0.9, 0.9, (2, 64))
    t = rng.uniform(-0.9, 0.9, (2, 64))
    _, grads, _ = backward_segment(m, state, x, t, p)

    def loss_now():
        y, _ = m.forward_segment(state, x, p)
        return loss_mse(t, y)

    eps = 1e-6
    for name, arr in m.params.items():
        flat = arr.reshape(-1)
        g = grads[name].reshape(-1)
        for j in rng.choice(flat.size, size=min(flat.size, 12), replace=False):
            keep = flat[j]
            flat[j] = keep + eps
            up = loss_now()
            flat[j] = keep - eps
            down = loss_now()
            flat[j] = keep
            fd = (up - down) / (2.0 * eps)
            assert abs(fd - g[j]) <= 1e-4 * max(abs(fd), abs(g[j]), 1e-6), (name, j, fd, g[j])


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_batched_gradients_equal_mean_of_lane_gradients(arch):
    # the loss is the mean over lanes of each lane's mean, so the batched
    # weight gradients, summed over lanes and steps in one product, must be
    # the mean of the single-lane gradients to rounding
    rng = np.random.default_rng(31)
    m = Model.init(ModelConfig(arch, cond_dim=2), seed=19)
    B = 3
    p = rng.uniform(0, 1, (B, 2))
    _, state = m.forward_segment(m.init_state(B), rng.uniform(-0.9, 0.9, (B, 200)), p)
    x = rng.uniform(-0.9, 0.9, (B, 300))
    t = rng.uniform(-0.9, 0.9, (B, 300))
    _, grads, _ = backward_segment(m, state, x, t, p)
    lanes = [backward_segment(m, {k: v[b:b + 1] for k, v in state.items()}, x[b:b + 1],
                              t[b:b + 1], p[b:b + 1])[1] for b in range(B)]
    for name, g in grads.items():
        mean = sum(lane[name] for lane in lanes) / B
        assert np.max(np.abs(g - mean)) <= 1e-12 * np.max(np.abs(mean)), name


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_backward_segment_peak_memory_per_lane_sample(arch):
    # one training step holds at most 1.25 KB per lane-sample at its peak
    # (3 lanes x 2400 samples: 9.0 MB), counted by tracemalloc over numpy's
    # allocations; the second call runs with every cache warm
    rng = np.random.default_rng(5)
    m = Model.init(ModelConfig(arch, cond_dim=2), seed=3)
    B, L = 3, 2400
    x = rng.uniform(-0.9, 0.9, (B, L))
    t = np.tanh(2.0 * x)
    p = rng.uniform(0, 1, (B, 2))
    state = m.init_state(B)
    backward_segment(m, state, x, t, p)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        backward_segment(m, state, x, t, p)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1250 * B * L, f"{peak / (B * L):.0f} bytes per lane-sample"


@pytest.mark.parametrize("arch", ["lstm", "lru"])
def test_empty_segment_rejected(arch):
    m = Model.init(ModelConfig(arch, cond_dim=0), seed=1)
    with pytest.raises(InputError):
        backward_segment(m, m.init_state(2), np.zeros((2, 0)), np.zeros((2, 0)))
    with pytest.raises(InputError):
        finite_difference_audit(m, np.zeros(0), np.zeros(0))


@pytest.mark.parametrize("call, error", [
    (lambda m: backward_segment(m, None, np.zeros(64), np.zeros(64)), InputError),
    (lambda m: backward_segment(m, m.init_state(1), np.float64(0.5), np.float64(0.5)), DimensionError),
    (lambda m: backward_segment(m, m.init_state(1), np.zeros((1, 2, 64)), np.zeros((1, 2, 64))),
     DimensionError),
    (lambda m: finite_difference_audit(m, np.float64(0.5), np.float64(0.5)), DimensionError),
    (lambda m: finite_difference_audit(m, np.zeros((1, 2, 64)), np.zeros((1, 2, 64))), DimensionError),
], ids=["backward-no-state", "backward-0d", "backward-3d", "audit-0d", "audit-3d"])
def test_malformed_batched_call_raises_typed_error(call, error):
    # the checks forward_segment makes hold for the gradient routes too
    m = Model.init(ModelConfig("lru", cond_dim=0), seed=1)
    with pytest.raises(error):
        call(m)


def test_fd_error_shrinks_with_eps():
    # halving eps in the truncation-dominated regime shrinks the error
    # (below ~1e-5 the roundoff floor takes over instead)
    m = Model.init(ModelConfig("s4d", cond_dim=0), seed=2)
    x = RNG.uniform(-0.9, 0.9, 64)
    t = RNG.uniform(-0.9, 0.9, 64)
    e1, _ = finite_difference_audit(m, x, t, eps=2e-2, max_coords_per_param=6)
    e2, _ = finite_difference_audit(m, x, t, eps=1e-2, max_coords_per_param=6)
    assert e2 < e1 or e2 < 1e-4


def test_truncation_gradients_independent_of_later_segments():
    m = Model.init(ModelConfig("lru", cond_dim=0), seed=4)
    x = RNG.uniform(-1, 1, 4800)
    t = RNG.uniform(-1, 1, 4800)
    s0 = m.init_state(1)
    l1, g1, s1 = backward_segment(m, s0, x[:2400], t[:2400])
    l2, g2, s2 = backward_segment(m, s1, x[2400:], t[2400:])
    # recompute the first segment as if the second never existed
    l1b, g1b, _ = backward_segment(m, m.init_state(1), x[:2400], t[:2400])
    assert l1 == l1b
    for k in g1:
        assert np.array_equal(g1[k], g1b[k])
    # and the second segment's gradients depend only on the carried state
    l2b, g2b, _ = backward_segment(m, s1, x[2400:], t[2400:])
    for k in g2:
        assert np.array_equal(g2[k], g2b[k])


def test_backward_segment_nonfinite_loss_raises():
    m = Model.init(ModelConfig("lstm", cond_dim=0), seed=0)
    m.params["out.W"][:] = np.nan
    with pytest.raises(NumericError):
        backward_segment(m, m.init_state(1), np.ones(64), np.ones(64))


# ---------------------------------------------------------------------------
# clipping and Adam
# ---------------------------------------------------------------------------

def test_clip_below_threshold_unchanged():
    g = {"a": np.array([0.3, 0.4])}  # norm 0.5
    out = clip_grad_norm(g)
    assert np.array_equal(out["a"], [0.3, 0.4])


def test_clip_scales_to_unit_norm():
    g = {"a": np.array([1.2, 1.6])}  # norm 2.0
    clip_grad_norm(g)
    assert abs(grad_global_norm(g) - 1.0) < 1e-12
    assert np.allclose(g["a"], [0.6, 0.8])


def test_clip_zero_gradients_unchanged():
    g = {"a": np.zeros(3), "b": np.zeros((2, 2))}
    clip_grad_norm(g)
    assert grad_global_norm(g) == 0.0


def test_clip_invariant_random():
    for _ in range(20):
        g = {"a": RNG.normal(size=17) * 10, "b": RNG.normal(size=(3, 5)) * 10}
        clip_grad_norm(g)
        assert grad_global_norm(g) <= 1.0 + 1e-12


def test_adam_zero_gradient_no_move():
    params = {"w": np.array([1.0, -2.0])}
    st = AdamState(m={"w": np.zeros(2)}, v={"w": np.zeros(2)})
    adam_update(params, {"w": np.zeros(2)}, st, lr=0.1)
    assert np.array_equal(params["w"], [1.0, -2.0])


def test_adam_first_step_magnitude():
    params = {"w": np.array([0.0])}
    st = AdamState(m={"w": np.zeros(1)}, v={"w": np.zeros(1)})
    adam_update(params, {"w": np.array([1.0])}, st, lr=1e-3)
    # bias-corrected first step is -lr * g/|g| up to eps
    assert params["w"][0] == pytest.approx(-1e-3, rel=1e-6)


def test_adam_determinism():
    def run():
        params = {"w": np.array([0.5, -0.5])}
        st = AdamState(m={"w": np.zeros(2)}, v={"w": np.zeros(2)})
        rng = np.random.default_rng(0)
        for _ in range(25):
            adam_update(params, {"w": rng.normal(size=2)}, st, lr=1e-2)
        return params["w"]
    assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _identity_split(duration=2.5, seed=0):
    recs = build_dataset(get_effect("identity"), [{}], seed=seed, duration=duration)
    comp = make_split_compositions(recs)[0]
    tr, va, _ = resolve_composition(recs, comp)
    return TrainSplit(tr, va)


def test_patience_zero_stops_on_first_non_improving_epoch():
    m = Model.init(ModelConfig("lstm", cond_dim=0), seed=0)
    split = _identity_split()
    # vanishing learning rate: epoch 1 cannot improve on epoch 0
    cfg = TrainConfig(initial_lr=1e-300, max_epochs=50, patience=0, batch_size=2, seed=0)
    _, hist = train(m, split, cfg)
    assert hist.stop_epoch == 1
    assert hist.best_epoch == 0


def test_max_epochs_one_runs_one_epoch():
    m = Model.init(ModelConfig("s6", cond_dim=0), seed=0)
    _, hist = train(m, _identity_split(), TrainConfig(max_epochs=1, batch_size=2, seed=0))
    assert len(hist.train_loss) == 1
    assert hist.stop_epoch == 0


def test_training_reproducible_under_fixed_seed():
    def run():
        m = Model.init(ModelConfig("s4d", cond_dim=0), seed=1)
        _, hist = train(m, _identity_split(), TrainConfig(max_epochs=3, batch_size=2, seed=9))
        return np.array(hist.train_loss), np.array(hist.val_loss), m.params["out.W"].copy()
    a = run()
    b = run()
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_best_epoch_is_argmin_val_loss():
    m = Model.init(ModelConfig("lru", cond_dim=0), seed=1)
    _, hist = train(m, _identity_split(), TrainConfig(max_epochs=4, batch_size=2, seed=3))
    assert hist.best_epoch == int(np.argmin(hist.val_loss))


def test_identity_learning_improves_val_loss():
    # best validation loss over a <=50-epoch identity run drops below 10% of
    # the first epoch's validation loss
    m = Model.init(ModelConfig("lstm", cond_dim=0), seed=0)
    cfg = TrainConfig(max_epochs=50, patience=50, batch_size=2, seed=0)

    def cb(epoch, model, hist):
        return min(hist.val_loss) < 0.1 * hist.val_loss[0]
    _, hist = train(m, _identity_split(duration=6.0), cfg, epoch_callback=cb)
    assert min(hist.val_loss) < 0.1 * hist.val_loss[0]


def test_instability_during_training_keeps_history():
    m = Model.init(ModelConfig("s4d", cond_dim=0), seed=0)

    def unstable():
        raise StabilityError("S4D discretized multipliers must be finite")
    m.check_stability = unstable
    with pytest.raises(TrainingDivergedError) as exc:
        train(m, _identity_split(), TrainConfig(max_epochs=2, batch_size=2, seed=0))
    assert exc.value.history.stop_epoch == 0
    assert "finite" in str(exc.value)



def test_s4d_divergence_in_segment_keeps_history():
    # the first update overflows S4D's rates, so the next segment's
    # discretization raises StabilityError inside backward_segment
    m = Model.init(ModelConfig("s4d", cond_dim=0), seed=0)
    with pytest.raises(TrainingDivergedError) as exc:
        train(m, _identity_split(), TrainConfig(initial_lr=1e300, max_epochs=2, batch_size=2, seed=0))
    hist = exc.value.history
    assert hist.stop_epoch == 0 and hist.train_loss == [] and hist.best_epoch == -1
    assert "Re(a_k) < 0" in str(exc.value)

def test_numeric_error_during_training_keeps_history():
    m = Model.init(ModelConfig("lru", cond_dim=0), seed=0)

    def blow_up(epoch, model, hist):
        if epoch == 0:
            model.params["out.b"][:] = 1e200  # squared error overflows to inf
    with pytest.raises(TrainingDivergedError) as exc:
        train(m, _identity_split(), TrainConfig(max_epochs=3, batch_size=2, seed=0),
              epoch_callback=blow_up)
    hist = exc.value.history
    assert hist.stop_epoch == 1
    assert len(hist.train_loss) == len(hist.val_loss) == 1 and hist.best_epoch == 0
    assert np.isfinite(hist.val_loss[0])
    assert "non-finite" in str(exc.value)


def test_stream_requires_full_segment():
    m = Model.init(ModelConfig("lstm", cond_dim=0), seed=0)
    short = TrainSplit([Stream(np.zeros(100), np.zeros(100))],
                       [Stream(np.zeros(100), np.zeros(100))])
    with pytest.raises(InputError):
        train(m, short, TrainConfig(max_epochs=1))


def test_evaluate_streams_metrics():
    m = Model.init(ModelConfig("lstm", cond_dim=0), seed=0)
    for k in m.params:
        m.params[k][:] = 0.0
    streams = [Stream(RNG.uniform(-1, 1, 5000), RNG.uniform(-1, 1, 5000)) for _ in range(3)]
    mse_v, esr_v, outs = evaluate_streams(m, streams)
    # zero model predicts zero: ESR = 1 exactly, MSE = mean target energy
    assert esr_v == pytest.approx(1.0)
    target_energy = np.concatenate([s.y for s in streams])
    assert mse_v == pytest.approx(float(np.mean(target_energy ** 2)))
    assert all(np.allclose(o, 0.0) for o in outs)


def test_evaluate_streams_caps_lanes_and_matches_per_stream_runs(monkeypatch):
    # equal-length streams share one batch up to TrainConfig.batch_size lanes, so
    # validation memory stays bounded however many recordings a grid holds
    m = Model.init(ModelConfig("lstm", cond_dim=1), seed=3)
    streams = [Stream(RNG.uniform(-0.5, 0.5, 200), RNG.uniform(-0.5, 0.5, 200), RNG.uniform(0, 1, 1))
               for _ in range(33)]
    single = [evaluate_streams(m, [s])[2][0] for s in streams]
    lanes = []
    forward = Model.forward_segment

    def counted(self, state, x, p=None):
        lanes.append(len(x))
        return forward(self, state, x, p)

    monkeypatch.setattr(Model, "forward_segment", counted)
    mse_v, esr_v, outs = evaluate_streams(m, streams)
    assert max(lanes) <= TrainConfig.batch_size and sum(lanes) == len(streams)
    # lanes are not bit-equal across batch widths (BLAS kernels differ), so compare closely
    for o, ref in zip(outs, single):
        np.testing.assert_allclose(o, ref, rtol=1e-12, atol=0)
    sq = sum(float(np.sum((s.y - ref) ** 2)) for s, ref in zip(streams, single))
    assert mse_v == pytest.approx(sq / (33 * 200), rel=1e-12)
    assert esr_v == pytest.approx(sq / sum(float(s.y @ s.y) for s in streams), rel=1e-12)
