import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from statefx import model as model_module, scans
from statefx.errors import (
    CompatibilityError,
    DimensionError,
    FormatError,
    InputError,
    StabilityError,
)
from statefx.model import (
    ARCHITECTURES,
    FLOPS_BUDGET,
    HIST_LEN,
    REFERENCE_FLOPS_CONDITIONING,
    REFERENCE_FLOPS_TOTAL,
    Checkpoint,
    Model,
    ModelConfig,
    check_dataset_compat,
    _gram,
)

import oracles

RNG = np.random.default_rng(100)


def make_model(arch, cond_dim=2, seed=0):
    return Model.init(ModelConfig(arch, cond_dim=cond_dim), seed=seed)


def stream_reference(model, x, p):
    """Sample-at-a-time outputs via forward_sample on explicit windows."""
    state = model.init_state(1)
    padded = np.concatenate([np.zeros(63), x])
    ys = np.empty(len(x))
    for n in range(len(x)):
        win = padded[n:n + 64][::-1]
        ys[n], state = model.forward_sample(state, win, p)
    return ys


# ---------------------------------------------------------------------------
# conditioning block
# ---------------------------------------------------------------------------

def test_conditioning_zero_film_zero_output():
    # theta = eta = 0 zeroes the GLU input; with a zero GLU bias only out.b is left
    for arch in ARCHITECTURES:
        m = make_model(arch, cond_dim=2, seed=1)
        for k in ("film.W", "film.b", "glu.b"):
            m.params[k][:] = 0.0
        y, _ = m.forward_segment(m.init_state(1), RNG.uniform(-1, 1, 100), np.array([0.3, 0.9]))
        assert np.allclose(y, m.params["out.b"][0])


def test_conditioning_zero_gate_is_bypass():
    # gate rows zero: softsign(0) = 0 shuts the GLU whatever it reads
    for arch in ARCHITECTURES:
        m = make_model(arch, cond_dim=0, seed=1)
        m.params["glu.W"][4:] = 0.0
        m.params["glu.b"][:] = 0.0
        y, _ = m.forward_segment(m.init_state(1), RNG.uniform(-1, 1, 100))
        assert np.allclose(y, m.params["out.b"][0])


def test_conditioning_matches_oracle():
    # a zero post-FC weight makes its bias the conditioning block's input at
    # every sample (LSTM has no tanh after the post-FC)
    for _ in range(30):
        m = make_model("lstm", cond_dim=3, seed=2)
        prm = m.params
        prm["post.W"][:] = 0.0
        for k in ("post.b", "film.W", "film.b", "glu.W", "glu.b", "out.W", "out.b"):
            prm[k][:] = RNG.normal(size=prm[k].shape)
        p = RNG.uniform(0, 1, 3)
        oc = oracles.conditioning_oracle(prm["film.W"], prm["film.b"], prm["glu.W"], prm["glu.b"],
                                         prm["post.b"], p)
        y_ref = sum(prm["out.W"][j] * oc[j] for j in range(4)) + prm["out.b"][0]
        y, _ = m.forward_segment(m.init_state(1), RNG.uniform(-1, 1, 20), p)
        assert np.max(np.abs(y - y_ref)) < 1e-12
        assert abs(m.forward_sample(m.init_state(1), RNG.uniform(-1, 1, 64), p)[0] - y_ref) < 1e-12


def test_conditioning_range_check():
    m = make_model("s6", cond_dim=2)
    for bad in (1.5, -0.1, np.nan):
        p = np.array([0.5, bad])
        with pytest.raises(InputError):
            m.forward_sample(m.init_state(1), np.zeros(64), p)
        with pytest.raises(InputError):
            m.forward_segment(m.init_state(1), np.zeros(10), p)


def test_nan_conditioning_rejected_by_both_routes():
    m = make_model("lstm", cond_dim=2)
    p = np.array([np.nan, 0.5])
    with pytest.raises(InputError):
        m.forward_segment(m.init_state(1), np.zeros(100), p)
    with pytest.raises(InputError):
        m.forward_segment(m.init_state(1), np.zeros(100), np.tile(p, (100, 1)))
    with pytest.raises(InputError):
        m.forward_sample(m.init_state(1), np.zeros(64), p)


@pytest.mark.parametrize("axes", ["P", "BP", "LP", "BLP"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.5])
def test_conditioning_out_of_range_rejected_in_every_shape(axes, bad):
    B, L = (1 if axes == "LP" else 2), 32  # (L, P) is accepted at B = 1 only
    p = np.full(tuple({"B": B, "L": L, "P": 2}[a] for a in axes), 0.5)
    m = make_model("lru", cond_dim=2)
    y, _ = m.forward_segment(m.init_state(B), np.zeros((B, L)), p)
    assert y.shape == (B, L)
    p.flat[-1] = bad
    with pytest.raises(InputError):
        m.forward_segment(m.init_state(B), np.zeros((B, L)), p)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_forward_segment_empty_batch_keeps_state(arch):
    m = make_model(arch, cond_dim=2, seed=2)
    state = m.init_state(0)
    y, new_state = m.forward_segment(state, np.zeros((0, 32)), np.array([0.3, 0.6]))
    assert y.shape == (0, 32)
    assert new_state.keys() == state.keys()
    assert all(new_state[k].shape == v.shape and new_state[k].dtype == v.dtype
               for k, v in state.items())


@pytest.mark.parametrize("hist_len", [HIST_LEN - 1, HIST_LEN + 17])
def test_state_history_of_wrong_length_rejected(hist_len):
    m = make_model("lru", cond_dim=0)
    state = m.init_state(2)
    state["hist"] = np.zeros((2, hist_len))
    with pytest.raises(DimensionError):
        m.forward_segment(state, np.zeros((2, 32)))


def test_p0_outputs_ignore_supplied_p():
    m = make_model("lru", cond_dim=0)
    x = RNG.uniform(-1, 1, 500)
    s1 = m.init_state(1)
    y1, _ = m.forward_segment(s1, x)
    s2 = m.init_state(1)
    y2, _ = m.forward_segment(s2, x, np.array([0.9, 0.1]))
    assert np.array_equal(y1, y2)


# ---------------------------------------------------------------------------
# forward behavior
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_zero_weight_model_outputs_bias(arch):
    m = make_model(arch, cond_dim=2)
    for k in m.params:
        m.params[k][:] = 0.0
    m.params["out.b"][0] = 0.25
    x = RNG.uniform(-1, 1, 300)
    y, _ = m.forward_segment(m.init_state(1), x, np.array([0.5, 0.5]))
    assert np.allclose(y, 0.25)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_zero_input_zero_state_zero_bias_gives_zero(arch):
    m = make_model(arch, cond_dim=0)
    # kill every bias so the zero state maps to zero output
    for k in m.params:
        if k.endswith(".b") or "bias" in k or k in ("glu.b", "post.b", "out.b", "film.b"):
            m.params[k][:] = 0.0
    y, _ = m.forward_segment(m.init_state(1), np.zeros(200))
    assert np.allclose(y, 0.0)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_forward_sample_composition_matches_module_oracles(arch):
    # fixed checkpoint, fixed window: compose the scalar-oracle pieces, from
    # the zero state and from a random carried one
    m = make_model(arch, cond_dim=2, seed=7)
    window = RNG.uniform(-1, 1, 64)
    p = np.array([0.2, 0.8])
    carried = {k: v if k == "hist" else v + RNG.normal(size=v.shape)
               for k, v in m.init_state(1).items()}
    if arch in ("lru", "s4d"):
        carried["h"] = carried["h"] + 1j * RNG.normal(size=(1, 12))

    prm = m.params
    for state in (m.init_state(1), carried):
        y, new_state = m.forward_sample(state, window, p)
        h_prev = state["h"][0]
        if arch in ("lstm", "ed"):
            c_prev = state["c"][0]
            if arch == "ed":
                u = oracles.project_oracle(prm["proj.W"], prm["proj.b"], window[:32])
                ch, cc = oracles.ed_encode_oracle(prm["enc.kernel_h"], prm["enc.bias_h"][0],
                                                  prm["enc.kernel_c"], prm["enc.bias_c"][0],
                                                  window[32:])
                h0, c0 = oracles.ed_merge_oracle(h_prev, c_prev, ch, cc)
            else:
                u = oracles.project_oracle(prm["proj.W"], prm["proj.b"], window)
                h0, c0 = h_prev, c_prev
            h, c = oracles.lstm_step_oracle(prm["lstm.W"], prm["lstm.U"], prm["lstm.b"], h0, c0, u)
            assert np.max(np.abs(new_state["c"][0] - c)) < 1e-10
            o_rec = h
            post = oracles.matvec_oracle(prm["post.W"], o_rec) + prm["post.b"]
        else:
            u = oracles.project_oracle(prm["proj.W"], prm["proj.b"], window)
            if arch == "lru":
                h, o_rec = oracles.lru_step_oracle(prm["lru.nu"], prm["lru.theta"],
                                                   prm["lru.U_re"], prm["lru.U_im"],
                                                   prm["lru.b_re"], prm["lru.b_im"],
                                                   prm["lru.W_re"], prm["lru.W_im"],
                                                   prm["lru.b_o"], h_prev, u)
            elif arch == "s4d":
                w = m.weights("s4d")
                h, o_rec = oracles.s4d_step_oracle(w.a_diag(), w.delta(), w.B_re + 1j * w.B_im,
                                                   w.C_re + 1j * w.C_im, w.D, h_prev, u)
            else:
                h, o_rec = oracles.s6_step_oracle(prm["s6.log_neg_a"], prm["s6.W_delta"],
                                                  prm["s6.b_delta"][0], prm["s6.W_B"],
                                                  prm["s6.b_B"], prm["s6.W_C"], prm["s6.b_C"],
                                                  prm["s6.D"], h_prev, u)
            post = np.tanh(oracles.matvec_oracle(prm["post.W"], o_rec) + prm["post.b"])
        assert np.max(np.abs(new_state["h"][0] - h)) < 1e-10
        oc = oracles.conditioning_oracle(prm["film.W"], prm["film.b"], prm["glu.W"],
                                         prm["glu.b"], post, p)
        y_ref = float(prm["out.W"] @ oc + prm["out.b"][0])
        assert abs(y - y_ref) < 1e-10


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_streaming_equivalence_segment_vs_samples(arch):
    m = make_model(arch, cond_dim=1, seed=3)
    x = RNG.uniform(-1, 1, 700)
    p = np.array([0.4])
    y_ref = stream_reference(m, x, p)
    y_seg, _ = m.forward_segment(m.init_state(1), x, p)
    assert np.max(np.abs(y_seg - y_ref)) < 1e-12


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_split_equivalence_arbitrary_boundaries(arch):
    m = make_model(arch, cond_dim=0, seed=5)
    x = RNG.uniform(-1, 1, 2000)
    y_full, _ = m.forward_segment(m.init_state(1), x)
    state = m.init_state(1)
    pieces = []
    for a, b in [(0, 137), (137, 138), (138, 950), (950, 2000)]:
        y, state = m.forward_segment(state, x[a:b])
        pieces.append(y)
    assert np.max(np.abs(np.concatenate(pieces) - y_full)) < 1e-12


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_batched_split_equivalence_plugin_buffers(arch):
    # buffers shorter than, equal to and longer than the 63-sample history,
    # back to back, with each lane on its own static conditioning
    m = make_model(arch, cond_dim=2, seed=6)
    x = RNG.uniform(-1, 1, (2, 400))
    p = np.array([[0.1, 0.8], [0.9, 0.35]])
    y_full, _ = m.forward_segment(m.init_state(2), x, p)
    state = m.init_state(2)
    pieces = []
    edges = np.minimum(np.cumsum([0] + [1, 32, 63, 64, 65] * 2), 400)  # the last buffer holds 15
    for a, b in zip(edges[:-1], edges[1:]):
        y, state = m.forward_segment(state, x[:, a:b], p)
        pieces.append(y)
    assert np.max(np.abs(np.concatenate(pieces, axis=1) - y_full)) < 1e-12


def test_forward_segment_length_one_equals_forward_sample():
    m = make_model("s6", cond_dim=0)
    x = RNG.uniform(-1, 1, 80)
    state = m.init_state(1)
    ys = []
    for n in range(len(x)):
        y, state = m.forward_segment(state, x[n:n + 1])
        ys.append(y[0])
    assert np.max(np.abs(np.array(ys) - stream_reference(m, x, None))) < 1e-12


def test_output_layer_linearity():
    m = make_model("lstm", cond_dim=0)
    x = RNG.uniform(-1, 1, 400)
    y1, _ = m.forward_segment(m.init_state(1), x)
    m.params["out.W"] *= 3.0
    m.params["out.b"] *= 3.0
    y3, _ = m.forward_segment(m.init_state(1), x)
    assert np.allclose(y3, 3.0 * y1, rtol=1e-12, atol=1e-14)


def test_forward_sample_independent_of_batched_route():
    # the benchmark's prefix check compares forward_segment with forward_sample,
    # so the per-sample reference may not reach any batched code
    tree = ast.parse(Path(model_module.__file__).read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Model")
    fn = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "forward_sample")
    used = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)  # getattr(self, "...")
    batched = {"_forward_full", "forward_segment", "_lstm_inputs", "_gram", "_per_substate",
               "scan", "scans"}
    batched |= {n for n, v in vars(scans).items()
                if inspect.isfunction(v) and v.__module__ == scans.__name__}
    assert sorted(n for n in used if n in batched or n.startswith("_scan_")) == []


def test_forward_sample_rejects_bad_batch_and_p():
    m = make_model("lru", cond_dim=2)
    with pytest.raises(InputError):
        m.forward_sample(m.init_state(2), np.zeros(64), np.array([0.5, 0.5]))
    for p in (None, np.array([0.5]), np.array([0.5, 0.5, 0.5])):
        with pytest.raises(DimensionError):
            m.forward_sample(m.init_state(1), np.zeros(64), p)


def test_uninitialized_state_rejected():
    m = make_model("lstm", cond_dim=0)
    with pytest.raises(InputError):
        m.forward_sample(None, np.zeros(64))
    with pytest.raises(DimensionError):
        m.forward_sample(m.init_state(1), np.zeros(63))


# ---------------------------------------------------------------------------
# parameter and FLOPs accounting
# ---------------------------------------------------------------------------

def test_count_params_lstm_closed_form():
    m = make_model("lstm", cond_dim=2)
    assert m.count_params() == 781
    assert m.count_params() == 260 + 416 + 36 + 24 + 40 + 5


def test_count_params_excludes_film_when_unconditioned():
    for arch in ARCHITECTURES:
        with_p = make_model(arch, cond_dim=2).count_params()
        without = make_model(arch, cond_dim=0).count_params()
        assert with_p - without == 24  # the 2->8 FiLM map


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_count_params_in_band(arch):
    n = make_model(arch, cond_dim=2).count_params()
    assert 600 <= n <= 1000, f"{arch}: {n} params"


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_count_flops_budget_and_reference(arch):
    fl = make_model(arch, cond_dim=2).count_flops()
    assert fl.total == fl.projection + fl.recurrent_layer + fl.post_fc + \
        fl.conditioning_block + fl.output_layer
    assert fl.total <= FLOPS_BUDGET
    assert abs(fl.deviation_from_reference) <= 0.20
    assert fl.reference_total == REFERENCE_FLOPS_TOTAL[arch]


def test_reference_conditioning_constant():
    assert REFERENCE_FLOPS_CONDITIONING == 120
    fl = make_model("lstm", cond_dim=2).count_flops()
    assert fl.reference_conditioning == 120


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_checkpoint_round_trip(arch, tmp_path):
    m = make_model(arch, cond_dim=2, seed=11)
    hist = {"train_loss": np.array([0.5, 0.4]), "val_loss": np.array([0.6, 0.45]),
            "lr": np.array([3e-4, 3e-4])}
    path = tmp_path / "ck.sfx"
    Checkpoint.from_model(m, hist, best_epoch=1).save(path)
    ck = Checkpoint.load(path)
    assert ck.best_epoch == 1
    assert ck.config.architecture == arch
    for k, v in m.params.items():
        assert np.array_equal(ck.params[k], v)
    assert np.array_equal(ck.history["train_loss"], hist["train_loss"])

    # save -> load -> save produces byte-identical files
    path2 = tmp_path / "ck2.sfx"
    ck.save(path2)
    assert path.read_bytes() == path2.read_bytes()

    # forward outputs identical before/after round trip
    m2 = Checkpoint.load(path).to_model()
    x = RNG.uniform(-1, 1, 300)
    p = np.array([0.1, 0.9])
    y1, _ = m.forward_segment(m.init_state(1), x, p)
    y2, _ = m2.forward_segment(m2.init_state(1), x, p)
    assert np.array_equal(y1, y2)


def test_checkpoint_truncated_rejected(tmp_path):
    m = make_model("lru", cond_dim=1)
    path = tmp_path / "ck.sfx"
    Checkpoint.from_model(m).save(path)
    blob = path.read_bytes()
    (tmp_path / "bad.sfx").write_bytes(blob[:len(blob) - 100])
    with pytest.raises(FormatError):
        Checkpoint.load(tmp_path / "bad.sfx")


def test_checkpoint_bad_magic_rejected(tmp_path):
    p = tmp_path / "junk.sfx"
    p.write_bytes(b"not a checkpoint\nend\n" + b"\x00" * 64)
    with pytest.raises(FormatError):
        Checkpoint.load(p)


def test_s4d_tiny_step_passes_stability_check():
    # delta = exp(-40) rounds |abar| to 1, yet delta > 0 and Re(a) < 0 make it stable
    m = make_model("s4d", cond_dim=0)
    m.params["s4d.log_delta"][:] = -40.0
    m.check_stability()
    m.params["s4d.log_delta"][0] = np.nan
    with pytest.raises(StabilityError):
        m.check_stability()


def test_lru_tiny_decay_passes_stability_check():
    # exp(nu) = exp(-40) rounds |lambda| to 1, yet exp(nu) > 0 keeps it stable
    m = make_model("lru", cond_dim=0)
    m.params["lru.nu"][:] = -40.0
    m.check_stability()
    y, _ = m.forward_segment(m.init_state(1), RNG.uniform(-1, 1, 200))
    assert np.all(np.isfinite(y))
    m.params["lru.nu"][0] = -np.inf
    with pytest.raises(StabilityError):
        m.check_stability()


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_forward_segment_empty_input_keeps_state(arch):
    m = make_model(arch, cond_dim=1, seed=2)
    p = np.array([0.5])
    _, state = m.forward_segment(m.init_state(2), RNG.uniform(-1, 1, (2, 100)), p)
    y, new_state = m.forward_segment(state, np.zeros((2, 0)), p)
    assert y.shape == (2, 0)
    assert new_state.keys() == state.keys()
    assert all(np.array_equal(new_state[k], state[k]) for k in state)
    y1, _ = m.forward_segment(m.init_state(1), np.zeros(0), p)
    assert y1.shape == (0,)


def test_checkpoint_nonfinite_weight_rejected(tmp_path):
    m = make_model("lru", cond_dim=1)
    history = {"val_esr": np.array([np.inf, 0.5])}  # an inf history value is legitimate
    path = tmp_path / "ck.sfx"
    Checkpoint.from_model(m, history).save(path)
    assert Checkpoint.load(path).history["val_esr"][0] == np.inf
    for bad in (np.nan, np.inf):
        m.params["proj.W"][2, 5] = bad
        Checkpoint.from_model(m, history).save(path)
        with pytest.raises(FormatError, match="proj.W"):
            Checkpoint.load(path)


def test_checkpoint_with_retired_config_keys_loads(tmp_path):
    # files from before the initialization ranges left ModelConfig carry five
    # more header lines; the loader ignores keys it does not know
    m = make_model("s4d", cond_dim=1, seed=4)
    path = tmp_path / "ck.sfx"
    Checkpoint.from_model(m, best_epoch=3).save(path)
    blob = path.read_bytes()
    retired = (b"lru_r_min=0.5\nlru_r_max=0.99\nlru_max_phase=0.3141592653589793\n"
               b"s4d_delta_min=0.001\ns4d_delta_max=0.1\n")
    cut = blob.index(b"best_epoch=")
    path.write_bytes(blob[:cut] + retired + blob[cut:])
    ck = Checkpoint.load(path)
    assert ck.config == m.config and ck.best_epoch == 3
    assert all(np.array_equal(ck.params[k], v) for k, v in m.params.items())


def test_dataset_compat_check():
    m = make_model("lstm", cond_dim=2)
    check_dataset_compat(m, 2, 48000)
    with pytest.raises(CompatibilityError):
        check_dataset_compat(m, 1, 48000)
    with pytest.raises(CompatibilityError):
        check_dataset_compat(m, 2, 44100)


def test_scheduled_conditioning_matches_constant():
    m = make_model("lstm", cond_dim=2, seed=1)
    x = RNG.uniform(-1, 1, 400)
    pconst = np.array([0.3, 0.6])
    sched = np.tile(pconst, (400, 1))
    y1, _ = m.forward_segment(m.init_state(1), x, pconst)
    y2, _ = m.forward_segment(m.init_state(1), x, sched)
    assert np.max(np.abs(y1 - y2)) < 1e-15


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_batched_scheduled_conditioning_matches_single_streams(arch):
    m = make_model(arch, cond_dim=2, seed=3)
    L = 700
    x = RNG.uniform(-1, 1, (2, L))
    sched = np.empty((2, L, 2))
    sched[0] = [0.2, 0.9]
    sched[0, 300:] = [0.7, 0.1]
    sched[1] = RNG.uniform(0, 1, (L, 2))
    y, _ = m.forward_segment(m.init_state(2), x, sched)
    assert y.shape == (2, L)
    for b in range(2):
        y_b, _ = m.forward_segment(m.init_state(1), x[b], sched[b])
        assert np.max(np.abs(y[b] - y_b)) < 1e-15


# ---------------------------------------------------------------------------
# weight-gradient contraction
# ---------------------------------------------------------------------------

def _operand(layout, B, L, rng):
    """A (B, L, k) operand in one of the layouts the pullbacks pass."""
    if layout == "contiguous":
        return rng.normal(size=(B, L, 6))
    if layout == "lane-major":  # the linear-recurrence scans' per-step arrays
        a = rng.normal(size=(B, 12, L)).transpose(0, 2, 1)
        assert a.strides[1] == 8
        return a
    if layout == "real-part":  # Re of a complex read-out
        a = (rng.normal(size=(B, L, 6)) + 1j * rng.normal(size=(B, L, 6))).real
        assert a.strides[2] == 16
        return a
    # the projection's newest-first window view
    ext = rng.normal(size=(B, L + HIST_LEN))
    a = np.lib.stride_tricks.sliding_window_view(ext, HIST_LEN + 1, axis=1)[:, :, ::-1]
    assert a.strides[2] == -8
    return a


@pytest.mark.parametrize("B", [1, 3, 32])
@pytest.mark.parametrize("layout", ["contiguous", "lane-major", "real-part", "window"])
def test_gram_equals_einsum_on_each_layout(layout, B):
    rng = np.random.default_rng(B)
    L = 500
    a = _operand(layout, B, L, rng)
    c = rng.normal(size=(B, L, 4))
    for x, y in ((a, c), (c, a)):
        want = np.einsum("blk,blu->ku", x, y)
        got = _gram(x, y)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
