"""The recurrent layers as the batched route runs them.

Each test puts its weights into a model's parameters and runs that
layer's scan, ``ARCH[arch].scan``: the code ``forward_segment`` and
training use.  The tests check each layer's defining properties and
compare it with the scalar-loop oracles in ``oracles.py``.
"""

from dataclasses import fields

import numpy as np
import pytest

from statefx.cells import (
    ED_SPLIT,
    EdEncoder,
    LruWeights,
    LstmWeights,
    S4dWeights,
    S6Weights,
    s4d_zoh,
)
from statefx.errors import NumericError, StabilityError
from statefx.model import ARCH, ARCHITECTURES, Model, ModelConfig

import oracles

RNG = np.random.default_rng(42)


def random_lstm(rng):
    return LstmWeights(W=rng.normal(size=(32, 8)), U=rng.normal(size=(32, 4)),
                       b=rng.normal(size=32))


def random_encoder(rng):
    return EdEncoder(rng.normal(size=4), rng.normal(size=1), rng.normal(size=4), rng.normal(size=1))


def random_lru(rng):
    return LruWeights(
        nu=rng.uniform(-1.0, 1.5, 12), theta=rng.uniform(0, np.pi, 12),
        U_re=rng.normal(size=(12, 6)), U_im=rng.normal(size=(12, 6)),
        b_re=rng.normal(size=12), b_im=rng.normal(size=12),
        W_re=rng.normal(size=(6, 12)), W_im=rng.normal(size=(6, 12)),
        b_o=rng.normal(size=6))


def random_s4d(rng):
    return S4dWeights(
        log_neg_a_re=rng.uniform(-2, 1, 12), a_im=rng.uniform(0, 20, 12),
        log_delta=rng.uniform(np.log(1e-3), np.log(0.3), 12),
        B_re=rng.normal(size=(12, 6)), B_im=rng.normal(size=(12, 6)),
        C_re=rng.normal(size=(6, 12)), C_im=rng.normal(size=(6, 12)),
        D=rng.normal(size=6))


def random_s6(rng):
    return S6Weights(
        log_neg_a=rng.uniform(-2, 1, 12), W_delta=rng.normal(size=6),
        b_delta=rng.normal(size=1), W_B=rng.normal(size=(12, 6)), b_B=rng.normal(size=12),
        W_C=rng.normal(size=(12, 6)), b_C=rng.normal(size=12), D=rng.normal(size=6))


def layer(arch, **groups):
    """A model of ``arch`` whose recurrent weights are the given views,
    keyed by parameter prefix ("lstm", "enc", "lru", "s4d" or "s6")."""
    m = Model.init(ModelConfig(arch))
    for prefix, w in groups.items():
        m.params.update((f"{prefix}.{f.name}", getattr(w, f.name)) for f in fields(w))
    return m


def scan(m, u, h0, c0=None, x_e=None):
    """m's recurrent layer over the inputs u (L, in) of one lane, from the
    state (h0, c0).  ``x_e`` (L, 32) holds the oldest window halves the ED
    encoder reads.  Returns the readout (L, out) and the end state."""
    state = {"h": h0[None]} if c0 is None else {"h": h0[None], "c": c0[None]}
    win = None if x_e is None else np.concatenate([np.zeros_like(x_e), x_e], axis=1)[None]
    o_rec, end, _ = ARCH[m.config.architecture].scan(m, state, u[None], win)
    return o_rec[0], {k: v[0] for k, v in end.items()}


def stepwise(m, u, h0):
    """m's recurrent layer one sample per scan call, carrying the state:
    the readout and the state after every step."""
    outs, states, h = [], [], h0
    for u_t in u:
        o, end = scan(m, u_t[None], h)
        h = end["h"]
        outs.append(o[0])
        states.append(h)
    return np.array(outs), np.array(states)


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

def test_lstm_zero_weights_fixed_point():
    m = layer("lstm", lstm=LstmWeights(W=np.zeros((32, 8)), U=np.zeros((32, 4)), b=np.zeros(32)))
    h, end = scan(m, np.zeros((5, 4)), np.zeros(8), np.zeros(8))
    assert np.all(h == 0.0) and np.all(end["c"] == 0.0)


def test_lstm_gate_saturation_pure_memory():
    # forget gate driven to 1, input gate to 0: c passes through unchanged
    w = LstmWeights(W=np.zeros((32, 8)), U=np.zeros((32, 4)), b=np.zeros(32))
    w.b[0:8] = 60.0    # forget ~ 1
    w.b[8:16] = -60.0  # input ~ 0
    c0 = RNG.normal(size=8)
    _, end = scan(layer("lstm", lstm=w), RNG.normal(size=(10, 4)), np.zeros(8), c0.copy())
    assert np.allclose(end["c"], c0, atol=1e-12)


def test_lstm_matches_scalar_oracle():
    for _ in range(50):
        w = random_lstm(RNG)
        h = RNG.normal(size=8)
        c = RNG.normal(size=8)
        u = RNG.normal(size=(5, 4))
        out, end = scan(layer("lstm", lstm=w), u, h, c)
        for t in range(5):
            h, c = oracles.lstm_step_oracle(w.W, w.U, w.b, h, c, u[t])
            assert np.max(np.abs(out[t] - h)) < 1e-12
        assert np.max(np.abs(end["c"] - c)) < 1e-12
        assert np.array_equal(out[-1], end["h"])


def test_lstm_h_bounded():
    for _ in range(20):
        m = layer("lstm", lstm=random_lstm(RNG))
        h, _ = scan(m, RNG.normal(size=(50, 4)), RNG.uniform(-1, 1, 8), RNG.normal(size=8) * 3)
        assert np.all(np.abs(h) < 1.0)


def test_lstm_rejects_nonfinite_state():
    # checked where the per-sample reference enters the cell, after the ED merge
    for arch in ("lstm", "ed"):
        m = Model.init(ModelConfig(arch), seed=1)
        for key in ("h", "c"):
            state = m.init_state(1)
            state[key][0, 3] = np.nan
            with pytest.raises(NumericError):
                m.forward_sample(state, RNG.normal(size=64))


def test_lstm_deterministic():
    m = layer("lstm", lstm=random_lstm(np.random.default_rng(5)))
    u = np.ones((3, 4)) * 0.3
    a = scan(m, u, np.ones(8) * 0.1, np.ones(8) * -0.2)
    b = scan(m, u, np.ones(8) * 0.1, np.ones(8) * -0.2)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1]["c"], b[1]["c"])


# ---------------------------------------------------------------------------
# ED encoder and merge: the ED layer equals the plain LSTM layer started
# from the merged state sigmoid([h, c]_prev) * encoder candidates
# ---------------------------------------------------------------------------

def selector_encoder():
    """Candidates h = x_e[0::4], c = x_e[1::4], exactly."""
    return EdEncoder(np.eye(4)[0], np.zeros(1), np.eye(4)[1], np.zeros(1))


def ed_and_lstm(enc, h_prev, c_prev, x_e, h_m, c_m):
    """One step of the ED layer from (h_prev, c_prev) and of the plain LSTM
    layer (same cell weights) from (h_m, c_m): their (h, c) pairs."""
    w = random_lstm(RNG)
    u = RNG.normal(size=(1, 4))
    o_ed, end_ed = scan(layer("ed", enc=enc, lstm=w), u, h_prev, c_prev, x_e[None])
    o_l, end_l = scan(layer("lstm", lstm=w), u, h_m, c_m)
    return (o_ed[0], end_ed["c"]), (o_l[0], end_l["c"])


def test_ed_encode_zero():
    # zero candidates erase any carried state
    enc = EdEncoder(np.zeros(4), np.zeros(1), np.zeros(4), np.zeros(1))
    ed, lstm = ed_and_lstm(enc, RNG.normal(size=8), RNG.normal(size=8), RNG.normal(size=32),
                           np.zeros(8), np.zeros(8))
    assert np.array_equal(ed[0], lstm[0]) and np.array_equal(ed[1], lstm[1])


def test_ed_encode_constant_signal_times_kernel_sum():
    k_h = RNG.normal(size=4)
    k_c = RNG.normal(size=4)
    enc = EdEncoder(k_h, np.zeros(1), k_c, np.zeros(1))
    kappa = 0.7
    # from the zero state the merge halves the candidates kappa * sum(kernel)
    ed, lstm = ed_and_lstm(enc, np.zeros(8), np.zeros(8), np.full(32, kappa),
                           np.full(8, 0.5 * kappa * k_h.sum()), np.full(8, 0.5 * kappa * k_c.sum()))
    assert np.allclose(ed[0], lstm[0], atol=1e-12)
    assert np.allclose(ed[1], lstm[1], atol=1e-12)


def test_ed_encode_matches_direct_convolution():
    for _ in range(20):
        enc = random_encoder(RNG)
        x = RNG.normal(size=32)
        h_prev, c_prev = RNG.normal(size=8), RNG.normal(size=8)
        ch, cc = oracles.ed_encode_oracle(enc.kernel_h, enc.bias_h[0], enc.kernel_c, enc.bias_c[0], x)
        h_m, c_m = oracles.ed_merge_oracle(h_prev, c_prev, ch, cc)
        ed, lstm = ed_and_lstm(enc, h_prev, c_prev, x, h_m, c_m)
        assert np.max(np.abs(ed[0] - lstm[0])) < 1e-12
        assert np.max(np.abs(ed[1] - lstm[1])) < 1e-12


def test_ed_merge_zero_state_halves_candidates():
    x = RNG.normal(size=32)
    ed, lstm = ed_and_lstm(selector_encoder(), np.zeros(8), np.zeros(8), x,
                           0.5 * x[0::4], 0.5 * x[1::4])
    assert np.allclose(ed[0], lstm[0]) and np.allclose(ed[1], lstm[1])


def test_ed_merge_saturation_full_forget():
    # sigmoid(-80) ~ 1e-35 closes the merge: the step starts from the zero state
    ed, lstm = ed_and_lstm(selector_encoder(), np.full(8, -80.0), np.full(8, -80.0), np.ones(32),
                           np.zeros(8), np.zeros(8))
    assert np.max(np.abs(ed[0] - lstm[0])) < 1e-30 and np.max(np.abs(ed[1] - lstm[1])) < 1e-30


def test_ed_merge_matches_elementwise_oracle():
    for _ in range(20):
        h_prev = RNG.normal(size=8)
        c_prev = RNG.normal(size=8)
        x = RNG.normal(size=32)
        h_m, c_m = oracles.ed_merge_oracle(h_prev, c_prev, x[0::4], x[1::4])
        ed, lstm = ed_and_lstm(selector_encoder(), h_prev, c_prev, x, h_m, c_m)
        assert np.max(np.abs(ed[0] - lstm[0])) < 1e-15
        assert np.max(np.abs(ed[1] - lstm[1])) < 1e-15


# ---------------------------------------------------------------------------
# LRU
# ---------------------------------------------------------------------------

def test_lru_homogeneous_decay():
    w = random_lru(RNG)
    w.b_re[:] = 0.0
    w.b_im[:] = 0.0
    v = RNG.normal(size=12) + 1j * RNG.normal(size=12)
    _, end = scan(layer("lru", lru=w), np.zeros((5, 6)), v.copy())
    assert np.allclose(end["h"], w.lam() ** 5 * v, rtol=1e-12)


def test_lru_memoryless_limit():
    w = random_lru(RNG)
    w.nu[:] = np.log(50.0)  # |lambda| = exp(-50): effectively zero memory
    m = layer("lru", lru=w)
    u = RNG.normal(size=(1, 6))
    o1, _ = scan(m, u, np.zeros(12, dtype=complex))
    o2, _ = scan(m, u, 100.0 + 100.0j + np.zeros(12, dtype=complex))
    assert np.allclose(o1, o2, atol=1e-8)


def test_lru_matches_complex_loop_oracle_impulse_response():
    rng = np.random.default_rng(9)
    w = random_lru(rng)
    m = layer("lru", lru=w)
    u = np.zeros((100, 6))
    u[0] = 1.0
    h0 = np.zeros(12, dtype=complex)
    o_scan, end = scan(m, u, h0)
    o_step, h_step = stepwise(m, u, h0)
    h_ref = h0
    for n in range(100):
        h_ref, o_ref = oracles.lru_step_oracle(w.nu, w.theta, w.U_re, w.U_im, w.b_re,
                                               w.b_im, w.W_re, w.W_im, w.b_o, h_ref, u[n])
        assert np.max(np.abs(h_step[n] - h_ref)) < 1e-10
        assert np.max(np.abs(o_step[n] - o_ref)) < 1e-10
        assert np.max(np.abs(o_scan[n] - o_ref)) < 1e-10
    assert np.max(np.abs(end["h"] - h_ref)) < 1e-10


def test_lru_stability_enforced_by_parameterization():
    w = random_lru(RNG)
    assert np.all(np.abs(w.lam()) < 1.0)
    w.validate()
    w.nu = np.full(12, -np.inf)
    with pytest.raises(StabilityError):
        w.validate()


# ---------------------------------------------------------------------------
# S4D
# ---------------------------------------------------------------------------

def test_s4d_discretize_continuum_limit():
    a = np.full(12, -1.0 + 0.0j)
    B = np.ones((12, 6), dtype=complex)
    abar, s = s4d_zoh(a, np.full(12, 1e-12))
    bbar = s[:, None] * B
    assert np.allclose(abar, 1.0, atol=1e-9)
    assert np.all(np.abs(bbar) < 1e-11)


def test_s4d_discretize_closed_form():
    a = np.full(12, -1.0 + 0.0j)
    abar, _ = s4d_zoh(a, np.full(12, np.log(2.0)))
    assert np.allclose(abar, 0.5, rtol=1e-14)


def test_s4d_discretize_stability():
    rng = np.random.default_rng(3)
    a = -np.exp(rng.normal(size=12)) + 1j * rng.normal(size=12) * 10
    abar, _ = s4d_zoh(a, np.exp(rng.uniform(-5, 0, 12)))
    assert np.all(np.abs(abar) < 1.0)
    with pytest.raises(StabilityError):
        s4d_zoh(np.array([1.0 + 0j]), np.ones(1))


def test_s4d_zero_trajectory():
    o, end = scan(layer("s4d", s4d=random_s4d(RNG)), np.zeros((5, 6)), np.zeros(12, dtype=complex))
    assert np.all(end["h"] == 0.0) and np.all(o == 0.0)


def test_s4d_impulse_matches_kernel_form():
    rng = np.random.default_rng(11)
    w = random_s4d(rng)
    w.D[:] = 0.0
    abar, s = w.coeffs()
    bbar = s[:, None] * (w.B_re + 1j * w.B_im)
    C = w.C_re + 1j * w.C_im
    impulse_channel = 2
    u = np.zeros((64, 6))
    u[0, impulse_channel] = 1.0
    outs, _ = scan(layer("s4d", s4d=w), u, np.zeros(12, dtype=complex))
    # kernel form: y_n = Re(C abar^n bbar[:, ch])
    for n in range(64):
        kern = np.real(C @ (abar ** n * bbar[:, impulse_channel]))
        assert np.max(np.abs(outs[n] - kern)) < 1e-10


def test_s4d_pure_feedthrough():
    w = random_s4d(RNG)
    w.C_re[:] = 0.0
    w.C_im[:] = 0.0
    w.D[:] = 1.0
    u = RNG.normal(size=(3, 6))
    o, _ = scan(layer("s4d", s4d=w), u, RNG.normal(size=12) + 0j)
    assert np.allclose(o, u, rtol=1e-14)


def test_s4d_matches_scalar_oracle():
    rng = np.random.default_rng(21)
    for _ in range(20):
        w = random_s4d(rng)
        h = rng.normal(size=12) + 1j * rng.normal(size=12)
        u = rng.normal(size=(3, 6))
        o, end = scan(layer("s4d", s4d=w), u, h.copy())
        for t in range(3):
            h, o_ref = oracles.s4d_step_oracle(w.a_diag(), w.delta(), w.B_re + 1j * w.B_im,
                                               w.C_re + 1j * w.C_im, w.D, h, u[t])
            assert np.max(np.abs(o[t] - o_ref)) < 1e-10
        assert np.max(np.abs(end["h"] - h)) < 1e-10


# ---------------------------------------------------------------------------
# S6
# ---------------------------------------------------------------------------

def test_s6_zero_b_map_keeps_state_dark():
    w = random_s6(RNG)
    w.W_B[:] = 0.0
    w.b_B[:] = 0.0
    u = RNG.normal(size=(10, 6))
    o, h = stepwise(layer("s6", s6=w), u, np.zeros(12))
    assert np.all(h == 0.0)
    # with zero state, output is the D path plus the C-bias times zero state
    assert np.allclose(o, w.D * u, atol=1e-12)


def test_s6_constant_input_reduces_to_s4d_form():
    rng = np.random.default_rng(31)
    w = random_s6(rng)
    u = rng.normal(size=6)
    # freeze the input-dependent pieces at their values for u
    zd = float(w.W_delta @ u + w.b_delta[0])
    delta = np.log1p(np.exp(-abs(zd))) + max(zd, 0.0)
    bv = w.W_B @ u + w.b_B
    cv = w.W_C @ u + w.b_C
    a = w.a_diag()
    abar = np.exp(delta * a)
    bbar_vec = (abar - 1.0) / a * bv
    # equivalent block-structured S4D matrices (12 states, 6 inputs/outputs)
    Bblock = np.zeros((12, 6))
    Cblock = np.zeros((6, 12))
    for d in range(6):
        for k in range(2):
            Bblock[2 * d + k, d] = bbar_vec[2 * d + k]
            Cblock[d, 2 * d + k] = cv[2 * d + k]
    m = layer("s6", s6=w)
    u_seq = np.tile(u, (50, 1))
    o_scan, end = scan(m, u_seq, np.zeros(12))
    o_step, h_step = stepwise(m, u_seq, np.zeros(12))
    h4 = np.zeros(12, dtype=complex)
    for n in range(50):
        h4 = abar.astype(complex) * h4 + Bblock.astype(complex) @ u
        o4 = np.real(Cblock @ h4) + w.D * u
        assert np.max(np.abs(h_step[n] - h4.real)) < 1e-10
        assert np.max(np.abs(o_step[n] - o4)) < 1e-10
        assert np.max(np.abs(o_scan[n] - o4)) < 1e-10
    assert np.max(np.abs(end["h"] - h4.real)) < 1e-10


def test_s6_matches_scalar_oracle():
    rng = np.random.default_rng(37)
    for _ in range(50):
        w = random_s6(rng)
        h = rng.normal(size=12)
        u = rng.normal(size=(3, 6))
        o, end = scan(layer("s6", s6=w), u, h.copy())
        for t in range(3):
            h, o_ref = oracles.s6_step_oracle(w.log_neg_a, w.W_delta, w.b_delta[0],
                                              w.W_B, w.b_B, w.W_C, w.b_C, w.D, h, u[t])
            assert np.max(np.abs(o[t] - o_ref)) < 1e-10
        assert np.max(np.abs(end["h"] - h)) < 1e-10


# ---------------------------------------------------------------------------
# bulk 1000-trial oracle equivalence (shared across the suite)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("arch", ["lstm", "lru", "s4d", "s6", "ed"])
def test_step_functions_match_oracles_1000(arch):
    rng = np.random.default_rng(ARCHITECTURES.index(arch))  # fixed per architecture
    worst = 0.0
    for _ in range(1000):
        if arch in ("lstm", "ed"):
            w = random_lstm(rng)
            h, c, u = rng.normal(size=8), rng.normal(size=8), rng.normal(size=4)
            h0, c0 = h, c
            if arch == "ed":
                enc = random_encoder(rng)
                x = rng.normal(size=32)
                ch, cc = oracles.ed_encode_oracle(enc.kernel_h, enc.bias_h[0],
                                                  enc.kernel_c, enc.bias_c[0], x)
                h0, c0 = oracles.ed_merge_oracle(h, c, ch, cc)
                o, end = scan(layer("ed", enc=enc, lstm=w), u[None], h, c, x[None])
            else:
                o, end = scan(layer("lstm", lstm=w), u[None], h, c)
            h_ref, c_ref = oracles.lstm_step_oracle(w.W, w.U, w.b, h0, c0, u)
            worst = max(worst, np.max(np.abs(o[0] - h_ref)), np.max(np.abs(end["c"] - c_ref)))
            continue
        if arch == "s6":
            w = random_s6(rng)
            h = rng.normal(size=12)
            u = rng.normal(size=6)
            h_ref, o_ref = oracles.s6_step_oracle(w.log_neg_a, w.W_delta, w.b_delta[0],
                                                  w.W_B, w.b_B, w.W_C, w.b_C, w.D, h, u)
        elif arch == "lru":
            w = random_lru(rng)
            h = rng.normal(size=12) + 1j * rng.normal(size=12)
            u = rng.normal(size=6)
            h_ref, o_ref = oracles.lru_step_oracle(w.nu, w.theta, w.U_re, w.U_im, w.b_re,
                                                   w.b_im, w.W_re, w.W_im, w.b_o, h, u)
        else:
            w = random_s4d(rng)
            h = rng.normal(size=12) + 1j * rng.normal(size=12)
            u = rng.normal(size=6)
            h_ref, o_ref = oracles.s4d_step_oracle(w.a_diag(), w.delta(), w.B_re + 1j * w.B_im,
                                                   w.C_re + 1j * w.C_im, w.D, h, u)
        o, end = scan(layer(arch, **{arch: w}), u[None], h)
        worst = max(worst, np.max(np.abs(end["h"] - h_ref)), np.max(np.abs(o[0] - o_ref)))
    assert worst < 1e-10, f"{arch}: worst deviation {worst:.2e}"
