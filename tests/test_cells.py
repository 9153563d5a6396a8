import numpy as np
import pytest

from statefx import cells
from statefx.cells import (
    EdEncoder,
    LruWeights,
    LstmState,
    LstmWeights,
    Projection,
    S4dWeights,
    S6Weights,
    SsmState,
    diag_lti_step,
    ed_encode,
    ed_state_merge,
    lstm_step,
    project_input,
    s4d_zoh,
    s6_step,
)
from statefx.errors import DimensionError, NumericError, StabilityError

import oracles

RNG = np.random.default_rng(42)


def random_lstm(rng):
    return LstmWeights(W=rng.normal(size=(32, 8)), U=rng.normal(size=(32, 4)),
                       b=rng.normal(size=32))


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


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_project_zero_weights_returns_bias():
    b = RNG.normal(size=4)
    proj = Projection(W=np.zeros((4, 64)), b=b)
    assert np.array_equal(project_input(proj, RNG.normal(size=64)), b)


def test_project_selector_rows():
    W = np.zeros((4, 64))
    W[0, 0] = 1.0  # newest sample
    W[1, 63] = 1.0  # oldest
    proj = Projection(W=W, b=np.zeros(4))
    x = RNG.normal(size=64)
    u = project_input(proj, x)
    assert u[0] == x[0] and u[1] == x[63] and u[2] == 0.0


def test_project_matches_oracle():
    for _ in range(10):
        W = RNG.normal(size=(6, 64))
        b = RNG.normal(size=6)
        x = RNG.normal(size=64)
        ref = oracles.project_oracle(W, b, x)
        assert np.max(np.abs(project_input(Projection(W, b), x) - ref)) < 1e-12


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

def test_lstm_zero_weights_fixed_point():
    w = LstmWeights(W=np.zeros((32, 8)), U=np.zeros((32, 4)), b=np.zeros(32))
    st, h = lstm_step(w, LstmState(np.zeros(8), np.zeros(8)), np.zeros(4))
    assert np.all(h == 0.0) and np.all(st.c == 0.0)


def test_lstm_gate_saturation_pure_memory():
    # forget gate driven to 1, input gate to 0: c passes through unchanged
    w = LstmWeights(W=np.zeros((32, 8)), U=np.zeros((32, 4)), b=np.zeros(32))
    w.b[0:8] = 60.0    # forget ~ 1
    w.b[8:16] = -60.0  # input ~ 0
    c0 = RNG.normal(size=8)
    st, _ = lstm_step(w, LstmState(np.zeros(8), c0.copy()), RNG.normal(size=4))
    assert np.allclose(st.c, c0, atol=1e-12)


def test_lstm_matches_scalar_oracle():
    for _ in range(50):
        w = random_lstm(RNG)
        h = RNG.normal(size=8)
        c = RNG.normal(size=8)
        u = RNG.normal(size=4)
        st, out = lstm_step(w, LstmState(h.copy(), c.copy()), u)
        h_ref, c_ref = oracles.lstm_step_oracle(w.W, w.U, w.b, h, c, u)
        assert np.max(np.abs(st.h - h_ref)) < 1e-12
        assert np.max(np.abs(st.c - c_ref)) < 1e-12
        assert np.array_equal(out, st.h)


def test_lstm_h_bounded():
    for _ in range(20):
        w = random_lstm(RNG)
        st = LstmState(RNG.uniform(-1, 1, 8), RNG.normal(size=8) * 3)
        for _ in range(50):
            st, h = lstm_step(w, st, RNG.normal(size=4))
        assert np.all(np.abs(h) < 1.0)


def test_lstm_rejects_nonfinite_state():
    w = random_lstm(RNG)
    bad = LstmState(np.full(8, np.nan), np.zeros(8))
    with pytest.raises(NumericError):
        lstm_step(w, bad, np.zeros(4))


def test_lstm_deterministic():
    w = random_lstm(np.random.default_rng(5))
    st = LstmState(np.ones(8) * 0.1, np.ones(8) * -0.2)
    u = np.ones(4) * 0.3
    a = lstm_step(w, st, u)
    b = lstm_step(w, st, u)
    assert np.array_equal(a[1], b[1]) and np.array_equal(a[0].c, b[0].c)


# ---------------------------------------------------------------------------
# ED encoder and merge
# ---------------------------------------------------------------------------

def test_ed_encode_zero():
    enc = EdEncoder(np.zeros(4), np.zeros(1), np.zeros(4), np.zeros(1))
    h, c = ed_encode(enc, RNG.normal(size=32))
    assert np.all(h == 0.0) and np.all(c == 0.0)


def test_ed_encode_constant_signal_times_kernel_sum():
    k_h = RNG.normal(size=4)
    k_c = RNG.normal(size=4)
    enc = EdEncoder(k_h, np.zeros(1), k_c, np.zeros(1))
    kappa = 0.7
    h, c = ed_encode(enc, np.full(32, kappa))
    assert np.allclose(h, kappa * k_h.sum(), atol=1e-12)
    assert np.allclose(c, kappa * k_c.sum(), atol=1e-12)


def test_ed_encode_matches_direct_convolution():
    for _ in range(20):
        enc = EdEncoder(RNG.normal(size=4), RNG.normal(size=1),
                        RNG.normal(size=4), RNG.normal(size=1))
        x = RNG.normal(size=32)
        h, c = ed_encode(enc, x)
        h_ref, c_ref = oracles.ed_encode_oracle(enc.kernel_h, enc.bias_h[0],
                                                enc.kernel_c, enc.bias_c[0], x)
        assert np.max(np.abs(h - h_ref)) < 1e-12
        assert np.max(np.abs(c - c_ref)) < 1e-12


def test_ed_merge_zero_state_halves_candidates():
    cand_h = RNG.normal(size=8)
    cand_c = RNG.normal(size=8)
    st = ed_state_merge(LstmState(np.zeros(8), np.zeros(8)), cand_h, cand_c)
    assert np.allclose(st.h, 0.5 * cand_h)
    assert np.allclose(st.c, 0.5 * cand_c)


def test_ed_merge_saturation_full_forget():
    st = ed_state_merge(LstmState(np.full(8, -80.0), np.full(8, -80.0)),
                        np.ones(8), np.ones(8))
    assert np.all(np.abs(st.h) < 1e-30) and np.all(np.abs(st.c) < 1e-30)


def test_ed_merge_matches_elementwise_oracle():
    for _ in range(20):
        h_prev = RNG.normal(size=8)
        c_prev = RNG.normal(size=8)
        ch = RNG.normal(size=8)
        cc = RNG.normal(size=8)
        st = ed_state_merge(LstmState(h_prev, c_prev), ch, cc)
        h_ref, c_ref = oracles.ed_merge_oracle(h_prev, c_prev, ch, cc)
        assert np.max(np.abs(st.h - h_ref)) < 1e-15
        assert np.max(np.abs(st.c - c_ref)) < 1e-15


# ---------------------------------------------------------------------------
# LRU
# ---------------------------------------------------------------------------

def test_lru_homogeneous_decay():
    w = random_lru(RNG)
    w.b_re[:] = 0.0
    w.b_im[:] = 0.0
    v = RNG.normal(size=12) + 1j * RNG.normal(size=12)
    st = SsmState(v.copy())
    for _ in range(5):
        st, _ = diag_lti_step(w, st, np.zeros(6))
    assert np.allclose(st.h, w.lam() ** 5 * v, rtol=1e-12)


def test_lru_memoryless_limit():
    w = random_lru(RNG)
    w.nu[:] = np.log(50.0)  # |lambda| = exp(-50): effectively zero memory
    u = RNG.normal(size=6)
    st1, o1 = diag_lti_step(w, SsmState(np.zeros(12, dtype=complex)), u)
    st2, o2 = diag_lti_step(w, SsmState(100.0 + 100.0j + np.zeros(12, dtype=complex)), u)
    assert np.allclose(o1, o2, atol=1e-8)


def test_lru_matches_complex_loop_oracle_impulse_response():
    rng = np.random.default_rng(9)
    w = random_lru(rng)
    h = np.zeros(12, dtype=complex)
    h_ref = np.zeros(12, dtype=complex)
    st = SsmState(h)
    for n in range(100):
        u = np.zeros(6)
        if n == 0:
            u[:] = 1.0
        st, o = diag_lti_step(w, st, u)
        h_ref, o_ref = oracles.lru_step_oracle(w.nu, w.theta, w.U_re, w.U_im, w.b_re,
                                               w.b_im, w.W_re, w.W_im, w.b_o, h_ref, u)
        assert np.max(np.abs(st.h - h_ref)) < 1e-10
        assert np.max(np.abs(o - o_ref)) < 1e-10


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
    w = random_s4d(RNG)
    st = SsmState(np.zeros(12, dtype=complex))
    for _ in range(5):
        st, o = diag_lti_step(w, st, np.zeros(6))
    assert np.all(st.h == 0.0)


def test_s4d_impulse_matches_kernel_form():
    rng = np.random.default_rng(11)
    w = random_s4d(rng)
    w.D[:] = 0.0
    abar, s = w.coeffs()
    bbar = s[:, None] * (w.B_re + 1j * w.B_im)
    C = w.C_re + 1j * w.C_im
    st = SsmState(np.zeros(12, dtype=complex))
    impulse_channel = 2
    outs = []
    for n in range(64):
        u = np.zeros(6)
        if n == 0:
            u[impulse_channel] = 1.0
        st, o = diag_lti_step(w, st, u)
        outs.append(o)
    # kernel form: y_n = Re(C abar^n bbar[:, ch])
    for n in range(64):
        kern = np.real(C @ (abar ** n * bbar[:, impulse_channel]))
        assert np.max(np.abs(outs[n] - kern)) < 1e-10


def test_s4d_pure_feedthrough():
    w = random_s4d(RNG)
    w.C_re[:] = 0.0
    w.C_im[:] = 0.0
    w.D[:] = 1.0
    u = RNG.normal(size=6)
    _, o = diag_lti_step(w, SsmState(RNG.normal(size=12) + 0j), u)
    assert np.allclose(o, u, rtol=1e-14)


def test_s4d_matches_scalar_oracle():
    rng = np.random.default_rng(21)
    for _ in range(20):
        w = random_s4d(rng)
        h = rng.normal(size=12) + 1j * rng.normal(size=12)
        u = rng.normal(size=6)
        st, o = diag_lti_step(w, SsmState(h.copy()), u)
        h_ref, o_ref = oracles.s4d_step_oracle(w.a_diag(), w.delta(),
                                               w.B_re + 1j * w.B_im, w.C_re + 1j * w.C_im,
                                               w.D, h, u)
        assert np.max(np.abs(st.h - h_ref)) < 1e-10
        assert np.max(np.abs(o - o_ref)) < 1e-10


# ---------------------------------------------------------------------------
# S6
# ---------------------------------------------------------------------------

def test_s6_zero_b_map_keeps_state_dark():
    w = random_s6(RNG)
    w.W_B[:] = 0.0
    w.b_B[:] = 0.0
    st = SsmState(np.zeros(12))
    for _ in range(10):
        u = RNG.normal(size=6)
        st, o = s6_step(w, st, u)
        assert np.all(st.h == 0.0)
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
    h6 = np.zeros(12)
    h4 = np.zeros(12, dtype=complex)
    st6 = SsmState(h6)
    for _ in range(50):
        st6, o6 = s6_step(w, st6, u)
        h4 = abar.astype(complex) * h4 + Bblock.astype(complex) @ u
        o4 = np.real(Cblock @ h4) + w.D * u
        assert np.max(np.abs(st6.h - h4.real)) < 1e-10
        assert np.max(np.abs(o6 - o4)) < 1e-10


def test_s6_matches_scalar_oracle():
    rng = np.random.default_rng(37)
    for _ in range(50):
        w = random_s6(rng)
        h = rng.normal(size=12)
        u = rng.normal(size=6)
        st, o = s6_step(w, SsmState(h.copy()), u)
        h_ref, o_ref = oracles.s6_step_oracle(w.log_neg_a, w.W_delta, w.b_delta[0],
                                              w.W_B, w.b_B, w.W_C, w.b_C, w.D, h, u)
        assert np.max(np.abs(st.h - h_ref)) < 1e-10
        assert np.max(np.abs(o - o_ref)) < 1e-10


# ---------------------------------------------------------------------------
# bulk 1000-trial oracle equivalence (shared across the suite)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("arch", ["lstm", "lru", "s4d", "s6", "ed"])
def test_step_functions_match_oracles_1000(arch):
    rng = np.random.default_rng(hash(arch) % 2 ** 32)
    worst = 0.0
    for _ in range(1000):
        if arch == "lstm":
            w = random_lstm(rng)
            h, c, u = rng.normal(size=8), rng.normal(size=8), rng.normal(size=4)
            st, _ = lstm_step(w, LstmState(h.copy(), c.copy()), u)
            h_ref, c_ref = oracles.lstm_step_oracle(w.W, w.U, w.b, h, c, u)
            worst = max(worst, np.max(np.abs(st.h - h_ref)), np.max(np.abs(st.c - c_ref)))
        elif arch == "ed":
            enc = EdEncoder(rng.normal(size=4), rng.normal(size=1),
                            rng.normal(size=4), rng.normal(size=1))
            x = rng.normal(size=32)
            h, c = ed_encode(enc, x)
            h_ref, c_ref = oracles.ed_encode_oracle(enc.kernel_h, enc.bias_h[0],
                                                    enc.kernel_c, enc.bias_c[0], x)
            worst = max(worst, np.max(np.abs(h - h_ref)), np.max(np.abs(c - c_ref)))
        elif arch == "lru":
            w = random_lru(rng)
            h = rng.normal(size=12) + 1j * rng.normal(size=12)
            u = rng.normal(size=6)
            st, o = diag_lti_step(w, SsmState(h.copy()), u)
            h_ref, o_ref = oracles.lru_step_oracle(w.nu, w.theta, w.U_re, w.U_im, w.b_re,
                                                   w.b_im, w.W_re, w.W_im, w.b_o, h, u)
            worst = max(worst, np.max(np.abs(st.h - h_ref)), np.max(np.abs(o - o_ref)))
        elif arch == "s4d":
            w = random_s4d(rng)
            h = rng.normal(size=12) + 1j * rng.normal(size=12)
            u = rng.normal(size=6)
            st, o = diag_lti_step(w, SsmState(h.copy()), u)
            h_ref, o_ref = oracles.s4d_step_oracle(w.a_diag(), w.delta(), w.B_re + 1j * w.B_im,
                                                   w.C_re + 1j * w.C_im, w.D, h, u)
            worst = max(worst, np.max(np.abs(st.h - h_ref)), np.max(np.abs(o - o_ref)))
        else:
            w = random_s6(rng)
            h = rng.normal(size=12)
            u = rng.normal(size=6)
            st, o = s6_step(w, SsmState(h.copy()), u)
            h_ref, o_ref = oracles.s6_step_oracle(w.log_neg_a, w.W_delta, w.b_delta[0],
                                                  w.W_B, w.b_B, w.W_C, w.b_C, w.D, h, u)
            worst = max(worst, np.max(np.abs(st.h - h_ref)), np.max(np.abs(o - o_ref)))
    assert worst < 1e-10, f"{arch}: worst deviation {worst:.2e}"


def test_step_shape_errors():
    with pytest.raises(DimensionError):
        lstm_step(random_lstm(RNG), LstmState(np.zeros(8), np.zeros(8)), np.zeros(6))
    with pytest.raises(DimensionError):
        s6_step(random_s6(RNG), SsmState(np.zeros(12)), np.zeros(4))
    for w in (random_lru(RNG), random_s4d(RNG)):
        with pytest.raises(DimensionError):
            diag_lti_step(w, SsmState(np.zeros(12, dtype=complex)), np.zeros(4))
