"""The linear-recurrence layers can express the oracle filters: LRU and S4D
weights built by hand reproduce a fixed ``resonant_lowpass`` and
``peaking_eq`` through the whole pipeline.

The recipe: the projection picks the current sample; each conjugate pole
pair of the biquad becomes one complex state read out through 2r (r its
residue), and each real pole one real state read out through r; the direct
term d = b2/a2 goes through a state with lambda ~ 0 (LRU) or through D
(S4D).  The post-FC scales by EPS into tanh's linear range, the GLU gate is
held at a constant g by a huge bias, and the output layer undoes both.
"""

import numpy as np
import pytest

from statefx import data
from statefx.cells import softsign
from statefx.model import Model, ModelConfig

FS = 48000
EPS = 1e-4          # post-FC scale: tanh(EPS * y) = EPS * y to 1e-8 relative
GATE_BIAS = 1e6     # softsign of it is a constant gate g just below 1


def partial_fractions(b, a):
    """H(z) = d + sum_k r_k / (1 - p_k z^-1) for a biquad with two distinct poles:
    (d, poles, residues)."""
    d = b[2] / a[2]
    n0, n1 = b[0] - d, b[1] - d * a[1]          # numerator of H - d, degree 1 in z^-1
    p = np.roots(a).astype(complex)
    return d, p, (n0 * p + n1) / (p - p[::-1])


def modes(b, a):
    """(pole, readout) per recurrent state: one complex state with readout 2r
    per conjugate pair, one real state with readout r per real pole; and d."""
    d, p, r = partial_fractions(b, a)
    if p[0].imag != 0.0:
        k = int(np.argmax(p.imag))
        return [(p[k], 2.0 * r[k])], d
    return [(p[0].real, r[0].real), (p[1].real, r[1].real)], d


def hand_built(arch, b, a):
    """A cond_dim 0 model of ``arch`` ("lru" or "s4d") equal to b(z)/a(z)."""
    m = Model.init(ModelConfig(arch, cond_dim=0), seed=0)
    prm = m.params
    for k in prm:
        if k not in (f"{arch}.nu", f"{arch}.theta", f"{arch}.log_neg_a_re", f"{arch}.a_im",
                     f"{arch}.log_delta"):
            prm[k][...] = 0.0
    prm["proj.W"][0, 0] = 1.0                   # u[0] = x_t, the window's newest sample
    states, d = modes(b, a)
    if arch == "lru":
        states.append((0.0, d))                 # lambda = exp(-exp(5)) ~ 1e-64: h_t = x_t
    for k, (pole, readout) in enumerate(states):
        if arch == "lru":
            prm["lru.nu"][k] = 5.0 if pole == 0.0 else np.log(-np.log(abs(pole)))
            prm["lru.theta"][k] = np.angle(pole)
            gamma = np.sqrt(1.0 - np.exp(-2.0 * np.exp(prm["lru.nu"][k])))
            prm["lru.U_re"][k, 0] = 1.0 / gamma
            prm["lru.W_re"][0, k], prm["lru.W_im"][0, k] = readout.real, readout.imag
        else:  # delta = 1 and A = log(pole): abar = pole, and 1 / s undoes the input scale
            prm["s4d.log_delta"][k] = 0.0
            prm["s4d.log_neg_a_re"][k] = np.log(-np.log(abs(pole)))
            prm["s4d.a_im"][k] = np.angle(pole)
            a_k = np.log(complex(pole))
            s = (np.exp(a_k) - 1.0) / a_k
            prm["s4d.B_re"][k, 0], prm["s4d.B_im"][k, 0] = (1.0 / s).real, (1.0 / s).imag
            prm["s4d.C_re"][0, k], prm["s4d.C_im"][0, k] = readout.real, readout.imag
    if arch == "s4d":
        prm["s4d.D"][0] = d
    prm["post.W"][0, 0] = EPS
    prm["glu.W"][0, 0] = 1.0
    prm["glu.b"][4] = GATE_BIAS
    prm["out.W"][0] = 1.0 / (EPS * softsign(GATE_BIAS))
    m.check_stability()
    return m


CASES = {
    "lowpass-300-q4": ("resonant_lowpass", {"cutoff": 300.0, "resonance": 4.0}),
    "peaking-100-+12dB-q4": ("peaking_eq", {"freq": 100.0, "gain_db": 12.0, "q": 4.0}),
    # repeated pole, split by rounding into two close ones whose residues cancel
    "lowpass-60-q0.5": ("resonant_lowpass", {"cutoff": 60.0, "resonance": 0.5}),
    # two real poles, 0.899 and 0.149: one real state each
    "peaking-3000--12dB-q0.5": ("peaking_eq", {"freq": 3000.0, "gain_db": -12.0, "q": 0.5}),
}


def biquad(kind, params):
    if kind == "resonant_lowpass":
        return data._rbj_lowpass(params["cutoff"], params["resonance"], FS)
    return data._rbj_peaking(params["freq"], params["q"], params["gain_db"], FS)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("arch", ["lru", "s4d"])
def test_hand_built_diagonal_layer_reproduces_oracle_filter(arch, case):
    kind, params = CASES[case]
    m = hand_built(arch, *biquad(kind, params))
    x = np.random.default_rng(18).uniform(-1.0, 1.0, 9600)
    target = data.apply_oracle(data.get_effect(kind), params, x, FS)
    y, _ = m.forward_segment(m.init_state(1), x)
    esr = np.sum((target - y) ** 2) / np.sum(target ** 2)
    assert esr <= 1e-12, f"{arch} {case}: ESR {esr:.3g}"


def test_real_pole_case_has_real_poles():
    _, p, _ = partial_fractions(*biquad(*CASES["peaking-3000--12dB-q0.5"]))
    assert np.all(p.imag == 0.0)
    assert np.allclose(sorted(p.real), [0.149, 0.899], atol=5e-4)


def test_repeated_pole_reached_through_cancelling_residues():
    # at Q = 0.5 the low-pass poles coincide; rounding splits them by 3.6e-8,
    # and a diagonal layer reaches the double pole only through residues of
    # about 1.7e3 that cancel each other
    _, p, r = partial_fractions(*biquad(*CASES["lowpass-60-q0.5"]))
    assert 1e-8 < abs(p[0] - p[1]) < 1e-7
    assert np.all(np.abs(r) > 1e3) and abs(r.sum()) < 1e-5
