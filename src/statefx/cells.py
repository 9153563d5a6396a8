"""Weight views, initialization and constants of the five recurrent layers
and the shared input projection.

Every network maps the 64 most recent input samples to one output sample.
Windows are stored newest-first: ``window[0]`` is the current sample,
``window[63]`` the oldest.  A linear projection compresses the window to
the recurrent layer's input size (4 for the LSTM family, 6 for the
linear-recurrence family), the recurrent layer updates its state, and a
readout hands a small vector to the rest of the network.

The dataclasses here are views over a model's named parameters, the
``init_*`` functions draw their starting values, and LRU and S4D share
``diag_lti_constants``: they differ only in ``coeffs()`` and in the field
names their ``LTI`` attribute gives.  The equations themselves live in
``statefx.model``: ``Model.forward_sample`` is the per-sample reference,
``Model.forward_segment`` the batched route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StabilityError

WINDOW_LEN = 64

# Layer widths. LSTM/ED: 8 recurrent units, 4-wide projection.
# LRU/S4D/S6: 12 recurrent state numbers, 6-wide projection and readout.
LSTM_UNITS = 8
LSTM_IN = 4
SSM_STATE = 12
SSM_IN = 6

# ED encoder: each of the two convolutional maps turns the 32 oldest
# window samples into an 8-vector with a kernel of 4 and stride 4.
ED_SPLIT = 32
ED_KERNEL = 4


# ---------------------------------------------------------------------------
# Input projection
# ---------------------------------------------------------------------------

@dataclass
class Projection:
    """Linear map from an input window to the recurrent layer input."""

    W: np.ndarray  # (units, window_len)
    b: np.ndarray  # (units,)


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

@dataclass
class LstmWeights:
    """Gate weights, stacked rows in f, i, o, c order (8 rows each)."""

    W: np.ndarray  # (32, 8)  hidden-to-gates
    U: np.ndarray  # (32, 4)  input-to-gates
    b: np.ndarray  # (32,)


# ---------------------------------------------------------------------------
# Encoder-decoder LSTM (state sharing)
# ---------------------------------------------------------------------------

@dataclass
class EdEncoder:
    """Two strided convolutions mapping the 32 oldest samples to 8-vectors."""

    kernel_h: np.ndarray  # (4,)
    bias_h: np.ndarray    # (1,)
    kernel_c: np.ndarray  # (4,)
    bias_c: np.ndarray    # (1,)


# ---------------------------------------------------------------------------
# Diagonal linear time-invariant layers (LRU, S4D)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagLti:
    """Which weight fields play which role in one diagonal-LTI layer:

        h_n = lam * h_{n-1} + (s * M) @ u_n + b,   o_n = Re(C @ h_n) + D * u_n + b_o

    A weight class names its roles in a class attribute ``LTI``; its
    ``coeffs()`` maps the per-channel parameters to (lam, s) and
    ``coeffs_vjp()`` maps their gradients back.  M, C and b are complex,
    stored as ``<name>_re``/``<name>_im``; a term the layer lacks is None.
    """

    M: str
    C: str
    b: str | None = None
    b_o: str | None = None
    D: str | None = None


def complex_field(w, name: str) -> np.ndarray:
    """The complex array ``w.<name>_re + i * w.<name>_im``."""
    return getattr(w, name + "_re") + 1j * getattr(w, name + "_im")


def diag_lti_constants(w) -> tuple:
    """(lam, s, M, b, C) of one LRU or S4D layer, each built once from the
    weights: (lam, s) from ``w.coeffs()``, the complex fields named by
    ``w.LTI``, and b None when the layer has no input bias."""
    lti = w.LTI
    lam, s = w.coeffs()
    b = complex_field(w, lti.b) if lti.b else None
    return lam, s, complex_field(w, lti.M), b, complex_field(w, lti.C)


# ---------------------------------------------------------------------------
# LRU
# ---------------------------------------------------------------------------

@dataclass
class LruWeights:
    """Diagonal complex linear recurrence with an exponential parameterization.

    lambda_k = exp(-exp(nu_k) + i * theta_k) keeps |lambda_k| < 1 for every
    finite nu; gamma_k = sqrt(1 - |lambda_k|^2) normalizes the input path.
    The readout takes the real part only.
    """

    nu: np.ndarray      # (12,)
    theta: np.ndarray   # (12,)
    U_re: np.ndarray    # (12, 6)
    U_im: np.ndarray    # (12, 6)
    b_re: np.ndarray    # (12,)
    b_im: np.ndarray    # (12,)
    W_re: np.ndarray    # (6, 12)
    W_im: np.ndarray    # (6, 12)
    b_o: np.ndarray     # (6,)

    LTI = DiagLti(M="U", C="W", b="b", b_o="b_o")

    def lam(self) -> np.ndarray:
        return self.coeffs()[0]

    def coeffs(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal-LTI coefficients (lambda, gamma): the input map is gamma * U."""
        e_nu = np.exp(self.nu)
        return np.exp(-e_nu + 1j * self.theta), np.sqrt(1.0 - np.exp(-2.0 * e_nu))

    def coeffs_vjp(self, lam, gamma, g_lam, g_gamma) -> dict[str, np.ndarray]:
        """Field gradients from the packed gradients of coeffs()'s (lambda, gamma)."""
        # lambda = exp(-exp(nu) + i theta); gamma = sqrt(1 - exp(-2 exp(nu)))
        gw = np.conj(lam) * g_lam
        e_nu = np.exp(self.nu)
        return {"theta": gw.imag.copy(),
                "nu": -gw.real * e_nu + g_gamma.real * (e_nu * np.exp(-2.0 * e_nu) / gamma)}

    def validate(self) -> None:
        # exp(nu) > 0 is exactly |lambda| < 1; |lambda| itself rounds to 1
        # for tiny exp(nu) that are stable.
        if not (np.all(np.isfinite(self.nu)) and np.all(np.isfinite(self.theta))):
            raise StabilityError("LRU nu and theta must be finite")
        if np.any(np.exp(self.nu) <= 0.0):
            raise StabilityError("LRU recurrent multipliers must satisfy |lambda| < 1 (exp(nu) > 0)")


# ---------------------------------------------------------------------------
# S4D
# ---------------------------------------------------------------------------

@dataclass
class S4dWeights:
    """Diagonal state-space layer, zero-order-hold discretized.

    The continuous diagonal A_k = -exp(log_neg_a_re_k) + i * a_im_k has a
    strictly negative real part; delta_k = exp(log_delta_k) > 0.  Input and
    output maps B, C are dense complex; D is a real elementwise feedthrough.
    """

    log_neg_a_re: np.ndarray  # (12,)
    a_im: np.ndarray          # (12,)
    log_delta: np.ndarray     # (12,)
    B_re: np.ndarray          # (12, 6)
    B_im: np.ndarray          # (12, 6)
    C_re: np.ndarray          # (6, 12)
    C_im: np.ndarray          # (6, 12)
    D: np.ndarray             # (6,)

    LTI = DiagLti(M="B", C="C", D="D")

    def a_diag(self) -> np.ndarray:
        return -np.exp(self.log_neg_a_re) + 1j * self.a_im

    def delta(self) -> np.ndarray:
        return np.exp(self.log_delta)

    def coeffs(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal-LTI coefficients (abar, s): bbar = s * B."""
        return s4d_zoh(self.a_diag(), self.delta())

    def coeffs_vjp(self, abar, s, g_abar, g_s) -> dict[str, np.ndarray]:
        """Field gradients from the packed gradients of coeffs()'s (abar, s)."""
        # abar = exp(delta * a); s = (abar - 1) / a
        a, delta = self.a_diag(), self.delta()
        g_abar = g_abar + g_s * np.conj(1.0 / a)
        gA = g_s * np.conj(-s / a)
        gz = np.conj(abar) * g_abar
        gA = gA + gz * delta
        return {"log_neg_a_re": -gA.real * np.exp(self.log_neg_a_re),
                "a_im": gA.imag.copy(),
                "log_delta": (np.conj(a) * gz).real * delta}

    def validate(self) -> None:
        # s4d_zoh rejects delta <= 0 and Re(a) >= 0, which is exactly
        # |abar| < 1; |abar| itself rounds to 1 for tiny steps that are stable.
        abar, _ = self.coeffs()
        if not np.all(np.isfinite(abar)):
            raise StabilityError("S4D discretized multipliers must be finite")


def s4d_zoh(a_diag: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order-hold multiplier and input scale of a diagonal continuous system.

    abar_k = exp(delta_k a_k); s_k = (abar_k - 1) / a_k.
    Requires Re(a_k) < 0 and delta_k > 0 so that |abar_k| < 1.
    """
    a_diag = np.asarray(a_diag, dtype=np.complex128)
    delta = np.asarray(delta, dtype=np.float64)
    if np.any(a_diag.real >= 0.0):
        raise StabilityError("s4d_zoh needs Re(a_k) < 0 for every channel")
    if np.any(delta <= 0.0):
        raise StabilityError("s4d_zoh needs delta > 0")
    abar = np.exp(delta * a_diag)
    return abar, (abar - 1.0) / a_diag


# ---------------------------------------------------------------------------
# S6 (input-dependent B, C and step size)
# ---------------------------------------------------------------------------

@dataclass
class S6Weights:
    """Selective SSM: B_n, C_n and the step size depend on the current input.

    The 12 real state numbers are grouped as 6 channels x 2 substates; the
    channel layout index is 2*d + k.  A = -exp(log_neg_a) is a fixed real
    negative diagonal; B_n = W_B @ u + b_B and C_n = W_C @ u + b_C are
    per-(channel, substate) coefficients produced by linear layers, and
    delta_n = softplus(W_delta @ u + b_delta) is a shared scalar step.
    """

    log_neg_a: np.ndarray  # (12,)
    W_delta: np.ndarray    # (6,)
    b_delta: np.ndarray    # (1,)
    W_B: np.ndarray        # (12, 6)
    b_B: np.ndarray        # (12,)
    W_C: np.ndarray        # (12, 6)
    b_C: np.ndarray        # (12,)
    D: np.ndarray          # (6,)

    def a_diag(self) -> np.ndarray:
        return -np.exp(self.log_neg_a)


def softplus(x):
    """log(1 + exp(x)), overflow-safe."""
    x = np.asarray(x, dtype=np.float64)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def init_projection(rng: np.random.Generator, units: int, window: int) -> Projection:
    bound = 1.0 / np.sqrt(window)
    return Projection(W=rng.uniform(-bound, bound, (units, window)),
                      b=np.zeros(units))


def init_lstm(rng: np.random.Generator) -> LstmWeights:
    bound = 1.0 / np.sqrt(LSTM_UNITS)
    b = np.zeros(4 * LSTM_UNITS)
    b[:LSTM_UNITS] = 1.0  # forget-gate bias starts open
    return LstmWeights(
        W=rng.uniform(-bound, bound, (4 * LSTM_UNITS, LSTM_UNITS)),
        U=rng.uniform(-bound, bound, (4 * LSTM_UNITS, LSTM_IN)),
        b=b,
    )


def init_ed_encoder(rng: np.random.Generator) -> EdEncoder:
    bound = 1.0 / np.sqrt(ED_KERNEL)
    return EdEncoder(
        kernel_h=rng.uniform(-bound, bound, ED_KERNEL),
        bias_h=np.zeros(1),
        kernel_c=rng.uniform(-bound, bound, ED_KERNEL),
        bias_c=np.zeros(1),
    )


def init_lru(rng: np.random.Generator) -> LruWeights:
    """Eigenvalue radii uniform in [0.5, 0.99), phases in [0, pi/10)."""
    r = rng.uniform(0.5, 0.99, SSM_STATE)
    s_in = 1.0 / np.sqrt(2.0 * SSM_IN)
    s_out = 1.0 / np.sqrt(2.0 * SSM_STATE)
    w = LruWeights(
        nu=np.log(-np.log(r)),
        theta=rng.uniform(0.0, np.pi / 10.0, SSM_STATE),
        U_re=rng.normal(0.0, s_in, (SSM_STATE, SSM_IN)),
        U_im=rng.normal(0.0, s_in, (SSM_STATE, SSM_IN)),
        b_re=np.zeros(SSM_STATE),
        b_im=np.zeros(SSM_STATE),
        W_re=rng.normal(0.0, s_out, (SSM_IN, SSM_STATE)),
        W_im=rng.normal(0.0, s_out, (SSM_IN, SSM_STATE)),
        b_o=np.zeros(SSM_IN),
    )
    w.validate()
    return w


def init_s4d(rng: np.random.Generator) -> S4dWeights:
    """Step sizes log-uniform in [1e-3, 1e-1)."""
    k = np.arange(SSM_STATE, dtype=np.float64)
    s_in = 1.0 / np.sqrt(2.0 * SSM_IN)
    s_out = 1.0 / np.sqrt(2.0 * SSM_STATE)
    return S4dWeights(
        log_neg_a_re=np.full(SSM_STATE, np.log(0.5)),  # A_k = -1/2 + i*pi*k
        a_im=np.pi * k,
        log_delta=rng.uniform(np.log(1e-3), np.log(1e-1), SSM_STATE),
        B_re=rng.normal(0.0, s_in, (SSM_STATE, SSM_IN)),
        B_im=rng.normal(0.0, s_in, (SSM_STATE, SSM_IN)),
        C_re=rng.normal(0.0, s_out, (SSM_IN, SSM_STATE)),
        C_im=rng.normal(0.0, s_out, (SSM_IN, SSM_STATE)),
        D=np.ones(SSM_IN),
    )


def init_s6(rng: np.random.Generator) -> S6Weights:
    s_in = 1.0 / np.sqrt(SSM_IN)
    delta0 = 0.01
    return S6Weights(
        log_neg_a=np.log(np.tile([1.0, 2.0], SSM_IN)),
        W_delta=rng.normal(0.0, s_in, SSM_IN),
        b_delta=np.array([np.log(np.expm1(delta0))]),  # softplus(b) = delta0
        W_B=rng.normal(0.0, s_in, (SSM_STATE, SSM_IN)),
        b_B=np.zeros(SSM_STATE),
        W_C=rng.normal(0.0, s_in, (SSM_STATE, SSM_IN)),
        b_C=np.zeros(SSM_STATE),
        D=np.ones(SSM_IN),
    )
