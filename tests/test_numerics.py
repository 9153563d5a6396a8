import numpy as np
import pytest

from statefx import sigmoid, softsign, stft_mag
from statefx.errors import DimensionError, InputError

from oracles import dft_direct, hann, stft_mag_oracle


def test_activation_fixed_points():
    assert sigmoid(0.0) == 0.5
    assert np.tanh(0.0) == 0.0
    assert softsign(0.0) == 0.0


def masked_sigmoid(x):
    """The two-branch form: 1/(1 + e^-x) where x >= 0, e^x/(1 + e^x) elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bits_match_masked_form():
    special = np.array([0.0, 710.0, 745.0, 1e-320, np.inf])
    inputs = [np.concatenate([special, -special])]
    rng = np.random.default_rng(3)
    inputs += [rng.normal(scale=scale, size=1 << 20) for scale in (1.0, 10.0, 100.0, 1000.0)]
    for x in inputs:
        assert np.array_equal(sigmoid(x).view(np.int64), masked_sigmoid(x).view(np.int64))
        out = np.empty_like(x)
        assert sigmoid(x, out) is out and np.array_equal(out.view(np.int64), masked_sigmoid(x).view(np.int64))
    assert np.isnan(sigmoid(np.array([np.nan, -np.nan]))).all()
    assert np.isnan(sigmoid(np.nan))


def test_sigmoid_in_place_bits_match_out_of_place():
    tiny = np.finfo(np.float64).tiny
    special = np.array([0.0, np.inf, np.nan, 5e-324, tiny / 3, tiny, 1e-300, 0.5, 36.0, 37.0,
                        709.0, 710.0, 711.0, 745.0, 746.0, 1e300])
    rng = np.random.default_rng(4)
    x = np.concatenate([special, -special, rng.normal(scale=30.0, size=4096)])
    ref = sigmoid(x)
    for view in (slice(None), slice(None, None, 3)):
        y = x.copy()[view]
        assert sigmoid(y, y) is y
        assert np.array_equal(y, ref[view], equal_nan=True)
        assert np.array_equal(np.signbit(y), np.signbit(ref[view]))
    # the forward loop's (3n, B) gate rows and a strided block of them
    rows = x[:72].reshape(24, 3)
    out = np.empty_like(rows)
    assert np.array_equal(sigmoid(rows, out), ref[:72].reshape(24, 3), equal_nan=True)
    block = np.repeat(rows[None], 4, axis=0)
    sigmoid(block[:, :16], block[:, :16])
    assert np.array_equal(block[:, :16], np.broadcast_to(ref[:48].reshape(16, 3), (4, 16, 3)), equal_nan=True)
    assert np.array_equal(block[:, 16:], np.broadcast_to(rows[16:], (4, 8, 3)), equal_nan=True)


def test_activation_softsign_values():
    assert softsign(1.0) == pytest.approx(0.5)
    assert softsign(-3.0) == pytest.approx(-0.75)


def test_activation_ranges_and_monotonicity():
    # grid kept inside the float64-resolvable region: the saturating tails
    # round to exactly 0/1 past ~|x| = 37 and increments vanish
    x = np.linspace(-8.0, 8.0, 4001)
    for f, lo, hi in ((sigmoid, 0.0, 1.0), (np.tanh, -1.0, 1.0), (softsign, -1.0, 1.0)):
        y = f(x)
        assert np.all(y > lo) and np.all(y < hi)
        assert np.all(np.diff(y) > 0), f"{f.__name__} not strictly increasing"
    wide = softsign(np.linspace(-500.0, 500.0, 2001))
    assert np.all(np.diff(wide) > 0)


def test_stft_zero_signal():
    spec = stft_mag(np.zeros(5000), 1024, 256)
    assert spec.shape == ((5000 - 1024) // 256 + 1, 513)
    assert np.all(spec == 0.0)


def test_stft_bin_centered_sine_hann():
    # the Hann window's spectrum is n/2 at DC and -n/4 at the two
    # neighbouring bins, so a bin-centred sine of amplitude 1 reads n/4 at
    # its bin, n/8 at each neighbour and nothing elsewhere
    n = 2048
    bin_idx = 64
    t = np.arange(4 * n)
    x = np.sin(2.0 * np.pi * bin_idx * t / n)
    spec = stft_mag(x, n, n // 4)
    assert np.all(np.argmax(spec, axis=1) == bin_idx)
    assert np.allclose(spec[:, bin_idx], n / 4.0, rtol=1e-9)
    assert np.allclose(spec[:, [bin_idx - 1, bin_idx + 1]], n / 8.0, rtol=1e-9)
    off = spec.copy()
    off[:, bin_idx - 1:bin_idx + 2] = 0.0
    assert np.all(off < 1e-6 * n)


@pytest.mark.parametrize("size", [256, 512, 1024, 2048], ids=lambda size: f"hann-{size}")
def test_stft_matches_direct_dft_oracle(size):
    rng = np.random.default_rng(size)
    x = rng.normal(size=3 * size)
    spec = stft_mag(x, size, size // 2)
    ref = stft_mag_oracle(x, size, size // 2)
    scale = np.max(ref)
    assert np.max(np.abs(spec - ref)) <= 1e-9 * scale


def test_parseval_hann_frame():
    rng = np.random.default_rng(1)
    n = 1024
    x = rng.normal(size=n)
    spec = dft_direct(x)
    # fold the half spectrum back to full energy
    mags2 = np.abs(spec) ** 2
    full = mags2[0] + mags2[-1] + 2.0 * mags2[1:-1].sum()
    time_energy = float(x @ x)
    assert abs(time_energy - full / n) <= 1e-9 * time_energy
    # one Hann-windowed frame holds the energy of the windowed samples
    xw = x * hann(n)
    windowed_energy = float(xw @ xw)
    pkg = stft_mag(x, n, n)[0]
    full_pkg = pkg[0] ** 2 + pkg[-1] ** 2 + 2.0 * (pkg[1:-1] ** 2).sum()
    assert abs(windowed_energy - full_pkg / n) <= 1e-9 * windowed_energy


def test_stft_too_short_rejected():
    with pytest.raises(InputError):
        stft_mag(np.zeros(100), 256, 64)


def test_stft_rejects_2d_input():
    with pytest.raises(DimensionError):
        stft_mag(np.zeros((2, 4096)), 256, 64)
    with pytest.raises(DimensionError):
        stft_mag(np.zeros((4096, 1)), 256, 64)


def test_stft_frame_count_formula():
    x = np.zeros(10240)
    spec = stft_mag(x, 2048, 512)
    assert spec.shape[0] == (10240 - 2048) // 512 + 1


@pytest.mark.parametrize("n, window, hop", [(1000, 64, 16), (1000, 64, 64), (1000, 100, 150),
                                            (64, 64, 5), (4097, 300, 7)])
def test_stft_frames_match_oracle_rows(n, window, hop):
    # frames start every hop samples and stop before running past the end
    x = np.random.default_rng(n).normal(size=n)
    spec = stft_mag(x, window, hop)
    ref = stft_mag_oracle(x, window, hop)
    assert spec.shape == ref.shape == (len(range(0, n - window + 1, hop)), window // 2 + 1)
    assert np.max(np.abs(spec - ref)) <= 1e-9 * np.max(ref)
    with pytest.raises(InputError):
        stft_mag(x, n + 1, hop)
