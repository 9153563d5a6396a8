import numpy as np
import pytest

from statefx.errors import DimensionError, InputError
from statefx.numerics import Spectrogram, frame_signal, sigmoid, softsign, stft_mag

from oracles import dft_direct, stft_mag_oracle


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
    assert np.isnan(sigmoid(np.array([np.nan, -np.nan]))).all()
    assert np.isnan(sigmoid(np.nan))


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
    assert spec.frames == (5000 - 1024) // 256 + 1
    assert spec.bins == 513
    assert np.all(spec.magnitudes == 0.0)


def test_stft_bin_centered_sine_rectangular():
    n = 2048
    bin_idx = 64
    t = np.arange(4 * n)
    x = np.sin(2.0 * np.pi * bin_idx * t / n)
    spec = stft_mag(x, n, n // 4, window="rectangular")
    peak_bins = np.argmax(spec.magnitudes, axis=1)
    assert np.all(peak_bins == bin_idx)
    assert np.allclose(spec.magnitudes[:, bin_idx], n / 2.0, rtol=1e-9)
    off = spec.magnitudes.copy()
    off[:, bin_idx] = 0.0
    assert np.all(off < 1e-6 * n)


@pytest.mark.parametrize("size", [256, 512, 1024, 2048])
@pytest.mark.parametrize("window", ["hann", "rectangular"])
def test_stft_matches_direct_dft_oracle(size, window):
    rng = np.random.default_rng(size)
    x = rng.normal(size=3 * size)
    spec = stft_mag(x, size, size // 2, window=window)
    ref = stft_mag_oracle(x, size, size // 2, window=window)
    scale = np.max(ref)
    assert np.max(np.abs(spec.magnitudes - ref)) <= 1e-9 * scale


def test_parseval_rectangular_frame():
    rng = np.random.default_rng(1)
    n = 1024
    x = rng.normal(size=n)
    spec = dft_direct(x)
    # fold the half spectrum back to full energy
    mags2 = np.abs(spec) ** 2
    full = mags2[0] + mags2[-1] + 2.0 * mags2[1:-1].sum()
    time_energy = float(x @ x)
    assert abs(time_energy - full / n) <= 1e-9 * time_energy
    pkg = stft_mag(x, n, n, window="rectangular").magnitudes[0]
    full_pkg = pkg[0] ** 2 + pkg[-1] ** 2 + 2.0 * (pkg[1:-1] ** 2).sum()
    assert abs(time_energy - full_pkg / n) <= 1e-9 * time_energy


def test_stft_too_short_rejected():
    with pytest.raises(InputError):
        stft_mag(np.zeros(100), 256, 64)


def test_spectrogram_invariants():
    with pytest.raises(DimensionError):
        Spectrogram(np.zeros((3, 10)), window_size=64, hop=16)
    with pytest.raises(InputError):
        Spectrogram(-np.ones((2, 33)), window_size=64, hop=16)


def test_stft_frame_count_formula():
    x = np.zeros(10240)
    spec = stft_mag(x, 2048, 512)
    assert spec.frames == (10240 - 2048) // 512 + 1


@pytest.mark.parametrize("n, window, hop", [(1000, 64, 16), (1000, 64, 64), (1000, 100, 150),
                                            (64, 64, 5), (4097, 300, 7)])
def test_frame_signal_is_read_only_view_of_gathered_rows(n, window, hop):
    x = np.random.default_rng(n).normal(size=n)
    frames = frame_signal(x, window, hop)
    starts = np.arange(0, n - window + 1, hop)
    assert np.array_equal(frames, np.stack([x[s:s + window] for s in starts]))
    assert np.shares_memory(frames, x) and not frames.flags.writeable
    with pytest.raises(InputError):
        frame_signal(x, n + 1, hop)
    with pytest.raises(DimensionError):
        frame_signal(x.reshape(1, -1), window, hop)
