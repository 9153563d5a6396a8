"""Minimal numerical kernels: activations and a Hann-windowed magnitude STFT.

Everything here is a pure function of its inputs and returns plain float64
arrays (or floats for scalar input).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, InputError

# Floor applied wherever a magnitude is divided by or passed to a log.
MAG_FLOOR = 1e-7


def sigmoid(x):
    """Logistic function, overflow-safe on both tails."""
    x = np.asarray(x, dtype=np.float64)
    # 1/(1 + e^-x) for x >= 0 and e^x/(1 + e^x) below, from one exp of -|x|
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)
    return out if out.ndim else float(out)


def softsign(x):
    """x / (1 + |x|), a bounded gate in (-1, 1) with 0 meaning bypass."""
    x = np.asarray(x, dtype=np.float64)
    out = x / (1.0 + np.abs(x))
    return out if out.ndim else float(out)


def stft_mag(signal, window_size: int, hop: int) -> np.ndarray:
    """Hann-windowed magnitude STFT of a 1-d real signal, (frames, window_size // 2 + 1).

    Frames are not centered and the signal is not padded, so every frame
    holds real samples only: there are floor((len - window_size) / hop) + 1
    of them, and a signal shorter than one window raises InputError.  The
    periodic Hann window is 0.5 - 0.5 cos(2 pi n / window_size).
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise DimensionError("expected a 1-d signal")
    n = signal.shape[0]
    if n < window_size:
        raise InputError(f"signal of {n} samples is shorter than one {window_size}-sample window")
    frames = np.lib.stride_tricks.sliding_window_view(signal, window_size)[::hop]
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window_size) / window_size)
    return np.abs(np.fft.rfft(frames * hann, axis=1))
