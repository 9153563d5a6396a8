"""Minimal numerical kernels: activations and windowed DFTs.

Everything here is a pure function of its inputs.  Arrays are float64
unless the caller supplies float32; complex values use numpy's complex
dtype with real/imaginary parts of matching width.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Spectrogram:
    """Magnitude spectrogram of a real signal.

    ``magnitudes`` has shape (frames, bins) with bins = window_size//2 + 1.
    ``window`` records the analysis window ("hann" or "rectangular") so a
    report can state how it was produced.
    """

    magnitudes: np.ndarray
    window_size: int
    hop: int
    window: str = "hann"

    def __post_init__(self):
        mags = np.asarray(self.magnitudes)
        if mags.ndim != 2:
            raise DimensionError("magnitudes must be 2-d (frames, bins)")
        if mags.shape[1] != self.window_size // 2 + 1:
            raise DimensionError(
                f"bins {mags.shape[1]} inconsistent with window_size {self.window_size}"
            )
        if mags.size and mags.min() < 0:
            raise InputError("magnitudes must be non-negative")

    @property
    def frames(self) -> int:
        return self.magnitudes.shape[0]

    @property
    def bins(self) -> int:
        return self.magnitudes.shape[1]


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window of length n."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def frame_signal(signal: np.ndarray, window_size: int, hop: int) -> np.ndarray:
    """Slice a 1-d signal into (frames, window_size) rows, no padding.

    Frame count is floor((len - window_size) / hop) + 1; a signal shorter
    than one window raises InputError.  The rows are a read-only strided
    view of ``signal``, not a copy.
    """
    signal = np.asarray(signal)
    if signal.ndim != 1:
        raise DimensionError("expected a 1-d signal")
    n = signal.shape[0]
    if n < window_size:
        raise InputError(f"signal of {n} samples is shorter than one {window_size}-sample window")
    return np.lib.stride_tricks.sliding_window_view(signal, window_size)[::hop]


def stft_mag(signal: np.ndarray, window_size: int, hop: int, window: str = "hann") -> Spectrogram:
    """Magnitude STFT of a real signal.

    Frames are not centered and the signal is not padded, so every frame
    holds real samples only.  ``window`` selects the analysis window;
    "hann" is the default used by every metric in this package,
    "rectangular" applies no taper.
    """
    frames = frame_signal(np.asarray(signal, dtype=np.float64), window_size, hop)
    if window == "hann":
        frames = frames * hann_window(window_size)
    elif window != "rectangular":
        raise InputError(f"unknown window {window!r}; expected 'hann' or 'rectangular'")
    mags = np.abs(np.fft.rfft(frames, axis=1))
    return Spectrogram(magnitudes=mags, window_size=window_size, hop=hop, window=window)
