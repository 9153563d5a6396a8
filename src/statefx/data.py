"""Dataset construction: input-signal recipe, synthetic oracle effects,
parameter normalization, split compositions, and WAV file I/O.

The oracle effects are exactly-known causal DSP processes standing in for
hardware devices, so every dataset here has bit-reproducible ground truth.
Their IIR filters are banded solves, like the model's linear recurrences.
Audio is mono float64 in [-1, 1] at 48 kHz unless stated otherwise.
"""

from __future__ import annotations

import json
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InputError
from .scans import linear_filter

DEFAULT_RATE = 48000
DEFAULT_DURATION = 45.0
MAX_DURATION = 3600.0   # seconds; one hour of audio bounds every generated or benchmarked signal
N_COMPOSITIONS = 5


# ---------------------------------------------------------------------------
# Input signal recipe
# ---------------------------------------------------------------------------

def _log_sweep(n: int, fs: int, f0: float = 20.0, f1: float = 20000.0, amp: float = 0.8):
    t = np.arange(n) / fs
    T = n / fs
    k = np.log(f1 / f0)
    phase = 2.0 * np.pi * f0 * T / k * (np.exp(t * k / T) - 1.0)
    return amp * np.sin(phase)


def _fade(x: np.ndarray, fs: int, ms: float = 50.0) -> np.ndarray:
    n = min(len(x) // 2, int(fs * ms / 1000.0))
    if n > 0:
        ramp = np.linspace(0.0, 1.0, n)
        x[:n] *= ramp
        x[-n:] *= ramp[::-1]
    return x


def _burst_train(n: int, fs: int, rng: np.random.Generator, amp: float = 0.9):
    """Tone bursts separated by silence: transient material with quiet gaps.

    Frequencies are log-uniform from 50 Hz so bass content survives even
    drastic lowpass settings."""
    out = np.zeros(n)
    pos = 0
    while pos < n:
        blen = int(fs * rng.uniform(0.08, 0.2))
        gap = int(fs * rng.uniform(0.05, 0.15))
        freq = np.exp(rng.uniform(np.log(50.0), np.log(5000.0)))
        a = amp * rng.uniform(0.2, 1.0)
        end = min(pos + blen, n)
        t = np.arange(end - pos) / fs
        burst = a * np.sin(2.0 * np.pi * freq * t)
        _fade(burst, fs, ms=5.0)
        out[pos:end] = burst
        pos = end + gap
    return out


def generate_input_signal(duration: float = DEFAULT_DURATION, sample_rate: int = DEFAULT_RATE,
                          seed: int = 0, instrument_paths=None) -> np.ndarray:
    """Deterministic measurement signal for dataset capture.

    Concatenates, with short silent guards between sections: a log sweep
    20 Hz - 20 kHz, white noise with a linear amplitude ramp, white noise
    with a logarithmic (dB-linear) ramp, and an instrument slot.  The slot
    holds user-supplied audio when ``instrument_paths`` is given, otherwise
    a seeded tone-burst train whose silences also serve as split points.
    Peak amplitude stays <= 1.
    """
    fs = sample_rate
    if not np.isfinite(duration) or duration > MAX_DURATION:
        raise InputError(f"duration must be finite and at most {MAX_DURATION:g} s, got {duration}")
    n_total = int(round(duration * fs))
    rng = np.random.default_rng(seed)
    gap = int(0.02 * fs)
    weights = (0.35, 0.20, 0.20, 0.25)
    budget = n_total - 3 * gap
    if budget < 0:
        raise InputError(f"duration {duration:g} s is shorter than the three {gap}-sample guards")
    lens = [int(budget * w) for w in weights]
    lens[-1] = budget - sum(lens[:-1])

    sweep = _fade(_log_sweep(lens[0], fs), fs)
    lin = rng.uniform(-1.0, 1.0, lens[1]) * 0.8 * np.linspace(0.0, 1.0, lens[1])
    db = np.linspace(-60.0, 0.0, lens[2])
    logn = rng.uniform(-1.0, 1.0, lens[2]) * 0.8 * 10.0 ** (db / 20.0)

    if instrument_paths:
        pieces = [load_wav(p, sample_rate=fs) for p in instrument_paths]
        inst = np.concatenate(pieces)
        if len(inst) == 0:
            raise InputError(f"instrument audio {', '.join(map(str, instrument_paths))} holds no samples")
        if len(inst) < lens[3]:
            inst = np.tile(inst, int(np.ceil(lens[3] / len(inst))))
        inst = inst[:lens[3]].copy()
        peak = np.max(np.abs(inst))
        if peak > 0.95:
            inst *= 0.95 / peak
        _fade(inst, fs)
    else:
        inst = _burst_train(lens[3], fs, rng)

    z = np.zeros(gap)
    out = np.concatenate([sweep, z, lin, z, logn, z, inst])
    assert len(out) == n_total
    return out


# ---------------------------------------------------------------------------
# Oracle effects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleEffect:
    """A synthetic device: kind plus (name, low, high) physical parameter ranges."""

    kind: str
    params: tuple

    @property
    def param_names(self) -> tuple:
        return tuple(name for name, _, _ in self.params)

    def range_of(self, name: str) -> tuple:
        for pname, lo, hi in self.params:
            if pname == name:
                return lo, hi
        raise InputError(f"{self.kind} has no parameter {name!r}")


EFFECTS = {
    "identity": OracleEffect("identity", ()),
    "waveshaper_overdrive": OracleEffect("waveshaper_overdrive", (
        ("drive", 0.01, 20.0), ("tone", 500.0, 20000.0))),
    "tape_saturator": OracleEffect("tape_saturator", (
        ("saturation", 0.5, 10.0),)),
    "resonant_lowpass": OracleEffect("resonant_lowpass", (
        ("cutoff", 60.0, 23990.0), ("resonance", 0.5, 8.0))),
    "feedforward_compressor": OracleEffect("feedforward_compressor", (
        ("threshold_db", -40.0, 0.0), ("ratio", 1.0, 10.0),
        ("attack_ms", 5.0, 300.0), ("release_s", 0.005, 10.0))),
    "peaking_eq": OracleEffect("peaking_eq", (
        ("freq", 100.0, 10000.0), ("gain_db", -12.0, 12.0), ("q", 0.5, 4.0))),
}


def get_effect(kind: str) -> OracleEffect:
    if kind not in EFFECTS:
        raise InputError(f"unknown effect {kind!r}; expected one of {sorted(EFFECTS)}")
    return EFFECTS[kind]


def normalize_params(effect: OracleEffect, physical: dict, labels=None) -> np.ndarray:
    """Map physical parameter values to [0, 1] in ``labels`` order."""
    labels = effect.param_names if labels is None else tuple(labels)
    out = np.empty(len(labels))
    for i, name in enumerate(labels):
        lo, hi = effect.range_of(name)
        v = physical[name]
        if not (lo <= v <= hi):
            raise InputError(f"{effect.kind}.{name}={v} outside [{lo}, {hi}]")
        out[i] = (v - lo) / (hi - lo) if hi > lo else 0.0
    return out


def denormalize_params(effect: OracleEffect, normalized, labels=None) -> dict:
    labels = effect.param_names if labels is None else tuple(labels)
    out = {}
    for i, name in enumerate(labels):
        lo, hi = effect.range_of(name)
        out[name] = lo + (hi - lo) * float(normalized[i])
    return out


def _one_pole_lp(x: np.ndarray, fc: float, fs: int) -> np.ndarray:
    a = 1.0 - np.exp(-2.0 * np.pi * fc / fs)
    return linear_filter([a], [1.0, -(1.0 - a)], x)


def _rbj_lowpass(fc: float, q: float, fs: int):
    w0 = 2.0 * np.pi * fc / fs
    alpha = np.sin(w0) / (2.0 * q)
    cw = np.cos(w0)
    b = np.array([(1 - cw) / 2.0, 1 - cw, (1 - cw) / 2.0])
    a = np.array([1 + alpha, -2 * cw, 1 - alpha])
    return b / a[0], a / a[0]


def _rbj_peaking(fc: float, q: float, gain_db: float, fs: int):
    A = 10.0 ** (gain_db / 40.0)
    w0 = 2.0 * np.pi * fc / fs
    alpha = np.sin(w0) / (2.0 * q)
    cw = np.cos(w0)
    b = np.array([1 + alpha * A, -2 * cw, 1 - alpha * A])
    a = np.array([1 + alpha / A, -2 * cw, 1 - alpha / A])
    return b / a[0], a / a[0]


def _envelope_follow(x_abs, a_att, a_rel):
    env = np.empty_like(x_abs)
    e = 0.0
    for i in range(x_abs.shape[0]):
        v = x_abs[i]
        a = a_att if v > e else a_rel
        e = e + a * (v - e)
        env[i] = e
    return env


def apply_oracle(effect: OracleEffect, params_physical: dict, x: np.ndarray,
                 sample_rate: int = DEFAULT_RATE) -> np.ndarray:
    """Run one oracle effect over a signal; output sample n depends only on
    input samples <= n."""
    x = np.asarray(x, dtype=np.float64)
    fs = sample_rate
    for name in effect.param_names:
        if name not in params_physical:
            raise InputError(f"{effect.kind} requires parameter {name!r}")
        lo, hi = effect.range_of(name)
        v = params_physical[name]
        if not (lo <= v <= hi):
            raise InputError(f"{effect.kind}.{name}={v} outside [{lo}, {hi}]")

    kind = effect.kind
    if kind == "identity":
        return x.copy()

    if kind == "waveshaper_overdrive":
        drive = params_physical["drive"]
        shaped = np.tanh(drive * x)
        return _one_pole_lp(shaped, params_physical["tone"], fs)

    if kind == "tape_saturator":
        s = params_physical["saturation"]
        k = 0.5
        emph = x + k * (x - _one_pole_lp(x, 2000.0, fs))
        sat = np.tanh(s * emph) / s
        return sat - (k / (1.0 + k)) * (sat - _one_pole_lp(sat, 2000.0, fs))

    if kind == "resonant_lowpass":
        b, a = _rbj_lowpass(params_physical["cutoff"], params_physical["resonance"], fs)
        return linear_filter(b, a, x)

    if kind == "feedforward_compressor":
        thr = params_physical["threshold_db"]
        ratio = params_physical["ratio"]
        a_att = 1.0 - np.exp(-1.0 / (fs * params_physical["attack_ms"] / 1000.0))
        a_rel = 1.0 - np.exp(-1.0 / (fs * params_physical["release_s"]))
        env = _envelope_follow(np.abs(x), a_att, a_rel)
        env_db = 20.0 * np.log10(np.maximum(env, 1e-6))
        gain_db = np.minimum(0.0, (thr - env_db) * (1.0 - 1.0 / ratio))
        return x * 10.0 ** (gain_db / 20.0)

    if kind == "peaking_eq":
        b, a = _rbj_peaking(params_physical["freq"], params_physical["q"],
                            params_physical["gain_db"], fs)
        return linear_filter(b, a, x)

    raise InputError(f"unknown effect kind {kind!r}")


# ---------------------------------------------------------------------------
# Recordings and datasets
# ---------------------------------------------------------------------------

@dataclass
class Recording:
    """Paired input/output audio for one parameter combination."""

    input: np.ndarray
    output: np.ndarray
    params: np.ndarray            # normalized, in param_labels order
    param_labels: tuple
    params_physical: dict
    effect_kind: str
    sample_rate: int = DEFAULT_RATE
    seed: int = 0

    def __post_init__(self):
        if self.input.shape != self.output.shape:
            raise InputError("recording input/output lengths differ")
        if self.params.size and (self.params.min() < 0.0 or self.params.max() > 1.0):
            raise InputError("normalized parameters must lie in [0, 1]")


def build_dataset(effect: OracleEffect, param_grid, seed: int = 0,
                  duration: float = DEFAULT_DURATION, sample_rate: int = DEFAULT_RATE,
                  cond_labels=None, instrument_paths=None) -> list:
    """One Recording per parameter combination, sharing one input signal.

    ``param_grid`` lists physical parameter dicts; ``cond_labels`` names the
    parameters exposed to the model as conditioning (all of the effect's
    parameters when omitted).  Identical seeds give identical datasets.
    """
    labels = tuple(cond_labels) if cond_labels is not None else effect.param_names
    x = generate_input_signal(duration, sample_rate, seed, instrument_paths)
    recs = []
    for combo in param_grid:
        y = apply_oracle(effect, combo, x, sample_rate)
        recs.append(Recording(
            input=x.copy(), output=y,
            params=normalize_params(effect, combo, labels),
            param_labels=labels, params_physical=dict(combo),
            effect_kind=effect.kind, sample_rate=sample_rate, seed=seed))
    return recs


def grid_from_ranges(effect: OracleEffect, counts: dict, fixed: dict | None = None) -> list:
    """Cartesian grid: ``counts`` maps a parameter to its number of equally
    spaced values across the declared range; ``fixed`` pins the rest."""
    fixed = dict(fixed or {})
    for name in fixed:
        effect.range_of(name)  # InputError for a name the effect lacks
    axes = []
    for name, k in counts.items():
        lo, hi = effect.range_of(name)
        axes.append((name, np.linspace(lo, hi, k)))
    for name in effect.param_names:
        if name not in counts and name not in fixed:
            lo, hi = effect.range_of(name)
            fixed[name] = 0.5 * (lo + hi)
    combos = [{}]
    for name, values in axes:
        combos = [dict(c, **{name: float(v)}) for c in combos for v in values]
    return [dict(fixed, **c) for c in combos]


# ---------------------------------------------------------------------------
# Split compositions
# ---------------------------------------------------------------------------

@dataclass
class SplitComposition:
    """Validation/test spans (half-open sample ranges) per recording.

    Spans rotate across compositions so the union of the five test spans
    tiles at least half of every recording; train is the complement.
    """

    index: int                     # 1-based composition number
    val_spans: list                # [(start, end)] per recording
    test_spans: list

    def train_spans(self, rec_len: int, rec_index: int) -> list:
        vs, ve = self.val_spans[rec_index]
        ts, te = self.test_spans[rec_index]
        lo, hi = min(vs, ts), max(ve, te)
        spans = [(0, lo), (hi, rec_len)]
        return [(a, b) for a, b in spans if b - a > 0]


def _snap_point(energy_csum, nominal: int, n: int, fs: int, rec_rms: float,
                window: int = 1024, reach_s: float = 0.5):
    """Nearest sample to ``nominal`` whose trailing 1024-sample RMS is below
    1% of the recording RMS; None when no such point exists in reach."""
    if nominal <= 0 or nominal >= n:
        return nominal
    reach = int(reach_s * fs)
    lo = max(window, nominal - reach)
    hi = min(n, nominal + reach)
    if lo >= hi:
        return None
    starts = np.arange(lo - window, hi - window)
    rms = np.sqrt((energy_csum[starts + window] - energy_csum[starts]) / window)
    ok = np.flatnonzero(rms < 0.01 * rec_rms)
    if ok.size == 0:
        return None
    centers = starts[ok] + window
    return int(centers[np.argmin(np.abs(centers - nominal))])


def make_split_compositions(recordings: list) -> list:
    """``N_COMPOSITIONS`` 80/10/10 compositions with rotated, snapped val/test spans.

    Nominal spans put validation on decile 2c and test on decile 2c+1 of
    each recording for composition c.  Boundaries snap to nearby low-energy
    samples; the test span only ever grows past its nominal decile, so the
    union of test spans across compositions keeps covering >= 50% of each
    recording.  A missing low-energy point falls back to the nominal
    boundary with a warning.
    """
    comps = []
    for c in range(N_COMPOSITIONS):
        val_spans, test_spans = [], []
        for rec in recordings:
            ln = len(rec.input)
            fs = rec.sample_rate
            energy = np.concatenate([[0.0], np.cumsum(rec.input ** 2)])
            rec_rms = np.sqrt(energy[-1] / ln)
            d = ln / 10.0
            v0, t0, t1 = int(2 * c * d), int((2 * c + 1) * d), int((2 * c + 2) * d)
            # snap reach: 0.5 s, but never more than a quarter decile
            reach_s = min(0.5, 0.25 * d / fs)

            def snap(nominal):
                s = _snap_point(energy, nominal, ln, fs, rec_rms, reach_s=reach_s)
                if s is None:
                    warnings.warn(f"no low-energy split point near sample {nominal}; "
                                  "using the nominal boundary", stacklevel=2)
                    return nominal
                return s

            vs = min(snap(v0), t0 - 1) if c > 0 else 0
            ts = min(snap(t0), t0)
            te = max(snap(t1), t1) if c < N_COMPOSITIONS - 1 else ln
            vs = max(0, min(vs, ts - 1))
            te = min(te, ln)
            val_spans.append((vs, ts))
            test_spans.append((ts, te))
        comps.append(SplitComposition(index=c + 1, val_spans=val_spans, test_spans=test_spans))
    return comps


def resolve_composition(recordings: list, comp: SplitComposition):
    """Materialize one composition into (train, val, test) stream lists."""
    from .training import Stream

    train, val, test = [], [], []
    for i, rec in enumerate(recordings):
        p = rec.params if rec.params.size else None
        for a, b in comp.train_spans(len(rec.input), i):
            train.append(Stream(rec.input[a:b], rec.output[a:b], p))
        vs, ve = comp.val_spans[i]
        val.append(Stream(rec.input[vs:ve], rec.output[vs:ve], p))
        ts, te = comp.test_spans[i]
        test.append(Stream(rec.input[ts:te], rec.output[ts:te], p))
    return train, val, test


# ---------------------------------------------------------------------------
# WAV I/O (mono PCM; 16/24-bit int and 32-bit float)
# ---------------------------------------------------------------------------

def save_wav(path, v: np.ndarray, sample_rate: int = DEFAULT_RATE) -> None:
    """Write mono 32-bit float PCM."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise InputError("save_wav writes mono 1-d signals")
    data = v.astype("<f4").tobytes()
    n = len(v)
    with open(path, "wb") as fh:
        fh.write(b"RIFF")
        fh.write(struct.pack("<I", 4 + 26 + 12 + 8 + len(data)))
        fh.write(b"WAVE")
        fh.write(b"fmt " + struct.pack("<IHHIIHH", 18, 3, 1, sample_rate,
                                       sample_rate * 4, 4, 32) + struct.pack("<H", 0))
        fh.write(b"fact" + struct.pack("<II", 4, n))
        fh.write(b"data" + struct.pack("<I", len(data)))
        fh.write(data)


def load_wav(path, sample_rate: int = DEFAULT_RATE) -> np.ndarray:
    """Read a mono WAV at the expected rate, normalized to [-1, 1].

    Accepts 16/24-bit integer and 32-bit float PCM.  Anything else (wrong
    rate, channel count, bit depth, or compression) raises FormatError with
    the offending value.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(blob):
        cid = blob[pos:pos + 4]
        size = struct.unpack("<I", blob[pos + 4:pos + 8])[0]
        body = blob[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise FormatError(f"{path}: missing fmt or data chunk")
    if len(fmt) < 16:
        raise FormatError(f"{path}: fmt chunk of {len(fmt)} bytes is too short")
    tag, channels, rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
    if tag == 0xFFFE and len(fmt) >= 26:  # extensible: first two GUID bytes carry the tag
        tag = struct.unpack("<H", fmt[24:26])[0]
    if channels != 1:
        raise FormatError(f"{path}: expected mono, found {channels} channels")
    if rate != sample_rate:
        raise FormatError(f"{path}: expected {sample_rate} Hz, found {rate} Hz (no resampling)")
    if (tag, bits) not in ((1, 16), (1, 24), (3, 32)):
        raise FormatError(f"{path}: unsupported format (tag={tag}, bits={bits}); "
                          "need 16/24-bit integer or 32-bit float PCM")
    if len(data) % (bits // 8):
        raise FormatError(f"{path}: data chunk of {len(data)} bytes is not a whole number "
                          f"of {bits}-bit samples")
    if bits == 16:
        samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    elif bits == 24:
        raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3)
        ints = (raw[:, 0].astype(np.int32) | (raw[:, 1].astype(np.int32) << 8)
                | (raw[:, 2].astype(np.int32) << 16))
        ints = np.where(ints >= 1 << 23, ints - (1 << 24), ints)
        samples = ints.astype(np.float64) / float(1 << 23)
    else:
        samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
        if not np.all(np.isfinite(samples)):
            raise FormatError(f"{path}: 32-bit float data holds NaN or infinite samples")
    return samples


# ---------------------------------------------------------------------------
# Dataset directory layout
# ---------------------------------------------------------------------------

DATASET_META = "dataset.json"


def save_dataset(out_dir, recordings: list) -> None:
    """Write one input/output WAV pair plus a JSON sidecar per combination,
    and a dataset.json describing the whole set."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not recordings:
        raise InputError("no recordings to save")
    for i, rec in enumerate(recordings):
        save_wav(out / f"input_{i:03d}.wav", rec.input, rec.sample_rate)
        save_wav(out / f"output_{i:03d}.wav", rec.output, rec.sample_rate)
        sidecar = {
            "index": i,
            "effect": rec.effect_kind,
            "params_physical": rec.params_physical,
            "params_normalized": [float(v) for v in rec.params],
            "cond_labels": list(rec.param_labels),
            "sample_rate": rec.sample_rate,
            "seed": rec.seed,
        }
        (out / f"params_{i:03d}.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True))
    meta = {
        "effect": recordings[0].effect_kind,
        "cond_labels": list(recordings[0].param_labels),
        "cond_dim": int(recordings[0].params.size),
        "sample_rate": recordings[0].sample_rate,
        "seed": recordings[0].seed,
        "combinations": len(recordings),
        "format": 1,
    }
    (out / DATASET_META).write_text(json.dumps(meta, indent=2, sort_keys=True))


def _typed(v, t) -> bool:
    """isinstance for JSON values: a bool is no number, [t] is a list of t."""
    if isinstance(t, list):
        return isinstance(v, list) and all(_typed(x, t[0]) for x in v)
    return isinstance(v, t) and not isinstance(v, bool)


def _read_json(path: Path, schema: dict) -> dict:
    """A JSON object holding every key of ``schema`` with a value of its type
    (None: any), or FormatError naming the file."""
    try:
        obj = json.loads(path.read_text())
    except ValueError as e:  # undecodable bytes or not JSON
        raise FormatError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: expected a JSON object")
    missing = [k for k in schema if k not in obj]
    if missing:
        raise FormatError(f"{path}: missing {missing}")
    bad = [k for k, t in schema.items() if t is not None and not _typed(obj[k], t)]
    if bad:
        raise FormatError(f"{path}: wrong value type for {bad}")
    return obj


def load_dataset(dir_path):
    """Read back a dataset directory; returns (recordings, meta)."""
    d = Path(dir_path)
    meta_path = d / DATASET_META
    if not meta_path.exists():
        raise FormatError(f"{dir_path}: missing {DATASET_META}")
    meta = _read_json(meta_path, {"effect": str, "cond_dim": int, "sample_rate": int,
                                  "combinations": int})
    if meta["combinations"] < 0:
        raise FormatError(f"{meta_path}: negative 'combinations'")
    effect = get_effect(meta["effect"])
    recs = []
    for i in range(meta["combinations"]):
        path = d / f"params_{i:03d}.json"
        sidecar = _read_json(path, {"params_normalized": [(int, float)], "cond_labels": [str],
                                    "params_physical": None, "seed": None})
        wrong = [k for k in ("params_normalized", "cond_labels")
                 if len(sidecar[k]) != meta["cond_dim"]]
        if wrong:
            raise FormatError(f"{path}: {wrong} must hold cond_dim = {meta['cond_dim']} values")
        x = load_wav(d / f"input_{i:03d}.wav", meta["sample_rate"])
        y = load_wav(d / f"output_{i:03d}.wav", meta["sample_rate"])
        recs.append(Recording(
            input=x, output=y,
            params=np.asarray(sidecar["params_normalized"], dtype=np.float64),
            param_labels=tuple(sidecar["cond_labels"]),
            params_physical=sidecar["params_physical"],
            effect_kind=effect.kind,
            sample_rate=meta["sample_rate"],
            seed=sidecar["seed"]))
    return recs, meta
