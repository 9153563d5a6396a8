import json

import numpy as np
import pytest

from statefx import stft_mag
from statefx.data import (
    EFFECTS,
    apply_oracle,
    build_dataset,
    denormalize_params,
    generate_input_signal,
    get_effect,
    grid_from_ranges,
    load_dataset,
    load_wav,
    make_split_compositions,
    normalize_params,
    resolve_composition,
    save_dataset,
    save_wav,
)
from statefx.errors import FormatError, InputError

from oracles import compressor_oracle

RNG = np.random.default_rng(5)
FS = 48000


# ---------------------------------------------------------------------------
# input signal recipe
# ---------------------------------------------------------------------------

def test_signal_length_and_peak():
    x = generate_input_signal(duration=45.0, sample_rate=FS, seed=3)
    assert len(x) == 45 * FS == 2_160_000
    assert np.max(np.abs(x)) <= 1.0


def test_signal_deterministic_by_seed():
    a = generate_input_signal(duration=3.0, seed=11)
    b = generate_input_signal(duration=3.0, seed=11)
    c = generate_input_signal(duration=3.0, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sweep_ridge_monotonic():
    x = generate_input_signal(duration=20.0, seed=0)
    sweep = x[:int(0.33 * len(x))]  # inside the sweep section
    peaks = np.argmax(stft_mag(sweep, 2048, 1024), axis=1)
    # below ~4 bins the 23 Hz bin spacing cannot resolve the 20 Hz start;
    # from there on the ridge must never descend
    resolved = np.flatnonzero(peaks >= 4)[0]
    assert np.all(np.diff(peaks[resolved:]) >= 0)
    assert peaks[-1] > 20 * peaks[resolved]


def test_instrument_slot_accepts_user_audio(tmp_path):
    wav = tmp_path / "inst.wav"
    save_wav(wav, RNG.uniform(-0.5, 0.5, FS))
    x = generate_input_signal(duration=3.0, seed=0, instrument_paths=[wav])
    assert len(x) == 3 * FS
    assert np.max(np.abs(x)) <= 1.0


# ---------------------------------------------------------------------------
# oracle effects
# ---------------------------------------------------------------------------

def test_identity_oracle_exact():
    x = RNG.uniform(-1, 1, 10000)
    y = apply_oracle(get_effect("identity"), {}, x)
    assert np.array_equal(y, x)


@pytest.mark.parametrize("params", [
    {"threshold_db": -20.0, "ratio": 4.0, "attack_ms": 5.0, "release_s": 0.005},
    {"threshold_db": -40.0, "ratio": 10.0, "attack_ms": 300.0, "release_s": 10.0},
])
def test_compressor_oracle_exact(params):
    x = RNG.uniform(-1, 1, 10000)
    y = apply_oracle(get_effect("feedforward_compressor"), params, x)
    assert np.array_equal(y, compressor_oracle(x, FS, **params))


def test_waveshaper_small_drive_linear_regime():
    # tiny drive, low-frequency content: output ~ drive * input
    t = np.arange(FS)
    x = 0.005 * np.sin(2 * np.pi * 10.0 * t / FS)
    g = 0.01
    y = apply_oracle(get_effect("waveshaper_overdrive"), {"drive": g, "tone": 20000.0}, x)
    ref = g * x
    assert np.max(np.abs(y[FS // 10:] - ref[FS // 10:])) <= 1e-3 * np.max(np.abs(ref))


def test_lowpass_near_nyquist_cutoff_transparent():
    t = np.arange(FS)
    x = 0.5 * np.sin(2 * np.pi * 500.0 * t / FS)
    y = apply_oracle(get_effect("resonant_lowpass"), {"cutoff": 23990.0, "resonance": 0.707}, x)
    err = np.linalg.norm(y - x) / np.linalg.norm(x)
    assert err < 1e-3  # below -60 dB


def test_lowpass_min_cutoff_attenuates_highs():
    t = np.arange(FS)
    x = 0.5 * np.sin(2 * np.pi * 5000.0 * t / FS)
    y = apply_oracle(get_effect("resonant_lowpass"), {"cutoff": 60.0, "resonance": 1.0}, x)
    assert np.sqrt(np.mean(y[FS // 4:] ** 2)) < 1e-3 * np.sqrt(np.mean(x[FS // 4:] ** 2))


def test_compressor_reduces_loud_dynamics():
    eff = get_effect("feedforward_compressor")
    t = np.arange(FS)
    quiet = 0.01 * np.sin(2 * np.pi * 220 * t / FS)
    loud = 0.9 * np.sin(2 * np.pi * 220 * t / FS)
    params = {"threshold_db": -20.0, "ratio": 8.0, "attack_ms": 5.0, "release_s": 0.1}
    yq = apply_oracle(eff, params, quiet)
    yl = apply_oracle(eff, params, loud)
    gain_q = np.sqrt(np.mean(yq[FS // 2:] ** 2) / np.mean(quiet[FS // 2:] ** 2))
    gain_l = np.sqrt(np.mean(yl[FS // 2:] ** 2) / np.mean(loud[FS // 2:] ** 2))
    assert gain_q > 0.99  # below threshold: unity
    assert gain_l < 0.35  # above threshold: heavily compressed


def test_peaking_eq_boosts_center():
    t = np.arange(FS)
    x = 0.2 * np.sin(2 * np.pi * 1000 * t / FS)
    y = apply_oracle(get_effect("peaking_eq"), {"freq": 1000.0, "gain_db": 12.0, "q": 2.0}, x)
    gain = np.sqrt(np.mean(y[FS // 4:] ** 2) / np.mean(x[FS // 4:] ** 2))
    assert gain == pytest.approx(10 ** (12 / 20), rel=0.02)


@pytest.mark.parametrize("kind", sorted(EFFECTS))
def test_oracles_causal_prefix_equivalence(kind):
    eff = get_effect(kind)
    params = {name: 0.5 * (lo + hi) for name, lo, hi in eff.params}
    x = RNG.uniform(-0.9, 0.9, 20000)
    full = apply_oracle(eff, params, x)
    prefix = apply_oracle(eff, params, x[:12345])
    assert np.array_equal(full[:12345], prefix)


def test_oracle_rejects_out_of_range():
    with pytest.raises(InputError):
        apply_oracle(get_effect("waveshaper_overdrive"), {"drive": 100.0, "tone": 1000.0},
                     np.zeros(10))
    with pytest.raises(InputError):
        apply_oracle(get_effect("resonant_lowpass"), {"cutoff": 100.0}, np.zeros(10))


def test_param_normalization_round_trip():
    eff = get_effect("feedforward_compressor")
    phys = {"threshold_db": -12.5, "ratio": 3.3, "attack_ms": 47.0, "release_s": 2.5}
    norm = normalize_params(eff, phys)
    assert np.all((norm >= 0) & (norm <= 1))
    back = denormalize_params(eff, norm)
    for k, v in phys.items():
        assert back[k] == pytest.approx(v, abs=1e-12)


# ---------------------------------------------------------------------------
# datasets and splits
# ---------------------------------------------------------------------------

def test_grid_of_5x5_gives_25_recordings():
    eff = get_effect("waveshaper_overdrive")
    grid = grid_from_ranges(eff, {"drive": 5, "tone": 5})
    assert len(grid) == 25
    recs = build_dataset(eff, grid, seed=0, duration=0.3)
    assert len(recs) == 25
    assert all(r.params.shape == (2,) for r in recs)


def test_single_combination_constant_params():
    eff = get_effect("tape_saturator")
    recs = build_dataset(eff, [{"saturation": 4.0}], seed=0, duration=0.3)
    assert len(recs) == 1
    assert recs[0].params.shape == (1,)


def test_dataset_determinism():
    eff = get_effect("peaking_eq")
    grid = [{"freq": 500.0, "gain_db": 6.0, "q": 1.0}]
    a = build_dataset(eff, grid, seed=4, duration=0.5)
    b = build_dataset(eff, grid, seed=4, duration=0.5)
    assert np.array_equal(a[0].input, b[0].input)
    assert np.array_equal(a[0].output, b[0].output)


def _split_fixture(duration=45.0):
    recs = build_dataset(get_effect("identity"), [{}], seed=1, duration=duration)
    return recs, make_split_compositions(recs)


def test_split_proportions_and_disjointness():
    recs, comps = _split_fixture()
    n = len(recs[0].input)
    assert len(comps) == 5
    for comp in comps:
        (vs, ve), (ts, te) = comp.val_spans[0], comp.test_spans[0]
        assert 0 <= vs < ve <= ts < te <= n
        # 10% nominal with snap tolerance (quarter decile each side)
        assert abs((ve - vs) - 0.1 * n) <= 0.05 * n
        assert abs((te - ts) - 0.1 * n) <= 0.05 * n
        # disjoint by construction
        assert max(vs, ts) >= min(ve, te)
        train = comp.train_spans(n, 0)
        total = sum(b - a for a, b in train)
        assert abs(total - 0.8 * n) <= 0.1 * n
        for a, b in train:
            assert b <= vs or a >= te  # train never overlaps val/test


def test_split_test_union_covers_half():
    recs, comps = _split_fixture()
    n = len(recs[0].input)
    covered = np.zeros(n, dtype=bool)
    for comp in comps:
        ts, te = comp.test_spans[0]
        covered[ts:te] = True
    assert covered.mean() >= 0.5


def test_resolve_composition_stream_contents():
    recs, comps = _split_fixture(duration=2.0)
    tr, va, te = resolve_composition(recs, comps[2])
    assert len(va) == len(te) == 1
    (vs, ve) = comps[2].val_spans[0]
    assert np.array_equal(va[0].x, recs[0].input[vs:ve])
    assert np.array_equal(va[0].y, recs[0].output[vs:ve])
    assert va[0].p is None  # identity has no parameters


# ---------------------------------------------------------------------------
# WAV I/O
# ---------------------------------------------------------------------------

def test_wav_float_round_trip(tmp_path):
    x = RNG.uniform(-1, 1, 4321)
    path = tmp_path / "x.wav"
    save_wav(path, x)
    back = load_wav(path)
    assert back.shape == x.shape
    assert np.max(np.abs(back - x)) <= 1e-7


def test_wav_16bit_full_scale(tmp_path):
    import struct
    data = np.array([32767, -32768, 0, 16384], dtype="<i2").tobytes()
    path = tmp_path / "i16.wav"
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, FS, FS * 2, 2, 16))
        fh.write(b"data" + struct.pack("<I", len(data)) + data)
    x = load_wav(path)
    assert abs(x[0] - 1.0) <= 1.0 / 32768
    assert x[1] == -1.0
    assert x[2] == 0.0
    assert x[3] == pytest.approx(0.5, abs=1.0 / 32768)


def test_wav_24bit_round_values(tmp_path):
    import struct
    vals = [(1 << 23) - 1, -(1 << 23), 0]
    raw = b"".join(struct.pack("<i", v)[0:3] for v in vals)
    path = tmp_path / "i24.wav"
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 36 + len(raw)) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, FS, FS * 3, 3, 24))
        fh.write(b"data" + struct.pack("<I", len(raw)) + raw)
    x = load_wav(path)
    assert x[0] == pytest.approx(1.0, abs=2.0 ** -23)
    assert x[1] == -1.0
    assert x[2] == 0.0


def test_wav_stereo_rejected(tmp_path):
    import struct
    data = np.zeros(8, dtype="<i2").tobytes()
    path = tmp_path / "st.wav"
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, FS, FS * 4, 4, 16))
        fh.write(b"data" + struct.pack("<I", len(data)) + data)
    with pytest.raises(FormatError, match="channels"):
        load_wav(path)


def test_wav_wrong_rate_rejected(tmp_path):
    path = tmp_path / "r44.wav"
    save_wav(path, np.zeros(100), sample_rate=44100)
    with pytest.raises(FormatError, match="44100"):
        load_wav(path)


@pytest.mark.parametrize("tag,bits,nbytes", [(1, 16, 7), (1, 24, 10), (3, 32, 6)])
def test_wav_partial_sample_rejected(tmp_path, tag, bits, nbytes):
    import struct
    data = bytes(nbytes)
    path = tmp_path / "odd.wav"
    width = bits // 8
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 36 + len(data) + (len(data) & 1)) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, tag, 1, FS, FS * width, width, bits))
        fh.write(b"data" + struct.pack("<I", len(data)) + data + bytes(len(data) & 1))
    with pytest.raises(FormatError, match="whole number"):
        load_wav(path)


def test_wav_short_fmt_chunk_rejected(tmp_path):
    import struct
    path = tmp_path / "short.wav"
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 4 + 16 + 12) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<IHHI", 8, 1, 1, FS))
        fh.write(b"data" + struct.pack("<I", 4) + bytes(4))
    with pytest.raises(FormatError, match="fmt"):
        load_wav(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_wav_float_nonfinite_rejected(tmp_path, bad):
    x = RNG.uniform(-0.5, 0.5, 4800)
    x[100] = bad
    path = tmp_path / "bad.wav"
    save_wav(path, x)
    with pytest.raises(FormatError, match="bad.wav"):
        load_wav(path)


def test_wav_garbage_rejected(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"this is not audio at all")
    with pytest.raises(FormatError):
        load_wav(path)


# ---------------------------------------------------------------------------
# dataset directory layout
# ---------------------------------------------------------------------------

def test_dataset_save_load_round_trip(tmp_path):
    eff = get_effect("waveshaper_overdrive")
    grid = grid_from_ranges(eff, {"drive": 2}, fixed={"tone": 10000.0})
    recs = build_dataset(eff, grid, seed=7, duration=0.4, cond_labels=["drive"])
    out = tmp_path / "ds"
    save_dataset(out, recs)
    assert (out / "dataset.json").exists()
    assert sorted(p.name for p in out.glob("input_*.wav")) == ["input_000.wav", "input_001.wav"]
    meta = json.loads((out / "dataset.json").read_text())
    assert meta["cond_dim"] == 1 and meta["combinations"] == 2

    back, meta2 = load_dataset(out)
    assert len(back) == 2
    for orig, rt in zip(recs, back):
        assert np.max(np.abs(orig.input - rt.input)) <= 1e-7   # float32 storage
        assert np.max(np.abs(orig.output - rt.output)) <= 1e-7
        assert np.allclose(orig.params, rt.params)
        assert rt.param_labels == ("drive",)


def test_load_dataset_missing_meta(tmp_path):
    with pytest.raises(FormatError):
        load_dataset(tmp_path)
