"""Mutated binary files reach the checkpoint and WAV loaders only as typed errors.

Each example applies a few byte flips, inserts, deletes or a truncation to
a valid file and loads the result: the loader may succeed or raise a
StatefxError (or OSError), never anything else.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statefx.data import DEFAULT_RATE, load_wav, save_wav
from statefx.errors import StatefxError
from statefx.model import Checkpoint, Model, ModelConfig

_EDIT = st.tuples(st.sampled_from(["flip", "insert", "delete", "truncate"]),
                  st.integers(0, 1 << 16), st.integers(1, 255))
FUZZ = settings(derandomize=True, deadline=None, max_examples=150)


def mutate(blob: bytes, edits) -> bytes:
    b = bytearray(blob)
    for kind, pos, arg in edits:
        i = pos % (len(b) + 1)
        if kind == "flip" and i < len(b):
            b[i] ^= arg
        elif kind == "insert":
            b[i:i] = bytes([arg]) * (arg % 8 + 1)
        elif kind == "delete":
            del b[i:i + arg % 8 + 1]
        elif kind == "truncate":
            del b[i:]
    return bytes(b)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    m = Model.init(ModelConfig("lru", cond_dim=2), seed=0)
    Checkpoint.from_model(m, {"val_loss": np.array([0.5, 0.25])}, best_epoch=1).save(d / "ck.sfx")
    x = np.random.default_rng(0).uniform(-0.9, 0.9, 32)
    save_wav(d / "f32.wav", x)
    data = (x * 32767).astype("<i2").tobytes()
    (d / "i16.wav").write_bytes(
        b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
        + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, DEFAULT_RATE, DEFAULT_RATE * 2, 2, 16)
        + b"data" + struct.pack("<I", len(data)) + data)
    return d


def _load_mutant(files, name, edits, load):
    mutant = files / f"mutant_{name}"
    mutant.write_bytes(mutate((files / name).read_bytes(), edits))
    try:
        load(mutant)
    except (StatefxError, OSError):
        pass


@FUZZ
@given(edits=st.lists(_EDIT, min_size=1, max_size=4))
def test_mutated_checkpoint_loads_or_raises_typed_error(files, edits):
    _load_mutant(files, "ck.sfx", edits, Checkpoint.load)


@FUZZ
@given(edits=st.lists(_EDIT, min_size=1, max_size=4))
@pytest.mark.parametrize("name", ["f32.wav", "i16.wav"])
def test_mutated_wav_loads_or_raises_typed_error(files, name, edits):
    _load_mutant(files, name, edits, load_wav)
