"""Mutated files reach the loaders and the CLI only as typed errors.

Each example applies a few byte flips, inserts, deletes or a truncation to
a valid file and loads the result: a loader may succeed or raise a
StatefxError (or OSError), never anything else.  Through the CLI, the eval
CSVs of ``compare``, the schedule CSV of ``render --params-csv`` and the
JSON sidecars of a dataset read by ``eval`` may only give exit code 0, 3, 4
or 5.
"""

import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statefx import cli
from statefx.data import DEFAULT_RATE, load_wav, save_wav
from statefx.errors import StatefxError
from statefx.metrics import MetricReport, write_report_csv
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
    save_wav(d / "render_in.wav", np.random.default_rng(1).uniform(-0.5, 0.5, 1000))
    (d / "schedule.csv").write_text("sample,p0,p1\n0,0.2,0.8\n500,0.6,0.4\n")
    (d / "eval").mkdir()
    for comp in range(1, 6):
        for k, model in enumerate(("lstm", "lru", "s4d")):
            v = 0.1 * comp + 0.01 * k
            write_report_csv(d / "eval" / f"eval_{model}_comp{comp}.csv",
                             [MetricReport(mse=v, esr=v, nrmse=v, m_sf=v, m_stft=v, model=model,
                                           dataset="fx", split=split)
                              for split in (f"comp{comp}/rec0", f"comp{comp}/rec1", "mean")])
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


CLI_EXITS = (cli.EXIT_OK, cli.EXIT_FORMAT, cli.EXIT_NUMERIC, cli.EXIT_INPUT)
EVAL_CSVS = [f"eval_{model}_comp{comp}.csv" for comp in range(1, 6) for model in ("lstm", "lru", "s4d")]


@FUZZ
@given(name=st.sampled_from(EVAL_CSVS), edits=st.lists(_EDIT, min_size=1, max_size=4))
def test_mutated_eval_csv_compares_or_exits_typed(files, name, edits):
    run = files / "compare_run"
    run.mkdir(exist_ok=True)
    for n in EVAL_CSVS:
        blob = (files / "eval" / n).read_bytes()
        (run / n).write_bytes(mutate(blob, edits) if n == name else blob)
    assert cli.main(["compare", str(run / "*.csv"), "--out", str(files / "compare_out")]) in CLI_EXITS


@FUZZ
@given(edits=st.lists(_EDIT, min_size=1, max_size=4))
def test_mutated_schedule_renders_or_exits_typed(files, edits):
    sched = files / "mutant_schedule.csv"
    sched.write_bytes(mutate((files / "schedule.csv").read_bytes(), edits))
    assert cli.main(["render", "--checkpoint", str(files / "ck.sfx"), "--input", str(files / "render_in.wav"),
                     "--params-csv", str(sched), "--out", str(files / "render_out.wav")]) in CLI_EXITS


SIDECARS = ["dataset.json", "params_000.json", "params_001.json"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz_dataset")
    assert cli.main(["dataset", "--effect", "waveshaper_overdrive", "--vary", "drive=2",
                     "--fix", "tone=20000", "--duration", "1.0", "--seed", "5",
                     "--out", str(d / "valid")]) == cli.EXIT_OK
    shutil.copytree(d / "valid", d / "mutant")
    Checkpoint.from_model(Model.init(ModelConfig("lru", cond_dim=1), seed=0)).save(d / "ck.sfx")
    return d


@FUZZ
@given(name=st.sampled_from(SIDECARS), edits=st.lists(_EDIT, min_size=1, max_size=4))
def test_mutated_dataset_sidecar_evaluates_or_exits_typed(dataset, name, edits):
    for n in SIDECARS:
        blob = (dataset / "valid" / n).read_bytes()
        (dataset / "mutant" / n).write_bytes(mutate(blob, edits) if n == name else blob)
    assert cli.main(["eval", "--checkpoint", str(dataset / "ck.sfx"), "--dataset", str(dataset / "mutant"),
                     "--composition", "1", "--out", str(dataset / "eval_out")]) in CLI_EXITS
