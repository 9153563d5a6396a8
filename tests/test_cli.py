import ast
import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from statefx import cli
from statefx.data import load_dataset, load_wav, save_wav
from statefx.metrics import MetricReport, write_report_csv
from statefx.model import Checkpoint, Model, ModelConfig
from statefx.training import TrainConfig

RNG = np.random.default_rng(3)


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("ds") / "waveshaper"
    code = run(["dataset", "--effect", "waveshaper_overdrive", "--vary", "drive=2",
                "--fix", "tone=20000", "--duration", "1.0", "--seed", "5",
                "--out", str(d)])
    assert code == 0
    return d


def test_dataset_layout_and_manifest(dataset_dir):
    recs, meta = load_dataset(dataset_dir)
    assert len(recs) == 2
    assert meta["cond_dim"] == 1
    manifest = json.loads((dataset_dir / "run_manifest.json").read_text())
    assert manifest["command"] == "dataset"
    assert manifest["seed"] == 5
    names = {p.name for p in dataset_dir.iterdir()}
    assert {"input_000.wav", "output_000.wav", "params_000.json",
            "input_001.wav", "output_001.wav", "params_001.json",
            "dataset.json", "run_manifest.json"} == names


def test_dataset_refuses_nonempty_without_force(dataset_dir, capsys):
    code = run(["dataset", "--effect", "identity", "--duration", "0.5",
                "--out", str(dataset_dir)])
    assert code == cli.EXIT_INPUT


def test_dataset_seed_repeat_identical_bytes(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert run(["dataset", "--effect", "tape_saturator", "--vary", "saturation=2",
                    "--duration", "0.5", "--seed", "9", "--out", str(out)]) == 0
    for name in ("input_000.wav", "output_001.wav", "params_000.json", "dataset.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_dataset_invalid_effect_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["dataset", "--effect", "reverb", "--out", str(tmp_path / "x")])
    assert exc.value.code == cli.EXIT_USAGE


def test_train_eval_render_benchmark_cycle(dataset_dir, tmp_path):
    run_dir = tmp_path / "run"
    code = run(["train", "--arch", "s4d", "--dataset", str(dataset_dir),
                "--composition", "1", "--out", str(run_dir),
                "--max-epochs", "2", "--batch-size", "2", "--seed", "0"])
    assert code == 0
    ckpt = run_dir / "checkpoint.sfx"
    assert ckpt.exists()
    hist_rows = list(csv.DictReader(open(run_dir / "history.csv")))
    assert len(hist_rows) == 2
    assert json.loads((run_dir / "run_manifest.json").read_text())["command"] == "train"

    eval_dir = tmp_path / "eval"
    assert run(["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset_dir),
                "--composition", "1", "--out", str(eval_dir)]) == 0
    csv_path = eval_dir / "eval_s4d_comp1.csv"
    rows = list(csv.DictReader(open(csv_path)))
    assert len(rows) == 3  # 2 combinations + mean row
    assert rows[-1]["split"] == "mean"

    wav_in = tmp_path / "in.wav"
    save_wav(wav_in, RNG.uniform(-0.5, 0.5, 24000))
    wav_out = tmp_path / "out.wav"
    assert run(["render", "--checkpoint", str(ckpt), "--input", str(wav_in),
                "--params", "0.5", "--out", str(wav_out)]) == 0
    y = load_wav(wav_out)
    assert len(y) == 24000

    bench_dir = tmp_path / "bench"
    assert run(["benchmark", "--checkpoint", str(ckpt), "--seconds", "0.5",
                "--out", str(bench_dir)]) == 0
    report = json.loads((bench_dir / "benchmark.json").read_text())
    assert report["algorithmic_latency_samples"] == 64
    rtf = report["real_time_factor_48k_by_buffer"]
    assert sorted(rtf, key=int) == ["32", "128", "512"]
    assert all(np.isfinite(v) and v > 0 for v in rtf.values())
    steps = report["train_step_ms_by_lanes"]
    assert sorted(steps, key=int) == ["1", "3", "6"]
    assert all(np.isfinite(v) and v > 0 for v in steps.values())
    assert report["trainable_parameters"] == 817 - 24 + 16  # s4d with P=1
    assert report["flops_per_sample"] <= 1500


def test_train_bad_composition_usage_error(dataset_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["train", "--arch", "lstm", "--dataset", str(dataset_dir),
             "--composition", "9", "--out", str(tmp_path / "x")])
    assert exc.value.code == cli.EXIT_USAGE


def test_train_missing_dataset_file_error(tmp_path):
    code = run(["train", "--arch", "lstm", "--dataset", str(tmp_path / "nope"),
                "--composition", "1", "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_FORMAT  # missing dataset.json


def test_train_sidecar_of_wrong_width_format_error(dataset_dir, tmp_path, capsys):
    ds = tmp_path / "ds"
    ds.mkdir()
    for f in dataset_dir.iterdir():
        (ds / f.name).write_bytes(f.read_bytes())
    sidecar = ds / "params_001.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()),
                                   "params_normalized": [0.5, 0.25]}))
    code = run(["train", "--arch", "lstm", "--dataset", str(ds), "--composition", "1",
                "--out", str(tmp_path / "o"), "--max-epochs", "1"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_FORMAT
    assert err.startswith("format error:") and "params_001.json" in err and "Traceback" not in err


def test_eval_incompatible_checkpoint(dataset_dir, tmp_path):
    ckpt = tmp_path / "p0.sfx"
    Checkpoint.from_model(Model.init(ModelConfig("lstm", cond_dim=0), seed=0)).save(ckpt)
    code = run(["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset_dir),
                "--composition", "1", "--out", str(tmp_path / "e")])
    assert code == cli.EXIT_INPUT
    assert not (tmp_path / "e").exists()


def _edit_header(path, edit):
    blob = path.read_bytes()
    cut = blob.index(b"\nend\n")
    lines = blob[:cut].decode("ascii").split("\n")
    path.write_bytes("\n".join(edit(lines)).encode("ascii") + blob[cut:])


@pytest.mark.parametrize("edit", [
    lambda ls: [("format_version=one" if line.startswith("format_version=") else line) for line in ls],
    lambda ls: [line for line in ls if not line.startswith("architecture=")],
    lambda ls: [line for line in ls if not line.startswith("cond_dim=")],
    lambda ls: [("cond_dim=1.5" if line.startswith("cond_dim=") else line) for line in ls],
    lambda ls: [("architecture=gru" if line.startswith("architecture=") else line) for line in ls],
    lambda ls: ls + ["array="],
    lambda ls: [(line + " x" if line.startswith("array=proj.W") else line) for line in ls],
    lambda ls: [(line.replace(" ", " -") if line.startswith("array=proj.W") else line) for line in ls],
    # 384 * (2^57 + 1) wraps to 384 in int64, the true byte count of proj.W
    lambda ls: [("array=proj.W 384 144115188075855873" if line.startswith("array=proj.W") else line)
                for line in ls],
    # holds no bytes, but numpy cannot index a 2^70 dimension
    lambda ls: ls + ["array=history.extra 0 1180591620717411303424"],
], ids=["version", "no-arch", "no-config-key", "bad-int", "unknown-arch", "empty-array",
        "bad-dim", "negative-dim", "wrapping-size", "huge-dim"])
def test_eval_malformed_checkpoint_format_error(dataset_dir, tmp_path, capsys, edit):
    ckpt = tmp_path / "m.sfx"
    Checkpoint.from_model(Model.init(ModelConfig("lru", cond_dim=1), seed=0)).save(ckpt)
    _edit_header(ckpt, edit)
    code = run(["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset_dir),
                "--composition", "1", "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_FORMAT
    assert err.startswith("format error:") and "Traceback" not in err


def test_eval_checkpoint_wrong_array_shape_format_error(dataset_dir, tmp_path):
    ckpt = tmp_path / "m.sfx"
    Checkpoint.from_model(Model.init(ModelConfig("lru", cond_dim=1), seed=0)).save(ckpt)
    # same byte count, transposed shape
    _edit_header(ckpt, lambda ls: [("array=proj.W 64 6" if line.startswith("array=proj.W") else line)
                                   for line in ls])
    code = run(["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset_dir),
                "--composition", "1", "--out", str(tmp_path / "e")])
    assert code == cli.EXIT_FORMAT


def test_nonfinite_checkpoint_weight_format_error(dataset_dir, tmp_path, capsys):
    m = Model.init(ModelConfig("lru", cond_dim=1), seed=0)
    m.params["proj.W"][0, 0] = np.nan
    ckpt = tmp_path / "nan.sfx"
    Checkpoint.from_model(m).save(ckpt)
    wav_in = tmp_path / "in.wav"
    save_wav(wav_in, RNG.uniform(-0.5, 0.5, 1000))
    out = tmp_path / "o.wav"
    for argv in (["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset_dir),
                  "--composition", "1", "--out", str(tmp_path / "e")],
                 ["render", "--checkpoint", str(ckpt), "--input", str(wav_in),
                  "--params", "0.5", "--out", str(out)]):
        assert run(argv) == cli.EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.startswith("format error:") and "Traceback" not in err
    assert not out.exists()


def _render_inputs(tmp_path, cond_dim=2):
    ckpt = tmp_path / "m.sfx"
    Checkpoint.from_model(Model.init(ModelConfig("lstm", cond_dim=cond_dim), seed=2)).save(ckpt)
    wav_in = tmp_path / "in.wav"
    save_wav(wav_in, RNG.uniform(-0.5, 0.5, 1000))
    return ["render", "--checkpoint", str(ckpt), "--input", str(wav_in),
            "--out", str(tmp_path / "o.wav")]


@pytest.mark.parametrize("params", ["nan,0.5", "abc,0.5"])
def test_render_bad_params_input_error(tmp_path, capsys, params):
    argv = _render_inputs(tmp_path)
    assert run(argv + ["--params", params]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "o.wav").exists()


@pytest.mark.parametrize("row", ["0,abc,0.5", "0,nan,0.5", "inf,0.5,0.5", "50.5,0.5,0.5",
                                 "", "0,0.5", b"0,\xff\xfe,0.5"])
def test_render_bad_schedule_cell_format_error(tmp_path, capsys, row):
    sched = tmp_path / "sched.csv"
    sched.write_bytes(b"sample,p0,p1\n" + (row if isinstance(row, bytes) else row.encode()) + b"\n")
    assert run(_render_inputs(tmp_path) + ["--params-csv", str(sched)]) == cli.EXIT_FORMAT
    err = capsys.readouterr().err
    assert err.startswith("format error:") and str(sched) in err and "Traceback" not in err


@pytest.mark.parametrize("rows, what", [("0,0.5,0.5\n1000,0.1,0.1", "outside signal"),
                                        ("10,0.5,0.5", "start at sample 0")])
def test_render_bad_schedule_span_input_error(tmp_path, capsys, rows, what):
    # the input WAV holds 1000 samples
    sched = tmp_path / "sched.csv"
    sched.write_text(f"sample,p0,p1\n{rows}\n")
    assert run(_render_inputs(tmp_path) + ["--params-csv", str(sched)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(sched) in err and what in err
    assert "Traceback" not in err and not (tmp_path / "o.wav").exists()


def test_render_missing_checkpoint_file_error(tmp_path, capsys):
    wav_in = tmp_path / "in.wav"
    save_wav(wav_in, RNG.uniform(-0.5, 0.5, 1000))
    code = run(["render", "--checkpoint", str(tmp_path / "missing.sfx"), "--input", str(wav_in),
                "--params", "0.5", "--out", str(tmp_path / "o.wav")])
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("file error:") and "missing.sfx" in err and "Traceback" not in err


def test_directory_as_file_error(tmp_path, capsys):
    wav_in = tmp_path / "in.wav"
    save_wav(wav_in, RNG.uniform(-0.5, 0.5, 1000))
    for argv in (["render", "--checkpoint", str(tmp_path), "--input", str(wav_in),
                  "--params", "0.5", "--out", str(tmp_path / "o.wav")],
                 ["compare", str(tmp_path), "--out", str(tmp_path / "c")]):
        assert run(argv) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("file error:") and "Traceback" not in err
    assert not (tmp_path / "o.wav").exists() and not (tmp_path / "c").exists()


def test_dataset_empty_instrument_input_error(tmp_path, capsys):
    empty = tmp_path / "empty.wav"
    save_wav(empty, np.zeros(0))
    out = tmp_path / "d"
    code = run(["dataset", "--effect", "identity", "--duration", "0.5",
                "--instrument", str(empty), "--out", str(out)])
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(empty) in err and "Traceback" not in err
    assert not out.exists()


def test_train_defaults_are_train_config_defaults():
    args = cli.build_parser().parse_args(["train", "--arch", "lru", "--dataset", "d",
                                          "--composition", "1", "--out", "o"])
    cfg = TrainConfig()
    assert args.lr == cfg.initial_lr
    assert args.max_epochs == cfg.max_epochs
    assert args.patience == cfg.patience
    assert args.segment_len == cfg.segment_len
    assert args.batch_size == cfg.batch_size
    assert args.decay_mode == cfg.decay_mode
    assert args.seed == cfg.seed


@pytest.mark.parametrize("flag", [["--vary", "drive=abc"], ["--vary", "drive=nan"],
                                  ["--vary", "drive=-1"], ["--fix", "tone=abc"]])
def test_dataset_non_numeric_value_input_error(tmp_path, capsys, flag):
    code = run(["dataset", "--effect", "waveshaper_overdrive", *flag, "--duration", "0.5",
                "--out", str(tmp_path / "d")])
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# 1e12 and 1e300 lie above data.MAX_DURATION, so the cap rejects them before any allocation
@pytest.mark.parametrize("duration", ["-1", "0", "0.05", "nan", "inf", "1e12", "1e300"])
def test_dataset_bad_duration_input_error(tmp_path, capsys, duration):
    out = tmp_path / "d"
    code = run(["dataset", "--effect", "identity", "--duration", duration, "--out", str(out)])
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("seconds", ["-1", "0", "nan", "inf", "1e12", "1e300"])
def test_benchmark_bad_seconds_input_error(tmp_path, capsys, seconds):
    code = run(["benchmark", "--arch", "lru", "--seconds", seconds, "--out", str(tmp_path / "b")])
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_memory_error_exits_as_input_error(tmp_path, capsys, monkeypatch):
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 119. PiB for an array")
    monkeypatch.setattr(cli.data, "build_dataset", too_large)
    code = run(["dataset", "--effect", "identity", "--duration", "0.5", "--out", str(tmp_path / "d")])
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "memory" in err and "Traceback" not in err


def test_benchmark_huge_cond_dim_input_error(capsys):
    # rejected by ModelConfig before the FiLM weights (8 x 1e11 floats) are allocated
    code = run(["benchmark", "--cond-dim", "100000000000"])
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cond_dim" in err and "Traceback" not in err


@pytest.mark.filterwarnings("ignore:no low-energy split point")  # 0.2 s recordings have none
def test_eval_short_recordings_rejected_before_forward_pass(tmp_path, capsys, monkeypatch):
    ds = tmp_path / "short"
    assert run(["dataset", "--effect", "waveshaper_overdrive", "--vary", "drive=2",
                "--duration", "0.2", "--seed", "0", "--out", str(ds)]) == 0
    ckpt = tmp_path / "ck.sfx"
    Checkpoint.from_model(Model.init(ModelConfig("lru", cond_dim=1))).save(ckpt)

    def forward_pass(*args):
        raise AssertionError("evaluate_streams ran before the span check")

    monkeypatch.setattr(cli.training, "evaluate_streams", forward_pass)
    code = run(["eval", "--checkpoint", str(ckpt), "--dataset", str(ds), "--composition", "1",
                "--out", str(tmp_path / "ev")])
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "comp1/rec0 holds 960 samples" in err and "at least 4096" in err


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_train_bad_lr_input_error(dataset_dir, tmp_path, capsys, lr):
    code = run(["train", "--arch", "lstm", "--dataset", str(dataset_dir), "--composition", "1",
                "--lr", lr, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "initial_lr" in err
    assert not (tmp_path / "o").exists()


def test_train_divergence_numeric_error(dataset_dir, tmp_path, capsys):
    out = tmp_path / "o"
    code = run(["train", "--arch", "lru", "--dataset", str(dataset_dir), "--composition", "1",
                "--lr", "1e300", "--max-epochs", "2", "--batch-size", "2", "--out", str(out)])
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error: non-finite loss") and "Traceback" not in err
    assert not out.exists()



def test_train_s4d_divergence_numeric_error(dataset_dir, tmp_path, capsys):
    # the diverged S4D fails its discretization inside the segment's forward
    out = tmp_path / "o"
    code = run(["train", "--arch", "s4d", "--dataset", str(dataset_dir), "--composition", "1",
                "--lr", "1e300", "--max-epochs", "2", "--batch-size", "2", "--out", str(out)])
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error:") and "Traceback" not in err
    assert not out.exists()

def test_dataset_unknown_fixed_name_input_error(tmp_path, capsys):
    out = tmp_path / "d"
    code = run(["dataset", "--effect", "waveshaper_overdrive", "--fix", "nosuch=1",
                "--duration", "0.5", "--out", str(out)])
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nosuch" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name, text", [
    ("dataset.json", "not json"), ("dataset.json", "{}"), ("dataset.json", "[]"),
    ("params_001.json", "{}"),
    # a dict replaces those keys of the valid file
    ("dataset.json", {"combinations": "abc"}), ("dataset.json", {"combinations": -1}),
    ("dataset.json", {"combinations": True}), ("dataset.json", {"sample_rate": 48000.5}),
    ("dataset.json", {"cond_dim": "1"}), ("dataset.json", {"effect": ["identity"]}),
    ("params_001.json", {"params_normalized": 0.5}),
    ("params_001.json", {"params_normalized": ["0.5"]}),
    ("params_001.json", {"cond_labels": "drive"}), ("params_001.json", {"cond_labels": [1]}),
    # widths other than the dataset's cond_dim = 1
    ("params_001.json", {"params_normalized": [0.5, 0.5]}),
    ("params_001.json", {"params_normalized": []}),
    ("params_001.json", {"cond_labels": ["drive", "tone"]})])
def test_eval_malformed_dataset_json_format_error(dataset_dir, tmp_path, capsys, name, text):
    ds = tmp_path / "ds"
    ds.mkdir()
    for f in dataset_dir.iterdir():
        (ds / f.name).write_bytes(f.read_bytes())
    if isinstance(text, dict):
        text = json.dumps({**json.loads((ds / name).read_text()), **text})
    (ds / name).write_text(text)
    ckpt = tmp_path / "m.sfx"
    Checkpoint.from_model(Model.init(ModelConfig("lstm", cond_dim=1), seed=0)).save(ckpt)
    code = run(["eval", "--checkpoint", str(ckpt), "--dataset", str(ds),
                "--composition", "1", "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_FORMAT
    assert err.startswith("format error:") and name in err and "Traceback" not in err


def test_render_empty_wav_writes_empty_output(tmp_path, capsys):
    ckpt = tmp_path / "m.sfx"
    Checkpoint.from_model(Model.init(ModelConfig("lru", cond_dim=1), seed=2)).save(ckpt)
    wav_in = tmp_path / "empty.wav"
    save_wav(wav_in, np.zeros(0))
    out = tmp_path / "o.wav"
    assert run(["render", "--checkpoint", str(ckpt), "--input", str(wav_in),
                "--params", "0.5", "--out", str(out)]) == 0
    assert load_wav(out).shape == (0,)
    assert "Traceback" not in capsys.readouterr().err


def test_render_creates_missing_out_directory(tmp_path):
    argv = _render_inputs(tmp_path, cond_dim=1)
    out = tmp_path / "new" / "dir" / "o.wav"
    argv[-1] = str(out)
    assert run(argv + ["--params", "0.5"]) == 0
    assert load_wav(out).shape == (1000,)
    manifest = json.loads((out.parent / "run_manifest.json").read_text())
    assert manifest["artifacts"] == ["o.wav"] and manifest["arguments"]["out"] == str(out)


def test_render_scheduled_params_match_constant(dataset_dir, tmp_path):
    ckpt_path = tmp_path / "m.sfx"
    Checkpoint.from_model(Model.init(ModelConfig("lstm", cond_dim=1), seed=2)).save(ckpt_path)
    wav_in = tmp_path / "in.wav"
    save_wav(wav_in, RNG.uniform(-0.5, 0.5, 12000))
    sched = tmp_path / "sched.csv"
    sched.write_text("sample,p0\n0,0.0\n")
    out_a = tmp_path / "a.wav"
    out_b = tmp_path / "b.wav"
    assert run(["render", "--checkpoint", str(ckpt_path), "--input", str(wav_in),
                "--params", "0.0", "--out", str(out_a)]) == 0
    assert run(["render", "--checkpoint", str(ckpt_path), "--input", str(wav_in),
                "--params-csv", str(sched), "--out", str(out_b)]) == 0
    assert np.array_equal(load_wav(out_a), load_wav(out_b))


def test_render_rejects_wrong_rate(tmp_path):
    ckpt_path = tmp_path / "m.sfx"
    Checkpoint.from_model(Model.init(ModelConfig("lstm", cond_dim=0), seed=2)).save(ckpt_path)
    wav_in = tmp_path / "in44.wav"
    save_wav(wav_in, np.zeros(1000), sample_rate=44100)
    code = run(["render", "--checkpoint", str(ckpt_path), "--input", str(wav_in),
                "--out", str(tmp_path / "o.wav")])
    assert code == cli.EXIT_FORMAT


def _fake_eval_csv(path, model, dataset, value, comp):
    """An eval CSV as ``statefx eval`` writes it: one recording of composition
    ``comp``, then the mean row."""
    write_report_csv(path, [MetricReport(mse=value, esr=value, nrmse=value, m_sf=value, m_stft=value,
                                         model=model, dataset=dataset, split=split)
                            for split in (f"comp{comp}/rec0", "mean")])


def test_compare_dominant_model(tmp_path):
    # 5 models x 5 compositions; model "aaa" always best
    rng = np.random.default_rng(0)
    paths = []
    for comp in range(5):
        for model in ("aaa", "bbb", "ccc", "ddd", "eee"):
            v = 0.01 if model == "aaa" else float(rng.uniform(0.1, 1.0))
            p = tmp_path / f"eval_{model}_c{comp}.csv"
            _fake_eval_csv(p, model, "synthfx", v, comp)
            paths.append(str(p))
    out = tmp_path / "cmp"
    assert run(["compare", str(tmp_path / "eval_*.csv"), "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out / "compare_friedman.csv")))
    assert len(rows) == 5  # one per metric
    for row in rows:
        assert row["method"] == "exact"
        assert float(row["friedman_p"]) < 0.05
    pair_rows = list(csv.DictReader(open(out / "compare_wilcoxon.csv")))
    assert len(pair_rows) == 5 * 10


def test_compare_two_models_skips_friedman(tmp_path):
    for comp in range(5):
        for model in ("aaa", "bbb"):
            _fake_eval_csv(tmp_path / f"eval_{model}_c{comp}.csv", model, "fx",
                           float(RNG.uniform(0.1, 1.0)), comp)
    out = tmp_path / "cmp2"
    assert run(["compare", str(tmp_path / "eval_*.csv"), "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out / "compare_friedman.csv")))
    assert all("fewer than 3 models" in r["note"] for r in rows)
    assert all(r["friedman_p"] == "" for r in rows)


def test_compare_nonfinite_metric_input_error(tmp_path, capsys):
    # two models: no Friedman test runs, so the Wilcoxon test meets the NaN
    for comp in range(5):
        _fake_eval_csv(tmp_path / f"eval_aaa_c{comp}.csv", "aaa", "fx",
                       float("nan") if comp == 2 else float(RNG.uniform(0.1, 1.0)), comp)
        _fake_eval_csv(tmp_path / f"eval_bbb_c{comp}.csv", "bbb", "fx", float(RNG.uniform(0.1, 1.0)), comp)
    code = run(["compare", str(tmp_path / "eval_*.csv"), "--out", str(tmp_path / "c")])
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite" in err and "Traceback" not in err


def test_compare_failure_leaves_no_partial_table(tmp_path, capsys):
    # 6 blocks x 3 models; the Friedman test meets the NaN at "mse", after the
    # esr, m_sf and m_stft tables that sort before it
    for comp in range(6):
        for model in ("aaa", "bbb", "ccc"):
            v = float(RNG.uniform(0.1, 1.0))
            mse = float("nan") if (comp, model) == (3, "bbb") else v
            write_report_csv(tmp_path / f"eval_{model}_c{comp}.csv",
                             [MetricReport(mse=mse, esr=v, nrmse=v, m_sf=v, m_stft=v, model=model,
                                           dataset="fx", split=split)
                              for split in (f"comp{comp}/rec0", "mean")])
    out = tmp_path / "c"
    code = run(["compare", str(tmp_path / "eval_*.csv"), "--out", str(out)])
    assert code == cli.EXIT_INPUT
    assert "non-finite" in capsys.readouterr().err
    assert not list(out.glob("compare_*.csv"))


def test_compare_ragged_inputs_error(tmp_path):
    _fake_eval_csv(tmp_path / "eval_a_c0.csv", "a", "fx", 0.5, 0)
    _fake_eval_csv(tmp_path / "eval_a_c1.csv", "a", "fx", 0.4, 1)
    _fake_eval_csv(tmp_path / "eval_b_c0.csv", "b", "fx", 0.3, 0)
    code = run(["compare", str(tmp_path / "eval_*.csv"), "--out", str(tmp_path / "c")])
    assert code == cli.EXIT_INPUT


def test_compare_pairs_blocks_by_composition(tmp_path, capsys):
    # lru's comp-1 file also sits in old/ and its comp 5 is missing: paired by
    # position, its extra comp-1 row would meet the other models' comp 5
    (tmp_path / "old").mkdir()
    for k, (model, comps) in enumerate((("lstm", range(1, 6)), ("s4d", range(1, 6)), ("lru", range(1, 5)))):
        for comp in comps:
            _fake_eval_csv(tmp_path / f"eval_{model}_comp{comp}.csv", model, "fx", 0.1 * comp + 0.01 * k, comp)
    _fake_eval_csv(tmp_path / "old" / "eval_lru_comp1.csv", "lru", "fx", 0.9, 1)
    out = tmp_path / "c"
    code = run(["compare", str(tmp_path / "eval_*.csv"), str(tmp_path / "old" / "*.csv"), "--out", str(out)])
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "duplicate lru comp1 in fx" in err and "missing lru comp5 in fx" in err
    assert "lstm" not in err and "s4d" not in err and not out.exists()


def test_compare_orders_blocks_by_composition(tmp_path):
    # bbb's file names sort in the reverse order of its compositions; paired by
    # composition, bbb is 0.5 above aaa in every block, so every signed rank agrees
    for comp in range(1, 6):
        _fake_eval_csv(tmp_path / f"eval_aaa_{comp}.csv", "aaa", "fx", comp, comp)
        _fake_eval_csv(tmp_path / f"eval_bbb_{6 - comp}.csv", "bbb", "fx", comp + 0.5, comp)
    out = tmp_path / "c"
    assert run(["compare", str(tmp_path / "eval_*.csv"), "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out / "compare_wilcoxon.csv")))
    assert len(rows) == 5 and all(r["w_plus"] in ("0", "15") for r in rows)


_EVAL_HEADER = "model,dataset,split,mse,esr,nrmse,m_sf,m_stft\n"


@pytest.mark.parametrize("text", ["model,dataset,mse\na,fx,0.5\n",
                                  _EVAL_HEADER + "a,fx,mean,abc,1,1,1,1\n",
                                  b"model,dataset,split,mse\n\xff\xfe,fx,mean,0.5\n",
                                  # no per-recording row, two compositions, a split eval never writes
                                  _EVAL_HEADER + "a,fx,mean,1,1,1,1,1\n",
                                  _EVAL_HEADER + "a,fx,comp1/rec0,1,1,1,1,1\na,fx,comp2/rec0,1,1,1,1,1\n"
                                  "a,fx,mean,1,1,1,1,1\n",
                                  _EVAL_HEADER + "a,fx,train,1,1,1,1,1\na,fx,mean,1,1,1,1,1\n"])
def test_compare_malformed_eval_csv_format_error(tmp_path, capsys, text):
    path = tmp_path / "eval_a_c0.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code = run(["compare", str(path), "--out", str(tmp_path / "c")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_FORMAT
    assert err.startswith("format error:") and str(path) in err and "Traceback" not in err


def test_compare_overlong_csv_field_format_error(tmp_path, capsys):
    # the csv module refuses a field above its 131072-character limit
    path = tmp_path / "eval_a_c0.csv"
    path.write_text('model,dataset,split,mse\na,"' + "x" * 200_000 + '",mean,0.5\n')
    code = run(["compare", str(path), "--out", str(tmp_path / "c")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_FORMAT
    assert err.startswith("format error:") and str(path) in err and "Traceback" not in err


def test_render_overlong_schedule_field_format_error(tmp_path, capsys):
    sched = tmp_path / "sched.csv"
    sched.write_text('sample,p0,p1\n0,"' + "5" * 200_000 + '",0.5\n')
    assert run(_render_inputs(tmp_path) + ["--params-csv", str(sched)]) == cli.EXIT_FORMAT
    err = capsys.readouterr().err
    assert err.startswith("format error:") and str(sched) in err and "Traceback" not in err
    assert not (tmp_path / "o.wav").exists()


def test_compare_no_files_error(tmp_path):
    assert run(["compare", str(tmp_path / "missing_*.csv"),
                "--out", str(tmp_path / "c")]) == cli.EXIT_INPUT


# command: (argv after the command, manifest directory, arguments, seed, artifacts);
# {d} is the run's directory and {ds} the dataset
MANIFEST_RUNS = {
    "dataset": (
        ["--effect", "identity", "--duration", "0.5", "--seed", "4", "--out", "{d}/out"], "{d}/out",
        {"effect": "identity", "vary": None, "fix": None, "duration": 0.5, "seed": 4,
         "instrument": None, "out": "{d}/out", "force": False},
        4, ["input_000.wav", "output_000.wav"]),
    "train": (
        ["--arch", "lru", "--dataset", "{ds}", "--composition", "1", "--max-epochs", "1",
         "--batch-size", "2", "--out", "{d}/out"], "{d}/out",
        {"arch": "lru", "dataset": "{ds}", "composition": 1, "out": "{d}/out", "lr": 0.0003,
         "max_epochs": 1, "patience": 10, "segment_len": 2400, "batch_size": 2,
         "decay_mode": "staged", "seed": 0},
        0, ["checkpoint.sfx", "history.csv"]),
    "eval": (
        ["--checkpoint", "{d}/m.sfx", "--dataset", "{ds}", "--composition", "1", "--out", "{d}/out"],
        "{d}/out", {"checkpoint": "{d}/m.sfx", "dataset": "{ds}", "composition": 1, "out": "{d}/out"},
        None, ["eval_lru_comp1.csv"]),
    "render": (
        ["--checkpoint", "{d}/m.sfx", "--input", "{d}/in.wav", "--params", "0.5", "--out", "{d}/o.wav"],
        "{d}", {"checkpoint": "{d}/m.sfx", "input": "{d}/in.wav", "params": "0.5", "params_csv": None,
                "out": "{d}/o.wav"},
        None, ["o.wav"]),
    "benchmark": (
        ["--arch", "lru", "--seconds", "0.05", "--out", "{d}/out"], "{d}/out",
        {"checkpoint": None, "arch": "lru", "cond_dim": 2, "seconds": 0.05, "out": "{d}/out"},
        None, ["benchmark.json"]),
    "compare": (
        ["{d}/eval_*.csv", "--out", "{d}/out"], "{d}/out",
        {"eval_csv": ["{d}/eval_*.csv"], "out": "{d}/out"},
        None, ["compare_friedman.csv", "compare_wilcoxon.csv"]),
}


def _fill(value, fill):
    """``value`` with every string in it formatted with ``fill``."""
    if isinstance(value, str):
        return value.format(**fill)
    if isinstance(value, list):
        return [_fill(v, fill) for v in value]
    if isinstance(value, dict):
        return {k: _fill(v, fill) for k, v in value.items()}
    return value


def _manifest_run(command, d, dataset_dir):
    """Inputs for one MANIFEST_RUNS run under a new directory ``d``; returns its argv,
    manifest directory and expected manifest fields."""
    d.mkdir()
    Checkpoint.from_model(Model.init(ModelConfig("lru", cond_dim=1), seed=2)).save(d / "m.sfx")
    save_wav(d / "in.wav", RNG.uniform(-0.5, 0.5, 1000))
    for comp in range(5):
        for model in ("aaa", "bbb", "ccc"):
            _fake_eval_csv(d / f"eval_{model}_c{comp}.csv", model, "synthfx", 0.1 * comp + len(model), comp)
    tail, manifest_dir, arguments, seed, artifacts = MANIFEST_RUNS[command]
    fill = {"d": d, "ds": dataset_dir}
    expected = {"command": command, "seed": seed, "artifacts": artifacts,
                "arguments": {"command": command, **_fill(arguments, fill)}}
    return [command] + _fill(tail, fill), Path(manifest_dir.format(**fill)), expected


@pytest.mark.parametrize("command", sorted(MANIFEST_RUNS))
def test_every_command_writes_its_manifest_once_it_succeeds(command, dataset_dir, tmp_path,
                                                            monkeypatch):
    argv, manifest_dir, expected = _manifest_run(command, tmp_path / "ok", dataset_dir)
    assert run(argv) == 0
    manifest = json.loads((manifest_dir / "run_manifest.json").read_text())
    # compared as JSON text, so 4 and 4.0, or 0 and false, stay apart
    got = {k: manifest[k] for k in expected}
    assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)

    # a run that fails after writing its artifacts (at its closing report) writes no manifest
    class ClosedStdout:
        def write(self, text):
            raise BrokenPipeError("stdout closed")

    argv, manifest_dir, expected = _manifest_run(command, tmp_path / "failed", dataset_dir)
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert run(argv) == cli.EXIT_INPUT
    assert all((manifest_dir / a).exists() for a in expected["artifacts"])
    assert not (manifest_dir / "run_manifest.json").exists()


def test_benchmark_without_out_writes_no_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["benchmark", "--arch", "lru", "--seconds", "0.05"]) == 0
    assert list(tmp_path.iterdir()) == []


def test_only_main_times_runs_and_writes_manifests():
    tree = ast.parse(Path(cli.__file__).read_text())
    calls = [f"{f.name}:{n.lineno}" for f in tree.body
             if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")
             for n in ast.walk(f)
             if isinstance(n, ast.Call) and ast.unparse(n.func) in ("_write_manifest", "time.time")]
    assert calls == []
