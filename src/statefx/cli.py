"""Command-line entry points: dataset, train, eval, render, benchmark, compare.

Each command returns its output directory and artifact names, and ``main``
writes a run_manifest.json there (``benchmark`` only with ``--out``; a failed
run writes none).  Every command is deterministic under a fixed seed
(manifest timestamps aside).  Exit codes:
0 success, 2 usage, 3 file-format error, 4 numeric error, 5 invalid input,
incompatibility or an input too large for memory.
"""

from __future__ import annotations

import argparse
import csv
import glob as globmod
import json
import re
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, cells, data, metrics, stats, training
from .errors import FormatError, InputError, NumericError, StatefxError
from .model import (
    ARCHITECTURES,
    Checkpoint,
    Model,
    ModelConfig,
    check_dataset_compat,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_NUMERIC = 4
EXIT_INPUT = 5


def _write_manifest(out_dir: Path, args, started: float, artifacts: list) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": args.command,
        "arguments": {k: v for k, v in vars(args).items() if k != "func"},
        "seed": getattr(args, "seed", None),
        "started": datetime.fromtimestamp(started, timezone.utc).isoformat(),
        "finished": datetime.now(timezone.utc).isoformat(),
        "artifacts": artifacts,
        "tool_version": __version__,
    }
    # argument values keep their JSON types; anything else (a Path, say) is written as text
    (out_dir / "run_manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str))


def _number(text: str, what: str) -> float:
    """A finite float from one command-line value."""
    try:
        v = float(text)
    except ValueError:
        raise InputError(f"bad {what} value {text!r}; expected a number") from None
    if not np.isfinite(v):
        raise InputError(f"bad {what} value {text!r}; expected a finite number")
    return v


def _check_finite_outputs(outputs, checkpoint) -> None:
    """NumericError unless every output sample is finite: finite weights can
    still overflow, and a non-finite WAV or metric row is never written."""
    bad = sum(int(np.count_nonzero(~np.isfinite(y))) for y in outputs)
    if bad:
        raise NumericError(f"{checkpoint}: the model gives {bad} non-finite output samples")


def _read_csv(path, reader=csv.reader) -> list:
    """Every row of a CSV file, or FormatError naming it when its bytes are not
    text or the csv module rejects them (an over-long field, say)."""
    try:
        with open(path) as fh:
            return list(reader(fh))
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: undecodable text ({e})") from None
    except csv.Error as e:
        raise FormatError(f"{path}: malformed CSV ({e})") from None


def _parse_assignments(items, what: str) -> dict:
    out = {}
    for item in items or []:
        name, _, value = item.partition("=")
        if not name or not value:
            raise InputError(f"bad {what} {item!r}; expected name=value")
        out[name] = _number(value, what)
    return out


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------

def cmd_dataset(args) -> tuple[Path, list]:
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise InputError(f"{out} exists and is not empty; pass --force to overwrite")
    effect = data.get_effect(args.effect)
    counts = _parse_assignments(args.vary, "--vary")
    bad = [f"{k}={v:g}" for k, v in counts.items() if v < 1 or v != int(v)]
    if bad:
        raise InputError(f"--vary counts must be whole numbers >= 1, got {bad}")
    counts = {k: int(v) for k, v in counts.items()}
    fixed = _parse_assignments(args.fix, "--fix")
    grid = data.grid_from_ranges(effect, counts, fixed)
    cond_labels = sorted(counts) if counts else []
    recs = data.build_dataset(effect, grid, seed=args.seed, duration=args.duration,
                              cond_labels=cond_labels,
                              instrument_paths=args.instrument or None)
    data.save_dataset(out, recs)
    print(f"wrote {len(recs)} recording pairs ({args.duration:g} s each) to {out}")
    return out, sorted(p.name for p in out.glob("*.wav"))


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _load_split(dataset_dir, composition: int):
    recs, meta = data.load_dataset(dataset_dir)
    comps = data.make_split_compositions(recs)
    train_s, val_s, test_s = data.resolve_composition(recs, comps[composition - 1])
    return recs, meta, train_s, val_s, test_s


def cmd_train(args) -> tuple[Path, list]:
    out = Path(args.out)
    tcfg = training.TrainConfig(
        initial_lr=args.lr, max_epochs=args.max_epochs, patience=args.patience,
        segment_len=args.segment_len, batch_size=args.batch_size,
        decay_mode=args.decay_mode, seed=args.seed)
    recs, meta, train_s, val_s, _ = _load_split(args.dataset, args.composition)
    cfg = ModelConfig(args.arch, cond_dim=meta["cond_dim"], sample_rate=meta["sample_rate"])
    model = Model.init(cfg, seed=args.seed)
    ckpt, history = training.train(model, training.TrainSplit(train_s, val_s), tcfg)
    out.mkdir(parents=True, exist_ok=True)
    ckpt.save(out / "checkpoint.sfx")
    history.write_csv(out / "history.csv")
    print(f"trained {args.arch} on composition {args.composition}: "
          f"best epoch {history.best_epoch}, val loss {min(history.val_loss):.3e}, "
          f"val ESR {history.val_esr[history.best_epoch]:.3e}")
    return out, ["checkpoint.sfx", "history.csv"]


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> tuple[Path, list]:
    out = Path(args.out)
    ckpt = Checkpoint.load(args.checkpoint)
    model = ckpt.to_model()
    recs, meta, _, _, test_s = _load_split(args.dataset, args.composition)
    check_dataset_compat(model, meta["cond_dim"], meta["sample_rate"])
    # checked before any forward pass: the metrics reject a short span only at the end
    lens = [len(s.y) for s in test_s]
    if lens and min(lens) < metrics.MIN_SIGNAL_LEN:
        i = lens.index(min(lens))
        raise InputError(f"test span comp{args.composition}/rec{i} holds {lens[i]} samples; "
                         f"the metrics need at least {metrics.MIN_SIGNAL_LEN} (recordings of about "
                         f"{10 * metrics.MIN_SIGNAL_LEN / meta['sample_rate']:.2g} s or more)")
    dataset_name = meta["effect"]
    _, _, preds = training.evaluate_streams(model, test_s)
    _check_finite_outputs(preds, args.checkpoint)
    reports = [metrics.compute_report(s.y, y_hat, model=model.config.architecture,
                                      dataset=dataset_name, split=f"comp{args.composition}/rec{i}")
               for i, (s, y_hat) in enumerate(zip(test_s, preds))]
    rows = reports + [metrics.mean_report(reports, model=model.config.architecture,
                                          dataset=dataset_name)]
    csv_path = out / f"eval_{model.config.architecture}_comp{args.composition}.csv"
    out.mkdir(parents=True, exist_ok=True)
    metrics.write_report_csv(csv_path, rows)
    summary = "  ".join(f"{m} {getattr(rows[-1], m):.3e}" for m in metrics.METRICS)
    print(f"{model.config.architecture} on {dataset_name} comp{args.composition}: {summary}")
    return out, [csv_path.name]


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------

def _load_schedule(path, n_samples: int, cond_dim: int) -> np.ndarray:
    """Piecewise-constant conditioning schedule from CSV rows (sample, p...)."""
    rows = []
    for row in _read_csv(path):
        if not row or row[0].strip().startswith("#") or row[0].strip() == "sample":
            continue
        try:
            values = [float(v) for v in row]
        except ValueError:
            raise FormatError(f"{path}: non-numeric schedule row {row}") from None
        if not (np.all(np.isfinite(values)) and values[0] == int(values[0])):
            raise FormatError(f"{path}: schedule row {row} needs finite values and a whole sample index")
        rows.append(values)
    if not rows:
        raise FormatError(f"{path}: empty conditioning schedule")
    sched = np.full((n_samples, cond_dim), np.nan)
    rows.sort(key=lambda r: r[0])
    for row in rows:
        if len(row) != cond_dim + 1:
            raise FormatError(f"{path}: expected {cond_dim + 1} columns, got {len(row)}")
        start = int(row[0])
        if not 0 <= start < n_samples:
            raise InputError(f"{path}: schedule sample {start} outside signal")
        sched[start:] = row[1:]
    if np.isnan(sched).any():
        raise InputError(f"{path}: schedule must start at sample 0")
    return sched


def cmd_render(args) -> tuple[Path, list]:
    ckpt = Checkpoint.load(args.checkpoint)
    model = ckpt.to_model()
    x = data.load_wav(args.input, sample_rate=model.config.sample_rate)
    P = model.config.cond_dim
    p = None
    if P > 0:
        if args.params_csv:
            p = _load_schedule(args.params_csv, len(x), P)
        elif args.params:
            p = np.asarray([_number(v, "--params") for v in args.params.split(",")])
            if p.shape != (P,):
                raise InputError(f"--params needs {P} comma-separated values")
        else:
            raise InputError(f"model is conditioned on {P} parameters; "
                             "pass --params or --params-csv")
    state = model.init_state(1)
    y, _ = model.forward_segment(state, x, p)
    _check_finite_outputs([y], args.checkpoint)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    data.save_wav(out, y, model.config.sample_rate)
    print(f"rendered {len(y)} samples to {out}")
    return out.parent, [out.name]


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

BENCHMARK_BUFFERS = (32, 128, 512)  # plugin buffer sizes timed beside the whole file
TRAIN_STEP_LANES = (1, 3, 6)        # lanes of the timed training step


def _stream_seconds(model, x, p, buffer: int) -> float:
    """Wall time to stream ``x`` from fresh state, one forward_segment call per buffer."""
    state = model.init_state(1)
    t0 = time.perf_counter()
    for a in range(0, len(x), buffer):
        _, state = model.forward_segment(state, x[a:a + buffer], p)
    return time.perf_counter() - t0


def _train_step_ms(model, lanes: int) -> float:
    """Median wall time in ms of 3 training steps (backward_segment, clipping and
    one Adam update) on a copy of ``model``, each over one TrainConfig.segment_len
    segment per lane, carrying the state from step to step."""
    model = model.copy()
    cfg = training.TrainConfig()
    x = np.random.default_rng(1).uniform(-0.5, 0.5, (lanes, cfg.segment_len))
    P = model.config.cond_dim
    p = np.full((lanes, P), 0.5) if P else None
    state, moments, times = model.init_state(lanes), training.AdamState.for_model(model), []
    for _ in range(3):
        t0 = time.perf_counter()
        _, grads, state = training.backward_segment(model, state, x, x, p)
        training.adam_update(model.params, training.clip_grad_norm(grads), moments, cfg.initial_lr)
        times.append(time.perf_counter() - t0)
    return 1000.0 * float(np.median(times))


def cmd_benchmark(args) -> tuple[Path | None, list]:
    if args.checkpoint:
        model = Checkpoint.load(args.checkpoint).to_model()
    else:
        model = Model.init(ModelConfig(args.arch, cond_dim=args.cond_dim), seed=0)
    cfg = model.config
    fs = cfg.sample_rate
    if not (args.seconds * fs >= 1 and args.seconds <= data.MAX_DURATION):  # NaN fails too
        raise InputError(f"--seconds must cover at least one sample and at most "
                         f"{data.MAX_DURATION:g} s, got {args.seconds:g}")
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.5, 0.5, int(args.seconds * fs))
    p = np.full(cfg.cond_dim, 0.5) if cfg.cond_dim else None
    state = model.init_state(1)
    model.forward_segment(state, x[:fs // 10], p)  # warm-up
    sps = len(x) / _stream_seconds(model, x, p, len(x))
    fl = model.count_flops()
    lines = {
        "architecture": cfg.architecture,
        "samples_per_second": round(sps),
        "real_time_factor_48k": sps / fs,
        "real_time_factor_48k_by_buffer": {
            str(n): len(x) / _stream_seconds(model, x, p, n) / fs for n in BENCHMARK_BUFFERS},
        "train_step_ms_by_lanes": {str(n): _train_step_ms(model, n) for n in TRAIN_STEP_LANES},
        "algorithmic_latency_samples": cells.WINDOW_LEN,
        "algorithmic_latency_ms": cells.WINDOW_LEN / fs * 1000.0,
        "trainable_parameters": model.count_params(),
        "flops_per_sample": fl.total,
        "flops_convention": fl.convention,
        "flops_reference_total": fl.reference_total,
        "flops_deviation_pct": 100.0 * fl.deviation_from_reference,
        "flops_breakdown": {
            "projection": fl.projection, "recurrent_layer": fl.recurrent_layer,
            "post_fc": fl.post_fc, "conditioning_block": fl.conditioning_block,
            "output_layer": fl.output_layer},
    }
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
        (out / "benchmark.json").write_text(json.dumps(lines, indent=2, sort_keys=True))
    for k, v in lines.items():
        print(f"{k}: {v}")
    return out, ["benchmark.json"]


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _composition(path, rows) -> int:
    """The one composition named by the per-recording rows (split
    ``comp{c}/rec{i}``, as ``eval`` writes them) of an eval CSV."""
    splits = [r["split"] or "" for r in rows if r["split"] != "mean"]
    matches = [re.fullmatch(r"comp(\d+)/rec\d+", s) for s in splits]
    if not splits or not all(matches):
        raise FormatError(f"{path}: needs per-recording rows with split comp<c>/rec<i>; not an eval CSV?")
    comps = {int(m[1]) for m in matches}
    if len(comps) > 1:
        raise FormatError(f"{path}: rows from compositions {sorted(comps)}; expected one")
    return comps.pop()


def cmd_compare(args) -> tuple[Path, list]:
    paths = sorted(set(p for pat in args.eval_csv for p in globmod.glob(pat)))
    if not paths:
        raise InputError(f"no eval CSVs match {args.eval_csv}")
    # each file's mean rows, keyed by its composition: the compositions are the blocks
    found: dict = {}  # (dataset, model) -> {composition: [(path, metric values)]}
    for path in paths:
        rows = _read_csv(path, csv.DictReader)
        try:
            mean_rows = [(r["dataset"], r["model"], [float(r[m]) for m in metrics.METRICS])
                         for r in rows if r["split"] == "mean"]
            comp = _composition(path, rows)
        except KeyError as e:
            raise FormatError(f"{path}: missing column {e}; not an eval CSV?") from None
        except (TypeError, ValueError) as e:
            raise FormatError(f"{path}: non-numeric metric value ({e})") from None
        if not mean_rows:
            raise FormatError(f"{path}: no mean row; not an eval CSV?")
        for dataset, model, values in mean_rows:
            found.setdefault((dataset, model), {}).setdefault(comp, []).append((path, values))

    comps: dict = {}  # dataset -> every composition any model has
    for (dataset, _), by_comp in found.items():
        comps.setdefault(dataset, set()).update(by_comp)
    bad, scores = [], {}
    for (dataset, model), by_comp in sorted(found.items()):
        bad += [f"duplicate {model} comp{c} in {dataset} ({', '.join(p for p, _ in by_comp[c])})"
                for c in sorted(by_comp) if len(by_comp[c]) > 1]
        bad += [f"missing {model} comp{c} in {dataset}" for c in sorted(comps[dataset] - set(by_comp))]
        for i, metric in enumerate(metrics.METRICS):
            scores.setdefault((dataset, metric), {})[model] = [by_comp[c][0][1][i] for c in sorted(by_comp)]
    if bad:
        raise InputError("compare needs one mean row per model and composition: " + "; ".join(bad))

    # every test runs before either table is opened, so a failed run leaves no partial table
    results = [(key, stats.compare_models(rows_by_model)) for key, rows_by_model in sorted(scores.items())]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary_path = out / "compare_friedman.csv"
    pairwise_path = out / "compare_wilcoxon.csv"
    with open(summary_path, "w", newline="") as fh_s, open(pairwise_path, "w", newline="") as fh_p:
        ws = csv.writer(fh_s)
        wp = csv.writer(fh_p)
        ws.writerow(["dataset", "metric", "friedman_statistic", "friedman_p", "method", "note"])
        wp.writerow(["dataset", "metric", "model_a", "model_b", "w_plus", "p", "method"])
        for (dataset, metric), result in results:
            fr = result["friedman"]
            note = "" if fr is not None else "friedman skipped: fewer than 3 models"
            ws.writerow([dataset, metric,
                         f"{fr.statistic:.6g}" if fr else "", f"{fr.p_value:.6g}" if fr else "",
                         fr.method if fr else "", note])
            for (m1, m2), res in sorted(result["pairwise"].items()):
                wp.writerow([dataset, metric, m1, m2,
                             f"{res.statistic:.6g}", f"{res.p_value:.6g}", res.method])
    print(f"wrote {summary_path} and {pairwise_path}")
    return out, [summary_path.name, pairwise_path.name]


# ---------------------------------------------------------------------------
# parser / entry
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="statefx",
                                 description="Train and evaluate small state-based "
                                             "virtual-analog effect models.")
    sub = ap.add_subparsers(dest="command", required=True)
    compositions = range(1, data.N_COMPOSITIONS + 1)

    d = sub.add_parser("dataset", help="generate an oracle-effect dataset")
    d.add_argument("--effect", required=True, choices=sorted(data.EFFECTS))
    d.add_argument("--vary", action="append", metavar="NAME=COUNT",
                   help="parameter swept over COUNT equally spaced values")
    d.add_argument("--fix", action="append", metavar="NAME=VALUE",
                   help="parameter pinned to a physical value")
    d.add_argument("--duration", type=float, default=data.DEFAULT_DURATION)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--instrument", action="append", metavar="WAV",
                   help="optional 48 kHz mono WAV for the instrument slot")
    d.add_argument("--out", required=True)
    d.add_argument("--force", action="store_true")
    d.set_defaults(func=cmd_dataset)

    t = sub.add_parser("train", help="train one architecture on one composition")
    t.add_argument("--arch", required=True, choices=ARCHITECTURES)
    t.add_argument("--dataset", required=True)
    t.add_argument("--composition", type=int, required=True, choices=compositions,
                   metavar=f"1-{data.N_COMPOSITIONS}")
    t.add_argument("--out", required=True)
    tc = training.TrainConfig
    t.add_argument("--lr", type=float, default=tc.initial_lr)
    t.add_argument("--max-epochs", type=int, default=tc.max_epochs)
    t.add_argument("--patience", type=int, default=tc.patience)
    t.add_argument("--segment-len", type=int, default=tc.segment_len)
    t.add_argument("--batch-size", type=int, default=tc.batch_size)
    t.add_argument("--decay-mode", choices=training.DECAY_MODES, default=tc.decay_mode)
    t.add_argument("--seed", type=int, default=tc.seed)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a composition's test split")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--dataset", required=True)
    e.add_argument("--composition", type=int, required=True, choices=compositions,
                   metavar=f"1-{data.N_COMPOSITIONS}")
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)

    r = sub.add_parser("render", help="process a WAV sample-by-sample through a checkpoint")
    r.add_argument("--checkpoint", required=True)
    r.add_argument("--input", required=True)
    r.add_argument("--params", help="comma-separated normalized values in [0,1]")
    r.add_argument("--params-csv", help="CSV schedule: sample,p0,p1,...")
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_render)

    b = sub.add_parser("benchmark", help="measure streaming throughput and training-step time, "
                                         "and report budgets")
    b.add_argument("--checkpoint")
    b.add_argument("--arch", choices=ARCHITECTURES, default="lstm")
    b.add_argument("--cond-dim", type=int, default=2)
    b.add_argument("--seconds", type=float, default=2.0)
    b.add_argument("--out")
    b.set_defaults(func=cmd_benchmark)

    c = sub.add_parser("compare", help="Friedman + pairwise Wilcoxon over eval CSVs")
    c.add_argument("eval_csv", nargs="+", help="glob(s) of eval CSV files")
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_compare)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        out_dir, artifacts = args.func(args)
        if out_dir is not None:
            _write_manifest(out_dir, args, started, artifacts)
        return EXIT_OK
    except FormatError as e:
        print(f"format error: {e}", file=sys.stderr)
        return EXIT_FORMAT
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except StatefxError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as e:
        print(f"file error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as e:
        print(f"error: not enough memory: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
