"""The three workloads, their timed loop, correctness checks and end-to-end
metrics.

Every workload runs all five architectures on the same seeded inputs and
drives statefx only through its public API.  The timed region is a
sequence of blocks; each block is timed operation by operation, and a
traced run alternates traced and untraced blocks so that both see the same
state of the host.
"""

from __future__ import annotations

import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np
from statefx import data, metrics, model, stats, training

FS = 48000
ARCHS = model.ARCHITECTURES
EFFECT = data.get_effect("waveshaper_overdrive")
COND_DIM = len(EFFECT.param_names)      # drive, tone
TOL = 1e-9          # max |output - reference| of a correct operation
PREFIX = 64         # samples checked against the per-sample cells path
WARMUP_S = 3.0      # covers the faster first seconds of a fresh process


class Op:
    """One timed operation: a buffer, a rendered file or a training epoch.

    ``steps`` is how many counted operations it stands for: an epoch counts
    each of its optimizer steps.  ``shared`` is the part of ``seconds``
    charged to it from work done for all architectures together.
    """

    __slots__ = ("arch", "block", "traced", "seconds", "audio", "steps", "ok", "out", "shared")

    def __init__(self, arch, block, traced, seconds, audio, out, steps=1):
        self.arch, self.block, self.traced = arch, block, traced
        self.seconds, self.audio, self.steps = seconds, audio, steps
        self.ok = out is not None
        self.out = out
        self.shared = 0.0


_shown = [0]


def _failed(exc: BaseException) -> None:
    """Report an operation that raised; the first few tracebacks are kept."""
    _shown[0] += 1
    if _shown[0] <= 3:
        traceback.print_exception(exc, file=sys.stderr)


def _models(tmp: Path) -> dict:
    """Each architecture initialised, saved and read back as a checkpoint."""
    out = {}
    for arch in ARCHS:
        path = tmp / f"{arch}.sfx"
        m = model.Model.init(model.ModelConfig(arch, cond_dim=COND_DIM), seed=0)
        model.Checkpoint.from_model(m).save(path)
        out[arch] = model.Checkpoint.load(path).to_model()
    return out


def _dataset(tmp: Path, grid: dict, seed: int, duration: float) -> list:
    recs = data.build_dataset(EFFECT, data.grid_from_ranges(EFFECT, grid), seed=seed, duration=duration)
    data.save_dataset(tmp / "dataset", recs)
    return data.load_dataset(tmp / "dataset")[0]


def _sample_path(m, x, p_rows) -> np.ndarray:
    """Outputs for the first len(p_rows) samples through Model.forward_sample."""
    ext = np.concatenate([np.zeros(model.HIST_LEN), x])
    state = m.init_state(1)
    ys = np.empty(len(p_rows))
    for n, p in enumerate(p_rows):
        ys[n], state = m.forward_sample(state, ext[n:n + model.HIST_LEN + 1][::-1], p)
    return ys


def _bad(y, ref) -> bool:
    return y.shape != ref.shape or not np.max(np.abs(y - ref)) <= TOL


class StreamB32:
    """Plugin simulation: one forward_segment call per 32-sample buffer, in a
    closed loop, with knob automation stepping every 100 ms."""

    BUFFER = 32
    STEP = 150                  # buffers per knob setting: 100 ms at 48 kHz
    SIGNAL_S = 6.0              # the stream loops over this input
    CHECK_S = 0.5               # stream prefix checked against whole-file output
    round_blocks = 1            # blocks that give every architecture an operation

    def __init__(self, seed: int, tmp: Path):
        # the host plays the input from a WAV file
        data.save_wav(tmp / "input.wav", data.generate_input_signal(self.SIGNAL_S, FS, seed=seed), FS)
        self.x = data.load_wav(tmp / "input.wav", FS)
        hop = self.BUFFER * self.STEP
        rng = np.random.default_rng(seed)
        self.knobs = rng.uniform(0.0, 1.0, (len(self.x) // hop, COND_DIM))
        # oracle output with each knob setting held long enough to settle
        self.target = np.empty_like(self.x)
        for k, p in enumerate(self.knobs):
            lo = max(0, (k - 1) * hop)
            y = data.apply_oracle(EFFECT, data.denormalize_params(EFFECT, p), self.x[lo:(k + 1) * hop])
            self.target[k * hop:(k + 1) * hop] = y[-hop:]
        self.models = _models(tmp)
        self.reset()

    def reset(self) -> None:
        self.state = {a: m.init_state(1) for a, m in self.models.items()}
        self.pos = 0

    def block(self, i: int, tracer) -> list:
        ops = []
        hop = self.BUFFER * self.STEP
        p = self.knobs[(self.pos // hop) % len(self.knobs)]
        for _ in range(self.STEP):
            start = self.pos % len(self.x)
            xb = self.x[start:start + self.BUFFER]
            for arch in ARCHS:
                if tracer is not None:
                    tracer.tag = arch
                m = self.models[arch]
                y = None
                t0 = perf_counter()
                try:
                    y, self.state[arch] = m.forward_segment(self.state[arch], xb, p)
                except Exception as exc:  # counted as a failed buffer; the stream goes on
                    _failed(exc)
                ops.append(Op(arch, i, tracer is not None, perf_counter() - t0, self.BUFFER / FS, y))
            self.pos += self.BUFFER
        return ops

    def check(self, ops: list) -> float:
        """Mark failed buffers; return the mean ESR over the checked prefix."""
        esrs = []
        for arch in ARCHS:
            mine = [op for op in ops if op.arch == arch]
            for op in mine:
                op.ok = op.ok and bool(np.all(np.isfinite(op.out)))
            n = min(len(mine), int(self.CHECK_S * FS) // self.BUFFER)
            L = n * self.BUFFER
            sched = self.knobs[np.arange(L) // (self.BUFFER * self.STEP)]
            m = self.models[arch]
            ref, _ = m.forward_segment(m.init_state(1), self.x[:L], sched)
            ref[:PREFIX] = _sample_path(m, self.x, sched[:PREFIX])
            for b, op in enumerate(mine[:n]):
                if op.ok and _bad(op.out, ref[b * self.BUFFER:(b + 1) * self.BUFFER]):
                    op.ok = False
            esrs.append(metrics.esr(self.target[:L], ref))
        return float(np.mean(esrs))


class OfflineRender:
    """Whole-file processing as render/eval do it: one forward_segment call
    per recording, a metric report against the oracle target, and a model
    comparison after every pass over the recordings."""

    FILE_S = 0.4
    GRID = {"drive": 3, "tone": 2}      # six recordings: the comparison needs five blocks
    round_blocks = len(ARCHS)

    def __init__(self, seed: int, tmp: Path):
        self.recs = _dataset(tmp, self.GRID, seed, self.FILE_S)
        self.models = _models(tmp)
        self.reset()

    def reset(self) -> None:
        self.scores = {a: [0.0] * len(self.recs) for a in ARCHS}
        self.compare_s: list[tuple[int, float | None]] = []

    def block(self, i: int, tracer) -> list:
        arch = ARCHS[i % len(ARCHS)]
        f = (i // len(ARCHS)) % len(self.recs)
        rec, m = self.recs[f], self.models[arch]
        if tracer is not None:
            tracer.tag = arch
        out = None
        t0 = perf_counter()
        try:
            y, _ = m.forward_segment(m.init_state(1), rec.input, rec.params)
            rep = metrics.compute_report(rec.output, y, model=arch, dataset=EFFECT.kind, split=f"rec{f}")
            out = (f, y, rep)
            self.scores[arch][f] = rep.esr
        except Exception as exc:  # counted as a failed file
            _failed(exc)
        ops = [Op(arch, i, tracer is not None, perf_counter() - t0, self.FILE_S, out)]
        per_pass = len(ARCHS) * len(self.recs)
        if i % per_pass == per_pass - 1:
            if tracer is not None:
                tracer.tag = None
            t0 = perf_counter()
            try:
                stats.compare_models(self.scores)
                self.compare_s.append((i, perf_counter() - t0))
            except Exception as exc:  # the files of this pass then count as failed
                _failed(exc)
                self.compare_s.append((i, None))
        return ops

    def check(self, ops: list) -> float:
        """Charge each comparison evenly to the files of its pass, mark
        failed files, and return the mean over architectures of the ESR
        pooled over the recordings."""
        per_pass = len(ARCHS) * len(self.recs)
        for end, seconds in self.compare_s:
            mine = [op for op in ops if end - per_pass < op.block <= end]
            for op in mine:
                if seconds is None:
                    op.ok = False
                else:
                    op.shared = seconds / len(mine)
                    op.seconds += op.shared
        first: dict = {}
        pooled = {a: [0.0, 0.0] for a in ARCHS}   # squared error, target energy
        for op in ops:
            if not op.ok:
                continue
            f, y, rep = op.out
            t = self.recs[f].output
            direct = float(np.sum((t - y) ** 2) / np.sum(t ** 2))
            finite = np.all(np.isfinite(y)) and np.all(np.isfinite(
                [rep.mse, rep.esr, rep.nrmse, rep.m_sf, rep.m_stft]))
            if not finite or abs(rep.esr - direct) > 1e-9 * direct:
                op.ok = False
                continue
            key = (op.arch, f)
            if key not in first:
                rec, m = self.recs[f], self.models[op.arch]
                ref = _sample_path(m, rec.input, [rec.params] * PREFIX)
                first[key] = (y, _bad(y[:PREFIX], ref))
                pooled[op.arch][0] += float(np.sum((t - y) ** 2))
                pooled[op.arch][1] += float(np.sum(t ** 2))
            y0, bad = first[key]
            op.ok = not bad and not _bad(y, y0)
        return float(np.mean([e / n for e, n in pooled.values() if n]))


class TrainEpoch:
    """One training.train epoch per architecture with the default
    TrainConfig and max_epochs=1, validation included."""

    REC_S = 0.2                 # 3 segments of 2400 samples per training stream
    GRID = {"drive": 3}         # three long streams: batches of 3 lanes
    round_blocks = len(ARCHS)

    def __init__(self, seed: int, tmp: Path):
        recs = _dataset(tmp, self.GRID, seed, self.REC_S)
        with warnings.catch_warnings():
            # short recordings hold no quiet split points; the nominal
            # boundaries the fallback picks are what this workload uses
            warnings.simplefilter("ignore", UserWarning)
            comps = data.make_split_compositions(recs)
        train_s, val_s, _ = data.resolve_composition(recs, comps[0])
        self.split = training.TrainSplit(train_s, val_s)
        self.cfg = training.TrainConfig(max_epochs=1)
        self.models = _models(tmp)
        seg, bs = self.cfg.segment_len, self.cfg.batch_size
        usable = [len(s.x) // seg for s in train_s if len(s.x) >= seg]
        self.steps = sum(-(-usable.count(n) // bs) * n for n in set(usable))
        self.audio = sum(usable) * seg / FS

    def reset(self) -> None:
        pass

    def block(self, i: int, tracer) -> list:
        arch = ARCHS[i % len(ARCHS)]
        m = self.models[arch].copy()
        if tracer is not None:
            tracer.tag = arch
        out = None
        t0 = perf_counter()
        try:
            ckpt, history = training.train(m, self.split, self.cfg)
            out = (ckpt, history)
        except Exception as exc:  # every step of the epoch counts as failed
            _failed(exc)
        return [Op(arch, i, tracer is not None, perf_counter() - t0, self.audio, out, self.steps)]

    def check(self, ops: list) -> float:
        """Mark failed epochs; return the mean validation ESR."""
        esrs = []
        for arch in ARCHS:
            mine = [op for op in ops if op.arch == arch and op.ok]
            if not mine:
                continue
            ckpt, h0 = mine[0].out
            # the trained weights against the per-sample path, and the
            # hand-written gradients against central differences
            trained = ckpt.to_model()
            s = self.split.val[0]
            ref = _sample_path(trained, s.x, [s.p] * PREFIX)
            y, _ = trained.forward_segment(trained.init_state(1), s.x[:PREFIX], s.p)
            err, _ = training.finite_difference_audit(
                self.models[arch].copy(), s.x[:PREFIX], s.y[:PREFIX], s.p, max_coords_per_param=2)
            sound = not _bad(y, ref) and err < 1e-4
            for op in mine:
                _, h = op.out
                rec = h.train_loss + h.val_loss + h.val_esr
                op.ok = sound and bool(np.all(np.isfinite(rec))) and h.val_esr == h0.val_esr
            esrs.append(h0.val_esr[-1])
        return float(np.mean(esrs)) if esrs else float("nan")


WORKLOADS = {"stream_b32": StreamB32, "offline_render": OfflineRender, "train_epoch": TrainEpoch}


def run_blocks(wl, seconds: float, min_blocks: int, tracer=None) -> list:
    """Run blocks for ``seconds`` and at least ``min_blocks``.

    With a tracer, odd blocks run traced: the tracer is installed around
    them and removed again, so even blocks run the package as shipped.
    """
    ops: list = []
    i = 0
    start = perf_counter()
    while i < min_blocks or perf_counter() - start < seconds:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        try:
            ops += wl.block(i, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        i += 1
    return ops


def block_rates(ops: list, arch: str, traced: bool = False) -> list:
    """Audio seconds per compute second of each block, for one architecture."""
    by_block: dict[int, list] = {}
    for op in ops:
        if op.arch == arch and op.traced == traced:
            acc = by_block.setdefault(op.block, [0.0, 0.0])
            acc[0] += op.audio
            acc[1] += op.seconds
    return [a / t for a, t in by_block.values()]


def end_to_end(ops: list, quality: float) -> dict:
    """End-to-end metrics (setup_s and peak_rss_mb are added by the caller).

    On a shared 2-core VM the speed drifts between a fast and a slow state
    that last from seconds to minutes, so a median mixes the two states in proportions that
    change from run to run.  The rate every block sustains but for the
    slowest tenth, and the load the slowest tenth of operations exceed,
    follow the slow state alone and repeat between runs.
    """
    out = {}
    for arch in ARCHS:
        out[f"rtf.{arch}"] = (float(np.percentile(block_rates(ops, arch), 10)), "s/s")
    for arch in ARCHS:
        loads = [op.seconds / op.audio for op in ops if op.arch == arch and not op.traced]
        out[f"load_p90.{arch}"] = (float(np.percentile(loads, 90)), "ratio")
    out["val_esr"] = (quality, "ratio")
    return out
