"""Span tracing for the traced run, and the per-layer metrics drawn from it.

The tracer wraps public functions of the statefx layers by replacing module
and class attributes from outside the package.  Each call records one span:
name, architecture tag, phase, start, end, parent span and a work count.
Spans stay in memory until the run ends.  ``uninstall`` puts every original
attribute back, so untraced blocks run the package exactly as shipped.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

import numpy as np


def _lanes(i):
    """B x L of positional argument i (a (B, L, ...) array)."""
    return lambda args: int(args[i].shape[0] * args[i].shape[1])


def _batch(i):
    """Lanes of positional argument i (a (B, L) or (L,) segment)."""
    return lambda args: int(args[i].shape[0]) if np.ndim(args[i]) == 2 else 1


# (layer, module, class or None, attributes).  cells is left out: it is the
# per-sample reference and runs only in the untimed checks.
TARGETS = (
    ("data", "statefx.data", None, ("generate_input_signal", "apply_oracle", "build_dataset",
                                    "save_wav", "load_wav", "save_dataset", "load_dataset",
                                    "make_split_compositions", "resolve_composition")),
    ("model", "statefx.model", "Model", ("init", "forward_segment")),
    ("model", "statefx.model", "Checkpoint", ("save", "load")),
    ("scans", "statefx.scans", None, ("lstm_forward", "diag_scan", "tv_scan",
                                      "lstm_backward", "diag_scan_backward", "tv_scan_backward")),
    ("training", "statefx.training", None, ("train", "backward_segment", "clip_grad_norm",
                                            "adam_update", "evaluate_streams")),
    ("metrics", "statefx.metrics", None, ("compute_report",)),
    ("stats", "statefx.stats", None, ("compare_models",)),
)

COUNTS = {
    "scans.lstm_forward": _lanes(1),
    "scans.diag_scan": _lanes(2),
    "scans.tv_scan": _lanes(2),
    "scans.lstm_backward": _lanes(1),
    "scans.diag_scan_backward": _lanes(0),
    "scans.tv_scan_backward": _lanes(0),
    "training.backward_segment": _batch(2),
}

SCANS_BACKWARD = ("scans.lstm_backward", "scans.diag_scan_backward", "scans.tv_scan_backward")
SCANS_FORWARD = ("scans.lstm_forward", "scans.diag_scan", "scans.tv_scan")

# span fields
NAME, TAG, PHASE, START, END, PARENT, COUNT = range(7)


def targets():
    """Yield (owner, attribute, span name) for every traced function."""
    for layer, modname, clsname, attrs in TARGETS:
        owner = importlib.import_module(modname)
        prefix = layer
        if clsname is not None:
            owner = getattr(owner, clsname)
            prefix = f"{layer}.{clsname}"
        for attr in attrs:
            yield owner, attr, f"{prefix}.{attr}"


class Tracer:
    """Records spans while installed; ``tag`` and ``phase`` label new spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.tag: str | None = None
        self.phase = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in targets():
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, self._wrap(raw, name))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _wrap(self, raw, name):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(raw.__func__, name))
        count = COUNTS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(raw)
        def traced(*args, **kwargs):
            rec = [name, self.tag, self.phase, 0.0, 0.0, stack[-1] if stack else -1,
                   count(args) if count else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                return raw(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "tag", "phase", "start", "end", "parent", "count"],
                       "spans": self.spans}, fh)


def self_times(spans) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_metrics(spans, archs, traced, untraced, flops, batch_size) -> dict:
    """Per-layer metrics of one traced run, as {name: (value, unit)}.

    ``traced``/``untraced`` map an architecture to (op seconds, audio
    seconds) summed over the timed blocks run with and without the tracer;
    the op seconds leave out time charged from work shared by all
    architectures, whose spans carry no tag.
    Layer times are seconds per second of audio the architecture processed
    in traced blocks; set-up layer times are plain seconds.  ``flops`` maps
    an architecture to its FlopsBreakdown.
    """
    selfs = self_times(spans)
    timed = [(s, st) for s, st in zip(spans, selfs) if s[PHASE] == "timed"]
    setup = [(s, st) for s, st in zip(spans, selfs) if s[PHASE] == "setup"]
    fwd = "model.Model.forward_segment"
    bwd = "training.backward_segment"

    def pick(rows, names, arch=None, under=None):
        return [(s, st) for s, st in rows if s[NAME] in names and (arch is None or s[TAG] == arch)
                and (under is None or (s[PARENT] >= 0 and spans[s[PARENT]][NAME] == under))]

    def wall(rows):
        return sum(s[END] - s[START] for s, _ in rows)

    def own(rows):
        return sum(st for _, st in rows)

    def work(rows):
        return sum(s[COUNT] for s, _ in rows)

    out: dict[str, tuple[float, str]] = {}
    for arch in archs:
        op_s, audio = traced[arch]

        def per(t):  # seconds per audio second
            return t / audio if audio else 0.0

        fwd_rows = pick(timed, (fwd,), arch)
        scan_f = pick(timed, SCANS_FORWARD, arch)
        steps = pick(timed, (bwd,), arch)
        epochs = len(pick(timed, ("training.train",), arch))
        out[f"model.forward_s.{arch}"] = (per(wall(fwd_rows)), "s/s")
        out[f"model.self_s.{arch}"] = (per(own(fwd_rows)), "s/s")
        out[f"model.calls.{arch}"] = (per(len(fwd_rows)), "1/s")
        out[f"scans.forward_s.{arch}"] = (per(wall(scan_f)), "s/s")
        out[f"scans.backward_s.{arch}"] = (per(wall(pick(timed, SCANS_BACKWARD, arch))), "s/s")
        out[f"scans.lane_steps.{arch}"] = (per(work(pick(timed, SCANS_FORWARD + SCANS_BACKWARD, arch))), "1/s")
        out[f"training.backward_segment_s.{arch}"] = (per(wall(steps)), "s/s")
        out[f"training.backward_self_s.{arch}"] = (per(own(steps)), "s/s")
        out[f"training.optimizer_s.{arch}"] = (
            per(wall(pick(timed, ("training.clip_grad_norm", "training.adam_update"), arch))), "s/s")
        out[f"training.validation_s.{arch}"] = (per(wall(pick(timed, ("training.evaluate_streams",), arch))), "s/s")
        out[f"training.steps.{arch}"] = (len(steps) / epochs if epochs else 0.0, "count")
        out[f"training.lane_fill.{arch}"] = (work(steps) / len(steps) / batch_size if steps else 0.0, "ratio")
        # computed operation counts over measured time: the recurrent layer
        # against every forward scan, the dense stages against the
        # forward_segment time left once its scans are taken out
        fl = flops[arch]
        scan_t = wall(scan_f)
        out[f"recurrent_layer.mflops_per_s.{arch}"] = (
            fl.recurrent_layer * work(scan_f) / scan_t / 1e6 if scan_t else 0.0, "MFLOP/s")
        dense = fl.projection + fl.post_fc + fl.conditioning_block + fl.output_layer
        fwd_t = own(fwd_rows)
        fwd_n = work(pick(timed, SCANS_FORWARD, arch, under=fwd))
        out[f"dense.mflops_per_s.{arch}"] = (dense * fwd_n / fwd_t / 1e6 if fwd_t else 0.0, "MFLOP/s")
        arch_self = sum(st for s, st in timed if s[TAG] == arch)
        out[f"trace.coverage_pct.{arch}"] = (100.0 * arch_self / op_s if op_s else 0.0, "%")

    all_audio = sum(a for _, a in traced.values())
    out["metrics.report_s"] = (wall(pick(timed, ("metrics.compute_report",))) / all_audio, "s/s")
    out["stats.compare_s"] = (wall(pick(timed, ("stats.compare_models",))) / all_audio, "s/s")
    out["data.build_s"] = (own(pick(setup, ("data.generate_input_signal", "data.apply_oracle",
                                             "data.build_dataset"))), "s")
    out["data.io_s"] = (own(pick(setup, ("data.save_wav", "data.load_wav", "data.save_dataset",
                                          "data.load_dataset"))), "s")
    out["data.split_s"] = (own(pick(setup, ("data.make_split_compositions",
                                             "data.resolve_composition"))), "s")
    out["model.checkpoint_io_s"] = (wall(pick(setup, ("model.Checkpoint.save", "model.Checkpoint.load"))), "s")

    def time_per_audio(d):
        return sum(t / a for t, a in d.values() if a)

    tr, un = time_per_audio(traced), time_per_audio(untraced)
    out["trace.overhead_pct"] = (100.0 * (tr / un - 1.0) if un else 0.0, "%")
    return out
