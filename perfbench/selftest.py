"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import worker  # first: pins BLAS threads and puts src/ on the path
import run
import spans
import workloads
from statefx import model

ROOT = worker.ROOT
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _inputs(wl) -> list:
    if isinstance(wl, workloads.StreamB32):
        return [wl.x, wl.knobs, wl.target]
    if isinstance(wl, workloads.OfflineRender):
        return [a for r in wl.recs for a in (r.input, r.output, r.params)]
    return [a for s in wl.split.train + wl.split.val for a in (s.x, s.y, s.p)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    make = workloads.WORKLOADS[name]
    dirs = [tmp_path / d for d in "abc"]
    for d in dirs:
        d.mkdir()
    a, b, c = make(3, dirs[0]), make(3, dirs[1]), make(4, dirs[2])
    for x, y in zip(_inputs(a), _inputs(b)):
        np.testing.assert_array_equal(x, y)
    assert any(x.shape != z.shape or not np.array_equal(x, z) for x, z in zip(_inputs(a), _inputs(c)))


def _corrupt_nth(monkeypatch, arch: str, n: int, change):
    """Wrap Model.forward_segment so that the n-th call for ``arch`` returns
    a changed output."""
    real = model.Model.forward_segment
    calls = {"n": 0}

    def corrupted(self, state, x, p=None, chunk=65536):
        y, st = real(self, state, x, p, chunk)
        if self.config.architecture == arch:
            calls["n"] += 1
            if calls["n"] == n:
                y = change(y.copy())
        return y, st

    monkeypatch.setattr(model.Model, "forward_segment", corrupted)


@pytest.mark.parametrize("change", [lambda y: y + 1e-6, lambda y: np.full_like(y, np.nan)],
                         ids=["offset", "nan"])
def test_corrupted_buffer_counts_as_failed(change, tmp_path, monkeypatch):
    wl = workloads.StreamB32(0, tmp_path)
    _corrupt_nth(monkeypatch, "lru", 40, change)
    ops = workloads.run_blocks(wl, 0.0, 1)
    wl.check(ops)
    bad = [i for i, op in enumerate(ops) if not op.ok]
    assert len(bad) == 1 and ops[bad[0]].arch == "lru"


def test_corrupted_file_counts_as_failed(tmp_path, monkeypatch):
    wl = workloads.OfflineRender(0, tmp_path)
    _corrupt_nth(monkeypatch, "s4d", 1, lambda y: y + np.where(np.arange(y.size) == 5, 1e-6, 0.0))
    ops = workloads.run_blocks(wl, 0.0, 2 * wl.round_blocks)
    wl.check(ops)
    assert [(op.arch, op.block) for op in ops if not op.ok] == [("s4d", 3)]


def test_tracer_restores_every_patched_attribute():
    owners = {id(o): o for o, _, _ in spans.targets()}
    before = {k: dict(vars(o)) for k, o in owners.items()}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for owner, attr, _ in spans.targets():
            assert owner.__dict__[attr] is not before[id(owner)][attr]
        m = model.Model.init(model.ModelConfig("lru", cond_dim=2))
        tracer.tag = "lru"
        m.forward_segment(m.init_state(1), np.zeros(40), np.full(2, 0.5))
    finally:
        tracer.uninstall()
    for k, o in owners.items():
        after = dict(vars(o))
        assert after.keys() == before[k].keys()
        assert all(after[name] is before[k][name] for name in after)
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["model.Model.init", "model.Model.forward_segment", "scans.diag_scan"]
    assert tracer.spans[2][spans.PARENT] == 1 and tracer.spans[2][spans.COUNT] == 40
    own = spans.self_times(tracer.spans)
    assert own[1] == pytest.approx(tracer.spans[1][spans.END] - tracer.spans[1][spans.START]
                                   - (tracer.spans[2][spans.END] - tracer.spans[2][spans.START]))


def test_workload_names_match_benchmark_json():
    declared = [w["name"] for w in BENCH["workloads"]]
    assert declared == list(run.WORKLOADS) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_metric_names_match_benchmark_json(name):
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    plain = worker.measure(name, 1, 0.0, trace=False, warmup=0.0)
    traced = worker.measure(name, 1, 0.0, trace=True, warmup=0.0)
    assert set(plain["metrics"]) | {"setup_s"} == e2e        # run.py adds setup_s
    assert set(traced["metrics"]) == per_layer
    assert plain["failed"] == 0 and traced["failed"] == 0
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    for found in (plain["metrics"], traced["metrics"]):
        assert all(m["unit"] == units[k] for k, m in found.items())


def test_layer_map_names_declared():
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    layer_map = json.loads((worker.HERE / "layer_map.json").read_text())

    def expand(name):
        return [name.replace("<arch>", a) for a in model.ARCHITECTURES] if "<arch>" in name else [name]

    for entry in layer_map["layers"]:
        assert all(n in per_layer for p in entry["per_layer"] for n in expand(p))
        assert all(n in e2e for p in entry["moves"] for n in expand(p))
        assert set(entry["on"] + entry["unchanged_on"]) <= set(run.WORKLOADS)


def test_command_prints_result_last():
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stream_b32", "--seed", "2",
                        "--seconds", "0.5", "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                       timeout=180)
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(worker.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stream_b32", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                       timeout=180)
    assert r.returncode != 0 and r.stdout == ""

