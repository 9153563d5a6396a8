"""One workload run in its own process; started by run.py.

Prints ``ready <clock>`` once set-up is done (CLOCK_MONOTONIC, which
run.py compares with its own start time), then, unless ``--setup-only``,
one JSON line with the run's metrics, counts and environment fingerprint.
"""

from __future__ import annotations

import os

# pinned before numpy loads, so the numbers do not depend on the host's cores
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from statefx import scans, training  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return r.stdout.strip() if r.returncode == 0 else "unavailable (not a git checkout)"


def fingerprint() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "have_numba": scans.HAVE_NUMBA,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_describe": git_describe(),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, setup_only: bool = False,
            warmup: float = workloads.WARMUP_S, on_ready=None) -> dict | None:
    """Set up, warm up, run the timed blocks and check; returns the result."""
    tracer = spans.Tracer() if trace else None
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if tracer is not None:
            tracer.install()
        try:
            wl = workloads.WORKLOADS[name](seed, Path(tmp))
        finally:
            if tracer is not None:
                tracer.uninstall()
    if on_ready is not None:
        on_ready()
    if setup_only:
        return None

    workloads.run_blocks(wl, warmup, wl.round_blocks)
    wl.reset()
    if tracer is not None:
        tracer.phase = "timed"
    # two rounds at least, so that a traced run has traced and untraced
    # blocks of every architecture
    ops = workloads.run_blocks(wl, seconds, 2 * wl.round_blocks, tracer)
    quality = wl.check(ops)

    attempted = sum(op.steps for op in ops)
    failed = sum(op.steps for op in ops if not op.ok)
    result = {"attempted": attempted, "failed": failed, "correct": failed == 0}
    if tracer is None:
        found = workloads.end_to_end(ops, quality)
        found["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    else:
        def sums(traced):
            out = {}
            for arch in workloads.ARCHS:
                mine = [op for op in ops if op.arch == arch and op.traced == traced]
                out[arch] = (sum(op.seconds - op.shared for op in mine), sum(op.audio for op in mine))
            return out

        flops = {a: m.count_flops() for a, m in wl.models.items()}
        found = spans.layer_metrics(tracer.spans, workloads.ARCHS, sums(True), sums(False), flops,
                                    training.TrainConfig().batch_size)
        result["spans"] = tracer
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in found.items()}
    result["blocks"] = {a: workloads.block_rates(ops, a) for a in workloads.ARCHS}
    result["loads"] = {a: [op.seconds / op.audio for op in ops if op.arch == a and not op.traced]
                       for a in workloads.ARCHS}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    def ready():
        print(f"ready {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.setup_only,
                     on_ready=ready)
    if result is None:
        return 0
    tracer = result.pop("spans", None)
    if tracer is not None:
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.json")
    result["fingerprint"] = fingerprint()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
