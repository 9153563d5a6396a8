"""Benchmark of statefx: plugin-buffer streaming, whole-file render and
training epochs for the five architectures.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stream_b32 --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh worker process.  ``setup_s`` is the median
over several set-ups: set-up-only workers plus the measuring worker itself,
each timed from the moment it is started until it reports ready.  With
``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed; with
``--trace 1`` the per-layer metrics from a run whose odd blocks are traced.
The last line of standard output is the result as one JSON object; the
whole record, with the environment fingerprint, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("stream_b32", "offline_render", "train_epoch")
SETUPS = 5              # set-ups per run behind the reported setup_s median
TIME_LIMIT_S = 170.0


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker(args, deadline: float, setup_only: bool) -> tuple[float, str]:
    """Run one worker; returns (set-up seconds, its stdout after 'ready')."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = clock()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - clock()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"perfbench: {args.workload} worker exceeded the time limit")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {args.workload} worker failed with exit code {proc.returncode}")
    first, _, rest = out.partition("\n")
    tag, _, ready = first.partition(" ")
    if tag != "ready":
        raise SystemExit(f"perfbench: unexpected worker output {first!r}")
    return float(ready) - started, rest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "statefx" / "__init__.py").is_file():
        print(f"perfbench: no statefx sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    deadline = clock() + TIME_LIMIT_S
    setups = [worker(args, deadline, setup_only=True)[0] for _ in range(SETUPS - 1)]
    setup_s, out = worker(args, deadline, setup_only=False)
    setups.append(setup_s)
    record = json.loads(out.strip().splitlines()[-1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else {}
    if args.trace == 0:
        record["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        record["setups_s"] = setups
        declared = bench.get("end_to_end", [])
    else:
        declared = bench.get("per_layer", [])
    better = {m["name"]: m["better"] for m in declared}
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"environment {json.dumps(record['fingerprint'], sort_keys=True)}")
    for name, m in sorted(record["metrics"].items()):
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']:8s} {better.get(name, '')}")
    print(f"operations attempted {record['attempted']}, failed {record['failed']}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
