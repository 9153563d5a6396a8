"""Run every workload over several seeds and write one summary file, so the
performance trajectory can be read from the repository.  From the root of a
checkout:

    python3 perfbench/trajectory.py --seeds 10 --out perfbench/trajectory/BENCH_<name>.json

Each end-to-end metric gets its median, quartiles and spread (quartile
distance over median) across seeds, as run.py reports them with --trace 0;
one traced run per workload adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    r = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, text=True, timeout=600)
    if r.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{r.stderr}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    declared = {m["name"]: m for m in bench["end_to_end"]}
    summary: dict = {"seconds": args.seconds, "workloads": {}}
    for w in (w["name"] for w in bench["workloads"]):
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        results = [run(w, s, args.seconds, 0) for s in seeds]
        traced = run(w, args.first_seed, args.seconds, 1)
        e2e = {}
        for name, m in declared.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            e2e[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                         "unit": m["unit"], "better": m["better"], "bound": m["bound"], "values": values}
        summary["workloads"][w] = {
            "seeds": list(seeds),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in sorted(traced["metrics"].items())},
            "per_layer_failed": traced["failed"],
        }
        record = json.loads((HERE / "out" / f"{w}-seed{args.first_seed}-trace0.json").read_text())
        summary["fingerprint"] = record["fingerprint"]
        print(f"{w}: " + "  ".join(f"{k} {v['median']:.4g} ({v['spread']:.3f})" for k, v in e2e.items()),
              flush=True)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
