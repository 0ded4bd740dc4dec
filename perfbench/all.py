"""Run every workload over several seeds and summarise the spread.

Usage (from the root of a checkout):

    python3 perfbench/all.py

For every workload in BENCHMARK.json, each of seeds 1-10 runs
``run.py --trace 0`` for ``run_seconds`` in a fresh process; then one
``--trace 1`` run on seed 1. Prints, per workload and end-to-end metric,
the median, the quartiles and the spread (interquartile distance over the
median, as ``statistics.quantiles(values, n=4)`` gives them) next to the
metric's bound from BENCHMARK.json, and writes everything to
``.bench_work/results/summary.json``.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} failed={runs[-1]['failed']}", flush=True)
        rows = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[name], "values": values}
            flag = "" if spread <= bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {name:26s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.4f}  bound {bounds[name]}{flag}")
        summary[workload] = {"end_to_end": rows, "all_correct": all(r["correct"] for r in runs)}
        traced = run_once(workload, SEEDS[0], seconds, 1)
        summary[workload]["per_layer"] = traced
        shares = {k[: -len(".share")]: v["value"] for k, v in traced["metrics"].items() if k.endswith(".share")}
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:4]
        print(f"  traced: correct={traced['correct']} top self-time shares " + ", ".join(f"{k} {v:.3f}" for k, v in top))
    out = ROOT / ".bench_work" / "results" / "summary.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
