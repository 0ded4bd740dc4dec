"""Frame-path benchmark for flyswarm: stereo pairs in, collision warnings out.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload renders its PGM inputs first, then runs fresh worker
processes (``worker.py``), one at a time, until ``--seconds`` have passed.
Worker i runs the real entry point ``flyswarm.cli.main`` with
``--seed 1000*N + i``. Every worker's outputs go through the independent
oracle in ``oracle.py``. With ``--trace 0`` the last stdout line is a JSON
object with the end-to-end metrics; with ``--trace 1`` each step runs
the command untraced and then through the traced runner (``traced.py``)
with the same seed, checks that both wrote the same warnings and files,
and reports the per-layer metrics. A copy of the result, with the core
count and the Python and numpy versions, is written under
``.bench_work/results/``.
"""

import os
import sys

# Pin the environment before numpy is imported here or in a worker.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("FLYSWARM_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NoReturn  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

EMPTY, PEDESTRIAN = "empty-road", "pedestrian-4m"
# Why each workload exists is in README.md. "frames" lists the preset of
# each stereo pair in order; "generations" is the CLI's --generations.
WORKLOADS = {
    "detect-pedestrian": {"command": "detect", "frames": [PEDESTRIAN], "generations": 200},
    "stream-alternating": {"command": "sequence", "frames": [EMPTY, PEDESTRIAN] * 30, "generations": 1},
    "stream-switch": {"command": "sequence", "frames": [EMPTY] * 80 + [PEDESTRIAN] * 80, "generations": 1},
}
MIN_WORKERS = 3
WORKER_TIMEOUT_S = 120
TOP_K = 250
DEPTH_TOLERANCE = 0.05
A1_MIN_HIT_FRAC = 0.70
TRACED_SPANS = (
    "imaging.read_pnm",
    "evolution.StereoFrame",
    "evolution.Population.initialize",
    "evolution.evaluate_population",
    "warning.flag_useless",
    "evolution.apply_sharing",
    "warning.global_warning",
    "evolution.select_and_refill",
    "cli.write_trace_csv",
    "cli.write_flies_csv",
    "cli.write_overlays",
    "frame",
    "generation",
)


def fail(message: str) -> NoReturn:
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def render_inputs(workload: dict, tmp: Path) -> tuple[str, str, list[tuple[Path, Path]]]:
    """Render both presets with ``flyswarm synth`` and lay out the frames.

    Returns the --left/--right arguments and the (left, right) files of
    every frame in order.
    """
    from flyswarm.cli import main as flyswarm_main

    pairs = {}
    for preset in sorted(set(workload["frames"])):
        out = tmp / "scenes" / preset
        code = flyswarm_main(["synth", "--preset", preset, "--out", str(out)])
        if code != 0:
            fail(f"flyswarm synth --preset {preset} exited with {code}")
        pairs[preset] = (out / "left.pgm", out / "right.pgm")
    if workload["command"] == "detect":
        left, right = pairs[workload["frames"][0]]
        return str(left), str(right), [(left, right)]
    frames_dir = tmp / "frames"
    frames_dir.mkdir()
    files = []
    for i, preset in enumerate(workload["frames"]):
        left, right = frames_dir / f"L_{i:04d}.pgm", frames_dir / f"R_{i:04d}.pgm"
        shutil.copyfile(pairs[preset][0], left)
        shutil.copyfile(pairs[preset][1], right)
        files.append((left, right))
    return str(frames_dir / "L_*.pgm"), str(frames_dir / "R_*.pgm"), files


def run_worker(mode: str, spec: dict, tmp: Path, tag: str) -> dict | None:
    """Run one fresh worker process to completion; None if it failed."""
    result = tmp / f"{tag}.result.json"
    request = tmp / f"{tag}.request.json"
    request.write_text(json.dumps({"root": str(ROOT), "mode": mode, "spec": spec, "result": str(result)}))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(request)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {tag} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.exists():
        print(f"perfbench: {tag} failed:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def depth_hit_frac(positions, scene, rig) -> float:
    """Share of the flies whose left-camera ray meets an obstacle that lie
    within 5 % of the depth of the nearest one. Flies whose ray meets only
    the road or nothing (above the horizon) are not counted; 0 if no fly's
    ray meets an obstacle."""
    x, y, z = positions[:, 0], positions[:, 1], positions[:, 2]
    cam_x = -0.5 * rig.baseline_m
    truth = np.full(len(positions), np.inf)
    for rect in scene.obstacles:
        cx, cy, cz = rect.center
        on_rect = (np.abs(cam_x + (x - cam_x) * cz / z - cx) <= rect.width_m / 2) & (
            np.abs(y * cz / z - cy) <= rect.height_m / 2
        )
        truth[on_rect & (cz < truth)] = cz
    seen = np.isfinite(truth)
    if not seen.any():
        return 0.0
    return float(np.mean(np.abs(z[seen] - truth[seen]) <= DEPTH_TOLERANCE * truth[seen]))


def a1_hit_frac(table, scene) -> float:
    """The A1 measure: share of the top-k flies by shared fitness within 5 %
    of the obstacle depth at their (x, y)."""
    from flyswarm.synth import ground_truth_depth

    best = np.argsort(-table[:, 4], kind="stable")[:TOP_K]
    hits = 0
    for x, y, z in table[best, :3]:
        truth = ground_truth_depth(scene, (x, y, z))
        hits += truth is not None and abs(z - truth) <= DEPTH_TOLERANCE * truth
    return hits / TOP_K


def reaction_frames(warnings, is_pedestrian) -> float:
    """Pedestrian-frame lines, counted from the first, up to and including
    the first one above the midpoint between the last 30 empty-frame lines
    (the first line itself on detect, which has none) and the last 30
    pedestrian lines. One more than the pedestrian lines if none crosses."""
    empty = warnings[~is_pedestrian][-oracle.TAIL :]
    pedestrian = warnings[is_pedestrian]
    low = empty.mean() if empty.size else pedestrian[0]
    midpoint = (low + pedestrian[-oracle.TAIL :].mean()) / 2
    crossed = np.flatnonzero(pedestrian > midpoint)
    return float(crossed[0] + 1 if crossed.size else pedestrian.size + 1)


def check_worker(checks, res, spec, files, workload, scene, rig, name) -> dict | None:
    """Run the oracle over one CLI worker's outputs; returns its samples."""
    if not checks.check(res is not None and res["code"] == 0, f"{name}: worker failed or exit code != 0"):
        return None
    if not str(Path(res["flyswarm_file"]).resolve()).startswith(str(ROOT / "src")):
        fail(f"worker imported flyswarm from {res['flyswarm_file']}, not from {ROOT / 'src'}")
    n_lines = len(workload["frames"]) * workload["generations"]
    warnings = oracle.parse_warnings(checks, res["lines"], n_lines)
    left, right = files[-1]
    table = oracle.check_flies(checks, Path(spec["out"]) / "flies.csv", left, right)
    oracle.check_final(checks, res["lines"], table)
    is_pedestrian = np.repeat([p == PEDESTRIAN for p in workload["frames"]], workload["generations"])
    if not is_pedestrian.all():
        oracle.check_tail_ratio(checks, warnings, is_pedestrian)
    a1 = None
    if is_pedestrian[-oracle.TAIL :].all():
        a1 = a1_hit_frac(table, scene)
        checks.check(a1 >= A1_MIN_HIT_FRAC, f"{name}: A1 top-{TOP_K} depth hit fraction {a1} < {A1_MIN_HIT_FRAC}")
    times = np.asarray(res["times"][:n_lines])
    return {
        "setup_s": res["times"][0],
        "intervals_ms": np.diff(times) * 1e3,
        "span_s": times[-1] - times[0],
        "run_wall_s": res["t_return"] - res["t_call"],
        "peak_rss_mb": res["maxrss_kb"] / 1024.0,
        "depth_hit_frac": depth_hit_frac(table[:, :3], scene, rig),
        "a1_hit_frac": a1,
        "reaction_frames": reaction_frames(warnings, is_pedestrian),
    }


def end_to_end(samples: list[dict]) -> tuple[dict, dict]:
    intervals = np.concatenate([s["intervals_ms"] for s in samples])
    metrics = {
        "setup_s": (float(np.median([s["setup_s"] for s in samples])), "s"),
        "warning_interval_ms.p50": (float(np.percentile(intervals, 50)), "ms"),
        "warning_interval_ms.p95": (float(np.percentile(intervals, 95)), "ms"),
        "warnings_per_s": (intervals.size / sum(s["span_s"] for s in samples), "1/s"),
        "run_wall_s": (float(np.median([s["run_wall_s"] for s in samples])), "s"),
        "peak_rss_mb": (float(np.median([s["peak_rss_mb"] for s in samples])), "MB"),
        "depth_hit_frac": (float(np.mean([s["depth_hit_frac"] for s in samples])), "frac"),
        "reaction_frames": (float(np.mean([s["reaction_frames"] for s in samples])), "frames"),
    }
    a1 = [s["a1_hit_frac"] for s in samples if s["a1_hit_frac"] is not None]
    info = {"workers": len(samples), "interval_samples": int(intervals.size), "a1_hit_frac": a1}
    return metrics, info


def per_layer(traces: list[dict], overhead_ms: float) -> dict:
    total_ms = sum(t["total_ms"] for t in traces)
    counts = {k: sum(t["counts"][k] for t in traces) for k in traces[0]["counts"]}
    metrics = {}
    for name in TRACED_SPANS:
        self_ms = [v for t in traces for v in t["self_ms"].get(name, [])]
        metrics[f"{name}.self_ms.p50"] = (float(np.median(self_ms)) if self_ms else 0.0, "ms")
        metrics[f"{name}.calls"] = (len(self_ms) / len(traces), "count")
        metrics[f"{name}.share"] = (sum(self_ms) / total_ms, "frac")
    metrics["imaging.read_pnm.bytes"] = (counts["read_bytes"] / len(traces), "bytes")
    metrics["evolution.StereoFrame.builds_per_frame"] = (counts["builds"] / counts["frames"], "frac")
    metrics["evolution.visible_frac"] = (counts["visible"] / counts["evaluated"], "frac")
    metrics["warning.penalized_frac"] = (counts["penalized"] / counts["flagged"], "frac")
    metrics["trace_overhead_ms"] = (overhead_ms, "ms")
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, tmp: Path):
    from flyswarm.config import rig_from_config
    from flyswarm.synth import preset_scene

    workload = WORKLOADS[name]
    left_arg, right_arg, files = render_inputs(workload, tmp)
    rig = rig_from_config({})
    scene = preset_scene(PEDESTRIAN, rig)
    checks = oracle.Checks()
    samples, traced_samples, traces = [], [], []
    start = time.perf_counter()
    i = 0
    while i < MIN_WORKERS or time.perf_counter() - start < seconds:
        spec = {
            "command": workload["command"],
            "left": left_arg,
            "right": right_arg,
            "out": str(tmp / f"out-{i}"),
            "seed": 1000 * seed + i,
            "generations": workload["generations"],
        }
        res = run_worker("cli", spec, tmp, f"w{i}")
        sample = check_worker(checks, res, spec, files, workload, scene, rig, f"worker {i}")
        if sample is not None:
            samples.append(sample)
        if trace:
            traced_spec = {**spec, "out": str(tmp / f"traced-{i}")}
            traced = run_worker("traced", traced_spec, tmp, f"t{i}")
            same = (
                res is not None
                and traced is not None
                and traced["lines"] == res["lines"]
                and all(
                    (Path(spec["out"]) / f).read_bytes() == (Path(traced_spec["out"]) / f).read_bytes()
                    for f in ("flies.csv", "warning_trace.csv")
                )
            )
            if checks.check(same, f"worker {i}: traced run differs from the untraced run"):
                traces.append(traced["trace"])
                times = np.asarray(traced["times"][: len(res["lines"]) - 1])
                traced_samples.append(np.diff(times) * 1e3)
            shutil.rmtree(traced_spec["out"], ignore_errors=True)
        shutil.rmtree(spec["out"], ignore_errors=True)
        i += 1
    if not samples or (trace and not traces):
        fail(f"no worker of {name} completed: {checks.messages}")
    metrics, info = end_to_end(samples)
    if trace:
        overhead = float(
            np.percentile(np.concatenate(traced_samples), 50) - metrics["warning_interval_ms.p50"][0]
        )
        metrics = per_layer(traces, overhead)
    return checks, metrics, info


def main() -> int:
    parser = argparse.ArgumentParser(description="flyswarm frame-path benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "flyswarm" / "cli.py").is_file():
        fail(f"no flyswarm sources under {ROOT / 'src'}; run from the root of a flyswarm checkout")
    sys.path.insert(0, str(ROOT / "src"))
    tmp = WORK / f"tmp-{args.workload}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        checks, metrics, info = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(), "numpy": np.__version__}
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {**result, "workload": args.workload, "seed": args.seed, "trace": args.trace}
    record.update(env=env, samples=info, failed_checks=checks.messages)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for message in checks.messages:
        print(f"perfbench: failed check: {message}", file=sys.stderr)
    print(f"# env {json.dumps(env)} samples {json.dumps(info)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
