#!/usr/bin/env python3
"""End-to-end experiment: render both preset scenes, evolve the swarm on
each, compare their global warnings, measure the reaction to an
empty-road -> pedestrian switch, and time generations.

Usage:
    python3 scripts/reproduce_results.py --out results --seed 1
"""

import argparse
import time
from pathlib import Path

import numpy as np

from flyswarm.cli import main as flyswarm_main
from flyswarm.config import rig_from_config
from flyswarm.evolution import EvolutionParams, Swarm
from flyswarm.synth import preset_scene, render_stereo_pair


def swarm_on(pair, rig, params) -> Swarm:
    swarm = Swarm(rig, params)
    swarm.feed(*pair)
    return swarm


def run(out_dir: Path, seed: int, generations: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    rig = rig_from_config({})
    params = EvolutionParams(rng_seed=seed)

    print("== rendering presets ==")
    for preset in ("empty-road", "pedestrian-4m"):
        code = flyswarm_main(["synth", "--preset", preset, "--out", str(out_dir / preset)])
        assert code == 0
        print(f"rendered {preset} -> {out_dir / preset}")

    pairs = {name: render_stereo_pair(preset_scene(name, rig), rig) for name in ("empty-road", "pedestrian-4m")}

    print("\n== steady-state global warnings ==")
    means = {}
    for name, pair in pairs.items():
        swarm = swarm_on(pair, rig, params)
        trace = np.array([swarm.step().global_mean for _ in range(generations)])
        means[name] = trace[-30:].mean()
        np.savetxt(out_dir / f"trace_{name}.csv", np.column_stack([np.arange(1, trace.size + 1), trace]),
                   delimiter=",", header="generation,global_warning", comments="")
        print(f"{name}: steady global warning {means[name]:.3f}")
    ratio = means["pedestrian-4m"] / means["empty-road"]
    print(f"discrimination ratio: {ratio:.1f}")

    print("\n== reaction to a scene switch ==")
    swarm = swarm_on(pairs["empty-road"], rig, params)
    for _ in range(40):
        swarm.step()
    swarm.feed(*pairs["pedestrian-4m"])
    midpoint = (means["pedestrian-4m"] + means["empty-road"]) / 2
    reaction = None
    for g in range(1, 61):
        w = swarm.step().global_mean
        if reaction is None and w > midpoint:
            reaction = g
    print(f"crossed the presets' midpoint {midpoint:.1f} after {reaction} generations")

    print("\n== per-generation latency (population 5000, 640x480) ==")
    swarm = swarm_on(pairs["pedestrian-4m"], rig, params)
    for _ in range(3):
        swarm.step()
    t0 = time.perf_counter()
    n = 50
    for _ in range(n):
        swarm.step()
    print(f"mean {1e3 * (time.perf_counter() - t0) / n:.2f} ms/generation")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results", type=Path)
    ap.add_argument("--seed", default=1, type=int)
    ap.add_argument("--generations", default=120, type=int)
    args = ap.parse_args()
    run(args.out, args.seed, args.generations)
