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
from flyswarm.evolution import EvolutionParams, Population, StereoFrame, step_generation
from flyswarm.synth import preset_scene, render_stereo_pair
from flyswarm.warning import WarningParams


def steady_state(frame, rig, params, wp, seed, generations=120):
    rng = np.random.default_rng(seed)
    pop = Population.initialize(rig, params, rng)
    trace = [step_generation(pop, frame, rig, params, rng, wp).global_mean for _ in range(generations)]
    return np.array(trace), pop


def run(out_dir: Path, seed: int, generations: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    rig = rig_from_config({})
    params = EvolutionParams(rng_seed=seed)
    wp = WarningParams()

    print("== rendering presets ==")
    for preset in ("empty-road", "pedestrian-4m"):
        code = flyswarm_main(["synth", "--preset", preset, "--out", str(out_dir / preset)])
        assert code == 0
        print(f"rendered {preset} -> {out_dir / preset}")

    frames = {
        name: StereoFrame(*render_stereo_pair(preset_scene(name, rig), rig))
        for name in ("empty-road", "pedestrian-4m")
    }

    print("\n== steady-state global warnings ==")
    means = {}
    for name, frame in frames.items():
        trace, pop = steady_state(frame, rig, params, wp, seed, generations)
        means[name] = trace[-30:].mean()
        np.savetxt(out_dir / f"trace_{name}.csv", np.column_stack([np.arange(1, trace.size + 1), trace]),
                   delimiter=",", header="generation,global_warning", comments="")
        print(f"{name}: steady global warning {means[name]:.3f}")
    ratio = means["pedestrian-4m"] / means["empty-road"]
    print(f"discrimination ratio: {ratio:.1f}")

    print("\n== reaction to a scene switch ==")
    rng = np.random.default_rng(seed)
    pop = Population.initialize(rig, params, rng)
    for _ in range(40):
        step_generation(pop, frames["empty-road"], rig, params, rng, wp)
    midpoint = (means["pedestrian-4m"] + means["empty-road"]) / 2
    reaction = None
    for g in range(1, 61):
        w = step_generation(pop, frames["pedestrian-4m"], rig, params, rng, wp).global_mean
        if reaction is None and w > midpoint:
            reaction = g
    print(f"crossed the presets' midpoint {midpoint:.1f} after {reaction} generations")

    print("\n== per-generation latency (population 5000, 640x480) ==")
    rng = np.random.default_rng(seed)
    pop = Population.initialize(rig, params, rng)
    for _ in range(3):
        step_generation(pop, frames["pedestrian-4m"], rig, params, rng, wp)
    t0 = time.perf_counter()
    n = 50
    for _ in range(n):
        step_generation(pop, frames["pedestrian-4m"], rig, params, rng, wp)
    print(f"mean {1e3 * (time.perf_counter() - t0) / n:.2f} ms/generation")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results", type=Path)
    ap.add_argument("--seed", default=1, type=int)
    ap.add_argument("--generations", default=120, type=int)
    args = ap.parse_args()
    run(args.out, args.seed, args.generations)
