#!/usr/bin/env python3
"""End-to-end experiment on one seed: render both preset scenes, evolve the
swarm on each, compare their global warnings, measure the reaction to an
empty-road -> pedestrian switch, check convergence on the pedestrian's
depth, and time generations, each by the measure of scripts/experiments.py
that its acceptance gate asserts on.

Usage:
    python3 scripts/reproduce_results.py --out results --seed 1
"""

import argparse
import importlib.util
from pathlib import Path

from flyswarm.evolution import EvolutionParams
from flyswarm.imaging import read_pnm

_spec = importlib.util.spec_from_file_location("experiments", Path(__file__).resolve().with_name("experiments.py"))
ex = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ex)


def run(out_dir: Path, seed: int, generations: int = ex.STEADY_GENERATIONS) -> None:
    print("== rendering presets ==")
    pairs = {preset: ex.render(preset, out_dir / preset) for preset in ex.PRESETS}
    for preset in pairs:
        print(f"rendered {preset} -> {out_dir / preset}")

    print("\n== steady-state global warnings ==")
    means = {p: ex.steady_mean(ex.steady_trace(pair, out_dir / "steady" / p, seed, generations)) for p, pair in pairs.items()}
    for preset, mean in means.items():
        print(f"{preset}: steady global warning {mean:.3f}")
    print(f"discrimination ratio: {ex.discrimination_ratio([means])[2]:.1f}")

    print("\n== reaction to a scene switch ==")
    reaction = ex.reaction_crossing(ex.switch_frames(pairs, out_dir / "switch" / "frames"), out_dir / "switch", seed, means)
    print(f"crossed the presets' midpoint {ex.midpoint(means):.1f} after {reaction} generations")

    print(f"\n== convergence on the pedestrian's depth after {ex.CONVERGENCE_GENERATIONS} generations ==")
    flies, _ = ex.convergence(out_dir / "convergence", seed)
    print(f"{ex.depth_hit_fraction(flies):.1%} of the top {ex.TOP_K} flies within {ex.DEPTH_TOLERANCE:.0%} depth error")

    print("\n== per-generation latency (population 5000, 640x480) ==")
    pedestrian = [read_pnm(image) for image in pairs["pedestrian-4m"][1::2]]
    print(f"mean {ex.generation_latency(ex.RIG, pedestrian, EvolutionParams(rng_seed=seed)):.2f} ms/generation")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results", type=Path)
    ap.add_argument("--seed", default=1, type=int)
    ap.add_argument("--generations", default=ex.STEADY_GENERATIONS, type=int)
    args = ap.parse_args()
    run(args.out, args.seed, args.generations)
