"""The paper's experiments, stated once: the constants and measures that
acceptance gates A1-A4 (tests/test_acceptance.py) assert on and
scripts/reproduce_results.py prints; both load this file by its path.
A1-A3 run the CLI in process, a pair given as its ``--left``/``--right`` flags.

- A1: the share of the TOP_K flies of highest shared fitness after ``detect`` on
  the pedestrian pair that lie within DEPTH_TOLERANCE of the obstacle's depth.
- A2: a steady mean averages the warning over the last STEADY_TAIL generations
  of ``detect`` on a preset; the ratio is the pedestrian's over the empty
  road's, each averaged over seeds.
- A3: the first generation after the switch from SWITCH_FRAME empty-road frames
  to POST_SWITCH_FRAMES pedestrian ones (``sequence``) whose warning exceeds
  the midpoint of the seed's two steady means.
"""

import contextlib
import io
import time
from collections.abc import Collection, Iterable
from pathlib import Path

import numpy as np

from flyswarm.cli import main
from flyswarm.config import rig_from_config
from flyswarm.evolution import Swarm
from flyswarm.synth import Scene, ground_truth_depth, preset_scene

SEEDS = (1, 2, 3, 4, 5)
PRESETS = ("empty-road", "pedestrian-4m")
RIG = rig_from_config({})  # the rig of a CLI run without a config file
STEADY_GENERATIONS, STEADY_TAIL = 120, 30
SWITCH_FRAME, POST_SWITCH_FRAMES = 40, 60
CONVERGENCE_GENERATIONS, TOP_K, DEPTH_TOLERANCE = 200, 250, 0.05
WARMUP_GENERATIONS, TIMED_GENERATIONS = 3, 50


def flyswarm(*argv) -> None:
    """One CLI command in process, its per-generation lines discarded; a failure raises."""
    with contextlib.redirect_stdout(io.StringIO()):
        if main([str(a) for a in argv]) != 0:
            raise RuntimeError(f"flyswarm {argv[0]} failed")


def read_csv(path: Path) -> np.ndarray:
    """The rows of a CLI output file as floats, without the header."""
    rows = path.read_text().strip().splitlines()[1:]
    return np.array([[float(v) for v in row.split(",")] for row in rows])


def render(preset: str, out_dir: Path) -> list:
    flyswarm("synth", "--preset", preset, "--out", out_dir)
    return ["--left", out_dir / "left.pgm", "--right", out_dir / "right.pgm"]


def warning_trace(command: str, inputs: list, out_dir: Path, seed: int, generations: int) -> np.ndarray:
    """The warning of each generation of ``detect`` or ``sequence`` on the inputs."""
    flyswarm(command, *inputs, "--out", out_dir, "--seed", seed, "--generations", generations)
    return read_csv(out_dir / "warning_trace.csv")[:, 1]


def steady_trace(inputs: list, out_dir: Path, seed: int, generations: int = STEADY_GENERATIONS) -> np.ndarray:
    return warning_trace("detect", inputs, out_dir, seed, generations)


def steady_mean(trace: np.ndarray) -> float:
    return float(np.mean(trace[-STEADY_TAIL:]))


def discrimination_ratio(means: Collection[dict[str, float]]) -> tuple[float, float, float]:
    """The seeds' ``{preset: steady mean}`` averaged per preset, pedestrian first, and the ratio of the two."""
    pedestrian, empty = (float(np.mean([m[p] for m in means])) for p in ("pedestrian-4m", "empty-road"))
    return pedestrian, empty, pedestrian / empty


def midpoint(means: dict[str, float]) -> float:
    """A3's threshold from one seed's ``{preset: steady mean}``."""
    return (means["pedestrian-4m"] + means["empty-road"]) / 2


def switch_frames(pairs: dict[str, list], out_dir: Path) -> list:
    """A3's frames, as links to the presets' images named in order."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(SWITCH_FRAME + POST_SWITCH_FRAMES):
        for side, image in zip("LR", pairs["empty-road" if i < SWITCH_FRAME else "pedestrian-4m"][1::2]):
            link = out_dir / f"{side}_{i:04d}.pgm"
            link.unlink(missing_ok=True)
            link.symlink_to(Path(image).resolve())
    return ["--left", out_dir / "L_*.pgm", "--right", out_dir / "R_*.pgm"]


def first_crossing(post_switch: Iterable[float], threshold: float) -> int | None:
    """The first generation after the switch, from 1, whose warning exceeds ``threshold``; None if none does."""
    return next((g for g, warning in enumerate(post_switch, start=1) if warning > threshold), None)


def reaction_crossing(frames: list, out_dir: Path, seed: int, means: dict[str, float]) -> int | None:
    """A3's crossing of ``sequence`` over ``switch_frames``, given the seed's ``{preset: steady mean}``."""
    trace = warning_trace("sequence", frames, out_dir, seed, 1)
    if trace.size != SWITCH_FRAME + POST_SWITCH_FRAMES:
        raise RuntimeError(f"sequence ran {trace.size} generations over the switch frames")
    return first_crossing(trace[SWITCH_FRAME:], midpoint(means))


def convergence(out_dir: Path, seed: int) -> tuple[np.ndarray, float]:
    """A1's run: ``flies.csv`` after rendering the pedestrian pair and detecting on it, and the seconds both took."""
    t0 = time.perf_counter()
    warning_trace("detect", render("pedestrian-4m", out_dir / "pair"), out_dir, seed, CONVERGENCE_GENERATIONS)
    return read_csv(out_dir / "flies.csv"), time.perf_counter() - t0


def depth_hit_fraction(flies: np.ndarray, scene: Scene = preset_scene("pedestrian-4m", RIG), k: int = TOP_K) -> float:
    """A1's share of hits among the ``k`` rows of ``flies.csv`` of highest shared fitness, ties to the lower row."""
    hits = 0
    for x, y, z in flies[np.argsort(-flies[:, 4], kind="stable")[:k], :3]:
        depth = ground_truth_depth(scene, (x, y, z))
        hits += depth is not None and abs(z - depth) <= DEPTH_TOLERANCE * depth
    return hits / k


def generation_latency(rig, pair, params) -> float:
    """A4: mean milliseconds per ``Swarm.step`` on a pair of images, timed after WARMUP_GENERATIONS."""
    swarm = Swarm(rig, params)
    swarm.feed(*pair)
    for _ in range(WARMUP_GENERATIONS):
        swarm.step()
    t0 = time.perf_counter()
    for _ in range(TIMED_GENERATIONS):
        swarm.step()
    return (time.perf_counter() - t0) * 1e3 / TIMED_GENERATIONS
