"""Command-line pipeline: synth, detect, sequence.

detect/sequence print one `generation,global_warning` CSV line per
generation to stdout, then the final global warning on its own line.
Every generation runs through ``evolution.step_generation``; ``sequence``
decodes each pair only when the loop reaches it. All outputs are
deterministic for a fixed seed. Rejected input (flag and config values,
PNM bytes, sizes too large to allocate) ends in exit code 2 and a
one-line message on stderr.
"""

from __future__ import annotations

import argparse
import glob
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import evolution
from .config import (
    ConfigError,
    evolution_params_from_config,
    get_int,
    load_config,
    rig_from_config,
    scene_from_config,
    warning_params_from_config,
)
from .evolution import EvolutionParams, Population, StereoFrame
from .imaging import Image, read_pnm, write_pnm
from .stereo_geometry import StereoRig, project_many
from .synth import PRESET_NAMES, Scene, preset_scene, render_stereo_pair
from .warning import WarningParams, top_k

MARKER_RGB = (255, 0, 0)


@dataclass
class RunConfig:
    rig: StereoRig
    evo: EvolutionParams
    warn: WarningParams
    generations: int
    out_dir: Path
    left: str | None = None
    right: str | None = None
    preset: str | None = None
    scene: Scene | None = None
    overlay_top_k: int = 250
    emit_flies: bool = True
    emit_overlays: bool = True

    def __post_init__(self):
        if self.generations < 1:
            raise ConfigError(f"generations must be >= 1, got {self.generations}")


def _build_run_config(args, default_generations: int) -> RunConfig:
    cfg = load_config(args.config) if args.config else {}
    rig = rig_from_config(cfg)
    evo = evolution_params_from_config(cfg)
    if getattr(args, "population", None) is not None:
        evo = EvolutionParams(**{**evo.__dict__, "population_size": args.population})
    if getattr(args, "seed", None) is not None:
        evo = EvolutionParams(**{**evo.__dict__, "rng_seed": args.seed})
    generations = (
        args.generations
        if args.generations is not None
        else get_int(cfg, "generations", default_generations)
    )
    return RunConfig(
        rig=rig,
        evo=evo,
        warn=warning_params_from_config(cfg),
        generations=generations,
        out_dir=Path(args.out),
        left=getattr(args, "left", None),
        right=getattr(args, "right", None),
        preset=getattr(args, "preset", None),
        scene=scene_from_config(cfg),
        overlay_top_k=get_int(cfg, "overlay_top_k", 250),
        emit_flies=bool(get_int(cfg, "emit_flies", 1)),
        emit_overlays=bool(get_int(cfg, "emit_overlays", 1)),
    )


def _resolve_scene(rc: RunConfig) -> Scene:
    if rc.preset:
        return preset_scene(rc.preset, rc.rig)
    if rc.scene is not None:
        return rc.scene
    raise ConfigError("no scene: pass --preset or a config file with scene keys")


def _check_rig_match(image: Image, rig: StereoRig, name: str) -> Image:
    if (image.width, image.height) != (rig.intrinsics.image_width, rig.intrinsics.image_height):
        raise ConfigError(
            f"{name} image is {image.width}x{image.height} but the rig expects "
            f"{rig.intrinsics.image_width}x{rig.intrinsics.image_height}"
        )
    return image


def _load_pair(rc: RunConfig) -> tuple[Image, Image]:
    if rc.left and rc.right:
        left, right = read_pnm(rc.left), read_pnm(rc.right)
    elif rc.left or rc.right:
        raise ConfigError("--left and --right must be given together")
    else:
        left, right = render_stereo_pair(_resolve_scene(rc), rc.rig)
    return _check_rig_match(left, rc.rig, "left"), _check_rig_match(right, rc.rig, "right")


def _read_pairs(rig: StereoRig, lefts: list[str], rights: list[str]) -> Iterator[tuple[Image, Image]]:
    """Decode and rig-check each pair only when the run loop asks for it."""
    for lp, rp in zip(lefts, rights):
        yield _check_rig_match(read_pnm(lp), rig, lp), _check_rig_match(read_pnm(rp), rig, rp)


def _expand_pattern(pattern: str) -> list[str]:
    if any(ch in pattern for ch in "*?["):
        paths = sorted(glob.glob(pattern))
        if not paths:
            raise ConfigError(f"pattern {pattern!r} matches no files")
        return paths
    return [pattern]


def _format_float(v: float) -> str:
    return repr(float(v))


def write_flies_csv(path: Path, pop: Population, per_fly_warning: np.ndarray) -> None:
    # tolist() yields Python floats, whose repr is the shortest round trip
    rows = zip(
        pop.positions.tolist(),
        pop.raw_fitness.tolist(),
        pop.shared_fitness.tolist(),
        pop.penalized.tolist(),
        per_fly_warning.tolist(),
    )
    lines = ["x,y,z,raw_fitness,shared_fitness,penalized,warning"]
    lines += [f"{x!r},{y!r},{z!r},{raw!r},{shared!r},{int(pen)},{w!r}" for (x, y, z), raw, shared, pen, w in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_trace_csv(path: Path, rows: list[tuple[int, float]]) -> None:
    lines = ["generation,global_warning"]
    lines += [f"{g},{_format_float(w)}" for g, w in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _draw_markers(base: Image, pixels: list[tuple[int, int]]) -> Image:
    """3x3 cross (centre plus 4 neighbours) per marked projection."""
    if base.channels == 1:
        rgb = np.repeat(base.samples[:, :, None], 3, axis=2).copy()
    else:
        rgb = base.samples.copy()
    h, w = base.height, base.width
    for (u, v) in pixels:
        for du, dv in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
            uu, vv = u + du, v + dv
            if 0 <= uu < w and 0 <= vv < h:
                rgb[vv, uu] = MARKER_RGB
    return Image.from_array(rgb)


def write_overlays(rc: RunConfig, left: Image, right: Image, pop: Population) -> None:
    k = min(rc.overlay_top_k, len(pop))
    best = top_k(pop, k)
    u_left, u_right, v = project_many(rc.rig, pop.positions[best])
    left_px = [(int(np.rint(u)), int(np.rint(r))) for u, r in zip(u_left, v)]
    right_px = [(int(np.rint(u)), int(np.rint(r))) for u, r in zip(u_right, v)]
    write_pnm(rc.out_dir / "overlay_left.ppm", _draw_markers(left, left_px))
    write_pnm(rc.out_dir / "overlay_right.ppm", _draw_markers(right, right_px))


def cmd_synth(rc: RunConfig) -> int:
    scene = _resolve_scene(rc)
    left, right = render_stereo_pair(scene, rc.rig)
    rc.out_dir.mkdir(parents=True, exist_ok=True)
    write_pnm(rc.out_dir / "left.pgm", left)
    write_pnm(rc.out_dir / "right.pgm", right)
    lines = ["center_x,center_y,center_z,width_m,height_m,texture_seed,texture_cell_m"]
    for rect in scene.obstacles:
        cx, cy, cz, width, height, cell = map(float, (*rect.center, rect.width_m, rect.height_m, rect.texture_cell_m))
        lines.append(f"{cx!r},{cy!r},{cz!r},{width!r},{height!r},{rect.texture_seed},{cell!r}")
    (rc.out_dir / "truth.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def _run_loop(rc: RunConfig, frames: Iterable[tuple[Image, Image]], budget: int):
    """Shared detect/sequence loop; returns (population, trace, final report).

    ``frames`` is consumed one pair at a time, so a lazy iterable keeps at
    most the frame in use and the pair being decoded in memory.
    """
    rng = np.random.default_rng(rc.evo.rng_seed)
    pop = Population.initialize(rc.rig, rc.evo, rng)
    trace: list[tuple[int, float]] = []
    generation = 0
    frame = None
    for left, right in frames:
        # keep the frame, and the gradients its memo holds, while the pixels repeat
        if frame is None or not (
            np.array_equal(left.samples, frame.left.samples)
            and np.array_equal(right.samples, frame.right.samples)
        ):
            frame = StereoFrame(left, right)
        del left, right  # the frame holds what it needs; free the pair before the next decode
        for _ in range(budget):
            report = evolution.step_generation(pop, frame, rc.rig, rc.evo, rng, rc.warn)
            generation += 1
            trace.append((generation, report.global_mean))
            print(f"{generation},{_format_float(report.global_mean)}")
    # refresh fitness of the post-refill population so the emitted state
    # is fully evaluated against the last frame
    final = evolution.evaluate_and_share(pop, frame, rc.rig, rc.evo, rc.warn)
    return pop, trace, final


def cmd_detect(rc: RunConfig) -> int:
    left, right = _load_pair(rc)
    rc.out_dir.mkdir(parents=True, exist_ok=True)
    pop, trace, final = _run_loop(rc, [(left, right)], rc.generations)
    write_trace_csv(rc.out_dir / "warning_trace.csv", trace)
    if rc.emit_flies:
        write_flies_csv(rc.out_dir / "flies.csv", pop, final.per_fly)
    if rc.emit_overlays:
        write_overlays(rc, left, right, pop)
    print(_format_float(final.global_mean))
    return 0


def cmd_sequence(rc: RunConfig) -> int:
    if not (rc.left and rc.right):
        raise ConfigError("sequence needs --left and --right file patterns")
    lefts = _expand_pattern(rc.left)
    rights = _expand_pattern(rc.right)
    if len(lefts) != len(rights):
        raise ConfigError(f"mismatched pair counts: {len(lefts)} left vs {len(rights)} right")
    rc.out_dir.mkdir(parents=True, exist_ok=True)
    pop, trace, final = _run_loop(rc, _read_pairs(rc.rig, lefts, rights), rc.generations)
    write_trace_csv(rc.out_dir / "warning_trace.csv", trace)
    if rc.emit_flies:
        write_flies_csv(rc.out_dir / "flies.csv", pop, final.per_fly)
    print(_format_float(final.global_mean))
    return 0


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", metavar="PATH", help="key=value configuration file")
    sp.add_argument("--seed", type=int, metavar="N", help="override rng_seed")
    sp.add_argument("--out", default="out", metavar="DIR", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flyswarm",
        description="Fly-swarm stereo obstacle detection on synthetic or recorded stereo pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="render a synthetic stereo pair plus ground truth")
    _add_common(sp)
    sp.add_argument("--preset", choices=PRESET_NAMES)
    sp.set_defaults(func=cmd_synth, generations=1, default_generations=1)

    sp = sub.add_parser("detect", help="evolve the swarm on one stereo pair")
    _add_common(sp)
    sp.add_argument("--left", metavar="PATH")
    sp.add_argument("--right", metavar="PATH")
    sp.add_argument("--preset", choices=PRESET_NAMES, help="render this scene instead of reading files")
    sp.add_argument("--generations", type=int, metavar="N")
    sp.add_argument("--population", type=int, metavar="N")
    sp.set_defaults(func=cmd_detect, default_generations=100)

    sp = sub.add_parser("sequence", help="run on an ordered stereo-pair sequence")
    _add_common(sp)
    sp.add_argument("--left", metavar="PATTERN", help="left image file or glob")
    sp.add_argument("--right", metavar="PATTERN")
    sp.add_argument("--generations", type=int, metavar="N", help="generations per frame")
    sp.add_argument("--population", type=int, metavar="N")
    sp.set_defaults(func=cmd_sequence, default_generations=1)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = _build_run_config(args, args.default_generations)
        return args.func(rc)
    except (ValueError, OSError, MemoryError) as exc:
        # ValueError covers ConfigError and PnmParseError; MemoryError covers
        # numpy refusing the allocation a huge size asks for
        print(f"flyswarm: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
