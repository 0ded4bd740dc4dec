"""Command-line pipeline: synth, detect, sequence.

``synth`` renders the pair of ``--preset`` or of the scene keys; ``detect``
and ``sequence`` read theirs from the files ``--left`` and ``--right`` name.
Each command reads one fixed set of config keys: ``synth`` the rig and
scene keys, the other two the rig, evolution and warning keys. The number
of generations per pair is set by ``--generations`` alone (default 100 for
``detect``, 1 for ``sequence``).
detect/sequence print one `generation,global_warning` CSV line per
generation to stdout, then the final global warning on its own line.
Both run one ``evolution.Swarm`` over their pairs (``sequence`` decodes
each pair only when the run reaches it) and always write
``warning_trace.csv`` and ``flies.csv``; ``detect`` also writes
``overlay_left.ppm`` and ``overlay_right.ppm``, a red cross on each of the
OVERLAY_TOP_K flies of highest shared fitness, ties to the lower index.
All outputs are deterministic for a fixed seed. Writers stream: a CSV file
gets each line as its row is formatted (``flies.csv`` FLIES_BLOCK flies at
a time), a PNM file its samples' own buffer, an overlay BAND_ROWS RGB rows
at a time, so no output is ever held whole as text or bytes. Rejected
input (flags, config values, a config key the command does not read, PNM
bytes, sizes too large to allocate) ends in exit code 2 and a one-line
message on stderr before any output. A reader that closes stdout early
ends the run with exit code 1 and no message.
"""

from __future__ import annotations

import argparse
import glob
import itertools
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    KeyLog,
    evolution_params_from_config,
    load_config,
    read_value,
    rig_from_config,
    scene_from_config,
    warning_params_from_config,
)
from .evolution import EvolutionParams, Population, Swarm, check_rig_match, elite
from .imaging import Image, pnm_header, read_pnm, write_pnm
from .stereo_geometry import StereoRig, project_many
from .synth import BAND_ROWS, PRESET_NAMES, preset_scene, render_stereo_pair
from .warning import WarningParams, WarningReport

MARKER_RGB = (255, 0, 0)
OVERLAY_TOP_K = 250  # flies marked on each overlay
FLIES_BLOCK = 512  # flies turned into Python scalars (tolist) at once


@dataclass
class RunConfig:
    rig: StereoRig
    evo: EvolutionParams
    warn: WarningParams
    generations: int
    out_dir: Path

    def __post_init__(self):
        if self.generations < 1:
            raise ConfigError(f"generations must be >= 1, got {self.generations}")


def _run_config(args, cfg: KeyLog) -> RunConfig:
    """The rig, evolution and warning keys, with the flags over them; any
    other key is an error."""
    rig = rig_from_config(cfg)
    evo = evolution_params_from_config(cfg, population_size=args.population, rng_seed=args.seed)
    warn = warning_params_from_config(cfg)
    cfg.reject_unread()
    return RunConfig(rig, evo, warn, args.generations, Path(args.out))


def _read_pairs(rig: StereoRig, lefts: list[str], rights: list[str]) -> Iterator[tuple[Image, Image]]:
    """Decode and rig-check each pair only when the run loop asks for it."""
    for lp, rp in zip(lefts, rights):
        yield check_rig_match(read_pnm(lp), rig, lp), check_rig_match(read_pnm(rp), rig, rp)


def _expand_pattern(pattern: str) -> list[str]:
    paths = sorted(glob.glob(pattern)) if any(ch in pattern for ch in "*?[") else [pattern]
    if not paths:
        raise ConfigError(f"pattern {pattern!r} matches no files")
    return paths


def _row(values: Iterable) -> str:
    """One CSV line: the shortest round-trip repr of each Python int or float."""
    return ",".join(map(repr, values))


def _write_csv(path: Path, header: str, rows: Iterable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(_row(row) + "\n" for row in rows)


def write_flies_csv(path: Path, pop: Population, per_fly_warning: np.ndarray) -> None:
    columns = (*pop.positions.T, pop.raw_fitness, pop.shared_fitness, pop.penalized.astype(int), per_fly_warning)
    blocks = (zip(*(col[i : i + FLIES_BLOCK].tolist() for col in columns)) for i in range(0, len(pop), FLIES_BLOCK))
    _write_csv(path, "x,y,z,raw_fitness,shared_fitness,penalized,warning", itertools.chain.from_iterable(blocks))


def write_trace_csv(path: Path, rows: list[tuple[int, float]]) -> None:
    _write_csv(path, "generation,global_warning", ((int(g), float(w)) for g, w in rows))


def _write_overlay(path: Path, base: Image, u: np.ndarray, v: np.ndarray) -> None:
    """``base`` in RGB with a 5-pixel cross at each rounded (u[i], v[i]),
    clipped, written BAND_ROWS rows at a time."""
    uu = np.rint(u).astype(np.int64)[:, None] + [0, 1, -1, 0, 0]
    vv = np.rint(v).astype(np.int64)[:, None] + [0, 0, 0, 1, -1]
    inside = (uu >= 0) & (uu < base.width) & (vv >= 0) & (vv < base.height)
    uu, vv = uu[inside], vv[inside]
    with open(path, "wb") as fh:
        fh.write(pnm_header((base.height, base.width, 3)))
        for top in range(0, base.height, BAND_ROWS):
            band = np.repeat(np.atleast_3d(base.samples[top : top + BAND_ROWS]), 3 // base.channels, axis=2)
            here = (vv >= top) & (vv < top + BAND_ROWS)
            band[vv[here] - top, uu[here]] = MARKER_RGB
            fh.write(band.data)


def write_overlays(rc: RunConfig, left: Image, right: Image, pop: Population) -> None:
    best = elite(pop.shared_fitness, min(OVERLAY_TOP_K, len(pop)))
    u_left, u_right, v = project_many(rc.rig, pop.positions[best])
    _write_overlay(rc.out_dir / "overlay_left.ppm", left, u_left, v)
    _write_overlay(rc.out_dir / "overlay_right.ppm", right, u_right, v)


def cmd_synth(args, cfg: KeyLog) -> int:
    rig = rig_from_config(cfg)
    scene = preset_scene(args.preset, rig) if args.preset else scene_from_config(cfg)
    cfg.reject_unread()
    left, right = render_stereo_pair(scene, rig)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_pnm(out_dir / "left.pgm", left)
    write_pnm(out_dir / "right.pgm", right)
    rows = [(*r.center, r.width_m, r.height_m, r.texture_seed, r.texture_cell_m) for r in scene.obstacles]
    _write_csv(out_dir / "truth.csv", "center_x,center_y,center_z,width_m,height_m,texture_seed,texture_cell_m", rows)
    return 0


def _run(rc: RunConfig, frames: Iterable[tuple[Image, Image]]) -> tuple[Swarm, WarningReport]:
    """Shared detect/sequence run: ``rc.generations`` generations per pair,
    one warning line each, then the trace and flies files. Returns the swarm
    and the report of its final evaluation.

    ``frames`` is consumed one pair at a time, so a lazy iterable keeps at
    most the frame in use and the pair being decoded in memory.
    """
    swarm = Swarm(rc.rig, rc.evo, rc.warn)  # a rig without a search volume fails here, before any output
    trace: list[tuple[int, float]] = []
    for left, right in frames:
        swarm.feed(left, right)
        del left, right  # the frame holds what it needs; free the pair before the next decode
        if not trace:  # the first pair is accepted: make --out now, so that a bad --out fails before the first line
            rc.out_dir.mkdir(parents=True, exist_ok=True)
        for _ in range(rc.generations):
            trace.append((len(trace) + 1, swarm.step().global_mean))
            print(_row(trace[-1]))
    # refresh fitness of the post-refill population so the emitted state
    # is fully evaluated against the last frame
    final = swarm.evaluate()
    write_trace_csv(rc.out_dir / "warning_trace.csv", trace)
    write_flies_csv(rc.out_dir / "flies.csv", swarm.population, final.per_fly)
    return swarm, final


def cmd_detect(args, cfg: KeyLog) -> int:
    rc = _run_config(args, cfg)
    left, right = next(_read_pairs(rc.rig, [args.left], [args.right]))
    swarm, final = _run(rc, [(left, right)])
    write_overlays(rc, left, right, swarm.population)
    print(_row([final.global_mean]))
    return 0


def cmd_sequence(args, cfg: KeyLog) -> int:
    rc = _run_config(args, cfg)
    lefts, rights = _expand_pattern(args.left), _expand_pattern(args.right)
    if len(lefts) != len(rights):
        raise ConfigError(f"mismatched pair counts: {len(lefts)} left vs {len(rights)} right")
    _, final = _run(rc, _read_pairs(rc.rig, lefts, rights))
    print(_row([final.global_mean]))
    return 0


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", metavar="PATH", help="key=value configuration file")
    sp.add_argument("--out", default="out", metavar="DIR", help="output directory")


class _IntegerFlag(argparse.Action):
    """An integer flag, read by the integer keys' rule; a bad value names the flag."""

    def __call__(self, parser, namespace, text, option_string=None):
        setattr(namespace, self.dest, read_value([text], f"flag {option_string}", "int", None))


def _add_run(sp: argparse.ArgumentParser, inputs: str, generations: int) -> None:
    """The flags of the commands that evolve a swarm."""
    _add_common(sp)
    sp.add_argument("--left", required=True, metavar=inputs)
    sp.add_argument("--right", required=True, metavar=inputs)
    sp.add_argument("--generations", action=_IntegerFlag, default=generations, metavar="N", help="generations per pair")
    sp.add_argument("--population", action=_IntegerFlag, metavar="N", help="override population_size")
    sp.add_argument("--seed", action=_IntegerFlag, metavar="N", help="override rng_seed")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so ``main`` reports them like any other bad input."""

    def error(self, message):
        raise ConfigError(message)

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)  # a number is a value: argparse alone reads "-5" so, but takes "-1e3" for an option
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flyswarm",
        description="Fly-swarm stereo obstacle detection on synthetic or recorded stereo pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="render a synthetic stereo pair plus ground truth")
    _add_common(sp)
    sp.add_argument("--preset", choices=PRESET_NAMES)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("detect", help="evolve the swarm on one stereo pair")
    _add_run(sp, "PATH", generations=100)
    sp.set_defaults(func=cmd_detect)

    sp = sub.add_parser("sequence", help="run on an ordered stereo-pair sequence")
    _add_run(sp, "PATTERN", generations=1)
    sp.set_defaults(func=cmd_sequence)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args, KeyLog(load_config(args.config) if args.config else {}))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head -1`), which is not bad input;
        # point stdout at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        # ValueError covers ConfigError and PnmParseError; MemoryError covers
        # numpy refusing the allocation a huge size asks for
        print(f"flyswarm: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
