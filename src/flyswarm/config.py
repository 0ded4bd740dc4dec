"""Plain-text key=value run configuration.

One `key = value` per line, `#` starts a comment, repeated keys collect
(used for `obstacle` lines). List values are comma- or space-separated
numbers. Example:

    focal_length_px = 500
    principal_point = 320, 240
    image_size      = 640, 480
    baseline_m      = 0.4
    camera_height_m = 1.2
    z_min_m = 1.0
    z_max_m = 20.0
    population_size = 5000
    # scene: center_x center_y center_z width height seed [cell]
    obstacle = 0.0, -0.35, 4.0, 0.5, 1.7, 202, 0.053
    ground_texture_seed = 101
"""

from __future__ import annotations

import functools
import math
from dataclasses import fields

from .evolution import EvolutionParams
from .stereo_geometry import CameraIntrinsics, StereoRig
from .synth import Scene, TexturedRect
from .warning import WarningParams


class ConfigError(ValueError):
    """Bad configuration file or inconsistent run options."""


def parse_config_text(text: str) -> dict[str, list[str]]:
    cfg: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        cfg.setdefault(key, []).append(value)
    return cfg


def load_config(path) -> dict[str, list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


class KeyLog(dict):
    """A parsed config that notes every key looked up in it with ``get``
    or ``in``, the only lookups the readers make.

    Once a run is built from it, the keys never looked up are the ones no
    reader knows, so the readers themselves are the list of valid keys.
    """

    def __init__(self, cfg: dict):
        super().__init__(cfg)
        self.read: set[str] = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def reject_unread(self) -> None:
        """ConfigError naming the first key never looked up: a misspelt
        key would otherwise leave its default in force without a word."""
        unread = sorted(set(self) - self.read)
        if unread:
            raise ConfigError(f"unknown key {unread[0]!r}")


def _numbers(value: str) -> list[float]:
    parts = value.replace(",", " ").split()
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"expected numbers, got {value!r}") from None
    if not numbers:
        raise ConfigError(f"expected numbers, got {value!r}")
    # validators compare against bounds, and every comparison with NaN is false
    if not all(math.isfinite(v) for v in numbers):
        raise ConfigError(f"expected finite numbers, got {value!r}")
    return numbers


def _single(cfg: dict, key: str) -> str | None:
    values = cfg.get(key)
    if values is None:
        return None
    if len(values) > 1:
        raise ConfigError(f"key {key!r} given {len(values)} times, expected once")
    return values[0]


def get_float(cfg: dict, key: str, default: float) -> float:
    values = get_floats(cfg, key, None, 1)
    return default if values is None else values[0]


def _integer(value: float, key: str) -> int:
    if value != int(value):
        raise ConfigError(f"key {key!r} expects integers, got {value!r}")
    return int(value)


def get_int(cfg: dict, key: str, default: int | None) -> int | None:
    values = get_floats(cfg, key, None, 1)
    return default if values is None else _integer(values[0], key)


def get_floats(cfg: dict, key: str, default, count: int):
    raw = _single(cfg, key)
    if raw is None:
        return default
    values = _numbers(raw)
    if len(values) != count:
        raise ConfigError(f"key {key!r} expects {count} number(s), got {len(values)}")
    return tuple(values)


def _config_errors(build):
    """Re-raise a value the model classes reject as a ConfigError, so a
    builder fails the same way for a malformed and an out-of-range value."""

    @functools.wraps(build)
    def checked(cfg: dict):
        try:
            return build(cfg)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    return checked


def _from_fields(cls, cfg: dict, **given):
    """A ``cls`` whose fields not in ``given`` are read from the key of
    the field's name, as the annotation says (a float tuple, an int or a
    float), and default to the field's own default."""
    for f in fields(cls):
        if f.name not in given:
            if f.type.startswith("tuple"):
                given[f.name] = get_floats(cfg, f.name, f.default, f.type.count("float"))
            else:
                read = get_int if f.type.startswith("int") else get_float
                given[f.name] = read(cfg, f.name, f.default)
    return cls(**given)


@_config_errors
def rig_from_config(cfg: dict) -> StereoRig:
    # one key sets both image sides
    default = CameraIntrinsics()
    size = get_floats(cfg, "image_size", (default.image_width, default.image_height), 2)
    width, height = (_integer(v, "image_size") for v in size)
    intrinsics = _from_fields(CameraIntrinsics, cfg, image_width=width, image_height=height)
    return _from_fields(StereoRig, cfg, intrinsics=intrinsics)


@_config_errors
def evolution_params_from_config(cfg: dict) -> EvolutionParams:
    return _from_fields(EvolutionParams, cfg)


@_config_errors
def warning_params_from_config(cfg: dict) -> WarningParams:
    return _from_fields(WarningParams, cfg)


@_config_errors
def scene_from_config(cfg: dict) -> Scene:
    """Scene description; a config that carries no scene keys has none."""
    numeric_keys = [f.name for f in fields(Scene) if f.name != "obstacles"]
    if not any(k in cfg for k in ["obstacle", *numeric_keys]):
        raise ConfigError("no scene: pass --preset or a config file with scene keys")
    obstacles = []
    for raw in cfg.get("obstacle", []):
        values = _numbers(raw)
        if len(values) not in (6, 7):
            raise ConfigError(
                "obstacle expects 'cx, cy, cz, width, height, seed[, cell]', " f"got {raw!r}"
            )
        rect_args = dict(
            center=(values[0], values[1], values[2]),
            width_m=values[3],
            height_m=values[4],
            texture_seed=_integer(values[5], "obstacle"),
        )
        if len(values) == 7:
            rect_args["texture_cell_m"] = values[6]
        obstacles.append(TexturedRect(**rect_args))
    return _from_fields(Scene, cfg, obstacles=tuple(obstacles))
