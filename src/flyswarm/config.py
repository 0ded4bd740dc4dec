"""Plain-text key=value run configuration.

One `key = value` per line, `#` starts a comment, and a value is comma-
or space-separated numbers. Every key but `obstacle` is read by one rule:
- it names a model field, and the field's annotation gives the count
  and type: a `tuple[...]` takes one number per element, anything else
  one number; an `int`, key or flag, takes integers of magnitude < 2**53;
- it is given at most once; only `obstacle` lines collect, one
  rectangle each;
- a value the model rejects is a ConfigError, like a malformed one.
A model's keys are all parsed, in field order, before the model checks
them, so an error names the first malformed key, else the model's first
complaint. Example:

    image_size      = 640, 480
    focal_length_px = 500
    principal_point = 320, 240
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

import math
from dataclasses import fields

from .evolution import EvolutionParams
from .stereo_geometry import StereoRig
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


def _numbers(value: str, name: str) -> list[float]:
    parts = value.replace(",", " ").split()
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"{name} expects numbers, got {value!r}") from None
    if not numbers:
        raise ConfigError(f"{name} expects numbers, got {value!r}")
    # validators compare against bounds, and every comparison with NaN is false
    if not all(math.isfinite(v) for v in numbers):
        raise ConfigError(f"{name} expects finite numbers, got {value!r}")
    return numbers


def _integer(value: float, name: str) -> int:
    if value != int(value):
        raise ConfigError(f"{name} expects integers, got {value!r}")
    # a float holds every integer below 2**53 but not every one above, so
    # a larger value may not be the one written (and its digits would fill a message)
    if abs(value) >= 2**53:
        raise ConfigError(f"{name} expects integers below 2**53 in magnitude, got {value!r}")
    return int(value)


def read_value(values: list[str] | None, name: str, kind: str, default):
    """The one value in ``values``, as the annotation ``kind`` says: a tuple
    of as many numbers as it names, an int or a float; ``default`` when
    there is none. ``name``, a key's or a flag's, begins any message."""
    if values is None:
        return default
    if len(values) > 1:
        raise ConfigError(f"{name} given {len(values)} times, expected once")
    numbers = _numbers(values[0], name)
    many = kind.startswith("tuple")
    count = kind.count(",") + 1 if many else 1
    if len(numbers) != count:
        raise ConfigError(f"{name} expects {count} number(s), got {len(numbers)}")
    if "int" in kind:
        numbers = [_integer(v, name) for v in numbers]
    return tuple(numbers) if many else numbers[0]


def _from_fields(cls, cfg: dict, **given):
    """A ``cls`` whose fields not in ``given`` are read from the key of
    the field's name, in field order; a value the model rejects is raised
    as a ConfigError, like a malformed one."""
    for f in fields(cls):
        if f.name not in given:
            given[f.name] = read_value(cfg.get(f.name), f"key {f.name!r}", f.type, f.default)
    try:
        return cls(**given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def rig_from_config(cfg: dict) -> StereoRig:
    return _from_fields(StereoRig, cfg)


def evolution_params_from_config(cfg: dict, **flags) -> EvolutionParams:
    """The evolution keys, each flag not None over the key of its name, which is still read and parsed."""
    given = {f.name: read_value(cfg.get(f.name), f"key {f.name!r}", f.type, f.default) for f in fields(EvolutionParams)}
    given.update((name, value) for name, value in flags.items() if value is not None)
    return _from_fields(EvolutionParams, cfg, **given)


def warning_params_from_config(cfg: dict) -> WarningParams:
    return _from_fields(WarningParams, cfg)


def scene_from_config(cfg: dict) -> Scene:
    """Scene description; a config that carries no scene keys has none."""
    numeric_keys = [f.name for f in fields(Scene) if f.name != "obstacles"]
    if not any(k in cfg for k in ["obstacle", *numeric_keys]):
        raise ConfigError("no scene: pass --preset or a config file with scene keys")
    obstacles = []
    for raw in cfg.get("obstacle", []):
        values = _numbers(raw, "key 'obstacle'")
        if len(values) not in (6, 7):
            raise ConfigError(
                "obstacle expects 'cx, cy, cz, width, height, seed[, cell]', " f"got {raw!r}"
            )
        rect_args = dict(
            center=(values[0], values[1], values[2]),
            width_m=values[3],
            height_m=values[4],
            texture_seed=_integer(values[5], "key 'obstacle'"),
        )
        if len(values) == 7:
            rect_args["texture_cell_m"] = values[6]
        # an empty config leaves every field not given at its default
        obstacles.append(_from_fields(TexturedRect, {}, **rect_args))
    return _from_fields(Scene, cfg, obstacles=tuple(obstacles))
