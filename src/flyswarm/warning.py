"""Collision-risk signals derived from the fly population.

A fly is useless for frontal-collision purposes when it sits more than
``max_height_m`` above the road, less than ``min_height_m`` above it
(that is just the road itself), or further ahead than ``max_range_m``.
Useless flies are penalized: sharing forces their shared fitness to 0 so
rank selection eliminates them, and their warning value is 0.

The per-fly warning is raw_fitness / (x'^2 * z') with |x| clamped below
by ``x_clamp_m`` and z clamped below by ``z_clamp_m``: anything nearly
straight ahead or very close is treated as equally dangerous rather than
being given an unbounded score. The global warning is the population
mean of the per-fly values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stereo_geometry import StereoRig


@dataclass(frozen=True)
class WarningParams:
    max_height_m: float = 2.0
    min_height_m: float = 0.10
    max_range_m: float = 16.0
    x_clamp_m: float = 0.5
    z_clamp_m: float = 1.0

    def __post_init__(self):
        if not (0 <= self.min_height_m < self.max_height_m):
            raise ValueError("need 0 <= min_height_m < max_height_m")
        if self.x_clamp_m <= 0 or self.z_clamp_m <= 0:
            raise ValueError("clamps must be positive")
        if self.max_range_m <= self.z_clamp_m:
            raise ValueError("max_range_m must exceed z_clamp_m")


@dataclass(frozen=True)
class WarningReport:
    per_fly: np.ndarray  # one value per fly, aligned with the population
    global_mean: float


def useless_mask(positions: np.ndarray, rig: StereoRig, params: WarningParams) -> np.ndarray:
    """Height above the road is y + camera mounting height."""
    height = positions[:, 1] + rig.camera_height_m
    return (
        (height > params.max_height_m)
        | (height < params.min_height_m)
        | (positions[:, 2] > params.max_range_m)
    )


def flag_useless(population, rig: StereoRig, params: WarningParams) -> None:
    """Set the penalization flag on every fly of the population."""
    population.penalized[:] = useless_mask(population.positions, rig, params)


def warning_values(
    positions: np.ndarray, raw_fitness: np.ndarray, penalized: np.ndarray, params: WarningParams
) -> np.ndarray:
    x = np.maximum(np.abs(positions[:, 0]), params.x_clamp_m)
    z = np.maximum(positions[:, 2], params.z_clamp_m)
    values = raw_fitness / (x * x * z)
    values[penalized] = 0.0
    return values


def global_warning(population, params: WarningParams) -> WarningReport:
    """Mean warning over all flies, penalized ones contributing 0."""
    if len(population) == 0:
        raise ValueError("population is empty")
    per_fly = warning_values(
        population.positions, population.raw_fitness, population.penalized, params
    )
    return WarningReport(per_fly, float(per_fly.mean()))
