"""Synthetic stereo scenes with known geometry.

Scenes are a set of textured fronto-parallel rectangles over an optional
textured ground plane (y = -camera_height) and a uniform background.
Surfaces carry a seeded block-noise texture addressed in surface
coordinates, so both cameras see identical intensities for the same
surface point: the renderer is Lambertian with no lighting, which is
exactly the photo-consistency the fitness function rewards.

Texture values stay within [16, 224] so tests can shift intensities by
+-25 grey levels without clipping.

A view is painted in bands of BAND_ROWS rows, each with its own slice of
the row slopes, its own depth buffer and its own temporaries. Every step is
per pixel, so the bytes do not depend on the band height; the peak memory
follows the band, not the image. A surface point in view, hidden or not,
whose texture cell index is not an int64 (a rig or scene far past any real
one, up to a ground whose depth overflows) raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imaging import Image
from .stereo_geometry import StereoRig

TEXTURE_LO = 16
TEXTURE_SPAN = 209  # values in [16, 224]
BAND_ROWS = 32  # image rows painted at once

_M1 = np.uint64(0x9E3779B97F4A7C15)
_M2 = np.uint64(0xBF58476D1CE4E5B9)
_M3 = np.uint64(0x94D049BB133111EB)


@dataclass(frozen=True)
class TexturedRect:
    """Axis-aligned, fronto-parallel textured rectangle."""

    center: tuple[float, float, float]
    width_m: float
    height_m: float
    texture_seed: int
    texture_cell_m: float = 0.053

    def __post_init__(self):
        if self.width_m <= 0 or self.height_m <= 0:
            raise ValueError("rectangle sides must be positive")
        if self.center[2] <= 0:
            raise ValueError(f"rectangle depth must be positive, got {self.center[2]}")
        if self.texture_cell_m <= 0:
            raise ValueError("texture_cell_m must be positive")

    def covers(self, x, y):
        """Whether (x, y) lies within the rectangle's sides; elementwise on arrays."""
        cx, cy, _ = self.center
        return (abs(x - cx) <= self.width_m / 2) & (abs(y - cy) <= self.height_m / 2)


@dataclass(frozen=True)
class Scene:
    obstacles: tuple[TexturedRect, ...] = ()
    ground_texture_seed: int | None = None
    background_grey: int = 135
    # Fine ground cells keep wrong-depth window matches partial: coarse
    # ground texture has row-aligned cell edges that look identical from
    # both cameras over a wide disparity band, which rewards flies well
    # off the true surface.
    ground_texture_cell_m: float = 0.03

    def __post_init__(self):
        if not (0 <= self.background_grey <= 255):
            raise ValueError(f"background_grey must be in [0, 255], got {self.background_grey}")
        if self.ground_texture_cell_m <= 0:
            raise ValueError("ground_texture_cell_m must be positive")


def _block_noise(ix: np.ndarray, iy: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic intensity per integer texture cell (splitmix-style hash)."""
    seed_term = np.uint64((seed * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF)
    h = (
        ix.astype(np.int64).astype(np.uint64) * _M1
        ^ iy.astype(np.int64).astype(np.uint64) * _M2
        ^ seed_term
    )
    h ^= h >> np.uint64(30)
    h *= _M2
    h ^= h >> np.uint64(27)
    h *= _M3
    h ^= h >> np.uint64(31)
    return (TEXTURE_LO + (h % np.uint64(TEXTURE_SPAN))).astype(np.uint8)


def _paint(img, zbuf, depth, a, b, cell, seed, hit) -> None:
    """Texture the ``hit`` pixels nearest yet in ``zbuf`` by the cells of surface
    coordinates (a, b). A hit pixel whose cell index is not an int64 raises
    ValueError, whether or not a nearer surface hides it."""
    hit = np.broadcast_to(hit, zbuf.shape)
    ia, ib = (np.floor(np.broadcast_to(v, hit.shape)[hit] / cell) for v in (a, b))
    if not all(((-(2.0**63) <= i) & (i < 2.0**63)).all() for i in (ia, ib)):  # False for inf and nan too
        raise ValueError(f"surface coordinates beyond 2**63 texture cells of {cell} m: the rig or scene is too large")
    shown = hit & (depth < zbuf)
    ia, ib = ia[shown[hit]], ib[shown[hit]]  # the hidden pixels' indices are freed before the noise is drawn
    img[shown] = _block_noise(ia, ib, seed)
    np.copyto(zbuf, depth, where=shown)


# a depth or coordinate past the float range is inf or nan: no rectangle
# covers it, and _paint rejects it as a ground cell index
@np.errstate(over="ignore", invalid="ignore")
def _render_view(scene: Scene, rig: StereoRig, cam_x: float) -> np.ndarray:
    f = rig.focal_length_px
    u0, v0 = rig.principal_point
    w, h = rig.image_size
    dir_x = (np.arange(w, dtype=np.float64) - u0) / f  # per column
    dir_y_all = -(np.arange(h, dtype=np.float64)[:, None] - v0) / f  # per row, world-y slope

    img = np.full((h, w), np.uint8(scene.background_grey))
    for top in range(0, h, BAND_ROWS):
        band, dir_y = img[top : top + BAND_ROWS], dir_y_all[top : top + BAND_ROWS]
        zbuf = np.full(band.shape, np.inf)
        if scene.ground_texture_seed is not None:
            descending = dir_y < 0
            t = np.zeros(dir_y.shape)  # per row, the depth where its rays meet the ground; 0 if they do not
            t[descending] = -rig.camera_height_m / dir_y[descending]  # 0 too for a camera on the ground
            _paint(band, zbuf, t, cam_x + dir_x * t, t, scene.ground_texture_cell_m, scene.ground_texture_seed, t > 0)
        for rect in scene.obstacles:
            cx, cy, cz = rect.center
            x, y = cam_x + dir_x * cz, dir_y * cz
            _paint(band, zbuf, cz, x - cx, y - cy, rect.texture_cell_m, rect.texture_seed, rect.covers(x, y))

    return img


def render_stereo_pair(scene: Scene, rig: StereoRig) -> tuple[Image, Image]:
    """Render the scene from both cameras. Deterministic per (scene, rig)."""
    left = _render_view(scene, rig, -0.5 * rig.baseline_m)
    right = _render_view(scene, rig, +0.5 * rig.baseline_m)
    return Image(left), Image(right)


def ground_truth_depth(scene: Scene, point) -> float | None:
    """Depth of the nearest obstacle surface along +z at the point's (x, y).

    The ground plane is parallel to +z rays and therefore never counts.
    """
    return min((rect.center[2] for rect in scene.obstacles if rect.covers(point[0], point[1])), default=None)


PRESET_NAMES = ("empty-road", "pedestrian-4m")

_GROUND_SEED = 101
_PEDESTRIAN_SEED = 202
_PEDESTRIAN_SIZE = (0.5, 1.7)
_PEDESTRIAN_DEPTH = 4.0


def preset_scene(name: str, rig: StereoRig) -> Scene:
    """Built-in scenes: a bare textured road, or the road plus a pedestrian-
    sized rectangle standing on it 4 m ahead, centred on the axis."""
    if name == "empty-road":
        return Scene(ground_texture_seed=_GROUND_SEED)
    if name == "pedestrian-4m":
        w, h = _PEDESTRIAN_SIZE
        rect = TexturedRect(
            center=(0.0, h / 2 - rig.camera_height_m, _PEDESTRIAN_DEPTH),
            width_m=w,
            height_m=h,
            texture_seed=_PEDESTRIAN_SEED,
        )
        return Scene(obstacles=(rect,), ground_texture_seed=_GROUND_SEED)
    raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
