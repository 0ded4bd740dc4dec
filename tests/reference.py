"""Reference implementations the tests check the package against.

Straight, scalar or full-frame versions of what ``flyswarm`` computes
per fly and in batches: the projection of one point, the closed-form
search-volume size, the full-frame Sobel norm map, the window SSD and the
fitness of one fly. They restate the formulas instead of calling the
code they check, so a defect there cannot hide in its own oracle: from
``flyswarm`` this file imports only the value types it reads
(``test_reference_imports_no_flyswarm_function`` holds it to that).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flyswarm.evolution import EvolutionParams
from flyswarm.imaging import Image
from flyswarm.stereo_geometry import StereoRig

# Rec. 601 luma weights, the luminance the fitness gradients are taken of
LUMA_WEIGHTS = (0.299, 0.587, 0.114)


@dataclass(frozen=True)
class Projection:
    """Left/right real-valued pixel coordinates of one world point."""

    left_px: tuple[float, float]
    right_px: tuple[float, float]
    visible: bool


def project(rig: StereoRig, point, margin: int = 2) -> Projection:
    """Project a world point into both images.

    ``visible`` is true iff the point is in front of the cameras (z > 0)
    and its projection, padded by ``margin`` pixels, lies inside both images.
    Raises ValueError for non-finite coordinates.
    """
    p = np.asarray(point, dtype=np.float64)
    if p.shape != (3,) or not np.all(np.isfinite(p)):
        raise ValueError(f"point must be 3 finite coordinates, got {point!r}")
    x, y, z = float(p[0]), float(p[1]), float(p[2])
    if z <= 0:  # on or behind the camera plane: no projection, never visible
        return Projection((np.nan, np.nan), (np.nan, np.nan), False)
    f = rig.focal_length_px
    u0, v0 = rig.principal_point
    w, h = rig.image_size
    half_b = 0.5 * rig.baseline_m
    u_left = u0 + f * (x + half_b) / z
    u_right = u0 + f * (x - half_b) / z
    v = v0 - f * y / z
    visible = (
        margin <= u_left <= w - 1 - margin
        and margin <= u_right <= w - 1 - margin
        and margin <= v <= h - 1 - margin
    )
    return Projection((u_left, v), (u_right, v), visible)


def volume_m3(rig: StereoRig, margin: int = 2) -> float:
    """Exact volume of the search volume, integrating the per-depth slice area.

    At depth z the slice is (a*z - b) wide and c*z high, with
    a = (W - 1 - 2*margin) / f, b the baseline and c = (H - 1 - 2*margin) / f.
    """
    w, h = rig.image_size
    a = (w - 1 - 2 * margin) / rig.focal_length_px
    b = rig.baseline_m
    c = (h - 1 - 2 * margin) / rig.focal_length_px
    z0, z1 = rig.z_min_m, rig.z_max_m
    return a * c * (z1**3 - z0**3) / 3.0 - b * c * (z1**2 - z0**2) / 2.0


def luminance(image: Image) -> np.ndarray:
    """Float64 luminance plane; identity for grey images."""
    if image.channels == 1:
        return image.samples.astype(np.float64)
    return image.samples.astype(np.float64) @ np.asarray(LUMA_WEIGHTS)


@dataclass(eq=False)
class GradientMap:
    width: int
    height: int
    norms: np.ndarray  # float64 (H, W), >= 0, zero on the 1 px border


def sobel_norm_map(image: Image) -> GradientMap:
    """Euclidean Sobel gradient norm of the luminance plane; border pixels are 0."""
    if image.width < 3 or image.height < 3:
        raise ValueError(f"image must be at least 3x3, got {image.width}x{image.height}")
    p = luminance(image)
    gx = (p[:-2, 2:] + 2.0 * p[1:-1, 2:] + p[2:, 2:]) - (p[:-2, :-2] + 2.0 * p[1:-1, :-2] + p[2:, :-2])
    gy = (p[2:, :-2] + 2.0 * p[2:, 1:-1] + p[2:, 2:]) - (p[:-2, :-2] + 2.0 * p[:-2, 1:-1] + p[:-2, 2:])
    norms = np.zeros((image.height, image.width), dtype=np.float64)
    norms[1:-1, 1:-1] = np.hypot(gx, gy)
    return GradientMap(image.width, image.height, norms)


def ssd_oracle(a, b, pl, pr, n):
    """Window SSD between (column, row) centres ``pl`` of ``a`` and ``pr`` of
    ``b``: a straight double loop over the window and channels."""
    total = 0
    for j in range(-n, n + 1):
        for i in range(-n, n + 1):
            va = a[pl[1] + j][pl[0] + i]
            vb = b[pr[1] + j][pr[0] + i]
            for da, db in zip(np.atleast_1d(va), np.atleast_1d(vb)):
                total += (int(da) - int(db)) ** 2
    return total


def naive_fitness(
    position, left: Image, right: Image, grad_left: GradientMap, grad_right: GradientMap, rig: StereoRig,
    params: EvolutionParams,
) -> float:
    """Straight-loop reimplementation of the fitness: rounded projections,
    gradient product over epsilon-shifted window SSD."""
    f = rig.focal_length_px
    u0, v0 = rig.principal_point
    b = rig.baseline_m
    x, y, z = position
    if z <= 0:
        return 0.0
    xl = u0 + f * (x + b / 2) / z
    xr = u0 + f * (x - b / 2) / z
    v = v0 - f * y / z
    n = params.neighborhood_radius
    w, h = rig.image_size
    if not (n <= xl <= w - 1 - n and n <= xr <= w - 1 - n and n <= v <= h - 1 - n):
        return 0.0
    il, ir, iv = int(np.rint(xl)), int(np.rint(xr)), int(np.rint(v))
    num = grad_left.norms[iv, il] * grad_right.norms[iv, ir]
    return num / (params.fitness_epsilon + ssd_oracle(left.samples, right.samples, (il, iv), (ir, iv), n))
