"""Rectified pinhole stereo rig: batch projections and the fly search volume.

World frame convention (used everywhere in this package): origin at the
midpoint between the two optical centres, x lateral (positive toward the
right camera), y vertical (positive up), z forward along the common
optical axis. The left camera centre sits at (-baseline/2, 0, 0), the
right at (+baseline/2, 0, 0). Both cameras share the rig's intrinsics
(``image_size``, ``focal_length_px``, ``principal_point``) and their axes
are parallel (rectified rig), so a world point projects onto the same
image row in both views and its column disparity is

    x_left - x_right = focal_length_px * baseline_m / z  > 0.

Pixel coordinates are (column, row) with the origin at the top-left
pixel; y up in the world means row decreasing in the image.

A point is "visible" when it lies in front of the cameras (z > 0) and
its projection, padded by ``margin`` pixels (the fitness neighborhood
radius), lies inside both images. The admissible fly volume is the
depth-bounded set of visible points; at a fixed depth z it is an
axis-aligned rectangle whose bounds are linear in z: a convex volume.

No length has a fixed unit: each is a rig field, and the rig with every
``_m`` field times s maps each point times s onto the same pixels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StereoRig:
    """Calibrated rectified stereo pair: the intrinsics both cameras share,
    their baseline and height above the ground, and the fly depth bounds."""

    image_size: tuple[int, int] = (640, 480)
    focal_length_px: float = 500.0
    principal_point: tuple[float, float] = (320.0, 240.0)
    baseline_m: float = 0.4
    camera_height_m: float = 1.2
    z_min_m: float = 1.0
    z_max_m: float = 20.0

    def __post_init__(self):
        # tuples keep the rig hashable and equal to one built from lists
        w, h = self.image_size
        u0, v0 = map(float, self.principal_point)
        object.__setattr__(self, "image_size", (w, h))
        object.__setattr__(self, "principal_point", (u0, v0))
        if self.focal_length_px <= 0:
            raise ValueError(f"focal_length_px must be > 0, got {self.focal_length_px}")
        if w < 1 or h < 1:
            raise ValueError("image dimensions must be positive")
        if not (0 <= u0 < w):
            raise ValueError(f"principal point u0={u0} outside [0, {w})")
        if not (0 <= v0 < h):
            raise ValueError(f"principal point v0={v0} outside [0, {h})")
        if not 0 < self.baseline_m < math.inf:
            raise ValueError(f"baseline_m must be > 0 and finite, got {self.baseline_m}")
        if self.camera_height_m < 0:
            raise ValueError(f"camera_height_m must be >= 0, got {self.camera_height_m}")
        if not (0 < self.z_min_m < self.z_max_m):
            raise ValueError(f"need 0 < z_min_m < z_max_m, got {self.z_min_m}, {self.z_max_m}")
        # no point of the search volume lies further than reach off the optical axis in x or y: reach^2 * z_max_m
        # bounds the warning's divisor x^2 * z, and with it finite so is every fly draw, 2 * reach + baseline_m wide
        reach = self.z_max_m * max(w, h) / self.focal_length_px
        divisor = reach * reach * self.z_max_m
        if not math.isfinite(divisor):
            raise ValueError(f"search volume overflows: x^2 * z reaches {divisor}")
        if w**2 * h >= 2**63:  # a pixel triple's memo key, (v * w + u_l) * w + u_r, is int64
            raise ValueError(f"image_width**2 * image_height must be below 2**63, got {w}x{h}")


def project_many(rig: StereoRig, points: np.ndarray):
    """Vectorized projection. Returns (u_left, u_right, v) float arrays.

    Rows are shared between the two views on a rectified rig, so a single
    v array is returned. Each point is divided by its own depth, so a point
    at z <= 0 projects to inf or nan; :func:`visible_many` rejects it.
    """
    f = rig.focal_length_px
    u0, v0 = rig.principal_point
    half_b = 0.5 * rig.baseline_m
    x, y, z = np.asarray(points, dtype=np.float64).T
    u_left = u0 + f * (x + half_b) / z
    u_right = u0 + f * (x - half_b) / z
    v = v0 - f * y / z
    return u_left, u_right, v


def visible_many(rig: StereoRig, u_left, u_right, v, z, margin: int):
    """True where a point is in front of the cameras (z > 0) and its
    projection, padded by ``margin`` pixels, lies inside both images."""
    w, h = rig.image_size
    u_hi = w - 1 - margin
    v_hi = h - 1 - margin
    return (
        (np.asarray(z) > 0)
        & (u_left >= margin) & (u_left <= u_hi)
        & (u_right >= margin) & (u_right <= u_hi)
        & (v >= margin) & (v <= v_hi)
    )


class SearchVolume:
    """Depth-bounded intersection of the two fields of view.

    At depth z the admissible set is the box [lo(z), hi(z)] of
    :meth:`bounds`, every bound linear in z:

        x_lo(z) = z * (margin - u0) / f + b/2
        x_hi(z) = z * (W - 1 - margin - u0) / f - b/2
        y_lo(z) = z * (v0 - (H - 1 - margin)) / f
        y_hi(z) = z * (v0 - margin) / f
        z_lo(z) = z_min,  z_hi(z) = z_max

    These invert the visibility rule of :func:`visible_many` (plus
    ``z_min <= z <= z_max``) algebraically, not bit for bit: a point on a
    bound, as :meth:`clamp` makes, is inside here while its projection
    may pass the margin by float rounding (under 1e-12 px), which
    :func:`visible_many` rejects. As the bounds are linear, the two end
    slices hold their extremes, so the bounding box spans both.
    """

    def __init__(self, rig: StereoRig, margin: int):
        W, H = rig.image_size
        if W - 1 - 2 * margin <= 0 or H - 1 - 2 * margin <= 0:
            raise ValueError(f"images too small for a {margin} px visibility margin")
        f = rig.focal_length_px
        u0, v0 = rig.principal_point
        self.rig = rig
        self.margin = margin
        half_b = 0.5 * rig.baseline_m
        # z * slope + offset for x_lo, y_lo, z_lo, x_hi, y_hi and z_hi, held
        # as columns so that the bounds of N depths are six contiguous rows
        slopes = [margin - u0, v0 - (H - 1 - margin), 0.0, W - 1 - margin - u0, v0 - margin, 0.0]
        self._slopes = np.array(slopes)[:, None] / f
        self._offsets = np.array([half_b, 0.0, rig.z_min_m, -half_b, 0.0, rig.z_max_m])[:, None]
        lo, hi = self.bounds([rig.z_min_m, rig.z_max_m])
        if lo[0, 0] > hi[0, 0]:  # x at z_min
            raise ValueError(
                "fields of view do not intersect at z_min_m "
                f"(need z_min >= {f * rig.baseline_m / (W - 1 - 2 * margin):.3g} m)"
            )
        # the bounds are linear, so the end slices hold their extremes;
        # read-only, as the volume is shared
        self._box = np.array([lo.min(axis=1), hi.max(axis=1)])
        self._box.flags.writeable = False

    def bounds(self, z):
        """The (lo, hi) corners of the slices at the depths ``z``: each is
        (3, N) for N depths, one row per axis, and (3, 1) for a scalar."""
        b = self._slopes * np.asarray(z, dtype=np.float64) + self._offsets
        return b[:3], b[3:]

    def bounding_box(self):
        """Axis-aligned (lo, hi) corners enclosing the volume, read-only."""
        return self._box[0], self._box[1]

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64)).T
        lo, hi = self.bounds(pts[2])
        inside = (pts >= lo) & (pts <= hi)
        return inside[0] & inside[1] & inside[2]

    def clamp(self, points) -> np.ndarray:
        """Clamp points onto the volume: depth first, then the slice rectangle."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        lo, hi = self.bounds(np.clip(pts[:, 2], self.rig.z_min_m, self.rig.z_max_m))
        return np.clip(pts, lo.T, hi.T)


# the volume of one (rig, margin) is reused while both compare equal, so a
# generation builds none; callers pass the margin positionally, as the
# cache keys a keyword call apart
search_volume = functools.lru_cache(maxsize=1)(SearchVolume)


def sample_points(rig: StereoRig, rng: np.random.Generator, count: int, margin: int) -> np.ndarray:
    """Draw ``count`` points uniformly over the search volume.

    Rejection sampling from the bounding box; uniform because the box
    draw is uniform and acceptance is a pure membership test.
    """
    vol = search_volume(rig, margin)
    lo, hi = vol.bounding_box()
    out = np.empty((count, 3), dtype=np.float64)
    filled = 0
    while filled < count:
        n_draw = max(256, int((count - filled) * 3.2))
        # rng.uniform(lo, hi)'s own formula and draws, off its broadcast path
        cand = lo + (hi - lo) * rng.random((n_draw, 3))
        kept = cand[vol.contains(cand)]
        take = min(kept.shape[0], count - filled)
        out[filled : filled + take] = kept[:take]
        filled += take
    return out
