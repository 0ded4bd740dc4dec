"""Rectified pinhole stereo rig: batch projections and the fly search volume.

World frame convention (used everywhere in this package): origin at the
midpoint between the two optical centres, x lateral (positive toward the
right camera), y vertical (positive up), z forward along the common
optical axis. The left camera centre sits at (-baseline/2, 0, 0), the
right at (+baseline/2, 0, 0). Both cameras share the same intrinsics and
their axes are parallel (rectified rig), so a world point projects onto
the same image row in both views and its column disparity is

    x_left - x_right = focal_length_px * baseline_m / z  > 0.

Pixel coordinates are (column, row) with the origin at the top-left
pixel; y up in the world means row decreasing in the image.

A point is "visible" when its projection, padded by a margin of
``margin`` pixels (the fitness neighborhood radius), lies inside both
images. The admissible fly volume is the depth-bounded set of visible
points; at a fixed depth z it is an axis-aligned rectangle whose bounds
grow linearly with z, which makes the volume convex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Depth floor for projection math; avoids division blow-up for degenerate
# inputs. Points closer than this are never visible.
Z_FLOOR_M = 0.01


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics shared by both cameras of the rig."""

    focal_length_px: float = 500.0
    principal_point: tuple[float, float] = (320.0, 240.0)
    image_width: int = 640
    image_height: int = 480

    def __post_init__(self):
        # a tuple keeps the rig hashable and equal to one built from a list
        u0, v0 = map(float, self.principal_point)
        object.__setattr__(self, "principal_point", (u0, v0))
        if self.focal_length_px <= 0:
            raise ValueError(f"focal_length_px must be > 0, got {self.focal_length_px}")
        if self.image_width < 1 or self.image_height < 1:
            raise ValueError("image dimensions must be positive")
        if not (0 <= u0 < self.image_width):
            raise ValueError(f"principal point u0={u0} outside [0, {self.image_width})")
        if not (0 <= v0 < self.image_height):
            raise ValueError(f"principal point v0={v0} outside [0, {self.image_height})")


@dataclass(frozen=True)
class StereoRig:
    """Calibrated rectified stereo pair plus the fly depth bounds."""

    intrinsics: CameraIntrinsics = CameraIntrinsics()
    baseline_m: float = 0.4
    camera_height_m: float = 1.2
    z_min_m: float = 1.0
    z_max_m: float = 20.0

    def __post_init__(self):
        if self.baseline_m <= 0:
            raise ValueError(f"baseline_m must be > 0, got {self.baseline_m}")
        if self.camera_height_m < 0:
            raise ValueError(f"camera_height_m must be >= 0, got {self.camera_height_m}")
        if not (0 < self.z_min_m < self.z_max_m):
            raise ValueError(f"need 0 < z_min_m < z_max_m, got {self.z_min_m}, {self.z_max_m}")


def project_many(rig: StereoRig, points: np.ndarray):
    """Vectorized projection. Returns (u_left, u_right, v) float arrays.

    Rows are shared between the two views on a rectified rig, so a single
    v array is returned. Depths below the floor are clamped; pair with
    :func:`visible_many` to reject such points.
    """
    pts = np.asarray(points, dtype=np.float64)
    K = rig.intrinsics
    f = K.focal_length_px
    u0, v0 = K.principal_point
    half_b = 0.5 * rig.baseline_m
    x = pts[:, 0]
    y = pts[:, 1]
    z = np.maximum(pts[:, 2], Z_FLOOR_M)
    u_left = u0 + f * (x + half_b) / z
    u_right = u0 + f * (x - half_b) / z
    v = v0 - f * y / z
    return u_left, u_right, v


def visible_many(rig: StereoRig, u_left, u_right, v, z, margin: int):
    """True where a point is in front of the cameras (z at or above the
    depth floor) and its projection, padded by ``margin`` pixels, lies
    inside both images."""
    K = rig.intrinsics
    u_hi = K.image_width - 1 - margin
    v_hi = K.image_height - 1 - margin
    return (
        (np.asarray(z) >= Z_FLOOR_M)
        & (u_left >= margin) & (u_left <= u_hi)
        & (u_right >= margin) & (u_right <= u_hi)
        & (v >= margin) & (v <= v_hi)
    )


class SearchVolume:
    """Depth-bounded intersection of the two fields of view.

    At depth z the admissible set is the rectangle
    [x_lo(z), x_hi(z)] x [y_lo(z), y_hi(z)], all bounds linear in z:

        x_lo(z) = z * (margin - u0) / f + b/2
        x_hi(z) = z * (W - 1 - margin - u0) / f - b/2
        y_lo(z) = z * (v0 - (H - 1 - margin)) / f
        y_hi(z) = z * (v0 - margin) / f

    These invert the visibility rule of :func:`visible_many` (plus
    ``z_min <= z <= z_max``) algebraically, not bit for bit: a point on a
    bound, as :meth:`clamp` makes, is inside here while its projection
    may pass the margin by float rounding (under 1e-12 px), which
    :func:`visible_many` rejects.
    """

    def __init__(self, rig: StereoRig, margin: int):
        K = rig.intrinsics
        if K.image_width - 1 - 2 * margin <= 0 or K.image_height - 1 - 2 * margin <= 0:
            raise ValueError(f"images too small for a {margin} px visibility margin")
        f = K.focal_length_px
        u0, v0 = K.principal_point
        self.rig = rig
        self.margin = margin
        # x_lo, y_lo, x_hi, y_hi at depth z are z * slope + offset
        H, W = K.image_height, K.image_width
        self._slopes = np.array([margin - u0, v0 - (H - 1 - margin), W - 1 - margin - u0, v0 - margin]) / f
        half_b = 0.5 * rig.baseline_m
        self._offsets = np.array([half_b, 0.0, -half_b, 0.0])
        if self.x_bounds(rig.z_min_m)[0] > self.x_bounds(rig.z_min_m)[1]:
            raise ValueError(
                "fields of view do not intersect at z_min_m "
                f"(need z_min >= {f * rig.baseline_m / (K.image_width - 1 - 2 * margin):.3f} m)"
            )
        # the widest slice is at z_max; read-only, as the volume is shared
        (x_lo, x_hi), (y_lo, y_hi) = self.x_bounds(rig.z_max_m), self.y_bounds(rig.z_max_m)
        self._box = np.array([[x_lo, y_lo, rig.z_min_m], [x_hi, y_hi, rig.z_max_m]])
        self._box.flags.writeable = False

    def x_bounds(self, z):
        z = np.asarray(z, dtype=np.float64)
        return z * self._slopes[0] + self._offsets[0], z * self._slopes[2] + self._offsets[2]

    def y_bounds(self, z):
        z = np.asarray(z, dtype=np.float64)
        return z * self._slopes[1], z * self._slopes[3]

    def bounding_box(self):
        """Axis-aligned (lo, hi) corners enclosing the volume, read-only."""
        return self._box[0], self._box[1]

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        xy, z = pts.T[:2], pts[:, 2]
        bounds = self._slopes[:, None] * z + self._offsets[:, None]
        inside = (xy >= bounds[:2]) & (xy <= bounds[2:])
        return inside[0] & inside[1] & (z >= self.rig.z_min_m) & (z <= self.rig.z_max_m)

    def clamp(self, points) -> np.ndarray:
        """Clamp points onto the volume: depth first, then the slice rectangle."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64)).copy()
        z = np.clip(pts[:, 2], self.rig.z_min_m, self.rig.z_max_m)
        x_lo, x_hi = self.x_bounds(z)
        y_lo, y_hi = self.y_bounds(z)
        pts[:, 0] = np.clip(pts[:, 0], x_lo, x_hi)
        pts[:, 1] = np.clip(pts[:, 1], y_lo, y_hi)
        pts[:, 2] = z
        return pts


_last_volume: SearchVolume | None = None


def search_volume(rig: StereoRig, margin: int) -> SearchVolume:
    """The volume of ``(rig, margin)``; the last one built is reused while
    the rig compares equal, so a generation builds none."""
    global _last_volume
    vol = _last_volume
    if vol is None or vol.margin != margin or vol.rig != rig:
        vol = _last_volume = SearchVolume(rig, margin)
    return vol


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
