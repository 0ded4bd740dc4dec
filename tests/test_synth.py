import dataclasses
import warnings

import numpy as np
import pytest

from flyswarm.imaging import save_pnm
from flyswarm.synth import (
    Scene,
    TexturedRect,
    ground_truth_depth,
    preset_scene,
    render_stereo_pair,
)


def test_empty_scene_is_uniform(default_rig):
    scene = Scene(background_grey=135)
    left, right = render_stereo_pair(scene, default_rig)
    assert np.all(left.samples == 135)
    assert np.all(right.samples == 135)


def test_rendering_deterministic(default_rig, pedestrian_scene):
    a = render_stereo_pair(pedestrian_scene, default_rig)
    b = render_stereo_pair(pedestrian_scene, default_rig)
    assert save_pnm(a[0]) == save_pnm(b[0])
    assert save_pnm(a[1]) == save_pnm(b[1])


def test_rect_bounding_boxes_shifted_by_disparity(default_rig):
    # single rect at z=5 on the axis: its left-image footprint sits
    # f*b/z = 40 px to the right of its right-image footprint
    rect = TexturedRect(center=(0.0, 0.0, 5.0), width_m=1.0, height_m=0.8, texture_seed=9)
    scene = Scene(obstacles=(rect,), background_grey=135)
    left, right = render_stereo_pair(scene, default_rig)
    lmask = left.samples != 135
    rmask = right.samples != 135
    lcols = np.where(lmask.any(axis=0))[0]
    rcols = np.where(rmask.any(axis=0))[0]
    assert lcols.min() == rcols.min() + 40
    assert lcols.max() == rcols.max() + 40
    lrows = np.where(lmask.any(axis=1))[0]
    rrows = np.where(rmask.any(axis=1))[0]
    assert np.array_equal(lrows, rrows)


def test_surface_point_photo_consistent(default_rig):
    # a point on the rect surface looks identical from both cameras
    rect = TexturedRect(center=(0.0, 0.0, 5.0), width_m=1.0, height_m=0.8, texture_seed=9)
    scene = Scene(obstacles=(rect,), background_grey=135)
    left, right = render_stereo_pair(scene, default_rig)
    from reference import project

    p = project(default_rig, (0.07, 0.11, 5.0))
    xl, yl = int(np.rint(p.left_px[0])), int(np.rint(p.left_px[1]))
    xr, yr = int(np.rint(p.right_px[0])), int(np.rint(p.right_px[1]))
    assert left.samples[yl, xl] == right.samples[yr, xr]


def test_photo_consistency_rate(session_rig, pedestrian_scene, pedestrian_pair):
    # sample surface points through left-pixel rays across the obstacle
    # interior; cell-boundary pixels may disagree, but only rarely
    left, right = pedestrian_pair
    rect = pedestrian_scene.obstacles[0]
    K = session_rig.intrinsics
    f, (u0, v0) = K.focal_length_px, K.principal_point
    cx, cy, cz = rect.center
    cam_x = -session_rig.baseline_m / 2
    disparity = f * session_rig.baseline_m / cz
    assert disparity == int(disparity)  # preset is built on integer disparity
    u_lo = int(np.ceil(u0 + f * (cx - rect.width_m / 2 + session_rig.baseline_m / 2) / cz)) + 1
    u_hi = int(np.floor(u0 + f * (cx + rect.width_m / 2 + session_rig.baseline_m / 2) / cz)) - 1
    v_lo = int(np.ceil(v0 - f * (cy + rect.height_m / 2) / cz)) + 1
    v_hi = int(np.floor(v0 - f * (cy - rect.height_m / 2) / cz)) - 1
    rng = np.random.default_rng(12)
    us = rng.integers(u_lo, u_hi + 1, size=10_000)
    vs = rng.integers(v_lo, v_hi + 1, size=10_000)
    lvals = left.samples[vs, us]
    rvals = right.samples[vs, us - int(disparity)]
    assert np.mean(lvals == rvals) >= 0.99


def test_nearer_rect_occludes(default_rig):
    near = TexturedRect(center=(0.0, 0.0, 4.0), width_m=0.5, height_m=0.5, texture_seed=1)
    far = TexturedRect(center=(0.0, 0.0, 6.0), width_m=0.5, height_m=0.5, texture_seed=2)
    scene_near_first = Scene(obstacles=(near, far), background_grey=10)
    scene_far_first = Scene(obstacles=(far, near), background_grey=10)
    a, _ = render_stereo_pair(scene_near_first, default_rig)
    b, _ = render_stereo_pair(scene_far_first, default_rig)
    assert np.array_equal(a.samples, b.samples)


def test_ground_rows_textured(default_rig):
    scene = Scene(ground_texture_seed=5, background_grey=135)
    left, _ = render_stereo_pair(scene, default_rig)
    v0 = default_rig.intrinsics.principal_point[1]
    assert np.all(left.samples[: int(v0)] == 135)  # above horizon
    bottom = left.samples[-1]
    assert bottom.min() != bottom.max()  # textured
    # a camera 0.3 m up meets the road under a metre away in its bottom rows
    low, _ = render_stereo_pair(scene, dataclasses.replace(default_rig, camera_height_m=0.3))
    assert low.samples[-1].min() != low.samples[-1].max()


class TestGroundTruthDepth:
    def test_inside_rect(self):
        rect = TexturedRect(center=(0.0, 0.0, 5.0), width_m=1.0, height_m=1.0, texture_seed=0)
        scene = Scene(obstacles=(rect,))
        # the edges are inside, as in the renderer
        for x, y in [(0.2, -0.3), (0.5, 0.0), (0.0, -0.5)]:
            assert ground_truth_depth(scene, (x, y, 1.0)) == 5.0

    def test_outside_everything(self):
        rect = TexturedRect(center=(0.0, 0.0, 5.0), width_m=1.0, height_m=1.0, texture_seed=0)
        scene = Scene(obstacles=(rect,))
        for x, y in [(3.0, 0.0), (-3.0, 0.0), (0.0, 3.0), (0.0, -3.0)]:
            assert ground_truth_depth(scene, (x, y, 1.0)) is None
        assert ground_truth_depth(Scene(ground_texture_seed=1), (0.0, 0.0, 1.0)) is None

    def test_point_is_read_as_x_then_y(self):
        rect = TexturedRect(center=(0.0, 1.0, 5.0), width_m=1.0, height_m=1.0, texture_seed=0)
        scene = Scene(obstacles=(rect,))
        assert ground_truth_depth(scene, (0.0, 1.0, 1.0)) == 5.0
        assert ground_truth_depth(scene, (1.0, 0.0, 1.0)) is None

    def test_overlapping_rects_nearest_wins(self):
        a = TexturedRect(center=(0.0, 0.0, 6.0), width_m=1.0, height_m=1.0, texture_seed=0)
        b = TexturedRect(center=(0.0, 0.0, 4.0), width_m=1.0, height_m=1.0, texture_seed=0)
        scene = Scene(obstacles=(a, b))
        assert ground_truth_depth(scene, (0.0, 0.0, 1.0)) == 4.0


def test_rendering_raises_no_numpy_warning(default_rig, pedestrian_scene):
    # the ray of row v0 = 240 is level, and dividing the camera height by
    # its zero slope would warn on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        render_stereo_pair(pedestrian_scene, default_rig)


def test_preset_names(default_rig):
    empty = preset_scene("empty-road", default_rig)
    assert not empty.obstacles and empty.ground_texture_seed is not None
    ped = preset_scene("pedestrian-4m", default_rig)
    assert len(ped.obstacles) == 1
    rect = ped.obstacles[0]
    assert rect.center[2] == 4.0
    assert (rect.width_m, rect.height_m) == (0.5, 1.7)
    # standing on the road surface
    assert rect.center[1] - rect.height_m / 2 == pytest.approx(-default_rig.camera_height_m)
    with pytest.raises(ValueError):
        preset_scene("nope", default_rig)


def test_texture_range_leaves_shift_headroom(pedestrian_pair):
    left, right = pedestrian_pair
    assert int(left.samples.max()) <= 230
    assert int(right.samples.max()) <= 230
