import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flyswarm.imaging import save_pnm
from flyswarm.stereo_geometry import CameraIntrinsics, StereoRig
from flyswarm.synth import (
    BAND_ROWS,
    Scene,
    TexturedRect,
    _paint,
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


rects = st.builds(
    TexturedRect,
    center=st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(0.5, 10)),
    width_m=st.floats(0.1, 3),
    height_m=st.floats(0.1, 3),
    texture_seed=st.integers(0, 2**31),
    texture_cell_m=st.floats(0.01, 0.2),
)


@given(
    width=st.integers(1, 40),
    height=st.integers(1, 3 * BAND_ROWS + 7),
    rows=st.data(),
    focal=st.floats(10, 400),
    baseline=st.floats(0.05, 1),
    camera_height=st.floats(0, 3),
    obstacles=st.lists(rects, max_size=3),
    ground=st.none() | st.integers(0, 1000),
)
def test_a_crop_renders_the_same_rows(width, height, rows, focal, baseline, camera_height, obstacles, ground):
    # bands start at row 0 of each rig, so the crop's band edges fall on
    # other rows of the full image than its own; principal points on a
    # quarter pixel keep v0 - r0 exact
    r0 = rows.draw(st.integers(0, height - 1))
    r1 = rows.draw(st.integers(r0 + 1, height))
    v0 = rows.draw(st.integers(4 * r0, 4 * r1 - 1)) / 4
    u0 = rows.draw(st.integers(0, 4 * width - 1)) / 4
    scene = Scene(obstacles=tuple(obstacles), ground_texture_seed=ground)

    def rendered(r0, r1, v0):
        rig = StereoRig(CameraIntrinsics(focal, (u0, v0), width, r1 - r0), baseline, camera_height)
        return [image.samples for image in render_stereo_pair(scene, rig)]

    full, crop = rendered(0, height, v0), rendered(r0, r1, v0 - r0)
    for whole, part in zip(full, crop):
        assert np.array_equal(whole[r0:r1], part)


# a cell index names an int64 cell or raises: 2**63 - 1024 is the largest
# float below 2**63, and -2**63 - 2048 the next float below -2**63
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "coord, fits",
    [(-(2.0**63), True), (2.0**63 - 1024, True), (2.0**63, False), (-(2.0**63) - 2048, False)]
    + [(v, False) for v in (np.inf, -np.inf, np.nan)],
)
@pytest.mark.parametrize("axis", [0, 1])
def test_paint_takes_exactly_the_int64_cells(coord, fits, axis):
    img, zbuf = np.zeros((1, 2), np.uint8), np.full((1, 2), np.inf)
    a, b = np.array([[coord, 3.0]]), np.array([[3.0, 3.0]])
    args = (img, zbuf, 1.0, *((a, b) if axis == 0 else (b, a)), 1.0, 7, np.ones((1, 2), bool))
    if fits:
        _paint(*args)
        assert np.all(img >= 16) and np.all(zbuf == 1.0)
    else:
        with pytest.raises(ValueError, match="beyond 2\\*\\*63 texture cells of 1.0 m"):
            _paint(*args)


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
