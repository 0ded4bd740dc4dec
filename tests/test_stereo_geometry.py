import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flyswarm.stereo_geometry import StereoRig, project_many, sample_points, search_volume, visible_many
from flyswarm.warning import WarningParams, warning_values
from reference import project, volume_m3

# ``project`` is the scalar reference the search volume and the overlays
# are checked against; the first tests pin it to hand values


def test_on_axis_point_disparity(default_rig):
    p = project(default_rig, (0.0, 0.0, 10.0))
    assert p.left_px == (330.0, 240.0)
    assert p.right_px == (310.0, 240.0)
    assert p.visible


def test_disparity_vanishes_at_infinity(default_rig):
    p = project(default_rig, (0.0, 0.0, 1e6))
    assert p.left_px[0] == pytest.approx(320.0, abs=1e-3)
    assert p.right_px[0] == pytest.approx(320.0, abs=1e-3)
    assert p.left_px[1] == pytest.approx(240.0, abs=1e-3)
    assert p.left_px[0] - p.right_px[0] == pytest.approx(0.0, abs=1e-3)


def test_offaxis_point_hand_values(default_rig):
    # independent scalar evaluation:
    #   u_left  = 320 + 500*(1 + 0.2)/5 = 440, v = 240 - 500*0.5/5 = 190
    #   u_right = 320 + 500*(1 - 0.2)/5 = 400
    p = project(default_rig, (1.0, 0.5, 5.0))
    assert p.left_px == pytest.approx((440.0, 190.0))
    assert p.right_px == pytest.approx((400.0, 190.0))


def test_project_rejects_nonfinite(default_rig):
    with pytest.raises(ValueError):
        project(default_rig, (np.nan, 0.0, 5.0))
    with pytest.raises(ValueError):
        project(default_rig, (0.0, np.inf, 5.0))


def test_project_deterministic(default_rig):
    a = project(default_rig, (0.123, -0.456, 7.89))
    b = project(default_rig, (0.123, -0.456, 7.89))
    assert a == b


def test_behind_camera_not_visible(default_rig):
    assert not project(default_rig, (0.0, 0.0, -1.0)).visible
    assert not project(default_rig, (0.0, 0.0, 0.0)).visible


def test_point_behind_the_cameras_is_rejected_by_its_depth(default_rig):
    # through the pinhole, (0, 0, -0.5) lands inside both images, 200 px
    # either side of the centre; only its depth tells that it is behind the cameras
    u_left, u_right, v = project_many(default_rig, [[0.0, 0.0, -0.5], [0.0, 0.0, 0.5]])
    assert (u_left.tolist(), u_right.tolist(), v.tolist()) == ([120.0, 520.0], [520.0, 120.0], [240.0, 240.0])
    assert visible_many(default_rig, u_left, u_right, v, [-0.5, 0.5], margin=2).tolist() == [False, True]


def test_visibility_bounds_are_inclusive(default_rig):
    # a 2 px margin on 640x480 admits columns 2..637 and rows 2..477 in both
    # views: each coordinate on its bound is visible, one ulp past it is not
    inside = np.array([320.0, 300.0, 240.0])  # u_left, u_right, v
    for axis, (lo, hi) in enumerate([(2.0, 637.0), (2.0, 637.0), (2.0, 477.0)]):
        for bound, beyond in ((lo, -np.inf), (hi, np.inf)):
            coords = np.tile(inside, (2, 1))
            coords[:, axis] = bound, np.nextafter(bound, beyond)
            assert visible_many(default_rig, *coords.T, [5.0, 5.0], margin=2).tolist() == [True, False]
    # and in front of the cameras means a depth above 0, however small
    assert visible_many(default_rig, *np.tile(inside, (2, 1)).T, [0.0, 5e-324], margin=2).tolist() == [False, True]


_RIG = StereoRig((640, 480), 500.0, (320.0, 240.0), baseline_m=0.4)


@given(
    x=st.floats(-5, 5),
    y=st.floats(-4, 4),
    z=st.floats(1.0, 20.0),
)
def test_disparity_depth_product(x, y, z):
    # disparity * z = f * b for every point in front of the cameras
    p = project(_RIG, (x, y, z))
    disparity = p.left_px[0] - p.right_px[0]
    assert disparity > 0
    fb = _RIG.focal_length_px * _RIG.baseline_m
    assert disparity * z == pytest.approx(fb, rel=1e-9)


def test_list_principal_point_keeps_rig_hashable():
    # a list used to stay a list: the rig could not be hashed and compared
    # unequal to the same rig built from a tuple
    from_list = StereoRig([640, 480], 500.0, [320, 240], baseline_m=0.4)
    from_tuple = StereoRig((640, 480), 500.0, (320.0, 240.0), baseline_m=0.4)
    assert (from_list.image_size, from_list.principal_point) == ((640, 480), (320.0, 240.0))
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    assert search_volume(from_list, 2) is search_volume(from_tuple, 2)  # one build for both


def test_rig_validation():
    with pytest.raises(ValueError):
        StereoRig(baseline_m=-0.1)
    for z_min, z_max in ((5.0, 2.0), (5.0, 5.0), (0.0, 20.0), (-0.5, 20.0)):
        with pytest.raises(ValueError, match=re.escape(f"need 0 < z_min_m < z_max_m, got {z_min}, {z_max}")):
            StereoRig(baseline_m=0.4, z_min_m=z_min, z_max_m=z_max)
    with pytest.raises(ValueError, match="camera_height_m must be >= 0, got -0.1"):
        StereoRig(camera_height_m=-0.1)
    assert StereoRig(camera_height_m=0.0).camera_height_m == 0.0  # a camera on the ground
    with pytest.raises(ValueError):
        StereoRig(focal_length_px=-1.0)
    with pytest.raises(ValueError):
        StereoRig(principal_point=(700.0, 240.0))
    # an empty side leaves no principal point either, but the message names the side
    for w, h in ((0, 480), (640, 0)):
        with pytest.raises(ValueError, match="image dimensions must be positive"):
            StereoRig((w, h), principal_point=(0.0, 0.0))
    for u0, v0 in ((640.0, 240.0), (-0.5, 240.0), (320.0, 480.0), (320.0, -0.5)):
        side = f"u0={u0} outside [0, 640)" if v0 == 240.0 else f"v0={v0} outside [0, 480)"
        with pytest.raises(ValueError, match=re.escape(f"principal point {side}")):
            StereoRig(principal_point=(u0, v0))
    assert StereoRig((1, 1), 500.0, (0.0, 0.0)).principal_point == (0.0, 0.0)
    # a volume past the float range, or NaN, would have sample_points draw forever
    for f, reached in ((1e-308, "inf"), (np.nan, "nan")):
        with pytest.raises(ValueError, match=re.escape(f"search volume overflows: x^2 * z reaches {reached}")):
            StereoRig(focal_length_px=f)
    # the baseline is checked itself: a NaN passed `baseline_m <= 0`
    for baseline in (np.nan, np.inf, -np.inf, 0.0):
        with pytest.raises(ValueError, match=re.escape(f"baseline_m must be > 0 and finite, got {baseline}")):
            StereoRig(baseline_m=baseline)
    assert StereoRig(baseline_m=1.7976931348623157e308).baseline_m == 1.7976931348623157e308


def test_rig_keeps_a_pixel_triple_key_in_int64():
    """(v * w + u_l) * w + u_r names a pixel triple; the rig keeps w * w * h below 2**63."""
    for w, h in ((2**21, 2**21), (2**21 + 1, 2**21 - 1), (100_000_000, 100_000_000)):
        with pytest.raises(ValueError, match=re.escape(f"must be below 2**63, got {w}x{h}")):
            StereoRig((w, h), 500.0, (320.0, 240.0))
    for w, h in ((2**21, 2**21 - 1), (2**21 - 1, 2**21)):
        StereoRig((w, h), 500.0, (320.0, 240.0))
        iv, iu = np.int64([h - 1]), np.int64([w - 1])  # the largest key, in the kernel's int64 arithmetic
        assert ((iv * w + iu) * w + iu).tolist() == [w * w * h - 1]


# warnings as errors: x^2 * z, the warning's divisor, overflowed in numpy
@pytest.mark.filterwarnings("error")
def test_rig_bounds_the_warning_divisor():
    rig = StereoRig(z_max_m=1e102)  # reach 1.28e102, reach^2 * z_max 1.6e306
    points = sample_points(rig, np.random.default_rng(0), 1000, margin=2)
    points[:3] = search_volume(rig, 2).bounding_box()[0]  # a corner of the box, and so of the volume
    values = warning_values(points, np.ones(1000), np.zeros(1000, dtype=bool), WarningParams())
    assert np.all(values > 0)
    with pytest.raises(ValueError, match=r"search volume overflows: x\^2 \* z reaches inf"):
        StereoRig(z_max_m=1e103)
    # a tall image reaches as far in y as a wide one does in x; its 16 px width alone would not overflow
    with pytest.raises(ValueError, match=r"search volume overflows: x\^2 \* z reaches inf"):
        StereoRig((16, 640), 500.0, (8.0, 320.0), z_max_m=1e103)


def slice_bounds(rig, z, margin=2):
    """x_lo, x_hi, y_lo, y_hi of the volume's slice at depth z, in scalar form."""
    (w, h), f, (u0, v0), half_b = rig.image_size, rig.focal_length_px, rig.principal_point, 0.5 * rig.baseline_m
    return (
        z * ((margin - u0) / f) + half_b,
        z * ((w - 1 - margin - u0) / f) - half_b,
        z * ((v0 - (h - 1 - margin)) / f),
        z * ((v0 - margin) / f),
    )


# With the principal point within the margin of an image edge, that side's
# bound moves inward with depth, so near z_min the volume reaches past its
# z_max slice
PRINCIPAL_POINTS = {
    "centred": (320.0, 240.0),
    "u0=0": (0.0, 240.0),
    "u0=W-1": (639.0, 240.0),
    "v0=0": (320.0, 0.0),
    "v0=H-1": (320.0, 479.0),
}


@pytest.fixture(params=PRINCIPAL_POINTS.values(), ids=PRINCIPAL_POINTS)
def pp_rig(request) -> StereoRig:
    return StereoRig((640, 480), 500.0, request.param, baseline_m=0.4)


class TestSearchVolume:
    def test_symmetric_rig_symmetric_in_x(self, symmetric_rig):
        vol = search_volume(symmetric_rig, margin=2)
        for z in (1.0, 5.0, 20.0):
            (lo, _, _), (hi, _, _) = vol.bounds(z)
            assert lo == pytest.approx(-hi, rel=1e-12)

    def test_near_slice_contained_in_far_slice(self, default_rig):
        vol = search_volume(default_rig, margin=2)
        (near_lo, _, _), (near_hi, _, _) = vol.bounds(default_rig.z_min_m)
        (far_lo, _, _), (far_hi, _, _) = vol.bounds(default_rig.z_max_m)
        assert far_lo < near_lo and near_hi < far_hi
        (_, near_lo, _), (_, near_hi, _) = vol.bounds(default_rig.z_min_m)
        (_, far_lo, _), (_, far_hi, _) = vol.bounds(default_rig.z_max_m)
        assert far_lo < near_lo and near_hi < far_hi

    def test_bounds_match_visibility_scan(self, default_rig):
        # brute-force scan of project(...).visible along each axis at z=5
        vol = search_volume(default_rig, margin=2)
        z = 5.0
        xs = np.linspace(-5, 5, 4001)
        visible = np.array([project(default_rig, (x, 0.0, z)).visible for x in xs])
        (x_lo, _, _), (x_hi, _, _) = vol.bounds(z)
        step = xs[1] - xs[0]
        assert xs[visible].min() == pytest.approx(x_lo, abs=step)
        assert xs[visible].max() == pytest.approx(x_hi, abs=step)
        # derived analytic values: x_hi = 5*(640-1-2-320)/500 - 0.2 = 2.97
        assert x_hi == pytest.approx(2.97)
        assert x_lo == pytest.approx(-2.98)

    def test_contains_agrees_with_project(self, default_rig):
        vol = search_volume(default_rig, margin=2)
        rng = np.random.default_rng(7)
        lo, hi = vol.bounding_box()
        pts = rng.uniform(lo, hi, size=(2000, 3))
        member = vol.contains(pts)
        for p, m in zip(pts, member):
            expected = project(default_rig, p).visible and (
                default_rig.z_min_m <= p[2] <= default_rig.z_max_m
            )
            assert bool(m) == expected

    @pytest.mark.parametrize("v0", [240.0, 2.0, 477.0], ids=["centred", "top-plane-at-0", "bottom-plane-at-0"])
    def test_contains_at_exact_boundaries(self, v0):
        # points on each bounding plane, one float step either side of it,
        # and -0.0 on a plane at 0 (v0 = margin or H - 1 - margin puts the
        # top or bottom plane there), against the bounds in scalar form
        rig = StereoRig((640, 480), 500.0, (320.0, v0), baseline_m=0.4)

        def inside(x, y, z):
            x_lo, x_hi, y_lo, y_hi = slice_bounds(rig, z)
            return rig.z_min_m <= z <= rig.z_max_m and x_lo <= x <= x_hi and y_lo <= y <= y_hi

        def around(b):
            return [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf)]

        pts = []
        for z in (rig.z_min_m, 7.0, rig.z_max_m):
            x_lo, x_hi, y_lo, y_hi = slice_bounds(rig, z)
            x_mid, y_mid = (x_lo + x_hi) / 2, (y_lo + y_hi) / 2
            pts += [(x, y_mid, z) for x in around(x_lo) + around(x_hi)]
            pts += [(x_mid, y, z) for y in around(y_lo) + around(y_hi)]
            pts += [(x_lo, y_lo, z), (x_hi, y_hi, z)]
        pts += [(-0.0, -0.0, z) for z in around(rig.z_min_m) + around(rig.z_max_m) + [7.0]]
        expected = [inside(*p) for p in pts]
        assert search_volume(rig, margin=2).contains(np.array(pts)).tolist() == expected
        assert sum(expected) == 35  # on the plane and one step in; not one step out

    def test_clamp_lands_inside(self, default_rig):
        # a clamped point is inside the volume; its projection may pass the
        # margin by float rounding (about 6e-14 px), never by more than 1e-12
        vol = search_volume(default_rig, margin=2)
        rng = np.random.default_rng(8)
        pts = rng.uniform([-50, -50, -5], [50, 50, 50], size=(200_000, 3))
        clamped = vol.clamp(pts)
        assert vol.contains(clamped).all()
        u_left, u_right, v = project_many(default_rig, clamped)
        overshoot = np.stack([2 - u_left, u_left - 637, 2 - u_right, u_right - 637, 2 - v, v - 477])
        assert overshoot.max() <= 1e-12

    def test_volume_formula_against_grid(self, default_rig):
        # grid-based slice-area integration vs the closed form
        vol = search_volume(default_rig, margin=2)
        zs = np.linspace(default_rig.z_min_m, default_rig.z_max_m, 2001)
        (x_lo, y_lo, _), (x_hi, y_hi, _) = vol.bounds(zs)
        areas = (x_hi - x_lo) * (y_hi - y_lo)
        numeric = np.trapezoid(areas, zs) if hasattr(np, "trapezoid") else np.trapz(areas, zs)
        assert volume_m3(default_rig) == pytest.approx(numeric, rel=1e-6)

    def test_box_spans_both_end_slices(self, pp_rig):
        lo, hi = search_volume(pp_rig, margin=2).bounding_box()
        near, far = slice_bounds(pp_rig, pp_rig.z_min_m), slice_bounds(pp_rig, pp_rig.z_max_m)
        assert lo.tolist() == [min(near[0], far[0]), min(near[2], far[2]), pp_rig.z_min_m]
        assert hi.tolist() == [max(near[1], far[1]), max(near[3], far[3]), pp_rig.z_max_m]

    def test_reused_while_the_rig_is_equal(self, default_rig):
        vol = search_volume(default_rig, margin=2)
        twin = StereoRig((640, 480), 500.0, (320.0, 240.0), baseline_m=0.4)
        assert search_volume(twin, margin=2) is vol
        assert search_volume(default_rig, margin=3).margin == 3
        wider = search_volume(dataclasses.replace(twin, baseline_m=0.5), margin=2)
        assert wider.bounding_box()[0][0] != vol.bounding_box()[0][0]
        with pytest.raises(ValueError):
            vol.bounding_box()[0][0] = 0.0  # shared, so read-only

    def test_too_small_image_rejected(self):
        # a slice needs a pixel of width and of height inside the margin
        for size in ((5, 5), (5, 64), (64, 5)):
            rig = StereoRig(size, 50.0, (2.0, 2.0), baseline_m=0.4)
            with pytest.raises(ValueError, match="too small"):
                search_volume(rig, margin=2)
        assert search_volume(StereoRig((6, 6), 1.0, (2.0, 2.0), baseline_m=0.4), margin=2).margin == 2

    def test_fields_of_view_must_meet_at_z_min(self):
        # the views' x ranges meet from depth f*b/(W - 1 - 2*margin) on,
        # 0.315 m here
        K = dict(image_size=(640, 480), focal_length_px=500.0, principal_point=(0.0, 240.0))
        assert search_volume(StereoRig(**K, baseline_m=0.4, z_min_m=0.32), margin=2).margin == 2
        with pytest.raises(ValueError, match=r"do not intersect at z_min_m \(need z_min >= 0\.315 m\)"):
            search_volume(StereoRig(**K, baseline_m=0.4, z_min_m=0.3), margin=2)
        # exactly there the slice at z_min is one line, x = 0.25, and accepted
        vol = search_volume(StereoRig((640, 480), 635.0, (2.0, 240.0), baseline_m=0.5, z_min_m=0.5), margin=2)
        (x_lo, _, _), (x_hi, _, _) = vol.bounds(0.5)
        assert x_lo == x_hi == 0.25


class TestSampling:
    def test_all_samples_visible(self, pp_rig):
        rng = np.random.default_rng(0)
        pts = sample_points(pp_rig, rng, 10_000, margin=2)
        vol = search_volume(pp_rig, margin=2)
        assert vol.contains(pts).all()
        u_left, u_right, v = project_many(pp_rig, pts)
        assert visible_many(pp_rig, u_left, u_right, v, pts[:, 2], margin=2).all()
        # the draws reach wherever the volume does, past its z_max slice too
        x_lo, x_hi, y_lo, y_hi = slice_bounds(pp_rig, pp_rig.z_max_m)
        past = (pts[:, 0] < x_lo) | (pts[:, 0] > x_hi) | (pts[:, 1] < y_lo) | (pts[:, 1] > y_hi)
        assert past.any() == (pp_rig.principal_point != PRINCIPAL_POINTS["centred"])

    def test_lateral_mean_near_zero_on_symmetric_rig(self, symmetric_rig):
        rng = np.random.default_rng(1)
        pts = sample_points(symmetric_rig, rng, 100_000, margin=2)
        x = pts[:, 0]
        tol = 3.0 * x.std() / np.sqrt(x.size)
        assert abs(x.mean()) < tol

    def test_acceptance_fraction_matches_volume_ratio(self, pp_rig):
        # Monte-Carlo acceptance vs exact volume/box ratio, within 2%
        vol = search_volume(pp_rig, margin=2)
        lo, hi = vol.bounding_box()
        box_volume = float(np.prod(hi - lo))
        expected = volume_m3(pp_rig) / box_volume
        rng = np.random.default_rng(2)
        draws = rng.uniform(lo, hi, size=(200_000, 3))
        measured = vol.contains(draws).mean()
        assert measured == pytest.approx(expected, abs=0.02)

    def test_draws_match_uniform(self, default_rig):
        # the same draws and bits as rng.uniform(lo, hi) in the rejection loop
        rng, twin = np.random.default_rng(16), np.random.default_rng(16)
        got = sample_points(default_rig, rng, 700, margin=2)
        vol = search_volume(default_rig, margin=2)
        lo, hi = vol.bounding_box()
        kept = np.empty((0, 3))
        while len(kept) < 700:
            cand = twin.uniform(lo, hi, size=(max(256, int((700 - len(kept)) * 3.2)), 3))
            kept = np.concatenate([kept, cand[vol.contains(cand)]])
        assert got.tobytes() == kept[:700].tobytes()
        assert rng.random() == twin.random()

    def test_seeded_draws_reproducible(self, default_rig):
        a = sample_points(default_rig, np.random.default_rng(42), 500, margin=2)
        b = sample_points(default_rig, np.random.default_rng(42), 500, margin=2)
        assert np.array_equal(a, b)
