import dataclasses
import gc
import time
import weakref

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import colour_pair, window_fitness
from flyswarm import evolution
from flyswarm.evolution import (
    EvolutionParams,
    Population,
    StereoFrame,
    Swarm,
    _offspring_counts,
    apply_sharing,
    crossover,
    elite,
    evaluate_population,
    mutate,
    select,
    select_and_refill,
    survivor_count,
)
from flyswarm.imaging import Image, load_pnm, save_pnm
from flyswarm.stereo_geometry import CameraIntrinsics, SearchVolume, StereoRig, project_many, sample_points, search_volume
from flyswarm.synth import Scene, TexturedRect, render_stereo_pair
from flyswarm.warning import WarningParams
from reference import naive_fitness, project, sobel_norm_map


def fitness_of(positions, frame, rig, params) -> np.ndarray:
    pop = Population(np.atleast_2d(np.asarray(positions, dtype=np.float64)))
    evaluate_population(pop, frame, rig, params)
    return pop.raw_fitness


class TestFitness:
    def test_uniform_region_scores_zero(self, default_rig, default_params):
        flat = Image(np.full((480, 640), 90, dtype=np.uint8))
        frame = StereoFrame(flat, flat)
        assert fitness_of([0.0, 0.0, 5.0], frame, default_rig, default_params).tolist() == [0.0]

    def test_invisible_scores_zero(self, default_rig, default_params, pedestrian_frame):
        position = [50.0, 0.0, 2.0]  # far outside both fields of view
        assert not project(default_rig, position).visible
        assert fitness_of(position, pedestrian_frame, default_rig, default_params).tolist() == [0.0]

    def test_identical_windows_hit_epsilon_floor(self, default_rig, default_params):
        # right image is the left shifted by the fly's pixel disparity, so
        # the windows match exactly and F = g_l * g_r / epsilon
        rng = np.random.default_rng(0)
        base = rng.integers(0, 256, size=(480, 700), dtype=np.uint8)
        position = [0.0, 0.0, 10.0]  # disparity f*b/z = 20 px
        left = Image(base[:, :640])
        right = Image(base[:, 20 : 640 + 20])
        gl, gr = sobel_norm_map(left), sobel_norm_map(right)
        [got] = fitness_of(position, StereoFrame(left, right), default_rig, default_params)
        p = project(default_rig, position)
        g1 = gl.norms[int(np.rint(p.left_px[1])), int(np.rint(p.left_px[0]))]
        g2 = gr.norms[int(np.rint(p.right_px[1])), int(np.rint(p.right_px[0]))]
        assert g1 > 0
        assert got == pytest.approx(g1 * g2 / default_params.fitness_epsilon, rel=1e-12)

    def test_on_surface_beats_displaced(self, session_rig, default_params, pedestrian_scene, pedestrian_frame):
        rect = pedestrian_scene.obstacles[0]
        rng = np.random.default_rng(1)
        x = rng.uniform(-rect.width_m / 2 + 0.05, rect.width_m / 2 - 0.05, 80)
        y = rect.center[1] + rng.uniform(-rect.height_m / 2 + 0.2, rect.height_m / 2 - 0.2, 80)
        on = fitness_of(np.column_stack([x, y, np.full(80, 4.0)]), pedestrian_frame, session_rig, default_params)
        off = fitness_of(np.column_stack([x, y, np.full(80, 5.0)]), pedestrian_frame, session_rig, default_params)
        textured = on > 0.0  # the others landed on a flat texture cell
        assert np.all(on[textured] > off[textured])
        assert textured.sum() >= 20

    def test_batch_matches_scalar_and_naive(self, session_rig, default_params, pedestrian_pair):
        # naive_fitness is the scalar, one-fly-at-a-time oracle
        rng = np.random.default_rng(2)
        pts = sample_points(session_rig, rng, 300, margin=default_params.neighborhood_radius)
        for left, right in (pedestrian_pair, colour_pair(pedestrian_pair)):
            got = fitness_of(pts, StereoFrame(left, right), session_rig, default_params)
            assert np.count_nonzero(got) >= 100
            grad_left, grad_right = sobel_norm_map(left), sobel_norm_map(right)
            for i in range(len(pts)):
                oracle = naive_fitness(pts[i], left, right, grad_left, grad_right, session_rig, default_params)
                assert got[i] == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize(
        "frame_size, rig_size", [((320, 240), (640, 480)), ((640, 480), (320, 240))], ids=["smaller-frame", "larger-frame"]
    )
    def test_frame_of_another_size_than_the_rig_is_rejected(self, frame_size, rig_size):
        # the flies project onto the rig's raster: a smaller frame ended in
        # an IndexError, a larger one in a run that read the wrong pixels
        (w, h), (rig_w, rig_h) = frame_size, rig_size
        image = Image(np.random.default_rng(5).integers(0, 256, (h, w), dtype=np.uint8))
        rig = StereoRig(CameraIntrinsics(rig_w * 500 / 640, (rig_w / 2, rig_h / 2), rig_w, rig_h), baseline_m=0.4)
        swarm = Swarm(rig, EvolutionParams(population_size=200))
        swarm.feed(image, image)
        with pytest.raises(ValueError, match=f"left image is {w}x{h} but the rig expects {rig_w}x{rig_h}"):
            swarm.step()

    def test_fly_near_the_depth_floor_is_scored(self, default_params):
        # a 5 mm baseline puts the fields of view together from 3.9 mm, so
        # the volume admits flies at 15 mm and at 8 mm; the rig's z_min_m is
        # the only depth floor, and a fixed 10 mm one once scored the second 0
        rig = StereoRig(baseline_m=0.005, z_min_m=0.005)
        positions = [[0.0, 0.0, 0.015], [0.0, 0.0, 0.008]]
        assert search_volume(rig, margin=2).contains(positions).all()
        rng = np.random.default_rng(6)
        left, right = (Image(rng.integers(0, 256, (480, 640), dtype=np.uint8)) for _ in range(2))
        got = fitness_of(positions, StereoFrame(left, right), rig, default_params)
        grads = sobel_norm_map(left), sobel_norm_map(right)
        assert got.tolist() == [naive_fitness(p, left, right, *grads, rig, default_params) for p in positions]
        assert (got > 0).all()

    def test_intensity_shift_leaves_fitness(self, session_rig, default_params, pedestrian_pair):
        left, right = pedestrian_pair
        shifted_l = Image(left.samples + 25)
        shifted_r = Image(right.samples + 25)
        rng = np.random.default_rng(4)
        pop = Population(sample_points(session_rig, rng, 1000, margin=2))
        evaluate_population(pop, StereoFrame(left, right), session_rig, default_params)
        base = pop.raw_fitness.copy()
        evaluate_population(pop, StereoFrame(shifted_l, shifted_r), session_rig, default_params)
        np.testing.assert_allclose(pop.raw_fitness, base, rtol=1e-12)


class TestFitnessKernel:
    """The per-fly fitness kernel, which reads the gradient and the SSD
    from one window per view, against the full-frame reference
    ``sobel_norm_map`` and an integer SSD, bit for bit."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        height=st.integers(3, 12),
        width=st.integers(3, 12),
        channels=st.sampled_from([1, 3]),
        radius=st.integers(0, 3),
        # right column, disparity, row; half-pixel steps hit the border and
        # the rounding ties exactly, and the range reaches off the image
        centres=st.lists(
            st.tuples(
                st.one_of(st.integers(-6, 30).map(lambda k: k / 2), st.floats(-3.0, 15.0)),
                st.one_of(st.integers(1, 24).map(lambda k: k / 2), st.floats(0.5, 12.0)),
                st.one_of(st.integers(-6, 30).map(lambda k: k / 2), st.floats(-3.0, 15.0)),
            ),
            max_size=40,
        ),
    )
    # windows that end on the last sample of the frame, in both views: at
    # radius 0 the window is 3x3 around (7, 5), at radius 3 7x7 around (5, 3)
    @example(seed=0, height=7, width=9, channels=1, radius=0, centres=[(6.75, 0.5, 5.0)])
    @example(seed=0, height=7, width=9, channels=3, radius=0, centres=[(6.75, 0.5, 5.0)])
    @example(seed=0, height=7, width=9, channels=1, radius=3, centres=[(4.75, 0.25, 3.0)])
    @example(seed=0, height=7, width=9, channels=3, radius=3, centres=[(4.75, 0.25, 3.0)])
    @example(seed=0, height=7, width=9, channels=3, radius=2, centres=[])
    def test_any_centre_matches_reference_oracle(self, seed, height, width, channels, radius, centres):
        rng = np.random.default_rng(seed)
        shape = (height, width) if channels == 1 else (height, width, 3)
        left, right = (Image(rng.integers(0, 256, shape, dtype=np.uint8)) for _ in range(2))
        # focal length 100 px, baseline 1 m, principal point at the origin
        rig = StereoRig(CameraIntrinsics(100.0, (0.0, 0.0), width, height), baseline_m=1.0)
        u_right, disparity, v = np.array(centres).reshape(-1, 3).T  # no centres: no rows to score
        z = 100.0 / disparity
        pts = np.column_stack([(u_right + disparity) * z / 100.0 - 0.5, -v * z / 100.0, z])
        params = EvolutionParams(neighborhood_radius=radius)
        got = fitness_of(pts, StereoFrame(left, right), rig, params)
        gl, gr = sobel_norm_map(left), sobel_norm_map(right)
        assert got.tolist() == [naive_fitness(p, left, right, gl, gr, rig, params) for p in pts]

    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_fitness_bit_identical_to_reference(self, session_rig, pedestrian_pair, radius):
        rng = np.random.default_rng(radius)
        noise = tuple(Image(rng.integers(0, 256, (480, 640, 3), dtype=np.uint8)) for _ in range(2))
        params = EvolutionParams(neighborhood_radius=radius)
        pts = sample_points(session_rig, rng, 150, margin=0)
        for left, right in (pedestrian_pair, colour_pair(pedestrian_pair), noise):
            got = fitness_of(pts, StereoFrame(left, right), session_rig, params)
            gl, gr = sobel_norm_map(left), sobel_norm_map(right)
            expected = [naive_fitness(p, left, right, gl, gr, session_rig, params) for p in pts]
            assert np.count_nonzero(got) >= 50
            assert got.tolist() == expected

    @pytest.mark.parametrize("channels, radius", [(1, 91), (3, 52)])
    def test_ssd_past_int32_matches_reference(self, channels, radius):
        # the first radius whose window SSD can pass 2**31: on 2 px stripes
        # and their inverse, a disparity that is a multiple of the 4 px
        # period makes every sample differ by 255
        stripes = np.tile(np.repeat(np.uint8([0, 255]), 2), (420, 105))
        if channels == 3:
            stripes = np.repeat(stripes[:, :, None], 3, axis=2)
        left, right = Image(stripes), Image(255 - stripes)
        rig = StereoRig(CameraIntrinsics(100.0, (0.0, 0.0), 420, 420), baseline_m=1.0)
        u_left, disparity, v = np.array([(200.0, 4.0, 200.0), (250.0, 8.0, 150.0), (300.0, 12.0, 260.0)]).T
        z = 100.0 / disparity
        pts = np.column_stack([u_left * z / 100.0 - 0.5, -v * z / 100.0, z])
        params = EvolutionParams(neighborhood_radius=radius)
        got = fitness_of(pts, StereoFrame(left, right), rig, params)
        gl, gr = sobel_norm_map(left), sobel_norm_map(right)
        assert got.tolist() == [naive_fitness(p, left, right, gl, gr, rig, params) for p in pts]
        assert (got > 0).all()

    def test_border_centre_scores_zero_at_radius_zero(self):
        # a fly whose rounded centre lies on the 1 px border is visible at
        # radius 0, but the reference map is 0 there
        rng = np.random.default_rng(13)
        a = Image(rng.integers(0, 256, (6, 8), dtype=np.uint8))
        centres = [((7, 3), (2, 3)), ((4, 0), (1, 0)), ((5, 5), (3, 5)), ((3, 2), (0, 2)), ((5, 3), (2, 3))]
        got = window_fitness(a, a, centres, 0)
        assert got[:4].tolist() == [0.0, 0.0, 0.0, 0.0]
        assert got[4] > 0

    def test_repeated_evaluation_identical(self, session_rig, default_params, pedestrian_pair):
        pts = sample_points(session_rig, np.random.default_rng(14), 2000, margin=2)
        frame = StereoFrame(*pedestrian_pair)
        first = fitness_of(pts, frame, session_rig, default_params).copy()
        again = fitness_of(pts, frame, session_rig, default_params)
        assert first.tobytes() == again.tobytes()

    @pytest.mark.parametrize("shape", [(2, 5), (5, 2), (1, 1)])
    def test_images_under_3x3_rejected(self, shape):
        img = Image(np.zeros(shape, dtype=np.uint8))
        with pytest.raises(ValueError, match="at least 3x3"):
            StereoFrame(img, img)


class TestScoreCache:
    """Survivors keep their raw fitness while the frame, rig, radius and
    epsilon stay the same; every other row is scored again."""

    def test_only_rows_after_the_survivors_are_scored(self, monkeypatch, session_rig, pedestrian_pair):
        projected = []

        def recording(rig, points):
            projected.append(len(points))
            return project_many(rig, points)

        monkeypatch.setattr(evolution, "project_many", recording)
        params = EvolutionParams()
        rng = np.random.default_rng(21)
        pop = Population.initialize(session_rig, params, rng)
        n, s = len(pop), survivor_count(params.selection_ratio, len(pop))

        def rows_scored(target, frame, rig=session_rig, params=params):
            """Rows ``evaluate_population`` projects; its scores must equal
            a full evaluation of a fresh twin, bit for bit."""
            del projected[:]
            evaluate_population(target, frame, rig, params)
            rows = sum(projected)
            twin = Population(target.positions)
            evaluate_population(twin, frame, rig, params)
            assert target.raw_fitness.tobytes() == twin.raw_fitness.tobytes()
            return rows

        def refill():
            apply_sharing(pop, session_rig, params)
            select_and_refill(pop, session_rig, params, rng)

        frame = StereoFrame(*pedestrian_pair)
        assert rows_scored(pop, frame) == n
        assert rows_scored(pop, frame) == 0
        refill()
        assert rows_scored(pop, frame) == n - s == 3000
        refill()
        # a wider second selection also keeps 1000 children that were never scored
        apply_sharing(pop, session_rig, params)
        select_and_refill(pop, session_rig, EvolutionParams(selection_ratio=0.6), rng)
        assert rows_scored(pop, frame) == n - s
        refill()
        assert rows_scored(pop, StereoFrame(*pedestrian_pair)) == n  # equal pixels, new frame
        refill()
        inverted = StereoFrame(*(Image(255 - img.samples) for img in pedestrian_pair))
        assert rows_scored(pop, inverted) == n
        refill()
        assert rows_scored(pop, inverted, params=EvolutionParams(fitness_epsilon=2.0)) == n
        refill()
        assert rows_scored(pop, inverted, params=EvolutionParams(neighborhood_radius=3)) == n
        refill()
        assert rows_scored(pop, inverted, rig=dataclasses.replace(session_rig, baseline_m=0.5)) == n
        assert rows_scored(Population(pop.positions), inverted) == n

    def test_colour_frame_with_no_rows_left_to_score(self, session_rig, pedestrian_pair):
        # selection_ratio 1 keeps every fly, so from the second generation
        # on the same frame no row is left to score
        params = EvolutionParams(population_size=300, selection_ratio=1.0, rng_seed=22)
        swarm = Swarm(session_rig, params)
        swarm.feed(*colour_pair(pedestrian_pair))
        for _ in range(3):
            swarm.step()
        swarm.evaluate()
        pop = swarm.population
        assert pop.scored_rows == len(pop)
        twin = Population(pop.positions)
        evaluate_population(twin, swarm.frame, session_rig, params)
        assert np.count_nonzero(twin.raw_fitness) >= 50
        assert pop.raw_fitness.tobytes() == twin.raw_fitness.tobytes()

    def _rows_scored_per_step(self, monkeypatch, swarm, pairs):
        """Feed each pair and step once; the rows scored in each step."""
        scored = []
        raw_fitness = evolution._raw_fitness

        def recording(positions, *args):
            scored.append(len(positions))
            return raw_fitness(positions, *args)

        monkeypatch.setattr(evolution, "_raw_fitness", recording)
        for pair in pairs:
            swarm.feed(*pair)
            swarm.step()
        return scored

    def test_feed_keeps_the_frame_of_a_pair_with_equal_pixels(self, monkeypatch, session_rig, pedestrian_pair):
        swarm = Swarm(session_rig, EvolutionParams(rng_seed=23))
        swarm.feed(*pedestrian_pair)
        frame = swarm.frame
        decoded = tuple(load_pnm(save_pnm(img)) for img in pedestrian_pair)  # new images, equal pixels
        scored = self._rows_scored_per_step(monkeypatch, swarm, [pedestrian_pair, decoded, decoded])
        n, s = len(swarm.population), survivor_count(swarm.params.selection_ratio, len(swarm.population))
        assert swarm.frame is frame
        assert scored == [n, n - s, n - s]

    @pytest.mark.parametrize("changed", [0, 1], ids=["left", "right"])
    def test_feed_rebuilds_the_frame_when_pixels_change(self, monkeypatch, session_rig, pedestrian_pair, changed):
        swarm = Swarm(session_rig, EvolutionParams(rng_seed=24))
        swarm.feed(*pedestrian_pair)
        frame = swarm.frame
        other = list(pedestrian_pair)
        other[changed] = Image(255 - other[changed].samples)
        scored = self._rows_scored_per_step(monkeypatch, swarm, [pedestrian_pair, other])
        assert swarm.frame is not frame
        assert (swarm.frame.left, swarm.frame.right) == tuple(other)
        assert scored == [len(swarm.population)] * 2


class TestSharing:
    def test_alone_keeps_raw(self, default_rig, default_params):
        pos = np.array([[0.0, 0.0, 5.0], [1.5, 0.5, 9.0]])
        pop = Population(pos)
        pop.raw_fitness[:] = (6.0, 10.0)
        apply_sharing(pop, default_rig, default_params)
        assert pop.shared_fitness.tolist() == [6.0, 10.0]

    def test_four_in_a_cell_quartered(self, default_rig, default_params):
        pop = Population(np.tile([0.0, 0.0, 5.0], (4, 1)))
        pop.raw_fitness[:] = 8.0
        apply_sharing(pop, default_rig, default_params)
        assert np.all(pop.shared_fitness == 2.0)

    def test_conservation_against_cell_oracle(self, default_rig, default_params, pedestrian_frame):
        # independent grouping oracle on the unbounded grid: occupancy *
        # shared == raw for every fly, so summing occupancy * shared
        # recovers the raw total
        rng = np.random.default_rng(5)
        blocks = []
        raws = []
        for _ in range(40):
            count = int(rng.integers(1, 6))
            centre = sample_points(default_rig, rng, 1, margin=2)[0]
            blocks += [centre] * count
            raws += [float(rng.uniform(1, 9))] * count
        # flies outside the volume: far off every side of the image, just
        # past the left edge of one or both images, and beyond z_max (which
        # projects inside them)
        outside = [
            [-60.0, 0.0, 2.0], [-80.0, 0.5, 3.0], [60.0, 0.0, 2.0], [0.0, 30.0, 2.0], [0.0, -30.0, 2.0],
            [1e6, 1e6, 1.0], [-1.35, 0.0, 2.0], [-1.492, 0.0, 2.0], [0.0, 0.0, 60.0],
        ]
        pop = Population(np.array(blocks + outside))
        evaluate_population(pop, pedestrian_frame, default_rig, default_params)
        assert np.all(pop.raw_fitness[len(blocks) : -1] == 0.0)  # off the image
        pop.raw_fitness[: len(blocks)] = raws
        apply_sharing(pop, default_rig, default_params)
        cell_of = {}
        for i in range(len(pop)):
            p = project(default_rig, pop.positions[i])
            cell = (
                int(np.rint(p.left_px[0])) // default_params.sharing_cell_px,
                int(np.rint(p.left_px[1])) // default_params.sharing_cell_px,
            )
            cell_of.setdefault(cell, []).append(i)
        total = 0.0
        for members in cell_of.values():
            for i in members:
                assert pop.shared_fitness[i] == pytest.approx(
                    pop.raw_fitness[i] / len(members), rel=1e-12
                )
                total += pop.shared_fitness[i] * len(members)
        assert total == pytest.approx(pop.raw_fitness.sum(), rel=1e-9)

    def test_cell_wider_than_int64(self, default_rig):
        # used to end in an OverflowError; every visible fly shares one
        # cell, on a portrait image too
        portrait = StereoRig(CameraIntrinsics(500.0, (240.0, 320.0), 480, 640), baseline_m=0.4)
        for rig in (default_rig, portrait):
            pop = Population(sample_points(rig, np.random.default_rng(7), 50, margin=2))
            pop.raw_fitness[:] = 5.0
            apply_sharing(pop, rig, EvolutionParams(sharing_cell_px=2**70))
            assert np.all(pop.shared_fitness == 0.1)

    def test_penalized_forced_to_zero(self, default_rig, default_params):
        pop = Population(np.tile([0.0, 0.0, 5.0], (3, 1)))
        pop.raw_fitness[:] = 9.0
        pop.penalized[1] = True
        apply_sharing(pop, default_rig, default_params)
        assert pop.shared_fitness[1] == 0.0
        assert pop.shared_fitness[0] == pytest.approx(3.0)

    def test_shared_never_exceeds_raw(self, default_rig, default_params):
        rng = np.random.default_rng(6)
        pop = Population(sample_points(default_rig, rng, 2000, margin=2))
        pop.raw_fitness[:] = rng.uniform(0, 100, 2000)
        apply_sharing(pop, default_rig, default_params)
        assert np.all(pop.shared_fitness <= pop.raw_fitness + 1e-15)

    @pytest.mark.parametrize("exponent", [0.0, 0.5, 1.0, 2.0])
    def test_exponent(self, default_rig, exponent):
        # flies on one point share one cell; the occupancy is raised to
        # the exponent in float64 (3 ** 0.5 is not exact in float32)
        for count in (3, 4):
            pop = Population(np.tile([0.0, 0.0, 5.0], (count, 1)))
            pop.raw_fitness[:] = np.random.default_rng(3).uniform(0.0, 100.0, count)
            apply_sharing(pop, default_rig, EvolutionParams(sharing_exponent=exponent))
            assert pop.shared_fitness.tobytes() == (pop.raw_fitness / float(count) ** exponent).tobytes()

    # in the second rig the last column and row start a cell of their own
    @pytest.mark.parametrize("w, h", [(640, 480), (641, 481)])
    def test_edge_and_ring_cells_against_cell_oracle(self, default_params, w, h):
        # flies in the first and last cells of each side of the image, next
        # to them, and off every side and corner, where the projections are
        # clipped to a ring of cells; only flies on the image score, as
        # evaluate_population guarantees. The occupancy must be that of
        # the unbounded grid.
        rig = StereoRig(CameraIntrinsics(500.0, (320.0, 240.0), w, h), baseline_m=0.4)
        cell = default_params.sharing_cell_px
        us = [-10**6, -9, -1, 0, 3, 7, 8, 12, w - 9, w - 8, w - 1, w, w + 7, w + 8, 10**6]
        vs = [-10**6, -9, -1, 0, 7, 8, h - 9, h - 8, h - 1, h, h + 7, h + 8, 10**6]
        pixels = [(u, v) for u in us for v in vs for _ in range(1 + (u + v) % 3)]
        # at depth f = 500 m a left pixel is (u0 + x + b/2, v0 - y)
        pop = Population([(u - 320.0 - 0.2, 240.0 - v, 500.0) for u, v in pixels])
        u_left, _, v_px = project_many(rig, pop.positions)
        assert np.rint(u_left).tolist() == [u for u, _ in pixels] and np.rint(v_px).tolist() == [v for _, v in pixels]
        on_image = [0 <= u < w and 0 <= v < h for u, v in pixels]
        pop.raw_fitness[:] = np.where(on_image, 1.0 + np.arange(len(pixels)), 0.0)
        apply_sharing(pop, rig, default_params)
        cells = [(u // cell, v // cell) for u, v in pixels]
        expected = [raw / cells.count(c) for raw, c in zip(pop.raw_fitness.tolist(), cells)]
        assert pop.shared_fitness.tolist() == expected


def _tied_fitness() -> list[float]:
    """1000 values in [0, 10) with 50 of them forced to 7.0."""
    rng = np.random.default_rng(12)
    fitness = rng.uniform(0, 10, size=1000)
    fitness[rng.integers(0, 1000, 50)] = 7.0
    return fitness.tolist()


TIED_FITNESS = _tied_fitness()


class TestSelect:
    def test_distinct_fitness_top_fraction(self, default_params):
        pop = Population(np.zeros((10, 3)) + [0, 0, 5])
        pop.shared_fitness[:] = [3, 9, 1, 7, 5, 8, 2, 6, 4, 0]
        survivors = select(pop, default_params)
        assert sorted(survivors.tolist()) == [1, 3, 5, 7]

    def test_ties_keep_first_indices(self, default_params):
        pop = Population(np.zeros((10, 3)) + [0, 0, 5])
        survivors = select(pop, default_params)
        assert survivors.tolist() == [0, 1, 2, 3]

    def test_dominance(self, default_params):
        rng = np.random.default_rng(7)
        pop = Population(np.zeros((101, 3)) + [0, 0, 5])
        pop.shared_fitness[:] = rng.uniform(0, 1, 101)
        survivors = select(pop, default_params)
        mask = np.zeros(101, dtype=bool)
        mask[survivors] = True
        assert pop.shared_fitness[mask].min() >= pop.shared_fitness[~mask].max()

    @given(
        fitness=st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.floats(0.0, 1e6)), min_size=1, max_size=80),
        ratio=st.one_of(st.sampled_from([1.0, 1e-6, 0.4]), st.floats(0.001, 1.0)),
    )
    @example(fitness=TIED_FITNESS, ratio=0.25)
    def test_matches_stable_sort_oracle(self, fitness, ratio):
        f = np.array(fitness)
        pop = Population(np.zeros((len(f), 3)))
        pop.shared_fitness[:] = f
        k = survivor_count(ratio, len(f))
        expected = np.sort(np.argsort(-f, kind="stable")[:k]).tolist()
        assert elite(f, k).tolist() == expected
        assert select(pop, EvolutionParams(selection_ratio=ratio)).tolist() == expected

    def test_survivor_count_rounding(self):
        assert survivor_count(0.4, 5000) == 2000
        assert survivor_count(0.4, 10) == 4
        assert survivor_count(0.4, 11) == 5  # ceil(4.4)
        assert survivor_count(1.0, 7) == 7
        assert survivor_count(0.0001, 5) == 1
        assert survivor_count(1e-12, 5) == 1  # ceil gives 0 here; one fly always survives
        assert survivor_count(0.07, 100) == 7  # 0.07 * 100 is 7.000000000000001
        assert survivor_count(0.50000000015, 10) == 6  # 1.5e-9 past 5 is past the 1e-9 tolerance

    @given(ratio=st.floats(0.0, 1.0, exclude_min=True), n=st.integers(1, 2**53))
    def test_survivor_count_stays_within_the_population(self, ratio, n):
        # ratio * n <= n holds in floating point for ratio <= 1, so no upper clamp is needed
        assert 1 <= survivor_count(ratio, n) <= n


class TestCrossover:
    def test_endpoints_exact(self):
        p1 = np.array([0.3, -1.2, 7.5])
        p2 = np.array([-2.0, 0.4, 3.3])
        assert np.array_equal(crossover(p1, p2, 1.0), p1)
        assert np.array_equal(crossover(p1, p2, 0.0), p2)

    def test_midpoint(self):
        got = crossover(np.array([0.0, 0.0, 2.0]), np.array([2.0, 4.0, 6.0]), 0.5)
        assert got.tolist() == [1.0, 2.0, 4.0]

    def test_quarter_weight(self):
        got = crossover(np.array([4.0, 0.0, 8.0]), np.array([0.0, 8.0, 4.0]), 0.25)
        assert got.tolist() == [1.0, 6.0, 5.0]

    def test_per_row_weights_as_a_list(self):
        p1 = np.array([[4.0, 0.0, 8.0], [0.0, 0.0, 2.0]])
        p2 = np.array([[0.0, 8.0, 4.0], [2.0, 4.0, 6.0]])
        assert crossover(p1, p2, [0.25, 0.5]).tolist() == [[1.0, 6.0, 5.0], [1.0, 2.0, 4.0]]

    def test_accepts_fly_records(self):
        # (N, 3) parent records with one weight per row, as the refill uses it
        rng = np.random.default_rng(12)
        p1 = rng.uniform(-5, 5, size=(40, 3))
        p2 = rng.uniform(-5, 5, size=(40, 3))
        lam = rng.random(40)
        got = crossover(p1, p2, lam)
        assert got.shape == (40, 3)
        for k in range(40):
            assert np.array_equal(got[k], crossover(p1[k], p2[k], lam[k]))

    def test_per_row_weights_match_column_formula(self):
        # the weights broadcast along the long axis; the bits are those of
        # an (N, 1) weight column
        rng = np.random.default_rng(13)
        p1 = rng.uniform(-5, 5, size=(1500, 3))
        p2 = rng.uniform(-5, 5, size=(1500, 3))
        lam = rng.random(1500)
        want = lam[:, None] * p1 + (1 - lam[:, None]) * p2
        assert crossover(p1, p2, lam).tobytes() == want.tobytes()

    def test_lambda_out_of_range(self):
        with pytest.raises(ValueError):
            crossover(np.zeros(3), np.ones(3), 1.2)
        with pytest.raises(ValueError):
            crossover(np.zeros(3), np.ones(3), -0.1)
        with pytest.raises(ValueError):
            crossover(np.zeros((3, 3)), np.ones((3, 3)), np.array([0.5, 1.0001, 0.5]))

    @given(
        lam=st.floats(0, 1),
        a=st.tuples(st.floats(-10, 10), st.floats(-10, 10), st.floats(1, 20)),
        b=st.tuples(st.floats(-10, 10), st.floats(-10, 10), st.floats(1, 20)),
    )
    def test_convexity(self, lam, a, b):
        child = crossover(np.array(a), np.array(b), lam)
        lo = np.minimum(a, b) - 1e-9
        hi = np.maximum(a, b) + 1e-9
        assert np.all(child >= lo) and np.all(child <= hi)


def reference_mutate(parents, vol, sigma, rng):
    """``mutate`` written with ``rng.normal``; also returns how many first
    draws left the volume and how many rows were clamped."""
    out = parents + rng.normal(0.0, sigma, size=parents.shape)
    bad = ~vol.contains(out)
    first_bad = int(bad.sum())
    for _ in range(evolution.MUTATION_RESAMPLE_LIMIT):
        if not bad.any():
            break
        idx = np.flatnonzero(bad)
        out[idx] = parents[idx] + rng.normal(0.0, sigma, size=(idx.size, 3))
        bad[idx] = ~vol.contains(out[idx])
    if bad.any():
        out[bad] = vol.clamp(out[bad])
    return out, first_bad, int(bad.sum())


class TestMutate:
    def _check_against_reference(self, rig, parents, sigma, seed):
        params = EvolutionParams(mutation_sigma=sigma)
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        got = mutate(parents, rig, params, rng)
        want, first_bad, clamped = reference_mutate(parents, search_volume(rig, params.neighborhood_radius), np.asarray(sigma), twin)
        # tobytes tells -0.0 from 0.0, which array_equal does not
        assert got.tobytes() == want.tobytes()
        assert rng.random() == twin.random()
        return got, first_bad, clamped

    def test_resampled_and_clamped_rows_match_normal(self, default_rig):
        # parents on the near face, sigma 2 m: most first draws leave the
        # volume, some rows are clamped; the zero-sigma x axis of a -0.0
        # coordinate must stay 0.0, as rng.normal(0.0, 0.0) makes it
        parents = np.tile([-0.0, 0.0, default_rig.z_min_m], (500, 1))
        _, first_bad, clamped = self._check_against_reference(default_rig, parents, (0.0, 2.0, 2.0), seed=14)
        assert first_bad > 300 and clamped > 0

    def test_zero_sigma_axis_of_negative_zero(self, default_rig):
        parents = np.tile([-0.0, 0.5, 8.0], (200, 1))
        got, first_bad, _ = self._check_against_reference(default_rig, parents, (0.0, 0.01, 0.01), seed=15)
        assert first_bad == 0 and not np.signbit(got[:, 0]).any()

    def test_zero_sigma_is_identity(self, default_rig):
        params = EvolutionParams(mutation_sigma=(0.0, 0.0, 0.0))
        rng = np.random.default_rng(8)
        parents = np.array([[0.2, -0.3, 6.0], [-1.0, 0.4, 12.0]])
        assert np.array_equal(mutate(parents, default_rig, params, rng), parents)

    def test_gaussian_statistics(self, default_rig):
        # interior parent, sigma far from any boundary: sample mean and
        # std must match the normal law
        params = EvolutionParams(mutation_sigma=(0.1, 0.1, 0.1))
        rng = np.random.default_rng(9)
        parent = np.array([0.0, 0.0, 10.0])
        draws = mutate(np.tile(parent, (100_000, 1)), default_rig, params, rng)
        deltas = draws - parent
        for axis in range(3):
            assert abs(deltas[:, axis].mean()) < 3 * 0.1 / np.sqrt(100_000)
            assert deltas[:, axis].std() == pytest.approx(0.1, rel=0.02)

    def test_outputs_inside_volume(self, default_rig, default_params):
        vol = search_volume(default_rig, default_params.neighborhood_radius)
        rng = np.random.default_rng(10)
        # parents hugging the near boundary to force clamps
        parents = vol.clamp(np.tile([-3.0, -1.0, 1.0], (200, 1)))
        params = EvolutionParams(mutation_sigma=(2.0, 2.0, 2.0))
        assert vol.contains(mutate(parents, default_rig, params, rng)).all()


class TestStepGeneration:
    def _setup(self, rig, warning_params=WarningParams(), **params):
        rect = TexturedRect(center=(0.0, 0.0, 2.0), width_m=0.8, height_m=0.8, texture_seed=3, texture_cell_m=0.05)
        scene = Scene(obstacles=(rect,), ground_texture_seed=4)
        swarm = Swarm(rig, EvolutionParams(**{"population_size": 300, "rng_seed": 11, **params}), warning_params)
        swarm.feed(*render_stereo_pair(scene, rig))
        return swarm

    def test_size_preserved(self, small_rig):
        swarm = self._setup(small_rig)
        swarm.step()
        assert len(swarm.population) == swarm.params.population_size

    def test_returns_report_of_evaluated_population(self, small_rig):
        # the report describes the population before selection and refill
        swarm = self._setup(small_rig)
        swarm.step()
        twin = self._setup(small_rig)
        twin.population = Population(swarm.population.positions)
        expected = twin.evaluate()
        report = swarm.step()
        assert np.array_equal(report.per_fly, expected.per_fly)
        assert report.global_mean == expected.global_mean
        assert not np.array_equal(swarm.population.positions, twin.population.positions)

    def test_deterministic_trajectory(self, small_rig):
        runs = []
        for _ in range(2):
            swarm = self._setup(small_rig)
            for _ in range(50):
                swarm.step()
            pop = swarm.population
            runs.append((pop.positions.copy(), pop.raw_fitness.copy(), pop.shared_fitness.copy()))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])
        assert np.array_equal(runs[0][2], runs[1][2])

    def test_positions_stay_in_volume(self, small_rig):
        swarm = self._setup(small_rig)
        vol = search_volume(small_rig, swarm.params.neighborhood_radius)
        for _ in range(20):
            swarm.step()
            assert vol.contains(swarm.population.positions).all()

    def test_later_steps_build_no_search_volume(self, small_rig, monkeypatch):
        # the volume is cached per call signature: one caller passing the
        # margin by keyword would rebuild it on every mutate and refill
        swarm = self._setup(small_rig)
        swarm.step()
        built = []
        init = SearchVolume.__init__
        monkeypatch.setattr(SearchVolume, "__init__", lambda vol, *args: built.append(args) or init(vol, *args))
        for _ in range(3):
            swarm.step()
        assert built == []

    def test_single_survivor_falls_back_to_mutation(self, small_rig):
        swarm = self._setup(small_rig, population_size=10, selection_ratio=0.05, rng_seed=1)  # one survivor
        swarm.step()
        assert len(swarm.population) == 10

    @pytest.mark.parametrize(
        "size, ratio, copies",
        [(10, 0.1, [True] * 8 + [False]), (5, 0.4, [False, False, True])],
        ids=["one-survivor", "two-survivors"],
    )
    def test_few_survivors_split_the_slots(self, small_rig, size, ratio, copies):
        # at zero sigma a mutant is a copy of its parent, so the rows show which
        # operator made them: one survivor hands crossover's 4 slots to
        # mutation (4 + 4 copies, 1 immigrant), two survivors already cross
        # (2 children, 1 copy)
        params = EvolutionParams(population_size=size, selection_ratio=ratio, mutation_sigma=(0.0, 0.0, 0.0))
        rng = np.random.default_rng(5)
        pop = Population.initialize(small_rig, params, rng)
        pop.shared_fitness[:] = np.arange(size, 0, -1)  # the first rows survive
        s = survivor_count(ratio, size)
        survivors = pop.positions[:s].copy()
        select_and_refill(pop, small_rig, params, rng)
        assert np.array_equal(pop.positions[:s], survivors)
        children = pop.positions[s:]
        assert (children[:, None] == survivors).all(axis=2).any(axis=1).tolist() == copies

    def test_warning_params_respected(self, small_rig):
        wp = WarningParams(max_range_m=1.0 + 1e-6, z_clamp_m=0.5)
        swarm = self._setup(small_rig, wp)
        swarm.evaluate()
        pop = swarm.population
        far = pop.positions[:, 2] > wp.max_range_m
        assert far.any()
        assert np.all(pop.shared_fitness[far] == 0.0)


def interleaved_generation_ms(rig, pair, populations, generations: int) -> list[float]:
    """Median wall time of ``Swarm.step`` per population after two warmup
    generations; the swarms step in turn, so each sees the same load."""
    swarms = [Swarm(rig, EvolutionParams(population_size=n, rng_seed=1)) for n in populations]
    for swarm in swarms:
        swarm.feed(*pair)
    durations = [[] for _ in swarms]
    for _ in range(2 + generations):
        for swarm, times in zip(swarms, durations):
            t0 = time.perf_counter()
            swarm.step()
            times.append(time.perf_counter() - t0)
    return [float(np.median(times[2:])) * 1e3 for times in durations]


@pytest.mark.timing
class TestGenerationTiming:
    def test_population_scaling(self, session_rig, pedestrian_pair):
        small, big = interleaved_generation_ms(session_rig, pedestrian_pair, (5000, 10000), 40)
        assert 1.4 <= big / small <= 3.0

    def test_repeat_stability(self, session_rig, pedestrian_pair):
        a, b = interleaved_generation_ms(session_rig, pedestrian_pair, (2000, 2000), 20)
        assert abs(a - b) / max(a, b) < 0.35


@st.composite
def offspring_fractions(draw) -> tuple[float, float]:
    """Crossover and mutation fractions with c + m <= 1; immigrants take the rest."""
    crossover = draw(st.floats(0.0, 1.0))
    mutation = draw(st.floats(0.0, 1.0 - crossover))
    return crossover, mutation


@given(fractions=offspring_fractions(), slots=st.integers(0, 10_000))
@example(fractions=(0.5, 0.5), slots=7)  # 3.5 and 3.5 both round to 4
@example(fractions=(0.25, 0.25), slots=8)  # half the slots left to immigrants
def test_offspring_counts_fill_the_slots(fractions, slots):
    c, m = fractions
    counts = _offspring_counts(EvolutionParams(crossover_fraction=c, mutation_fraction=m), slots)
    n_cross, n_mut, n_imm = counts
    assert min(counts) >= 0 and sum(counts) == slots
    assert n_cross == round(c * slots)
    if round(c * slots) + round(m * slots) <= slots:
        assert n_mut == round(m * slots)
    else:
        assert n_imm == 0


def test_offspring_counts_default_mix():
    params = EvolutionParams()
    assert _offspring_counts(params, 3000) == (1500, 1200, 300)
    # an odd slot count pins the rounding: 3.5 and 2.8 round to 4 and 3,
    # where truncation would give (3, 2, 2)
    assert _offspring_counts(params, 7) == (4, 3, 0)


def test_params_validation():
    with pytest.raises(ValueError):
        EvolutionParams(population_size=1)
    with pytest.raises(ValueError, match="at most 1"):
        EvolutionParams(mutation_fraction=0.6)  # with crossover's 0.5, 1.1 of the slots
    with pytest.raises(ValueError):
        EvolutionParams(fitness_epsilon=0.0)
    with pytest.raises(ValueError):
        EvolutionParams(selection_ratio=1.5)
    # a negative share would pass the sum check and take slots from the others
    for bad in (dict(mutation_fraction=-0.1), dict(crossover_fraction=-0.1), dict(crossover_fraction=1.2, mutation_fraction=-0.3)):
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            EvolutionParams(**bad)
    for bad in (dict(neighborhood_radius=-1), dict(sharing_cell_px=0)):
        with pytest.raises(ValueError, match="neighborhood_radius must be >= 0 and sharing_cell_px >= 1"):
            EvolutionParams(**bad)
    # numpy's seeding rejected it later, in words that named no key
    with pytest.raises(ValueError, match="rng_seed must be >= 0, got -1"):
        EvolutionParams(rng_seed=-1)


def test_params_at_their_bounds_accepted():
    params = EvolutionParams(population_size=2, neighborhood_radius=0, sharing_cell_px=1, sharing_exponent=0.0)
    assert (params.population_size, params.neighborhood_radius, params.sharing_cell_px) == (2, 0, 1)
    EvolutionParams(crossover_fraction=1.0, mutation_fraction=0.0)


# warnings as errors: past these bounds mutate and apply_sharing overflowed in numpy
@pytest.mark.filterwarnings("error")
def test_params_at_their_overflow_bounds(default_rig):
    # a normal draw stays below 13.8, so a sigma just below 2**1020 keeps every step finite
    largest = float(np.nextafter(2.0**1020, 0))
    parents = sample_points(default_rig, np.random.default_rng(0), 500, margin=2)
    out = mutate(parents, default_rig, EvolutionParams(mutation_sigma=(largest,) * 3), np.random.default_rng(1))
    assert np.isfinite(out).all()
    with pytest.raises(ValueError, match=r"mutation_sigma must be three values in \[0, 2\*\*1020\)"):
        EvolutionParams(mutation_sigma=(0.0, 2.0**1020, 0.0))
    # 64 flies in one cell divide by 64 ** e, which N ** e bounds for N = 64
    exponent = 1023.99 / 6
    pop = Population(np.tile([0.0, 0.0, 5.0], (64, 1)))
    pop.raw_fitness[:] = 1.0
    apply_sharing(pop, default_rig, EvolutionParams(population_size=64, sharing_exponent=exponent))
    assert np.all(pop.shared_fitness == 1.0 / 64.0**exponent)
    with pytest.raises(ValueError, match=r"population_size \*\* sharing_exponent overflows: 64 \*\* 170.668"):
        EvolutionParams(population_size=64, sharing_exponent=1024.01 / 6)


# warnings as errors: past these bounds warning_values overflowed in numpy, and the run went on
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "clamp, largest, smallest_rejected",
    # bisected on the default rig, whose flies reach |x| = 12.52 m (at x < 0) and z = 20 m
    [("x_clamp_m", 2.9980769960612384e153, 2.9980769960612388e153), ("z_clamp_m", 1.1468507479804296e306, 1.1468507479804297e306)],
)
@pytest.mark.parametrize("u0", [320.0, 319.0], ids=["default", "mirrored"])  # 319 = (w - 1) - 320 reaches 12.52 m at x > 0
def test_warning_clamps_at_their_overflow_bounds(clamp, largest, smallest_rejected, u0):
    rig = StereoRig(CameraIntrinsics(500.0, (u0, 240.0), 640, 480))
    params = EvolutionParams(population_size=200, rng_seed=3)
    frame = [Image(np.random.default_rng(4).integers(0, 256, (480, 640), dtype=np.uint8))] * 2
    swarm = Swarm(rig, params, WarningParams(**{clamp: largest, "max_range_m": 2e306}))
    swarm.feed(*frame)
    assert np.isfinite(swarm.step().per_fly).all()
    with pytest.raises(ValueError, match=r"^warning divisor x\^2 \* z overflows: ") as caught:
        Swarm(rig, params, WarningParams(**{clamp: smallest_rejected, "max_range_m": 2e306}))
    assert f"{clamp} = {smallest_rejected!r}" in str(caught.value)


def test_zero_selection_ratio_rejected():
    # used to be accepted and silently clamped to a single survivor
    with pytest.raises(ValueError, match="selection_ratio"):
        EvolutionParams(selection_ratio=0.0)


def test_slots_not_given_to_crossover_or_mutation_take_immigrants():
    params = EvolutionParams(mutation_fraction=0.3)  # with crossover's 0.5, 0.2 left to immigrants
    assert _offspring_counts(params, 3000) == (1500, 900, 600)
    # a sum past 1 by no more than rounding error is accepted, the bound included
    EvolutionParams(crossover_fraction=0.7, mutation_fraction=0.3 + 1e-10)
    EvolutionParams(crossover_fraction=1.0, mutation_fraction=1e-9)


class TestFrozenParams:
    def test_fields_cannot_be_assigned(self):
        params = EvolutionParams()
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.neighborhood_radius = 3

    @pytest.mark.parametrize("sigma", [[0.1, 0, 2], np.array([0.1, 0.0, 2.0]), np.array([0.1, 0, 2], dtype=np.float32)])
    def test_mutation_sigma_stored_as_a_tuple_of_floats(self, sigma):
        params = EvolutionParams(mutation_sigma=sigma)
        assert type(params.mutation_sigma) is tuple
        assert all(type(v) is float for v in params.mutation_sigma)
        assert params.mutation_sigma == tuple(np.asarray(sigma, dtype=np.float64).tolist())
        assert params == EvolutionParams(mutation_sigma=tuple(params.mutation_sigma))

    def test_survivors_keep_their_scores_under_equal_params(self, monkeypatch, session_rig, pedestrian_pair):
        scored = []
        raw_fitness = evolution._raw_fitness

        def recording(positions, *args):
            scored.append(len(positions))
            return raw_fitness(positions, *args)

        monkeypatch.setattr(evolution, "_raw_fitness", recording)
        params = EvolutionParams(mutation_sigma=[0.01, 0.01, 0.05], rng_seed=25)
        rng = np.random.default_rng(25)
        pop = Population.initialize(session_rig, params, rng)
        frame = StereoFrame(*pedestrian_pair)
        evaluate_population(pop, frame, session_rig, params)
        apply_sharing(pop, session_rig, params)
        select_and_refill(pop, session_rig, params, rng)
        twin = EvolutionParams(**params.__dict__)
        assert twin is not params and twin == params
        evaluate_population(pop, frame, session_rig, twin)
        n, s = len(pop), survivor_count(params.selection_ratio, len(pop))
        assert scored == [n, n - s]


def test_population_keeps_alive_only_the_frame_it_was_last_scored_on(session_rig, pedestrian_pair):
    params = EvolutionParams(population_size=50, rng_seed=26)
    pop = Population.initialize(session_rig, params, np.random.default_rng(26))
    frame_a = StereoFrame(*pedestrian_pair)
    evaluate_population(pop, frame_a, session_rig, params)
    dead = weakref.ref(frame_a)
    evaluate_population(pop, StereoFrame(*pedestrian_pair), session_rig, params)
    del frame_a
    gc.collect()
    assert dead() is None
