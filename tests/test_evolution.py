import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flyswarm import evolution
from flyswarm.evolution import (
    EvolutionParams,
    Population,
    StereoFrame,
    _offspring_counts,
    apply_sharing,
    crossover,
    evaluate_and_share,
    evaluate_population,
    mutate,
    select,
    select_and_refill,
    step_generation,
    survivor_count,
)
from flyswarm.imaging import Image, sobel_norm_map
from flyswarm.stereo_geometry import project, project_many, sample_points, search_volume
from flyswarm.synth import Scene, TexturedRect, render_stereo_pair
from flyswarm.warning import WarningParams
from test_imaging import window_fitness


def naive_fitness(position, left, right, grad_left, grad_right, rig, params):
    """Straight-loop reimplementation of the fitness: rounded projections,
    gradient product over epsilon-shifted window SSD."""
    f = rig.intrinsics.focal_length_px
    u0, v0 = rig.intrinsics.principal_point
    b = rig.baseline_m
    x, y, z = position
    if z < 0.01:
        return 0.0
    xl = u0 + f * (x + b / 2) / z
    xr = u0 + f * (x - b / 2) / z
    v = v0 - f * y / z
    n = params.neighborhood_radius
    w, h = rig.intrinsics.image_width, rig.intrinsics.image_height
    if not (n <= xl <= w - 1 - n and n <= xr <= w - 1 - n and n <= v <= h - 1 - n):
        return 0.0
    il, ir, iv = int(np.rint(xl)), int(np.rint(xr)), int(np.rint(v))
    num = grad_left.norms[iv, il] * grad_right.norms[iv, ir]
    ssd = 0
    for j in range(-n, n + 1):
        for i in range(-n, n + 1):
            a = left.samples[iv + j, il + i]
            c = right.samples[iv + j, ir + i]
            for va, vc in zip(np.atleast_1d(a), np.atleast_1d(c)):
                ssd += (int(va) - int(vc)) ** 2
    return num / (params.fitness_epsilon + ssd)


def fitness_of(positions, frame, rig, params) -> np.ndarray:
    pop = Population(np.atleast_2d(np.asarray(positions, dtype=np.float64)))
    evaluate_population(pop, frame, rig, params)
    return pop.raw_fitness


def colour_pair(pair):
    # one channel mix applied to both views keeps the pair photo-consistent
    return tuple(
        Image.from_array(np.stack([s, 255 - s, (s.astype(np.uint16) * 3 % 256).astype(np.uint8)], axis=2))
        for s in (pair[0].samples, pair[1].samples)
    )


class TestFitness:
    def test_uniform_region_scores_zero(self, default_rig, default_params):
        flat = Image.from_array(np.full((480, 640), 90, dtype=np.uint8))
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
        left = Image.from_array(base[:, :640])
        right = Image.from_array(base[:, 20 : 640 + 20])
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

    def test_intensity_shift_leaves_fitness(self, session_rig, default_params, pedestrian_pair):
        left, right = pedestrian_pair
        shifted_l = Image.from_array(left.samples + 25)
        shifted_r = Image.from_array(right.samples + 25)
        rng = np.random.default_rng(4)
        pop = Population(sample_points(session_rig, rng, 1000))
        evaluate_population(pop, StereoFrame(left, right), session_rig, default_params)
        base = pop.raw_fitness.copy()
        evaluate_population(pop, StereoFrame(shifted_l, shifted_r), session_rig, default_params)
        np.testing.assert_allclose(pop.raw_fitness, base, rtol=1e-12)


class TestGradientMemo:
    """The frame's lazily filled gradients against the full-frame
    reference ``sobel_norm_map``, bit for bit."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        height=st.integers(3, 12),
        width=st.integers(3, 12),
        channels=st.sampled_from([1, 3]),
        batches=st.integers(1, 4),
    )
    def test_memo_equals_reference_map(self, seed, height, width, channels, batches):
        rng = np.random.default_rng(seed)
        shape = (height, width) if channels == 1 else (height, width, 3)
        left, right = (Image.from_array(rng.integers(0, 256, shape, dtype=np.uint8)) for _ in range(2))
        frame = StereoFrame(left, right)
        for memo, image in ((frame._left, left), (frame._right, right)):
            reference = sobel_norm_map(image).norms.ravel()
            # several batches, with repeats, so later reads mix memoised and new pixels
            for _ in range(batches):
                pixels = rng.integers(0, height * width, size=int(rng.integers(1, 2 * height * width)))
                assert memo.at(pixels).tobytes() == reference[pixels].tobytes()

    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_fitness_bit_identical_to_reference(self, session_rig, pedestrian_pair, radius):
        rng = np.random.default_rng(radius)
        noise = tuple(Image.from_array(rng.integers(0, 256, (480, 640, 3), dtype=np.uint8)) for _ in range(2))
        params = EvolutionParams(neighborhood_radius=radius)
        pts = sample_points(session_rig, rng, 150, margin=0)
        for left, right in (pedestrian_pair, colour_pair(pedestrian_pair), noise):
            got = fitness_of(pts, StereoFrame(left, right), session_rig, params)
            gl, gr = sobel_norm_map(left), sobel_norm_map(right)
            expected = [naive_fitness(p, left, right, gl, gr, session_rig, params) for p in pts]
            assert np.count_nonzero(got) >= 50
            assert got.tolist() == expected

    def test_border_centre_scores_zero_at_radius_zero(self):
        # a fly whose rounded centre lies on the 1 px border is visible at
        # radius 0, but the reference map is 0 there
        rng = np.random.default_rng(13)
        a = Image.from_array(rng.integers(0, 256, (6, 8), dtype=np.uint8))
        centres = [((7, 3), (2, 3)), ((4, 0), (1, 0)), ((5, 5), (3, 5)), ((3, 2), (0, 2)), ((5, 3), (2, 3))]
        got = window_fitness(a, a, centres, 0)
        assert got[:4].tolist() == [0.0, 0.0, 0.0, 0.0]
        assert got[4] > 0

    def test_repeated_evaluation_identical(self, session_rig, default_params, pedestrian_pair):
        pts = sample_points(session_rig, np.random.default_rng(14), 2000)
        frame = StereoFrame(*pedestrian_pair)
        first = fitness_of(pts, frame, session_rig, default_params).copy()
        assert frame._left.known.any()
        again = fitness_of(pts, frame, session_rig, default_params)
        assert first.tobytes() == again.tobytes()

    def test_fresh_frame_has_its_own_memo(self, session_rig, default_params, pedestrian_pair):
        pts = sample_points(session_rig, np.random.default_rng(15), 2000)
        old = StereoFrame(*pedestrian_pair)
        fitness_of(pts, old, session_rig, default_params)
        # same shape, other pixels: nothing computed for the old pair may be read
        left, right = (Image.from_array(255 - s.samples) for s in pedestrian_pair)
        fresh = StereoFrame(left, right)
        assert not fresh._left.known.any() and not fresh._right.known.any()
        got = fitness_of(pts, fresh, session_rig, default_params)
        gl, gr = sobel_norm_map(left), sobel_norm_map(right)
        expected = [naive_fitness(p, left, right, gl, gr, session_rig, default_params) for p in pts[:300]]
        assert got[:300].tolist() == expected

    @pytest.mark.parametrize("shape", [(2, 5), (5, 2), (1, 1)])
    def test_images_under_3x3_rejected(self, shape):
        img = Image.from_array(np.zeros(shape, dtype=np.uint8))
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
        select_and_refill(pop, session_rig, EvolutionParams(selection_ratio=0.6), rng)
        assert rows_scored(pop, frame) == n - s
        refill()
        assert rows_scored(pop, StereoFrame(*pedestrian_pair)) == n  # equal pixels, new frame
        refill()
        inverted = StereoFrame(*(Image.from_array(255 - img.samples) for img in pedestrian_pair))
        assert rows_scored(pop, inverted) == n
        refill()
        assert rows_scored(pop, inverted, params=EvolutionParams(fitness_epsilon=2.0)) == n
        refill()
        assert rows_scored(pop, inverted, params=EvolutionParams(neighborhood_radius=3)) == n
        refill()
        assert rows_scored(pop, inverted, rig=dataclasses.replace(session_rig, baseline_m=0.5)) == n
        assert rows_scored(Population(pop.positions), inverted) == n


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
            centre = sample_points(default_rig, rng, 1)[0]
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
        # used to end in an OverflowError; every visible fly shares one cell
        pop = Population(sample_points(default_rig, np.random.default_rng(7), 50))
        pop.raw_fitness[:] = 5.0
        apply_sharing(pop, default_rig, EvolutionParams(sharing_cell_px=2**70))
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
        pop = Population(sample_points(default_rig, rng, 2000))
        pop.raw_fitness[:] = rng.uniform(0, 100, 2000)
        apply_sharing(pop, default_rig, default_params)
        assert np.all(pop.shared_fitness <= pop.raw_fitness + 1e-15)

    def test_exponent(self, default_rig):
        params = EvolutionParams(sharing_exponent=2.0)
        pop = Population(np.tile([0.0, 0.0, 5.0], (4, 1)))
        pop.raw_fitness[:] = 16.0
        apply_sharing(pop, default_rig, params)
        assert np.all(pop.shared_fitness == 1.0)


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
    def test_matches_stable_sort_oracle(self, fitness, ratio):
        f = np.array(fitness)
        pop = Population(np.zeros((len(f), 3)))
        pop.shared_fitness[:] = f
        k = survivor_count(ratio, len(f))
        expected = np.sort(np.argsort(-f, kind="stable")[:k])
        assert select(pop, EvolutionParams(selection_ratio=ratio)).tolist() == expected.tolist()

    def test_survivor_count_rounding(self):
        assert survivor_count(0.4, 5000) == 2000
        assert survivor_count(0.4, 10) == 4
        assert survivor_count(0.4, 11) == 5  # ceil(4.4)
        assert survivor_count(1.0, 7) == 7
        assert survivor_count(0.0001, 5) == 1


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


class TestMutate:
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
    def _setup(self, rig, n=300, seed=11):
        rect = TexturedRect(center=(0.0, 0.0, 2.0), width_m=0.8, height_m=0.8, texture_seed=3, texture_cell_m=0.05)
        scene = Scene(obstacles=(rect,), ground_texture_seed=4)
        frame = StereoFrame(*render_stereo_pair(scene, rig))
        params = EvolutionParams(population_size=n, rng_seed=seed)
        rng = np.random.default_rng(seed)
        pop = Population.initialize(rig, params, rng)
        return pop, frame, params, rng

    def test_size_and_index(self, small_rig):
        pop, frame, params, rng = self._setup(small_rig)
        assert pop.generation_index == 0
        step_generation(pop, frame, small_rig, params, rng)
        assert len(pop) == params.population_size
        assert pop.generation_index == 1

    def test_returns_report_of_evaluated_population(self, small_rig):
        # the report describes the population before selection and refill
        pop, frame, params, rng = self._setup(small_rig)
        step_generation(pop, frame, small_rig, params, rng)
        twin = Population(pop.positions)
        expected = evaluate_and_share(twin, frame, small_rig, params)
        report = step_generation(pop, frame, small_rig, params, rng)
        assert np.array_equal(report.per_fly, expected.per_fly)
        assert report.global_mean == expected.global_mean
        assert not np.array_equal(pop.positions, twin.positions)

    def test_deterministic_trajectory(self, small_rig):
        runs = []
        for _ in range(2):
            pop, frame, params, rng = self._setup(small_rig)
            for _ in range(50):
                step_generation(pop, frame, small_rig, params, rng)
            runs.append((pop.positions.copy(), pop.raw_fitness.copy(), pop.shared_fitness.copy()))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])
        assert np.array_equal(runs[0][2], runs[1][2])

    def test_positions_stay_in_volume(self, small_rig):
        pop, frame, params, rng = self._setup(small_rig)
        vol = search_volume(small_rig, params.neighborhood_radius)
        for _ in range(20):
            step_generation(pop, frame, small_rig, params, rng)
            assert vol.contains(pop.positions).all()

    def test_single_survivor_falls_back_to_mutation(self, small_rig):
        pop, frame, params, rng = self._setup(small_rig, n=10)
        params = EvolutionParams(
            population_size=10, selection_ratio=0.05, rng_seed=1
        )  # one survivor
        step_generation(pop, frame, small_rig, params, rng)
        assert len(pop) == 10

    def test_warning_params_respected(self, small_rig):
        pop, frame, params, rng = self._setup(small_rig)
        wp = WarningParams(max_range_m=1.0 + 1e-6, z_clamp_m=0.5)
        evaluate_and_share(pop, frame, small_rig, params, wp)
        far = pop.positions[:, 2] > wp.max_range_m
        assert far.any()
        assert np.all(pop.shared_fitness[far] == 0.0)


def mean_generation_ms(rig, pair, population: int, generations: int) -> float:
    """Mean wall time of ``step_generation`` after two warmup generations."""
    params = EvolutionParams(population_size=population, rng_seed=1)
    frame = StereoFrame(*pair)
    rng = np.random.default_rng(1)
    pop = Population.initialize(rig, params, rng)
    wp = WarningParams()
    for _ in range(2):
        step_generation(pop, frame, rig, params, rng, wp)
    durations = []
    for _ in range(generations):
        t0 = time.perf_counter()
        step_generation(pop, frame, rig, params, rng, wp)
        durations.append(time.perf_counter() - t0)
    return float(np.mean(durations)) * 1e3


class TestGenerationTiming:
    def test_population_scaling(self, session_rig, pedestrian_pair):
        small = mean_generation_ms(session_rig, pedestrian_pair, 5000, 15)
        big = mean_generation_ms(session_rig, pedestrian_pair, 10000, 15)
        assert 1.4 <= big / small <= 3.0

    def test_repeat_stability(self, session_rig, pedestrian_pair):
        a = mean_generation_ms(session_rig, pedestrian_pair, 2000, 20)
        b = mean_generation_ms(session_rig, pedestrian_pair, 2000, 20)
        assert abs(a - b) / max(a, b) < 0.35


def test_offspring_counts_default_mix():
    params = EvolutionParams()
    assert _offspring_counts(params, 3000) == (1500, 1200, 300)
    assert sum(_offspring_counts(params, 7)) == 7


def test_params_validation():
    with pytest.raises(ValueError):
        EvolutionParams(population_size=1)
    with pytest.raises(ValueError):
        EvolutionParams(mutation_fraction=0.5)  # fractions no longer sum to 1
    with pytest.raises(ValueError):
        EvolutionParams(fitness_epsilon=0.0)
    with pytest.raises(ValueError):
        EvolutionParams(selection_ratio=1.5)


def test_zero_selection_ratio_rejected():
    # used to be accepted and silently clamped to a single survivor
    with pytest.raises(ValueError, match="selection_ratio"):
        EvolutionParams(selection_ratio=0.0)
