import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flyswarm.cli import OVERLAY_TOP_K
from flyswarm.evolution import Population, elite
from flyswarm.warning import (
    WarningParams,
    flag_useless,
    global_warning,
    warning_values,
)

WP = WarningParams()


def make_pop(positions, raw=None, shared=None, penalized=None):
    pop = Population(np.asarray(positions, dtype=np.float64))
    if raw is not None:
        pop.raw_fitness[:] = raw
    if shared is not None:
        pop.shared_fitness[:] = shared
    if penalized is not None:
        pop.penalized[:] = penalized
    return pop


def flagged(rig, *positions) -> list[bool]:
    pop = make_pop(positions)
    flag_useless(pop, rig, WP)
    return pop.penalized.tolist()


def warning_of(x, z, raw, penalized=False) -> float:
    return float(warning_values(np.array([[x, 0.0, z]]), np.array([raw]), np.array([penalized]), WP)[0])


class TestUseless:
    def test_above_two_metres(self, default_rig):
        # camera 1.2 m up, fly 1.0 m above it: 2.2 m over the road
        assert flagged(default_rig, (0, 1.0, 5.0)) == [True]

    def test_ground_detection(self, default_rig):
        assert flagged(default_rig, (0, 0.05 - default_rig.camera_height_m, 5.0)) == [True]  # 5 cm height

    def test_interior_not_useless(self, default_rig):
        assert flagged(default_rig, (0, 1.0 - default_rig.camera_height_m, 10.0)) == [False]  # 1 m height

    def test_beyond_range(self, default_rig):
        y = 1.0 - default_rig.camera_height_m
        assert flagged(default_rig, (0, y, 16.5), (0, y, 15.5)) == [True, False]

    def test_fly_on_a_limit_is_kept(self, default_rig):
        # useless is strictly above max_height_m, below min_height_m or beyond
        # max_range_m; with these binary fractions y + 1.25 lands on each limit
        rig = dataclasses.replace(default_rig, camera_height_m=1.25)
        pop = make_pop([(0, 0.75, 5.0), (0, -1.0, 5.0), (0, 0.0, 16.0)])
        flag_useless(pop, rig, WarningParams(max_height_m=2.0, min_height_m=0.25, max_range_m=16.0))
        assert pop.penalized.tolist() == [False, False, False]


class TestWarningValue:
    def test_plain_formula(self):
        assert warning_of(1.0, 4.0, raw=1.0) == pytest.approx(0.25)

    def test_lateral_clamp(self):
        assert warning_of(0.2, 2.0, raw=1.0) == pytest.approx(2.0)

    def test_depth_clamp_and_abs(self):
        assert warning_of(-0.6, 0.5, raw=3.0) == pytest.approx(3.0 / 0.36, rel=1e-12)

    def test_penalized_is_zero(self):
        assert warning_of(1.0, 4.0, raw=10.0, penalized=True) == 0.0

    def test_monotone_in_lateral_distance(self):
        # constant on the clamp plateau, non-increasing beyond it
        xs = np.concatenate([np.linspace(0, 0.5, 50), np.linspace(0.5, 5, 200)])
        pos = np.zeros((xs.size, 3))
        pos[:, 0] = xs
        pos[:, 2] = 4.0
        w = warning_values(pos, np.ones(xs.size), np.zeros(xs.size, dtype=bool), WP)
        assert np.all(w[:50] == w[0])
        assert np.all(np.diff(w[50:]) <= 1e-15)

    def test_monotone_in_depth(self):
        zs = np.linspace(1.0, 16.0, 300)
        pos = np.zeros((zs.size, 3))
        pos[:, 0] = 1.0
        pos[:, 2] = zs
        w = warning_values(pos, np.ones(zs.size), np.zeros(zs.size, dtype=bool), WP)
        assert np.all(np.diff(w) <= 1e-15)

    @given(
        f=st.floats(0, 1e6),
        x=st.floats(-10, 10),
        z=st.floats(0.1, 20.0),
    )
    def test_linear_in_fitness(self, f, x, z):
        assert warning_of(x, z, raw=2.0 * f) == pytest.approx(2.0 * warning_of(x, z, raw=f), rel=1e-12)


class TestGlobalWarning:
    def test_all_useless_zero(self, default_rig):
        pop = make_pop(np.tile([0.0, 5.0, 5.0], (10, 1)), raw=5.0, penalized=True)
        report = global_warning(pop, WP)
        assert report.global_mean == 0.0
        assert np.all(report.per_fly == 0.0)

    def test_single_contributor_mean(self):
        pos = np.tile([1.0, 0.0, 4.0], (8, 1))
        raw = np.zeros(8)
        raw[3] = 4.0
        pop = make_pop(pos, raw=raw)
        report = global_warning(pop, WP)
        assert report.per_fly[3] == pytest.approx(1.0)
        assert report.global_mean == pytest.approx(1.0 / 8)
        assert type(report.global_mean) is float

    def test_mean_matches_per_fly(self):
        rng = np.random.default_rng(11)
        pos = rng.uniform([-4, -2, 1], [4, 2, 18], size=(200, 3))
        pop = make_pop(pos, raw=rng.uniform(0, 100, 200), penalized=rng.random(200) < 0.3)
        report = global_warning(pop, WP)
        assert report.global_mean == pytest.approx(report.per_fly.mean(), rel=1e-12)
        assert np.all(report.per_fly >= 0)

    def test_empty_population_rejected(self):
        pop = make_pop(np.zeros((0, 3)))
        with pytest.raises(ValueError, match="population is empty"):
            global_warning(pop, WP)


class TestTopK:
    def test_matches_sorting_oracle(self):
        # the overlay's top-k flies: the k highest shared fitness, ties to the lower index
        rng = np.random.default_rng(12)
        shared = rng.uniform(0, 10, size=1000)
        shared[rng.integers(0, 1000, 50)] = 7.0  # force ties
        pop = make_pop(np.zeros((1000, 3)), shared=shared)
        got = elite(pop.shared_fitness, OVERLAY_TOP_K)
        oracle = sorted(range(1000), key=lambda i: (-shared[i], i))[:OVERLAY_TOP_K]
        assert got.tolist() == sorted(oracle)


def test_params_validation():
    with pytest.raises(ValueError):
        WarningParams(min_height_m=2.0, max_height_m=1.0)
    with pytest.raises(ValueError):
        WarningParams(x_clamp_m=0.0)
    with pytest.raises(ValueError):
        WarningParams(max_range_m=0.5)
