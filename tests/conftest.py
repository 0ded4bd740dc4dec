import hypothesis
import numpy as np
import pytest

from flyswarm.cli import main
from flyswarm.evolution import EvolutionParams, Population, StereoFrame, evaluate_population
from flyswarm.imaging import Image
from flyswarm.stereo_geometry import StereoRig
from flyswarm.synth import PRESET_NAMES, preset_scene, render_stereo_pair

hypothesis.settings.register_profile("default", max_examples=100, deadline=None)
hypothesis.settings.load_profile("default")


@pytest.fixture
def default_rig() -> StereoRig:
    return StereoRig(
        image_size=(640, 480), focal_length_px=500.0, principal_point=(320.0, 240.0),
        baseline_m=0.4,
        camera_height_m=1.2,
        z_min_m=1.0,
        z_max_m=20.0,
    )


@pytest.fixture
def symmetric_rig() -> StereoRig:
    # principal point at the exact image centre so the search volume is
    # symmetric in x and y
    return StereoRig(
        image_size=(640, 480), focal_length_px=500.0, principal_point=(319.5, 239.5),
        baseline_m=0.4,
        camera_height_m=1.2,
    )


@pytest.fixture
def small_rig() -> StereoRig:
    # 64x64 images for fast evolutionary loops
    return StereoRig(
        image_size=(64, 64), focal_length_px=80.0, principal_point=(32.0, 32.0),
        baseline_m=0.2,
        camera_height_m=0.8,
        z_min_m=0.5,
        z_max_m=5.0,
    )


@pytest.fixture(scope="session")
def session_rig() -> StereoRig:
    return StereoRig(
        image_size=(640, 480), focal_length_px=500.0, principal_point=(320.0, 240.0),
        baseline_m=0.4,
        camera_height_m=1.2,
    )


@pytest.fixture(scope="session")
def pedestrian_scene(session_rig):
    return preset_scene("pedestrian-4m", session_rig)


@pytest.fixture(scope="session")
def pedestrian_pair(pedestrian_scene, session_rig):
    return render_stereo_pair(pedestrian_scene, session_rig)


@pytest.fixture(scope="session")
def pedestrian_frame(pedestrian_pair):
    return StereoFrame(*pedestrian_pair)


@pytest.fixture(scope="session")
def preset_files(tmp_path_factory) -> dict[str, list[str]]:
    """The ``--left``/``--right`` arguments of each preset's pair on the
    default rig, written once by ``synth``."""
    root = tmp_path_factory.mktemp("presets")
    files = {}
    for name in PRESET_NAMES:
        assert main(["synth", "--preset", name, "--out", str(root / name)]) == 0
        files[name] = ["--left", str(root / name / "left.pgm"), "--right", str(root / name / "right.pgm")]
    return files


@pytest.fixture
def default_params() -> EvolutionParams:
    return EvolutionParams()


def colour_pair(pair):
    """A colour version of a grey pair; one channel mix applied to both
    views keeps the pair photo-consistent."""
    return tuple(
        Image(np.stack([s, 255 - s, (s.astype(np.uint16) * 3 % 256).astype(np.uint8)], axis=2))
        for s in (pair[0].samples, pair[1].samples)
    )


def window_fitness(left: Image, right: Image, centres, radius: int, epsilon: float = 1.0) -> np.ndarray:
    """Batch fitness of one fly per ((x_left, y), (x_right, y)) centre pair.

    A rig with focal length 100 px, baseline 1 m and the principal point
    at the origin puts a fly at depth 100 / (x_left - x_right) onto
    exactly those pixels.
    """
    rig = StereoRig((left.width, left.height), 100.0, (0.0, 0.0), baseline_m=1.0)
    positions = []
    for (xl, y), (xr, yr) in centres:
        assert y == yr and xl > xr  # rectified rig: same row, positive disparity
        z = 100.0 / (xl - xr)
        positions.append((xl * z / 100.0 - 0.5, -y * z / 100.0, z))
    pop = Population(np.array(positions, dtype=np.float64))
    params = EvolutionParams(neighborhood_radius=radius, fitness_epsilon=epsilon)
    evaluate_population(pop, StereoFrame(left, right), rig, params)
    return pop.raw_fitness
