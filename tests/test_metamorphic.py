"""Metamorphic relations: a run checked against a transformed copy of
itself, with no stored answer (Chen, Cheung & Yiu, HKUST-CS98-01, 1998).

Relation S: a length has no unit. Multiplying every metric key of the
rig, scene, evolution and warning groups by s = 2**k leaves each
projection on the same pixels, so ``synth`` writes the same images and
``detect`` and ``sequence`` the same raw fitness, shared fitness,
penalization and overlays, with every position exactly s times its own
and every warning exactly s**-3 times its own.

Relation M: mirroring both views, swapping them, moving the principal
point to (w - 1) - u0 and negating each fly's x moves each projection
onto the mirrored pixel of the other view. A grey pair's raw fitness
keeps its bits; a colour pair's Sobel sums regroup, so it keeps its
value to rounding.
"""

import contextlib
import dataclasses
import io

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from flyswarm.cli import main
from flyswarm.evolution import EvolutionParams, Population, StereoFrame, evaluate_population
from flyswarm.imaging import Image
from flyswarm.stereo_geometry import CameraIntrinsics, StereoRig, project_many, sample_points

# the keys in metres; every other key is in pixels or counts, and an
# obstacle's numbers are metres but for its texture seed, the sixth
METRIC_KEYS = {
    "baseline_m", "camera_height_m", "z_min_m", "z_max_m", "ground_texture_cell_m", "mutation_sigma",
    "max_height_m", "min_height_m", "max_range_m", "x_clamp_m", "z_clamp_m",
}
OBSTACLE_SEED = 5


@st.composite
def small_runs(draw):
    """A rig of side 16 to 64 px, a scene of 0 to 3 obstacles over a ground
    or none, and a run of at most 64 flies for 1 to 3 generations, as the
    lines of each key group (a list of value rows per key) and the flags."""
    w, h, radius = draw(st.integers(16, 64)), draw(st.integers(16, 64)), draw(st.integers(0, 3))
    f, baseline = draw(st.floats(0.5, 2.0)) * w, draw(st.floats(0.1, 0.5))
    z_min = f * baseline / (w - 1 - 2 * radius) * draw(st.floats(1.01, 2.0))  # the two views overlap from here
    z_max = z_min * draw(st.floats(1.5, 8.0))
    principal_point = (draw(st.floats(0, w - 1)), draw(st.floats(0, h - 1)))
    rig = {
        "image_size": [(w, h)], "focal_length_px": [(f,)], "principal_point": [principal_point],
        "baseline_m": [(baseline,)], "camera_height_m": [(draw(st.floats(0.0, 2.0)),)],
        "z_min_m": [(z_min,)], "z_max_m": [(z_max,)],
    }
    obstacle = st.tuples(
        st.floats(-1, 1), st.floats(-1, 1), st.floats(z_min, z_max), st.floats(0.1, 2), st.floats(0.1, 2),
        st.integers(0, 1000), st.floats(0.01, 0.2),
    )
    scene = {"obstacle": draw(st.lists(obstacle, max_size=3)), "ground_texture_cell_m": [(draw(st.floats(0.01, 0.1)),)]}
    ground_seed = draw(st.none() | st.integers(0, 1000))
    if ground_seed is not None:
        scene["ground_texture_seed"] = [(ground_seed,)]
    z_clamp = draw(st.floats(0.1, 2.0))
    run = {
        "neighborhood_radius": [(radius,)],
        "max_height_m": [(draw(st.floats(0.5, 3.0)),)], "min_height_m": [(draw(st.floats(0.0, 0.4)),)],
        "max_range_m": [(z_clamp + draw(st.floats(0.1, 2 * z_max)),)],
        "x_clamp_m": [(draw(st.floats(0.05, 1.0)),)], "z_clamp_m": [(z_clamp,)],
    }
    sigma = draw(st.none() | st.tuples(*[st.floats(0.0, 0.2)] * 3))  # None derives it from the volume
    if sigma is not None:
        run["mutation_sigma"] = [sigma]
    flags = ["--population", draw(st.integers(2, 64)), "--generations", draw(st.integers(1, 3))]
    flags += ["--seed", draw(st.integers(0, 2**16))]
    return {"rig": rig, "scene": scene, "run": run, "flags": [str(flag) for flag in flags]}


# a rig whose flies all lie below 1 cm at k = -10
TEN_CM_RIG = {
    "rig": {
        "image_size": [(48, 40)], "focal_length_px": [(60.0,)], "principal_point": [(24.0, 20.0)],
        "baseline_m": [(0.2,)], "camera_height_m": [(0.8,)], "z_min_m": [(0.5,)], "z_max_m": [(5.0,)],
    },
    "scene": {
        "obstacle": [(0.0, -0.3, 2.0, 1.0, 1.0, 7, 0.05)], "ground_texture_cell_m": [(0.03,)],
        "ground_texture_seed": [(101,)],
    },
    "run": {
        "neighborhood_radius": [(2,)], "max_height_m": [(2.0,)], "min_height_m": [(0.1,)],
        "max_range_m": [(4.0,)], "x_clamp_m": [(0.5,)], "z_clamp_m": [(1.0,)],
    },
    "flags": ["--population", "64", "--generations", "3", "--seed", "3"],
}


def config_text(groups, s: float) -> str:
    """The lines of ``groups``, each metric number times s."""
    lines = []
    for group in groups:
        for key, rows in group.items():
            for row in rows:
                metric = [key in METRIC_KEYS or (key == "obstacle" and i != OBSTACLE_SEED) for i in range(len(row))]
                lines.append(f"{key} = " + ", ".join(repr(v * s if m else v) for v, m in zip(row, metric)))
    return "\n".join(lines) + "\n"


def run_outputs(work, case, s: float) -> dict:
    """Synth the scene, then detect on its pair and sequence over it and its
    swapped copy, all at scale s; returns each command's stdout and files."""
    work.mkdir()
    (work / "synth.conf").write_text(config_text([case["rig"], case["scene"]], s))
    (work / "run.conf").write_text(config_text([case["rig"], case["run"]], s))
    out = {}
    assert main(["synth", "--config", str(work / "synth.conf"), "--out", str(work / "synth")]) == 0
    left, right = (work / "synth" / name for name in ("left.pgm", "right.pgm"))
    (work / "seq").mkdir()
    for i, (a, b) in enumerate([(left, right), (right, left)]):
        (work / "seq" / f"L_{i}.pgm").write_bytes(a.read_bytes())
        (work / "seq" / f"R_{i}.pgm").write_bytes(b.read_bytes())
    commands = {
        "detect": ["--left", str(left), "--right", str(right)],
        "sequence": ["--left", str(work / "seq" / "L_*.pgm"), "--right", str(work / "seq" / "R_*.pgm")],
    }
    for command, pairs in commands.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            argv = [command, *pairs, "--config", str(work / "run.conf"), *case["flags"], "--out", str(work / command)]
            assert main(argv) == 0
        *trace, final = stdout.getvalue().splitlines()
        out[f"{command}/stdout"] = table([*trace, "nan," + final], 2)  # the final warning, under no generation
    for path in work.glob("*/*"):
        if path.suffix == ".csv":
            header, *rows = path.read_text().splitlines()
            out[path.relative_to(work).as_posix()] = table(rows, header.count(",") + 1)
        elif path.parent.name != "seq":
            out[path.relative_to(work).as_posix()] = path.read_bytes()
    return out


def table(rows: list[str], width: int) -> np.ndarray:
    return np.array([[float(v) for v in row.split(",")] for row in rows]).reshape(len(rows), width)


# the factor of each column of each CSV; the trace and stdout are generation, warning
COLUMN_SCALE = {
    "flies.csv": lambda s: [s, s, s, 1, 1, 1, s**-3],  # x, y, z, raw and shared fitness, penalized, warning
    "truth.csv": lambda s: [s, s, s, s, s, 1, s],  # centre, width, height, texture seed, texture cell
}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=small_runs(), k=st.integers(-100, 100))
@example(case=TEN_CM_RIG, k=-10)  # a fixed 1 cm depth floor once scored every fly 0 here
def test_scaling_every_length_scales_the_run(tmp_path_factory, case, k):
    root = tmp_path_factory.mktemp("scale")
    s = 2.0**k
    base, scaled = run_outputs(root / "base", case, 1.0), run_outputs(root / "scaled", case, s)
    assert base.keys() == scaled.keys()
    for name, got in scaled.items():
        want = base[name]
        if not isinstance(want, bytes):  # images and overlays keep their bytes
            want = want * COLUMN_SCALE.get(name.split("/")[1], lambda s: [1, s**-3])(s)
        np.testing.assert_array_equal(got, want, err_msg=name)


@settings(max_examples=100, deadline=None)
@given(
    w=st.integers(16, 64), h=st.integers(16, 64), f=st.floats(0.5, 2.0), baseline=st.floats(0.1, 0.5),
    u0=st.floats(0, 1), v0=st.floats(0, 1), radius=st.integers(0, 3), channels=st.sampled_from([1, 3]),
    seed=st.integers(0, 2**16),
)
def test_mirrored_swapped_pair_keeps_the_fitness(w, h, f, baseline, u0, v0, radius, channels, seed):
    u0, v0, f = u0 * (w - 1), v0 * (h - 1), f * w
    rig = StereoRig(CameraIntrinsics(f, (u0, v0), w, h), baseline_m=baseline, z_min_m=2 * f * baseline / (w - 1 - 2 * radius))
    mirrored = dataclasses.replace(rig, intrinsics=dataclasses.replace(rig.intrinsics, principal_point=(w - 1 - u0, v0)))
    rng = np.random.default_rng(seed)
    left, right = rng.integers(0, 256, (2, h, w) + (channels,) * (channels == 3), dtype=np.uint8)
    frame = StereoFrame(Image(left), Image(right))
    flipped = StereoFrame(Image(right[:, ::-1]), Image(left[:, ::-1]))
    params = EvolutionParams(neighborhood_radius=radius)
    positions = sample_points(rig, rng, 500, radius)
    got = []
    for r, fr, pts in [(rig, frame, positions), (mirrored, flipped, positions * [-1.0, 1.0, 1.0])]:
        pop = Population(pts)
        evaluate_population(pop, fr, r, params)
        got.append(pop.raw_fitness)
    # np.rint sends a tie to the even side, which the mirror turns odd
    no_tie = ~np.any([(p % 1) == 0.5 for p in project_many(rig, positions)], axis=0)
    base, mirror = got[0][no_tie], got[1][no_tie]
    assert (base > 0).any()
    if channels == 1:
        np.testing.assert_array_equal(mirror, base)
    else:
        np.testing.assert_allclose(mirror, base, rtol=1e-12, atol=1e-8)
