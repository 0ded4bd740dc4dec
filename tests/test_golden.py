"""Golden outputs: a refactor must leave these bytes unchanged.

A7 only shows that two runs of the same code agree. These hashes pin the
outputs of a fixed-seed ``detect`` (A7's run), a ``detect`` on a colour
pair with a mutation sigma wide enough that mutation resamples and
clamps, a short ``sequence``, and the pair and ``truth.csv`` that ``synth``
writes for a preset and for a config scene across code changes. A change that alters behaviour on purpose updates
the hashes and says why in CHANGES.md. Measured with numpy 2.4.6.
"""

import ctypes
import hashlib
import shutil

import pytest

from conftest import colour_pair
from flyswarm.cli import main
from flyswarm.imaging import read_pnm, write_pnm

A7_FLIES = "7e0f1c2e420450a8022e0cbb2907ad5c7bd7d7b71798a2dd9d53853e288709a0"
A7_TRACE = "285c0cc603d410e4f1648ea076b23746cd3df11e0073de3c187e7b32b7c3ebbd"
COLOUR_FLIES = "845b408a36526055531c9b196ebf83d624bc847ffd5d3fcda127a966382aa20b"
COLOUR_TRACE = "fb00bb4e2b1beef5cd97d620ce532ba7e072c448bc4c52589dea18403aca24c0"
COLOUR_OVERLAY = "1de15adc5eabddd9674bbaa551fd35932c4f488ea13bd1bab7a285e18027778c"
SEQUENCE_FLIES = "494a34134669945b08538bc1bee2c61ed0cd7ea9ec4133947498f477af372d22"
SEQUENCE_TRACE = "b075adb10ea63205b10e1b0972000a27be87dfaba3638f6f32f3a9900e38b9d7"
SYNTH_PRESET = {
    "left.pgm": "e427b0130fc63f7f2df66aa81941cdd89eafcab3fe4c0123b4f5c6c970485bf1",
    "right.pgm": "dd0f4def93f432023a8f046043536510876af246ff757cc2912510f62948b491",
    "truth.csv": "77fb50f3d256c994e8ae1c2b33b5798d73ecc1a36ddb4858db1fb57ddb636f09",
}
SYNTH_CONFIG_SCENE = {
    "left.pgm": "360ff440e22b4953d00c6a988b9c4c5a926767be59545e035659f69e4d98114b",
    "right.pgm": "bded33d2487a0bcd88a7dbcdc763f8f564e398247e332cc07287d89d40c1e6f1",
    "truth.csv": "b6d0b5454c12eaa13cdcf49acba4b94faf6807bff0b6018b94cb7baad3e9c3d4",
}
# two overlapping rectangles, the nearer one with its own texture cell, over
# a seeded ground, seen by a rig whose principal point is off the centre
CONFIG_SCENE = """\
principal_point = 331.5, 228.25
obstacle = 0.3, -0.5, 5.0, 1.2, 1.4, 7
obstacle = -0.2, -0.3, 3.5, 0.8, 1.0, 9, 0.021
ground_texture_seed = 55
"""


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_detect_a7_run(tmp_path, preset_files):
    out = tmp_path / "a7"
    argv = ["detect", *preset_files["pedestrian-4m"], "--seed", "11", "--population", "1500", "--generations", "25"]
    assert main(argv + ["--out", str(out)]) == 0
    assert sha256(out / "flies.csv") == A7_FLIES
    assert sha256(out / "warning_trace.csv") == A7_TRACE


def _no_c_library(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("cdll", [_no_c_library, lambda name: object()], ids=["no-library", "no-mallopt"])
def test_detect_a7_run_without_mallopt(tmp_path, preset_files, monkeypatch, cdll):
    # the allocator tuning is glibc only; anywhere else it does nothing
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    test_detect_a7_run(tmp_path, preset_files)


def test_detect_colour_wide_mutation(tmp_path):
    # a colour pair takes the colour Sobel branch, and a sigma of metres
    # sends mutants out of the volume, so they are redrawn and clamped
    assert main(["synth", "--preset", "pedestrian-4m", "--out", str(tmp_path / "grey")]) == 0
    grey = (read_pnm(tmp_path / "grey" / "left.pgm"), read_pnm(tmp_path / "grey" / "right.pgm"))
    for name, image in zip(("left.ppm", "right.ppm"), colour_pair(grey)):
        write_pnm(tmp_path / name, image)
    (tmp_path / "wide.cfg").write_text("mutation_sigma = 1.0, 1.0, 2.0\n", encoding="utf-8")
    out = tmp_path / "colour"
    argv = ["detect", "--left", str(tmp_path / "left.ppm"), "--right", str(tmp_path / "right.ppm")]
    argv += ["--config", str(tmp_path / "wide.cfg"), "--seed", "5", "--population", "1500", "--generations", "25"]
    assert main(argv + ["--out", str(out)]) == 0
    assert sha256(out / "flies.csv") == COLOUR_FLIES
    assert sha256(out / "warning_trace.csv") == COLOUR_TRACE
    assert sha256(out / "overlay_left.ppm") == COLOUR_OVERLAY


def test_sequence_empty_then_pedestrian(tmp_path):
    for preset in ("empty-road", "pedestrian-4m"):
        assert main(["synth", "--preset", preset, "--out", str(tmp_path / preset)]) == 0
    frames = tmp_path / "frames"
    frames.mkdir()
    for i, preset in enumerate(["empty-road"] * 3 + ["pedestrian-4m"] * 3):
        shutil.copy(tmp_path / preset / "left.pgm", frames / f"L_{i}.pgm")
        shutil.copy(tmp_path / preset / "right.pgm", frames / f"R_{i}.pgm")
    out = tmp_path / "seq"
    argv = ["sequence", "--left", str(frames / "L_*.pgm"), "--right", str(frames / "R_*.pgm")]
    argv += ["--seed", "3", "--population", "800", "--generations", "2", "--out", str(out)]
    assert main(argv) == 0
    assert sha256(out / "flies.csv") == SEQUENCE_FLIES
    assert sha256(out / "warning_trace.csv") == SEQUENCE_TRACE


def test_synth_preset(tmp_path):
    assert main(["synth", "--preset", "pedestrian-4m", "--out", str(tmp_path)]) == 0
    assert {name: sha256(tmp_path / name) for name in SYNTH_PRESET} == SYNTH_PRESET


def test_synth_config_scene(tmp_path):
    (tmp_path / "scene.cfg").write_text(CONFIG_SCENE, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["synth", "--config", str(tmp_path / "scene.cfg"), "--out", str(out)]) == 0
    assert {name: sha256(out / name) for name in SYNTH_CONFIG_SCENE} == SYNTH_CONFIG_SCENE
