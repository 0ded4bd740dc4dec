"""Tests of the benchmark's output oracle and of its depth accuracy metric.

Run from the root of a checkout: python3 -m pytest -q perfbench/test_oracle.py
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
from flyswarm.cli import main  # noqa: E402
from flyswarm.config import rig_from_config  # noqa: E402
from flyswarm.synth import preset_scene  # noqa: E402

GENERATIONS = 5
POPULATION = 400


@pytest.fixture(scope="module")
def detect_run(tmp_path_factory):
    """A small detect run: (scene dir, run dir, stdout lines)."""
    root = tmp_path_factory.mktemp("oracle")
    scene, run = root / "scene", root / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--preset", "pedestrian-4m", "--out", str(scene)]) == 0
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(
            ["detect", "--left", str(scene / "left.pgm"), "--right", str(scene / "right.pgm"), "--out", str(run)]
            + ["--seed", "3", "--generations", str(GENERATIONS), "--population", str(POPULATION)]
        )
    assert code == 0
    return scene, run, stdout.getvalue().splitlines()


def run_checks(scene: Path, flies_csv: Path, lines: list[str]) -> oracle.Checks:
    checks = oracle.Checks()
    oracle.parse_warnings(checks, lines, GENERATIONS)
    table = oracle.check_flies(checks, flies_csv, scene / "left.pgm", scene / "right.pgm")
    oracle.check_final(checks, lines, table)
    return checks


def test_clean_run_passes_every_check(detect_run):
    scene, run, lines = detect_run
    checks = run_checks(scene, run / "flies.csv", lines)
    assert checks.failed == 0, checks.messages
    assert checks.attempted == 1 + GENERATIONS + 2 * POPULATION + 1


def test_perturbed_fitness_and_nonfinite_line_each_fail_one_check(detect_run, tmp_path):
    scene, run, lines = detect_run
    rows = (run / "flies.csv").read_text().splitlines()
    victim = next(i for i, row in enumerate(rows[1:], 1) if float(row.split(",")[3]) > 0)
    fields = rows[victim].split(",")
    fields[3] = repr(float(fields[3]) * (1 + 1e-6))
    rows[victim] = ",".join(fields)
    flies = tmp_path / "flies.csv"
    flies.write_text("\n".join(rows) + "\n")

    checks = run_checks(scene, flies, lines)
    assert checks.failed == 1, checks.messages

    bad_lines = list(lines)
    bad_lines[2] = "3,nan"
    checks = run_checks(scene, flies, bad_lines)
    assert checks.failed == 2, checks.messages


def test_oracle_imports_no_flyswarm_code():
    tree = ast.parse((HERE / "oracle.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name.split(".")[0] == "flyswarm" for name in imported), imported


def test_depth_hit_frac_counts_only_flies_whose_ray_meets_the_pedestrian():
    rig = rig_from_config({})
    scene = preset_scene("pedestrian-4m", rig)
    cx, cy, cz = scene.obstacles[0].center
    on_pedestrian = (cx, cy, cz)
    behind_pedestrian = (cx, cy, 1.5 * cz)
    on_road = (3.0, -rig.camera_height_m, 8.0)
    above_horizon = (3.0, 1.0, 5.0)
    positions = np.array([on_pedestrian, behind_pedestrian, on_road, above_horizon])
    assert run.depth_hit_frac(positions, scene, rig) == 0.5
    assert run.depth_hit_frac(positions[2:], scene, rig) == 0.0
