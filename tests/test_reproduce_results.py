"""The experiment script runs end to end on a short budget and prints the
measures of scripts/experiments.py, the ones the acceptance gates assert
on; the measures are checked here on hand-built traces and flies."""

import contextlib
import importlib.util
import io
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from flyswarm.synth import Scene, TexturedRect

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_results.py"
_spec = importlib.util.spec_from_file_location("reproduce_results", SCRIPT)
script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(script)
ex = script.ex  # the experiments module the script loaded
SHORT = 5  # steady generations of the short run


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    """The script's report on seed 1 at SHORT steady generations, and its output directory."""
    out = tmp_path_factory.mktemp("results")
    with contextlib.redirect_stdout(io.StringIO()) as report:
        script.run(out, seed=1, generations=SHORT)
    return report.getvalue(), out


def test_short_run_prints_every_section(short_run):
    out, tmp_path = short_run
    for text in ("steady global warning", "discrimination ratio", "crossed the presets' midpoint", "depth error",
                 "ms/generation"):
        assert text in out
    for name in ("empty-road", "pedestrian-4m"):
        header, *rows = (tmp_path / "steady" / name / "warning_trace.csv").read_text().splitlines()
        assert header == "generation,global_warning" and len(rows) == SHORT
        for g, row in enumerate(rows, start=1):
            # the CLI's trace format: an int, then the shortest repr of a float
            generation, warning = row.split(",")
            assert generation == str(g) and warning == repr(float(warning))
        assert (tmp_path / name / "left.pgm").exists()


def test_script_prints_the_gates_measures(short_run, preset_files, tmp_path):
    # the measures as the acceptance fixtures call them, on the script's seed and budget
    means = {p: ex.steady_mean(ex.steady_trace(preset_files[p], tmp_path / p, 1, SHORT)) for p in ex.PRESETS}
    crossing = ex.reaction_crossing(ex.switch_frames(preset_files, tmp_path / "frames"), tmp_path / "switch", 1, means)
    flies, _ = ex.convergence(tmp_path / "a1", 1)
    lines = short_run[0].splitlines()
    for preset, mean in means.items():
        assert f"{preset}: steady global warning {mean:.3f}" in lines
    assert f"discrimination ratio: {ex.discrimination_ratio([means])[2]:.1f}" in lines
    assert f"crossed the presets' midpoint {ex.midpoint(means):.1f} after {crossing} generations" in lines
    assert any(line.startswith(f"{ex.depth_hit_fraction(flies):.1%} of the top ") for line in lines)


@pytest.mark.parametrize(
    "post_switch, crossing",
    [
        ([5.0, 1.0, 1.0], 1),
        ([1.0] * (ex.POST_SWITCH_FRAMES - 1) + [5.0], ex.POST_SWITCH_FRAMES),
        ([1.0] * ex.POST_SWITCH_FRAMES, None),
        ([4.0, 4.0], None),
    ],
    ids=["first", "last", "never", "equal-is-not-above"],
)
def test_first_crossing(post_switch, crossing):
    assert ex.first_crossing(post_switch, 4.0) == crossing


def test_first_crossing_reads_no_further():
    warnings = iter([1.0, 5.0, 9.0])
    assert ex.first_crossing(warnings, 4.0) == 2
    assert list(warnings) == [9.0]


def test_steady_mean_is_over_exactly_the_tail():
    trace = np.arange(100.0)
    assert ex.steady_mean(trace) == np.mean(trace[100 - ex.STEADY_TAIL :])
    assert ex.steady_mean(np.concatenate([[1e6], np.ones(ex.STEADY_TAIL)])) == 1.0
    assert ex.steady_mean(np.array([1.0, 2.0, 3.0])) == 2.0  # a short trace is all tail


def test_discrimination_ratio_and_midpoint():
    means = [{"pedestrian-4m": 30.0, "empty-road": 1.0}, {"pedestrian-4m": 10.0, "empty-road": 3.0}]
    assert ex.discrimination_ratio(means) == (20.0, 2.0, 10.0)
    assert ex.midpoint(means[1]) == 6.5


def test_depth_hit_fraction_breaks_ties_to_the_lower_row():
    # an obstacle 20 m ahead; 5 % of 20 is exactly 1.0 in floats, so z = 21 is a hit on the bound
    scene = Scene(obstacles=(TexturedRect(center=(0.0, 0.0, 20.0), width_m=2.0, height_m=2.0, texture_seed=1),))
    rows = [
        (0.0, 0.0, 20.0, 9.0),  # hit
        (5.0, 0.0, 20.0, 8.0),  # no obstacle at its (x, y)
        (0.0, 0.0, 15.0, 7.0),  # too near
        (0.0, 0.0, 21.0, 5.0),  # hit on the bound, tied with the next row for 4th
        (0.0, 0.0, 25.0, 5.0),  # too far
        (0.0, 0.0, 30.0, 1.0),  # too far
    ]
    # raw fitness (column 3) ranks the rows the other way round
    flies = np.array([(x, y, z, float(i), shared) for i, (x, y, z, shared) in enumerate(rows)])
    assert ex.depth_hit_fraction(flies, scene, k=4) == 0.5


def test_switch_frames_link_the_empty_road_then_the_pedestrian(preset_files, tmp_path):
    for _ in range(2):  # a rerun into the same directory replaces the links
        frames = ex.switch_frames(preset_files, tmp_path)
    assert frames == ["--left", tmp_path / "L_*.pgm", "--right", tmp_path / "R_*.pgm"]
    expected = ["empty-road"] * ex.SWITCH_FRAME + ["pedestrian-4m"] * ex.POST_SWITCH_FRAMES
    for side, index in (("L", 1), ("R", 3)):  # the image after --left, then the one after --right
        links = sorted(tmp_path.glob(f"{side}_*.pgm"))
        assert [link.resolve() for link in links] == [Path(preset_files[p][index]).resolve() for p in expected]


def test_reaction_crossing_rejects_a_run_off_the_switch_frames(preset_files, tmp_path):
    means = {"pedestrian-4m": 2.0, "empty-road": 1.0}
    with pytest.raises(RuntimeError, match="sequence ran 1 generations"):
        ex.reaction_crossing(preset_files["empty-road"], tmp_path, 1, means)


def test_a_failed_command_raises():
    with pytest.raises(RuntimeError, match="flyswarm detect failed"):
        ex.flyswarm("detect", "--generations", 0)


def test_generation_latency_times_the_steps_after_the_warmup(monkeypatch):
    # step i takes i ms on a fake clock, so skipping or timing the warmup moves the mean
    clock = SimpleNamespace(now=0.0, steps=0, fed=None)

    class FakeSwarm:
        def __init__(self, rig, params):
            pass

        def feed(self, *pair):
            clock.fed = pair

        def step(self):
            clock.steps += 1
            clock.now += clock.steps / 1e3

    monkeypatch.setattr(ex, "Swarm", FakeSwarm)
    monkeypatch.setattr(ex, "time", SimpleNamespace(perf_counter=lambda: clock.now))
    mean_ms = ex.generation_latency(None, ("left", "right"), None)
    first = ex.WARMUP_GENERATIONS + 1
    assert clock.fed == ("left", "right") and clock.steps == ex.WARMUP_GENERATIONS + ex.TIMED_GENERATIONS
    assert mean_ms == pytest.approx(np.mean(np.arange(first, first + ex.TIMED_GENERATIONS)))
