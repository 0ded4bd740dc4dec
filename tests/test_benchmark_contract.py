"""The benchmark's traced runner must reproduce the CLI byte for byte.

``perfbench/traced.py`` calls the public generation phases one by one
to time each of them, and the benchmark compares its output with the
CLI's on every traced run. These tests run the same comparison on a short
``detect`` and a short ``sequence``, so a change that breaks the traced
runner fails here rather than in the benchmark.
"""

import importlib.util
from pathlib import Path

from flyswarm.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_both(tmp_path, capsys, spec: dict) -> str:
    """Run ``spec`` through the CLI and the traced runner; return the
    stdout after checking that it and the output files are identical."""
    traced, worker = load("traced"), load("worker")
    capsys.readouterr()
    assert main(worker.cli_argv({**spec, "out": str(tmp_path / "cli")})) == 0
    cli_stdout = capsys.readouterr().out
    traced.run({**spec, "out": str(tmp_path / "traced")})
    assert capsys.readouterr().out == cli_stdout
    for name in ("flies.csv", "warning_trace.csv"):
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()
    return cli_stdout


def test_traced_detect_matches_cli(tmp_path, capsys):
    scene = tmp_path / "scene"
    assert main(["synth", "--preset", "pedestrian-4m", "--out", str(scene)]) == 0
    spec = {
        "command": "detect",
        "left": str(scene / "left.pgm"),
        "right": str(scene / "right.pgm"),
        "seed": 7,
        "generations": 3,
    }
    assert len(run_both(tmp_path, capsys, spec).splitlines()) == 4


def test_traced_sequence_matches_cli(tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    for i, preset in enumerate(["empty-road", "empty-road", "pedestrian-4m", "pedestrian-4m"]):
        scene = tmp_path / preset
        if not scene.exists():
            assert main(["synth", "--preset", preset, "--out", str(scene)]) == 0
        (frames / f"L_{i}.pgm").write_bytes((scene / "left.pgm").read_bytes())
        (frames / f"R_{i}.pgm").write_bytes((scene / "right.pgm").read_bytes())
    spec = {
        "command": "sequence",
        "left": str(frames / "L_*.pgm"),
        "right": str(frames / "R_*.pgm"),
        "seed": 5,
        "generations": 2,
    }
    assert len(run_both(tmp_path, capsys, spec).splitlines()) == 9
