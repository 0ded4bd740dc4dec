"""The benchmark's traced runner must reproduce the CLI byte for byte.

``perfbench/traced.py`` calls the public generation phases one by one
to time each of them, and the benchmark compares its output with the
CLI's on every traced run. This test runs the same comparison on a short
``detect``, so a change that breaks the traced runner fails here rather
than in the benchmark.
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


def test_traced_detect_matches_cli(tmp_path, capsys):
    traced, worker = load("traced"), load("worker")
    scene = tmp_path / "scene"
    assert main(["synth", "--preset", "pedestrian-4m", "--out", str(scene)]) == 0
    spec = {
        "command": "detect",
        "left": str(scene / "left.pgm"),
        "right": str(scene / "right.pgm"),
        "seed": 7,
        "generations": 3,
    }
    capsys.readouterr()
    assert main(worker.cli_argv({**spec, "out": str(tmp_path / "cli")})) == 0
    cli_stdout = capsys.readouterr().out
    traced.run({**spec, "out": str(tmp_path / "traced")})
    assert capsys.readouterr().out == cli_stdout
    assert len(cli_stdout.splitlines()) == 4
    for name in ("flies.csv", "warning_trace.csv"):
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()
