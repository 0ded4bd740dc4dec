"""The experiment script runs end to end on a short budget."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_results.py"


def test_short_run_prints_every_section(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("reproduce_results", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.run(tmp_path, seed=1, generations=5)
    out = capsys.readouterr().out
    for text in ("steady global warning", "discrimination ratio", "crossed the presets' midpoint", "ms/generation"):
        assert text in out
    for name in ("empty-road", "pedestrian-4m"):
        assert len((tmp_path / f"trace_{name}.csv").read_text().splitlines()) == 1 + 5
        assert (tmp_path / name / "left.pgm").exists()
