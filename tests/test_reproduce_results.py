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
        header, *rows = (tmp_path / f"trace_{name}.csv").read_text().splitlines()
        assert header == "generation,global_warning" and len(rows) == 5
        for g, row in enumerate(rows, start=1):
            # the CLI's trace format: an int, then the shortest repr of a float
            generation, warning = row.split(",")
            assert generation == str(g) and warning == repr(float(warning))
        assert (tmp_path / name / "left.pgm").exists()
