"""Traced runner: the detect/sequence frame path, one span per public call.

It calls the same public functions, in the same order and with the same
arguments, as ``flyswarm.cli`` does for ``detect`` and ``sequence``:
decode, ``Population.initialize``, then per frame a ``StereoFrame``
rebuilt only when the pixels change, and per generation
``evaluate_population`` -> ``flag_useless`` -> ``apply_sharing`` ->
``global_warning`` -> ``select_and_refill``; then a final evaluation and
the output writers. Its stdout and output files must equal the CLI's for
the same spec; the benchmark checks this on every traced run.

Span tree: ``run`` > ``load`` > ``imaging.read_pnm``; ``run`` >
``frame`` > ``generation`` > phase spans; ``run`` > ``final``;
``run`` > ``output`` > ``cli.write_*``.
"""

from __future__ import annotations

import glob
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from flyswarm import cli, evolution, imaging, warning
from flyswarm.config import evolution_params_from_config, rig_from_config, warning_params_from_config
from flyswarm.evolution import EvolutionParams


class Tracer:
    """In-memory spans; self time is duration minus the children's durations."""

    def __init__(self):
        self.self_ms: dict[str, list[float]] = {}
        self._child_time = [0.0]
        self.counts = {"read_bytes": 0, "frames": 0, "builds": 0, "evaluated": 0, "visible": 0, "flagged": 0, "penalized": 0}

    @contextmanager
    def span(self, name: str):
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            children = self._child_time.pop()
            self._child_time[-1] += duration
            self.self_ms.setdefault(name, []).append((duration - children) * 1e3)

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)


def _sources(spec: dict) -> list[tuple[str, str]]:
    if spec["command"] == "detect":
        return [(spec["left"], spec["right"])]
    return list(zip(sorted(glob.glob(spec["left"])), sorted(glob.glob(spec["right"]))))


def _evaluate(tr: Tracer, pop, frame, rig, evo, wp):
    tr.call("evolution.evaluate_population", evolution.evaluate_population, pop, frame, rig, evo)
    tr.counts["evaluated"] += len(pop)
    tr.counts["visible"] += int(np.count_nonzero(pop.raw_fitness > 0))
    tr.call("warning.flag_useless", warning.flag_useless, pop, rig, wp)
    tr.counts["flagged"] += len(pop)
    tr.counts["penalized"] += int(np.count_nonzero(pop.penalized))
    tr.call("evolution.apply_sharing", evolution.apply_sharing, pop, rig, evo)
    return tr.call("warning.global_warning", warning.global_warning, pop, wp)


def run(spec: dict) -> dict:
    """Run one spec traced; returns the span self times and the counts."""
    tr = Tracer()
    rig = rig_from_config({})
    evo = EvolutionParams(**{**evolution_params_from_config({}).__dict__, "rng_seed": spec["seed"]})
    wp = warning_params_from_config({})
    out = Path(spec["out"])
    t_start = time.perf_counter()
    with tr.span("run"):
        with tr.span("load"):
            frames = []
            for lp, rp in _sources(spec):
                pair = (tr.call("imaging.read_pnm", imaging.read_pnm, lp), tr.call("imaging.read_pnm", imaging.read_pnm, rp))
                tr.counts["read_bytes"] += os.path.getsize(lp) + os.path.getsize(rp)
                frames.append(pair)
        out.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(evo.rng_seed)
        pop = tr.call("evolution.Population.initialize", evolution.Population.initialize, rig, evo, rng)
        rows: list[tuple[int, float]] = []
        stereo = current = None
        for left, right in frames:
            with tr.span("frame"):
                tr.counts["frames"] += 1
                if stereo is None or not (
                    np.array_equal(left.samples, current[0].samples)
                    and np.array_equal(right.samples, current[1].samples)
                ):
                    stereo = tr.call("evolution.StereoFrame", evolution.StereoFrame, left, right)
                    current = (left, right)
                    tr.counts["builds"] += 1
                for _ in range(spec["generations"]):
                    with tr.span("generation"):
                        report = _evaluate(tr, pop, stereo, rig, evo, wp)
                        rows.append((len(rows) + 1, report.global_mean))
                        print(f"{len(rows)},{float(report.global_mean)!r}")
                        tr.call("evolution.select_and_refill", evolution.select_and_refill, pop, rig, evo, rng)
        with tr.span("final"):
            final = _evaluate(tr, pop, stereo, rig, evo, wp)
        with tr.span("output"):
            tr.call("cli.write_trace_csv", cli.write_trace_csv, out / "warning_trace.csv", rows)
            tr.call("cli.write_flies_csv", cli.write_flies_csv, out / "flies.csv", pop, final.per_fly)
            if spec["command"] == "detect":
                rc = cli.RunConfig(rig=rig, evo=evo, warn=wp, generations=spec["generations"], out_dir=out)
                tr.call("cli.write_overlays", cli.write_overlays, rc, frames[0][0], frames[0][1], pop)
        print(f"{float(final.global_mean)!r}")
    total_ms = (time.perf_counter() - t_start) * 1e3
    return {"self_ms": tr.self_ms, "total_ms": total_ms, "counts": tr.counts}
