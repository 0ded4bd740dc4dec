"""Traced peak memory (tracemalloc, which sees numpy's buffers and Python's
objects alike) of the stages that write a run's pixels and rows.

Rendering the 640x480 preset pair whole held 12.0 MB of temporaries;
painting in bands of rows holds 1.8 MB. Joining 5000 flies.csv lines into
one string held 2.3 MB; streaming them in blocks holds 0.2 MB. Writing
each overlay through ``tobytes()`` and a concatenated header held 2.8 MB;
writing the samples' own buffer holds 1.0 MB. Each bound sits between.
"""

import tracemalloc

import numpy as np
import pytest

from flyswarm import cli
from flyswarm.evolution import EvolutionParams, Population
from flyswarm.synth import render_stereo_pair
from flyswarm.warning import WarningParams


def traced_peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def flies(session_rig):
    """5000 flies over the search volume with every column filled."""
    rng = np.random.default_rng(8)
    pop = Population.initialize(session_rig, EvolutionParams(), rng)
    pop.raw_fitness[:] = rng.random(len(pop))
    pop.shared_fitness[:] = rng.random(len(pop))
    pop.penalized[:] = rng.random(len(pop)) < 0.1
    return pop, rng.random(len(pop))


def test_render_peak(session_rig, pedestrian_scene):
    assert traced_peak_mb(render_stereo_pair, pedestrian_scene, session_rig) <= 3.0


def test_write_flies_csv_peak(tmp_path, flies):
    assert len(flies[0]) == 5000
    assert traced_peak_mb(cli.write_flies_csv, tmp_path / "flies.csv", *flies) <= 0.5


def test_write_overlays_peak(tmp_path, session_rig, pedestrian_pair, flies):
    rc = cli.RunConfig(session_rig, EvolutionParams(), WarningParams(), 1, tmp_path)
    assert traced_peak_mb(cli.write_overlays, rc, *pedestrian_pair, flies[0]) <= 1.5
