"""Traced peak memory (tracemalloc, which sees numpy's buffers and Python's
objects alike) of the stages that write a run's pixels and rows, and of
scoring a generation.

Rendering the 640x480 preset pair whole held 12.0 MB of temporaries;
painting in bands of rows holds 1.8 MB. Joining 5000 flies.csv lines into
one string held 2.3 MB; streaming them in blocks holds 0.2 MB. Writing
each overlay through ``tobytes()`` and a concatenated header held 2.8 MB,
and from the buffer of a whole-image RGB copy 0.98 MB; writing it in
bands of BAND_ROWS rows holds 0.16 MB. Each bound sits between.
Scoring 5000 flies on a new frame held 2.01 MB while the start array
and a concatenated copy of the gathered windows lived; gathering each
view's rows into one buffer and freeing each temporary once read holds
1.06 MB; keeping the projections or the SSD difference alive would hold
1.18 or 1.45 MB. The second evaluation on a frame allocates the score memo
(512 KiB) and scores 3000 new flies in 1.31 MB (1.87 MB before); its
bound leaves no room for a memo half again that size.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from flyswarm import cli, evolution
from flyswarm.evolution import (
    EvolutionParams,
    Population,
    StereoFrame,
    Swarm,
    apply_sharing,
    evaluate_population,
    select_and_refill,
)
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
    assert traced_peak_mb(cli.write_overlays, rc, *pedestrian_pair, flies[0]) <= 0.3


def test_second_evaluation_peak(session_rig, pedestrian_pair):
    params, rng = EvolutionParams(), np.random.default_rng(8)
    pop, frame = Population.initialize(session_rig, params, rng), StereoFrame(*pedestrian_pair)
    evaluate_population(pop, frame, session_rig, params)
    apply_sharing(pop, session_rig, params)
    select_and_refill(pop, session_rig, params, rng)
    assert len(pop) - pop.scored_rows == 3000 and pop.memo is None
    assert traced_peak_mb(evaluate_population, pop, frame, session_rig, params) <= 1.45
    assert pop.memo is not None


def test_fresh_evaluation_peak(session_rig, pedestrian_pair):
    params = EvolutionParams()
    pop, frame = Population.initialize(session_rig, params, np.random.default_rng(8)), StereoFrame(*pedestrian_pair)
    assert len(pop) == 5000
    assert traced_peak_mb(evaluate_population, pop, frame, session_rig, params) <= 1.12


def test_previous_frame_is_freed_before_a_new_one_is_scored(monkeypatch, session_rig, pedestrian_pair):
    swarm = Swarm(session_rig, EvolutionParams())
    swarm.feed(*pedestrian_pair)
    swarm.step()
    previous, alive = weakref.ref(swarm.frame), []
    raw_fitness = evolution._raw_fitness

    def scoring(*args):
        alive.append(previous() is not None)
        return raw_fitness(*args)

    monkeypatch.setattr(evolution, "_raw_fitness", scoring)
    swarm.feed(*pedestrian_pair[::-1])
    swarm.step()
    assert alive == [False]
