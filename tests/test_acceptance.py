"""Acceptance suite.

Each test prints one summary line with the measured value against its
bound. A1-A4 assert on the measures of scripts/experiments.py, the ones
scripts/reproduce_results.py prints. The expensive runs (each seed's
steady runs on both presets at population 5000, and A3's switch runs) are
shared across criteria via session fixtures.
"""

import ast
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from flyswarm.cli import main
from flyswarm.evolution import (
    EvolutionParams,
    Population,
    StereoFrame,
    Swarm,
    apply_sharing,
    crossover,
    evaluate_population,
    select,
)
from flyswarm.imaging import Image
from flyswarm.stereo_geometry import project_many, sample_points, visible_many
from flyswarm.synth import preset_scene, render_stereo_pair
from flyswarm.warning import WarningParams, warning_values
from reference import naive_fitness, sobel_norm_map

_spec = importlib.util.spec_from_file_location("experiments", Path(__file__).resolve().parents[1] / "scripts" / "experiments.py")
ex = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ex)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="session")
def steady_means(tmp_path_factory, preset_files):
    """Each seed's ``{preset: steady mean}``."""
    root = tmp_path_factory.mktemp("steady")
    return {
        seed: {p: ex.steady_mean(ex.steady_trace(preset_files[p], root / f"{p}-{seed}", seed)) for p in ex.PRESETS}
        for seed in ex.SEEDS
    }


@pytest.fixture(scope="session")
def reactions(tmp_path_factory, preset_files, steady_means):
    """Each seed's A3 crossing."""
    root = tmp_path_factory.mktemp("switch")
    frames = ex.switch_frames(preset_files, root / "frames")
    return {seed: ex.reaction_crossing(frames, root / f"seq-{seed}", seed, steady_means[seed]) for seed in ex.SEEDS}


def test_a1_convergence(tmp_path):
    # the gate covers rendering the pair and detecting on it
    flies, elapsed = ex.convergence(tmp_path, seed=1)
    assert flies.shape[0] == 5000
    fraction = ex.depth_hit_fraction(flies)
    ok = fraction >= 0.70 and elapsed <= 10.0
    report(
        "A1 convergence",
        ok,
        f"{fraction:.1%} of top-{ex.TOP_K} within {ex.DEPTH_TOLERANCE:.0%} depth error (need >=70%), {elapsed:.1f}s (need <=10s)",
    )
    assert fraction >= 0.70
    assert elapsed <= 10.0


def test_a2_warning_discrimination(steady_means):
    ped_mean, empty_mean, ratio = ex.discrimination_ratio(steady_means.values())
    ok = ratio >= 3.0
    report(
        "A2 warning discrimination",
        ok,
        f"steady means {ped_mean:.1f} vs {empty_mean:.3f}, ratio {ratio:.1f} (need >=3)",
    )
    assert ratio >= 3.0


def test_a3_reaction_time(reactions):
    within = sum(1 for r in reactions.values() if r is not None and r <= 30)
    ok = within >= 4
    report(
        "A3 reaction time",
        ok,
        f"post-switch crossings {reactions} generations (need <=30 in >=4/5 seeds)",
    )
    assert within >= 4


@pytest.mark.timing
def test_a4_latency(session_rig, pedestrian_pair):
    mean_ms = ex.generation_latency(session_rig, pedestrian_pair, EvolutionParams())
    ok = mean_ms <= 20.0
    report("A4 latency", ok, f"mean {mean_ms:.2f} ms/generation at population 5000 (need <=20 ms)")
    assert mean_ms <= 20.0


def test_a5_fitness_oracle(session_rig, pedestrian_pair):
    left, right = pedestrian_pair
    frame = StereoFrame(left, right)
    params = EvolutionParams()
    rng = np.random.default_rng(5)
    pts = sample_points(session_rig, rng, 1000, margin=params.neighborhood_radius)
    pop = Population(pts)
    evaluate_population(pop, frame, session_rig, params)
    # the oracle reads the full-frame reference maps, not the per-fly windows
    grad_left, grad_right = sobel_norm_map(left), sobel_norm_map(right)
    worst = 0.0
    for i in range(1000):
        oracle = naive_fitness(pts[i], left, right, grad_left, grad_right, session_rig, params)
        if oracle == 0.0:
            assert pop.raw_fitness[i] == 0.0
            continue
        worst = max(worst, abs(pop.raw_fitness[i] - oracle) / oracle)
    # invisible flies score exactly zero
    far = np.tile([60.0, 0.0, 2.0], (50, 1)) * np.linspace(1, 4, 50)[:, None]
    invisible = Population(far)
    u_l, u_r, v = project_many(session_rig, far)
    assert not visible_many(session_rig, u_l, u_r, v, far[:, 2], params.neighborhood_radius).any()
    evaluate_population(invisible, frame, session_rig, params)
    ok = worst <= 1e-9 and np.all(invisible.raw_fitness == 0.0)
    report(
        "A5 fitness oracle",
        ok,
        f"max relative deviation {worst:.2e} over 1000 flies (need <=1e-9); invisible flies all 0",
    )
    assert worst <= 1e-9
    assert np.all(invisible.raw_fitness == 0.0)


def test_reference_imports_no_flyswarm_function():
    # the A5 oracle and the other references restate what they check: from
    # the package they may read value types only, and no test module
    tests = Path(__file__).parent
    tree = ast.parse((tests / "reference.py").read_text(encoding="utf-8"))
    imports = [(alias.name, None) for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imports += [(node.module or "", alias.name) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imports, "no imports parsed"
    for module, name in imports:
        top = module.split(".")[0]
        assert not (tests / f"{top}.py").exists(), module
        if top == "flyswarm":
            assert name in {"Image", "StereoRig", "EvolutionParams"}, (module, name)


def test_a6_operator_properties(session_rig, pedestrian_pair):
    cases = 10_000
    rng = np.random.default_rng(6)
    failures = []

    # crossover convexity and endpoint exactness
    a = rng.uniform([-10, -8, 1], [10, 8, 20], size=(cases, 3))
    b = rng.uniform([-10, -8, 1], [10, 8, 20], size=(cases, 3))
    lam = rng.random(cases)
    kids = lam[:, None] * a + (1 - lam[:, None]) * b
    lo = np.minimum(a, b) - 1e-9
    hi = np.maximum(a, b) + 1e-9
    if not (np.all(kids >= lo) and np.all(kids <= hi)):
        failures.append("crossover convexity")
    for i in range(0, cases, 997):
        if not np.array_equal(crossover(a[i], b[i], 1.0), a[i]):
            failures.append("lambda=1 endpoint")
        if not np.array_equal(crossover(a[i], b[i], 0.0), b[i]):
            failures.append("lambda=0 endpoint")

    # population-size conservation over generations
    swarm = Swarm(session_rig, EvolutionParams(population_size=1000, rng_seed=3))
    swarm.feed(*pedestrian_pair)
    for _ in range(10):
        swarm.step()
        if len(swarm.population) != 1000:
            failures.append("population size drift")

    # selection dominance on a random population
    pool = Population(sample_points(session_rig, rng, cases, margin=2))
    pool.raw_fitness[:] = rng.uniform(0, 50, cases)
    apply_sharing(pool, session_rig, EvolutionParams())
    survivors = select(pool, EvolutionParams())
    mask = np.zeros(cases, dtype=bool)
    mask[survivors] = True
    if pool.shared_fitness[mask].min() < pool.shared_fitness[~mask].max():
        failures.append("selection dominance")
    if np.any(pool.shared_fitness > pool.raw_fitness + 1e-12):
        failures.append("shared > raw")

    # warning monotonicity, linearity, clamp plateau
    wp = WarningParams()
    f = rng.uniform(0, 1e4, cases)
    z = rng.uniform(1.0, 16.0, cases)
    xs = np.sort(rng.uniform(0.5, 8.0, cases))
    pos = np.stack([xs, np.zeros(cases), np.full(cases, 5.0)], axis=1)
    w = warning_values(pos, np.ones(cases), np.zeros(cases, dtype=bool), wp)
    if not np.all(np.diff(w) <= 1e-15):
        failures.append("warning monotone in |x|")
    pos_plateau = np.stack([rng.uniform(-0.5, 0.5, cases), np.zeros(cases), np.full(cases, 5.0)], axis=1)
    w_plateau = warning_values(pos_plateau, np.ones(cases), np.zeros(cases, dtype=bool), wp)
    if not np.allclose(w_plateau, w_plateau[0], rtol=0, atol=0):
        failures.append("clamp plateau")
    pos_lin = np.stack([rng.uniform(-5, 5, cases), np.zeros(cases), z], axis=1)
    w1 = warning_values(pos_lin, f, np.zeros(cases, dtype=bool), wp)
    w2 = warning_values(pos_lin, 2 * f, np.zeros(cases, dtype=bool), wp)
    if not np.allclose(w2, 2 * w1, rtol=1e-12, atol=0):
        failures.append("warning linear in fitness")

    ok = not failures
    report("A6 operator properties", ok, f"{cases}-case suite; failures: {failures or 'none'}")
    assert not failures


def test_a7_determinism(tmp_path, preset_files):
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        code = main(
            [
                "detect",
                *preset_files["pedestrian-4m"],
                "--out",
                str(out),
                "--seed",
                "11",
                "--generations",
                "25",
                "--population",
                "1500",
            ]
        )
        assert code == 0
        outputs.append(
            ((out / "flies.csv").read_bytes(), (out / "warning_trace.csv").read_bytes())
        )
    same_flies = outputs[0][0] == outputs[1][0]
    same_trace = outputs[0][1] == outputs[1][1]
    ok = same_flies and same_trace
    report("A7 determinism", ok, f"flies.csv identical: {same_flies}, warning_trace.csv identical: {same_trace}")
    assert ok


def test_a8_intensity_shift_invariance(session_rig, pedestrian_pair):
    left, right = pedestrian_pair
    assert int(left.samples.max()) <= 230 and int(right.samples.max()) <= 230
    shifted = (
        Image(left.samples + 25),
        Image(right.samples + 25),
    )
    params = EvolutionParams()
    pts = sample_points(session_rig, np.random.default_rng(8), 1000, margin=params.neighborhood_radius)
    pop = Population(pts)
    evaluate_population(pop, StereoFrame(left, right), session_rig, params)
    base = pop.raw_fitness.copy()
    evaluate_population(pop, StereoFrame(*shifted), session_rig, params)
    nonzero = base > 0
    rel = np.zeros_like(base)
    rel[nonzero] = np.abs(pop.raw_fitness[nonzero] - base[nonzero]) / base[nonzero]
    exact_zero_ok = np.array_equal(pop.raw_fitness == 0, base == 0)
    worst = float(rel.max()) if nonzero.any() else 0.0
    ok = worst <= 1e-12 and exact_zero_ok
    report(
        "A8 intensity-shift invariance",
        ok,
        f"max relative fitness change {worst:.2e} over 1000 flies after +25 grey levels (need <=1e-12)",
    )
    assert worst <= 1e-12
    assert exact_zero_ok


def test_persistent_population_reacts_no_slower(steady_means, reactions, session_rig, pedestrian_pair):
    # restarting fresh at the scene switch must not react faster than the
    # population that kept refining the previous scene, whose crossings are A3's
    empty_pair = render_stereo_pair(preset_scene("empty-road", session_rig), session_rig)

    def restarted_crossing(seed):
        swarm = Swarm(session_rig, EvolutionParams(rng_seed=seed))
        swarm.feed(*empty_pair)
        for _ in range(ex.SWITCH_FRAME):
            swarm.step()
        swarm.population = Population.initialize(session_rig, swarm.params, swarm.rng)
        swarm.feed(*pedestrian_pair)
        post_switch = (swarm.step().global_mean for _ in range(ex.POST_SWITCH_FRAMES))
        return ex.first_crossing(post_switch, ex.midpoint(steady_means[seed]))

    never = ex.POST_SWITCH_FRAMES + 1  # a seed that never crosses counts one past the window
    persistent = [reactions[seed] or never for seed in ex.SEEDS[:3]]
    restarted = [restarted_crossing(seed) or never for seed in ex.SEEDS[:3]]
    assert np.mean(restarted) >= np.mean(persistent) - 2.0
