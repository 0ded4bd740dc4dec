"""Parisian evolutionary core.

Each individual ("fly") is a single 3-D point; the population as a whole
is the scene description. A ``Swarm`` is that population evolving over a
stream of stereo pairs: ``feed`` hands it a pair, ``step`` runs one
generation and ``evaluate`` scores the final population. One generation,
in order:

1. evaluate the raw fitness of every fly against the current frame
   (survivors of the last selection keep theirs while the frame, rig
   and params are unchanged, and a per-frame memo serves new flies on
   pixel triples scored before, so only the rest are scored),
2. flag useless flies and apply fitness sharing,
3. compute the global warning of the evaluated population,
4. keep the best ``selection_ratio`` of the population (elitist,
   deterministic, ties to the lower index),
5. refill the vacated slots with barycentric crossover, Gaussian
   mutation and, in the slots left over, fresh immigrants.

The fitness of a fly is the product of the Sobel gradient norms at its
two projections divided by the (epsilon-shifted) sum of squared
differences between the projection neighborhoods: flies on a textured
surface project onto matching, gradient-rich windows and score high;
flies in front of or behind a surface compare unrelated windows; flies
over uniform regions are killed by the gradient product.

The swarm only ever looks at the pixels its flies project onto, and so
does the code: a ``StereoFrame`` holds the two uint8 images, and each
new fly gathers one uint8 window per view around its projection. The
window is read as its 2m+1 rows: the flat samples are viewed as
overlapping runs of 2m+1 pixels, one void item per starting sample, and
one fancy index per view fetches every new fly's rows at once. The
Sobel norm comes from the window's central 3x3 and the SSD from its
central neighborhood, summed in integers. Both give the same bits as
a full-frame Sobel map and a float64 SSD, so a new frame costs no
full-frame work.

``positions`` is an (N, 3) array, one row per fly, and every operator
works on whole arrays, so a full generation at population 5000 stays
well inside a real-time budget. The operators gather rows with
``np.take(..., axis=0)``, broadcast a per-row weight along the long
axis (over the transpose, not as an (N, 1) column), and draw with
numpy's own formulas off its broadcast-parameter path: same stream,
same bits. Selection partitions the shared fitness around the k-th
largest value instead of sorting it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imaging import LUMA_WEIGHTS, Image
from .stereo_geometry import StereoRig, project_many, sample_points, search_volume, visible_many
from .warning import WarningParams, WarningReport, flag_useless, global_warning

MUTATION_RESAMPLE_LIMIT = 8

# Fraction of each search-volume axis used for the default mutation sigma.
# Mutation is the local refinement operator here (immigration does the
# global exploring); a small sigma is what lets mutants of a converged
# fly stay inside the sub-pixel disparity band of a surface. Wider
# defaults measurably slow the reaction to scene changes.
DEFAULT_SIGMA_FRACTION = 0.001

MEMO_BITS = 15  # the memo's 2**15 slots of 16 bytes (512 KiB); a key's slot is the top bits of its Fibonacci hash
_FIBONACCI = np.uint64(0x9E3779B97F4A7C15)  # 2**64 over the golden ratio, odd
_LUMA = np.asarray(LUMA_WEIGHTS)


@dataclass(frozen=True)
class EvolutionParams:
    """All rates and tolerances of the evolutionary loop; frozen, so that a
    score cache can name the params it scored with.

    Crossover and mutation take their fractions (at most 1 together) of
    the slots selection frees; immigrants take the rest. ``mutation_sigma``
    is per-axis in metres, a tuple of floats; None derives it as 0.1% of
    each search-volume bounding-box extent.
    """

    population_size: int = 5000
    selection_ratio: float = 0.40
    mutation_fraction: float = 0.40
    crossover_fraction: float = 0.50
    mutation_sigma: tuple[float, float, float] | None = None
    neighborhood_radius: int = 2
    sharing_cell_px: int = 8
    sharing_exponent: float = 1.0
    fitness_epsilon: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError(f"population_size must be >= 2, got {self.population_size}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if not (0.0 < self.selection_ratio <= 1.0):
            raise ValueError(f"selection_ratio must be in (0, 1], got {self.selection_ratio}")
        for name in ("mutation_fraction", "crossover_fraction"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        total = self.mutation_fraction + self.crossover_fraction
        if total > 1.0 + 1e-9:
            raise ValueError(f"mutation and crossover fractions must sum to at most 1, got {total}")
        # a gradient product is at most (4 * 255 * 2**0.5)**2 = 2.08e6, a colour one a float's hair more
        if not (self.fitness_epsilon > 0 and math.isfinite(2.1e6 / self.fitness_epsilon)):
            raise ValueError(f"fitness_epsilon must be > 0 and 2.1e6 / it finite, got {self.fitness_epsilon}")
        if self.neighborhood_radius < 0 or self.sharing_cell_px < 1:
            raise ValueError("neighborhood_radius must be >= 0 and sharing_cell_px >= 1")
        # a negative exponent would turn the crowding penalty into a reward
        if self.sharing_exponent < 0:
            raise ValueError(f"sharing_exponent must be >= 0, got {self.sharing_exponent}")
        try:  # no sharing cell holds more flies than the population, so this bounds every divisor
            math.pow(self.population_size, self.sharing_exponent)
        except OverflowError:
            n, e = self.population_size, self.sharing_exponent
            raise ValueError(f"population_size ** sharing_exponent overflows: {n} ** {e}") from None
        if self.mutation_sigma is not None:
            # numpy's normal draws stay below 13.8 (the ziggurat's tail ends at r + 53 ln(2) / r for
            # r = 3.654), so a sigma below 2**1020 keeps every mutation step, sigma times a draw, finite
            sigma = np.asarray(self.mutation_sigma, dtype=np.float64)
            if sigma.shape != (3,) or np.any(sigma < 0) or np.any(sigma >= 2.0**1020):
                raise ValueError(f"mutation_sigma must be three values in [0, 2**1020), got {self.mutation_sigma}")
            object.__setattr__(self, "mutation_sigma", tuple(sigma.tolist()))


class Population:
    """Fixed-size swarm stored as parallel arrays.

    ``raw_fitness`` doubles as a score cache: ``score_key`` holds the
    frame, rig and params it was scored with, and ``scored_rows`` how many
    leading rows still hold that score. ``evaluate_population`` scores
    only the rows past ``scored_rows`` when the key matches.
    ``select_and_refill`` is the only in-place writer of ``positions``
    that keeps the cache valid; a caller that edits positions itself
    builds a new ``Population``. It leaves ``shared_fitness`` and
    ``penalized`` to the next evaluation, which rewrites every row.

    Its second level, ``memo``, maps rounded (row, left column, right
    column) triples to their fitness: under one key a scored fly's fitness
    is a function of its triple, and a converged swarm probes the same
    triples again. That pays only over several generations on one frame:
    the first evaluation under a key drops it, the second allocates it.
    """

    def __init__(self, positions: np.ndarray):
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {positions.shape}")
        n = positions.shape[0]
        self.positions = positions.copy()
        self.raw_fitness = np.zeros(n, dtype=np.float64)
        self.shared_fitness = np.zeros(n, dtype=np.float64)
        self.penalized = np.zeros(n, dtype=bool)
        self.score_key = None
        self.scored_rows = 0
        self.memo = None

    @classmethod
    def initialize(cls, rig: StereoRig, params: EvolutionParams, rng: np.random.Generator) -> "Population":
        """Uniform random flies over the field-of-view intersection."""
        pts = sample_points(rig, rng, params.population_size, margin=params.neighborhood_radius)
        return cls(pts)

    def __len__(self) -> int:
        return self.positions.shape[0]


class StereoFrame:
    """One stereo pair: the two uint8 images, checked to match. The frame
    object itself names the pair in a population's score cache.

    Nothing is computed over the whole frame. ``evaluate_population``
    gathers one uint8 window per view around each new fly's rounded
    projection and reads both the gradient and the SSD from it.
    """

    def __init__(self, left: Image, right: Image):
        if (left.width, left.height, left.channels) != (right.width, right.height, right.channels):
            raise ValueError("left/right images must share dimensions and channel count")
        if left.width < 3 or left.height < 3:
            raise ValueError(f"images must be at least 3x3, got {left.width}x{left.height}")
        self.left = left
        self.right = right


def check_rig_match(image: Image, rig: StereoRig, name: str) -> Image:
    """``image``, or a ValueError naming it if its size is not the rig's."""
    w, h = rig.image_size
    if (image.width, image.height) != (w, h):
        raise ValueError(f"{name} image is {image.width}x{image.height} but the rig expects {w}x{h}")
    return image


def evaluate_population(population: Population, frame: StereoFrame, rig: StereoRig, params: EvolutionParams) -> None:
    """Raw fitness for every fly; 0 for flies whose windows leave either image.

    Every step of the score is per fly, so rows already scored on this
    frame, rig and params (the survivors of ``select_and_refill``) keep
    their bits and only the rows after them, less those the memo serves,
    are scored. A frame of another size than the rig's is a ValueError.
    """
    check_rig_match(frame.left, rig, "left")
    key = (frame, rig, params)
    fresh = population.score_key != key
    if fresh:  # a stale key would keep the previous frame alive while this one is scored
        population.score_key = population.memo = None
    elif population.memo is None:  # a key of -1 names no triple, so the memo starts empty
        population.memo = np.full(2 << MEMO_BITS, -1, np.int64).view(np.complex128)
    start = 0 if fresh else population.scored_rows
    population.raw_fitness[start:] = _raw_fitness(population.positions[start:], frame, rig, params, population.memo)
    population.score_key, population.scored_rows = key, len(population)


def _raw_fitness(positions, frame: StereoFrame, rig: StereoRig, params: EvolutionParams, memo) -> np.ndarray:
    n = params.neighborhood_radius
    m = max(n, 1)  # the window must hold the 3x3 Sobel stencil
    w, h, c = frame.left.width, frame.left.height, frame.left.channels
    fitness = np.zeros(len(positions))
    if w < 2 * n + 1 or h < 2 * n + 1:
        return fitness
    u_left, u_right, v = project_many(rig, positions)
    rows = np.flatnonzero(visible_many(rig, u_left, u_right, v, positions[:, 2], margin=n))
    # a visible projection lies inside the raster, so its rounding does too
    iu_l, iu_r, iv = (np.rint(a[rows]).astype(np.int64) for a in (u_left, u_right, v))
    del u_left, u_right, v
    if n == 0:
        # a visible centre may lie on the 1 px border, where the reference
        # Sobel norm is 0; such a fly scores 0 and its window is never read
        inner = (np.minimum(iu_l, iu_r) >= 1) & (np.maximum(iu_l, iu_r) <= w - 2) & (iv >= 1) & (iv <= h - 2)
        rows, iu_l, iu_r, iv = rows[inner], iu_l[inner], iu_r[inner], iv[inner]
    if memo is not None:  # an item is a key and a fitness, as int64 and float64 bits
        keys = (iv * w + iu_l) * w + iu_r  # exact: the rig keeps w * w * h below 2**63
        slots = (keys.view(np.uint64) * _FIBONACCI) >> np.uint64(64 - MEMO_BITS)
        held = memo[slots].view(np.int64)
        fitness[rows] = held[1::2].view(np.float64)  # the misses are scored below
        miss = np.flatnonzero(held[::2] != keys)
        rows, iu_l, iu_r, iv, keys, slots = (a[miss] for a in (rows, iu_l, iu_r, iv, keys, slots))
    # one (2m+1)^2 uint8 window per fly and view, pixel-major, channels
    # last, read as its 2m+1 rows: each view's flat samples seen as one
    # void item of 2m+1 pixels per starting sample. The window around
    # (iu, iv) starts at pixel (iv - m) * w + iu - m. A start past the
    # last full run is an IndexError, not a read beyond the frame. Each
    # view's rows go straight into its half of one buffer, left first.
    k, count = 2 * m + 1, len(rows)
    run = np.dtype((np.void, k * c))
    win = np.empty((2 * count, k), run)
    top = (iv - m) * w - m
    for half, iu, image in ((win[:count], iu_l, frame.left), (win[count:], iu_r, frame.right)):
        view = np.ndarray((w * h * c - k * c + 1,), run, image.samples, strides=(1,))
        half[...] = view[((top + iu) * c)[:, None] + np.arange(k) * (w * c)]
    win = win.view(np.uint8)
    # the SSD reads the central (2n+1)^2 pixels, summed in integers, which
    # is exact; int32 holds the sum unless the window is huge
    cols = slice(None) if n else slice(4 * c, 5 * c)
    acc = np.int32 if win.shape[1] * 255**2 < 2**31 else np.int64
    diff = np.subtract(win[:count, cols], win[count:, cols], dtype=acc)
    ssd = np.einsum("nk,nk->n", diff, diff)
    del diff
    # one Sobel pass over both views and the whole batch
    norms = _sobel_norm(win, m, c)
    fitness[rows] = scores = norms[:count] * norms[count:] / (params.fitness_epsilon + ssd)
    if memo is not None:  # numpy names no winner among repeated slots, so each item is written whole
        items = np.empty(count, np.complex128)
        items.view(np.int64)[::2], items.view(np.float64)[1::2] = keys, scores
        memo[slots] = items
    return fitness


def _sobel_norm(windows: np.ndarray, m: int, c: int) -> np.ndarray:
    """Sobel norm of the luminance at the centre of each (2m+1)^2 window.

    Bit-identical to a full-frame Sobel norm map at that pixel: the same
    luminance (``LUMA_WEIGHTS`` applied with ``@`` to a C-contiguous
    float64 array of pixel rows), the same sums and ``np.hypot``. The
    stencil is laid out one row per position, so each sum runs over
    contiguous memory.
    """
    k = 2 * m + 1
    stencil = (np.arange(m - 1, m + 2)[:, None] * k + np.arange(m - 1, m + 2)).ravel()
    if c == 1:
        # grey sums are integers of at most 4 * 255: exact in int16
        p = windows.T[stencil].astype(np.int16)
    else:
        rgb = windows.reshape(len(windows), k * k, c)[:, stencil].transpose(1, 0, 2)
        p = (rgb.astype(np.float64, order="C").reshape(-1, c) @ _LUMA).reshape(9, -1)
    gx = (p[2] + 2 * p[5] + p[8]) - (p[0] + 2 * p[3] + p[6])
    gy = (p[6] + 2 * p[7] + p[8]) - (p[0] + 2 * p[1] + p[2])
    return np.hypot(gx, gy, dtype=np.float64)


def apply_sharing(population: Population, rig: StereoRig, params: EvolutionParams) -> None:
    """Divide raw fitness by the occupancy of the fly's left-image cell.

    Crowding is measured on a ``sharing_cell_px`` grid over the rounded
    left projections; penalized flies are then forced to 0 so selection
    eliminates them. Projections are first clipped to one cell beyond the
    image, so flies far off the image share a ring of cells that no fly
    inside the image uses. That leaves every shared fitness as it is on
    the unbounded grid provided flies off the image have raw fitness 0,
    which ``evaluate_population`` guarantees.
    """
    u_left, _, v = project_many(rig, population.positions)
    w, h = rig.image_size
    # a cell this wide already holds the whole image, and a wider one
    # would overflow the int64 division
    cell = min(params.sharing_cell_px, max(w, h))
    cx = np.rint(np.clip(u_left, -cell, w - 1 + cell)).astype(np.int64) // cell + 1
    cy = np.rint(np.clip(v, -cell, h - 1 + cell)).astype(np.int64) // cell + 1
    key = cy * ((w - 1 + cell) // cell + 2) + cx
    occupancy = np.bincount(key)[key].astype(np.float64)
    population.shared_fitness[:] = population.raw_fitness / occupancy**params.sharing_exponent
    population.shared_fitness[population.penalized] = 0.0


def survivor_count(ratio: float, population_size: int) -> int:
    """max(ceil(ratio * N), 1) without float round-up (0.07 * 100 = 7.000000000000001).
    A ratio <= 1 keeps it <= N, since ratio * N <= N holds in floating point."""
    return max(math.ceil(ratio * population_size - 1e-9), 1)


def elite(fitness: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values, 1 <= k <= len(fitness), ascending.

    Every value above the k-th largest is kept, and the lowest-index
    values equal to it fill the rest: the first k of a stable descending
    sort, found with a partition instead of a sort.
    """
    kth = np.partition(fitness, len(fitness) - k)[len(fitness) - k]
    keep = fitness > kth
    keep[np.flatnonzero(fitness == kth)[: k - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def select(population: Population, params: EvolutionParams) -> np.ndarray:
    """Indices of the elite by shared fitness, ascending index order."""
    fitness = population.shared_fitness
    return elite(fitness, survivor_count(params.selection_ratio, len(fitness)))


def crossover(parent1: np.ndarray, parent2: np.ndarray, lam) -> np.ndarray:
    """Barycentric offspring lam * p1 + (1 - lam) * p2 per parent row;
    ``lam`` in [0, 1] is a scalar or one weight per row, broadcast along
    the rows' long axis."""
    lam = np.asarray(lam, dtype=np.float64)
    if np.any((lam < 0.0) | (lam > 1.0)):
        raise ValueError("lambda must be in [0, 1]")
    return (lam * parent1.T + (1.0 - lam) * parent2.T).T


def mutate(parents: np.ndarray, rig: StereoRig, params: EvolutionParams, rng: np.random.Generator) -> np.ndarray:
    """Add per-axis Gaussian noise to each (N, 3) parent row; redraw the
    rows that leave the volume up to MUTATION_RESAMPLE_LIMIT times, then clamp."""
    vol = search_volume(rig, params.neighborhood_radius)
    if params.mutation_sigma is None:
        lo, hi = vol.bounding_box()
        sigma = DEFAULT_SIGMA_FRACTION * (hi - lo)
    else:
        sigma = np.asarray(params.mutation_sigma, dtype=np.float64)
    # rng.normal(0.0, sigma)'s own formula and draws, off its broadcast
    # path; the 0.0 + keeps a -0.0 coordinate on a zero-sigma axis as 0.0
    out = parents + (0.0 + sigma * rng.standard_normal(parents.shape))
    bad = np.flatnonzero(~vol.contains(out))  # ascending, so redrawn in row order
    for _ in range(MUTATION_RESAMPLE_LIMIT):
        if not bad.size:
            break
        out[bad] = parents[bad] + (0.0 + sigma * rng.standard_normal((bad.size, 3)))
        bad = bad[~vol.contains(out[bad])]
    if bad.size:
        out[bad] = vol.clamp(out[bad])
    return out


def _offspring_counts(params: EvolutionParams, slots: int) -> tuple[int, int, int]:
    n_cross = round(params.crossover_fraction * slots)
    # the two roundings can overdraw the slots by one; mutation gives it back
    n_mut = min(round(params.mutation_fraction * slots), slots - n_cross)
    return n_cross, n_mut, slots - n_cross - n_mut


def select_and_refill(
    population: Population, rig: StereoRig, params: EvolutionParams, rng: np.random.Generator
) -> None:
    """Selection plus offspring phases."""
    survivors = select(population, params)
    n = len(population)
    s = survivors.size
    slots = n - s
    surv_pos = np.take(population.positions, survivors, axis=0)
    surv_raw = population.raw_fitness[survivors]

    n_cross, n_mut, n_imm = _offspring_counts(params, slots)
    if s < 2:
        # cannot draw two distinct parents
        n_mut += n_cross
        n_cross = 0

    children = np.empty((slots, 3), dtype=np.float64)
    if n_cross:
        i = rng.integers(0, s, size=n_cross)
        j = (i + 1 + rng.integers(0, s - 1, size=n_cross)) % s  # uniform over the others
        p1, p2 = np.take(surv_pos, i, axis=0), np.take(surv_pos, j, axis=0)
        children[:n_cross] = crossover(p1, p2, rng.random(n_cross))
    if n_mut:
        parents = np.take(surv_pos, rng.integers(0, s, size=n_mut), axis=0)
        children[n_cross : n_cross + n_mut] = mutate(parents, rig, params, rng)
    if n_imm:
        children[n_cross + n_mut :] = sample_points(rig, rng, n_imm, margin=params.neighborhood_radius)

    population.positions[:s] = surv_pos
    population.positions[s:] = children
    population.raw_fitness[:s] = surv_raw
    population.raw_fitness[s:] = 0.0
    # survivors ascend, so those taken from scored rows lead and now fill
    # rows [:count]; their raw fitness is still the cached score
    population.scored_rows = int(np.searchsorted(survivors, population.scored_rows))


class Swarm:
    """One population evolving over a stream of stereo pairs.

    The rng is seeded from ``params.rng_seed`` and draws the initial
    population, then every offspring, so a fixed seed fixes the run.
    """

    def __init__(self, rig: StereoRig, params: EvolutionParams, warning_params: WarningParams = WarningParams()):
        # every fly lies in the search volume, so its warning divisor x^2 * z, each clamped below, is at most this
        lo, hi = search_volume(rig, params.neighborhood_radius).bounding_box()
        xc, zc = warning_params.x_clamp_m, warning_params.z_clamp_m
        x, z = float(max(-lo[0], hi[0], xc)), float(max(hi[2], zc))
        if not math.isfinite(x * x * z):
            raise ValueError(f"warning divisor x^2 * z overflows: x_clamp_m = {xc}, z_clamp_m = {zc}")
        self.rig, self.params, self.warning_params = rig, params, warning_params
        self.rng = np.random.default_rng(params.rng_seed)
        self.population = Population.initialize(rig, params, self.rng)
        self.frame: StereoFrame | None = None

    def feed(self, left: Image, right: Image) -> None:
        """Make the pair the current frame. A pair with the pixels of the
        current frame keeps it, so the survivors' scores stay valid."""
        frame = self.frame
        if frame is None or not (
            np.array_equal(left.samples, frame.left.samples) and np.array_equal(right.samples, frame.right.samples)
        ):
            self.frame = StereoFrame(left, right)

    def evaluate(self) -> WarningReport:
        """Raw fitness, penalization flags and sharing on the current frame;
        returns the warning report of the evaluated population."""
        evaluate_population(self.population, self.frame, self.rig, self.params)
        flag_useless(self.population, self.rig, self.warning_params)
        apply_sharing(self.population, self.rig, self.params)
        return global_warning(self.population, self.warning_params)

    def step(self) -> WarningReport:
        """One generation on the current frame: the warning report of the
        population as evaluated, then selection and refill."""
        report = self.evaluate()
        select_and_refill(self.population, self.rig, self.params, self.rng)
        return report
