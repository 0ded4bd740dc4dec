"""Parisian evolutionary core.

Each individual ("fly") is a single 3-D point; the population as a whole
is the scene description. One generation, in order:

1. evaluate the raw fitness of every fly against the current frame
   (survivors of the last selection keep theirs while the frame, rig,
   radius and epsilon are unchanged, so only the new flies are scored),
2. flag useless flies and apply fitness sharing,
3. compute the global warning of the evaluated population,
4. keep the best ``selection_ratio`` of the population (elitist,
   deterministic, ties to the lower index),
5. refill the vacated slots with barycentric crossover, Gaussian
   mutation and fresh immigrants,
6. increment the generation counter.

``step_generation`` is the only generation body and returns the warning
report; ``evaluate_and_share`` re-evaluates the final population.

The fitness of a fly is the product of the Sobel gradient norms at its
two projections divided by the (epsilon-shifted) sum of squared
differences between the projection neighborhoods: flies on a textured
surface project onto matching, gradient-rich windows and score high;
flies in front of or behind a surface compare unrelated windows; flies
over uniform regions are killed by the gradient product.

The swarm only ever looks at the pixels its flies project onto, and so
does the code: a ``StereoFrame`` holds the two uint8 images and, per
view, a Sobel-norm memo that computes a pixel's gradient from a 3x3
gather the first time a fly reads it. The SSD windows are gathered as
uint8 and summed in integers. Both give the same bits as the full-frame
``imaging.sobel_norm_map`` and a float64 SSD, so a new frame costs no
full-frame work.

The population is stored as structure-of-arrays and every operator
works on whole arrays, so a full generation at population 5000 stays
well inside a real-time budget. Selection partitions the shared fitness
around the k-th largest value instead of sorting it.
"""

from __future__ import annotations

import itertools
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

_LUMA = np.asarray(LUMA_WEIGHTS)

# Flies per block of SSD windows: small integer temporaries are reused
# from the heap instead of being faulted in afresh on every call.
_BLOCK = 1024

# Serial number of each StereoFrame: a population's cached scores name the
# frame by it, so they neither keep a dead frame alive nor match a new
# frame that happens to reuse its id().
_FRAME_SERIALS = itertools.count()


@dataclass
class EvolutionParams:
    """All rates and tolerances of the evolutionary loop.

    The offspring mix (crossover/mutation/immigration fractions) applies
    to the replaced part of the population and must sum to 1.
    ``mutation_sigma`` is per-axis in metres; None derives it as 0.1% of
    each search-volume bounding-box extent.
    """

    population_size: int = 5000
    selection_ratio: float = 0.40
    mutation_fraction: float = 0.40
    crossover_fraction: float = 0.50
    immigration_fraction: float = 0.10
    mutation_sigma: tuple[float, float, float] | None = None
    neighborhood_radius: int = 2
    sharing_cell_px: int = 8
    sharing_exponent: float = 1.0
    fitness_epsilon: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError(f"population_size must be >= 2, got {self.population_size}")
        if not (0.0 < self.selection_ratio <= 1.0):
            raise ValueError(f"selection_ratio must be in (0, 1], got {self.selection_ratio}")
        for name in ("mutation_fraction", "crossover_fraction", "immigration_fraction"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        total = self.mutation_fraction + self.crossover_fraction + self.immigration_fraction
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"offspring fractions must sum to 1, got {total}")
        if self.fitness_epsilon <= 0:
            raise ValueError(f"fitness_epsilon must be > 0, got {self.fitness_epsilon}")
        if self.neighborhood_radius < 0 or self.sharing_cell_px < 1:
            raise ValueError("neighborhood_radius must be >= 0 and sharing_cell_px >= 1")


class Population:
    """Fixed-size swarm stored as parallel arrays.

    ``raw_fitness`` doubles as a score cache: ``score_key`` names the
    frame (by serial number), rig, ``neighborhood_radius`` and
    ``fitness_epsilon`` it was scored with, and ``scored_rows`` how many
    leading rows still hold that score. ``evaluate_population`` scores
    only the rows past ``scored_rows`` when the key matches.
    ``select_and_refill`` is the only in-place writer of ``positions``
    that keeps the cache valid; a caller that edits positions itself
    builds a new ``Population``.
    """

    def __init__(self, positions: np.ndarray, generation_index: int = 0):
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {positions.shape}")
        n = positions.shape[0]
        self.positions = positions.copy()
        self.raw_fitness = np.zeros(n, dtype=np.float64)
        self.shared_fitness = np.zeros(n, dtype=np.float64)
        self.penalized = np.zeros(n, dtype=bool)
        self.generation_index = generation_index
        self.score_key = None
        self.scored_rows = 0

    @classmethod
    def initialize(cls, rig: StereoRig, params: EvolutionParams, rng: np.random.Generator) -> "Population":
        """Uniform random flies over the field-of-view intersection."""
        pts = sample_points(rig, rng, params.population_size, margin=params.neighborhood_radius)
        return cls(pts)

    def __len__(self) -> int:
        return self.positions.shape[0]


class _SobelMemo:
    """Sobel norms of one view's luminance, each computed the first time
    a fly reads its pixel.

    Every value equals ``sobel_norm_map(image).norms`` at the same pixel,
    bit for bit: the same luminance (``LUMA_WEIGHTS`` applied with ``@``
    to a C-contiguous 2-D float64 gather), the same Sobel sums and
    ``np.hypot``; the 1 px border reads 0. ``norms`` starts uninitialised,
    so only the pages that flies look at are ever touched.
    """

    def __init__(self, image: Image):
        self.width, self.height, self.channels = image.width, image.height, image.channels
        self.samples = image.samples.reshape(-1)  # flat uint8, pixel-major
        n_px = image.width * image.height
        self.norms = np.empty(n_px)
        self.known = np.zeros(n_px, dtype=bool)
        span = np.arange(-1, 2)
        self._stencil = (span[:, None] * self.width + span[None, :]).reshape(9, 1)

    def at(self, pixels: np.ndarray) -> np.ndarray:
        """Norms at flat pixel indices, filling the missing ones first."""
        missing = pixels[~self.known[pixels]]
        if missing.size:
            self.norms[missing] = self._sobel(missing)
            self.known[missing] = True
        return self.norms[pixels]

    def _sobel(self, pixels: np.ndarray) -> np.ndarray:
        w, h = self.width, self.height
        row, col = np.divmod(pixels, w)
        inner = (row >= 1) & (row <= h - 2) & (col >= 1) & (col <= w - 2)
        around = self._stencil + (np.clip(row, 1, h - 2) * w + np.clip(col, 1, w - 2))
        if self.channels == 1:
            p = self.samples[around].astype(np.float64)
        else:
            rgb = self.samples.reshape(-1, self.channels)[around.ravel()]
            p = (rgb.astype(np.float64) @ _LUMA).reshape(around.shape)
        gx = (p[2] + 2.0 * p[5] + p[8]) - (p[0] + 2.0 * p[3] + p[6])
        gy = (p[6] + 2.0 * p[7] + p[8]) - (p[0] + 2.0 * p[1] + p[2])
        return np.where(inner, np.hypot(gx, gy), 0.0)


class StereoFrame:
    """One stereo pair: the two uint8 images and a Sobel-norm memo per view.

    Nothing is computed over the whole frame. ``evaluate_population``
    reads the gradient at each fly's rounded projections from the memos,
    which compute the missing ones from a 3x3 gather, and gathers the SSD
    windows as uint8.
    """

    def __init__(self, left: Image, right: Image):
        if (left.width, left.height, left.channels) != (right.width, right.height, right.channels):
            raise ValueError("left/right images must share dimensions and channel count")
        if left.width < 3 or left.height < 3:
            raise ValueError(f"images must be at least 3x3, got {left.width}x{left.height}")
        self.left = left
        self.right = right
        self.serial = next(_FRAME_SERIALS)
        self._left = _SobelMemo(left)
        self._right = _SobelMemo(right)


def evaluate_population(population: Population, frame: StereoFrame, rig: StereoRig, params: EvolutionParams) -> None:
    """Raw fitness for every fly; 0 for flies whose windows leave either image.

    Every step of the score is per fly, so rows already scored on this
    frame, rig, radius and epsilon (the survivors of ``select_and_refill``)
    keep their bits and only the rows after them are scored.
    """
    key = (frame.serial, rig, params.neighborhood_radius, params.fitness_epsilon)
    start = population.scored_rows if population.score_key == key else 0
    population.raw_fitness[start:] = _raw_fitness(population.positions[start:], frame, rig, params)
    population.score_key, population.scored_rows = key, len(population)


def _raw_fitness(positions: np.ndarray, frame: StereoFrame, rig: StereoRig, params: EvolutionParams) -> np.ndarray:
    n = params.neighborhood_radius
    w, h, c = frame.left.width, frame.left.height, frame.left.channels
    if w < 2 * n + 1 or h < 2 * n + 1:
        return np.zeros(len(positions))
    u_left, u_right, v = project_many(rig, positions)
    vis = visible_many(rig, u_left, u_right, v, positions[:, 2], margin=n)

    # clip before the int cast: invisible flies can project arbitrarily
    # far outside the raster and their indices are replaced anyway
    iu_l = np.where(vis, np.rint(np.clip(u_left, 0, w - 1)).astype(np.int64), n)
    iu_r = np.where(vis, np.rint(np.clip(u_right, 0, w - 1)).astype(np.int64), n)
    iv = np.where(vis, np.rint(np.clip(v, 0, h - 1)).astype(np.int64), n)

    centre_l = iv * w + iu_l
    centre_r = iv * w + iu_r
    numerator = frame._left.at(centre_l) * frame._right.at(centre_r)

    # SSD over uint8 windows in integers, which is exact; int32 holds the
    # sum unless the window is huge
    span = np.arange(-n, n + 1, dtype=np.int64)
    window = ((span[:, None] * w + span[None, :]).reshape(-1, 1) * c + np.arange(c)).ravel()
    acc = np.int32 if window.size * 255**2 < 2**31 else np.int64
    left, right = frame._left.samples, frame._right.samples
    ssd = np.empty(len(positions), dtype=np.int64)
    for start in range(0, len(positions), _BLOCK):
        block = slice(start, start + _BLOCK)
        diff = np.subtract(left[centre_l[block, None] * c + window], right[centre_r[block, None] * c + window], dtype=acc)
        ssd[block] = np.einsum("nk,nk->n", diff, diff)
    return np.where(vis, numerator / (params.fitness_epsilon + ssd), 0.0)


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
    w, h = rig.intrinsics.image_width, rig.intrinsics.image_height
    # a cell this wide already holds the whole image, and a wider one
    # would overflow the int64 division
    cell = min(params.sharing_cell_px, max(w, h))
    cx = np.rint(np.clip(u_left, -cell, w - 1 + cell)).astype(np.int64) // cell + 1
    cy = np.rint(np.clip(v, -cell, h - 1 + cell)).astype(np.int64) // cell + 1
    key = cy * ((w - 1 + cell) // cell + 2) + cx
    occupancy = np.bincount(key)[key].astype(np.float64)
    if params.sharing_exponent != 1.0:
        occupancy = occupancy**params.sharing_exponent
    population.shared_fitness[:] = population.raw_fitness / occupancy
    population.shared_fitness[population.penalized] = 0.0


def survivor_count(ratio: float, population_size: int) -> int:
    """ceil(ratio * N), guarding against float round-up (0.4 * 5000 = 2000)."""
    k = math.ceil(ratio * population_size - 1e-9)
    return min(max(k, 1), population_size)


def select(population: Population, params: EvolutionParams) -> np.ndarray:
    """Indices of the elite by shared fitness, ascending index order.

    Every fly above the k-th largest value survives, and the lowest-index
    flies equal to it fill the rest: the first k of a stable descending
    sort, found with a partition instead of a sort.
    """
    fitness = population.shared_fitness
    k = survivor_count(params.selection_ratio, len(fitness))
    kth = np.partition(fitness, len(fitness) - k)[len(fitness) - k]
    elite = fitness > kth
    elite[np.flatnonzero(fitness == kth)[: k - np.count_nonzero(elite)]] = True
    return np.flatnonzero(elite)


def crossover(parent1: np.ndarray, parent2: np.ndarray, lam) -> np.ndarray:
    """Barycentric offspring lam * p1 + (1 - lam) * p2 per parent row;
    ``lam`` in [0, 1] is a scalar or one weight per row."""
    lam = np.asarray(lam, dtype=np.float64)
    if lam.ndim == 1:
        lam = lam[:, None]
    if np.any((lam < 0.0) | (lam > 1.0)):
        raise ValueError("lambda must be in [0, 1]")
    return lam * parent1 + (1.0 - lam) * parent2


def resolve_mutation_sigma(params: EvolutionParams, rig: StereoRig) -> np.ndarray:
    if params.mutation_sigma is not None:
        sigma = np.asarray(params.mutation_sigma, dtype=np.float64)
        if sigma.shape != (3,) or np.any(sigma < 0):
            raise ValueError("mutation_sigma must be three non-negative values")
        return sigma
    lo, hi = search_volume(rig, params.neighborhood_radius).bounding_box()
    return DEFAULT_SIGMA_FRACTION * (hi - lo)


def mutate(parents: np.ndarray, rig: StereoRig, params: EvolutionParams, rng: np.random.Generator) -> np.ndarray:
    """Add per-axis Gaussian noise to each (N, 3) parent row; redraw the
    rows that leave the volume up to MUTATION_RESAMPLE_LIMIT times, then clamp."""
    vol = search_volume(rig, params.neighborhood_radius)
    sigma = resolve_mutation_sigma(params, rig)
    out = parents + rng.normal(0.0, sigma, size=parents.shape)
    bad = ~vol.contains(out)
    for _ in range(MUTATION_RESAMPLE_LIMIT):
        if not bad.any():
            break
        idx = np.flatnonzero(bad)
        out[idx] = parents[idx] + rng.normal(0.0, sigma, size=(idx.size, 3))
        bad[idx] = ~vol.contains(out[idx])
    if bad.any():
        out[bad] = vol.clamp(out[bad])
    return out


def _offspring_counts(params: EvolutionParams, slots: int) -> tuple[int, int, int]:
    n_cross = int(round(params.crossover_fraction * slots))
    n_mut = int(round(params.mutation_fraction * slots))
    n_imm = slots - n_cross - n_mut
    if n_imm < 0:
        n_mut += n_imm
        n_imm = 0
        if n_mut < 0:
            n_cross += n_mut
            n_mut = 0
    return n_cross, n_mut, n_imm


def select_and_refill(
    population: Population, rig: StereoRig, params: EvolutionParams, rng: np.random.Generator
) -> None:
    """Selection plus offspring phases; bumps the generation counter."""
    survivors = select(population, params)
    n = len(population)
    s = survivors.size
    slots = n - s
    surv_pos = population.positions[survivors]
    surv_raw = population.raw_fitness[survivors]
    surv_shared = population.shared_fitness[survivors]
    surv_pen = population.penalized[survivors]

    n_cross, n_mut, n_imm = _offspring_counts(params, slots)
    if s < 2:
        # cannot draw two distinct parents
        n_mut += n_cross
        n_cross = 0

    children = np.empty((slots, 3), dtype=np.float64)
    if n_cross:
        i = rng.integers(0, s, size=n_cross)
        j = (i + 1 + rng.integers(0, s - 1, size=n_cross)) % s  # uniform over the others
        children[:n_cross] = crossover(surv_pos[i], surv_pos[j], rng.random(n_cross))
    if n_mut:
        parents = surv_pos[rng.integers(0, s, size=n_mut)]
        children[n_cross : n_cross + n_mut] = mutate(parents, rig, params, rng)
    if n_imm:
        children[n_cross + n_mut :] = sample_points(rig, rng, n_imm, margin=params.neighborhood_radius)

    population.positions[:s] = surv_pos
    population.positions[s:] = children
    population.raw_fitness[:s] = surv_raw
    population.raw_fitness[s:] = 0.0
    population.shared_fitness[:s] = surv_shared
    population.shared_fitness[s:] = 0.0
    population.penalized[:s] = surv_pen
    population.penalized[s:] = False
    population.generation_index += 1
    # survivors ascend, so those taken from scored rows lead and now fill
    # rows [:count]; their raw fitness is still the cached score
    population.scored_rows = int(np.searchsorted(survivors, population.scored_rows))


def evaluate_and_share(
    population: Population,
    frame: StereoFrame,
    rig: StereoRig,
    params: EvolutionParams,
    warning_params: WarningParams | None = None,
) -> WarningReport:
    """Evaluation phase: raw fitness, penalization flags, sharing; returns
    the warning report of the evaluated population."""
    wp = warning_params if warning_params is not None else WarningParams()
    evaluate_population(population, frame, rig, params)
    flag_useless(population, rig, wp)
    apply_sharing(population, rig, params)
    return global_warning(population, wp)


def step_generation(
    population: Population,
    frame: StereoFrame,
    rig: StereoRig,
    params: EvolutionParams,
    rng: np.random.Generator,
    warning_params: WarningParams | None = None,
) -> WarningReport:
    """One full generation against the given frame. Size-preserving and
    deterministic for a fixed seed. Returns the warning report of the
    population as evaluated, before selection and refill."""
    report = evaluate_and_share(population, frame, rig, params, warning_params)
    select_and_refill(population, rig, params, rng)
    return report
