"""Independent output oracle for the benchmark.

It recomputes every fly's raw fitness and warning in a run's final
``flies.csv`` from the input PGMs with its own PGM reader, Sobel kernel,
window SSD, projection and penalization rule. It imports nothing from
``flyswarm``, so a defect in ``flyswarm.imaging`` or ``flyswarm.evolution``
cannot hide itself here. Every comparison is one check: a run is correct
when no check fails.

The constants are the default rig and parameters the benchmark runs with
(an empty config file).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

FOCAL_PX = 500.0
U0, V0 = 320.0, 240.0
WIDTH, HEIGHT = 640, 480
HALF_BASELINE_M = 0.2
CAMERA_HEIGHT_M = 1.2
RADIUS = 2  # 5x5 fitness window, also the visibility margin
EPSILON = 1.0
Z_FLOOR_M = 0.01
MAX_HEIGHT_M, MIN_HEIGHT_M, MAX_RANGE_M = 2.0, 0.10, 16.0
X_CLAMP_M, Z_CLAMP_M = 0.5, 1.0
RTOL = 1e-9
TAIL = 30
MIN_TAIL_RATIO = 3.0

SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T


class Checks:
    """Counts attempted and failed checks; keeps the first few messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(message)
        return ok

    def check_many(self, ok: np.ndarray, message: str) -> None:
        """One check per element of the boolean array ``ok``."""
        ok = np.asarray(ok, dtype=bool)
        for i in np.flatnonzero(~ok):
            self.check(False, f"{message} (row {i})")
        self.attempted += int(np.count_nonzero(ok))


def read_pgm(path) -> np.ndarray:
    """Binary greyscale PGM (P5, maxval 255) as a (H, W) uint8 array."""
    data = Path(path).read_bytes()
    tokens: list[bytes] = []
    pos = 2
    if data[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    while len(tokens) < 3:
        while data[pos : pos + 1].isspace() or data[pos : pos + 1] == b"#":
            if data[pos : pos + 1] == b"#":
                pos = data.index(b"\n", pos)
            pos += 1
        end = pos
        while not data[end : end + 1].isspace():
            end += 1
        tokens.append(data[pos:end])
        pos = end
    width, height, maxval = (int(t) for t in tokens)
    if maxval != 255:
        raise ValueError(f"{path}: maxval {maxval} is not 255")
    return np.frombuffer(data, np.uint8, width * height, pos + 1).reshape(height, width)


def _patches(img: np.ndarray, row: np.ndarray, col: np.ndarray, r: int) -> np.ndarray:
    """(n, 2r+1, 2r+1) float windows of ``img`` centred on (row, col)."""
    d = np.arange(-r, r + 1)
    return img[row[:, None, None] + d[None, :, None], col[:, None, None] + d[None, None, :]].astype(np.float64)


def _sobel_norm(patch: np.ndarray) -> np.ndarray:
    gx = np.sum(patch * SOBEL_X, axis=(1, 2))
    gy = np.sum(patch * SOBEL_Y, axis=(1, 2))
    return np.sqrt(gx * gx + gy * gy)


def expected_flies(positions: np.ndarray, left: np.ndarray, right: np.ndarray):
    """(raw_fitness, warning) of each fly against one stereo pair."""
    x, y, z = positions[:, 0], positions[:, 1], positions[:, 2]
    depth = np.maximum(z, Z_FLOOR_M)
    u_left = U0 + FOCAL_PX * (x + HALF_BASELINE_M) / depth
    u_right = U0 + FOCAL_PX * (x - HALF_BASELINE_M) / depth
    v = V0 - FOCAL_PX * y / depth
    lo, u_hi, v_hi = RADIUS, WIDTH - 1 - RADIUS, HEIGHT - 1 - RADIUS
    visible = (
        (z >= Z_FLOOR_M)
        & (u_left >= lo) & (u_left <= u_hi)
        & (u_right >= lo) & (u_right <= u_hi)
        & (v >= lo) & (v <= v_hi)
    )
    row = np.rint(v[visible]).astype(np.int64)
    cl = np.rint(u_left[visible]).astype(np.int64)
    cr = np.rint(u_right[visible]).astype(np.int64)
    grad_l, grad_r = (_sobel_norm(_patches(img, row, col, 1)) for img, col in ((left, cl), (right, cr)))
    diff = _patches(left, row, cl, RADIUS) - _patches(right, row, cr, RADIUS)
    raw = np.zeros(len(positions))
    raw[visible] = grad_l * grad_r / (EPSILON + np.sum(diff * diff, axis=(1, 2)))
    height = y + CAMERA_HEIGHT_M
    useless = (height > MAX_HEIGHT_M) | (height < MIN_HEIGHT_M) | (z > MAX_RANGE_M)
    warn = raw / (np.maximum(np.abs(x), X_CLAMP_M) ** 2 * np.maximum(z, Z_CLAMP_M))
    warn[useless] = 0.0
    return raw, warn


def read_flies(path) -> np.ndarray:
    """flies.csv columns: x, y, z, raw_fitness, shared_fitness, penalized, warning."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_flies(checks: Checks, flies_csv, left_pgm, right_pgm) -> np.ndarray:
    """One check per fly for raw_fitness and one for warning; returns the table."""
    table = read_flies(flies_csv)
    raw, warn = expected_flies(table[:, :3], read_pgm(left_pgm), read_pgm(right_pgm))
    checks.check_many(np.isclose(table[:, 3], raw, rtol=RTOL, atol=0.0), "raw_fitness differs from the oracle")
    checks.check_many(np.isclose(table[:, 6], warn, rtol=RTOL, atol=0.0), "warning differs from the oracle")
    return table


def parse_warnings(checks: Checks, lines: list[str], generations: int) -> np.ndarray:
    """Check the stdout of detect/sequence: ``generation,global_warning`` lines
    numbered 1..generations with finite warnings, then one finite final
    warning. Returns the per-generation warnings (NaN where a line is bad)."""
    checks.check(len(lines) == generations + 1, f"expected {generations + 1} stdout lines, got {len(lines)}")
    values = np.full(generations, np.nan)
    for i, line in enumerate(lines[:generations]):
        g, _, w = line.partition(",")
        try:
            ok = int(g) == i + 1 and math.isfinite(float(w))
        except ValueError:
            ok = False
        if checks.check(ok, f"bad warning line {i + 1}: {line!r}"):
            values[i] = float(w)
    return values


def check_final(checks: Checks, lines: list[str], table: np.ndarray) -> None:
    """The last stdout line is the mean of the per-fly warnings."""
    try:
        final = float(lines[-1])
    except (IndexError, ValueError):
        final = math.nan
    checks.check(
        math.isfinite(final) and math.isclose(final, float(table[:, 6].mean()), rel_tol=RTOL),
        f"final warning {lines[-1:]!r} is not the flies.csv mean",
    )


def check_tail_ratio(checks: Checks, warnings: np.ndarray, is_pedestrian: np.ndarray) -> float:
    """Pedestrian tail mean over empty tail mean must reach MIN_TAIL_RATIO (A2)."""
    ratio = warnings[is_pedestrian][-TAIL:].mean() / warnings[~is_pedestrian][-TAIL:].mean()
    checks.check(ratio >= MIN_TAIL_RATIO, f"pedestrian/empty tail ratio {ratio:.3f} < {MIN_TAIL_RATIO}")
    return float(ratio)
