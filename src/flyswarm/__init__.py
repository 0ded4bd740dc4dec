"""Fly-swarm stereo obstacle detection.

A population of 3-D points evolves so that it concentrates on the
visible surfaces of a stereo scene; a warning function turns the
population into a frontal-collision risk score. Includes a synthetic
stereo renderer for ground-truth verification and a CLI.
"""

from .evolution import (
    EvolutionParams,
    Population,
    StereoFrame,
    Swarm,
    apply_sharing,
    crossover,
    evaluate_population,
    mutate,
    select,
)
from .imaging import Image, PnmParseError, load_pnm, read_pnm, save_pnm, write_pnm
from .stereo_geometry import CameraIntrinsics, SearchVolume, StereoRig, sample_points, search_volume
from .synth import Scene, TexturedRect, ground_truth_depth, preset_scene, render_stereo_pair
from .warning import WarningParams, WarningReport, global_warning, warning_values

__version__ = "0.1.0"
