"""Fly-swarm stereo obstacle detection.

A population of 3-D points evolves so that it concentrates on the
visible surfaces of a stereo scene; a warning function turns the
population into a frontal-collision risk score. Includes a synthetic
stereo renderer for ground-truth verification and a CLI.
"""
