import contextlib
import dataclasses
import io
import math
import os
import platform
import re
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import flyswarm
from flyswarm import cli
from flyswarm.cli import main
from flyswarm.config import (
    ConfigError,
    KeyLog,
    evolution_params_from_config,
    parse_config_text,
    rig_from_config,
    scene_from_config,
    warning_params_from_config,
)
from flyswarm.evolution import EvolutionParams
from flyswarm.imaging import Image, read_pnm, write_pnm
from flyswarm.stereo_geometry import StereoRig
from flyswarm.synth import BAND_ROWS
from flyswarm.warning import WarningParams


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfig:
    def test_parse_basic(self):
        cfg = parse_config_text(
            """
            # rig
            focal_length_px = 250
            principal_point = 160, 120
            image_size = 320 240
            baseline_m = 0.3
            obstacle = 0, 0, 4, 0.5, 1.7, 7
            obstacle = 1, 0, 6, 1.0, 1.0, 8, 0.1
            """
        )
        rig = rig_from_config(cfg)
        assert rig.focal_length_px == 250
        assert rig.image_size == (320, 240)
        assert rig.baseline_m == 0.3
        scene = scene_from_config(cfg)
        assert len(scene.obstacles) == 2
        assert scene.obstacles[1].texture_cell_m == 0.1

    def test_defaults_when_empty(self):
        rig = rig_from_config({})
        assert rig.image_size == (640, 480)
        assert evolution_params_from_config({}).population_size == 5000
        assert warning_params_from_config({}).max_range_m == 16.0
        # each default is the dataclass field's own
        assert rig_from_config({}) == StereoRig()
        assert evolution_params_from_config({}) == EvolutionParams()
        assert warning_params_from_config({}) == WarningParams()
        with pytest.raises(ConfigError, match="no scene"):
            scene_from_config({})

    def test_params_from_config(self):
        cfg = parse_config_text("population_size = 100\nrng_seed = 9\nmutation_sigma = 0.1 0.1 0.2")
        params = evolution_params_from_config(cfg)
        assert params.population_size == 100
        assert params.rng_seed == 9
        assert params.mutation_sigma == (0.1, 0.1, 0.2)

    def test_flags_over_their_keys(self):
        # a flag that is None leaves its key in force; one that is given
        # sets the field, and its key is still read (and parsed: see
        # TestFailureContract.test_malformed_key_under_a_flag_exits_2)
        cfg = KeyLog(parse_config_text("population_size = 1\nrng_seed = 9\n"))
        params = evolution_params_from_config(cfg, population_size=100, rng_seed=None)
        assert (params.population_size, params.rng_seed) == (100, 9)
        assert {"population_size", "rng_seed"} <= cfg.read

    def test_malformed_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just words\n")
        with pytest.raises(ConfigError):
            parse_config_text("population_size =\n")
        cfg = parse_config_text("obstacle = 1, 2\n")
        with pytest.raises(ConfigError):
            scene_from_config(cfg)


    @pytest.mark.parametrize(
        "text, build",
        [
            ("image_size = 640.9, 480.5\n", rig_from_config),
            ("image_size = 640, 480.5\n", rig_from_config),
            ("obstacle = 0, -0.35, 4, 0.5, 1.7, 202.9\n", scene_from_config),
            ("ground_texture_seed = 101.5\n", scene_from_config),
        ],
    )
    def test_fractional_integer_rejected(self, text, build):
        # these used to be truncated without an error (640x480, seed 202)
        with pytest.raises(ConfigError, match="integers"):
            build(parse_config_text(text))

    # a float holds every integer below 2**53, so each is read as written; the
    # first one it does not hold, 2**53 + 1, reads as 2**53 and is rejected with it
    @pytest.mark.parametrize("key", ["rng_seed", "sharing_cell_px"])
    def test_integer_below_2_53_is_read_as_written(self, key):
        cfg = parse_config_text(f"{key} = 9007199254740991\n")
        assert getattr(evolution_params_from_config(cfg), key) == 2**53 - 1
        for text in ("9007199254740992", "9007199254740993", "-9007199254740992"):
            with pytest.raises(ConfigError, match=re.escape(f"key {key!r} expects integers below 2**53")):
                evolution_params_from_config(parse_config_text(f"{key} = {text}\n"))

    @pytest.mark.parametrize(
        "text, build, match",
        [
            ("focal_length_px = 0\n", rig_from_config, "focal_length_px must be > 0"),
            ("baseline_m = 0\n", rig_from_config, "baseline_m must be > 0"),
            ("population_size = 1\n", evolution_params_from_config, "population_size"),
            ("max_height_m = 0\n", warning_params_from_config, "min_height_m < max_height_m"),
            ("background_grey = 300\n", scene_from_config, "background_grey must be in"),
            ("obstacle = 0, 0, 4, 0, 1.7, 7\n", scene_from_config, "rectangle sides must be positive"),
        ],
        ids=["StereoRig-focal", "StereoRig", "EvolutionParams", "WarningParams", "Scene", "TexturedRect"],
    )
    def test_model_rejection_is_config_error(self, text, build, match):
        with pytest.raises(ConfigError, match=match) as caught:
            build(parse_config_text(text))
        assert caught.value.__suppress_context__  # the model's ValueError is not chained on

    @pytest.mark.parametrize(
        "text, build, match",
        [
            (
                "population_size = 50\npopulation_size = 60\n",
                evolution_params_from_config,
                "key 'population_size' given 2 times, expected once",
            ),
            ("principal_point = 320\n", rig_from_config, r"key 'principal_point' expects 2 number\(s\), got 1"),
            ("image_size = 640\n", rig_from_config, r"key 'image_size' expects 2 number\(s\), got 1"),
        ],
    )
    def test_repeated_key_or_wrong_count_rejected(self, text, build, match):
        with pytest.raises(ConfigError, match=match):
            build(parse_config_text(text))

    @pytest.mark.parametrize(
        "text, build",
        [("population_size = 50 60\n", evolution_params_from_config), ("baseline_m = 0.3, 9\n", rig_from_config)],
    )
    def test_extra_numbers_rejected(self, text, build):
        # the first number used to be taken and the rest dropped (50, 0.3 m)
        with pytest.raises(ConfigError, match="expects 1 number"):
            build(parse_config_text(text))

    def test_first_bad_field_is_named(self):
        # keys are read in field order, so population_size comes first
        cfg = parse_config_text("mutation_sigma = 1 2\npopulation_size = 1.5\n")
        with pytest.raises(ConfigError, match="key 'population_size' expects integers"):
            evolution_params_from_config(cfg)
        # a model's keys are all parsed before it checks any: a malformed
        # baseline is named before the focal length the rig rejects
        cfg = parse_config_text("focal_length_px = 0\nbaseline_m = abc\n")
        with pytest.raises(ConfigError, match="key 'baseline_m' expects numbers, got 'abc'"):
            rig_from_config(cfg)

    def test_value_without_numbers_rejected(self):
        # "," splits into no numbers at all; this used to end in an IndexError
        with pytest.raises(ConfigError, match="key 'population_size' expects numbers"):
            evolution_params_from_config(parse_config_text("population_size = ,\n"))
        with pytest.raises(ConfigError, match="key 'population_size' expects numbers") as caught:
            evolution_params_from_config(parse_config_text("population_size = ten\n"))
        assert caught.value.__suppress_context__  # float's own error is not chained on


KEY_GROUPS = {
    "rig": "focal_length_px principal_point image_size baseline_m camera_height_m z_min_m z_max_m".split(),
    "evolution": (
        "population_size selection_ratio mutation_fraction crossover_fraction "
        "mutation_sigma neighborhood_radius sharing_cell_px sharing_exponent fitness_epsilon rng_seed"
    ).split(),
    "warning": "max_height_m min_height_m max_range_m x_clamp_m z_clamp_m".split(),
    "scene": "obstacle ground_texture_seed background_grey ground_texture_cell_m".split(),
}
CONFIG_KEYS = [key for keys in KEY_GROUPS.values() for key in keys]
EVOLVE_GROUPS = ("rig", "evolution", "warning")
# every way a command takes its scene or pairs, and the key groups it reads
COMMAND_READS = {
    ("synth", "--preset", "empty-road"): ("rig",),
    ("synth",): ("rig", "scene"),
    ("detect", "--left", "l.pgm", "--right", "r.pgm"): EVOLVE_GROUPS,
    ("sequence", "--left", "L_*.pgm", "--right", "R_*.pgm"): EVOLVE_GROUPS,
}


def group_keys(groups) -> set[str]:
    return {key for group in groups for key in KEY_GROUPS[group]}


class KeysChecked(Exception):
    """Ends a command once its unread-key check has passed."""


def check_keys(argv, cfg: dict) -> tuple[set[str], ConfigError | None]:
    """Run ``argv``'s command on ``cfg`` up to its unread-key check, which it
    makes before it renders, decodes or writes anything. Returns the keys it
    looked up and the ConfigError it raised, if any."""
    args = cli.build_parser().parse_args(list(argv))
    log = KeyLog(cfg)

    def checked():
        KeyLog.reject_unread(log)
        raise KeysChecked

    log.reject_unread = checked
    try:
        args.func(args, log)
    except KeysChecked:
        return log.read, None
    except ConfigError as exc:
        return log.read, exc
    raise AssertionError(f"{argv} ran without checking its keys")


_number = st.one_of(
    st.integers(-5, 1000).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-inf", "1e999", "0.5", "640.9", "1_0", "0x10", "", ","]),
)
_config_line = st.tuples(
    st.one_of(
        st.sampled_from(CONFIG_KEYS),
        st.sampled_from(["unknown_key", "populaton_size", "Baseline_m"]),
        st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,15}", fullmatch=True),
    ),
    st.one_of(st.lists(_number, max_size=8).map(", ".join), st.text(max_size=10)),
).map(lambda kv: f"{kv[0]} = {kv[1]}")
CONFIG_TEXT = st.one_of(st.text(max_size=60), st.lists(_config_line, max_size=6).map("\n".join))


@given(text=CONFIG_TEXT)
def test_config_fuzz_yields_value_or_config_error(text):
    try:
        cfg = parse_config_text(text)
    except ConfigError:
        return
    for build in (rig_from_config, evolution_params_from_config, warning_params_from_config, scene_from_config):
        try:
            build(cfg)
        except ConfigError:
            pass
    # each command passes its key check, or fails naming an unknown key,
    # exactly as the text holds no key or some key outside the groups it reads
    for argv, groups in COMMAND_READS.items():
        unknown = set(cfg) - group_keys(groups)
        _, error = check_keys(argv, cfg)
        if error is None:
            assert not unknown, argv
        elif "unknown key" in str(error):
            assert any(str(error) == f"unknown key {key!r}" for key in unknown), argv


def test_documented_keys_are_the_keys_a_run_reads():
    # the readers are the only list of valid keys; with no config at all
    # each command still looks up every key it reads, flag-overridden ones too
    for argv, groups in COMMAND_READS.items():
        read, _ = check_keys([*argv, "--population", "5", "--seed", "5"] if "evolution" in groups else argv, {})
        assert read == group_keys(groups), argv
    assert set().union(*COMMAND_READS.values()) == set(KEY_GROUPS)


@pytest.mark.parametrize(
    "build, model",
    [
        (rig_from_config, StereoRig),
        (evolution_params_from_config, EvolutionParams),
        (warning_params_from_config, WarningParams),
    ],
)
def test_each_key_is_the_field_of_its_name(build, model):
    # the rig once read image_size into an inner model's two fields
    log = KeyLog({})
    assert build(log) == model()
    assert log.read == {f.name for f in dataclasses.fields(model)}


def test_readme_lists_the_keys_a_run_reads():
    # every backticked lowercase identifier of the README's config section
    # names a key, and each group's bullet names the commands that read it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration file\n", 1)[1].split("\n## ", 1)[0]
    reads = {argv: check_keys(argv, {})[0] for argv in COMMAND_READS}
    assert set(re.findall(r"`([a-z][a-z0-9_]*)`", section)) == set().union(*reads.values())
    bullets = {b.split(",", 1)[0]: b.split("\n\n", 1)[0] for b in section.split("\n- ")[1:]}
    assert set(bullets) == set(KEY_GROUPS)
    for group, keys in KEY_GROUPS.items():
        head, listed = bullets[group].split(":", 1)
        assert set(re.findall(r"`([a-z][a-z0-9_]*)`", listed)) == set(keys)
        readers = {argv[0] for argv, read in reads.items() if set(keys) <= read}
        assert set(re.findall(r"\b(synth|detect|sequence)\b", head)) == readers, group


class TestSynthCommand:
    def test_writes_pair_and_truth(self, tmp_path):
        out = tmp_path / "scene"
        assert main(["synth", "--preset", "pedestrian-4m", "--out", str(out)]) == 0
        left = read_pnm(out / "left.pgm")
        right = read_pnm(out / "right.pgm")
        assert (left.width, left.height) == (640, 480)
        assert (right.width, right.height) == (640, 480)
        header, rows = read_csv(out / "truth.csv")
        assert header[:5] == ["center_x", "center_y", "center_z", "width_m", "height_m"]
        assert len(rows) == 1
        assert float(rows[0][2]) == 4.0

    def test_rerun_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--preset", "empty-road", "--out", str(a)])
        main(["synth", "--preset", "empty-road", "--out", str(b)])
        assert (a / "left.pgm").read_bytes() == (b / "left.pgm").read_bytes()
        assert (a / "right.pgm").read_bytes() == (b / "right.pgm").read_bytes()

    def test_custom_scene_from_config(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("obstacle = 0, 0, 5, 1, 1, 3\nbackground_grey = 99\n")
        out = tmp_path / "custom"
        assert main(["synth", "--config", str(conf), "--out", str(out)]) == 0
        left = read_pnm(out / "left.pgm")
        assert np.any(left.samples == 99)

    def test_missing_scene_is_error(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "x")]) == 2
        assert "scene" in capsys.readouterr().err


@pytest.fixture(scope="module")
def detect_run(tmp_path_factory, preset_files):
    out = tmp_path_factory.mktemp("detect")
    code = main(
        [
            "detect",
            *preset_files["pedestrian-4m"],
            "--out",
            str(out),
            "--seed",
            "3",
            "--generations",
            "12",
            "--population",
            "400",
        ]
    )
    assert code == 0
    return out


class TestDetectCommand:
    def test_flies_csv_shape(self, detect_run):
        header, rows = read_csv(detect_run / "flies.csv")
        assert header == ["x", "y", "z", "raw_fitness", "shared_fitness", "penalized", "warning"]
        assert len(rows) == 400

    def test_trace_rows(self, detect_run):
        header, rows = read_csv(detect_run / "warning_trace.csv")
        assert header == ["generation", "global_warning"]
        assert [int(r[0]) for r in rows] == list(range(1, 13))
        assert all(float(r[1]) >= 0 for r in rows)

    def test_trace_csv_of_numpy_scalars(self, tmp_path):
        # numpy 2 writes repr(np.float64(0.5)) as "np.float64(0.5)"; the
        # file holds the plain shortest round-trip decimal
        cli.write_trace_csv(tmp_path / "trace.csv", [(1, np.float64(0.5)), (np.int64(2), np.float32(0.25))])
        assert (tmp_path / "trace.csv").read_text() == "generation,global_warning\n1,0.5\n2,0.25\n"

    def test_warning_column_roundtrip(self, detect_run):
        # recomputing the warning from the CSV's F, x, z and penalized
        # columns reproduces the warning column
        _, rows = read_csv(detect_run / "flies.csv")
        for r in rows:
            x, _, z, raw = float(r[0]), float(r[1]), float(r[2]), float(r[3])
            penalized = r[5] == "1"
            expected = 0.0 if penalized else raw / (max(abs(x), 0.5) ** 2 * max(z, 1.0))
            assert float(r[6]) == pytest.approx(expected, rel=1e-9, abs=1e-300)

    def test_overlays_exist_with_markers(self, detect_run):
        overlay = read_pnm(detect_run / "overlay_left.ppm")
        assert overlay.channels == 3
        red = (
            (overlay.samples[:, :, 0] == 255)
            & (overlay.samples[:, :, 1] == 0)
            & (overlay.samples[:, :, 2] == 0)
        )
        assert red.any()

    def test_overlay_marks_match_top_k_projections(self, tmp_path, preset_files):
        out = tmp_path / "ov"
        main(
            [
                "detect",
                *preset_files["pedestrian-4m"],
                "--out",
                str(out),
                "--seed",
                "5",
                "--generations",
                "3",
                "--population",
                "300",
            ]
        )
        from reference import project

        rig = rig_from_config({})
        _, rows = read_csv(out / "flies.csv")
        shared = np.array([float(r[4]) for r in rows])
        order = np.argsort(-shared, kind="stable")[:250]
        for view in ("left", "right"):
            expected = set()
            for i in order:
                x, y, z = (float(rows[i][0]), float(rows[i][1]), float(rows[i][2]))
                px = getattr(project(rig, (x, y, z)), f"{view}_px")
                u, v = int(np.rint(px[0])), int(np.rint(px[1]))
                for du, dv in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
                    if 0 <= u + du < 640 and 0 <= v + dv < 480:
                        expected.add((u + du, v + dv))
            overlay = read_pnm(out / f"overlay_{view}.ppm")
            red = (
                (overlay.samples[:, :, 0] == 255)
                & (overlay.samples[:, :, 1] == 0)
                & (overlay.samples[:, :, 2] == 0)
            )
            got = {(u, v) for v, u in zip(*np.where(red))}
            assert got == expected, view

    @staticmethod
    def overlay(tmp_path, base, u, v):
        """The samples ``cli._write_overlay`` writes for crosses at (u[i], v[i]) on ``base``."""
        cli._write_overlay(tmp_path / "overlay.ppm", base, np.array(u, dtype=float), np.array(v, dtype=float))
        return read_pnm(tmp_path / "overlay.ppm").samples

    def test_markers_are_clipped_to_the_image(self, tmp_path):
        base = Image(np.zeros((4, 5), dtype=np.uint8))  # shorter than one band
        # rounded centres (0, 0), (4, 3), (5, 1) just right of the image, (-2, 9) far outside
        marked = self.overlay(tmp_path, base, [0.4, 3.6, 5.0, -2.0], [-0.4, 3.2, 1.0, 9.0])
        red = {(u, v) for v, u in zip(*np.nonzero(marked[:, :, 0]))}
        assert red == {(0, 0), (1, 0), (0, 1), (4, 3), (3, 3), (4, 2), (4, 1)}
        assert not base.samples.any()

    # the overlay is written in bands of BAND_ROWS rows: a cross on a band's last
    # or first row reaches into its neighbour, and a short image is one band
    @pytest.mark.parametrize("height", [3, BAND_ROWS, 2 * BAND_ROWS + 5])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_overlay_is_the_base_in_rgb_with_every_cross(self, tmp_path, height, channels):
        rng = np.random.default_rng(height)
        samples = rng.integers(0, 200, (height, 9) + (3,) * (channels == 3), dtype=np.uint8)  # no pure red
        centres = [(4, 0), (1, BAND_ROWS - 1), (7, BAND_ROWS), (3, 2 * BAND_ROWS), (5, height - 1)]
        marked = self.overlay(tmp_path, Image(samples), *zip(*centres))
        want = np.repeat(samples.reshape(height, 9, -1), 3 // channels, axis=2)
        for u, v in centres:
            for du, dv in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
                if 0 <= v + dv < height:
                    want[v + dv, u + du] = cli.MARKER_RGB
        np.testing.assert_array_equal(marked, want)

    def test_exit_zero_and_final_line(self, tmp_path, capsys, preset_files):
        out = tmp_path / "final"
        code = main(
            ["detect", *preset_files["empty-road"], "--out", str(out), "--seed", "1", "--generations", "2", "--population", "200"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert float(lines[-1]) >= 0.0
        assert lines[0].startswith("1,")

    def test_dimension_mismatch_is_config_error(self, tmp_path, capsys):
        conf = tmp_path / "rig.conf"
        conf.write_text("image_size = 320, 240\nfocal_length_px = 250\nprincipal_point = 160, 120\n")
        pair = tmp_path / "pair"
        main(["synth", "--preset", "empty-road", "--out", str(pair)])
        code = main(
            [
                "detect",
                "--config",
                str(conf),
                "--left",
                str(pair / "left.pgm"),
                "--right",
                str(pair / "right.pgm"),
                "--out",
                str(tmp_path / "no"),
            ]
        )
        assert code == 2
        assert "rig expects" in capsys.readouterr().err


class TestFailureContract:
    """Bad input ends in exit code 2 and a one-line message, never in a
    traceback or a silently applied default."""

    @pytest.fixture(autouse=True)
    def empty_road(self, preset_files):
        """The pair ``run_detect`` reads."""
        self.pair = preset_files["empty-road"]

    def run_detect(self, tmp_path, capsys, *extra, config=None):
        argv = ["detect", *self.pair, "--out", str(tmp_path / "out"), "--generations", "1"]
        if config is not None:
            conf = tmp_path / "run.conf"
            conf.write_text(config)
            argv += ["--config", str(conf)]
        capsys.readouterr()
        code = main(argv + list(extra))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_population_zero_is_not_ignored(self, tmp_path, capsys):
        code, out, err = self.run_detect(tmp_path, capsys, "--population", "0")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "population_size" in err

    def test_population_one_is_an_input_error(self, tmp_path, capsys):
        code, _, err = self.run_detect(tmp_path, capsys, "--population", "1")
        assert code == 2
        assert err.startswith("flyswarm: error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "line",
        [
            "baseline_m = 0",
            "baseline_m = nan",
            "selection_ratio = 0",
            "z_max_m = inf",
            "population_size = 50\npopulation_size = 60",
            "principal_point = 320",
            "image_size = 640",
        ],
    )
    def test_bad_config_value_exits_2(self, tmp_path, capsys, line):
        code, out, err = self.run_detect(tmp_path, capsys, config=line + "\n")
        assert code == 2
        assert out == ""
        assert err.startswith("flyswarm: error:") and err.count("\n") == 1

    # numpy refuses these PiB-sized requests at once, without allocating
    @pytest.mark.parametrize(
        "extra, config", [((), "population_size = 1e15\n"), (("--population", "1000000000000000"), None)]
    )
    def test_unallocatable_population_exits_2(self, tmp_path, capsys, extra, config):
        code, out, err = self.run_detect(tmp_path, capsys, *extra, config=config)
        assert code == 2
        assert out == ""
        assert err.startswith("flyswarm: error:") and err.count("\n") == 1

    def run_synth(self, tmp_path, capsys, size):
        conf = tmp_path / "run.conf"
        conf.write_text(f"image_size = {size}\n")
        capsys.readouterr()
        code = main(["synth", "--preset", "empty-road", "--config", str(conf), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        return captured.err

    # numpy once refused this size after 1.6 GB of per-column and per-row
    # slopes; the rig now refuses it first, as its pixel triples overflow int64
    def test_unallocatable_image_size_exits_2(self, tmp_path, capsys):
        err = self.run_synth(tmp_path, capsys, "100000000, 100000000")
        assert err == "flyswarm: error: image_width**2 * image_height must be below 2**63, got 100000000x100000000\n"

    # a size the rig accepts can still ask for more than the address space
    # (146 TiB of per-row slopes), which numpy refuses without allocating
    def test_image_size_past_the_address_space_exits_2(self, tmp_path, capsys):
        err = self.run_synth(tmp_path, capsys, "640, 20000000000000")
        assert err.startswith("flyswarm: error: Unable to allocate")

    # warnings as errors: before the rig rejected it, synth rendered with
    # overflow warnings and detect drew NaN flies without end
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["synth", "detect", "sequence"])
    def test_overflowing_search_volume_exits_2_before_any_output(self, tmp_path, capsys, command):
        source = ["--preset", "pedestrian-4m"] if command == "synth" else self.pair
        conf = tmp_path / "run.conf"
        conf.write_text("focal_length_px = 1e-308\n")
        capsys.readouterr()
        code = main([command, *source, "--config", str(conf), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("flyswarm: error: search volume overflows") and captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    # warnings as errors: detect once rendered its pair before building the
    # search volume, so the render warned twice, and the bound then
    # printed with 297 digits; it now reads its pair and builds the swarm
    # before it writes anything
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("line", ["focal_length_px = 1e300", "baseline_m = 1e300"])
    def test_oversized_rig_exits_2_before_detect_renders(self, tmp_path, capsys, line):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        capsys.readouterr()
        code = main(["detect", *self.pair, "--config", str(conf), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("flyswarm: error: fields of view do not intersect") and captured.err.count("\n") == 1
        assert max(map(len, re.findall(r"[0-9.e+-]+", captured.err))) <= 20
        assert not (tmp_path / "out").exists()

    # warnings as errors: the renderer cast texture cell indices beyond
    # int64 with numpy's "invalid value" warning, then wrote its files; at
    # 1e308 the ground's depth overflowed, and it wrote an untextured road
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "command, line",
        [
            ("synth", "focal_length_px = 1e300"),
            ("synth", "baseline_m = 1e300"),
            ("synth", "camera_height_m = 1e300"),
            ("synth", "camera_height_m = 1e17"),
            ("synth", "camera_height_m = 1e308"),
        ],
    )
    def test_scene_beyond_the_texture_cells_exits_2_before_any_output(self, tmp_path, capsys, command, line):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        capsys.readouterr()
        code = main([command, "--preset", "pedestrian-4m", "--config", str(conf), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("flyswarm: error: surface coordinates beyond 2**63 texture cells of 0.03 m")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()  # no left.pgm, no flies.csv

    # warnings as errors: each overflowed in numpy during the run, and the
    # run went on with inf or nan and exited 0
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "line, message",
        [
            ("z_max_m = 1e300", "search volume overflows"),
            ("mutation_sigma = 1e308, 1e308, 1e308", "mutation_sigma must be three values in [0, 2**1020)"),
            # the model checks the run's population, --population's 200, not the config's 5000
            ("sharing_exponent = 1e308", "population_size ** sharing_exponent overflows: 200 ** 1e+308"),
            ("x_clamp_m = 1e200", "warning divisor x^2 * z overflows: x_clamp_m = 1e+200, z_clamp_m = 1.0"),
            ("z_clamp_m = 1e307\nmax_range_m = 1e308", "warning divisor x^2 * z overflows: x_clamp_m = 0.5, z_clamp_m = 1e+307"),
            # numpy's seeding rejected it in words that named no key
            ("rng_seed = -1", "rng_seed must be >= 0, got -1"),
            # a fly on two equal windows scored inf
            ("fitness_epsilon = 1e-308", "fitness_epsilon must be > 0 and 2.1e6 / it finite, got 1e-308"),
        ],
    )
    def test_value_past_its_model_bound_exits_2_before_any_output(self, tmp_path, capsys, line, message):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        capsys.readouterr()
        argv = ["detect", *self.pair, "--config", str(conf), "--population", "200", "--generations", "3"]
        code = main(argv + ["--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"flyswarm: error: {message}") and captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    # the reader turned each into an exact int, and the model's message
    # printed it in 201, 31 and 31 digits
    @pytest.mark.parametrize(
        "command, line",
        [
            ("detect", "rng_seed = -1e200"),
            ("detect", "neighborhood_radius = 1e30"),
            ("synth", "obstacle = 0, -0.35, 4, 0.5, 1.7, 202\nbackground_grey = 1e30"),
        ],
    )
    def test_huge_integer_exits_2_in_a_short_message(self, tmp_path, capsys, command, line):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        argv = [command, *self.pair] if command == "detect" else [command]
        capsys.readouterr()
        code = main(argv + ["--config", str(conf), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        key, value = line.rsplit("\n", 1)[-1].split(" = ")
        assert code == 2 and captured.out == ""
        assert captured.err == f"flyswarm: error: key {key!r} expects integers below 2**53 in magnitude, got {float(value)!r}\n"
        assert not (tmp_path / "out").exists()

    # the flags were ints that no bound held: --seed 10**30 and 2**53 ran,
    # --seed -10**60 printed its 61 digits back, and --population 10**60
    # ended in numpy's "Maximum allowed dimension exceeded", which named no key
    @pytest.mark.parametrize(
        "flag, value, shown",
        [("--seed", 10**30, "1e+30"), ("--seed", 2**53, "9007199254740992.0"), ("--seed", -(10**60), "-1e+60"),
         ("--population", 10**60, "1e+60")],
    )
    def test_huge_integer_flag_exits_2_in_a_short_message(self, tmp_path, capsys, flag, value, shown):
        code, out, err = self.run_detect(tmp_path, capsys, flag, str(value))
        assert code == 2 and out == ""
        assert err == f"flyswarm: error: flag {flag} expects integers below 2**53 in magnitude, got {shown}\n"
        assert not (tmp_path / "out").exists()

    # argparse named the flag ("argument --seed: invalid int value"); the keys' reader names it too
    def test_malformed_flag_is_named(self, tmp_path, capsys):
        code, out, err = self.run_detect(tmp_path, capsys, "--seed", "abc")
        assert code == 2 and out == ""
        assert err == "flyswarm: error: flag --seed expects numbers, got 'abc'\n"

    def test_integer_flag_below_2_53_is_read_as_written(self, tmp_path, capsys):
        code, out, err = self.run_detect(tmp_path, capsys, "--seed", str(2**53 - 1), "--population", "2e2")
        assert code == 0 and err == ""
        _, rows = read_csv(tmp_path / "out" / "flies.csv")
        assert len(rows) == 200

    # warnings as errors: numpy's seeding rejected --seed -1 in words that
    # named no key; the model now checks the flag's value as the run's own
    @pytest.mark.filterwarnings("error")
    def test_negative_seed_flag_exits_2_naming_the_key(self, tmp_path, capsys):
        code, out, err = self.run_detect(tmp_path, capsys, "--seed", "-1", "--population", "200")
        assert code == 2 and out == ""
        assert err == "flyswarm: error: rng_seed must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    # argparse reads "-5" as a number but took "-1e3" for an option, so these
    # ended in "argument --seed: expected one argument"; any token float()
    # reads now reaches the integer rule, as --seed=-1e3 already did
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "-1e3", "rng_seed must be >= 0, got -1000"),
            ("--population", "-1e60", "flag --population expects integers below 2**53 in magnitude, got -1e+60"),
            ("--generations", "-1e0", "generations must be >= 1, got -1"),
        ],
    )
    def test_negative_exponent_flag_reaches_the_integer_rule(self, tmp_path, capsys, flag, value, message):
        code, out, err = self.run_detect(tmp_path, capsys, flag, value)
        assert code == 2 and out == ""
        assert err == f"flyswarm: error: {message}\n"
        assert not (tmp_path / "out").exists()

    # the model checks the run's own values: these exited 2 when the config's
    # population (5000, then 1) was checked before --population replaced it
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("line", ["sharing_exponent = 100", "population_size = 1"])
    def test_flag_value_is_the_one_checked(self, tmp_path, capsys, line):
        code, out, err = self.run_detect(tmp_path, capsys, "--population", "100", config=line + "\n")
        assert code == 0 and err == ""
        assert len(out.splitlines()) == 2

    def test_malformed_key_under_a_flag_exits_2(self, tmp_path, capsys):
        code, out, err = self.run_detect(tmp_path, capsys, "--population", "200", config="population_size = abc\n")
        assert code == 2 and out == ""
        assert err == "flyswarm: error: key 'population_size' expects numbers, got 'abc'\n"
        assert not (tmp_path / "out").exists()

    def test_non_finite_config_number_rejected(self):
        for value in ("nan", "inf", "-inf", "0.4, nan"):
            with pytest.raises(ConfigError, match="finite"):
                rig_from_config(parse_config_text(f"baseline_m = {value}\n"))

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        # a misspelt key used to leave the default (5000) in force, exit 0
        code, out, err = self.run_detect(tmp_path, capsys, config="populaton_size = 100\n")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "unknown key 'populaton_size'" in err

    @pytest.mark.parametrize("command", ["detect", "sequence"])
    @pytest.mark.parametrize("line", ["emit_flies = 0", "emit_overlays = 1", "overlay_top_k = 7"])
    def test_removed_output_key_exits_2(self, tmp_path, capsys, command, line):
        # these keys once switched outputs off and on; sequence read two and ignored them
        rig = "image_size = 64, 64\nfocal_length_px = 80\nprincipal_point = 32, 32\nbaseline_m = 0.2\n"
        conf = tmp_path / "run.conf"
        conf.write_text(rig)
        pair = tmp_path / "pair"
        assert main(["synth", "--preset", "pedestrian-4m", "--config", str(conf), "--out", str(pair)]) == 0
        conf.write_text(rig + line + "\n")
        argv = [command, "--left", str(pair / "left.pgm"), "--right", str(pair / "right.pgm"), "--config", str(conf)]
        capsys.readouterr()
        code = main(argv + ["--population", "64", "--generations", "1", "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and f"unknown key {line.split()[0]!r}" in captured.err
        assert not (tmp_path / "out").exists()

    def test_preset_and_files_exit_2_before_the_run(self, tmp_path, capsys):
        # the files used to be evolved on and the preset dropped without a
        # word; detect now reads files only, and --preset is not its flag
        code, out, err = self.run_detect(tmp_path, capsys, "--preset", "empty-road")
        assert code == 2
        assert out == ""
        assert err == "flyswarm: error: unrecognized arguments: --preset empty-road\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("exponent, expected", [("-3", 2), ("-0.5", 2), ("0", 0)])
    def test_negative_sharing_exponent_exits_2(self, tmp_path, capsys, exponent, expected):
        # -3 used to turn the crowding penalty into a reward; 0 (no sharing) stays legal
        code, _, err = self.run_detect(tmp_path, capsys, config=f"sharing_exponent = {exponent}\n")
        assert code == expected
        if expected == 2:
            assert err.count("\n") == 1 and "sharing_exponent" in err

    @pytest.mark.parametrize("mix", ["", "mutation_fraction = 0\ncrossover_fraction = 0.9\n"])
    def test_negative_mutation_sigma_exits_2_before_the_run(self, tmp_path, capsys, mix):
        # used to be checked at the first mutation, inside the run, and
        # never when no mutant is drawn
        code, out, err = self.run_detect(tmp_path, capsys, config=mix + "mutation_sigma = -1, 0.1, 0.1\n")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "mutation_sigma" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["sequence-missing", "sequence-truncated", "detect-grey-colour", "detect-2x2"])
    def test_rejected_first_pair_leaves_no_out(self, tmp_path, capsys, case):
        # --out was made before the first pair was decoded and fed, so each left it empty
        left, right = self.pair[1], self.pair[3]
        command, config = "detect", None
        if case == "sequence-missing":
            command, left = "sequence", str(tmp_path / "missing.pgm")
        elif case == "sequence-truncated":
            command, left = "sequence", str(tmp_path / "cut.pgm")
            Path(left).write_bytes(Path(self.pair[1]).read_bytes()[:-1])
        elif case == "detect-grey-colour":
            right = str(tmp_path / "colour.ppm")
            write_pnm(Path(right), Image(np.zeros((480, 640, 3), dtype=np.uint8)))
        else:  # the rig and its search volume take 2x2 images, a frame does not
            config, tiny = tmp_path / "tiny.conf", tmp_path / "tiny"
            config.write_text("image_size = 2, 2\nprincipal_point = 1, 1\nfocal_length_px = 2\n")
            assert main(["synth", "--preset", "empty-road", "--config", str(config), "--out", str(tiny)]) == 0
            config.write_text(config.read_text() + "neighborhood_radius = 0\n")
            left, right = str(tiny / "left.pgm"), str(tiny / "right.pgm")
        argv = [command, "--left", left, "--right", right, "--population", "64", "--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert main(argv + (["--config", str(config)] if config else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("flyswarm: error:") and captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_closed_stdout_exits_1_without_a_message(self, tmp_path, preset_files):
        # more output than a pipe holds, so the writer is still writing
        # when the reader closes its end
        argv = ["detect", *preset_files["pedestrian-4m"], "--population", "8", "--generations", "20000"]
        src = os.path.dirname(os.path.dirname(flyswarm.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "flyswarm", *argv, "--out", str(tmp_path / "out")],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert first.startswith(b"1,")
        assert err == b""


SMALL_RIG = "image_size = 64, 64\nfocal_length_px = 80\nprincipal_point = 32, 32\nbaseline_m = 0.2\n"
OBSTACLE = "obstacle = 0, 0, 5, 1, 1, 3"


class TestKeysPerCommand:
    """A command reads the keys it uses; any other key exits 2 before any output."""

    def run(self, tmp_path, capsys, argv, line):
        conf = tmp_path / "run.conf"
        conf.write_text(SMALL_RIG)
        pair = tmp_path / "pair"
        assert main(["synth", "--preset", "pedestrian-4m", "--config", str(conf), "--out", str(pair)]) == 0
        conf.write_text(SMALL_RIG + line + "\n")
        argv = [arg.replace("PAIR", str(pair)) for arg in argv] + ["--config", str(conf), "--out", str(tmp_path / "out")]
        if argv[0] != "synth":
            argv += ["--population", "64"]
        capsys.readouterr()
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["synth", "--preset", "empty-road"], "population_size = 7"),
            (["synth", "--preset", "empty-road"], OBSTACLE),
            (["detect", "--left", "PAIR/left.pgm", "--right", "PAIR/right.pgm", "--generations", "1"], OBSTACLE),
            (["sequence", "--left", "PAIR/left.pgm", "--right", "PAIR/right.pgm"], OBSTACLE),
            # --generations is the one way to set the count
            (["sequence", "--left", "PAIR/left.pgm", "--right", "PAIR/right.pgm"], "generations = 2"),
        ],
        ids=[
            "synth-evolution-key",
            "synth-preset-scene-key",
            "detect-files-scene-key",
            "sequence-scene-key",
            "sequence-generations-key",
        ],
    )
    def test_key_the_command_does_not_read_exits_2(self, tmp_path, capsys, argv, line):
        # each was looked up by a reader the command never uses, then ignored with exit 0
        code, out, err = self.run(tmp_path, capsys, argv, line)
        assert code == 2
        assert out == ""
        assert err == f"flyswarm: error: unknown key {line.split()[0]!r}\n"
        assert not (tmp_path / "out").exists()

    def test_synth_takes_no_seed(self, tmp_path, capsys):
        # synth draws no random numbers, so its --seed changed no byte
        assert main(["synth", "--preset", "empty-road", "--seed", "1", "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "flyswarm: error: unrecognized arguments: --seed 1\n"
        assert not (tmp_path / "out").exists()


class TestSequenceCommand:
    def test_constant_scene_trace_stabilizes(self, tmp_path):
        pair = tmp_path / "pair"
        main(["synth", "--preset", "pedestrian-4m", "--out", str(pair)])
        frames = tmp_path / "frames"
        frames.mkdir()
        for i in range(30):
            (frames / f"L_{i:03d}.pgm").write_bytes((pair / "left.pgm").read_bytes())
            (frames / f"R_{i:03d}.pgm").write_bytes((pair / "right.pgm").read_bytes())
        out = tmp_path / "seq"
        code = main(
            [
                "sequence",
                "--left",
                str(frames / "L_*.pgm"),
                "--right",
                str(frames / "R_*.pgm"),
                "--out",
                str(out),
                "--seed",
                "2",
                "--population",
                "600",
            ]
        )
        assert code == 0
        _, rows = read_csv(out / "warning_trace.csv")
        assert len(rows) == 30
        values = np.array([float(r[1]) for r in rows])
        tail = values[-10:]
        head = values[:10]
        # later generations should not be wilder than early ones
        assert tail.std() <= max(values.std(), 1e-12) + 1e-12
        assert tail.mean() >= head.mean()

    def test_mismatched_counts_rejected(self, tmp_path, capsys):
        pair = tmp_path / "pair"
        main(["synth", "--preset", "empty-road", "--out", str(pair)])
        frames = tmp_path / "frames"
        frames.mkdir()
        for i in range(3):
            (frames / f"L_{i}.pgm").write_bytes((pair / "left.pgm").read_bytes())
        for i in range(2):
            (frames / f"R_{i}.pgm").write_bytes((pair / "right.pgm").read_bytes())
        code = main(
            ["sequence", "--left", str(frames / "L_*.pgm"), "--right", str(frames / "R_*.pgm"), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "mismatched pair counts" in capsys.readouterr().err

    # a pattern's files are found by glob; a path without a glob character is read as given
    @pytest.mark.parametrize("name, error", [("L_*.pgm", "pattern '{}' matches no files"), ("L_0.pgm", "No such file")])
    def test_missing_frames_exit_2_naming_the_input(self, tmp_path, capsys, name, error):
        path = str(tmp_path / name)
        code = main(["sequence", "--left", path, "--right", path, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and error.format(path) in err
        assert not (tmp_path / "o").exists()


class TestStreamedSequence:
    """``sequence`` decodes each pair only when the run loop reaches it."""

    @pytest.fixture
    def small(self, tmp_path):
        """Three empty-road then three pedestrian pairs on a 64x64 rig."""
        conf = tmp_path / "small.conf"
        conf.write_text("image_size = 64, 64\nfocal_length_px = 80\nprincipal_point = 32, 32\nbaseline_m = 0.2\n")
        frames = tmp_path / "frames"
        frames.mkdir()
        for i, preset in enumerate(["empty-road"] * 3 + ["pedestrian-4m"] * 3):
            scene = tmp_path / preset
            if not scene.exists():
                assert main(["synth", "--preset", preset, "--config", str(conf), "--out", str(scene)]) == 0
            (frames / f"L_{i}.pgm").write_bytes((scene / "left.pgm").read_bytes())
            (frames / f"R_{i}.pgm").write_bytes((scene / "right.pgm").read_bytes())
        argv = ["sequence", "--left", str(frames / "L_*.pgm"), "--right", str(frames / "R_*.pgm")]
        argv += ["--config", str(conf), "--population", "64", "--out", str(tmp_path / "out")]
        return frames, argv

    def test_one_pair_in_memory(self, small, monkeypatch):
        _, argv = small
        images = []  # a weak reference to every decoded image
        live_before = []  # decoded images still alive at each decode
        first_line_reads = []

        def counting_read(path):
            live_before.append(sum(ref() is not None for ref in images))
            image = read_pnm(path)
            images.append(weakref.ref(image))
            return image

        class FirstLine(io.StringIO):
            def write(self, text):
                if not first_line_reads:
                    first_line_reads.append(len(images))
                return super().write(text)

        monkeypatch.setattr(cli, "read_pnm", counting_read)
        monkeypatch.setattr(sys, "stdout", FirstLine())
        assert main(argv) == 0
        assert len(images) == 12
        assert first_line_reads == [2]
        # at most the frame in use (one pair) and the half-read next pair
        assert max(live_before) <= 3

    @pytest.mark.parametrize(
        "fault, message", [("truncated", "truncated pixel data"), ("wrong size", "R_5.pgm image is 640x480")]
    )
    def test_bad_last_frame_exits_2(self, small, tmp_path, capsys, fault, message):
        frames, argv = small
        last = frames / "R_5.pgm"
        if fault == "truncated":
            last.write_bytes(last.read_bytes()[:-1])
        else:
            assert main(["synth", "--preset", "empty-road", "--out", str(tmp_path / "big")]) == 0
            last.write_bytes((tmp_path / "big" / "right.pgm").read_bytes())
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 5  # the frames before it ran
        assert captured.err.startswith("flyswarm: error:") and captured.err.count("\n") == 1
        assert message in captured.err


_COUNT_FAULTS = """
import contextlib, os, resource, sys
from flyswarm.cli import main
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
"""


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc", reason="measured with glibc's allocator only"
)
def test_new_frames_do_not_page_fault(tmp_path):
    """Frames alternate, so every frame is new and scored in full: the heap
    the first frames grow must serve the later ones without minor faults,
    under glibc's own dynamic mmap and trim thresholds."""
    for preset in ("empty-road", "pedestrian-4m"):
        assert main(["synth", "--preset", preset, "--out", str(tmp_path / preset)]) == 0
    src = os.path.dirname(os.path.dirname(flyswarm.__file__))
    faults = {}
    for n in (6, 18):
        frames = tmp_path / f"frames{n}"
        frames.mkdir()
        for i in range(n):
            scene = tmp_path / ("empty-road", "pedestrian-4m")[i % 2]
            (frames / f"L_{i:02d}.pgm").write_bytes((scene / "left.pgm").read_bytes())
            (frames / f"R_{i:02d}.pgm").write_bytes((scene / "right.pgm").read_bytes())
        argv = ["sequence", "--left", str(frames / "L_*.pgm"), "--right", str(frames / "R_*.pgm")]
        argv += ["--generations", "1", "--out", str(tmp_path / f"out{n}")]
        # a fresh process each, so that no earlier test has grown the heap
        child = subprocess.run(
            [sys.executable, "-c", _COUNT_FAULTS, *argv],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        code, faults[n] = map(int, child.stdout.split())
        assert code == 0, child.stderr
    # glibc's defaults give 0 to 2 per frame (0 to 25 over the 12 frames); they gave
    # 370 to 420 before a new frame was scored in a one-frame working set
    assert (faults[18] - faults[6]) / 12 <= 20


def test_closed_stdout_ends_the_run_with_1_and_no_message(tmp_path, preset_files):
    """A reader gone before the first line (``| head -0``), with stdout
    block-buffered as Python makes a pipe by default: the run's flush fails
    inside ``main``, which returns 1, and the flush at exit must not fail
    again with a message and exit code 120."""
    src = os.path.dirname(os.path.dirname(flyswarm.__file__))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    argv = ["detect", *preset_files["empty-road"], "--population", "20", "--generations", "2"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "flyswarm", *argv, "--out", str(tmp_path / "out")],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
            env={**env, "PYTHONPATH": src},
        )
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (1, "")


def test_bench_is_an_unknown_command(capsys):
    assert main(["bench"]) == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--preset", "empty-road", "--seed", "5"],
        ["detect", "--left", "l.pgm", "--right", "r.pgm", "--generations", "abc"],
        ["sequence", "--left", "L_*.pgm", "--right", "R_*.pgm", "--population", "1.5"],
        [],
    ],
    ids=["unknown-flag", "bad-generations", "bad-population", "no-command"],
)
def test_usage_error_is_one_line(tmp_path, capsys, argv):
    # argparse used to print its usage line above the error, and a
    # subcommand's error under the subcommand's own prog name
    assert main([*argv, "--out", str(tmp_path / "out")] if argv else []) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("flyswarm: error: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["detect", "--preset", "pedestrian-4m"], "--left, --right"),
        (["detect", "--left", "l.pgm"], "--right"),
        (["sequence", "--right", "R_*.pgm"], "--left"),
    ],
    ids=["detect-preset", "detect-no-right", "sequence-no-left"],
)
def test_detect_and_sequence_need_both_files(tmp_path, capsys, argv, missing):
    # detect once rendered --preset, or the config's scene, when given no files
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"flyswarm: error: the following arguments are required: {missing}\n"
    assert not (tmp_path / "out").exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--help"])
    assert exc.value.code == 0
    assert "--generations N" in capsys.readouterr().out


# bounded, so that no example renders or evolves more than a 64x64 pair
# with 64 flies; a value that fails validation ends in exit code 2
_small_number = st.one_of(
    st.integers(-5, 64).map(str),
    st.floats(-100, 100).map(repr),
    st.sampled_from(["nan", "-inf", "1e999", "0.5", "640.9", "1_0", "0x10", "", ",", "junk"]),
)
_main_line = st.one_of(
    st.tuples(
        st.sampled_from(CONFIG_KEYS + ["unknown_key"]),
        st.lists(_small_number, max_size=7).map(", ".join),
    ).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=10),
)


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(
    lines=st.lists(_main_line, max_size=4),
    side=st.integers(3, 64),
    population=st.integers(-1, 64),
    command=st.sampled_from(["detect", "sequence", "synth"]),
)
def test_main_fuzz_exits_0_or_2(tmp_path_factory, lines, side, population, command):
    # a small rig leads, so an image_size line among the fuzzed ones repeats the key
    rig = f"image_size = {side}, {side}\nprincipal_point = {side / 2}, {side / 2}\nfocal_length_px = {side}"
    work = tmp_path_factory.mktemp("fuzz")
    conf = work / "run.conf"
    conf.write_text(rig)
    argv = [command, "--preset", "pedestrian-4m"]
    if command != "synth":
        assert main(["synth", *argv[1:], "--config", str(conf), "--out", str(work / "pair")]) == 0
        argv = [command, "--left", str(work / "pair" / "left.pgm"), "--right", str(work / "pair" / "right.pgm")]
        argv += ["--population", str(population), "--generations", "1"]
    conf.write_text("\n".join([rig, *lines]))
    code = main(argv + ["--config", str(conf), "--out", str(work / "out")])
    assert code in (0, 2)
    if code == 0:
        # a run that goes ahead reads every key its config holds
        reads = ("rig",) if command == "synth" else EVOLVE_GROUPS
        assert set(parse_config_text(conf.read_text())) <= group_keys(reads)
    else:
        # rejected input is rejected before any output file is written
        assert not [p for p in (work / "out").rglob("*") if p.is_file()]


# the finite-arithmetic contract, searched: one to three of the keys a
# command reads set to magnitudes log-uniform over 1e-308..1e308, either
# sign, or to a float's edge values; image_size keeps the pair's small rig
_ARITY = {"principal_point": 2, "mutation_sigma": 3}
_EXTREME_KEYS = {
    "synth": [k for k in KEY_GROUPS["rig"] + KEY_GROUPS["scene"] if k not in ("image_size", "obstacle")],
    "run": [k for group in EVOLVE_GROUPS for k in KEY_GROUPS[group] if k != "image_size"],
}
_extreme = st.one_of(
    st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-308, 308)).map(lambda se: se[0] * 10.0 ** se[1]),
    st.sampled_from([0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]),
)
# an integer key takes only integral values, so half the draws are written as one
_extreme_text = st.tuples(_extreme, st.booleans()).map(lambda vi: str(int(vi[0])) if vi[1] else repr(vi[0]))


def _all_finite(lines) -> bool:
    return all(math.isfinite(float(v)) for line in lines for v in line.split(","))


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    size=st.tuples(st.integers(16, 64), st.integers(16, 64)),
    population=st.integers(2, 64),
    generations=st.integers(1, 2),
    command=st.sampled_from(["detect", "sequence", "synth"]),
)
def test_extreme_values_exit_0_finite_or_2_without_output(
    tmp_path_factory, data, size, population, generations, command
):
    (w, h), work = size, tmp_path_factory.mktemp("extreme")
    rig = {"image_size": f"{w}, {h}", "principal_point": f"{w / 2}, {h / 2}", "focal_length_px": f"{w}"}
    cfg = {**rig, "obstacle": "0, -0.35, 4, 0.5, 1.7, 202", "ground_texture_seed": "101"}
    conf = work / "run.conf"
    argv = ["synth"]
    if command != "synth":
        conf.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        assert main(["synth", "--config", str(conf), "--out", str(work / "pair")]) == 0
        argv = [command, "--left", str(work / "pair" / "left.pgm"), "--right", str(work / "pair" / "right.pgm")]
        argv += ["--population", str(population), "--generations", str(generations)]
        cfg = dict(rig)
    keys = st.lists(st.sampled_from(_EXTREME_KEYS["synth" if command == "synth" else "run"]), min_size=1, max_size=3, unique=True)
    for key in data.draw(keys):
        cfg[key] = ", ".join(data.draw(_extreme_text) for _ in range(_ARITY.get(key, 1)))
    conf.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    out, stdout, stderr = work / "out", io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = main(argv + ["--config", str(conf), "--out", str(out)])
    if code == 0:
        assert stderr.getvalue() == "" and _all_finite(stdout.getvalue().splitlines())
        assert all(_all_finite(p.read_text().splitlines()[1:]) for p in out.glob("*.csv"))
    else:
        assert code == 2, stderr.getvalue()
        assert stdout.getvalue() == "" and stderr.getvalue().count("\n") == 1
        assert not out.exists()
        # no number longer than a float's longest repr, -2.2250738585072014e-308
        assert max(map(len, re.findall(r"[0-9.e+-]+", stderr.getvalue()))) <= 24, stderr.getvalue()
