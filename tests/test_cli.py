import io
import sys
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from flyswarm import cli
from flyswarm.cli import main
from flyswarm.config import (
    ConfigError,
    evolution_params_from_config,
    parse_config_text,
    rig_from_config,
    scene_from_config,
    warning_params_from_config,
)
from flyswarm.imaging import read_pnm


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
        assert rig.intrinsics.focal_length_px == 250
        assert rig.intrinsics.image_width == 320
        assert rig.baseline_m == 0.3
        scene = scene_from_config(cfg)
        assert len(scene.obstacles) == 2
        assert scene.obstacles[1].texture_cell_m == 0.1

    def test_defaults_when_empty(self):
        rig = rig_from_config({})
        assert (rig.intrinsics.image_width, rig.intrinsics.image_height) == (640, 480)
        assert evolution_params_from_config({}).population_size == 5000
        assert warning_params_from_config({}).max_range_m == 16.0
        assert scene_from_config({}) is None

    def test_params_from_config(self):
        cfg = parse_config_text("population_size = 100\nrng_seed = 9\nmutation_sigma = 0.1 0.1 0.2")
        params = evolution_params_from_config(cfg)
        assert params.population_size == 100
        assert params.rng_seed == 9
        assert params.mutation_sigma == (0.1, 0.1, 0.2)

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

    def test_model_rejection_is_config_error(self):
        with pytest.raises(ConfigError, match="population_size"):
            evolution_params_from_config(parse_config_text("population_size = 1\n"))
        with pytest.raises(ConfigError, match="baseline_m"):
            rig_from_config(parse_config_text("baseline_m = 0\n"))

    @pytest.mark.parametrize(
        "text, build",
        [("population_size = 50 60\n", evolution_params_from_config), ("baseline_m = 0.3, 9\n", rig_from_config)],
    )
    def test_extra_numbers_rejected(self, text, build):
        # the first number used to be taken and the rest dropped (50, 0.3 m)
        with pytest.raises(ConfigError, match="expects 1 number"):
            build(parse_config_text(text))

    def test_value_without_numbers_rejected(self):
        # "," splits into no numbers at all; this used to end in an IndexError
        with pytest.raises(ConfigError, match="expected numbers"):
            evolution_params_from_config(parse_config_text("population_size = ,\n"))


CONFIG_KEYS = (
    "focal_length_px principal_point image_size baseline_m camera_height_m z_min_m z_max_m "
    "population_size selection_ratio mutation_fraction crossover_fraction immigration_fraction "
    "mutation_sigma neighborhood_radius sharing_cell_px sharing_exponent fitness_epsilon rng_seed "
    "max_height_m min_height_m max_range_m x_clamp_m z_clamp_m "
    "obstacle ground_texture_seed background_grey ground_texture_cell_m unknown_key"
).split()
_number = st.one_of(
    st.integers(-5, 1000).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-inf", "1e999", "0.5", "640.9", "1_0", "0x10", "", ","]),
)
_config_line = st.tuples(
    st.sampled_from(CONFIG_KEYS),
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
def detect_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("detect")
    code = main(
        [
            "detect",
            "--preset",
            "pedestrian-4m",
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

    def test_overlay_marks_match_top_k_projections(self, tmp_path):
        out = tmp_path / "ov"
        main(
            [
                "detect",
                "--preset",
                "pedestrian-4m",
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
        from flyswarm.stereo_geometry import project

        rig = rig_from_config({})
        _, rows = read_csv(out / "flies.csv")
        shared = np.array([float(r[4]) for r in rows])
        order = np.argsort(-shared, kind="stable")[:250]
        expected = set()
        for i in order:
            x, y, z = (float(rows[i][0]), float(rows[i][1]), float(rows[i][2]))
            p = project(rig, (x, y, z))
            u, v = int(np.rint(p.left_px[0])), int(np.rint(p.left_px[1]))
            for du, dv in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
                if 0 <= u + du < 640 and 0 <= v + dv < 480:
                    expected.add((u + du, v + dv))
        overlay = read_pnm(out / "overlay_left.ppm")
        red = (
            (overlay.samples[:, :, 0] == 255)
            & (overlay.samples[:, :, 1] == 0)
            & (overlay.samples[:, :, 2] == 0)
        )
        got = {(u, v) for v, u in zip(*np.where(red))}
        assert got == expected

    def test_exit_zero_and_final_line(self, tmp_path, capsys):
        out = tmp_path / "final"
        code = main(
            ["detect", "--preset", "empty-road", "--out", str(out), "--seed", "1", "--generations", "2", "--population", "200"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert float(lines[-1]) >= 0.0
        assert lines[0].startswith("1,")

    def test_emit_flags(self, tmp_path):
        conf = tmp_path / "quiet.conf"
        conf.write_text("emit_overlays = 0\nemit_flies = 0\n")
        out = tmp_path / "quiet"
        code = main(
            [
                "detect",
                "--preset",
                "empty-road",
                "--config",
                str(conf),
                "--out",
                str(out),
                "--generations",
                "2",
                "--population",
                "200",
            ]
        )
        assert code == 0
        assert (out / "warning_trace.csv").exists()
        assert not (out / "flies.csv").exists()
        assert not (out / "overlay_left.ppm").exists()

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

    def run_detect(self, tmp_path, capsys, *extra, config=None):
        argv = ["detect", "--preset", "empty-road", "--out", str(tmp_path / "out"), "--generations", "1"]
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

    @pytest.mark.parametrize("line", ["baseline_m = 0", "baseline_m = nan", "selection_ratio = 0", "z_max_m = inf"])
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

    def test_unallocatable_image_size_exits_2(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("image_size = 100000000, 100000000\n")
        capsys.readouterr()
        code = main(["synth", "--preset", "empty-road", "--config", str(conf), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("flyswarm: error:") and err.count("\n") == 1

    def test_non_finite_config_number_rejected(self):
        for value in ("nan", "inf", "-inf", "0.4, nan"):
            with pytest.raises(ConfigError, match="finite"):
                rig_from_config(parse_config_text(f"baseline_m = {value}\n"))


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


def test_bench_is_an_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


# bounded, so that no example renders or evolves more than a 64x64 pair
# with 64 flies; a value that fails validation ends in exit code 2
_small_number = st.one_of(
    st.integers(-5, 64).map(str),
    st.floats(-100, 100).map(repr),
    st.sampled_from(["nan", "-inf", "1e999", "0.5", "640.9", "1_0", "0x10", "", ",", "junk"]),
)
_main_line = st.one_of(
    st.tuples(
        st.sampled_from(CONFIG_KEYS + ["emit_flies", "emit_overlays", "overlay_top_k", "generations"]),
        st.lists(_small_number, max_size=7).map(", ".join),
    ).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=10),
)


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(
    lines=st.lists(_main_line, max_size=4),
    side=st.integers(3, 64),
    population=st.integers(-1, 64),
    command=st.sampled_from(["detect", "synth"]),
)
def test_main_fuzz_exits_0_or_2(tmp_path_factory, lines, side, population, command):
    # a small rig leads, so an image_size line among the fuzzed ones repeats the key
    rig = f"image_size = {side}, {side}\nprincipal_point = {side / 2}, {side / 2}\nfocal_length_px = {side}"
    work = tmp_path_factory.mktemp("fuzz")
    conf = work / "run.conf"
    conf.write_text("\n".join([rig, *lines]))
    argv = [command, "--preset", "pedestrian-4m", "--config", str(conf), "--out", str(work / "out")]
    if command == "detect":
        argv += ["--population", str(population), "--generations", "1"]
    assert main(argv) in (0, 2)
