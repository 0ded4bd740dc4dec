import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import window_fitness
from flyswarm.evolution import StereoFrame
from flyswarm.imaging import Image, PnmParseError, load_pnm, save_pnm, write_pnm
from reference import sobel_norm_map, ssd_oracle


def grey(arr) -> Image:
    return Image(np.asarray(arr, dtype=np.uint8))


class TestPnm:
    def test_decode_p5(self):
        data = b"P5\n2 2\n255\n" + bytes([0, 255, 128, 7])
        img = load_pnm(data)
        assert (img.width, img.height, img.channels) == (2, 2, 1)
        assert img.samples.tolist() == [[0, 255], [128, 7]]

    def test_decode_p6_single_pixel(self):
        img = load_pnm(b"P6\n1 1\n255\n" + bytes([10, 20, 30]))
        assert (img.width, img.height, img.channels) == (1, 1, 3)
        assert img.samples.tolist() == [[[10, 20, 30]]]

    def test_comments_tolerated(self):
        data = b"P5\n# a comment\n2 # inline\n1\n255\n" + bytes([9, 8])
        img = load_pnm(data)
        assert img.samples.tolist() == [[9, 8]]
        # a comment may follow the magic directly
        assert load_pnm(b"P5#c\n1 1 255\n\x07").samples.tolist() == [[7]]

    def test_bad_magic(self):
        with pytest.raises(PnmParseError, match="offset 0"):
            load_pnm(b"P4\n1 1\n255\n\x00")

    def test_bad_maxval(self):
        with pytest.raises(PnmParseError, match="maxval 65535"):
            load_pnm(b"P5\n1 1\n65535\n\x00\x00")

    def test_truncated_payload_names_offset(self):
        # header "P5\n2 2\n255\n" is 11 bytes, so pixel data starts at 11
        with pytest.raises(PnmParseError, match="offset 11"):
            load_pnm(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))

    def test_decoded_samples_are_read_only(self):
        img = load_pnm(b"P5\n2 1\n255\n" + bytes([1, 2]))
        assert not img.samples.flags.writeable
        with pytest.raises(ValueError):
            img.samples[0, 0] = 3

    def test_strided_samples_copied_to_c_order(self):
        # a strided colour array gave different Sobel norms at 1090 of 3072
        # pixels than the same pixels in C order
        strided = np.random.default_rng(0).integers(0, 256, (3, 64, 48), dtype=np.uint8).transpose(2, 1, 0)
        img = Image(strided)
        assert img.samples.flags.c_contiguous
        assert np.array_equal(img.samples, strided)
        assert (img.width, img.height, img.channels) == (64, 48, 3)

    def test_c_ordered_samples_not_copied(self):
        a = np.zeros((4, 5, 3), dtype=np.uint8)
        assert Image(a).samples is a

    @pytest.mark.parametrize("shape", [(4,), (4, 4, 2), (4, 4, 4), (2, 2, 3, 1)])
    def test_samples_other_than_grey_or_rgb_rejected(self, shape):
        with pytest.raises(ValueError, match=r"expected \(H, W\) or \(H, W, 3\)"):
            Image(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.float64, bool])
    def test_samples_other_than_uint8_rejected(self, dtype):
        # the constructor converts nothing, even values that fit in a byte
        with pytest.raises(ValueError, match="uint8"):
            Image(np.ones((4, 4), dtype=dtype))

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P5\nzz 2\n255\n", "invalid header integer b'zz' at offset 3"),
            # int() reads a sign and '_' separators, a header integer does not
            (b"P5 +2 0_2 2_55\n", r"invalid header integer b'\+2' at offset 3"),
            (b"P5 2 0_2 255\n", "invalid header integer b'0_2' at offset 5"),
            (b"P5 -2 2 255\n", "invalid header integer b'-2' at offset 3"),
            # the magic runs into the width
            (b"P52 2 255\n", "expected whitespace or a comment after the magic at offset 2"),
        ],
        ids=["letters", "sign-and-underscores", "underscore", "minus", "no-separator-after-magic"],
    )
    def test_non_numeric_header(self, data, message):
        with pytest.raises(PnmParseError, match=message):
            load_pnm(data + bytes(4))

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P5 2 2", "unexpected end of header at offset 6"),
            (b"P5 # only a comment\n", "unexpected end of header at offset 20"),
            (b"P5 0 1 255\n", "non-positive image dimensions 0x1 at offset 2"),
            (b"P5 1 0 255\n", "non-positive image dimensions 1x0 at offset 2"),
            (b"P5 1 1 255", "expected whitespace after maxval at offset 10"),
            (b"P5 1 1 255#\n\x00", "expected whitespace after maxval at offset 10"),
        ],
        ids=["ends-after-height", "only-a-comment", "zero-width", "zero-height", "ends-at-maxval", "comment-at-maxval"],
    )
    def test_malformed_header_names_offset(self, data, message):
        with pytest.raises(PnmParseError, match=message):
            load_pnm(data)

    @given(
        data=st.one_of(
            st.binary(max_size=80),
            st.builds(
                lambda magic, fields, payload: magic + b"".join(sep + tok for sep, tok in fields) + payload,
                st.sampled_from([b"P5", b"P6", b"P4", b""]),
                st.lists(
                    st.tuples(
                        st.sampled_from([b" ", b"\n", b"#c\n", b"\t", b""]),
                        st.one_of(st.just(b"255"), st.integers(-2, 9).map(lambda v: str(v).encode()), st.binary(max_size=3)),
                    ),
                    max_size=4,
                ),
                st.binary(max_size=80),
            ),
            st.builds(
                lambda magic, w, h, payload: magic + b" %d %d 255\n" % (w, h) + payload,
                st.sampled_from([b"P5", b"P6"]),
                st.integers(1, 5),
                st.integers(1, 5),
                st.binary(min_size=20, max_size=80),
            ),
        )
    )
    def test_fuzz_yields_image_or_parse_error(self, data):
        try:
            img = load_pnm(data)
        except PnmParseError:
            return
        assert isinstance(img, Image)
        assert img.samples.size == img.width * img.height * img.channels

    @given(
        arr=arrays(
            np.uint8,
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
            elements=st.integers(0, 255),
        )
    )
    def test_roundtrip_grey(self, arr):
        img = grey(arr)
        again = load_pnm(save_pnm(img))
        assert np.array_equal(img.samples, again.samples)
        assert again.channels == 1

    @given(
        arr=arrays(
            np.uint8,
            st.tuples(st.integers(1, 8), st.integers(1, 8), st.just(3)),
            elements=st.integers(0, 255),
        )
    )
    def test_roundtrip_colour(self, arr):
        img = Image(arr)
        again = load_pnm(save_pnm(img))
        assert np.array_equal(img.samples, again.samples)
        assert again.channels == 3

    @pytest.mark.parametrize("shape, header", [((5, 7), b"P5\n7 5\n255\n"), ((5, 7, 3), b"P6\n7 5\n255\n")])
    @pytest.mark.parametrize("decoded", [False, True])
    def test_write_pnm_writes_save_pnm_bytes(self, tmp_path, shape, header, decoded):
        img = Image(np.random.default_rng(4).integers(0, 256, shape, dtype=np.uint8))
        if decoded:
            img = load_pnm(save_pnm(img))
            assert not img.samples.flags.writeable  # a view over the bytes, written without a copy
        write_pnm(tmp_path / "x.pnm", img)
        data = (tmp_path / "x.pnm").read_bytes()
        assert data == save_pnm(img) == header + img.samples.tobytes()


class TestSobel:
    """The full-frame reference Sobel that the fitness kernel is checked against."""

    def test_constant_image_zero(self):
        g = sobel_norm_map(grey(np.full((5, 7), 200)))
        assert np.all(g.norms == 0)

    def test_vertical_step_edge(self):
        # columns 0..2 are 0, columns 3..5 are 255; hand-convolving the
        # 3x3 kernels at an interior pixel of either edge column gives
        # Gx = 4*255 = 1020, Gy = 0
        arr = np.zeros((6, 6), dtype=np.uint8)
        arr[:, 3:] = 255
        g = sobel_norm_map(grey(arr))
        assert g.norms[2, 2] == pytest.approx(1020.0)
        assert g.norms[3, 3] == pytest.approx(1020.0)
        # far from the edge the response is zero
        assert g.norms[2, 1] == 0.0
        assert g.norms[2, 4] == 0.0

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(3)
        arr = rng.integers(0, 256, size=(9, 14), dtype=np.uint8)
        g = sobel_norm_map(grey(arr))
        gt = sobel_norm_map(grey(arr.T))
        assert np.allclose(g.norms.T, gt.norms)

    def test_border_zero(self):
        rng = np.random.default_rng(4)
        g = sobel_norm_map(grey(rng.integers(0, 256, size=(6, 6), dtype=np.uint8)))
        assert np.all(g.norms[0] == 0) and np.all(g.norms[-1] == 0)
        assert np.all(g.norms[:, 0] == 0) and np.all(g.norms[:, -1] == 0)

    def test_rejects_tiny_images(self):
        with pytest.raises(ValueError):
            sobel_norm_map(grey(np.zeros((2, 5))))

    def test_intensity_shift_invariance(self):
        rng = np.random.default_rng(5)
        arr = rng.integers(0, 200, size=(8, 8), dtype=np.uint8)
        a = sobel_norm_map(grey(arr))
        b = sobel_norm_map(grey(arr + 50))
        assert np.array_equal(a.norms, b.norms)


def fitness_oracle(a, b, pl, pr, n, epsilon=1.0):
    gl = sobel_norm_map(Image(a)).norms[pl[1], pl[0]]
    gr = sobel_norm_map(Image(b)).norms[pr[1], pr[0]]
    assert gl * gr > 0  # otherwise the fitness would not depend on the SSD
    return gl * gr / (epsilon + ssd_oracle(a, b, pl, pr, n))


class TestNeighborhoodSsd:
    """The window SSD, the fitness denominator, read through the batch
    fitness of ``evolution.evaluate_population``."""

    def test_identical_windows_zero(self):
        # the right view is the left shifted by 3 columns
        rng = np.random.default_rng(6)
        base = rng.integers(0, 256, size=(7, 12), dtype=np.uint8)
        left, right = grey(base[:, :9]), grey(base[:, 3:12])
        got = window_fitness(left, right, [((5, 3), (2, 3))], 2)
        gl, gr = sobel_norm_map(left).norms[3, 5], sobel_norm_map(right).norms[3, 2]
        assert gl == gr > 0
        assert got.tolist() == [gl * gr / 1.0]

    def test_single_pixel(self):
        rng = np.random.default_rng(11)
        a = rng.integers(0, 256, size=(5, 6), dtype=np.uint8)
        b = rng.integers(0, 256, size=(5, 6), dtype=np.uint8)
        a[2, 3], b[2, 1] = 10, 13
        got = window_fitness(grey(a), grey(b), [((3, 2), (1, 2))], 0)
        gl, gr = sobel_norm_map(grey(a)).norms[2, 3], sobel_norm_map(grey(b)).norms[2, 1]
        assert got[0] == gl * gr / (1.0 + 9.0)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 256, size=(9, 9), dtype=np.uint8)
        b = rng.integers(0, 256, size=(9, 9), dtype=np.uint8)
        centres = [((4, 3), (2, 3)), ((6, 5), (2, 5)), ((5, 4), (4, 4))]
        got = window_fitness(grey(a), grey(b), centres, 1)
        for k, (pl, pr) in enumerate(centres):
            assert got[k] == pytest.approx(fitness_oracle(a, b, pl, pr, 1), rel=1e-12)

    def test_matches_oracle_colour(self):
        rng = np.random.default_rng(8)
        a = rng.integers(0, 256, size=(6, 8, 3), dtype=np.uint8)
        b = rng.integers(0, 256, size=(6, 8, 3), dtype=np.uint8)
        centres = [((3, 2), (2, 2)), ((4, 3), (1, 3))]
        got = window_fitness(Image(a), Image(b), centres, 1)
        for k, (pl, pr) in enumerate(centres):
            assert got[k] == pytest.approx(fitness_oracle(a, b, pl, pr, 1), rel=1e-12)

    def test_symmetric_under_swap(self):
        # swapping the views and mirroring both keeps every window pair,
        # so the fitness is bit-identical
        rng = np.random.default_rng(9)
        a = rng.integers(0, 256, size=(8, 10), dtype=np.uint8)
        b = rng.integers(0, 256, size=(8, 10), dtype=np.uint8)
        centres = [((5, 4), (3, 4)), ((6, 3), (4, 3))]
        mirrored = [((9 - xr, y), (9 - xl, y)) for (xl, y), (xr, _) in centres]
        got = window_fitness(grey(a), grey(b), centres, 2)
        swapped = window_fitness(grey(b[:, ::-1]), grey(a[:, ::-1]), mirrored, 2)
        assert np.all(got > 0)
        assert np.array_equal(got, swapped)

    def test_shift_invariance(self):
        rng = np.random.default_rng(10)
        a = rng.integers(0, 200, size=(8, 10), dtype=np.uint8)
        b = rng.integers(0, 200, size=(8, 10), dtype=np.uint8)
        centres = [((4, 4), (3, 4)), ((6, 3), (3, 3))]
        base = window_fitness(grey(a), grey(b), centres, 2)
        shifted = window_fitness(grey(a + 55), grey(b + 55), centres, 2)
        assert np.all(base > 0)
        assert np.array_equal(base, shifted)

    def test_out_of_bounds_rejected(self):
        # a window that would leave either image is never read: the fly
        # scores 0, while a fly whose windows fit scores above 0
        rng = np.random.default_rng(12)
        img = grey(rng.integers(0, 256, size=(5, 5), dtype=np.uint8))
        centres = [((1, 2), (0, 2)), ((4, 2), (2, 2)), ((3, 0), (2, 0)), ((3, 2), (1, 2))]
        got = window_fitness(img, img, centres, 1)
        assert got[:3].tolist() == [0.0, 0.0, 0.0]
        assert got[3] > 0

    def test_channel_mismatch_rejected(self):
        a = grey(np.zeros((5, 5)))
        b = Image(np.zeros((5, 5, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            StereoFrame(a, b)

    @given(
        arr=arrays(np.uint8, st.tuples(st.integers(3, 8), st.integers(4, 9)), elements=st.integers(0, 255)),
        n=st.integers(0, 1),
    )
    def test_self_ssd_zero_everywhere(self, arr, n):
        # right view = left shifted by one column: every window pair at
        # disparity 1 matches, down to the extreme centres
        left, right = grey(arr[:, :-1]), grey(arr[:, 1:])
        h, w = left.height, left.width
        if w < 3 or w - 1 - n < n + 1 or h - 1 - n < n:
            return
        centres = [((x, y), (x - 1, y)) for x in (n + 1, w - 1 - n) for y in (n, h - 1 - n)]
        got = window_fitness(left, right, centres, n)
        gl, gr = sobel_norm_map(left).norms, sobel_norm_map(right).norms
        for k, ((xl, y), (xr, _)) in enumerate(centres):
            assert got[k] == gl[y, xl] * gr[y, xr] / 1.0
