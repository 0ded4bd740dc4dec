"""Intensity rasters and binary PNM I/O.

Images are stored as C-contiguous uint8 numpy arrays, (H, W) for grey
and (H, W, 3) for colour, and are treated as immutable once constructed;
a decoded image enforces it, as a read-only view over the file's bytes. Pixel
coordinates follow the (column, row) convention of stereo_geometry.

A PNM header is the magic ``P5`` (grey) or ``P6`` (colour), then width, height
and maxval as ASCII decimal integers, each after whitespace or ``#`` comments
(a comment runs to the end of its line), then one whitespace byte; maxval is 255.
"""

from __future__ import annotations

import re

import numpy as np

LUMA_WEIGHTS = (0.299, 0.587, 0.114)

# whitespace and comments, then one header token (empty at the end of data)
_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)")


class PnmParseError(ValueError):
    """Malformed PGM/PPM input; the message names the byte offset."""


class Image:
    """One raster; its width, height and channel count are read off the samples."""

    def __init__(self, samples: np.ndarray):
        if samples.dtype != np.uint8:
            raise ValueError(f"samples must be uint8, got {samples.dtype}")
        if samples.ndim not in (2, 3) or samples.shape[2:] not in ((), (3,)):
            raise ValueError(f"expected (H, W) or (H, W, 3) array, got shape {samples.shape}")
        # the fitness reads each fly's window rows through a view of the
        # samples as one flat buffer, which strided samples do not have
        if not samples.flags.c_contiguous:
            raise ValueError("samples must be C-contiguous; build the image with Image.from_array")
        self.samples = samples
        self.height, self.width = samples.shape[:2]
        self.channels = 1 if samples.ndim == 2 else 3

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Image":
        """The image of a uint8 array, copied to C order if it is strided."""
        return cls(np.ascontiguousarray(arr))


def load_pnm(data: bytes) -> Image:
    """Decode binary PGM (P5) or PPM (P6) with maxval 255.

    The samples are a read-only view over ``data``; nothing is copied.
    """
    if data[:2] == b"P5":
        channels = 1
    elif data[:2] == b"P6":
        channels = 3
    else:
        raise PnmParseError("expected magic 'P5' or 'P6' at offset 0")
    pos = 2
    fields = []
    for _ in range(3):
        match = _TOKEN.match(data, pos)
        token, start, pos = match[1], match.start(1), match.end()
        if not token:
            raise PnmParseError(f"unexpected end of header at offset {start}")
        if start == 2:
            raise PnmParseError("expected whitespace or a comment after the magic at offset 2")
        try:
            if not token.isdigit():  # ASCII digits only: no sign, no '_'
                raise ValueError
            fields.append(int(token))
        except ValueError:  # int() also refuses more digits than its limit
            raise PnmParseError(f"invalid header integer {token!r} at offset {start}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PnmParseError(f"non-positive image dimensions {width}x{height} at offset 2")
    if maxval != 255:
        raise PnmParseError(f"unsupported maxval {maxval} at offset {start} (only 255)")
    if not data[pos : pos + 1].isspace():
        raise PnmParseError(f"expected whitespace after maxval at offset {pos}")
    pos += 1
    need = width * height * channels
    have = len(data) - pos
    if have < need:
        raise PnmParseError(f"truncated pixel data at offset {pos}: need {need} bytes, have {have}")
    flat = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
    shape = (height, width) if channels == 1 else (height, width, 3)
    return Image(flat.reshape(shape))


def save_pnm(image: Image) -> bytes:
    magic = b"P5" if image.channels == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (image.width, image.height)
    return header + image.samples.tobytes()


def read_pnm(path) -> Image:
    with open(path, "rb") as fh:
        return load_pnm(fh.read())


def write_pnm(path, image: Image) -> None:
    with open(path, "wb") as fh:
        fh.write(save_pnm(image))
