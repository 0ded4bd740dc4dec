"""Intensity rasters and binary PNM I/O.

Images are C-contiguous uint8 numpy arrays, (H, W) for grey and (H, W, 3)
for colour; strided samples are copied to C order. They are immutable once
constructed, which a decoded image enforces as a read-only view over the
file's bytes. Pixel coordinates are (column, row), as in stereo_geometry.

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
    """One raster; its width, height and channel count are read off the
    samples. The fitness reads each fly's window rows through a view of the
    samples as one flat buffer, so they are kept in C order: strided samples
    are copied, C-ordered ones (a decode's read-only view) are kept as given."""

    def __init__(self, samples: np.ndarray):
        if samples.dtype != np.uint8:
            raise ValueError(f"samples must be uint8, got {samples.dtype}")
        if samples.ndim not in (2, 3) or samples.shape[2:] not in ((), (3,)):
            raise ValueError(f"expected (H, W) or (H, W, 3) array, got shape {samples.shape}")
        self.samples = np.ascontiguousarray(samples)
        self.height, self.width = samples.shape[:2]
        self.channels = 1 if samples.ndim == 2 else 3


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


def pnm_header(shape: tuple) -> bytes:  # samples of shape (H, W) are grey, (H, W, 3) colour
    return b"%s\n%d %d\n255\n" % (b"P5" if len(shape) == 2 else b"P6", shape[1], shape[0])


def save_pnm(image: Image) -> bytes:
    return pnm_header(image.samples.shape) + image.samples.tobytes()


def read_pnm(path) -> Image:
    with open(path, "rb") as fh:
        return load_pnm(fh.read())


def write_pnm(path, image: Image) -> None:
    """``save_pnm``'s bytes, written from the samples' own buffer without a copy."""
    with open(path, "wb") as fh:
        fh.write(pnm_header(image.samples.shape))
        fh.write(image.samples.data)
