"""Intensity rasters and binary PNM I/O.

Images are stored as C-contiguous uint8 numpy arrays, (H, W) for grey
and (H, W, 3) for colour, and are treated as immutable once constructed;
a decoded image enforces it, as a read-only view over the file's bytes. Pixel
coordinates follow the (column, row) convention of stereo_geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LUMA_WEIGHTS = (0.299, 0.587, 0.114)

_WHITESPACE = b" \t\r\n\x0b\x0c"


class PnmParseError(ValueError):
    """Malformed PGM/PPM input; the message names the byte offset."""


@dataclass(eq=False)
class Image:
    width: int
    height: int
    channels: int
    samples: np.ndarray  # uint8, (H, W) or (H, W, 3)

    def __post_init__(self):
        expected = (self.height, self.width) if self.channels == 1 else (self.height, self.width, self.channels)
        if self.channels not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {self.channels}")
        if self.samples.dtype != np.uint8:
            raise ValueError(f"samples must be uint8, got {self.samples.dtype}")
        if self.samples.shape != expected:
            raise ValueError(f"samples shape {self.samples.shape} does not match {expected}")
        # the fitness gathers each fly's windows from a flat view of the
        # samples, which strided samples would turn into a full-frame copy
        # on every evaluation
        if not self.samples.flags.c_contiguous:
            raise ValueError("samples must be C-contiguous; build the image with Image.from_array")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Image":
        a = np.ascontiguousarray(arr)
        if a.dtype != np.uint8:
            if np.issubdtype(a.dtype, np.integer) and a.min() >= 0 and a.max() <= 255:
                a = a.astype(np.uint8)
            else:
                raise ValueError("array must hold integer samples in [0, 255]")
        if a.ndim == 2:
            return cls(a.shape[1], a.shape[0], 1, a)
        if a.ndim == 3 and a.shape[2] == 3:
            return cls(a.shape[1], a.shape[0], 3, a)
        raise ValueError(f"expected (H, W) or (H, W, 3) array, got shape {a.shape}")


def _next_token(data: bytes, pos: int):
    """Skip whitespace and '#' comments, return (token, start, end)."""
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == 0x23:  # '#'
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise PnmParseError(f"unexpected end of header at offset {pos}")
    start = pos
    while pos < n and data[pos] not in _WHITESPACE and data[pos] != 0x23:
        pos += 1
    return data[start:pos], start, pos


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
        token, start, pos = _next_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise PnmParseError(f"invalid header integer {token!r} at offset {start}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PnmParseError(f"non-positive image dimensions {width}x{height} at offset 2")
    if maxval != 255:
        raise PnmParseError(f"unsupported maxval {maxval} at offset {start} (only 255)")
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise PnmParseError(f"expected whitespace after maxval at offset {pos}")
    pos += 1
    need = width * height * channels
    have = len(data) - pos
    if have < need:
        raise PnmParseError(f"truncated pixel data at offset {pos}: need {need} bytes, have {have}")
    flat = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
    shape = (height, width) if channels == 1 else (height, width, 3)
    return Image(width, height, channels, flat.reshape(shape))


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
