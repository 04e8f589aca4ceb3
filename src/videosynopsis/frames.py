"""Frame sources and minimal image file I/O.

A frame source is any sequence of uint8 arrays, a list included.  Two
on-disk layouts are sequences of this kind: a directory of numbered image
files, and a raw 24-bit RGB stream whose geometry comes from the video
metadata.  Both read a frame when it is indexed with ``[]`` or iterated.
PPM (P6) and PGM (P5) files are read and written natively; other image
formats work when Pillow is installed.

Frames from either layout, and every PNM image read, are read-only views of
memory-mapped files: only the pages a stage touches are read, and a view
keeps its mapping alive for as long as it lives.  So frame files must not
change while a stage runs.  A PNM image is written to ``<name>.tmp`` beside
its target and renamed into place, so a file that is still mapped is
replaced, never truncated.
"""

from __future__ import annotations

import math
import mmap
import os
import re
from collections.abc import Iterator, Sequence
from pathlib import Path

import numpy as np

try:
    from PIL import Image as _PILImage
except ImportError:
    _PILImage = None

__all__ = [
    "ImageDirectoryFrames",
    "RawVideoFrames",
    "read_image",
    "check_writable",
    "write_image",
]


def _map(path: Path, offset: int, nbytes: int) -> np.ndarray:
    """Read-only uint8 view of ``nbytes`` bytes of ``path`` from ``offset``.

    The file is mapped from ``offset`` rounded down to the allocation
    granularity and closed at once; the mapping lives as long as the view."""
    start = offset - offset % mmap.ALLOCATIONGRANULARITY
    with open(path, "rb") as fh:
        mapped = mmap.mmap(
            fh.fileno(), offset - start + nbytes, access=mmap.ACCESS_READ, offset=start
        )
    return np.frombuffer(mapped, dtype=np.uint8, count=nbytes, offset=offset - start)


# magic, width, height and maxval, each after whitespace or comments, then
# one whitespace byte before the pixels
_SEP = rb"(?:\s|#[^\n]*\n)+"
_PNM_HEADER = re.compile(rb"(P\d)" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)\s")


def _read_ppm(path: Path) -> np.ndarray:
    size = path.stat().st_size
    if not size:
        raise ValueError(f"{path}: empty file")
    data = _map(path, 0, size)
    header = _PNM_HEADER.match(data)
    if header is None:
        raise ValueError(f"{path}: malformed or cut-off PNM header")
    magic = header[1]
    width, height, maxval = map(int, header.groups()[1:])
    if magic not in (b"P6", b"P5") or maxval != 255:
        raise ValueError(f"{path}: unsupported PNM variant ({magic!r}, maxval {maxval})")
    shape = (height, width, 3) if magic == b"P6" else (height, width)
    nbytes = math.prod(shape)
    pixels = data[header.end() : header.end() + nbytes]
    if pixels.size < nbytes:
        raise ValueError(
            f"{path}: {pixels.size} bytes of pixel data, "
            f"a {width}x{height} {magic.decode()} image needs {nbytes}"
        )
    return pixels.reshape(shape)


def _write_ppm(path: Path, pixels: np.ndarray) -> None:
    arr = np.ascontiguousarray(pixels, dtype=np.uint8)
    if arr.ndim == 2:
        header = f"P5 {arr.shape[1]} {arr.shape[0]} 255\n"
    elif arr.ndim == 3 and arr.shape[2] == 3:
        header = f"P6 {arr.shape[1]} {arr.shape[0]} 255\n"
    else:
        raise ValueError(f"cannot write array of shape {arr.shape} as PNM")
    # a file that is still mapped (a frame or background read earlier) is
    # replaced by the rename, never truncated under its mapping
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(memoryview(arr).cast("B"))
    os.replace(tmp, path)


def read_image(path: str | Path) -> np.ndarray:
    path = Path(path)
    if path.suffix.lower() in (".ppm", ".pgm", ".pnm"):
        return _read_ppm(path)
    if _PILImage is None:
        raise ValueError(f"{path}: only PNM images are readable without Pillow installed")
    with _PILImage.open(path) as img:
        return np.asarray(img.convert("RGB"))


def check_writable(path: str | Path) -> bool:
    """Whether ``write_image`` writes ``path`` natively (PNM) or through
    Pillow; a ``ValueError`` if it needs Pillow and Pillow is missing."""
    native = Path(path).suffix.lower() in (".ppm", ".pgm", ".pnm")
    if not native and _PILImage is None:
        raise ValueError(f"{path}: only PNM images are writable without Pillow installed")
    return native


def write_image(path: str | Path, pixels: np.ndarray) -> None:
    if check_writable(path):
        _write_ppm(Path(path), pixels)
    else:
        _PILImage.fromarray(pixels.astype(np.uint8)).save(path)


_NUMBERED = re.compile(r"(\d+)\.(?:ppm|pgm|pnm|png|jpg|jpeg|bmp)$", re.IGNORECASE)


class ImageDirectoryFrames(Sequence[np.ndarray]):
    """Directory of numbered image files, ordered by their number; two
    files of one number (``frame_1.ppm`` and ``frame_001.ppm``) are refused."""

    def __init__(self, directory: str | Path):
        directory = Path(directory)
        if not directory.is_dir():
            raise FileNotFoundError(f"frame directory not found: {directory}")
        numbered = []
        for entry in directory.iterdir():
            m = _NUMBERED.search(entry.name)
            if m:
                numbered.append((int(m.group(1)), entry))
        numbered.sort()
        if not numbered:
            raise FileNotFoundError(f"no numbered image files in {directory}")
        for (n, a), (m, b) in zip(numbered, numbered[1:]):
            if n == m:
                raise ValueError(f"{a.name} and {b.name} in {directory} are both frame {n}")
        self._paths = [p for _, p in numbered]

    def __len__(self) -> int:
        return len(self._paths)

    def __getitem__(self, index: int) -> np.ndarray:
        if not 0 <= index < len(self._paths):
            raise IndexError(f"no frame {index} (have {len(self._paths)})")
        return read_image(self._paths[index])

    # both layouts iterate by their own ``__iter__``: the mixin's would end
    # silently at an ``IndexError`` that a read raised
    def __iter__(self) -> Iterator[np.ndarray]:
        for path in self._paths:
            yield read_image(path)


class RawVideoFrames(Sequence[np.ndarray]):
    """Raw interleaved RGB24 stream with fixed frame geometry."""

    def __init__(self, path: str | Path, width: int, height: int):
        self.path = Path(path)
        if not self.path.is_file():
            raise FileNotFoundError(f"raw video not found: {path}")
        self.width = width
        self.height = height
        self._frame_bytes = width * height * 3
        size = self.path.stat().st_size
        if size % self._frame_bytes:
            raise ValueError(
                f"{path}: size {size} is not a multiple of the {width}x{height} frame size"
            )
        self._count = size // self._frame_bytes

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> np.ndarray:
        if not 0 <= index < self._count:
            raise IndexError(f"no frame {index} (have {self._count})")
        # one mapping per frame, so a dropped frame's pages leave the process
        view = _map(self.path, index * self._frame_bytes, self._frame_bytes)
        return view.reshape(self.height, self.width, 3)

    def __iter__(self) -> Iterator[np.ndarray]:
        for index in range(self._count):
            yield self[index]
