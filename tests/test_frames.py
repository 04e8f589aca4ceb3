"""Frame sources and PNM image round-trips."""

import gc
import io

import numpy as np
import pytest

from videosynopsis.core import SynopsisSchedule, TubeGroup, VideoMeta
from videosynopsis.frames import (
    ImageDirectoryFrames,
    RawVideoFrames,
    check_writable,
    read_image,
    write_image,
)
from videosynopsis.ingest import EmptyFrameConfig, FileDetectionSource, run_extraction
from videosynopsis.render import SegmentationConfig, render_synopsis

from synth import draw_blob, flat_frame, make_tube


class TestPnmRoundTrip:
    def test_rgb_round_trip(self, tmp_path):
        rng = np.random.default_rng(101)
        pixels = rng.integers(0, 256, size=(17, 23, 3)).astype(np.uint8)
        path = tmp_path / "frame.ppm"
        write_image(path, pixels)
        assert np.array_equal(read_image(path), pixels)

    def test_grayscale_round_trip(self, tmp_path):
        rng = np.random.default_rng(102)
        pixels = rng.integers(0, 256, size=(9, 11)).astype(np.uint8)
        path = tmp_path / "frame.pgm"
        write_image(path, pixels)
        assert np.array_equal(read_image(path), pixels)

    def test_header_comments_supported(self, tmp_path):
        path = tmp_path / "c.ppm"
        body = bytes(range(12))
        path.write_bytes(b"P6\n# a comment\n2 2\n255\n" + body)
        pixels = read_image(path)
        assert pixels.shape == (2, 2, 3)
        assert pixels.tobytes() == body

    @pytest.mark.parametrize("name, shape", [("frame.ppm", (5, 7, 3)), ("frame.pgm", (5, 7))])
    def test_write_replaces_existing_file_without_leftovers(self, tmp_path, name, shape):
        rng = np.random.default_rng(103)
        old, new = (rng.integers(0, 256, size=shape).astype(np.uint8) for _ in range(2))
        path = tmp_path / name
        write_image(path, old)
        mapped = read_image(path)
        write_image(path, new)
        assert np.array_equal(read_image(path), new)
        # the earlier view still shows the file it mapped
        assert np.array_equal(mapped, old)
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]

    def test_write_casts_like_astype(self, tmp_path):
        values = np.array([[0, 255, 300, -1, 7]], dtype=np.int64)
        write_image(tmp_path / "cast.pgm", values)
        assert np.array_equal(read_image(tmp_path / "cast.pgm"), values.astype(np.uint8))


class TestMalformedPnm:
    @pytest.mark.parametrize(
        "content, message",
        [
            (b"", "empty file"),
            (b"P6\n# a comment\n12 ", "malformed or cut-off PNM header"),
            (b"P6 4 2 255\n" + bytes(23), "23 bytes of pixel data, a 4x2 P6 image needs 24"),
        ],
        ids=["empty", "cut-off-header", "short-pixels"],
    )
    def test_error_names_file(self, tmp_path, content, message):
        path = tmp_path / "bad.ppm"
        path.write_bytes(content)
        with pytest.raises(ValueError) as err:
            read_image(path)
        assert str(err.value) == f"{path}: {message}"

    def test_unsupported_variant_names_file(self, tmp_path):
        path = tmp_path / "wide.ppm"
        path.write_bytes(b"P6 1 1 65535\n" + bytes(6))
        with pytest.raises(ValueError, match="unsupported PNM variant"):
            read_image(path)


class TestPillowImages:
    def test_png_round_trip(self, tmp_path):
        pytest.importorskip("PIL")
        rng = np.random.default_rng(102)
        pixels = rng.integers(0, 256, size=(17, 23, 3)).astype(np.uint8)
        path = tmp_path / "frame_00001.png"
        assert check_writable(path) is False
        write_image(path, pixels)
        assert np.array_equal(read_image(path), pixels)
        frames = ImageDirectoryFrames(tmp_path)
        assert len(frames) == 1 and np.array_equal(frames[0], pixels)


class TestImageDirectoryFrames:
    def test_ordered_by_number(self, tmp_path):
        for idx, value in ((2, 20), (0, 0), (1, 10)):
            write_image(tmp_path / f"img_{idx:04d}.ppm", flat_frame(4, 4, value))
        frames = ImageDirectoryFrames(tmp_path)
        assert len(frames) == 3
        assert [int(f[0, 0, 0]) for f in frames] == [0, 10, 20]
        assert int(frames[2][0, 0, 0]) == 20

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ImageDirectoryFrames(tmp_path / "absent")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ImageDirectoryFrames(tmp_path)

    def test_out_of_range_frame(self, tmp_path):
        write_image(tmp_path / "0.ppm", flat_frame(4, 4))
        for index in (5, 1, -1):
            with pytest.raises(IndexError, match=f"no frame {index} \\(have 1\\)"):
                ImageDirectoryFrames(tmp_path)[index]

    def test_iteration_passes_on_an_index_error_of_a_read(self, tmp_path, monkeypatch):
        for index in range(3):
            write_image(tmp_path / f"{index}.ppm", flat_frame(4, 4))
        source = ImageDirectoryFrames(tmp_path)

        def read_image(path):
            if path.name == "1.ppm":
                raise IndexError("a read fault")
            return flat_frame(4, 4)

        monkeypatch.setattr("videosynopsis.frames.read_image", read_image)
        with pytest.raises(IndexError, match="a read fault"):
            list(source)


class TestRawVideoFrames:
    def test_seek_and_iterate(self, tmp_path):
        frames = [flat_frame(6, 4, v) for v in (5, 50, 200)]
        path = tmp_path / "clip.rgb"
        path.write_bytes(b"".join(f.tobytes() for f in frames))
        source = RawVideoFrames(path, width=6, height=4)
        assert len(source) == 3
        assert np.array_equal(source[1], frames[1])
        assert [int(f[0, 0, 0]) for f in source] == [5, 50, 200]

    @pytest.mark.parametrize("index", [3, -1])
    def test_frame_past_either_end_refused(self, tmp_path, index):
        path = tmp_path / "clip.rgb"
        path.write_bytes(flat_frame(6, 4).tobytes() * 3)
        with pytest.raises(IndexError, match=f"no frame {index} \\(have 3\\)"):
            RawVideoFrames(path, width=6, height=4)[index]

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.rgb"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(ValueError):
            RawVideoFrames(path, width=6, height=4)


def noisy_clip():
    rng = np.random.default_rng(104)
    return [rng.integers(0, 256, size=(64, 96, 3)).astype(np.uint8) for _ in range(9)]


class TestMappedViews:
    """Both layouts hand out read-only views of their files.  At 96x64 an
    RGB24 frame is 18 432 bytes, so most raw frames start off a page."""

    def sources(self, tmp_path, clip):
        raw = tmp_path / "clip.rgb"
        raw.write_bytes(b"".join(f.tobytes() for f in clip))
        directory = tmp_path / "frames"
        directory.mkdir()
        for index, frame in enumerate(clip):
            write_image(directory / f"{index:03d}.ppm", frame)
        height, width = clip[0].shape[:2]
        reference = [
            np.frombuffer((directory / f"{index:03d}.ppm").read_bytes()[-frame.nbytes :], np.uint8)
            for index, frame in enumerate(clip)
        ]
        raw_bytes = raw.read_bytes()
        raw_reference = [
            np.frombuffer(raw_bytes, np.uint8, count=frame.nbytes, offset=index * frame.nbytes)
            for index, frame in enumerate(clip)
        ]
        return (
            (RawVideoFrames(raw, width, height), raw_reference),
            (ImageDirectoryFrames(directory), reference),
        )

    def test_frames_are_read_only_and_match_the_file_bytes(self, tmp_path):
        clip = noisy_clip()
        for source, reference in self.sources(tmp_path, clip):
            assert len(source) == len(clip)
            for index, want in enumerate(reference):
                pixels = source[index]
                assert pixels.shape == clip[index].shape
                assert not pixels.flags.writeable
                assert np.array_equal(pixels.ravel(), want)
                assert np.array_equal(pixels, clip[index])
                with pytest.raises(ValueError):
                    pixels[0, 0, 0] = 1
            iterated = list(source)
            assert all(not f.flags.writeable for f in iterated)
            assert all(np.array_equal(a, b) for a, b in zip(iterated, clip, strict=True))

    def test_view_outlives_its_source(self, tmp_path):
        clip = noisy_clip()
        for source, _ in self.sources(tmp_path, clip):
            views = [source[index] for index in (0, 5, len(clip) - 1)]
            del source
            gc.collect()
            for view, index in zip(views, (0, 5, len(clip) - 1)):
                assert np.array_equal(view, clip[index])


GATES = EmptyFrameConfig(
    binary_threshold=30,
    min_contour_area=1000,
    max_contour_area=10000,
    aspect_ratio_range=(1.2, 4.0),
)
BLOB_FRAMES = {**{k: 1 for k in range(5, 15)}, **{k: 2 for k in range(25, 30)}}


def blob_clip(count=40):
    rng = np.random.default_rng(105)
    background = rng.integers(50, 70, size=(150, 200, 3)).astype(np.uint8)
    clip = []
    for index in range(count):
        frame = background + rng.integers(0, 4, size=background.shape).astype(np.uint8)
        if index in BLOB_FRAMES:
            frame = draw_blob(frame, 20 + 3 * index, 30, 40, 80, value=200)
        clip.append(frame)
    return clip


def read_only(clip):
    views = [frame.copy() for frame in clip]
    for view in views:
        view.flags.writeable = False
    return views


class TestReadOnlyFrames:
    """The pixel stages only read their source frames."""

    def test_extraction_over_read_only_frames(self):
        clip = blob_clip()
        text = "".join(
            f"{k + 1},{tid},{20 + 3 * k},30,40,80,1,1,1\n" for k, tid in BLOB_FRAMES.items()
        )
        meta = VideoMeta(200, 150, len(clip))
        writable, guarded = (
            run_extraction(frames, FileDetectionSource(io.StringIO(text), meta, len(clip)), GATES, meta)
            for frames in (clip, read_only(clip))
        )
        assert guarded.tubes == writable.tubes and len(writable.tubes) == 2
        assert guarded.log == writable.log
        assert len(guarded.store) == len(writable.store) > 0
        for (a, va), (b, vb) in zip(guarded.store.samples, writable.store.samples, strict=True):
            assert np.array_equal(a, b)
            assert (va is None and vb is None) or np.array_equal(va, vb)

    def test_render_over_read_only_frames(self):
        clip = blob_clip()
        writable, guarded = (blob_synopsis(frames) for frames in (clip, read_only(clip)))
        assert len(guarded) == len(writable) == 10
        for a, b in zip(guarded, writable):
            assert np.array_equal(a.pixels, b.pixels)
            assert a.contributions == b.contributions
        assert any(item.contributions for item in guarded)


def blob_synopsis(frames):
    """The two blob tubes of ``blob_clip`` rendered from ``frames``."""
    tubes = {
        1: make_tube(1, 5, [20 + 3 * k for k in range(5, 15)], [30] * 10, width=40, height=80),
        2: make_tube(2, 25, [20 + 3 * k for k in range(25, 30)], [30] * 5, width=40, height=80),
    }
    schedule = SynopsisSchedule(
        placements=(
            (TubeGroup(members=((1, 0),), source_start=5), 0),
            (TubeGroup(members=((2, 0),), source_start=25), 3),
        ),
        synopsis_length=10,
    )
    background = read_only([flat_frame(200, 150, value=60)])[0]
    return list(render_synopsis(schedule, tubes, frames, background, SegmentationConfig()))


def test_a_list_renders_as_its_frames_written_to_a_directory(tmp_path):
    clip = blob_clip()
    for index, frame in enumerate(clip):
        write_image(tmp_path / f"{index:03d}.ppm", frame)
    from_list, from_files = blob_synopsis(clip), blob_synopsis(ImageDirectoryFrames(tmp_path))
    assert len(from_list) == len(from_files) == 10
    for a, b in zip(from_list, from_files):
        assert np.array_equal(a.pixels, b.pixels)
        assert a.contributions == b.contributions
    assert sum(len(item.contributions) for item in from_list) == 15
