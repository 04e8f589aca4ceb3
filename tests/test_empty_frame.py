"""Empty-frame gate and the deep/empty switching controller."""

import dataclasses
import io

import numpy as np
import pytest

from videosynopsis.core import VideoMeta
from videosynopsis.ingest import (
    AnnotationError,
    DetectionRecord,
    EmptyFrameConfig,
    FileDetectionSource,
    is_frame_empty,
    parse_annotations,
    run_extraction,
)

from synth import draw_blob, flat_frame, random_walk_tube

GATES = EmptyFrameConfig(
    binary_threshold=30,
    min_contour_area=1000,
    max_contour_area=10000,
    aspect_ratio_range=(1.2, 4.0),
)


class TestIsFrameEmpty:
    def test_identical_frame_is_empty(self):
        bg = flat_frame(200, 150)
        assert is_frame_empty(bg.copy(), bg, GATES) is True

    def test_object_sized_blob_detected(self):
        bg = flat_frame(200, 150, value=60)
        frame = draw_blob(bg, left=50, top=30, width=40, height=80, value=180)
        # blob bounding area 3200 within [1000, 10000], aspect 2.0 in (1.2, 4)
        assert is_frame_empty(frame, bg, GATES) is False

    def test_salt_noise_removed_by_morphology(self):
        rng = np.random.default_rng(41)
        bg = flat_frame(200, 150, value=60)
        frame = bg.copy()
        ys = rng.integers(0, 150, size=40)
        xs = rng.integers(0, 200, size=40)
        frame[ys, xs] = 255
        assert is_frame_empty(frame, bg, GATES) is True

    def test_blob_outside_gates_ignored(self):
        bg = flat_frame(200, 150, value=60)
        tiny = draw_blob(bg, 10, 10, 12, 18, value=200)  # area 216 < min gate
        assert is_frame_empty(tiny, bg, GATES) is True
        wide = draw_blob(bg, 10, 10, 120, 60, value=200)  # aspect 0.5 < 1.2
        assert is_frame_empty(wide, bg, GATES) is True

    def test_dimension_mismatch_errors(self):
        with pytest.raises(ValueError):
            is_frame_empty(flat_frame(10, 10), flat_frame(12, 10), GATES)

    def test_deterministic(self):
        bg = flat_frame(100, 100, value=60)
        frame = draw_blob(bg, 20, 20, 30, 60, value=200)
        verdicts = {is_frame_empty(frame, bg, GATES) for _ in range(5)}
        assert len(verdicts) == 1


def blob_detections(frames_with_objects, left=60, top=30, width=40, height=80):
    """Detection callback reporting one tracked blob on the given frames."""
    lookup = dict(frames_with_objects)

    def source(index, pixels):
        if index in lookup:
            tid = lookup[index]
            from videosynopsis.ingest import DetectionRecord

            return [DetectionRecord(id=tid, left=left, top=top, width=width, height=height)]
        return []

    return source


def blob_video(frame_count, object_frames, width=200, height=150):
    bg = flat_frame(width, height, value=60)
    frames = []
    for idx in range(frame_count):
        if idx in object_frames:
            frames.append(draw_blob(bg, 60, 30, 40, 80, value=200))
        else:
            frames.append(bg.copy())
    return frames


class TestRunExtraction:
    def test_detections_everywhere_never_enters_empty_mode(self):
        meta = VideoMeta(200, 150, 20)
        text = "".join(f"{k},1,{10+k},30,40,80,1,1,1\n" for k in range(1, 21))
        source = FileDetectionSource(io.StringIO(text), meta, meta.frame_count)
        frames = blob_video(20, set(range(20)))
        result = run_extraction(frames, source, GATES, meta)
        assert result.empty_mode_frames == 0
        assert result.detector_queries == 20
        expected = parse_annotations(io.StringIO(text), meta)
        assert result.tubes == expected

    def test_all_empty_video(self):
        meta = VideoMeta(200, 150, 30)
        source = FileDetectionSource(io.StringIO(""), meta, meta.frame_count)
        frames = blob_video(30, set())
        result = run_extraction(frames, source, GATES, meta)
        assert result.tubes == []
        assert result.mode_switches == 1  # deep -> empty after the first frame
        assert result.detector_queries == 1
        assert len(result.store) >= 1

    def test_switching_controller_on_blocked_video(self):
        # objects only in frames 0-99 and 900-999 of a 1000-frame video
        meta = VideoMeta(200, 150, 1000)
        object_frames = set(range(100)) | set(range(900, 1000))
        frames = blob_video(1000, object_frames)
        pairs = [(k, 1 if k < 100 else 2) for k in sorted(object_frames)]
        result = run_extraction(frames, blob_detections(pairs), GATES, meta)

        skipped = sum(1 for r in result.log if not r.queried)
        assert skipped >= 700

        # hand-simulated controller: deep 0..100 (zero-detection frame 100
        # flips the mode), empty 101..899, deep from 900 on
        modes = [r.mode for r in result.log]
        assert modes[:101] == ["deep"] * 101
        assert modes[101:900] == ["empty"] * 799
        assert modes[900:] == ["deep"] * 100
        assert result.mode_switches == 2

        # no detection reported while in deep mode may be lost
        boxes = {(b.frame, t.id) for t in result.tubes for b in t.boxes}
        for k, tid in pairs:
            assert (k, tid) in boxes

    def test_no_deep_detection_lost_with_gaps(self):
        # object blinks while in deep mode: gap frames are re-synthesized
        meta = VideoMeta(200, 150, 12)
        pairs = [(0, 5), (1, 5), (4, 5), (5, 5)]
        frames = blob_video(12, {0, 1, 4, 5})
        result = run_extraction(frames, blob_detections(pairs), GATES, meta)
        tube = next(t for t in result.tubes if t.id == 5)
        assert (tube.start, tube.length) == (0, 6)

    def test_background_samples_masked_in_deep_mode(self):
        meta = VideoMeta(200, 150, 10)
        cfg = EmptyFrameConfig(
            binary_threshold=30,
            min_contour_area=1000,
            max_contour_area=10000,
            aspect_ratio_range=(1.2, 4.0),
            background_refresh_period=5,
        )
        pairs = [(k, 1) for k in range(10)]
        frames = blob_video(10, set(range(10)))
        result = run_extraction(frames, blob_detections(pairs), cfg, meta)
        assert len(result.store) == 2  # one masked sample per 5 deep frames
        for pixels, validity in result.store:
            assert validity is not None
            assert not validity[30:110, 60:100].any()
            assert validity[0, 0]


    def test_repeated_id_in_one_frame_names_frame_and_id(self):
        meta = VideoMeta(200, 150, 6)

        def source(index, pixels):
            records = [DetectionRecord(id=5, left=10, top=10, width=20, height=20)]
            if index == 3:
                records.append(DetectionRecord(id=5, left=40, top=10, width=20, height=20))
            return records

        with pytest.raises(AnnotationError, match="^frame 3: more than one box for id 5$"):
            run_extraction(blob_video(6, set(range(6))), source, GATES, meta)

    def test_out_of_frame_detection_raised_before_next_frame_is_read(self):
        meta = VideoMeta(200, 150, 10)
        read = []

        def frames():
            for idx, frame in enumerate(blob_video(10, set(range(10)))):
                read.append(idx)
                yield frame

        def source(index, pixels):
            left = 500 if index == 4 else 10
            return [DetectionRecord(id=2, left=left, top=10, width=20, height=20)]

        with pytest.raises(
            AnnotationError, match="^frame 4: box for id 2 lies fully outside the 200x150 frame$"
        ):
            run_extraction(frames(), source, GATES, meta)
        assert read == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("detected", [False, True], ids=["gated", "detected"])
    def test_frame_of_other_channel_count_names_both_frames(self, detected):
        # two grey frames, then RGB: the gate compares the third with a grey
        # background, and the detector path would store mixed samples
        cfg = dataclasses.replace(GATES, background_refresh_period=1)
        meta = VideoMeta(32, 24, 4)
        grey = np.full((24, 32), 60, np.uint8)
        frames = [grey, grey] + [flat_frame(32, 24, 60)] * 2

        def source(index, pixels):
            return [DetectionRecord(id=1, left=2, top=2, width=8, height=8)] if detected else []

        with pytest.raises(
            ValueError, match="^frame 2 has 3-channel pixels, frame 0 has 1-channel pixels$"
        ):
            run_extraction(frames, source, cfg, meta)


class TestFileDetectionSource:
    """A detection file's rows are checked when the source is built."""

    @pytest.mark.parametrize("row, message", [
        ("3,2,500,10,20,20", "line 2: box for id 2 lies fully outside the 200x150 frame"),
        ("3,2,1e19,10,20,20", "line 2: id 2 has a value beyond 64 bits"),
        ("7,2,10,10,20,20", "line 2: frame 7 lies past the end of the 6-frame video"),
    ])
    def test_bad_row_raises_when_built_naming_its_line(self, row, message):
        meta = VideoMeta(200, 150, 10)
        with pytest.raises(AnnotationError, match=f"^{message}$"):
            FileDetectionSource(io.StringIO(f"1,1,10,10,20,20\n{row}\n"), meta, 6)

    def test_answers_with_the_rows_cut_to_the_frame(self):
        meta = VideoMeta(200, 150, 10)
        source = FileDetectionSource(io.StringIO("2,4,-5,140,20,20,1,car,1\n"), meta, 10)
        assert source(0, None) == []
        assert source(1, None) == [
            DetectionRecord(id=4, left=0, top=140, width=15, height=10, class_label="car")
        ]


def gappy_corpus_csv(rng, meta):
    """Frame-ordered detection CSV with a detection in every frame (id 0 spans
    the video), gaps inside tubes, partly-outside boxes and per-row labels."""
    tubes = [random_walk_tube(rng, 0, meta, start=0, length=meta.frame_count)]
    tubes += [random_walk_tube(rng, tid, meta) for tid in range(1, int(rng.integers(1, 9)))]
    rows = []
    for tube in tubes:
        for k, (left, top, width, height) in enumerate(tube.coords.tolist()):
            if tube.id and 0 < k < tube.length - 1 and rng.random() < 0.3:
                continue  # a gap the parser fills again
            if rng.random() < 0.15:
                left = int(rng.integers(-width + 1, 1))
            if rng.random() < 0.15:
                top = meta.height - int(rng.integers(1, height + 1))
            label = ("1", "2", "car")[int(rng.integers(0, 3))]
            rows.append((tube.start + k + 1, tube.id, left, top, width, height, label))
    rows.sort(key=lambda r: (r[0], r[1]))
    return "".join(f"{f},{tid},{l},{t},{w},{h},1,{lab},1\n" for f, tid, l, t, w, h, lab in rows)


class TestExtractionMatchesParse:
    def test_all_deep_extraction_equals_parse_of_same_csv(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            meta = VideoMeta(int(rng.integers(60, 160)), int(rng.integers(60, 120)), 80)
            text = gappy_corpus_csv(rng, meta)
            cfg = EmptyFrameConfig(background_refresh_period=int(rng.integers(1, 30)))
            frames = [flat_frame(meta.width, meta.height)] * meta.frame_count
            result = run_extraction(
                frames, FileDetectionSource(io.StringIO(text), meta, meta.frame_count), cfg, meta
            )
            assert result.empty_mode_frames == 0
            assert result.tubes == parse_annotations(io.StringIO(text), meta)
