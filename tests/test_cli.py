"""End-to-end subcommand tests on small synthetic fixtures."""

import json
import os
import random
import subprocess
import sys
import textwrap
import threading
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest

from videosynopsis import cli, frames, ingest
from videosynopsis.cli import main
from videosynopsis.frames import read_image, write_image

from synth import draw_blob, flat_frame


def write_config(path, width=96, height=64, frame_count=40, **overrides):
    config = {
        "video": {"width": width, "height": height, "frame_count": frame_count, "fps": 30.0},
        "grouping": {"distance_threshold": 60.0, "collision_threshold": 3.0},
        "scheduler": {
            "batch_size": 4,
            "decay_rate": 0.9,
            "collision_threshold": 0.1,
            "shift_step": 3,
            "startframe_skip_fraction": 0.15,
            "startframe_back_off": 5,
            "first_batch_size": None,
            "shift_levels": None,
        },
        "segmentation": {
            "initial_threshold": 80,
            "min_foreground_ratio": 0.15,
            "threshold_decrement": 10,
            "morphology_kernel": 1,
            "threshold_floor": 20,
        },
        "empty_frame": {
            "fifo_capacity": 10,
            "binary_threshold": 30,
            "min_contour_area": 100,
            "max_contour_area": 4000,
            "aspect_ratio_range": [0.5, 4.0],
            "background_refresh_period": 10,
            "morphology_kernel": 1,
        },
        "frame_source": "directory",
        "threads": 1,
    }
    config.update(overrides)
    path.write_text(json.dumps(config, indent=2))
    return path


def make_fixture(tmp_path, frame_count=40):
    """Frame directory + detections with one blob crossing the scene."""
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    rows = []
    object_frames = range(5, 25)
    for idx in range(frame_count):
        frame = flat_frame(96, 64, value=50)
        if idx in object_frames:
            left = 4 + 3 * (idx - 5)
            frame = draw_blob(frame, left, 20, 12, 24, value=210)
            rows.append(f"{idx + 1},1,{left},20,12,24,1,1,1")
        write_image(frames_dir / f"{idx:05d}.ppm", frame)
    detections = tmp_path / "detections.csv"
    detections.write_text("\n".join(rows) + "\n")
    return frames_dir, detections


class TestInit:
    def test_writes_full_default_config(self, tmp_path):
        out = tmp_path / "config.json"
        assert main(["init", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        for section in ("video", "grouping", "scheduler", "segmentation", "empty_frame"):
            assert section in data
        assert data["scheduler"]["shift_step"] == 3
        assert data["empty_frame"]["fifo_capacity"] == 10

    def test_given_video_fields_replace_only_themselves(self, tmp_path):
        out = tmp_path / "config.json"
        assert main(["init", "--out", str(out), "--fps", "25"]) == 0
        video = json.loads(out.read_text())["video"]
        assert video == {"width": 1280, "height": 720, "frame_count": 1000, "fps": 25.0}
        assert main(["init", "--out", str(out), "--height", "480"]) == 0
        video = json.loads(out.read_text())["video"]
        assert video == {"width": 1280, "height": 480, "frame_count": 1000, "fps": 30.0}

    def test_invalid_video_field_exits_2(self, tmp_path):
        assert main(["init", "--out", str(tmp_path / "c.json"), "--fps", "0"]) == 2

    @pytest.mark.parametrize("fps", ["nan", "inf", "-inf"])
    def test_non_finite_fps_exits_2_without_writing(self, tmp_path, capsys, fps):
        out = tmp_path / "c.json"
        assert main(["init", "--out", str(out), f"--fps={fps}"]) == 2
        assert "fps finite" in capsys.readouterr().err
        assert not out.exists()

    def test_output_loads_back_to_defaults(self, tmp_path):
        out = tmp_path / "config.json"
        assert main(["init", "--out", str(out)]) == 0
        assert cli.PipelineConfig.load(out) == cli.PipelineConfig.defaults()


class TestConfigSections:
    VIDEO = {"width": 1280, "height": 720, "frame_count": 2400, "fps": 30.0}

    @pytest.mark.parametrize("scheduler", [None, {"collision_threshold": 0.05}])
    def test_omitted_sections_take_defaults(self, tmp_path, scheduler):
        data = {"video": self.VIDEO}
        if scheduler is not None:
            data["scheduler"] = scheduler
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        cfg = cli.PipelineConfig.load(path)
        assert cfg.video == cli.VideoMeta(**self.VIDEO)
        assert cfg.scheduler == cli.SchedulerConfig(**(scheduler or {}))
        assert (cfg.grouping, cfg.segmentation, cfg.empty_frame, cfg.frame_source, cfg.threads) == (
            cli.GroupingConfig(), cli.SegmentationConfig(), cli.EmptyFrameConfig(), "directory", 1
        )


class TestBadConfig:
    """Config mistakes are bad input (exit 2), reported with the file."""

    def run_synopsize(self, tmp_path, config, capsys):
        tubes = tmp_path / "tubes.csv"
        tubes.write_text("1,1,10,10,8,8\n")
        code = main([
            "synopsize",
            "--tubes", str(tubes),
            "--config", str(config),
            "--out-dir", str(tmp_path / "syn"),
        ])
        return code, capsys.readouterr().err

    def test_misspelled_field_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json", scheduler={"colision_threshold": 0.1})
        code, err = self.run_synopsize(tmp_path, config, capsys)
        assert code == 2
        assert str(config) in err and "colision_threshold" in err

    def test_mistyped_field_exits_2(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "config.json",
            video={"width": "100", "height": 64, "frame_count": 40, "fps": 30.0},
        )
        code, err = self.run_synopsize(tmp_path, config, capsys)
        assert code == 2
        assert str(config) in err and "width" in err

    def test_top_level_list_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps([{"video": {"width": 96}}]))
        code, err = self.run_synopsize(tmp_path, config, capsys)
        assert code == 2
        assert str(config) in err

    def test_missing_video_section_named(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scheduler": {"batch_size": 4}}))
        code, err = self.run_synopsize(tmp_path, config, capsys)
        assert code == 2
        assert str(config) in err and "no 'video' section" in err

    @pytest.mark.parametrize("scheduler, field", [
        ({"first_batch_size": "3"}, "'first_batch_size'"),
        ({"shift_levels": [[0.1]]}, "'shift_levels'"),
    ])
    def test_bad_scheduler_value_names_field(self, tmp_path, capsys, scheduler, field):
        config = write_config(tmp_path / "config.json", scheduler=scheduler)
        code, err = self.run_synopsize(tmp_path, config, capsys)
        assert code == 2
        assert str(config) in err and field in err

    def test_threads_below_one_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json", threads=0)
        code, err = self.run_synopsize(tmp_path, config, capsys)
        assert code == 2
        assert str(config) in err and "threads must be >= 1" in err

    @pytest.mark.parametrize("overrides, message", [
        (
            {"scheduler": {"shift_levels": [[0.5, 2.7], [0.1, 3]]}},
            "section 'scheduler' field 'shift_levels'[0][1] must be int, got 2.7",
        ),
        (
            {"scheduler": {"shift_levels": [["0.5", 3], [0.1, 3]]}},
            "section 'scheduler' field 'shift_levels'[0][0] must be float, got '0.5'",
        ),
        (
            {"empty_frame": {"aspect_ratio_range": [True, 5]}},
            "section 'empty_frame' field 'aspect_ratio_range'[0] must be float, got True",
        ),
        (
            {"empty_frame": {"aspect_ratio_range": [0.5, 5, 9]}},
            "section 'empty_frame' field 'aspect_ratio_range' must be a list of 2 items",
        ),
        (
            {"empty_frame": {"aspect_ratio_range": "0.5,5"}},
            "section 'empty_frame' field 'aspect_ratio_range' must be a list of 2 items",
        ),
        (
            {"frame_source": "RAW"},
            "config field 'frame_source' must be one of 'directory', 'raw', got 'RAW'",
        ),
        (
            {"video": {"height": 64, "frame_count": 40}},
            "section 'video' has no 'width' field",
        ),
    ])
    def test_bad_value_names_field(self, tmp_path, capsys, overrides, message):
        config = write_config(tmp_path / "config.json", **overrides)
        code, err = self.run_synopsize(tmp_path, config, capsys)
        assert code == 2
        assert f"error: config {config}: {message}" in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("section, field", [("scheduler", "collision_threshold"), ("video", "fps")])
    def test_non_finite_number_names_field(self, tmp_path, capsys, value, section, field):
        overrides = {
            "scheduler": {"collision_threshold": 0.1},
            "video": {"width": 96, "height": 64, "frame_count": 40, "fps": 30.0},
        }
        overrides[section][field] = value
        config = write_config(tmp_path / "config.json", **overrides)
        assert "NaN" in config.read_text() or "Infinity" in config.read_text()
        code, err = self.run_synopsize(tmp_path, config, capsys)
        assert code == 2
        message = f"section {section!r} field {field!r} must be a finite float, got {value!r}"
        assert f"error: config {config}: {message}" in err
        assert not (tmp_path / "syn").exists()


def test_internal_key_error_exits_1(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "build_groups", broken)
    code, err = TestBadConfig().run_synopsize(tmp_path, write_config(tmp_path / "c.json"), capsys)
    assert code == 1
    assert "internal error: 'lost'" in err


class TestExtract:
    def test_missing_detections_exits_2(self, tmp_path, capsys):
        frames_dir, _ = make_fixture(tmp_path)
        config = write_config(tmp_path / "config.json")
        code = main([
            "extract",
            "--frames", str(frames_dir),
            "--detections", str(tmp_path / "nope.csv"),
            "--config", str(config),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "detections not found" in capsys.readouterr().err

    def test_detection_beyond_64_bits_exits_2(self, tmp_path, capsys):
        frames_dir, _ = make_fixture(tmp_path)
        detections = tmp_path / "big.csv"
        detections.write_text("1,7,10,10,8,8\n2,7,1e19,10,8,8\n")
        config = write_config(tmp_path / "config.json")
        code = main([
            "extract",
            "--frames", str(frames_dir),
            "--detections", str(detections),
            "--config", str(config),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        message = f"detections {detections}: line 2: id 7 has a value beyond 64 bits"
        assert f"error: {message}\n" == capsys.readouterr().err

    def test_detection_past_end_of_video_exits_2(self, tmp_path, capsys):
        frames_dir, _ = make_fixture(tmp_path, frame_count=10)
        detections = tmp_path / "late.csv"
        rows = [f"{k},1,10,20,12,24" for k in range(1, 11)] + ["500,2,10,10,8,8"]
        detections.write_text("\n".join(rows) + "\n")
        config = write_config(tmp_path / "config.json", frame_count=10)
        out = tmp_path / "out"
        code = main([
            "extract",
            "--frames", str(frames_dir),
            "--detections", str(detections),
            "--config", str(config),
            "--out-dir", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 11: frame 500 lies past the end of the 10-frame video" in err
        assert not out.exists()  # raised before extraction started

    def test_detection_past_the_frame_stream_names_the_file(self, tmp_path, capsys):
        # the config's video has 40 frames, the directory 10
        frames_dir, _ = make_fixture(tmp_path, frame_count=10)
        detections = tmp_path / "late.csv"
        detections.write_text("1,1,10,20,12,24\n30,2,10,10,8,8\n")
        out = tmp_path / "out"
        code = main([
            "extract",
            "--frames", str(frames_dir),
            "--detections", str(detections),
            "--config", str(write_config(tmp_path / "config.json")),
            "--out-dir", str(out),
        ])
        assert code == 2
        message = f"detections {detections}: line 2: frame 30 lies past the end of the 10-frame video"
        assert f"error: {message}\n" == capsys.readouterr().err
        assert not out.exists()

    # frame 36 lies in the quiet tail the gate watches; frame 11 is queried
    @pytest.mark.parametrize("frame", [36, 11], ids=["gated", "queried"])
    def test_box_outside_the_frame_names_its_line_before_reading_a_frame(
        self, tmp_path, capsys, monkeypatch, frame
    ):
        frames_dir, detections = make_fixture(tmp_path)
        rows = detections.read_text().splitlines()
        rows.append(f"{frame},2,500,10,8,8")
        detections.write_text("\n".join(rows) + "\n")
        reads = []
        monkeypatch.setattr(frames, "read_image", lambda path: reads.append(path))
        out = tmp_path / "out"
        code = main([
            "extract",
            "--frames", str(frames_dir),
            "--detections", str(detections),
            "--config", str(write_config(tmp_path / "config.json")),
            "--out-dir", str(out),
        ])
        assert code == 2
        message = f"detections {detections}: line 21: box for id 2 lies fully outside the 96x64 frame"
        assert f"error: {message}\n" == capsys.readouterr().err
        assert reads == []
        assert not out.exists()

    def test_zero_frame_raw_video_with_no_detections_extracts_no_tubes(self, tmp_path, capsys):
        raw = tmp_path / "empty.rgb"
        raw.write_bytes(b"")
        detections = tmp_path / "none.csv"
        detections.write_text("")
        out = tmp_path / "out"
        code = main([
            "extract",
            "--frames", str(raw),
            "--detections", str(detections),
            "--config", str(write_config(tmp_path / "raw.json", frame_source="raw")),
            "--out-dir", str(out),
        ])
        assert code == 0
        assert (out / "tubes.csv").read_text() == ""
        assert "extracted 0 tubes; detector queried on 0/0 frames" in capsys.readouterr().out

    def test_frame_of_other_channel_count_exits_2_before_writing(self, tmp_path, capsys):
        # a detection on every frame, so a masked sample every 10 frames:
        # frame 9's is grey and frame 19's would be RGB
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        for idx in range(20):
            frame = flat_frame(96, 64, value=50)
            write_image(frames_dir / f"{idx:05d}.ppm", frame if idx >= 10 else frame[:, :, 0])
        detections = tmp_path / "detections.csv"
        detections.write_text("".join(f"{k},1,10,20,12,24\n" for k in range(1, 21)))
        out = tmp_path / "out"
        code = main([
            "extract",
            "--frames", str(frames_dir),
            "--detections", str(detections),
            "--config", str(write_config(tmp_path / "config.json", frame_count=20)),
            "--out-dir", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: frame 10 has 3-channel pixels, frame 0 has 1-channel pixels\n"
        assert not out.exists()

    def test_detection_past_config_frame_count_exits_2_before_reading_a_frame(
        self, tmp_path, capsys, monkeypatch
    ):
        # the stream has 30 frames, the config's video 20: rows at 21-30
        # would make tubes that synopsize then refuses
        frames_dir, _ = make_fixture(tmp_path, frame_count=30)
        detections = tmp_path / "late.csv"
        detections.write_text("".join(f"{k},1,10,20,12,24\n" for k in range(21, 31)))
        config = write_config(tmp_path / "config.json", frame_count=20)
        reads = []
        monkeypatch.setattr(frames, "read_image", lambda path: reads.append(path))
        out = tmp_path / "out"
        code = main([
            "extract",
            "--frames", str(frames_dir),
            "--detections", str(detections),
            "--config", str(config),
            "--out-dir", str(out),
        ])
        assert code == 2
        assert "line 1: frame 21 lies past the end of the 20-frame video" in capsys.readouterr().err
        assert reads == []
        assert not out.exists()

    def test_frames_smaller_than_config_exit_2(self, tmp_path, capsys):
        frames_dir, detections = make_fixture(tmp_path)
        config = write_config(tmp_path / "config.json", width=192, height=128)
        code = main([
            "extract",
            "--frames", str(frames_dir),
            "--detections", str(detections),
            "--config", str(config),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "frame 0 is 96x64, the video is 192x128" in capsys.readouterr().err

    def test_two_files_of_one_frame_number_exit_2(self, tmp_path, capsys):
        frames_dir, detections = make_fixture(tmp_path)
        # 00001.ppm and 1.ppm are both frame 1
        write_image(frames_dir / "1.ppm", flat_frame(96, 64, value=50))
        config = write_config(tmp_path / "config.json")
        out = tmp_path / "out"
        code = main([
            "extract",
            "--frames", str(frames_dir),
            "--detections", str(detections),
            "--config", str(config),
            "--out-dir", str(out),
        ])
        assert code == 2
        assert "00001.ppm and 1.ppm" in capsys.readouterr().err
        assert not out.exists()

    def test_confidence_column_is_not_read(self, tmp_path):
        # confidence 0, the MOT ground-truth "ignore" flag, keeps its box
        # as 0.5 does: the tubes equal those of the all-ones file
        frames_dir, detections = make_fixture(tmp_path)
        flagged = tmp_path / "flagged.csv"
        rows = [row.split(",") for row in detections.read_text().splitlines()]
        for k, row in enumerate(rows):
            row[6] = ("0", "0.5")[k % 2]
        flagged.write_text("".join(",".join(row) + "\n" for row in rows))
        config = write_config(tmp_path / "config.json")
        for source in (detections, flagged):
            assert main([
                "extract",
                "--frames", str(frames_dir),
                "--detections", str(source),
                "--config", str(config),
                "--out-dir", str(tmp_path / source.stem),
            ]) == 0
        tubes_csv = (tmp_path / "flagged" / "tubes.csv").read_text()
        assert len(tubes_csv.splitlines()) == 20
        assert tubes_csv == (tmp_path / "detections" / "tubes.csv").read_text()

    def test_extract_writes_tubes_and_log(self, tmp_path):
        frames_dir, detections = make_fixture(tmp_path)
        config = write_config(tmp_path / "config.json")
        out = tmp_path / "out"
        code = main([
            "extract",
            "--frames", str(frames_dir),
            "--detections", str(detections),
            "--config", str(config),
            "--out-dir", str(out),
        ])
        assert code == 0
        tubes_csv = (out / "tubes.csv").read_text().strip().splitlines()
        assert len(tubes_csv) == 20  # one row per (frame, id)
        log = json.loads((out / "extraction_log.json").read_text())
        assert len(log["frames"]) == 40
        assert (out / "background_samples.npz").is_file()

    def test_all_empty_video(self, tmp_path):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        for idx in range(20):
            write_image(frames_dir / f"{idx:05d}.ppm", flat_frame(96, 64, value=50))
        detections = tmp_path / "detections.csv"
        detections.write_text("")
        config = write_config(tmp_path / "config.json", frame_count=20)
        out = tmp_path / "out"
        assert main([
            "extract",
            "--frames", str(frames_dir),
            "--detections", str(detections),
            "--config", str(config),
            "--out-dir", str(out),
        ]) == 0
        assert (out / "tubes.csv").read_text() == ""
        log = json.loads((out / "extraction_log.json").read_text())
        assert len(log["frames"]) == 20
        assert all(r["judged_empty"] for r in log["frames"])

    def test_all_empty_video_through_synopsize_and_render(self, tmp_path, capsys):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        for idx in range(20):
            write_image(frames_dir / f"{idx:05d}.ppm", flat_frame(96, 64, value=50))
        detections = tmp_path / "detections.csv"
        detections.write_text("")
        config = write_config(tmp_path / "config.json", frame_count=20)
        out, syn, rendered = tmp_path / "out", tmp_path / "syn", tmp_path / "rendered"
        assert main([
            "extract",
            "--frames", str(frames_dir),
            "--detections", str(detections),
            "--config", str(config),
            "--out-dir", str(out),
        ]) == 0
        capsys.readouterr()
        assert main([
            "synopsize",
            "--tubes", str(out / "tubes.csv"),
            "--config", str(config),
            "--out-dir", str(syn),
        ]) == 0
        assert "nothing to score" in capsys.readouterr().err
        schedule = json.loads((syn / "schedule.json").read_text())
        assert schedule == {"synopsis_length": 0, "placements": []}
        assert sorted(p.name for p in syn.iterdir()) == ["schedule.json"]
        assert main([
            "render",
            "--schedule", str(syn / "schedule.json"),
            "--tubes", str(out / "tubes.csv"),
            "--frames", str(frames_dir),
            "--config", str(config),
            "--out-dir", str(rendered),
        ]) == 0
        manifest = json.loads((rendered / "manifest.json").read_text())
        assert manifest == {"synopsis_length": 0, "frames": {}}
        capsys.readouterr()
        assert main([
            "score",
            "--schedule", str(syn / "schedule.json"),
            "--tubes", str(out / "tubes.csv"),
            "--config", str(config),
        ]) == 2
        assert "synopsis length must be positive" in capsys.readouterr().err


def synopsize(tmp_path, tubes_text, config_kwargs=None):
    tubes = tmp_path / "tubes.csv"
    tubes.write_text(tubes_text)
    config = write_config(tmp_path / "config.json", **(config_kwargs or {}))
    out = tmp_path / "syn"
    code = main([
        "synopsize",
        "--tubes", str(tubes),
        "--config", str(config),
        "--out-dir", str(out),
    ])
    return code, out


class TestSynopsize:
    def test_single_tube_degenerate(self, tmp_path):
        rows = "".join(f"{k},1,10,10,8,8,1,1,1\n" for k in range(1, 11))
        code, out = synopsize(tmp_path, rows)
        assert code == 0
        schedule = json.loads((out / "schedule.json").read_text())
        assert schedule["synopsis_length"] == 10
        assert schedule["placements"][0]["synopsis_start"] == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["fr"] == pytest.approx(10 / 40)

    def test_without_config_takes_the_default_1000_frame_video(self, tmp_path):
        tubes = tmp_path / "tubes.csv"
        tubes.write_text("".join(f"{k},1,10,10,8,8\n" for k in range(1, 26)))
        out = tmp_path / "syn"
        assert main(["synopsize", "--tubes", str(tubes), "--out-dir", str(out)]) == 0
        length = json.loads((out / "schedule.json").read_text())["synopsis_length"]
        assert length == 25
        assert json.loads((out / "metrics.json").read_text())["fr"] == length / 1000

    def test_byte_identical_across_runs(self, tmp_path):
        rng = np.random.default_rng(91)
        rows = []
        for tid in range(1, 21):
            start = int(rng.integers(1, 25))
            left = int(rng.integers(0, 80))
            for k in range(int(rng.integers(3, 10))):
                rows.append(f"{start + k},{tid},{min(left + k, 88)},10,8,8,1,1,1")
        text = "\n".join(rows) + "\n"
        d1 = tmp_path / "a"
        d1.mkdir()
        code1, out1 = synopsize(d1, text)
        d2 = tmp_path / "b"
        d2.mkdir()
        code2, out2 = synopsize(d2, text)
        assert code1 == code2 == 0
        assert (out1 / "schedule.json").read_bytes() == (out2 / "schedule.json").read_bytes()

    def test_malformed_tube_file_exits_2(self, tmp_path, capsys):
        code, _ = synopsize(tmp_path, "1,1,zzz,0,5,5\n")
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_tube_rows_past_the_video_exit_2(self, tmp_path, capsys):
        rows = "".join(f"{k},1,10,10,8,8\n" for k in range(5000, 5011))
        code, out = synopsize(tmp_path, rows, {"frame_count": 1000})
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: tubes {tmp_path / 'tubes.csv'}: line 1: frame 5000 lies past the end of the 1000-frame video" in err
        assert not out.exists()

    def test_tube_row_far_past_the_video_exits_2_before_filling_gaps(
        self, tmp_path, capsys, monkeypatch
    ):
        # unchecked, the gap from frame 1 to 10**8 would be filled row by row
        def fill_gaps(frames, coords):
            raise AssertionError(f"fill_gaps over frames {frames[0]}..{frames[-1]}")

        monkeypatch.setattr(ingest, "fill_gaps", fill_gaps)
        code, _ = synopsize(tmp_path, "1,1,10,10,8,8\n100000000,1,10,10,8,8\n")
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: tubes {tmp_path / 'tubes.csv'}: line 2: frame 100000000 lies past the end of the 40-frame video" in err


class TestUndecodableInputs:
    """An input file that is not text, or not JSON where JSON is due, is bad
    input named by its path."""

    def run(self, tmp_path, command, tubes=b"1,1,10,10,8,8\n", schedule=None, detections=None):
        config = write_config(tmp_path / "config.json")
        paths = {}
        for name, data in (("tubes.csv", tubes), ("schedule.json", schedule),
                           ("detections.csv", detections)):
            paths[name] = tmp_path / name
            paths[name].write_bytes(data or b"")
        argv = [command, "--config", str(config)]
        if command == "extract":
            (tmp_path / "clip").mkdir()
            frames_dir, _ = make_fixture(tmp_path / "clip")
            argv += ["--detections", str(paths["detections.csv"]), "--frames", str(frames_dir),
                     "--out-dir", str(tmp_path / "out")]
        else:
            argv += ["--tubes", str(paths["tubes.csv"])]
        if command in ("score", "render"):
            argv += ["--schedule", str(paths["schedule.json"])]
        if command in ("synopsize", "render"):
            argv += ["--out-dir", str(tmp_path / "out")]
        if command == "render":
            argv += ["--frames", str(tmp_path)]
        return main(argv), paths

    @pytest.mark.parametrize("command", ["synopsize", "score", "render"])
    def test_tube_file_not_text(self, tmp_path, capsys, command):
        code, paths = self.run(tmp_path, command, tubes=b"\xff1,1,10,10,8,8\n", schedule=b"{}")
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: tubes {paths['tubes.csv']}: " in err and "can't decode" in err

    def test_detection_file_not_text(self, tmp_path, capsys):
        code, paths = self.run(tmp_path, "extract", detections=b"\xff1,1,10,10,8,8\n")
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: detections {paths['detections.csv']}: " in err and "can't decode" in err

    @pytest.mark.parametrize("command", ["score", "render"])
    @pytest.mark.parametrize("schedule, message", [
        (b"{bad", "Expecting property name enclosed in double quotes"),
        (b"\xff{}", "can't decode"),
    ])
    def test_schedule_file_not_json(self, tmp_path, capsys, command, schedule, message):
        code, paths = self.run(tmp_path, command, schedule=schedule)
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: schedule {paths['schedule.json']}: " in err and message in err

    def test_over_nested_schedule_names_the_file(self, tmp_path, capsys):
        code, paths = self.run(tmp_path, "score", schedule=b"[" * 100_000)
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: schedule {paths['schedule.json']}: " in err and "recursion" in err

    def test_over_nested_config_names_the_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[" * 100_000)
        code, err = TestBadConfig().run_synopsize(tmp_path, config, capsys)
        assert code == 2
        assert f"error: config {config}: " in err and "recursion" in err
        assert not (tmp_path / "syn").exists()


class TestRenderAndScore:
    def fixture(self, tmp_path):
        frames_dir, detections = make_fixture(tmp_path)
        config = write_config(tmp_path / "config.json")
        extracted = tmp_path / "extracted"
        main([
            "extract",
            "--frames", str(frames_dir),
            "--detections", str(detections),
            "--config", str(config),
            "--out-dir", str(extracted),
        ])
        syn = tmp_path / "syn"
        main([
            "synopsize",
            "--tubes", str(extracted / "tubes.csv"),
            "--config", str(config),
            "--out-dir", str(syn),
        ])
        return frames_dir, config, extracted, syn

    def test_render_emits_synopsis_length_frames(self, tmp_path):
        frames_dir, config, extracted, syn = self.fixture(tmp_path)
        out = tmp_path / "rendered"
        code = main([
            "render",
            "--schedule", str(syn / "schedule.json"),
            "--tubes", str(extracted / "tubes.csv"),
            "--frames", str(frames_dir),
            "--config", str(config),
            "--samples", str(extracted / "background_samples.npz"),
            "--out-dir", str(out),
        ])
        assert code == 0
        schedule = json.loads((syn / "schedule.json").read_text())
        frame_files = sorted(out.glob("frame_*.ppm"))
        assert len(frame_files) == schedule["synopsis_length"]
        assert (out / "background.ppm").is_file()

        manifest = json.loads((out / "manifest.json").read_text())
        tubes_rows = {
            (int(r.split(",")[0]) - 1, int(r.split(",")[1]))
            for r in (extracted / "tubes.csv").read_text().strip().splitlines()
        }
        for entries in manifest["frames"].values():
            for tid, src in entries:
                assert (src, tid) in tubes_rows

    def test_rendered_blob_visible(self, tmp_path):
        frames_dir, config, extracted, syn = self.fixture(tmp_path)
        out = tmp_path / "rendered"
        main([
            "render",
            "--schedule", str(syn / "schedule.json"),
            "--tubes", str(extracted / "tubes.csv"),
            "--frames", str(frames_dir),
            "--config", str(config),
            "--samples", str(extracted / "background_samples.npz"),
            "--out-dir", str(out),
        ])
        manifest = json.loads((out / "manifest.json").read_text())
        lit = [int(k) for k, v in manifest["frames"].items() if v]
        frame = read_image(out / f"frame_{lit[len(lit)//2]:06d}.ppm")
        assert (frame > 180).any()

    def test_empty_schedule_warns_and_emits_nothing(self, tmp_path, capsys):
        frames_dir, config, extracted, _ = self.fixture(tmp_path)
        empty = tmp_path / "empty_schedule.json"
        empty.write_text(json.dumps({"synopsis_length": 0, "placements": []}))
        out = tmp_path / "rendered_empty"
        code = main([
            "render",
            "--schedule", str(empty),
            "--tubes", str(extracted / "tubes.csv"),
            "--frames", str(frames_dir),
            "--config", str(config),
            "--out-dir", str(out),
        ])
        assert code == 0
        assert "warning" in capsys.readouterr().err.lower()
        assert list(out.glob("frame_*.ppm")) == []

    def render(self, tmp_path, frames_dir, config, extracted, syn, *extra):
        out = tmp_path / "rendered"
        code = main([
            "render",
            "--schedule", str(syn / "schedule.json"),
            "--tubes", str(extracted / "tubes.csv"),
            "--frames", str(frames_dir),
            "--config", str(config),
            "--out-dir", str(out),
            *extra,
        ])
        return code, out

    def test_background_of_wrong_size_exits_2(self, tmp_path, capsys):
        frames_dir, config, extracted, syn = self.fixture(tmp_path)
        background = tmp_path / "background.ppm"
        write_image(background, flat_frame(48, 32))
        capsys.readouterr()
        code, out = self.render(
            tmp_path, frames_dir, config, extracted, syn, "--background", str(background)
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"background {background} is 48x32, the config's video is 96x64" in err
        assert not out.exists()

    def test_background_with_short_pixel_data_exits_2_naming_it(self, tmp_path, capsys):
        frames_dir, config, extracted, syn = self.fixture(tmp_path)
        background = tmp_path / "background.ppm"
        write_image(background, flat_frame(96, 64))
        background.write_bytes(background.read_bytes()[:-100])
        capsys.readouterr()
        code, out = self.render(
            tmp_path, frames_dir, config, extracted, syn, "--background", str(background)
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {background}: 18332 bytes of pixel data" in err
        assert not out.exists()

    def test_background_read_from_the_out_dir_is_replaced(self, tmp_path):
        # the background is still mapped when render writes the same file again
        frames_dir, config, extracted, syn = self.fixture(tmp_path)
        samples = ("--samples", str(extracted / "background_samples.npz"))
        code, out = self.render(tmp_path, frames_dir, config, extracted, syn, *samples)
        assert code == 0
        plain = {path.name: path.read_bytes() for path in out.iterdir()}
        code, again = self.render(
            tmp_path, frames_dir, config, extracted, syn,
            "--background", str(out / "background.ppm"),
        )
        assert code == 0 and again == out
        assert {path.name: path.read_bytes() for path in out.iterdir()} == plain
        assert len(plain) > 2 and not list(out.glob("*.tmp"))

    def test_source_frames_of_wrong_size_exit_2(self, tmp_path, capsys):
        frames_dir, config, extracted, syn = self.fixture(tmp_path)
        small = tmp_path / "small"
        small.mkdir()
        for idx in range(40):
            write_image(small / f"{idx:05d}.ppm", flat_frame(48, 32))
        capsys.readouterr()
        code, _ = self.render(tmp_path, small, config, extracted, syn)
        assert code == 2
        err = capsys.readouterr().err
        assert "is 48x32, the background is 96x64" in err and "source frame" in err

    def test_source_frames_of_wrong_size_exit_2_before_writing(self, tmp_path, capsys):
        frames_dir, config, extracted, syn = self.fixture(tmp_path)
        small = tmp_path / "small"
        small.mkdir()
        for idx in range(40):
            write_image(small / f"{idx:05d}.ppm", flat_frame(48, 32))
        capsys.readouterr()
        code, out = self.render(tmp_path, small, config, extracted, syn)
        assert code == 2
        assert "source frame 5 is 48x32, the background is 96x64" in capsys.readouterr().err
        assert not out.exists()

    def test_too_few_source_frames_exit_2_before_writing(self, tmp_path, capsys):
        frames_dir, config, extracted, syn = self.fixture(tmp_path)
        short = tmp_path / "short"
        short.mkdir()
        for idx in range(3):
            write_image(short / f"{idx:05d}.ppm", flat_frame(96, 64))
        capsys.readouterr()
        code, out = self.render(tmp_path, short, config, extracted, syn)
        assert code == 2
        assert "frame source has 3 frames, tube 1 needs 25" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["score", "render"])
    def test_schedule_naming_a_tube_twice_exits_2_before_writing(
        self, tmp_path, capsys, command
    ):
        frames_dir, config, extracted, _ = self.fixture(tmp_path)
        bad = tmp_path / "twice.json"
        bad.write_text(json.dumps({
            "synopsis_length": 60,
            "placements": [{"per_tube_starts": {"1": 0}}, {"per_tube_starts": {"1": 30}}],
        }))
        out = tmp_path / "out"
        argv = [command, "--schedule", str(bad), "--tubes", str(extracted / "tubes.csv"),
                "--config", str(config)]
        if command == "render":
            argv += ["--frames", str(frames_dir), "--out-dir", str(out)]
        else:
            argv += ["--out", str(out)]
        assert main(argv) == 2
        assert f"error: schedule {bad}: tube 1 appears in more than one group" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["score", "render"])
    @pytest.mark.parametrize("empty", [False, True])
    def test_schedule_longer_than_its_tubes_exits_2_before_writing(
        self, tmp_path, capsys, monkeypatch, command, empty
    ):
        frames_dir, config, extracted, syn = self.fixture(tmp_path)
        # a render that got this far would write one frame per synopsis frame
        monkeypatch.setattr(cli, "render_synopsis", lambda *args: pytest.fail("render started"))
        data = json.loads((syn / "schedule.json").read_text())
        end = data["synopsis_length"]
        if empty:
            data, end = {"synopsis_length": 10**9, "placements": []}, 0
        else:
            data["synopsis_length"] += 5
        long = tmp_path / "long.json"
        long.write_text(json.dumps(data))
        out = tmp_path / "out"
        argv = [command, "--schedule", str(long), "--tubes", str(extracted / "tubes.csv"),
                "--config", str(config)]
        if command == "render":
            argv += ["--frames", str(frames_dir), "--out-dir", str(out)]
        else:
            argv += ["--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 2
        message = f"synopsis_length {data['synopsis_length']} runs past the last tube end {end}"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_late_first_placement_checks_frames_before_writing(self, tmp_path, capsys):
        # the synopsis opens on background-only frames, yet a source frame's
        # size is checked before anything is written
        frames_dir, config, extracted, syn = self.fixture(tmp_path)
        data = json.loads((syn / "schedule.json").read_text())
        for placement in data["placements"]:
            starts = placement["per_tube_starts"]
            placement["per_tube_starts"] = {tid: s + 3 for tid, s in starts.items()}
        data["synopsis_length"] += 3
        (syn / "schedule.json").write_text(json.dumps(data))
        small = tmp_path / "small"
        small.mkdir()
        for idx in range(40):
            write_image(small / f"{idx:05d}.ppm", flat_frame(48, 32))
        capsys.readouterr()
        code, out = self.render(tmp_path, small, config, extracted, syn)
        assert code == 2
        assert "source frame 5 is 48x32, the background is 96x64" in capsys.readouterr().err
        assert not out.exists()

    def test_grey_background_for_rgb_frames_exits_2_before_writing(self, tmp_path, capsys):
        frames_dir, config, extracted, syn = self.fixture(tmp_path)
        background = tmp_path / "background.pgm"
        write_image(background, flat_frame(96, 64)[:, :, 0].copy())
        capsys.readouterr()
        code, out = self.render(
            tmp_path, frames_dir, config, extracted, syn, "--background", str(background)
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "source frame 5 has 3-channel pixels, the background has 1-channel pixels" in err
        assert not out.exists()

    def test_unwritable_image_format_exits_2_before_writing(self, tmp_path, capsys, monkeypatch):
        frames_dir, config, extracted, syn = self.fixture(tmp_path)
        monkeypatch.setattr(frames, "_PILImage", None)  # as where Pillow is not installed
        out = tmp_path / "render"
        code = main([
            "render",
            "--schedule", str(syn / "schedule.json"),
            "--tubes", str(extracted / "tubes.csv"),
            "--frames", str(frames_dir),
            "--config", str(config),
            "--out-dir", str(out),
            "--image-format", "png",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "background.png: only PNM images are writable without Pillow installed" in err
        assert not out.exists()

    def test_score_identity_and_reversed(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json", frame_count=30)
        tubes = tmp_path / "tubes.csv"
        rows = []
        for tid, start in ((1, 1), (2, 11), (3, 21)):
            for k in range(10):
                rows.append(f"{start + k},{tid},10,10,8,8,1,1,1")
        tubes.write_text("\n".join(rows) + "\n")

        identity = tmp_path / "identity.json"
        identity.write_text(json.dumps({
            "synopsis_length": 30,
            "placements": [
                {"group_index": i, "tube_ids": [tid], "synopsis_start": s,
                 "per_tube_starts": {str(tid): s}}
                for i, (tid, s) in enumerate(((1, 0), (2, 10), (3, 20)))
            ],
        }))
        out = tmp_path / "report.json"
        code = main([
            "score",
            "--schedule", str(identity),
            "--tubes", str(tubes),
            "--config", str(config),
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["fr"] == 1.0
        assert report["cdr"] == 0.0

        reversed_schedule = tmp_path / "reversed.json"
        reversed_schedule.write_text(json.dumps({
            "synopsis_length": 30,
            "placements": [
                {"group_index": i, "tube_ids": [tid], "synopsis_start": s,
                 "per_tube_starts": {str(tid): s}}
                for i, (tid, s) in enumerate(((3, 0), (2, 10), (1, 20)))
            ],
        }))
        out2 = tmp_path / "report2.json"
        assert main([
            "score",
            "--schedule", str(reversed_schedule),
            "--tubes", str(tubes),
            "--config", str(config),
            "--out", str(out2),
        ]) == 0
        assert json.loads(out2.read_text())["cdr"] == 1.0

    def test_schedule_tube_mismatch_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json")
        tubes = tmp_path / "tubes.csv"
        tubes.write_text("1,1,10,10,8,8,1,1,1\n")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "synopsis_length": 5,
            "placements": [{"group_index": 0, "tube_ids": [42], "synopsis_start": 0,
                            "per_tube_starts": {"42": 0}}],
        }))
        code = main([
            "score", "--schedule", str(bad), "--tubes", str(tubes),
            "--config", str(config),
        ])
        assert code == 2
        assert "42" in capsys.readouterr().err

    def test_score_of_a_schedule_leaving_a_tube_out_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json")
        tubes = tmp_path / "tubes.csv"
        tubes.write_text("1,1,10,10,8,8\n1,2,40,10,8,8\n")
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps({
            "synopsis_length": 1,
            "placements": [{"per_tube_starts": {"1": 0}}],
        }))
        out = tmp_path / "report.json"
        code = main([
            "score", "--schedule", str(partial), "--tubes", str(tubes),
            "--config", str(config), "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: schedule {partial}: schedule leaves out tube 2\n"
        assert not out.exists()

    def test_schedule_keys_naming_one_tube_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json")
        tubes = tmp_path / "tubes.csv"
        tubes.write_text("1,1,10,10,8,8,1,1,1\n3,2,10,10,8,8,1,1,1\n")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "synopsis_length": 60,
            "placements": [{"per_tube_starts": {"1": 0, "01": 50, "2": 3}}],
        }))
        code = main([
            "score", "--schedule", str(bad), "--tubes", str(tubes),
            "--config", str(config),
        ])
        assert code == 2
        assert "keys '1' and '01' both name tube 1" in capsys.readouterr().err

    def test_schedule_start_beyond_64_bits_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json")
        tubes = tmp_path / "tubes.csv"
        tubes.write_text("1,1,10,10,8,8,1,1,1\n")
        big = tmp_path / "big.json"
        big.write_text(json.dumps({
            "synopsis_length": 2**64,
            "placements": [{"per_tube_starts": {"1": 2**63}}],
        }))
        code = main([
            "score", "--schedule", str(big), "--tubes", str(tubes),
            "--config", str(config),
        ])
        assert code == 2
        assert f"error: schedule {big}: schedule places tube 1" in capsys.readouterr().err

    @pytest.mark.parametrize("faulty", ["tubes", "schedule"])
    def test_score_names_the_file_a_rule_error_is_in(self, tmp_path, capsys, faulty):
        config = write_config(tmp_path / "config.json")
        tubes = tmp_path / "tubes.csv"
        tubes.write_text("1,1,10,10,8,8\n" + ("1,2,3\n" if faulty == "tubes" else ""))
        schedule = tmp_path / "schedule.json"
        placements = [{"per_tube_starts": {"1": 0}}] * (2 if faulty == "schedule" else 1)
        schedule.write_text(json.dumps({"synopsis_length": 1, "placements": placements}))
        code = main([
            "score", "--schedule", str(schedule), "--tubes", str(tubes),
            "--config", str(config),
        ])
        assert code == 2
        message = {
            "tubes": f"error: tubes {tubes}: line 2: expected 6 to 9 comma-separated fields, got 3",
            "schedule": f"error: schedule {schedule}: tube 1 appears in more than one group",
        }[faulty]
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["score", "render"])
    @pytest.mark.parametrize("schedule, field", [
        ({"synopsis_length": 3, "placements": 5}, "'placements'"),
        ({"synopsis_length": 3, "placements": [{"per_tube_starts": [1]}]}, "'per_tube_starts'"),
        ({"placements": []}, "'synopsis_length'"),
    ])
    def test_malformed_schedule_names_field(self, tmp_path, capsys, command, schedule, field):
        config = write_config(tmp_path / "config.json")
        tubes = tmp_path / "tubes.csv"
        tubes.write_text("1,1,10,10,8,8,1,1,1\n")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(schedule))
        argv = [command, "--schedule", str(bad), "--tubes", str(tubes), "--config", str(config)]
        if command == "render":
            argv += ["--frames", str(tmp_path), "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: schedule " in err and field in err


BAD_SAMPLE_FILES = {
    "wrong grid": (
        dict(samples=np.zeros((2, 10, 10, 3), np.uint8), validity=np.ones((2, 10, 10), bool),
             capacity=10),
        "samples",
    ),
    "float samples": (
        dict(samples=np.zeros((2, 64, 96, 3)), validity=np.ones((2, 64, 96), bool), capacity=10),
        "samples",
    ),
    "no samples": (
        dict(samples=np.zeros((0, 64, 96, 3), np.uint8), validity=np.ones((0, 64, 96), bool),
             capacity=10),
        "samples",
    ),
    "uint8 validity": (
        dict(samples=np.zeros((2, 64, 96, 3), np.uint8), validity=np.ones((2, 64, 96), np.uint8),
             capacity=10),
        "validity",
    ),
    "short validity": (
        dict(samples=np.zeros((2, 64, 96, 3), np.uint8), validity=np.ones((1, 64, 96), bool),
             capacity=10),
        "validity",
    ),
    "missing capacity": (
        dict(samples=np.zeros((2, 64, 96, 3), np.uint8), validity=np.ones((2, 64, 96), bool)),
        "capacity",
    ),
    "capacity below count": (
        dict(samples=np.zeros((2, 64, 96, 3), np.uint8), validity=np.ones((2, 64, 96), bool),
             capacity=1),
        "capacity",
    ),
}


def render_with_samples(tmp_path, capsys, write):
    """Run ``render`` on the standard fixture with a sample file that
    ``write(path)`` makes; return the exit code, the path and stderr."""
    frames_dir, config, extracted, syn = TestRenderAndScore().fixture(tmp_path)
    samples = tmp_path / "samples.npz"
    write(samples)
    capsys.readouterr()
    code = main([
        "render",
        "--schedule", str(syn / "schedule.json"),
        "--tubes", str(extracted / "tubes.csv"),
        "--frames", str(frames_dir),
        "--config", str(config),
        "--samples", str(samples),
        "--out-dir", str(tmp_path / "rendered"),
    ])
    return code, samples, capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(BAD_SAMPLE_FILES))
def test_render_bad_sample_file_names_file_and_field(tmp_path, capsys, case):
    arrays, field = BAD_SAMPLE_FILES[case]
    code, samples, err = render_with_samples(tmp_path, capsys, lambda p: np.savez(p, **arrays))
    assert code == 2
    assert f"background samples {samples}: field {field!r}" in err


def test_render_sample_file_not_npz_exits_2(tmp_path, capsys):
    def write_npy(path):
        with open(path, "wb") as fh:
            np.save(fh, np.zeros((2, 64, 96, 3), np.uint8))

    code, samples, err = render_with_samples(tmp_path, capsys, write_npy)
    assert code == 2
    assert f"background samples {samples}: not an .npz archive" in err


def test_render_sample_file_with_a_bad_crc_exits_2_before_writing(tmp_path, capsys):
    def write_flipped(path):
        np.savez(path, samples=np.full((2, 64, 96, 3), 7, np.uint8),
                 validity=np.ones((2, 64, 96), bool), capacity=10)
        data = bytearray(path.read_bytes())
        data[data.index(bytes([7]) * 64)] ^= 1  # one pixel of 'samples'
        path.write_bytes(data)

    code, samples, err = render_with_samples(tmp_path, capsys, write_flipped)
    assert code == 2
    assert f"error: background samples {samples}: damaged archive: Bad CRC-32" in err
    assert not (tmp_path / "rendered").exists()


def test_damaged_sample_archives_load_or_name_the_file(tmp_path):
    """Seeded bit flips and truncations of a plain and a compressed archive:
    each loads, or is a ``ValueError`` that names the file."""
    meta = cli.VideoMeta(width=8, height=6, frame_count=10)
    pixels = np.random.default_rng(24).integers(0, 256, size=(2, 6, 8, 3), dtype=np.uint8)
    validity = np.ones((2, 6, 8), bool)
    validity[1, 2:4, 3:6] = False
    archives = []
    for save in (np.savez, np.savez_compressed):
        save(tmp_path / "store.npz", samples=pixels, validity=validity, capacity=4)
        archives.append((tmp_path / "store.npz").read_bytes())
    rng = random.Random(24)
    path = tmp_path / "mutated.npz"
    outcomes = []
    for case in range(200):
        data = bytearray(archives[case % 2])
        if case % 5:
            bit = rng.randrange(8 * len(data))
            data[bit // 8] ^= 1 << bit % 8
        else:
            del data[rng.randrange(len(data)):]
        path.write_bytes(data)
        try:
            cli._load_store(path, meta)
            outcomes.append("loads")
        except ValueError as exc:
            assert str(exc).startswith(f"background samples {path}: "), (case, exc)
            outcomes.append(str(exc).split(": ")[1])
    assert outcomes.count("loads") < 100 and outcomes.count("damaged archive") > 10


def test_extract_writes_plain_samples_and_render_reads_compressed_alike(tmp_path):
    frames_dir, config, extracted, syn = TestRenderAndScore().fixture(tmp_path)
    plain = extracted / "background_samples.npz"
    with zipfile.ZipFile(plain) as archive:
        assert {entry.compress_type for entry in archive.infolist()} == {zipfile.ZIP_STORED}
    compressed = tmp_path / "compressed.npz"
    with np.load(plain) as data:
        np.savez_compressed(compressed, **data)
    rendered = []
    for samples in (plain, compressed):
        out = tmp_path / f"rendered_{len(rendered)}"
        assert main([
            "render",
            "--schedule", str(syn / "schedule.json"),
            "--tubes", str(extracted / "tubes.csv"),
            "--frames", str(frames_dir),
            "--config", str(config),
            "--samples", str(samples),
            "--out-dir", str(out),
        ]) == 0
        rendered.append(sorted((path.name, path.read_bytes()) for path in out.iterdir()))
    assert len(rendered[0]) > 2 and rendered[0] == rendered[1]


# argv with {placeholders} for ``bad_input_paths``, and the error it must give
BAD_INPUTS = {
    "missing config": (
        "synopsize --tubes {tubes} --config {dir}/none.json --out-dir {out}",
        "config not found",
    ),
    "no background source": (
        "render --schedule {dir}/schedule.json --tubes {tubes} --frames {dir}/frames "
        "--config {dir}/config.json --out-dir {out}",
        "background samples not found",
    ),
    "no thresholds": (
        "sweep --tubes {tubes} --config {dir}/config.json --thresholds , --out-dir {out}",
        "no thresholds given",
    ),
    "placement not an object": (
        "score --schedule {dir}/five.json --tubes {tubes} --config {dir}/config.json --out {out}",
        "schedule {dir}/five.json: schedule placement must be a JSON object, got int",
    ),
    "placement without tubes": (
        "score --schedule {dir}/no_tubes.json --tubes {tubes} --config {dir}/config.json "
        "--out {out}",
        "schedule {dir}/no_tubes.json: placement without tubes in schedule file",
    ),
    "missing raw video": (
        "extract --frames {dir}/none.rgb --detections {tubes} --config {dir}/raw.json "
        "--out-dir {out}",
        "raw video not found",
    ),
}


def bad_input_paths(tmp_path):
    """A config and its raw-source twin, a tube file with no samples beside
    it, four frames and three schedules, for ``BAD_INPUTS``."""
    write_config(tmp_path / "config.json")
    write_config(tmp_path / "raw.json", frame_source="raw")
    tubes = tmp_path / "tubes" / "tubes.csv"
    tubes.parent.mkdir()
    tubes.write_text("1,1,10,10,8,8,1,1,1\n")
    (tmp_path / "frames").mkdir()
    for k in range(4):
        write_image(tmp_path / "frames" / f"{k:05d}.ppm", flat_frame(96, 64))
    for name, placements in [
        ("schedule", [{"per_tube_starts": {"1": 0}}]),
        ("five", [5]),
        ("no_tubes", [{"per_tube_starts": {}}]),
    ]:
        data = {"synopsis_length": 1, "placements": placements}
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    return {"dir": tmp_path, "tubes": tubes, "out": tmp_path / "out"}


@pytest.mark.parametrize("argv, message", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_input_exits_2_naming_it(tmp_path, capsys, argv, message):
    paths = bad_input_paths(tmp_path)
    assert main(argv.format(**paths).split()) == 2
    assert f"error: {message.format(**paths)}" in capsys.readouterr().err
    assert not paths["out"].exists()


def write_sweep_tubes(tmp_path):
    rng = np.random.default_rng(92)
    rows = []
    for tid in range(1, 16):
        start = int(rng.integers(1, 20))
        for k in range(8):
            rows.append(f"{start + k},{tid},{int(rng.integers(0, 80))},{int(rng.integers(0, 50))},8,8,1,1,1")
    tubes = tmp_path / "tubes.csv"
    tubes.write_text("\n".join(rows) + "\n")
    return tubes


class TestSweep:
    def test_sweep_emits_table_per_threshold(self, tmp_path, capsys):
        tubes = write_sweep_tubes(tmp_path)
        config = write_config(tmp_path / "config.json")
        out = tmp_path / "sweep"
        code = main([
            "sweep",
            "--tubes", str(tubes),
            "--config", str(config),
            "--thresholds", "0.05,0.1,0.4",
            "--out-dir", str(out),
        ])
        assert code == 0
        table = capsys.readouterr().out
        assert table.count("\n") >= 5
        data = json.loads((out / "sweep.json").read_text())
        assert [level["threshold"] for level in data["levels"]] == [0.05, 0.1, 0.4]

    @pytest.mark.parametrize("thresholds", ["nan,0.1", "0.1,inf", "-inf"])
    def test_non_finite_threshold_exits_2_without_a_table(self, tmp_path, capsys, thresholds):
        tubes = write_sweep_tubes(tmp_path)
        config = write_config(tmp_path / "config.json")
        out = tmp_path / "sweep"
        code = main([
            "sweep",
            "--tubes", str(tubes),
            "--config", str(config),
            f"--thresholds={thresholds}",
            "--out-dir", str(out),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "collision_threshold must be finite" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestFlags:
    def test_pair_table_dump(self, tmp_path):
        rows = []
        for tid, left in ((1, 10), (2, 20)):
            for k in range(1, 6):
                rows.append(f"{k},{tid},{left},10,8,8,1,1,1")
        tubes = tmp_path / "tubes.csv"
        tubes.write_text("\n".join(rows) + "\n")
        config = write_config(tmp_path / "config.json")
        table = tmp_path / "pairs.csv"
        code = main([
            "synopsize",
            "--tubes", str(tubes),
            "--config", str(config),
            "--out-dir", str(tmp_path / "out"),
            "--pair-table", str(table),
        ])
        assert code == 0
        lines = table.read_text().strip().splitlines()
        assert lines[0].startswith("tube_a,tube_b")
        assert len(lines) == 2  # header + one pair

    def test_render_threads_flag_matches_sequential(self, tmp_path):
        frames_dir, detections = make_fixture(tmp_path)
        config = write_config(tmp_path / "config.json")
        extracted = tmp_path / "extracted"
        main([
            "extract", "--frames", str(frames_dir), "--detections", str(detections),
            "--config", str(config), "--out-dir", str(extracted),
        ])
        syn = tmp_path / "syn"
        main([
            "synopsize", "--tubes", str(extracted / "tubes.csv"),
            "--config", str(config), "--out-dir", str(syn),
        ])
        outputs = []
        for threads, name in ((1, "seq"), (4, "par")):
            out = tmp_path / name
            code = main([
                "render",
                "--schedule", str(syn / "schedule.json"),
                "--tubes", str(extracted / "tubes.csv"),
                "--frames", str(frames_dir),
                "--config", str(config),
                "--samples", str(extracted / "background_samples.npz"),
                "--out-dir", str(out),
                "--threads", str(threads),
            ])
            assert code == 0
            outputs.append(sorted(p.read_bytes() for p in out.glob("frame_*.ppm")))
        assert outputs[0] == outputs[1]

    def test_render_bounds_frames_waiting_for_writes(self, tmp_path, monkeypatch):
        frames_dir, detections = make_fixture(tmp_path)
        config = write_config(tmp_path / "config.json")
        extracted, syn = tmp_path / "extracted", tmp_path / "syn"
        main([
            "extract", "--frames", str(frames_dir), "--detections", str(detections),
            "--config", str(config), "--out-dir", str(extracted),
        ])
        main([
            "synopsize", "--tubes", str(extracted / "tubes.csv"),
            "--config", str(config), "--out-dir", str(syn),
        ])
        lock = threading.Lock()
        counts = {"rendered": 0, "written": 0, "waiting": 0}

        def counting_render(*args, **kwargs):
            for item in real_render(*args, **kwargs):
                with lock:
                    counts["rendered"] += 1
                    counts["waiting"] = max(counts["waiting"], counts["rendered"] - counts["written"])
                yield item

        def slow_write(path, pixels):
            real_write(path, pixels)
            if path.name.startswith("frame_"):
                time.sleep(0.01)
                with lock:
                    counts["written"] += 1

        real_render, real_write = cli.render_synopsis, cli.write_image
        monkeypatch.setattr(cli, "render_synopsis", counting_render)
        monkeypatch.setattr(cli, "write_image", slow_write)
        threads = 2
        code = main([
            "render",
            "--schedule", str(syn / "schedule.json"),
            "--tubes", str(extracted / "tubes.csv"),
            "--frames", str(frames_dir),
            "--config", str(config),
            "--samples", str(extracted / "background_samples.npz"),
            "--out-dir", str(tmp_path / "out"),
            "--threads", str(threads),
        ])
        assert code == 0
        length = json.loads((syn / "schedule.json").read_text())["synopsis_length"]
        assert counts["rendered"] == counts["written"] == length > threads + 1
        assert counts["waiting"] <= threads + 1


class TestRawFrameSource:
    def test_raw_stream_and_directory_give_identical_outputs(self, tmp_path):
        # 96x64 RGB24 frames are 18 432 bytes: most start off a page boundary
        frames_dir, detections = make_fixture(tmp_path)
        rng = np.random.default_rng(93)
        raw = tmp_path / "clip.rgb"
        with open(raw, "wb") as fh:
            for path in sorted(frames_dir.glob("*.ppm")):
                frame = read_image(path) + rng.integers(0, 4, size=(64, 96, 3)).astype(np.uint8)
                write_image(path, frame)
                fh.write(frame.tobytes())
        sources = {
            "directory": (frames_dir, write_config(tmp_path / "dir.json")),
            "raw": (raw, write_config(tmp_path / "raw.json", frame_source="raw")),
        }
        outputs = {}
        for name, (frames, config) in sources.items():
            extracted, syn, rendered = (tmp_path / name / d for d in ("ext", "syn", "out"))
            common = ["--frames", str(frames), "--config", str(config)]
            assert main(["extract", *common, "--detections", str(detections),
                         "--out-dir", str(extracted)]) == 0
            assert main(["synopsize", "--tubes", str(extracted / "tubes.csv"),
                         "--config", str(config), "--out-dir", str(syn)]) == 0
            assert main(["render", *common, "--tubes", str(extracted / "tubes.csv"),
                         "--schedule", str(syn / "schedule.json"),
                         "--out-dir", str(rendered)]) == 0
            with np.load(extracted / "background_samples.npz") as data:
                samples = {key: data[key] for key in data.files}
            files = {
                path.relative_to(tmp_path / name).as_posix(): path.read_bytes()
                for path in (tmp_path / name).rglob("*")
                if path.is_file() and path.suffix != ".npz"
            }
            outputs[name] = samples, files
        (dir_samples, dir_files), (raw_samples, raw_files) = outputs.values()
        assert dir_samples.keys() == raw_samples.keys()
        for key, value in dir_samples.items():
            assert np.array_equal(value, raw_samples[key]), key
        assert dir_files == raw_files
        assert {"ext/tubes.csv", "out/manifest.json", "out/background.ppm"} <= dir_files.keys()
        assert len(list((tmp_path / "raw" / "out").glob("frame_*.ppm"))) > 2


class TestStageRoundTrip:
    def test_rerunning_from_intermediates_reproduces_outputs(self, tmp_path):
        frames_dir, detections = make_fixture(tmp_path)
        config = write_config(tmp_path / "config.json")
        first = tmp_path / "e1"
        second = tmp_path / "e2"
        for out in (first, second):
            main([
                "extract",
                "--frames", str(frames_dir),
                "--detections", str(detections),
                "--config", str(config),
                "--out-dir", str(out),
            ])
        assert (first / "tubes.csv").read_bytes() == (second / "tubes.csv").read_bytes()

        s1 = tmp_path / "s1"
        s2 = tmp_path / "s2"
        for out in (s1, s2):
            main([
                "synopsize",
                "--tubes", str(first / "tubes.csv"),
                "--config", str(config),
                "--out-dir", str(out),
            ])
        assert (s1 / "schedule.json").read_bytes() == (s2 / "schedule.json").read_bytes()
        assert (s1 / "metrics.json").read_bytes() == (s2 / "metrics.json").read_bytes()


def snapshot(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def staging_dirs(root):
    return list(root.rglob(f"{cli._STAGING_PREFIX}*"))


class TestPublish:
    """A subcommand's outputs replace ``--out-dir``'s whole, or not at all."""

    def chain(self, tmp_path):
        frames_dir, detections = make_fixture(tmp_path)
        config = write_config(tmp_path / "config.json")
        extracted, syn = tmp_path / "extracted", tmp_path / "syn"
        assert main([
            "extract", "--frames", str(frames_dir), "--detections", str(detections),
            "--config", str(config), "--out-dir", str(extracted),
        ]) == 0
        assert main([
            "synopsize", "--tubes", str(extracted / "tubes.csv"),
            "--config", str(config), "--out-dir", str(syn),
        ]) == 0
        return frames_dir, config, extracted, syn

    def render(self, frames_dir, config, tubes, schedule, out, *extra):
        return main([
            "render", "--schedule", str(schedule), "--tubes", str(tubes),
            "--frames", str(frames_dir), "--config", str(config), "--out-dir", str(out), *extra,
        ])

    def dark_background(self, tmp_path):
        path = tmp_path / "dark.ppm"
        write_image(path, flat_frame(96, 64, value=0))
        return "--background", str(path)

    @pytest.mark.parametrize("previous", [False, True], ids=["fresh", "over a render"])
    def test_late_frame_of_wrong_size_leaves_the_out_dir_as_it_was(
        self, tmp_path, capsys, previous
    ):
        frames_dir, config, extracted, syn = self.chain(tmp_path)
        tubes, schedule, out = extracted / "tubes.csv", syn / "schedule.json", tmp_path / "rendered"
        if previous:
            dark = self.dark_background(tmp_path)
            assert self.render(frames_dir, config, tubes, schedule, out, *dark) == 0
        before = snapshot(out) if previous else None
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        for idx, path in enumerate(sorted(frames_dir.iterdir())):
            write_image(mixed / path.name, read_image(path) if idx < 20 else flat_frame(48, 32))
        capsys.readouterr()
        # synopsis frames 0-14 render before source frame 20 is read
        assert self.render(mixed, config, tubes, schedule, out) == 2
        assert "source frame 20 is 48x32, the background is 96x64" in capsys.readouterr().err
        assert snapshot(out) == before if previous else not out.exists()
        assert staging_dirs(tmp_path) == []

    def test_failed_frame_write_leaves_the_previous_render(self, tmp_path, capsys, monkeypatch):
        frames_dir, config, extracted, syn = self.chain(tmp_path)
        tubes, schedule, out = extracted / "tubes.csv", syn / "schedule.json", tmp_path / "rendered"
        assert self.render(frames_dir, config, tubes, schedule, out) == 0
        before = snapshot(out)
        real_write = cli.write_image

        def failing_write(path, pixels):
            if path.name == "frame_000003.ppm":
                raise OSError("no space left on device")
            real_write(path, pixels)

        monkeypatch.setattr(cli, "write_image", failing_write)
        dark = self.dark_background(tmp_path)
        assert self.render(frames_dir, config, tubes, schedule, out, *dark) == 1
        assert "no space left on device" in capsys.readouterr().err
        assert snapshot(out) == before
        assert staging_dirs(tmp_path) == []

    def test_shorter_render_leaves_only_its_own_frames(self, tmp_path):
        frames_dir, config, extracted, _ = self.chain(tmp_path)
        samples = ("--samples", str(extracted / "background_samples.npz"))
        out = tmp_path / "rendered"
        for length in (10, 3):
            tubes = tmp_path / f"tubes_{length}.csv"
            tubes.write_text("".join(f"{6 + k},1,{4 + 3 * k},20,12,24\n" for k in range(length)))
            schedule = tmp_path / f"schedule_{length}.json"
            schedule.write_text(json.dumps({
                "synopsis_length": length, "placements": [{"per_tube_starts": {"1": 0}}],
            }))
            assert self.render(frames_dir, config, tubes, schedule, out, *samples) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["frames"]) == ["0", "1", "2"]
        frame_names = [f"frame_{index:06d}.ppm" for index in range(3)]
        assert sorted(snapshot(out)) == ["background.ppm", *frame_names, "manifest.json"]

    def test_empty_schedule_removes_the_previous_frames(self, tmp_path, capsys):
        frames_dir, config, extracted, syn = self.chain(tmp_path)
        tubes, out = extracted / "tubes.csv", tmp_path / "rendered"
        assert self.render(frames_dir, config, tubes, syn / "schedule.json", out) == 0
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"synopsis_length": 0, "placements": []}))
        assert self.render(frames_dir, config, tubes, empty, out) == 0
        assert sorted(snapshot(out)) == ["manifest.json"]

    def test_reextract_without_samples_removes_the_old_samples(self, tmp_path, capsys):
        frames_dir, config, extracted, syn = self.chain(tmp_path)
        assert (extracted / "background_samples.npz").is_file()
        # a detection in every frame, fewer frames than the refresh period
        busy, rows = tmp_path / "busy", []
        busy.mkdir()
        for idx in range(8):
            frame = draw_blob(flat_frame(96, 64, value=50), 4 + 3 * idx, 20, 12, 24, value=210)
            write_image(busy / f"{idx:05d}.ppm", frame)
            rows.append(f"{idx + 1},1,{4 + 3 * idx},20,12,24")
        detections = tmp_path / "busy.csv"
        detections.write_text("\n".join(rows) + "\n")
        assert main([
            "extract", "--frames", str(busy), "--detections", str(detections),
            "--config", str(config), "--out-dir", str(extracted),
        ]) == 0
        assert sorted(snapshot(extracted)) == ["extraction_log.json", "tubes.csv"]
        assert main([
            "synopsize", "--tubes", str(extracted / "tubes.csv"),
            "--config", str(config), "--out-dir", str(syn),
        ]) == 0
        capsys.readouterr()
        out = tmp_path / "rendered"
        assert self.render(busy, config, extracted / "tubes.csv", syn / "schedule.json", out) == 2
        samples = extracted / "background_samples.npz"
        assert f"error: background samples not found: {samples}" in capsys.readouterr().err
        assert not out.exists()

    def test_synopsize_of_no_tubes_removes_the_old_metrics(self, tmp_path, capsys):
        _, config, _, syn = self.chain(tmp_path)
        assert {"metrics.json", "metrics.txt"} < set(snapshot(syn))
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main([
            "synopsize", "--tubes", str(empty), "--config", str(config), "--out-dir", str(syn),
        ]) == 0
        assert sorted(snapshot(syn)) == ["schedule.json"]

    def test_stages_sharing_one_out_dir_keep_each_others_files(self, tmp_path):
        frames_dir, detections = make_fixture(tmp_path)
        config = write_config(tmp_path / "config.json")
        out = tmp_path / "deep" / "out"  # parents are made as before
        tubes, schedule = out / "tubes.csv", out / "schedule.json"
        assert main([
            "extract", "--frames", str(frames_dir), "--detections", str(detections),
            "--config", str(config), "--out-dir", str(out),
        ]) == 0
        for argv in (
            ["synopsize", "--tubes", str(tubes), "--out-dir", str(out)],
            ["sweep", "--tubes", str(tubes), "--thresholds", "0.1,0.2", "--out-dir", str(out)],
        ):
            assert main([*argv, "--config", str(config)]) == 0
        assert self.render(frames_dir, config, tubes, schedule, out) == 0
        names = set(snapshot(out))
        assert {
            "tubes.csv", "extraction_log.json", "background_samples.npz", "schedule.json",
            "metrics.json", "metrics.txt", "sweep.txt", "sweep.json", "background.ppm",
            "manifest.json", "frame_000000.ppm",
        } < names
        assert all(os.access(out / name, os.R_OK | os.W_OK) for name in names)
        assert staging_dirs(tmp_path) == []


WRONG_KIND_OUTPUTS = {
    "init --out dir": ("init --out {dir}", "dir"),
    "score --out dir": (
        "score --schedule {syn}/schedule.json --tubes {tubes} --config {config} --out {dir}",
        "dir",
    ),
    "synopsize --pair-table dir": (
        "synopsize --tubes {tubes} --config {config} --out-dir {out} --pair-table {dir}",
        "dir",
    ),
    "synopsize --pair-table under a file": (
        "synopsize --tubes {tubes} --config {config} --out-dir {out} --pair-table {file}/pairs.csv",
        "file",
    ),
    "synopsize --out-dir file": ("synopsize --tubes {tubes} --config {config} --out-dir {file}", "file"),
}


@pytest.mark.parametrize("argv, target", WRONG_KIND_OUTPUTS.values(), ids=WRONG_KIND_OUTPUTS)
def test_output_path_of_the_wrong_kind_exits_2(tmp_path, capsys, argv, target):
    config = write_config(tmp_path / "config.json")
    tubes = tmp_path / "tubes.csv"
    tubes.write_text("1,1,10,10,8,8\n2,1,12,10,8,8\n1,2,40,30,8,8\n")
    syn = tmp_path / "syn"
    assert main(["synopsize", "--tubes", str(tubes), "--config", str(config), "--out-dir", str(syn)]) == 0
    paths = {
        "dir": tmp_path / "a_directory", "file": tmp_path / "a_file", "out": tmp_path / "out",
        "tubes": tubes, "config": config, "syn": syn,
    }
    paths["dir"].mkdir()
    paths["file"].write_text("kept\n")
    capsys.readouterr()
    assert main(argv.format(**paths).split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(paths[target]) in err
    assert list(paths["dir"].iterdir()) == [] and paths["file"].read_text() == "kept\n"
    assert not paths["out"].exists()
    assert staging_dirs(tmp_path) == []


class TestImportHygiene:
    """No subcommand loads scipy: it is the tests' oracle only."""

    def run_isolated(self, script, *args):
        src = Path(cli.__file__).parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        preamble = "import sys\nscipy = lambda: sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        result = subprocess.run(
            [sys.executable, "-c", preamble + textwrap.dedent(script), *map(str, args)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr

    def test_importing_cli_loads_no_scipy(self):
        self.run_isolated("""
            import videosynopsis.cli
            assert not scipy(), scipy()
        """)

    def test_synopsize_and_score_load_no_scipy(self, tmp_path):
        config = write_config(tmp_path / "config.json")
        (tmp_path / "tubes.csv").write_text("1,1,10,10,8,8\n2,1,12,10,8,8\n1,2,40,30,8,8\n")
        self.run_isolated("""
            import numpy as np
            from videosynopsis import cli, pixelops

            out = sys.argv[1]
            common = ["--tubes", f"{out}/tubes.csv", "--config", f"{out}/config.json"]
            assert cli.main(["synopsize", *common, "--out-dir", f"{out}/syn"]) == 0
            assert cli.main(["score", *common, "--schedule", f"{out}/syn/schedule.json"]) == 0
            assert not scipy(), scipy()
            # every pixel kernel is numpy-only
            pixels = np.zeros((5, 5, 3), dtype=np.uint8)
            mask = pixelops.channel_absdiff_sum(pixels, pixels)[0] == 0
            mask = pixelops.binary_close(pixelops.binary_open(mask, 1), 1)
            pixelops.component_slices(mask)
            pixelops.largest_component(mask)
            assert not scipy(), scipy()
        """, tmp_path)

    def test_tube_subcommands_load_no_thread_pool(self, tmp_path):
        # only render writes in threads
        write_config(tmp_path / "config.json")
        (tmp_path / "tubes.csv").write_text("1,1,10,10,8,8\n2,1,12,10,8,8\n1,2,40,30,8,8\n")
        self.run_isolated("""
            pool = lambda: sorted(m for m in sys.modules if m.startswith('concurrent'))
            from videosynopsis import cli
            assert not pool(), pool()

            out = sys.argv[1]
            common = ["--tubes", f"{out}/tubes.csv", "--config", f"{out}/config.json"]
            assert cli.main(["synopsize", *common, "--out-dir", f"{out}/syn"]) == 0
            assert cli.main(["score", *common, "--schedule", f"{out}/syn/schedule.json"]) == 0
            assert not pool(), pool()
        """, tmp_path)

    def test_extract_and_render_load_no_scipy(self, tmp_path):
        frames_dir, detections = make_fixture(tmp_path)
        write_config(tmp_path / "config.json")
        self.run_isolated("""
            from videosynopsis import cli, ingest, render

            calls = []

            def counted(fn):
                def wrapper(*args):
                    calls.append(fn.__name__)
                    return fn(*args)
                return wrapper

            # the names the pixel stages look up, so a miss shows as no calls
            ingest.component_slices = counted(ingest.component_slices)
            render.largest_component = counted(render.largest_component)
            out = sys.argv[1]
            config = ["--config", f"{out}/config.json"]
            assert cli.main([
                "extract", "--frames", f"{out}/frames", "--detections", f"{out}/detections.csv",
                *config, "--out-dir", f"{out}/ext",
            ]) == 0
            assert cli.main(["synopsize", "--tubes", f"{out}/ext/tubes.csv", *config, "--out-dir", f"{out}/syn"]) == 0
            assert cli.main([
                "render", "--schedule", f"{out}/syn/schedule.json", "--tubes", f"{out}/ext/tubes.csv",
                "--frames", f"{out}/frames", *config, "--samples", f"{out}/ext/background_samples.npz",
                "--out-dir", f"{out}/rendered",
            ]) == 0
            assert {"component_slices", "largest_component"} <= set(calls), calls
            assert not scipy(), scipy()
        """, tmp_path)
