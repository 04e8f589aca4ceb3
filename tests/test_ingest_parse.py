"""Annotation parsing, serialization round-trip, and gap interpolation."""

import io
import math
import random
import re

import numpy as np
import pytest

from videosynopsis import ingest
from videosynopsis.core import BoundingBox, VideoMeta
from videosynopsis.ingest import (
    AnnotationError,
    fill_gaps,
    parse_annotations,
    serialize_annotations,
)

from synth import random_instance

META = VideoMeta(width=640, height=480, frame_count=500)


def parse(text, meta=META):
    return parse_annotations(io.StringIO(text), meta)


class TestParse:
    def test_single_record_layout(self):
        tubes = parse("1,3,100,200,50,80,1,1,1\n")
        assert len(tubes) == 1
        t = tubes[0]
        assert t.id == 3
        assert t.boxes == (BoundingBox(frame=0, left=100, top=200, width=50, height=80),)

    def test_optional_fields_may_be_missing(self):
        tubes = parse("1,3,100,200,50,80\n")
        assert tubes[0].boxes[0].width == 50

    def test_gap_interpolation(self):
        tubes = parse("1,7,0,0,10,10,1,1,1\n4,7,30,0,10,10,1,1,1\n")
        lefts = [b.left for b in tubes[0].boxes]
        frames = [b.frame for b in tubes[0].boxes]
        assert frames == [0, 1, 2, 3]
        assert lefts == [0, 10, 20, 30]

    def test_empty_stream(self):
        assert parse("") == []

    def test_tubes_sorted_by_source_start(self):
        tubes = parse("9,2,0,0,5,5\n1,8,0,0,5,5\n")
        assert [t.id for t in tubes] == [8, 2]

    def test_wrong_field_count_mentions_line(self):
        with pytest.raises(AnnotationError, match="line 2"):
            parse("1,1,0,0,5,5\n1,2,3\n")

    def test_non_numeric_mentions_line(self):
        with pytest.raises(AnnotationError, match="line 1"):
            parse("a,1,0,0,5,5\n")

    @pytest.mark.parametrize("row", ["1,1,inf,2,3,4", "1,1,0,0,5,-inf", "inf,1,0,0,5,5"])
    def test_infinite_field_mentions_line(self, row):
        with pytest.raises(AnnotationError, match="^line 2: "):
            parse(f"1,2,0,0,5,5\n{row}\n")

    @pytest.mark.parametrize("row", ["2,1,1e19,0,5,5", "2,1,0,-1e19,5,5", "1e19,1,0,0,5,5"])
    def test_value_beyond_64_bits_mentions_line(self, row):
        with pytest.raises(AnnotationError, match="^line 2: .*beyond 64 bits"):
            parse(f"1,1,0,0,5,5\n{row}\n3,1,0,0,5,5\n")

    def test_id_beyond_64_bits_mentions_line(self):
        with pytest.raises(AnnotationError, match="^line 2: id 10{19} has a value beyond 64 bits"):
            parse("1,1,0,0,5,5\n1,1e19,0,0,5,5\n")

    def test_box_end_wrapping_int64_rejected(self):
        # left + width wraps to a large positive end; the box lies left of the frame
        huge = -5 * 10**18
        with pytest.raises(AnnotationError, match="^line 1: box for id 1 lies fully outside"):
            parse(f"1,1,{huge},0,{huge},5\n")

    def test_duplicate_record_mentions_both_lines(self):
        with pytest.raises(AnnotationError, match="line 3.*line 1"):
            parse("5,1,0,0,5,5\n6,1,0,0,5,5\n5,1,9,9,5,5\n")

    def test_fully_outside_box_rejected(self):
        with pytest.raises(AnnotationError, match="outside"):
            parse("1,1,900,900,10,10\n")

    def test_fully_outside_box_names_its_line(self):
        # rows out of frame order: the line is the offending row's own
        with pytest.raises(AnnotationError, match="^line 3: box for id 1 "):
            parse("3,1,0,0,5,5\n2,1,0,0,5,5\n1,1,900,900,5,5\n4,1,0,0,5,5\n")

    def test_partially_outside_box_clamped(self):
        tubes = parse("1,1,630,470,50,50\n")
        b = tubes[0].boxes[0]
        assert (b.left, b.top, b.width, b.height) == (630, 470, 10, 10)

    def test_frame_zero_rejected(self):
        with pytest.raises(AnnotationError):
            parse("0,1,0,0,5,5\n")


# spellings of a number that both readers take; odd tokens that only
# ``float()`` reads, that truncate differently from floor, that are not
# finite, lie beyond 64 bits or are no number at all
SPELLINGS = ["{}", "+{}", " {} ", "{}e0", "\t{}", "{} \u00a0"]
ODD_TOKENS = [
    "1_0", "\u0663", "1e3", "-2.5", "inf", "-inf", "nan", "1e19", "-1e19", "9.3e18", "", "x", "0x10",
]
ERROR_KINDS = [
    "expected 6 to 9 comma-separated fields",
    "non-numeric field",
    "duplicate record",
    "must be >= 1",
    "beyond 64 bits",
    "lies fully outside",
]


def random_annotation_text(rng: random.Random) -> str:
    """One annotation text: rows of one field count, each trouble (a mixed
    count, an odd token, an empty optional field, an error row, a
    whitespace-only or comment line) now and then."""
    k = rng.choice([6, 7, 8, 9] * 6 + [5, 10])
    rows = []
    for tid in range(1, rng.randint(1, 4) + 1):
        for frame in rng.sample(range(1, 16), rng.randint(1, 5)):
            # half steps give .5 ties; the ranges reach past every frame edge
            box = [rng.randint(-80, 1300) / 2, rng.randint(-80, 980) / 2]
            box += [rng.randint(0, 120) / 2, rng.randint(0, 120) / 2]
            rows.append([frame, tid, *box])
    rng.shuffle(rows)
    if rng.random() < 0.08:
        rows.append(list(rng.choice(rows)))  # duplicate (frame, id)
    if rng.random() < 0.05:
        rng.choice(rows)[0] = rng.choice([0, -1, 0.5])
    lines = []
    for row in rows:
        fields = [rng.choice(SPELLINGS).format(f"{v:g}") if rng.random() < 0.1 else f"{v:g}" for v in row]
        fields += [
            rng.choice(["1", "0.3", "2", "-1", "0"]) if rng.random() < 0.3 else "1",
            rng.choice(["car", " car ", "", "a b", "person\t"]) if rng.random() < 0.3 else "1",
            "0.5" if rng.random() < 0.1 else "1",
            "1",
        ]
        lines.append(fields[:k])
    if rng.random() < 0.06:  # one row of another field count
        row = rng.choice(lines)
        row[:] = (row + ["1"] * 10)[: rng.choice([5, 6, 7, 8, 9, 10])]
    if rng.random() < 0.15:
        row = rng.choice(lines)
        row[rng.randrange(len(row))] = rng.choice(ODD_TOKENS)
    row = rng.choice(lines)
    if len(row) > 6 and rng.random() < 0.08:  # an empty optional field
        row[6 if len(row) < 9 else rng.choice([6, 8])] = ""
    lines = [",".join(fields) for fields in lines]
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        blank = rng.choice(["  ", "\t", "# comment"]) if rng.random() < 0.2 else ""
        lines.insert(rng.randint(0, len(lines)), blank)
    end = "\r\n" if rng.random() < 0.2 else "\n"
    return end.join(lines) + (end if rng.random() < 0.8 else "")


def outcome(text):
    try:
        return parse(text)
    except AnnotationError as exc:
        return str(exc)


class TestParseEquivalence:
    """The numpy pass gives what the per-row loop gives, or leaves the text to it."""

    def test_random_texts_match_per_row_path(self, monkeypatch):
        rng = random.Random(31)
        taken = errors = 0
        kinds = set()
        for _ in range(2500):
            text = random_annotation_text(rng)
            lines = io.StringIO(text).readlines()
            fast = ingest._fast_rows(lines)
            with monkeypatch.context() as m:
                m.setattr(ingest, "_fast_rows", lambda lines: None)
                expected = outcome(text)
            assert outcome(text) == expected, text
            if fast is not None:
                taken += 1
                slow = ingest._parse_rows(lines)
                assert fast.table.tolist() == slow.table.tolist(), text
                assert fast.labels == slow.labels, text
                assert fast.lines.tolist() == slow.lines.tolist(), text
            if isinstance(expected, str):
                errors += 1
                kinds.update(kind for kind in ERROR_KINDS if kind in expected)
        # both paths and every error kind are exercised
        assert taken > 1000 and errors > 300
        assert kinds == set(ERROR_KINDS)

    @pytest.mark.parametrize("text", [
        "1,1,0,0,5,5\r\n\r\n2,1,0,0,5,5\r\n",
        "1,1,0,0,5,5,1,car \n2,1,0,0,5,5,1, car\t\n",
        "1,1,0,0,5,5,1, a b ,0.5\n",
        "1,1,0,0,5,5\n\n\n3,1,9,9,5,5\n",
        "1,1,0,0,5,5,,car,\n",
    ])
    def test_fast_path_takes_plain_texts(self, text):
        lines = io.StringIO(text).readlines()
        fast = ingest._fast_rows(lines)
        assert fast is not None
        slow = ingest._parse_rows(lines)
        assert (fast.table.tolist(), fast.labels, fast.lines.tolist()) == (
            slow.table.tolist(), slow.labels, slow.lines.tolist()
        )

    @pytest.mark.parametrize("text", [
        "1_0,1,0,0,5,5\n",
        "\u0663,1,0,0,5,5\n",
        "1,1,0,0,5,5\n  \n",
        "# header\n1,1,0,0,5,5\n",
        "1,1,0,0,5,5,1,car,1\n1,2,0,0,5,5,1,car\n",
        "1,1,0,0,5,5,1,car\n1,2,0,0,5,5,1\n1,3,0,0,5,5,1,a,b\n",
    ])
    def test_unusual_texts_left_to_per_row_loop(self, text):
        assert ingest._fast_rows(io.StringIO(text).readlines()) is None


class TestUnreadColumns:
    """Confidence and visibility are accepted and not read."""

    def test_confidence_zero_and_half_both_give_boxes(self):
        tubes = parse("1,1,0,0,5,5,0,car,1\n1,2,9,9,5,5,0.5,car,1\n")
        assert [(t.id, t.coords.tolist()) for t in tubes] == [
            (1, [[0, 0, 5, 5]]), (2, [[9, 9, 5, 5]])
        ]

    @pytest.mark.parametrize("confidence, visibility", [
        ("x", "1"), ("1", "x"), ("", ""), ("x", ""),
    ])
    def test_non_numeric_fields_parse_alike(self, confidence, visibility):
        text = f"1,1,0,0,5,5,{confidence},car,{visibility}\n2,1,4,4,5,5,1,car,1\n"
        lines = io.StringIO(text).readlines()
        fast = ingest._fast_rows(lines)
        assert fast is not None
        slow = ingest._parse_rows(lines)
        assert (fast.table.tolist(), fast.labels, fast.lines.tolist()) == (
            slow.table.tolist(), slow.labels, slow.lines.tolist()
        )
        assert parse(text) == parse("1,1,0,0,5,5,1,car,1\n2,1,4,4,5,5,1,car,1\n")


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        rng = np.random.default_rng(21)
        tubes = random_instance(rng, 12, META)
        buf = io.StringIO()
        serialize_annotations(tubes, buf)
        buf.seek(0)
        again = parse_annotations(buf, META)
        assert again == tubes

    def test_serialized_rows_are_one_based(self):
        tubes = parse("1,1,5,5,5,5\n")
        buf = io.StringIO()
        serialize_annotations(tubes, buf)
        assert buf.getvalue().startswith("1,1,5,5,5,5")

    @pytest.mark.parametrize("label", ["a,b", "a\nb", "a\rb", "a,"])
    def test_label_that_would_split_its_rows_is_refused(self, label):
        # a detector may report any label, and extraction keeps it as given
        meta = VideoMeta(32, 32, 3)

        def detector(index, pixels):
            return [ingest.DetectionRecord(id=4, left=2, top=2, width=8, height=8, class_label=label)]

        frames = [np.zeros((32, 32, 3), dtype=np.uint8)] * 3
        result = ingest.run_extraction(frames, detector, ingest.EmptyFrameConfig(), meta)
        tubes = result.tubes + parse("1,9,0,0,5,5,1,car,1\n", meta)
        assert [t.class_label for t in tubes] == [label, "car"]
        buf = io.StringIO()
        with pytest.raises(ValueError, match=f"^tube 4: class label {re.escape(repr(label))} "):
            serialize_annotations(tubes, buf)
        assert buf.getvalue() == ""


class TestFillGaps:
    def test_gapless_untouched(self):
        tubes = parse("1,1,0,0,5,5\n2,1,5,0,5,5\n")
        assert tubes[0].boxes == (BoundingBox(0, 0, 0, 5, 5), BoundingBox(1, 5, 0, 5, 5))

    def test_all_coordinates_interpolated(self):
        mid = parse("1,1,0,10,10,20\n3,1,10,20,20,10\n")[0].boxes[1]
        assert (mid.frame, mid.left, mid.top, mid.width, mid.height) == (1, 5, 15, 15, 15)


def scalar_fill_gaps(boxes):
    """The per-box interpolation loop that ``fill_gaps`` replaced, as an oracle."""
    out = [boxes[0]]
    for prev, nxt in zip(boxes, boxes[1:]):
        gap = nxt.frame - prev.frame
        for k in range(1, gap):
            f = k / gap
            out.append(
                BoundingBox(
                    frame=prev.frame + k,
                    left=math.floor(prev.left + (nxt.left - prev.left) * f + 0.5),
                    top=math.floor(prev.top + (nxt.top - prev.top) * f + 0.5),
                    width=math.floor(prev.width + (nxt.width - prev.width) * f + 0.5),
                    height=math.floor(prev.height + (nxt.height - prev.height) * f + 0.5),
                )
            )
        out.append(nxt)
    return tuple(out)


class TestArrayFillGaps:
    def test_matches_scalar_oracle_on_random_gappy_tubes(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            m = int(rng.integers(1, 8))
            frames = np.cumsum(rng.integers(1, 7, size=m)) + int(rng.integers(0, 50))
            coords = rng.integers(1, 200, size=(m, 4))
            boxes = tuple(BoundingBox(int(f), *map(int, c)) for f, c in zip(frames, coords))
            expected = scalar_fill_gaps(boxes)
            filled = fill_gaps(frames, coords)
            got = tuple(BoundingBox(int(frames[0]) + k, *row) for k, row in enumerate(filled.tolist()))
            assert got == expected

    def test_half_ties_and_negative_deltas_round_up(self):
        # gap 2 puts the midpoint on an exact .5 for odd deltas, upward
        # and downward alike; gap 4 gives quarter steps
        frames = np.array([0, 2, 6])
        coords = np.array([(0, 9, 1, 8), (3, 4, 8, 1), (0, 4, 1, 2)])
        boxes = tuple(BoundingBox(int(f), *map(int, c)) for f, c in zip(frames, coords))
        filled = fill_gaps(frames, coords)
        assert filled[1].tolist() == [2, 7, 5, 5]  # 1.5, 6.5, 4.5, 4.5
        got = tuple(BoundingBox(k, *row) for k, row in enumerate(filled.tolist()))
        assert got == scalar_fill_gaps(boxes)

    def test_gapless_input_returned_as_is(self):
        frames = np.array([4, 5, 6])
        coords = np.array([(1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12)])
        assert fill_gaps(frames, coords) is coords

    def test_rejects_unordered_frames(self):
        with pytest.raises(ValueError, match="increasing"):
            fill_gaps(np.array([3, 3]), np.ones((2, 4), dtype=np.int64))
