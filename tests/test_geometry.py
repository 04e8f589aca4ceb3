"""Bounding-box geometry against a brute-force pixel-membership oracle."""

import numpy as np
import pytest

from videosynopsis.core import BoundingBox, Tube, VideoMeta

from oracles import center_distance, common_frames, intersection_area, iom
from synth import box, make_tube


def pixel_count_intersection(a: BoundingBox, b: BoundingBox) -> int:
    """Count integer pixels belonging to both boxes."""
    count = 0
    for x in range(min(a.left, b.left), max(a.right, b.right)):
        for y in range(min(a.top, b.top), max(a.bottom, b.bottom)):
            if a.left <= x < a.right and a.top <= y < a.bottom:
                if b.left <= x < b.right and b.top <= y < b.bottom:
                    count += 1
    return count


def random_box(rng, frame=0, limit=64):
    left = int(rng.integers(0, limit - 1))
    top = int(rng.integers(0, limit - 1))
    w = int(rng.integers(1, limit - left))
    h = int(rng.integers(1, limit - top))
    return BoundingBox(frame=frame, left=left, top=top, width=w, height=h)


class TestIntersectionArea:
    def test_identical_boxes(self):
        a = box(0, 3, 4, 10, 10)
        assert intersection_area(a, a) == 100

    def test_disjoint_boxes(self):
        assert intersection_area(box(0, 0, 0), box(0, 100, 100)) == 0

    def test_partial_overlap_matches_pixel_count(self):
        a = box(0, 0, 0, 10, 10)
        b = box(0, 5, 5, 10, 10)
        assert pixel_count_intersection(a, b) == 25
        assert intersection_area(a, b) == 25

    def test_matches_pixel_oracle_on_random_boxes(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            assert intersection_area(a, b) == pixel_count_intersection(a, b)

    def test_matches_pixel_oracle_exhaustively_on_subgrid(self):
        grid = [
            BoundingBox(0, left, top, w, h)
            for left in (0, 4)
            for top in (0, 4)
            for w in (1, 5, 9)
            for h in (1, 5, 9)
        ]
        for a in grid:
            for b in grid:
                assert intersection_area(a, b) == pixel_count_intersection(a, b)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            inter = intersection_area(a, b)
            assert inter == intersection_area(b, a)
            assert 0 <= inter <= min(a.area, b.area)


class TestIom:
    def test_identical(self):
        a = box(0, 0, 0, 8, 4)
        assert iom(a, a) == 1.0

    def test_disjoint(self):
        assert iom(box(0, 0, 0), box(0, 50, 50)) == 0.0

    def test_quarter_overlap(self):
        # 25 shared pixels over the smaller box's 100, per the pixel oracle
        a = box(0, 0, 0, 10, 10)
        b = box(0, 5, 5, 10, 10)
        assert pixel_count_intersection(a, b) / min(a.area, b.area) == 0.25
        assert iom(a, b) == 0.25

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            v = iom(a, b)
            assert 0.0 <= v <= 1.0
            assert v == iom(b, a)


class TestCenterDistance:
    def test_coincident_centers(self):
        assert center_distance(box(0, 5, 5), box(0, 5, 5)) == 0.0

    def test_axis_aligned(self):
        # centers (10,10) and (10,30)
        a = box(0, 5, 5, 10, 10)
        b = box(0, 5, 25, 10, 10)
        assert center_distance(a, b) == 20.0

    def test_three_four_five(self):
        a = BoundingBox(0, 0, 0, 2, 2)  # center (1, 1)
        b = BoundingBox(0, 3, 4, 2, 2)  # center (4, 5)
        assert center_distance(a, b) == 5.0

    def test_symmetric(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            assert center_distance(a, b) == center_distance(b, a)


class TestCommonFrames:
    def test_interval_intersection(self):
        t1 = make_tube(1, 1, [0] * 5, [0] * 5)
        t2 = make_tube(2, 4, [0] * 5, [0] * 5)
        assert common_frames(t1, t2) == {4, 5}

    def test_disjoint(self):
        t1 = make_tube(1, 0, [0] * 3, [0] * 3)
        t2 = make_tube(2, 10, [0] * 3, [0] * 3)
        assert common_frames(t1, t2) == set()

    def test_identical_range(self):
        t1 = make_tube(1, 0, [0] * 10, [0] * 10)
        t2 = make_tube(2, 0, [5] * 10, [5] * 10)
        assert common_frames(t1, t2) == set(range(10))
        assert common_frames(t1, t2) == common_frames(t2, t1)


class TestTypeInvariants:
    def test_box_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 0, 0, 10)
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 0, 10, -1)

    def test_box_rejects_negative_origin(self):
        with pytest.raises(ValueError):
            BoundingBox(0, -1, 0, 10, 10)

    def test_tube_rejects_empty_and_unordered(self):
        with pytest.raises(ValueError):
            Tube(id=1, class_label="", start=0, coords=np.zeros((0, 4), dtype=np.int64))
        # frames are row positions, so a per-box frame column is malformed
        with pytest.raises(ValueError):
            Tube(id=1, class_label="", start=0, coords=[(3, 0, 0, 10, 10), (3, 1, 1, 10, 10)])

    def test_tube_length_and_span(self):
        t = make_tube(1, 5, [0, 1, 2], [0, 0, 0])
        assert (t.start, t.end, t.length) == (5, 7, 3)
        assert t.end - t.start + 1 == t.length

    def test_meta_rejects_non_positive(self):
        with pytest.raises(ValueError):
            VideoMeta(0, 10, 10)
        with pytest.raises(ValueError):
            VideoMeta(10, 10, 10, fps=0)


class TestTubeArray:
    def make(self, start=2, coords=((1, 2, 3, 4), (5, 6, 7, 8))):
        return Tube(id=9, class_label="car", start=start, coords=coords)

    def test_coords_read_only_copy(self):
        source = np.array([(1, 2, 3, 4)], dtype=np.int64)
        t = self.make(coords=source)
        source[0, 0] = 50
        assert t.coords.tolist() == [[1, 2, 3, 4]]
        assert t.coords.dtype == np.int64
        with pytest.raises(ValueError):
            t.coords[0, 0] = 7
        with pytest.raises(ValueError):
            t.lefts[0] = 7

    def test_columns_and_boxes_derive_from_coords(self):
        t = self.make()
        assert t.lefts.tolist() == [1, 5]
        assert t.tops.tolist() == [2, 6]
        assert t.widths.tolist() == [3, 7]
        assert t.heights.tolist() == [4, 8]
        assert t.boxes == (BoundingBox(2, 1, 2, 3, 4), BoundingBox(3, 5, 6, 7, 8))
        assert t.boxes is t.boxes  # cached

    def test_equality_compares_contents(self):
        t = self.make()
        assert t == self.make(coords=np.array([(1, 2, 3, 4), (5, 6, 7, 8)]))
        assert t != self.make(start=3)
        assert t != self.make(coords=((1, 2, 3, 4), (5, 6, 7, 9)))
        assert t != self.make(coords=((1, 2, 3, 4),))
        assert t != Tube(id=9, class_label="bus", start=2, coords=t.coords)
        assert t != Tube(id=8, class_label="car", start=2, coords=t.coords)

    @pytest.mark.parametrize(
        "coords",
        [
            [],
            [(1, 2, 3)],
            [[(1, 2, 3, 4)]],
            [(0, 0, 0, 5)],
            [(0, 0, 5, -1)],
            [(-1, 0, 5, 5)],
            [(0, -1, 5, 5)],
        ],
    )
    def test_rejects_bad_boxes(self, coords):
        with pytest.raises(ValueError):
            self.make(coords=coords)

    def test_rejects_negative_start_and_float_coordinates(self):
        with pytest.raises(ValueError):
            self.make(start=-1)
        with pytest.raises(TypeError):
            self.make(coords=[(1.5, 2, 3, 4)])
