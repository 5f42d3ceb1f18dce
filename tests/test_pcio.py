"""Point-cloud, label and CSV table IO, and record-layout checks."""

import struct

import numpy as np
import pytest

from lidardet.errors import FormatError
from lidardet.pcio import (Difficulty, GroundTruthObject, ObjectClass,
                           PointCloud, RECORD_BYTES, finite_float, load_cloud,
                           load_labels, read_table, save_cloud, save_labels,
                           write_table)
from lidardet.boxgeom import Box3D


def _write_floats(path, values):
    path.write_bytes(struct.pack(f"<{len(values)}f", *values))


class TestLoadCloud:
    def test_two_point_file_decodes_in_order(self, tmp_path):
        p = tmp_path / "two.bin"
        _write_floats(p, [1, 2, 0.5, 0.3, -1, 0, 0, 1])
        pc = load_cloud(p)
        assert pc.points.shape == (2, 4)
        np.testing.assert_allclose(pc.points[0], [1, 2, 0.5, 0.3], rtol=1e-6)
        np.testing.assert_allclose(pc.points[1], [-1, 0, 0, 1], rtol=1e-6)

    def test_empty_file_gives_empty_cloud(self, tmp_path):
        p = tmp_path / "empty.bin"
        p.write_bytes(b"")
        pc = load_cloud(p)
        assert len(pc.points) == 0

    def test_partial_record_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\x00" * 20)
        assert 20 % RECORD_BYTES != 0
        with pytest.raises(FormatError):
            load_cloud(p)

    def test_non_finite_value_rejected(self, tmp_path):
        p = tmp_path / "nan.bin"
        _write_floats(p, [1, 2, float("nan"), 0.3])
        with pytest.raises(FormatError):
            load_cloud(p)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_cloud(tmp_path / "absent.bin")


class TestCloudRoundtrip:
    def test_save_load_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-50, 50, size=(257, 4)).astype(np.float32)
        pts[:, 3] = rng.uniform(0, 1, 257).astype(np.float32)
        pc = PointCloud(points=pts.astype(np.float64), frame_id="rt")
        path = tmp_path / "rt.bin"
        save_cloud(pc, path)
        back = load_cloud(path)
        # float32 storage: values must survive bit-exactly, not just approximately
        assert np.array_equal(back.points.astype(np.float32), pts)

    def test_file_length_matches_record_count(self, tmp_path):
        pc = PointCloud(points=np.zeros((13, 4)), frame_id="n")
        path = tmp_path / "len.bin"
        save_cloud(pc, path)
        assert path.stat().st_size == 13 * RECORD_BYTES


class TestLabels:
    def test_single_line_parses(self, tmp_path):
        p = tmp_path / "one.txt"
        p.write_text("Car 10.0 0.0 0.8 4.0 1.8 1.5 0.0 Easy\n")
        objs = load_labels(p)
        assert len(objs) == 1
        o = objs[0]
        assert o.class_id is ObjectClass.CAR
        assert o.difficulty is Difficulty.EASY
        assert (o.box.cx, o.box.cy, o.box.cz) == (10.0, 0.0, 0.8)
        assert (o.box.l, o.box.w, o.box.h, o.box.yaw) == (4.0, 1.8, 1.5, 0.0)

    def test_roundtrip_within_tolerance(self, tmp_path):
        rng = np.random.default_rng(42)
        objs = []
        for i in range(5):
            objs.append(GroundTruthObject(
                class_id=ObjectClass.CAR,
                box=Box3D(*rng.uniform(0.5, 20, 6), rng.uniform(-3.1, 3.1)),
                difficulty=list(Difficulty)[i % 3]))
        path = tmp_path / "five.txt"
        save_labels(objs, path)
        back = load_labels(path)
        assert len(back) == 5
        for a, b in zip(objs, back):
            assert a.class_id == b.class_id and a.difficulty == b.difficulty
            for f in ("cx", "cy", "cz", "l", "w", "h", "yaw"):
                assert abs(getattr(a.box, f) - getattr(b.box, f)) < 1e-6

    def test_wrong_arity_reports_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("Car 10.0 0.0 0.8 4.0 1.8 1.5 0.0 Easy\nCar 1 2 3 4 5\n")
        with pytest.raises(FormatError) as err:
            load_labels(p)
        assert "2" in str(err.value)

    def test_non_utf8_byte_reports_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"# header\nCar 10.0 0.0 0.8 4.0 1.8 1.5 0.0 Easy\n"
                      b"Car 10.0 0.0 0.8 4.0 1.\xff 1.5 0.0 Easy\n")
        with pytest.raises(FormatError) as err:
            load_labels(p)
        assert str(err.value) == f"{p}:3: not UTF-8: byte 0xff at offset 70"

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# header\n\nCar 10.0 0.0 0.8 4.0 1.8 1.5 0.0 Hard\n")
        objs = load_labels(p)
        assert len(objs) == 1 and objs[0].difficulty is Difficulty.HARD


class TestTable:
    HEADER = ("name", "count", "value")
    TYPES = (str, int, finite_float)

    def test_cells_are_written_by_type(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, self.HEADER,
                    [("a", 3, 0.1 + 0.2), ("b", np.int64(4), np.float64(2.6232162755018433)),
                     ("", 0, np.float32(0.5)), ("d", 1, None)])
        assert path.read_text() == ("name,count,value\na,3,0.30000000000000004\n"
                                    "b,4,2.6232162755018433\n,0,0.5\nd,1,\n")

    def test_roundtrip_is_exact(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [["x:0", 7, 0.1 + 0.2], ["", -1, -1e-300], ["y", 0, 123456.789e10]]
        write_table(path, self.HEADER, rows)
        assert read_table(path, self.HEADER, self.TYPES) == rows
        write_table(path, self.HEADER, [])
        assert read_table(path, self.HEADER, self.TYPES) == []

    @pytest.mark.parametrize("text, where", [
        ("", ":1: expected header"),
        ("name,count\nx,1\n", ":1: expected header"),
        ("name,count,value\nx,1,2.0\nx,1\n", ":3: expected 3 fields, got 2"),
        ("name,count,value\nx,1,2.0,4\n", ":2: expected 3 fields, got 4"),
        ("name,count,value\nx,1.5,2.0\n", ":2: bad count '1.5'"),
        ("name,count,value\nx,1,abc\n", ":2: bad value 'abc'"),
        ("name,count,value\nx,1,nan\n", ":2: bad value 'nan'"),
        ("name,count,value\nx,1,-inf\n", ":2: bad value '-inf'"),
        pytest.param("a" * 200_000 + "\n", ":1: field larger than field limit (131072)",
                     id="oversized-header-field"),
        pytest.param("name,count,value\nx,1,2.0\n" + "b" * 200_000 + ",1,2.0\n",
                     ":3: field larger than field limit", id="oversized-row-field"),
        ("name,count,value\nx,1,2\udcff\n", ":2: not UTF-8: byte 0xff at offset 22"),
        ("n\udcc3me,count,value\n", ":1: not UTF-8: byte 0xc3 at offset 1")])
    def test_errors_name_file_and_line(self, tmp_path, text, where):
        path = tmp_path / "bad.csv"
        # lone surrogates stand for raw bytes that are not UTF-8
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(FormatError) as err:
            read_table(path, self.HEADER, self.TYPES)
        assert str(err.value).startswith(f"{path}{where}")

    def test_plain_float_column_keeps_nan(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("v\nnan\ninf\n")
        (nan,), (inf,) = read_table(path, ("v",), (float,))
        assert np.isnan(nan) and inf == float("inf")
