"""Corpus format, domain types, and their invariants."""

import ast
import csv
import errno
import hashlib
import io
import math
import os
import pickle
import threading
import time
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from signpipe import landmarks
from signpipe.errors import CorpusFormatError, ValidationError
from signpipe.landmarks import (
    CORPUS_HEADER,
    KIND_CAPACITY,
    LabelMap,
    LandmarkFrame,
    LandmarkKind,
    SignSample,
    kind_from_code,
    kind_from_name,
    read_corpus,
    read_label_map,
    write_corpus,
    write_label_map,
)
from signpipe.netpipe import sample_from_body
from signpipe.synth import make_synthetic_samples

from conftest import make_sample, package_sites, scoped_nodes, sign_samples

HEADER = ",".join(CORPUS_HEADER)


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def read_records_refused(fh):
    raise AssertionError("a corpus with no fault was read record by record")


class TestKinds:
    def test_exactly_four_variants_with_stable_codes(self):
        assert {k.value for k in LandmarkKind} == {0, 1, 2, 3}
        assert kind_from_code(3) is LandmarkKind.RIGHT_HAND
        assert kind_from_name("face") is LandmarkKind.FACE

    def test_capacities(self):
        assert KIND_CAPACITY[LandmarkKind.FACE] == 468
        assert KIND_CAPACITY[LandmarkKind.POSE] == 33
        assert KIND_CAPACITY[LandmarkKind.LEFT_HAND] == 21
        assert KIND_CAPACITY[LandmarkKind.RIGHT_HAND] == 21

    def test_unknown_names_and_codes_rejected(self):
        with pytest.raises(ValidationError):
            kind_from_name("torso")
        with pytest.raises(ValidationError):
            kind_from_code(4)


class TestFrameAndSample:
    def test_landmark_index_capacity_enforced(self):
        SignSample("s", [LandmarkFrame(0, LandmarkKind.LEFT_HAND, 20, 0.1, 0.2, 0.3)])
        for kind, index in [(LandmarkKind.LEFT_HAND, 21), (LandmarkKind.FACE, 468)]:
            frame = LandmarkFrame(0, kind, index, 0.1, 0.2, 0.3)
            with pytest.raises(ValidationError,
                               match="row 0: landmark index outside its kind's capacity"):
                SignSample("s", [frame])

    def test_negative_frame_index_rejected(self):
        frame = LandmarkFrame(-1, LandmarkKind.POSE, 0, 0.1, 0.2, 0.3)
        with pytest.raises(ValidationError, match="row 0: negative frame index"):
            SignSample("s", [frame])

    def test_infinite_coordinate_rejected_nan_allowed(self):
        frame = LandmarkFrame(0, LandmarkKind.POSE, 0, math.inf, 0.2, 0.3)
        with pytest.raises(ValidationError, match="row 0: infinite coordinate"):
            SignSample("s", [frame])
        f = LandmarkFrame(0, LandmarkKind.POSE, 0, math.nan, 0.2, math.nan)
        assert math.isnan(f.x) and math.isnan(f.z)
        assert SignSample("s", [f]).frames[0] == f

    def test_nan_aware_equality(self):
        a = LandmarkFrame(0, LandmarkKind.POSE, 0, math.nan, 0.2, 0.3)
        b = LandmarkFrame(0, LandmarkKind.POSE, 0, math.nan, 0.2, 0.3)
        assert a == b

    def test_sample_requires_frames_and_monotone_frame_index(self):
        f0 = LandmarkFrame(1, LandmarkKind.POSE, 0, 0.1, 0.2, 0.3)
        f1 = LandmarkFrame(0, LandmarkKind.POSE, 1, 0.1, 0.2, 0.3)
        with pytest.raises(ValidationError):
            SignSample("s", [])
        with pytest.raises(ValidationError):
            SignSample("s", [f0, f1])
        with pytest.raises(ValidationError):
            SignSample("", [f1])

    def test_label_range(self):
        f = LandmarkFrame(0, LandmarkKind.POSE, 0, 0.1, 0.2, 0.3)
        SignSample("s", [f], 0)
        SignSample("s", [f], 299)  # the model and label map bound it, not the sample
        SignSample("s", [f], None)
        with pytest.raises(ValidationError):
            SignSample("s", [f], -1)

    def test_bad_frames_construct_and_compare_without_a_check(self):
        a = LandmarkFrame(-1, LandmarkKind.POSE, 99, math.nan, math.inf)
        b = LandmarkFrame(-1, LandmarkKind.POSE, 99, math.nan, math.inf)
        assert a == b and not a != b
        assert a != b._replace(z=0.5) and not a == b._replace(z=0.5)

    @pytest.mark.parametrize("fields, reason", [
        ((-1, LandmarkKind.POSE, 11, 0.1, 0.2, 0.3), "negative frame index"),
        ((0, LandmarkKind.POSE, 33, 0.1, 0.2, 0.3),
         "landmark index outside its kind's capacity"),
        ((0, LandmarkKind.POSE, 11, 0.1, -math.inf, 0.3), "infinite coordinate"),
    ])
    def test_every_packer_names_a_bad_row_alike(self, tmp_path, fields, reason):
        frame = LandmarkFrame(*fields)
        with pytest.raises(ValidationError) as packed:
            SignSample("s", [frame])
        assert str(packed.value) == f"row 0: {reason}"
        with pytest.raises(ValidationError) as received:
            sample_from_body({"sample": {"id": "s", "frames": [
                [frame.frame_index, frame.kind.value, frame.landmark_index,
                 frame.x, frame.y, frame.z]]}})
        assert str(received.value) == f"row 0: {reason}"
        corpus = write_text(tmp_path / "c.csv", f"{HEADER}\ns,{frame.frame_index},pose,"
                            f"{frame.landmark_index},{frame.x},{frame.y},{frame.z},\n")
        with pytest.raises(CorpusFormatError) as read:
            read_corpus(corpus)
        assert str(read.value) == f"sample 's': row 0: {reason} (line 2)"

    @settings(deadline=None)
    @given(sign_samples())
    def test_iterated_rows_repack_into_the_same_sample(self, s):
        rows = list(s.frames)
        assert SignSample(s.sample_id, rows, s.label) == s
        assert all(type(f) is LandmarkFrame and type(f.kind) is LandmarkKind for f in rows)
        assert all(s.frames[i] == f for i, f in enumerate(rows))


class TestLabelMap:
    def test_bijective_lookup(self):
        m = LabelMap(("hello", "cloud", "rain"))
        assert m.gloss_for(1) == "cloud"
        assert len(m) == 3

    def test_rejects_duplicates_empties_and_bad_ids(self):
        with pytest.raises(ValidationError):
            LabelMap(())
        with pytest.raises(ValidationError):
            LabelMap(("a", "a"))
        with pytest.raises(ValidationError):
            LabelMap(("a", ""))
        m = LabelMap(("a", "b"))
        with pytest.raises(ValidationError):
            m.gloss_for(2)

    def test_round_trip_file(self, tmp_path):
        m = LabelMap(tuple(f"g{i}" for i in range(250)))
        p = tmp_path / "labels.json"
        write_label_map(m, p)
        assert read_label_map(p) == m


class TestReadCorpus:
    def test_single_row(self, tmp_path):
        p = write_text(tmp_path / "c.csv",
                       f"{HEADER}\ns1,0,right_hand,0,0.5,0.5,0.0,7\n")
        samples = read_corpus(p)
        assert len(samples) == 1
        s = samples[0]
        assert s.sample_id == "s1" and s.label == 7 and len(s.frames) == 1
        f = s.frames[0]
        assert (f.kind, f.landmark_index, f.x, f.y, f.z) == (
            LandmarkKind.RIGHT_HAND, 0, 0.5, 0.5, 0.0)

    def test_header_only_gives_empty_list(self, tmp_path):
        p = write_text(tmp_path / "c.csv", f"{HEADER}\n")
        assert read_corpus(p) == []

    def test_unknown_kind_names_line(self, tmp_path):
        p = write_text(tmp_path / "c.csv",
                       f"{HEADER}\ns1,0,torso,0,0.5,0.5,0.0,7\n")
        with pytest.raises(CorpusFormatError, match=r"line 2"):
            read_corpus(p)

    def test_bad_header_rejected(self, tmp_path):
        p = write_text(tmp_path / "c.csv", "id,frame\ns1,0\n")
        with pytest.raises(CorpusFormatError, match=r"header"):
            read_corpus(p)

    def test_wrong_column_count_positioned(self, tmp_path):
        p = write_text(tmp_path / "c.csv",
                       f"{HEADER}\ns1,0,pose,0,0.5,0.5,0.0,7\ns1,1,pose,0\n")
        with pytest.raises(CorpusFormatError, match=r"line 3"):
            read_corpus(p)

    def test_out_of_range_landmark_index_positioned(self, tmp_path):
        p = write_text(tmp_path / "c.csv",
                       f"{HEADER}\ns1,0,left_hand,21,0.5,0.5,0.0,7\n")
        with pytest.raises(ValidationError, match=r"line 2"):
            read_corpus(p)

    def test_non_numeric_coordinate_positioned(self, tmp_path):
        p = write_text(tmp_path / "c.csv",
                       f"{HEADER}\ns1,0,pose,0,abc,0.5,0.0,7\n")
        with pytest.raises(CorpusFormatError, match=r"line 2"):
            read_corpus(p)

    def test_inconsistent_label_rejected(self, tmp_path):
        p = write_text(
            tmp_path / "c.csv",
            f"{HEADER}\ns1,0,pose,0,0.5,0.5,0.0,7\ns1,1,pose,0,0.5,0.5,0.0,8\n",
        )
        with pytest.raises(CorpusFormatError, match=r"label"):
            read_corpus(p)

    def test_decreasing_frame_index_rejected(self, tmp_path):
        p = write_text(
            tmp_path / "c.csv",
            f"{HEADER}\ns1,1,pose,0,0.5,0.5,0.0,7\ns1,0,pose,0,0.5,0.5,0.0,7\n",
        )
        with pytest.raises(CorpusFormatError, match=r"line 3"):
            read_corpus(p)

    def test_interleaved_samples_grouped(self, tmp_path):
        p = write_text(
            tmp_path / "c.csv",
            f"{HEADER}\n"
            "a,0,pose,0,0.1,0.1,,1\n"
            "b,0,pose,0,0.2,0.2,,2\n"
            "a,1,pose,0,0.3,0.3,,1\n",
        )
        samples = read_corpus(p)
        assert [s.sample_id for s in samples] == ["a", "b"]
        assert len(samples[0].frames) == 2

    def test_errors_name_the_physical_line(self, tmp_path):
        # A quoted sample_id may hold a line break, as write_corpus writes it:
        # records 2 and 3 span lines 2-3 and 4-5, and the bad x is on line 6.
        p = write_text(
            tmp_path / "c.csv",
            f"{HEADER}\n"
            '"two\nlines",0,pose,0,0.1,0.1,,1\n'
            '"two\nlines",1,pose,0,0.1,0.1,,1\n'
            "b,0,pose,0,abc,0.1,,1\n",
        )
        with pytest.raises(CorpusFormatError, match=r"'abc' \(line 6\)$"):
            read_corpus(p)
        p = write_text(
            tmp_path / "c.csv",
            f"{HEADER}\n"
            '"two\nlines",0,pose,0,0.1,0.1,,1\n\n'
            '"two\nlines",0,pose,0,0.1,0.1,,1\n',
        )
        with pytest.raises(CorpusFormatError, match=r"repeats.*\(line 5\)$"):
            read_corpus(p)

    def test_empty_label_is_none(self, tmp_path):
        p = write_text(tmp_path / "c.csv", f"{HEADER}\ns1,0,pose,0,0.5,0.5,0.0,\n")
        assert read_corpus(p)[0].label is None

    def test_labels_that_differ_in_text_only(self, tmp_path):
        # "7" and "07" are one label. A chunk that holds both is not taken
        # by the column reader, so at 512 the file is read record by record.
        p = write_text(
            tmp_path / "c.csv",
            f"{HEADER}\n"
            "s1,0,pose,0,0.5,0.5,0.0,7\n"
            "s1,1,pose,0,0.5,0.5,,07\n"
            "s2,0,face,3,0.1,0.2,0.3,\n",
        )
        for chunk_rows in (1, 512):
            with mock.patch.object(landmarks, "_CHUNK_ROWS", chunk_rows):
                samples = read_corpus(p)
            assert [(s.sample_id, s.label, len(s.frames)) for s in samples] == [
                ("s1", 7, 2), ("s2", None, 1)]
            assert math.isnan(samples[0].frames[1].z)

    def test_labels_written_two_ways_take_the_column_read(self, tmp_path, monkeypatch):
        records = ("s1,0,pose,0,0.5,0.5,0.0,{}\n"
                   "s1,1,pose,0,0.5,0.5,,{}\n"
                   "s2,0,face,3,0.1,0.2,0.3,\n")
        plain = write_text(tmp_path / "a.csv", HEADER + "\n" + records.format("7", "7"))
        mixed = write_text(tmp_path / "b.csv", HEADER + "\n" + records.format("7", "07"))
        monkeypatch.setattr(landmarks, "_read_records", read_records_refused)
        assert read_corpus(mixed) == read_corpus(plain)

    def test_label_and_empty_label_differ(self, tmp_path):
        p = write_text(
            tmp_path / "c.csv",
            f"{HEADER}\ns1,0,pose,0,0.5,0.5,0.0,7\ns1,1,pose,0,0.5,0.5,0.0,\n",
        )
        with pytest.raises(CorpusFormatError,
                           match=r"^inconsistent label for sample 's1' \(line 3\)$"):
            read_corpus(p)

    def test_label_that_changes_between_runs(self, tmp_path):
        p = write_text(
            tmp_path / "c.csv",
            f"{HEADER}\n"
            "A,0,pose,0,0.1,0.1,,1\n"
            "B,0,pose,0,0.2,0.2,,1\n"
            "A,1,pose,0,0.3,0.3,,2\n",
        )
        with pytest.raises(CorpusFormatError,
                           match=r"^inconsistent label for sample 'A' \(line 4\)$"):
            read_corpus(p)

    def test_a_negative_label_names_its_samples_first_line(self, tmp_path):
        p = write_text(tmp_path / "c.csv", rows_csv([
            "a,0,pose,0,0.1,0.2,0.3,1",
            "b,0,pose,0,0.1,0.2,0.3,-1",
            "b,1,pose,0,0.1,0.2,0.3,-1",
        ]))
        assert outcome(read_corpus, p) == outcome(reference_read_corpus, p) == (
            CorpusFormatError, "sample 'b': label -1 is negative (line 3)")
        # Checked sample by sample: a's frames decrease, but b comes first.
        p = write_text(tmp_path / "c.csv", rows_csv([
            "b,0,pose,0,0.1,0.2,0.3,-1",
            "a,1,pose,0,0.1,0.2,0.3,1",
            "a,0,pose,0,0.1,0.2,0.3,1",
        ]))
        assert outcome(read_corpus, p) == outcome(reference_read_corpus, p) == (
            CorpusFormatError, "sample 'b': label -1 is negative (line 2)")

    def test_empty_file_has_no_header(self, tmp_path):
        p = write_text(tmp_path / "c.csv", "")
        with pytest.raises(CorpusFormatError, match=r"^missing header \(line 1\)$"):
            read_corpus(p)

    def test_field_over_the_csv_limit_names_its_line(self, tmp_path):
        # csv refuses fields over 131072 characters; the record spanning
        # lines 3-4 comes before the one that is too long.
        p = write_text(
            tmp_path / "c.csv",
            f"{HEADER}\n"
            "a,0,pose,0,0.1,0.1,,1\n"
            '"two\nlines",0,pose,0,0.1,0.1,,1\n'
            f"{'b' * 200_000},0,pose,0,0.1,0.1,,1\n",
        )
        for chunk_rows in (1, 2, 512):
            with mock.patch.object(landmarks, "_CHUNK_ROWS", chunk_rows):
                with pytest.raises(CorpusFormatError,
                                   match=r"^unreadable CSV record: field larger .*\(line 5\)$"):
                    read_corpus(p)
        p = write_text(tmp_path / "c.csv", f"{'b' * 200_000}\n")
        with pytest.raises(CorpusFormatError, match=r"field larger .*\(line 1\)$"):
            read_corpus(p)

    @pytest.mark.parametrize("column", [1, 3])
    def test_int_outside_int64_names_its_line(self, tmp_path, column):
        # The run's columns parse at C level until the 2**63 on line 4; that
        # sample then reads record by record and LandmarkRows names the row.
        rows = [["a", str(t), "pose", "0", "0.1", "0.1", "", "1"] for t in range(4)]
        rows[2][column] = str(2 ** 63)
        p = write_text(tmp_path / "c.csv",
                       "\n".join([HEADER, *map(",".join, rows)]) + "\n")
        what = "frame index" if column == 1 else "landmark index"
        for chunk_rows in (1, 512):
            with mock.patch.object(landmarks, "_CHUNK_ROWS", chunk_rows):
                assert outcome(read_corpus, p) == outcome(reference_read_corpus, p) == (
                    CorpusFormatError,
                    f"sample 'a': row 2: {what} outside the int64 range (line 4)")


class TestWriteCorpus:
    def test_round_trip_three_synthetic_samples(self, tmp_path):
        samples = make_synthetic_samples(3, 1, seed=4)
        p = tmp_path / "c.csv"
        write_corpus(samples, p)
        assert read_corpus(p) == samples

    def test_missing_z_sentinel_survives_round_trip(self, tmp_path):
        s = make_sample(with_missing=True, seed=9)
        assert any(math.isnan(f.z) for f in s.frames)
        p = tmp_path / "c.csv"
        write_corpus([s], p)
        back = read_corpus(p)
        assert back == [s]

    def test_zero_samples_header_only(self, tmp_path):
        p = tmp_path / "c.csv"
        write_corpus([], p)
        assert p.read_text(encoding="utf-8").strip() == HEADER
        assert read_corpus(p) == []

    def test_unlabeled_round_trip(self, tmp_path):
        s = make_sample(label=None)
        p = tmp_path / "c.csv"
        write_corpus([s], p)
        assert read_corpus(p)[0].label is None


class TestCorpusBytes:
    def test_golden_csv_digest(self, tmp_path):
        samples = make_synthetic_samples(3, 2, seed=4) + [
            make_sample("m", with_missing=True, seed=9, label=None)]
        p = tmp_path / "c.csv"
        write_corpus(samples, p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == (
            "40897087037cd17c522515cfc346704b6117ac520a15d0e7a0c7fea405161c01")

    @settings(deadline=None)
    @given(st.lists(sign_samples(), max_size=3, unique_by=lambda s: s.sample_id))
    def test_write_read_round_trip(self, tmp_path_factory, samples):
        p = tmp_path_factory.mktemp("corpus") / "c.csv"
        write_corpus(samples, p)
        assert read_corpus(p) == samples


class TestDuplicateRows:
    def test_sample_rejects_a_repeated_row(self):
        a = LandmarkFrame(0, LandmarkKind.POSE, 11, 0.1, 0.2, 0.3)
        b = LandmarkFrame(0, LandmarkKind.POSE, 11, 0.4, 0.5, 0.6)
        other_kind = LandmarkFrame(0, LandmarkKind.FACE, 11, 0.4, 0.5, 0.6)
        other_frame = LandmarkFrame(1, LandmarkKind.POSE, 11, 0.4, 0.5, 0.6)
        assert len(SignSample("s", [a, other_kind, other_frame]).frames) == 3
        with pytest.raises(ValidationError, match="row 2: repeats"):
            SignSample("s", [a, other_kind, b])

    def test_read_corpus_names_the_repeated_line(self, tmp_path):
        p = write_text(
            tmp_path / "c.csv",
            f"{HEADER}\n"
            "s1,0,pose,11,0.1,0.1,,1\n"
            "s2,0,pose,11,0.1,0.1,,1\n"
            "s1,0,pose,12,0.2,0.2,,1\n"
            "s1,0,pose,11,0.3,0.3,,1\n",
        )
        with pytest.raises(CorpusFormatError, match=r"'s1'.*repeats.*line 5"):
            read_corpus(p)


def reference_read_corpus(path):
    """The per-record reader that `read_corpus` replaced, kept as its
    reference: every field of every record through its own parser. It
    differs from the original only in naming the physical line a record
    starts on, not the record's count."""
    columns, labels = {}, {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise CorpusFormatError("missing header", 1) from None
            if header != CORPUS_HEADER:
                raise CorpusFormatError(
                    f"bad header {header!r}, expected {CORPUS_HEADER!r}", 1)
            start = reader.line_num + 1
            for row in reader:
                line, start = start, reader.line_num + 1
                if not row:
                    continue
                if len(row) != len(CORPUS_HEADER):
                    raise CorpusFormatError(
                        f"expected {len(CORPUS_HEADER)} columns, got {len(row)}", line)
                sample_id, frame_s, kind_s, index_s, x_s, y_s, z_s, label_s = row
                if not sample_id:
                    raise CorpusFormatError("empty sample_id", line)
                label = (None if label_s == ""
                         else landmarks._parse_int(label_s, "label", line))
                if sample_id not in columns:
                    columns[sample_id] = ([], [], [], array("d"), array("q"))
                    labels[sample_id] = label
                elif labels[sample_id] != label:
                    raise CorpusFormatError(
                        f"inconsistent label for sample {sample_id!r}", line)
                frames, kinds, indices, coords, lines = columns[sample_id]
                try:
                    kinds.append(kind_from_name(kind_s).value)
                except ValidationError:
                    raise CorpusFormatError(
                        f"unknown landmark kind {kind_s!r}", line) from None
                frames.append(landmarks._parse_int(frame_s, "frame", line))
                indices.append(landmarks._parse_int(index_s, "landmark_index", line))
                coords.extend(landmarks._parse_float(v, c, line)
                              for v, c in zip((x_s, y_s, z_s), "xyz"))
                lines.append(line)
    except UnicodeDecodeError as e:
        raise CorpusFormatError(f"corpus {path}: not UTF-8 text ({e.reason})") from None
    samples = []
    for sample_id, (frames, kinds, indices, coords, lines) in columns.items():
        try:
            rows = landmarks.LandmarkRows(frames, kinds, indices, coords)
        except landmarks._RowError as e:
            raise CorpusFormatError(f"sample {sample_id!r}: {e}", lines[e.row]) from None
        try:
            samples.append(SignSample(sample_id, rows, labels[sample_id]))
        except ValidationError as e:
            raise CorpusFormatError(str(e), lines[0]) from None
    return samples


def outcome(read, path):
    """The samples read, or the class and message of the error raised."""
    try:
        return read(path)
    except ValidationError as e:
        return type(e), str(e)


# Field values that break a record, and some that parse only one way
# ("07" is label 7, "" is a missing coordinate, "nan" and "1_0" are floats).
_BAD_FIELDS = ["", " ", "x", "07", " 7", "-1", "1.5", "nan", "inf", "-inf",
               "1e400", "1_0", "\u0663", "9" * 30, "face", "torso", "POSE",
               "468", "21"]
_QUOTED_IDS = ["a", "b,c", 'q"d', "line\nbreak", "cr\r\nlf", "lone\rcr", " "]


@st.composite
def corpus_rows(draw):
    """Rows of a written corpus, interleaved across samples, with blank
    lines and up to four field, column-count and row faults."""
    samples = draw(st.lists(sign_samples(), min_size=1, max_size=3))
    ids = draw(st.lists(st.one_of(st.sampled_from(_QUOTED_IDS), st.text(min_size=1, max_size=4)),
                        min_size=len(samples), max_size=len(samples), unique=True))
    queues = [[[sid, str(frame), landmarks._KINDS[code].csv_name, str(index),
                *map(str, xyz), "" if s.label is None else str(s.label)]
               for frame, code, index, *xyz in s.frames.tolist(missing="")]
              for sid, s in zip(ids, samples)]
    rows = []
    while any(queues):  # interleave, keeping each sample's row order
        queue = draw(st.sampled_from([q for q in queues if q]))
        rows.append(queue.pop(0))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(rows) - 1))
        fault = draw(st.sampled_from(["field", "field", "width", "blank", "repeat"]))
        if fault == "field" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(_BAD_FIELDS))
        elif fault == "width":
            rows[i] = (rows[i] + ["0"])[:draw(st.integers(1, 9))]
        elif fault == "blank":
            rows.insert(i, [])
        else:
            rows.insert(i, list(rows[i]))
    return rows


class TestReaderAgainstReference:
    @settings(deadline=None, max_examples=300)
    @given(corpus_rows(), st.sampled_from([1, 2, 3, 7, 512]),
           st.sampled_from(["\r\n", "\n"]))
    def test_same_samples_or_same_error(self, tmp_path_factory, rows, chunk_rows,
                                        terminator):
        p = tmp_path_factory.mktemp("corpus") / "c.csv"
        with p.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator=terminator)
            writer.writerow(CORPUS_HEADER)
            writer.writerows(rows)
        with mock.patch.object(landmarks, "_CHUNK_ROWS", chunk_rows):
            got = outcome(read_corpus, p)
        assert got == outcome(reference_read_corpus, p)

    def test_first_of_several_faults_wins(self, tmp_path):
        rows = [
            "a,0,pose,0,0.1,0.1,,1",
            "a,1,pose,0,0.1,0.1,,1",
            "a,2,pose,x,0.1,0.1,,1",     # line 4: landmark_index
            "a,3,torso,0,y,0.1,,1",      # line 5: kind before x
            "a,4,pose,0,0.1,0.1,,2",     # line 6: label
        ]
        p = write_text(tmp_path / "c.csv", "\n".join([HEADER, *rows]) + "\n")
        for chunk_rows in (1, 2, 512):
            with mock.patch.object(landmarks, "_CHUNK_ROWS", chunk_rows):
                with pytest.raises(CorpusFormatError,
                                   match=r"^non-integer landmark_index value 'x' \(line 4\)$"):
                    read_corpus(p)
        p = write_text(tmp_path / "c.csv", "\n".join([HEADER, *rows[:2], *rows[3:]]) + "\n")
        with pytest.raises(CorpusFormatError,
                           match=r"^unknown landmark kind 'torso' \(line 4\)$"):
            read_corpus(p)

    def test_fault_before_undecodable_bytes_wins(self, tmp_path):
        # The bad x sits in an earlier 8 KiB decode block than the bytes that
        # are not UTF-8, so the per-record reader reports it first.
        good = "".join(f"a,{t},pose,0,0.1,0.1,,1\n" for t in range(1, 600))
        p = tmp_path / "c.csv"
        p.write_bytes(f"{HEADER}\na,0,pose,0,abc,0.1,,1\n{good}".encode()
                      + b"a,600,pose,0,\xff,0.1,,1\n")
        assert outcome(read_corpus, p) == outcome(reference_read_corpus, p) == (
            CorpusFormatError, "non-numeric x value 'abc' (line 2)")
        p.write_bytes(f"{HEADER}\n{good}".encode() + b"a,600,pose,0,\xff,0.1,,1\n")
        kind, message = outcome(read_corpus, p)
        assert kind is CorpusFormatError and "not UTF-8" in message


# -- the split read -----------------------------------------------------------

PARENT = os.getpid()
FORK = os.fork


def split_read(path, cpus, fork=FORK, block=landmarks._BLOCK_BYTES):
    """read_corpus with every file split into up to `cpus` parts (any size
    is large enough to split), forking through `fork` and reading `block`
    bytes at a time."""
    with mock.patch.object(landmarks, "_MIN_PART_BYTES", 1), \
         mock.patch.object(landmarks, "_BLOCK_BYTES", block), \
         mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))), \
         mock.patch.object(os, "fork", fork):
        return outcome(read_corpus, path)


def one_part_read(path):
    return split_read(path, 1, refuse_fork)


def refuse_fork():
    raise AssertionError("forked")


class ForkSpy:
    """os.fork that records the pid of each child it forks."""

    def __init__(self):
        self.pids = []

    def __call__(self):
        pid = FORK()
        if pid:
            self.pids.append(pid)
        return pid


def rows_csv(rows, terminator="\n"):
    return terminator.join([HEADER, *rows]) + terminator


# One sample whose rows run across every cut, between two short ones. The
# second id holds characters that str.splitlines, unlike a file, breaks at.
LONG = [f"long,{t},pose,{i},0.{t},0.{i},,4" for t in range(20) for i in range(3)]
STRADDLING = ["a,0,face,1,0.1,0.2,0.3,1", *LONG[:30], "b\x0c\u2028,0,pose,0,0.5,,,",
              *LONG[30:], "a,1,face,1,0.1,0.2,0.3,1"]


class TestSplitRead:
    @settings(deadline=None, max_examples=150)
    @given(corpus_rows(), st.sampled_from([2, 3, 4]), st.sampled_from([1, 3, 512]),
           st.sampled_from(["\r\n", "\n"]), st.sampled_from([1, 7, 1 << 16]),
           st.booleans())
    def test_same_outcome_as_the_one_part_read(self, tmp_path_factory, rows, cpus,
                                               chunk_rows, terminator, block, last_ends):
        p = tmp_path_factory.mktemp("corpus") / "c.csv"
        text = io.StringIO(newline="")
        writer = csv.writer(text, lineterminator=terminator)
        writer.writerow(CORPUS_HEADER)
        writer.writerows(rows)
        text = text.getvalue()
        p.write_bytes((text if last_ends else text.removesuffix(terminator)).encode())
        with mock.patch.object(landmarks, "_CHUNK_ROWS", chunk_rows):
            got = split_read(p, cpus, block=block)
            assert got == one_part_read(p)
        assert got == outcome(reference_read_corpus, p)

    @pytest.mark.parametrize("terminator", ["\n", "\r\n"])
    @pytest.mark.parametrize("blank", [False, True])
    @pytest.mark.parametrize("block", [5, 1 << 16])
    def test_samples_that_straddle_the_cuts(self, tmp_path, monkeypatch, terminator, blank,
                                            block):
        rows = [row for r in STRADDLING for row in ([r, ""] if blank else [r])]
        p = tmp_path / "c.csv"
        p.write_bytes(rows_csv(rows, terminator).encode())
        monkeypatch.setattr(landmarks, "_read_records", read_records_refused)
        spy = ForkSpy()
        got = split_read(p, 4, spy, block)
        assert len(spy.pids) == 3
        assert got == one_part_read(p) == outcome(reference_read_corpus, p)
        assert [(s.sample_id, s.label, len(s.frames)) for s in got] == [
            ("a", 1, 2), ("long", 4, 60), ("b\x0c\u2028", None, 1)]

    @pytest.mark.parametrize("row, fault", [
        (50, "long,{t},pose,x,0.1,0.1,,4"),         # a field, in the last part
        (50, "long,{t},pose,0,0.1,0.1,,5"),         # a label, caught by the merge
        (50, "long,0,pose,0,0.1,0.1,,4"),           # a row, caught after the merge
        (40, "long,{t},pose,0,0.1,0.1,,4,extra"),
        (45, "a,9,face,1,0.1,0.2,0.3,2"),           # a label, in a later part
        (-1, "a,1,face,1,0.1,0.2,0.3,2"),           # a label only the merge sees
    ])
    def test_a_fault_in_a_childs_part_is_named_as_one_stream_names_it(
            self, tmp_path, row, fault):
        rows = list(STRADDLING)
        rows[row] = fault.format(t=50)
        p = write_text(tmp_path / "c.csv", rows_csv(rows))
        spy = ForkSpy()
        got = split_read(p, 4, spy)
        assert len(spy.pids) == 3
        assert got[0] is CorpusFormatError
        assert got == one_part_read(p) == outcome(reference_read_corpus, p)

    def test_a_quoted_corpus_reads_as_one_stream(self, tmp_path, monkeypatch):
        # A cut falls inside the quoted id's line breaks.
        quoted = '"' + "\n".join(f"line {i}" for i in range(40)) + '",0,pose,0,0.1,0.1,,2'
        p = write_text(tmp_path / "c.csv", rows_csv([*STRADDLING[:5], quoted, *STRADDLING[5:]]))
        streams = []
        read_columns = landmarks._read_columns

        def spy(lines, header):
            if os.getpid() == PARENT:
                streams.append(isinstance(lines, io.TextIOWrapper))
            return read_columns(lines, header)

        monkeypatch.setattr(landmarks, "_read_columns", spy)
        monkeypatch.setattr(landmarks, "_read_records", read_records_refused)
        fork = ForkSpy()
        got = split_read(p, 4, fork)
        assert fork.pids and streams == [False, True]
        assert got == outcome(reference_read_corpus, p)
        assert got[2].sample_id.count("\n") == 39


def fail_in_a_child(read_range):
    """read_range, except that it raises in a forked child."""
    def read(fd, start, stop, header):
        if os.getpid() != PARENT:
            raise RuntimeError("a child's part failed")
        return read_range(fd, start, stop, header)
    return read


class TestSplitReadProcesses:
    def test_a_fifo_reads_as_one_stream(self, tmp_path):
        p = tmp_path / "fifo.csv"
        os.mkfifo(p)
        data = rows_csv(STRADDLING).encode()
        writer = threading.Thread(target=p.write_bytes, args=(data,), daemon=True)
        writer.start()
        got = split_read(p, 4, refuse_fork)
        writer.join(timeout=10.0)
        file = write_text(tmp_path / "c.csv", data.decode())
        assert got == outcome(reference_read_corpus, file)

    @pytest.mark.parametrize("fault", [
        "c,0,face,x,0.1,0.2,0.3,1",     # a field
        "c,0,face,1,0.1,0.2,0.3,-1",    # a sample invariant
    ])
    def test_a_faulty_pipe_names_the_fault_a_file_names(self, tmp_path, fault):
        # A pipe reopened by path, as /dev/stdin is, finds what was read gone.
        data = rows_csv([fault, *STRADDLING]).encode()
        r, w = os.pipe()
        try:
            with os.fdopen(w, "wb") as writer:
                writer.write(data)  # fits the pipe's buffer
            got = outcome(read_corpus, f"/dev/fd/{r}")
        finally:
            os.close(r)
        file = write_text(tmp_path / "c.csv", data.decode())
        assert got[0] is CorpusFormatError and got[1].endswith("(line 2)")
        assert got == outcome(read_corpus, file) == outcome(reference_read_corpus, file)

    def test_one_cpu_forks_nothing(self, tmp_path):
        p = write_text(tmp_path / "c.csv", rows_csv(STRADDLING))
        assert split_read(p, 1, refuse_fork) == outcome(reference_read_corpus, p)

    def test_a_fork_that_fails_reads_one_stream(self, tmp_path):
        p = write_text(tmp_path / "c.csv", rows_csv(STRADDLING))
        spy = ForkSpy()

        def fork_once():
            if spy.pids:
                raise BlockingIOError(errno.EAGAIN, "fork")
            return spy()

        assert split_read(p, 4, fork_once) == outcome(reference_read_corpus, p)
        assert len(spy.pids) == 1

    def test_an_error_in_the_parents_part_kills_and_reaps_every_child(
            self, tmp_path, monkeypatch):
        p = write_text(tmp_path / "c.csv", rows_csv(STRADDLING))
        read_range = landmarks._read_range

        def stall_or_fail(fd, start, stop, header):
            if os.getpid() == PARENT:
                raise RuntimeError("the parent's part failed")
            time.sleep(60)  # a child that would outlive the read if left alone
            return read_range(fd, start, stop, header)

        monkeypatch.setattr(landmarks, "_read_range", stall_or_fail)
        spy = ForkSpy()
        began = time.monotonic()
        with pytest.raises(RuntimeError, match="parent's part"):
            split_read(p, 3, spy)
        assert time.monotonic() - began < 30
        assert len(spy.pids) == 2
        for pid in spy.pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)  # already reaped

    def test_a_part_no_child_sends_is_read_here(self, tmp_path, monkeypatch):
        p = write_text(tmp_path / "c.csv", rows_csv(STRADDLING))
        monkeypatch.setattr(landmarks, "_read_range", fail_in_a_child(landmarks._read_range))
        spy = ForkSpy()
        assert split_read(p, 4, spy) == outcome(reference_read_corpus, p)
        assert len(spy.pids) == 3

    @pytest.mark.parametrize("fails", [False, True])
    def test_a_child_ends_in_os_exit_without_flushing_inherited_stdio(
            self, tmp_path, monkeypatch, fails):
        p = write_text(tmp_path / "c.csv", rows_csv(STRADDLING))
        if fails:
            monkeypatch.setattr(landmarks, "_read_range",
                                fail_in_a_child(landmarks._read_range))
        out = tmp_path / "out.txt"
        with out.open("w", encoding="utf-8") as buffered, p.open("rb") as corpus:
            buffered.write("written once\n")  # left in the buffer the child inherits
            pid, pipe = landmarks._fork_part(corpus.fileno(), len(HEADER) + 1,
                                             p.stat().st_size)
            with pipe:
                sent = pipe.read()
            _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == (1 if fails else 0)
        assert out.read_text(encoding="utf-8") == "written once\n"
        if not fails:
            columns, labels = pickle.loads(sent)
            assert labels == {"a": 1, "long": 4, "b\x0c\u2028": None}


def fork_sites(source: str, module: str) -> list[str]:
    """`module:line` of each use of os.fork, or os.forkpty, outside
    landmarks.py, the corpus reader's one fork."""
    if module == "landmarks.py":
        return []
    names = {"fork", "forkpty"}
    return [f"{module}:{node.lineno}" for node, _ in scoped_nodes(source)
            if isinstance(node, ast.Attribute) and node.attr in names
            or isinstance(node, ast.ImportFrom) and node.module == "os"
            and names & {alias.name for alias in node.names}]


def test_the_guard_finds_each_kind_of_fork():
    source = """
import os
from os import fork
from os import path, forkpty
def f():
    os.fork(); pid = os.forkpty()
    socketserver.ForkingMixIn
"""
    assert fork_sites(source, "m.py") == ["m.py:3", "m.py:4", "m.py:6", "m.py:6"]
    assert fork_sites(source, "landmarks.py") == []


def test_only_the_corpus_reader_forks_itself():
    assert package_sites(fork_sites) == []
