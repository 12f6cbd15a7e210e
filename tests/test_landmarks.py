"""Corpus format, domain types, and their invariants."""

import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

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
from signpipe.synth import make_synthetic_samples

from conftest import make_sample, sign_samples

HEADER = ",".join(CORPUS_HEADER)


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return path


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
        LandmarkFrame(0, LandmarkKind.LEFT_HAND, 20, 0.1, 0.2, 0.3)
        with pytest.raises(ValidationError):
            LandmarkFrame(0, LandmarkKind.LEFT_HAND, 21, 0.1, 0.2, 0.3)
        with pytest.raises(ValidationError):
            LandmarkFrame(0, LandmarkKind.FACE, 468, 0.1, 0.2, 0.3)

    def test_negative_frame_index_rejected(self):
        with pytest.raises(ValidationError):
            LandmarkFrame(-1, LandmarkKind.POSE, 0, 0.1, 0.2, 0.3)

    def test_infinite_coordinate_rejected_nan_allowed(self):
        with pytest.raises(ValidationError):
            LandmarkFrame(0, LandmarkKind.POSE, 0, math.inf, 0.2, 0.3)
        f = LandmarkFrame(0, LandmarkKind.POSE, 0, math.nan, 0.2, math.nan)
        assert math.isnan(f.x) and math.isnan(f.z)

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

    def test_by_frame_groups_in_order(self):
        s = make_sample(num_frames=3)
        groups = s.by_frame()
        assert [g[0] for g in groups] == [0, 1, 2]
        assert s.num_frames() == 3
        assert sum(len(g[1]) for g in groups) == len(s.frames)


class TestLabelMap:
    def test_bijective_lookup(self):
        m = LabelMap(("hello", "cloud", "rain"))
        assert m.gloss_for(1) == "cloud"
        assert m.id_for("rain") == 2
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
        with pytest.raises(ValidationError):
            m.id_for("c")

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

    def test_empty_label_is_none(self, tmp_path):
        p = write_text(tmp_path / "c.csv", f"{HEADER}\ns1,0,pose,0,0.5,0.5,0.0,\n")
        assert read_corpus(p)[0].label is None


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
