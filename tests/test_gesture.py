"""Gesture descriptor DB, markup parsing, and timeline scheduling."""

import math
import statistics
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from signpipe.errors import ValidationError
from signpipe.gesture import (
    _TAG_FORBIDDEN,
    OVERRUN_SLACK_S,
    GestureDb,
    GestureDescriptor,
    GestureSpan,
    MarkupError,
    PlainText,
    TaggedScript,
    check_speech_rate,
    descriptors_from_json,
    load_descriptors,
    normalize_spoken_text,
    parse_markup,
    playtime_stats,
    render_markup,
    schedule,
    strip_tags,
)

from conftest import SPOKEN_FIXTURE, TAGGED_FIXTURE


def simple_db(*entries):
    return GestureDb([
        GestureDescriptor(tag, f"{tag} gesture", playtime, frozenset(parts))
        for tag, playtime, parts in entries
    ])


class TestDescriptor:
    def test_valid(self):
        d = GestureDescriptor("Wave", "waves", 1.8, frozenset({"Right Arm"}))
        assert d.tag == "Wave" and d.playtime_s == 1.8

    def test_rejects_bad_fields(self):
        parts = frozenset({"Neck"})
        with pytest.raises(ValidationError):
            GestureDescriptor("", "x", 1.0, parts)
        with pytest.raises(ValidationError):
            GestureDescriptor("Two Words", "x", 1.0, parts)
        with pytest.raises(ValidationError):
            GestureDescriptor("A]B", "x", 1.0, parts)
        with pytest.raises(ValidationError):
            GestureDescriptor("Ok", "x", 0.0, parts)
        with pytest.raises(ValidationError):
            GestureDescriptor("Ok", "x", -1.0, parts)
        with pytest.raises(ValidationError):
            GestureDescriptor("Ok", "x", 1.0, frozenset())
        for playtime in (math.inf, math.nan, 10**400):
            with pytest.raises(ValidationError, match="playtime_s"):
                GestureDescriptor("Ok", "x", playtime, parts)


class TestDb:
    def test_order_and_lookup(self, fixture_db):
        assert fixture_db.tags == ("Yes", "Excited", "ShowSky", "Thinking")
        assert "Yes" in fixture_db
        assert "No" not in fixture_db
        assert fixture_db.get("Excited").playtime_s == 2.6
        assert len(fixture_db) == 4

    def test_duplicate_tags_rejected(self):
        with pytest.raises(ValidationError):
            simple_db(("A", 1.0, {"Neck"}), ("A", 2.0, {"Neck"}))

    def test_unknown_tag_lookup(self, fixture_db):
        with pytest.raises(ValidationError):
            fixture_db.get("Nope")

    def test_json_parsing_errors(self):
        with pytest.raises(ValidationError, match="invalid JSON"):
            descriptors_from_json("{nope")
        with pytest.raises(ValidationError, match="array"):
            descriptors_from_json("{}")
        with pytest.raises(ValidationError, match="missing field"):
            descriptors_from_json('[{"tag": "A"}]')
        with pytest.raises(ValidationError, match="body_parts"):
            descriptors_from_json(
                '[{"tag": "A", "description": "x", "playtime_s": 1,'
                ' "body_parts": [1]}]')
        for playtime in ("1e400", "Infinity", "NaN"):
            with pytest.raises(ValidationError, match="playtime_s"):
                descriptors_from_json(
                    f'[{{"tag": "A", "description": "x", "playtime_s": {playtime},'
                    ' "body_parts": ["Neck"]}]')

    def test_bundled_db_contents(self):
        path = resources.files("signpipe.data") / "descriptors.sample.json"
        db = load_descriptors(str(path))
        assert len(db) == 6
        thinking = db.get("Thinking")
        assert thinking.playtime_s == 2.17
        assert thinking.body_parts == frozenset(
            {"Eyes", "Neck", "Right Arm", "Right Hand"})
        assert "chin" in thinking.description


class TestPlaytimeStats:
    def test_one_two_three_four(self):
        db = simple_db(("A", 1.0, {"Neck"}), ("B", 2.0, {"Neck"}),
                       ("C", 3.0, {"Neck"}), ("D", 4.0, {"Neck"}))
        s = playtime_stats(db)
        assert s.mean == pytest.approx(2.5)
        assert s.std == pytest.approx(statistics.stdev([1.0, 2.0, 3.0, 4.0]))
        assert s.min == 1.0 and s.max == 4.0
        assert s.p25 == pytest.approx(1.75)
        assert s.p50 == pytest.approx(2.5)
        assert s.p75 == pytest.approx(3.25)

    def test_single_descriptor_has_zero_spread(self):
        s = playtime_stats(simple_db(("A", 2.0, {"Neck"})))
        assert s.std == 0.0
        assert s.mean == s.min == s.p25 == s.p50 == s.p75 == s.max == 2.0

    def test_bundled_db_summary(self):
        path = resources.files("signpipe.data") / "descriptors.sample.json"
        s = playtime_stats(load_descriptors(str(path)))
        assert s.mean == pytest.approx(1.878333, abs=1e-6)
        assert s.std == pytest.approx(0.519631, abs=1e-6)
        assert (s.min, s.max) == (1.2, 2.6)
        assert s.p25 == pytest.approx(1.5)
        assert s.p50 == pytest.approx(1.95)
        assert s.p75 == pytest.approx(2.1525)

    def test_quantiles_ordered_on_random_dbs(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            n = int(rng.integers(1, 12))
            entries = [(f"G{i}", float(rng.uniform(0.1, 20.0)), {"Neck"})
                       for i in range(n)]
            s = playtime_stats(simple_db(*entries))
            assert s.min <= s.p25 <= s.p50 <= s.p75 <= s.max
            assert s.std >= 0.0
            assert s.min <= s.mean <= s.max

    def test_empty_db_rejected(self):
        with pytest.raises(ValidationError):
            playtime_stats(GestureDb())

    def test_as_pairs_field_order(self):
        s = playtime_stats(simple_db(("A", 2.0, {"Neck"})))
        assert [k for k, _ in s.as_pairs()] == [
            "mean", "std", "min", "p25", "p50", "p75", "max"]


MARKUP_DB = simple_db(("Yes", 1.4, {"Neck"}), ("ShowSky", 2.1, {"Right Arm"}))


class TestParseMarkup:
    def test_reference_script(self, fixture_db):
        script = parse_markup(TAGGED_FIXTURE, fixture_db)
        assert len(script.segments) == 6
        assert [s.tag for s in script.spans()] == ["Yes", "Excited", "ShowSky"]
        assert script.segments[0] == GestureSpan("Yes", " Great! ")
        assert script.segments[1] == PlainText(" You drew a cloud sign, but ")
        assert script.segments[5] == PlainText(".")

    def test_reference_script_spoken_text(self, fixture_db):
        script = parse_markup(TAGGED_FIXTURE, fixture_db)
        assert strip_tags(script) == SPOKEN_FIXTURE

    def test_plain_text_only(self, fixture_db):
        script = parse_markup("hello world", fixture_db)
        assert script.segments == (PlainText("hello world"),)
        assert strip_tags(script) == "hello world"

    def test_empty_string(self, fixture_db):
        assert parse_markup("", fixture_db).segments == ()

    def test_stray_close_bracket_is_plain(self, fixture_db):
        script = parse_markup("a ] b", fixture_db)
        assert script.segments == (PlainText("a ] b"),)

    def test_adjacent_spans(self, fixture_db):
        script = parse_markup("[Yes]a[/Yes][ShowSky]b[/ShowSky]", fixture_db)
        assert [type(s) for s in script.segments] == [GestureSpan, GestureSpan]

    def test_empty_span_body(self, fixture_db):
        script = parse_markup("[Yes][/Yes]", fixture_db)
        assert script.segments == (GestureSpan("Yes", ""),)

    def test_nesting_rejected_with_position(self, fixture_db):
        with pytest.raises(MarkupError, match="nest") as exc:
            parse_markup("[Yes] x [Excited] y [/Excited] [/Yes]", fixture_db)
        assert exc.value.offset == 8
        assert exc.value.tag == "Excited"

    def test_unknown_tag(self, fixture_db):
        with pytest.raises(MarkupError, match="unknown") as exc:
            parse_markup("so [Bogus] hi [/Bogus]", fixture_db)
        assert exc.value.offset == 3
        assert exc.value.tag == "Bogus"

    def test_close_without_open(self, fixture_db):
        with pytest.raises(MarkupError, match="without an open") as exc:
            parse_markup("hi [/Yes]", fixture_db)
        assert exc.value.offset == 3

    def test_mismatched_close(self, fixture_db):
        with pytest.raises(MarkupError, match="does not match") as exc:
            parse_markup("[Yes] a [/Excited]", fixture_db)
        assert exc.value.offset == 8
        assert exc.value.tag == "Excited"

    def test_never_closed_points_at_opener(self, fixture_db):
        with pytest.raises(MarkupError, match="never closed") as exc:
            parse_markup("ab [Yes] hello", fixture_db)
        assert exc.value.offset == 3
        assert exc.value.tag == "Yes"

    def test_unterminated_token(self, fixture_db):
        with pytest.raises(MarkupError, match="unterminated") as exc:
            parse_markup("abc [Yes", fixture_db)
        assert exc.value.offset == 4

    def test_malformed_tokens(self, fixture_db):
        with pytest.raises(MarkupError, match="malformed"):
            parse_markup("[Ye s] x [/Ye s]", fixture_db)
        with pytest.raises(MarkupError, match="malformed"):
            parse_markup("[] x", fixture_db)

    def test_offsets_are_utf8_bytes(self, fixture_db):
        # 2 chars of 2 bytes each before the bracket at char index 3
        with pytest.raises(MarkupError) as exc:
            parse_markup("éé [Bogus] x [/Bogus]", fixture_db)
        assert exc.value.offset == 5
        assert "byte offset 5" in str(exc.value)

    def test_render_is_exact_inverse(self, fixture_db):
        script = parse_markup(TAGGED_FIXTURE, fixture_db)
        assert render_markup(script) == TAGGED_FIXTURE
        assert parse_markup(render_markup(script), fixture_db) == script

    @settings(deadline=None, max_examples=500)
    @given(text=st.lists(st.one_of(
        st.sampled_from(["[Yes]", "[/Yes]", "[ShowSky]", "[/ShowSky]", "[Bogus]",
                         "[", "]", "[/", "[]", " "]),
        st.text(st.characters(exclude_categories=()), max_size=6))).map("".join))
    @example(text="\ud800 [Yes")  # a lone surrogate before the error offset
    def test_any_text_parses_or_raises_markup_error(self, text):
        """Any text is a TaggedScript that renders back to itself, or a
        MarkupError; an LLM reply can be any string JSON can carry."""
        try:
            script = parse_markup(text, MARKUP_DB)
        except MarkupError:
            return
        assert isinstance(script, TaggedScript)
        assert render_markup(script) == text


def reference_parse_markup(text, db):
    """The character scanner that `parse_markup` replaced, kept as its
    reference: it walks to each '[' and finds the ']' that ends its token."""

    def byte_offset(char_index):
        return len(text[:char_index].encode("utf-8", "surrogatepass"))

    segments = []
    plain_start = 0
    open_span = None  # (tag, inner_start, open_pos)
    i = 0
    n = len(text)
    while i < n:
        if text[i] != "[":
            i += 1
            continue
        end = text.find("]", i)
        if end == -1:
            raise MarkupError("unterminated tag token", byte_offset(i))
        token = text[i + 1:end]
        closing = token.startswith("/")
        name = token[1:] if closing else token
        if not name or _TAG_FORBIDDEN.search(name):
            raise MarkupError(f"malformed tag token {token!r}", byte_offset(i), name or None)
        if not closing:
            if open_span is not None:
                raise MarkupError(f"tag {name!r} opened inside span {open_span[0]!r}: "
                                  "spans cannot nest", byte_offset(i), name)
            if name not in db:
                raise MarkupError(f"unknown gesture tag {name!r}", byte_offset(i), name)
            if plain_start < i:
                segments.append(PlainText(text[plain_start:i]))
            open_span = (name, end + 1, i)
        else:
            if open_span is None:
                raise MarkupError(f"closing tag {name!r} without an open span",
                                  byte_offset(i), name)
            if name != open_span[0]:
                raise MarkupError(f"closing tag {name!r} does not match open span "
                                  f"{open_span[0]!r}", byte_offset(i), name)
            segments.append(GestureSpan(name, text[open_span[1]:i]))
            open_span = None
            plain_start = end + 1
        i = end + 1
    if open_span is not None:
        raise MarkupError(f"span {open_span[0]!r} is never closed",
                          byte_offset(open_span[2]), open_span[0])
    if plain_start < n:
        segments.append(PlainText(text[plain_start:]))
    return TaggedScript(tuple(segments))


def parse_outcome(parse, text):
    """The segments parse gives text, or its MarkupError's message, offset
    and tag."""
    try:
        return parse(text, MARKUP_DB).segments
    except MarkupError as e:
        return str(e), e.offset, e.tag


# Texts built from brackets, slashes, whitespace, a 2-byte and a 3-byte
# (lone surrogate) character, and tokens with known, unknown and empty tags.
MARKUP_TEXTS = st.lists(st.sampled_from([
    "[", "]", "/", " ", "\n", "\u00e9", "\ud800", "Yes", "Bogus", "a b",
    "[Yes]", "[/Yes]", "[ShowSky]", "[/ShowSky]", "[Bogus]", "[/Bogus]", "[]", "[/]",
]), max_size=12).map("".join)


class TestParserAgainstReference:
    @settings(deadline=None, max_examples=400)
    @given(text=MARKUP_TEXTS)
    def test_same_segments_or_same_error(self, text):
        assert parse_outcome(parse_markup, text) == parse_outcome(reference_parse_markup, text)


class TestNormalizeSpokenText:
    def test_collapses_runs_and_strands(self):
        assert normalize_spoken_text("a  b\t c\n.") == "a b c."
        assert normalize_spoken_text("  x !  ") == "x!"
        assert normalize_spoken_text("a , b ; c :") == "a, b; c:"

    def test_plain_sentence_unchanged(self):
        assert normalize_spoken_text("Just look up.") == "Just look up."


class TestSchedule:
    def test_span_timing_and_overrun_warning(self, fixture_db):
        script = parse_markup("[Yes] Great! [/Yes] sure.", fixture_db)
        tl = schedule(script, fixture_db, speech_rate_wpm=150.0)
        g, = tl.gesture_events()
        assert (g.tag, g.start_s, g.duration_s) == ("Yes", 0.0, 1.4)
        s1, s2 = tl.speech_events()
        assert (s1.text, s1.start_s) == ("Great!", 0.0)
        assert s1.duration_s == pytest.approx(0.4)
        assert (s2.text, s2.start_s, s2.duration_s) == ("sure.", pytest.approx(0.4), pytest.approx(0.4))
        assert len(tl.warnings) == 1
        assert "Yes" in tl.warnings[0]
        assert "1.40" in tl.warnings[0] and "0.40" in tl.warnings[0]

    def test_reference_script_timeline(self, fixture_db):
        script = parse_markup(TAGGED_FIXTURE, fixture_db)
        tl = schedule(script, fixture_db, speech_rate_wpm=150.0)
        starts = {g.tag: g.start_s for g in tl.gesture_events()}
        assert starts["Yes"] == pytest.approx(0.0)
        assert starts["Excited"] == pytest.approx(2.8)
        assert starts["ShowSky"] == pytest.approx(6.0)
        total_words = len(SPOKEN_FIXTURE.split()) + 2  # ". Just" splits the dots off
        assert sum(s.duration_s for s in tl.speech_events()) == pytest.approx(
            total_words * 0.4)
        # only the short Yes span (1 word, 0.4s) is overrun by its 1.4s gesture
        assert len(tl.warnings) == 1
        assert "Yes" in tl.warnings[0] and "overlap" not in tl.warnings[0]

    def test_speech_duration_scales_with_rate(self, fixture_db):
        script = parse_markup("one two three four", fixture_db)
        tl = schedule(script, fixture_db, speech_rate_wpm=60.0)
        ev, = tl.speech_events()
        assert ev.duration_s == pytest.approx(4.0)

    def test_fast_rate_creates_body_part_conflict(self, fixture_db):
        script = parse_markup(TAGGED_FIXTURE, fixture_db)
        tl = schedule(script, fixture_db, speech_rate_wpm=600.0)
        conflict = [w for w in tl.warnings if "overlap" in w]
        assert len(conflict) == 1
        assert "Excited" in conflict[0] and "ShowSky" in conflict[0]
        assert "Right Arm" in conflict[0]

    def test_overlap_without_shared_parts_is_silent(self):
        db = simple_db(("Long", 5.0, {"Left Arm"}), ("Other", 5.0, {"Neck"}))
        script = parse_markup("[Long] a [/Long][Other] b [/Other]", db)
        tl = schedule(script, db)
        assert not any("overlap" in w for w in tl.warnings)
        # both still overrun their one-word spans
        assert sum("plays" in w for w in tl.warnings) == 2

    def test_shared_parts_without_overlap_is_silent(self, fixture_db):
        # Excited and ShowSky share an arm but speak far apart
        script = parse_markup(
            "[Excited] one two three four five six [/Excited] seven eight "
            "[ShowSky] nine ten [/ShowSky]",
            fixture_db)
        tl = schedule(script, fixture_db, speech_rate_wpm=150.0)
        assert not any("overlap" in w for w in tl.warnings)

    def test_empty_span_emits_gesture_only(self, fixture_db):
        tl = schedule(parse_markup("[Yes][/Yes]", fixture_db), fixture_db)
        assert len(tl.events) == 1
        assert tl.gesture_events()[0].start_s == 0.0

    def test_gesture_sorts_before_its_speech(self, fixture_db):
        tl = schedule(parse_markup("[Yes] hi [/Yes]", fixture_db), fixture_db)
        assert [type(e).__name__ for e in tl.events] == [
            "GestureEvent", "SpeechEvent"]

    def test_overrun_needs_more_than_slack(self):
        # 1.0s gesture on a 0.6s span: 0.4s overrun, inside the 0.5s slack
        db = simple_db(("Snug", 1.0, {"Neck"}))
        script = parse_markup("[Snug] one tiny word [/Snug]", db)
        assert schedule(script, db, speech_rate_wpm=300.0).warnings == ()
        db2 = simple_db(("Snug", 1.2, {"Neck"}))
        script2 = parse_markup("[Snug] one tiny word [/Snug]", db2)
        assert len(schedule(script2, db2, speech_rate_wpm=300.0).warnings) == 1

    def test_rate_must_be_positive(self, fixture_db):
        script = parse_markup("hi", fixture_db)
        with pytest.raises(ValidationError):
            schedule(script, fixture_db, speech_rate_wpm=0.0)

    @pytest.mark.parametrize("wpm", [1e-307, 5e-324, math.inf, math.nan, -150.0])
    def test_rate_must_give_finite_word_times(self, fixture_db, wpm):
        # 60/1e-307 overflows to inf seconds per word; an infinite rate puts
        # every event at 0 s.
        script = parse_markup(TAGGED_FIXTURE, fixture_db)
        with pytest.raises(ValidationError, match="wpm"):
            check_speech_rate(wpm)
        with pytest.raises(ValidationError, match="wpm"):
            schedule(script, fixture_db, speech_rate_wpm=wpm)

    def test_rate_must_give_finite_event_times(self, fixture_db):
        # 60/1e-306 s per word is finite and passes check_speech_rate, but
        # ten words run to inf seconds, which no SCRIPT can carry.
        check_speech_rate(1e-306)
        script = parse_markup("one two three four five six seven eight nine ten",
                              fixture_db)
        with pytest.raises(ValidationError, match="1e-306 wpm"):
            schedule(script, fixture_db, speech_rate_wpm=1e-306)

    def test_events_sorted_by_start(self, fixture_db):
        script = parse_markup(TAGGED_FIXTURE, fixture_db)
        tl = schedule(script, fixture_db)
        starts = [e.start_s for e in tl.events]
        assert starts == sorted(starts)
