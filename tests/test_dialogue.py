"""Two-step dialogue composition against mock, scripted, and HTTP backends."""

import pytest

from signpipe.dialogue import (
    API_KEY_ENV,
    MAX_REPLY_BYTES,
    ComposeResult,
    DialogueWarning,
    HttpLlmBackend,
    LlmBackend,
    MockLlmBackend,
    PromptTemplate,
    RecognitionEvent,
    ScriptedLlmBackend,
    compose,
    describe_db,
    render_step1,
    render_step2,
)
from signpipe.errors import BackendError, TemplateError, ValidationError
from signpipe.gesture import (
    GestureDb,
    PlainText,
    normalize_spoken_text,
    parse_markup,
    strip_tags,
)

from conftest import SPOKEN_FIXTURE, TAGGED_FIXTURE, chat_http_stub, chat_reply

EVENT = RecognitionEvent("cloud", 90.0)


@pytest.fixture
def template():
    return PromptTemplate.default()


class TestRecognitionEvent:
    def test_valid(self):
        assert EVENT.gloss == "cloud"
        assert EVENT.confidence_pct == 90.0

    def test_rejects_empty_gloss_and_bad_confidence(self):
        with pytest.raises(ValidationError):
            RecognitionEvent("", 50.0)
        with pytest.raises(ValidationError):
            RecognitionEvent("cloud", -1.0)
        with pytest.raises(ValidationError):
            RecognitionEvent("cloud", 100.5)


class TestPromptTemplate:
    def test_default_loads_and_validates(self, template):
        assert "{gloss}" in template.step1_instructions
        assert "####" in template.step1_instructions
        assert "{descriptors}" in template.step2_instructions

    def test_each_placeholder_required_exactly_once(self):
        ok1 = "say {gloss} at {confidence}%"
        ok2 = "tags:\n{descriptors}\n####\n{dialogue}"
        PromptTemplate(ok1, ok2)
        with pytest.raises(TemplateError, match="gloss"):
            PromptTemplate("no placeholders {confidence}", ok2)
        with pytest.raises(TemplateError, match="confidence"):
            PromptTemplate("{gloss} {confidence} {confidence}", ok2)
        with pytest.raises(TemplateError, match="descriptors"):
            PromptTemplate(ok1, "{dialogue} only")
        with pytest.raises(TemplateError, match="dialogue"):
            PromptTemplate(ok1, "{descriptors} only")

    def test_load_dir(self, tmp_path):
        (tmp_path / "step1.txt").write_text("a {gloss} b {confidence} c")
        (tmp_path / "step2.txt").write_text("d {descriptors} e {dialogue} f")
        t = PromptTemplate.load_dir(tmp_path)
        assert t.step1_instructions.startswith("a ")


class TestRendering:
    def test_step1_payload_sentence(self, template):
        prompt = render_step1(EVENT, template)
        assert ("A signer accurately depicted a cloud with a 90% "
                "accuracy rate.") in prompt
        assert "{gloss}" not in prompt and "{confidence}" not in prompt

    def test_step1_confidence_rounds_to_integer(self, template):
        prompt = render_step1(RecognitionEvent("rain", 87.4), template)
        assert "87%" in prompt
        assert "87.4" not in prompt

    def test_describe_db_line_format(self, fixture_db):
        lines = describe_db(fixture_db).splitlines()
        assert lines[0] == "- [Yes] Yes gesture (plays 1.40s; moves Neck)"
        assert len(lines) == len(fixture_db)
        assert lines[2].startswith("- [ShowSky] ")
        assert "Right Arm, Right Hand" in lines[2]

    def test_step2_embeds_listing_and_dialogue(self, fixture_db, template):
        prompt = render_step2("Hello there.", fixture_db, template)
        assert "- [Yes]" in prompt
        assert prompt.rstrip().endswith("Hello there.")
        assert "{descriptors}" not in prompt and "{dialogue}" not in prompt

    def test_step2_empty_db_warns(self, template):
        with pytest.warns(DialogueWarning, match="empty"):
            prompt = render_step2("Hello.", GestureDb(), template)
        assert "Hello." in prompt


class TestCompose:
    def test_reference_two_step_exchange(self, fixture_db, template):
        backend = ScriptedLlmBackend([SPOKEN_FIXTURE, TAGGED_FIXTURE])
        result = compose(EVENT, fixture_db, backend, template)
        assert isinstance(result, ComposeResult)
        assert result.script == parse_markup(TAGGED_FIXTURE, fixture_db)
        assert result.spoken_reply == SPOKEN_FIXTURE
        assert result.warnings == ()
        assert result.backend_calls == 2
        assert "cloud" in backend.prompts[0] and "90%" in backend.prompts[0]
        assert SPOKEN_FIXTURE in backend.prompts[1]
        assert "- [Yes]" in backend.prompts[1]

    def test_untagged_reply_is_already_valid(self, fixture_db, template):
        backend = ScriptedLlmBackend(["Hi.", "Plain words only."])
        result = compose(EVENT, fixture_db, backend, template)
        assert result.backend_calls == 2
        assert result.warnings == ()
        assert result.script.segments == (PlainText("Plain words only."),)

    def test_retry_appends_parse_error(self, fixture_db, template):
        backend = ScriptedLlmBackend(
            ["Hi.", "[Bogus] bad [/Bogus]", "[Yes] ok [/Yes]"])
        result = compose(EVENT, fixture_db, backend, template, max_retries=2)
        assert result.backend_calls == 3
        assert result.warnings == ()
        assert [s.tag for s in result.script.spans()] == ["Yes"]
        assert "rejected" in backend.prompts[2]
        assert "Bogus" in backend.prompts[2]

    def test_degrades_after_budget(self, fixture_db, template):
        backend = ScriptedLlmBackend(["Hi.", "[Bogus] hi there [/Bogus]"])
        with pytest.warns(DialogueWarning, match="degraded"):
            result = compose(EVENT, fixture_db, backend, template,
                             max_retries=0)
        assert result.backend_calls == 2
        assert len(result.warnings) == 1
        assert "degraded" in result.warnings[0]
        assert result.script.segments == (PlainText("hi there"),)
        assert result.script.spans() == ()

    def test_degraded_strip_handles_stray_brackets(self, fixture_db, template):
        backend = ScriptedLlmBackend(["Hi.", "so [Yes really [/ hmm ] yes"])
        with pytest.warns(DialogueWarning):
            result = compose(EVENT, fixture_db, backend, template,
                             max_retries=0)
        text = result.script.segments[0].text
        assert "[" not in text and "]" not in text
        assert text.startswith("so")

    def test_degraded_empty_reply_gives_empty_script(self, fixture_db, template):
        backend = ScriptedLlmBackend(["Hi.", "[Bogus][/Bogus]"])
        with pytest.warns(DialogueWarning):
            result = compose(EVENT, fixture_db, backend, template,
                             max_retries=0)
        assert result.script.segments == ()

    def test_budget_spent_on_persistently_bad_replies(self, fixture_db, template):
        backend = ScriptedLlmBackend(
            ["Hi.", "[Nope] a [/Nope]", "[Nope] b [/Nope]", "[Nope] c [/Nope]"])
        with pytest.warns(DialogueWarning):
            result = compose(EVENT, fixture_db, backend, template,
                             max_retries=2)
        assert result.backend_calls == 4

    def test_backend_exhaustion_propagates(self, fixture_db, template):
        backend = ScriptedLlmBackend(["Hi."])
        with pytest.raises(BackendError, match="exhausted"):
            compose(EVENT, fixture_db, backend, template)

    def test_negative_retries_rejected(self, fixture_db, template):
        with pytest.raises(ValidationError):
            compose(EVENT, fixture_db, ScriptedLlmBackend([]), template,
                    max_retries=-1)

    def test_base_backend_is_abstract(self):
        with pytest.raises(NotImplementedError):
            LlmBackend().complete("x")


class TestMockBackend:
    def test_pure_function_of_seed_and_prompt(self, template):
        prompt = render_step1(EVENT, template)
        a = MockLlmBackend(seed=3).complete(prompt)
        b = MockLlmBackend(seed=3).complete(prompt)
        assert a == b
        outputs = {MockLlmBackend(seed=s).complete(prompt) for s in range(8)}
        assert len(outputs) > 1

    def test_step1_reply_mentions_the_sign(self, template):
        reply = MockLlmBackend().complete(render_step1(EVENT, template))
        assert "cloud" in reply
        assert "[" not in reply

    def test_step2_reply_tags_the_given_dialogue(self, fixture_db, template):
        dialogue = "The weather is lovely today my friend."
        reply = MockLlmBackend(seed=1).complete(
            render_step2(dialogue, fixture_db, template))
        script = parse_markup(reply, fixture_db)
        assert 1 <= len(script.spans()) <= 2
        assert strip_tags(script) == normalize_spoken_text(dialogue)

    def test_composes_valid_scripts_across_seeds(self, fixture_db, template):
        for seed in range(6):
            backend = MockLlmBackend(seed=seed)
            result = compose(EVENT, fixture_db, backend, template)
            assert result.warnings == ()
            assert result.backend_calls == 2
            for span in result.script.spans():
                assert span.tag in fixture_db
            assert strip_tags(result.script) == normalize_spoken_text(
                result.spoken_reply)

    def test_end_to_end_determinism(self, fixture_db, template):
        a = compose(EVENT, fixture_db, MockLlmBackend(seed=4), template)
        b = compose(EVENT, fixture_db, MockLlmBackend(seed=4), template)
        assert a == b


class TestHttpBackend:
    def test_missing_api_key(self, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        backend = HttpLlmBackend("http://localhost:1", "some-model")
        with pytest.raises(BackendError, match=API_KEY_ENV):
            backend.complete("hi")

    def test_unreachable_host_is_backend_error(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "k")
        backend = HttpLlmBackend("http://127.0.0.1:9", "some-model",
                                 timeout_s=0.2)
        with pytest.raises(BackendError):
            backend.complete("hi")

    def test_url_normalization_and_validation(self):
        assert HttpLlmBackend("http://x/", "m").base_url == "http://x"
        assert HttpLlmBackend("https://x/v1", "m").base_url == "https://x/v1"
        with pytest.raises(ValidationError):
            HttpLlmBackend("", "m")

    @pytest.mark.parametrize("url", ["foo", "ftp://x"])
    def test_url_scheme_must_be_http(self, url):
        with pytest.raises(ValidationError, match="not an http or https URL"):
            HttpLlmBackend(url, "m")

    @pytest.fixture
    def local_key(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "k")
        monkeypatch.setenv("no_proxy", "*")  # the stub is local; no proxy is asked

    def test_well_formed_reply_returns_its_content(self, local_key):
        with chat_http_stub(chat_reply("Nice one!")) as url:
            assert HttpLlmBackend(url, "m").complete("hi") == "Nice one!"

    def test_reply_of_exactly_the_cap_returns(self, local_key):
        with chat_http_stub(chat_reply("big", size=MAX_REPLY_BYTES)) as url:
            assert HttpLlmBackend(url, "m").complete("hi") == "big"

    def test_reply_past_the_cap_is_backend_error(self, local_key):
        with chat_http_stub(chat_reply("big", size=MAX_REPLY_BYTES + 1)) as url:
            with pytest.raises(BackendError, match=f"longer than {MAX_REPLY_BYTES} bytes"):
                HttpLlmBackend(url, "m").complete("hi")
