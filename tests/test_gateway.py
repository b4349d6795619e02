import email.utils
import hashlib
import json
import os
import re
import stat
import sys
import threading
import time
from datetime import datetime, timedelta, timezone

import pytest
import requests
from hypothesis import given
from hypothesis import strategies as st

from cqretrofit.filtration import filter_questions, kept_questions
from cqretrofit import gateway
from cqretrofit.gateway import (
    AuthError,
    DispatchSlots,
    GenerationRecord,
    GatewayError,
    MalformedResponseError,
    ProviderConfig,
    RateLimitError,
    RequestTimeoutError,
    ResponseCache,
    atomic_write_text,
    complete,
    extract_questions,
    generate_records,
    mock_provider,
    preset_max_tokens,
    prompt_digest,
)
from cqretrofit.ontology import filter_statements, parse_ontology
from cqretrofit.prompts import render_prompt

from conftest import FIXTURES, FakeResponse, chat_payload


@pytest.fixture(scope="module")
def statements():
    raw = parse_ontology((FIXTURES / "videogame_20.nt").read_text(), "ntriples")
    return filter_statements(raw, "vg").statements


@pytest.fixture
def prompt(statements):
    return render_prompt("P1", statements[0])


class TestProviderConfig:
    def test_presets(self):
        assert preset_max_tokens("gpt-3.5-turbo") == 4096
        assert preset_max_tokens("gpt-4") == 8192
        assert preset_max_tokens("llama-2-70b-chat") == 4096

    def test_max_tokens_positive(self):
        with pytest.raises(ValueError):
            ProviderConfig("x", "m", max_tokens=0)

    def test_max_tokens_defaults_to_the_model_preset(self):
        assert ProviderConfig("x", "gpt-4").max_tokens == 8192
        assert ProviderConfig("x", "llama-2").max_tokens == 4096
        assert ProviderConfig("x", "gpt-4", max_tokens=100).max_tokens == 100

    @pytest.mark.parametrize(
        "field,value",
        [("retry_backoff_s", -1), ("request_timeout_s", 0), ("request_timeout_s", -0.5)],
    )
    def test_dispatch_settings_in_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            ProviderConfig("x", "m", **{field: value})
        ProviderConfig("x", "m", retry_backoff_s=0)

    def test_api_key_env_var(self):
        cfg = ProviderConfig("open-ai.v1", "m", endpoint_url="http://x")
        assert cfg.api_key_env_var() == "RETROFIT_API_KEY_OPEN_AI_V1"


def mock_text(statement, template_id, seed):
    return complete(render_prompt(template_id, statement), mock_provider(), mock_seed=seed).text


class TestMockProvider:
    def test_deterministic_across_calls(self, statements):
        a = mock_text(statements[0], "P1", seed=7)
        b = mock_text(statements[0], "P1", seed=7)
        assert a == b

    def test_numbered_list_of_2_to_5(self, statements):
        for seed in range(5):
            for st_ in statements[:4]:
                lines = mock_text(st_, "P2", seed).splitlines()
                assert 2 <= len(lines) <= 5
                for i, line in enumerate(lines, start=1):
                    assert line.startswith(f"{i}. ")
                    assert line.endswith("?")

    def test_seed_and_template_change_output(self, statements):
        texts = {
            mock_text(statements[0], tid, seed)
            for tid in ("P1", "P2", "P3")
            for seed in range(4)
        }
        assert len(texts) > 1

    def test_complete_mock_asks_about_statement_labels(self, statements, prompt):
        response = complete(prompt, mock_provider(), mock_seed=7)
        assert response.from_cache is False
        st_ = statements[0]
        for line in response.text.splitlines():
            assert st_.subject.readable() in line or st_.object.readable() in line


class TestCache:
    def test_second_call_hits_cache(self, prompt, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        cfg = mock_provider()
        first = complete(prompt, cfg, cache, mock_seed=3)
        second = complete(prompt, cfg, cache, mock_seed=3)
        assert first.from_cache is False
        assert second.from_cache is True
        assert second.text == first.text

    def test_different_seed_is_a_different_entry(self, prompt, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        cfg = mock_provider()
        a = complete(prompt, cfg, cache, mock_seed=1)
        b = complete(prompt, cfg, cache, mock_seed=2)
        assert b.from_cache is False
        assert a.text != b.text or a.prompt_digest != b.prompt_digest

    def test_digest_depends_on_model_and_prompt(self, prompt):
        # The digest moves with every field of the request record.
        http_cfg = ProviderConfig("x", "m", endpoint_url="http://a.org/v1", temperature=0.2)
        mock, http = (gateway._request(prompt, cfg, 0) for cfg in (mock_provider(), http_cfg))
        mock_changes = {"model": "m2", "seed": 1, "statement": 9, "template": "P2",
                        "labels": ("a", "b", "c")}
        body_changes = {"model": "m2", "messages": [{"role": "user", "content": "p2"}],
                        "max_tokens": 1, "temperature": 0.7}
        assert set(mock_changes) == set(mock) and set(body_changes) == set(http["body"])
        variants = [mock, http, {**http, "endpoint": "http://b.org/v1"}]
        variants += [{**mock, key: value} for key, value in mock_changes.items()]
        variants += [{**http, "body": {**http["body"], key: value}}
                     for key, value in body_changes.items()]
        digests = [prompt_digest(request) for request in variants]
        assert len(set(digests)) == len(variants)
        assert prompt_digest(dict(reversed(mock.items()))) == digests[0]

    def test_digest_is_sha256_of_sorted_json(self, prompt):
        # The key of every existing cache entry: a change of encoder must
        # not move it.
        http_cfg = ProviderConfig("x", "m", endpoint_url="http://a.org/v1", temperature=0.2)
        for cfg in (mock_provider(), http_cfg):
            request = gateway._request(prompt, cfg, 3)
            text = json.dumps(request, sort_keys=True)
            assert prompt_digest(request) == hashlib.sha256(text.encode("ascii")).hexdigest()

    def test_corrupt_entry_is_ignored(self, prompt, tmp_path):
        cache = ResponseCache(tmp_path)
        digest = complete(prompt, mock_provider()).prompt_digest
        (tmp_path / f"{digest}.json").write_text("{not json")
        response = complete(prompt, mock_provider(), cache)
        assert response.from_cache is False

    @pytest.mark.parametrize(
        "text", ['{"text": 5}', "[1]", "{}", '"text"', "null", '{"text": null}', b"\xff"]
    )
    def test_entry_without_string_text_is_a_miss(self, prompt, tmp_path, caplog, text):
        cache = ResponseCache(tmp_path)
        digest = complete(prompt, mock_provider()).prompt_digest
        path = tmp_path / f"{digest}.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert cache.get(digest) is None
        assert f"discarding unreadable cache entry {path}" in caplog.text
        response = complete(prompt, mock_provider(), cache)
        assert response.from_cache is False and response.text
        assert complete(prompt, mock_provider(), cache).from_cache is True


    def test_entry_nested_too_deep_is_a_miss(self, prompt, tmp_path, caplog):
        cache = ResponseCache(tmp_path)
        digest = complete(prompt, mock_provider()).prompt_digest
        path = tmp_path / f"{digest}.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert cache.get(digest) is None
        assert f"discarding unreadable cache entry {path}" in caplog.text
        assert complete(prompt, mock_provider(), cache).from_cache is False

    def test_miss_is_one_read_and_silent(self, prompt, tmp_path, caplog, monkeypatch):
        cache = ResponseCache(tmp_path)
        digest = complete(prompt, mock_provider()).prompt_digest
        exists_calls = []
        real_exists = gateway.Path.exists
        monkeypatch.setattr(gateway.Path, "exists",
                            lambda self, *a, **k: exists_calls.append(self) or real_exists(self))
        assert cache.get(digest) is None
        assert caplog.text == "" and exists_calls == []
        (tmp_path / f"{digest}.json").write_text("{not json")
        assert cache.get(digest) is None
        assert "discarding unreadable cache entry" in caplog.text and exists_calls == []


class TestAtomicWrite:
    def test_concurrent_writers_never_raise_or_tear(self, tmp_path):
        path = tmp_path / "out" / "entry.json"
        texts = ["a" * 200_000, "b" * 300_000]
        errors, torn = [], []
        stop = threading.Event()

        def write(text):
            try:
                for _ in range(100):
                    atomic_write_text(path, text)
            except Exception as exc:
                errors.append(exc)

        def read():
            while not stop.is_set():
                try:
                    got = path.read_text(encoding="utf-8")
                except FileNotFoundError:
                    continue
                if got not in texts:
                    torn.append(len(got))

        writers = [threading.Thread(target=write, args=(t,)) for t in texts]
        reader = threading.Thread(target=read)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reader.start()
            for t in writers:
                t.start()
            for t in writers:
                t.join(timeout=60)
            stop.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers + [reader])
        assert errors == []
        assert torn == []
        assert path.read_text(encoding="utf-8") in texts
        assert [p.name for p in path.parent.iterdir()] == ["entry.json"]

    def test_failed_write_leaves_the_target_and_no_temp_file(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text("old", encoding="utf-8")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(path, "\ud800")
        assert path.read_text(encoding="utf-8") == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]

    def test_file_mode_follows_umask(self, tmp_path):
        path = tmp_path / "f.txt"
        atomic_write_text(path, "x")
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


class TestHttpProvider:
    def _cfg(self, url, **kw):
        kw.setdefault("max_retries", 2)
        kw.setdefault("retry_backoff_s", 0.01)
        kw.setdefault("request_timeout_s", 5.0)
        return ProviderConfig("fake", "fake-model", endpoint_url=url, **kw)

    def test_success_and_payload_shape(self, http_server, prompt, monkeypatch):
        monkeypatch.setenv("RETROFIT_API_KEY_FAKE", "sekrit")
        seen = {}

        def handler(path, body, headers):
            seen.update(body)
            seen["auth"] = headers.get("Authorization")
            return 200, chat_payload("1. What is a thing?")

        server = http_server(handler)
        response = complete(prompt, self._cfg(server.url))
        assert response.text == "1. What is a thing?"
        assert response.from_cache is False
        assert response.latency_ms is not None
        assert seen["model"] == "fake-model"
        assert seen["messages"] == [{"role": "user", "content": prompt.rendered}]
        assert seen["max_tokens"] == 4096
        assert "temperature" not in seen
        assert seen["auth"] == "Bearer sekrit"

    def test_posts_json_and_no_credential_when_its_variable_is_unset(self, http_server, prompt):
        seen = []

        def handler(path, body, headers):
            seen.append((path, headers["Content-Type"], "Authorization" in headers))
            return 200, chat_payload("ok?")

        complete(prompt, self._cfg(http_server(handler).url))
        assert seen == [("/v1/chat/completions", "application/json", False)]

    def test_temperature_forwarded_when_set(self, http_server, prompt):
        seen = {}

        def handler(path, body, headers):
            seen.update(body)
            return 200, chat_payload("ok?")

        server = http_server(handler)
        complete(prompt, self._cfg(server.url, temperature=0.2))
        assert seen["temperature"] == 0.2

    def test_rate_limit_exhausts_retries(self, http_server, prompt):
        server = http_server(lambda path, body, headers: (429, {"error": "slow down"}))
        with pytest.raises(RateLimitError):
            complete(prompt, self._cfg(server.url, max_retries=2))
        assert server.request_count == 3  # initial call + 2 retries

    def test_transient_500_then_success(self, http_server, prompt):
        state = {"n": 0}

        def handler(path, body, headers):
            state["n"] += 1
            if state["n"] < 3:
                return 503, {"error": "warming up"}
            return 200, chat_payload("What now?")

        server = http_server(handler)
        response = complete(prompt, self._cfg(server.url))
        assert response.text == "What now?"
        assert server.request_count == 3

    def test_auth_error_no_retry(self, http_server, prompt):
        server = http_server(lambda path, body, headers: (401, {"error": "no"}))
        with pytest.raises(AuthError, match="RETROFIT_API_KEY_FAKE"):
            complete(prompt, self._cfg(server.url))
        assert server.request_count == 1

    def test_malformed_response(self, http_server, prompt):
        server = http_server(lambda path, body, headers: (200, {"unexpected": True}))
        with pytest.raises(MalformedResponseError):
            complete(prompt, self._cfg(server.url))

    def test_truncation_flag(self, http_server, prompt):
        server = http_server(
            lambda path, body, headers: (200, chat_payload("cut?", finish_reason="length"))
        )
        assert complete(prompt, self._cfg(server.url)).truncated is True

    def test_request_parameters_are_part_of_the_cache_key(self, http_server, prompt, tmp_path):
        server = http_server(lambda path, body, headers: (200, chat_payload("q?")))
        cache = ResponseCache(tmp_path)
        complete(prompt, self._cfg(server.url, temperature=0.2), cache)
        for changed in ({"temperature": 0.7}, {"temperature": 0.2, "max_tokens": 100}):
            assert complete(prompt, self._cfg(server.url, **changed), cache).from_cache is False
        assert complete(prompt, self._cfg(server.url, temperature=0.2), cache).from_cache is True
        assert server.request_count == 3

    def test_endpoint_is_part_of_the_cache_key(self, http_server, prompt, tmp_path):
        # Two providers of one model on different endpoints, one cache.
        a = http_server(lambda path, body, headers: (200, chat_payload("From A?")))
        b = http_server(lambda path, body, headers: (200, chat_payload("From B?")))
        cache = ResponseCache(tmp_path)
        assert complete(prompt, self._cfg(a.url), cache).text == "From A?"
        response = complete(prompt, self._cfg(b.url), cache)
        assert (response.text, response.from_cache) == ("From B?", False)
        assert (a.request_count, b.request_count) == (1, 1)

    def test_no_key_sends_no_authorization(self, http_server, prompt, monkeypatch):
        monkeypatch.delenv("RETROFIT_API_KEY_FAKE", raising=False)
        seen = []

        def handler(path, body, headers):
            seen.append(headers.get("Authorization"))
            return 200, chat_payload("q?")

        complete(prompt, self._cfg(http_server(handler).url))
        assert seen == [None]

    def test_key_is_not_a_parameter(self, http_server, prompt):
        server = http_server(lambda path, body, headers: (200, chat_payload("q?")))
        with pytest.raises(TypeError):
            complete(prompt, self._cfg(server.url), api_key="sekrit")
        assert server.request_count == 0

    def test_failed_dispatch_gives_backoff_up_unsent(self, http_server, prompt):
        server = http_server(lambda path, body, headers: (503, {"error": "busy"}))
        slots = DispatchSlots(1)
        slots.failed.set()
        started = time.monotonic()
        with pytest.raises(gateway._Abandoned):
            complete(prompt, self._cfg(server.url, retry_backoff_s=5.0), slots=slots)
        assert time.monotonic() - started < 2.5
        assert server.request_count == 1

    def test_unfailed_dispatch_retries_after_backoff(self, http_server, prompt):
        state = {"n": 0}

        def handler(path, body, headers):
            state["n"] += 1
            return (503, {"error": "busy"}) if state["n"] == 1 else (200, chat_payload("q?"))

        server = http_server(handler)
        slots = DispatchSlots(1)
        assert complete(prompt, self._cfg(server.url), slots=slots).text == "q?"
        assert server.request_count == 2
        assert not slots.failed.is_set()

    def test_cached_http_response_skips_network(self, http_server, prompt, tmp_path):
        server = http_server(lambda path, body, headers: (200, chat_payload("once?")))
        cache = ResponseCache(tmp_path)
        cfg = self._cfg(server.url)
        complete(prompt, cfg, cache)
        response = complete(prompt, cfg, cache)
        assert response.from_cache is True
        assert server.request_count == 1

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ValueError, match="max_retries must be >= 0"):
            self._cfg("http://127.0.0.1:9/v1", max_retries=-1)

    def _post_raising(self, monkeypatch, *outcomes):
        """Patch ``requests.post`` to raise or return each of ``outcomes``
        in turn, then the last one forever; returns the list of calls."""
        calls = []

        def post(*args, **kwargs):
            outcome = outcomes[min(len(calls), len(outcomes) - 1)]
            calls.append(args)
            if isinstance(outcome, BaseException):
                raise outcome
            return outcome

        monkeypatch.setattr(gateway.requests, "post", post)
        return calls

    def test_timeouts_exhaust_retries(self, monkeypatch, prompt):
        calls = self._post_raising(monkeypatch, requests.Timeout("slow"))
        with pytest.raises(RequestTimeoutError, match="^fake: request timed out after 3 attempts$"):
            complete(prompt, self._cfg("http://127.0.0.1:9/v1", max_retries=2))
        assert len(calls) == 3

    def test_connection_error_is_retried(self, monkeypatch, prompt):
        calls = self._post_raising(
            monkeypatch, requests.ConnectionError("reset"), FakeResponse(200, chat_payload("q?"))
        )
        assert complete(prompt, self._cfg("http://127.0.0.1:9/v1")).text == "q?"
        assert len(calls) == 2

    def test_connection_errors_exhaust_retries(self, monkeypatch, prompt):
        calls = self._post_raising(monkeypatch, requests.ConnectionError("reset"))
        with pytest.raises(GatewayError, match="^fake: connection failed: reset$"):
            complete(prompt, self._cfg("http://127.0.0.1:9/v1", max_retries=1))
        assert len(calls) == 2

    def test_non_retryable_status_is_sent_once(self, http_server, prompt):
        server = http_server(lambda path, body, headers: (400, {"error": "bad request"}))
        with pytest.raises(GatewayError, match="^fake: HTTP 400: ") as info:
            complete(prompt, self._cfg(server.url))
        assert type(info.value) is GatewayError
        assert server.request_count == 1

    @pytest.mark.parametrize("content", [5, None, ["q?"]])
    def test_content_that_is_not_text_is_malformed(self, http_server, prompt, content):
        server = http_server(lambda path, body, headers: (200, chat_payload(content)))
        with pytest.raises(MalformedResponseError, match="message content is not text"):
            complete(prompt, self._cfg(server.url))

    @pytest.mark.parametrize(
        "exc", [requests.TooManyRedirects("Exceeded 30 redirects."),
                requests.exceptions.InvalidURL("bad URL")],
    )
    def test_other_request_failure_is_sent_once_and_named(self, monkeypatch, statements, exc):
        calls = self._post_raising(monkeypatch, exc)
        sset = filter_statements(statements[:1], "vg")  # one prompt: no second post races
        with pytest.raises(GatewayError) as info:
            generate_records(sset, ["P1"], [self._cfg("http://127.0.0.1:9/v1")], parallelism=1)
        assert type(info.value) is GatewayError
        assert re.fullmatch(
            rf"\[ontology=vg template=P1 provider=fake statement=0\] "
            rf"fake: request failed: {re.escape(str(exc))}", str(info.value)
        )
        assert len(calls) == 1

    def test_mock_id_with_an_endpoint_sends_http(self, http_server, prompt):
        server = http_server(lambda path, body, headers: (200, chat_payload("Sent?")))
        cfg = ProviderConfig(gateway.MOCK_PROVIDER_ID, "m", endpoint_url=server.url)
        assert not cfg.is_mock
        assert complete(prompt, cfg).text == "Sent?"
        assert server.request_count == 1


def _http_date(offset_s):
    when = datetime.now(timezone.utc) + timedelta(seconds=offset_s)
    return email.utils.format_datetime(when, usegmt=True)


class TestRetryAfter:
    """429/503 responses carrying ``Retry-After`` set the retry delay."""

    def _complete(self, monkeypatch, prompt, statuses_and_headers, **kw):
        responses = [FakeResponse(s, headers=h) for s, h in statuses_and_headers]
        responses.append(FakeResponse(200, chat_payload("q?")))
        slept = []
        monkeypatch.setattr(gateway.requests, "post", lambda *a, **k: responses.pop(0))
        slots = gateway.DispatchSlots(1)
        slots.failed.wait = slept.append  # a backoff waits on the failure event
        kw.setdefault("max_retries", len(statuses_and_headers))
        cfg = ProviderConfig(
            "fake", "fake-model", endpoint_url="http://127.0.0.1:9/v1", retry_backoff_s=0.5, **kw
        )
        assert complete(prompt, cfg, slots=slots).text == "q?"
        assert responses == []
        return slept

    def test_seconds_replace_the_exponential_delay(self, monkeypatch, prompt):
        slept = self._complete(
            monkeypatch, prompt, [(429, {"Retry-After": "7"}), (503, {"retry-after": " 2 "})]
        )
        assert slept == [7.0, 2.0]

    def test_delay_is_capped(self, monkeypatch, prompt):
        slept = self._complete(
            monkeypatch, prompt,
            [(429, {"Retry-After": "3600"}), (503, {"Retry-After": _http_date(3600)})],
        )
        assert slept == [gateway._BACKOFF_CAP_S] * 2

    def test_http_date(self, monkeypatch, prompt):
        slept = self._complete(
            monkeypatch, prompt,
            [(503, {"Retry-After": _http_date(20)}), (429, {"Retry-After": _http_date(-60)})],
        )
        assert 15.0 <= slept[0] <= 20.0
        assert slept[1] == 0.0

    def test_date_without_zone_is_utc(self, monkeypatch, prompt):
        when = datetime.now(timezone.utc) + timedelta(seconds=20)
        value = when.strftime("%a, %d %b %Y %H:%M:%S -0000")
        slept = self._complete(monkeypatch, prompt, [(429, {"Retry-After": value})])
        assert 15.0 <= slept[0] <= 20.0

    @pytest.mark.parametrize("value", [None, "", "soon", "-5", "1.5", "1e3", "٣", "Wed, 32 Oct 2015"])
    def test_absent_or_unparsable_falls_back_to_exponential(self, monkeypatch, prompt, value):
        headers = {} if value is None else {"Retry-After": value}
        slept = self._complete(monkeypatch, prompt, [(429, headers), (503, headers)])
        assert slept == [0.5, 1.0]

    def test_other_retryable_statuses_ignore_it(self, monkeypatch, prompt):
        slept = self._complete(
            monkeypatch, prompt, [(500, {"Retry-After": "7"}), (502, {"Retry-After": "7"})]
        )
        assert slept == [0.5, 1.0]

    def test_applies_only_to_the_next_retry(self, monkeypatch, prompt):
        slept = self._complete(
            monkeypatch, prompt, [(429, {"Retry-After": "7"}), (500, {})]
        )
        assert slept == [7.0, 1.0]


class TestExtractQuestions:
    def test_numbered_list(self):
        text = (
            "1. What is a Multiplayer Achievement?\n"
            "2. How do Multiplayer Achievements compare to Single Player Achievements?"
        )
        assert extract_questions(text) == [
            "What is a Multiplayer Achievement?",
            "How do Multiplayer Achievements compare to Single Player Achievements?",
        ]

    def test_preamble_dropped(self):
        text = "Sure! Here are questions:\n- What class does Multiplayer belong to?"
        assert extract_questions(text) == ["What class does Multiplayer belong to?"]

    def test_empty_response(self):
        assert extract_questions("") == []

    @pytest.mark.parametrize(
        "line,expected",
        [
            ("1) What is X?", "What is X?"),
            ("* What is X?", "What is X?"),
            ("• What is X?", "What is X?"),
            ('"What is X?"', "What is X?"),
            ("  What   is \t X?  ", "What is X?"),
            ("10. 'What is X?'", "What is X?"),
        ],
    )
    def test_marker_and_quote_stripping(self, line, expected):
        assert extract_questions(line) == [expected]

    def test_multi_sentence_item_truncated_at_first_question_mark(self):
        line = (
            "How do players typically earn this achievement in the game? "
            "Are there specific requirements or challenges that must be completed?"
        )
        assert extract_questions(line) == [
            "How do players typically earn this achievement in the game?"
        ]

    def test_non_question_lines_dropped(self):
        text = "Here are ideas\nAchievements are great.\nWhat is an Achievement?"
        assert extract_questions(text) == ["What is an Achievement?"]

    def test_bare_question_mark_dropped(self):
        assert extract_questions("?\n- ?") == []

    @given(st.text(max_size=300))
    def test_idempotent_on_own_output(self, text):
        once = extract_questions(text)
        again = extract_questions("\n".join(once))
        assert again == once

    @given(st.text(max_size=300))
    def test_output_invariants(self, text):
        for q in extract_questions(text):
            assert q.endswith("?")
            assert "\n" not in q
            assert q == " ".join(q.split())


# The reference for gateway._clean_line: enumeration markers are stripped
# one at a time, with the whitespace around each, until none is left.
_ONE_MARKER_RE = re.compile(r"^(?:\d+[.)]|[-*•])\s*")


def _reference_clean_line(line):
    text = line.strip()
    while True:
        stripped = _ONE_MARKER_RE.sub("", text, count=1)
        if stripped == text:
            break
        text = stripped.strip()
    for opener, closer in (('"', '"'), ("'", "'"), ("“", "”")):
        if len(text) >= 2 and text.startswith(opener) and text.endswith(closer):
            text = text[1:-1].strip()
    text = " ".join(text.split())
    idx = text.find("?")
    return None if idx <= 0 else text[: idx + 1]


# Digits (ASCII and not), marker punctuation, quotes, Unicode whitespace and
# a few letters, so most drawn lines start with runs of markers.
_MARKER_LINE = st.text(
    st.sampled_from(list("0123456789٣.)-*•\"'“” \t\u00a0\u2003\u3000\x0bab?")), max_size=24
)


class TestCleanLine:
    @given(st.one_of(_MARKER_LINE, st.text(max_size=40)))
    def test_matches_the_reference(self, line):
        assert gateway._clean_line(line) == _reference_clean_line(line)

    @pytest.mark.parametrize(
        "line,expected",
        [("1. 2) - * • 3.What?", "What?"), ("12.3. x?", "x?"), ("1 2. x?", "1 2. x?"),
         ("-\u3000-\u00a0\"Why?\"", "Why?"), ("1.", None), ("a1. b?", "a1. b?")],
    )
    def test_marker_runs(self, line, expected):
        assert gateway._clean_line(line) == _reference_clean_line(line) == expected


class TestGenerateRecords:
    def test_ordering_invariant(self, statements):
        records = generate_records(
            statements[:5],
            ["P2", "P1"],
            [mock_provider("model-b"), mock_provider("model-a")],
            seed=1,
        )
        keys = [(r.statement_ordinal, r.template_id, r.provider_id) for r in records]
        assert keys == sorted(keys)
        assert len(records) == 5 * 2 * 2

    def test_generator_templates_reach_every_provider(self, statements):
        records = generate_records(
            statements[:1],
            (t for t in ["P1", "P2"]),
            (p for p in [mock_provider("model-a"), mock_provider("model-b")]),
        )
        assert sorted(r.template_id for r in records) == ["P1", "P1", "P2", "P2"]

    def test_records_carry_model_and_cache_state(self, statements, tmp_path):
        cache = ResponseCache(tmp_path)
        for warm in (False, True):
            records = generate_records(statements[:3], ["P1"], [mock_provider("a")], cache=cache)
            assert [(r.model_name, r.from_cache) for r in records] == [("a", warm)] * 3

    def test_models_under_one_provider_id_dedup_apart(self, statements):
        # The mock's text does not depend on the model name, so a second
        # model repeats the first one's questions in a pool of its own.
        def kept(models):
            records = generate_records(statements, ["P1"], [mock_provider(m) for m in models])
            return kept_questions(filter_questions(records))

        assert len(kept(["a", "b"])) == 2 * len(kept(["a"]))

    def test_all_questions_wellformed(self, statements):
        records = generate_records(statements, ["P1"], [mock_provider()], seed=3)
        for record in records:
            assert isinstance(record, GenerationRecord)
            for q in record.questions:
                assert q.endswith("?")
                assert q

    @pytest.mark.parametrize("parallelism", [0, -5])
    def test_parallelism_below_one_rejected(self, statements, parallelism):
        with pytest.raises(ValueError, match="parallelism"):
            generate_records(statements[:1], ["P1"], [mock_provider()], parallelism=parallelism)


def _many_statements(n):
    nt = "".join(
        f"<http://ex.org/Thing{i}> <http://ex.org/relatesTo> <http://ex.org/Other{i}> .\n"
        for i in range(n)
    )
    return filter_statements(parse_ontology(nt, "ntriples"), "many")


class _InFlightProbe:
    """``http_server`` handler that records, for each request, its arrival
    time, prompt text and how many requests were in flight with it. The
    first attempt of each prompt in ``fail_first`` gets a 503."""

    def __init__(self, latency_s=0.05, fail_first=()):
        self.latency_s = latency_s
        self.fail_first = set(fail_first)
        self.lock = threading.Lock()
        self.in_flight = 0
        self.arrivals = []  # (time, in flight, prompt text)

    def __call__(self, path, body, headers):
        text = body["messages"][0]["content"]
        with self.lock:
            self.in_flight += 1
            self.arrivals.append((time.monotonic(), self.in_flight, text))
            fail = text in self.fail_first
            self.fail_first.discard(text)
        time.sleep(self.latency_s)
        with self.lock:
            self.in_flight -= 1
        return (503, {"error": "busy"}) if fail else (200, chat_payload("What is it?"))

    def max_in_flight(self):
        return max(n for _, n, _ in self.arrivals)


class TestDispatch:
    """generate_records against HTTP providers: one pool, ``parallelism``
    slots held only while a request is in flight."""

    def _cfg(self, url, **kw):
        kw.setdefault("retry_backoff_s", 0.3)
        return ProviderConfig("fake", "fake-model", endpoint_url=url, **kw)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_in_flight_requests_never_exceed_parallelism(self, http_server, statements, parallelism):
        first = render_prompt("P1", statements[0]).rendered
        probe = _InFlightProbe(fail_first=[first])
        server = http_server(probe)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            records = generate_records(
                statements, ["P1", "P2"], [self._cfg(server.url)], parallelism=parallelism
            )
        finally:
            sys.setswitchinterval(interval)
        assert len(records) == 2 * len(statements)
        assert len(probe.arrivals) == 2 * len(statements) + 1
        assert probe.max_in_flight() == parallelism

    def test_backoff_releases_its_slot(self, http_server, statements):
        first = render_prompt("P1", statements[0]).rendered
        probe = _InFlightProbe(fail_first=[first])
        server = http_server(probe)
        generate_records(statements, ["P1", "P2"], [self._cfg(server.url)], parallelism=2)
        sent, retried = [t for t, _, text in probe.arrivals if text == first]
        during_backoff = [
            n for t, n, text in probe.arrivals
            if sent + probe.latency_s < t < retried and text != first
        ]
        # Both slots carry other prompts while prompt 0 waits to retry.
        assert during_backoff
        assert max(during_backoff) == 2

    def test_fatal_error_stops_dispatch(self, http_server):
        sset = _many_statements(40)
        server = http_server(lambda path, body, headers: (401, {"error": "no"}))
        with pytest.raises(AuthError) as info:
            generate_records(sset, ["P1"], [self._cfg(server.url)], parallelism=2)
        assert server.request_count <= 2 * 2
        message = str(info.value)
        assert message.startswith("[ontology=many template=P1 provider=fake statement=")
        assert "RETROFIT_API_KEY_FAKE" in message
        assert isinstance(info.value.__cause__, AuthError)

    def test_fatal_error_ends_other_prompts_backoff(self, http_server):
        sset = _many_statements(10)
        waiting = render_prompt("P1", sset.statements[1]).rendered
        sent = []

        def handler(path, body, headers):
            text = body["messages"][0]["content"]
            sent.append(text)
            if text == waiting:
                return 503, {"error": "busy"}, {"Retry-After": "3"}
            time.sleep(0.2)  # so the 503 prompt is sent before the first 401
            return 401, {"error": "no"}

        server = http_server(handler)
        started = time.monotonic()
        with pytest.raises(AuthError) as info:
            generate_records(
                sset, ["P1"], [self._cfg(server.url, max_retries=3)], parallelism=2
            )
        assert time.monotonic() - started < 2.5
        # The 503 prompt backed off once and gave up without a retry.
        assert sent.count(waiting) == 1
        message = str(info.value)
        assert message.startswith("[ontology=many template=P1 provider=fake statement=0] ")
        assert "RETROFIT_API_KEY_FAKE" in message
