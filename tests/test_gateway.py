import email.utils
import os
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
    MalformedResponseError,
    ProviderConfig,
    RateLimitError,
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

from conftest import FIXTURES, chat_payload


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

    def test_digest_depends_on_model_and_prompt(self):
        assert prompt_digest("m1", "p") != prompt_digest("m2", "p")
        assert prompt_digest("m", "p1") != prompt_digest("m", "p2")
        assert prompt_digest("m", "p") == prompt_digest("m", "p")

    def test_corrupt_entry_is_ignored(self, prompt, tmp_path):
        cache = ResponseCache(tmp_path)
        digest = prompt_digest("mock-small", prompt.rendered, "seed=0")
        (tmp_path / f"{digest}.json").write_text("{not json")
        response = complete(prompt, mock_provider(), cache)
        assert response.from_cache is False


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


class _FakeResponse:
    def __init__(self, status_code, payload=None, headers=None):
        self.status_code = status_code
        self._payload = payload
        self.headers = requests.structures.CaseInsensitiveDict(headers or {})
        self.text = ""

    def json(self):
        return self._payload


def _http_date(offset_s):
    when = datetime.now(timezone.utc) + timedelta(seconds=offset_s)
    return email.utils.format_datetime(when, usegmt=True)


class TestRetryAfter:
    """429/503 responses carrying ``Retry-After`` set the retry delay."""

    def _complete(self, monkeypatch, prompt, statuses_and_headers, **kw):
        responses = [_FakeResponse(s, headers=h) for s, h in statuses_and_headers]
        responses.append(_FakeResponse(200, chat_payload("q?")))
        slept = []
        monkeypatch.setattr(gateway.requests, "post", lambda *a, **k: responses.pop(0))
        monkeypatch.setattr(gateway.time, "sleep", slept.append)
        kw.setdefault("max_retries", len(statuses_and_headers))
        cfg = ProviderConfig(
            "fake", "fake-model", endpoint_url="http://127.0.0.1:9/v1", retry_backoff_s=0.5, **kw
        )
        assert complete(prompt, cfg).text == "q?"
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
